//! The four workloads: the inputs a seed picks, the public calls one
//! iteration makes, and the facts every iteration must reproduce.
//!
//! The seed only relabels values (proposal values, gate inputs); it never
//! changes the shape of a workload, so the expected facts below hold for
//! every seed.

use std::sync::Arc;

use subconsensus_core::{search_binary_consensus_with, GroupedObject, ProtocolClass};
use subconsensus_modelcheck::{
    check_nonblocking, check_wait_freedom, ExploreOptions, StateGraph, StoreBackend, Valency,
    WaitFreedom,
};
use subconsensus_objects::{Consensus, RegisterArray, SetConsensus};
use subconsensus_sim::{
    Action, ExploreMetrics, ObjId, ObjectSpec, Op, Pid, ProcCtx, Protocol, ProtocolError,
    SymmetryGroups, SystemBuilder, SystemSpec, Value,
};

use crate::trace::Tracer;

/// Hot-tier budget of the disk-store workload: well below the ~21 MB the
/// same exploration keeps resident in memory, so cold state spills.
pub const SPILL_BUDGET: usize = 8 << 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SearchD2,
    GraphP10,
    GraphSym,
    SpillP10,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SearchD2,
        Workload::GraphP10,
        Workload::GraphSym,
        Workload::SpillP10,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchD2 => "search_d2",
            Workload::GraphP10 => "graph_p10",
            Workload::GraphSym => "graph_sym",
            Workload::SpillP10 => "spill_p10",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: the benchmark's own input generator, independent of the
/// program's RNGs.
struct Seeded(u64);

impl Seeded {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `1..=1000`.
    fn small(&mut self) -> i64 {
        1 + (self.next() % 1000) as i64
    }
}

/// What one workload runs on.
pub enum Inputs {
    /// The depth-2 impossibility search over a `(3,2)`-set-consensus
    /// object.
    Search { class: ProtocolClass },
    /// One full-graph exploration, then its analyses.
    Graph { spec: SystemSpec },
}

/// Everything a run builds before its first workload call.
pub struct Setup {
    pub workload: Workload,
    /// The seed-picked values, for the run's provenance line.
    pub values: Vec<i64>,
    pub inputs: Inputs,
    pub opts: ExploreOptions,
}

impl Setup {
    pub fn new(workload: Workload, seed: u64) -> Setup {
        let mut rng = Seeded(seed ^ 0x5eed_0fbe);
        match workload {
            Workload::SearchD2 => {
                // Two distinct proposal values in ascending order, so the
                // object's sorted chosen set orders them as it orders 0 < 1.
                let a = rng.small();
                let b = a + rng.small();
                Setup {
                    workload,
                    values: vec![a, b],
                    inputs: Inputs::Search {
                        class: search_class(a, b),
                    },
                    // What `search_binary_consensus` passes.
                    opts: ExploreOptions::with_max_configs(200_000).with_por(true),
                }
            }
            Workload::GraphP10 | Workload::SpillP10 => {
                let v = rng.small();
                let opts = if workload == Workload::GraphP10 {
                    ExploreOptions::with_max_configs(1_000_000)
                        .with_symmetry(false)
                        .with_por(false)
                } else {
                    spill_options()
                };
                Setup {
                    workload,
                    values: vec![v],
                    inputs: Inputs::Graph {
                        spec: grouped_gate(v, 10).build(),
                    },
                    opts,
                }
            }
            Workload::GraphSym => {
                let base = rng.small();
                let stride = 1 + (rng.next() % 7) as i64;
                let values: Vec<i64> = (0..3).map(|b| base + b * stride).collect();
                Setup {
                    workload,
                    inputs: Inputs::Graph {
                        spec: partition_gate(&values, 5, 2).build(),
                    },
                    values,
                    opts: ExploreOptions::default().with_symmetry(true).with_por(true),
                }
            }
        }
    }
}

/// The disk-store workload's options: POR on, disk store, a small hot tier.
pub fn spill_options() -> ExploreOptions {
    ExploreOptions::default()
        .with_por(true)
        .with_store(StoreBackend::Disk)
        .with_store_budget(SPILL_BUDGET)
}

/// The same exploration kept in memory: the reference the disk store must
/// match, and the base of the spill overhead.
pub fn spill_reference_options() -> ExploreOptions {
    ExploreOptions::default()
        .with_por(true)
        .with_store(StoreBackend::Memory)
}

/// `set_consensus_32_class(2)` with the seed's proposal values `a < b` in
/// place of 0 and 1.
pub fn search_class(a: i64, b: i64) -> ProtocolClass {
    ProtocolClass {
        ops: vec![
            Op::unary("propose", Value::Int(a)),
            Op::unary("propose", Value::Int(b)),
        ],
        responses: vec![Value::Int(a), Value::Int(b)],
        max_depth: 2,
    }
}

pub fn set_consensus_32() -> Box<dyn ObjectSpec> {
    Box::new(SetConsensus::new(3, 2).expect("0 < 2 < 3"))
}

/// The writer-and-spinners gate: the first process of each `group`-sized
/// block proposes to the block's agreement object and raises the block's
/// flag; every other process of the block spin-reads the flag and decides
/// once it is up. Non-blocking but not wait-free.
#[derive(Clone, Copy, Debug)]
struct GateSpin {
    objs: ObjId,
    flags: ObjId,
    group: usize,
}

impl GateSpin {
    fn read_flag(&self, blk: usize) -> Action {
        Action::invoke(
            Value::Int(1),
            self.flags.offset(blk),
            Op::unary("read", Value::Int(0)),
        )
    }
}

impl Protocol for GateSpin {
    fn start(&self, _ctx: &ProcCtx) -> Value {
        Value::Int(0)
    }

    fn step(
        &self,
        ctx: &ProcCtx,
        local: &Value,
        resp: Option<&Value>,
    ) -> Result<Action, ProtocolError> {
        let blk = ctx.pid.index() / self.group;
        let writer = ctx.pid.index().is_multiple_of(self.group);
        match (writer, local.as_int().unwrap_or(-1)) {
            (true, 0) => Ok(Action::invoke(
                Value::Int(1),
                self.objs.offset(blk),
                Op::unary("propose", ctx.input.clone()),
            )),
            (true, 1) => Ok(Action::invoke(
                Value::Int(2),
                self.flags.offset(blk),
                Op::binary("write", Value::Int(0), Value::Int(1)),
            )),
            (true, 2) => Ok(Action::Decide(ctx.input.clone())),
            (false, 0) => Ok(self.read_flag(blk)),
            (false, 1) if resp.is_some_and(|r| r.as_int() == Some(1)) => {
                Ok(Action::Decide(ctx.input.clone()))
            }
            // Flag still down: poll again from the same local state.
            (false, 1) => Ok(self.read_flag(blk)),
            (_, pc) => Err(ProtocolError::new(format!("gate: bad pc {pc}"))),
        }
    }

    fn obj_footprint(&self, ctx: &ProcCtx) -> Option<Vec<ObjId>> {
        let blk = ctx.pid.index() / self.group;
        if ctx.pid.index().is_multiple_of(self.group) {
            Some(vec![self.objs.offset(blk), self.flags.offset(blk)])
        } else {
            Some(vec![self.flags.offset(blk)])
        }
    }
}

/// The builder of a graph workload's spec, ready for
/// `SystemBuilder::build` (`None` for the search).
pub fn builder(setup: &Setup) -> Option<SystemBuilder> {
    match setup.workload {
        Workload::SearchD2 => None,
        Workload::GraphP10 | Workload::SpillP10 => Some(grouped_gate(setup.values[0], 10)),
        Workload::GraphSym => Some(partition_gate(&setup.values, 5, 2)),
    }
}

/// One gate block of `procs` processes over `GroupedObject::for_level(2,
/// 1)`, every process with input `v`; the spinners form one symmetry group.
/// The shape of `grouped_gate_sym(2, 1, procs)` in the e9 fixtures.
fn grouped_gate(v: i64, procs: usize) -> SystemBuilder {
    let mut b = SystemBuilder::new();
    let objs = b.add_object(GroupedObject::for_level(2, 1));
    let flags = b.add_object(RegisterArray::new(1));
    let p: Arc<dyn Protocol> = Arc::new(GateSpin {
        objs,
        flags,
        group: procs,
    });
    b.add_processes(p, (0..procs).map(|_| Value::Int(v)));
    b.set_symmetry_groups(SymmetryGroups::new([(1..procs)
        .map(Pid::new)
        .collect::<Vec<_>>()]));
    b
}

/// `values.len()` gate blocks of `group` processes, block `b` over its own
/// `Consensus::bounded(m)` with input `values[b]`; each block's spinners
/// form one symmetry group. The shape of `partition_gate_sym(blocks, group,
/// m)` in the e9 fixtures.
fn partition_gate(values: &[i64], group: usize, m: usize) -> SystemBuilder {
    let blocks = values.len();
    let mut b = SystemBuilder::new();
    let objs = b.add_object_array(blocks, |_| {
        Box::new(Consensus::bounded(m)) as Box<dyn ObjectSpec>
    });
    let flags = b.add_object_array(blocks, |_| {
        Box::new(RegisterArray::new(1)) as Box<dyn ObjectSpec>
    });
    let p: Arc<dyn Protocol> = Arc::new(GateSpin { objs, flags, group });
    b.add_processes(
        p,
        (0..blocks * group).map(|i| Value::Int(values[i / group])),
    );
    b.set_symmetry_groups(SymmetryGroups::new((0..blocks).map(|blk| {
        (blk * group + 1..(blk + 1) * group)
            .map(Pid::new)
            .collect::<Vec<_>>()
    })));
    b
}

/// The observable result of one iteration.
#[derive(Clone, Debug, PartialEq)]
pub enum Facts {
    Search {
        trees: usize,
        checks: usize,
        witness: bool,
    },
    Graph {
        configs: usize,
        edges: usize,
        truncated: bool,
        wait_freedom: WaitFreedom,
        nonblocking: bool,
        approx_bytes: usize,
    },
}

impl Facts {
    /// Model checks the iteration completed: every search check, or the
    /// wait-freedom and non-blocking verdicts of a full graph.
    pub fn checks(&self) -> usize {
        match self {
            Facts::Search { checks, .. } => *checks,
            Facts::Graph { .. } => 2,
        }
    }

    pub fn to_json(&self) -> String {
        match self {
            Facts::Search {
                trees,
                checks,
                witness,
            } => format!("{{\"trees\": {trees}, \"checks\": {checks}, \"witness\": {witness}}}"),
            Facts::Graph {
                configs,
                edges,
                truncated,
                wait_freedom,
                nonblocking,
                approx_bytes,
            } => format!(
                "{{\"configs\": {configs}, \"edges\": {edges}, \"truncated\": {truncated}, \
                 \"wait_freedom\": \"{wait_freedom:?}\", \"nonblocking\": {nonblocking}, \
                 \"approx_bytes\": {approx_bytes}}}"
            ),
        }
    }
}

/// One iteration's result. A full-graph iteration keeps its graph, so a
/// traced run can replay it, and its exploration counters, which outlive
/// the graph.
pub struct Outcome {
    pub facts: Facts,
    pub graph: Option<StateGraph>,
    pub metrics: Option<ExploreMetrics>,
    /// The explorer's interner hit rate.
    pub hit_rate: f64,
}

/// Runs one iteration of the workload: the timed unit.
pub fn run_once(setup: &Setup, tr: &mut Tracer) -> Result<Outcome, String> {
    match &setup.inputs {
        Inputs::Search { class } => {
            let s = tr.begin("core::search_binary_consensus_with");
            let out = search_binary_consensus_with(set_consensus_32, class, &setup.opts);
            tr.end(s);
            let out = out.map_err(|e| format!("search failed: {e}"))?;
            Ok(Outcome {
                facts: Facts::Search {
                    trees: out.trees,
                    checks: out.checks,
                    witness: out.witness.is_some(),
                },
                graph: None,
                metrics: None,
                hit_rate: 0.0,
            })
        }
        Inputs::Graph { spec } => {
            let (graph, facts) = explore_and_check(spec, &setup.opts, setup.workload, tr)?;
            Ok(Outcome {
                facts,
                metrics: Some(graph.metrics().clone()),
                hit_rate: graph.interner_stats().map_or(0.0, |s| s.hit_rate()),
                graph: Some(graph),
            })
        }
    }
}

/// Explores `spec` and runs the full-graph analyses on the result.
pub fn explore_and_check(
    spec: &SystemSpec,
    opts: &ExploreOptions,
    workload: Workload,
    tr: &mut Tracer,
) -> Result<(StateGraph, Facts), String> {
    let s = tr.begin("modelcheck::StateGraph::explore");
    let graph = StateGraph::explore(spec, opts);
    tr.end(s);
    let graph = graph.map_err(|e| format!("explore failed: {e}"))?;
    if workload != Workload::SpillP10 {
        let s = tr.begin("modelcheck::Valency::compute");
        let valency = Valency::compute(&graph);
        tr.end(s);
        std::hint::black_box(&valency);
    }
    let s = tr.begin("modelcheck::check_wait_freedom");
    let wait_freedom = check_wait_freedom(&graph);
    tr.end(s);
    let s = tr.begin("modelcheck::check_nonblocking");
    let nonblocking = check_nonblocking(&graph);
    tr.end(s);
    let facts = Facts::Graph {
        configs: graph.len(),
        edges: graph.metrics().edges,
        truncated: graph.is_truncated(),
        wait_freedom,
        nonblocking,
        approx_bytes: graph.approx_bytes(),
    };
    Ok((graph, facts))
}

/// Checks one iteration's facts against the workload's known answer.
pub fn check(workload: Workload, facts: &Facts) -> Result<(), String> {
    let (configs_want, edges_want) = match (workload, facts) {
        (
            Workload::SearchD2,
            Facts::Search {
                trees,
                checks,
                witness,
            },
        ) => {
            return if (*trees, *checks, *witness) == (202, 81_810, false) {
                Ok(())
            } else {
                Err(format!(
                    "search facts {} != 202 trees, 81810 checks, no witness",
                    facts.to_json()
                ))
            };
        }
        (Workload::GraphP10, _) => (525_312, 3_811_328),
        (Workload::GraphSym, _) => (236_584, 1_694_374),
        (Workload::SpillP10, _) => (221_634, 1_159_582),
        (Workload::SearchD2, _) => return Err("search workload produced graph facts".into()),
    };
    match facts {
        Facts::Graph {
            configs,
            edges,
            truncated,
            wait_freedom,
            nonblocking,
            ..
        } if *configs == configs_want
            && *edges == edges_want
            && !truncated
            && !wait_freedom.is_wait_free()
            && *nonblocking =>
        {
            Ok(())
        }
        _ => Err(format!(
            "graph facts {} != {configs_want} configs, {edges_want} edges, complete, \
             not wait-free, non-blocking",
            facts.to_json()
        )),
    }
}

/// `mc-spill-*` run directories left in the temp directory: the disk store
/// must remove its own when the graph drops.
pub fn leaked_spill_dirs() -> usize {
    std::fs::read_dir(std::env::temp_dir())
        .map(|dir| {
            dir.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("mc-spill-"))
                .count()
        })
        .unwrap_or(0)
}

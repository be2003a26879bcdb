//! E6 (parallel exploration): the level-synchronized BFS — which splits
//! every level of 32+ items across the host's hardware threads — must
//! produce the reference explorer's graph node for node on the real E1
//! fixtures (grouped-family systems), for every store backend, and the
//! analyses on it must give the reference's answers. The forced 1-, 2-
//! and 3-worker splits of every level run on any host in the model
//! checker's own unit tests (`graph.rs`).

mod support;

use std::sync::Arc;

use subconsensus_core::GroupedObject;
use subconsensus_modelcheck::{
    check_wait_freedom, ExploreOptions, StateGraph, StoreBackend, Valency,
};
use subconsensus_protocols::ProposeDecide;
use subconsensus_sim::{
    Action, ObjId, ObjectError, ObjectSpec, Op, Outcome, ProcCtx, Protocol, ProtocolError,
    SystemBuilder, SystemSpec, Value,
};

/// `procs` processes proposing distinct values through one
/// `GroupedObject::for_level(n, k)` — the E1 benchmark fixture.
fn grouped_system(n: usize, k: usize, procs: usize) -> SystemSpec {
    let mut b = SystemBuilder::new();
    let obj = b.add_object(GroupedObject::for_level(n, k));
    let p: Arc<dyn Protocol> = Arc::new(ProposeDecide::new(obj));
    b.add_processes(p, (0..procs).map(|i| Value::Int(i as i64 + 1)));
    b.build()
}

/// The grouped fixtures. (2,1,4) is the one whose BFS levels reach the
/// 32-item parallel threshold (up to 168 items), so on a multi-core host
/// its large levels run split.
const FIXTURES: [(usize, usize, usize); 4] = [(2, 0, 2), (2, 1, 3), (3, 0, 3), (2, 1, 4)];

/// Whether this host splits large levels at all.
fn host_splits() -> bool {
    std::thread::available_parallelism().is_ok_and(|n| n.get() > 1)
}

#[test]
fn parallel_graph_identical_on_grouped_fixtures() {
    let mut split = false;
    for (n, k, procs) in FIXTURES {
        let spec = grouped_system(n, k, procs);
        let opts = ExploreOptions::default();
        let g = StateGraph::explore(&spec, &opts).unwrap();
        assert!(!g.is_truncated());
        let label = format!("({n},{k},{procs})");
        support::assert_matches_reference(&g, &support::reference_for(&spec, &opts), &label);
        let levels = &g.metrics().levels;
        split |= levels.iter().any(|l| l.workers > 1);
        if (n, k, procs) == (2, 1, 4) {
            assert!(
                levels.iter().any(|l| l.items >= 32),
                "{label}: no level reaches the parallel threshold"
            );
        }
    }
    assert_eq!(
        split,
        host_splits(),
        "a multi-core host splits the large levels, a one-core host none"
    );
}

#[test]
fn interned_store_matches_deep_store_across_thread_counts() {
    // The hash-consed node store must reproduce the reference explorer's
    // deep-`Config` store bit-for-bit — same nodes in the same order, same
    // edges, same terminals — with far fewer distinct object states than
    // configurations.
    for (n, k, procs) in FIXTURES {
        let spec = grouped_system(n, k, procs);
        let reference = support::reference_for(&spec, &ExploreOptions::default());
        let g = StateGraph::explore(&spec, &ExploreOptions::default()).expect("interned explore");
        support::assert_matches_reference(&g, &reference, &format!("({n},{k},{procs}) interned"));
        let stats = g
            .interner_stats()
            .expect("interned store exposes arena stats");
        assert!(stats.object_states <= g.len());
    }
}

/// A counter: every `inc` makes a brand-new state, so the arenas grow
/// with the walk length rather than staying at a handful of states.
#[derive(Debug)]
struct Counter;

impl ObjectSpec for Counter {
    fn type_name(&self) -> &'static str {
        "counter"
    }

    fn initial_state(&self) -> Value {
        Value::Int(0)
    }

    fn apply(&self, state: &Value, op: &Op) -> Result<Vec<Outcome>, ObjectError> {
        match op.name {
            "inc" => {
                let n = state.as_int().unwrap_or(0) + 1;
                Ok(vec![Outcome::ret(Value::Int(n), Value::Int(n))])
            }
            _ => Err(ObjectError::UnknownOp {
                object: "counter",
                op: op.clone(),
            }),
        }
    }
}

/// Increment `rounds` times, then decide the last response.
#[derive(Debug)]
struct IncMany {
    counter: ObjId,
    rounds: i64,
}

impl Protocol for IncMany {
    fn start(&self, _ctx: &ProcCtx) -> Value {
        Value::Int(0)
    }

    fn step(
        &self,
        _ctx: &ProcCtx,
        local: &Value,
        resp: Option<&Value>,
    ) -> Result<Action, ProtocolError> {
        match local.as_int() {
            Some(i) if i < self.rounds => Ok(Action::invoke(
                Value::Int(i + 1),
                self.counter,
                Op::new("inc"),
            )),
            _ => Ok(Action::Decide(resp.cloned().unwrap_or(Value::Nil))),
        }
    }
}

/// Two `rounds`-round incrementers over one [`Counter`].
fn counter_system(rounds: i64) -> SystemSpec {
    let mut b = SystemBuilder::new();
    let counter = b.add_object(Counter);
    let p: Arc<dyn Protocol> = Arc::new(IncMany { counter, rounds });
    b.add_processes(p, [1i64, 2].into_iter().map(Value::Int));
    b.build()
}

/// Hot-tier budget of the disk-store test: far below every fixture's
/// footprint, so the store must spill.
const DISK_BUDGET: usize = 16 << 10;

/// Explores `spec` on the disk store at [`DISK_BUDGET`] and checks it
/// against the in-memory store and the reference explorer. Returns the
/// in-memory graph.
fn assert_disk_store_reconstitutes(spec: &SystemSpec, label: &str) -> StateGraph {
    let base = StateGraph::explore(
        spec,
        &ExploreOptions::default().with_store(StoreBackend::Memory),
    )
    .unwrap();
    assert!(
        base.len() > 500,
        "{label}: fixture must dwarf the tiny budget"
    );
    let reference = support::reference_for(spec, &ExploreOptions::default());
    support::assert_matches_reference(&base, &reference, &format!("{label} memory"));
    let opts = ExploreOptions::default()
        .with_store(StoreBackend::Disk)
        .with_store_budget(DISK_BUDGET);
    let g = StateGraph::explore(spec, &opts).unwrap();
    support::assert_matches_reference(&g, &reference, &format!("{label} disk"));
    assert_eq!(
        g.approx_bytes(),
        base.approx_bytes(),
        "{label}: reconstituted store must cost what memory costs"
    );
    let stats = g.interner_stats().expect("disk store is interned");
    let base_stats = base.interner_stats().unwrap();
    assert_eq!(stats.object_states, base_stats.object_states);
    assert_eq!(stats.proc_states, base_stats.proc_states);
    let sm = g.metrics().store.expect("disk runs report store metrics");
    assert!(
        sm.spilled_bytes > 0,
        "{label}: a 16 KiB budget must force spill"
    );
    base
}

#[test]
fn disk_store_graph_identical_and_reconstituted() {
    // The disk-backed store, forced to spill by a hot-tier budget far
    // below the fixture's footprint, must reproduce the in-memory graph
    // node-for-node — and the reference explorer's — and the freeze-time
    // reconstitution must land on the exact
    // in-memory representation (same `approx_bytes`, same interner
    // arenas): only node rows and fingerprint-index entries spill, and
    // the arenas stay resident throughout.
    assert_disk_store_reconstitutes(&grouped_system(2, 1, 4), "grouped (2,1,4)");
    // The counter fixture's arenas alone outgrow the hot tier, so the
    // store runs over budget on state it never spills.
    let base = assert_disk_store_reconstitutes(&counter_system(20), "counter x2, 20 rounds");
    let stats = base.interner_stats().unwrap();
    assert!(
        stats.table_bytes + stats.state_bytes > DISK_BUDGET,
        "counter arenas ({} + {} B) must exceed the {DISK_BUDGET} B budget",
        stats.table_bytes,
        stats.state_bytes
    );
}

#[test]
fn analyses_agree_across_thread_counts() {
    // On the fixture whose large levels run split, the analyses see the
    // reference explorer's graph, so their verdicts are the reference's
    // exactly (not just up to isomorphism): wait-freedom, and the valence
    // of every node.
    let spec = grouped_system(2, 1, 4);
    let g = StateGraph::explore(&spec, &ExploreOptions::default()).unwrap();
    let reference = support::reference_for(&spec, &ExploreOptions::default());
    support::assert_matches_reference(&g, &reference, "(2,1,4)");
    assert_eq!(
        check_wait_freedom(&g),
        support::reference_wait_freedom(&reference)
    );
    let valency = Valency::compute(&g);
    for (i, valence) in reference.valences().iter().enumerate() {
        assert_eq!(valency.valence(i), valence, "valency of node {i}");
    }
}

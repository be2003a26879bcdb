//! The benchmark's own tracing: spans recorded around each public call,
//! kept in memory and written out when the run ends, plus the replay that
//! times the layers an exploration runs internally.

use std::collections::BTreeSet;
use std::time::Instant;

use subconsensus_modelcheck::StateGraph;
use subconsensus_sim::{Pid, StateInterner, SystemSpec};

/// One recorded call: its name, interval and the span that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans when on; when off, `begin`/`end` read no clock.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end_ns = self.now_ns();
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The last closed span named `name`.
    pub fn last(&self, name: &str) -> Option<&Span> {
        self.spans.iter().rev().find(|s| s.name == name)
    }

    /// Seconds spent in direct children of `parent` named `name`.
    pub fn child_secs(&self, parent: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent) && s.name == name)
            .fold(0.0, |acc, s| acc + s.secs())
    }

    /// Self time of span `id`: its duration minus its direct children.
    pub fn self_secs(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .fold(0.0, |acc, s| acc + s.secs());
        self.spans[id].secs() - children
    }

    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                    s.id,
                    s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
                    s.name,
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Per-call costs of the `sim` layers an exploration runs internally,
/// measured by replaying a sample of the explored graph's nodes through the
/// public compact functions, plus the exact step-call count of the graph.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeReplay {
    /// Nodes replayed.
    pub nodes: usize,
    /// Mean ns per `SystemSpec::compact_successors` call.
    pub step_ns: f64,
    /// Mean ns per `SystemSpec::compact_canonicalize` call (0 without
    /// symmetry).
    pub canon_ns: f64,
    /// Mean ns per `StateInterner::finalize` call.
    pub finalize_ns: f64,
    /// Mean ns per `StateInterner::content_fingerprint_words` call.
    pub fingerprint_ns: f64,
    /// `compact_successors` calls the exploration made: for every node,
    /// the distinct pids of its out-edges.
    pub step_calls: u64,
}

/// Nodes replayed per timed batch: each layer is timed once per batch, so
/// the clock reads add little to calls of a few hundred ns.
const BATCH: usize = 256;

/// Replays up to `max_nodes` nodes of `graph` (evenly spaced) through the
/// compact step → canonicalize → finalize → fingerprint pipeline the
/// explorer runs per successor.
pub fn replay_nodes(
    spec: &SystemSpec,
    graph: &StateGraph,
    symmetry: bool,
    max_nodes: usize,
) -> NodeReplay {
    let n = graph.len();
    let step_calls: u64 = (0..n)
        .map(|i| {
            let pids: BTreeSet<Pid> = graph.edges(i).iter().map(|e| e.pid).collect();
            pids.len() as u64
        })
        .sum();
    let stride = n.div_ceil(max_nodes.max(1)).max(1);
    let sample: Vec<usize> = (0..n).step_by(stride).collect();
    let nobjects = spec.nobjects();
    let mut interner = StateInterner::new();
    let (mut step_t, mut canon_t, mut fin_t, mut fp_t) = (0u64, 0u64, 0u64, 0u64);
    let (mut step_n, mut canon_n, mut fin_n) = (0u64, 0u64, 0u64);
    for batch in sample.chunks(BATCH) {
        // Untimed: materialize the batch's nodes into the replay interner.
        let rows: Vec<(Vec<u32>, Vec<Pid>)> = batch
            .iter()
            .map(|&i| {
                let words = interner.intern_config(&graph.config(i)).words().to_vec();
                let pids: BTreeSet<Pid> = graph.edges(i).iter().map(|e| e.pid).collect();
                (words, pids.into_iter().collect())
            })
            .collect();
        let t0 = Instant::now();
        let mut pendings = Vec::new();
        for (words, pids) in &rows {
            for &pid in pids {
                pendings.extend(
                    spec.compact_successors(&interner, words, pid)
                        .expect("a replayed step succeeds as it did in exploration"),
                );
            }
        }
        step_t += t0.elapsed().as_nanos() as u64;
        step_n += rows.iter().map(|(_, p)| p.len() as u64).sum::<u64>();
        if symmetry {
            let t0 = Instant::now();
            for p in &mut pendings {
                std::hint::black_box(spec.compact_canonicalize(&interner, p));
            }
            canon_t += t0.elapsed().as_nanos() as u64;
            canon_n += pendings.len() as u64;
        }
        fin_n += pendings.len() as u64;
        let t0 = Instant::now();
        let finals: Vec<_> = pendings.into_iter().map(|p| interner.finalize(p)).collect();
        fin_t += t0.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        for c in &finals {
            std::hint::black_box(interner.content_fingerprint_words(nobjects, c.words()));
        }
        fp_t += t0.elapsed().as_nanos() as u64;
    }
    let per = |t: u64, calls: u64| {
        if calls == 0 {
            0.0
        } else {
            t as f64 / calls as f64
        }
    };
    NodeReplay {
        nodes: sample.len(),
        step_ns: per(step_t, step_n),
        canon_ns: per(canon_t, canon_n),
        finalize_ns: per(fin_t, fin_n),
        fingerprint_ns: per(fp_t, fin_n),
        step_calls,
    }
}

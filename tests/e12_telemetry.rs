//! E12 (exploration telemetry): sinks must be invisible to the explorer —
//! graphs and counters are identical with the event log and a heartbeat
//! installed vs none, across every store/reduction combination — while the
//! collected metrics are internally consistent (counters sum to node
//! totals, the always-on phase clocks sum under the total, the same graph
//! counts the same work on every store, level records say how many
//! workers ran), the event log holds every run whole, the heartbeat fires,
//! and the DOT export is well-formed.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use subconsensus_core::GroupedObject;
use subconsensus_modelcheck::{
    ExploreGoal, ExploreMetrics, ExploreOptions, Recorder, StateGraph, StoreBackend,
    TruncationCause, VerdictQuery,
};
use subconsensus_objects::Consensus;
use subconsensus_protocols::ProposeDecide;
use subconsensus_sim::json::JsonValue;
use subconsensus_sim::{Pid, Protocol, SystemBuilder, SystemSpec, Value};

/// The E1 fixture: `procs` processes proposing through one
/// `GroupedObject::for_level(n, k)`. Equal inputs give nontrivial
/// symmetry groups; distinct inputs keep them trivial.
fn grouped_system(n: usize, k: usize, procs: usize, equal_inputs: bool) -> SystemSpec {
    let mut b = SystemBuilder::new();
    let obj = b.add_object(GroupedObject::for_level(n, k));
    let p: Arc<dyn Protocol> = Arc::new(ProposeDecide::new(obj));
    b.add_processes(
        p,
        (0..procs).map(|i| Value::Int(if equal_inputs { 1 } else { i as i64 + 1 })),
    );
    b.build()
}

fn assert_identical(a: &StateGraph, b: &StateGraph, label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: node count");
    for i in 0..a.len() {
        assert_eq!(a.config(i), b.config(i), "{label}: node {i}");
        assert_eq!(a.edges(i), b.edges(i), "{label}: edges of node {i}");
    }
    assert_eq!(a.terminals(), b.terminals(), "{label}: terminals");
    assert_eq!(a.is_truncated(), b.is_truncated(), "{label}: truncation");
}

/// A fresh, empty event-log path for one test (the log appends, so a
/// leftover file from an earlier run must not count).
fn fresh_log(name: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("e12_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("mc.jsonl");
    (dir, log)
}

/// Every event of the log, parsed.
fn read_events(path: &Path) -> Vec<JsonValue> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .map(|l| JsonValue::parse(l).unwrap_or_else(|e| panic!("log line: {e}\n{l}")))
        .collect()
}

fn str_of<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).unwrap_or("")
}

/// Whether this host splits levels of 32+ items across workers at all.
fn host_splits() -> bool {
    std::thread::available_parallelism().is_ok_and(|n| n.get() > 1)
}

/// Whether some level of `m` ran split across workers.
fn ran_split(m: &ExploreMetrics) -> bool {
    m.levels.iter().any(|l| l.workers > 1)
}

#[test]
fn instrumented_graphs_identical_across_matrix() {
    // The event log plus an every-expansion heartbeat vs the default
    // recorder, × symmetry × POR × store {memory, disk}: the recorder is
    // write-only from the explorer's view, so every cell reproduces the
    // plain graph node-for-node. Within one symmetry × POR pair the graph
    // is the same on every store, so every counter and the interner's
    // statistics must be the same too. On a multi-core host the second
    // fixture's large levels run split. What the log holds is checked by
    // `persistent_sinks_invisible_across_matrix`.
    let (dir, log) = fresh_log("matrix");
    let fixtures = [
        grouped_system(2, 1, 3, true),
        grouped_system(2, 1, 4, false),
    ];
    // Every counter that depends only on the graph and the reductions, not
    // on the level split, store or timing.
    let counters = |m: &ExploreMetrics| {
        let items: Vec<usize> = m.levels.iter().map(|l| l.items).collect();
        let merge = (m.generated, m.dedup_hits, m.added, m.expansions);
        (
            merge,
            (m.symmetry_hits, m.sleep_pruned, m.freeze_calls),
            items,
        )
    };
    let mut parallel_level = false;
    for spec in &fixtures {
        for symmetry in [false, true] {
            for por in [false, true] {
                let mut reference = None;
                for store in [StoreBackend::Memory, StoreBackend::Disk] {
                    let label = format!(
                        "{} procs sym={symmetry} por={por} store={store:?}",
                        spec.nprocs()
                    );
                    let mut opts = ExploreOptions::default()
                        .with_symmetry(symmetry)
                        .with_por(por)
                        .with_store(store);
                    if store == StoreBackend::Disk {
                        opts = opts.with_store_budget(4 << 10);
                    }
                    let plain = StateGraph::explore_with(spec, &opts, &Recorder::new()).unwrap();
                    let rec = Recorder::new().with_progress(1, |_| {}).with_log(&log);
                    let logged = StateGraph::explore_with(spec, &opts, &rec).unwrap();
                    assert_identical(&plain, &logged, &label);
                    let cell = (counters(plain.metrics()), plain.interner_stats());
                    assert_eq!(
                        (counters(logged.metrics()), logged.interner_stats()),
                        cell,
                        "{label}: the sinks changed a counter"
                    );
                    match &reference {
                        None => reference = Some(cell.clone()),
                        Some(r) => {
                            assert_eq!(*r, cell, "{label}: counters differ from store=Memory")
                        }
                    }
                    parallel_level |= ran_split(plain.metrics()) && ran_split(logged.metrics());
                }
            }
        }
    }
    assert_eq!(
        parallel_level,
        host_splits(),
        "a multi-core host splits the large levels, a one-core host none"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn persistent_sinks_invisible_across_matrix() {
    // The persistent sink — the event log, with an every-expansion
    // heartbeat feeding it — must be as invisible as the in-memory
    // recorder: every symmetry × POR × store cell reproduces the plain
    // in-memory graph node-for-node, and leaves one
    // whole, parseable run in the log: its start with the resolved store,
    // its heartbeats, then its end with the graph's size, all under one
    // run id of its own, and every run of one spec under one fingerprint.
    let (dir, log) = fresh_log("sinks");
    let fixtures = [
        grouped_system(2, 1, 3, true),
        grouped_system(2, 1, 4, false),
    ];
    let (mut logged_lines, mut hashes, mut run_ids) = (0, HashSet::new(), HashSet::new());
    for spec in &fixtures {
        for symmetry in [false, true] {
            for por in [false, true] {
                let base_opts = ExploreOptions::default()
                    .with_symmetry(symmetry)
                    .with_por(por);
                let plain = StateGraph::explore(spec, &base_opts).unwrap();
                for store in [StoreBackend::Memory, StoreBackend::Disk] {
                    let label = format!(
                        "{} procs sym={symmetry} por={por} store={store:?}",
                        spec.nprocs()
                    );
                    let mut opts = base_opts.clone().with_store(store);
                    if store == StoreBackend::Disk {
                        opts = opts.with_store_budget(4 << 10);
                    }
                    let rec = Recorder::new().with_progress(1, |_| {}).with_log(&log);
                    let logged = StateGraph::explore_with(spec, &opts, &rec).unwrap();
                    assert_identical(&plain, &logged, &label);

                    // This run's log entry: its start with the resolved
                    // store, levels and heartbeats, then its end.
                    let events = read_events(&log);
                    let run = &events[logged_lines..];
                    logged_lines = events.len();
                    let (start, end) = (&run[0], &run[run.len() - 1]);
                    assert_eq!(str_of(start, "event"), "start", "{label}");
                    assert_eq!(str_of(end, "event"), "end", "{label}");
                    assert!(run.iter().all(|e| str_of(e, "run") == str_of(start, "run")));
                    assert!(
                        run_ids.insert(str_of(start, "run").to_string()),
                        "{label}: run id reused"
                    );
                    let store = format!("{store:?}").to_lowercase();
                    assert_eq!(str_of(start.get("options").unwrap(), "store"), store);
                    assert!(run.iter().any(|e| str_of(e, "event") == "heartbeat"));
                    let configs = end.get("metrics").unwrap().get("configs");
                    assert_eq!(
                        configs.and_then(JsonValue::as_u64),
                        Some(logged.len() as u64),
                        "{label}: end configs"
                    );
                    hashes.insert(str_of(start, "spec_hash").to_string());
                }
            }
        }
    }
    assert_eq!(hashes.len(), fixtures.len(), "one fingerprint per spec");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn phase_clocks_cover_every_configuration() {
    // A plain `explore` — no recorder, no sinks — always carries its phase
    // breakdown: the phases are disjoint spans of the explorer's thread,
    // so they sum under the total on every store and reduction, split
    // levels included. Full-graph goals freeze once; verdict goals never
    // do.
    let fixtures = [
        grouped_system(2, 1, 3, true),
        grouped_system(2, 1, 4, false),
    ];
    let mut parallel_level = false;
    for spec in &fixtures {
        for symmetry in [false, true] {
            for por in [false, true] {
                for store in [StoreBackend::Memory, StoreBackend::Disk] {
                    let label = format!(
                        "{} procs sym={symmetry} por={por} store={store:?}",
                        spec.nprocs()
                    );
                    let mut opts = ExploreOptions::default()
                        .with_symmetry(symmetry)
                        .with_por(por)
                        .with_store(store);
                    if store == StoreBackend::Disk {
                        opts = opts.with_store_budget(4 << 10);
                    }
                    let g = StateGraph::explore(spec, &opts).unwrap();
                    let m = g.metrics();
                    assert!(m.total_ns > 0, "{label}: total clocked");
                    assert!(m.expand_ns > 0, "{label}: expansion clocked");
                    assert!(
                        m.phase_sum() <= m.total_ns,
                        "{label}: phase sum {} exceeds total {}",
                        m.phase_sum(),
                        m.total_ns
                    );
                    assert_eq!(m.freeze_calls, 1, "{label}: full graph freezes once");
                    parallel_level |= ran_split(m);

                    let verdict = opts.with_goal(ExploreGoal::Verdict(
                        VerdictQuery::new().require_wait_freedom(),
                    ));
                    let v = StateGraph::explore(spec, &verdict).unwrap();
                    let m = v.metrics();
                    assert!(m.phase_sum() <= m.total_ns, "{label}: verdict phase sum");
                    assert_eq!(
                        (m.freeze_ns, m.freeze_calls),
                        (0, 0),
                        "{label}: verdict goal skips the freeze"
                    );
                }
            }
        }
    }
    assert_eq!(
        parallel_level,
        host_splits(),
        "a multi-core host splits the large levels, a one-core host none"
    );
}

#[test]
fn total_counts_from_the_explore_call() {
    // The total spans the explore call, not the recorder's lifetime: idle
    // time between building a recorder and exploring is nobody's phase.
    let spec = grouped_system(2, 1, 1, false);
    let rec = Recorder::new();
    std::thread::sleep(Duration::from_millis(50));
    let g = StateGraph::explore_with(&spec, &ExploreOptions::default(), &rec).unwrap();
    assert!(g.len() <= 10, "fixture stays tiny: {} configs", g.len());
    let m = g.metrics();
    assert!(m.total_ns > 0, "a plain recorder clocks the total");
    assert!(
        m.total_ns < 50_000_000,
        "total {} ns includes the idle 50 ms before the explore call",
        m.total_ns
    );
    assert!(m.phase_sum() <= m.total_ns);
}

#[test]
fn run_record_written_only_when_log_installed() {
    // No log installed → `explore_with` builds no start or end payload.
    assert!(!Recorder::new().has_log());
    // With one, a verdict-goal run writes its start, its levels and an end
    // carrying the verdict, all under one run id.
    let (dir, log) = fresh_log("ledger");
    let spec = grouped_system(2, 1, 3, true);
    let rec = Recorder::new().with_log(&log);
    let opts = ExploreOptions::default().with_goal(ExploreGoal::Verdict(
        VerdictQuery::new().require_wait_freedom(),
    ));
    let g = StateGraph::explore_with(&spec, &opts, &rec).unwrap();
    let events = read_events(&log);
    std::fs::remove_dir_all(&dir).ok();
    let kinds: Vec<&str> = events.iter().map(|e| str_of(e, "event")).collect();
    let mut want = vec!["start"];
    want.extend(vec!["level"; g.metrics().levels.len()]);
    want.push("end");
    assert_eq!(kinds, want);
    let runs: HashSet<&str> = events.iter().map(|e| str_of(e, "run")).collect();
    assert_eq!(runs.len(), 1, "one run id for the whole exploration");
    let start = &events[0];
    assert_eq!(str_of(start.get("options").unwrap(), "goal"), "verdict");
    // The record's hash matches a direct fingerprint of the spec.
    assert_eq!(
        str_of(start, "spec_hash"),
        format!("{:016x}", spec.spec_fingerprint())
    );
    // The end event counts the levels instead of repeating their records.
    let end = &events[events.len() - 1];
    let levels = end.get("metrics").unwrap().get("levels");
    assert_eq!(
        levels.and_then(JsonValue::as_u64),
        Some(g.metrics().levels.len() as u64)
    );
    let outcome = end.get("outcome").unwrap();
    assert_eq!(str_of(outcome, "kind"), "verdict");
    let verdict = outcome.get("verdict").expect("verdict payload");
    assert!(verdict.get("holds").is_some());
}

#[test]
fn counters_sum_to_node_totals() {
    for (symmetry, por) in [(false, false), (true, false), (false, true), (true, true)] {
        let spec = grouped_system(2, 1, 3, true);
        let opts = ExploreOptions::default()
            .with_symmetry(symmetry)
            .with_por(por);
        let g = StateGraph::explore(&spec, &opts).unwrap();
        let m = g.metrics();
        let label = format!("sym={symmetry} por={por}");

        // Every generated successor lands in exactly one merge bucket.
        assert_eq!(
            m.generated,
            m.dedup_hits + m.added + m.capped,
            "{label}: generated = dedup + added + capped"
        );
        // The store holds the root plus every added successor.
        assert_eq!(
            m.added + 1,
            m.configs as u64,
            "{label}: added + root = configs"
        );
        assert_eq!(m.capped, 0, "{label}: unbounded run never caps");
        assert_eq!(m.configs, g.len(), "{label}: metrics configs = graph len");
        assert_eq!(
            m.edges,
            g.stats().edges,
            "{label}: metrics edges = graph edges"
        );
        assert!(m.peak_bytes > 0, "{label}: peak bytes estimated");
        assert_eq!(m.truncation, TruncationCause::Complete, "{label}");

        // Per-level records tile the exploration exactly.
        let new_nodes: usize = m.levels.iter().map(|l| l.new_nodes).sum();
        let items: u64 = m.levels.iter().map(|l| l.items as u64).sum();
        assert_eq!(
            new_nodes as u64 + 1,
            m.configs as u64,
            "{label}: level new_nodes"
        );
        assert_eq!(items, m.expansions, "{label}: level items = expansions");
        let last = m.levels.last().expect("at least one level");
        assert_eq!(last.nodes_total, m.configs, "{label}: final nodes_total");
        assert_eq!(last.edges_total, m.edges, "{label}: final edges_total");

        if symmetry {
            assert!(m.symmetry_hits > 0, "{label}: canonicalization hit");
        }
    }
}

#[test]
fn sleep_sets_prune_commuting_proposals() {
    // `GroupedObject` declares no commuting ops, so sleep sets never fire
    // on the E1 fixture; equal-value proposals to a consensus object DO
    // commute, and the pruning must show up in the counter.
    let mut b = SystemBuilder::new();
    let obj = b.add_object(Consensus::unbounded());
    let p: Arc<dyn Protocol> = Arc::new(ProposeDecide::new(obj));
    b.add_processes(p, (0..3).map(|_| Value::Int(7)));
    let spec = b.build();
    let opts = ExploreOptions::default().with_por(true);
    let g = StateGraph::explore(&spec, &opts).unwrap();
    let m = g.metrics();
    assert!(m.sleep_pruned > 0, "sleep sets pruned nothing: {m:?}");
    assert_eq!(m.generated, m.dedup_hits + m.added + m.capped);
    // Pruning is sound: the reduced graph still reaches a terminal.
    assert!(!g.terminals().is_empty());
}

#[test]
fn truncation_cause_recorded_and_counted() {
    let spec = grouped_system(2, 1, 3, false);
    let g = StateGraph::explore(&spec, &ExploreOptions::with_max_configs(5)).unwrap();
    assert!(g.is_truncated());
    let m = g.metrics();
    assert_eq!(m.truncation, TruncationCause::MaxConfigs { cap: 5 });
    assert!(m.truncation.is_truncated());
    assert!(m.capped > 0, "dropped successors counted");
    assert_eq!(m.configs, 5);
    assert_eq!(m.generated, m.dedup_hits + m.added + m.capped);
    let json = m.to_json();
    assert!(
        json.contains("\"cause\": \"max_configs\", \"cap\": 5"),
        "{json}"
    );
}

#[test]
fn disk_store_metrics_reported_and_consistent() {
    // A disk run squeezed under a 4 KiB hot tier must stay invisible to
    // the explorer (same graph), report a `StoreMetrics` block whose
    // counters are internally consistent, and serialize it into the
    // metrics JSON; memory runs must keep the field null.
    let spec = grouped_system(2, 1, 3, false);
    // Pinned to the memory store, so an `MC_STORE=disk` environment
    // cannot turn the baseline into a disk run.
    let plain = StateGraph::explore(
        &spec,
        &ExploreOptions::default().with_store(StoreBackend::Memory),
    )
    .unwrap();
    assert!(
        plain.metrics().store.is_none(),
        "memory runs report no store metrics"
    );
    assert!(plain.metrics().to_json().contains("\"store\": null"));
    let opts = ExploreOptions::default()
        .with_store(StoreBackend::Disk)
        .with_store_budget(4 << 10);
    let g = StateGraph::explore(&spec, &opts).unwrap();
    let label = "disk";
    assert_identical(&plain, &g, label);
    let m = g.metrics();
    // Eviction changes where rows live, never how many successors each
    // merge bucket absorbs.
    assert_eq!(
        m.generated,
        m.dedup_hits + m.added + m.capped,
        "{label}: generated = dedup + added + capped"
    );
    assert_eq!(m.capped, 0, "{label}: disk runs do not truncate");
    assert_eq!(m.truncation, TruncationCause::Complete, "{label}");
    let s = m.store.expect("disk runs report store metrics");
    assert!(s.spilled_bytes > 0, "{label}: 4 KiB budget forces spill");
    assert!(s.reload_count > 0, "{label}: pinned frontiers fault back");
    assert!(
        (0.0..=1.0).contains(&s.hot_hit_rate()),
        "{label}: hit rate {} in [0, 1]",
        s.hot_hit_rate()
    );
    assert!(
        m.store_ns > 0,
        "{label}: spill writes fall in the store phase"
    );
    let json = m.to_json();
    assert!(
        json.contains("\"store\": {\"spilled_bytes\": "),
        "{label}: {json}"
    );
    assert!(json.contains("\"hot_hit_rate\": "), "{label}: {json}");
}

#[test]
fn memory_budget_truncation_recorded_and_counted() {
    // An in-memory run whose resident estimate crosses the budget must
    // truncate cleanly: dedup still resolves, new nodes are rejected, and
    // the cause names the budget (distinct from a max-configs cap).
    let spec = grouped_system(2, 1, 3, false);
    let g = StateGraph::explore(
        &spec,
        &ExploreOptions::default()
            .with_store(StoreBackend::Memory)
            .with_store_budget(2 << 10),
    )
    .unwrap();
    assert!(g.is_truncated());
    let m = g.metrics();
    assert_eq!(m.truncation, TruncationCause::MemoryBudget { budget: 2048 });
    assert!(m.truncation.is_truncated());
    assert!(m.capped > 0, "rejected successors counted");
    assert_eq!(m.generated, m.dedup_hits + m.added + m.capped);
    assert!(m.store.is_none(), "no spill happened");
    let json = m.to_json();
    assert!(
        json.contains("\"cause\": \"memory_budget\", \"budget\": 2048"),
        "{json}"
    );

    // The same budget under the disk backend completes: spilling keeps the
    // resident estimate bounded instead of rejecting nodes.
    let full = StateGraph::explore(
        &spec,
        &ExploreOptions::default()
            .with_store(StoreBackend::Disk)
            .with_store_budget(2 << 10),
    )
    .unwrap();
    assert!(!full.is_truncated(), "disk backend lifts the budget bound");
    assert!(full.len() > g.len(), "budget-truncated run is a prefix");
}

#[test]
fn progress_callback_fires_per_interval() {
    let spec = grouped_system(2, 1, 3, false);
    let hits = Arc::new(AtomicUsize::new(0));
    let hits2 = hits.clone();
    let rec = Recorder::new().with_progress(1, move |r| {
        assert!(r.explored > 0);
        assert!(r.expansions > 0);
        hits2.fetch_add(1, Ordering::SeqCst);
    });
    let g = StateGraph::explore_with(&spec, &ExploreOptions::default(), &rec).unwrap();
    let fired = hits.load(Ordering::SeqCst);
    assert!(fired > 0, "every-expansion heartbeat fired");
    // Heartbeats tick inside expansion and merge, not just at level
    // boundaries — a single long level must still report every interval.
    assert!(
        fired > g.metrics().levels.len(),
        "{fired} fires for {} levels: mid-level heartbeats missing",
        g.metrics().levels.len()
    );
    assert!(
        fired as u64 <= g.metrics().expansions,
        "{fired} fires > {} expansions: at most one fire per counted expansion",
        g.metrics().expansions
    );
}

#[test]
fn trace_jsonl_one_record_per_level() {
    // The log's level events are the exploration's level records, one per
    // BFS level, in order: each line is the run's tags followed by exactly
    // the `LevelMetrics::to_json` members.
    let (dir, log) = fresh_log("trace");
    let spec = grouped_system(2, 1, 3, false);
    let rec = Recorder::new().with_log(&log);
    let g = StateGraph::explore_with(&spec, &ExploreOptions::default(), &rec).unwrap();
    let text = std::fs::read_to_string(&log).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let spans: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("{\"event\": \"level\""))
        .collect();
    let levels = &g.metrics().levels;
    assert_eq!(spans.len(), levels.len(), "one record per level");
    for (span, l) in spans.iter().zip(levels) {
        assert!(span.ends_with(&l.to_json()[1..]), "{span} is not {l:?}");
        JsonValue::parse(span).unwrap();
    }
}

#[test]
fn dot_export_well_formed_on_e1_p3() {
    let spec = grouped_system(2, 1, 3, false);
    let g = StateGraph::explore(&spec, &ExploreOptions::default()).unwrap();
    let dot = g.to_dot();
    assert!(dot.starts_with("digraph stategraph {\n"));
    assert!(dot.ends_with("}\n"));
    assert_eq!(
        dot.matches('{').count(),
        dot.matches('}').count(),
        "balanced braces"
    );
    let edge_lines = dot.lines().filter(|l| l.contains(" -> ")).count();
    assert_eq!(edge_lines, g.stats().edges, "one edge line per CSR edge");
    let node_lines = dot
        .lines()
        .filter(|l| {
            // `n<id> [...]` declarations only — not `node [shape=...]`
            // defaults, not edges.
            let t = l.trim_start();
            t.starts_with('n')
                && t[1..].starts_with(|c: char| c.is_ascii_digit())
                && !t.contains(" -> ")
        })
        .count();
    assert_eq!(node_lines, g.len(), "one node line per configuration");
    assert_eq!(
        dot.matches("doublecircle").count(),
        g.terminals().len(),
        "terminals double-circled"
    );

    // A witness schedule to any terminal highlights its path in red.
    let schedule: Vec<Pid> = g
        .witness_schedule(|c| c.is_final())
        .expect("some terminal is reachable");
    let hi = g.to_dot_with_schedule(&schedule);
    assert_eq!(
        hi.matches("color=red").count(),
        schedule.len(),
        "one highlighted edge per schedule step"
    );
    assert_eq!(
        hi.lines().filter(|l| l.contains(" -> ")).count(),
        g.stats().edges,
        "highlighting adds no edges"
    );
}

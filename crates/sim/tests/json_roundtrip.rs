//! Round-trip tests for every hand-built JSON emitter in the crate.
//!
//! The workspace has no serde: `ExploreMetrics`, its component snapshots
//! and the four event types of the `MC_LOG` event log are all formatted by
//! hand. Each emitter here is fed through the in-tree
//! [`subconsensus_sim::json`] parser — the same one `mc-report` uses — so
//! a malformed escape, a missing comma, or a field rename that would break
//! downstream tooling fails in-tree first.

use std::path::Path;
use std::time::Duration;

use subconsensus_sim::json::JsonValue;
use subconsensus_sim::{
    warn_once, ExploreMetrics, InternerStats, LevelMetrics, Recorder, StoreMetrics, TruncationCause,
};

fn parse(json: &str) -> JsonValue {
    JsonValue::parse(json).unwrap_or_else(|e| panic!("emitter produced invalid JSON: {e}\n{json}"))
}

fn u(v: &JsonValue, key: &str) -> u64 {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("missing integer key {key:?}"))
}

#[test]
fn store_metrics_round_trip() {
    let store = StoreMetrics {
        spilled_bytes: 65_536,
        reload_count: 12,
        index_reads: 5,
        hot_hits: 30,
        hot_misses: 10,
    };
    let v = parse(&store.to_json());
    assert_eq!(u(&v, "spilled_bytes"), 65_536);
    assert_eq!(u(&v, "reload_count"), 12);
    assert_eq!(u(&v, "index_reads"), 5);
    let rate = v.get("hot_hit_rate").and_then(JsonValue::as_f64).unwrap();
    assert!((rate - 0.75).abs() < 1e-9, "hot_hit_rate {rate}");
}

#[test]
fn interner_stats_round_trip() {
    let stats = InternerStats {
        object_states: 100,
        proc_states: 50,
        requests: 1000,
        hits: 900,
        table_bytes: 4096,
        state_bytes: 1024,
    };
    let v = parse(&stats.to_json());
    assert_eq!(u(&v, "object_states"), 100);
    assert_eq!(u(&v, "proc_states"), 50);
    assert_eq!(u(&v, "table_bytes"), 4096);
    assert_eq!(u(&v, "state_bytes"), 1024);
    assert_eq!(u(&v, "bytes_saved"), stats.bytes_saved());
    let rate = v.get("hit_rate").and_then(JsonValue::as_f64).unwrap();
    assert!((rate - 0.9).abs() < 1e-4, "hit_rate {rate}");
}

/// A fully-populated snapshot: every optional branch (levels, store,
/// truncation) on at once.
fn busy_metrics() -> ExploreMetrics {
    ExploreMetrics {
        setup_ns: 11,
        store_ns: 12,
        expand_ns: 13,
        merge_ns: 14,
        freeze_ns: 15,
        freeze_calls: 1,
        total_ns: 200,
        configs: 1000,
        edges: 2500,
        generated: 3000,
        dedup_hits: 2000,
        added: 1000,
        capped: 0,
        symmetry_hits: 5,
        sleep_pruned: 6,
        expansions: 999,
        levels: vec![
            LevelMetrics {
                level: 0,
                items: 1,
                workers: 1,
                new_nodes: 3,
                nodes_total: 4,
                edges_total: 3,
                elapsed_ns: 10,
            },
            LevelMetrics {
                level: 1,
                items: 3,
                workers: 2,
                new_nodes: 996,
                nodes_total: 1000,
                edges_total: 2500,
                elapsed_ns: 20,
            },
        ],
        peak_bytes: 123_456,
        store: Some(StoreMetrics {
            spilled_bytes: 777,
            ..Default::default()
        }),
        truncation: TruncationCause::MaxConfigs { cap: 1000 },
    }
}

#[test]
fn explore_metrics_round_trip() {
    let v = parse(&busy_metrics().to_json());
    assert_eq!(u(&v, "configs"), 1000);
    assert_eq!(u(&v, "edges"), 2500);
    assert_eq!(u(&v, "peak_bytes"), 123_456);
    let phases = v.get("phases").expect("phases object");
    assert_eq!(u(phases, "total_ns"), 200);
    assert_eq!(u(phases, "other_ns"), 200 - (11 + 12 + 13 + 14 + 15));
    let levels = v.get("levels").and_then(JsonValue::as_array).unwrap();
    assert_eq!(levels.len(), 2);
    assert_eq!(u(&levels[1], "nodes"), 1000);
    assert_eq!(u(&levels[1], "workers"), 2);
    let trunc = v.get("truncation").expect("truncation object");
    assert_eq!(
        trunc.get("cause").and_then(JsonValue::as_str),
        Some("max_configs")
    );
    assert_eq!(u(trunc, "cap"), 1000);
    assert_eq!(u(v.get("store").unwrap(), "spilled_bytes"), 777);
}

#[test]
fn explore_metrics_null_branches() {
    let metrics = ExploreMetrics::default();
    let v = parse(&metrics.to_json());
    assert!(v.get("truncation").unwrap().is_null(), "Complete => null");
    assert!(v.get("store").unwrap().is_null(), "memory store => null");
    assert!(v
        .get("levels")
        .and_then(JsonValue::as_array)
        .unwrap()
        .is_empty());
    let budget = ExploreMetrics {
        truncation: TruncationCause::MemoryBudget { budget: 4096 },
        ..Default::default()
    };
    let v = parse(&budget.to_json());
    let trunc = v.get("truncation").unwrap();
    assert_eq!(
        trunc.get("cause").and_then(JsonValue::as_str),
        Some("memory_budget")
    );
    assert_eq!(u(trunc, "budget"), 4096);
}

/// Every line of the log, parsed, with the shared tags checked on each:
/// an `event` name and a `<pid>.<seq>` run id.
fn read_log(path: &Path) -> Vec<JsonValue> {
    let text = std::fs::read_to_string(path).unwrap();
    assert!(text.ends_with('\n'), "every event is a whole line");
    text.lines()
        .map(|line| {
            let v = parse(line);
            assert!(v.get("event").and_then(JsonValue::as_str).is_some());
            let run = v.get("run").and_then(JsonValue::as_str).unwrap();
            let (pid, seq) = run.split_once('.').expect("run is <pid>.<seq>");
            assert_eq!(pid, std::process::id().to_string());
            seq.parse::<u64>().expect("numeric sequence");
            v
        })
        .collect()
}

/// One recorder writing one event of each type, in run order.
fn write_every_event(path: &Path) {
    let rec = Recorder::new().with_progress(1, |_| {}).with_log(path);
    assert!(rec.has_log());
    rec.log_start(0x0123_4567_89ab_cdef, "{\"max_configs\": 4}");
    rec.record_level(1, 2, 3, 4, 5, Duration::from_nanos(6));
    rec.count_expansions(1);
    rec.heartbeat(0, 3, 1, 97);
    rec.log_end("{\"kind\": \"graph\", \"configs\": 42}", &busy_metrics());
}

/// The `kind` event of a freshly written one-run log.
fn logged(kind: &str) -> JsonValue {
    let dir = std::env::temp_dir().join(format!("mc_rt_{kind}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mc.jsonl");
    std::fs::remove_file(&path).ok();
    write_every_event(&path);
    let events = read_log(&path);
    std::fs::remove_dir_all(&dir).ok();
    let kinds: Vec<&str> = events
        .iter()
        .map(|v| v.get("event").and_then(JsonValue::as_str).unwrap())
        .collect();
    assert_eq!(kinds, ["start", "level", "heartbeat", "end"]);
    events
        .into_iter()
        .find(|v| v.get("event").and_then(JsonValue::as_str) == Some(kind))
        .unwrap()
}

#[test]
fn start_event_round_trip() {
    let v = logged("start");
    assert_eq!(
        v.get("spec_hash").and_then(JsonValue::as_str),
        Some("0123456789abcdef"),
        "spec hash must be the 16-hex-digit string form (u64s overflow JSON numbers)"
    );
    assert!(v.get("git_revision").and_then(JsonValue::as_str).is_some());
    assert!(v.get("env").and_then(JsonValue::as_object).is_some());
    assert_eq!(u(v.get("options").unwrap(), "max_configs"), 4);
    assert!(u(&v, "started_unix_ms") > 0);
}

#[test]
fn level_event_round_trip() {
    // The payload is `LevelMetrics::to_json`, numbered by the recorder.
    let v = logged("level");
    for (i, key) in ["level", "items", "workers", "new_nodes", "nodes", "edges"]
        .iter()
        .enumerate()
    {
        assert_eq!(u(&v, key), i as u64, "{key}");
    }
    assert_eq!(u(&v, "elapsed_ns"), 6);
}

#[test]
fn heartbeat_event_round_trip() {
    let v = logged("heartbeat");
    assert_eq!(u(&v, "explored"), 3);
    assert_eq!(u(&v, "frontier"), 1);
    assert_eq!(u(&v, "expansions"), 1);
    assert_eq!(u(&v, "bound_remaining"), 97);
    assert_eq!(u(&v, "spilled_bytes"), 0);
    assert!(v
        .get("configs_per_sec")
        .and_then(JsonValue::as_f64)
        .is_some());
    // The first beat has no previous frontier, so no remaining estimate.
    assert!(v.get("est_remaining").unwrap().is_null());
}

#[test]
fn end_event_round_trip() {
    let v = logged("end");
    assert_eq!(u(v.get("outcome").unwrap(), "configs"), 42);
    let metrics = v.get("metrics").unwrap();
    assert_eq!(u(metrics, "configs"), 1000);
    // The level count, not a second copy of the records the `level`
    // events already hold.
    assert_eq!(u(metrics, "levels"), 2);
    assert!(u(&v, "ended_unix_ms") > 0);
}

#[test]
fn two_recorders_append_whole_lines_to_one_log() {
    // Two recorders on one file, as two processes would be: neither
    // truncates the other, each event stays one whole line, and each run
    // keeps its own id.
    let dir = std::env::temp_dir().join(format!("mc_rt_append_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mc.jsonl");
    std::fs::remove_file(&path).ok();
    write_every_event(&path);
    write_every_event(&path);
    let runs: Vec<String> = read_log(&path)
        .iter()
        .map(|v| {
            v.get("run")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(runs.len(), 8);
    assert!(runs[..4].iter().all(|r| *r == runs[0]));
    assert!(runs[4..].iter().all(|r| *r == runs[4]));
    assert_ne!(runs[0], runs[4], "each run gets its own id");
    // A recorder without a log writes nothing and reports none.
    let bare = Recorder::new();
    assert!(!bare.has_log());
    bare.log_end("{}", &ExploreMetrics::default());
    assert_eq!(read_log(&path).len(), 8);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warn_once_fires_at_most_once_per_key() {
    assert!(warn_once("rt_test_key", "first"), "first call emits");
    assert!(!warn_once("rt_test_key", "second"), "second call is silent");
    assert!(!warn_once("rt_test_key", "third"), "and stays silent");
    assert!(
        warn_once("rt_test_other_key", "other"),
        "distinct keys are independent"
    );
}

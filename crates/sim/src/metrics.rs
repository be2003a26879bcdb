//! Exploration telemetry: phase clocks, counters, heartbeats, event log.
//!
//! The model checker composes four optimizations (parallel BFS, symmetry
//! quotient, POR sleep sets, hash-consed stores) and without telemetry is a
//! black box while it runs. This module is the std-only observability layer
//! threaded through `explore_core`:
//!
//! * a [`Recorder`] handle of relaxed atomic counters and per-level phase
//!   clocks, shared by reference between the merge thread and the level
//!   workers;
//! * an [`ExploreMetrics`] snapshot attached to every explored graph —
//!   per-phase wall time, generated/deduped/pruned counters, per-level
//!   frontier sizes and the truncation cause, with
//!   [`to_json`](ExploreMetrics::to_json) for machine consumers;
//! * a progress **heartbeat**: an optional callback (or the `MC_PROGRESS`
//!   env default, printing to stderr) fired every N expansions so long
//!   runs are not silent, carrying recent-rate and ETA estimates;
//! * one append-only JSONL **event log** (`MC_LOG=<path>` or
//!   [`Recorder::with_log`]): per exploration a `start` (spec hash, git
//!   revision, resolved options, `MC_*` env), a `level` per BFS level, a
//!   `heartbeat` per interval and an `end` (outcome, metrics with the
//!   level count in place of the level records), each
//!   tagged `"event"` and `"run"` (`<pid>.<per-process sequence>`). Each
//!   event is one `write_all` of one whole line to a file opened once per
//!   recorder in append mode, so concurrent processes interleave whole
//!   lines and a search keeps every one of its explorations.
//!
//! # Always on, never per successor
//!
//! Telemetry must never change the explored graph, and it must be cheap
//! enough that every run carries it:
//!
//! * **Counters** are single relaxed atomic adds on values the explorer
//!   computes anyway, so runs with and without sinks execute identical
//!   exploration logic and build node-for-node identical graphs.
//! * **Phase clocks** are read at phase boundaries only — a few reads per
//!   BFS level ([`Recorder::lap`]) plus a few per exploration — never per
//!   successor or per spill I/O. The finer split of an expansion
//!   (stepping, canonicalization, fingerprinting) is measured offline by
//!   the end-to-end benchmark's replay, not by the explorer.
//!
//! The recorder has no methods that *return* state to the explorer, so by
//! construction it cannot branch exploration decisions.

use std::collections::HashSet;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime};

use crate::json::json_escape;

/// Unified truthiness test for diagnostic environment variables
/// (`MC_PROGRESS`, `MC_LOG` presence checks, `INTERNER_STATS`,
/// `BENCH_SMOKE`): set, non-empty, and not `"0"`.
pub fn env_flag(name: &str) -> bool {
    std::env::var_os(name).is_some_and(|v| !v.is_empty() && v != "0")
}

/// Default heartbeat interval (expansions between progress reports) when
/// `MC_PROGRESS` is set without a numeric interval.
pub const DEFAULT_PROGRESS_EVERY: u64 = 100_000;

/// Emits `message` to stderr the first time `key` is seen in this process
/// and suppresses every later call with the same key. All one-shot
/// diagnostics (truncation hints, the `MC_STORE=disk` suggestion, sink
/// open failures) route through here so "at most once per process" is one
/// mechanism, not N scattered `Once` statics. Returns whether the message
/// was actually emitted — callers never branch on it, but tests assert the
/// at-most-once contract without capturing stderr.
pub fn warn_once(key: &str, message: &str) -> bool {
    static SEEN: OnceLock<Mutex<HashSet<String>>> = OnceLock::new();
    let seen = SEEN.get_or_init(|| Mutex::new(HashSet::new()));
    let fresh = seen.lock().expect("warn_once lock").insert(key.to_string());
    if fresh {
        eprintln!("{message}");
    }
    fresh
}

/// Milliseconds since the Unix epoch (0 if the system clock is before
/// it). Wall-clock stamps for the event log; exploration logic itself
/// only ever uses monotonic [`Instant`]s.
fn unix_time_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The working tree's short git revision, resolved once per process (the
/// first caller — a `start` event or the e9 bench — pays the subprocess;
/// everything after reads the cache). `"unknown"` outside a git checkout
/// or without a `git` binary.
pub fn git_revision() -> &'static str {
    static REV: OnceLock<String> = OnceLock::new();
    REV.get_or_init(|| {
        std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    })
}

/// Snapshot of every `MC_*` environment variable currently set, as one
/// JSON object with sorted keys. Captured into each `start` event so a
/// run is interpretable without knowing what the shell looked like:
/// `MC_STORE`, `MC_STORE_BUDGET` and friends all shape the run but live
/// outside [`ExploreMetrics`].
fn mc_env_json() -> String {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("MC_"))
        .collect();
    vars.sort();
    let members: Vec<String> = vars
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// A wall-clock phase of one exploration, accumulated by
/// [`Recorder::lap`]. Each span covers a whole level or a whole
/// exploration; the public view is the named `*_ns` fields of
/// [`ExploreMetrics`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Store construction and the initial configuration.
    Setup,
    /// Level-boundary store work (row spill, index drain, frontier pin)
    /// plus the final unspill.
    Store,
    /// A level's expansion, worker spawn and join included.
    Expand,
    /// A level's sequential merge, revisits and verdict fold.
    Merge,
    /// The CSR freeze.
    Freeze,
    /// The whole exploration.
    Total,
}

const NPHASES: usize = 6;

/// Why an exploration stopped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TruncationCause {
    /// The reachable graph was exhausted: every analysis is total.
    #[default]
    Complete,
    /// The exploration hit `max_configs` and dropped successors: every
    /// analysis on the graph is partial.
    MaxConfigs {
        /// The bound that was hit.
        cap: usize,
    },
    /// The in-memory store's resident estimate exceeded
    /// `store_budget_bytes` and the exploration stopped adding nodes.
    /// `MC_STORE=disk` lifts this bound by spilling cold state instead.
    MemoryBudget {
        /// The configured budget, in bytes.
        budget: usize,
    },
}

impl TruncationCause {
    /// `true` unless the exploration completed.
    pub fn is_truncated(&self) -> bool {
        !matches!(self, TruncationCause::Complete)
    }
}

/// Disk-store telemetry of one exploration (`None` in [`ExploreMetrics`]
/// unless the run used `MC_STORE=disk` /
/// `ExploreOptions::store_budget_bytes` with the disk backend). The time
/// the store spends writing spill files falls in the
/// [`store_ns`](ExploreMetrics::store_ns) phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreMetrics {
    /// Bytes written to spill files (node rows, index runs).
    pub spilled_bytes: u64,
    /// Every read from a spill file: row faults, the freeze-time row
    /// readback and [`index_reads`](Self::index_reads).
    pub reload_count: u64,
    /// Spilled fingerprint-index reads (one per probed run), included in
    /// [`reload_count`](Self::reload_count).
    pub index_reads: u64,
    /// Row accesses served from the hot tier.
    pub hot_hits: u64,
    /// Row accesses that had to fault from disk.
    pub hot_misses: u64,
}

impl StoreMetrics {
    /// Fraction of cold-capable accesses served without touching disk
    /// (1.0 when nothing was ever faulted).
    pub fn hot_hit_rate(&self) -> f64 {
        let total = self.hot_hits + self.hot_misses;
        if total == 0 {
            1.0
        } else {
            self.hot_hits as f64 / total as f64
        }
    }

    /// The spill stats as one flat JSON object (the `spill` field of the
    /// e9 disk rows).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"spilled_bytes\": {}, \"reload_count\": {}, \"index_reads\": {}, \
             \"hot_hits\": {}, \"hot_misses\": {}, \"hot_hit_rate\": {:.4}}}",
            self.spilled_bytes,
            self.reload_count,
            self.index_reads,
            self.hot_hits,
            self.hot_misses,
            self.hot_hit_rate()
        )
    }
}

/// Per-BFS-level frontier metrics, one record per level (also the payload
/// of the event log's `level` events).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelMetrics {
    /// BFS depth of this level (0 = the root's expansion).
    pub level: u32,
    /// Work items expanded at this level (first visits plus POR wake-ups
    /// and proviso escalations).
    pub items: usize,
    /// Expansion workers that ran the level: 1 when it ran on the
    /// explorer's thread, otherwise the number of chunks it was split into.
    pub workers: usize,
    /// Nodes first discovered by this level's merge.
    pub new_nodes: usize,
    /// Total nodes in the store after this level.
    pub nodes_total: usize,
    /// Total edges recorded after this level.
    pub edges_total: usize,
    /// Wall time of the level (expansion + merge), in nanoseconds.
    pub elapsed_ns: u64,
}

impl LevelMetrics {
    /// The level record as one flat JSON object (the `level` event's
    /// payload and the members of [`ExploreMetrics::to_json`]'s `levels`).
    pub fn to_json(self) -> String {
        format!(
            "{{\"level\": {}, \"items\": {}, \"workers\": {}, \"new_nodes\": {}, \
             \"nodes\": {}, \"edges\": {}, \"elapsed_ns\": {}}}",
            self.level,
            self.items,
            self.workers,
            self.new_nodes,
            self.nodes_total,
            self.edges_total,
            self.elapsed_ns
        )
    }
}

/// One progress-heartbeat report (see [`Recorder::with_progress`]).
#[derive(Clone, Copy, Debug)]
pub struct ProgressReport {
    /// Current BFS depth.
    pub level: u32,
    /// Distinct configurations discovered so far.
    pub explored: usize,
    /// Work items queued for the next level.
    pub frontier: usize,
    /// Successor configurations generated so far (pre-dedup).
    pub generated: u64,
    /// Generated successors that deduplicated onto known nodes.
    pub dedup_hits: u64,
    /// Node expansions performed so far.
    pub expansions: u64,
    /// Wall time since the exploration started.
    pub elapsed: Duration,
    /// Discovery throughput: `explored / elapsed`.
    pub configs_per_sec: f64,
    /// Discovery throughput over the most recent heartbeat interval
    /// (falls back to the overall rate on the first beat). More honest
    /// than the lifetime average once the frontier shape changes.
    pub recent_configs_per_sec: f64,
    /// Configurations left under the `max_configs` bound.
    pub bound_remaining: usize,
    /// Heuristic estimate of the configurations still undiscovered, from
    /// the frontier's growth ratio between heartbeats: a frontier decaying
    /// by factor `r < 1` per beat extrapolates geometrically to
    /// `frontier * r / (1 - r)` more discoveries, capped at
    /// [`bound_remaining`](Self::bound_remaining). `None` while the
    /// frontier is still growing (no convergent estimate).
    pub est_remaining: Option<u64>,
    /// Heuristic seconds to completion: the remaining estimate (or, for a
    /// still-growing frontier, the distance to the `max_configs` bound —
    /// then an upper bound on the run) over the recent rate. `None` when
    /// the rate is unknown (first beat at zero elapsed time).
    pub eta_secs: Option<f64>,
    /// Bytes spilled to disk so far (0 unless the run uses the disk store).
    pub spilled_bytes: u64,
}

impl ProgressReport {
    /// The report as one flat JSON object (the `heartbeat` event's
    /// payload); unknown estimates are `null`.
    pub fn to_json(&self) -> String {
        let opt_u64 = |v: Option<u64>| v.map_or("null".to_string(), |n| n.to_string());
        let opt_f64 = |v: Option<f64>| v.map_or("null".to_string(), crate::json::json_f64);
        format!(
            "{{\"level\": {}, \"explored\": {}, \"frontier\": {}, \"generated\": {}, \
             \"dedup_hits\": {}, \"expansions\": {}, \"elapsed_ns\": {}, \
             \"configs_per_sec\": {}, \"recent_configs_per_sec\": {}, \
             \"bound_remaining\": {}, \"est_remaining\": {}, \"eta_secs\": {}, \
             \"spilled_bytes\": {}}}",
            self.level,
            self.explored,
            self.frontier,
            self.generated,
            self.dedup_hits,
            self.expansions,
            self.elapsed.as_nanos() as u64,
            crate::json::json_f64(self.configs_per_sec),
            crate::json::json_f64(self.recent_configs_per_sec),
            self.bound_remaining,
            opt_u64(self.est_remaining),
            opt_f64(self.eta_secs),
            self.spilled_bytes
        )
    }
}

impl fmt::Display for ProgressReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "level {}: {} explored, {} frontier, {} generated ({} dedup), \
             {:.0} configs/sec, bound remaining {}",
            self.level,
            self.explored,
            self.frontier,
            self.generated,
            self.dedup_hits,
            self.configs_per_sec,
            self.bound_remaining
        )?;
        if self.recent_configs_per_sec > 0.0
            && (self.recent_configs_per_sec - self.configs_per_sec).abs() >= 0.5
        {
            write!(f, " ({:.0}/sec recent)", self.recent_configs_per_sec)?;
        }
        if let Some(eta) = self.eta_secs {
            match self.est_remaining {
                Some(rem) => write!(f, ", ~{rem} configs / ~{eta:.0}s left")?,
                None => write!(f, ", ≤{eta:.0}s to bound")?,
            }
        }
        if self.spilled_bytes > 0 {
            write!(f, ", {} B spilled", self.spilled_bytes)?;
        }
        Ok(())
    }
}

/// The metrics snapshot attached to every explored
/// [`StateGraph`](../subconsensus_modelcheck/struct.StateGraph.html).
///
/// Counters and phase times are populated on every exploration: the
/// phase clocks are read once per level or once per exploration (see the
/// module docs), so they are always on. The phases are disjoint spans of the explorer's
/// own thread, so [`phase_sum`](Self::phase_sum) never exceeds
/// `total_ns`; the remainder is [`other_ns`](Self::other_ns).
#[derive(Clone, Debug, Default)]
pub struct ExploreMetrics {
    /// Wall time building the store and the initial configuration.
    pub setup_ns: u64,
    /// Wall time in level-boundary store work (row spill, index drain,
    /// frontier pin) and the final unspill.
    pub store_ns: u64,
    /// Wall time expanding levels: stepping, canonicalization, POR and
    /// worker-side dedup, worker spawn and join included.
    pub expand_ns: u64,
    /// Wall time in the sequential merges: insertion, edge bookkeeping,
    /// revisits, proviso escalation and the streaming-verdict fold.
    pub merge_ns: u64,
    /// Wall time freezing the edge buffer into CSR form.
    pub freeze_ns: u64,
    /// Times the CSR freeze ran: 1 for a full-graph goal, 0 under a
    /// verdict goal (which skips the freeze). Distinguishes "skipped"
    /// from "ran but too fast to time" on small fixtures.
    pub freeze_calls: u64,
    /// Wall time of the whole exploration, measured by the explorer from
    /// the start of the explore call.
    pub total_ns: u64,
    /// Distinct configurations in the final graph.
    pub configs: usize,
    /// Edges in the final graph.
    pub edges: usize,
    /// Successor configurations generated (pre-dedup).
    pub generated: u64,
    /// Generated successors deduplicated onto already-known nodes.
    pub dedup_hits: u64,
    /// Generated successors inserted as new nodes.
    pub added: u64,
    /// Generated successors dropped at the `max_configs` bound.
    pub capped: u64,
    /// Successors whose canonicalization applied a nontrivial pid
    /// permutation (symmetry-quotient hits).
    pub symmetry_hits: u64,
    /// Ample-set candidates suppressed by sleep sets (POR edge pruning).
    pub sleep_pruned: u64,
    /// Node expansions (work items) performed.
    pub expansions: u64,
    /// One record per BFS level.
    pub levels: Vec<LevelMetrics>,
    /// Peak resident-byte estimate of the exploration: the high-water mark
    /// of the store's per-level estimate (rows + arenas + fingerprint
    /// index), floored at the frozen graph's footprint.
    pub peak_bytes: usize,
    /// Disk-store spill telemetry (`None` for in-memory runs).
    pub store: Option<StoreMetrics>,
    /// Why the exploration stopped.
    pub truncation: TruncationCause,
}

impl ExploreMetrics {
    /// Sum of the per-phase times (excluding `total_ns`).
    pub fn phase_sum(&self) -> u64 {
        self.setup_ns + self.store_ns + self.expand_ns + self.merge_ns + self.freeze_ns
    }

    /// Wall time not attributed to any phase (level records, heartbeats,
    /// the final verdict fold, metrics assembly); `total_ns -
    /// phase_sum()`, saturating.
    pub fn other_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.phase_sum())
    }

    /// The phase breakdown alone as one JSON object (the `phases` field of
    /// the e9 bench rows). Components plus `other_ns` sum to `total_ns`.
    pub fn phases_json(&self) -> String {
        format!(
            "{{\"setup_ns\": {}, \"store_ns\": {}, \"expand_ns\": {}, \
             \"merge_ns\": {}, \"freeze_ns\": {}, \"freeze_calls\": {}, \
             \"other_ns\": {}, \"total_ns\": {}}}",
            self.setup_ns,
            self.store_ns,
            self.expand_ns,
            self.merge_ns,
            self.freeze_ns,
            self.freeze_calls,
            self.other_ns(),
            self.total_ns
        )
    }

    /// The whole snapshot as one JSON object (no external deps — hand
    /// formatted like the bench writer).
    pub fn to_json(&self) -> String {
        let levels: Vec<String> = self.levels.iter().map(|l| l.to_json()).collect();
        self.json_with_levels(&format!("[{}]", levels.join(", ")))
    }

    /// [`to_json`](Self::to_json) with `levels` as the value of the
    /// `"levels"` member.
    fn json_with_levels(&self, levels: &str) -> String {
        let truncation = match self.truncation {
            TruncationCause::Complete => "null".to_string(),
            TruncationCause::MaxConfigs { cap } => {
                format!("{{\"cause\": \"max_configs\", \"cap\": {cap}}}")
            }
            TruncationCause::MemoryBudget { budget } => {
                format!("{{\"cause\": \"memory_budget\", \"budget\": {budget}}}")
            }
        };
        let store = match &self.store {
            None => "null".to_string(),
            Some(s) => s.to_json(),
        };
        format!(
            "{{\"configs\": {}, \"edges\": {}, \"generated\": {}, \
             \"dedup_hits\": {}, \"added\": {}, \"capped\": {}, \
             \"symmetry_hits\": {}, \"sleep_pruned\": {}, \"expansions\": {}, \
             \"peak_bytes\": {}, \"truncation\": {truncation}, \
             \"store\": {store}, \"phases\": {}, \"levels\": {levels}}}",
            self.configs,
            self.edges,
            self.generated,
            self.dedup_hits,
            self.added,
            self.capped,
            self.symmetry_hits,
            self.sleep_pruned,
            self.expansions,
            self.peak_bytes,
            self.phases_json(),
        )
    }
}

impl fmt::Display for ExploreMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} configs, {} edges in {} levels ({} expansions){}",
            self.configs,
            self.edges,
            self.levels.len(),
            self.expansions,
            match self.truncation {
                TruncationCause::Complete => String::new(),
                TruncationCause::MaxConfigs { cap } => format!(" [TRUNCATED at {cap}]"),
                TruncationCause::MemoryBudget { budget } => {
                    format!(" [TRUNCATED by {budget} B memory budget]")
                }
            }
        )?;
        writeln!(
            f,
            "generated {} ({} dedup hits, {} added, {} capped); \
             {} symmetry hits, {} sleep-pruned",
            self.generated,
            self.dedup_hits,
            self.added,
            self.capped,
            self.symmetry_hits,
            self.sleep_pruned
        )?;
        let ms = |ns: u64| ns as f64 / 1e6;
        writeln!(
            f,
            "phases: setup {:.2}ms, store {:.2}ms, expand {:.2}ms, merge {:.2}ms, \
             freeze {:.2}ms, other {:.2}ms (total {:.2}ms)",
            ms(self.setup_ns),
            ms(self.store_ns),
            ms(self.expand_ns),
            ms(self.merge_ns),
            ms(self.freeze_ns),
            ms(self.other_ns()),
            ms(self.total_ns)
        )?;
        write!(f, "peak memory ≈ {} bytes", self.peak_bytes)?;
        if let Some(s) = &self.store {
            write!(
                f,
                "\nspill: {} B out, {} reloads ({} index reads), hot hit rate {:.2}",
                s.spilled_bytes,
                s.reload_count,
                s.index_reads,
                s.hot_hit_rate()
            )?;
        }
        Ok(())
    }
}

/// The heartbeat callback type (see [`Recorder::with_progress`]).
type ProgressCallback = Box<dyn Fn(&ProgressReport) + Send + Sync>;

/// The shared heartbeat machinery: one expansion-count gate drives every
/// per-interval consumer (the progress callback and the event log), so
/// they observe the same [`ProgressReport`]s and the same rate state.
struct Heartbeat {
    every: u64,
    /// Expansion count at the last fired heartbeat.
    last: AtomicU64,
    /// Explored count at the last heartbeat (recent-rate numerator).
    last_explored: AtomicU64,
    /// Frontier size at the last heartbeat (growth-ratio estimate).
    last_frontier: AtomicU64,
    /// Elapsed nanos at the last heartbeat (recent-rate denominator).
    last_elapsed_ns: AtomicU64,
    callback: Option<ProgressCallback>,
}

impl Heartbeat {
    fn new() -> Self {
        Heartbeat {
            every: DEFAULT_PROGRESS_EVERY,
            last: AtomicU64::new(0),
            last_explored: AtomicU64::new(0),
            last_frontier: AtomicU64::new(0),
            last_elapsed_ns: AtomicU64::new(0),
            callback: None,
        }
    }
}

/// Numbers the runs of this process (the second half of a run id).
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// The event-log sink: the file, opened once in append mode, and the run
/// id of the exploration currently writing to it.
struct EventLog {
    path: PathBuf,
    file: File,
    /// This process's sequence number of the current run, assigned by
    /// [`Recorder::log_start`].
    seq: AtomicU64,
}

impl EventLog {
    /// Appends one event: `{"event": kind, "run": id, <payload members>}`
    /// plus a newline, in a single `write_all` on an `O_APPEND` file, so
    /// concurrent writers interleave whole lines. `payload` is a non-empty
    /// JSON object. A failed write warns once and never fails the run.
    fn emit(&self, kind: &str, payload: &str) {
        let line = format!(
            "{{\"event\": \"{kind}\", \"run\": \"{}.{}\", {}\n",
            std::process::id(),
            self.seq.load(Ordering::Relaxed),
            &payload[1..]
        );
        if let Err(e) = (&self.file).write_all(line.as_bytes()) {
            warn_once(
                "event_log_write",
                &format!(
                    "modelcheck: WARNING: MC_LOG: cannot append to {}: {e} \
                     (further write failures suppressed for this process)",
                    self.path.display()
                ),
            );
        }
    }
}

/// Configuration resolved from the environment once per process: a search
/// runs tens of thousands of explorations and must not pay `std::env::var`
/// per call. The explicit [`Recorder`] builders and `ExploreOptions`
/// fields win over these.
struct EnvConfig {
    progress_every: Option<u64>,
    log_path: Option<PathBuf>,
    store_disk: bool,
    store_budget: Option<usize>,
}

fn env_config() -> &'static EnvConfig {
    static ENV: OnceLock<EnvConfig> = OnceLock::new();
    ENV.get_or_init(|| {
        let progress_every = if env_flag("MC_PROGRESS") {
            // A numeric value > 1 is the heartbeat interval; any other
            // truthy value means "on, default interval".
            let every = std::env::var("MC_PROGRESS")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .filter(|&n| n > 1)
                .unwrap_or(DEFAULT_PROGRESS_EVERY);
            Some(every)
        } else {
            None
        };
        let log_path = std::env::var_os("MC_LOG")
            .filter(|v| !v.is_empty() && v != "0")
            .map(PathBuf::from);
        let store_disk =
            std::env::var("MC_STORE").is_ok_and(|v| v.trim().eq_ignore_ascii_case("disk"));
        let store_budget = std::env::var("MC_STORE_BUDGET")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok());
        EnvConfig {
            progress_every,
            log_path,
            store_disk,
            store_budget,
        }
    })
}

/// Whether `MC_STORE=disk` selects the disk store for explorations that
/// leave the backend to the environment (read once per process).
pub fn env_store_disk() -> bool {
    env_config().store_disk
}

/// The `MC_STORE_BUDGET` hot-tier byte budget, if set to a number (read
/// once per process).
pub fn env_store_budget() -> Option<usize> {
    env_config().store_budget
}

/// The telemetry sink one exploration writes into.
///
/// Counters and phase clocks are relaxed atomics and always recorded. The
/// recorder exposes nothing the explorer reads back, so runs with and
/// without sinks build identical graphs.
pub struct Recorder {
    /// Accumulated nanoseconds per [`Phase`].
    phase_ns: [AtomicU64; NPHASES],
    /// Spans recorded per [`Phase`] (how many times each phase ran).
    phase_calls: [AtomicU64; NPHASES],
    generated: AtomicU64,
    dedup_hits: AtomicU64,
    added: AtomicU64,
    capped: AtomicU64,
    symmetry_hits: AtomicU64,
    sleep_pruned: AtomicU64,
    expansions: AtomicU64,
    /// `u64::MAX` = complete; anything else is the `max_configs` cap hit.
    truncation_cap: AtomicU64,
    /// `u64::MAX` = no budget truncation; anything else is the byte budget
    /// whose estimate was exceeded (takes precedence over `truncation_cap`
    /// in the snapshot — the budget is what actually stopped growth).
    budget_limit: AtomicU64,
    /// High-water mark of the store's per-level resident estimate.
    peak_bytes: AtomicU64,
    /// Disk-store counters (surfaced in the snapshot only once
    /// [`mark_store_active`](Self::mark_store_active) ran).
    store_active: AtomicU64,
    spilled_bytes: AtomicU64,
    store_reloads: AtomicU64,
    index_reads: AtomicU64,
    store_hot_hits: AtomicU64,
    store_hot_misses: AtomicU64,
    levels: Mutex<Vec<LevelMetrics>>,
    heartbeat: Option<Heartbeat>,
    log: Option<EventLog>,
    start: Instant,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("progress", &self.heartbeat.as_ref().map(|p| p.every))
            .field("log", &self.log.as_ref().map(|l| &l.path))
            .finish_non_exhaustive()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder with no sinks: counters and phase clocks only, no
    /// heartbeat, no event log.
    pub fn new() -> Self {
        Recorder {
            phase_ns: Default::default(),
            phase_calls: Default::default(),
            generated: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            added: AtomicU64::new(0),
            capped: AtomicU64::new(0),
            symmetry_hits: AtomicU64::new(0),
            sleep_pruned: AtomicU64::new(0),
            expansions: AtomicU64::new(0),
            truncation_cap: AtomicU64::new(u64::MAX),
            budget_limit: AtomicU64::new(u64::MAX),
            peak_bytes: AtomicU64::new(0),
            store_active: AtomicU64::new(0),
            spilled_bytes: AtomicU64::new(0),
            store_reloads: AtomicU64::new(0),
            index_reads: AtomicU64::new(0),
            store_hot_hits: AtomicU64::new(0),
            store_hot_misses: AtomicU64::new(0),
            levels: Mutex::new(Vec::new()),
            heartbeat: None,
            log: None,
            start: Instant::now(),
        }
    }

    /// A recorder honoring the `MC_PROGRESS` / `MC_LOG` environment (read
    /// once per process): heartbeat to stderr, and the event log appended
    /// to the given path.
    pub fn from_env() -> Self {
        let env = env_config();
        let mut rec = Recorder::new();
        if let Some(every) = env.progress_every {
            rec = rec.with_stderr_progress(every);
        }
        if let Some(path) = &env.log_path {
            rec = rec.with_log(path);
        }
        rec
    }

    /// Installs a heartbeat callback fired every `every` node expansions
    /// (checked at level boundaries and inside the merge loops, so even a
    /// single huge level reports every interval).
    pub fn with_progress<F>(mut self, every: u64, callback: F) -> Self
    where
        F: Fn(&ProgressReport) + Send + Sync + 'static,
    {
        let hb = self.heartbeat.get_or_insert_with(Heartbeat::new);
        hb.every = every.max(1);
        hb.callback = Some(Box::new(callback));
        self
    }

    /// Installs the default stderr heartbeat (`MC_PROGRESS`'s sink).
    pub fn with_stderr_progress(self, every: u64) -> Self {
        self.with_progress(every, |r| eprintln!("modelcheck: {r}"))
    }

    /// Appends this recorder's events to the JSONL log at `path` (see the
    /// module docs for the schema). The file is opened here, once, in
    /// append mode. Heartbeat events share the interval gate with
    /// [`with_progress`](Self::with_progress), at
    /// [`DEFAULT_PROGRESS_EVERY`] when no progress callback set one. The
    /// log is write-only, so the explored graph is identical with or
    /// without it; an unopenable path degrades to a one-shot warning.
    pub fn with_log<P: AsRef<Path>>(mut self, path: P) -> Self {
        let path = path.as_ref().to_path_buf();
        match OpenOptions::new().create(true).append(true).open(&path) {
            Ok(file) => {
                self.heartbeat.get_or_insert_with(Heartbeat::new);
                let seq = AtomicU64::new(0);
                self.log = Some(EventLog { path, file, seq });
            }
            Err(e) => drop(warn_once(
                "event_log_open",
                &format!(
                    "modelcheck: WARNING: MC_LOG: cannot open {}: {e} (event log \
                     disabled; further open failures suppressed for this process)",
                    path.display()
                ),
            )),
        }
        self
    }

    /// Whether an event log is installed. The explorer checks this once
    /// before building a `start` or `end` payload, so log-free runs pay
    /// nothing for them.
    pub fn has_log(&self) -> bool {
        self.log.is_some()
    }

    /// Opens a run in the event log (no-op without one): assigns the run
    /// id and writes the `start` event with the spec hash (a 16-hex-digit
    /// string — JSON numbers are f64 and would corrupt 64-bit
    /// fingerprints), git revision, the resolved options as one JSON
    /// object, the `MC_*` env snapshot and the wall-clock start.
    pub fn log_start(&self, spec_hash: u64, options_json: &str) {
        let Some(log) = &self.log else { return };
        log.seq
            .store(RUN_SEQ.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
        log.emit(
            "start",
            &format!(
                "{{\"spec_hash\": \"{spec_hash:016x}\", \"git_revision\": \"{}\", \
                 \"options\": {options_json}, \"env\": {}, \"started_unix_ms\": {}}}",
                json_escape(git_revision()),
                mc_env_json(),
                unix_time_ms()
            ),
        );
    }

    /// Closes the run in the event log (no-op without one): the `end`
    /// event with the outcome (one JSON object: graph facts or a
    /// streaming verdict), the [`ExploreMetrics::to_json`] payload with
    /// the level *count* as `"levels"` (each record is already in the log
    /// as a `level` event) and the wall-clock end.
    pub fn log_end(&self, outcome_json: &str, metrics: &ExploreMetrics) {
        let Some(log) = &self.log else { return };
        log.emit(
            "end",
            &format!(
                "{{\"outcome\": {outcome_json}, \"metrics\": {}, \"ended_unix_ms\": {}}}",
                metrics.json_with_levels(&metrics.levels.len().to_string()),
                unix_time_ms()
            ),
        );
    }

    /// Adds the wall time since `since` to `phase` and returns the clock
    /// reading, so back-to-back phases chain with one clock read per
    /// boundary. Called once per level or once per exploration, never per
    /// successor.
    pub fn lap(&self, phase: Phase, since: Instant) -> Instant {
        let now = Instant::now();
        let i = phase as usize;
        self.phase_ns[i].fetch_add((now - since).as_nanos() as u64, Ordering::Relaxed);
        self.phase_calls[i].fetch_add(1, Ordering::Relaxed);
        now
    }

    /// Counts successor configurations generated (pre-dedup).
    pub fn count_generated(&self, n: u64) {
        self.generated.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts successors that deduplicated onto known nodes.
    pub fn count_dedup_hits(&self, n: u64) {
        self.dedup_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts successors inserted as new nodes.
    pub fn count_added(&self, n: u64) {
        self.added.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts successors dropped at the configuration bound.
    pub fn count_capped(&self, n: u64) {
        self.capped.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts successors whose canonicalization applied a nontrivial pid
    /// permutation.
    pub fn count_symmetry_hits(&self, n: u64) {
        self.symmetry_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts ample candidates suppressed by sleep sets.
    pub fn count_sleep_pruned(&self, n: u64) {
        self.sleep_pruned.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts node expansions (work items).
    pub fn count_expansions(&self, n: u64) {
        self.expansions.fetch_add(n, Ordering::Relaxed);
    }

    /// Records that the exploration hit the `cap` configuration bound.
    pub fn set_truncated(&self, cap: usize) {
        self.truncation_cap.store(cap as u64, Ordering::Relaxed);
    }

    /// Records that the exploration stopped because the in-memory store's
    /// resident estimate exceeded `budget` bytes. Wins over
    /// [`set_truncated`](Self::set_truncated) in the snapshot.
    pub fn set_budget_truncated(&self, budget: usize) {
        self.budget_limit.store(budget as u64, Ordering::Relaxed);
    }

    /// Raises the resident-byte high-water mark (stores report their
    /// per-level estimate here; the explorer floors the final value at the
    /// frozen graph's footprint).
    pub fn record_peak_bytes(&self, bytes: usize) {
        self.peak_bytes.fetch_max(bytes as u64, Ordering::Relaxed);
    }

    /// Marks this run as disk-store backed so the snapshot carries a
    /// [`StoreMetrics`] object (even if nothing spilled under the budget).
    pub fn mark_store_active(&self) {
        self.store_active.store(1, Ordering::Relaxed);
    }

    /// Counts bytes written to spill files.
    pub fn count_spilled_bytes(&self, n: u64) {
        self.spilled_bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts reads from spill files (every kind, index reads included).
    pub fn count_store_reloads(&self, n: u64) {
        self.store_reloads.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts spilled fingerprint-index reads (the caller counts them as
    /// store reloads too).
    pub fn count_index_reads(&self, n: u64) {
        self.index_reads.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts cold-capable accesses served from the hot tier.
    pub fn count_store_hot_hits(&self, n: u64) {
        self.store_hot_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts cold-capable accesses that had to fault from disk.
    pub fn count_store_hot_misses(&self, n: u64) {
        self.store_hot_misses.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one finished BFS level (always on — once per level) and
    /// appends its `level` event if an event log is installed.
    pub fn record_level(
        &self,
        items: usize,
        workers: usize,
        new_nodes: usize,
        nodes_total: usize,
        edges_total: usize,
        elapsed: Duration,
    ) {
        let mut levels = self.levels.lock().expect("levels lock");
        let rec = LevelMetrics {
            level: levels.len() as u32,
            items,
            workers,
            new_nodes,
            nodes_total,
            edges_total,
            elapsed_ns: elapsed.as_nanos() as u64,
        };
        levels.push(rec);
        drop(levels);
        if let Some(log) = &self.log {
            log.emit("level", &rec.to_json());
        }
    }

    /// Fires the heartbeat if at least `every` expansions have elapsed
    /// since the last one. Called at level boundaries *and* from inside the
    /// per-item merge loops, so a single long level still reports every
    /// interval; mid-level calls pass the current level's size as
    /// `frontier`. The claim on `last` is a compare-exchange: concurrent
    /// ticks from parallel expansion workers race to one winner per
    /// interval instead of multiplying reports.
    pub fn heartbeat(&self, level: u32, explored: usize, frontier: usize, bound_remaining: usize) {
        let Some(hb) = &self.heartbeat else { return };
        let expansions = self.expansions.load(Ordering::Relaxed);
        let last = hb.last.load(Ordering::Relaxed);
        if expansions < last.saturating_add(hb.every) {
            return;
        }
        if hb
            .last
            .compare_exchange(last, expansions, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return; // another worker claimed this interval
        }
        let report = self.build_report(hb, level, explored, frontier, bound_remaining, expansions);
        if let Some(callback) = &hb.callback {
            callback(&report);
        }
        if let Some(log) = &self.log {
            log.emit("heartbeat", &report.to_json());
        }
    }

    /// Assembles one [`ProgressReport`], advancing the heartbeat's rate
    /// state (previous explored / frontier / elapsed) in the process. The
    /// recent rate and the geometric frontier-decay estimate are
    /// *heuristics* for human pacing — nothing in the explorer reads them
    /// back.
    fn build_report(
        &self,
        hb: &Heartbeat,
        level: u32,
        explored: usize,
        frontier: usize,
        bound_remaining: usize,
        expansions: u64,
    ) -> ProgressReport {
        let elapsed = self.start.elapsed();
        let secs = elapsed.as_secs_f64();
        let now_ns = elapsed.as_nanos() as u64;
        let prev_explored = hb.last_explored.swap(explored as u64, Ordering::Relaxed);
        let prev_frontier = hb.last_frontier.swap(frontier as u64, Ordering::Relaxed);
        let prev_ns = hb.last_elapsed_ns.swap(now_ns, Ordering::Relaxed);
        let overall = if secs > 0.0 {
            explored as f64 / secs
        } else {
            0.0
        };
        let recent = if now_ns > prev_ns && explored as u64 > prev_explored {
            (explored as u64 - prev_explored) as f64 / ((now_ns - prev_ns) as f64 / 1e9)
        } else {
            overall
        };
        // A frontier decaying by ratio r per beat extrapolates to
        // frontier * (r + r² + …) = frontier * r / (1 - r) further
        // discoveries; a growing frontier has no convergent estimate and
        // the max_configs bound is the only cap.
        let est_remaining = if frontier > 0 && (frontier as u64) < prev_frontier {
            let r = frontier as f64 / prev_frontier as f64;
            let geo = frontier as f64 * r / (1.0 - r);
            Some(geo.min(bound_remaining as f64).round() as u64)
        } else {
            None
        };
        let eta_secs = if recent > 0.0 {
            Some(est_remaining.map_or(bound_remaining as f64, |r| r as f64) / recent)
        } else {
            None
        };
        ProgressReport {
            level,
            explored,
            frontier,
            generated: self.generated.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            expansions,
            elapsed,
            configs_per_sec: overall,
            recent_configs_per_sec: recent,
            bound_remaining,
            est_remaining,
            eta_secs,
            spilled_bytes: self.spilled_bytes.load(Ordering::Relaxed),
        }
    }

    /// Snapshots the recorder into an [`ExploreMetrics`]. The graph-shape
    /// fields (`configs`, `edges`, `peak_bytes`) are zero here; the
    /// explorer overwrites them from the frozen graph.
    pub fn snapshot(&self) -> ExploreMetrics {
        let ns = |p: Phase| self.phase_ns[p as usize].load(Ordering::Relaxed);
        let cap = self.truncation_cap.load(Ordering::Relaxed);
        let budget = self.budget_limit.load(Ordering::Relaxed);
        let store = if self.store_active.load(Ordering::Relaxed) != 0 {
            Some(StoreMetrics {
                spilled_bytes: self.spilled_bytes.load(Ordering::Relaxed),
                reload_count: self.store_reloads.load(Ordering::Relaxed),
                index_reads: self.index_reads.load(Ordering::Relaxed),
                hot_hits: self.store_hot_hits.load(Ordering::Relaxed),
                hot_misses: self.store_hot_misses.load(Ordering::Relaxed),
            })
        } else {
            None
        };
        ExploreMetrics {
            setup_ns: ns(Phase::Setup),
            store_ns: ns(Phase::Store),
            expand_ns: ns(Phase::Expand),
            merge_ns: ns(Phase::Merge),
            freeze_ns: ns(Phase::Freeze),
            freeze_calls: self.phase_calls[Phase::Freeze as usize].load(Ordering::Relaxed),
            total_ns: ns(Phase::Total),
            configs: 0,
            edges: 0,
            generated: self.generated.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            added: self.added.load(Ordering::Relaxed),
            capped: self.capped.load(Ordering::Relaxed),
            symmetry_hits: self.symmetry_hits.load(Ordering::Relaxed),
            sleep_pruned: self.sleep_pruned.load(Ordering::Relaxed),
            expansions: self.expansions.load(Ordering::Relaxed),
            levels: self.levels.lock().expect("levels lock").clone(),
            peak_bytes: self.peak_bytes.load(Ordering::Relaxed) as usize,
            store,
            truncation: if budget != u64::MAX {
                TruncationCause::MemoryBudget {
                    budget: budget as usize,
                }
            } else if cap == u64::MAX {
                TruncationCause::Complete
            } else {
                TruncationCause::MaxConfigs { cap: cap as usize }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_flag_semantics() {
        // Unique var names: tests in one binary share the process env.
        std::env::remove_var("SUBC_METRICS_T0");
        assert!(!env_flag("SUBC_METRICS_T0"));
        std::env::set_var("SUBC_METRICS_T1", "");
        assert!(!env_flag("SUBC_METRICS_T1"));
        std::env::set_var("SUBC_METRICS_T2", "0");
        assert!(!env_flag("SUBC_METRICS_T2"));
        std::env::set_var("SUBC_METRICS_T3", "1");
        assert!(env_flag("SUBC_METRICS_T3"));
        std::env::set_var("SUBC_METRICS_T4", "yes");
        assert!(env_flag("SUBC_METRICS_T4"));
    }

    #[test]
    fn laps_chain_into_disjoint_phases() {
        let rec = Recorder::new();
        rec.count_generated(3);
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let t1 = rec.lap(Phase::Expand, t0);
        let t2 = rec.lap(Phase::Merge, t1);
        rec.lap(Phase::Total, t0);
        let m = rec.snapshot();
        assert_eq!(m.generated, 3);
        assert!(m.expand_ns >= 2_000_000, "expand {}", m.expand_ns);
        assert_eq!(m.merge_ns, (t2 - t1).as_nanos() as u64);
        assert!(m.phase_sum() <= m.total_ns);
        // Only a lapped Total reaches the snapshot: the recorder's own
        // construction time is not part of any exploration.
        assert_eq!(Recorder::new().snapshot().total_ns, 0);
    }

    #[test]
    fn truncation_cause_roundtrip() {
        let rec = Recorder::new();
        assert_eq!(rec.snapshot().truncation, TruncationCause::Complete);
        assert!(!rec.snapshot().truncation.is_truncated());
        rec.set_truncated(500);
        let t = rec.snapshot().truncation;
        assert_eq!(t, TruncationCause::MaxConfigs { cap: 500 });
        assert!(t.is_truncated());
    }

    #[test]
    fn progress_fires_on_interval() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = hits.clone();
        let rec = Recorder::new().with_progress(2, move |r| {
            assert!(r.expansions >= 2);
            hits2.fetch_add(1, Ordering::SeqCst);
        });
        rec.heartbeat(0, 1, 1, 100); // 0 expansions: below interval
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        rec.count_expansions(2);
        rec.heartbeat(1, 3, 2, 97);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        rec.heartbeat(1, 3, 2, 97); // no new expansions: suppressed
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn level_records_and_json() {
        let rec = Recorder::new();
        rec.record_level(1, 1, 2, 3, 4, Duration::from_nanos(5));
        rec.record_level(40, 2, 0, 3, 6, Duration::from_nanos(7));
        let m = rec.snapshot();
        assert_eq!(m.levels.len(), 2);
        assert_eq!(m.levels[0].level, 0);
        assert_eq!(m.levels[1].level, 1);
        assert_eq!(m.levels[1].workers, 2);
        assert_eq!(
            m.levels[0].to_json(),
            "{\"level\": 0, \"items\": 1, \"workers\": 1, \"new_nodes\": 2, \
             \"nodes\": 3, \"edges\": 4, \"elapsed_ns\": 5}"
        );
        let json = m.to_json();
        assert!(json.contains("\"levels\": [{"));
        assert!(json.contains("\"truncation\": null"));
        // Balanced braces: a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON: {json}"
        );
    }

    #[test]
    fn concurrent_heartbeat_claims_once_per_interval() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = hits.clone();
        let rec = Recorder::new().with_progress(2, move |_| {
            hits2.fetch_add(1, Ordering::SeqCst);
        });
        rec.count_expansions(2);
        // Two workers observe the same interval; only one may fire.
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| rec.heartbeat(0, 1, 1, 10));
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn freeze_calls_distinguish_skipped_from_fast() {
        // Never lapped: 0 calls, 0 ns — a genuinely skipped phase.
        let rec = Recorder::new();
        assert_eq!(rec.snapshot().freeze_calls, 0);
        // Lapped but (possibly) too fast to time: calls > 0 regardless.
        rec.lap(Phase::Freeze, Instant::now());
        let m = rec.snapshot();
        assert_eq!(m.freeze_calls, 1);
        assert!(m.phases_json().contains("\"freeze_calls\": 1"));
    }

    #[test]
    fn phases_json_components_sum_to_total() {
        let m = ExploreMetrics {
            setup_ns: 5,
            store_ns: 15,
            expand_ns: 30,
            merge_ns: 25,
            freeze_ns: 5,
            total_ns: 100,
            ..Default::default()
        };
        assert_eq!(m.phase_sum(), 80);
        assert_eq!(m.other_ns(), 20);
        let json = m.phases_json();
        assert!(json.contains("\"other_ns\": 20"));
        assert!(json.contains("\"total_ns\": 100"));
    }
}

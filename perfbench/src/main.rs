//! End-to-end and per-layer benchmark of the model checker.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! `--trace 0` runs the workload closed-loop (one iteration at a time) for
//! `--seconds` and reports the end-to-end metrics from uninstrumented
//! iterations. `--trace 1` alternates untraced and traced iterations and
//! reports the per-layer metrics. Either way every iteration's output is
//! checked against the workload's known answer, and the last stdout line
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `perfbench/run.py` builds this binary and runs it with a clean
//! environment; see `perfbench/README.md` for the metrics.

mod search;
mod trace;
mod workloads;

use std::io::{BufRead, BufReader};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use subconsensus_modelcheck::StateGraph;

use search::replay_search;
use trace::{replay_nodes, Tracer};
use workloads::{
    check, explore_and_check, leaked_spill_dirs, run_once, set_consensus_32,
    spill_reference_options, Facts, Inputs, Outcome, Setup, Workload,
};

/// Process spawns timed per run for `setup_s`.
const SETUP_SAMPLES: usize = 31;
/// Nodes per graph replayed through the compact layer functions.
const REPLAY_NODES: usize = 50_000;
/// Spec builds timed for `sim.system.build_us` on a graph workload.
const BUILD_SAMPLES: usize = 101;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut setup_only = false;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: if setup_only {
            0.0
        } else {
            seconds.ok_or("--seconds is required")?
        },
        trace,
        setup_only,
        spans,
    })
}

/// Variables that silently change shards, store, budget or timers.
fn forbidden_env() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MC_") || k == "BENCH_SMOKE" || k == "INTERNER_STATS")
        .collect()
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Seconds this thread has run on a CPU and waited in the run queue.
fn sched_secs() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut f = stat
        .split_whitespace()
        .map(|v| v.parse::<f64>().unwrap_or(0.0) * 1e-9);
    (f.next().unwrap_or(0.0), f.next().unwrap_or(0.0))
}

/// Median time from spawning this binary in `--setup-only` mode until it
/// reports that its inputs are built: process start, argument and
/// environment checks, and spec, class and option construction.
fn measure_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seed = args.seed.to_string();
    let mut samples = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 0..SETUP_SAMPLES {
        let t0 = Instant::now();
        let mut child = Command::new(&exe)
            .args([
                "--setup-only",
                "--workload",
                args.workload.name(),
                "--seed",
                &seed,
            ])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn setup: {e}"))?;
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
        let dt = t0.elapsed().as_secs_f64();
        let status = child.wait().map_err(|e| format!("wait setup: {e}"))?;
        if read.is_err() || line.trim() != "ready" || !status.success() {
            return Err(format!("setup child failed ({status})"));
        }
        samples.push(dt);
    }
    Ok(median(&samples))
}

/// `git rev-parse` / `git status` of the working directory, without
/// searching parent directories; `None` outside a git checkout.
fn git(args: &[&str]) -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let mut cmd = Command::new("git");
    cmd.args(args).stderr(Stdio::null());
    if let Some(parent) = cwd.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    String::from_utf8(out.stdout)
        .ok()
        .map(|s| s.trim().to_string())
}

fn provenance(args: &Args, setup: &Setup) -> String {
    let rev = git(&["rev-parse", "HEAD"]);
    let dirty = rev
        .as_ref()
        .and_then(|_| git(&["status", "--porcelain", "--untracked-files=no"]))
        .map(|s| (!s.is_empty()).to_string());
    let values: Vec<String> = setup.values.iter().map(i64::to_string).collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"values\": [{}], \"options\": {}, \"git_revision\": \"{}\", \"dirty\": {}, \
         \"nproc\": {}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        values.join(", "),
        setup.opts.to_json(),
        rev.as_deref().unwrap_or("unknown"),
        dirty.as_deref().unwrap_or("null"),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    )
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Tallies of a run's iterations.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    /// Runs one iteration, catching errors and panics, and checks its
    /// facts. Returns the checked outcome and the seconds the workload
    /// calls took (the outcome's drop is not timed).
    fn iterate(&mut self, setup: &Setup, tr: &mut Tracer) -> Option<(Outcome, f64)> {
        self.attempted += 1;
        let root = tr.begin("perfbench::iteration");
        let t0 = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| run_once(setup, tr)));
        let wall = t0.elapsed().as_secs_f64();
        tr.end(root);
        let checked = match res {
            Ok(Ok(out)) => check(setup.workload, &out.facts).map(|()| out),
            Ok(Err(e)) => Err(e),
            Err(_) => Err("iteration panicked".to_string()),
        };
        match checked {
            Ok(mut out) if setup.workload == Workload::SpillP10 => {
                // Dropping the graph removes its spill run directory.
                out.graph = None;
                match leaked_spill_dirs() {
                    0 => Some((out, wall)),
                    n => {
                        eprintln!("perfbench: {n} mc-spill-* directories leaked");
                        self.failed += 1;
                        None
                    }
                }
            }
            Ok(out) => Some((out, wall)),
            Err(e) => {
                eprintln!("perfbench: iteration {} failed: {e}", self.attempted);
                self.failed += 1;
                None
            }
        }
    }
}

/// Post-run work that needs more than one iteration: the search replica
/// (configuration count and per-check split) and the disk workload's
/// in-memory twin (facts to match, overhead base, graph to replay).
#[derive(Default)]
struct Reference {
    /// Configurations explored per iteration.
    configs: usize,
    ok: bool,
    replica: Option<search::Replica>,
    /// The in-memory graph and the seconds its exploration took.
    memory: Option<(StateGraph, f64)>,
}

fn reference(setup: &Setup, facts: &Facts, tr: &mut Tracer, timed_replica: bool) -> Reference {
    match (&setup.inputs, facts) {
        (Inputs::Search { class }, Facts::Search { trees, checks, .. }) => {
            let rep = replay_search(set_consensus_32, class, &setup.opts, timed_replica);
            let ok = rep.trees == *trees && rep.checks == *checks && rep.configs > 0;
            if !ok {
                eprintln!(
                    "perfbench: search replica diverged: {} trees / {} checks vs {trees} / {checks}",
                    rep.trees, rep.checks
                );
            }
            Reference {
                configs: rep.configs,
                ok,
                replica: Some(rep),
                memory: None,
            }
        }
        (Inputs::Graph { .. }, Facts::Graph { configs, .. })
            if setup.workload != Workload::SpillP10 =>
        {
            Reference {
                configs: *configs,
                ok: true,
                ..Reference::default()
            }
        }
        (Inputs::Graph { spec }, Facts::Graph { configs, .. }) => {
            // The disk store must reproduce the in-memory exploration.
            let mut out = Reference {
                configs: *configs,
                ..Reference::default()
            };
            let s = tr.begin("perfbench::memory_reference");
            let t0 = Instant::now();
            let res = explore_and_check(spec, &spill_reference_options(), setup.workload, tr);
            let secs = tr
                .last("modelcheck::StateGraph::explore")
                .map_or_else(|| t0.elapsed().as_secs_f64(), |s| s.secs());
            tr.end(s);
            match res {
                Ok((graph, mem_facts)) => {
                    out.ok = &mem_facts == facts;
                    if !out.ok {
                        eprintln!(
                            "perfbench: disk store facts {} != memory facts {}",
                            facts.to_json(),
                            mem_facts.to_json()
                        );
                    }
                    out.memory = Some((graph, secs));
                }
                Err(e) => eprintln!("perfbench: memory reference failed: {e}"),
            }
            out
        }
        _ => Reference::default(),
    }
}

/// `--trace 0`: uninstrumented iterations for `--seconds`.
fn run_timed(args: &Args, setup: &Setup) -> (bool, Tally, Vec<Metric>) {
    let setup_s = match measure_setup(args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return (false, Tally::default(), Vec::new());
        }
    };
    let mut tally = Tally::default();
    let mut walls = Vec::new();
    let (mut cpu, mut waits) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut rss = None;
    let mut off = Tracer::new(false);
    let start = Instant::now();
    loop {
        let (c0, w0) = sched_secs();
        if let Some((out, wall)) = tally.iterate(setup, &mut off) {
            let (c1, w1) = sched_secs();
            walls.push(wall);
            cpu.push(c1 - c0);
            waits.push(w1 - w0);
            last = Some(out.facts);
        }
        // The peak of one workload run in a fresh process: later iterations
        // reuse a heap the earlier ones fragmented.
        rss.get_or_insert_with(peak_rss_mib);
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let Some(facts) = last else {
        return (false, tally, Vec::new());
    };
    let refs = reference(setup, &facts, &mut off, false);
    let wall = median(&walls);
    println!("facts {}", facts.to_json());
    println!(
        "iterations {} wall_s {walls:?} cpu_s {cpu:?} runqueue_s {waits:?}",
        walls.len()
    );
    let metrics = vec![
        metric("wall_s", wall, "s"),
        metric("configs_per_s", refs.configs as f64 / wall, "1/s"),
        metric("checks_per_s", facts.checks() as f64 / wall, "1/s"),
        metric("peak_rss_mib", rss.unwrap_or(0.0), "MiB"),
        metric("setup_s", setup_s, "s"),
    ];
    (refs.ok, tally, metrics)
}

/// `--trace 1`: alternating untraced and traced iterations, then the layer
/// breakdown of the last traced one.
fn run_traced(args: &Args, setup: &Setup) -> (bool, Tally, Vec<Metric>, Tracer) {
    let mut tally = Tally::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last: Option<(Tracer, Outcome)> = None;
    let start = Instant::now();
    loop {
        if let Some((_, wall)) = tally.iterate(setup, &mut Tracer::new(false)) {
            untraced.push(wall);
        }
        let mut tr = Tracer::new(true);
        if let Some((out, _)) = tally.iterate(setup, &mut tr) {
            traced.push(tr.spans()[0].secs());
            last = Some((tr, out));
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let Some((mut tr, out)) = last else {
        return (false, tally, Vec::new(), Tracer::new(false));
    };
    let overhead = median(&traced) / median(&untraced) - 1.0;
    let layers = tr.begin("perfbench::layers");
    let refs = reference(setup, &out.facts, &mut tr, true);
    let mut m = LayerMetrics::default();
    let total = tr.spans()[0].secs();
    let bench_self = tr.self_secs(0);
    match (&setup.inputs, &refs.replica) {
        (Inputs::Search { .. }, Some(rep)) => {
            let checks = out.facts.checks() as f64;
            let search_s = tr.child_secs(0, "core::search_binary_consensus_with");
            let build_us = rep.build_ns as f64 / rep.checks as f64 / 1e3;
            let explore_us = rep.explore_ns as f64 / rep.checks as f64 / 1e3;
            let us_per_check = search_s / checks * 1e6;
            m.core_checks = checks;
            m.us_per_check = us_per_check;
            m.core_self_share = 1.0 - (build_us + explore_us) / us_per_check;
            m.build_us = build_us;
            m.verdict_explore_us = explore_us;
            m.verdict_configs_per_check = rep.configs as f64 / rep.checks as f64;
            m.layer_core = search_s - (build_us + explore_us) * checks / 1e6;
            m.layer_system = build_us * checks / 1e6;
            m.layer_verdict = explore_us * checks / 1e6;
        }
        (Inputs::Graph { spec }, _) => {
            // The disk workload's graph is dropped inside the iteration
            // (to check for leaked run directories); its memory twin has
            // the same nodes and edges and is replayed instead.
            let graph = match (&out.graph, &refs.memory) {
                (Some(g), _) | (None, Some((g, _))) => g,
                (None, None) => return (false, tally, Vec::new(), tr),
            };
            let mx = out
                .metrics
                .as_ref()
                .expect("graph iterations keep their metrics");
            let symmetry = setup.opts.symmetry && !spec.symmetry_groups().is_trivial();
            let s = tr.begin("perfbench::replay_nodes");
            let rp = replay_nodes(spec, graph, symmetry, REPLAY_NODES);
            tr.end(s);
            println!("replayed {} of {} nodes", rp.nodes, mx.configs);
            let s = tr.begin("modelcheck::StateGraph::reverse_csr");
            std::hint::black_box(graph.reverse_csr());
            tr.end(s);
            m.reverse_csr_s = tr
                .last("modelcheck::StateGraph::reverse_csr")
                .map_or(0.0, |s| s.secs());
            m.build_us = time_build(setup) * 1e6;
            let explore_s = tr.child_secs(0, "modelcheck::StateGraph::explore");
            let canon_calls = if symmetry { mx.generated } else { 0 };
            m.explore_s = explore_s;
            m.step_ns = rp.step_ns;
            m.step_calls = rp.step_calls as f64;
            m.canon_ns = rp.canon_ns;
            m.canon_calls = canon_calls as f64;
            m.finalize_ns = rp.finalize_ns;
            m.fingerprint_ns = rp.fingerprint_ns;
            m.hit_rate = out.hit_rate;
            m.configs = mx.configs as f64;
            m.edges = mx.edges as f64;
            m.generated = mx.generated as f64;
            m.dedup_hit_ratio = mx.dedup_hits as f64 / mx.generated as f64;
            m.symmetry_hits = mx.symmetry_hits as f64;
            m.sleep_pruned = mx.sleep_pruned as f64;
            if let Facts::Graph { approx_bytes, .. } = out.facts {
                m.bytes_per_config = approx_bytes as f64 / mx.configs as f64;
            }
            m.valency_s = tr.child_secs(0, "modelcheck::Valency::compute");
            m.properties_s = tr.child_secs(0, "modelcheck::check_wait_freedom")
                + tr.child_secs(0, "modelcheck::check_nonblocking");
            m.layer_system =
                (rp.step_ns * rp.step_calls as f64 + rp.canon_ns * canon_calls as f64) / 1e9;
            m.layer_intern =
                (rp.finalize_ns * mx.added as f64 + rp.fingerprint_ns * mx.generated as f64) / 1e9;
            if let Some((_, mem_s)) = refs.memory {
                m.spill_overhead = explore_s / mem_s;
                m.layer_spill = explore_s - mem_s;
                if let Some(sm) = mx.store {
                    m.spilled_bytes = sm.spilled_bytes as f64;
                    m.reloads = sm.reload_count as f64;
                    m.hot_hit_rate = sm.hot_hit_rate();
                }
            }
            m.layer_graph = explore_s - m.layer_system - m.layer_intern - m.layer_spill;
            m.layer_valency = m.valency_s;
            m.layer_properties = m.properties_s;
        }
        _ => {}
    }
    m.trace_overhead = overhead;
    m.layer_bench = bench_self;
    tr.end(layers);
    (refs.ok, tally, m.into_metrics(total), tr)
}

/// Median seconds of `SystemBuilder::build` for the workload's spec.
fn time_build(setup: &Setup) -> f64 {
    let mut samples = Vec::with_capacity(BUILD_SAMPLES);
    for _ in 0..BUILD_SAMPLES {
        let Some(b) = workloads::builder(setup) else {
            return 0.0;
        };
        let t0 = Instant::now();
        let spec = b.build();
        samples.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(spec);
    }
    median(&samples)
}

/// The per-layer metrics of one traced run (0 where a layer does no work
/// on the workload).
#[derive(Default)]
struct LayerMetrics {
    core_checks: f64,
    us_per_check: f64,
    core_self_share: f64,
    build_us: f64,
    step_ns: f64,
    step_calls: f64,
    canon_ns: f64,
    canon_calls: f64,
    finalize_ns: f64,
    fingerprint_ns: f64,
    hit_rate: f64,
    explore_s: f64,
    configs: f64,
    edges: f64,
    generated: f64,
    dedup_hit_ratio: f64,
    symmetry_hits: f64,
    sleep_pruned: f64,
    bytes_per_config: f64,
    reverse_csr_s: f64,
    verdict_explore_us: f64,
    verdict_configs_per_check: f64,
    valency_s: f64,
    properties_s: f64,
    spilled_bytes: f64,
    reloads: f64,
    hot_hit_rate: f64,
    spill_overhead: f64,
    trace_overhead: f64,
    layer_core: f64,
    layer_system: f64,
    layer_intern: f64,
    layer_graph: f64,
    layer_verdict: f64,
    layer_valency: f64,
    layer_properties: f64,
    layer_spill: f64,
    layer_bench: f64,
}

impl LayerMetrics {
    fn into_metrics(self, total: f64) -> Vec<Metric> {
        let share = |s: f64| if total > 0.0 { s / total } else { 0.0 };
        vec![
            metric("core.checks", self.core_checks, "count"),
            metric("core.us_per_check", self.us_per_check, "us"),
            metric("core.self_share", self.core_self_share, "share"),
            metric("sim.system.build_us", self.build_us, "us"),
            metric("sim.system.step_ns", self.step_ns, "ns"),
            metric("sim.system.step_calls", self.step_calls, "count"),
            metric("sim.system.canon_ns", self.canon_ns, "ns"),
            metric("sim.system.canon_calls", self.canon_calls, "count"),
            metric("sim.intern.finalize_ns", self.finalize_ns, "ns"),
            metric("sim.intern.fingerprint_ns", self.fingerprint_ns, "ns"),
            metric("sim.intern.hit_rate", self.hit_rate, "share"),
            metric("modelcheck.graph.explore_s", self.explore_s, "s"),
            metric("modelcheck.graph.self_s", self.layer_graph, "s"),
            metric("modelcheck.graph.configs", self.configs, "count"),
            metric("modelcheck.graph.edges", self.edges, "count"),
            metric("modelcheck.graph.generated", self.generated, "count"),
            metric(
                "modelcheck.graph.dedup_hit_ratio",
                self.dedup_hit_ratio,
                "share",
            ),
            metric(
                "modelcheck.graph.symmetry_hits",
                self.symmetry_hits,
                "count",
            ),
            metric("modelcheck.graph.sleep_pruned", self.sleep_pruned, "count"),
            metric(
                "modelcheck.graph.bytes_per_config",
                self.bytes_per_config,
                "B",
            ),
            metric("modelcheck.graph.reverse_csr_s", self.reverse_csr_s, "s"),
            metric(
                "modelcheck.verdict.explore_us",
                self.verdict_explore_us,
                "us",
            ),
            metric(
                "modelcheck.verdict.configs_per_check",
                self.verdict_configs_per_check,
                "count",
            ),
            metric("modelcheck.valency.s", self.valency_s, "s"),
            metric("modelcheck.properties.s", self.properties_s, "s"),
            metric("modelcheck.spill.spilled_bytes", self.spilled_bytes, "B"),
            metric("modelcheck.spill.reloads", self.reloads, "count"),
            metric("modelcheck.spill.hot_hit_rate", self.hot_hit_rate, "share"),
            metric("modelcheck.spill.overhead", self.spill_overhead, "x"),
            metric("trace.overhead", self.trace_overhead, "share"),
            metric("layer.core.self_s", self.layer_core, "s"),
            metric("layer.core.share", share(self.layer_core), "share"),
            metric("layer.sim.system.self_s", self.layer_system, "s"),
            metric("layer.sim.system.share", share(self.layer_system), "share"),
            metric("layer.sim.intern.self_s", self.layer_intern, "s"),
            metric("layer.sim.intern.share", share(self.layer_intern), "share"),
            metric("layer.modelcheck.graph.self_s", self.layer_graph, "s"),
            metric(
                "layer.modelcheck.graph.share",
                share(self.layer_graph),
                "share",
            ),
            metric("layer.modelcheck.verdict.self_s", self.layer_verdict, "s"),
            metric(
                "layer.modelcheck.verdict.share",
                share(self.layer_verdict),
                "share",
            ),
            metric("layer.modelcheck.valency.self_s", self.layer_valency, "s"),
            metric(
                "layer.modelcheck.valency.share",
                share(self.layer_valency),
                "share",
            ),
            metric(
                "layer.modelcheck.properties.self_s",
                self.layer_properties,
                "s",
            ),
            metric(
                "layer.modelcheck.properties.share",
                share(self.layer_properties),
                "share",
            ),
            metric("layer.modelcheck.spill.self_s", self.layer_spill, "s"),
            metric(
                "layer.modelcheck.spill.share",
                share(self.layer_spill),
                "share",
            ),
            metric("layer.bench.self_s", self.layer_bench, "s"),
            metric("layer.bench.share", share(self.layer_bench), "share"),
        ]
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let forbidden = forbidden_env();
    if !forbidden.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set (they change shards, store, budget or timers)",
            forbidden.join(", ")
        );
        return ExitCode::from(2);
    }
    let setup = Setup::new(args.workload, args.seed);
    if args.setup_only {
        std::hint::black_box(&setup);
        println!("ready");
        return ExitCode::SUCCESS;
    }
    println!("provenance {}", provenance(&args, &setup));
    let (ok, tally, metrics, tracer) = if args.trace {
        run_traced(&args, &setup)
    } else {
        let (ok, tally, metrics) = run_timed(&args, &setup);
        (ok, tally, metrics, Tracer::new(false))
    };
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, tracer.to_json()) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
    }
    let correct = ok && tally.failed == 0 && tally.attempted > 0 && !metrics.is_empty();
    for m in &metrics {
        println!("metric {:<40} {:>18} {}", m.name, m.value, m.unit);
    }
    println!(
        "metric {:<40} {:>18} share",
        "failed_frac",
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

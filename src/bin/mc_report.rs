//! `mc-report` — read the model checker's `MC_LOG` event log.
//!
//! Std-only companion CLI to the append-only JSONL log the explorer writes
//! per run: one `start`, a `level` per BFS level, `heartbeat`s and one
//! `end`, every line tagged with its `run` id. Four subcommands:
//!
//! * `ledger <log>` — one block per finished run: its `end` joined to its
//!   `start` — identity (spec hash, git revision, wall time), options,
//!   outcome, a per-phase wall-time breakdown and spill stats.
//! * `tail <log>` — the latest `heartbeat` or `end` event (pass
//!   `--follow` to poll until the last run's `end`).
//! * `validate <log>` — per run: a `start`, then levels counting up from
//!   0 with node counts that never shrink, then one `end` whose
//!   `metrics.levels` counts the `level` events.
//! * `diff <a> <b>` — compare two `BENCH_modelcheck.json` files row by
//!   row (or the last `end` of two event logs) and report regression
//!   deltas; exits non-zero iff a deterministic graph fact regressed.
//!
//! An unterminated final line is an append in progress and is skipped.
//! Everything is parsed with the in-tree `subconsensus_sim::json` parser,
//! which the round-trip suite runs every hand-built emitter through.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use subconsensus_sim::json::JsonValue;

fn usage() -> ExitCode {
    eprintln!(
        "usage: mc-report <command> [args]\n\
         \n\
         commands (<log> is an MC_LOG event log):\n\
           ledger <log> [--last N]   render the finished runs\n\
           tail <log> [--follow]     show the latest heartbeat or end event\n\
           validate <log>            check every run's start/level/end sequence\n\
           diff <a> <b>              diff two BENCH_modelcheck.json files\n\
                                     (or the last run of two event logs)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => return usage(),
    };
    let result = match (cmd, rest) {
        ("ledger", [path]) => ledger(path, usize::MAX),
        ("ledger", [path, flag, n]) if flag == "--last" => match n.parse() {
            Ok(n) => ledger(path, n),
            Err(_) => return usage(),
        },
        ("tail", [path]) => tail(path, false),
        ("tail", [path, flag]) if flag == "--follow" => tail(path, true),
        ("validate", [path]) => read(path)
            .and_then(|text| validate(path, &text))
            .map(|summary| {
                println!("{summary}");
                ExitCode::SUCCESS
            }),
        ("diff", [a, b]) => diff(a, b),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("mc-report: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// The log's complete lines, parsed: event `i` is on line `i + 1`. An
/// unterminated final line is an append in progress and is skipped.
fn events(path: &str, text: &str) -> Result<Vec<JsonValue>, String> {
    let complete = text.rfind('\n').map_or("", |end| &text[..=end]);
    let parse = |(i, line)| JsonValue::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1));
    complete.lines().enumerate().map(parse).collect()
}

fn str_or<'a>(v: &'a JsonValue, key: &str, or: &'a str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).unwrap_or(or)
}

fn str_of<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    str_or(v, key, "")
}

fn flag(v: &JsonValue, key: &str) -> bool {
    v.get(key).and_then(JsonValue::as_bool).unwrap_or(false)
}

/// The level count of an `end` event's metrics: a number, or the length
/// of the level-record array logs written before the count carry (0 when
/// absent).
fn level_count(metrics: &JsonValue) -> u64 {
    match metrics.get("levels") {
        Some(JsonValue::Array(records)) => records.len() as u64,
        Some(count) => count.as_u64().unwrap_or(0),
        None => 0,
    }
}

/// Every `end` event in log order, paired with its run's `start` (if the
/// log holds it).
fn finished_runs(events: &[JsonValue]) -> Vec<(Option<&JsonValue>, &JsonValue)> {
    let mut starts: HashMap<&str, &JsonValue> = HashMap::new();
    let mut runs = Vec::new();
    for ev in events {
        match str_of(ev, "event") {
            "start" => {
                starts.insert(str_of(ev, "run"), ev);
            }
            "end" => runs.push((starts.get(str_of(ev, "run")).copied(), ev)),
            _ => {}
        }
    }
    runs
}

fn num(v: &JsonValue, key: &str) -> f64 {
    v.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

fn int(v: &JsonValue, key: &str) -> u64 {
    v.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

fn ms(ns: f64) -> String {
    format!("{:.2}ms", ns / 1e6)
}

// ---------------------------------------------------------------- ledger

fn ledger(path: &str, last: usize) -> Result<ExitCode, String> {
    let events = events(path, &read(path)?)?;
    let runs = finished_runs(&events);
    if runs.is_empty() {
        return Err(format!("{path}: no finished runs"));
    }
    let skip = runs.len().saturating_sub(last);
    for (i, (start, end)) in runs.iter().enumerate().skip(skip) {
        print!("{}", render_run(*start, end, i + 1));
    }
    println!(
        "{} run{} in {path}",
        runs.len(),
        if runs.len() == 1 { "" } else { "s" }
    );
    Ok(ExitCode::SUCCESS)
}

fn render_run(start: Option<&JsonValue>, end: &JsonValue, n: usize) -> String {
    let mut out = String::new();
    let spec = start.map_or("?", |s| str_of(s, "spec_hash"));
    let rev = start.map_or("?", |s| str_of(s, "git_revision"));
    let started = start.map_or(0, |s| int(s, "started_unix_ms"));
    let wall = int(end, "ended_unix_ms").saturating_sub(started);
    let _ = writeln!(
        out,
        "run {n} ({}): spec {spec}  rev {rev}  started {}.{:03} (unix)  wall {wall}ms",
        str_of(end, "run"),
        started / 1000,
        started % 1000
    );
    if let Some(opts) = start.and_then(|s| s.get("options")) {
        let budget = match opts.get("store_budget_bytes") {
            Some(JsonValue::Number(b)) => format!(", budget {b} B"),
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "  options: goal {}, max_configs {}, symmetry {}, por {}, store {}{budget}",
            str_or(opts, "goal", "?"),
            int(opts, "max_configs"),
            flag(opts, "symmetry"),
            flag(opts, "por"),
            str_or(opts, "store", "?"),
        );
    }
    if let Some(outcome) = end.get("outcome") {
        match str_of(outcome, "kind") {
            "verdict" => {
                if let Some(v) = outcome.get("verdict") {
                    let holds = v
                        .get("holds")
                        .and_then(JsonValue::as_bool)
                        .map_or("undecided".to_string(), |b| b.to_string());
                    let cause = v.get("cause").map_or("?", |c| str_or(c, "kind", "?"));
                    let _ = writeln!(
                        out,
                        "  outcome: verdict holds={holds} ({cause}), {} configs, \
                         {} terminals",
                        int(v, "configs"),
                        int(v, "terminals")
                    );
                }
            }
            "error" => {
                let _ = writeln!(out, "  outcome: error: {}", str_of(outcome, "error"));
            }
            _ => {
                let _ = writeln!(
                    out,
                    "  outcome: graph {} configs, {} edges, {} terminals{}",
                    int(outcome, "configs"),
                    int(outcome, "edges"),
                    int(outcome, "terminals"),
                    if flag(outcome, "truncated") {
                        " [TRUNCATED]"
                    } else {
                        ""
                    }
                );
            }
        }
    }
    if let Some(metrics) = end.get("metrics") {
        out.push_str(&render_metrics(metrics));
    }
    out
}

fn render_metrics(metrics: &JsonValue) -> String {
    let mut out = String::new();
    let _ = match metrics.get("truncation").filter(|t| !t.is_null()) {
        Some(t) => writeln!(
            out,
            "  truncation: {} ({})",
            str_or(t, "cause", "?"),
            int(t, "cap").max(int(t, "budget"))
        ),
        None => writeln!(out, "  truncation: none (complete)"),
    };
    // Render whichever `*_ns` phases the line carries, so ledgers written
    // under any phase schema stay readable.
    if let Some(phases) = metrics.get("phases") {
        let total = num(phases, "total_ns");
        let _ = writeln!(out, "  phase breakdown (total {}):", ms(total));
        for (key, v) in phases.as_object().unwrap_or_default() {
            let Some(name) = key.strip_suffix("_ns").filter(|&n| n != "total") else {
                continue;
            };
            let v = v.as_f64().unwrap_or(0.0);
            let share = if total > 0.0 {
                format!("{:5.1}%", 100.0 * v / total)
            } else {
                "    -".to_string()
            };
            let _ = writeln!(out, "    {name:<16} {:>12}  {share}", ms(v));
        }
    }
    if let Some(store) = metrics.get("store") {
        if !store.is_null() {
            let _ = writeln!(
                out,
                "  spill: {} B out, {} reloads ({} index reads), hot hit rate {:.2}",
                int(store, "spilled_bytes"),
                int(store, "reload_count"),
                int(store, "index_reads"),
                num(store, "hot_hit_rate")
            );
        }
    }
    let _ = writeln!(
        out,
        "  counters: {} configs, {} edges, {} generated ({} dedup), \
         {} expansions, {} levels, peak ≈ {} B",
        int(metrics, "configs"),
        int(metrics, "edges"),
        int(metrics, "generated"),
        int(metrics, "dedup_hits"),
        int(metrics, "expansions"),
        level_count(metrics),
        int(metrics, "peak_bytes")
    );
    out
}

// ------------------------------------------------------------------ tail

fn tail(path: &str, follow: bool) -> Result<ExitCode, String> {
    loop {
        let events = events(path, &read(path)?)?;
        let status = latest_status(&events);
        if let Some(line) = &status {
            println!("{line}");
        }
        // Done once the run of the last `start` has its `end`.
        let last_run = events
            .iter()
            .rfind(|ev| str_of(ev, "event") == "start")
            .map(|ev| str_of(ev, "run"));
        let done = finished_runs(&events)
            .iter()
            .any(|(_, end)| Some(str_of(end, "run")) == last_run);
        if !follow || done {
            return status
                .map(|_| ExitCode::SUCCESS)
                .ok_or_else(|| format!("{path}: no heartbeat or end event yet"));
        }
        std::thread::sleep(std::time::Duration::from_millis(500));
    }
}

/// The latest `heartbeat` or `end` event, rendered as one status line.
fn latest_status(events: &[JsonValue]) -> Option<String> {
    let ev = events
        .iter()
        .rfind(|ev| matches!(str_of(ev, "event"), "heartbeat" | "end"))?;
    let run = str_of(ev, "run");
    if let Some(m) = ev.get("metrics") {
        return Some(format!(
            "[done] run {run}: {} configs, {} edges in {} levels",
            int(m, "configs"),
            int(m, "edges"),
            level_count(m)
        ));
    }
    let eta = match ev.get("eta_secs").and_then(JsonValue::as_f64) {
        Some(eta) => format!(", eta ~{eta:.0}s"),
        None => String::new(),
    };
    Some(format!(
        "[running] run {run}: level {}, {} explored, {} frontier, \
         {:.0} configs/sec ({:.0} recent), bound remaining {}{eta}, {} B spilled",
        int(ev, "level"),
        int(ev, "explored"),
        int(ev, "frontier"),
        num(ev, "configs_per_sec"),
        num(ev, "recent_configs_per_sec"),
        int(ev, "bound_remaining"),
        int(ev, "spilled_bytes")
    ))
}

// -------------------------------------------------------------- validate

/// Checks every run of the log: a `start`, then `level` events counting up
/// from 0 whose node counts never shrink (and whose `workers`, where
/// logged, is at least 1), then one `end` whose `metrics.levels` counts
/// the `level` events; `heartbeat`s may fall anywhere in between. Returns
/// the one-line summary.
fn validate(path: &str, text: &str) -> Result<String, String> {
    // Per run: levels seen, the last level's node count, ended.
    let mut runs: HashMap<&str, (u64, u64, bool)> = HashMap::new();
    let (mut nlevels, mut nbeats) = (0u64, 0u64);
    let events = events(path, text)?;
    for (i, ev) in events.iter().enumerate() {
        let at = format!("{path}:{}", i + 1);
        let (kind, run) = (str_of(ev, "event"), str_of(ev, "run"));
        if kind == "start" {
            if runs.insert(run, (0, 0, false)).is_some() {
                return Err(format!("{at}: second start of run {run}"));
            }
            continue;
        }
        let (levels, last_nodes, ended) = runs
            .get_mut(run)
            .ok_or_else(|| format!("{at}: {kind} event of run {run}, which has no start"))?;
        if *ended {
            return Err(format!("{at}: {kind} event after the end of run {run}"));
        }
        match kind {
            "level" => {
                let keys = ["items", "new_nodes", "edges", "elapsed_ns"];
                if let Some(key) = keys
                    .iter()
                    .find(|k| ev.get(k).and_then(JsonValue::as_u64).is_none())
                {
                    return Err(format!("{at}: missing or non-integer key \"{key}\""));
                }
                if let Some(w) = ev.get("workers") {
                    if !w.as_u64().is_some_and(|w| w >= 1) {
                        return Err(format!("{at}: \"workers\" is not a positive integer"));
                    }
                }
                let (level, nodes) = (int(ev, "level"), int(ev, "nodes"));
                if ev.get("level").is_none() || level != *levels {
                    return Err(format!(
                        "{at}: run {run} level {level}, expected {levels} (levels count up from 0)"
                    ));
                }
                if ev.get("nodes").is_none() || nodes < *last_nodes {
                    return Err(format!("{at}: run {run} nodes {nodes} after {last_nodes}"));
                }
                (*levels, *last_nodes) = (level + 1, nodes);
                nlevels += 1;
            }
            "heartbeat" => nbeats += 1,
            "end" => {
                let recorded = ev.get("metrics").map_or(0, level_count);
                if recorded != *levels {
                    return Err(format!(
                        "{at}: run {run} ends with {recorded} levels in its metrics \
                         but logged {levels} level events"
                    ));
                }
                *ended = true;
            }
            other => return Err(format!("{at}: unknown event \"{other}\"")),
        }
    }
    if let Some((open, _)) = runs.iter().find(|(_, run)| !run.2) {
        return Err(format!("{path}: run {open} has no end"));
    }
    if runs.is_empty() {
        return Err(format!("{path}: no runs"));
    }
    Ok(format!(
        "ok: {} runs, {nlevels} level events, {nbeats} heartbeats",
        runs.len()
    ))
}

// ------------------------------------------------------------------ diff

/// A row identity within a bench file: every deterministic dimension of
/// the run (timing fields deliberately excluded).
fn row_key(row: &JsonValue) -> String {
    format!(
        "{} goal={} store={} sym={} por={}",
        str_or(row, "fixture", "?"),
        str_or(row, "goal", "full"),
        str_or(row, "store", "mem"),
        flag(row, "symmetry"),
        flag(row, "por"),
    )
}

fn diff(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let text_a = read(path_a)?;
    let text_b = read(path_b)?;
    let bench_a = JsonValue::parse(&text_a)
        .ok()
        .filter(|v| v.get("kernels").is_some());
    let bench_b = JsonValue::parse(&text_b)
        .ok()
        .filter(|v| v.get("kernels").is_some());
    match (bench_a, bench_b) {
        (Some(a), Some(b)) => diff_bench(&a, &b),
        _ => diff_logs(path_a, &text_a, path_b, &text_b),
    }
}

fn diff_bench(a: &JsonValue, b: &JsonValue) -> Result<ExitCode, String> {
    let rows = |v: &JsonValue| -> Vec<JsonValue> {
        v.get("kernels")
            .and_then(JsonValue::as_array)
            .map(<[JsonValue]>::to_vec)
            .unwrap_or_default()
    };
    let rows_a = rows(a);
    let rows_b = rows(b);
    let mut regressions = 0usize;
    let mut improvements = 0usize;
    let mut unchanged = 0usize;
    for row_a in &rows_a {
        let key = row_key(row_a);
        let Some(row_b) = rows_b.iter().find(|r| row_key(r) == key) else {
            println!("MISSING  {key}: row absent from the second file");
            regressions += 1;
            continue;
        };
        let mut row_regressed = false;
        let mut row_changed = false;
        // Grown graph facts are regressions; shrunken ones improvements.
        for fact in ["peak_configs", "edges", "approx_bytes_per_config"] {
            let (va, vb) = (int(row_a, fact), int(row_b, fact));
            if va != vb {
                row_changed = true;
                let dir = if vb > va { "REGRESS" } else { "improve" };
                println!("{dir:7}  {key}: {fact} {va} -> {vb}");
                row_regressed |= vb > va;
            }
        }
        let trunc = |r: &JsonValue| r.get("truncated").and_then(JsonValue::as_bool);
        if trunc(row_a) != trunc(row_b) {
            row_changed = true;
            let worse = trunc(row_b) == Some(true);
            println!(
                "{}  {key}: truncated {:?} -> {:?}",
                if worse { "REGRESS" } else { "improve" },
                trunc(row_a),
                trunc(row_b)
            );
            row_regressed |= worse;
        }
        // A flipped verdict is always a regression: the answer is supposed
        // to be deterministic.
        let holds = |r: &JsonValue| r.get("holds").map(JsonValue::as_bool);
        if holds(row_a) != holds(row_b) {
            row_changed = true;
            row_regressed = true;
            println!(
                "REGRESS  {key}: holds {:?} -> {:?}",
                holds(row_a).flatten(),
                holds(row_b).flatten()
            );
        }
        // Timing: informational only (machine-dependent, never a gate).
        let (ta, tb) = (num(row_a, "median_ns"), num(row_b, "median_ns"));
        if ta > 0.0 && tb > 0.0 && (tb / ta > 1.25 || ta / tb > 1.25) {
            println!(
                "  note   {key}: median {} -> {} ({:+.0}%)",
                ms(ta),
                ms(tb),
                100.0 * (tb - ta) / ta
            );
        }
        if row_regressed {
            regressions += 1;
        } else if row_changed {
            improvements += 1;
        } else {
            unchanged += 1;
        }
    }
    for row_b in &rows_b {
        if !rows_a.iter().any(|r| row_key(r) == row_key(row_b)) {
            println!("  new    {}: row only in the second file", row_key(row_b));
        }
    }
    println!(
        "diff: {} rows compared, {unchanged} unchanged, {improvements} improved, \
         {regressions} regressed",
        rows_a.len()
    );
    // Exit 1 iff something regressed.
    Ok(ExitCode::from(u8::from(regressions > 0)))
}

/// Event-log mode: compare the last finished run of each log (typically
/// two runs of the same spec) on the deterministic graph facts.
fn diff_logs(path_a: &str, text_a: &str, path_b: &str, text_b: &str) -> Result<ExitCode, String> {
    let last = |path: &str, text: &str| -> Result<(String, JsonValue), String> {
        let events = events(path, text)?;
        let (start, end) = finished_runs(&events)
            .pop()
            .ok_or_else(|| format!("{path}: no finished runs"))?;
        let hash = start.map_or("?", |s| str_of(s, "spec_hash")).to_string();
        Ok((hash, end.get("metrics").cloned().unwrap_or(JsonValue::Null)))
    };
    let (hash_a, a) = last(path_a, text_a)?;
    let (hash_b, b) = last(path_b, text_b)?;
    if hash_a != hash_b {
        println!(
            "note: different specs ({hash_a} vs {hash_b}) — facts are not comparable as a regression"
        );
    }
    let mut regressions = 0usize;
    for fact in ["configs", "edges", "peak_bytes"] {
        let (va, vb) = (int(&a, fact), int(&b, fact));
        if va != vb {
            let dir = if vb > va { "REGRESS" } else { "improve" };
            println!("{dir:7}  {fact}: {va} -> {vb}");
            regressions += usize::from(vb > va && hash_a == hash_b);
        } else {
            println!("   same  {fact}: {va}");
        }
    }
    let truncated = |m: &JsonValue| m.get("truncation").is_some_and(|t| !t.is_null());
    if !truncated(&a) && truncated(&b) {
        println!("REGRESS  run now truncates");
        regressions += 1;
    }
    println!("diff: {regressions} regressions");
    // Exit 1 iff something regressed.
    Ok(ExitCode::from(u8::from(regressions > 0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders one `end` event's phase breakdown.
    fn phases_of(line: &str) -> String {
        render_run(None, &JsonValue::parse(line).expect("end event parses"), 1)
    }

    #[test]
    fn ledger_renders_every_phase_schema() {
        // Written before per-level phases: per-successor slots, untimed.
        let old = phases_of(
            "{\"event\": \"end\", \"run\": \"1.0\", \"metrics\": {\"configs\": 4, \
             \"timed\": false, \"phases\": {\"expand_ns\": 0, \"canonicalize_ns\": 0, \
             \"por_ns\": 0, \"dedup_ns\": 0, \"merge_ns\": 0, \"freeze_ns\": 0, \
             \"freeze_calls\": 0, \"reverse_csr_ns\": 0, \"reverse_csr_calls\": 0, \
             \"other_ns\": 0, \"total_ns\": 0}}}",
        );
        for name in ["canonicalize", "dedup", "reverse_csr", "other"] {
            assert!(
                old.contains(&format!("    {name} ")),
                "{name} missing:\n{old}"
            );
        }
        assert!(old.contains("(total 0.00ms)"), "{old}");
        // Written after: per-level phases, always on.
        let new = phases_of(
            "{\"event\": \"end\", \"run\": \"1.1\", \"metrics\": {\"configs\": 4, \
             \"phases\": {\"setup_ns\": 1000000, \"store_ns\": 0, \
             \"expand_ns\": 2000000, \"merge_ns\": 1000000, \"freeze_ns\": 0, \
             \"freeze_calls\": 1, \"other_ns\": 0, \"total_ns\": 4000000}}}",
        );
        assert!(new.contains("(total 4.00ms)"), "{new}");
        assert!(new.contains("    setup "), "{new}");
        assert!(new.contains(" 50.0%"), "expand share:\n{new}");
        assert!(!new.contains("canonicalize"), "{new}");
        assert!(
            !new.contains("freeze_calls"),
            "counts are not phases:\n{new}"
        );
    }

    /// Two interleaved runs, as two processes appending to one log write
    /// them, each well formed. Run 1.0 is in the older schema (no
    /// `workers` on its levels, its end carrying the level records), run
    /// 2.0 in the current one (level `workers`, an end with the count).
    const GOOD: &str = r#"{"event": "start", "run": "1.0", "spec_hash": "00000000000000ff"}
{"event": "start", "run": "2.0", "spec_hash": "00000000000000ff"}
{"event": "level", "run": "1.0", "level": 0, "items": 1, "new_nodes": 1, "nodes": 2, "edges": 1, "elapsed_ns": 5}
{"event": "level", "run": "2.0", "level": 0, "items": 1, "workers": 1, "new_nodes": 1, "nodes": 2, "edges": 1, "elapsed_ns": 5}
{"event": "level", "run": "1.0", "level": 1, "items": 1, "new_nodes": 1, "nodes": 3, "edges": 2, "elapsed_ns": 5}
{"event": "heartbeat", "run": "1.0", "level": 1, "explored": 3}
{"event": "end", "run": "1.0", "metrics": {"configs": 3, "edges": 2, "levels": [{}, {}]}}
{"event": "level", "run": "2.0", "level": 1, "items": 40, "workers": 2, "new_nodes": 0, "nodes": 2, "edges": 2, "elapsed_ns": 5}
{"event": "end", "run": "2.0", "metrics": {"configs": 2, "edges": 2, "levels": 2}}
"#;

    /// `GOOD` without its line `skip` (0-based).
    fn without(skip: usize) -> String {
        GOOD.lines()
            .enumerate()
            .filter(|&(i, _)| i != skip)
            .map(|(_, l)| format!("{l}\n"))
            .collect()
    }

    #[test]
    fn validate_accepts_interleaved_runs() {
        assert_eq!(
            validate("log", GOOD),
            Ok("ok: 2 runs, 4 level events, 1 heartbeats".to_string())
        );
    }

    #[test]
    fn validate_rejects_a_removed_level_line() {
        for (i, line) in GOOD.lines().enumerate() {
            if line.contains("\"event\": \"level\"") {
                assert!(
                    validate("log", &without(i)).is_err(),
                    "accepted without {line}"
                );
            }
        }
    }

    #[test]
    fn validate_checks_level_workers_and_end_counts() {
        for (from, to) in [
            ("\"workers\": 2", "\"workers\": 0"),
            ("\"levels\": 2}", "\"levels\": 3}"),
            ("\"levels\": [{}, {}]", "\"levels\": [{}]"),
        ] {
            let bad = GOOD.replace(from, to);
            assert_ne!(bad, GOOD);
            assert!(validate("log", &bad).is_err(), "accepted {to}");
        }
    }

    #[test]
    fn validate_rejects_an_end_without_start() {
        let err = validate("log", &without(1)).unwrap_err();
        assert!(
            err.contains("log:3: level event of run 2.0, which has no start"),
            "{err}"
        );
        let orphan = format!("{GOOD}{{\"event\": \"end\", \"run\": \"3.0\"}}\n");
        let err = validate("log", &orphan).unwrap_err();
        assert!(
            err.contains("end event of run 3.0, which has no start"),
            "{err}"
        );
    }

    #[test]
    fn tail_ignores_an_unterminated_final_line() {
        // A poller reading mid-append sees a partial last line.
        let mut text = format!("{GOOD}{{\"event\": \"heartbeat\", \"run\": \"2.0\", \"lev");
        let parsed = events("log", &text).expect("the partial line is skipped");
        let status = latest_status(&parsed).expect("a finished run");
        assert_eq!(status, "[done] run 2.0: 2 configs, 2 edges in 2 levels");
        // Once the line is complete, it is the latest status.
        text.push_str("el\": 1, \"explored\": 7}\n");
        let status = latest_status(&events("log", &text).unwrap()).unwrap();
        assert!(
            status.starts_with("[running] run 2.0: level 1, 7 explored"),
            "{status}"
        );
    }
}

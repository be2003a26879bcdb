//! Machine-checked impossibility: enumerate EVERY bounded protocol.
//!
//! For two processes with binary inputs, enumerate all decision-tree
//! protocols of bounded depth over one shared object and exhaustively
//! model-check each against binary consensus. When the search returns no
//! witness, that is a *theorem* for the class:
//!
//! * depth 1 over a `(3,2)`-set-consensus object — impossible (10 trees);
//! * depth 1 over `WRN₃` — impossible (50 trees): the kernel of "WRN is
//!   sub-consensus";
//! * depth 2 over `(3,2)`-SC — impossible (202 trees, ~82k model checks;
//!   pass `--deep` and use `--release`, takes ~10 s);
//! * sanity: over a consensus object a witness IS found.
//!
//! The run closes with a telemetry demo: one instrumented exploration with
//! a per-level progress heartbeat and the final [`ExploreMetrics`] phase
//! breakdown — the same counters every exploration carries, which
//! `MC_PROGRESS=1` reports on stderr and `MC_LOG=<path>` appends to one
//! JSONL event log (including all of the searches above).
//!
//! Run with: `cargo run --release --example impossibility_search [--deep]`

use std::sync::Arc;

use subconsensus::core::{
    search_binary_consensus, set_consensus_32_class, wrn_class, GroupedObject, SearchOutcome,
};
use subconsensus::modelcheck::{ExploreOptions, Recorder, StateGraph};
use subconsensus::objects::{Consensus, SetConsensus};
use subconsensus::protocols::ProposeDecide;
use subconsensus::sim::{Protocol, SystemBuilder, Value};
use subconsensus::wrn::Wrn;

fn report(label: &str, out: &SearchOutcome) {
    match out.witness {
        Some(w) => println!(
            "   {label}: SOLVABLE (witness trees {w:?}; {} trees/role, {} checks)",
            out.trees, out.checks
        ),
        None => println!(
            "   {label}: IMPOSSIBLE — no protocol in the class solves binary consensus \
             ({} trees/role, {} exhaustive model checks)",
            out.trees, out.checks
        ),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let deep = std::env::args().any(|a| a == "--deep");
    println!("── bounded-exhaustive binary-consensus search (2 processes) ──\n");

    let out = search_binary_consensus(
        || Box::new(Consensus::unbounded()),
        &set_consensus_32_class(1),
    )?;
    report("consensus object, depth ≤ 1 (sanity)", &out);
    assert!(out.witness.is_some());

    let out = search_binary_consensus(
        || Box::new(SetConsensus::new(3, 2).expect("valid params")),
        &set_consensus_32_class(1),
    )?;
    report("(3,2)-set-consensus object, depth ≤ 1", &out);
    assert!(out.witness.is_none());

    let out = search_binary_consensus(|| Box::new(Wrn::new(3)), &wrn_class(3, 1))?;
    report("WRN₃ object, depth ≤ 1", &out);
    assert!(out.witness.is_none());

    if deep {
        println!("\n   running the deep search (depth ≤ 2 over (3,2)-SC)…");
        let t0 = std::time::Instant::now();
        let out = search_binary_consensus(
            || Box::new(SetConsensus::new(3, 2).expect("valid params")),
            &set_consensus_32_class(2),
        )?;
        report("(3,2)-set-consensus object, depth ≤ 2", &out);
        println!("   ({:?})", t0.elapsed());
        assert!(out.witness.is_none());
    } else {
        println!("\n   (pass --deep for the depth-2 search: 202 trees, ~82k checks, ~10 s)");
    }

    println!(
        "\nEvery IMPOSSIBLE line is a machine-checked theorem for its protocol class —\n\
         the executable kernel of the paper lineage's sub-consensus impossibilities."
    );

    // ── exploration telemetry demo ──────────────────────────────────────
    // One exploration of the E1 fixture (3 processes through a
    // deterministic O_{2,1}) with a heartbeat per expansion, then the phase
    // and counter breakdown every exploration carries. Every exploration
    // above accepts the same sinks via `MC_PROGRESS=1` / `MC_LOG=<path>`,
    // and so does this one: its heartbeats land in the event log too.
    println!("\n── exploration telemetry (E1 fixture, 3 procs over O_{{2,1}}) ──\n");
    let mut b = SystemBuilder::new();
    let obj = b.add_object(GroupedObject::for_level(2, 1));
    let p: Arc<dyn Protocol> = Arc::new(ProposeDecide::new(obj));
    b.add_processes(p, (1..=3).map(Value::Int));
    let spec = b.build();
    let rec = Recorder::from_env().with_progress(1, |r| println!("   heartbeat: {r}"));
    let g = StateGraph::explore_with(&spec, &ExploreOptions::default().with_por(true), &rec)?;
    println!("\n{}\n", g.metrics());
    println!(
        "   (set MC_PROGRESS=1 for a stderr heartbeat and MC_LOG=<path> for a\n\
         \x20   JSONL event log of every exploration in this workspace)"
    );
    Ok(())
}

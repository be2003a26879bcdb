//! Shared helpers of the integration suites: the reference explorer and
//! the comparisons of model-checker graphs against it.

// Each test crate includes this module and uses a different subset.
#![allow(dead_code)]

pub mod reference;

use std::collections::{BTreeSet, HashSet};

use subconsensus_modelcheck::{
    check_nonblocking, check_wait_freedom, max_distinct_decisions, ExploreOptions, StateGraph,
    Valency, WaitFreedom,
};
use subconsensus_sim::{Config, Pid, ProcStatus, SystemSpec, Value};

use reference::RefGraph;

/// The reference graph for the bound and symmetry setting of `opts` (its
/// reductions and store do not apply to the reference).
pub fn reference_for(spec: &SystemSpec, opts: &ExploreOptions) -> RefGraph {
    reference::explore(spec, opts.symmetry, opts.max_configs)
}

/// `g` is the reference graph node for node: same configurations in the
/// same order, same edges, same terminals, same truncation.
pub fn assert_matches_reference(g: &StateGraph, r: &RefGraph, label: &str) {
    assert_eq!(g.len(), r.configs.len(), "{label}: node count");
    for (i, config) in r.configs.iter().enumerate() {
        assert_eq!(&g.config(i), config, "{label}: node {i}");
        let edges: Vec<(Pid, usize)> = g.edges(i).iter().map(|e| (e.pid, e.target())).collect();
        assert_eq!(edges, r.edges[i], "{label}: edges of node {i}");
    }
    assert_eq!(g.terminals(), r.terminals, "{label}: terminals");
    assert_eq!(g.is_truncated(), r.truncated, "{label}: truncation");
}

/// The wait-freedom verdict of the reference graph: a cycle diverges;
/// otherwise every terminal process decided, some hung, or some is stuck.
pub fn reference_wait_freedom(r: &RefGraph) -> WaitFreedom {
    let statuses: Vec<&ProcStatus> = r
        .terminals
        .iter()
        .flat_map(|&t| {
            let c = &r.configs[t];
            (0..c.nprocs()).map(move |p| &c.proc_state(Pid::new(p)).status)
        })
        .collect();
    if r.has_cycle() {
        WaitFreedom::Diverges
    } else if !r.terminals.is_empty()
        && statuses.iter().all(|s| matches!(s, ProcStatus::Decided(_)))
    {
        WaitFreedom::WaitFree
    } else if statuses.iter().any(|s| matches!(s, ProcStatus::Hung)) {
        WaitFreedom::Hangs
    } else {
        WaitFreedom::Stuck
    }
}

/// A partial-order-reduced `g` reaches exactly the reference's terminal
/// configurations and gives the same verdicts: wait-freedom,
/// non-blocking, the agreement bound and the root valence.
pub fn assert_reduction_matches_reference(g: &StateGraph, r: &RefGraph, label: &str) {
    assert!(g.is_por_reduced(), "{label}: not a reduced graph");
    let terminals: HashSet<Config> = g.terminals().iter().map(|&t| g.config(t)).collect();
    assert_eq!(
        terminals.len(),
        g.terminals().len(),
        "{label}: duplicate terminals"
    );
    assert_eq!(
        terminals,
        r.terminal_configs(),
        "{label}: terminal configurations"
    );

    assert_eq!(
        check_wait_freedom(g),
        reference_wait_freedom(r),
        "{label}: wait-freedom"
    );
    assert_eq!(
        check_nonblocking(g),
        r.nonblocking(),
        "{label}: non-blocking"
    );

    let decided: Vec<Vec<Value>> = r
        .terminals
        .iter()
        .map(|&t| r.configs[t].decided_values())
        .collect();
    let max_distinct = decided.iter().map(Vec::len).max().unwrap_or(0);
    assert_eq!(
        max_distinct_decisions(g),
        max_distinct,
        "{label}: max distinct decisions"
    );
    let root_valence: BTreeSet<Value> = decided.into_iter().flatten().collect();
    assert_eq!(
        Valency::compute(g).valence(0),
        &root_valence,
        "{label}: initial valence"
    );
}

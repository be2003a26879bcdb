//! Reference explorer: the plainest breadth-first search over deep
//! [`Config`]s, used by the test suites as an oracle for the model checker.
//!
//! It shares no code with the explorer in `subconsensus-modelcheck`: no
//! interning, fingerprint index, partial-order reduction, spill or level
//! split.
//! Nodes live in a `HashMap<Config, usize>` and are numbered in FIFO
//! discovery order, successors come from [`SystemSpec::successors`] in pid
//! order, and the symmetry quotient is [`SystemSpec::canonicalize_config_perm`]
//! plus a `(pid, target)` sort and dedup of each node's edges. That is the
//! graph the model checker documents, so its plain and symmetry runs must
//! match this one node for node.

// Each including test crate uses a different subset of the helpers.
#![allow(dead_code)]

use std::collections::{BTreeSet, HashMap, HashSet};

use subconsensus_sim::{Config, Pid, SystemSpec, Value};

/// A reachable configuration graph built by [`explore`].
pub struct RefGraph {
    /// Node `i`'s configuration; node 0 is the initial one.
    pub configs: Vec<Config>,
    /// Node `i`'s outgoing edges as `(stepping pid, target node)`.
    pub edges: Vec<Vec<(Pid, usize)>>,
    /// Nodes with no enabled process, ascending.
    pub terminals: Vec<usize>,
    /// Whether some successor was dropped at the `max_configs` bound.
    pub truncated: bool,
}

/// Explores `spec` breadth-first from its initial configuration, keeping
/// at most `max_configs` nodes (an edge to a configuration past the bound
/// is dropped and the graph marked truncated). With `symmetry`, every
/// configuration is replaced by its canonical orbit representative; like
/// the model checker, a spec whose symmetry groups are all singletons is
/// explored plainly.
///
/// # Panics
///
/// Panics if stepping the spec fails.
pub fn explore(spec: &SystemSpec, symmetry: bool, max_configs: usize) -> RefGraph {
    let symmetry = symmetry && !spec.symmetry_groups().is_trivial();
    let canon = |c: Config| {
        if symmetry {
            spec.canonicalize_config_perm(c).0
        } else {
            c
        }
    };
    let init = canon(spec.initial_config());
    let mut ids: HashMap<Config, usize> = HashMap::from([(init.clone(), 0)]);
    let mut g = RefGraph {
        configs: vec![init],
        edges: Vec::new(),
        terminals: Vec::new(),
        truncated: false,
    };
    // `configs` doubles as the FIFO queue: node `i` is expanded i-th.
    let mut i = 0;
    while i < g.configs.len() {
        let config = g.configs[i].clone();
        let mut out = Vec::new();
        for pid in config.enabled() {
            for (next, _) in spec.successors(&config, pid).expect("reference step") {
                let next = canon(next);
                let to = match ids.get(&next) {
                    Some(&j) => j,
                    None if g.configs.len() >= max_configs => {
                        g.truncated = true;
                        continue;
                    }
                    None => {
                        ids.insert(next.clone(), g.configs.len());
                        g.configs.push(next);
                        g.configs.len() - 1
                    }
                };
                out.push((pid, to));
            }
        }
        if config.is_final() {
            g.terminals.push(i);
        }
        if symmetry {
            out.sort_unstable();
            out.dedup();
        }
        g.edges.push(out);
        i += 1;
    }
    g
}

impl RefGraph {
    /// The distinct terminal configurations.
    pub fn terminal_configs(&self) -> HashSet<Config> {
        self.terminals
            .iter()
            .map(|&t| self.configs[t].clone())
            .collect()
    }

    /// Whether some node lies on a directed cycle (recursive three-color
    /// DFS; reference graphs are small).
    pub fn has_cycle(&self) -> bool {
        fn visit(g: &RefGraph, v: usize, color: &mut [u8]) -> bool {
            color[v] = 1;
            for &(_, w) in &g.edges[v] {
                if color[w] == 1 || (color[w] == 0 && visit(g, w, color)) {
                    return true;
                }
            }
            color[v] = 2;
            false
        }
        let mut color = vec![0u8; self.configs.len()];
        (0..self.configs.len()).any(|v| color[v] == 0 && visit(self, v, &mut color))
    }

    /// Each node's valence: the values decided in the terminals it can
    /// reach (fixpoint over the forward edges).
    pub fn valences(&self) -> Vec<BTreeSet<Value>> {
        let mut sets = vec![BTreeSet::new(); self.configs.len()];
        for &t in &self.terminals {
            sets[t] = self.configs[t].decided_values().into_iter().collect();
        }
        let mut changed = true;
        while changed {
            changed = false;
            for v in (0..self.configs.len()).rev() {
                for &(_, w) in &self.edges[v] {
                    if !sets[w].is_subset(&sets[v]) {
                        let reached = sets[w].clone();
                        sets[v].extend(reached);
                        changed = true;
                    }
                }
            }
        }
        sets
    }

    /// Whether every node can reach a terminal (fixpoint over the forward
    /// edges).
    pub fn nonblocking(&self) -> bool {
        let mut can_finish: Vec<bool> = self.configs.iter().map(Config::is_final).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for v in 0..self.configs.len() {
                if !can_finish[v] && self.edges[v].iter().any(|&(_, w)| can_finish[w]) {
                    can_finish[v] = true;
                    changed = true;
                }
            }
        }
        can_finish.into_iter().all(|b| b)
    }
}

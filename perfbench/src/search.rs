//! A replica of the per-check loop of `core::search_binary_consensus_with`.
//!
//! The search returns only its verdict and check count. Its explored
//! configurations and the split of each check into spec build and verdict
//! exploration are measured by re-running the same checks here: the same
//! tree enumeration, the same two-process specs, the same verdict query and
//! options, through the same public `sim` and `modelcheck` calls.

use std::sync::Arc;
use std::time::Instant;

use subconsensus_core::ProtocolClass;
use subconsensus_modelcheck::{ExploreGoal, ExploreOptions, StateGraph, VerdictQuery};
use subconsensus_sim::{
    Action, ObjId, ObjectSpec, ProcCtx, Protocol, ProtocolError, SystemBuilder, Value,
};

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tree {
    Decide(bool),
    Invoke { op: usize, children: Vec<Tree> },
}

fn enumerate_trees(class: &ProtocolClass, depth: usize) -> Vec<Tree> {
    let mut trees = vec![Tree::Decide(false), Tree::Decide(true)];
    if depth == 0 {
        return trees;
    }
    let subtrees = enumerate_trees(class, depth - 1);
    let r = class.responses.len();
    for op in 0..class.ops.len() {
        // Every combination of children, odometer-style.
        let mut indices = vec![0usize; r];
        'combos: loop {
            trees.push(Tree::Invoke {
                op,
                children: indices.iter().map(|&i| subtrees[i].clone()).collect(),
            });
            let mut pos = 0;
            loop {
                if pos == r {
                    break 'combos;
                }
                indices[pos] += 1;
                if indices[pos] < subtrees.len() {
                    break;
                }
                indices[pos] = 0;
                pos += 1;
            }
        }
    }
    trees
}

#[derive(Debug)]
struct TreeProtocol {
    obj: ObjId,
    class: Arc<ProtocolClass>,
    tree: Arc<Tree>,
}

impl Protocol for TreeProtocol {
    fn start(&self, _ctx: &ProcCtx) -> Value {
        Value::tup([])
    }

    fn step(
        &self,
        _ctx: &ProcCtx,
        local: &Value,
        resp: Option<&Value>,
    ) -> Result<Action, ProtocolError> {
        let mut path: Vec<usize> = local
            .as_tup()
            .ok_or_else(|| ProtocolError::new("tree: bad local"))?
            .iter()
            .map(|v| {
                v.as_index()
                    .ok_or_else(|| ProtocolError::new("tree: bad path"))
            })
            .collect::<Result<_, _>>()?;
        if let Some(r) = resp {
            let class_idx = self
                .class
                .responses
                .iter()
                .position(|c| c == r)
                .ok_or_else(|| ProtocolError::new(format!("tree: unclassified response {r}")))?;
            path.push(class_idx);
        }
        let mut node: &Tree = &self.tree;
        for &branch in &path {
            match node {
                Tree::Invoke { children, .. } => {
                    node = children
                        .get(branch)
                        .ok_or_else(|| ProtocolError::new("tree: branch out of range"))?;
                }
                Tree::Decide(_) => return Err(ProtocolError::new("tree: walked past a decision")),
            }
        }
        match node {
            Tree::Decide(b) => Ok(Action::Decide(Value::Int(i64::from(*b)))),
            Tree::Invoke { op, .. } => Ok(Action::Invoke {
                local: Value::tup(path.into_iter().map(Value::from)),
                obj: self.obj,
                op: self.class.ops[*op].clone(),
            }),
        }
    }

    fn pid_symmetric(&self) -> bool {
        true
    }

    fn obj_footprint(&self, _ctx: &ProcCtx) -> Option<Vec<ObjId>> {
        Some(vec![self.obj])
    }
}

/// Totals over every check of one replayed search.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replica {
    pub trees: usize,
    pub checks: usize,
    /// Configurations explored, summed over every check's verdict run.
    pub configs: usize,
    /// Time in `SystemBuilder::build`, summed (timed replicas only).
    pub build_ns: u64,
    /// Time in the verdict-goal `StateGraph::explore`, summed (timed
    /// replicas only).
    pub explore_ns: u64,
}

/// Replays every check of the search; with `timed`, also times each
/// check's spec build and verdict exploration.
pub fn replay_search(
    make_object: impl Fn() -> Box<dyn ObjectSpec>,
    class: &ProtocolClass,
    opts: &ExploreOptions,
    timed: bool,
) -> Replica {
    let class = Arc::new(class.clone());
    let trees: Vec<Arc<Tree>> = enumerate_trees(&class, class.max_depth)
        .into_iter()
        .map(Arc::new)
        .collect();
    let t = trees.len();
    let mut out = Replica {
        trees: t,
        ..Replica::default()
    };
    for (x, y) in [(false, false), (false, true), (true, true)] {
        let valid: Vec<Value> = if x == y {
            vec![Value::Int(i64::from(x))]
        } else {
            vec![Value::Int(0), Value::Int(1)]
        };
        for a in 0..t {
            for b in 0..t {
                if x == y && b < a {
                    continue;
                }
                out.checks += 1;
                let mut builder = SystemBuilder::new();
                let obj = builder.add_boxed_object(make_object());
                let p0: Arc<dyn Protocol> = Arc::new(TreeProtocol {
                    obj,
                    class: Arc::clone(&class),
                    tree: Arc::clone(&trees[a]),
                });
                let p1: Arc<dyn Protocol> = if a == b {
                    Arc::clone(&p0)
                } else {
                    Arc::new(TreeProtocol {
                        obj,
                        class: Arc::clone(&class),
                        tree: Arc::clone(&trees[b]),
                    })
                };
                builder.add_process(p0, Value::Int(i64::from(x)));
                builder.add_process(p1, Value::Int(i64::from(y)));
                let t0 = timed.then(Instant::now);
                let spec = builder.build();
                if let Some(t0) = t0 {
                    out.build_ns += t0.elapsed().as_nanos() as u64;
                }
                let goal = ExploreGoal::Verdict(
                    VerdictQuery::new()
                        .require_wait_freedom()
                        .require_max_distinct(1)
                        .require_valid_values(valid.clone()),
                );
                let opts = opts.clone().with_goal(goal);
                let t0 = timed.then(Instant::now);
                let graph = StateGraph::explore(&spec, &opts);
                if let Some(t0) = t0 {
                    out.explore_ns += t0.elapsed().as_nanos() as u64;
                }
                // A tree that misuses the object errors out and simply
                // does not solve consensus, as in the search itself.
                if let Some(verdict) = graph.as_ref().ok().and_then(StateGraph::verdict) {
                    out.configs += verdict.configs;
                }
            }
        }
    }
    out
}

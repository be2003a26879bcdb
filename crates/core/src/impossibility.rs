//! Bounded-exhaustive impossibility: enumerate *every* protocol in a
//! bounded class and model-check each one.
//!
//! The paper's negative results quantify over all algorithms, which no
//! finite exploration of a *single* protocol can establish. This module
//! closes a slice of that gap mechanically: for two processes with binary
//! inputs, it enumerates **all** decision-tree protocols of bounded depth
//! over a given object class, and exhaustively model-checks every protocol
//! assignment against binary consensus. A `None` witness is a theorem:
//!
//! > no 2-process protocol in which each process performs at most `d`
//! > operations from the given op menu on one shared object solves binary
//! > consensus.
//!
//! Applied to the `(3, 2)`-set-consensus object and to `WRN₃`, this is the
//! machine-checked kernel of "set consensus / WRN cannot reach
//! 2-consensus" (Theorem 41's negative direction, the follow-up's Lemma
//! 38) for the smallest protocol classes.
//!
//! Protocols using additional registers or deeper trees remain covered
//! only by the hand proofs — stated here to keep the reproduction honest.

use std::collections::HashMap;
use std::sync::Arc;

use subconsensus_modelcheck::{ExploreGoal, ExploreOptions, StateGraph, VerdictQuery};
use subconsensus_sim::{
    Action, ObjId, ObjectSpec, Op, ProcCtx, Protocol, ProtocolError, SimError, SystemBuilder, Value,
};

/// The protocol class: a menu of operations, the possible response values
/// (classes) of those operations, and a depth bound.
#[derive(Clone, Debug)]
pub struct ProtocolClass {
    /// The operations a protocol may invoke (all on the single shared
    /// object).
    pub ops: Vec<Op>,
    /// The exhaustive list of response values operations may produce.
    pub responses: Vec<Value>,
    /// Maximum number of operations before a protocol must decide.
    pub max_depth: usize,
}

/// A decision-tree protocol: decide a binary value, or invoke op `op` and
/// branch on the response class.
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
    for (op_idx, _op) in class.ops.iter().enumerate() {
        // All combinations of children: |subtrees|^r, odometer-style.
        let mut indices = vec![0usize; r];
        'combos: loop {
            trees.push(Tree::Invoke {
                op: op_idx,
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

/// Number of trees of depth ≤ `depth` in `class` (sanity/reporting).
pub fn tree_count(class: &ProtocolClass, depth: usize) -> usize {
    if depth == 0 {
        return 2;
    }
    let sub = tree_count(class, depth - 1);
    2 + class.ops.len() * sub.pow(class.responses.len() as u32)
}

/// One enumerated tree, runnable as a simulator protocol.
#[derive(Debug)]
struct TreeProtocol {
    obj: ObjId,
    class: Arc<ProtocolClass>,
    tree: Arc<Tree>,
}

impl Protocol for TreeProtocol {
    fn start(&self, _ctx: &ProcCtx) -> Value {
        Value::tup([]) // the list of response-class indices taken so far
    }

    fn step(
        &self,
        _ctx: &ProcCtx,
        local: &Value,
        resp: Option<&Value>,
    ) -> Result<Action, ProtocolError> {
        // Re-walk the tree along the recorded path, extended by the fresh
        // response.
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

    // A decision tree never consults `ctx` at all, so two processes running
    // the same tree with the same input are interchangeable.
    fn pid_symmetric(&self) -> bool {
        true
    }

    // Every invocation of every tree targets the single shared object.
    fn obj_footprint(&self, _ctx: &ProcCtx) -> Option<Vec<ObjId>> {
        Some(vec![self.obj])
    }
}

/// A witness that binary consensus *is* solvable in the class: the four
/// tree indices `(p0_input0, p0_input1, p1_input0, p1_input1)`.
pub type SolvabilityWitness = (usize, usize, usize, usize);

/// The outcome of the bounded-exhaustive search.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// A solving protocol, if one exists in the class.
    pub witness: Option<SolvabilityWitness>,
    /// Number of trees per (process, input) role.
    pub trees: usize,
    /// Number of (tree pair, input assignment) model-checks performed.
    pub checks: usize,
}

/// Exhaustively decides whether *any* protocol in `class` solves binary
/// consensus for two processes over one object produced by `make_object`.
///
/// A protocol assigns each (process, input) role a decision tree; the
/// search exploits the symmetry `correct(x, y, a, b) = correct(y, x, b, a)`
/// and checks every required input assignment (0,0), (0,1), (1,0), (1,1)
/// by exhaustive model checking (including all object nondeterminism).
///
/// # Errors
///
/// Propagates simulator errors raised during exploration.
pub fn search_binary_consensus<F>(
    make_object: F,
    class: &ProtocolClass,
) -> Result<SearchOutcome, SimError>
where
    F: Fn() -> Box<dyn ObjectSpec>,
{
    // Partial-order reduction is on by default: every per-pair check only
    // consumes terminal verdicts (wait-freedom + decision sets), which POR
    // preserves, and deciding processes collapse to singleton ample sets.
    search_binary_consensus_with(
        make_object,
        class,
        &ExploreOptions::with_max_configs(200_000).with_por(true),
    )
}

/// Like [`search_binary_consensus`], but with explicit exploration
/// options — notably `symmetry`, which quotients the interleavings of the
/// two processes whenever a check runs the same tree on both with equal
/// inputs (the diagonal of every `x == y` matrix). Each per-pair check
/// runs on the calling thread: its graphs are a few dozen configurations,
/// so no BFS level reaches the explorer's parallel-split threshold.
///
/// # Errors
///
/// Propagates simulator errors raised during exploration.
pub fn search_binary_consensus_with<F>(
    make_object: F,
    class: &ProtocolClass,
    opts: &ExploreOptions,
) -> Result<SearchOutcome, SimError>
where
    F: Fn() -> Box<dyn ObjectSpec>,
{
    let class = Arc::new(class.clone());
    let trees: Vec<Arc<Tree>> = enumerate_trees(&class, class.max_depth)
        .into_iter()
        .map(Arc::new)
        .collect();
    let t = trees.len();
    let mut checks = 0usize;

    // correct[x][y] : t×t bitmatrix — tree `a` as P0 with input x, tree
    // `b` as P1 with input y solves consensus on that assignment.
    let mut cache: HashMap<(bool, bool), Vec<bool>> = HashMap::new();
    for (x, y) in [(false, false), (false, true), (true, true)] {
        let mut mat = vec![false; t * t];
        for a in 0..t {
            for b in 0..t {
                // Symmetry within an assignment x == y: correct(a,b) =
                // correct(b,a); compute the lower triangle only.
                if x == y && b < a {
                    mat[a * t + b] = mat[b * t + a];
                    continue;
                }
                checks += 1;
                mat[a * t + b] =
                    pair_correct(&make_object, &class, &trees[a], &trees[b], x, y, opts)?;
            }
        }
        cache.insert((x, y), mat);
    }
    let s00 = &cache[&(false, false)];
    let s01 = &cache[&(false, true)];
    let s11 = &cache[&(true, true)];
    // S10[b][c] = correct(P0: tree b, input 1; P1: tree c, input 0)
    //           = correct(P0: tree c, input 0; P1: tree b, input 1) = s01[c][b].
    for a in 0..t {
        for c in 0..t {
            if !s00[a * t + c] {
                continue;
            }
            for d in 0..t {
                if !s01[a * t + d] {
                    continue;
                }
                for b in 0..t {
                    if s01[c * t + b] && s11[b * t + d] {
                        return Ok(SearchOutcome {
                            witness: Some((a, b, c, d)),
                            trees: t,
                            checks,
                        });
                    }
                }
            }
        }
    }
    Ok(SearchOutcome {
        witness: None,
        trees: t,
        checks,
    })
}

fn pair_correct<F>(
    make_object: &F,
    class: &Arc<ProtocolClass>,
    t0: &Arc<Tree>,
    t1: &Arc<Tree>,
    x: bool,
    y: bool,
    opts: &ExploreOptions,
) -> Result<bool, SimError>
where
    F: Fn() -> Box<dyn ObjectSpec>,
{
    let mut b = SystemBuilder::new();
    let obj = b.add_boxed_object(make_object());
    let p0: Arc<dyn Protocol> = Arc::new(TreeProtocol {
        obj,
        class: Arc::clone(class),
        tree: Arc::clone(t0),
    });
    // Same tree ⇒ share the protocol instance, so the builder's automatic
    // symmetry detection (pointer + input equality) groups the two
    // processes on the diagonal checks and a symmetry-enabled exploration
    // quotients their interleavings.
    let p1: Arc<dyn Protocol> = if Arc::ptr_eq(t0, t1) {
        Arc::clone(&p0)
    } else {
        Arc::new(TreeProtocol {
            obj,
            class: Arc::clone(class),
            tree: Arc::clone(t1),
        })
    };
    b.add_process(p0, Value::Int(i64::from(x)));
    b.add_process(p1, Value::Int(i64::from(y)));
    let spec = b.build();
    let valid: Vec<Value> = if x == y {
        vec![Value::Int(i64::from(x))]
    } else {
        vec![Value::Int(0), Value::Int(1)]
    };
    // Streaming-verdict goal: wait-freedom + agreement (at most one
    // distinct decision) + validity are accumulated *during* exploration,
    // so the check exits at the first refuted terminal or cycle and never
    // freezes the CSR. `holds() == Some(true)` is exactly the old post-hoc
    // acceptance: completion under wait-freedom means every process
    // decides at every terminal (so "≤ 1 distinct" is "exactly 1"), and a
    // truncated run can never answer `Some(true)`.
    let goal = ExploreGoal::Verdict(
        VerdictQuery::new()
            .require_wait_freedom()
            .require_max_distinct(1)
            .require_valid_values(valid),
    );
    let graph = match StateGraph::explore(&spec, &opts.clone().with_goal(goal)) {
        Ok(g) => g,
        // A tree may misuse the object (e.g. re-walk past a decision on an
        // unclassified response); such protocols simply do not solve
        // consensus.
        Err(_) => return Ok(false),
    };
    let verdict = graph
        .verdict()
        .expect("verdict-goal exploration yields a verdict");
    Ok(verdict.holds() == Some(true))
}

/// The one-step protocol class over a `(3, 2)`-set-consensus object with
/// binary proposals.
pub fn set_consensus_32_class(max_depth: usize) -> ProtocolClass {
    ProtocolClass {
        ops: vec![
            Op::unary("propose", Value::Int(0)),
            Op::unary("propose", Value::Int(1)),
        ],
        responses: vec![Value::Int(0), Value::Int(1)],
        max_depth,
    }
}

/// The protocol class over a `WRN_k` object with binary values: all `wrn`
/// index/value combinations; responses `⊥`, 0 or 1.
pub fn wrn_class(k: usize, max_depth: usize) -> ProtocolClass {
    let mut ops = Vec::new();
    for i in 0..k {
        for v in 0..2i64 {
            ops.push(Op::binary("wrn", Value::from(i), Value::Int(v)));
        }
    }
    ProtocolClass {
        ops,
        responses: vec![Value::Nil, Value::Int(0), Value::Int(1)],
        max_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subconsensus_objects::{Consensus, SetConsensus};

    #[test]
    fn tree_counts_match_the_formula() {
        let c = set_consensus_32_class(1);
        assert_eq!(tree_count(&c, 0), 2);
        assert_eq!(tree_count(&c, 1), 2 + 2 * 4);
        assert_eq!(enumerate_trees(&c, 1).len(), tree_count(&c, 1));
        let w = wrn_class(3, 1);
        assert_eq!(tree_count(&w, 1), 2 + 6 * 8);
        assert_eq!(enumerate_trees(&w, 1).len(), tree_count(&w, 1));
    }

    #[test]
    fn consensus_object_class_has_a_witness() {
        // Sanity: over a *consensus* object the search must FIND a protocol
        // (propose your input, decide the answer).
        let class = ProtocolClass {
            ops: vec![
                Op::unary("propose", Value::Int(0)),
                Op::unary("propose", Value::Int(1)),
            ],
            responses: vec![Value::Int(0), Value::Int(1)],
            max_depth: 1,
        };
        let out = search_binary_consensus(|| Box::new(Consensus::unbounded()), &class).unwrap();
        assert!(
            out.witness.is_some(),
            "consensus object must admit a protocol"
        );
        assert_eq!(out.trees, 10);
    }

    #[test]
    fn no_one_step_protocol_over_3_2_set_consensus() {
        // Machine-checked: NO protocol in which each process performs at
        // most one propose on one (3,2)-SC object solves binary consensus.
        let out = search_binary_consensus(
            || Box::new(SetConsensus::new(3, 2).unwrap()),
            &set_consensus_32_class(1),
        )
        .unwrap();
        assert_eq!(out.witness, None, "impossibility at depth 1");
        assert!(out.checks > 100);
    }

    #[test]
    fn no_one_step_protocol_over_wrn3() {
        // Machine-checked Lemma-38 kernel: NO one-step WRN₃ protocol solves
        // binary consensus (all 50 trees per role, all index/value ops).
        let out =
            search_binary_consensus(|| Box::new(subconsensus_wrn_shim::wrn3()), &wrn_class(3, 1))
                .unwrap();
        assert_eq!(out.witness, None);
        assert_eq!(out.trees, 50);
    }

    /// A local WRN₃ (avoids a dependency cycle with the extension crate).
    mod subconsensus_wrn_shim {
        use subconsensus_sim::{ObjectError, ObjectSpec, Op, Outcome, Value};

        #[derive(Debug)]
        pub struct Wrn3;

        pub fn wrn3() -> Wrn3 {
            Wrn3
        }

        impl ObjectSpec for Wrn3 {
            fn type_name(&self) -> &'static str {
                "wrn3"
            }

            fn initial_state(&self) -> Value {
                Value::nil_tup(3)
            }

            fn apply(&self, state: &Value, op: &Op) -> Result<Vec<Outcome>, ObjectError> {
                let i = op.args[0].as_index().ok_or(ObjectError::TypeMismatch {
                    object: "wrn3",
                    detail: "bad index".into(),
                })?;
                let v = op.args[1].clone();
                let next = state.with_index(i, v).ok_or(ObjectError::TypeMismatch {
                    object: "wrn3",
                    detail: "bad state".into(),
                })?;
                let read = next.index((i + 1) % 3).cloned().expect("in range");
                Ok(vec![Outcome::ret(next, read)])
            }
        }
    }
}

//! Exhaustive construction of the reachable configuration graph.
//!
//! Exploration is a level-synchronized BFS: each depth level of the graph
//! is expanded *read-only*, then the results are merged sequentially in
//! ascending node order. A level of at least `PARALLEL_THRESHOLD` items is
//! split across one worker per hardware thread; smaller levels, and every
//! level on a one-core host, run on the caller's thread. Because the merge
//! order is independent of how the level was split, the graph — node
//! indices, edges, terminals — is identical for every split.
//!
//! The visited set is a fingerprint index: a flat open-addressing table of
//! `(u64 fingerprint, u32 node id)` pairs (`fpindex.rs`), where a
//! fingerprint filed under several nodes simply occupies several slots of
//! one probe run. Every candidate it proposes is verified by full id-word
//! equality before deduplicating, so hash collisions can never merge
//! distinct configurations. The disk store drains the table to sorted,
//! fenced runs on disk (`spill.rs`) and probes those too at merge time.
//!
//! The node arena is **hash-consed**: every distinct object and process
//! state is interned once into a [`StateInterner`] and a node is one flat
//! row of `u32` id words, so fingerprint verification is a word compare and
//! stepping copies id rows instead of `Arc` vectors. Interning maps equal
//! states to equal ids (and only those), so the graph is the same as one
//! built over deep [`Config`]s; the e6/e10/e11 suites check it node for
//! node against a plain `HashMap<Config, usize>` reference explorer that
//! shares none of this code.
//!
//! # Partial-order reduction
//!
//! With [`ExploreOptions::por`], exploration prunes redundant interleavings
//! of *independent* steps (steps that commute — see
//! [`SystemSpec::footprints_independent`]) instead of generating them and
//! letting the dedup index merge their endpoints:
//!
//! * **Ample (persistent) sets** shrink the state count: at each new
//!   configuration only a persistent subset of the enabled processes is
//!   fired (a deciding process alone, or the smallest statically-closed
//!   conflict component — see `choose_ample`).
//! * **Sleep sets** shrink the edge count: each edge carries the set of
//!   processes whose steps were already explored in a commuting order, so
//!   permutations of one Mazurkiewicz trace are not re-fired.
//! * The **cycle proviso** prevents the ignoring problem: any node found to
//!   close a cycle (an edge to an equal-or-shallower BFS level) is escalated
//!   to full expansion, so no enabled process is deferred forever.
//!
//! The reduced graph preserves the terminal configurations exactly, and with
//! them every verdict in `properties.rs` plus the root valence; it does
//! *not* preserve interior valences, so `find_critical` rejects POR graphs.
//!
//! The frozen graph stores its adjacency in compressed-sparse-row form
//! (`u32` node ids, one flat edge array) — per-node memory is two `u32`
//! offsets instead of a `Vec` header plus allocation slack.

use std::time::Instant;

use subconsensus_sim::{
    env_store_budget, env_store_disk, warn_once, Config, ExploreMetrics, InternerStats,
    PendingConfig, Phase, Pid, ProcStatus, Recorder, SimError, StateInterner, StepFootprint,
    SystemSpec, TruncationCause, Value,
};

use crate::fpindex::{fingerprint_words, FpTable};
use crate::spill::{Spill, DEFAULT_DISK_BUDGET};
use crate::verdict::{ExploreGoal, StreamingVerdict, TerminalFacts, VerdictEngine};

/// Options bounding an exploration.
#[derive(Clone, Debug)]
pub struct ExploreOptions {
    /// Stop after visiting this many distinct configurations.
    pub max_configs: usize,
    /// Explore the orbit-quotient graph: every successor is canonicalized
    /// under the system's [process symmetry
    /// groups](subconsensus_sim::SystemSpec::symmetry_groups) before dedup,
    /// so only one representative per permutation orbit is visited. A no-op
    /// for systems with trivial symmetry. See
    /// [`StateGraph::explore`] for what the quotient preserves.
    pub symmetry: bool,
    /// Partial-order reduction: prune redundant interleavings of commuting
    /// steps with ample sets + sleep sets + the cycle proviso (see the
    /// module docs). The reduced graph preserves terminal decision sets,
    /// wait-freedom, non-blocking and the root valence; it is rejected by
    /// `find_critical`, which needs full expansion. Composes with
    /// `symmetry`.
    pub por: bool,
    /// What this exploration is for. The default,
    /// [`ExploreGoal::FullGraph`], builds and freezes the whole reachable
    /// graph. [`ExploreGoal::Verdict`] instead accumulates the queried
    /// properties *during* exploration, stops at the end of the first BFS
    /// level where the query is refuted, and skips the CSR freeze
    /// entirely — the graph then carries a
    /// [`StreamingVerdict`] (see [`StateGraph::verdict`]) but no CSR.
    /// Early exit is at level granularity and the verdict fold is
    /// commutative, so verdicts and explored-config counts stay
    /// deterministic across level splits × symmetry × POR × store.
    pub goal: ExploreGoal,
    /// Where the visited set lives: in RAM (the default) or disk-backed
    /// with a bounded hot tier ([`StoreBackend::Disk`]), which spills
    /// cold node rows and fingerprint-index entries to a per-run
    /// directory once the resident estimate crosses
    /// [`store_budget_bytes`](Self::store_budget_bytes). The produced
    /// graph is node-for-node identical for every backend.
    /// [`StoreBackend::Auto`] defers to the `MC_STORE` env var.
    pub store: StoreBackend,
    /// Hot-tier byte budget, covering node rows, the fingerprint index
    /// and the interner arenas. Under [`StoreBackend::Disk`] the store
    /// evicts node rows and index entries to disk against this bound; the
    /// arenas stay resident but count toward it. Under the in-memory
    /// backend an exploration whose resident estimate crosses it stops
    /// adding configurations and truncates cleanly
    /// ([`TruncationCause::MemoryBudget`]) instead of growing without
    /// bound. `None` defers to the `MC_STORE_BUDGET` env var (bytes),
    /// then — for the disk store only — a 256 MiB default; the in-memory
    /// store is unbounded without an explicit budget.
    pub store_budget_bytes: Option<usize>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_configs: 1_000_000,
            symmetry: false,
            por: false,
            goal: ExploreGoal::FullGraph,
            store: StoreBackend::Auto,
            store_budget_bytes: None,
        }
    }
}

impl ExploreOptions {
    /// Options with the given configuration bound.
    pub fn with_max_configs(max_configs: usize) -> Self {
        ExploreOptions {
            max_configs,
            ..Self::default()
        }
    }

    /// Returns these options with orbit-quotient exploration on or off.
    pub fn with_symmetry(mut self, symmetry: bool) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// Returns these options with partial-order reduction on or off.
    pub fn with_por(mut self, por: bool) -> Self {
        self.por = por;
        self
    }

    /// Returns these options with the given [`ExploreGoal`].
    pub fn with_goal(mut self, goal: ExploreGoal) -> Self {
        self.goal = goal;
        self
    }

    /// Returns these options with the given [`StoreBackend`].
    pub fn with_store(mut self, store: StoreBackend) -> Self {
        self.store = store;
        self
    }

    /// Returns these options with the given hot-tier byte budget.
    pub fn with_store_budget(mut self, bytes: usize) -> Self {
        self.store_budget_bytes = Some(bytes);
        self
    }

    /// The store backend this exploration will actually run with: an
    /// explicit [`store`](Self::store) wins, [`StoreBackend::Auto`]
    /// defers to the `MC_STORE` env var (`"disk"` selects the disk
    /// store, anything else the in-memory one; read once per process).
    fn effective_store(&self) -> StoreBackend {
        match self.store {
            StoreBackend::Auto if env_store_disk() => StoreBackend::Disk,
            StoreBackend::Auto => StoreBackend::Memory,
            explicit => explicit,
        }
    }

    /// The explicit hot-tier budget, if any: a set
    /// [`store_budget_bytes`](Self::store_budget_bytes) wins, `None`
    /// defers to the `MC_STORE_BUDGET` env var (read once per process).
    fn effective_store_budget(&self) -> Option<usize> {
        self.store_budget_bytes.or_else(env_store_budget)
    }

    /// The options as one JSON object with every env-deferred field
    /// *resolved* (`store` and `store_budget_bytes` record what the
    /// exploration actually ran with, not the `Auto`/`None`
    /// placeholders) — the `options` payload of an event-log `start`.
    pub fn to_json(&self) -> String {
        let goal = match self.goal {
            ExploreGoal::FullGraph => "full_graph",
            ExploreGoal::Verdict(_) => "verdict",
        };
        let store = match self.effective_store() {
            StoreBackend::Disk => "disk",
            StoreBackend::Memory | StoreBackend::Auto => "memory",
        };
        let budget = self
            .effective_store_budget()
            .map_or_else(|| "null".to_string(), |b| b.to_string());
        format!(
            "{{\"max_configs\": {}, \"symmetry\": {}, \"por\": {}, \
             \"goal\": \"{goal}\", \"store\": \"{store}\", \
             \"store_budget_bytes\": {budget}}}",
            self.max_configs, self.symmetry, self.por
        )
    }
}

/// Which backend an exploration keeps its visited set in — see
/// [`ExploreOptions::store`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StoreBackend {
    /// Defer to the `MC_STORE` env var (`"disk"` selects
    /// [`Disk`](Self::Disk)), falling back to [`Memory`](Self::Memory).
    #[default]
    Auto,
    /// Everything resident: node rows, interner arenas and the
    /// fingerprint index all live in RAM.
    Memory,
    /// Bounded hot tier: cold node rows and drained fingerprint-index
    /// entries spill to append-only files under a per-exploration run
    /// directory (removed when the exploration drops), keeping resident
    /// bytes near [`ExploreOptions::store_budget_bytes`]. The interner
    /// arenas stay resident. The produced graph is
    /// node-for-node identical to the in-memory one.
    Disk,
}

/// Maps a pid bit mask through a pid permutation (`perm[old] = new`).
fn permute_mask(mask: u64, perm: &[usize]) -> u64 {
    let mut out = 0u64;
    let mut it = mask;
    while it != 0 {
        let q = it.trailing_zeros() as usize;
        it &= it - 1;
        out |= 1 << perm[q];
    }
    out
}

/// How the sequential merge placed a worker-produced successor.
enum MergeSlot {
    /// Already in the store (possibly inserted earlier in this level).
    Known(usize),
    /// Newly inserted under this node index.
    Added(usize),
    /// Rejected: the store is at the configuration bound.
    Capped,
}

/// Folds per-process statuses into the streaming engine's terminal facts —
/// the id-native twin of `Config::decided_values` plus the hung/undecided
/// classification `properties.rs` derives per terminal.
fn facts_from_statuses<'s>(statuses: impl Iterator<Item = &'s ProcStatus>) -> TerminalFacts {
    let mut decided: Vec<Value> = Vec::new();
    let mut any_hung = false;
    let mut all_decided = true;
    for status in statuses {
        match status {
            ProcStatus::Decided(v) => decided.push(v.clone()),
            ProcStatus::Hung => {
                any_hung = true;
                all_decided = false;
            }
            ProcStatus::Fresh | ProcStatus::Running => all_decided = false,
        }
    }
    decided.sort();
    decided.dedup();
    TerminalFacts {
        decided,
        any_hung,
        all_decided,
    }
}

/// Worker-produced successors of one step: each carrier paired with the pid
/// permutation canonicalization applied (`None` when already canonical).
type Successors = Vec<(CompactCarrier, Option<Vec<usize>>)>;

/// A worker-stepped successor in id space: the [`PendingConfig`] plus the
/// fingerprint of its id words when every slot resolved against the
/// worker's interner snapshot (a successor carrying a genuinely fresh
/// state cannot be in the snapshot's visited set, so it needs no
/// fingerprint until the merge interns it).
struct CompactCarrier {
    pending: PendingConfig,
    fp: Option<u64>,
}

/// The configuration store of one exploration: states live once in a
/// [`StateInterner`], nodes are rows of `u32` id words in one flat array,
/// and dedup verification is a word-for-word compare (sound because
/// interning makes id equality equivalent to state equality).
///
/// Workers hold `&self` (the interner's hit/miss counters are relaxed
/// atomics) and resolve successors against that snapshot; only the
/// sequential merge calls [`insert`](Self::insert).
struct CompactStore<'a> {
    spec: &'a SystemSpec,
    rec: &'a Recorder,
    interner: StateInterner,
    nobjects: usize,
    /// Words per node row (`nobjects + nprocs`).
    stride: usize,
    /// Row-major id words of the *hot* nodes: with no spill, node `i` is
    /// `words[i * stride .. (i + 1) * stride]`; with one, the vec holds
    /// only nodes `[hot_base, len)` (the on-disk prefix is faulted
    /// through the spill's reloaded tier).
    words: Vec<u32>,
    len: usize,
    /// RAM tier of the fingerprint index: the nodes filed since the last
    /// drain (all of them without a spill).
    index: FpTable,
    /// Reused buffer of one merge-side probe's spilled candidates.
    spilled_cands: Vec<u32>,
    /// Disk spill state ([`StoreBackend::Disk`] only); `None` preserves
    /// the fully-resident behavior bit for bit.
    spill: Option<Spill>,
}

impl<'a> CompactStore<'a> {
    fn new(spec: &'a SystemSpec, rec: &'a Recorder, init: &Config) -> Self {
        let mut interner = StateInterner::new();
        let compact = interner.intern_config(init);
        let words: Vec<u32> = compact.words().to_vec();
        let mut index = FpTable::new();
        index.insert(fingerprint_words(&words), 0);
        CompactStore {
            spec,
            rec,
            interner,
            nobjects: compact.nobjects(),
            stride: words.len(),
            words,
            len: 1,
            index,
            spilled_cands: Vec::new(),
            spill: None,
        }
    }

    /// Turns this store disk-backed with the given hot-tier budget.
    fn enable_spill(&mut self, budget: usize) {
        debug_assert!(self.spill.is_none());
        self.spill = Some(Spill::new(self.stride, budget));
    }

    fn row(&self, i: usize) -> &[u32] {
        self.row_resident(i)
            .expect("spilled row accessed outside the pinned frontier")
    }

    /// Node `i`'s row if it is resident (hot suffix or reloaded this
    /// level) — worker-safe: a `None` is a safe dedup false miss, since
    /// the merge re-checks with faulting.
    fn row_resident(&self, i: usize) -> Option<&[u32]> {
        let hot_base = self.spill.as_ref().map_or(0, Spill::hot_base);
        if i >= hot_base {
            let k = i - hot_base;
            Some(&self.words[k * self.stride..(k + 1) * self.stride])
        } else {
            self.spill.as_ref().and_then(|s| s.reloaded_row(i))
        }
    }

    /// Faults every spilled frontier row into the reloaded tier, so the
    /// level's workers find all of them resident.
    fn pin_frontier(&mut self, frontier: &[usize]) {
        let rec = self.rec;
        let Some(spill) = self.spill.as_mut() else {
            return;
        };
        for &i in frontier {
            if i < spill.hot_base() {
                spill.fault_row(i, rec);
            }
        }
    }

    /// Reconstitutes the fully-resident representation (freeze time): the
    /// on-disk row prefix streamed back in front of the hot suffix, and
    /// the spill dropped (removing its run directory). The arenas never
    /// left RAM, so the result is indistinguishable from a fully in-memory
    /// exploration's.
    fn unspill(&mut self) {
        let Some(mut spill) = self.spill.take() else {
            return;
        };
        if spill.hot_base() > 0 {
            let mut all = spill.read_all_rows(self.rec);
            all.append(&mut self.words);
            self.words = all;
        }
    }

    /// Enabled-process bitset of node `i`.
    fn enabled_bits(&self, i: usize) -> u64 {
        self.interner.enabled_bits(self.nobjects, self.row(i))
    }

    /// Footprint of `pid`'s next step at node `i`.
    fn footprint(&self, i: usize, pid: Pid) -> Result<StepFootprint, SimError> {
        self.spec
            .compact_footprint(&self.interner, self.row(i), pid)
    }

    /// Whether two steps with these footprints commute at node `i`.
    fn independent(&self, i: usize, a: &StepFootprint, b: &StepFootprint) -> bool {
        match (a, b) {
            (StepFootprint::Local, _) | (_, StepFootprint::Local) => true,
            (
                StepFootprint::Object { obj: oa, op: pa },
                StepFootprint::Object { obj: ob, op: pb },
            ) => {
                oa != ob
                    || self.spec.ops_commute(
                        *oa,
                        self.interner.object(self.row(i)[oa.index()]),
                        pa,
                        pb,
                    )
            }
        }
    }

    /// All successors of stepping `pid` at node `i`, canonicalized when
    /// `symmetry`, each with the pid permutation that canonicalization
    /// applied (`None` when already canonical).
    fn successors(&self, i: usize, pid: Pid, symmetry: bool) -> Result<Successors, SimError> {
        let row = self.row(i);
        let mut out = Vec::new();
        for mut pending in self.spec.compact_successors(&self.interner, row, pid)? {
            let perm = if symmetry {
                self.spec.compact_canonicalize(&self.interner, &mut pending)
            } else {
                None
            };
            let fp = pending.resolved_words().map(fingerprint_words);
            out.push((CompactCarrier { pending, fp }, perm));
        }
        Ok(out)
    }

    /// Worker-side: finds `c` in this snapshot of the store, if present.
    fn lookup(&self, c: &CompactCarrier) -> Option<usize> {
        let words = c.pending.resolved_words()?;
        let fp = c.fp?;
        // Worker-side: probe only the RAM index and only resident rows — a
        // spilled candidate is a safe false miss (fresh state rides by
        // value; the merge's `insert` re-checks both tiers with faulting).
        let spilling = self.spill.is_some();
        let mut probe = self.index.probe(fp);
        while let Some(j) = probe.next(&self.index) {
            match self.row_resident(j as usize) {
                Some(row) => {
                    if spilling {
                        self.rec.count_store_hot_hits(1);
                    }
                    if row == words {
                        return Some(j as usize);
                    }
                }
                None => self.rec.count_store_hot_misses(1),
            }
        }
        None
    }

    /// Merge-side: whether node `j`'s row equals `words`, faulting it from
    /// disk if it is cold.
    fn row_matches(&mut self, j: usize, words: &[u32]) -> bool {
        let rec = self.rec;
        let spilling = self.spill.is_some();
        match self.row_resident(j) {
            Some(row) => {
                if spilling {
                    rec.count_store_hot_hits(1);
                }
                row == words
            }
            None => {
                rec.count_store_hot_misses(1);
                let spill = self
                    .spill
                    .as_mut()
                    .expect("non-resident row implies a spill");
                spill.fault_row(j, rec) == words
            }
        }
    }

    /// Merge-side: the node whose row equals `words` (fingerprint `fp`),
    /// searching the RAM index and then every spilled run. At most one
    /// candidate can match, because node rows are pairwise distinct.
    fn find(&mut self, fp: u64, words: &[u32]) -> Option<usize> {
        let mut probe = self.index.probe(fp);
        while let Some(j) = probe.next(&self.index) {
            if self.row_matches(j as usize, words) {
                return Some(j as usize);
            }
        }
        let spill = self.spill.as_mut()?;
        let mut cands = std::mem::take(&mut self.spilled_cands);
        cands.clear();
        spill.spilled_candidates(fp, &mut cands, self.rec);
        let found = cands
            .iter()
            .map(|&j| j as usize)
            .find(|&j| self.row_matches(j, words));
        self.spilled_cands = cands;
        found
    }

    /// Merge-side find-or-insert, bounded by `cap` configurations.
    fn insert(&mut self, c: CompactCarrier, cap: usize) -> MergeSlot {
        // Intern the carrier's fresh states (if any), then dedup by id
        // words (a worker's miss can be this level's earlier insert).
        let compact = self.interner.finalize(c.pending);
        let words = compact.words();
        let fp = fingerprint_words(words);
        if let Some(j) = self.find(fp, words) {
            return MergeSlot::Known(j);
        }
        if self.len >= cap {
            return MergeSlot::Capped;
        }
        let j = self.len;
        self.words.extend_from_slice(words);
        self.index
            .insert(fp, u32::try_from(j).expect("node ids are frozen as u32"));
        self.len += 1;
        MergeSlot::Added(j)
    }

    /// Streaming-verdict facts of terminal node `i` (decided values, hung /
    /// undecided classification) read off the id row — no deep `Config` is
    /// materialized.
    fn terminal_facts(&self, i: usize) -> TerminalFacts {
        let row = self.row(i);
        facts_from_statuses(
            row[self.nobjects..]
                .iter()
                .map(|&id| &self.interner.proc(id).status),
        )
    }

    /// Sequential level-boundary hook, called before each level's
    /// expansion with the node ids about to be expanded (workers are
    /// joined, so a disk-backed store may spill here: the frontier's rows
    /// are faulted resident until the next call). Over budget, the node
    /// rows spill first — they are the dominant linear cost, and spilling
    /// them is one sequential write — then, if still over, the RAM
    /// fingerprint index drains to a sorted run on disk.
    fn begin_level(&mut self, frontier: &[usize]) {
        let rec = self.rec;
        let Some(spill) = self.spill.as_mut() else {
            return;
        };
        spill.clear_reloaded();
        let budget = spill.budget;
        if self.resident_estimate() > budget {
            let rows = std::mem::take(&mut self.words);
            self.spill.as_mut().unwrap().spill_rows(&rows, rec);
        }
        self.pin_frontier(frontier);
        if self.resident_estimate() > budget {
            self.spill
                .as_mut()
                .unwrap()
                .drain_index(&mut self.index, rec);
        }
    }

    /// Estimated resident bytes of the hot tier (rows + arenas +
    /// fingerprint index + reload buffers), driving both the disk store's
    /// spilling and the in-memory budget truncation. The arenas never
    /// spill, but they count.
    fn resident_estimate(&self) -> usize {
        self.interner.table_bytes()
            + self.interner.resident_state_bytes()
            + self.words.len() * std::mem::size_of::<u32>()
            + self.index.bytes()
            + self
                .spill
                .as_ref()
                .map_or(0, |s| s.reloaded_bytes() + s.index_bytes())
    }

    /// Whether this store spills cold state to disk (if so, the memory
    /// budget bounds residency by spilling instead of truncation).
    fn spilling(&self) -> bool {
        self.spill.is_some()
    }
}

/// A successor resolved by a level-expansion worker.
enum StepResult {
    /// The successor already had a node index before this level's merge.
    Existing(usize),
    /// A carrier unseen at expansion time; the merge re-checks it against
    /// nodes added earlier in the level before inserting.
    Fresh(CompactCarrier),
}

/// The expansion of one work item: successors in stable (pid, outcome)
/// order, each with the sleep set to install at the successor (all-zero
/// without POR).
struct NodeExpansion {
    steps: Vec<(Pid, StepResult, u64)>,
    /// The pids this item actually fired.
    fired: u64,
    /// Ample candidates suppressed by the sleep set (first visits only).
    slept: u64,
    terminal: bool,
}

/// One unit of frontier work.
///
/// A `fresh` item is a node's first expansion: the worker picks the ample
/// set itself and reads the node's entry sleep set from `first_sleep`. A
/// non-fresh item re-expands an already-visited node with an explicit
/// `fire` mask (sleep-set wake-ups and cycle-proviso escalations).
#[derive(Clone, Copy)]
struct WorkItem {
    node: usize,
    fire: u64,
    sleep: u64,
    fresh: bool,
}

/// Picks a persistent ("ample") subset of the enabled pids of one
/// configuration; only that subset is fired at the node's first visit.
///
/// Soundness requires *persistence*: no step outside the set, nor any
/// future step reachable without the set, may conflict with a step in the
/// set. Two criteria, tried in order:
///
/// 1. **Decide singleton** — an enabled process whose next action is a
///    decision ([`StepFootprint::Local`]) touches only its own (absorbing)
///    process state, so it alone is a persistent set.
/// 2. **Smallest static conflict component** — from the declared
///    whole-execution object footprints
///    ([`SystemSpec::static_independent`]): the enabled pids are split into
///    components closed under "may ever conflict", and the smallest
///    component (ties: the one containing the lowest pid) is taken. A
///    process without a declared footprint conflicts with everyone, which
///    collapses the components into one.
///
/// Falls back to the full enabled set (no reduction). The result is
/// deterministic: it depends only on the configuration and the spec.
fn choose_ample(spec: &SystemSpec, enabled: u64, fps: &[Option<StepFootprint>]) -> u64 {
    let mut it = enabled;
    while it != 0 {
        let i = it.trailing_zeros() as usize;
        it &= it - 1;
        if matches!(fps[i], Some(StepFootprint::Local)) {
            return 1 << i;
        }
    }
    let mut best = enabled;
    let mut remaining = enabled;
    while remaining != 0 {
        let seed = remaining & remaining.wrapping_neg();
        let mut comp = seed;
        loop {
            let mut grown = comp;
            let mut others = enabled & !comp;
            while others != 0 {
                let q = others.trailing_zeros() as usize;
                others &= others - 1;
                if comp & !spec.static_independent(Pid::new(q)) != 0 {
                    grown |= 1 << q;
                }
            }
            if grown == comp {
                break;
            }
            comp = grown;
        }
        if comp.count_ones() < best.count_ones() {
            best = comp;
        }
        remaining &= !comp;
    }
    best
}

/// The level-shaped facts a heartbeat reports, frozen at level start so
/// expansion workers can tick the progress sink without touching merge
/// state. Heartbeats fire off the *expansion counter* (every `N`
/// expansions), so ticking inside the expansion loop keeps them coming
/// on a single enormous level — checking only at level boundaries left
/// minutes of silence (the `Recorder`'s CAS claim makes concurrent
/// worker ticks fire once per interval).
#[derive(Clone, Copy)]
struct LevelCtx {
    level: u32,
    nodes: usize,
    frontier: usize,
    remaining: usize,
}

/// Expands one work item against a read-only snapshot of the graph.
fn expand_item(
    store: &CompactStore,
    first_sleep: &[u64],
    item: WorkItem,
    opts: &ExploreOptions,
    ctx: LevelCtx,
) -> Result<NodeExpansion, SimError> {
    let rec = store.rec;
    rec.count_expansions(1);
    rec.heartbeat(ctx.level, ctx.nodes, ctx.frontier, ctx.remaining);
    let node = item.node;
    let enabled = store.enabled_bits(node);
    if enabled == 0 {
        return Ok(NodeExpansion {
            steps: Vec::new(),
            fired: 0,
            slept: 0,
            terminal: true,
        });
    }

    // Per-pid step footprints: ample selection and successor sleep masks
    // both need them (POR only).
    let mut fps: Vec<Option<StepFootprint>> = Vec::new();
    if opts.por {
        fps = vec![None; store.spec.nprocs()];
        let mut it = enabled;
        while it != 0 {
            let i = it.trailing_zeros() as usize;
            it &= it - 1;
            fps[i] = Some(store.footprint(node, Pid::new(i))?);
        }
    }

    let (fire, sleep, slept) = if !opts.por {
        (enabled, 0, 0)
    } else if item.fresh {
        let sleep = first_sleep[node] & enabled;
        let ample = choose_ample(store.spec, enabled, &fps);
        let mut fire = ample & !sleep;
        let mut slept = ample & sleep;
        if fire == 0 {
            // Never strand a node with enabled processes: un-sleep the
            // lowest ample candidate, so every non-terminal node keeps at
            // least one outgoing edge (`check_nonblocking` depends on it).
            let low = ample & ample.wrapping_neg();
            fire = low;
            slept &= !low;
        }
        (fire, sleep, slept)
    } else {
        (item.fire, item.sleep, 0)
    };

    let mut steps = Vec::new();
    let mut done = 0u64; // earlier siblings fired by this item
    let mut it = fire;
    while it != 0 {
        let i = it.trailing_zeros() as usize;
        it &= it - 1;
        let pid = Pid::new(i);
        // Sleep basis at the successor: the incoming sleep plus this item's
        // earlier siblings, minus the stepping pid — filtered below to the
        // pids whose next step is independent of this one.
        let base = if opts.por {
            (sleep | done) & enabled & !(1 << i)
        } else {
            0
        };
        for (next, perm) in store.successors(node, pid, opts.symmetry)? {
            if perm.is_some() {
                rec.count_symmetry_hits(1);
            }
            let mut succ_sleep = 0u64;
            if base != 0 {
                let me = fps[i].as_ref().expect("enabled pid has a footprint");
                let mut qs = base;
                while qs != 0 {
                    let q = qs.trailing_zeros() as usize;
                    qs &= qs - 1;
                    let other = fps[q].as_ref().expect("enabled pid has a footprint");
                    if store.independent(node, me, other) {
                        succ_sleep |= 1 << q;
                    }
                }
                if let Some(perm) = &perm {
                    // The canonical successor renames pids; rename the
                    // sleep mask with it.
                    succ_sleep = permute_mask(succ_sleep, perm);
                }
            }
            let step = match store.lookup(&next) {
                Some(j) => StepResult::Existing(j),
                None => StepResult::Fresh(next),
            };
            steps.push((pid, step, succ_sleep));
        }
        done |= 1 << i;
    }
    rec.count_generated(steps.len() as u64);
    Ok(NodeExpansion {
        steps,
        fired: fire,
        slept,
        terminal: false,
    })
}

/// Expands `items` against a read-only snapshot of the graph.
fn expand_chunk(
    store: &CompactStore,
    first_sleep: &[u64],
    items: &[WorkItem],
    opts: &ExploreOptions,
    ctx: LevelCtx,
) -> Result<Vec<NodeExpansion>, SimError> {
    let mut out = Vec::with_capacity(items.len());
    for &item in items {
        out.push(expand_item(store, first_sleep, item, opts, ctx)?);
    }
    Ok(out)
}

/// Below this frontier size a level is always expanded sequentially:
/// spawning scoped threads costs more than stepping a handful of nodes,
/// and the merge produces the same graph either way.
const PARALLEL_THRESHOLD: usize = 32;

/// Hardware threads the host can actually run concurrently (cached; 1 on
/// query failure): the worker count of every exploration.
fn host_parallelism() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Expands one BFS level, splitting it into at most `workers` chunks when
/// it has at least [`PARALLEL_THRESHOLD`] items. Returns one result vector
/// per worker that ran (a single one for a sequential level); read in
/// order, they follow `level` regardless of the split.
fn expand_level(
    store: &CompactStore,
    first_sleep: &[u64],
    level: &[WorkItem],
    opts: &ExploreOptions,
    ctx: LevelCtx,
    workers: usize,
) -> Result<Vec<Vec<NodeExpansion>>, SimError> {
    if workers <= 1 || level.len() < PARALLEL_THRESHOLD {
        return Ok(vec![expand_chunk(store, first_sleep, level, opts, ctx)?]);
    }
    let chunk_size = level.len().div_ceil(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = level
            .chunks(chunk_size)
            .map(|chunk| s.spawn(move || expand_chunk(store, first_sleep, chunk, opts, ctx)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("exploration worker panicked"))
            .collect()
    })
}

/// One outgoing edge of the configuration graph.
///
/// Node indices are `u32`: the CSR representation caps a graph at
/// `u32::MAX` nodes, far beyond what any exhaustive exploration holds in
/// memory, and halves the edge array's footprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// The process whose step produced this edge.
    pub pid: Pid,
    /// Index of the successor configuration.
    pub to: u32,
}

impl Edge {
    /// The successor node index widened for direct indexing.
    pub fn target(&self) -> usize {
        self.to as usize
    }
}

/// Summary statistics of a [`StateGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphStats {
    /// Number of distinct reachable configurations.
    pub configs: usize,
    /// Total number of edges (steps).
    pub edges: usize,
    /// Number of final configurations.
    pub terminals: usize,
    /// Maximum branching factor of any configuration.
    pub max_out_degree: usize,
    /// Longest shortest-path distance from the initial configuration.
    pub max_depth: usize,
    /// Whether the exploration was truncated.
    pub truncated: bool,
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} configs, {} edges, {} terminals, out-degree ≤ {}, depth {}{}",
            self.configs,
            self.edges,
            self.terminals,
            self.max_out_degree,
            self.max_depth,
            if self.truncated { " (TRUNCATED)" } else { "" }
        )
    }
}

/// A borrowed view of one graph node with **id-native** accessors:
/// process statuses, enabled sets and decision sets are read straight
/// from the node's interned `u32` id row (one id resolved through the
/// interner), so property predicates probing thousands of nodes never
/// re-materialize a deep [`Config`] per probe. Use [`NodeView::config`]
/// only when the whole configuration is genuinely needed.
#[derive(Clone, Copy, Debug)]
pub struct NodeView<'g> {
    graph: &'g StateGraph,
    index: usize,
}

impl<'g> NodeView<'g> {
    /// This node's index in the graph.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Number of processes in the system.
    pub fn nprocs(&self) -> usize {
        let nodes = &self.graph.nodes;
        nodes.stride - nodes.nobjects
    }

    /// Status of process `pid`, borrowed from the store.
    pub fn status(&self, pid: Pid) -> &'g ProcStatus {
        let nodes = &self.graph.nodes;
        let row = self.index * nodes.stride;
        let id = nodes.words[row + nodes.nobjects + pid.index()];
        &nodes.interner.proc(id).status
    }

    /// Bitset of the enabled processes.
    pub fn enabled_bits(&self) -> u64 {
        let mut bits = 0u64;
        for p in 0..self.nprocs() {
            if self.status(Pid::new(p)).is_enabled() {
                bits |= 1 << p;
            }
        }
        bits
    }

    /// `true` iff no process is enabled (a terminal configuration).
    pub fn is_final(&self) -> bool {
        self.enabled_bits() == 0
    }

    /// Per-process decisions, `None` for undecided processes.
    pub fn decisions(&self) -> Vec<Option<Value>> {
        (0..self.nprocs())
            .map(|p| self.status(Pid::new(p)).decision().cloned())
            .collect()
    }

    /// The sorted, deduplicated set of values decided at this node.
    pub fn decided_values(&self) -> Vec<Value> {
        let mut vals: Vec<Value> = (0..self.nprocs())
            .filter_map(|p| self.status(Pid::new(p)).decision().cloned())
            .collect();
        vals.sort();
        vals.dedup();
        vals
    }

    /// The full configuration, materialized on demand — per-probe cost
    /// the id-native accessors above avoid; prefer them in predicates.
    pub fn config(&self) -> Config {
        self.graph.config(self.index)
    }
}

/// The reachable configuration graph of a system, with every scheduler choice
/// and every nondeterministic object outcome expanded (unless reduced — see
/// [`StateGraph::is_por_reduced`]).
///
/// Node `0` is the initial configuration. Adjacency is stored in
/// compressed-sparse-row form: `row_ptr[i]..row_ptr[i + 1]` indexes node
/// `i`'s slice of one flat edge array.
#[derive(Clone, Debug)]
pub struct StateGraph {
    nodes: InternedNodes,
    row_ptr: Vec<u32>,
    edge_arr: Vec<Edge>,
    terminals: Vec<usize>,
    truncated: bool,
    por: bool,
    metrics: ExploreMetrics,
    /// The streaming verdict of a [`ExploreGoal::Verdict`] exploration
    /// (`None` under [`ExploreGoal::FullGraph`]). When present, the CSR
    /// adjacency was never frozen — see [`StateGraph::is_verdict_only`].
    verdict: Option<StreamingVerdict>,
}

/// The frozen, hash-consed node arena of a [`StateGraph`]: `stride` id
/// words per node in one flat row-major array, resolved through the
/// interner. `len` is explicit because a zero-process zero-object system
/// has `stride == 0`.
#[derive(Clone, Debug)]
struct InternedNodes {
    interner: StateInterner,
    nobjects: usize,
    stride: usize,
    words: Vec<u32>,
    len: usize,
}

/// The explorer's output before node storage is attached: CSR adjacency,
/// terminals and the truncation flag. Under a verdict goal the CSR vectors
/// are empty (the freeze is skipped) and `edges` keeps the true recorded
/// edge count for the metrics; otherwise `edges == edge_arr.len()`.
struct GraphCore {
    row_ptr: Vec<u32>,
    edge_arr: Vec<Edge>,
    terminals: Vec<usize>,
    truncated: bool,
    edges: usize,
    verdict: Option<StreamingVerdict>,
}

/// One-line stderr warning when an exploration hits its `max_configs`
/// bound: callers routinely ignore the `truncated` flag, and a silently
/// partial graph invalidates every analysis run on it. Emitted once per
/// process (a benchmark timing loop may truncate thousands of times); the
/// cause is always recorded per graph in [`ExploreMetrics`].
fn warn_truncated(cap: usize, configs: usize) {
    warn_once(
        "truncated",
        &format!(
            "modelcheck: WARNING: exploration truncated at max_configs = {cap} \
             ({configs} configs kept); analyses on this graph are partial \
             (further truncation warnings suppressed for this process)"
        ),
    );
}

/// One-line stderr hint when an in-memory exploration truncates on its
/// hot-tier byte budget: the disk store lifts exactly this bound.
fn warn_budget_truncated(budget: usize, configs: usize) {
    warn_once(
        "budget_truncated",
        &format!(
            "modelcheck: WARNING: exploration truncated at store_budget_bytes = \
             {budget} ({configs} configs kept); analyses on this graph are \
             partial. Set MC_STORE=disk (or \
             ExploreOptions::with_store(StoreBackend::Disk)) to spill cold \
             state to disk instead of truncating (further budget-truncation \
             warnings suppressed for this process)"
        ),
    );
}

/// Runs the level-synchronized BFS against `store` (already seeded with
/// node 0), expanding large levels across `workers` threads, and freezes
/// the resulting adjacency into CSR form. All reduction logic (symmetry,
/// POR, the cycle proviso) lives here.
fn explore_core(
    store: &mut CompactStore,
    opts: &ExploreOptions,
    rec: &Recorder,
    workers: usize,
) -> Result<GraphCore, SimError> {
    // Flat (from, edge) buffer, frozen into CSR at the end.
    let mut edge_buf: Vec<(u32, Edge)> = Vec::new();
    let mut terminals = Vec::new();
    let mut truncated = false;
    // Streaming-verdict accumulator (verdict goal only). Fed inside the
    // merge loop; consulted once per level, after the revisits, so the
    // exit point — and with it the explored-config count — is identical
    // for every level split and store backend.
    let mut engine = match &opts.goal {
        ExploreGoal::FullGraph => None,
        ExploreGoal::Verdict(query) => Some(VerdictEngine::new(query.clone())),
    };
    let mut early_exit = false;

    // Per-node exploration bookkeeping. `depth` (first-discovery BFS
    // level) doubles as the cycle proviso's back-edge detector; the
    // rest is sleep-set state, all-zero without POR.
    let mut depth: Vec<u32> = vec![0];
    let mut first_sleep: Vec<u64> = vec![0];
    let mut explored: Vec<u64> = vec![0]; // pids fired or enqueued-and-merged
    let mut slept: Vec<u64> = vec![0]; // pids suppressed by sleep sets
    let mut pending: Vec<u64> = vec![0]; // pids enqueued, not yet merged
    let mut expanded: Vec<bool> = vec![false];
    let mut full: Vec<bool> = vec![false]; // escalated by the proviso

    let mut level = vec![WorkItem {
        node: 0,
        fire: 0,
        sleep: 0,
        fresh: true,
    }];
    let mut cur_depth: u32 = 0;
    let mut scratch: Vec<Edge> = Vec::new();
    // Memory-budget truncation: with an explicit hot-tier budget but no
    // spill to honor it, the level loop stops *adding* nodes
    // once the resident estimate crosses the budget — a clean, recorded
    // truncation instead of unbounded growth.
    let mem_budget = if store.spilling() {
        None
    } else {
        opts.effective_store_budget()
    };
    let mut frontier_ids: Vec<usize> = Vec::new();
    while !level.is_empty() {
        // Four clock reads per level: the store, expand and merge phases
        // are chained laps, and their sum is the level's trace record.
        let t_level = Instant::now();
        let nodes_before = depth.len();
        frontier_ids.clear();
        frontier_ids.extend(level.iter().map(|it| it.node));
        store.begin_level(&frontier_ids);
        let t_expand = rec.lap(Phase::Store, t_level);
        let over_budget = mem_budget.is_some_and(|b| store.resident_estimate() > b);
        let level_cap = if over_budget { 0 } else { opts.max_configs };
        let ctx = LevelCtx {
            level: cur_depth,
            nodes: nodes_before,
            frontier: level.len(),
            remaining: opts.max_configs.saturating_sub(nodes_before),
        };
        let expansions = expand_level(&*store, &first_sleep, &level, opts, ctx, workers)?;
        let split = expansions.len();
        let t_merge = rec.lap(Phase::Expand, t_expand);
        let mut next_level: Vec<WorkItem> = Vec::new();
        // POR: edges into already-known nodes; processed only after the
        // whole level has merged, because the target's own expansion may
        // merge later in this same level.
        let mut revisits: Vec<(usize, u64)> = Vec::new();
        for (item, exp) in level.iter().zip(expansions.into_iter().flatten()) {
            let i = item.node;
            if exp.terminal {
                terminals.push(i);
                expanded[i] = true;
                if let Some(eng) = engine.as_mut() {
                    eng.on_terminal(store.terminal_facts(i));
                }
                continue;
            }
            let mut escalate = false;
            scratch.clear();
            rec.count_sleep_pruned(u64::from(exp.slept.count_ones()));
            for (pid, step, succ_sleep) in exp.steps {
                let (j, known) = match step {
                    StepResult::Existing(j) => {
                        rec.count_dedup_hits(1);
                        (j, true)
                    }
                    // A worker's miss can be an earlier merge of this same
                    // level; `insert` re-checks before adding.
                    StepResult::Fresh(next) => match store.insert(next, level_cap) {
                        MergeSlot::Known(j) => {
                            rec.count_dedup_hits(1);
                            (j, true)
                        }
                        MergeSlot::Capped => {
                            rec.count_capped(1);
                            match mem_budget {
                                Some(b) if over_budget => rec.set_budget_truncated(b),
                                _ => rec.set_truncated(opts.max_configs),
                            }
                            truncated = true;
                            continue;
                        }
                        MergeSlot::Added(j) => {
                            rec.count_added(1);
                            assert!(j < u32::MAX as usize, "state graph exceeds u32 node ids");
                            depth.push(cur_depth + 1);
                            first_sleep.push(succ_sleep);
                            explored.push(0);
                            slept.push(0);
                            pending.push(0);
                            expanded.push(false);
                            full.push(false);
                            next_level.push(WorkItem {
                                node: j,
                                fire: 0,
                                sleep: 0,
                                fresh: true,
                            });
                            (j, false)
                        }
                    },
                };
                if known && depth[j] <= depth[i] {
                    // Retreating edge — the only kind that can close a
                    // cycle (depth deltas are <= +1 per edge and sum to 0
                    // around a cycle). Triggers the POR cycle proviso and
                    // registers a streaming cycle-check candidate.
                    if opts.por {
                        escalate = true;
                    }
                    if let Some(eng) = engine.as_mut() {
                        eng.on_retreating_edge();
                    }
                }
                if opts.por && known {
                    revisits.push((j, succ_sleep));
                }
                scratch.push(Edge { pid, to: j as u32 });
            }
            // Canonicalization can map distinct successors of one node
            // onto the same representative; drop the parallel
            // duplicates (the full graph never produces them). One
            // sort+dedup per expansion replaces the old O(deg²)
            // `contains` scan, and per-expansion dedup is per-node
            // dedup: a pid never fires twice for one node, so
            // duplicates cannot span expansions.
            if opts.symmetry {
                scratch.sort_unstable_by_key(|e| (e.pid.index(), e.to));
                scratch.dedup();
            }
            edge_buf.extend(scratch.drain(..).map(|e| (i as u32, e)));
            expanded[i] = true;
            explored[i] |= exp.fired;
            pending[i] &= !exp.fired;
            slept[i] = (slept[i] | exp.slept) & !explored[i];
            if opts.por && escalate && !full[i] {
                // Cycle proviso: fully expand one node per cycle so no
                // enabled process is ignored around it. Everything not
                // yet fired or in flight is fired next level, sleep
                // ignored.
                full[i] = true;
                let enabled = store.enabled_bits(i);
                let rest = enabled & !explored[i] & !pending[i];
                slept[i] = 0;
                if rest != 0 {
                    pending[i] |= rest;
                    next_level.push(WorkItem {
                        node: i,
                        fire: rest,
                        sleep: 0,
                        fresh: false,
                    });
                }
            }
            // Mid-merge heartbeat: the whole level's expansions are
            // already in the counter, so a long merge after a huge
            // expansion still reports within one interval of it.
            rec.heartbeat(
                cur_depth,
                depth.len(),
                level.len(),
                opts.max_configs.saturating_sub(depth.len()),
            );
        }
        // Sleep-set revisit rule: reaching a known node along a new
        // path whose sleep set no longer covers a previously-suppressed
        // pid re-fires exactly that pid. Processed after the level's
        // merges so `expanded`/`slept` are final for the level.
        for (j, new_sleep) in revisits {
            if !expanded[j] {
                // First expansion still queued: shrink the sleep set it
                // will start from instead.
                first_sleep[j] &= new_sleep;
                continue;
            }
            let wake = slept[j] & !new_sleep;
            if wake != 0 {
                slept[j] &= !wake;
                pending[j] |= wake;
                next_level.push(WorkItem {
                    node: j,
                    fire: wake,
                    sleep: new_sleep,
                    fresh: false,
                });
            }
        }
        rec.record_peak_bytes(store.resident_estimate());
        // Level-granular verdict evaluation: at most one cycle check per
        // level, then exit if any queried conjunct is refuted.
        if let Some(eng) = engine.as_mut() {
            if eng.wants_cycle_check() {
                eng.record_cycle_check(edge_buf_has_cycle(depth.len(), &edge_buf));
            }
            early_exit = eng.refutation().is_some();
        }
        let t_end = rec.lap(Phase::Merge, t_merge);
        rec.record_level(
            level.len(),
            split,
            depth.len() - nodes_before,
            depth.len(),
            edge_buf.len(),
            t_end - t_level,
        );
        rec.heartbeat(
            cur_depth,
            depth.len(),
            next_level.len(),
            opts.max_configs.saturating_sub(depth.len()),
        );
        if early_exit {
            break;
        }
        level = next_level;
        cur_depth += 1;
    }
    terminals.sort_unstable();
    terminals.dedup();
    let verdict = engine.map(|mut eng| {
        if !truncated && !early_exit && eng.needs_final_cycle_check() {
            // A cycle through an old retreating candidate may only have
            // closed after that candidate's level was checked; completion
            // therefore re-checks once over the final edge buffer.
            eng.record_cycle_check(edge_buf_has_cycle(depth.len(), &edge_buf));
        }
        eng.finish(
            truncated.then_some(opts.max_configs),
            early_exit,
            depth.len(),
        )
    });
    let edges = edge_buf.len();
    let (row_ptr, edge_arr) = if verdict.is_some() {
        // Verdict goal: nobody reads the CSR — skip the freeze entirely.
        (Vec::new(), Vec::new())
    } else {
        let t_freeze = Instant::now();
        let csr = freeze_csr(depth.len(), &edge_buf);
        rec.lap(Phase::Freeze, t_freeze);
        csr
    };
    Ok(GraphCore {
        row_ptr,
        edge_arr,
        terminals,
        truncated,
        edges,
        verdict,
    })
}

/// Cycle check over the in-flight edge buffer: freezes a throwaway CSR
/// and runs [`csr_has_cycle`] on it. Part of the streaming merge work,
/// not a freeze: under a verdict goal `freeze_calls` stays 0.
fn edge_buf_has_cycle(n: usize, edge_buf: &[(u32, Edge)]) -> bool {
    let (row_ptr, edges) = freeze_csr(n, edge_buf);
    csr_has_cycle(&row_ptr, &edges)
}

/// Whether the CSR graph `(row_ptr, edges)` has a directed cycle: an
/// iterative three-color DFS (0 = white, 1 = on stack, 2 = done).
fn csr_has_cycle(row_ptr: &[u32], edges: &[Edge]) -> bool {
    let n = row_ptr.len() - 1;
    let mut color = vec![0u8; n];
    // Stack of (node, next edge offset).
    let mut stack: Vec<(u32, u32)> = Vec::new();
    for root in 0..n as u32 {
        if color[root as usize] != 0 {
            continue;
        }
        color[root as usize] = 1;
        stack.push((root, row_ptr[root as usize]));
        while let Some(&mut (v, ref mut e)) = stack.last_mut() {
            if *e == row_ptr[v as usize + 1] {
                color[v as usize] = 2;
                stack.pop();
                continue;
            }
            let w = edges[*e as usize].to;
            *e += 1;
            match color[w as usize] {
                0 => {
                    color[w as usize] = 1;
                    stack.push((w, row_ptr[w as usize]));
                }
                1 => return true, // back edge: cycle
                _ => {}
            }
        }
    }
    false
}

/// Freezes a flat `(from, edge)` buffer into CSR adjacency: a stable
/// counting sort by source node (edges of one node keep their merge
/// order).
fn freeze_csr(n: usize, edge_buf: &[(u32, Edge)]) -> (Vec<u32>, Vec<Edge>) {
    assert!(
        edge_buf.len() < u32::MAX as usize,
        "state graph exceeds u32 edge ids"
    );
    let mut row_ptr = vec![0u32; n + 1];
    for &(from, _) in edge_buf {
        row_ptr[from as usize + 1] += 1;
    }
    for k in 0..n {
        row_ptr[k + 1] += row_ptr[k];
    }
    let mut cursor: Vec<u32> = row_ptr[..n].to_vec();
    let mut edge_arr = vec![
        Edge {
            pid: Pid::new(0),
            to: 0
        };
        edge_buf.len()
    ];
    for &(from, e) in edge_buf {
        let c = &mut cursor[from as usize];
        edge_arr[*c as usize] = e;
        *c += 1;
    }
    (row_ptr, edge_arr)
}

impl StateGraph {
    /// Exhaustively explores `spec` from its initial configuration,
    /// breadth-first. Each depth level of at least 32 items is expanded
    /// across the host's hardware threads; the merge order makes the
    /// resulting graph identical node-for-node to a sequential one.
    ///
    /// With `opts.symmetry`, the result is the **orbit-quotient** graph:
    /// every configuration is replaced by the canonical representative of
    /// its orbit under the system's [symmetry
    /// groups](subconsensus_sim::SystemSpec::symmetry_groups) before dedup,
    /// so whole orbits collapse to single nodes. Because within-group
    /// permutations are automorphisms of the full graph, the quotient
    /// preserves reachability of any permutation-closed property —
    /// decided-value sets, bivalence, termination, cycles — which is what
    /// the valency and wait-freedom analyses consume. Edges carry the pid
    /// that stepped *from the representative*, so a
    /// [`witness_schedule`](Self::witness_schedule) drawn from a quotient
    /// graph reaches the predicate only up to a within-group renaming of
    /// processes when replayed against the concrete system.
    ///
    /// With `opts.por`, the result is a **partial-order-reduced** subgraph
    /// (see the module docs): it reaches exactly the same terminal
    /// configurations, preserving the `properties.rs` verdicts and the
    /// root valence, through fewer interior configurations and strictly
    /// fewer redundant interleavings. Interior valences are *not*
    /// preserved, so `find_critical` rejects such graphs. POR composes
    /// with `symmetry` (pruning happens first, canonicalization second)
    /// and with the level split (all reduction decisions are made in the
    /// sequential merge, so the graph does not depend on it).
    ///
    /// If the bound in `opts` is hit, the returned graph is marked
    /// [`truncated`](Self::is_truncated) and all analyses on it are partial.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] raised while stepping.
    pub fn explore(spec: &SystemSpec, opts: &ExploreOptions) -> Result<Self, SimError> {
        Self::explore_with(spec, opts, &Recorder::from_env())
    }

    /// [`explore`](Self::explore) with an explicit telemetry [`Recorder`]
    /// (progress callback and event log — see the `Recorder` builders).
    /// The recorder is write-only from the explorer's point of view, so
    /// the produced graph is node-for-node
    /// identical to an uninstrumented exploration; the final snapshot is
    /// available as [`metrics`](Self::metrics) (and through
    /// [`Recorder::snapshot`] on `rec` itself).
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] raised while stepping.
    pub fn explore_with(
        spec: &SystemSpec,
        opts: &ExploreOptions,
        rec: &Recorder,
    ) -> Result<Self, SimError> {
        Self::explore_split(spec, opts, rec, host_parallelism())
    }

    /// [`explore_with`](Self::explore_with) splitting large levels into
    /// at most `workers` chunks instead of one per hardware thread (the
    /// unit tests force splits through it on any host).
    fn explore_split(
        spec: &SystemSpec,
        opts: &ExploreOptions,
        rec: &Recorder,
        workers: usize,
    ) -> Result<Self, SimError> {
        let mut opts = opts.clone();
        // Fast path: a system whose symmetry groups are all singletons has
        // an identity canonicalization, so requesting symmetry would only
        // burn time re-checking sortedness and re-sorting edges. Normalize
        // the flag once; everything downstream branches on the effective
        // value.
        opts.symmetry = opts.symmetry && !spec.symmetry_groups().is_trivial();
        if rec.has_log() {
            rec.log_start(spec.spec_fingerprint(), &opts.to_json());
        }
        // The start event's write (and the first one's git subprocess)
        // belongs to no phase of the exploration.
        let t_start = Instant::now();
        let init = if opts.symmetry {
            spec.canonicalize_config(spec.initial_config())
        } else {
            spec.initial_config()
        };
        let mut store = CompactStore::new(spec, rec, &init);
        if opts.effective_store() == StoreBackend::Disk {
            store.enable_spill(opts.effective_store_budget().unwrap_or(DEFAULT_DISK_BUDGET));
            rec.mark_store_active();
        }
        rec.lap(Phase::Setup, t_start);
        let core = explore_core(&mut store, &opts, rec, workers).map_err(|e| {
            // A failed run still closes its log entry.
            if rec.has_log() {
                let error = subconsensus_sim::json::json_escape(&e.to_string());
                let outcome = format!("{{\"kind\": \"error\", \"error\": \"{error}\"}}");
                rec.log_end(&outcome, &rec.snapshot());
            }
            e
        })?;
        // Reconstitute before freezing (bit-identical to an in-memory
        // run: the arenas never left RAM and the rows come back in id
        // order); the spill drops here, removing its run directory.
        let t_unspill = Instant::now();
        store.unspill();
        rec.lap(Phase::Store, t_unspill);
        let CompactStore {
            interner,
            nobjects,
            stride,
            words,
            len,
            ..
        } = store;
        let mut graph = StateGraph {
            nodes: InternedNodes {
                interner,
                nobjects,
                stride,
                words,
                len,
            },
            row_ptr: core.row_ptr,
            edge_arr: core.edge_arr,
            terminals: core.terminals,
            truncated: core.truncated,
            por: opts.por,
            metrics: ExploreMetrics::default(),
            verdict: core.verdict,
        };
        rec.lap(Phase::Total, t_start);
        let mut metrics = rec.snapshot();
        metrics.configs = graph.len();
        // Under a verdict goal the CSR is never frozen; `core.edges`
        // keeps the true recorded edge count either way.
        metrics.edges = core.edges;
        // Peak residency: the larger of the per-level store estimates
        // recorded during exploration and the frozen graph's footprint
        // (the estimates cover rows + arenas + index, which the frozen
        // footprint alone understated before).
        metrics.peak_bytes = metrics.peak_bytes.max(graph.approx_bytes());
        graph.metrics = metrics;
        if graph.truncated {
            if let TruncationCause::MemoryBudget { budget } = graph.metrics.truncation {
                warn_budget_truncated(budget, graph.len());
            } else {
                warn_truncated(opts.max_configs, graph.len());
            }
        }
        // The run's `end` event, strictly after the graph is complete so
        // logged and log-free runs stay node-for-node identical.
        if rec.has_log() {
            let outcome = match &graph.verdict {
                Some(v) => format!("{{\"kind\": \"verdict\", \"verdict\": {}}}", v.to_json()),
                None => format!(
                    "{{\"kind\": \"graph\", \"configs\": {}, \"edges\": {}, \
                     \"terminals\": {}, \"truncated\": {}}}",
                    graph.len(),
                    graph.metrics.edges,
                    graph.terminals.len(),
                    graph.truncated
                ),
            };
            rec.log_end(&outcome, &graph.metrics);
        }
        Ok(graph)
    }

    /// The telemetry snapshot of the exploration that built this graph:
    /// counters, per-level records and phase wall times.
    pub fn metrics(&self) -> &ExploreMetrics {
        &self.metrics
    }

    /// Returns the number of distinct reachable configurations.
    pub fn len(&self) -> usize {
        self.nodes.len
    }

    /// Returns `true` if the graph has no configurations (never happens for a
    /// successfully explored system, which always has the initial one).
    pub fn is_empty(&self) -> bool {
        self.nodes.len == 0
    }

    /// Returns `true` if the exploration hit its bound.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Returns `true` if this graph was explored with partial-order
    /// reduction ([`ExploreOptions::por`]): a sound *subgraph* of the full
    /// graph that preserves terminals, the `properties.rs` verdicts and the
    /// root valence, but not interior valences (so `find_critical` rejects
    /// it).
    pub fn is_por_reduced(&self) -> bool {
        self.por
    }

    /// The streaming verdict accumulated during an
    /// [`ExploreGoal::Verdict`] exploration; `None` for a
    /// [`ExploreGoal::FullGraph`] one.
    pub fn verdict(&self) -> Option<&StreamingVerdict> {
        self.verdict.as_ref()
    }

    /// Returns `true` if this graph was explored under
    /// [`ExploreGoal::Verdict`]: the streaming verdict is available via
    /// [`verdict`](Self::verdict), but the CSR adjacency was never frozen
    /// (and the exploration may have stopped at the first refutation), so
    /// every graph-structure analysis — [`edges`](Self::edges),
    /// [`reverse_csr`](Self::reverse_csr), [`has_cycle`](Self::has_cycle),
    /// [`witness_schedule`](Self::witness_schedule), [`stats`](Self::stats),
    /// DOT export, `find_critical` — panics with a clear message instead
    /// of indexing empty CSR arrays.
    pub fn is_verdict_only(&self) -> bool {
        self.verdict.is_some()
    }

    /// Panics with an actionable message when a CSR-consuming analysis is
    /// called on a verdict-only graph.
    fn require_csr(&self, what: &str) {
        assert!(
            !self.is_verdict_only(),
            "StateGraph::{what} needs the frozen CSR adjacency, but this \
             graph was explored under ExploreGoal::Verdict, which skips the \
             freeze and reverse-CSR phases (and may stop exploring at the \
             first refutation); re-explore with ExploreGoal::FullGraph to \
             run graph-structure analyses",
        );
    }

    /// An id-native [`NodeView`] of node `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn node(&self, index: usize) -> NodeView<'_> {
        assert!(index < self.nodes.len, "node index out of range");
        NodeView { graph: self, index }
    }

    /// Returns the configuration at `index`.
    ///
    /// Owned because it is materialized from the node's id words on
    /// demand; the cost is per-slot `Arc` clones, no state is deep-copied.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn config(&self, index: usize) -> Config {
        let nodes = &self.nodes;
        assert!(index < nodes.len, "node index out of range");
        nodes.interner.materialize_words(
            nodes.nobjects,
            &nodes.words[index * nodes.stride..(index + 1) * nodes.stride],
        )
    }

    /// Interner statistics of the exploration: arena sizes, hit rates and
    /// footprint. Always `Some`, since every graph is hash-consed.
    pub fn interner_stats(&self) -> Option<InternerStats> {
        Some(self.nodes.interner.stats())
    }

    /// Returns the outgoing edges of node `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn edges(&self, index: usize) -> &[Edge] {
        self.require_csr("edges");
        let lo = self.row_ptr[index] as usize;
        let hi = self.row_ptr[index + 1] as usize;
        &self.edge_arr[lo..hi]
    }

    /// Returns the indices of the final configurations (no process enabled).
    pub fn terminals(&self) -> &[usize] {
        &self.terminals
    }

    /// Approximate resident bytes of the frozen graph: the node arena
    /// (`stride` id words per node plus the interner's hash tables and
    /// unique states), the CSR arrays and the terminal list.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        // The interner IS the state storage, so its tables and unique
        // states are part of the honest footprint (they count toward the
        // disk store's budget too).
        let s = self.nodes.interner.stats();
        self.nodes.words.len() * size_of::<u32>()
            + s.table_bytes
            + s.state_bytes
            + self.row_ptr.len() * size_of::<u32>()
            + self.edge_arr.len() * size_of::<Edge>()
            + self.terminals.len() * size_of::<usize>()
    }

    /// Builds the reverse (predecessor) adjacency of the graph in CSR form:
    /// `row_ptr[j]..row_ptr[j + 1]` indexes node `j`'s slice of a flat
    /// predecessor-node array. Parallel edges are kept, so the predecessor
    /// multiset mirrors the forward edge multiset exactly.
    ///
    /// One O(nodes + edges) counting sort; backward passes (valency
    /// propagation, non-blocking pruning) consume this instead of
    /// rescanning the forward adjacency per iteration.
    pub fn reverse_csr(&self) -> (Vec<u32>, Vec<u32>) {
        self.require_csr("reverse_csr");
        let n = self.len();
        let mut row_ptr = vec![0u32; n + 1];
        for e in &self.edge_arr {
            row_ptr[e.target() + 1] += 1;
        }
        for k in 0..n {
            row_ptr[k + 1] += row_ptr[k];
        }
        let mut cursor: Vec<u32> = row_ptr[..n].to_vec();
        let mut preds = vec![0u32; self.edge_arr.len()];
        for i in 0..n {
            for e in self.edges(i) {
                let c = &mut cursor[e.target()];
                preds[*c as usize] = i as u32;
                *c += 1;
            }
        }
        (row_ptr, preds)
    }

    /// Computes summary statistics of the graph.
    pub fn stats(&self) -> GraphStats {
        self.require_csr("stats");
        use std::collections::VecDeque;
        let n = self.nodes.len;
        let max_out_degree = (0..n)
            .map(|i| (self.row_ptr[i + 1] - self.row_ptr[i]) as usize)
            .max()
            .unwrap_or(0);
        // BFS depth from the initial configuration.
        let mut depth = vec![usize::MAX; n];
        let mut queue = VecDeque::new();
        depth[0] = 0;
        queue.push_back(0usize);
        let mut max_depth = 0;
        while let Some(i) = queue.pop_front() {
            for e in self.edges(i) {
                if depth[e.target()] == usize::MAX {
                    depth[e.target()] = depth[i] + 1;
                    max_depth = max_depth.max(depth[e.target()]);
                    queue.push_back(e.target());
                }
            }
        }
        GraphStats {
            configs: n,
            edges: self.edge_arr.len(),
            terminals: self.terminals.len(),
            max_out_degree,
            max_depth,
            truncated: self.truncated,
        }
    }

    /// Returns a schedule (sequence of stepping pids) leading from the
    /// initial configuration to the first (BFS-closest) node satisfying
    /// `pred`, or `None` if no reachable configuration satisfies it.
    ///
    /// The returned schedule can be replayed with
    /// [`ReplayScheduler`](subconsensus_sim::ReplayScheduler) to reproduce
    /// the configuration in a normal run — this is how counterexamples
    /// (e.g. a disagreeing consensus schedule) are surfaced to users.
    ///
    /// The predicate receives an id-native [`NodeView`], so probing every
    /// node costs id lookups, not a deep `Config` materialization per
    /// probe ([`NodeView::config`] is still there when the whole
    /// configuration is needed).
    pub fn witness_schedule<F>(&self, pred: F) -> Option<Vec<Pid>>
    where
        F: Fn(&NodeView<'_>) -> bool,
    {
        self.require_csr("witness_schedule");
        use std::collections::VecDeque;
        // parent[i] = (predecessor node, pid that stepped), for BFS tree.
        let mut parent: Vec<Option<(usize, Pid)>> = vec![None; self.nodes.len];
        let mut seen = vec![false; self.nodes.len];
        let mut queue = VecDeque::new();
        seen[0] = true;
        queue.push_back(0usize);
        while let Some(i) = queue.pop_front() {
            if pred(&self.node(i)) {
                // Reconstruct the schedule back to the root.
                let mut schedule = Vec::new();
                let mut cur = i;
                while let Some((prev, pid)) = parent[cur] {
                    schedule.push(pid);
                    cur = prev;
                }
                schedule.reverse();
                return Some(schedule);
            }
            for e in self.edges(i) {
                if !seen[e.target()] {
                    seen[e.target()] = true;
                    parent[e.target()] = Some((i, e.pid));
                    queue.push_back(e.target());
                }
            }
        }
        None
    }

    /// Returns `true` if the configuration graph contains a directed cycle.
    ///
    /// No cycle means every execution of the system is finite; since a
    /// process that keeps taking steps in a finite acyclic execution space
    /// must reach a decision, acyclicity witnesses wait-freedom for
    /// bounded protocols.
    pub fn has_cycle(&self) -> bool {
        self.require_csr("has_cycle");
        csr_has_cycle(&self.row_ptr, &self.edge_arr)
    }

    /// Renders the graph in Graphviz DOT form: one node line per
    /// configuration (the root bold, terminals double-circled) and one
    /// edge line per CSR edge, labeled with the stepping pid. Meant for
    /// small (reduced) graphs — the first human-readable view of an
    /// explored quotient.
    pub fn to_dot(&self) -> String {
        self.require_csr("to_dot");
        self.render_dot(&[])
    }

    /// [`to_dot`](Self::to_dot) with the edges along `schedule` (a witness
    /// schedule, walked from the root by firing each pid's first matching
    /// edge) highlighted in red.
    pub fn to_dot_with_schedule(&self, schedule: &[Pid]) -> String {
        self.require_csr("to_dot_with_schedule");
        let mut highlight = vec![false; self.edge_arr.len()];
        let mut cur = 0usize;
        for &pid in schedule {
            let lo = self.row_ptr[cur] as usize;
            let hi = self.row_ptr[cur + 1] as usize;
            let Some(k) = (lo..hi).find(|&k| self.edge_arr[k].pid == pid) else {
                break;
            };
            highlight[k] = true;
            cur = self.edge_arr[k].target();
        }
        self.render_dot(&highlight)
    }

    fn render_dot(&self, highlight: &[bool]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("digraph stategraph {\n  rankdir=LR;\n  node [shape=circle];\n");
        let mut is_terminal = vec![false; self.len()];
        for &t in &self.terminals {
            is_terminal[t] = true;
        }
        for (i, &term) in is_terminal.iter().enumerate() {
            let shape = if term { " shape=doublecircle" } else { "" };
            let style = if i == 0 { " style=bold" } else { "" };
            let _ = writeln!(out, "  n{i} [label=\"{i}\"{shape}{style}];");
        }
        for i in 0..self.len() {
            for k in self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize {
                let e = self.edge_arr[k];
                let extra = if highlight.get(k).copied().unwrap_or(false) {
                    " color=red penwidth=2"
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "  n{i} -> n{} [label=\"p{}\"{extra}];",
                    e.target(),
                    e.pid.index()
                );
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, RefGraph};
    use std::collections::HashSet;
    use std::sync::Arc;
    use subconsensus_sim::{
        Action, ObjId, ObjectError, ObjectSpec, Op, Outcome, ProcCtx, Protocol, ProtocolError,
        SystemBuilder, Value,
    };

    #[derive(Debug)]
    struct Reg;

    impl ObjectSpec for Reg {
        fn type_name(&self) -> &'static str {
            "reg"
        }

        fn initial_state(&self) -> Value {
            Value::Nil
        }

        fn apply(&self, state: &Value, op: &Op) -> Result<Vec<Outcome>, ObjectError> {
            match op.name {
                "read" => Ok(vec![Outcome::ret(state.clone(), state.clone())]),
                "write" => Ok(vec![Outcome::ret(
                    op.arg(0).cloned().unwrap_or(Value::Nil),
                    Value::Nil,
                )]),
                _ => Err(ObjectError::UnknownOp {
                    object: "reg",
                    op: op.clone(),
                }),
            }
        }
    }

    /// Write your input, read, decide what you read.
    #[derive(Debug)]
    struct WriteReadDecide {
        reg: ObjId,
    }

    impl Protocol for WriteReadDecide {
        fn start(&self, _ctx: &ProcCtx) -> Value {
            Value::Int(0)
        }

        fn step(
            &self,
            ctx: &ProcCtx,
            local: &Value,
            resp: Option<&Value>,
        ) -> Result<Action, ProtocolError> {
            match local.as_int() {
                Some(0) => Ok(Action::invoke(
                    Value::Int(1),
                    self.reg,
                    Op::unary("write", ctx.input.clone()),
                )),
                Some(1) => Ok(Action::invoke(Value::Int(2), self.reg, Op::new("read"))),
                _ => Ok(Action::Decide(resp.cloned().unwrap_or(Value::Nil))),
            }
        }

        fn pid_symmetric(&self) -> bool {
            true
        }
    }

    /// Loop forever re-reading.
    #[derive(Debug)]
    struct Spinner {
        reg: ObjId,
    }

    impl Protocol for Spinner {
        fn start(&self, _ctx: &ProcCtx) -> Value {
            Value::Nil
        }

        fn step(
            &self,
            _ctx: &ProcCtx,
            _local: &Value,
            _resp: Option<&Value>,
        ) -> Result<Action, ProtocolError> {
            Ok(Action::invoke(Value::Nil, self.reg, Op::new("read")))
        }
    }

    /// One [`WriteReadDecide`] process per input, all on one register.
    /// Processes with equal inputs form a symmetry group.
    fn race_spec_with(inputs: impl IntoIterator<Item = i64>) -> SystemSpec {
        let mut b = SystemBuilder::new();
        let reg = b.add_object(Reg);
        let p = Arc::new(WriteReadDecide { reg });
        b.add_processes(p, inputs.into_iter().map(Value::Int));
        b.build()
    }

    /// `nprocs` distinct-input processes racing on one register.
    fn race_spec(nprocs: usize) -> SystemSpec {
        race_spec_with(1..=nprocs as i64)
    }

    /// Two pairs of equal-input processes racing on one register: every
    /// symmetry × POR combination still has BFS levels of 32+ items.
    fn paired_race_spec() -> SystemSpec {
        race_spec_with([1, 1, 2, 2])
    }

    /// Two register-backed WriteReadDecide processes per block, each block
    /// on its own register, with declared footprints — the shape POR's
    /// static conflict components reduce.
    fn blocked_spec(blocks: usize) -> SystemSpec {
        #[derive(Debug)]
        struct BlockedWrd {
            reg: ObjId,
        }

        impl Protocol for BlockedWrd {
            fn start(&self, _ctx: &ProcCtx) -> Value {
                Value::Int(0)
            }

            fn step(
                &self,
                ctx: &ProcCtx,
                local: &Value,
                resp: Option<&Value>,
            ) -> Result<Action, ProtocolError> {
                match local.as_int() {
                    Some(0) => Ok(Action::invoke(
                        Value::Int(1),
                        self.reg,
                        Op::unary("write", ctx.input.clone()),
                    )),
                    Some(1) => Ok(Action::invoke(Value::Int(2), self.reg, Op::new("read"))),
                    _ => Ok(Action::Decide(resp.cloned().unwrap_or(Value::Nil))),
                }
            }

            fn obj_footprint(&self, _ctx: &ProcCtx) -> Option<Vec<ObjId>> {
                Some(vec![self.reg])
            }
        }

        let mut b = SystemBuilder::new();
        for blk in 0..blocks {
            let reg = b.add_object(Reg);
            let p = Arc::new(BlockedWrd { reg });
            for i in 0..2 {
                b.add_process(p.clone(), Value::Int((2 * blk + i) as i64 + 1));
            }
        }
        b.build()
    }

    #[test]
    fn solo_graph_is_a_path() {
        let g = StateGraph::explore(&race_spec(1), &ExploreOptions::default()).unwrap();
        assert_eq!(g.len(), 4, "init, wrote, read, decided");
        assert_eq!(g.terminals().len(), 1);
        assert!(!g.has_cycle());
        assert!(!g.is_truncated());
        assert!(!g.is_empty());
        assert!(!g.is_por_reduced());
    }

    #[test]
    fn two_process_race_has_multiple_terminals() {
        let g = StateGraph::explore(&race_spec(2), &ExploreOptions::default()).unwrap();
        assert!(
            g.terminals().len() > 1,
            "different interleavings end differently"
        );
        assert!(!g.has_cycle());
        // Every terminal has both processes decided on some written value.
        for &t in g.terminals() {
            let decided = g.config(t).decided_values();
            assert!(!decided.is_empty());
            for v in decided {
                assert!(v == Value::Int(1) || v == Value::Int(2));
            }
        }
    }

    #[test]
    fn spinner_produces_a_cycle() {
        let mut b = SystemBuilder::new();
        let reg = b.add_object(Reg);
        b.add_process(Arc::new(Spinner { reg }), Value::Nil);
        let spec = b.build();
        let g = StateGraph::explore(&spec, &ExploreOptions::default()).unwrap();
        assert!(g.has_cycle());
        assert!(g.terminals().is_empty());
    }

    #[test]
    fn truncation_is_reported() {
        let g = StateGraph::explore(&race_spec(3), &ExploreOptions::with_max_configs(5)).unwrap();
        assert!(g.is_truncated());
        assert!(g.len() <= 5);
    }

    #[test]
    fn stats_summarize_the_graph() {
        let g = StateGraph::explore(&race_spec(1), &ExploreOptions::default()).unwrap();
        let s = g.stats();
        assert_eq!(s.configs, 4);
        assert_eq!(s.edges, 3, "a solo path");
        assert_eq!(s.terminals, 1);
        assert_eq!(s.max_out_degree, 1);
        assert_eq!(s.max_depth, 3);
        assert!(!s.truncated);
        assert!(s.to_string().contains("4 configs"));

        let g2 = StateGraph::explore(&race_spec(2), &ExploreOptions::default()).unwrap();
        let s2 = g2.stats();
        assert!(s2.max_out_degree >= 2, "two processes can both step");
        assert_eq!(s2.max_depth, 6, "every full execution takes 6 steps");
    }

    #[test]
    fn approx_bytes_scales_with_the_graph() {
        let small = StateGraph::explore(&race_spec(1), &ExploreOptions::default()).unwrap();
        let large = StateGraph::explore(&race_spec(3), &ExploreOptions::default()).unwrap();
        assert!(small.approx_bytes() > 0);
        assert!(large.approx_bytes() > small.approx_bytes());
    }

    #[test]
    fn witness_schedule_reaches_and_replays() {
        use subconsensus_sim::{run, FirstOutcome, ReplayScheduler, RunOptions, Value as V};
        let spec = race_spec(2);
        let g = StateGraph::explore(&spec, &ExploreOptions::default()).unwrap();
        // Find a terminal where P0 decided 2 (it read P1's later write).
        let schedule = g
            .witness_schedule(|c| c.is_final() && c.decisions()[0] == Some(V::Int(2)))
            .expect("such a schedule exists");
        // Replay it in a normal run and observe the same outcome.
        let mut sched = ReplayScheduler::new(schedule);
        let out = run(&spec, &mut sched, &mut FirstOutcome, &RunOptions::default()).unwrap();
        assert_eq!(out.decisions()[0], Some(V::Int(2)));
    }

    #[test]
    fn witness_schedule_for_initial_config_is_empty() {
        let g = StateGraph::explore(&race_spec(1), &ExploreOptions::default()).unwrap();
        assert_eq!(g.witness_schedule(|_| true), Some(vec![]));
        assert_eq!(g.witness_schedule(|_| false), None);
    }

    #[test]
    fn edges_record_stepping_pid() {
        let g = StateGraph::explore(&race_spec(2), &ExploreOptions::default()).unwrap();
        let pids: std::collections::HashSet<_> = g.edges(0).iter().map(|e| e.pid).collect();
        assert_eq!(pids.len(), 2, "both processes can step initially");
    }

    /// Explores `spec` with large levels split into at most `workers`
    /// chunks, whatever the host's core count.
    fn explore_split(spec: &SystemSpec, opts: &ExploreOptions, workers: usize) -> StateGraph {
        StateGraph::explore_split(spec, opts, &Recorder::new(), workers).unwrap()
    }

    /// Node-for-node identity of two explorations of one spec.
    fn assert_same_graph(a: &StateGraph, b: &StateGraph, label: &str) {
        assert_eq!(a.len(), b.len(), "{label}: node count");
        for i in 0..a.len() {
            assert_eq!(a.config(i), b.config(i), "{label}: node {i}");
            assert_eq!(a.edges(i), b.edges(i), "{label}: edges of {i}");
        }
        assert_eq!(a.terminals(), b.terminals(), "{label}: terminals");
        assert_eq!(a.is_truncated(), b.is_truncated(), "{label}: truncation");
    }

    /// Levels that ran split, checking that exactly the levels of at least
    /// [`PARALLEL_THRESHOLD`] items were split, into at most `workers`
    /// chunks.
    fn split_levels(g: &StateGraph, workers: usize, label: &str) -> usize {
        let mut split = 0;
        for l in &g.metrics().levels {
            if workers > 1 && l.items >= PARALLEL_THRESHOLD {
                assert!(
                    (2..=workers).contains(&l.workers),
                    "{label}: level {} of {} items ran {} workers",
                    l.level,
                    l.items,
                    l.workers
                );
                split += 1;
            } else {
                assert_eq!(l.workers, 1, "{label}: level {} ran split", l.level);
            }
        }
        split
    }

    /// Splitting levels across 1, 2 or 3 workers — forced here, so the
    /// parallel path runs on a one-core host too — is invisible across
    /// symmetry × POR × store: every cell of one symmetry × POR pair builds
    /// the same graph with the same counters and interner arenas, and
    /// every pair really splits some level.
    #[test]
    fn level_splits_identical_across_matrix() {
        let spec = paired_race_spec();
        let counters = |m: &ExploreMetrics| {
            let items: Vec<usize> = m.levels.iter().map(|l| l.items).collect();
            (
                (m.generated, m.dedup_hits, m.added, m.expansions),
                (m.symmetry_hits, m.sleep_pruned),
                items,
            )
        };
        for symmetry in [false, true] {
            for por in [false, true] {
                let (mut first, mut split) = (None, 0);
                for store in [StoreBackend::Memory, StoreBackend::Disk] {
                    let mut opts = ExploreOptions::default()
                        .with_symmetry(symmetry)
                        .with_por(por)
                        .with_store(store);
                    if store == StoreBackend::Disk {
                        opts = opts.with_store_budget(4 << 10);
                    }
                    for workers in [1usize, 2, 3] {
                        let label = format!("sym={symmetry} por={por} {store:?} x{workers}");
                        let g = explore_split(&spec, &opts, workers);
                        split += split_levels(&g, workers, &label);
                        let cell = (counters(g.metrics()), g.interner_stats());
                        match &first {
                            None => first = Some((g, cell)),
                            Some((base, base_cell)) => {
                                assert_same_graph(base, &g, &label);
                                assert_eq!(&cell, base_cell, "{label}: counters differ");
                            }
                        }
                    }
                }
                assert!(split > 0, "sym={symmetry} por={por}: no level ran split");
            }
        }
    }

    #[test]
    fn truncated_parallel_exploration_matches_sequential() {
        // The cap falls after a split level.
        let spec = paired_race_spec();
        let opts = ExploreOptions::with_max_configs(300);
        let a = explore_split(&spec, &opts, 1);
        let b = explore_split(&spec, &opts, 3);
        assert!(a.is_truncated());
        assert!(split_levels(&b, 3, "cap=300") > 0, "no level ran split");
        assert_same_graph(&a, &b, "cap=300");
    }

    /// Sorted terminal configurations, for comparing graphs whose node
    /// numbering differs (full vs POR-reduced).
    fn terminal_configs(g: &StateGraph) -> Vec<Config> {
        let mut t: Vec<Config> = g.terminals().iter().map(|&i| g.config(i)).collect();
        t.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        t
    }

    #[test]
    fn por_preserves_terminals_exactly() {
        for spec in [race_spec(2), race_spec(3), blocked_spec(2)] {
            let full = StateGraph::explore(&spec, &ExploreOptions::default()).unwrap();
            let red =
                StateGraph::explore(&spec, &ExploreOptions::default().with_por(true)).unwrap();
            assert!(red.is_por_reduced());
            assert!(!red.is_truncated());
            assert!(red.len() <= full.len());
            assert!(red.stats().edges <= full.stats().edges);
            assert_eq!(terminal_configs(&red), terminal_configs(&full));
        }
    }

    #[test]
    fn por_reduces_statically_independent_blocks() {
        // Two 2-process blocks on disjoint registers with declared
        // footprints: the blocks interleave freely in the full graph, but
        // POR serializes them.
        let spec = blocked_spec(2);
        let full = StateGraph::explore(&spec, &ExploreOptions::default()).unwrap();
        let red = StateGraph::explore(&spec, &ExploreOptions::default().with_por(true)).unwrap();
        assert!(
            2 * red.len() <= full.len(),
            "reduced {} vs full {}: expected ≤ 1/2",
            red.len(),
            full.len()
        );
        assert!(red.stats().edges < full.stats().edges);
    }

    #[test]
    fn por_keeps_cycles_detectable() {
        // A spinner (cyclic) plus a decider: the proviso must keep the
        // spin cycle in the reduced graph.
        #[derive(Debug)]
        struct DecideNow;
        impl Protocol for DecideNow {
            fn start(&self, _ctx: &ProcCtx) -> Value {
                Value::Nil
            }
            fn step(
                &self,
                ctx: &ProcCtx,
                _local: &Value,
                _resp: Option<&Value>,
            ) -> Result<Action, ProtocolError> {
                Ok(Action::Decide(ctx.input.clone()))
            }
        }
        let mut b = SystemBuilder::new();
        let reg = b.add_object(Reg);
        b.add_process(Arc::new(Spinner { reg }), Value::Nil);
        b.add_process(Arc::new(DecideNow), Value::Int(1));
        let spec = b.build();
        let full = StateGraph::explore(&spec, &ExploreOptions::default()).unwrap();
        let red = StateGraph::explore(&spec, &ExploreOptions::default().with_por(true)).unwrap();
        assert!(full.has_cycle());
        assert!(red.has_cycle(), "the proviso must not lose the cycle");
        assert_eq!(terminal_configs(&red), terminal_configs(&full));
    }

    /// `g` is the reference explorer's graph node for node.
    fn assert_matches_reference(g: &StateGraph, r: &RefGraph, label: &str) {
        assert_eq!(g.len(), r.configs.len(), "{label}");
        for (i, config) in r.configs.iter().enumerate() {
            assert_eq!(&g.config(i), config, "node {i} {label}");
            let edges: Vec<(Pid, usize)> = g.edges(i).iter().map(|e| (e.pid, e.target())).collect();
            assert_eq!(edges, r.edges[i], "edges of {i} {label}");
        }
        assert_eq!(g.terminals(), r.terminals, "{label}");
        assert_eq!(g.is_truncated(), r.truncated, "{label}");
    }

    /// Plain and symmetry runs, unsplit or split three ways, are
    /// node-for-node the reference explorer's graph; POR runs reach its
    /// terminals.
    #[test]
    fn exploration_matches_reference_explorer() {
        for (name, spec) in [
            ("race2", race_spec(2)),
            ("race3", race_spec(3)),
            ("blocked2", blocked_spec(2)),
            ("symmetric3", symmetric_spec(3)),
            ("paired race", paired_race_spec()),
        ] {
            for symmetry in [false, true] {
                let r = reference::explore(&spec, symmetry, usize::MAX);
                for workers in [1usize, 3] {
                    let opts = ExploreOptions::default().with_symmetry(symmetry);
                    let label = format!("{name} sym={symmetry} x{workers}");
                    let g = explore_split(&spec, &opts, workers);
                    assert_matches_reference(&g, &r, &label);
                    let red = explore_split(&spec, &opts.with_por(true), workers);
                    let terminals: HashSet<Config> =
                        red.terminals().iter().map(|&t| red.config(t)).collect();
                    assert_eq!(terminals, r.terminal_configs(), "por {label}");
                }
            }
        }
    }

    #[test]
    fn truncated_exploration_matches_reference_explorer() {
        let spec = race_spec(3);
        let r = reference::explore(&spec, false, 40);
        assert!(r.truncated);
        let g = StateGraph::explore(&spec, &ExploreOptions::with_max_configs(40)).unwrap();
        assert_matches_reference(&g, &r, "cap=40");
    }

    #[test]
    fn interner_stats_reflect_sharing() {
        let g = StateGraph::explore(&race_spec(3), &ExploreOptions::default()).unwrap();
        let stats = g.interner_stats().expect("every graph is interned");
        assert!(stats.proc_states > 0);
        assert!(stats.object_states > 0);
        // Far fewer distinct states than config slots: that's the point.
        assert!(stats.proc_states + stats.object_states < g.len());
        assert!(stats.hit_rate() > 0.5, "hit rate {}", stats.hit_rate());
    }

    #[test]
    fn reverse_csr_inverts_the_forward_adjacency() {
        let g = StateGraph::explore(&race_spec(3), &ExploreOptions::default()).unwrap();
        let (ptr, preds) = g.reverse_csr();
        assert_eq!(ptr.len(), g.len() + 1);
        assert_eq!(preds.len(), g.stats().edges);
        // Each forward edge appears exactly once as a reverse entry.
        let mut expected: Vec<(usize, usize)> = Vec::new();
        for i in 0..g.len() {
            for e in g.edges(i) {
                expected.push((e.target(), i));
            }
        }
        expected.sort_unstable();
        let mut actual: Vec<(usize, usize)> = Vec::new();
        for j in 0..g.len() {
            for &p in &preds[ptr[j] as usize..ptr[j + 1] as usize] {
                actual.push((j, p as usize));
            }
        }
        actual.sort_unstable();
        assert_eq!(actual, expected);
    }

    /// A system whose symmetry groups are all singletons takes the
    /// fast path: requesting symmetry must yield the identical graph to
    /// not requesting it (canonicalization is the identity).
    #[test]
    fn trivial_symmetry_is_a_no_op_fast_path() {
        // race_spec gives every process a distinct input → singleton groups.
        let spec = race_spec(3);
        assert!(spec.symmetry_groups().is_trivial());
        let plain = StateGraph::explore(&spec, &ExploreOptions::default()).unwrap();
        let sym =
            StateGraph::explore(&spec, &ExploreOptions::default().with_symmetry(true)).unwrap();
        assert_eq!(plain.len(), sym.len());
        for i in 0..plain.len() {
            assert_eq!(plain.config(i), sym.config(i));
            assert_eq!(plain.edges(i), sym.edges(i));
        }
        assert_eq!(plain.terminals(), sym.terminals());
    }

    #[test]
    fn colliding_fingerprints_never_merge_distinct_configs() {
        // File every node of a real graph under a single fingerprint (the
        // worst possible hash: one probe run holds them all) and check
        // that each successor still resolves to exactly the node with
        // equal id words, and to nothing once that node is left out —
        // dedup relies on full equality, never the fingerprint alone.
        let spec = race_spec(2);
        let rec = Recorder::new();
        let mut store = CompactStore::new(&spec, &rec, &spec.initial_config());
        explore_core(&mut store, &ExploreOptions::default(), &rec, 1).unwrap();
        assert!(store.len > 10, "a nontrivial graph");
        let mut checked = 0;
        for i in 0..store.len {
            for p in 0..spec.nprocs() {
                if store.enabled_bits(i) & (1 << p) == 0 {
                    continue;
                }
                for (mut c, _) in store.successors(i, Pid::new(p), false).unwrap() {
                    let words = c.pending.resolved_words().unwrap().to_vec();
                    let expected = (0..store.len)
                        .find(|&j| store.row(j) == words)
                        .expect("complete graph holds every successor");
                    c.fp = Some(0);
                    let file_all_but = |skip: Option<usize>| {
                        let mut index = FpTable::new();
                        for j in (0..store.len).filter(|&j| Some(j) != skip) {
                            index.insert(0, j as u32);
                        }
                        index
                    };
                    store.index = file_all_but(None);
                    assert_eq!(store.lookup(&c), Some(expected));
                    store.index = file_all_but(Some(expected));
                    assert_eq!(store.lookup(&c), None);
                    checked += 1;
                }
            }
        }
        assert!(checked > 10);
    }

    #[test]
    fn resident_estimate_tracks_index_capacity() {
        // The index is charged for its allocated slots, so the estimate
        // moves by exactly 12 bytes a slot when the table doubles, not
        // per filed id.
        let spec = race_spec(2);
        let rec = Recorder::new();
        let mut store = CompactStore::new(&spec, &rec, &spec.initial_config());
        let (cap0, est0) = (store.index.capacity(), store.resident_estimate());
        for fp in 1u64.. {
            store.index.insert(fp, 0);
            if store.index.capacity() != cap0 {
                break;
            }
            assert_eq!(store.resident_estimate(), est0, "no per-entry charge");
        }
        let cap1 = store.index.capacity();
        assert_eq!(cap1, 2 * cap0);
        assert_eq!(store.resident_estimate() - est0, (cap1 - cap0) * 12);
    }

    /// Two or more indistinguishable processes racing on one register: one
    /// symmetry group of all of them.
    fn symmetric_spec(nprocs: usize) -> SystemSpec {
        race_spec_with(vec![7; nprocs])
    }
}

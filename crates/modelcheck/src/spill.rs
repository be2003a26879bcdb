//! Disk spill backend for the interned exploration store.
//!
//! The interned store is file-shaped already: node rows are fixed-stride
//! `u32` id arrays appended in discovery order, and the fingerprint index
//! is a flat `(fp, id)` pair table. Those are the two structures that grow
//! with the configuration count, and this module gives `CompactStore` (see
//! `graph.rs`) a bounded hot tier by spilling both to append-only files
//! under a per-exploration run directory:
//!
//! * **rows** — one file holding the id rows of nodes `[0, hot_base)`, in
//!   id order, so a spilled row is one `seek + read` at `id * stride * 4`;
//! * **fingerprint index runs** — one file, `idx.bin`, of sorted runs.
//!   Each drain of the RAM table (`FpTable` in `fpindex.rs`) sorts its
//!   `(fp, id)` pairs by fingerprint and appends them as one run of
//!   12-byte pairs, cut into blocks of [`BLOCK_PAIRS`] pairs (just under
//!   4 KiB). Only the first fingerprint of every block — its *fence* —
//!   stays in memory (8 bytes per block, about 0.02 bytes per spilled
//!   pair).
//!
//! A probe for `fp` must return every id filed under `fp`. Within one run
//! the pairs are sorted, so the pairs equal to `fp` are one contiguous
//! stretch. A block whose fence is above `fp` holds only larger keys, so
//! the stretch starts in the last block with a fence below `fp` (or in
//! the first block, if no fence is below `fp`) and ends in the last block
//! with a fence at most `fp`. The probe binary-searches the fences for
//! exactly those blocks — one, or two when the stretch crosses a fence —
//! reads them in one contiguous read and filters by fingerprint. It does
//! so in every run, and each pair lives in exactly one run (a drain
//! empties the table), so the probe returns every spilled candidate; the
//! store then verifies each one by full row equality.
//!
//! The interner arenas never spill: they hold one entry per *distinct*
//! object or process state, which stays small next to the rows (see
//! DESIGN.md, "Spill soundness").
//!
//! What spills, and when, is decided by the store (`begin_level` in
//! `graph.rs`); this module is the dumb I/O layer plus the byte
//! accounting. Spill I/O failing is an environment failure (disk full,
//! run dir deleted), not a model-checking result, so all I/O panics with
//! context rather than threading `Result`s through the store traits.
//!
//! The run directory lives under `MC_STORE_DIR` (default:
//! [`std::env::temp_dir`]) as `mc-spill-<pid>-<seq>` and is removed on
//! drop — including the early-exit paths (verdict goals, panics during
//! exploration) since the stores own their [`Spill`] by value.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use subconsensus_sim::Recorder;

use crate::fpindex::FpTable;

/// Hot-tier budget applied when the disk store is selected without an
/// explicit `store_budget_bytes` / `MC_STORE_BUDGET` (256 MiB).
pub(crate) const DEFAULT_DISK_BUDGET: usize = 256 << 20;

/// Bytes of one spilled `(fp, id)` pair: a little-endian `u64`
/// fingerprint, then a little-endian `u32` node id.
const PAIR_BYTES: usize = 12;

/// Pairs per index block: as many as fit in 4 KiB.
const BLOCK_PAIRS: usize = 4096 / PAIR_BYTES;

/// Distinguishes run directories of concurrent explorations in one
/// process.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// An owned run directory, removed (recursively) on drop.
struct RunDir {
    path: PathBuf,
}

impl RunDir {
    fn create() -> RunDir {
        let base = std::env::var_os("MC_STORE_DIR")
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = base.join(format!("mc-spill-{}-{}", std::process::id(), seq));
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("spill: cannot create run dir {}: {e}", path.display()));
        RunDir { path }
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        // Best-effort: a failed cleanup must not turn into a panic-in-drop.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn create_file(dir: &RunDir, name: &str) -> File {
    OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(dir.path.join(name))
        .unwrap_or_else(|e| {
            panic!(
                "spill: cannot create {} in {}: {e}",
                name,
                dir.path.display()
            )
        })
}

/// One store's spill state: the run directory, its two files and the rows
/// currently reloaded.
pub(crate) struct Spill {
    /// Owned only to remove the run directory when the store drops (every
    /// file is opened up front).
    _dir: RunDir,
    /// Hot-tier byte budget the owning store evicts against.
    pub(crate) budget: usize,
    /// Row width in `u32` words (`nobjects + nprocs`).
    stride: usize,
    rows_file: File,
    /// Rows `[0, hot_base)` are on disk; the store's `words` vec holds
    /// `[hot_base, len)`.
    hot_base: usize,
    /// Spilled rows faulted back for the current level (frontier pins plus
    /// merge-time dedup faults); cleared at every level boundary.
    reloaded: HashMap<usize, Box<[u32]>>,
    idx_file: File,
    /// One entry per drain of the RAM index, oldest first.
    runs: Vec<IndexRun>,
    /// Read buffer of the index blocks under probe, reused across probes.
    block_buf: Vec<u8>,
}

/// One sorted run of spilled `(fp, id)` pairs in `idx.bin`.
struct IndexRun {
    /// Byte offset of the run's first pair.
    start: u64,
    /// Pairs in the run.
    len: usize,
    /// First fingerprint of each [`BLOCK_PAIRS`]-pair block.
    fences: Vec<u64>,
}

impl Spill {
    pub(crate) fn new(stride: usize, budget: usize) -> Spill {
        let dir = RunDir::create();
        let rows_file = create_file(&dir, "rows.bin");
        let idx_file = create_file(&dir, "idx.bin");
        Spill {
            _dir: dir,
            budget,
            stride,
            rows_file,
            hot_base: 0,
            reloaded: HashMap::new(),
            idx_file,
            runs: Vec::new(),
            block_buf: Vec::new(),
        }
    }

    /// First node id *not* on disk: the store's `words` vec starts here.
    pub(crate) fn hot_base(&self) -> usize {
        self.hot_base
    }

    /// Appends `words` (complete rows, ids `hot_base..`) to the rows file.
    /// The caller clears its hot vec afterwards; the prefix-on-disk
    /// invariant (`rows file = ids [0, hot_base) in order`) is what makes
    /// faulting a row one offset computation.
    pub(crate) fn spill_rows(&mut self, words: &[u32], rec: &Recorder) {
        debug_assert_eq!(words.len() % self.stride, 0);
        if words.is_empty() {
            return;
        }
        self.rows_file
            .seek(SeekFrom::End(0))
            .and_then(|_| self.rows_file.write_all(words_as_bytes(words)))
            .unwrap_or_else(|e| panic!("spill: rows write failed: {e}"));
        self.hot_base += words.len() / self.stride;
        rec.count_spilled_bytes(std::mem::size_of_val(words) as u64);
    }

    /// Drops the per-level reloaded rows (called at every level boundary
    /// before re-pinning the new frontier).
    pub(crate) fn clear_reloaded(&mut self) {
        self.reloaded.clear();
    }

    /// The spilled row `i` if it is currently reloaded (worker-safe: a
    /// `None` here is a safe false miss on the dedup path).
    pub(crate) fn reloaded_row(&self, i: usize) -> Option<&[u32]> {
        self.reloaded.get(&i).map(|r| &**r)
    }

    /// Faults spilled row `i` into the reloaded tier (merge-side only:
    /// needs `&mut`) and returns it.
    pub(crate) fn fault_row(&mut self, i: usize, rec: &Recorder) -> &[u32] {
        debug_assert!(i < self.hot_base);
        if !self.reloaded.contains_key(&i) {
            let mut row = vec![0u32; self.stride].into_boxed_slice();
            let off = (i * self.stride * 4) as u64;
            self.rows_file
                .seek(SeekFrom::Start(off))
                .and_then(|_| self.rows_file.read_exact(words_as_bytes_mut(&mut row)))
                .unwrap_or_else(|e| panic!("spill: row {i} read failed: {e}"));
            rec.count_store_reloads(1);
            self.reloaded.insert(i, row);
        }
        &self.reloaded[&i]
    }

    /// Resident bytes of the reloaded-row tier.
    pub(crate) fn reloaded_bytes(&self) -> usize {
        self.reloaded.len() * (self.stride * 4 + std::mem::size_of::<usize>() * 2)
    }

    /// Moves every entry of the RAM fingerprint index to a new sorted run
    /// at the end of `idx.bin`, leaving `table` empty and small. Each pair
    /// is written once: the table only holds pairs filed since the
    /// previous drain.
    pub(crate) fn drain_index(&mut self, table: &mut FpTable, rec: &Recorder) {
        if table.len() == 0 {
            return;
        }
        let pairs = table.drain_sorted();
        let fences = pairs.iter().step_by(BLOCK_PAIRS).map(|p| p.0).collect();
        let start = self
            .runs
            .last()
            .map_or(0, |r| r.start + (r.len * PAIR_BYTES) as u64);
        let bytes = (pairs.len() * PAIR_BYTES) as u64;
        let file = &mut self.idx_file;
        file.seek(SeekFrom::Start(start))
            .and_then(|_| {
                let mut w = BufWriter::new(&mut *file);
                for &(fp, id) in &pairs {
                    w.write_all(&fp.to_le_bytes())?;
                    w.write_all(&id.to_le_bytes())?;
                }
                w.flush()
            })
            .unwrap_or_else(|e| panic!("spill: index run write failed: {e}"));
        self.runs.push(IndexRun {
            start,
            len: pairs.len(),
            fences,
        });
        rec.count_spilled_bytes(bytes);
    }

    /// Appends the node ids filed under `fp` in the spilled runs to `out`
    /// (the RAM table's candidates come from the caller). Reads, per run,
    /// only the blocks whose fences admit `fp` (see the module doc).
    pub(crate) fn spilled_candidates(&mut self, fp: u64, out: &mut Vec<u32>, rec: &Recorder) {
        for run in &self.runs {
            let first = run.fences.partition_point(|&f| f < fp).saturating_sub(1);
            let end = run.fences.partition_point(|&f| f <= fp);
            if end == 0 {
                continue;
            }
            let lo = first * BLOCK_PAIRS;
            let hi = (end * BLOCK_PAIRS).min(run.len);
            self.block_buf.resize((hi - lo) * PAIR_BYTES, 0);
            let file = &mut self.idx_file;
            file.seek(SeekFrom::Start(run.start + (lo * PAIR_BYTES) as u64))
                .and_then(|_| file.read_exact(&mut self.block_buf))
                .unwrap_or_else(|e| panic!("spill: index block read failed: {e}"));
            rec.count_index_reads(1);
            rec.count_store_reloads(1);
            for pair in self.block_buf.chunks_exact(PAIR_BYTES) {
                let (pfp, id) = pair.split_at(8);
                if u64::from_le_bytes(pfp.try_into().expect("8-byte fingerprint")) == fp {
                    out.push(u32::from_le_bytes(id.try_into().expect("4-byte id")));
                }
            }
        }
    }

    /// Resident bytes of the spilled index: the run fences plus the block
    /// read buffer.
    pub(crate) fn index_bytes(&self) -> usize {
        self.runs
            .iter()
            .map(|r| r.fences.len() * std::mem::size_of::<u64>())
            .sum::<usize>()
            + self.block_buf.capacity()
    }

    /// Streams the whole rows file back: the full `[0, hot_base)` prefix
    /// as one contiguous words vec (freeze-time reconstitution).
    pub(crate) fn read_all_rows(&mut self, rec: &Recorder) -> Vec<u32> {
        let mut words = vec![0u32; self.hot_base * self.stride];
        if !words.is_empty() {
            self.rows_file
                .seek(SeekFrom::Start(0))
                .and_then(|_| self.rows_file.read_exact(words_as_bytes_mut(&mut words)))
                .unwrap_or_else(|e| panic!("spill: rows readback failed: {e}"));
            rec.count_store_reloads(1);
        }
        words
    }

    /// The run directory path (tests assert it is cleaned up on drop).
    #[cfg(test)]
    pub(crate) fn dir_path(&self) -> PathBuf {
        self._dir.path.clone()
    }
}

fn words_as_bytes(words: &[u32]) -> &[u8] {
    // Safe view: u32 has no padding and any alignment works for &[u8].
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), std::mem::size_of_val(words)) }
}

fn words_as_bytes_mut(words: &mut [u32]) -> &mut [u8] {
    // Safe view on a native-endian round trip: the bytes are written and
    // read back by this same process.
    unsafe {
        std::slice::from_raw_parts_mut(words.as_mut_ptr().cast(), std::mem::size_of_val(words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_spill_and_fault_round_trip() {
        let rec = Recorder::new();
        let mut spill = Spill::new(3, 1024);
        let dir = spill.dir_path();
        assert!(dir.exists());
        spill.spill_rows(&[1, 2, 3, 4, 5, 6], &rec);
        assert_eq!(spill.hot_base(), 2);
        assert_eq!(spill.reloaded_row(1), None, "not faulted yet");
        assert_eq!(spill.fault_row(1, &rec), &[4, 5, 6]);
        assert_eq!(spill.fault_row(0, &rec), &[1, 2, 3]);
        assert_eq!(spill.reloaded_row(1), Some(&[4u32, 5, 6][..]));
        spill.clear_reloaded();
        assert_eq!(spill.reloaded_row(1), None);
        assert_eq!(spill.read_all_rows(&rec), vec![1, 2, 3, 4, 5, 6]);
        drop(spill);
        assert!(!dir.exists(), "run dir must be removed on drop");
    }

    fn spilled(spill: &mut Spill, fp: u64, rec: &Recorder) -> Vec<u32> {
        let mut out = Vec::new();
        spill.spilled_candidates(fp, &mut out, rec);
        out.sort_unstable();
        out
    }

    #[test]
    fn index_drain_and_probe() {
        let rec = Recorder::new();
        let mut spill = Spill::new(2, 1024);
        let mut table = FpTable::new();
        assert!(spilled(&mut spill, 7, &rec).is_empty(), "no runs yet");
        table.insert(7, 1);
        table.insert(7, 4);
        table.insert(23, 9);
        spill.drain_index(&mut table, &rec);
        assert_eq!(table.len(), 0);
        // Neighbouring fingerprints: the probe filters exactly.
        assert_eq!(spilled(&mut spill, 7, &rec), vec![1, 4]);
        assert_eq!(spilled(&mut spill, 23, &rec), vec![9]);
        assert!(spilled(&mut spill, 8, &rec).is_empty());
        // A second drain appends a second run with only the new entries.
        table.insert(7, 12);
        spill.drain_index(&mut table, &rec);
        assert_eq!(spilled(&mut spill, 7, &rec), vec![1, 4, 12]);
    }

    #[test]
    fn probe_finds_a_stretch_straddling_blocks_and_runs() {
        // One fingerprint `F` filed under ids that sort across the first
        // block boundary of run 1 (pairs `BLOCK_PAIRS - 40 ..
        // BLOCK_PAIRS + 60`), then again in run 2.
        const F: u64 = 1 << 40;
        let rec = Recorder::new();
        let mut spill = Spill::new(2, 1024);
        let mut table = FpTable::new();
        let below = BLOCK_PAIRS as u32 - 40;
        let mut want = Vec::new();
        for id in 0..below {
            table.insert(u64::from(id), id);
        }
        for id in below..below + 100 {
            table.insert(F, id);
            want.push(id);
        }
        for id in below + 100..3 * BLOCK_PAIRS as u32 {
            table.insert(F + u64::from(id), id);
        }
        spill.drain_index(&mut table, &rec);
        assert_eq!(spill.runs[0].fences.len(), 3);
        assert_eq!(spill.runs[0].fences[1], F, "the stretch crosses a fence");
        assert_eq!(spilled(&mut spill, F, &rec), want);
        for id in 5000..5010 {
            table.insert(F, id);
            table.insert(F - 1, id + 100);
            want.push(id);
        }
        spill.drain_index(&mut table, &rec);
        assert_eq!(spilled(&mut spill, F, &rec), want);
        assert_eq!(spilled(&mut spill, 3, &rec), vec![3]);
        assert!(spilled(&mut spill, F + 1, &rec).is_empty());
        assert!(spilled(&mut spill, u64::MAX, &rec).is_empty());
        assert_eq!(
            spill.index_bytes(),
            (3 + 1) * 8 + spill.block_buf.capacity(),
            "fences of both runs are resident"
        );
    }

    #[test]
    fn index_tiers_match_a_hashmap_model() {
        // Random insert / probe / drain sequences over a handful of
        // fingerprints (so most of them collide) against a plain multimap
        // model of each tier; growth happens along the way.
        use std::collections::HashMap;
        use subconsensus_sim::SmallRng;
        fn sorted(ids: Option<&Vec<usize>>) -> Vec<u32> {
            let mut v: Vec<u32> =
                ids.map_or(Vec::new(), |ids| ids.iter().map(|&i| i as u32).collect());
            v.sort_unstable();
            v
        }
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let rec = Recorder::new();
            let mut spill = Spill::new(2, 1024);
            let mut table = FpTable::new();
            let mut ram: HashMap<u64, Vec<usize>> = HashMap::new();
            let mut disk: HashMap<u64, Vec<usize>> = HashMap::new();
            let nkeys = 1 + rng.gen_index(40) as u64;
            let mut next_id = 0usize;
            for _ in 0..3000 {
                let fp = rng.gen_index(nkeys as usize) as u64 * 0x1_0000_0001;
                match rng.gen_index(1000) {
                    0..=599 => {
                        table.insert(fp, next_id as u32);
                        ram.entry(fp).or_default().push(next_id);
                        next_id += 1;
                    }
                    600..=997 => {
                        let mut got = Vec::new();
                        let mut probe = table.probe(fp);
                        while let Some(id) = probe.next(&table) {
                            got.push(id);
                        }
                        got.sort_unstable();
                        assert_eq!(got, sorted(ram.get(&fp)), "seed {seed}: RAM tier");
                        assert_eq!(
                            spilled(&mut spill, fp, &rec),
                            sorted(disk.get(&fp)),
                            "seed {seed}: disk tier"
                        );
                    }
                    _ => {
                        spill.drain_index(&mut table, &rec);
                        for (fp, ids) in ram.drain() {
                            disk.entry(fp).or_default().extend(ids);
                        }
                    }
                }
                assert_eq!(table.len(), ram.values().map(Vec::len).sum::<usize>());
                assert_eq!(table.bytes(), table.capacity() * 12);
            }
        }
    }
}

//! Disk spill backend for the interned exploration store.
//!
//! The interned store is file-shaped already: node rows are fixed-stride
//! `u32` id arrays appended in discovery order, arena ids are dense and
//! append-only, and the fingerprint index is a flat `fp → ids` multimap.
//! This module gives `CompactStore` (see `graph.rs`) a
//! bounded hot tier by spilling each of those to append-only files under a
//! per-exploration run directory:
//!
//! * **rows** — one file holding the id rows of nodes `[0, hot_base)`, in
//!   id order, so a spilled row is one `seek + read` at `id * stride * 4`;
//! * **arena segments** — one framed file of encoded
//!   [`ARENA_SEGMENT`](subconsensus_sim::ARENA_SEGMENT)-id segments
//!   (object and proc interleaved as evicted). Arenas are append-only, so
//!   a segment's encoding never changes and is written at most once;
//! * **fingerprint index buckets** — `fp → id` pairs bucketed by low
//!   fingerprint bits, appended when the in-memory index is drained and
//!   scanned on dedup probes past the in-memory map.
//!
//! What spills, and when, is decided by the stores (`begin_level` in
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
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use subconsensus_sim::Recorder;

/// Hot-tier budget applied when the disk store is selected without an
/// explicit `store_budget_bytes` / `MC_STORE_BUDGET` (256 MiB).
pub(crate) const DEFAULT_DISK_BUDGET: usize = 256 << 20;

/// Fingerprint-index spill fans out over this many bucket files (by low
/// fingerprint bits), so a dedup probe scans `1/16` of the spilled index.
const INDEX_BUCKETS: usize = 16;

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

/// Times one spill I/O operation onto the recorder's spill slots, only
/// when the phase timers are on (the untimed path reads no clock).
fn timed<R>(rec: &Recorder, add: impl Fn(&Recorder, u64), op: impl FnOnce() -> R) -> R {
    if rec.is_timing() {
        let t0 = Instant::now();
        let out = op();
        add(rec, t0.elapsed().as_nanos() as u64);
        out
    } else {
        op()
    }
}

/// One store's spill state: the run directory, its three file families and
/// the resident bookkeeping of what is currently reloaded or pinned.
pub(crate) struct Spill {
    dir: RunDir,
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
    seg_file: File,
    seg_pos: u64,
    /// `(offset, len)` of each written object segment frame, by segment.
    obj_frames: Vec<Option<(u64, u32)>>,
    proc_frames: Vec<Option<(u64, u32)>>,
    /// Level stamp of each segment's last pin — the eviction policy's LRU
    /// key (`0` = never pinned).
    pub(crate) obj_pin: Vec<u64>,
    pub(crate) proc_pin: Vec<u64>,
    /// Monotone level counter advanced by the store's `begin_level`.
    pub(crate) level: u64,
    idx_files: Vec<Option<File>>,
    /// Whether the fingerprint index has ever been drained to buckets — if
    /// so, dedup probes must also scan the bucket files.
    pub(crate) drained: bool,
    /// Last bucket scanned, cached: bucket files only grow at level
    /// boundaries, so within one level's merge the cache is coherent.
    bucket_cache: Option<(usize, Vec<(u64, u64)>)>,
}

impl Spill {
    pub(crate) fn new(stride: usize, budget: usize) -> Spill {
        let dir = RunDir::create();
        let rows_file = create_file(&dir, "rows.bin");
        let seg_file = create_file(&dir, "segments.bin");
        Spill {
            dir,
            budget,
            stride,
            rows_file,
            hot_base: 0,
            reloaded: HashMap::new(),
            seg_file,
            seg_pos: 0,
            obj_frames: Vec::new(),
            proc_frames: Vec::new(),
            obj_pin: Vec::new(),
            proc_pin: Vec::new(),
            level: 0,
            idx_files: (0..INDEX_BUCKETS).map(|_| None).collect(),
            drained: false,
            bucket_cache: None,
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
        timed(rec, Recorder::add_spill_write_ns, || {
            self.rows_file
                .seek(SeekFrom::End(0))
                .and_then(|_| self.rows_file.write_all(words_as_bytes(words)))
                .unwrap_or_else(|e| panic!("spill: rows write failed: {e}"));
        });
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
            timed(rec, Recorder::add_spill_read_ns, || {
                let off = (i * self.stride * 4) as u64;
                self.rows_file
                    .seek(SeekFrom::Start(off))
                    .and_then(|_| self.rows_file.read_exact(words_as_bytes_mut(&mut row)))
                    .unwrap_or_else(|e| panic!("spill: row {i} read failed: {e}"));
            });
            rec.count_store_reloads(1);
            self.reloaded.insert(i, row);
        }
        &self.reloaded[&i]
    }

    /// Resident bytes of the reloaded-row tier.
    pub(crate) fn reloaded_bytes(&self) -> usize {
        self.reloaded.len() * (self.stride * 4 + std::mem::size_of::<usize>() * 2)
    }

    fn frames(&mut self, procs: bool) -> &mut Vec<Option<(u64, u32)>> {
        if procs {
            &mut self.proc_frames
        } else {
            &mut self.obj_frames
        }
    }

    /// Whether the `(procs, seg)` arena segment has been written.
    pub(crate) fn has_segment(&self, procs: bool, seg: usize) -> bool {
        let frames = if procs {
            &self.proc_frames
        } else {
            &self.obj_frames
        };
        frames.get(seg).is_some_and(|f| f.is_some())
    }

    /// Writes one encoded arena segment (first eviction only — arenas are
    /// append-only, so the encoding of a complete segment never changes).
    pub(crate) fn write_segment(&mut self, procs: bool, seg: usize, bytes: &[u8], rec: &Recorder) {
        if self.has_segment(procs, seg) {
            return;
        }
        let off = self.seg_pos;
        timed(rec, Recorder::add_spill_write_ns, || {
            self.seg_file
                .seek(SeekFrom::Start(off))
                .and_then(|_| self.seg_file.write_all(bytes))
                .unwrap_or_else(|e| panic!("spill: segment write failed: {e}"));
        });
        self.seg_pos += bytes.len() as u64;
        let frames = self.frames(procs);
        if frames.len() <= seg {
            frames.resize(seg + 1, None);
        }
        frames[seg] = Some((
            off,
            u32::try_from(bytes.len()).expect("segment frame too large"),
        ));
        rec.count_spilled_bytes(bytes.len() as u64);
    }

    /// Reads back one written arena segment.
    pub(crate) fn read_segment(&mut self, procs: bool, seg: usize, rec: &Recorder) -> Vec<u8> {
        let (off, len) = self.frames(procs)[seg].expect("reading a segment never written");
        let mut bytes = vec![0u8; len as usize];
        timed(rec, Recorder::add_spill_read_ns, || {
            self.seg_file
                .seek(SeekFrom::Start(off))
                .and_then(|_| self.seg_file.read_exact(&mut bytes))
                .unwrap_or_else(|e| panic!("spill: segment read failed: {e}"));
        });
        rec.count_store_reloads(1);
        bytes
    }

    /// Stamps `(procs, seg)` as pinned at the current level (the LRU key
    /// eviction sorts by).
    pub(crate) fn pin_segment(&mut self, procs: bool, seg: usize) {
        let level = self.level;
        let pins = if procs {
            &mut self.proc_pin
        } else {
            &mut self.obj_pin
        };
        if pins.len() <= seg {
            pins.resize(seg + 1, 0);
        }
        pins[seg] = level;
    }

    /// Moves every entry of the in-memory fingerprint index to the bucket
    /// files. Entries are appended once: the map only holds entries added
    /// since the previous drain.
    pub(crate) fn drain_index(&mut self, index: &mut HashMap<u64, Vec<usize>>, rec: &Recorder) {
        if index.is_empty() {
            return;
        }
        let mut bufs: Vec<Vec<u8>> = (0..INDEX_BUCKETS).map(|_| Vec::new()).collect();
        for (&fp, ids) in index.iter() {
            let buf = &mut bufs[(fp as usize) % INDEX_BUCKETS];
            for &id in ids {
                buf.extend_from_slice(&fp.to_le_bytes());
                buf.extend_from_slice(&(id as u64).to_le_bytes());
            }
        }
        index.clear();
        let mut written = 0u64;
        for (b, buf) in bufs.iter().enumerate() {
            if buf.is_empty() {
                continue;
            }
            if self.idx_files[b].is_none() {
                self.idx_files[b] = Some(create_file(&self.dir, &format!("idx_{b:02}.bin")));
            }
            let file = self.idx_files[b]
                .as_mut()
                .expect("bucket file just created");
            timed(rec, Recorder::add_spill_write_ns, || {
                file.seek(SeekFrom::End(0))
                    .and_then(|_| file.write_all(buf))
                    .unwrap_or_else(|e| panic!("spill: index bucket write failed: {e}"));
            });
            written += buf.len() as u64;
        }
        rec.count_spilled_bytes(written);
        self.drained = true;
        self.bucket_cache = None;
    }

    /// Appends the node ids filed under `fp` in the spilled index to
    /// `out` (the in-memory map's candidates come from the caller). Probe
    /// order across candidates is irrelevant: at most one can word-match.
    pub(crate) fn spilled_candidates(&mut self, fp: u64, out: &mut Vec<usize>, rec: &Recorder) {
        let b = (fp as usize) % INDEX_BUCKETS;
        let Some(file) = self.idx_files[b].as_mut() else {
            return;
        };
        if self.bucket_cache.as_ref().map(|(cb, _)| *cb) != Some(b) {
            let mut bytes = Vec::new();
            timed(rec, Recorder::add_spill_read_ns, || {
                file.seek(SeekFrom::Start(0))
                    .and_then(|_| file.read_to_end(&mut bytes))
                    .unwrap_or_else(|e| panic!("spill: index bucket read failed: {e}"));
            });
            rec.count_store_reloads(1);
            let pairs = bytes
                .chunks_exact(16)
                .map(|c| {
                    (
                        u64::from_le_bytes(c[..8].try_into().expect("bucket pair")),
                        u64::from_le_bytes(c[8..].try_into().expect("bucket pair")),
                    )
                })
                .collect();
            self.bucket_cache = Some((b, pairs));
        }
        let (_, pairs) = self
            .bucket_cache
            .as_ref()
            .expect("bucket cache just filled");
        out.extend(
            pairs
                .iter()
                .filter(|(pfp, _)| *pfp == fp)
                .map(|(_, id)| *id as usize),
        );
    }

    /// Resident bytes of the bucket cache.
    pub(crate) fn bucket_cache_bytes(&self) -> usize {
        self.bucket_cache
            .as_ref()
            .map_or(0, |(_, pairs)| pairs.len() * 16)
    }

    /// Streams the whole rows file back: the full `[0, hot_base)` prefix
    /// as one contiguous words vec (freeze-time reconstitution).
    pub(crate) fn read_all_rows(&mut self, rec: &Recorder) -> Vec<u32> {
        let mut words = vec![0u32; self.hot_base * self.stride];
        if !words.is_empty() {
            timed(rec, Recorder::add_spill_read_ns, || {
                self.rows_file
                    .seek(SeekFrom::Start(0))
                    .and_then(|_| self.rows_file.read_exact(words_as_bytes_mut(&mut words)))
                    .unwrap_or_else(|e| panic!("spill: rows readback failed: {e}"));
            });
            rec.count_store_reloads(1);
        }
        words
    }

    /// The run directory path (tests assert it is cleaned up on drop).
    #[cfg(test)]
    pub(crate) fn dir_path(&self) -> PathBuf {
        self.dir.path.clone()
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

    #[test]
    fn segments_write_once_and_read_back() {
        let rec = Recorder::new();
        let mut spill = Spill::new(2, 1024);
        assert!(!spill.has_segment(false, 0));
        spill.write_segment(false, 0, b"abc", &rec);
        spill.write_segment(true, 0, b"xyzw", &rec);
        // Re-writing is a no-op: the first frame stays authoritative.
        spill.write_segment(false, 0, b"IGNORED", &rec);
        assert!(spill.has_segment(false, 0));
        assert!(!spill.has_segment(false, 1));
        assert_eq!(spill.read_segment(false, 0, &rec), b"abc");
        assert_eq!(spill.read_segment(true, 0, &rec), b"xyzw");
    }

    #[test]
    fn index_drain_and_probe() {
        let rec = Recorder::new();
        let mut spill = Spill::new(2, 1024);
        let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
        index.insert(7, vec![1, 4]);
        index.insert(7 + INDEX_BUCKETS as u64, vec![9]);
        spill.drain_index(&mut index, &rec);
        assert!(index.is_empty());
        assert!(spill.drained);
        // Same bucket, different fingerprints: the probe filters exactly.
        let mut out = Vec::new();
        spill.spilled_candidates(7, &mut out, &rec);
        out.sort_unstable();
        assert_eq!(out, vec![1, 4]);
        let mut out = Vec::new();
        spill.spilled_candidates(7 + INDEX_BUCKETS as u64, &mut out, &rec);
        assert_eq!(out, vec![9]);
        // A second drain appends only the new entries.
        index.insert(7, vec![12]);
        spill.drain_index(&mut index, &rec);
        let mut out = Vec::new();
        spill.spilled_candidates(7, &mut out, &rec);
        out.sort_unstable();
        assert_eq!(out, vec![1, 4, 12]);
    }
}

//! The RAM tier of the dedup index: a flat open-addressing multimap from
//! row fingerprint to node id, plus the fingerprint itself.
//!
//! The table is two parallel arrays, `fps: Vec<u64>` and `ids: Vec<u32>`
//! (12 bytes a slot), probed linearly from the fingerprint's home slot.
//! Equal fingerprints — a true hash collision, or a test forcing one —
//! land in the same probe run, so a fingerprint filed under several nodes
//! needs no per-key allocation: a probe walks the run up to the first
//! empty slot and yields every id whose slot fingerprint matches. Entries
//! are never removed one at a time (only the disk store's whole-table
//! drain empties it), so linear probing needs no tombstones.
//!
//! The index only *proposes* candidates: the store verifies each one by
//! full id-word equality, so a fingerprint collision can cost a compare
//! but never merge distinct configurations.

/// `ids` marker of an empty slot. Node ids are frozen as `u32` and stay
/// below the configuration cap, so `u32::MAX` is never a node id.
const EMPTY: u32 = u32::MAX;

/// Slots of a fresh table: small, because most explorations of the
/// impossibility searches have a few dozen configurations.
const MIN_SLOTS: usize = 16;

/// Content hash of a row of interner id words (the compact dedup key): a
/// multiply-rotate fold over 64-bit word pairs with a final avalanche
/// (the MurmurHash3 `fmix64` finalizer), so both the table's low-bit home
/// slots and the disk runs' sort order see well-spread keys.
pub(crate) fn fingerprint_words(words: &[u32]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let fold = |h: u64, w: u64| (h.rotate_left(23) ^ w).wrapping_mul(K);
    let mut h = (words.len() as u64).wrapping_mul(K);
    let mut pairs = words.chunks_exact(2);
    for p in &mut pairs {
        h = fold(h, u64::from(p[0]) | (u64::from(p[1]) << 32));
    }
    if let [w] = pairs.remainder() {
        h = fold(h, u64::from(*w));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// Open-addressing `fingerprint → node id` multimap (see the module doc).
pub(crate) struct FpTable {
    fps: Vec<u64>,
    /// `EMPTY` marks a free slot; the slot's `fps` entry is then junk.
    ids: Vec<u32>,
    len: usize,
}

impl FpTable {
    pub(crate) fn new() -> Self {
        FpTable {
            fps: vec![0; MIN_SLOTS],
            ids: vec![EMPTY; MIN_SLOTS],
            len: 0,
        }
    }

    /// Entries filed.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Allocated slots (a power of two).
    pub(crate) fn capacity(&self) -> usize {
        self.ids.len()
    }

    /// Resident bytes: every allocated slot, occupied or not.
    pub(crate) fn bytes(&self) -> usize {
        self.capacity() * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>())
    }

    fn home(&self, fp: u64) -> usize {
        fp as usize & (self.capacity() - 1)
    }

    /// Files `id` under `fp`. Doubles the table first if the insert would
    /// push the load factor past 3/4 (which also guarantees every probe
    /// run ends at an empty slot).
    pub(crate) fn insert(&mut self, fp: u64, id: u32) {
        assert!(id != EMPTY, "node id {id} collides with the empty marker");
        if (self.len + 1) * 4 > self.capacity() * 3 {
            self.grow();
        }
        self.place(fp, id);
        self.len += 1;
    }

    fn place(&mut self, fp: u64, id: u32) {
        let mask = self.capacity() - 1;
        let mut s = self.home(fp);
        while self.ids[s] != EMPTY {
            s = (s + 1) & mask;
        }
        self.fps[s] = fp;
        self.ids[s] = id;
    }

    fn grow(&mut self) {
        let slots = self.capacity() * 2;
        let fps = std::mem::replace(&mut self.fps, vec![0; slots]);
        let ids = std::mem::replace(&mut self.ids, vec![EMPTY; slots]);
        for (fp, id) in fps.into_iter().zip(ids) {
            if id != EMPTY {
                self.place(fp, id);
            }
        }
    }

    /// A cursor over the ids filed under `fp`. It borrows nothing, so the
    /// caller may mutate other state (fault rows) between steps.
    pub(crate) fn probe(&self, fp: u64) -> Probe {
        Probe {
            fp,
            slot: self.home(fp),
        }
    }

    /// Empties the table into its `(fp, id)` pairs sorted by fingerprint
    /// (then id), and shrinks it back to a fresh table's few slots.
    pub(crate) fn drain_sorted(&mut self) -> Vec<(u64, u32)> {
        let mut pairs: Vec<(u64, u32)> = self
            .fps
            .iter()
            .zip(&self.ids)
            .filter(|(_, &id)| id != EMPTY)
            .map(|(&fp, &id)| (fp, id))
            .collect();
        *self = FpTable::new();
        pairs.sort_unstable();
        pairs
    }
}

/// Probe state of one fingerprint: the next slot of its probe run.
pub(crate) struct Probe {
    fp: u64,
    slot: usize,
}

impl Probe {
    /// The next id filed under the probed fingerprint in `table`, which
    /// must not have changed since [`FpTable::probe`].
    pub(crate) fn next(&mut self, table: &FpTable) -> Option<u32> {
        let mask = table.capacity() - 1;
        loop {
            let id = table.ids[self.slot];
            if id == EMPTY {
                return None;
            }
            let fp = table.fps[self.slot];
            self.slot = (self.slot + 1) & mask;
            if fp == self.fp {
                return Some(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids_under(table: &FpTable, fp: u64) -> Vec<u32> {
        let mut probe = table.probe(fp);
        let mut out = Vec::new();
        while let Some(id) = probe.next(table) {
            out.push(id);
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn collisions_share_a_probe_run_across_growth() {
        let mut t = FpTable::new();
        assert_eq!(t.capacity(), MIN_SLOTS);
        for id in 0..100u32 {
            t.insert(u64::from(id % 3), id);
        }
        assert_eq!(t.len(), 100);
        assert!(t.capacity() >= 128 && t.capacity().is_power_of_two());
        for fp in 0..3u64 {
            let want: Vec<u32> = (0..100).filter(|id| u64::from(*id) % 3 == fp).collect();
            assert_eq!(ids_under(&t, fp), want, "fp {fp}");
        }
        assert!(ids_under(&t, 3).is_empty());
        let pairs = t.drain_sorted();
        assert_eq!(pairs.len(), 100);
        assert!(pairs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!((t.len(), t.capacity()), (0, MIN_SLOTS));
        assert!(ids_under(&t, 0).is_empty());
    }

    #[test]
    fn fingerprint_spreads_single_word_changes() {
        let base = [3u32, 1, 4, 1, 5];
        let fp = fingerprint_words(&base);
        assert_eq!(fp, fingerprint_words(&base), "deterministic");
        for i in 0..base.len() {
            let mut w = base;
            w[i] ^= 1;
            let d = (fp ^ fingerprint_words(&w)).count_ones();
            assert!((16..=48).contains(&d), "word {i}: {d} bits flipped");
        }
        assert_ne!(fingerprint_words(&base[..4]), fingerprint_words(&base));
    }
}

use serde::{Deserialize, Serialize};

use crate::fenwick::Fenwick;

/// LRU stack distance of one disk-cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StackDistance {
    /// First-ever access to this page; a miss at every memory size
    /// ("these disk accesses cannot be avoided by changing the memory
    /// size", paper §IV-B).
    Cold,
    /// 1-based position in the (unbounded) LRU stack: the access hits in
    /// any LRU cache of at least this many pages.
    Position(u64),
}

impl StackDistance {
    /// Whether this access misses in an LRU cache of `capacity_pages`.
    pub fn misses_at(&self, capacity_pages: u64) -> bool {
        match *self {
            StackDistance::Cold => true,
            StackDistance::Position(p) => p > capacity_pages,
        }
    }
}

/// The paper's *extended LRU list* (resident + replaced pages with
/// per-position counters, §IV-B), implemented as an exact stack-distance
/// profiler.
///
/// Mattson's inclusion property makes the LRU stack position of each access
/// a complete summary: an access at position `d` hits in every LRU cache of
/// `≥ d` pages and misses in every smaller one. Recording positions for one
/// period therefore predicts the number of disk accesses *at every candidate
/// memory size simultaneously*, without re-running the workload — exactly
/// what the joint power manager needs.
///
/// The implementation is the Bennett–Kruskal algorithm: a Fenwick tree over
/// access slots marks, for each distinct page, its most recent access; the
/// stack position of a re-access is one plus the number of marks after the
/// page's previous slot. Every distinct page holds exactly one mark, so that
/// count is the live-page total minus one prefix sum. O(log n) per access.
///
/// Both indices are dense arrays: `last_slot` is indexed by page id (it grows
/// to the highest page observed, which the simulator bounds by the run's
/// page space) and `slot_page` by slot. When the slots run out, compaction
/// sweeps them once in order, moves each live slot down to the next packed
/// position, and rebuilds the tree in O(n) — no sort, no hashing, and no new
/// allocation once the arrays have reached their working size.
///
/// # Example
///
/// The paper's Fig. 3 example — ten accesses to pages
/// (1, 2, 3, 5, 2, 1, 4, 6, 5, 2) — yields counters (0,0,1,1,2,0,0,0):
///
/// ```
/// use jpmd_mem::{StackDistance, StackProfiler};
///
/// let mut p = StackProfiler::new();
/// let mut hits_at_4 = 0;
/// for page in [1u64, 2, 3, 5, 2, 1, 4, 6, 5, 2] {
///     if !p.observe(page).misses_at(4) {
///         hits_at_4 += 1;
///     }
/// }
/// assert_eq!(hits_at_4, 2); // eight disk accesses with 4-page memory
/// ```
#[derive(Debug, Clone)]
pub struct StackProfiler {
    /// Most recent access slot of each page ([`NO_SLOT`] if never seen).
    last_slot: Vec<u32>,
    /// Page that accessed each slot (only `..cursor` is meaningful).
    slot_page: Vec<u32>,
    /// Marks the slots that are currently "most recent" for some page.
    marks: Fenwick,
    /// Next free slot.
    cursor: usize,
    /// Distinct pages seen (= marks set).
    live: usize,
}

/// `last_slot` entry of a page that was never accessed.
const NO_SLOT: u32 = u32::MAX;

/// Slots allocated before the first compaction.
const MIN_SLOTS: usize = 1024;

impl Default for StackProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl StackProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self {
            last_slot: Vec::new(),
            slot_page: vec![0; MIN_SLOTS],
            marks: Fenwick::new(MIN_SLOTS),
            cursor: 0,
            live: 0,
        }
    }

    /// Number of distinct pages seen so far.
    pub fn distinct_pages(&self) -> usize {
        self.live
    }

    /// Observes one access and returns its stack distance.
    ///
    /// # Panics
    ///
    /// Panics if `page` is not below [`MAX_PAGE_SPACE`](crate::MAX_PAGE_SPACE).
    pub fn observe(&mut self, page: u64) -> StackDistance {
        assert!(
            page < crate::MAX_PAGE_SPACE,
            "page {page} exceeds the dense page index"
        );
        let index = page as usize;
        crate::grow_dense(&mut self.last_slot, index, NO_SLOT);
        if self.cursor == self.marks.len() {
            self.compact();
        }
        let slot = self.cursor;
        self.cursor += 1;
        let prev = std::mem::replace(&mut self.last_slot[index], slot as u32);
        self.slot_page[slot] = index as u32;
        let distance = if prev == NO_SLOT {
            self.live += 1;
            StackDistance::Cold
        } else {
            // One mark per live page: the marks at `prev` and after it are
            // this page plus every page touched since.
            let prev = prev as usize;
            let position = self.live as u64 + 1 - self.marks.prefix_sum(prev);
            self.marks.add(prev, -1);
            StackDistance::Position(position)
        };
        self.marks.add(slot, 1);
        distance
    }

    /// Drops all history (the joint method deliberately does **not** do
    /// this between periods — "the joint method does not reset the LRU list
    /// every period", §V-C — but tests and fresh simulations do).
    pub fn reset(&mut self) {
        *self = Self::new();
    }

    /// The distinct pages seen so far, least recently used first — the
    /// profiler's complete state (see [`StackProfiler::from_recency`]).
    fn recency(&self) -> Vec<u64> {
        (0..self.cursor)
            .filter(|&s| self.is_live(s))
            .map(|s| u64::from(self.slot_page[s]))
            .collect()
    }

    /// Rebuilds a profiler whose history is `pages`, least recently used
    /// first (the inverse of [`StackProfiler::recency`]).
    ///
    /// # Errors
    ///
    /// Fails if a page repeats or does not fit the dense index.
    fn from_recency(pages: &[u64]) -> Result<Self, serde::Error> {
        let mut profiler = Self::new();
        for &page in pages {
            if page >= crate::MAX_PAGE_SPACE || profiler.observe(page) != StackDistance::Cold {
                return Err(serde::Error::custom(format!(
                    "profiler history holds invalid or repeated page {page}"
                )));
            }
        }
        Ok(profiler)
    }

    fn is_live(&self, slot: usize) -> bool {
        self.last_slot[self.slot_page[slot] as usize] == slot as u32
    }

    /// Re-packs slots to the live pages in one pass, keeping recency order.
    fn compact(&mut self) {
        let mut packed = 0;
        for slot in 0..self.cursor {
            if self.is_live(slot) {
                let page = self.slot_page[slot];
                self.slot_page[packed] = page;
                self.last_slot[page as usize] = packed as u32;
                packed += 1;
            }
        }
        debug_assert_eq!(packed, self.live);
        let cap = (2 * packed).max(MIN_SLOTS);
        self.slot_page.resize(cap, 0);
        self.marks.reset_prefix_ones(cap, packed);
        self.cursor = packed;
    }
}

impl Serialize for StackProfiler {
    fn to_value(&self) -> serde::Value {
        self.recency().to_value()
    }
}

impl Deserialize for StackProfiler {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        Self::from_recency(&Vec::<u64>::from_value(value)?)
    }
}

/// One profiled disk-cache access: when it happened, which page it
/// touched, and its LRU stack distance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogEntry {
    /// Arrival time, s.
    pub time: f64,
    /// Global page number (used by the multi-disk extension to route
    /// predicted misses to the disk that would serve them).
    pub page: u64,
    /// LRU stack distance of the access.
    pub distance: StackDistance,
}

/// One period's worth of profiled accesses, the raw material for the
/// joint policy's per-size predictions.
///
/// This is the runtime embodiment of the paper's LRU-list *counters* plus
/// the access *timestamps* (§IV-B): together they predict, for any candidate
/// memory size, both the number of disk accesses and the disk idle-interval
/// structure.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AccessLog {
    entries: Vec<LogEntry>,
}

impl AccessLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one profiled access.
    pub fn record(&mut self, time: f64, page: u64, distance: StackDistance) {
        self.entries.push(LogEntry {
            time,
            page,
            distance,
        });
    }

    /// Number of accesses in the log (the paper's `N`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Entries the log can hold before it reallocates.
    pub(crate) fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// True when no accesses were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The recorded accesses, in arrival order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Predicted number of disk accesses with an LRU cache of
    /// `capacity_pages` (the paper's `n_d` at candidate size `m`).
    pub fn misses_at(&self, capacity_pages: u64) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.distance.misses_at(capacity_pages))
            .count() as u64
    }

    /// Timestamps of the accesses that would miss at `capacity_pages`, in
    /// arrival order — the predicted disk-access stream whose gaps form the
    /// idle intervals of paper Fig. 4.
    pub fn miss_times_at(&self, capacity_pages: u64) -> impl Iterator<Item = f64> + '_ {
        self.entries
            .iter()
            .filter(move |e| e.distance.misses_at(capacity_pages))
            .map(|e| e.time)
    }

    /// The paper's per-position counters: `counters[i]` (0-based) is the
    /// number of accesses at stack position `i + 1`, up to `max_positions`.
    /// Cold accesses increment no counter, exactly as in Fig. 3.
    pub fn position_counters(&self, max_positions: usize) -> Vec<u64> {
        let mut counters = vec![0u64; max_positions];
        for e in &self.entries {
            if let StackDistance::Position(p) = e.distance {
                let idx = p as usize - 1;
                if idx < max_positions {
                    counters[idx] += 1;
                }
            }
        }
        counters
    }

    /// Clears the log for the next period.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Naive LRU stack for cross-checking.
    fn naive_distances(pages: &[u64]) -> Vec<StackDistance> {
        let mut stack: Vec<u64> = Vec::new();
        let mut out = Vec::new();
        for &p in pages {
            match stack.iter().position(|&q| q == p) {
                None => {
                    out.push(StackDistance::Cold);
                }
                Some(pos) => {
                    out.push(StackDistance::Position(pos as u64 + 1));
                    stack.remove(pos);
                }
            }
            stack.insert(0, p);
        }
        out
    }

    #[test]
    fn paper_fig3_example() {
        // Paper §IV-B: accesses (1,2,3,5,2,1,4,6,5,2), 8-page LRU list.
        // Expected counters after all ten accesses: (0,0,1,1,2,0,0,0).
        let seq = [1u64, 2, 3, 5, 2, 1, 4, 6, 5, 2];
        let mut profiler = StackProfiler::new();
        let mut log = AccessLog::new();
        for (i, &p) in seq.iter().enumerate() {
            log.record(i as f64, p, profiler.observe(p));
        }
        assert_eq!(
            log.position_counters(8),
            vec![0, 0, 1, 1, 2, 0, 0, 0],
            "paper Fig. 3 counters"
        );
        // "Among the ten accesses, there are eight disk accesses and two
        // memory accesses … when the memory size is four pages."
        assert_eq!(log.misses_at(4), 8);
        // "If the physical memory size is three pages … the number of disk
        // accesses becomes nine."
        assert_eq!(log.misses_at(3), 9);
        // "If the physical memory size increases to five pages, two disk
        // accesses can be avoided" (relative to the 8 at four pages).
        assert_eq!(log.misses_at(5), 6);
        // "Further increasing the memory size has the same disk IO."
        assert_eq!(log.misses_at(6), 6);
        assert_eq!(log.misses_at(8), 6);
    }

    #[test]
    fn matches_naive_on_fixed_sequence() {
        let seq = [3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3];
        let mut profiler = StackProfiler::new();
        let got: Vec<StackDistance> = seq.iter().map(|&p| profiler.observe(p)).collect();
        assert_eq!(got, naive_distances(&seq));
    }

    #[test]
    fn repeated_same_page_is_distance_one() {
        let mut p = StackProfiler::new();
        assert_eq!(p.observe(7), StackDistance::Cold);
        for _ in 0..5 {
            assert_eq!(p.observe(7), StackDistance::Position(1));
        }
    }

    #[test]
    fn compaction_preserves_distances() {
        // Force many compactions with a tiny initial capacity by pushing
        // far more accesses than the default 1024 slots.
        let mut profiler = StackProfiler::new();
        let mut naive_seq = Vec::new();
        let mut got = Vec::new();
        for i in 0..5000u64 {
            let page = i % 97; // heavy reuse
            naive_seq.push(page);
            got.push(profiler.observe(page));
        }
        assert_eq!(got, naive_distances(&naive_seq));
        assert_eq!(profiler.distinct_pages(), 97);
    }

    #[test]
    fn recency_round_trips_and_rejects_repeats() {
        let mut p = StackProfiler::new();
        for page in [5u64, 9, 5, 70_000, 2] {
            p.observe(page);
        }
        assert_eq!(p.recency(), vec![9, 5, 70_000, 2]);
        let mut q = StackProfiler::from_recency(&p.recency()).expect("valid history");
        assert_eq!(q.observe(9), p.observe(9));
        assert!(StackProfiler::from_recency(&[1, 2, 1]).is_err());
        assert!(StackProfiler::from_value(&vec![u64::MAX].to_value()).is_err());
    }

    #[test]
    fn reset_forgets_history() {
        let mut p = StackProfiler::new();
        p.observe(1);
        p.reset();
        assert_eq!(p.observe(1), StackDistance::Cold);
    }

    #[test]
    fn miss_times_filter_correctly() {
        let mut profiler = StackProfiler::new();
        let mut log = AccessLog::new();
        for (i, &p) in [1u64, 2, 1, 1].iter().enumerate() {
            log.record(i as f64, p, profiler.observe(p));
        }
        // distances: Cold, Cold, 2, 1
        let at1: Vec<f64> = log.miss_times_at(1).collect();
        assert_eq!(at1, vec![0.0, 1.0, 2.0]);
        let at2: Vec<f64> = log.miss_times_at(2).collect();
        assert_eq!(at2, vec![0.0, 1.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn profiler_matches_naive(seq in proptest::collection::vec(0u64..32, 1..300)) {
            let mut profiler = StackProfiler::new();
            let got: Vec<StackDistance> = seq.iter().map(|&p| profiler.observe(p)).collect();
            prop_assert_eq!(got, naive_distances(&seq));
        }

        #[test]
        fn dense_profiler_matches_naive_across_compactions_and_restore(
            picks in proptest::collection::vec(0usize..48, 1..3000),
            total_pages in 1u64..(1 << 20),
            cut in 0usize..3000,
        ) {
            // 48 sparse page ids over the page space, its last page among
            // them; ≤ 48 live pages in 1024 slots forces a compaction
            // roughly every thousand accesses.
            let ids: Vec<u64> = (0..48u64)
                .map(|i| (total_pages - 1 + i * 7919 + i * i * 104_729) % total_pages)
                .collect();
            let seq: Vec<u64> = picks.iter().map(|&i| ids[i]).collect();
            let expect = naive_distances(&seq);
            let mut profiler = StackProfiler::new();
            for (i, (&page, &want)) in seq.iter().zip(&expect).enumerate() {
                if i == cut {
                    // Snapshot and restore mid-stream.
                    profiler = StackProfiler::from_value(&profiler.to_value()).unwrap();
                }
                prop_assert_eq!(profiler.observe(page), want);
            }
            let distinct: std::collections::HashSet<_> = seq.iter().collect();
            prop_assert_eq!(profiler.distinct_pages(), distinct.len());
        }

        #[test]
        fn misses_monotone_in_capacity(seq in proptest::collection::vec(0u64..16, 1..200)) {
            let mut profiler = StackProfiler::new();
            let mut log = AccessLog::new();
            for (i, &p) in seq.iter().enumerate() {
                log.record(i as f64, p, profiler.observe(p));
            }
            // Inclusion property: more memory never causes more misses.
            let mut prev = u64::MAX;
            for cap in 0..20 {
                let m = log.misses_at(cap);
                prop_assert!(m <= prev);
                prev = m;
            }
            // Cold misses remain at infinite capacity.
            let distinct: std::collections::HashSet<_> = seq.iter().collect();
            prop_assert_eq!(log.misses_at(u64::MAX), distinct.len() as u64);
        }
    }
}

const NONE: u32 = u32::MAX;

/// Replacement policy of the [`DiskCache`].
///
/// The paper's baseline is global LRU (the Linux page cache it modifies).
/// [`Replacement::BankAware`] is the power-aware alternative studied in
/// the related work (Zhu et al. \[6\]; PB-LRU \[36\]): on eviction it victimizes
/// the least-recently-used page of the **coldest bank**, concentrating the
/// live working set into fewer banks so that timeout-managed banks
/// (power-down/disable) reach their idle thresholds sooner. It may raise
/// the miss rate slightly — "lower miss rates do not necessarily save more
/// disk energy" is exactly the effect the `replacement` ablation measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum Replacement {
    /// Evict the globally least-recently-used page.
    #[default]
    GlobalLru,
    /// Evict the LRU page of the coldest (least-recently-touched) bank.
    BankAware,
}

/// Result of a [`DiskCache::access`]: whether the page was resident, and
/// which frame now holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// True when the page was already resident (a memory access); false
    /// when it had to be loaded (a disk access).
    pub hit: bool,
    /// Frame index now holding the page. Divide by the bank's page count
    /// to get the bank.
    pub frame: u32,
    /// A dirty page that was evicted to make room and must be written
    /// back to the disk (write-back caching).
    pub writeback: Option<u64>,
}

#[derive(Debug, Clone, Copy, serde::Serialize, serde::Deserialize)]
struct Frame {
    /// The page held, or [`NONE`] while the frame is unoccupied.
    page: u32,
    /// Position in the dirty-frame list while the page is modified since
    /// it was loaded (it must reach the disk before it may be dropped);
    /// [`NONE`] while clean.
    dirty_at: u32,
    prev: u32,
    next: u32,
    /// Logical access counter stamp of the last touch (for bank-aware
    /// eviction).
    stamp: u64,
}

impl Frame {
    const EMPTY: Frame = Frame {
        page: NONE,
        dirty_at: NONE,
        prev: NONE,
        next: NONE,
        stamp: 0,
    };

    fn is_dirty(&self) -> bool {
        self.dirty_at != NONE
    }

    fn occupied(&self) -> bool {
        self.page != NONE
    }
}

/// A stretch of the free list: frames `lo..hi`, handed out lowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
struct FreeRun {
    lo: u32,
    hi: u32,
}

/// An LRU disk cache over physical page frames, resizable in bank units.
///
/// This is the simulator counterpart of the Linux page cache the paper
/// modifies (§V-A): global LRU replacement over the *resident* pages, plus
/// bank-granular invalidation ("when a memory bank is turned off, all pages
/// in the same bank are invalidated"). Frames are laid out bank-major:
/// frame `f` belongs to bank `f / bank_pages`, and resizing to `k` banks
/// makes exactly frames `0..k·bank_pages` usable.
///
/// Resident memory scales with what the run uses, not with what is
/// installed: frames are built on first use (the free list keeps
/// never-used frames as implicit runs), the page → frame index is a dense
/// array grown to the highest page seen, and a dirty-frame list makes a
/// sync cost O(dirty pages) rather than a scan of every frame.
///
/// The *predictive* side of the paper's extended LRU list (replaced pages +
/// position counters) lives in [`StackProfiler`](crate::StackProfiler);
/// this type models what the hardware actually holds, including the
/// deviations from pure LRU that bank invalidation causes.
///
/// # Example
///
/// ```
/// use jpmd_mem::DiskCache;
///
/// let mut cache = DiskCache::new(2, 4); // 2 banks × 4 pages
/// assert!(!cache.access(7).hit);  // cold
/// assert!(cache.access(7).hit);   // now resident
/// cache.resize(1);                // drop to one bank
/// assert!(cache.capacity_pages() == 4);
/// ```
#[derive(Debug, Clone)]
pub struct DiskCache {
    /// Frames built so far (`0..frames.len()`); the rest are untouched.
    frames: Vec<Frame>,
    /// Frame holding each page ([`NONE`] when not resident).
    page_frame: Vec<u32>,
    /// Free frames as a stack of runs; the last run is popped first.
    free: Vec<FreeRun>,
    /// Frames holding dirty pages, in no particular order.
    dirty: Vec<u32>,
    resident: usize,
    /// Most-recently-used frame.
    head: u32,
    /// Least-recently-used frame.
    tail: u32,
    bank_pages: u32,
    enabled_banks: u32,
    total_banks: u32,
    replacement: Replacement,
    /// Logical access counter (monotone per access).
    clock: u64,
    /// Per-bank stamp of the most recent touch.
    bank_stamp: Vec<u64>,
}

impl DiskCache {
    /// Creates a cache of `total_banks` banks with `bank_pages` frames
    /// each, all banks enabled.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero, or if the frame count does not
    /// fit the `u32` frame index.
    pub fn new(total_banks: u32, bank_pages: u32) -> Self {
        assert!(total_banks > 0 && bank_pages > 0, "cache must be non-empty");
        let n = total_banks
            .checked_mul(bank_pages)
            .filter(|&n| n != NONE)
            .expect("frame count must fit the u32 frame index");
        Self {
            frames: Vec::new(),
            page_frame: Vec::new(),
            // Low frames (low banks) get used first.
            free: vec![FreeRun { lo: 0, hi: n }],
            dirty: Vec::new(),
            resident: 0,
            head: NONE,
            tail: NONE,
            bank_pages,
            enabled_banks: total_banks,
            total_banks,
            replacement: Replacement::GlobalLru,
            clock: 0,
            bank_stamp: vec![0; total_banks as usize],
        }
    }

    /// Selects the replacement policy (default: global LRU).
    pub fn set_replacement(&mut self, replacement: Replacement) {
        self.replacement = replacement;
    }

    /// The replacement policy in force.
    pub fn replacement(&self) -> Replacement {
        self.replacement
    }

    /// Current capacity in pages (`enabled_banks × bank_pages`).
    pub fn capacity_pages(&self) -> u64 {
        self.enabled_banks as u64 * self.bank_pages as u64
    }

    /// Number of currently enabled banks.
    pub fn enabled_banks(&self) -> u32 {
        self.enabled_banks
    }

    /// Total banks (ceiling for [`DiskCache::resize`]).
    pub fn total_banks(&self) -> u32 {
        self.total_banks
    }

    /// Frames per bank.
    pub fn bank_pages(&self) -> u32 {
        self.bank_pages
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// Whether `page` is resident (does not touch recency).
    pub fn contains(&self, page: u64) -> bool {
        self.frame_of(page).is_some()
    }

    /// Bank of a frame.
    pub fn bank_of(&self, frame: u32) -> u32 {
        frame / self.bank_pages
    }

    /// The frame holding `page`, if resident.
    fn frame_of(&self, page: u64) -> Option<u32> {
        let f = *self.page_frame.get(usize::try_from(page).ok()?)?;
        (f != NONE).then_some(f)
    }

    /// The built frames among `lo..hi`.
    fn built(&self, lo: u32, hi: u32) -> std::ops::Range<u32> {
        let hi = hi.min(self.frames.len() as u32);
        lo.min(hi)..hi
    }

    fn unlink(&mut self, f: u32) {
        let (prev, next) = {
            let fr = &self.frames[f as usize];
            (fr.prev, fr.next)
        };
        if prev != NONE {
            self.frames[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NONE {
            self.frames[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        self.frames[f as usize].prev = NONE;
        self.frames[f as usize].next = NONE;
    }

    fn push_front(&mut self, f: u32) {
        self.frames[f as usize].prev = NONE;
        self.frames[f as usize].next = self.head;
        if self.head != NONE {
            self.frames[self.head as usize].prev = f;
        }
        self.head = f;
        if self.tail == NONE {
            self.tail = f;
        }
    }

    /// Takes the next free frame, building it on first use.
    fn pop_free(&mut self) -> Option<u32> {
        let run = self.free.last_mut()?;
        let f = run.lo;
        run.lo += 1;
        if run.lo == run.hi {
            self.free.pop();
        }
        self.build(f);
        Some(f)
    }

    /// Builds frames up to `frame` on its first use.
    fn build(&mut self, frame: u32) {
        if frame as usize >= self.frames.len() {
            self.frames.resize(frame as usize + 1, Frame::EMPTY);
        }
    }

    /// Pushes frames `lo..hi` onto the free list, `lo` to be taken first.
    fn push_free(&mut self, lo: u32, hi: u32) {
        match self.free.last_mut() {
            Some(top) if top.lo == hi => top.lo = lo,
            _ => self.free.push(FreeRun { lo, hi }),
        }
    }

    /// Removes `frame` from the free list, wherever it sits.
    fn take_free(&mut self, frame: u32) {
        let i = self
            .free
            .iter()
            .position(|r| (r.lo..r.hi).contains(&frame))
            .expect("frame is on the free list");
        let run = self.free[i];
        // `lo..frame` is taken before `frame + 1..hi`, so it sits above.
        let split = [
            FreeRun {
                lo: frame + 1,
                hi: run.hi,
            },
            FreeRun {
                lo: run.lo,
                hi: frame,
            },
        ];
        self.free
            .splice(i..=i, split.into_iter().filter(|r| r.lo < r.hi));
    }

    /// Accesses `page`: a hit refreshes recency; a miss loads the page,
    /// evicting the LRU page if no frame is free. A dirty eviction victim
    /// is reported through [`CacheAccess::writeback`].
    ///
    /// # Panics
    ///
    /// Panics if `page` is not below [`MAX_PAGE_SPACE`](crate::MAX_PAGE_SPACE).
    pub fn access(&mut self, page: u64) -> CacheAccess {
        self.clock += 1;
        assert!(
            page < crate::MAX_PAGE_SPACE,
            "page {page} exceeds the dense page index"
        );
        let index = page as usize;
        if let Some(f) = self.frame_of(page) {
            self.unlink(f);
            self.push_front(f);
            self.touch(f);
            return CacheAccess {
                hit: true,
                frame: f,
                writeback: None,
            };
        }
        let mut writeback = None;
        let f = match self.pop_free() {
            Some(f) => f,
            None => {
                let victim = self.pick_victim();
                debug_assert_ne!(victim, NONE, "no free frame and empty LRU list");
                if self.frames[victim as usize].is_dirty() {
                    writeback = Some(u64::from(self.frames[victim as usize].page));
                }
                self.evict_frame(victim);
                victim
            }
        };
        self.frames[f as usize].page = page as u32;
        crate::grow_dense(&mut self.page_frame, index, NONE);
        self.page_frame[index] = f;
        self.resident += 1;
        self.push_front(f);
        self.touch(f);
        CacheAccess {
            hit: false,
            frame: f,
            writeback,
        }
    }

    /// Marks the page held by `frame` as modified (write-back caching).
    ///
    /// # Panics
    ///
    /// Panics if `frame` has never held a page.
    pub fn mark_dirty(&mut self, frame: u32) {
        assert!((frame as usize) < self.frames.len(), "frame out of range");
        let at = self.dirty.len() as u32;
        let fr = &mut self.frames[frame as usize];
        debug_assert!(fr.occupied());
        if !fr.is_dirty() {
            fr.dirty_at = at;
            self.dirty.push(frame);
        }
    }

    /// Clears `frame`'s dirty bit, dropping it from the dirty list.
    fn clean(&mut self, frame: u32) {
        let at = std::mem::replace(&mut self.frames[frame as usize].dirty_at, NONE);
        if at == NONE {
            return;
        }
        self.dirty.swap_remove(at as usize);
        if let Some(&moved) = self.dirty.get(at as usize) {
            self.frames[moved as usize].dirty_at = at;
        }
    }

    /// Whether `page` is resident *and* dirty.
    pub fn is_dirty(&self, page: u64) -> bool {
        self.frame_of(page)
            .is_some_and(|f| self.frames[f as usize].is_dirty())
    }

    /// Number of dirty resident pages.
    pub fn dirty_pages(&self) -> usize {
        self.dirty.len()
    }

    /// Clears every dirty bit and returns the pages that were dirty,
    /// sorted ascending (so the caller can coalesce contiguous runs into
    /// disk write requests) — the periodic sync / pdflush operation.
    /// Costs O(d log d) in the `d` dirty pages.
    pub fn drain_dirty(&mut self) -> Vec<u64> {
        let mut pages: Vec<u64> = self
            .dirty
            .iter()
            .map(|&f| {
                let frame = &mut self.frames[f as usize];
                frame.dirty_at = NONE;
                u64::from(frame.page)
            })
            .collect();
        self.dirty.clear();
        pages.sort_unstable();
        pages
    }

    /// Dirty pages currently resident in `banks_lo..banks_hi`, sorted —
    /// callers flush these before invalidating or disabling those banks.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the installed banks.
    pub fn dirty_pages_in_banks(&self, banks_lo: u32, banks_hi: u32) -> Vec<u64> {
        assert!(banks_hi <= self.total_banks && banks_lo <= banks_hi);
        let frames = banks_lo * self.bank_pages..banks_hi * self.bank_pages;
        let mut pages: Vec<u64> = self
            .dirty
            .iter()
            .filter(|f| frames.contains(f))
            .map(|&f| u64::from(self.frames[f as usize].page))
            .collect();
        pages.sort_unstable();
        pages
    }

    fn touch(&mut self, frame: u32) {
        let bank = self.bank_of(frame) as usize;
        self.frames[frame as usize].stamp = self.clock;
        self.bank_stamp[bank] = self.clock;
    }

    /// Picks the eviction victim per the replacement policy.
    fn pick_victim(&self) -> u32 {
        match self.replacement {
            Replacement::GlobalLru => self.tail,
            Replacement::BankAware => {
                // Coldest enabled bank with any occupied frame…
                let mut best_bank = NONE;
                let mut best_stamp = u64::MAX;
                for bank in 0..self.enabled_banks {
                    let lo = bank * self.bank_pages;
                    let frames = self.built(lo, lo + self.bank_pages);
                    if self.frames[frames.start as usize..frames.end as usize]
                        .iter()
                        .any(Frame::occupied)
                        && self.bank_stamp[bank as usize] < best_stamp
                    {
                        best_stamp = self.bank_stamp[bank as usize];
                        best_bank = bank;
                    }
                }
                if best_bank == NONE {
                    return self.tail;
                }
                // …and its LRU (oldest-stamp) occupied frame.
                let lo = best_bank * self.bank_pages;
                let mut victim = NONE;
                let mut oldest = u64::MAX;
                for f in self.built(lo, lo + self.bank_pages) {
                    let fr = &self.frames[f as usize];
                    if fr.occupied() && fr.stamp < oldest {
                        oldest = fr.stamp;
                        victim = f;
                    }
                }
                victim
            }
        }
    }

    /// Removes the page held by `frame` (which must be occupied) from the
    /// index and LRU list; the frame is left unoccupied but **not**
    /// returned to the free list.
    fn evict_frame(&mut self, frame: u32) {
        let page = self.frames[frame as usize].page;
        self.unlink(frame);
        self.clean(frame);
        self.frames[frame as usize].page = NONE;
        self.page_frame[page as usize] = NONE;
        self.resident -= 1;
    }

    /// Invalidates every resident page in `bank` (paper: disabling a bank
    /// invalidates its pages). Returns the number of pages dropped. The
    /// freed frames become available again if the bank is enabled.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn invalidate_bank(&mut self, bank: u32) -> usize {
        assert!(bank < self.total_banks, "bank out of range");
        let lo = bank * self.bank_pages;
        let mut dropped = 0;
        for f in self.built(lo, lo + self.bank_pages) {
            if self.frames[f as usize].occupied() {
                self.evict_frame(f);
                dropped += 1;
                // Unoccupied frames are already in the free list (or the
                // bank is disabled); only the just-evicted ones return.
                if bank < self.enabled_banks {
                    self.push_free(f, f + 1);
                }
            }
        }
        dropped
    }

    /// Evacuates `bank`: moves its resident pages into free frames of
    /// *other* enabled banks (lowest frame first, i.e. the busiest end of
    /// the cache), preserving each page's position in the LRU order.
    /// Returns the destination frames of the moved pages; pages that found
    /// no free frame stay put.
    ///
    /// This is the consolidation primitive of power-aware cache
    /// management (related work \[6\], \[36\]): draining a nearly-idle bank
    /// lets a `DisableAfter` policy turn it off **without** losing data —
    /// trading a little memory-copy energy for avoided disk reloads.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn evacuate_bank(&mut self, bank: u32) -> Vec<u32> {
        assert!(bank < self.total_banks, "bank out of range");
        let lo = bank * self.bank_pages;
        let hi = lo + self.bank_pages;
        // Free frames outside the bank, busiest (lowest) first.
        let mut outside: Vec<FreeRun> = self
            .free
            .iter()
            .flat_map(|r| {
                [
                    FreeRun {
                        lo: r.lo,
                        hi: r.hi.min(lo),
                    },
                    FreeRun {
                        lo: r.lo.max(hi),
                        hi: r.hi,
                    },
                ]
            })
            .filter(|r| r.lo < r.hi)
            .collect();
        outside.sort_unstable_by_key(|r| r.lo);
        let mut destinations = outside.into_iter().flat_map(|r| r.lo..r.hi);
        let mut moved = Vec::new();
        for src in self.built(lo, hi) {
            if !self.frames[src as usize].occupied() {
                continue;
            }
            let Some(dst) = destinations.next() else {
                break;
            };
            self.take_free(dst);
            self.build(dst);
            // Take over the source's identity: page, stamp, dirty slot,
            // and LRU links.
            let src_frame = self.frames[src as usize];
            self.frames[dst as usize] = src_frame;
            if src_frame.prev != NONE {
                self.frames[src_frame.prev as usize].next = dst;
            } else {
                self.head = dst;
            }
            if src_frame.next != NONE {
                self.frames[src_frame.next as usize].prev = dst;
            } else {
                self.tail = dst;
            }
            if src_frame.is_dirty() {
                self.dirty[src_frame.dirty_at as usize] = dst;
            }
            self.page_frame[src_frame.page as usize] = dst;
            self.frames[src as usize] = Frame::EMPTY;
            // The drained frame returns to the cold end of the free list
            // so future fills prefer already-warm banks.
            match self.free.first_mut() {
                Some(bottom) if bottom.hi == src => bottom.hi += 1,
                _ => self.free.insert(
                    0,
                    FreeRun {
                        lo: src,
                        hi: src + 1,
                    },
                ),
            }
            let dst_bank = self.bank_of(dst) as usize;
            if src_frame.stamp > self.bank_stamp[dst_bank] {
                self.bank_stamp[dst_bank] = src_frame.stamp;
            }
            moved.push(dst);
        }
        moved
    }

    /// Resizes to `enabled_banks` banks.
    ///
    /// Shrinking invalidates all pages in the disabled banks and removes
    /// their frames from the free pool; growing adds empty frames. Returns
    /// the number of pages invalidated.
    ///
    /// # Panics
    ///
    /// Panics if `enabled_banks` is zero or exceeds the total.
    pub fn resize(&mut self, enabled_banks: u32) -> usize {
        assert!(
            enabled_banks >= 1 && enabled_banks <= self.total_banks,
            "enabled banks must be in 1..=total"
        );
        let old = self.enabled_banks;
        let mut dropped = 0;
        if enabled_banks < old {
            let cutoff = enabled_banks * self.bank_pages;
            for f in self.built(cutoff, old * self.bank_pages) {
                if self.frames[f as usize].occupied() {
                    self.evict_frame(f);
                    dropped += 1;
                }
            }
            self.free.retain_mut(|r| {
                r.hi = r.hi.min(cutoff);
                r.lo < r.hi
            });
        } else {
            for bank in old..enabled_banks {
                let lo = bank * self.bank_pages;
                debug_assert!(self
                    .built(lo, lo + self.bank_pages)
                    .all(|f| !self.frames[f as usize].occupied()));
                self.push_free(lo, lo + self.bank_pages);
            }
        }
        self.enabled_banks = enabled_banks;
        dropped
    }

    /// Iterator over resident pages in LRU order (most recent first);
    /// intended for tests and diagnostics.
    pub fn iter_lru(&self) -> impl Iterator<Item = u64> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NONE {
                None
            } else {
                let f = &self.frames[cur as usize];
                cur = f.next;
                Some(u64::from(f.page))
            }
        })
    }
}

/// Serializable image of a [`DiskCache`]: the built frames and the lists
/// over them. The page → frame index and the resident count are rebuilt
/// from the frames on restore.
#[derive(serde::Serialize, serde::Deserialize)]
struct CacheImage {
    frames: Vec<Frame>,
    free: Vec<FreeRun>,
    dirty: Vec<u32>,
    head: u32,
    tail: u32,
    bank_pages: u32,
    enabled_banks: u32,
    total_banks: u32,
    replacement: Replacement,
    clock: u64,
    bank_stamp: Vec<u64>,
}

impl serde::Serialize for DiskCache {
    fn to_value(&self) -> serde::Value {
        CacheImage {
            frames: self.frames.clone(),
            free: self.free.clone(),
            dirty: self.dirty.clone(),
            head: self.head,
            tail: self.tail,
            bank_pages: self.bank_pages,
            enabled_banks: self.enabled_banks,
            total_banks: self.total_banks,
            replacement: self.replacement,
            clock: self.clock,
            bank_stamp: self.bank_stamp.clone(),
        }
        .to_value()
    }
}

impl serde::Deserialize for DiskCache {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let image = CacheImage::from_value(value)?;
        let bad = |what: &str| serde::Error::custom(format!("inconsistent cache image: {what}"));
        let installed = u64::from(image.total_banks) * u64::from(image.bank_pages);
        if image.frames.len() as u64 > installed
            || image.bank_stamp.len() != image.total_banks as usize
        {
            return Err(bad("geometry"));
        }
        let mut page_frame = Vec::new();
        let mut resident = 0;
        for (f, frame) in image.frames.iter().enumerate() {
            if !frame.occupied() {
                continue;
            }
            let page = frame.page as usize;
            crate::grow_dense(&mut page_frame, page, NONE);
            page_frame[page] = f as u32;
            resident += 1;
        }
        for (at, &f) in image.dirty.iter().enumerate() {
            match image.frames.get(f as usize) {
                Some(frame) if frame.occupied() && frame.dirty_at == at as u32 => {}
                _ => return Err(bad("dirty list")),
            }
        }
        Ok(DiskCache {
            frames: image.frames,
            page_frame,
            free: image.free,
            dirty: image.dirty,
            resident,
            head: image.head,
            tail: image.tail,
            bank_pages: image.bank_pages,
            enabled_banks: image.enabled_banks,
            total_banks: image.total_banks,
            replacement: image.replacement,
            clock: image.clock,
            bank_stamp: image.bank_stamp,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn hit_after_load() {
        let mut c = DiskCache::new(1, 4);
        assert!(!c.access(1).hit);
        assert!(c.access(1).hit);
        assert_eq!(c.resident_pages(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = DiskCache::new(1, 3);
        c.access(1);
        c.access(2);
        c.access(3);
        c.access(1); // refresh 1; LRU order now 1,3,2
        assert!(!c.access(4).hit); // evicts 2
        assert!(c.contains(1));
        assert!(c.contains(3));
        assert!(!c.contains(2));
    }

    #[test]
    fn iter_lru_most_recent_first() {
        let mut c = DiskCache::new(1, 4);
        for p in [1u64, 2, 3] {
            c.access(p);
        }
        let order: Vec<u64> = c.iter_lru().collect();
        assert_eq!(order, vec![3, 2, 1]);
    }

    #[test]
    fn shrink_invalidates_high_banks() {
        let mut c = DiskCache::new(2, 2);
        for p in [1u64, 2, 3, 4] {
            c.access(p);
        }
        assert_eq!(c.resident_pages(), 4);
        let dropped = c.resize(1);
        assert_eq!(dropped, 2);
        assert_eq!(c.resident_pages(), 2);
        assert_eq!(c.capacity_pages(), 2);
        // Pages 1 and 2 went to frames 0 and 1 (bank 0) and survive.
        assert!(c.contains(1));
        assert!(c.contains(2));
    }

    #[test]
    fn grow_restores_capacity() {
        let mut c = DiskCache::new(2, 2);
        c.resize(1);
        c.access(1);
        c.access(2);
        assert!(!c.access(3).hit); // evicts within 1 bank
        assert_eq!(c.resident_pages(), 2);
        c.resize(2);
        c.access(4);
        c.access(5);
        assert_eq!(c.resident_pages(), 4);
    }

    #[test]
    fn invalidate_bank_drops_only_that_bank() {
        let mut c = DiskCache::new(2, 2);
        for p in [1u64, 2, 3, 4] {
            c.access(p);
        }
        let dropped = c.invalidate_bank(0);
        assert_eq!(dropped, 2);
        assert!(!c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
        assert!(c.contains(4));
        // Freed frames are reusable: next two misses fill bank 0 again.
        c.access(5);
        c.access(6);
        assert_eq!(c.resident_pages(), 4);
    }

    #[test]
    fn invalidate_then_reaccess_is_miss() {
        let mut c = DiskCache::new(2, 2);
        c.access(1);
        c.invalidate_bank(0);
        assert!(!c.access(1).hit);
    }

    #[test]
    #[should_panic(expected = "1..=total")]
    fn resize_zero_panics() {
        let mut c = DiskCache::new(2, 2);
        c.resize(0);
    }

    #[test]
    fn frame_to_bank_mapping() {
        let c = DiskCache::new(4, 8);
        assert_eq!(c.bank_of(0), 0);
        assert_eq!(c.bank_of(7), 0);
        assert_eq!(c.bank_of(8), 1);
        assert_eq!(c.bank_of(31), 3);
    }

    #[test]
    fn bank_aware_evicts_from_coldest_bank() {
        // Frames fill lowest-first: pages 1,2,3,5 land in bank 0 and
        // 6,7,8,4 in bank 1. Re-touching page 1 makes bank 0 the warm
        // bank while leaving page 2 the *global* LRU page (in bank 0).
        let seq = [1u64, 2, 3, 5, 6, 7, 8, 4, 1];
        let mut c = DiskCache::new(2, 4);
        c.set_replacement(Replacement::BankAware);
        for p in seq {
            c.access(p);
        }
        c.access(9); // miss, cache full
        assert!(
            !c.contains(6),
            "bank-aware must evict the cold bank's LRU page"
        );
        assert!(c.contains(2), "global LRU page in the warm bank survives");

        // Global LRU control: same sequence evicts page 2 instead.
        let mut g = DiskCache::new(2, 4);
        for p in seq {
            g.access(p);
        }
        g.access(9);
        assert!(!g.contains(2));
        assert!(g.contains(6));
    }

    #[test]
    fn evacuate_moves_pages_and_keeps_them_resident() {
        let mut c = DiskCache::new(4, 2);
        // Occupy bank 0 fully (frames 0, 1); banks 1..3 free.
        c.access(10);
        c.access(11);
        let moved = c.evacuate_bank(0);
        assert_eq!(moved.len(), 2);
        assert!(c.contains(10) && c.contains(11));
        // The pages now live outside bank 0.
        for page in [10u64, 11] {
            let f = c.access(page).frame;
            assert_ne!(c.bank_of(f), 0, "page {page} must have left bank 0");
        }
        // Bank 0 can now be invalidated without losing anything.
        assert_eq!(c.invalidate_bank(0), 0);
        assert_eq!(c.resident_pages(), 2);
    }

    #[test]
    fn evacuate_preserves_lru_order() {
        let mut c = DiskCache::new(4, 2);
        for p in [1u64, 2, 3] {
            c.access(p);
        }
        let before: Vec<u64> = c.iter_lru().collect();
        c.evacuate_bank(0);
        let after: Vec<u64> = c.iter_lru().collect();
        assert_eq!(before, after, "evacuation must not disturb recency");
    }

    #[test]
    fn evacuate_with_no_free_destinations_is_noop() {
        let mut c = DiskCache::new(2, 2);
        for p in 0..4u64 {
            c.access(p); // cache full
        }
        assert!(c.evacuate_bank(0).is_empty());
        assert_eq!(c.resident_pages(), 4);
    }

    #[test]
    fn evacuated_frames_are_reused_last() {
        let mut c = DiskCache::new(3, 2);
        c.access(1);
        c.access(2); // bank 0 full
        c.evacuate_bank(0); // pages move to bank 1
                            // Next fills should prefer bank 1's remaining frame / bank 2 over
                            // re-warming the drained bank 0.
        let f = c.access(30).frame;
        assert_ne!(c.bank_of(f), 0, "drained bank must be refilled last");
    }

    /// Reference model: plain LRU over a capacity, no banks.
    fn naive_lru(accesses: &[u64], capacity: usize) -> Vec<bool> {
        let mut order: VecDeque<u64> = VecDeque::new();
        let mut hits = Vec::new();
        for &p in accesses {
            if let Some(pos) = order.iter().position(|&q| q == p) {
                order.remove(pos);
                order.push_front(p);
                hits.push(true);
            } else {
                if order.len() == capacity {
                    order.pop_back();
                }
                order.push_front(p);
                hits.push(false);
            }
        }
        hits
    }

    /// Reference: every dirty page and the resident count, read off a
    /// scan of all frames.
    fn frame_scan(c: &DiskCache, banks_lo: u32, banks_hi: u32) -> (Vec<u64>, usize) {
        let range = banks_lo * c.bank_pages..banks_hi * c.bank_pages;
        let mut dirty: Vec<u64> = (0..c.frames.len() as u32)
            .filter(|f| range.contains(f))
            .map(|f| c.frames[f as usize])
            .filter(|fr| fr.occupied() && fr.is_dirty())
            .map(|fr| u64::from(fr.page))
            .collect();
        dirty.sort_unstable();
        let resident = c.frames.iter().filter(|fr| fr.occupied()).count();
        (dirty, resident)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn dirty_list_and_index_match_a_full_frame_scan(
            ops in proptest::collection::vec((0u8..10, 0u64..64, 0u32..4), 1..300),
            bank_pages in 1u32..6,
        ) {
            let mut c = DiskCache::new(4, bank_pages);
            for (kind, page, bank) in ops {
                match kind {
                    0..=4 => {
                        let access = c.access(page);
                        if kind % 2 == 0 {
                            c.mark_dirty(access.frame);
                        }
                    }
                    5 => {
                        c.resize(bank + 1);
                    }
                    6 => {
                        c.invalidate_bank(bank);
                    }
                    7 => {
                        c.evacuate_bank(bank);
                    }
                    8 => {
                        let (want, _) = frame_scan(&c, 0, 4);
                        prop_assert_eq!(c.drain_dirty(), want);
                    }
                    _ => {
                        use serde::{Deserialize, Serialize};
                        c = DiskCache::from_value(&c.to_value()).unwrap();
                    }
                }
                let (dirty, resident) = frame_scan(&c, 0, 4);
                prop_assert_eq!(c.resident_pages(), resident);
                prop_assert_eq!(c.dirty_pages(), dirty.len());
                prop_assert_eq!(c.iter_lru().count(), resident);
                for q in 0..64 {
                    prop_assert_eq!(c.is_dirty(q), dirty.contains(&q));
                }
                for lo in 0..=4 {
                    for hi in lo..=4 {
                        prop_assert_eq!(c.dirty_pages_in_banks(lo, hi), frame_scan(&c, lo, hi).0);
                    }
                }
            }
            let (want, _) = frame_scan(&c, 0, 4);
            prop_assert_eq!(c.drain_dirty(), want);
            prop_assert_eq!(c.dirty_pages(), 0);
        }

        #[test]
        fn matches_naive_lru_without_resizes(
            accesses in proptest::collection::vec(0u64..24, 1..300),
            banks in 1u32..4,
            bank_pages in 1u32..6,
        ) {
            let mut c = DiskCache::new(banks, bank_pages);
            let expect = naive_lru(&accesses, (banks * bank_pages) as usize);
            for (&p, &e) in accesses.iter().zip(&expect) {
                prop_assert_eq!(c.access(p).hit, e);
            }
        }

        #[test]
        fn residents_never_exceed_capacity(
            ops in proptest::collection::vec((0u64..64, 1u32..4), 1..200),
        ) {
            let mut c = DiskCache::new(4, 4);
            for (p, new_banks) in ops {
                c.access(p);
                c.resize(new_banks);
                prop_assert!(c.resident_pages() as u64 <= c.capacity_pages());
            }
        }

        #[test]
        fn map_and_frames_stay_consistent(
            ops in proptest::collection::vec((0u64..32, 1u32..5), 1..200),
        ) {
            let mut c = DiskCache::new(4, 3);
            for (p, new_banks) in ops {
                c.access(p);
                if p % 3 == 0 {
                    c.invalidate_bank((p % 4) as u32);
                }
                c.resize(new_banks);
                // Every page in the LRU walk must be in the map and within
                // the enabled frame range.
                let walked: Vec<u64> = c.iter_lru().collect();
                prop_assert_eq!(walked.len(), c.resident_pages());
                for q in walked {
                    prop_assert!(c.contains(q));
                }
            }
        }
    }
}

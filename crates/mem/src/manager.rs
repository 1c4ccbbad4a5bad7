use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::{
    AccessLog, BankArray, DiskCache, IdlePolicy, MemEnergy, RdramModel, Replacement, StackProfiler,
};

/// Configuration of the physical memory used as the disk cache.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemConfig {
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Pages per memory bank (the resize granularity; paper default: one
    /// 16 MB bank).
    pub bank_pages: u32,
    /// Total installed banks (the resize ceiling; paper: 128 GB).
    pub total_banks: u32,
    /// Banks enabled at start.
    pub initial_banks: u32,
    /// RDRAM datasheet model.
    pub model: RdramModel,
    /// What enabled banks do while idle.
    pub policy: IdlePolicy,
}

impl MemConfig {
    /// Validates field relationships.
    ///
    /// # Panics
    ///
    /// Panics when any size is zero or `initial_banks` exceeds the total.
    fn validate(&self) {
        assert!(self.page_bytes > 0, "page_bytes must be > 0");
        assert!(self.bank_pages > 0, "bank_pages must be > 0");
        assert!(self.total_banks > 0, "total_banks must be > 0");
        assert!(
            (1..=self.total_banks).contains(&self.initial_banks),
            "initial_banks must be in 1..=total_banks"
        );
    }

    /// One bank's capacity in MB.
    pub fn bank_mb(&self) -> f64 {
        self.bank_pages as f64 * self.page_bytes as f64 / (1024.0 * 1024.0)
    }

    /// One page's size in MB.
    pub fn page_mb(&self) -> f64 {
        self.page_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Total installed capacity in pages.
    pub fn total_pages(&self) -> u64 {
        self.total_banks as u64 * self.bank_pages as u64
    }
}

/// What an expiry entry does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum ExpiryKind {
    /// The disable timeout passed: drop the bank's pages.
    Invalidate,
    /// Half the timeout passed: migrate the bank's pages to warm banks so
    /// the bank can expire without data loss (consolidation).
    Consolidate,
}

/// One armed `DisableAfter` timer, swept lazily.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Expiry {
    at: f64,
    bank: u32,
    /// `last_access` of the bank when this entry was pushed; the entry is
    /// stale (and ignored) if the bank has been touched since.
    stamp: f64,
    kind: ExpiryKind,
}

/// The pending `DisableAfter` timers: one deadline-ordered FIFO per
/// [`ExpiryKind`].
///
/// A kind's deadline is `now + t` with a fixed `t`, so while `now` does not
/// decrease, push order is deadline order and arming costs O(1). A bank
/// touched many times at one instant (every page of a record) is armed
/// once: `armed` remembers, per (bank, kind), the stamp of an entry still
/// queued, and a push with that same stamp is dropped — its firing would
/// find the bank already invalidated or evacuated and do nothing.
#[derive(Debug, Clone)]
struct ExpiryQueue {
    fifos: [VecDeque<Expiry>; 2],
    /// Stamp of the newest queued entry per `bank * 2 + kind` (NaN: none).
    armed: Vec<f64>,
}

impl ExpiryQueue {
    fn new(total_banks: u32) -> Self {
        ExpiryQueue {
            fifos: [VecDeque::new(), VecDeque::new()],
            armed: vec![f64::NAN; 2 * total_banks as usize],
        }
    }

    fn slot(bank: u32, kind: ExpiryKind) -> usize {
        2 * bank as usize + kind as usize
    }

    /// Queues `e` unless an entry with the same bank, kind and stamp is
    /// already queued.
    fn push(&mut self, e: Expiry) {
        let armed = &mut self.armed[Self::slot(e.bank, e.kind)];
        if *armed == e.stamp {
            return;
        }
        *armed = e.stamp;
        let fifo = &mut self.fifos[e.kind as usize];
        if fifo.back().is_none_or(|last| last.at <= e.at) {
            fifo.push_back(e);
        } else {
            // An out-of-order `now` from a direct caller.
            let at = fifo.partition_point(|q| q.at <= e.at);
            fifo.insert(at, e);
        }
    }

    /// Whether any entry is due at `now`.
    fn any_due(&self, now: f64) -> bool {
        self.fifos
            .iter()
            .any(|fifo| fifo.front().is_some_and(|e| e.at <= now))
    }

    /// Moves every entry due at `now` out of the queue, keeping in `batch`
    /// the ones still fresh against `last_access` (a stale entry cannot
    /// turn fresh again within one sweep).
    fn pop_due(&mut self, now: f64, last_access: impl Fn(u32) -> f64, batch: &mut Vec<Expiry>) {
        for fifo in &mut self.fifos {
            while let Some(&e) = fifo.front().filter(|e| e.at <= now) {
                fifo.pop_front();
                let armed = &mut self.armed[Self::slot(e.bank, e.kind)];
                if *armed == e.stamp {
                    *armed = f64::NAN;
                }
                if last_access(e.bank) == e.stamp {
                    batch.push(e);
                }
            }
        }
    }

    /// The queued entries, each kind in deadline order.
    fn entries(&self) -> Vec<Expiry> {
        self.fifos.iter().flatten().copied().collect()
    }

    /// Rebuilds a queue from entries in any order, dropping exact
    /// duplicates (a `.jck` v2 image stores the retired heap's vector).
    ///
    /// # Errors
    ///
    /// Fails when an entry names a bank outside `0..total_banks`.
    fn from_entries(mut entries: Vec<Expiry>, total_banks: u32) -> Result<Self, serde::Error> {
        if let Some(e) = entries.iter().find(|e| e.bank >= total_banks) {
            return Err(serde::Error::custom(format!(
                "expiry entry names bank {} of {total_banks}",
                e.bank
            )));
        }
        entries.sort_by(|a, b| {
            a.at.total_cmp(&b.at)
                .then(a.bank.cmp(&b.bank))
                .then(a.stamp.total_cmp(&b.stamp))
                .then((a.kind as u8).cmp(&(b.kind as u8)))
        });
        entries.dedup();
        let mut queue = ExpiryQueue::new(total_banks);
        for e in entries {
            queue.fifos[e.kind as usize].push_back(e);
            let armed = &mut queue.armed[Self::slot(e.bank, e.kind)];
            *armed = armed.max(e.stamp);
        }
        Ok(queue)
    }
}

/// The complete memory subsystem: disk cache, bank power accounting, and
/// the stack-distance profiler, driven by page accesses.
///
/// This is the component the system simulator talks to. Each call to
/// [`MemoryManager::access`] performs, in order:
///
/// 1. lazy expiry of `DisableAfter` banks whose timeout passed (their
///    cached pages are invalidated — future re-reads become disk accesses,
///    the defining cost of the DS methods),
/// 2. stack-distance profiling into the current [`AccessLog`] — only when
///    enabled with [`MemoryManager::set_profiling`], since only a policy
///    that predicts from the log needs it,
/// 3. the LRU cache lookup/fill,
/// 4. bank energy accounting for the page transfer.
///
/// # Example
///
/// ```
/// use jpmd_mem::{IdlePolicy, MemConfig, MemoryManager, RdramModel};
///
/// let config = MemConfig {
///     page_bytes: 1 << 20,
///     bank_pages: 16,
///     total_banks: 8,
///     initial_banks: 8,
///     model: RdramModel::default(),
///     policy: IdlePolicy::Nap,
/// };
/// let mut mem = MemoryManager::new(config);
/// assert!(!mem.access(42, 0.0)); // cold miss -> disk access
/// assert!(mem.access(42, 0.1));  // now cached
/// ```
#[derive(Debug, Clone)]
pub struct MemoryManager {
    config: MemConfig,
    cache: DiskCache,
    banks: BankArray,
    /// Whether accesses are profiled into `log` (off by default).
    profiling: bool,
    profiler: StackProfiler,
    log: AccessLog,
    expiry: ExpiryQueue,
    /// One sweep's due entries (kept to reuse the allocation).
    expiry_batch: Vec<Expiry>,
    accesses: u64,
    hits: u64,
    /// Migrate pages out of nearly-expired `DisableAfter` banks instead of
    /// letting their contents be lost (power-aware cache management).
    consolidate: bool,
    pages_migrated: u64,
    /// Dirty pages dropped by eviction or bank invalidation that the
    /// simulator must write to the disk.
    pending_writebacks: Vec<u64>,
    /// Read misses (disk *read* traffic, excluding write-allocates).
    read_misses: u64,
}

impl MemoryManager {
    /// Creates the memory subsystem from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see [`MemConfig`]).
    pub fn new(config: MemConfig) -> Self {
        config.validate();
        let mut cache = DiskCache::new(config.total_banks, config.bank_pages);
        let mut banks = BankArray::new(
            config.model,
            config.total_banks as usize,
            config.bank_mb(),
            config.policy,
        );
        if config.initial_banks != config.total_banks {
            cache.resize(config.initial_banks);
            banks.set_enabled(config.initial_banks as usize, 0.0);
        }
        Self {
            config,
            cache,
            banks,
            profiling: false,
            profiler: StackProfiler::new(),
            log: AccessLog::new(),
            expiry: ExpiryQueue::new(config.total_banks),
            expiry_batch: Vec::new(),
            accesses: 0,
            hits: 0,
            consolidate: false,
            pages_migrated: 0,
            pending_writebacks: Vec::new(),
            read_misses: 0,
        }
    }

    /// Selects the cache replacement policy (default: global LRU).
    pub fn set_replacement(&mut self, replacement: Replacement) {
        self.cache.set_replacement(replacement);
    }

    /// Enables consolidation: pages of a `DisableAfter` bank are migrated
    /// to warm banks at half the disable timeout, so the bank turns off
    /// without losing data (the power-aware cache management of related
    /// work \[6\], \[36\]). The copies are charged 2× the per-MB dynamic
    /// energy (read + write) and do **not** revive the draining bank.
    pub fn set_consolidation(&mut self, on: bool) {
        self.consolidate = on;
    }

    /// Turns stack-distance profiling on or off. Off (the default) the
    /// per-period [`AccessLog`] stays empty and accesses skip the
    /// profiler entirely; turn it on before the first access when a
    /// controller predicts from the log, since the profiler only knows the
    /// history it has observed.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
    }

    /// Whether accesses are being profiled.
    pub fn profiling(&self) -> bool {
        self.profiling
    }

    /// Pages migrated by consolidation so far.
    pub fn pages_migrated(&self) -> u64 {
        self.pages_migrated
    }

    /// The configuration this manager was built with.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Invalidates (or consolidates) banks whose timers fired before `now`.
    ///
    /// The due entries leave the queue as one batch and fire in
    /// (deadline, bank) order. Freshness is checked again at fire time: a
    /// consolidation's zero-byte touch of a destination bank makes that
    /// bank's later entries in the batch stale.
    fn sweep_disabled(&mut self, now: f64) {
        if !self.expiry.any_due(now) {
            return;
        }
        let mut batch = std::mem::take(&mut self.expiry_batch);
        loop {
            let banks = &self.banks;
            self.expiry
                .pop_due(now, |bank| banks.last_access(bank as usize), &mut batch);
            if batch.is_empty() {
                break;
            }
            batch.sort_unstable_by(|a, b| a.at.total_cmp(&b.at).then(a.bank.cmp(&b.bank)));
            for &e in &batch {
                self.fire(e, now);
            }
            batch.clear();
        }
        self.expiry_batch = batch;
    }

    /// Fires one due entry at `now` unless the bank was touched since it
    /// was armed.
    fn fire(&mut self, e: Expiry, now: f64) {
        if self.banks.last_access(e.bank as usize) != e.stamp {
            return;
        }
        match e.kind {
            ExpiryKind::Invalidate => {
                if self.banks.is_expired(e.bank as usize, now) {
                    // Dirty pages must reach the disk before the bank
                    // loses them.
                    self.pending_writebacks
                        .extend(self.cache.dirty_pages_in_banks(e.bank, e.bank + 1));
                    self.cache.invalidate_bank(e.bank);
                }
            }
            ExpiryKind::Consolidate => {
                let moved = self.cache.evacuate_bank(e.bank);
                if !moved.is_empty() {
                    self.pages_migrated += moved.len() as u64;
                    let mb = moved.len() as f64 * self.config.page_mb();
                    self.banks
                        .add_dynamic_j(2.0 * mb * self.config.model.dynamic_j_per_mb());
                    // Destination banks now hold live data: mark them
                    // accessed (zero-byte touch) and arm their own
                    // disable timers so they stay physically honest.
                    let mut dest_banks: Vec<u32> =
                        moved.iter().map(|&f| self.cache.bank_of(f)).collect();
                    dest_banks.sort_unstable();
                    dest_banks.dedup();
                    for bank in dest_banks {
                        self.banks.record_access(bank as usize, now, 0.0);
                        self.arm(bank, now);
                    }
                }
            }
        }
    }

    /// Arms `bank`'s disable (and, with consolidation, migration) timer
    /// from an access at `now`; a no-op unless the idle policy disables.
    fn arm(&mut self, bank: u32, now: f64) {
        if let Some(t) = self.config.policy.disable_after() {
            self.expiry.push(Expiry {
                at: now + t,
                bank,
                stamp: now,
                kind: ExpiryKind::Invalidate,
            });
            if self.consolidate {
                self.expiry.push(Expiry {
                    at: now + 0.5 * t,
                    bank,
                    stamp: now,
                    kind: ExpiryKind::Consolidate,
                });
            }
        }
    }

    /// Performs one disk-cache **read**; returns `true` on a hit (memory
    /// access) and `false` on a miss (the caller must issue a disk read).
    pub fn access(&mut self, page: u64, now: f64) -> bool {
        self.access_rw(page, now, false)
    }

    /// Performs one disk-cache access; `write` selects write-back
    /// semantics: a write hit dirties the page, a write miss
    /// write-allocates (no disk read — the page is fully overwritten).
    /// Returns `true` when no disk *read* is required.
    ///
    /// Dirty pages displaced along the way accumulate in
    /// [`MemoryManager::take_writebacks`]; the caller must submit them to
    /// the disk as writes.
    pub fn access_rw(&mut self, page: u64, now: f64, write: bool) -> bool {
        self.sweep_disabled(now);
        if self.profiling {
            let distance = self.profiler.observe(page);
            self.log.record(now, page, distance);
        }
        let outcome = self.cache.access(page);
        if write {
            self.cache.mark_dirty(outcome.frame);
        }
        if let Some(dirty) = outcome.writeback {
            self.pending_writebacks.push(dirty);
        }
        let bank = self.cache.bank_of(outcome.frame);
        self.banks
            .record_access(bank as usize, now, self.config.page_mb());
        self.arm(bank, now);
        self.accesses += 1;
        if outcome.hit {
            self.hits += 1;
        } else if !write {
            self.read_misses += 1;
        }
        outcome.hit || write
    }

    /// Read misses so far (disk read traffic; write-allocates excluded).
    pub fn read_misses(&self) -> u64 {
        self.read_misses
    }

    /// Takes the dirty pages displaced since the last call (eviction and
    /// bank-invalidation write-backs). The caller submits them to the disk.
    pub fn take_writebacks(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.pending_writebacks)
    }

    /// Flushes every dirty page (the periodic sync / pdflush): clears the
    /// dirty bits and returns the pages, sorted for run coalescing.
    pub fn sync_dirty(&mut self) -> Vec<u64> {
        self.cache.drain_dirty()
    }

    /// Number of currently dirty resident pages.
    pub fn dirty_pages(&self) -> usize {
        self.cache.dirty_pages()
    }

    /// Resizes the enabled-bank count (the joint policy's memory knob),
    /// settling energy at `now`. Shrinking invalidates the disabled banks'
    /// pages.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or exceeds the installed total.
    pub fn set_enabled_banks(&mut self, banks: u32, now: f64) {
        if banks < self.enabled_banks() {
            // Dirty pages in the banks being switched off must be flushed.
            self.pending_writebacks
                .extend(self.cache.dirty_pages_in_banks(banks, self.enabled_banks()));
        }
        self.banks.set_enabled(banks as usize, now);
        self.cache.resize(banks);
    }

    /// Currently enabled banks.
    pub fn enabled_banks(&self) -> u32 {
        self.cache.enabled_banks()
    }

    /// Current disk-cache capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.cache.capacity_pages()
    }

    /// Currently resident pages.
    pub fn resident_pages(&self) -> usize {
        self.cache.resident_pages()
    }

    /// Total disk-cache accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Hits (memory accesses) so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses (disk accesses caused) so far.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Settles bank energy up to `now` (call at period ends and at the end
    /// of the simulation).
    pub fn settle(&mut self, now: f64) {
        self.banks.advance_to(now);
    }

    /// Accumulated memory energy (settle first for up-to-date statics).
    pub fn energy(&self) -> MemEnergy {
        self.banks.energy()
    }

    /// Takes the current period's access log, leaving an empty one.
    ///
    /// The profiler itself keeps its history across periods, matching the
    /// paper ("the joint method does not reset the LRU list every period").
    pub fn take_log(&mut self) -> AccessLog {
        std::mem::take(&mut self.log)
    }

    /// Hands a log taken with [`MemoryManager::take_log`] back once it has
    /// been read, so the next period records into its allocation instead of
    /// growing a fresh one. Entries recorded since the take are kept.
    pub fn recycle_log(&mut self, mut log: AccessLog) {
        if self.log.is_empty() && log.capacity() > self.log.capacity() {
            log.clear();
            self.log = log;
        }
    }

    /// Read-only view of the current period's access log.
    pub fn log(&self) -> &AccessLog {
        &self.log
    }

    /// Captures the full dynamic state (cache contents, bank clocks,
    /// profiler history, expiry timers, counters) for checkpointing. The
    /// configuration is *not* captured; restore into a manager built with
    /// the same [`MemConfig`].
    pub fn snapshot_state(&self) -> serde::Value {
        MemSnapshot {
            cache: self.cache.clone(),
            banks: self.banks.clone(),
            profiler: self.profiler.clone(),
            log: self.log.clone(),
            ds_heap: self.expiry.entries(),
            accesses: self.accesses,
            hits: self.hits,
            consolidate: self.consolidate,
            pages_migrated: self.pages_migrated,
            pending_writebacks: self.pending_writebacks.clone(),
            read_misses: self.read_misses,
        }
        .to_value()
    }

    /// Restores state captured by [`MemoryManager::snapshot_state`] into a
    /// manager built with the same configuration.
    ///
    /// # Errors
    ///
    /// Returns an error when `value` does not decode as a memory snapshot.
    pub fn restore_state(&mut self, value: &serde::Value) -> Result<(), serde::Error> {
        let s = MemSnapshot::from_value(value)?;
        let expiry = ExpiryQueue::from_entries(s.ds_heap, self.config.total_banks)?;
        self.cache = s.cache;
        self.banks = s.banks;
        self.profiler = s.profiler;
        self.log = s.log;
        self.expiry = expiry;
        self.accesses = s.accesses;
        self.hits = s.hits;
        self.consolidate = s.consolidate;
        self.pages_migrated = s.pages_migrated;
        self.pending_writebacks = s.pending_writebacks;
        self.read_misses = s.read_misses;
        Ok(())
    }
}

/// Serializable image of a [`MemoryManager`]'s dynamic fields. `ds_heap`
/// holds the queued expiry entries; restore accepts them in any order and
/// with duplicates, as `.jck` v2 images of the retired expiry heap store
/// them.
#[derive(Serialize, Deserialize)]
struct MemSnapshot {
    cache: DiskCache,
    banks: BankArray,
    profiler: StackProfiler,
    log: AccessLog,
    ds_heap: Vec<Expiry>,
    accesses: u64,
    hits: u64,
    consolidate: bool,
    pages_migrated: u64,
    pending_writebacks: Vec<u64>,
    read_misses: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn config(policy: IdlePolicy) -> MemConfig {
        MemConfig {
            page_bytes: 1 << 20,
            bank_pages: 4,
            total_banks: 4,
            initial_banks: 4,
            model: RdramModel::default(),
            policy,
        }
    }

    #[test]
    fn hit_miss_counting() {
        let mut m = MemoryManager::new(config(IdlePolicy::Nap));
        assert!(!m.access(1, 0.0));
        assert!(m.access(1, 1.0));
        assert!(!m.access(2, 2.0));
        assert_eq!(m.accesses(), 3);
        assert_eq!(m.hits(), 1);
        assert_eq!(m.misses(), 2);
    }

    #[test]
    fn resize_shrinks_capacity_and_invalidates() {
        let mut m = MemoryManager::new(config(IdlePolicy::Nap));
        for p in 0..16u64 {
            m.access(p, p as f64);
        }
        assert_eq!(m.resident_pages(), 16);
        m.set_enabled_banks(1, 16.0);
        assert_eq!(m.capacity_pages(), 4);
        assert!(m.resident_pages() <= 4);
    }

    #[test]
    fn disable_policy_invalidates_after_timeout() {
        let mut m = MemoryManager::new(config(IdlePolicy::DisableAfter(10.0)));
        assert!(!m.access(1, 0.0));
        assert!(m.access(1, 5.0)); // still cached
                                   // Idle 20 s > timeout: bank expired, page lost.
        assert!(!m.access(1, 25.0), "expired bank must lose its pages");
        // And it is cached again afterwards.
        assert!(m.access(1, 26.0));
    }

    #[test]
    fn disable_expiry_is_per_bank() {
        let mut m = MemoryManager::new(config(IdlePolicy::DisableAfter(10.0)));
        m.access(0, 0.0); // bank 0 (frame 0)
                          // Keep bank 0 warm via a second page while letting nothing else age.
        m.access(1, 8.0);
        m.access(0, 16.0); // within 10 s of the bank's last access at 8.0
        assert_eq!(m.hits(), 1, "bank stays alive while any page keeps it warm");
    }

    #[test]
    fn energy_accrues_static_and_dynamic() {
        let mut m = MemoryManager::new(config(IdlePolicy::Nap));
        m.access(1, 0.0);
        m.settle(100.0);
        let e = m.energy();
        // 4 banks × 4 MiB... bank_mb = 4 pages × 1 MiB = 4 MB; nap power.
        let expect_static = 4.0 * 4.0 * 0.65625e-3 * 100.0;
        assert!((e.static_j - expect_static).abs() < 1e-6);
        assert!((e.dynamic_j - RdramModel::default().dynamic_j_per_mb()).abs() < 1e-12);
    }

    #[test]
    fn take_log_resets_but_profiler_persists() {
        let mut m = MemoryManager::new(config(IdlePolicy::Nap));
        m.set_profiling(true);
        m.access(1, 0.0);
        let log = m.take_log();
        assert_eq!(log.len(), 1);
        assert!(m.log().is_empty());
        // Second access to the same page is *not* cold: the profiler kept
        // its history across the period boundary.
        m.access(1, 1.0);
        assert_eq!(
            m.log().entries()[0].distance,
            crate::StackDistance::Position(1)
        );
    }

    #[test]
    fn initial_banks_respected() {
        let mut cfg = config(IdlePolicy::Nap);
        cfg.initial_banks = 2;
        let m = MemoryManager::new(cfg);
        assert_eq!(m.enabled_banks(), 2);
        assert_eq!(m.capacity_pages(), 8);
    }

    #[test]
    #[should_panic(expected = "initial_banks")]
    fn zero_initial_banks_panics() {
        let mut cfg = config(IdlePolicy::Nap);
        cfg.initial_banks = 0;
        let _ = MemoryManager::new(cfg);
    }

    /// Fills bank 0 with pages 1..=4 at t = 0 (frames pop lowest-first),
    /// so the bank's consolidation timer (half of 10 s) is armed at t = 5.
    fn fill_bank0(m: &mut MemoryManager) {
        for p in 1..=4u64 {
            m.access(p, 0.0);
        }
    }

    #[test]
    fn consolidation_preserves_data_across_disable() {
        let mut m = MemoryManager::new(config(IdlePolicy::DisableAfter(10.0)));
        m.set_consolidation(true);
        fill_bank0(&mut m);
        // An unrelated access at t = 6 drives the sweep: bank 0's
        // consolidation entry (t = 5) fires and evacuates it.
        m.access(500, 6.0);
        assert_eq!(m.pages_migrated(), 4, "all four pages must migrate");
        // Past bank 0's disable timeout, the pages are still hits because
        // they live in other banks now.
        assert!(
            m.access(1, 12.0),
            "migrated page must survive the source bank's expiry"
        );
        assert!(m.access(4, 12.5));
    }

    #[test]
    fn consolidation_charges_migration_energy() {
        let mut a = MemoryManager::new(config(IdlePolicy::DisableAfter(10.0)));
        a.set_consolidation(true);
        let mut b = MemoryManager::new(config(IdlePolicy::DisableAfter(10.0)));
        for m in [&mut a, &mut b] {
            fill_bank0(m);
            m.access(500, 6.0);
            m.settle(6.0);
        }
        assert!(
            a.energy().dynamic_j > b.energy().dynamic_j,
            "migration must cost dynamic energy"
        );
        assert_eq!(a.pages_migrated(), 4);
        assert_eq!(b.pages_migrated(), 0);
    }

    #[test]
    fn consolidation_off_by_default_loses_data() {
        let mut m = MemoryManager::new(config(IdlePolicy::DisableAfter(10.0)));
        fill_bank0(&mut m);
        m.access(500, 6.0);
        assert!(!m.access(1, 12.0), "without consolidation the page is lost");
    }

    #[test]
    fn cascade_policy_loses_data_at_second_threshold_only() {
        let mut m = MemoryManager::new(config(IdlePolicy::Cascade {
            pd_after: 2.0,
            disable_after: 10.0,
        }));
        m.access(1, 0.0);
        // Past the PD threshold but before disable: data retained.
        assert!(m.access(1, 5.0));
        // Past the disable threshold since the refresh at t = 5: lost.
        assert!(!m.access(1, 16.0));
    }

    #[test]
    fn replacement_pass_through() {
        let mut m = MemoryManager::new(config(IdlePolicy::Nap));
        m.set_replacement(crate::Replacement::BankAware);
        // Smoke: accesses still behave.
        assert!(!m.access(1, 0.0));
        assert!(m.access(1, 1.0));
    }

    #[test]
    fn write_miss_allocates_without_disk_read() {
        let mut m = MemoryManager::new(config(IdlePolicy::Nap));
        assert!(m.access_rw(1, 0.0, true), "write miss needs no disk read");
        assert_eq!(m.read_misses(), 0);
        assert_eq!(m.dirty_pages(), 1);
        // A read of the same page now hits.
        assert!(m.access(1, 1.0));
    }

    #[test]
    fn eviction_of_dirty_page_queues_writeback() {
        // 1-bank cache (4 frames): fill with dirty pages, then overflow.
        let mut cfg = config(IdlePolicy::Nap);
        cfg.total_banks = 1;
        cfg.initial_banks = 1;
        let mut m = MemoryManager::new(cfg);
        for p in 0..4u64 {
            m.access_rw(p, p as f64, true);
        }
        assert!(m.take_writebacks().is_empty());
        m.access(10, 5.0); // evicts dirty page 0
        let wb = m.take_writebacks();
        assert_eq!(wb, vec![0]);
        assert!(m.take_writebacks().is_empty(), "drained");
    }

    #[test]
    fn sync_flushes_and_clears_dirty() {
        let mut m = MemoryManager::new(config(IdlePolicy::Nap));
        m.access_rw(3, 0.0, true);
        m.access_rw(1, 0.0, true);
        m.access_rw(2, 0.0, false);
        assert_eq!(m.sync_dirty(), vec![1, 3]);
        assert_eq!(m.dirty_pages(), 0);
        assert!(m.sync_dirty().is_empty());
    }

    #[test]
    fn disable_expiry_flushes_dirty_pages() {
        let mut m = MemoryManager::new(config(IdlePolicy::DisableAfter(10.0)));
        for p in 1..=4u64 {
            m.access_rw(p, 0.0, true); // bank 0, all dirty
        }
        // Past the timeout: the sweep invalidates bank 0 and must queue
        // the dirty pages for write-back rather than losing them.
        m.access(500, 12.0);
        let mut wb = m.take_writebacks();
        wb.sort_unstable();
        assert_eq!(wb, vec![1, 2, 3, 4]);
    }

    #[test]
    fn shrink_flushes_dirty_pages_of_disabled_banks() {
        let mut m = MemoryManager::new(config(IdlePolicy::Nap));
        // Fill all 16 frames; the last 4 (bank 3) dirty.
        for p in 0..12u64 {
            m.access(p, 0.0);
        }
        for p in 12..16u64 {
            m.access_rw(p, 0.0, true);
        }
        m.set_enabled_banks(3, 1.0);
        let mut wb = m.take_writebacks();
        wb.sort_unstable();
        assert_eq!(wb, vec![12, 13, 14, 15]);
    }

    #[test]
    fn snapshot_round_trip_resumes_identically() {
        let mut a = MemoryManager::new(config(IdlePolicy::DisableAfter(10.0)));
        a.set_consolidation(true);
        for p in 0..10u64 {
            a.access_rw(p, p as f64 * 0.5, p % 3 == 0);
        }
        let snap = a.snapshot_state();
        let mut b = MemoryManager::new(config(IdlePolicy::DisableAfter(10.0)));
        b.restore_state(&snap).unwrap();
        // Both managers must behave identically from here on.
        for p in [1u64, 50, 2, 1, 60] {
            assert_eq!(a.access(p, 20.0), b.access(p, 20.0));
        }
        assert_eq!(a.accesses(), b.accesses());
        assert_eq!(a.hits(), b.hits());
        assert_eq!(a.take_writebacks(), b.take_writebacks());
        a.settle(30.0);
        b.settle(30.0);
        assert_eq!(a.energy().static_j.to_bits(), b.energy().static_j.to_bits());
        assert_eq!(
            a.energy().dynamic_j.to_bits(),
            b.energy().dynamic_j.to_bits()
        );
    }

    /// The retired expiry scheduler, kept as the oracle for
    /// [`ExpiryQueue`]: one `BinaryHeap` push per armed access, popped in
    /// (deadline, bank) order, over the same cache and bank model.
    #[derive(Clone)]
    struct HeapManager {
        config: MemConfig,
        cache: DiskCache,
        banks: BankArray,
        heap: std::collections::BinaryHeap<HeapEntry>,
        consolidate: bool,
        pages_migrated: u64,
        pending_writebacks: Vec<u64>,
    }

    /// Heap order: earliest deadline first, then lowest bank.
    #[derive(Clone, Copy)]
    struct HeapEntry(Expiry);

    impl PartialEq for HeapEntry {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other).is_eq()
        }
    }
    impl Eq for HeapEntry {}
    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .0
                .at
                .total_cmp(&self.0.at)
                .then_with(|| other.0.bank.cmp(&self.0.bank))
        }
    }

    impl HeapManager {
        fn new(config: MemConfig) -> Self {
            let fresh = MemoryManager::new(config);
            HeapManager {
                config,
                cache: fresh.cache,
                banks: fresh.banks,
                heap: std::collections::BinaryHeap::new(),
                consolidate: false,
                pages_migrated: 0,
                pending_writebacks: Vec::new(),
            }
        }

        fn arm(&mut self, bank: u32, now: f64) {
            if let Some(t) = self.config.policy.disable_after() {
                self.heap.push(HeapEntry(Expiry {
                    at: now + t,
                    bank,
                    stamp: now,
                    kind: ExpiryKind::Invalidate,
                }));
                if self.consolidate {
                    self.heap.push(HeapEntry(Expiry {
                        at: now + 0.5 * t,
                        bank,
                        stamp: now,
                        kind: ExpiryKind::Consolidate,
                    }));
                }
            }
        }

        fn sweep(&mut self, now: f64) {
            while let Some(&HeapEntry(e)) = self.heap.peek() {
                if e.at > now {
                    break;
                }
                self.heap.pop();
                if self.banks.last_access(e.bank as usize) != e.stamp {
                    continue;
                }
                match e.kind {
                    ExpiryKind::Invalidate => {
                        if self.banks.is_expired(e.bank as usize, now) {
                            self.pending_writebacks
                                .extend(self.cache.dirty_pages_in_banks(e.bank, e.bank + 1));
                            self.cache.invalidate_bank(e.bank);
                        }
                    }
                    ExpiryKind::Consolidate => {
                        let moved = self.cache.evacuate_bank(e.bank);
                        if !moved.is_empty() {
                            self.pages_migrated += moved.len() as u64;
                            let mb = moved.len() as f64 * self.config.page_mb();
                            self.banks
                                .add_dynamic_j(2.0 * mb * self.config.model.dynamic_j_per_mb());
                            let mut dest: Vec<u32> =
                                moved.iter().map(|&f| self.cache.bank_of(f)).collect();
                            dest.sort_unstable();
                            dest.dedup();
                            for bank in dest {
                                self.banks.record_access(bank as usize, now, 0.0);
                                self.arm(bank, now);
                            }
                        }
                    }
                }
            }
        }

        fn access_rw(&mut self, page: u64, now: f64, write: bool) -> bool {
            self.sweep(now);
            let outcome = self.cache.access(page);
            if write {
                self.cache.mark_dirty(outcome.frame);
            }
            if let Some(dirty) = outcome.writeback {
                self.pending_writebacks.push(dirty);
            }
            let bank = self.cache.bank_of(outcome.frame);
            self.banks
                .record_access(bank as usize, now, self.config.page_mb());
            self.arm(bank, now);
            outcome.hit || write
        }

        fn set_enabled_banks(&mut self, banks: u32, now: f64) {
            let enabled = self.cache.enabled_banks();
            if banks < enabled {
                self.pending_writebacks
                    .extend(self.cache.dirty_pages_in_banks(banks, enabled));
            }
            self.banks.set_enabled(banks as usize, now);
            self.cache.resize(banks);
        }
    }

    /// Time steps of the differential test: repeats of one instant, short
    /// and long gaps around the 3–10 s timeouts, and a step back.
    const STEPS: [f64; 8] = [0.0, 0.0, 0.25, 1.0, 2.5, 6.0, 15.0, -1.5];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]
        #[test]
        fn expiry_queue_matches_the_heap_scheduler(
            ops in proptest::collection::vec((0u8..20, 0u64..48, 0usize..8, 0u8..2), 1..400),
            policy in 0usize..3,
            initial_banks in 3u32..=6,
        ) {
            let policy = [
                IdlePolicy::DisableAfter(3.0),
                IdlePolicy::DisableAfter(10.0),
                IdlePolicy::Cascade { pd_after: 1.0, disable_after: 8.0 },
            ][policy];
            let cfg = MemConfig {
                total_banks: 6,
                initial_banks,
                ..config(policy)
            };
            let mut m = MemoryManager::new(cfg);
            let mut r = HeapManager::new(cfg);
            let mut now = 0.0f64;
            for (i, &(op, page, step, flag)) in ops.iter().enumerate() {
                now = (now + STEPS[step]).max(0.0);
                match op {
                    14 => {
                        let banks = 1 + (page % 6) as u32;
                        m.set_enabled_banks(banks, now);
                        r.set_enabled_banks(banks, now);
                    }
                    15 => {
                        m.set_consolidation(flag == 1);
                        r.consolidate = flag == 1;
                    }
                    16 => {
                        let mut resumed = MemoryManager::new(cfg);
                        resumed.restore_state(&m.snapshot_state()).unwrap();
                        m = resumed;
                    }
                    _ => {
                        let write = flag == 1;
                        prop_assert_eq!(
                            m.access_rw(page, now, write),
                            r.access_rw(page, now, write),
                            "op {} at t = {}", i, now
                        );
                    }
                }
                prop_assert_eq!(
                    m.take_writebacks(),
                    std::mem::take(&mut r.pending_writebacks),
                    "op {}", i
                );
                prop_assert_eq!(m.pages_migrated(), r.pages_migrated);
            }
            m.settle(now);
            r.banks.advance_to(now);
            let (a, b) = (m.energy(), r.banks.energy());
            prop_assert_eq!(a.static_j.to_bits(), b.static_j.to_bits());
            prop_assert_eq!(a.dynamic_j.to_bits(), b.dynamic_j.to_bits());
        }

        #[test]
        fn expiry_queue_holds_each_timer_once(
            ops in proptest::collection::vec((0u64..48, 0usize..7, 0u8..2), 1..400),
            consolidate in 0u8..2,
        ) {
            let mut m = MemoryManager::new(MemConfig {
                total_banks: 6,
                initial_banks: 6,
                ..config(IdlePolicy::DisableAfter(10.0))
            });
            m.set_consolidation(consolidate == 1);
            let mut now = 0.0;
            for &(page, step, write) in &ops {
                now += STEPS[step]; // never a step back
                m.access_rw(page, now, write == 1);
                let mut keys: Vec<_> = m
                    .expiry
                    .entries()
                    .iter()
                    .map(|e| (e.bank, e.kind as u8, e.stamp.to_bits()))
                    .collect();
                let queued = keys.len();
                keys.sort_unstable();
                keys.dedup();
                prop_assert_eq!(keys.len(), queued, "a timer was queued twice");
            }
        }
    }

    #[test]
    fn restore_accepts_expiry_entries_in_any_order_with_duplicates() {
        let cfg = config(IdlePolicy::DisableAfter(10.0));
        let mut a = MemoryManager::new(cfg);
        a.set_consolidation(true);
        for (i, p) in [1u64, 5, 9, 2, 6, 1, 13].into_iter().enumerate() {
            a.access_rw(p, i as f64 * 0.5, i % 2 == 0);
        }
        let mut value = a.snapshot_state();
        // Reverse the entries and repeat each one, as a heap image may.
        let serde::Value::Object(fields) = &mut value else {
            panic!("a memory snapshot is an object")
        };
        let (_, heap) = fields
            .iter_mut()
            .find(|(k, _)| k == "ds_heap")
            .expect("snapshot keeps the ds_heap field");
        let mut entries = Vec::<Expiry>::from_value(heap).unwrap();
        assert!(entries.len() > 2);
        entries.reverse();
        entries.extend(entries.clone());
        *heap = entries.to_value();
        let mut b = MemoryManager::new(cfg);
        b.restore_state(&value).unwrap();
        assert_eq!(b.expiry.entries(), a.expiry.entries());
        for (i, p) in [1u64, 40, 2, 9, 60, 5].into_iter().enumerate() {
            let now = 8.0 + i as f64 * 2.0;
            assert_eq!(a.access(p, now), b.access(p, now));
            assert_eq!(a.take_writebacks(), b.take_writebacks());
        }
        assert_eq!(a.pages_migrated(), b.pages_migrated());
    }

    #[test]
    fn restore_rejects_an_expiry_entry_outside_the_banks() {
        let mut a = MemoryManager::new(config(IdlePolicy::DisableAfter(10.0)));
        a.access(1, 0.0);
        let mut big = MemoryManager::new(MemConfig {
            total_banks: 8,
            initial_banks: 8,
            ..config(IdlePolicy::DisableAfter(10.0))
        });
        for p in 0..32u64 {
            big.access(p, 0.0);
        }
        assert!(a.restore_state(&big.snapshot_state()).is_err());
    }

    #[test]
    fn stale_expiry_entries_are_ignored() {
        let mut m = MemoryManager::new(config(IdlePolicy::DisableAfter(10.0)));
        m.access(1, 0.0);
        m.access(1, 5.0); // re-arms the bank; first heap entry now stale
                          // At t = 12 the stale entry (expiry 10) fires but must not
                          // invalidate: the bank was touched at 5.0 and expires at 15.
        assert!(m.access(1, 12.0));
    }
}

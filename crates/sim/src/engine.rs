//! The event-driven replay engine.
//!
//! [`Engine::run`] is a thin replay core: it walks the trace, drives the
//! [`HwState`], and emits typed [`SimEvent`]s to a set of pluggable
//! [`SimObserver`]s. Everything that used to be inline state in the old
//! monolithic replay loop — period accounting, the warm-up snapshot, the
//! flush daemon, latency tracking, energy metering — lives in observers
//! (see [`crate::observers`]); the engine itself only knows how to turn
//! trace records into accesses, coalesce misses into disk requests, and
//! fire observer timers in deterministic order.
//!
//! # Timer semantics
//!
//! Each observer exposes [`SimObserver::next_timer`], the absolute time of
//! its next scheduled wake-up (`f64::INFINITY` for none). Before each trace
//! record (and once at the end of the run) the engine fires every timer due
//! at or before the current target time, earliest first. When several
//! timers are due at the *same* instant they fire in **registration
//! order** — the order observers were passed to [`Engine::run`]. The
//! standard stack registers `[WarmupWindow, PeriodAccounting, FlushDaemon,
//! …]`, which pins the legacy replay's tie-breaks: at a shared instant the
//! warm-up snapshot happens first, then the period row, then the sync
//! tick.
//!
//! Events an observer emits from a timer callback are dispatched to all
//! observers immediately, before the next timer fires.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use jpmd_trace::{AccessKind, SourceError, Trace, TraceRecord, TraceSource};
use serde::{Deserialize, Serialize};

use crate::{EventCounts, HwState, SimEvent};

/// A pluggable simulation component receiving engine events.
///
/// Observers own the state the old monolithic loop kept in locals; the
/// engine talks to them through three hooks. All hooks default to no-ops so
/// purely passive components implement only what they need.
pub trait SimObserver {
    /// Absolute time of this observer's next scheduled wake-up, or
    /// `f64::INFINITY` when it has none. Timers at or before the engine's
    /// current target fire via [`SimObserver::on_timer`].
    fn next_timer(&self) -> f64 {
        f64::INFINITY
    }

    /// Timer callback at time `t`. Must advance [`SimObserver::next_timer`]
    /// past `t` (the engine panics on stuck timers). Events pushed into
    /// `out` are dispatched to every observer before the next timer fires.
    fn on_timer(&mut self, _t: f64, _hw: &mut HwState, _out: &mut Vec<SimEvent>) {}

    /// Event callback; fired for every event in causal order.
    fn on_event(&mut self, _event: &SimEvent, _hw: &mut HwState) {}

    /// Whether this observer hands the memory's per-period
    /// [`AccessLog`](jpmd_mem::AccessLog) to something that reads it. The
    /// engine turns stack profiling on before the first record when any
    /// registered observer says yes, and otherwise leaves it off — the
    /// default, since only a predicting controller needs the log.
    fn reads_access_log(&self) -> bool {
        false
    }

    /// This observer's internal state as a serializable value, captured at
    /// a period boundary for a crash-consistent checkpoint. The default
    /// ([`serde::Value::Null`]) is correct for stateless observers.
    fn snapshot_state(&self) -> serde::Value {
        serde::Value::Null
    }

    /// Restores the state captured by [`SimObserver::snapshot_state`]
    /// before a resumed replay starts. The default ignores the value
    /// (stateless observers).
    ///
    /// # Errors
    ///
    /// Returns a decode error when `state` does not match this observer's
    /// snapshot layout (a corrupt or incompatible checkpoint).
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let _ = state;
        Ok(())
    }
}

/// Event totals for one stretch of the run (engine observability).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeriodEvents {
    /// Start of the stretch, s.
    pub start: f64,
    /// End of the stretch, s (a period boundary, or the run's end for the
    /// trailing partial period).
    pub end: f64,
    /// Events dispatched inside the stretch.
    pub counts: EventCounts,
}

/// Engine counters surfaced in [`RunReport`](crate::RunReport).
///
/// Equality ignores the wall-clock fields (`replay_wall_secs`,
/// `accesses_per_sec`): two runs of the same configuration produce equal
/// `EngineStats` even though their wall-clock timings differ, so whole
/// reports can still be compared in determinism tests.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EngineStats {
    /// Events dispatched over the whole run.
    pub events_processed: u64,
    /// Per-type totals over the whole run.
    pub counts: EventCounts,
    /// Structured per-period event log (one row per control period, plus a
    /// trailing row for a partial final period).
    pub period_log: Vec<PeriodEvents>,
    /// Transient [`SourceError`]s absorbed by retrying the pull (bounded
    /// per-pull by [`MAX_SOURCE_RETRIES`]; zero for healthy sources).
    #[serde(default)]
    pub source_retries: u64,
    /// Records discarded because they were unusable (non-finite timestamp,
    /// zero pages, or a page range outside the run's page space); zero for
    /// valid traces.
    #[serde(default)]
    pub records_dropped: u64,
    /// Records whose timestamps were clamped forward to restore arrival
    /// order; zero for valid traces.
    #[serde(default)]
    pub records_clamped: u64,
    /// Every `Some(_)` the source yielded — replayed, retried, dropped, or
    /// clamped. This is the resume cursor: restarting the same source and
    /// discarding exactly this many pulls reproduces the interrupted run's
    /// position.
    #[serde(default)]
    pub records_pulled: u64,
    /// Wall-clock time spent replaying, s (not part of equality).
    pub replay_wall_secs: f64,
    /// Replay throughput, page accesses per wall-clock second (not part of
    /// equality).
    pub accesses_per_sec: f64,
}

impl PartialEq for EngineStats {
    fn eq(&self, other: &Self) -> bool {
        self.events_processed == other.events_processed
            && self.counts == other.counts
            && self.period_log == other.period_log
            && self.source_retries == other.source_retries
            && self.records_dropped == other.records_dropped
            && self.records_clamped == other.records_clamped
            && self.records_pulled == other.records_pulled
    }
}

/// When a checkpointable replay ([`Engine::run_source_with_checkpoints`])
/// captures checkpoints. Checkpoints are only taken at period boundaries —
/// the one instant where the hardware is settled and the controller's view
/// is consistent — and fire on the first record replayed after the
/// boundary.
#[derive(Clone, Default)]
pub struct CheckpointPolicy {
    /// Capture a checkpoint once this many control periods have completed
    /// since the last one (`0` = never on cadence; only on shutdown).
    pub every_periods: u64,
    /// Cooperative shutdown flag (set it from a signal handler): when
    /// observed at a period boundary the engine captures a final
    /// checkpoint and returns with `interrupted = true`.
    pub shutdown: Option<Arc<AtomicBool>>,
}

impl CheckpointPolicy {
    /// A policy checkpointing every `every_periods` completed periods.
    pub fn every(every_periods: u64) -> Self {
        CheckpointPolicy {
            every_periods,
            shutdown: None,
        }
    }
}

/// A crash-consistent image of a replay in flight, captured at a period
/// boundary. Contains everything the *engine* owns (stats, the open
/// segment, the replay clock) plus opaque snapshots of the hardware and
/// every registered observer, in registration order.
///
/// To resume: rebuild the identical source/hardware/observer stack, restore
/// the hardware from [`EngineCheckpoint::hw`], each observer from its entry
/// in [`EngineCheckpoint::observers`] and the engine with
/// [`Engine::restore`], then discard the already-consumed source pulls.
/// [`Replay`](crate::Replay) is the one place that does this.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineCheckpoint {
    /// Engine counters at the capture instant (wall-clock fields are
    /// meaningless here and excluded from equality anyway).
    pub stats: EngineStats,
    /// Event counts of the open (not yet closed) period segment.
    pub segment: EventCounts,
    /// Start time of the open segment, s.
    pub segment_start: f64,
    /// Timestamp of the last replayed record, s (the clamp floor).
    pub last_time: f64,
    /// Opaque hardware snapshot ([`HwState::snapshot_state`]).
    pub hw: serde::Value,
    /// Opaque observer snapshots, in registration order.
    pub observers: Vec<serde::Value>,
}

/// Outcome of a checkpointable replay.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineRun {
    /// The engine's counters (final when `interrupted` is false).
    pub stats: EngineStats,
    /// True when the replay stopped early at a checkpoint (cooperative
    /// shutdown, or the checkpoint callback returned `false`). The trailing
    /// settle/close was skipped; the stats describe the partial replay.
    pub interrupted: bool,
}

/// How many *consecutive* transient [`SourceError`]s [`Engine::run_source`]
/// absorbs before giving up and propagating the error. A successful pull
/// resets the budget, so a long trace with scattered transient faults
/// replays to completion; a source stuck in a transient-failure loop still
/// terminates.
pub const MAX_SOURCE_RETRIES: u32 = 8;

/// The event-driven replay core. See the [module docs](self) for the
/// execution model.
///
/// Two driving styles share one implementation:
///
/// * **Batch**: [`Engine::run_source`] / [`Engine::run_source_with_checkpoints`]
///   pull records from a [`TraceSource`] until the duration is reached.
/// * **Incremental**: a long-lived owner ([`Replay::feed`](crate::Replay::feed),
///   and through it the `jpmd-serve` daemon) feeds records one at a time
///   with [`Engine::step_record`], polls [`Engine::take_boundary`] for
///   period rollovers, captures checkpoints on demand with
///   [`Engine::capture_now`], and closes the run with [`Engine::finish`].
///
/// The batch loop is written *on top of* the incremental methods, so the
/// two styles are bit-identical by construction.
#[derive(Default)]
pub struct Engine {
    stats: EngineStats,
    segment: EventCounts,
    segment_start: f64,
    registry: jpmd_obs::MetricsRegistry,
    boundary_pending: bool,
    periods_since_ckpt: u64,
    last_time: f64,
    /// Set once the observers have been asked whether they read the
    /// access log (on the first record).
    profiling_resolved: bool,
}

impl Engine {
    /// A fresh engine.
    pub fn new() -> Self {
        Engine::default()
    }

    /// An engine that publishes its end-of-run counters into `registry`
    /// (`engine.events`, `engine.accesses`, `engine.disk_requests`, and
    /// the throughput gauges). Publication happens once, after the replay
    /// — the hot loop is untouched, and a disabled registry makes this
    /// identical to [`Engine::new`].
    pub fn with_metrics(registry: jpmd_obs::MetricsRegistry) -> Self {
        Engine {
            registry,
            ..Engine::default()
        }
    }

    /// Replays an in-memory `trace` against `hw` until `duration`,
    /// dispatching to `observers`, and returns the engine's counters.
    /// Convenience wrapper over [`Engine::run_source`] — the in-memory
    /// source is infallible.
    pub fn run(
        self,
        trace: &Trace,
        duration: f64,
        hw: &mut HwState,
        observers: &mut [&mut dyn SimObserver],
    ) -> EngineStats {
        self.run_source(trace.source(), duration, hw, observers)
            .expect("in-memory trace sources cannot fail")
    }

    /// Replays `source` against `hw` until `duration`, dispatching to
    /// `observers`, and returns the engine's counters. Records at or after
    /// `duration` are ignored; all timers due by `duration` fire and the
    /// hardware is settled there.
    ///
    /// The engine pulls records one at a time, so a streaming source (e.g.
    /// `jpmd-store`'s paged binary reader) replays at O(page) resident
    /// memory. For the same record sequence every source produces
    /// bit-identical stats.
    ///
    /// # Errors
    ///
    /// Propagates the first non-transient [`SourceError`] the source
    /// yields (I/O failure or corruption in a streaming source); the
    /// partial replay's stats are discarded. Transient errors
    /// ([`SourceError::is_transient`]) are retried up to
    /// [`MAX_SOURCE_RETRIES`] consecutive times (counted in
    /// [`EngineStats::source_retries`]) before being propagated.
    ///
    /// The engine also refuses to let a misbehaving source corrupt the
    /// replay clock or the page space: records with a non-finite timestamp,
    /// zero pages, or pages outside [`HwState::total_pages`] are dropped,
    /// and records arriving out of order are clamped forward to the last
    /// replayed instant (both counted in the stats; all three counters
    /// stay zero for valid traces).
    pub fn run_source<S: TraceSource>(
        self,
        source: S,
        duration: f64,
        hw: &mut HwState,
        observers: &mut [&mut dyn SimObserver],
    ) -> Result<EngineStats, SourceError> {
        let run =
            self.run_source_with_checkpoints(source, duration, hw, observers, None, &mut |_| true)?;
        debug_assert!(!run.interrupted, "no checkpoint policy can interrupt");
        Ok(run.stats)
    }

    /// Like [`Engine::run_source`], with crash-consistent checkpointing.
    ///
    /// When `policy` asks for a checkpoint (cadence reached, or its
    /// shutdown flag set) the engine captures an [`EngineCheckpoint`] at
    /// the first record replayed after a period boundary and hands it to
    /// `on_checkpoint`. If the callback returns `false`, or the policy's
    /// shutdown flag is set, the replay stops immediately (no trailing
    /// settle) and the run comes back with `interrupted = true`.
    ///
    /// To resume, restore the engine ([`Engine::restore`]), the hardware
    /// and every observer from the checkpoint's images, and discard the
    /// checkpoint's [`EngineStats::records_pulled`] source pulls before
    /// calling this ([`Replay`](crate::Replay) does all of this). The
    /// resumed run's final stats and observer state are bit-identical to
    /// the uninterrupted run's.
    ///
    /// # Errors
    ///
    /// Propagates source errors exactly like [`Engine::run_source`].
    pub fn run_source_with_checkpoints<S: TraceSource>(
        mut self,
        mut source: S,
        duration: f64,
        hw: &mut HwState,
        observers: &mut [&mut dyn SimObserver],
        policy: Option<&CheckpointPolicy>,
        on_checkpoint: &mut dyn FnMut(EngineCheckpoint) -> bool,
    ) -> Result<EngineRun, SourceError> {
        let wall = Instant::now();
        let mut consecutive_retries = 0u32;
        while let Some(next) = source.next_record() {
            let record = match next {
                Ok(record) => record,
                Err(e) if e.is_transient() && consecutive_retries < MAX_SOURCE_RETRIES => {
                    self.stats.records_pulled += 1;
                    consecutive_retries += 1;
                    self.stats.source_retries += 1;
                    continue;
                }
                Err(e) => return Err(e),
            };
            consecutive_retries = 0;
            if !self.step_record(record, duration, hw, observers) {
                break;
            }
            if let Some(policy) = policy {
                if self.take_boundary() {
                    let shutdown = policy
                        .shutdown
                        .as_ref()
                        .is_some_and(|flag| flag.load(Ordering::Relaxed));
                    let due =
                        policy.every_periods > 0 && self.periods_since_ckpt >= policy.every_periods;
                    if shutdown || due {
                        self.periods_since_ckpt = 0;
                        let ckpt = self.capture_now(hw, observers);
                        let keep_going = on_checkpoint(ckpt);
                        if shutdown || !keep_going {
                            self.stats.replay_wall_secs = wall.elapsed().as_secs_f64();
                            return Ok(EngineRun {
                                stats: self.stats,
                                interrupted: true,
                            });
                        }
                    }
                }
            }
        }
        let stats = self.finish(duration, hw, observers, wall.elapsed().as_secs_f64());
        Ok(EngineRun {
            stats,
            interrupted: false,
        })
    }

    /// Restores the engine's own counters and replay clock from a
    /// checkpoint (the caller restores the hardware and observers from the
    /// checkpoint's opaque images). Part of the incremental driving
    /// surface; the batch resume path uses it too.
    pub fn restore(&mut self, ckpt: &EngineCheckpoint) {
        self.stats = ckpt.stats.clone();
        self.segment = ckpt.segment;
        self.segment_start = ckpt.segment_start;
        self.last_time = ckpt.last_time;
    }

    /// Feeds one record into the replay: counts the pull, sanitizes it
    /// (drop non-finite, zero-page, or out-of-range, clamp out-of-order),
    /// fires due timers, and replays the accesses. Returns `false` when `record.time` is at
    /// or past `duration` — the record is counted but not replayed, and
    /// the caller should stop feeding and call [`Engine::finish`].
    ///
    /// This is the single per-record step both the batch loop and the
    /// incremental [`Replay::feed`](crate::Replay::feed) drive, so the two
    /// are bit-identical.
    ///
    /// The first call turns on the memory's stack profiling when any
    /// observer [reads the access log](SimObserver::reads_access_log).
    pub fn step_record(
        &mut self,
        mut record: TraceRecord,
        duration: f64,
        hw: &mut HwState,
        observers: &mut [&mut dyn SimObserver],
    ) -> bool {
        if !self.profiling_resolved {
            self.profiling_resolved = true;
            if observers.iter().any(|ob| ob.reads_access_log()) {
                hw.mem.set_profiling(true);
            }
        }
        self.stats.records_pulled += 1;
        let in_range = record
            .first_page
            .checked_add(record.pages)
            .is_some_and(|end| end <= hw.total_pages());
        if !record.time.is_finite() || record.pages == 0 || !in_range {
            self.stats.records_dropped += 1;
            return true;
        }
        if record.time < self.last_time {
            record.time = self.last_time;
            self.stats.records_clamped += 1;
        }
        self.last_time = record.time;
        if record.time >= duration {
            return false;
        }
        self.advance_to(record.time, hw, observers);
        self.replay_record(&record, hw, observers);
        true
    }

    /// True when one or more period boundaries closed since the last call
    /// (the flag is cleared). Incremental drivers poll this after each
    /// [`Engine::step_record`] to learn about rollovers.
    pub fn take_boundary(&mut self) -> bool {
        std::mem::take(&mut self.boundary_pending)
    }

    /// Timestamp of the last replayed record, s (the replay clock).
    pub fn last_time(&self) -> f64 {
        self.last_time
    }

    /// The engine's counters so far (final only after [`Engine::finish`]).
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Builds a checkpoint of the current replay state at the replay
    /// clock's current instant (see [`EngineCheckpoint`]).
    pub fn capture_now(
        &self,
        hw: &HwState,
        observers: &[&mut dyn SimObserver],
    ) -> EngineCheckpoint {
        self.capture(self.last_time, hw, observers)
    }

    /// Closes out an incremental replay: fires all timers due by
    /// `duration`, settles the hardware there, closes the trailing event
    /// segment, stamps the wall-clock stats, and publishes the registry
    /// counters. Consumes the engine and returns its final counters.
    pub fn finish(
        mut self,
        duration: f64,
        hw: &mut HwState,
        observers: &mut [&mut dyn SimObserver],
        replay_wall_secs: f64,
    ) -> EngineStats {
        self.advance_to(duration, hw, observers);
        hw.settle(duration);
        if self.segment_start < duration || self.segment.total() > 0 {
            self.close_segment(duration);
        }
        self.stats.replay_wall_secs = replay_wall_secs;
        self.stats.accesses_per_sec =
            self.stats.counts.accesses as f64 / self.stats.replay_wall_secs.max(f64::MIN_POSITIVE);
        if self.registry.is_enabled() {
            self.registry
                .counter("engine.events")
                .add(self.stats.events_processed);
            self.registry
                .counter("engine.accesses")
                .add(self.stats.counts.accesses);
            self.registry
                .counter("engine.disk_requests")
                .add(self.stats.counts.disk_requests);
            self.registry
                .gauge("engine.replay_wall_secs")
                .set(self.stats.replay_wall_secs);
            self.registry
                .gauge("engine.accesses_per_sec")
                .set(self.stats.accesses_per_sec);
        }
        self.stats
    }

    /// Builds a checkpoint of the current replay state (engine counters,
    /// hardware, observers in registration order).
    fn capture(
        &self,
        last_time: f64,
        hw: &HwState,
        observers: &[&mut dyn SimObserver],
    ) -> EngineCheckpoint {
        EngineCheckpoint {
            stats: self.stats.clone(),
            segment: self.segment,
            segment_start: self.segment_start,
            last_time,
            hw: hw.snapshot_state(),
            observers: observers.iter().map(|ob| ob.snapshot_state()).collect(),
        }
    }

    /// Fires every observer timer due at or before `target`, earliest
    /// first, ties in registration order.
    fn advance_to(
        &mut self,
        target: f64,
        hw: &mut HwState,
        observers: &mut [&mut dyn SimObserver],
    ) {
        loop {
            let due = observers
                .iter()
                .fold(f64::INFINITY, |m, ob| m.min(ob.next_timer()));
            if due > target {
                return;
            }
            for i in 0..observers.len() {
                if observers[i].next_timer() == due {
                    let mut out = Vec::new();
                    observers[i].on_timer(due, hw, &mut out);
                    assert!(
                        observers[i].next_timer() > due,
                        "observer {i} did not advance its timer past {due}"
                    );
                    self.dispatch(&out, hw, observers);
                }
            }
        }
    }

    /// Replays one trace record: pages are looked up in order and grouped
    /// into maximal same-outcome runs, each dispatched as one
    /// [`SimEvent::Access`]; a miss run becomes one disk request, and
    /// displaced dirty pages go back to the disk as background writes.
    fn replay_record(
        &mut self,
        record: &TraceRecord,
        hw: &mut HwState,
        observers: &mut [&mut dyn SimObserver],
    ) {
        let now = record.time;
        let write = record.kind == AccessKind::Write;
        // The open run: first page, length, outcome.
        let (mut first_page, mut pages, mut hit) = (record.first_page, 0, false);
        for page in record.page_range() {
            let page_hit = hw.mem.access_rw(page, now, write);
            if pages > 0 && page_hit != hit {
                self.close_run(first_page, pages, hit, record, hw, observers);
                (first_page, pages) = (page, 0);
            }
            hit = page_hit;
            pages += 1;
        }
        // Never empty: `step_record` drops zero-page records.
        self.close_run(first_page, pages, hit, record, hw, observers);
        let writebacks = hw.mem.take_writebacks();
        if !writebacks.is_empty() {
            let events = hw.submit_writes(writebacks, now);
            self.dispatch(&events, hw, observers);
        }
    }

    /// Dispatches one same-outcome run of `record`'s pages. A miss run is
    /// then submitted as one disk request, so its access event comes before
    /// its `Miss` and `DiskRequest` and the next hit run's after them.
    fn close_run(
        &mut self,
        first_page: u64,
        pages: u64,
        hit: bool,
        record: &TraceRecord,
        hw: &mut HwState,
        observers: &mut [&mut dyn SimObserver],
    ) {
        let time = record.time;
        let access = SimEvent::Access {
            time,
            first_page,
            pages,
            hit,
            write: record.kind == AccessKind::Write,
        };
        if hit {
            self.dispatch(&[access], hw, observers);
            return;
        }
        let outcome = hw.submit_request(time, first_page, pages);
        self.dispatch(
            &[
                access,
                SimEvent::Miss {
                    time,
                    first_page,
                    pages,
                },
                SimEvent::DiskRequest {
                    time,
                    first_page,
                    pages,
                    latency: outcome.latency,
                    woke_disk: outcome.woke_disk,
                    user: true,
                },
            ],
            hw,
            observers,
        );
    }

    /// Delivers events to every observer and tallies them.
    fn dispatch(
        &mut self,
        events: &[SimEvent],
        hw: &mut HwState,
        observers: &mut [&mut dyn SimObserver],
    ) {
        for event in events {
            self.stats.events_processed += 1;
            self.stats.counts.record(event);
            self.segment.record(event);
            if let SimEvent::PeriodBoundary { end, .. } = event {
                self.close_segment(*end);
                self.boundary_pending = true;
                self.periods_since_ckpt += 1;
            }
            for observer in observers.iter_mut() {
                observer.on_event(event, hw);
            }
        }
    }

    fn close_segment(&mut self, end: f64) {
        self.stats.period_log.push(PeriodEvents {
            start: self.segment_start,
            end,
            counts: std::mem::take(&mut self.segment),
        });
        self.segment_start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;
    use jpmd_disk::SpinDownPolicy;
    use jpmd_mem::{IdlePolicy, MemConfig, RdramModel};
    use jpmd_trace::{FileId, TraceRecord};

    fn hw() -> HwState {
        hw_over(64)
    }

    fn hw_over(total_pages: u64) -> HwState {
        let config = SimConfig::with_mem(MemConfig {
            page_bytes: 1 << 20,
            bank_pages: 4,
            total_banks: 8,
            initial_banks: 8,
            model: RdramModel::default(),
            policy: IdlePolicy::Nap,
        });
        HwState::new(&config, SpinDownPolicy::AlwaysOn, total_pages)
    }

    fn trace(records: Vec<TraceRecord>) -> Trace {
        Trace::new(records, 1 << 20, 64)
    }

    fn record(time: f64, first_page: u64, pages: u64) -> TraceRecord {
        TraceRecord {
            time,
            file: FileId(0),
            first_page,
            pages,
            kind: AccessKind::Read,
        }
    }

    /// Records every event it sees; a timer at a fixed instant.
    #[derive(Default)]
    struct Recorder {
        events: Vec<SimEvent>,
        timer: Option<f64>,
    }

    impl SimObserver for Recorder {
        fn next_timer(&self) -> f64 {
            self.timer.unwrap_or(f64::INFINITY)
        }
        fn on_timer(&mut self, t: f64, _hw: &mut HwState, out: &mut Vec<SimEvent>) {
            self.timer = None;
            out.push(SimEvent::Sync { time: t, pages: 0 });
        }
        fn on_event(&mut self, event: &SimEvent, _hw: &mut HwState) {
            self.events.push(event.clone());
        }
    }

    #[test]
    fn events_follow_causal_order() {
        // Pages 0, 1 miss as one run; page 3 misses alone; then a record
        // over pages 0..4 hits 0 and 1, misses 2, and hits 3.
        let mut recorder = Recorder::default();
        let mut hw = hw();
        {
            let mut obs: [&mut dyn SimObserver; 1] = [&mut recorder];
            let stats = Engine::new().run(
                &trace(vec![
                    record(1.0, 0, 2),
                    record(2.0, 3, 1),
                    record(3.0, 0, 4),
                ]),
                10.0,
                &mut hw,
                &mut obs,
            );
            assert_eq!(stats.counts.accesses, 7, "accesses count pages");
            assert_eq!(stats.counts.access_runs, 5);
            assert_eq!(stats.counts.misses, 3);
            assert_eq!(stats.counts.disk_requests, 3);
            assert_eq!(stats.events_processed, stats.counts.total());
        }
        // A miss run's access event precedes its Miss + DiskRequest pair;
        // a hit run's follows the request before it.
        let kinds: Vec<String> = recorder
            .events
            .iter()
            .map(|e| match e {
                SimEvent::Access {
                    first_page,
                    pages,
                    hit,
                    ..
                } => format!("{}@{first_page}x{pages}", if *hit { "hit" } else { "miss" }),
                SimEvent::Miss { first_page, .. } => format!("run@{first_page}"),
                SimEvent::DiskRequest { first_page, .. } => format!("request@{first_page}"),
                _ => "other".into(),
            })
            .collect();
        assert_eq!(
            kinds,
            [
                "miss@0x2",
                "run@0",
                "request@0",
                "miss@3x1",
                "run@3",
                "request@3",
                "hit@0x2",
                "miss@2x1",
                "run@2",
                "request@2",
                "hit@3x1",
            ]
        );
    }

    #[test]
    fn timer_fires_between_records_and_events_reach_emitter() {
        let mut recorder = Recorder {
            timer: Some(5.0),
            ..Recorder::default()
        };
        let mut hw = hw();
        {
            let mut obs: [&mut dyn SimObserver; 1] = [&mut recorder];
            let stats = Engine::new().run(
                &trace(vec![record(1.0, 0, 1), record(9.0, 0, 1)]),
                10.0,
                &mut hw,
                &mut obs,
            );
            assert_eq!(stats.counts.syncs, 1);
        }
        let sync_pos = recorder
            .events
            .iter()
            .position(|e| matches!(e, SimEvent::Sync { .. }))
            .expect("sync dispatched");
        let second_access = recorder
            .events
            .iter()
            .position(|e| matches!(e, SimEvent::Access { time, .. } if *time == 9.0))
            .expect("second access");
        assert!(sync_pos < second_access);
    }

    /// Yields a scripted sequence of pulls (for fault-path tests).
    struct Scripted(std::collections::VecDeque<Result<TraceRecord, SourceError>>);

    impl Scripted {
        fn new(items: Vec<Result<TraceRecord, SourceError>>) -> Self {
            Scripted(items.into())
        }
    }

    impl TraceSource for Scripted {
        fn page_bytes(&self) -> u64 {
            1 << 20
        }
        fn total_pages(&self) -> u64 {
            64
        }
        fn next_record(&mut self) -> Option<Result<TraceRecord, SourceError>> {
            self.0.pop_front()
        }
    }

    fn transient_err() -> SourceError {
        SourceError::transient(std::io::Error::other("blip"))
    }

    #[test]
    fn transient_source_errors_are_retried() {
        let mut hw = hw();
        let source = Scripted::new(vec![
            Err(transient_err()),
            Ok(record(1.0, 0, 1)),
            Err(transient_err()),
            Err(transient_err()),
            Ok(record(2.0, 1, 1)),
        ]);
        let stats = Engine::new()
            .run_source(source, 10.0, &mut hw, &mut [])
            .expect("transient errors must be absorbed");
        assert_eq!(stats.source_retries, 3);
        assert_eq!(stats.counts.accesses, 2);
    }

    #[test]
    fn transient_retry_budget_is_bounded() {
        let mut hw = hw();
        let source = Scripted::new(
            (0..=MAX_SOURCE_RETRIES)
                .map(|_| Err(transient_err()))
                .collect(),
        );
        let err = Engine::new()
            .run_source(source, 10.0, &mut hw, &mut [])
            .expect_err("a stuck source must eventually fail");
        assert!(err.is_transient());
    }

    #[test]
    fn non_transient_source_error_aborts_immediately() {
        let mut hw = hw();
        let source = Scripted::new(vec![
            Ok(record(1.0, 0, 1)),
            Err(SourceError::new(std::io::Error::other("dead"))),
            Ok(record(2.0, 1, 1)),
        ]);
        assert!(Engine::new()
            .run_source(source, 10.0, &mut hw, &mut [])
            .is_err());
    }

    #[test]
    fn unusable_records_are_dropped_and_out_of_order_clamped() {
        let mut hw = hw();
        let source = Scripted::new(vec![
            Ok(record(5.0, 0, 1)),
            Ok(record(f64::NAN, 1, 1)),      // dropped
            Ok(record(6.0, 2, 0)),           // dropped (zero pages)
            Ok(record(3.0, 3, 1)),           // clamped to 5.0
            Ok(record(f64::INFINITY, 4, 1)), // dropped
            Ok(record(7.0, 5, 1)),
        ]);
        let stats = Engine::new()
            .run_source(source, 10.0, &mut hw, &mut [])
            .expect("sanitized replay succeeds");
        assert_eq!(stats.records_dropped, 3);
        assert_eq!(stats.records_clamped, 1);
        assert_eq!(stats.counts.accesses, 3);
        // The disk saw monotone arrivals despite the scrambled source.
        assert_eq!(hw.disk.requests(), 3);
    }

    #[test]
    fn records_outside_the_page_space_are_dropped() {
        let mut hw = hw(); // 64-page space
        let source = Scripted::new(vec![
            Ok(record(1.0, 60, 4)),       // ends exactly at the space
            Ok(record(2.0, 60, 5)),       // one page past it
            Ok(record(3.0, 1 << 40, 1)),  // far beyond it
            Ok(record(4.0, u64::MAX, 2)), // first_page + pages overflows
            Ok(record(5.0, 0, u64::MAX)), // a 2^64-page record
            Ok(record(6.0, 0, 1)),
        ]);
        let stats = Engine::new()
            .run_source(source, 10.0, &mut hw, &mut [])
            .expect("sanitized replay succeeds");
        assert_eq!(stats.records_dropped, 4);
        assert_eq!(stats.records_pulled, 6);
        assert_eq!(stats.counts.accesses, 5);
    }

    #[test]
    fn page_space_is_capped_at_the_dense_index() {
        let mut hw = hw_over(u64::MAX);
        assert_eq!(hw.total_pages(), jpmd_mem::MAX_PAGE_SPACE);
        let source = Scripted::new(vec![
            Ok(record(1.0, jpmd_mem::MAX_PAGE_SPACE, 1)),
            Ok(record(2.0, 5, 1)),
        ]);
        let stats = Engine::new()
            .run_source(source, 10.0, &mut hw, &mut [])
            .expect("sanitized replay succeeds");
        assert_eq!(stats.records_dropped, 1);
        assert_eq!(stats.counts.accesses, 1);
    }

    #[test]
    fn profiling_follows_the_observers_that_read_the_log() {
        use crate::{NullController, PeriodAccounting};
        let trace = trace(vec![record(1.0, 0, 2), record(2.0, 0, 2)]);

        let mut bare = hw();
        Engine::new().run(&trace, 10.0, &mut bare, &mut []);
        assert!(!bare.mem.profiling(), "the bare engine never profiles");

        let mut static_hw = hw();
        let mut periods = PeriodAccounting::new(NullController, 5.0, 0.1, 0.5);
        Engine::new().run(&trace, 10.0, &mut static_hw, &mut [&mut periods]);
        assert!(!static_hw.mem.profiling(), "NullController ignores the log");

        #[derive(Default)]
        struct Reader(Vec<usize>);
        impl crate::PeriodController for Reader {
            fn on_period_end(
                &mut self,
                _: &crate::PeriodObservation,
                log: &jpmd_mem::AccessLog,
            ) -> crate::ControlAction {
                self.0.push(log.len());
                crate::ControlAction::default()
            }
        }
        let mut joint_hw = hw();
        let mut periods = PeriodAccounting::new(Reader::default(), 5.0, 0.1, 0.5);
        Engine::new().run(&trace, 10.0, &mut joint_hw, &mut [&mut periods]);
        assert!(joint_hw.mem.profiling());
        assert_eq!(periods.controller().0, vec![4, 0], "every access profiled");
    }

    #[test]
    fn stats_equality_ignores_wall_clock() {
        let mut a = EngineStats {
            events_processed: 3,
            replay_wall_secs: 1.0,
            accesses_per_sec: 3.0,
            ..EngineStats::default()
        };
        let b = EngineStats {
            events_processed: 3,
            replay_wall_secs: 2.0,
            accesses_per_sec: 1.5,
            ..EngineStats::default()
        };
        assert_eq!(a, b);
        a.events_processed = 4;
        assert_ne!(a, b);
    }

    #[test]
    fn trailing_partial_segment_is_logged() {
        let mut hw = hw();
        let stats = Engine::new().run(&trace(vec![record(1.0, 0, 1)]), 10.0, &mut hw, &mut []);
        assert_eq!(stats.period_log.len(), 1);
        assert_eq!(stats.period_log[0].start, 0.0);
        assert_eq!(stats.period_log[0].end, 10.0);
        assert_eq!(stats.period_log[0].counts.accesses, 1);
    }
}

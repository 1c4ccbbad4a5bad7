//! The single-disk replay stack. [`Replay`] wires the standard observer
//! stack to the event-driven [`Engine`] once. Every replay goes through
//! it: batch runs over a [`TraceSource`] ([`Replay::run`],
//! [`Replay::run_checkpointed`]), the record-by-record stepper
//! ([`Replay::feed`], [`Replay::finish`]), resume from a
//! [`SimCheckpoint`], and fault injection. Both drivers close with the
//! same report assembly.

use std::time::Instant;

use jpmd_disk::SpinDownPolicy;
use jpmd_obs::{ObsEvent, SpanGuard, SpanRecorder, Telemetry};
use jpmd_trace::{SourceError, Trace, TraceRecord, TraceSource};
use serde::{Deserialize, Serialize};

use crate::{
    engine::{CheckpointPolicy, EngineCheckpoint},
    EnergyMeter, Engine, EngineStats, FaultInjector, FlushDaemon, HwState, LatencyTracker,
    PeriodAccounting, PeriodController, PeriodRow, RunReport, SimConfig, SimObserver,
    TelemetryObserver, TimedController, WarmupWindow,
};

/// A crash-consistent image of a full simulation run in flight: the
/// engine-level checkpoint plus the run identity and telemetry cursor.
/// This is what `jpmd-ckpt` serializes into `.jck` files.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimCheckpoint {
    /// The interrupted run's label (resume requires it to match).
    pub label: String,
    /// The interrupted run's target duration, s (resume requires it to
    /// match).
    pub duration: f64,
    /// The telemetry sequence counter at the capture instant; resume
    /// fast-forwards the handle here so the combined event stream stays
    /// gap-free.
    pub telemetry_seq: u64,
    /// Span call counts at the capture instant (the deterministic half of
    /// the span aggregate).
    pub span_calls: Vec<(String, u64)>,
    /// The engine's checkpoint: stats, clock, hardware, observers.
    pub engine: EngineCheckpoint,
}

impl SimCheckpoint {
    /// Checks that this checkpoint was captured from the run `label` of
    /// `duration` seconds, the only run it can resume.
    ///
    /// # Errors
    ///
    /// A [`SourceError`] naming the mismatch, like any other checkpoint
    /// that does not restore against the run.
    pub fn check_resumes(&self, label: &str, duration: f64) -> Result<(), SourceError> {
        if self.label != label {
            return Err(restore_error(serde::Error::custom(format!(
                "checkpoint was captured from run '{}', not '{label}'",
                self.label
            ))));
        }
        if self.duration != duration {
            return Err(restore_error(serde::Error::custom(format!(
                "checkpoint was captured for a {} s run, not {duration} s",
                self.duration
            ))));
        }
        Ok(())
    }
}

/// Outcome of a checkpointable simulation run.
#[derive(Debug, Clone, PartialEq)]
pub enum SimOutcome {
    /// The run reached its target duration; the report is final.
    Completed(Box<RunReport>),
    /// The run stopped early at a checkpoint (cooperative shutdown, or the
    /// checkpoint callback returned `false`). The last checkpoint handed
    /// to the callback is the resume point; no report exists.
    Interrupted,
}

impl SimOutcome {
    /// The completed report, or `None` for an interrupted run.
    pub fn into_report(self) -> Option<RunReport> {
        match self {
            SimOutcome::Completed(report) => Some(*report),
            SimOutcome::Interrupted => None,
        }
    }
}

/// Checkpointing configuration for [`Replay::run_checkpointed`]: when to
/// capture, and where captured checkpoints go. The callback returns
/// whether the run should continue (`false` stops it, leaving the
/// just-delivered checkpoint as the resume point).
pub struct CheckpointOptions<'a> {
    /// When checkpoints are captured.
    pub policy: CheckpointPolicy,
    /// Receives each captured checkpoint.
    pub on_checkpoint: &'a mut dyn FnMut(SimCheckpoint) -> bool,
}

/// What [`Replay::feed`] did with a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedOutcome {
    /// The record entered the replay (it may still have been dropped or
    /// clamped by the engine's sanitization; see [`EngineStats`]).
    Replayed,
    /// The record was discarded as part of a resumed run's already-consumed
    /// prefix (the stream must be replayed from its start after a resume).
    Skipped,
    /// The record's timestamp is at or past the configured duration; the
    /// run is over and further feeds are ignored. Call [`Replay::finish`].
    Finished,
}

/// Wraps a checkpoint-restore decode failure as a [`SourceError`] so every
/// replay keeps a single error type.
fn restore_error(e: serde::Error) -> SourceError {
    SourceError::new(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("checkpoint restore failed: {e}"),
    ))
}

/// The standard observers of one run.
struct Observers<C: PeriodController> {
    warmup: WarmupWindow,
    periods: PeriodAccounting<TimedController<C>>,
    flush: FlushDaemon,
    latency: LatencyTracker,
    energy: EnergyMeter,
    /// Registered only when the run's telemetry is enabled.
    telemetry: Option<TelemetryObserver>,
}

impl<C: PeriodController> Observers<C> {
    /// Lends the stack to `f` as the engine's observer slice.
    ///
    /// Registration order is load-bearing: same-instant timers fire in
    /// this order (warm-up snapshot, then period row, then sync tick), and
    /// checkpoint observer images are stored in it. The passive telemetry
    /// observer goes last, after the components that settle the hardware.
    fn with<R>(&mut self, f: impl FnOnce(&mut [&mut dyn SimObserver]) -> R) -> R {
        let Observers {
            warmup,
            periods,
            flush,
            latency,
            energy,
            telemetry,
        } = self;
        match telemetry {
            Some(telemetry) => f(&mut [warmup, periods, flush, latency, energy, telemetry]),
            None => f(&mut [warmup, periods, flush, latency, energy]),
        }
    }
}

/// One simulation run (paper Fig. 6(b) pipeline): the hardware, the
/// engine, the standard observers — [`WarmupWindow`], [`PeriodAccounting`]
/// around a [`TimedController`], [`FlushDaemon`], [`LatencyTracker`],
/// [`EnergyMeter`] and, with telemetry on, a [`TelemetryObserver`] — and
/// the run's spans and telemetry handle.
///
/// Built once, fresh or from a [`SimCheckpoint`], then driven in batch
/// over a [`TraceSource`] ([`Replay::run`], [`Replay::run_checkpointed`])
/// or fed one record at a time ([`Replay::feed`], closed by
/// [`Replay::finish`]). Both drivers take the same per-record step
/// ([`Engine::step_record`]), so they produce the same [`RunReport`], and
/// a checkpoint captured under either resumes under either.
///
/// Missed pages of a record coalesce into contiguous disk requests; every
/// page of a missed run inherits its request's latency, and accesses above
/// the configured threshold count as *long-latency* (paper: 0.5 s).
/// Metrics and energy cover the window after `config.warmup_secs`;
/// per-period rows cover the whole run. The trace is open-loop, as in the
/// paper. Telemetry never changes the report: the telemetry observer only
/// reads hardware state, and span wall-clock fields are excluded from
/// report equality (the `determinism` tests in `jpmd-obs`).
pub struct Replay<C: PeriodController> {
    label: String,
    duration: f64,
    config: SimConfig,
    telemetry: Telemetry,
    spans: SpanRecorder,
    replay_span: Option<SpanGuard>,
    started: Instant,
    hw: HwState,
    engine: Engine,
    observers: Observers<C>,
    /// Records of a resumed run's already-replayed prefix still to discard.
    discard_remaining: u64,
    live: bool,
}

impl<C: PeriodController> Replay<C> {
    /// A run of `duration` seconds (stream time) over `config` with the
    /// owned `controller`, for a page space of `total_pages`.
    ///
    /// `injector` goes into the hardware before a resume restores the
    /// hardware image, which carries the injector's state. `resume`
    /// continues an interrupted run: rebuild it from the *same*
    /// configuration, spin-down policy, controller type, page space,
    /// injector construction and record stream, since the checkpoint
    /// carries only dynamic state. No second `RunStart` is emitted, the
    /// telemetry sequence and span call counts continue from the
    /// checkpoint, and the first [`EngineStats::records_pulled`] records of
    /// the stream are discarded, so the caller replays it from its start.
    /// The report and the normalized telemetry stream then equal the
    /// uninterrupted run's.
    ///
    /// # Errors
    ///
    /// A resume checkpoint captured from another label or duration, or
    /// whose images do not decode against this stack, fails with a
    /// [`SourceError`] wrapping the mismatch.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `duration` does not
    /// exceed the warm-up.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        config: &SimConfig,
        spindown: SpinDownPolicy,
        controller: C,
        total_pages: u64,
        duration: f64,
        label: &str,
        telemetry: &Telemetry,
        injector: Option<Box<dyn FaultInjector>>,
        resume: Option<&SimCheckpoint>,
    ) -> Result<Self, SourceError> {
        config.validate();
        assert!(
            duration > config.warmup_secs,
            "duration must exceed the warm-up window"
        );
        let spans = SpanRecorder::new();
        match resume {
            Some(ckpt) => {
                ckpt.check_resumes(label, duration)?;
                telemetry.set_seq(ckpt.telemetry_seq);
                spans.seed_calls(&ckpt.span_calls);
            }
            None => telemetry.emit_with(|| ObsEvent::RunStart {
                label: label.to_string(),
                duration_s: duration,
            }),
        }
        let mut hw = HwState::new(config, spindown, total_pages.max(1));
        if let Some(injector) = injector {
            hw.set_fault_injector(injector);
        }
        let observers = Observers {
            warmup: WarmupWindow::new(config.warmup_secs),
            periods: PeriodAccounting::new(
                TimedController::new(controller, spans.clone(), telemetry.clone()),
                config.period_secs,
                config.aggregation_window_secs,
                config.long_latency_secs,
            ),
            flush: FlushDaemon::new(config.sync_interval_secs),
            latency: LatencyTracker::new(config.warmup_secs, config.long_latency_secs),
            energy: EnergyMeter::new(),
            telemetry: telemetry
                .is_enabled()
                .then(|| TelemetryObserver::new(telemetry)),
        };
        let mut replay = Replay {
            label: label.to_string(),
            duration,
            config: *config,
            telemetry: telemetry.clone(),
            replay_span: Some(spans.time_with("engine.replay", telemetry)),
            spans,
            started: Instant::now(),
            hw,
            engine: Engine::with_metrics(telemetry.registry()),
            observers,
            discard_remaining: 0,
            live: true,
        };
        if let Some(ckpt) = resume {
            replay
                .hw
                .restore_state(&ckpt.engine.hw)
                .map_err(restore_error)?;
            replay.observers.with(|observers| {
                if ckpt.engine.observers.len() != observers.len() {
                    return Err(restore_error(serde::Error::custom(format!(
                        "checkpoint holds {} observer images but this run registers {} \
                         observers (was telemetry toggled between capture and resume?)",
                        ckpt.engine.observers.len(),
                        observers.len()
                    ))));
                }
                for (observer, state) in observers.iter_mut().zip(&ckpt.engine.observers) {
                    observer.restore_state(state).map_err(restore_error)?;
                }
                Ok(())
            })?;
            replay.engine.restore(&ckpt.engine);
            replay.discard_remaining = ckpt.engine.stats.records_pulled;
        }
        Ok(replay)
    }

    /// Consumes one record of a resumed run's already-replayed prefix:
    /// true while there are records left to discard. The restored stats
    /// already count every pull of that prefix — replayed, retried,
    /// dropped or clamped.
    fn discard(&mut self) -> bool {
        let discard = self.discard_remaining > 0;
        if discard {
            self.discard_remaining -= 1;
        }
        discard
    }

    /// Replays `source` to the end of the run and returns the report.
    ///
    /// # Errors
    ///
    /// Propagates the first non-transient [`SourceError`] the source
    /// yields; no report is produced for a failed replay.
    ///
    /// # Panics
    ///
    /// Panics if the source's page size differs from the configuration's.
    pub fn run<S: TraceSource>(self, source: S) -> Result<RunReport, SourceError> {
        match self.run_checkpointed(source, None)? {
            SimOutcome::Completed(report) => Ok(*report),
            SimOutcome::Interrupted => unreachable!("no checkpoint policy was installed"),
        }
    }

    /// Like [`Replay::run`], capturing checkpoints per `checkpoints`. An
    /// interrupted run returns [`SimOutcome::Interrupted`] without a report
    /// (the callback has already seen the resume point).
    ///
    /// # Errors
    ///
    /// Propagates the first non-transient [`SourceError`] the source
    /// yields.
    ///
    /// # Panics
    ///
    /// Panics if the source's page size differs from the configuration's.
    pub fn run_checkpointed<S: TraceSource>(
        mut self,
        mut source: S,
        checkpoints: Option<CheckpointOptions<'_>>,
    ) -> Result<SimOutcome, SourceError> {
        assert_eq!(
            source.page_bytes(),
            self.config.mem.page_bytes,
            "trace and memory must agree on the page size"
        );
        while self.discard() && source.next_record().is_some() {}
        let (policy, mut on_checkpoint) = match checkpoints {
            Some(options) => (Some(options.policy), Some(options.on_checkpoint)),
            None => (None, None),
        };
        let mut forward = |engine: EngineCheckpoint| match on_checkpoint.as_mut() {
            Some(callback) => callback(SimCheckpoint {
                label: self.label.clone(),
                duration: self.duration,
                telemetry_seq: self.telemetry.seq(),
                span_calls: self.spans.call_counts(),
                engine,
            }),
            None => true,
        };
        let (engine, hw) = (std::mem::take(&mut self.engine), &mut self.hw);
        let run = self.observers.with(|observers| {
            engine.run_source_with_checkpoints(
                source,
                self.duration,
                hw,
                observers,
                policy.as_ref(),
                &mut forward,
            )
        })?;
        if run.interrupted {
            return Ok(SimOutcome::Interrupted);
        }
        Ok(SimOutcome::Completed(Box::new(self.into_report(run.stats))))
    }

    /// Feeds one record: fires due timers (period rollovers, warm-up end,
    /// sync ticks) and replays its accesses. Returns what happened; after
    /// [`FeedOutcome::Finished`] further feeds are no-ops.
    pub fn feed(&mut self, record: TraceRecord) -> FeedOutcome {
        if !self.live {
            return FeedOutcome::Finished;
        }
        if self.discard() {
            return FeedOutcome::Skipped;
        }
        let (engine, hw) = (&mut self.engine, &mut self.hw);
        if self
            .observers
            .with(|observers| engine.step_record(record, self.duration, hw, observers))
        {
            FeedOutcome::Replayed
        } else {
            self.live = false;
            FeedOutcome::Finished
        }
    }

    /// Captures a crash-consistent checkpoint of the whole stack at the
    /// replay clock's current instant — the same [`SimCheckpoint`] the
    /// batch driver hands its checkpoint callback.
    pub fn checkpoint(&mut self) -> SimCheckpoint {
        let (engine, hw) = (&self.engine, &self.hw);
        SimCheckpoint {
            label: self.label.clone(),
            duration: self.duration,
            telemetry_seq: self.telemetry.seq(),
            span_calls: self.spans.call_counts(),
            engine: self.observers.with(|obs| engine.capture_now(hw, obs)),
        }
    }

    /// Closes out a fed run: fires all timers due by the configured
    /// duration, settles the hardware, and returns the report.
    pub fn finish(mut self) -> RunReport {
        let wall = self.started.elapsed().as_secs_f64();
        let (engine, hw) = (std::mem::take(&mut self.engine), &mut self.hw);
        let stats = self
            .observers
            .with(|observers| engine.finish(self.duration, hw, observers, wall));
        self.into_report(stats)
    }

    /// Finalizes latency and energy over the measured window, assembles
    /// the report, emits `RunEnd` and closes the telemetry handle (which
    /// surfaces any records the sink dropped on write errors).
    fn into_report(mut self, stats: EngineStats) -> RunReport {
        drop(self.replay_span.take());
        let window = self.duration - self.config.warmup_secs;
        let (traffic, lat) = {
            let _finalize = self.spans.time_with("report.finalize", &self.telemetry);
            let energy = self.observers.energy.finalize(&self.hw, window);
            (energy, self.observers.latency.finalize())
        };
        // Callers keep reports by the hundred: release the run's working
        // memory first, then copy the kept vectors to exact size, so they pack
        // together instead of pinning the heap between the next run's buffers.
        drop(self.hw);
        let mut engine = stats;
        engine.period_log = engine.period_log.to_vec();
        let report = RunReport {
            label: self.label,
            duration_secs: window,
            energy: traffic.energy,
            cache_accesses: traffic.cache_accesses,
            hits: traffic.hits,
            disk_page_accesses: traffic.disk_page_accesses,
            disk_requests: traffic.disk_requests,
            mean_latency_secs: lat.mean_latency_secs,
            request_latency_p50_secs: lat.request_latency_p50_secs,
            request_latency_p99_secs: lat.request_latency_p99_secs,
            max_latency_secs: lat.max_latency_secs,
            long_latency_count: lat.long_latency_count,
            utilization: traffic.utilization,
            spin_downs: traffic.spin_downs,
            periods: self.observers.periods.into_rows().to_vec(),
            engine,
            spans: self.spans.snapshot(),
        };
        self.telemetry.emit_with(|| ObsEvent::RunEnd {
            label: report.label.clone(),
            periods: report.periods.len() as u64,
            events: report.engine.events_processed,
        });
        self.telemetry.close();
        report
    }

    /// All period rows closed so far (observation + the control action
    /// the policy took).
    pub fn rows(&self) -> &[PeriodRow] {
        self.observers.periods.rows()
    }

    /// Whether the run still accepts fed records (false once a fed record
    /// reached the configured duration).
    pub fn is_live(&self) -> bool {
        self.live
    }

    /// The replay clock: timestamp of the last replayed record, s.
    pub fn sim_time(&self) -> f64 {
        self.engine.last_time()
    }

    /// Source pulls consumed so far (the resume cursor).
    pub fn records_pulled(&self) -> u64 {
        self.engine.stats().records_pulled
    }

    /// Banks currently enabled.
    pub fn enabled_banks(&self) -> u32 {
        self.hw.mem.enabled_banks()
    }

    /// Total banks in the configuration.
    pub fn total_banks(&self) -> u32 {
        self.config.mem.total_banks
    }

    /// The disk spin-down timeout currently in force, s.
    pub fn disk_timeout(&self) -> f64 {
        self.hw.disk.timeout()
    }

    /// Total (memory + disk) energy accrued so far, J, as of the last
    /// settled instant (the most recent period boundary or warm-up end).
    /// Reading it never perturbs the replay.
    pub fn energy_so_far_j(&self) -> f64 {
        self.hw.snapshot_energy().total_j()
    }

    /// The page size the run simulates, bytes.
    pub fn page_bytes(&self) -> u64 {
        self.config.mem.page_bytes
    }

    /// The run's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The controller driving the period decisions.
    pub fn controller(&self) -> &C {
        self.observers.periods.controller().inner()
    }

    /// The controller, mutably.
    pub fn controller_mut(&mut self) -> &mut C {
        self.observers.periods.controller_mut().inner_mut()
    }
}

/// Runs one complete system simulation over an in-memory trace: a
/// [`Replay`] with telemetry off, no injector and no checkpoints.
///
/// # Panics
///
/// Panics if the trace's page size differs from the memory configuration's,
/// or if `duration` does not exceed the warm-up.
pub fn run_simulation(
    config: &SimConfig,
    spindown: SpinDownPolicy,
    controller: &mut dyn PeriodController,
    trace: &Trace,
    duration: f64,
    label: &str,
) -> RunReport {
    run_simulation_source(
        config,
        spindown,
        controller,
        trace.source(),
        duration,
        label,
    )
    .expect("in-memory trace sources cannot fail")
}

/// Like [`run_simulation`], but replays any [`TraceSource`] — including
/// `jpmd-store`'s paged binary reader, which streams multi-GB traces at
/// O(page) resident memory. For the same record sequence the report is
/// bit-identical to the in-memory replay (asserted by the `store_stream`
/// integration tests).
///
/// # Errors
///
/// Propagates the first [`SourceError`] the source yields (I/O failure or
/// a corrupt store); no report is produced for a failed replay.
///
/// # Panics
///
/// Panics if the source's page size differs from the memory
/// configuration's, or if `duration` does not exceed the warm-up.
pub fn run_simulation_source<S: TraceSource>(
    config: &SimConfig,
    spindown: SpinDownPolicy,
    controller: &mut dyn PeriodController,
    source: S,
    duration: f64,
    label: &str,
) -> Result<RunReport, SourceError> {
    let pages = source.total_pages();
    let telemetry = Telemetry::disabled();
    Replay::new(
        config, spindown, controller, pages, duration, label, &telemetry, None, None,
    )?
    .run(source)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ControlAction, NullController, PeriodObservation};
    use jpmd_mem::{IdlePolicy, MemConfig, RdramModel};
    use jpmd_trace::{FileId, TraceRecord};

    fn mem_config(banks: u32) -> MemConfig {
        MemConfig {
            page_bytes: 1 << 20,
            bank_pages: 4,
            total_banks: 8,
            initial_banks: banks,
            model: RdramModel::default(),
            policy: IdlePolicy::Nap,
        }
    }

    fn record(time: f64, first_page: u64, pages: u64) -> TraceRecord {
        TraceRecord {
            time,
            file: FileId(0),
            first_page,
            pages,
            kind: jpmd_trace::AccessKind::Read,
        }
    }

    fn small_trace() -> Trace {
        // Two bursts on the same pages: second burst hits.
        Trace::new(
            vec![record(1.0, 0, 4), record(2.0, 0, 4), record(300.0, 8, 2)],
            1 << 20,
            64,
        )
    }

    #[test]
    fn hits_and_misses_accounted() {
        let config = SimConfig::with_mem(mem_config(8));
        let report = run_simulation(
            &config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &small_trace(),
            400.0,
            "test",
        );
        assert_eq!(report.cache_accesses, 10);
        assert_eq!(report.hits, 4);
        assert_eq!(report.disk_page_accesses, 6);
        assert_eq!(report.disk_requests, 2);
        assert_eq!(report.spin_downs, 0);
    }

    #[test]
    fn engine_counters_surface_in_report() {
        let config = SimConfig::with_mem(mem_config(8));
        let report = run_simulation(
            &config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &small_trace(),
            400.0,
            "test",
        );
        let counts = report.engine.counts;
        // Accesses are counted in pages, dispatches in events: each record
        // here is one same-outcome run (4 misses, 4 hits, 2 misses).
        assert_eq!(counts.accesses, report.cache_accesses);
        assert_eq!(counts.accesses, 10);
        assert_eq!(counts.access_runs, 3);
        assert_eq!(counts.misses, 2);
        assert_eq!(counts.disk_requests, 2);
        assert_eq!(counts.period_boundaries, 0);
        assert_eq!(
            report.engine.events_processed,
            counts.access_runs
                + counts.misses
                + counts.disk_requests
                + counts.syncs
                + counts.warmup_ends
                + counts.period_boundaries
        );
        assert_eq!(report.engine.events_processed, counts.total());
        assert!(report.engine.replay_wall_secs > 0.0);
        assert!(report.engine.accesses_per_sec > 0.0);
        // One trailing partial-period row in the event log.
        assert_eq!(report.engine.period_log.len(), 1);
        assert_eq!(report.engine.period_log[0].end, 400.0);
    }

    #[test]
    fn dispatches_stay_within_two_per_record() {
        // A cache larger than the data set: after the cold misses nearly
        // every record is one hit run, however many pages it spans.
        let mut config = SimConfig::with_mem(MemConfig {
            bank_pages: 64,
            total_banks: 32,
            initial_banks: 32,
            ..mem_config(8)
        });
        config.sync_interval_secs = 30.0;
        let trace = jpmd_trace::WorkloadBuilder::new()
            .data_set_bytes(1 << 30)
            .rate_bytes_per_sec(8 << 20)
            .popularity(0.1)
            .write_fraction(0.1)
            .duration_secs(3600.0)
            .seed(5)
            .build()
            .expect("workload generation");
        let report = run_simulation(
            &config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &trace,
            3600.0,
            "dispatch",
        );
        let engine = &report.engine;
        assert!(
            engine.counts.accesses >= 4 * engine.records_pulled,
            "records must span several pages: {} pages over {} records",
            engine.counts.accesses,
            engine.records_pulled
        );
        assert!(
            engine.events_processed <= 2 * engine.records_pulled,
            "{} events for {} records",
            engine.events_processed,
            engine.records_pulled
        );
    }

    #[test]
    fn always_on_energy_matches_hand_calculation() {
        let config = SimConfig::with_mem(mem_config(8));
        let report = run_simulation(
            &config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &small_trace(),
            400.0,
            "test",
        );
        // Disk: idle 7.5 W for (400 - busy) plus active 12.5 × busy.
        let busy = report.utilization * 400.0;
        let expect_disk = 7.5 * (400.0 - busy) + 12.5 * busy;
        assert!(
            (report.energy.disk.total_j() - expect_disk).abs() < 1e-6,
            "disk {} vs {expect_disk}",
            report.energy.disk.total_j()
        );
        // Memory static: 8 banks × 4 MiB × 0.65625 mW/MB × 400 s.
        let expect_mem_static = 8.0 * 4.0 * 0.65625e-3 * 400.0;
        assert!((report.energy.mem.static_j - expect_mem_static).abs() < 1e-6);
    }

    #[test]
    fn spindown_saves_energy_on_long_gaps() {
        let config = SimConfig::with_mem(mem_config(8));
        let on = run_simulation(
            &config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &small_trace(),
            400.0,
            "on",
        );
        let two_t = run_simulation(
            &config,
            SpinDownPolicy::two_competitive(&config.disk_power),
            &mut NullController,
            &small_trace(),
            400.0,
            "2t",
        );
        assert!(two_t.spin_downs >= 1);
        assert!(two_t.energy.disk.total_j() < on.energy.disk.total_j());
        // The request at t = 300 wakes the disk: long latency.
        assert!(two_t.long_latency_count >= 1);
        assert_eq!(on.long_latency_count, 0);
    }

    #[test]
    fn period_rows_cover_run() {
        let config = SimConfig::with_mem(mem_config(8));
        let report = run_simulation(
            &config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &small_trace(),
            1800.0,
            "test",
        );
        assert_eq!(report.periods.len(), 3);
        assert_eq!(report.periods[0].observation.start, 0.0);
        assert_eq!(report.periods[0].observation.end, 600.0);
        assert_eq!(report.periods[2].observation.end, 1800.0);
        assert_eq!(report.periods[0].observation.cache_accesses, 10);
        assert_eq!(report.periods[1].observation.cache_accesses, 0);
    }

    #[test]
    fn warmup_excludes_early_activity() {
        let mut config = SimConfig::with_mem(mem_config(8));
        config.warmup_secs = 100.0;
        let report = run_simulation(
            &config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &small_trace(),
            400.0,
            "test",
        );
        // Only the t = 300 record (2 pages) is inside the window.
        assert_eq!(report.cache_accesses, 2);
        assert_eq!(report.duration_secs, 300.0);
        // Energy excludes the first 100 s: disk total < 7.5 × 400.
        assert!(report.energy.disk.total_j() < 7.5 * 310.0);
    }

    #[test]
    fn smaller_memory_causes_more_disk_accesses() {
        // 12 distinct pages cycled twice; 8-page cache (2 banks) thrashes,
        // 32-page cache (8 banks) hits on the second round.
        let mut records = Vec::new();
        for round in 0..2 {
            for i in 0..12u64 {
                records.push(record(round as f64 * 50.0 + i as f64, i, 1));
            }
        }
        let trace = Trace::new(records, 1 << 20, 64);
        let big = run_simulation(
            &SimConfig::with_mem(mem_config(8)),
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &trace,
            200.0,
            "big",
        );
        let small = run_simulation(
            &SimConfig::with_mem(mem_config(2)),
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &trace,
            200.0,
            "small",
        );
        assert_eq!(big.disk_page_accesses, 12);
        assert!(small.disk_page_accesses > big.disk_page_accesses);
        // Smaller memory spends less memory energy…
        assert!(small.energy.mem.static_j < big.energy.mem.static_j);
        // …but more disk (active) energy.
        assert!(small.energy.disk.active_j > big.energy.disk.active_j);
    }

    #[test]
    #[should_panic(expected = "page size")]
    fn mismatched_page_size_panics() {
        let config = SimConfig::with_mem(mem_config(8));
        let trace = Trace::new(vec![record(0.0, 0, 1)], 4096, 64);
        run_simulation(
            &config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &trace,
            10.0,
            "bad",
        );
    }

    fn write_record(time: f64, first_page: u64, pages: u64) -> TraceRecord {
        TraceRecord {
            kind: jpmd_trace::AccessKind::Write,
            ..record(time, first_page, pages)
        }
    }

    #[test]
    fn write_misses_defer_disk_traffic() {
        // Pure writes with the flush daemon disabled: write-allocate means
        // no disk traffic at all (everything stays dirty in memory).
        let config = SimConfig::with_mem(mem_config(8));
        let trace = Trace::new(
            vec![write_record(1.0, 0, 4), write_record(2.0, 8, 4)],
            1 << 20,
            64,
        );
        let r = run_simulation(
            &config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &trace,
            100.0,
            "writes",
        );
        assert_eq!(r.cache_accesses, 8);
        assert_eq!(r.disk_page_accesses, 0, "write-back defers everything");
        assert_eq!(r.disk_requests, 0);
    }

    #[test]
    fn sync_daemon_flushes_dirty_pages() {
        let mut config = SimConfig::with_mem(mem_config(8));
        config.sync_interval_secs = 30.0;
        let trace = Trace::new(vec![write_record(1.0, 0, 4)], 1 << 20, 64);
        let r = run_simulation(
            &config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &trace,
            100.0,
            "sync",
        );
        // The 4 dirty pages reach the disk at the t = 30 sync as one
        // coalesced write request.
        assert_eq!(r.disk_page_accesses, 4);
        assert_eq!(r.disk_requests, 1);
        // User-visible latency is untouched by background flushes.
        assert_eq!(r.long_latency_count, 0);
        assert_eq!(r.mean_latency_secs, 0.0);
        // Sync ticks are visible in the engine counters (t = 30, 60, 90).
        assert_eq!(r.engine.counts.syncs, 3);
    }

    #[test]
    fn frequent_sync_reduces_spin_downs() {
        // A write every 200 s: with a 20 s sync the disk is poked every
        // sync tick after each write (then goes quiet until the next
        // write); with sync disabled the disk sleeps through everything.
        let mut records = Vec::new();
        for i in 0..10u64 {
            records.push(write_record(10.0 + 200.0 * i as f64, i * 4, 2));
        }
        let trace = Trace::new(records, 1 << 20, 64);
        let run_with = |sync: f64| {
            let mut config = SimConfig::with_mem(mem_config(8));
            config.sync_interval_secs = sync;
            run_simulation(
                &config,
                SpinDownPolicy::two_competitive(&config.disk_power),
                &mut NullController,
                &trace,
                2100.0,
                "sync-sweep",
            )
        };
        let frequent = run_with(20.0);
        let never = run_with(f64::INFINITY);
        assert_eq!(never.disk_page_accesses, 0);
        assert!(frequent.disk_page_accesses > 0);
        assert!(
            frequent.energy.disk.total_j() > never.energy.disk.total_j(),
            "flush traffic must cost disk energy ({} vs {})",
            frequent.energy.disk.total_j(),
            never.energy.disk.total_j()
        );
    }

    #[test]
    fn pathological_simultaneous_arrivals() {
        // Every record at t = 0, overlapping pages: the queue absorbs the
        // burst, accounting stays consistent.
        let config = SimConfig::with_mem(mem_config(2));
        let records = (0..20u64).map(|i| record(0.0, i % 8, 3)).collect();
        let trace = Trace::new(records, 1 << 20, 64);
        let r = run_simulation(
            &config,
            SpinDownPolicy::two_competitive(&config.disk_power),
            &mut NullController,
            &trace,
            600.0,
            "burst",
        );
        assert_eq!(r.cache_accesses, 60);
        assert_eq!(r.hits + r.disk_page_accesses, r.cache_accesses);
        assert!(r.energy.total_j().is_finite());
        assert!(r.max_latency_secs >= r.request_latency_p50_secs);
    }

    #[test]
    fn pathological_whole_data_set_record() {
        // One record spanning the entire page space, larger than the cache.
        let config = SimConfig::with_mem(mem_config(2)); // 8-page cache
        let trace = Trace::new(vec![record(1.0, 0, 64)], 1 << 20, 64);
        let r = run_simulation(
            &config,
            SpinDownPolicy::AlwaysOn,
            &mut NullController,
            &trace,
            100.0,
            "huge",
        );
        assert_eq!(r.cache_accesses, 64);
        assert_eq!(r.disk_page_accesses, 64);
        // The misses coalesce into a single contiguous disk request.
        assert_eq!(r.disk_requests, 1);
    }

    #[test]
    fn empty_trace_still_accounts_static_energy() {
        let config = SimConfig::with_mem(mem_config(8));
        let trace = Trace::new(vec![], 1 << 20, 64);
        let r = run_simulation(
            &config,
            SpinDownPolicy::two_competitive(&config.disk_power),
            &mut NullController,
            &trace,
            1200.0,
            "empty",
        );
        assert_eq!(r.cache_accesses, 0);
        // Disk idles then spins down once; memory naps throughout.
        assert_eq!(r.spin_downs, 1);
        assert!(r.energy.mem.static_j > 0.0);
        assert_eq!(r.mean_latency_secs, 0.0);
    }

    #[test]
    fn controller_actions_are_applied() {
        struct Shrinker;
        impl PeriodController for Shrinker {
            fn on_period_end(
                &mut self,
                obs: &PeriodObservation,
                _: &jpmd_mem::AccessLog,
            ) -> ControlAction {
                ControlAction {
                    enabled_banks: Some(obs.enabled_banks.saturating_sub(1).max(1)),
                    disk_timeout: Some(5.0),
                }
            }
            fn name(&self) -> &str {
                "shrinker"
            }
        }
        let config = SimConfig::with_mem(mem_config(8));
        let report = run_simulation(
            &config,
            SpinDownPolicy::controlled(f64::INFINITY),
            &mut Shrinker,
            &small_trace(),
            1800.0,
            "shrink",
        );
        assert_eq!(report.periods[0].action.enabled_banks, Some(7));
        assert_eq!(report.periods[1].observation.enabled_banks, 7);
        assert_eq!(report.periods[1].action.enabled_banks, Some(6));
        assert_eq!(report.periods[0].observation.disk_timeout, f64::INFINITY);
        assert_eq!(report.periods[1].observation.disk_timeout, 5.0);
    }
}

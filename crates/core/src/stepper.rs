//! Incremental policy stepping: the simulator's period loop turned
//! inside-out.
//!
//! [`PolicyStepper`] owns the full standard simulation stack — hardware,
//! engine, warm-up window, period accounting (wrapping the controller),
//! flush daemon, latency tracker, energy meter, telemetry observer — but
//! instead of pulling records from a [`TraceSource`](jpmd_trace::TraceSource)
//! it is **fed** one record at a time ([`PolicyStepper::feed`]). A caller
//! polls [`PolicyStepper::poll_rows`] after each record for freshly closed
//! control periods (and the control actions the policy took), queries the
//! live operating point (banks, timeout, energy) between records, captures
//! crash-consistent checkpoints on demand ([`PolicyStepper::checkpoint`]),
//! and closes the run with [`PolicyStepper::finish`].
//!
//! The construction mirrors
//! [`run_method_checkpointed`](crate::methods::run_method_checkpointed)
//! field for field, and the per-record step *is* the batch loop's step
//! ([`Engine::step_record`]) — so feeding a stepper the records of a trace
//! produces a [`RunReport`] bit-identical to the batch replay of the same
//! trace. The `stepper_matches_batch_*` tests assert this for the static
//! and joint methods; the `jpmd-serve` daemon builds its per-tenant policy
//! state on this type.

use std::time::Instant;

use jpmd_disk::SpinDownPolicy;
use jpmd_obs::{ObsEvent, SpanGuard, SpanRecorder, Telemetry};
use jpmd_sim::{
    EnergyMeter, Engine, FlushDaemon, HwState, LatencyTracker, NullController, PeriodAccounting,
    PeriodController, PeriodRow, RunReport, SimCheckpoint, SimConfig, SimObserver,
    TelemetryObserver, TimedController, WarmupWindow,
};
use jpmd_trace::{SourceError, TraceRecord};

use crate::methods::MethodSpec;
use crate::{JointPolicy, SimScale};

/// What [`PolicyStepper::feed`] did with a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedOutcome {
    /// The record entered the replay (it may still have been dropped or
    /// clamped by the engine's sanitization; see
    /// [`EngineStats`](jpmd_sim::EngineStats)).
    Replayed,
    /// The record was discarded as part of a resumed run's already-consumed
    /// prefix (the stream must be replayed from its start after a resume).
    Skipped,
    /// The record's timestamp is at or past the configured duration; the
    /// run is over and further feeds are ignored. Call
    /// [`PolicyStepper::finish`].
    Finished,
}

/// Wraps a checkpoint-restore decode failure as a [`SourceError`], exactly
/// like the batch entry point does.
fn restore_error(e: serde::Error) -> SourceError {
    SourceError::new(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("checkpoint restore failed: {e}"),
    ))
}

/// Builds the observer slice in the load-bearing registration order (the
/// same order `run_simulation_full` uses, which checkpoint images rely on).
macro_rules! observer_stack {
    ($self:ident, $obs:ident) => {
        let mut $obs: Vec<&mut dyn SimObserver> = vec![
            &mut $self.warmup,
            &mut $self.periods,
            &mut $self.flush,
            &mut $self.latency,
            &mut $self.energy,
        ];
        if let Some(telemetry_observer) = $self.telemetry_observer.as_mut() {
            $obs.push(telemetry_observer);
        }
    };
}

/// The incremental twin of `run_simulation_full`: one tenant's (or one
/// run's) complete policy state, advanced record by record. See the
/// [module docs](self).
pub struct PolicyStepper<C: PeriodController> {
    config: SimConfig,
    duration: f64,
    label: String,
    telemetry: Telemetry,
    spans: SpanRecorder,
    started: Instant,
    replay_span: Option<SpanGuard>,
    hw: HwState,
    engine: Engine,
    warmup: WarmupWindow,
    periods: PeriodAccounting<TimedController<C>>,
    flush: FlushDaemon,
    latency: LatencyTracker,
    energy: EnergyMeter,
    telemetry_observer: Option<TelemetryObserver>,
    discard_remaining: u64,
    delivered_rows: usize,
    live: bool,
}

impl<C: PeriodController> PolicyStepper<C> {
    /// A stepper over `config` with an owned `controller`, for a page
    /// space of `total_pages` and a run of `duration_secs` (stream time).
    ///
    /// `resume` continues an interrupted run from its checkpoint: the
    /// hardware, every observer, the controller (through the period
    /// accounting's image), the engine counters, and the telemetry
    /// sequence are restored, and the next
    /// [`EngineStats::records_pulled`](jpmd_sim::EngineStats::records_pulled)
    /// feeds are discarded so the caller can simply replay the stream from
    /// its start.
    ///
    /// # Errors
    ///
    /// Fails when a resume checkpoint was captured from another label or
    /// duration, or its images do not decode against this stack (wrapped
    /// as a [`SourceError`], like the batch entry point).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `duration_secs` does not
    /// exceed the warm-up.
    #[allow(clippy::too_many_arguments)] // mirrors run_simulation_full
    pub fn new(
        config: SimConfig,
        spindown: SpinDownPolicy,
        controller: C,
        total_pages: u64,
        duration_secs: f64,
        label: &str,
        telemetry: &Telemetry,
        resume: Option<&SimCheckpoint>,
    ) -> Result<Self, SourceError> {
        config.validate();
        assert!(
            duration_secs > config.warmup_secs,
            "duration must exceed the warm-up window"
        );
        if let Some(ckpt) = resume {
            ckpt.check_resumes(label, duration_secs)?;
        }

        let spans = SpanRecorder::new();
        if let Some(ckpt) = resume {
            telemetry.set_seq(ckpt.telemetry_seq);
            spans.seed_calls(&ckpt.span_calls);
        } else {
            telemetry.emit_with(|| ObsEvent::RunStart {
                label: label.to_string(),
                duration_s: duration_secs,
            });
        }

        let hw = HwState::new(&config, spindown, total_pages.max(1));
        let timed = TimedController::new(controller, spans.clone(), telemetry.clone());
        let warmup = WarmupWindow::new(config.warmup_secs);
        let periods = PeriodAccounting::new(
            timed,
            config.period_secs,
            config.aggregation_window_secs,
            config.long_latency_secs,
        );
        let flush = FlushDaemon::new(config.sync_interval_secs);
        let latency = LatencyTracker::new(config.warmup_secs, config.long_latency_secs);
        let energy = EnergyMeter::new();
        let telemetry_observer = telemetry
            .is_enabled()
            .then(|| TelemetryObserver::new(telemetry));

        let mut stepper = PolicyStepper {
            config,
            duration: duration_secs,
            label: label.to_string(),
            telemetry: telemetry.clone(),
            replay_span: Some(spans.time_with("engine.replay", telemetry)),
            spans,
            started: Instant::now(),
            hw,
            engine: Engine::with_metrics(telemetry.registry()),
            warmup,
            periods,
            flush,
            latency,
            energy,
            telemetry_observer,
            discard_remaining: 0,
            delivered_rows: 0,
            live: true,
        };
        if let Some(ckpt) = resume {
            stepper
                .hw
                .restore_state(&ckpt.engine.hw)
                .map_err(restore_error)?;
            {
                observer_stack!(stepper, obs);
                if ckpt.engine.observers.len() != obs.len() {
                    return Err(restore_error(serde::Error::custom(format!(
                        "checkpoint holds {} observer images but this stepper registers {} \
                         observers (was telemetry toggled between capture and resume?)",
                        ckpt.engine.observers.len(),
                        obs.len()
                    ))));
                }
                for (observer, state) in obs.iter_mut().zip(&ckpt.engine.observers) {
                    observer.restore_state(state).map_err(restore_error)?;
                }
            }
            stepper.engine.restore(&ckpt.engine);
            stepper.discard_remaining = ckpt.engine.stats.records_pulled;
            stepper.delivered_rows = stepper.periods.rows().len();
        }
        Ok(stepper)
    }

    /// Feeds one record: fires due timers (period rollovers, warm-up end,
    /// sync ticks) and replays its accesses. Returns what happened; after
    /// [`FeedOutcome::Finished`] further feeds are no-ops.
    pub fn feed(&mut self, record: TraceRecord) -> FeedOutcome {
        if !self.live {
            return FeedOutcome::Finished;
        }
        if self.discard_remaining > 0 {
            self.discard_remaining -= 1;
            return FeedOutcome::Skipped;
        }
        observer_stack!(self, obs);
        if self
            .engine
            .step_record(record, self.duration, &mut self.hw, &mut obs)
        {
            FeedOutcome::Replayed
        } else {
            self.live = false;
            FeedOutcome::Finished
        }
    }

    /// Period rows closed since the last poll (observation + the control
    /// action the policy took) — empty when no boundary rolled over.
    pub fn poll_rows(&mut self) -> &[PeriodRow] {
        let start = self.delivered_rows;
        self.delivered_rows = self.periods.rows().len();
        &self.periods.rows()[start..]
    }

    /// All period rows closed so far.
    pub fn rows(&self) -> &[PeriodRow] {
        self.periods.rows()
    }

    /// Whether the stepper still accepts records (false once a fed record
    /// reached the configured duration).
    pub fn is_live(&self) -> bool {
        self.live
    }

    /// The replay clock: timestamp of the last fed record, s.
    pub fn sim_time(&self) -> f64 {
        self.engine.last_time()
    }

    /// Source pulls consumed so far (the resume cursor: a restarted stream
    /// replays from its start and the stepper discards exactly this many).
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

    /// The page size the stepper simulates, bytes.
    pub fn page_bytes(&self) -> u64 {
        self.config.mem.page_bytes
    }

    /// The run's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The controller driving the period decisions.
    pub fn controller(&self) -> &C {
        self.periods.controller().inner()
    }

    /// The controller, mutably.
    pub fn controller_mut(&mut self) -> &mut C {
        self.periods.controller_mut().inner_mut()
    }

    /// Captures a crash-consistent checkpoint of the whole stack at the
    /// replay clock's current instant — the same [`SimCheckpoint`] the
    /// batch entry point hands its checkpoint callback, resumable by
    /// either driver.
    pub fn checkpoint(&mut self) -> SimCheckpoint {
        observer_stack!(self, obs);
        let engine = self.engine.capture_now(&self.hw, &obs);
        SimCheckpoint {
            label: self.label.clone(),
            duration: self.duration,
            telemetry_seq: self.telemetry.seq(),
            span_calls: self.spans.call_counts(),
            engine,
        }
    }

    /// Closes out the run: fires all timers due by the configured
    /// duration, settles the hardware, finalizes latency and energy over
    /// the measured window, emits `RunEnd`, closes the telemetry handle,
    /// and returns the report — bit-identical to the batch replay of the
    /// same record sequence.
    pub fn finish(mut self) -> RunReport {
        let wall = self.started.elapsed().as_secs_f64();
        let stats = {
            observer_stack!(self, obs);
            let engine = std::mem::take(&mut self.engine);
            engine.finish(self.duration, &mut self.hw, &mut obs, wall)
        };
        drop(self.replay_span.take());
        let window = self.duration - self.config.warmup_secs;
        let (traffic, lat) = {
            let _finalize = self.spans.time_with("report.finalize", &self.telemetry);
            (
                self.energy.finalize(&self.hw, window),
                self.latency.finalize(),
            )
        };
        let report = RunReport {
            label: self.label.clone(),
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
            periods: self.periods.into_rows(),
            engine: stats,
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
}

impl PolicyStepper<Box<dyn PeriodController>> {
    /// A stepper running one of the paper's named methods, with the exact
    /// wiring of [`run_method_checkpointed`](crate::methods::run_method_checkpointed):
    /// the joint method gets a [`JointPolicy`] built from the spec's
    /// configuration at `period_secs`, every other method a
    /// [`NullController`].
    ///
    /// # Errors
    ///
    /// Fails on an invalid joint configuration or a checkpoint that does
    /// not restore.
    #[allow(clippy::too_many_arguments)] // mirrors run_method_checkpointed
    pub fn for_method(
        spec: &MethodSpec,
        scale: &SimScale,
        total_pages: u64,
        warmup_secs: f64,
        duration_secs: f64,
        period_secs: f64,
        telemetry: &Telemetry,
        resume: Option<&SimCheckpoint>,
    ) -> Result<Self, SourceError> {
        let mut sim = scale.sim_config(spec.mem_policy, spec.initial_banks);
        sim.warmup_secs = warmup_secs;
        sim.period_secs = period_secs;
        sim.replacement = spec.replacement;
        sim.consolidate = spec.consolidate;
        let controller: Box<dyn PeriodController> = match &spec.joint {
            Some(joint_cfg) => {
                let mut cfg = *joint_cfg;
                cfg.period_secs = period_secs;
                Box::new(
                    JointPolicy::try_with_telemetry(cfg, telemetry.clone())
                        .map_err(SourceError::new)?,
                )
            }
            None => Box::new(NullController),
        };
        PolicyStepper::new(
            sim,
            spec.spindown.clone(),
            controller,
            total_pages,
            duration_secs,
            &spec.label,
            telemetry,
            resume,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{self, MethodSpec};
    use jpmd_trace::{Trace, TraceSource, WorkloadBuilder, GIB, MIB};

    fn workload(seed: u64) -> Trace {
        WorkloadBuilder::new()
            .data_set_bytes(GIB / 2)
            .rate_bytes_per_sec(4 * MIB)
            .duration_secs(1800.0)
            .seed(seed)
            .build()
            .expect("workload")
    }

    fn run_stepper(
        spec: &MethodSpec,
        scale: &SimScale,
        trace: &Trace,
        duration: f64,
        period: f64,
    ) -> RunReport {
        let mut stepper = PolicyStepper::for_method(
            spec,
            scale,
            trace.total_pages(),
            0.0,
            duration,
            period,
            &Telemetry::disabled(),
            None,
        )
        .expect("stepper");
        let mut source = trace.source();
        let mut decisions = 0usize;
        while let Some(next) = source.next_record() {
            let record = next.expect("in-memory sources cannot fail");
            if stepper.feed(record) == FeedOutcome::Finished {
                break;
            }
            decisions += stepper.poll_rows().len();
        }
        assert_eq!(decisions, stepper.rows().len());
        stepper.finish()
    }

    #[test]
    fn stepper_matches_batch_always_on() {
        let scale = SimScale::small_test();
        let trace = workload(11);
        let spec = methods::always_on(&scale);
        let batch = methods::run_method(&spec, &scale, &trace, 0.0, 1800.0, 300.0);
        let stepped = run_stepper(&spec, &scale, &trace, 1800.0, 300.0);
        assert_eq!(stepped, batch);
    }

    #[test]
    fn stepper_matches_batch_joint() {
        let scale = SimScale::small_test();
        let trace = workload(7);
        let spec = methods::joint(&scale);
        let batch = methods::run_method(&spec, &scale, &trace, 0.0, 1800.0, 300.0);
        let stepped = run_stepper(&spec, &scale, &trace, 1800.0, 300.0);
        assert_eq!(stepped, batch);
        // The joint policy actually acted somewhere in the run.
        assert!(stepped
            .periods
            .iter()
            .any(|p| p.action.enabled_banks.is_some()));
    }

    #[test]
    fn queries_track_the_live_operating_point() {
        let scale = SimScale::small_test();
        let trace = workload(5);
        let spec = methods::joint(&scale);
        let mut stepper = PolicyStepper::for_method(
            &spec,
            &scale,
            trace.total_pages(),
            0.0,
            1800.0,
            300.0,
            &Telemetry::disabled(),
            None,
        )
        .expect("stepper");
        let mut source = trace.source();
        while let Some(next) = source.next_record() {
            if stepper.feed(next.expect("infallible")) == FeedOutcome::Finished {
                break;
            }
        }
        assert!(stepper.enabled_banks() >= 1);
        assert!(stepper.enabled_banks() <= stepper.total_banks());
        assert!(stepper.disk_timeout() > 0.0);
        assert!(stepper.energy_so_far_j() > 0.0);
        assert!(stepper.sim_time() > 0.0);
        assert!(stepper.records_pulled() > 0);
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted() {
        let scale = SimScale::small_test();
        let trace = workload(13);
        let spec = methods::joint(&scale);
        let uninterrupted = run_stepper(&spec, &scale, &trace, 1800.0, 300.0);

        // Feed half the stream, checkpoint, abandon the stepper.
        let records: Vec<TraceRecord> = {
            let mut source = trace.source();
            let mut out = Vec::new();
            while let Some(next) = source.next_record() {
                out.push(next.expect("infallible"));
            }
            out
        };
        let mut first = PolicyStepper::for_method(
            &spec,
            &scale,
            trace.total_pages(),
            0.0,
            1800.0,
            300.0,
            &Telemetry::disabled(),
            None,
        )
        .expect("stepper");
        for record in &records[..records.len() / 2] {
            assert_ne!(first.feed(*record), FeedOutcome::Finished);
        }
        let ckpt = first.checkpoint();
        drop(first);

        // Resume and replay the whole stream; the prefix is discarded.
        let mut resumed = PolicyStepper::for_method(
            &spec,
            &scale,
            trace.total_pages(),
            0.0,
            1800.0,
            300.0,
            &Telemetry::disabled(),
            Some(&ckpt),
        )
        .expect("resumed stepper");
        let mut skipped = 0u64;
        for record in &records {
            match resumed.feed(*record) {
                FeedOutcome::Skipped => skipped += 1,
                FeedOutcome::Finished => break,
                FeedOutcome::Replayed => {}
            }
        }
        assert_eq!(skipped, ckpt.engine.stats.records_pulled);
        assert_eq!(resumed.finish(), uninterrupted);

        // The checkpoint resumes only its own run: another label or
        // duration is a typed error, not a panic.
        let mut other = spec.clone();
        other.label = "another-method".into();
        for (spec, duration) in [(&other, 1800.0), (&spec, 3600.0)] {
            let resumed = PolicyStepper::for_method(
                spec,
                &scale,
                trace.total_pages(),
                0.0,
                duration,
                300.0,
                &Telemetry::disabled(),
                Some(&ckpt),
            );
            assert!(resumed.is_err(), "{} / {duration} s resumed", spec.label);
        }
    }
}

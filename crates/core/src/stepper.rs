//! Incremental policy stepping: the simulator's period loop turned
//! inside-out.
//!
//! [`PolicyStepper`] is a [`Replay`] — the workspace's single replay stack
//! — fed one record at a time ([`Replay::feed`]) instead of driven over a
//! [`TraceSource`](jpmd_trace::TraceSource), plus a cursor for
//! [`PolicyStepper::poll_rows`], which hands out freshly closed control
//! periods (and the actions the policy took). Between records a caller
//! queries the live operating point through the replay (banks, timeout,
//! energy), captures crash-consistent checkpoints on demand
//! ([`Replay::checkpoint`]), and closes the run with
//! [`PolicyStepper::finish`].
//!
//! The per-record step *is* the batch loop's step, so feeding a stepper
//! the records of a trace produces a [`RunReport`] bit-identical to the
//! batch replay, and a checkpoint captured by either driver resumes under
//! the other (the `stepper_matches_batch_*` and
//! `checkpoints_resume_under_either_driver` tests). The `jpmd-serve`
//! daemon builds its per-tenant policy state on this type.

use std::ops::{Deref, DerefMut};

use jpmd_disk::SpinDownPolicy;
use jpmd_obs::Telemetry;
pub use jpmd_sim::FeedOutcome;
use jpmd_sim::{PeriodController, PeriodRow, Replay, RunReport, SimCheckpoint, SimConfig};
use jpmd_trace::SourceError;

use crate::methods::{self, MethodSpec};
use crate::SimScale;

/// One tenant's (or one run's) complete policy state, advanced record by
/// record; it dereferences to its [`Replay`]. See the [module docs](self).
pub struct PolicyStepper<C: PeriodController> {
    replay: Replay<C>,
    delivered_rows: usize,
}

impl<C: PeriodController> PolicyStepper<C> {
    /// A stepper over `config` with an owned `controller`, for a page
    /// space of `total_pages` and a run of `duration_secs` (stream time).
    /// `resume` continues an interrupted run as [`Replay::new`] describes:
    /// the caller replays the stream from its start and the consumed
    /// prefix is skipped.
    ///
    /// # Errors
    ///
    /// Fails when a resume checkpoint was captured from another label or
    /// duration, or its images do not decode against this stack.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `duration_secs` does not
    /// exceed the warm-up.
    #[allow(clippy::too_many_arguments)]
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
        Replay::new(
            &config,
            spindown,
            controller,
            total_pages,
            duration_secs,
            label,
            telemetry,
            None,
            resume,
        )
        .map(Self::from)
    }

    /// Period rows closed since the last poll (observation + the control
    /// action the policy took) — empty when no boundary rolled over.
    pub fn poll_rows(&mut self) -> &[PeriodRow] {
        let start = self.delivered_rows;
        self.delivered_rows = self.replay.rows().len();
        &self.replay.rows()[start..]
    }

    /// Closes out the run ([`Replay::finish`]) and returns the report —
    /// bit-identical to the batch replay of the same record sequence.
    pub fn finish(self) -> RunReport {
        self.replay.finish()
    }
}

impl<C: PeriodController> From<Replay<C>> for PolicyStepper<C> {
    /// Steps `replay`; rows it already holds (a resumed run's) count as
    /// delivered.
    fn from(replay: Replay<C>) -> Self {
        let delivered_rows = replay.rows().len();
        PolicyStepper {
            replay,
            delivered_rows,
        }
    }
}

impl<C: PeriodController> Deref for PolicyStepper<C> {
    type Target = Replay<C>;

    fn deref(&self) -> &Replay<C> {
        &self.replay
    }
}

impl<C: PeriodController> DerefMut for PolicyStepper<C> {
    fn deref_mut(&mut self) -> &mut Replay<C> {
        &mut self.replay
    }
}

impl PolicyStepper<Box<dyn PeriodController>> {
    /// A stepper running one of the paper's named methods, with the one
    /// method wiring ([`methods::replay`]).
    ///
    /// # Errors
    ///
    /// Fails on an invalid joint configuration or a checkpoint that does
    /// not restore.
    #[allow(clippy::too_many_arguments)]
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
        methods::replay(
            spec,
            scale,
            total_pages,
            warmup_secs,
            duration_secs,
            period_secs,
            telemetry,
            resume,
        )
        .map(Self::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{self, DiskPolicyKind, MethodSpec};
    use crate::JointPolicy;
    use jpmd_obs::{MemorySink, ObsRecord};
    use jpmd_sim::{CheckpointOptions, CheckpointPolicy, NullController, SimOutcome};
    use jpmd_trace::{Trace, TraceRecord, TraceSource, WorkloadBuilder, GIB, MIB};

    fn workload(seed: u64, write_fraction: f64) -> Trace {
        WorkloadBuilder::new()
            .data_set_bytes(GIB / 2)
            .rate_bytes_per_sec(4 * MIB)
            .duration_secs(1800.0)
            .write_fraction(write_fraction)
            .seed(seed)
            .build()
            .expect("workload")
    }

    /// `spec` over `trace` at the small test scale: no warm-up, 300 s
    /// periods, telemetry off.
    fn replay(
        spec: &MethodSpec,
        trace: &Trace,
        duration: f64,
        resume: Option<&SimCheckpoint>,
    ) -> Result<Replay<Box<dyn PeriodController>>, SourceError> {
        let scale = SimScale::small_test();
        let pages = trace.total_pages();
        let telemetry = Telemetry::disabled();
        methods::replay(
            spec, &scale, pages, 0.0, duration, 300.0, &telemetry, resume,
        )
    }

    /// Feeds every record of `trace` to `stepper`, polling the closed rows
    /// as it goes.
    fn feed_all<C: PeriodController>(stepper: &mut PolicyStepper<C>, trace: &Trace) {
        let mut source = trace.source();
        let mut decisions = stepper.rows().len();
        while let Some(next) = source.next_record() {
            let record = next.expect("in-memory sources cannot fail");
            if stepper.feed(record) == FeedOutcome::Finished {
                break;
            }
            decisions += stepper.poll_rows().len();
        }
        assert_eq!(decisions, stepper.rows().len());
    }

    fn run_stepper(spec: &MethodSpec, scale: &SimScale, trace: &Trace) -> RunReport {
        let telemetry = Telemetry::disabled();
        let pages = trace.total_pages();
        let mut stepper =
            PolicyStepper::for_method(spec, scale, pages, 0.0, 1800.0, 300.0, &telemetry, None)
                .expect("stepper");
        feed_all(&mut stepper, trace);
        stepper.finish()
    }

    /// Parity inputs past the silent, read-only, warm-up-free run:
    /// `(warm-up s, writes, telemetry)`. With writes a fifth of the
    /// records write, under a 30 s dirty-page sync.
    const WIDER: [(f64, bool, bool); 3] = [
        (600.0, false, false),
        (0.0, true, false),
        (300.0, true, true),
    ];

    /// Replays `spec` over the `seed` workload with `inputs` under both
    /// drivers, asserts equal reports and equal normalized event streams,
    /// and returns the report.
    fn assert_parity(spec: &MethodSpec, seed: u64, inputs: (f64, bool, bool)) -> RunReport {
        let (warmup, writes, telemetry_on) = inputs;
        let trace = workload(seed, if writes { 0.2 } else { 0.0 });
        let run = |stepped: bool| {
            let sink = MemorySink::new();
            let telemetry = if telemetry_on {
                Telemetry::new(Box::new(sink.clone()))
            } else {
                Telemetry::disabled()
            };
            let mut sim = methods::sim_config_for(spec, &SimScale::small_test());
            sim.warmup_secs = warmup;
            sim.period_secs = 300.0;
            if writes {
                sim.sync_interval_secs = 30.0;
            }
            let controller: Box<dyn PeriodController> = match spec.joint {
                Some(mut cfg) => {
                    cfg.period_secs = 300.0;
                    let policy = JointPolicy::try_with_telemetry(cfg, telemetry.clone());
                    Box::new(policy.expect("valid config"))
                }
                None => Box::new(NullController),
            };
            let (pages, label) = (trace.total_pages(), spec.label.as_str());
            let spindown = spec.spindown.clone();
            let report = if stepped {
                let mut stepper = PolicyStepper::new(
                    sim, spindown, controller, pages, 1800.0, label, &telemetry, None,
                )
                .expect("stepper");
                feed_all(&mut stepper, &trace);
                stepper.finish()
            } else {
                Replay::new(
                    &sim, spindown, controller, pages, 1800.0, label, &telemetry, None, None,
                )
                .and_then(|replay| replay.run(trace.source()))
                .expect("in-memory trace source")
            };
            let records = sink.records();
            let events: Vec<String> = records.iter().map(ObsRecord::normalized_line).collect();
            (report, events)
        };
        let (batch, batch_events) = run(false);
        let (stepped, stepped_events) = run(true);
        assert_eq!(stepped, batch, "{}", spec.label);
        assert_eq!(stepped_events, batch_events, "{}", spec.label);
        assert_eq!(stepped_events.is_empty(), !telemetry_on);
        assert_eq!(stepped.engine.counts.syncs > 0, writes, "{}", spec.label);
        stepped
    }

    #[test]
    fn stepper_matches_batch_always_on() {
        let scale = SimScale::small_test();
        let trace = workload(11, 0.0);
        let spec = methods::always_on(&scale);
        let batch = methods::run_method(&spec, &scale, &trace, 0.0, 1800.0, 300.0);
        let stepped = run_stepper(&spec, &scale, &trace);
        assert_eq!(stepped, batch);
        let disable = methods::disable(&scale, DiskPolicyKind::TwoCompetitive);
        for spec in [spec, disable] {
            for inputs in WIDER {
                assert_parity(&spec, 11, inputs);
            }
        }
    }

    #[test]
    fn stepper_matches_batch_joint() {
        let scale = SimScale::small_test();
        let trace = workload(7, 0.0);
        let spec = methods::joint(&scale);
        let batch = methods::run_method(&spec, &scale, &trace, 0.0, 1800.0, 300.0);
        let stepped = run_stepper(&spec, &scale, &trace);
        assert_eq!(stepped, batch);
        // The joint policy actually acted somewhere in every run.
        let acted = |report: &RunReport| {
            let mut actions = report.periods.iter().map(|p| p.action.enabled_banks);
            actions.any(|banks| banks.is_some())
        };
        assert!(acted(&stepped));
        for inputs in WIDER {
            assert!(acted(&assert_parity(&spec, 7, inputs)));
        }
    }

    #[test]
    fn queries_track_the_live_operating_point() {
        let scale = SimScale::small_test();
        let trace = workload(5, 0.0);
        let spec = methods::joint(&scale);
        let mut stepper = PolicyStepper::from(replay(&spec, &trace, 1800.0, None).expect("replay"));
        feed_all(&mut stepper, &trace);
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
        let trace = workload(13, 0.0);
        let spec = methods::joint(&scale);
        let uninterrupted = run_stepper(&spec, &scale, &trace);

        // Feed half the stream, checkpoint, abandon the stepper.
        let records: Vec<TraceRecord> = trace.records().to_vec();
        let mut first = PolicyStepper::from(replay(&spec, &trace, 1800.0, None).expect("replay"));
        for record in &records[..records.len() / 2] {
            assert_ne!(first.feed(*record), FeedOutcome::Finished);
        }
        let ckpt = first.checkpoint();
        drop(first);

        // Resume and replay the whole stream; the prefix is discarded.
        let resumed = replay(&spec, &trace, 1800.0, Some(&ckpt)).expect("resumed replay");
        let mut resumed = PolicyStepper::from(resumed);
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
            let resumed = replay(spec, &trace, duration, Some(&ckpt));
            assert!(resumed.is_err(), "{} / {duration} s resumed", spec.label);
        }
    }

    #[test]
    fn checkpoints_resume_under_either_driver() {
        let scale = SimScale::small_test();
        let trace = workload(13, 0.0);
        let spec = methods::joint(&scale);
        let build = |resume| replay(&spec, &trace, 1800.0, resume).expect("replay");
        let uninterrupted = build(None).run(trace.source()).expect("in-memory");

        // Captured in batch after two periods, resumed by feeding.
        let mut captured = Vec::new();
        let mut on_checkpoint = |ckpt: SimCheckpoint| {
            captured.push(ckpt);
            captured.len() < 2
        };
        let policy = CheckpointPolicy::every(1);
        let on_checkpoint = &mut on_checkpoint;
        let options = CheckpointOptions {
            policy,
            on_checkpoint,
        };
        let outcome = build(None).run_checkpointed(trace.source(), Some(options));
        assert_eq!(outcome.expect("in-memory"), SimOutcome::Interrupted);
        let ckpt = captured.pop().expect("two checkpoints");
        let mut fed = PolicyStepper::from(build(Some(&ckpt)));
        feed_all(&mut fed, &trace);
        assert_eq!(fed.finish(), uninterrupted);

        // Captured by a stepper mid-stream, resumed in batch.
        let mut stepper = PolicyStepper::from(build(None));
        for record in &trace.records()[..trace.records().len() / 2] {
            assert_ne!(stepper.feed(*record), FeedOutcome::Finished);
        }
        let ckpt = stepper.checkpoint();
        drop(stepper);
        let batch = build(Some(&ckpt)).run(trace.source()).expect("in-memory");
        assert_eq!(batch, uninterrupted);
    }
}

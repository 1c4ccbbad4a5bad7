//! Stack profiling is opt-in: a run profiles its page accesses into the
//! per-period access log only when its controller reads that log. Claiming
//! the log must change nothing a report shows — every paper-suite method's
//! `RunReport` is identical whether or not its controller asks for it.

use jpmd::core::{methods, JointPolicy, SimScale};
use jpmd::mem::AccessLog;
use jpmd::sim::{
    run_simulation, ControlAction, NullController, PeriodController, PeriodObservation,
};
use jpmd::trace::{WorkloadBuilder, GIB, MIB};

/// Delegates to `inner` but always claims the access log, counting the
/// entries it is handed.
struct ClaimsLog {
    inner: Box<dyn PeriodController>,
    entries: usize,
}

impl PeriodController for ClaimsLog {
    fn on_period_end(&mut self, observation: &PeriodObservation, log: &AccessLog) -> ControlAction {
        self.entries += log.len();
        self.inner.on_period_end(observation, log)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn reads_access_log(&self) -> bool {
        true
    }
}

#[test]
fn claiming_the_log_leaves_every_paper_suite_report_unchanged() {
    let scale = SimScale::small_test();
    let trace = WorkloadBuilder::new()
        .data_set_bytes(GIB)
        .rate_bytes_per_sec(8 * MIB)
        .duration_secs(1800.0)
        .seed(17)
        .build()
        .expect("workload generation");
    let (warmup, duration, period) = (300.0, 1800.0, 300.0);
    let consolidating =
        methods::disable_consolidated(&scale, methods::DiskPolicyKind::TwoCompetitive);
    assert!(methods::sim_config_for(&consolidating, &scale).consolidate);
    let suite = methods::paper_suite(&scale, &[1, 2, 4]);
    assert!(suite.iter().any(|spec| spec.joint.is_none()));
    for spec in suite {
        let plain = methods::run_method(&spec, &scale, &trace, warmup, duration, period);

        let mut sim = methods::sim_config_for(&spec, &scale);
        sim.warmup_secs = warmup;
        sim.period_secs = period;
        let inner: Box<dyn PeriodController> = match spec.joint {
            Some(mut cfg) => {
                cfg.period_secs = period;
                Box::new(JointPolicy::new(cfg))
            }
            None => Box::new(NullController),
        };
        let mut claimed = ClaimsLog { inner, entries: 0 };
        let report = run_simulation(
            &sim,
            spec.spindown.clone(),
            &mut claimed,
            &trace,
            duration,
            &spec.label,
        );
        assert!(
            claimed.entries > 0,
            "{}: a claimed log must carry the profiled accesses",
            spec.label
        );
        assert_eq!(report, plain, "{}", spec.label);
    }
}

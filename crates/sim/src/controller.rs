use serde::{Deserialize, Serialize};

use jpmd_mem::AccessLog;
use jpmd_stats::IntervalStats;

/// What the simulator observed during one control period — the inputs of
/// paper Fig. 2's "collect information of disk accesses and idle intervals"
/// box.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeriodObservation {
    /// Period start time, s.
    pub start: f64,
    /// Period end time (the decision instant), s.
    pub end: f64,
    /// Disk-cache accesses during the period (the paper's `N`).
    pub cache_accesses: u64,
    /// Disk accesses (cache misses, in pages) during the period (`n_d`).
    pub disk_page_accesses: u64,
    /// Disk requests (contiguous runs) issued during the period.
    pub disk_requests: u64,
    /// Seconds the disk spent serving during the period.
    pub disk_busy_secs: f64,
    /// Idle intervals of the *actual* disk request stream, aggregated with
    /// window `w` (count = `n_i`, plus mean/min/max).
    pub idle: IntervalStats,
    /// Page accesses delayed past the long-latency threshold during the
    /// period (every page of a user disk request whose latency exceeded
    /// the configured threshold — paper eq. 6's delayed requests).
    #[serde(default)]
    pub delayed_page_accesses: u64,
    /// Banks enabled during (the end of) the period.
    pub enabled_banks: u32,
    /// Disk timeout in force at the end of the period, s.
    pub disk_timeout: f64,
    /// Total (memory + disk) energy spent during the period, J.
    pub energy_total_j: f64,
}

impl PeriodObservation {
    /// Disk utilization over the period.
    pub fn utilization(&self) -> f64 {
        self.disk_busy_secs / (self.end - self.start).max(f64::MIN_POSITIVE)
    }

    /// Mean total power over the period, W.
    pub fn mean_power_w(&self) -> f64 {
        self.energy_total_j / (self.end - self.start).max(f64::MIN_POSITIVE)
    }

    /// Fraction of the period's page accesses that were delayed past the
    /// long-latency threshold (the paper's delayed-request ratio, checked
    /// against the limit `D`). Zero for an idle period.
    pub fn delayed_ratio(&self) -> f64 {
        if self.cache_accesses == 0 {
            0.0
        } else {
            self.delayed_page_accesses as f64 / self.cache_accesses as f64
        }
    }
}

/// Decision returned by a [`PeriodController`]: fields left `None` keep the
/// current setting.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ControlAction {
    /// Resize the disk cache to this many banks.
    pub enabled_banks: Option<u32>,
    /// Set the disk spin-down timeout to this many seconds.
    pub disk_timeout: Option<f64>,
}

/// A power manager invoked at every period boundary (paper Fig. 2).
///
/// The joint method of the paper is implemented against this trait in
/// `jpmd-core`; the static methods (2TFM, ADPD, …) use [`NullController`]
/// because their memory size and disk policy never change.
pub trait PeriodController {
    /// Decides the next period's memory size and disk timeout from the
    /// last period's observation and profiled access log.
    fn on_period_end(&mut self, observation: &PeriodObservation, log: &AccessLog) -> ControlAction;

    /// Display name for reports.
    fn name(&self) -> &str {
        "static"
    }

    /// Whether [`PeriodController::on_period_end`] reads its
    /// [`AccessLog`]. The simulator profiles every page access into that
    /// log (the paper's extended LRU list) only for controllers that say
    /// yes; a controller that ignores the log returns `false` and its runs
    /// skip the profiler entirely. The default is `true`, so a controller
    /// that does not answer always gets a complete log.
    fn reads_access_log(&self) -> bool {
        true
    }

    /// The controller's internal state (learned models, period counters)
    /// as a serializable value, captured into checkpoints. The default
    /// ([`serde::Value::Null`]) is correct for stateless controllers such
    /// as [`NullController`].
    fn snapshot_state(&self) -> serde::Value {
        serde::Value::Null
    }

    /// Restores the state captured by
    /// [`PeriodController::snapshot_state`]. The default ignores the value
    /// (stateless controllers).
    ///
    /// # Errors
    ///
    /// Returns a decode error when `state` does not match this
    /// controller's snapshot layout.
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let _ = state;
        Ok(())
    }
}

/// Mutable references delegate, so `&mut dyn PeriodController` (the batch
/// simulation's wiring) satisfies generic `C: PeriodController` bounds.
impl<C: PeriodController + ?Sized> PeriodController for &mut C {
    fn on_period_end(&mut self, observation: &PeriodObservation, log: &AccessLog) -> ControlAction {
        (**self).on_period_end(observation, log)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn reads_access_log(&self) -> bool {
        (**self).reads_access_log()
    }

    fn snapshot_state(&self) -> serde::Value {
        (**self).snapshot_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        (**self).restore_state(state)
    }
}

/// Boxes delegate, so `Box<dyn PeriodController>` works where an owned
/// controller is needed (a [`Replay`](crate::Replay) of one of the paper's
/// named methods).
impl<C: PeriodController + ?Sized> PeriodController for Box<C> {
    fn on_period_end(&mut self, observation: &PeriodObservation, log: &AccessLog) -> ControlAction {
        (**self).on_period_end(observation, log)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn reads_access_log(&self) -> bool {
        (**self).reads_access_log()
    }

    fn snapshot_state(&self) -> serde::Value {
        (**self).snapshot_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        (**self).restore_state(state)
    }
}

/// A controller that never changes anything — all non-joint methods.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullController;

impl PeriodController for NullController {
    fn on_period_end(&mut self, _: &PeriodObservation, _: &AccessLog) -> ControlAction {
        ControlAction::default()
    }

    fn reads_access_log(&self) -> bool {
        false
    }
}

/// Wraps a controller so every decision is timed under the
/// `controller.decide` span (and, when telemetry is enabled, emits a
/// `SpanEnd` event). Pure delegation otherwise — the wrapped controller's
/// decisions are untouched, which is what keeps instrumented runs
/// bit-identical to plain ones.
///
/// Generic over the controller it owns: [`Replay`](crate::Replay) wraps
/// whatever controller its caller hands in, borrowed or owned outright.
pub struct TimedController<C> {
    inner: C,
    spans: jpmd_obs::SpanRecorder,
    telemetry: jpmd_obs::Telemetry,
}

impl<C: PeriodController> TimedController<C> {
    /// Times `inner` under `spans`, emitting through `telemetry`.
    pub fn new(inner: C, spans: jpmd_obs::SpanRecorder, telemetry: jpmd_obs::Telemetry) -> Self {
        TimedController {
            inner,
            spans,
            telemetry,
        }
    }

    /// The wrapped controller.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// The wrapped controller, mutably.
    pub fn inner_mut(&mut self) -> &mut C {
        &mut self.inner
    }
}

impl<C: PeriodController> PeriodController for TimedController<C> {
    fn on_period_end(&mut self, observation: &PeriodObservation, log: &AccessLog) -> ControlAction {
        let _span = self.spans.time_with("controller.decide", &self.telemetry);
        self.inner.on_period_end(observation, log)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn reads_access_log(&self) -> bool {
        self.inner.reads_access_log()
    }

    fn snapshot_state(&self) -> serde::Value {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        self.inner.restore_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_is_busy_over_span() {
        let obs = PeriodObservation {
            start: 0.0,
            end: 600.0,
            cache_accesses: 10,
            disk_page_accesses: 5,
            disk_requests: 3,
            disk_busy_secs: 60.0,
            idle: jpmd_stats::IdleIntervals::default().stats(),
            delayed_page_accesses: 2,
            enabled_banks: 4,
            disk_timeout: 11.7,
            energy_total_j: 0.0,
        };
        assert!((obs.utilization() - 0.1).abs() < 1e-12);
        assert!((obs.delayed_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn null_controller_keeps_everything() {
        let obs = PeriodObservation {
            start: 0.0,
            end: 1.0,
            cache_accesses: 0,
            disk_page_accesses: 0,
            disk_requests: 0,
            disk_busy_secs: 0.0,
            idle: jpmd_stats::IdleIntervals::default().stats(),
            delayed_page_accesses: 0,
            enabled_banks: 1,
            disk_timeout: 1.0,
            energy_total_j: 0.0,
        };
        let action = NullController.on_period_end(&obs, &AccessLog::new());
        assert_eq!(action, ControlAction::default());
        assert!(action.enabled_banks.is_none());
        assert!(action.disk_timeout.is_none());
        assert!(!NullController.reads_access_log());
    }
}

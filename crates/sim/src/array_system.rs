//! Multi-disk system simulation — the substrate for the paper's §VI
//! future-work extension ("extend the joint method to multiple disks").
//!
//! Mirrors [`run_simulation`](crate::run_simulation) with a
//! [`DiskArray`] in place of the single disk: one shared disk cache, cache
//! misses routed to member disks by the array's [`Layout`], and per-disk
//! spin-down policies. An [`ArrayPeriodController`] may resize the shared
//! memory and set *per-disk* timeouts every period.

use jpmd_disk::{DiskArray, Layout, SpinDownPolicy};
use jpmd_mem::{AccessLog, MemoryManager};
use jpmd_stats::{IdleIntervals, IntervalStats, Welford};
use jpmd_trace::Trace;

use crate::{EnergyBreakdown, RunReport, SimConfig};

/// Geometry of the array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayConfig {
    /// Number of member disks (≥ 1).
    pub disks: usize,
    /// Data layout across members.
    pub layout: Layout,
}

/// What one member disk did during a control period.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskPeriodStats {
    /// Requests served by this disk in the period.
    pub requests: u64,
    /// Seconds this disk spent serving in the period.
    pub busy_secs: f64,
    /// Idle intervals of this disk's request stream (aggregated).
    pub idle: IntervalStats,
}

/// Period observation for an array run.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayPeriodObservation {
    /// Period start, s.
    pub start: f64,
    /// Period end (decision instant), s.
    pub end: f64,
    /// Disk-cache accesses in the period (`N`).
    pub cache_accesses: u64,
    /// Cache misses (pages) in the period.
    pub disk_page_accesses: u64,
    /// Banks enabled at period end.
    pub enabled_banks: u32,
    /// Per-member statistics.
    pub per_disk: Vec<DiskPeriodStats>,
}

/// Decision of an [`ArrayPeriodController`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ArrayControlAction {
    /// Resize the shared disk cache to this many banks.
    pub enabled_banks: Option<u32>,
    /// Set each member's spin-down timeout (length must equal the disk
    /// count).
    pub disk_timeouts: Option<Vec<f64>>,
}

/// A period controller for array runs (the multi-disk joint policy in
/// `jpmd-core` implements this).
pub trait ArrayPeriodController {
    /// Decides the next period's memory size and per-disk timeouts.
    fn on_period_end(
        &mut self,
        observation: &ArrayPeriodObservation,
        log: &AccessLog,
    ) -> ArrayControlAction;

    /// Display name for reports.
    fn name(&self) -> &str {
        "static-array"
    }

    /// Whether [`ArrayPeriodController::on_period_end`] reads its
    /// [`AccessLog`]; accesses are profiled only when it does (see
    /// [`PeriodController::reads_access_log`](crate::PeriodController::reads_access_log)).
    fn reads_access_log(&self) -> bool {
        true
    }
}

/// An array controller that never changes anything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullArrayController;

impl ArrayPeriodController for NullArrayController {
    fn on_period_end(&mut self, _: &ArrayPeriodObservation, _: &AccessLog) -> ArrayControlAction {
        ArrayControlAction::default()
    }

    fn reads_access_log(&self) -> bool {
        false
    }
}

/// Runs one multi-disk simulation. Semantics match
/// [`run_simulation`](crate::run_simulation); `policy_template` is cloned
/// per member disk (so an adaptive policy adapts per disk), and the
/// reported utilization is the *mean per-disk* utilization
/// (total busy / (disks × window)).
///
/// # Panics
///
/// Panics under the same conditions as `run_simulation`, or when the
/// controller returns a timeout vector of the wrong length, or when a
/// controller issues timeouts while `policy_template` is not
/// [`SpinDownPolicy::Controlled`].
pub fn run_array_simulation(
    config: &SimConfig,
    array_config: &ArrayConfig,
    policy_template: SpinDownPolicy,
    controller: &mut dyn ArrayPeriodController,
    trace: &Trace,
    duration: f64,
    label: &str,
) -> RunReport {
    config.validate();
    assert!(array_config.disks >= 1, "array needs at least one disk");
    assert_eq!(
        trace.page_bytes(),
        config.mem.page_bytes,
        "trace and memory must agree on the page size"
    );
    assert!(
        duration > config.warmup_secs,
        "duration must exceed warm-up"
    );

    let n = array_config.disks;
    let page_bytes = config.mem.page_bytes;
    let mut mem = MemoryManager::new(config.mem);
    mem.set_replacement(config.replacement);
    mem.set_consolidation(config.consolidate);
    mem.set_profiling(controller.reads_access_log());
    let mut array = DiskArray::new(
        n,
        config.disk_power,
        config.disk_service,
        trace.total_pages().max(1),
        array_config.layout,
    );
    let mut policies: Vec<SpinDownPolicy> = vec![policy_template; n];
    for (d, p) in policies.iter_mut().enumerate() {
        array.set_timeout(d, p.timeout());
    }

    let mut rows = Vec::new();
    let mut period_start = 0.0f64;
    let mut next_period = config.period_secs;
    let mut p_acc = 0u64;
    let mut p_miss = 0u64;
    let mut p_disk_reqs: Vec<u64> = vec![0; n];
    let mut p_disk_busy: Vec<f64> = vec![0.0; n];
    let mut p_energy = EnergyBreakdown::default();
    let mut period_disk_times: Vec<Vec<f64>> = vec![Vec::new(); n];

    let mut warm = config.warmup_secs <= 0.0;
    let mut w_energy = EnergyBreakdown::default();
    let mut w_acc = 0u64;
    let mut w_hits = 0u64;
    let mut w_req = 0u64;
    let mut w_busy = 0.0f64;
    let mut w_spin = 0u64;
    let mut latency = Welford::new();
    let mut request_latencies: Vec<f64> = Vec::new();
    let mut long_count = 0u64;
    let mut max_latency = 0.0f64;

    macro_rules! snapshot_energy {
        () => {
            EnergyBreakdown {
                mem: mem.energy(),
                disk: array.energy(),
            }
        };
    }

    macro_rules! advance_to {
        ($t:expr) => {
            let target: f64 = $t;
            loop {
                let boundary = if !warm && config.warmup_secs <= next_period {
                    config.warmup_secs
                } else {
                    next_period
                };
                if boundary > target {
                    break;
                }
                mem.settle(boundary);
                array.settle(boundary);
                if !warm && boundary == config.warmup_secs {
                    warm = true;
                    w_energy = snapshot_energy!();
                    w_acc = mem.accesses();
                    w_hits = mem.hits();
                    w_req = array.requests();
                    w_busy = array.busy_secs();
                    w_spin = array.spin_downs();
                    if config.warmup_secs < next_period {
                        continue;
                    }
                }
                let per_disk: Vec<DiskPeriodStats> = (0..n)
                    .map(|d| DiskPeriodStats {
                        requests: array.disk(d).requests() - p_disk_reqs[d],
                        busy_secs: array.disk(d).busy_secs() - p_disk_busy[d],
                        idle: IdleIntervals::from_timestamps(
                            &period_disk_times[d],
                            config.aggregation_window_secs,
                        )
                        .stats(),
                    })
                    .collect();
                let observation = ArrayPeriodObservation {
                    start: period_start,
                    end: boundary,
                    cache_accesses: mem.accesses() - p_acc,
                    disk_page_accesses: mem.misses() - p_miss,
                    enabled_banks: mem.enabled_banks(),
                    per_disk,
                };
                let log = mem.take_log();
                let action = controller.on_period_end(&observation, &log);
                mem.recycle_log(log);
                if let Some(banks) = action.enabled_banks {
                    mem.set_enabled_banks(banks, boundary);
                }
                if let Some(timeouts) = &action.disk_timeouts {
                    assert_eq!(timeouts.len(), n, "one timeout per member disk");
                    for (d, &t) in timeouts.iter().enumerate() {
                        policies[d].set_controlled_timeout(t);
                        array.set_timeout(d, t);
                    }
                }
                rows.push(crate::PeriodRow {
                    observation: crate::PeriodObservation {
                        start: observation.start,
                        end: observation.end,
                        cache_accesses: observation.cache_accesses,
                        disk_page_accesses: observation.disk_page_accesses,
                        disk_requests: observation.per_disk.iter().map(|d| d.requests).sum(),
                        disk_busy_secs: observation.per_disk.iter().map(|d| d.busy_secs).sum(),
                        idle: IdleIntervals::default().stats(),
                        // The array path does not track per-request latency
                        // against the long-latency threshold.
                        delayed_page_accesses: 0,
                        enabled_banks: observation.enabled_banks,
                        disk_timeout: policies[0].timeout(),
                        energy_total_j: snapshot_energy!().since(&p_energy).total_j(),
                    },
                    action: crate::ControlAction {
                        enabled_banks: action.enabled_banks,
                        disk_timeout: action.disk_timeouts.as_ref().map(|t| t[0]),
                    },
                });
                period_start = boundary;
                next_period = boundary + config.period_secs;
                p_acc = mem.accesses();
                p_miss = mem.misses();
                p_energy = snapshot_energy!();
                for d in 0..n {
                    p_disk_reqs[d] = array.disk(d).requests();
                    p_disk_busy[d] = array.disk(d).busy_secs();
                    period_disk_times[d].clear();
                }
            }
        };
    }

    for record in trace.records() {
        if record.time >= duration {
            break;
        }
        advance_to!(record.time);
        let now = record.time;
        let measuring = warm;

        let mut run_start: Option<u64> = None;
        let mut run_len = 0u64;
        macro_rules! flush_run {
            () => {
                if let Some(first) = run_start.take() {
                    let outcome = array.submit(now, first, run_len, page_bytes);
                    for (d, part) in &outcome.parts {
                        let t = policies[*d].after_request(part, &config.disk_power);
                        array.set_timeout(*d, t);
                        period_disk_times[*d].push(now);
                    }
                    if measuring {
                        request_latencies.push(outcome.latency);
                        for _ in 0..run_len {
                            latency.push(outcome.latency);
                        }
                        if outcome.latency > config.long_latency_secs {
                            long_count += run_len;
                        }
                        if outcome.latency > max_latency {
                            max_latency = outcome.latency;
                        }
                    }
                    #[allow(unused_assignments)]
                    {
                        run_len = 0;
                    }
                }
            };
        }
        for page in record.page_range() {
            let hit = mem.access(page, now);
            if hit {
                flush_run!();
                if measuring {
                    latency.push(0.0);
                }
            } else {
                if run_start.is_none() {
                    run_start = Some(page);
                }
                run_len += 1;
            }
        }
        flush_run!();
    }

    advance_to!(duration);
    mem.settle(duration);
    array.settle(duration);

    let end_energy = snapshot_energy!();
    let window = duration - config.warmup_secs;
    let cache_accesses = mem.accesses() - w_acc;
    let hits = mem.hits() - w_hits;
    RunReport {
        label: label.to_string(),
        duration_secs: window,
        energy: end_energy.since(&w_energy),
        cache_accesses,
        hits,
        disk_page_accesses: cache_accesses - hits,
        disk_requests: array.requests() - w_req,
        mean_latency_secs: latency.mean(),
        request_latency_p50_secs: {
            request_latencies.sort_by(f64::total_cmp);
            jpmd_stats::percentile(&request_latencies, 0.5).unwrap_or(0.0)
        },
        request_latency_p99_secs: jpmd_stats::percentile(&request_latencies, 0.99).unwrap_or(0.0),
        max_latency_secs: max_latency,
        long_latency_count: long_count,
        utilization: (array.busy_secs() - w_busy) / (n as f64 * window.max(f64::MIN_POSITIVE)),
        spin_downs: array.spin_downs() - w_spin,
        periods: rows,
        engine: crate::EngineStats::default(),
        spans: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jpmd_mem::{IdlePolicy, MemConfig, RdramModel};
    use jpmd_trace::{FileId, TraceRecord};

    fn mem_config() -> MemConfig {
        MemConfig {
            page_bytes: 1 << 20,
            bank_pages: 4,
            total_banks: 8,
            initial_banks: 8,
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

    #[test]
    fn single_disk_array_matches_single_disk_run() {
        // With n = 1 the array run must agree with the plain simulator on
        // counters (energies agree too because the member disk sees the
        // identical request stream).
        let config = SimConfig::with_mem(mem_config());
        let trace = Trace::new(
            vec![record(1.0, 0, 4), record(2.0, 0, 4), record(300.0, 40, 2)],
            1 << 20,
            64,
        );
        let plain = crate::run_simulation(
            &config,
            SpinDownPolicy::two_competitive(&config.disk_power),
            &mut crate::NullController,
            &trace,
            400.0,
            "plain",
        );
        let arr = run_array_simulation(
            &config,
            &ArrayConfig {
                disks: 1,
                layout: Layout::Partitioned,
            },
            SpinDownPolicy::two_competitive(&config.disk_power),
            &mut NullArrayController,
            &trace,
            400.0,
            "array",
        );
        assert_eq!(arr.cache_accesses, plain.cache_accesses);
        assert_eq!(arr.disk_page_accesses, plain.disk_page_accesses);
        assert_eq!(arr.spin_downs, plain.spin_downs);
        assert!((arr.energy.disk.total_j() - plain.energy.disk.total_j()).abs() < 1e-6);
        assert!((arr.utilization - plain.utilization).abs() < 1e-12);
    }

    #[test]
    fn partitioned_array_spins_down_cold_members() {
        let config = SimConfig::with_mem(mem_config());
        // All traffic in the first quarter of the page space, cache too
        // small to absorb it (2 banks = 8 pages, 12 hot pages cycled).
        let mut records = Vec::new();
        let mut t = 0.0;
        for i in 0..60u64 {
            records.push(record(t, (i * 5) % 12, 1));
            t += 30.0;
        }
        let trace = Trace::new(records, 1 << 20, 64);
        let mut cfg = config;
        cfg.mem.initial_banks = 2;
        let arr = run_array_simulation(
            &cfg,
            &ArrayConfig {
                disks: 4,
                layout: Layout::Partitioned,
            },
            SpinDownPolicy::two_competitive(&cfg.disk_power),
            &mut NullArrayController,
            &trace,
            t + 50.0,
            "array",
        );
        // Three members never see a request and spin down once each.
        assert!(arr.spin_downs >= 3, "spin_downs = {}", arr.spin_downs);
    }

    #[test]
    fn controller_sets_per_disk_timeouts() {
        struct PerDisk;
        impl ArrayPeriodController for PerDisk {
            fn on_period_end(
                &mut self,
                obs: &ArrayPeriodObservation,
                _: &AccessLog,
            ) -> ArrayControlAction {
                ArrayControlAction {
                    enabled_banks: None,
                    disk_timeouts: Some((0..obs.per_disk.len()).map(|d| 5.0 + d as f64).collect()),
                }
            }
        }
        let config = SimConfig::with_mem(mem_config());
        let trace = Trace::new(vec![record(1.0, 0, 2)], 1 << 20, 64);
        let arr = run_array_simulation(
            &config,
            &ArrayConfig {
                disks: 2,
                layout: Layout::Partitioned,
            },
            SpinDownPolicy::controlled(f64::INFINITY),
            &mut PerDisk,
            &trace,
            1300.0,
            "array",
        );
        assert_eq!(arr.periods.len(), 2);
        assert_eq!(arr.periods[0].action.disk_timeout, Some(5.0));
    }
}

//! The simulated hardware owned by the [`Engine`](crate::Engine): memory,
//! disk, and spin-down policy, plus the request bookkeeping both the
//! replay core and the observers read.

use jpmd_disk::{Disk, DiskPowerModel, RequestOutcome, SpinDownPolicy};
use jpmd_mem::MemoryManager;

use crate::{ControlAction, EnergyBreakdown, SimConfig, SimEvent};

/// Hook consulted at the hardware seams, letting a harness perturb what the
/// simulated hardware does without touching the replay engine. `jpmd-faults`
/// implements this for deterministic fault injection; when no injector is
/// installed ([`HwState::set_fault_injector`] never called) every seam is a
/// straight pass-through and the hot path pays only an `Option` check.
pub trait FaultInjector: Send {
    /// Called after the disk serves a request; returns extra service
    /// seconds to stall the disk with (0.0 = no fault). The stall is
    /// charged as active disk time and added to the request's latency —
    /// an inflated service time, a bad-sector retry, or a failed spin-up
    /// attempt (`outcome.woke_disk` tells the injector a spin-up
    /// happened).
    fn on_disk_request(&mut self, at: f64, outcome: &RequestOutcome) -> f64 {
        let _ = (at, outcome);
        0.0
    }

    /// Filters a controller's bank resize before it reaches the memory
    /// manager. Returning a different count models banks that refuse the
    /// power transition; implementations must return a count the memory
    /// configuration accepts.
    fn filter_banks(&mut self, requested: u32) -> u32 {
        requested
    }

    /// Filters a controller's disk-timeout setting before it is applied.
    fn filter_timeout(&mut self, requested: f64) -> f64 {
        requested
    }

    /// The injector's internal state (RNG position, counters) as a
    /// serializable value, captured into checkpoints so a resumed run
    /// replays the exact same fault sequence. The default
    /// ([`serde::Value::Null`]) is correct for stateless injectors.
    fn snapshot_state(&self) -> serde::Value {
        serde::Value::Null
    }

    /// Restores the state captured by [`FaultInjector::snapshot_state`].
    /// The default ignores the value (stateless injectors).
    ///
    /// # Errors
    ///
    /// Returns a decode error when `state` does not match this injector's
    /// snapshot layout.
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), serde::Error> {
        let _ = state;
        Ok(())
    }
}

/// Serializable image of the hardware's dynamic state.
#[derive(serde::Serialize, serde::Deserialize)]
struct HwSnapshot {
    mem: serde::Value,
    disk: serde::Value,
    spindown: SpinDownPolicy,
    disk_pages: u64,
    period_disk_times: Vec<f64>,
    injector: serde::Value,
}

/// The hardware under simulation.
///
/// Observers receive `&mut HwState` with every callback: they read counters
/// to build observations and may act on the hardware (the period controller
/// resizes memory and retunes the disk timeout through
/// [`HwState::apply_action`]).
pub struct HwState {
    /// The disk cache (banked memory, LRU, stack profiler).
    pub mem: MemoryManager,
    /// The disk behind the cache (queue, spin-down, energy).
    pub disk: Disk,
    /// The policy supplying the disk's idleness timeout.
    pub spindown: SpinDownPolicy,
    /// All pages moved between disk and memory so far (read misses +
    /// write-backs).
    pub disk_pages: u64,
    /// Disk request arrival times inside the current control period
    /// (cleared by the period observer at each boundary).
    pub period_disk_times: Vec<f64>,
    page_bytes: u64,
    total_pages: u64,
    disk_power: DiskPowerModel,
    injector: Option<Box<dyn FaultInjector>>,
}

impl HwState {
    /// Builds the hardware for one run: a memory manager and a disk sized
    /// for `total_pages`, with the spin-down policy's initial timeout
    /// applied. Stack profiling starts off; the engine turns it on when an
    /// observer reads the access log
    /// ([`SimObserver::reads_access_log`](crate::SimObserver::reads_access_log)).
    pub fn new(config: &SimConfig, spindown: SpinDownPolicy, total_pages: u64) -> Self {
        let mut mem = MemoryManager::new(config.mem);
        mem.set_replacement(config.replacement);
        mem.set_consolidation(config.consolidate);
        let mut disk = Disk::new(config.disk_power, config.disk_service, total_pages);
        disk.set_timeout(spindown.timeout());
        HwState {
            mem,
            disk,
            spindown,
            disk_pages: 0,
            period_disk_times: Vec::new(),
            page_bytes: config.mem.page_bytes,
            total_pages: total_pages.min(jpmd_mem::MAX_PAGE_SPACE),
            disk_power: config.disk_power,
            injector: None,
        }
    }

    /// Size of the page space the run replays: the disk's capacity in
    /// pages, capped at what the memory's dense page indices address
    /// ([`jpmd_mem::MAX_PAGE_SPACE`]). Every replayed page id is below it.
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Installs a [`FaultInjector`] consulted at every hardware seam.
    /// Without one (the default) all seams are pass-throughs.
    pub fn set_fault_injector(&mut self, injector: Box<dyn FaultInjector>) {
        self.injector = Some(injector);
    }

    /// The hardware's full dynamic state (memory, disk, spin-down policy,
    /// request bookkeeping, and the injector's state when one is
    /// installed) as a serializable value — the hardware half of a
    /// checkpoint.
    pub fn snapshot_state(&self) -> serde::Value {
        use serde::Serialize;
        HwSnapshot {
            mem: self.mem.snapshot_state(),
            disk: self.disk.snapshot_state(),
            spindown: self.spindown.clone(),
            disk_pages: self.disk_pages,
            period_disk_times: self.period_disk_times.clone(),
            injector: self
                .injector
                .as_deref()
                .map_or(serde::Value::Null, |injector| injector.snapshot_state()),
        }
        .to_value()
    }

    /// Restores the state captured by [`HwState::snapshot_state`]. An
    /// injector, when the checkpointed run had one, must already be
    /// installed (its configuration is rebuilt by the caller; only its
    /// dynamic state lives in the snapshot).
    ///
    /// # Errors
    ///
    /// Returns a decode error when `value` does not match the hardware
    /// snapshot layout (a corrupt or incompatible checkpoint).
    pub fn restore_state(&mut self, value: &serde::Value) -> Result<(), serde::Error> {
        use serde::Deserialize;
        let snapshot = HwSnapshot::from_value(value)?;
        self.mem.restore_state(&snapshot.mem)?;
        self.disk.restore_state(&snapshot.disk)?;
        self.spindown = snapshot.spindown;
        self.disk_pages = snapshot.disk_pages;
        self.period_disk_times = snapshot.period_disk_times;
        if let Some(injector) = self.injector.as_deref_mut() {
            injector.restore_state(&snapshot.injector)?;
        }
        Ok(())
    }

    /// Advances both components' internal clocks to `t` (idempotent).
    pub fn settle(&mut self, t: f64) {
        self.mem.settle(t);
        self.disk.settle(t);
    }

    /// Current cumulative energy of both components.
    pub fn snapshot_energy(&self) -> EnergyBreakdown {
        EnergyBreakdown {
            mem: self.mem.energy(),
            disk: self.disk.energy(),
        }
    }

    /// Submits one contiguous run of pages to the disk at `at`, letting the
    /// spin-down policy react, and records the request in the period
    /// bookkeeping.
    pub fn submit_request(&mut self, at: f64, first_page: u64, pages: u64) -> RequestOutcome {
        let mut outcome = self.disk.submit(at, first_page, pages, self.page_bytes);
        if let Some(injector) = self.injector.as_mut() {
            let extra = injector.on_disk_request(at, &outcome);
            if extra > 0.0 {
                self.disk.stall(extra);
                outcome.completion += extra;
                outcome.latency += extra;
            }
        }
        let timeout = self.spindown.after_request(&outcome, &self.disk_power);
        self.disk.set_timeout(timeout);
        self.period_disk_times.push(at);
        self.disk_pages += pages;
        outcome
    }

    /// Submits background write-back pages as coalesced disk writes at
    /// `at`, returning one [`SimEvent::DiskRequest`] (with `user: false`)
    /// per coalesced run. Flushes do not count toward user latency but
    /// they do occupy the disk (energy, busy time, idle-interval
    /// structure).
    pub fn submit_writes(&mut self, mut pages: Vec<u64>, at: f64) -> Vec<SimEvent> {
        pages.sort_unstable();
        let mut events = Vec::new();
        let mut i = 0usize;
        while i < pages.len() {
            let first = pages[i];
            let mut len = 1u64;
            while i + (len as usize) < pages.len() && pages[i + len as usize] == first + len {
                len += 1;
            }
            let outcome = self.submit_request(at, first, len);
            events.push(SimEvent::DiskRequest {
                time: at,
                first_page: first,
                pages: len,
                latency: outcome.latency,
                woke_disk: outcome.woke_disk,
                user: false,
            });
            i += len as usize;
        }
        events
    }

    /// Applies a controller's decision at time `t`.
    pub fn apply_action(&mut self, action: &ControlAction, t: f64) {
        if let Some(banks) = action.enabled_banks {
            let banks = match self.injector.as_mut() {
                Some(injector) => injector.filter_banks(banks),
                None => banks,
            };
            self.mem.set_enabled_banks(banks, t);
        }
        if let Some(timeout) = action.disk_timeout {
            let timeout = match self.injector.as_mut() {
                Some(injector) => injector.filter_timeout(timeout),
                None => timeout,
            };
            self.spindown.set_controlled_timeout(timeout);
            self.disk.set_timeout(timeout);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jpmd_mem::{IdlePolicy, MemConfig, RdramModel};

    fn hw(spindown: SpinDownPolicy) -> HwState {
        let config = SimConfig::with_mem(MemConfig {
            page_bytes: 1 << 20,
            bank_pages: 4,
            total_banks: 8,
            initial_banks: 8,
            model: RdramModel::default(),
            policy: IdlePolicy::Nap,
        });
        HwState::new(&config, spindown, 64)
    }

    #[test]
    fn submit_writes_coalesces_contiguous_pages() {
        let mut hw = hw(SpinDownPolicy::AlwaysOn);
        // 0..3 and 8..9 coalesce into two requests; order-insensitive.
        let events = hw.submit_writes(vec![9, 0, 2, 1, 8], 5.0);
        assert_eq!(events.len(), 2);
        assert_eq!(hw.disk_pages, 5);
        assert_eq!(hw.disk.requests(), 2);
        assert_eq!(hw.period_disk_times, vec![5.0, 5.0]);
        match events[0] {
            SimEvent::DiskRequest {
                first_page,
                pages,
                user,
                ..
            } => {
                assert_eq!((first_page, pages), (0, 3));
                assert!(!user);
            }
            _ => panic!("expected DiskRequest"),
        }
    }

    #[test]
    fn fault_injector_stalls_requests_and_filters_actions() {
        struct Nasty;
        impl FaultInjector for Nasty {
            fn on_disk_request(&mut self, _at: f64, _outcome: &RequestOutcome) -> f64 {
                2.0
            }
            fn filter_banks(&mut self, requested: u32) -> u32 {
                requested.max(6)
            }
            fn filter_timeout(&mut self, _requested: f64) -> f64 {
                9.0
            }
        }
        let mut plain = hw(SpinDownPolicy::controlled(f64::INFINITY));
        let baseline = plain.submit_request(1.0, 0, 1);

        let mut faulty = hw(SpinDownPolicy::controlled(f64::INFINITY));
        faulty.set_fault_injector(Box::new(Nasty));
        let outcome = faulty.submit_request(1.0, 0, 1);
        assert!((outcome.latency - (baseline.latency + 2.0)).abs() < 1e-12);
        assert!((outcome.completion - (baseline.completion + 2.0)).abs() < 1e-12);
        assert!((faulty.disk.busy_secs() - (plain.disk.busy_secs() + 2.0)).abs() < 1e-12);

        faulty.apply_action(
            &ControlAction {
                enabled_banks: Some(2),
                disk_timeout: Some(7.0),
            },
            10.0,
        );
        assert_eq!(faulty.mem.enabled_banks(), 6, "flaky banks refused");
        assert_eq!(faulty.disk.timeout(), 9.0, "timeout filtered");
    }

    #[test]
    fn apply_action_resizes_and_retunes() {
        let mut hw = hw(SpinDownPolicy::controlled(f64::INFINITY));
        hw.apply_action(
            &ControlAction {
                enabled_banks: Some(4),
                disk_timeout: Some(7.0),
            },
            10.0,
        );
        assert_eq!(hw.mem.enabled_banks(), 4);
        assert_eq!(hw.disk.timeout(), 7.0);
        // Empty action leaves everything alone.
        hw.apply_action(&ControlAction::default(), 11.0);
        assert_eq!(hw.mem.enabled_banks(), 4);
        assert_eq!(hw.disk.timeout(), 7.0);
    }
}

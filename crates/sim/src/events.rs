//! Typed events emitted by the replay [`Engine`](crate::Engine) to its
//! [`SimObserver`](crate::SimObserver)s.

use serde::{Deserialize, Serialize};

/// One event in a simulation run.
///
/// The engine's replay core emits these in causal order; everything an
/// observer learns about the run arrives through this enum (plus direct
/// reads of [`HwState`](crate::HwState) at dispatch time).
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// A run of consecutive pages of one record, all with the same outcome,
    /// was looked up in the disk cache. A record yields one such event per
    /// maximal run: a miss run's event precedes its [`SimEvent::Miss`] and
    /// [`SimEvent::DiskRequest`], and a hit run's event follows the request
    /// of the miss run before it.
    Access {
        /// Arrival time, s.
        time: f64,
        /// First page of the run.
        first_page: u64,
        /// Length of the run, pages.
        pages: u64,
        /// Whether the pages were resident (no disk involvement).
        hit: bool,
        /// Whether the access was a write.
        write: bool,
    },
    /// A contiguous run of missed pages closed and is about to become one
    /// disk request.
    Miss {
        /// Arrival time, s.
        time: f64,
        /// First missed page of the run.
        first_page: u64,
        /// Length of the run, pages.
        pages: u64,
    },
    /// A disk request was submitted (a user miss run, or a background
    /// write-back when `user` is false).
    DiskRequest {
        /// Submission time, s.
        time: f64,
        /// First page of the request.
        first_page: u64,
        /// Request length, pages.
        pages: u64,
        /// Request latency (queueing + spin-up + service), s.
        latency: f64,
        /// Whether the request had to spin the disk up.
        woke_disk: bool,
        /// True for user miss runs; false for background flushes, which do
        /// not count toward user-visible latency.
        user: bool,
    },
    /// The dirty-page flush daemon ticked.
    Sync {
        /// Tick time, s.
        time: f64,
        /// Dirty pages written back at this tick.
        pages: u64,
    },
    /// The warm-up window ended; measurement starts now.
    WarmupEnd {
        /// End of warm-up, s.
        time: f64,
    },
    /// A control period closed (its row is already recorded).
    PeriodBoundary {
        /// Index of the finished period (0-based).
        index: usize,
        /// Period start, s.
        start: f64,
        /// Period end, s.
        end: f64,
    },
}

impl SimEvent {
    /// The simulation time the event occurred at.
    pub fn time(&self) -> f64 {
        match *self {
            SimEvent::Access { time, .. }
            | SimEvent::Miss { time, .. }
            | SimEvent::DiskRequest { time, .. }
            | SimEvent::Sync { time, .. }
            | SimEvent::WarmupEnd { time } => time,
            SimEvent::PeriodBoundary { end, .. } => end,
        }
    }
}

/// Per-type event totals (engine observability). Access events are counted
/// twice: in pages (`accesses`) and in events (`access_runs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCounts {
    /// Page lookups in the disk cache.
    pub accesses: u64,
    /// [`SimEvent::Access`] events: same-outcome runs of looked-up pages.
    #[serde(default)]
    pub access_runs: u64,
    /// Coalesced miss runs.
    pub misses: u64,
    /// Disk requests (user runs + background flushes).
    pub disk_requests: u64,
    /// Flush-daemon ticks.
    pub syncs: u64,
    /// Warm-up completions (0 or 1).
    pub warmup_ends: u64,
    /// Closed control periods.
    pub period_boundaries: u64,
}

impl EventCounts {
    /// Tallies one event.
    pub fn record(&mut self, event: &SimEvent) {
        match event {
            SimEvent::Access { pages, .. } => {
                self.accesses += pages;
                self.access_runs += 1;
            }
            SimEvent::Miss { .. } => self.misses += 1,
            SimEvent::DiskRequest { .. } => self.disk_requests += 1,
            SimEvent::Sync { .. } => self.syncs += 1,
            SimEvent::WarmupEnd { .. } => self.warmup_ends += 1,
            SimEvent::PeriodBoundary { .. } => self.period_boundaries += 1,
        }
    }

    /// Total events across all types (access runs, not pages).
    pub fn total(&self) -> u64 {
        self.access_runs
            + self.misses
            + self.disk_requests
            + self.syncs
            + self.warmup_ends
            + self.period_boundaries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_tally_by_type() {
        let mut c = EventCounts::default();
        c.record(&SimEvent::Access {
            time: 1.0,
            first_page: 0,
            pages: 4,
            hit: true,
            write: false,
        });
        c.record(&SimEvent::Miss {
            time: 1.0,
            first_page: 0,
            pages: 3,
        });
        c.record(&SimEvent::WarmupEnd { time: 2.0 });
        assert_eq!(c.accesses, 4, "accesses count pages");
        assert_eq!(c.access_runs, 1);
        assert_eq!(c.misses, 1);
        assert_eq!(c.warmup_ends, 1);
        assert_eq!(c.total(), 3, "the total counts events");
    }

    #[test]
    fn event_time_extraction() {
        assert_eq!(
            SimEvent::PeriodBoundary {
                index: 0,
                start: 0.0,
                end: 600.0
            }
            .time(),
            600.0
        );
        assert_eq!(
            SimEvent::Sync {
                time: 30.0,
                pages: 4
            }
            .time(),
            30.0
        );
    }
}

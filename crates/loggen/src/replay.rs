//! Deterministic replay schedules: *when* each record of a recorded
//! stream is offered to an ingest front door, as a pure function of the
//! schedule parameters (no clock, no RNG — two runs of the same
//! schedule offer records at identical offsets).
//!
//! `benchmark/`'s open-loop paced phase and the `wal_group_commit`
//! bench's Fig. 7 operating point pace their feeds with these schedules.

use std::time::Duration;

/// The arrival-process shape of a replay schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayShape {
    /// Constant inter-arrival gap: record `i` is offered at
    /// `i * mean_interarrival`.
    Steady,
    /// Arrivals clump: every record of a burst shares one offset, and
    /// bursts are spaced so the *mean* rate still matches the steady
    /// schedule — the worst realistic case for a bounded ingest queue.
    Bursty {
        /// Records per burst (0 behaves as 1, i.e. steady).
        burst: usize,
    },
    /// A load wave: the inter-arrival gap sweeps linearly from half the
    /// mean up to three halves of the mean and back, once per `period`
    /// records (a compressed day). The mean rate over a whole period
    /// matches the steady schedule.
    Diurnal {
        /// Records per wave (0 behaves as 1, i.e. steady).
        period: usize,
    },
}

impl ReplayShape {
    /// Short stable name for results tables.
    pub fn name(&self) -> &'static str {
        match self {
            ReplayShape::Steady => "steady",
            ReplayShape::Bursty { .. } => "bursty",
            ReplayShape::Diurnal { .. } => "diurnal",
        }
    }
}

/// A deterministic replay schedule: a shape plus the mean inter-arrival
/// gap of the recorded stream.
#[derive(Clone, Copy, Debug)]
pub struct ReplaySchedule {
    /// Arrival-process shape.
    pub shape: ReplayShape,
    /// Mean gap between consecutive records at recorded (1×) speed.
    pub mean_interarrival: Duration,
}

impl ReplaySchedule {
    /// Steady schedule with the given mean gap.
    pub fn steady(mean_interarrival: Duration) -> Self {
        ReplaySchedule {
            shape: ReplayShape::Steady,
            mean_interarrival,
        }
    }

    /// The offset (from replay start) at which record `i` is offered,
    /// replayed `speed`× faster than recorded. `speed` 0 is clamped
    /// to 1.
    pub fn offset(&self, i: usize, speed: u32) -> Duration {
        let mean = self.mean_interarrival.as_nanos() as u64;
        let nanos = match self.shape {
            ReplayShape::Steady => i as u64 * mean,
            ReplayShape::Bursty { burst } => {
                let burst = burst.max(1) as u64;
                // Whole bursts arrive together; burst k lands where the
                // steady schedule would put its first record.
                (i as u64 / burst) * burst * mean
            }
            ReplayShape::Diurnal { period } if period <= 1 => i as u64 * mean,
            ReplayShape::Diurnal { period } => {
                let period = period as u64;
                // Triangle-wave gaps sweeping mean/2 → 3·mean/2 → mean/2
                // over one period. Offsets anchor whole periods on the
                // *exact* per-period gap total (not `period * mean`,
                // which integer division can miss), so the sequence is
                // monotone by construction.
                let gap = |phase: u64| {
                    let tri = if 2 * phase < period {
                        2 * phase
                    } else {
                        2 * (period - phase)
                    };
                    mean / 2 + mean * tri / period
                };
                let period_total: u64 = (0..period).map(gap).sum();
                let whole = (i as u64 / period) * period_total;
                let rem: u64 = (0..i as u64 % period).map(gap).sum();
                whole + rem
            }
        };
        Duration::from_nanos(nanos / speed.max(1) as u64)
    }

    /// All `n` offsets, non-decreasing, at `speed`× recorded speed.
    pub fn offsets(&self, n: usize, speed: u32) -> Vec<Duration> {
        (0..n).map(|i| self.offset(i, speed)).collect()
    }

    /// The mean offered rate of this schedule at `speed`×, in records
    /// per second.
    pub fn offered_per_sec(&self, speed: u32) -> f64 {
        speed.max(1) as f64 / self.mean_interarrival.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MEAN: Duration = Duration::from_micros(1000);

    #[test]
    fn steady_is_linear_and_speed_divides() {
        let s = ReplaySchedule::steady(MEAN);
        assert_eq!(s.offset(0, 1), Duration::ZERO);
        assert_eq!(s.offset(7, 1), Duration::from_micros(7000));
        assert_eq!(s.offset(7, 4), Duration::from_micros(1750));
    }

    #[test]
    fn bursty_clumps_but_preserves_the_mean_rate() {
        let s = ReplaySchedule {
            shape: ReplayShape::Bursty { burst: 8 },
            mean_interarrival: MEAN,
        };
        // All of burst 0 shares offset 0; burst 1 starts where steady
        // record 8 would.
        for i in 0..8 {
            assert_eq!(s.offset(i, 1), Duration::ZERO);
        }
        assert_eq!(s.offset(8, 1), Duration::from_micros(8000));
        // Mean preserved: record k*burst lands exactly at steady time.
        assert_eq!(s.offset(64, 1), ReplaySchedule::steady(MEAN).offset(64, 1));
    }

    #[test]
    fn diurnal_wave_is_monotone_and_mean_preserving_per_period() {
        let s = ReplaySchedule {
            shape: ReplayShape::Diurnal { period: 50 },
            mean_interarrival: MEAN,
        };
        let offsets = s.offsets(200, 1);
        for w in offsets.windows(2) {
            assert!(w[0] <= w[1], "offsets must be non-decreasing");
        }
        // Whole periods cost exactly period * mean.
        assert_eq!(s.offset(100, 1), Duration::from_micros(100 * 1000));
        // Within a period the gaps actually vary.
        let gaps: Vec<Duration> = offsets.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.iter().any(|&g| g < MEAN));
        assert!(gaps.iter().any(|&g| g > MEAN));
    }

    #[test]
    fn degenerate_parameters_fall_back_to_steady() {
        let steady = ReplaySchedule::steady(MEAN);
        let b = ReplaySchedule {
            shape: ReplayShape::Bursty { burst: 0 },
            mean_interarrival: MEAN,
        };
        let d = ReplaySchedule {
            shape: ReplayShape::Diurnal { period: 0 },
            mean_interarrival: MEAN,
        };
        for i in [0usize, 3, 17] {
            assert_eq!(b.offset(i, 1), steady.offset(i, 1));
            assert_eq!(d.offset(i, 1), steady.offset(i, 1));
            assert_eq!(steady.offset(i, 0), steady.offset(i, 1), "speed 0 clamps");
        }
    }
}

use hbmd_events::{CounterSet, FeatureVector, HaswellCatalog, HpcEvent};
use hbmd_uarch::{Cpu, InstructionSource};

use crate::error::PerfError;

/// How the PMU's 8 programmable registers are loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PmuConfig {
    /// Number of programmable counter registers (8 on the reference
    /// platform).
    pub counters: usize,
    /// Program the full 52-event hardware catalog (7 multiplexing
    /// groups) instead of just the 16 collected events (2 groups).
    /// Heavier multiplexing means noisier scaled estimates — the
    /// platform reality when profiling broadly.
    pub full_catalog: bool,
    /// Time slices per sampling window. Must be at least the group
    /// count so every event gets scheduled.
    pub slices_per_window: usize,
}

impl PmuConfig {
    /// The evaluation setup: 8 registers, only the 16 collected events
    /// programmed, 8 slices per window.
    pub fn haswell_collected() -> PmuConfig {
        PmuConfig {
            counters: HaswellCatalog::PROGRAMMABLE_COUNTERS,
            full_catalog: false,
            slices_per_window: 8,
        }
    }

    /// All 52 hardware events programmed (heavy multiplexing).
    pub fn haswell_full() -> PmuConfig {
        PmuConfig {
            counters: HaswellCatalog::PROGRAMMABLE_COUNTERS,
            full_catalog: true,
            slices_per_window: 14,
        }
    }

    /// Number of multiplexing groups implied by this configuration.
    pub fn groups(&self) -> usize {
        let programmed = if self.full_catalog {
            HaswellCatalog::HARDWARE_EVENTS
        } else {
            HpcEvent::COUNT
        };
        programmed.div_ceil(self.counters.max(1))
    }

    /// Check the configuration is usable.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::Config`] when `counters` is zero or
    /// `slices_per_window` is smaller than the group count.
    pub fn validate(&self) -> Result<(), PerfError> {
        if self.counters == 0 {
            return Err(PerfError::Config("counters must be non-zero".to_owned()));
        }
        if self.slices_per_window < self.groups() {
            return Err(PerfError::Config(format!(
                "slices_per_window {} is smaller than the {} multiplexing groups",
                self.slices_per_window,
                self.groups()
            )));
        }
        Ok(())
    }
}

impl Default for PmuConfig {
    fn default() -> PmuConfig {
        PmuConfig::haswell_collected()
    }
}

/// The performance monitoring unit model: schedules programmed events
/// onto the limited counter registers in time slices and reports
/// `perf`-style scaled estimates.
///
/// With 16 events on 8 registers, each event is live for half of every
/// window; `perf` (and this model) compensates by reporting
/// `raw × window/live`, which is an unbiased but noisy estimate — the
/// exact artefact real HPC collection lives with.
///
/// # Examples
///
/// ```
/// use hbmd_perf::{Pmu, PmuConfig};
/// use hbmd_uarch::{Cpu, CpuConfig, StreamParams, SyntheticStream};
///
/// let mut pmu = Pmu::new(PmuConfig::haswell_collected())?;
/// let mut cpu = Cpu::new(CpuConfig::tiny());
/// let mut stream = SyntheticStream::new(StreamParams::balanced(), 3);
/// let features = pmu.measure_window(&mut cpu, &mut stream, 8_000);
/// assert!(features.as_slice().iter().any(|&v| v > 0.0));
/// # Ok::<(), hbmd_perf::PerfError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Pmu {
    config: PmuConfig,
    /// Which multiplexing group each collected event belongs to.
    group_of: [usize; HpcEvent::COUNT],
    groups: usize,
    /// Rotates across windows so group phase does not alias with
    /// program phase.
    rotation: usize,
}

impl Pmu {
    /// Build a PMU model.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError::Config`] when `config` fails
    /// [`PmuConfig::validate`].
    pub fn new(config: PmuConfig) -> Result<Pmu, PerfError> {
        config.validate()?;
        let groups = config.groups();
        let mut group_of = [0usize; HpcEvent::COUNT];
        // The collected events occupy the first slots of the programmed
        // list (they are first in the catalog), packed `counters` per
        // group.
        for event in HpcEvent::ALL {
            group_of[event.index()] = event.index() / config.counters;
        }
        Ok(Pmu {
            config,
            group_of,
            groups,
            rotation: 0,
        })
    }

    /// The configuration this PMU was built with.
    pub fn config(&self) -> &PmuConfig {
        &self.config
    }

    /// Execute one sampling window of `budget` instructions and return
    /// the scaled feature estimates, exactly as `perf stat -I` would
    /// report them.
    ///
    /// The window is divided into `slices_per_window` time slices; in
    /// each slice only one group of events is "live" on the registers.
    /// An event's estimate is its live-slice count scaled by
    /// `total_slices / live_slices`.
    pub fn measure_window<S: InstructionSource>(
        &mut self,
        cpu: &mut Cpu,
        source: &mut S,
        budget: u64,
    ) -> FeatureVector {
        let slices = self.config.slices_per_window;
        let per_slice = (budget / slices as u64).max(1);
        let mut raw = CounterSet::new();
        let mut live_slices = [0u32; HpcEvent::COUNT];

        for slice in 0..slices {
            let active_group = (slice + self.rotation) % self.groups;
            let before = *cpu.counters();
            cpu.run(source, per_slice);
            let delta = cpu.counters().delta(&before);
            for event in HpcEvent::ALL {
                if self.group_of[event.index()] == active_group {
                    raw.record(event, delta[event]);
                    live_slices[event.index()] += 1;
                }
            }
        }
        self.rotation = (self.rotation + 1) % self.groups;

        FeatureVector::from_scaled(&raw, |event| {
            let live = live_slices[event.index()];
            if live == 0 {
                0.0
            } else {
                slices as f64 / live as f64
            }
        })
    }

    /// Execute one window with *no* multiplexing: every event counted
    /// exactly. The baseline for the multiplexing-noise ablation.
    pub fn measure_window_exact<S: InstructionSource>(
        cpu: &mut Cpu,
        source: &mut S,
        budget: u64,
    ) -> FeatureVector {
        let before = *cpu.counters();
        cpu.run(source, budget);
        FeatureVector::from_counts(&cpu.counters().delta(&before))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbmd_uarch::{CpuConfig, StreamParams, SyntheticStream};

    #[test]
    fn groups_and_validation() {
        let collected = PmuConfig::haswell_collected();
        assert_eq!(collected.groups(), 2);
        assert!(collected.validate().is_ok());

        let full = PmuConfig::haswell_full();
        assert_eq!(full.groups(), 7);
        assert!(full.validate().is_ok());

        let starved = PmuConfig {
            slices_per_window: 1,
            ..PmuConfig::haswell_collected()
        };
        assert!(starved.validate().is_err());

        let zero = PmuConfig {
            counters: 0,
            ..PmuConfig::haswell_collected()
        };
        assert!(zero.validate().is_err());
    }

    #[test]
    fn scaled_estimates_track_exact_counts() {
        // Multiplexed estimates must be unbiased: over a long window the
        // scaled value should land near the exact count.
        let budget = 64_000;
        let mut exact_cpu = Cpu::new(CpuConfig::tiny());
        let mut exact_stream = SyntheticStream::new(StreamParams::balanced(), 5);
        let exact = Pmu::measure_window_exact(&mut exact_cpu, &mut exact_stream, budget);

        let mut pmu = Pmu::new(PmuConfig::haswell_collected()).expect("valid");
        let mut cpu = Cpu::new(CpuConfig::tiny());
        let mut stream = SyntheticStream::new(StreamParams::balanced(), 5);
        let scaled = pmu.measure_window(&mut cpu, &mut stream, budget);

        for event in [
            HpcEvent::BranchInstructions,
            HpcEvent::L1DcacheLoads,
            HpcEvent::L1DcacheStores,
        ] {
            let e = exact[event];
            let s = scaled[event];
            assert!(e > 0.0);
            let rel = (s - e).abs() / e;
            assert!(rel < 0.25, "{event}: scaled {s} vs exact {e} (rel {rel})");
        }
    }

    #[test]
    fn every_event_gets_scheduled() {
        let mut pmu = Pmu::new(PmuConfig::haswell_full()).expect("valid");
        let mut cpu = Cpu::new(CpuConfig::tiny());
        // A stream with every behaviour active.
        let params = StreamParams {
            load_frac: 0.3,
            store_frac: 0.2,
            branch_frac: 0.2,
            data_working_set: 1024 * 1024,
            data_locality: 0.5,
            code_footprint: 256 * 1024,
            code_locality: 0.6,
            branch_predictability: 0.5,
            branch_taken_bias: 0.5,
        };
        let mut stream = SyntheticStream::new(params, 9);
        let fv = pmu.measure_window(&mut cpu, &mut stream, 140_000);
        for event in [
            HpcEvent::BranchInstructions,
            HpcEvent::L1DcacheLoads,
            HpcEvent::L1DcacheStores,
            HpcEvent::L1DcacheLoadMisses,
            HpcEvent::CacheReferences,
        ] {
            assert!(fv[event] > 0.0, "{event} never counted");
        }
    }

    #[test]
    fn heavier_multiplexing_is_noisier() {
        // Estimate variance across repeated windows: the 7-group full
        // catalog should be noisier than the 2-group collected set.
        let spread = |config: PmuConfig| {
            let mut pmu = Pmu::new(config).expect("valid");
            let mut cpu = Cpu::new(CpuConfig::tiny());
            let mut stream = SyntheticStream::new(StreamParams::balanced(), 21);
            let mut values = Vec::new();
            for _ in 0..30 {
                let fv = pmu.measure_window(&mut cpu, &mut stream, 14_000);
                values.push(fv[HpcEvent::L1DcacheLoadMisses]);
            }
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
            var.sqrt() / mean.max(1e-9)
        };
        let light = spread(PmuConfig::haswell_collected());
        let heavy = spread(PmuConfig::haswell_full());
        assert!(
            heavy > light,
            "full-catalog multiplexing should be noisier ({heavy} vs {light})"
        );
    }

    #[test]
    fn exact_mode_counts_everything_once() {
        let mut cpu = Cpu::new(CpuConfig::tiny());
        let mut stream = SyntheticStream::new(StreamParams::balanced(), 1);
        let fv = Pmu::measure_window_exact(&mut cpu, &mut stream, 10_000);
        let total_loads = fv[HpcEvent::L1DcacheLoads];
        assert!(total_loads > 1_000.0, "got {total_loads}");
        assert_eq!(cpu.stats().instructions, 10_000);
    }
}

use std::fmt;
use std::ops::Add;

/// FPGA resource counts, Xilinx 7-series flavoured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceEstimate {
    /// 6-input lookup tables.
    pub luts: u64,
    /// Flip-flops.
    pub ffs: u64,
    /// DSP48 multiply-accumulate slices.
    pub dsps: u64,
    /// 18 Kib block RAMs.
    pub brams: u64,
}

impl ResourceEstimate {
    /// A single scalar "area units" figure for ratios and plots:
    /// resources weighted by their approximate relative silicon cost
    /// (1 LUT = 1, 1 FF = 0.5, 1 DSP48 = 100, 1 BRAM18 = 150).
    pub fn area_units(&self) -> f64 {
        self.luts as f64
            + self.ffs as f64 * 0.5
            + self.dsps as f64 * 100.0
            + self.brams as f64 * 150.0
    }
}

impl Add for ResourceEstimate {
    type Output = ResourceEstimate;

    fn add(self, other: ResourceEstimate) -> ResourceEstimate {
        ResourceEstimate {
            luts: self.luts + other.luts,
            ffs: self.ffs + other.ffs,
            dsps: self.dsps + other.dsps,
            brams: self.brams + other.brams,
        }
    }
}

impl fmt::Display for ResourceEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} LUT, {} FF, {} DSP, {} BRAM",
            self.luts, self.ffs, self.dsps, self.brams
        )
    }
}

/// The synthesis result for one classifier — the row a Vivado HLS
/// report would give you.
#[derive(Debug, Clone, PartialEq)]
pub struct HwReport {
    /// Scheme name of the synthesised model.
    pub scheme: String,
    /// Resource usage.
    pub resources: ResourceEstimate,
    /// Inference latency in clock cycles.
    pub latency_cycles: u64,
    /// Clock period in nanoseconds.
    pub clock_ns: f64,
    /// Dynamic + static power estimate in milliwatts.
    pub power_mw: f64,
}

impl HwReport {
    /// Scalar area figure (see [`ResourceEstimate::area_units`]).
    pub fn area_units(&self) -> f64 {
        self.resources.area_units()
    }

    /// Inference latency in nanoseconds.
    pub fn latency_ns(&self) -> f64 {
        self.latency_cycles as f64 * self.clock_ns
    }

    /// Classifications per second at initiation interval 1 for
    /// pipelined designs (sequential-scan designs are bounded by
    /// latency instead; this reports the conservative latency bound).
    pub fn throughput_per_s(&self) -> f64 {
        if self.latency_ns() <= 0.0 {
            0.0
        } else {
            1e9 / self.latency_ns()
        }
    }

    /// The paper's Figure 16 figure of merit: accuracy (as a fraction)
    /// per kilo-area-unit.
    ///
    /// # Panics
    ///
    /// Panics when `accuracy` is not within `[0, 1]`.
    pub fn accuracy_per_area(&self, accuracy: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&accuracy),
            "accuracy must be a fraction in [0, 1]"
        );
        let area = self.area_units();
        if area <= 0.0 {
            0.0
        } else {
            accuracy / (area / 1000.0)
        }
    }

    /// Energy per classification in nanojoules.
    pub fn energy_per_inference_nj(&self) -> f64 {
        self.power_mw * 1e-3 * self.latency_ns()
    }
}

impl fmt::Display for HwReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<22} {:>8.0} area  {:>6} cyc  {:>9.1} ns  {:>8.2} mW  [{}]",
            self.scheme,
            self.area_units(),
            self.latency_cycles,
            self.latency_ns(),
            self.power_mw,
            self.resources
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> HwReport {
        HwReport {
            scheme: "J48".to_owned(),
            resources: ResourceEstimate {
                luts: 500,
                ffs: 200,
                dsps: 2,
                brams: 1,
            },
            latency_cycles: 10,
            clock_ns: 5.0,
            power_mw: 12.0,
        }
    }

    #[test]
    fn area_units_weight_resources() {
        let r = report().resources;
        assert!((r.area_units() - (500.0 + 100.0 + 200.0 + 150.0)).abs() < 1e-9);
    }

    #[test]
    fn resource_addition() {
        let a = report().resources;
        let sum = a + a;
        assert_eq!(sum.luts, 1000);
        assert_eq!(sum.dsps, 4);
    }

    #[test]
    fn latency_and_throughput() {
        let r = report();
        assert!((r.latency_ns() - 50.0).abs() < 1e-9);
        assert!((r.throughput_per_s() - 2e7).abs() < 1.0);
    }

    #[test]
    fn accuracy_per_area_figure_of_merit() {
        let r = report();
        let fom = r.accuracy_per_area(0.95);
        assert!(fom > 0.0);
        // Halving the area doubles the figure of merit.
        let mut small = report();
        small.resources.luts = 0;
        small.resources.ffs = 0;
        small.resources.brams = 0;
        small.resources.dsps = 1;
        assert!(small.accuracy_per_area(0.95) > fom);
    }

    #[test]
    #[should_panic(expected = "accuracy")]
    fn accuracy_out_of_range_panics() {
        let _ = report().accuracy_per_area(95.0);
    }

    #[test]
    fn energy_model() {
        let r = report();
        // 12 mW for 50 ns = 0.6 nJ.
        assert!((r.energy_per_inference_nj() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn display_contains_everything() {
        let text = report().to_string();
        assert!(text.contains("J48"));
        assert!(text.contains("DSP"));
    }
}

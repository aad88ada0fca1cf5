use crate::branch::BranchPredictorConfig;
use crate::cache::CacheConfig;
use crate::tlb::TlbConfig;

/// Full machine description consumed by [`Cpu`](crate::Cpu).
///
/// The default, [`CpuConfig::haswell`], mirrors the reference platform
/// (Intel Core i5-4590): 32 KiB 8-way L1I/L1D, 6 MiB 12-way LLC, 64-byte
/// lines, 64/128-entry TLBs, gshare + BTB front end, 3.3 GHz clock.
///
/// # Examples
///
/// ```
/// use hbmd_uarch::CpuConfig;
///
/// let config = CpuConfig::haswell();
/// assert_eq!(config.l1d.size_bytes, 32 * 1024);
/// assert_eq!(config.llc.associativity, 12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CpuConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Last-level cache geometry.
    pub llc: CacheConfig,
    /// Instruction TLB sizing.
    pub itlb: TlbConfig,
    /// Data TLB sizing.
    pub dtlb: TlbConfig,
    /// Branch predictor sizing.
    pub branch: BranchPredictorConfig,
    /// Core clock frequency in Hz (timing model only).
    pub clock_hz: u64,
    /// Sustained instructions per cycle absent stalls.
    pub base_ipc: f64,
    /// Penalty cycles for an L1 (I or D) miss that hits in the LLC.
    pub l1_miss_penalty: u64,
    /// Penalty cycles for an LLC miss (memory access).
    pub llc_miss_penalty: u64,
    /// Penalty cycles for a branch mispredict (pipeline flush).
    pub mispredict_penalty: u64,
    /// Penalty cycles for a TLB miss (page walk).
    pub tlb_miss_penalty: u64,
    /// Enable the L1D next-line prefetcher: a demand load miss also
    /// fills the following line, trading extra LLC traffic for fewer
    /// demand misses on streaming access patterns.
    pub next_line_prefetch: bool,
}

impl CpuConfig {
    /// The reference Haswell i5-4590 configuration.
    pub fn haswell() -> CpuConfig {
        CpuConfig {
            l1i: CacheConfig::haswell_l1(),
            l1d: CacheConfig::haswell_l1(),
            llc: CacheConfig::haswell_llc(),
            itlb: TlbConfig::haswell_itlb(),
            dtlb: TlbConfig::haswell_dtlb(),
            branch: BranchPredictorConfig::haswell(),
            clock_hz: 3_300_000_000,
            base_ipc: 2.0,
            l1_miss_penalty: 12,
            llc_miss_penalty: 200,
            mispredict_penalty: 15,
            tlb_miss_penalty: 30,
            next_line_prefetch: false,
        }
    }

    /// Haswell with the L1D next-line prefetcher enabled.
    pub fn haswell_prefetch() -> CpuConfig {
        CpuConfig {
            next_line_prefetch: true,
            ..CpuConfig::haswell()
        }
    }

    /// A deliberately small machine for fast unit tests: caches and TLBs
    /// shrunk by ~64x so locality effects appear within a few thousand
    /// instructions.
    pub fn tiny() -> CpuConfig {
        CpuConfig {
            l1i: CacheConfig {
                size_bytes: 1024,
                associativity: 2,
                line_bytes: 64,
            },
            l1d: CacheConfig {
                size_bytes: 1024,
                associativity: 2,
                line_bytes: 64,
            },
            llc: CacheConfig {
                size_bytes: 16 * 1024,
                associativity: 4,
                line_bytes: 64,
            },
            itlb: TlbConfig {
                entries: 8,
                page_bytes: 4096,
            },
            dtlb: TlbConfig {
                entries: 8,
                page_bytes: 4096,
            },
            branch: BranchPredictorConfig {
                pht_bits: 8,
                history_bits: 8,
                btb_bits: 6,
            },
            clock_hz: 1_000_000_000,
            base_ipc: 1.0,
            l1_miss_penalty: 10,
            llc_miss_penalty: 100,
            mispredict_penalty: 10,
            tlb_miss_penalty: 20,
            next_line_prefetch: false,
        }
    }

    /// Validate all component geometries.
    ///
    /// # Errors
    ///
    /// Returns the first failing component's message, prefixed with the
    /// component name.
    pub fn validate(&self) -> Result<(), String> {
        self.l1i.validate().map_err(|e| format!("l1i: {e}"))?;
        self.l1d.validate().map_err(|e| format!("l1d: {e}"))?;
        self.llc.validate().map_err(|e| format!("llc: {e}"))?;
        self.itlb.validate().map_err(|e| format!("itlb: {e}"))?;
        self.dtlb.validate().map_err(|e| format!("dtlb: {e}"))?;
        if self.clock_hz == 0 {
            return Err("clock_hz must be non-zero".to_owned());
        }
        if self.base_ipc <= 0.0 || self.base_ipc.is_nan() {
            return Err("base_ipc must be positive".to_owned());
        }
        Ok(())
    }
}

impl Default for CpuConfig {
    fn default() -> CpuConfig {
        CpuConfig::haswell()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haswell_validates() {
        assert!(CpuConfig::haswell().validate().is_ok());
        assert!(CpuConfig::tiny().validate().is_ok());
    }

    #[test]
    fn bad_component_is_reported_with_prefix() {
        let mut c = CpuConfig::haswell();
        c.llc.line_bytes = 48;
        let err = c.validate().unwrap_err();
        assert!(err.starts_with("llc:"), "{err}");
    }

    #[test]
    fn bad_tlb_is_reported_with_prefix() {
        let mut c = CpuConfig::haswell();
        c.dtlb.page_bytes = 3000;
        let err = c.validate().unwrap_err();
        assert!(err.starts_with("dtlb:"), "{err}");
    }

    #[test]
    fn zero_clock_rejected() {
        let mut c = CpuConfig::haswell();
        c.clock_hz = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn default_is_haswell() {
        assert_eq!(CpuConfig::default(), CpuConfig::haswell());
    }
}

//! Golden pin for the microarchitecture simulator: FNV-1a digests of
//! what `hbmd-uarch` produces under the collection setups the pipeline
//! uses. The simulator's caches, TLBs, issue model and synthetic
//! streams may be restructured for speed, but never so that one counter
//! bit moves — every dataset, model and verdict downstream is a pure
//! function of these windows. A changed digest here means the
//! simulator's output changed, not that the constant needs updating.

use hbmd::events::HpcEvent;
use hbmd::malware::{AppClass, Sample, SampleId};
use hbmd::obs::manifest::fnv1a_64;
use hbmd::perf::{Sampler, SamplerConfig};
use hbmd::uarch::{Cpu, CpuConfig};

const CATALOG_SEED: u64 = 2017;

/// One sample per class, as the catalog would mint them.
fn samples() -> Vec<Sample> {
    AppClass::ALL
        .iter()
        .enumerate()
        .map(|(i, &class)| Sample::generate(SampleId(i as u32), class, CATALOG_SEED))
        .collect()
}

/// Digest of the feature bits of every window of one sample per class.
fn collection_digest(config: SamplerConfig) -> u64 {
    let sampler = Sampler::new(config).expect("valid sampler config");
    let mut bytes = Vec::new();
    for sample in samples() {
        for window in sampler.collect_sample(&sample) {
            for value in window.as_slice() {
                bytes.extend_from_slice(&value.to_bits().to_le_bytes());
            }
        }
    }
    fnv1a_64(&bytes)
}

fn assert_digest(setup: &str, actual: u64, expected: u64) {
    assert_eq!(
        actual, expected,
        "{setup}: simulator output changed (digest {actual:#018x}, pinned {expected:#018x})"
    );
}

#[test]
fn paper_collection_is_pinned() {
    assert_digest(
        "paper",
        collection_digest(SamplerConfig::paper()),
        0xc283_6089_3beb_d2c4,
    );
}

#[test]
fn fast_collection_is_pinned() {
    assert_digest(
        "fast",
        collection_digest(SamplerConfig::fast()),
        0x03f9_3cfb_04a1_2800,
    );
}

#[test]
fn exact_counting_collection_is_pinned() {
    let config = SamplerConfig {
        pmu: None,
        ..SamplerConfig::paper()
    };
    assert_digest(
        "paper, exact counting",
        collection_digest(config),
        0xea37_a16a_59c4_99e5,
    );
}

#[test]
fn prefetching_collection_is_pinned() {
    let config = SamplerConfig {
        cpu: CpuConfig::haswell_prefetch(),
        ..SamplerConfig::paper()
    };
    assert_digest(
        "paper, next-line prefetch",
        collection_digest(config),
        0x5b10_fb34_ce7d_f7e6,
    );
}

/// The `ablate-noise` path: every window's instruction stream
/// interleaves benign host work on the sample's own fresh core.
#[test]
fn host_noise_collection_is_pinned() {
    let config = SamplerConfig {
        host_noise: 0.5,
        ..SamplerConfig::paper()
    };
    assert_digest(
        "paper, host noise 0.5",
        collection_digest(config),
        0x88dc_4a4c_dddf_0f7d,
    );
}

/// Raw counters and cycles of a fresh core per sample, with no sampler
/// in between: the cycle count pins the issue model.
#[test]
fn fresh_core_counters_and_cycles_are_pinned() {
    let mut bytes = Vec::new();
    for sample in samples() {
        let mut cpu = Cpu::new(CpuConfig::haswell());
        cpu.run(&mut sample.stream(), 60_000);
        for event in HpcEvent::ALL {
            bytes.extend_from_slice(&cpu.counters()[event].to_le_bytes());
        }
        let stats = cpu.stats();
        bytes.extend_from_slice(&stats.instructions.to_le_bytes());
        bytes.extend_from_slice(&stats.cycles.to_le_bytes());
    }
    assert_digest("fresh core", fnv1a_64(&bytes), 0xe966_e8ff_7e2e_3396);
}

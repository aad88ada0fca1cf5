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
use hbmd::uarch::{Cpu, CpuConfig, InstructionSource, StreamParams, SyntheticStream};

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

/// `Cpu::run` budgets, called in turn on one core: one instruction, a
/// few, and runs that end inside a phase and cross phase changes.
const BUDGETS: [u64; 4] = [1, 7, 2_500, 20_000];

/// Run `stream` on two fresh cores of `cpu`: one through `Cpu::run`,
/// which the stream drives directly, and one stepped through
/// `next_instruction` and `Cpu::execute`. After every budget both must
/// hold the same counters and stats. Appends the stepped core's
/// counters and cycles to `bytes`.
fn run_matches_stepping<S: InstructionSource + Clone>(
    at: &str,
    cpu: &CpuConfig,
    stream: S,
    bytes: &mut Vec<u8>,
) {
    let (mut run, mut stepped) = (Cpu::new(cpu.clone()), Cpu::new(cpu.clone()));
    let (mut run_stream, mut stepped_stream) = (stream.clone(), stream);
    for budget in BUDGETS {
        run.run(&mut run_stream, budget);
        for _ in 0..budget {
            let inst = stepped_stream.next_instruction();
            stepped.execute(inst.pc, inst.op);
        }
        assert_eq!(run.counters(), stepped.counters(), "{at}, budget {budget}");
        assert_eq!(run.stats(), stepped.stats(), "{at}, budget {budget}");
        for event in HpcEvent::ALL {
            bytes.extend_from_slice(&stepped.counters()[event].to_le_bytes());
        }
        bytes.extend_from_slice(&stepped.stats().cycles.to_le_bytes());
    }
}

/// The run loop and single steps share one step body, so they must
/// agree instruction for instruction, across phase changes and budget
/// boundaries; the digest pins what both produce. One sample per class
/// on each collection core, plus a near-branchless stream in a 4 KiB
/// code footprint, whose straight-line runs keep wrapping back to the
/// function entry. The host-noise interleave is crate-private to
/// `hbmd-perf` and checked the same way there (`container::tests`).
#[test]
fn run_matches_stepping_and_is_pinned() {
    let mut bytes = Vec::new();
    let setups = [
        ("paper", SamplerConfig::paper().cpu),
        ("fast", SamplerConfig::fast().cpu),
        ("next-line prefetch", CpuConfig::haswell_prefetch()),
    ];
    let straight_line = StreamParams {
        branch_frac: 0.005,
        code_footprint: 4096,
        ..StreamParams::balanced()
    };
    for (setup, cpu) in &setups {
        for sample in samples() {
            let at = format!("{setup}, {:?}", sample.class());
            run_matches_stepping(&at, cpu, sample.stream(), &mut bytes);
        }
        let stream = SyntheticStream::new(straight_line, 7);
        run_matches_stepping(&format!("{setup}, straight line"), cpu, stream, &mut bytes);
    }
    assert_digest("run vs stepping", fnv1a_64(&bytes), 0x0271_b533_0c1b_183e);
}

use rand::distributions::Bernoulli;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::core::Cpu;
use crate::inst::{Instruction, InstructionSink, InstructionSource};

/// Statistical description of a program phase's dynamic behaviour.
///
/// The synthetic substitute for running a real binary: instruction mix,
/// memory locality, code footprint and branch behaviour are the knobs
/// through which workloads (benign or malicious) express themselves in
/// hardware performance counters. Upper layers compose sequences of
/// `StreamParams` into per-malware-class behaviour profiles.
///
/// All `*_frac` fields are probabilities; `load_frac + store_frac +
/// branch_frac` must not exceed 1 (the remainder is ALU work).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamParams {
    /// Fraction of instructions that load from memory.
    pub load_frac: f64,
    /// Fraction of instructions that store to memory.
    pub store_frac: f64,
    /// Fraction of instructions that branch.
    pub branch_frac: f64,
    /// Bytes of data the phase actively touches.
    pub data_working_set: u64,
    /// Probability a memory access continues a sequential walk rather
    /// than jumping to a random location in the working set.
    pub data_locality: f64,
    /// Bytes of code the phase executes from.
    pub code_footprint: u64,
    /// Probability execution stays within the current function body
    /// rather than transferring to a random function.
    pub code_locality: f64,
    /// Probability a branch follows its per-site stable direction; the
    /// rest are coin flips with [`branch_taken_bias`](Self::branch_taken_bias).
    pub branch_predictability: f64,
    /// Taken probability for unpredictable branches.
    pub branch_taken_bias: f64,
}

impl StreamParams {
    /// A balanced, benign-looking mix: moderate loads/stores, small
    /// working set, good locality, predictable branches.
    pub fn balanced() -> StreamParams {
        StreamParams {
            load_frac: 0.25,
            store_frac: 0.10,
            branch_frac: 0.15,
            data_working_set: 64 * 1024,
            data_locality: 0.90,
            code_footprint: 16 * 1024,
            code_locality: 0.95,
            branch_predictability: 0.95,
            branch_taken_bias: 0.6,
        }
    }

    /// Check all probabilities are in range and the mix sums to at most 1.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("load_frac", self.load_frac),
            ("store_frac", self.store_frac),
            ("branch_frac", self.branch_frac),
            ("data_locality", self.data_locality),
            ("code_locality", self.code_locality),
            ("branch_predictability", self.branch_predictability),
            ("branch_taken_bias", self.branch_taken_bias),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} = {p} is outside [0, 1]"));
            }
        }
        let mix = self.load_frac + self.store_frac + self.branch_frac;
        if mix > 1.0 + 1e-9 {
            return Err(format!("instruction mix sums to {mix} > 1"));
        }
        if self.data_working_set == 0 {
            return Err("data_working_set must be non-zero".to_owned());
        }
        if self.code_footprint == 0 {
            return Err("code_footprint must be non-zero".to_owned());
        }
        Ok(())
    }
}

impl Default for StreamParams {
    fn default() -> StreamParams {
        StreamParams::balanced()
    }
}

/// Virtual-address layout used by every synthetic stream.
const CODE_BASE: u64 = 0x0040_0000;
const DATA_BASE: u64 = 0x1000_0000;
/// Average straight-line body length between branch targets, in
/// instructions (used to place function entry points).
const FUNCTION_GRAIN: u64 = 256;

/// Generates an endless dynamic instruction stream realising a
/// [`StreamParams`] behaviour description. Deterministic given the seed.
///
/// # Examples
///
/// ```
/// use hbmd_uarch::{InstructionSource, StreamParams, SyntheticStream};
///
/// let mut a = SyntheticStream::new(StreamParams::balanced(), 1);
/// let mut b = SyntheticStream::new(StreamParams::balanced(), 1);
/// for _ in 0..100 {
///     assert_eq!(a.next_instruction(), b.next_instruction());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticStream {
    params: StreamParams,
    phase: PhaseConstants,
    rng: SmallRng,
    pc: u64,
    function_base: u64,
    data_cursor: u64,
}

/// What each instruction would otherwise rederive from the current
/// [`StreamParams`]: computed once per phase, with the same arithmetic,
/// so every value is the same bit pattern.
#[derive(Debug, Clone, Copy)]
struct PhaseConstants {
    /// Data working set in bytes, at least 8.
    data_span: u64,
    /// Code footprint in bytes, at least 4.
    code_span: u64,
    /// One past the last code byte: `CODE_BASE + code_span`.
    code_end: u64,
    /// Function entry points in the code region, at least 1.
    functions: u64,
    /// An op roll (the 53 bits `gen::<f64>` scales into `[0, 1)`)
    /// below this loads: `threshold(load_frac)`.
    load_below: u64,
    /// A roll below this loads or stores:
    /// `threshold(load_frac + store_frac)`.
    memory_below: u64,
    /// A roll below this is not ALU work: `threshold(load_frac +
    /// store_frac + branch_frac)`, summed in that order.
    branch_below: u64,
    /// Draws of `data_locality`, `branch_predictability`,
    /// `branch_taken_bias` and `code_locality`, each consuming the words
    /// `gen_bool` with that probability would.
    data_locality: Bernoulli,
    branch_predictability: Bernoulli,
    branch_taken_bias: Bernoulli,
    code_locality: Bernoulli,
}

impl PhaseConstants {
    fn of(params: &StreamParams) -> PhaseConstants {
        let code_span = params.code_footprint.max(4);
        let memory_below = params.load_frac + params.store_frac;
        PhaseConstants {
            load_below: threshold(params.load_frac),
            data_span: params.data_working_set.max(8),
            code_span,
            code_end: CODE_BASE + code_span,
            functions: (code_span / (FUNCTION_GRAIN * 4)).max(1),
            memory_below: threshold(memory_below),
            branch_below: threshold(memory_below + params.branch_frac),
            data_locality: bernoulli(params.data_locality),
            branch_predictability: bernoulli(params.branch_predictability),
            branch_taken_bias: bernoulli(params.branch_taken_bias),
            code_locality: bernoulli(params.code_locality),
        }
    }
}

/// The integer form of `roll < frac` for a roll drawn as `gen::<f64>`:
/// that roll is exactly `r / 2^53` for the integer `r = next_u64() >>
/// 11`, and `frac * 2^53` is exact, so `roll < frac` holds exactly when
/// `r < ceil(frac * 2^53)`.
fn threshold(frac: f64) -> u64 {
    (frac * (1u64 << 53) as f64).ceil() as u64
}

/// A probability [`StreamParams::validate`] has already checked.
fn bernoulli(p: f64) -> Bernoulli {
    Bernoulli::new(p).expect("validated probability")
}

impl SyntheticStream {
    /// Build a stream realising `params`, seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics when `params` fails [`StreamParams::validate`] — behaviour
    /// profiles are authored constants, not runtime input.
    pub fn new(params: StreamParams, seed: u64) -> SyntheticStream {
        if let Err(msg) = params.validate() {
            panic!("invalid stream params: {msg}");
        }
        let phase = PhaseConstants::of(&params);
        let mut rng = SmallRng::seed_from_u64(seed);
        let function_base = CODE_BASE + (rng.gen_range(0..phase.code_span) & !3);
        let data_cursor = DATA_BASE + (rng.gen_range(0..phase.data_span) & !7);
        SyntheticStream {
            params,
            phase,
            rng,
            pc: function_base,
            function_base,
            data_cursor,
        }
    }

    /// The behaviour description this stream realises.
    pub fn params(&self) -> &StreamParams {
        &self.params
    }

    /// Replace the behaviour description mid-stream (phase change),
    /// keeping code/data cursors so phases blend like a real program.
    ///
    /// # Panics
    ///
    /// Panics when `params` fails [`StreamParams::validate`].
    pub fn set_params(&mut self, params: StreamParams) {
        if let Err(msg) = params.validate() {
            panic!("invalid stream params: {msg}");
        }
        self.params = params;
        self.phase = PhaseConstants::of(&params);
        // Re-clamp cursors into the possibly-smaller new regions.
        self.function_base = CODE_BASE + (self.function_base - CODE_BASE) % self.phase.code_span;
        self.pc = self.function_base;
        self.data_cursor = DATA_BASE + (self.data_cursor - DATA_BASE) % self.phase.data_span;
    }

    #[inline]
    fn next_data_addr(&mut self) -> u64 {
        let span = self.phase.data_span;
        if self.rng.sample(self.phase.data_locality) {
            // Sequential walk, wrapping within the working set. The
            // offset is always below `span` and `span >= 8`, so one
            // subtraction is the remainder.
            let mut offset = self.data_cursor - DATA_BASE + 8;
            if offset >= span {
                offset -= span;
            }
            self.data_cursor = DATA_BASE + offset;
        } else {
            self.data_cursor = DATA_BASE + (self.rng.gen_range(0..span) & !7);
        }
        self.data_cursor
    }

    /// Draw a branch: its target and whether it is taken.
    #[inline]
    fn next_branch(&mut self) -> (u64, bool) {
        let phase = &self.phase;
        let stable_taken = !(self.pc >> 2).is_multiple_of(8); // per-site stable pattern
        let taken = if self.rng.sample(phase.branch_predictability) {
            stable_taken
        } else {
            self.rng.sample(phase.branch_taken_bias)
        };
        let target = if self.rng.sample(phase.code_locality) {
            // Local transfer: loop back toward the function entry.
            self.function_base
        } else {
            // Call a random function in the code region.
            let which = self.rng.gen_range(0..phase.functions);
            CODE_BASE + which * FUNCTION_GRAIN * 4
        };
        (target, taken)
    }

    /// Produce the next `budget` instructions into `sink`.
    ///
    /// This is the stream's only step: [`next_instruction`] records one
    /// step into an [`Instruction`], and [`run_on`] drives a [`Cpu`]
    /// with no [`Op`] in between, so both see the same instructions.
    ///
    /// [`next_instruction`]: InstructionSource::next_instruction
    /// [`run_on`]: InstructionSource::run_on
    /// [`Op`]: crate::Op
    #[inline]
    pub fn drive<K: InstructionSink>(&mut self, sink: &mut K, budget: u64) {
        for _ in 0..budget {
            self.step(sink);
        }
    }

    /// One instruction: fetch, decode the op from one roll (the draw
    /// `gen::<f64>` would make, compared as an integer), deliver it,
    /// and advance the PC.
    #[inline(always)]
    fn step<K: InstructionSink>(&mut self, sink: &mut K) {
        let pc = self.pc;
        sink.fetch(pc);
        let roll = self.rng.next_u64() >> 11;
        if roll < self.phase.load_below {
            let addr = self.next_data_addr();
            sink.load(addr);
        } else if roll < self.phase.memory_below {
            let addr = self.next_data_addr();
            sink.store(addr);
        } else if roll < self.phase.branch_below {
            let (target, taken) = self.next_branch();
            sink.branch(pc, target, taken);
            if taken {
                // Redirect to the target.
                self.pc = target;
                self.function_base = target;
                return;
            }
        }
        // Fall through, keeping straight-line runs inside the code
        // footprint.
        self.pc = pc + 4;
        if self.pc >= self.phase.code_end {
            self.pc = self.function_base;
        }
    }
}

impl InstructionSource for SyntheticStream {
    #[inline]
    fn next_instruction(&mut self) -> Instruction {
        Instruction::recorded(|inst| self.step(inst))
    }

    fn run_on(&mut self, cpu: &mut Cpu, budget: u64) {
        self.drive(cpu, budget);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuConfig;
    use crate::inst::Op;
    use hbmd_events::HpcEvent;

    #[test]
    fn validate_rejects_bad_mix() {
        let mut p = StreamParams::balanced();
        p.load_frac = 0.7;
        p.store_frac = 0.5;
        assert!(p.validate().is_err());
        p = StreamParams::balanced();
        p.data_locality = 1.5;
        assert!(p.validate().is_err());
        p = StreamParams::balanced();
        p.data_working_set = 0;
        assert!(p.validate().is_err());
        assert!(StreamParams::balanced().validate().is_ok());
    }

    #[test]
    fn mix_fractions_are_respected() {
        let params = StreamParams {
            load_frac: 0.4,
            store_frac: 0.2,
            branch_frac: 0.1,
            ..StreamParams::balanced()
        };
        let mut s = SyntheticStream::new(params, 3);
        let n = 40_000;
        let mut loads = 0;
        let mut stores = 0;
        let mut branches = 0;
        for _ in 0..n {
            match s.next_instruction().op {
                Op::Load(_) => loads += 1,
                Op::Store(_) => stores += 1,
                Op::Branch { .. } => branches += 1,
                Op::Alu => {}
            }
        }
        let frac = |c: i32| c as f64 / n as f64;
        assert!((frac(loads) - 0.4).abs() < 0.02, "loads {}", frac(loads));
        assert!((frac(stores) - 0.2).abs() < 0.02, "stores {}", frac(stores));
        assert!(
            (frac(branches) - 0.1).abs() < 0.02,
            "branches {}",
            frac(branches)
        );
    }

    #[test]
    fn addresses_stay_in_their_regions() {
        let params = StreamParams {
            data_working_set: 4096,
            code_footprint: 4096,
            ..StreamParams::balanced()
        };
        let mut s = SyntheticStream::new(params, 9);
        for _ in 0..20_000 {
            let inst = s.next_instruction();
            assert!((CODE_BASE..CODE_BASE + 4096 + 4).contains(&inst.pc));
            match inst.op {
                Op::Load(a) | Op::Store(a) => {
                    assert!((DATA_BASE..DATA_BASE + 4096).contains(&a));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn determinism_given_seed() {
        let mut a = SyntheticStream::new(StreamParams::balanced(), 77);
        let mut b = SyntheticStream::new(StreamParams::balanced(), 77);
        for _ in 0..1_000 {
            assert_eq!(a.next_instruction(), b.next_instruction());
        }
        let mut c = SyntheticStream::new(StreamParams::balanced(), 78);
        let differs = (0..1_000).any(|_| a.next_instruction() != c.next_instruction());
        assert!(differs, "different seeds diverge");
    }

    #[test]
    fn bigger_working_set_means_more_dcache_misses() {
        let run = |ws: u64| {
            let params = StreamParams {
                data_working_set: ws,
                data_locality: 0.2,
                ..StreamParams::balanced()
            };
            let mut cpu = Cpu::new(CpuConfig::tiny());
            let mut s = SyntheticStream::new(params, 11);
            cpu.run(&mut s, 50_000);
            cpu.counters()[HpcEvent::L1DcacheLoadMisses]
        };
        let small = run(512);
        let large = run(1024 * 1024);
        assert!(
            large > small * 5,
            "large working set {large} vs small {small}"
        );
    }

    #[test]
    fn unpredictable_branches_mean_more_branch_misses() {
        let run = |pred: f64| {
            let params = StreamParams {
                branch_frac: 0.3,
                branch_predictability: pred,
                branch_taken_bias: 0.5,
                ..StreamParams::balanced()
            };
            let mut cpu = Cpu::new(CpuConfig::tiny());
            let mut s = SyntheticStream::new(params, 13);
            cpu.run(&mut s, 50_000);
            cpu.counters()[HpcEvent::BranchMisses]
        };
        let predictable = run(0.99);
        let chaotic = run(0.1);
        assert!(
            chaotic > predictable * 2,
            "chaotic {chaotic} vs predictable {predictable}"
        );
    }

    #[test]
    fn bigger_code_footprint_means_more_icache_misses() {
        let run = |code: u64, locality: f64| {
            let params = StreamParams {
                code_footprint: code,
                code_locality: locality,
                branch_frac: 0.25,
                ..StreamParams::balanced()
            };
            let mut cpu = Cpu::new(CpuConfig::tiny());
            let mut s = SyntheticStream::new(params, 17);
            cpu.run(&mut s, 50_000);
            cpu.counters()[HpcEvent::L1IcacheLoadMisses]
        };
        let tight = run(1024, 0.98);
        let sprawling = run(2 * 1024 * 1024, 0.3);
        assert!(
            sprawling > tight * 3,
            "sprawling {sprawling} vs tight {tight}"
        );
    }

    #[test]
    fn set_params_changes_behaviour_mid_stream() {
        let mut s = SyntheticStream::new(StreamParams::balanced(), 5);
        for _ in 0..100 {
            s.next_instruction();
        }
        let heavy_store = StreamParams {
            load_frac: 0.0,
            store_frac: 0.9,
            branch_frac: 0.0,
            ..StreamParams::balanced()
        };
        s.set_params(heavy_store);
        let stores = (0..1_000)
            .filter(|_| matches!(s.next_instruction().op, Op::Store(_)))
            .count();
        assert!(stores > 800, "store-heavy phase produced {stores} stores");
    }
}

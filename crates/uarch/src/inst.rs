use crate::core::Cpu;

/// Operation performed by one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Integer/FP computation with no memory or control-flow side effect.
    Alu,
    /// Load from the given virtual byte address.
    Load(u64),
    /// Store to the given virtual byte address.
    Store(u64),
    /// Conditional or unconditional branch.
    Branch {
        /// Branch target address.
        target: u64,
        /// Whether the branch is taken this dynamic instance.
        taken: bool,
    },
}

/// One dynamic instruction: a program-counter value plus an operation.
///
/// The PC drives instruction-fetch modelling (L1I and iTLB traffic); the
/// operation drives the data side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// Virtual address the instruction was fetched from.
    pub pc: u64,
    /// Operation performed.
    pub op: Op,
}

impl Instruction {
    /// Convenience constructor.
    pub fn new(pc: u64, op: Op) -> Instruction {
        Instruction { pc, op }
    }

    /// The instruction `produce` delivers when given an [`Instruction`]
    /// as its [`InstructionSink`]: how a stream written against the sink
    /// implements [`InstructionSource::next_instruction`].
    #[inline]
    pub fn recorded(produce: impl FnOnce(&mut Instruction)) -> Instruction {
        let mut inst = Instruction::new(0, Op::Alu);
        produce(&mut inst);
        inst
    }
}

/// Where an instruction stream delivers each instruction it produces:
/// one [`fetch`](InstructionSink::fetch), then at most one data or
/// control operation. No operation after a fetch is an [`Op::Alu`].
///
/// [`Cpu`] executes what it receives; an [`Instruction`] records it.
/// A stream written once against this trait therefore both feeds the
/// core directly ([`InstructionSource::run_on`]) and yields the same
/// instructions one at a time ([`InstructionSource::next_instruction`]).
pub trait InstructionSink {
    /// An instruction is fetched from `pc`.
    fn fetch(&mut self, pc: u64);
    /// The fetched instruction loads from `addr`.
    fn load(&mut self, addr: u64);
    /// The fetched instruction stores to `addr`.
    fn store(&mut self, addr: u64);
    /// The instruction fetched from `pc` branches to `target`, `taken`
    /// or not.
    fn branch(&mut self, pc: u64, target: u64, taken: bool);
}

/// Records the last instruction delivered: a fetch starts a new ALU
/// instruction and an operation replaces its `op`.
impl InstructionSink for Instruction {
    #[inline]
    fn fetch(&mut self, pc: u64) {
        *self = Instruction { pc, op: Op::Alu };
    }

    #[inline]
    fn load(&mut self, addr: u64) {
        self.op = Op::Load(addr);
    }

    #[inline]
    fn store(&mut self, addr: u64) {
        self.op = Op::Store(addr);
    }

    #[inline]
    fn branch(&mut self, _pc: u64, target: u64, taken: bool) {
        self.op = Op::Branch { target, taken };
    }
}

/// A producer of dynamic instructions for the CPU model to execute.
///
/// Implementations range from replaying recorded traces to the
/// behaviour-profile-driven [`SyntheticStream`](crate::SyntheticStream).
/// The trait is object-safe so heterogeneous workloads can be boxed.
pub trait InstructionSource {
    /// Produce the next dynamic instruction.
    ///
    /// Sources in this suite are endless generators; the CPU decides how
    /// many instructions constitute a sampling window.
    fn next_instruction(&mut self) -> Instruction;

    /// Execute the next `budget` instructions on `cpu`.
    ///
    /// [`Cpu::run`] hands the core to the source through this method.
    /// The default steps [`next_instruction`](Self::next_instruction)
    /// and [`Cpu::execute`]. A source that can deliver straight to an
    /// [`InstructionSink`] overrides it to skip building an
    /// [`Instruction`] and matching on its [`Op`]; the counters must
    /// come out the same either way.
    fn run_on(&mut self, cpu: &mut Cpu, budget: u64) {
        for _ in 0..budget {
            let inst = self.next_instruction();
            cpu.execute(inst.pc, inst.op);
        }
    }
}

impl<S: InstructionSource + ?Sized> InstructionSource for &mut S {
    fn next_instruction(&mut self) -> Instruction {
        (**self).next_instruction()
    }

    fn run_on(&mut self, cpu: &mut Cpu, budget: u64) {
        (**self).run_on(cpu, budget);
    }
}

impl<S: InstructionSource + ?Sized> InstructionSource for Box<S> {
    fn next_instruction(&mut self) -> Instruction {
        (**self).next_instruction()
    }

    fn run_on(&mut self, cpu: &mut Cpu, budget: u64) {
        (**self).run_on(cpu, budget);
    }
}

/// Replays a fixed instruction sequence, cycling at the end.
///
/// Useful in tests where exact event counts must be hand-computable.
///
/// # Examples
///
/// ```
/// use hbmd_uarch::{Instruction, InstructionSource, Op};
/// use hbmd_uarch::trace_source;
///
/// let mut src = trace_source(vec![
///     Instruction::new(0x40_0000, Op::Alu),
///     Instruction::new(0x40_0004, Op::Load(0x1000)),
/// ]);
/// assert_eq!(src.next_instruction().pc, 0x40_0000);
/// assert_eq!(src.next_instruction().pc, 0x40_0004);
/// assert_eq!(src.next_instruction().pc, 0x40_0000); // cycles
/// ```
#[derive(Debug, Clone)]
pub struct TraceSource {
    trace: Vec<Instruction>,
    cursor: usize,
}

/// Build a [`TraceSource`] over `trace`.
///
/// # Panics
///
/// Panics when `trace` is empty — an empty trace can produce nothing.
pub fn trace_source(trace: Vec<Instruction>) -> TraceSource {
    assert!(
        !trace.is_empty(),
        "trace must contain at least one instruction"
    );
    TraceSource { trace, cursor: 0 }
}

impl InstructionSource for TraceSource {
    fn next_instruction(&mut self) -> Instruction {
        let inst = self.trace[self.cursor];
        self.cursor = (self.cursor + 1) % self.trace.len();
        inst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_source_cycles() {
        let mut src = trace_source(vec![
            Instruction::new(0, Op::Alu),
            Instruction::new(4, Op::Store(64)),
        ]);
        let seq: Vec<u64> = (0..5).map(|_| src.next_instruction().pc).collect();
        assert_eq!(seq, vec![0, 4, 0, 4, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one instruction")]
    fn empty_trace_panics() {
        let _ = trace_source(Vec::new());
    }

    #[test]
    fn source_is_object_safe_and_blanket_impls_work() {
        let mut boxed: Box<dyn InstructionSource> =
            Box::new(trace_source(vec![Instruction::new(8, Op::Alu)]));
        assert_eq!(boxed.next_instruction().pc, 8);
        let by_ref: &mut dyn InstructionSource = &mut boxed;
        assert_eq!(by_ref.next_instruction().pc, 8);
    }
}

use hbmd_events::{CounterSet, HpcEvent};

use crate::branch::BranchPredictor;
use crate::cache::{Access, Cache};
use crate::config::CpuConfig;
use crate::inst::{InstructionSink, InstructionSource, Op};
use crate::tlb::Tlb;

/// Aggregate timing results of an execution window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecutionStats {
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Cycles consumed (base issue plus stall penalties).
    pub cycles: u64,
}

/// The simulated core: front end (L1I, iTLB, branch predictor), data side
/// (L1D, dTLB), a shared LLC and memory-node traffic accounting.
///
/// Executing instructions increments the same 16 events the reference
/// platform's PMU exposes; the mapping from microarchitectural incident
/// to event is documented on [`Cpu::execute`].
///
/// # Examples
///
/// ```
/// use hbmd_uarch::{Cpu, CpuConfig, Instruction, Op, trace_source};
/// use hbmd_events::HpcEvent;
///
/// let mut cpu = Cpu::new(CpuConfig::tiny());
/// let mut stream = trace_source(vec![
///     Instruction::new(0x40_0000, Op::Load(0x10_0000)),
/// ]);
/// cpu.run(&mut stream, 100);
/// assert_eq!(cpu.counters()[HpcEvent::L1DcacheLoads], 100);
/// ```
#[derive(Debug, Clone)]
pub struct Cpu {
    config: CpuConfig,
    l1i: Cache,
    l1d: Cache,
    llc: Cache,
    itlb: Tlb,
    dtlb: Tlb,
    branch: BranchPredictor,
    counters: CounterSet,
    /// Instructions executed since construction or reset. None of them
    /// is issued yet: [`Cpu::stats`] settles their base issue cost.
    instructions: u64,
    /// Stall penalties charged over those instructions.
    stall_cycles: u64,
    /// `1.0 / config.base_ipc`: the issue cost of one instruction.
    cycles_per_instruction: f64,
}

impl Cpu {
    /// Build a core from a machine description.
    ///
    /// # Panics
    ///
    /// Panics when `config` fails [`CpuConfig::validate`].
    pub fn new(config: CpuConfig) -> Cpu {
        if let Err(msg) = config.validate() {
            panic!("invalid cpu config: {msg}");
        }
        Cpu {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            llc: Cache::new(config.llc),
            itlb: Tlb::new(config.itlb),
            dtlb: Tlb::new(config.dtlb),
            branch: BranchPredictor::new(config.branch),
            counters: CounterSet::new(),
            instructions: 0,
            stall_cycles: 0,
            cycles_per_instruction: 1.0 / config.base_ipc,
            config,
        }
    }

    /// Machine description this core was built with.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Accumulated event counts since construction or [`reset`](Cpu::reset).
    pub fn counters(&self) -> &CounterSet {
        &self.counters
    }

    /// Timing statistics since construction or reset.
    ///
    /// The base issue cost is settled here rather than per instruction:
    /// a fractional cycle debt gains `1 / base_ipc` per instruction and
    /// sheds its whole cycles, step by step in `f64`, so this walks every
    /// instruction executed since the last reset (a few ns each).
    pub fn stats(&self) -> ExecutionStats {
        let mut debt = 0.0_f64;
        let mut issued_cycles = 0;
        for _ in 0..self.instructions {
            debt += self.cycles_per_instruction;
            let issued = debt as u64;
            debt -= issued as f64;
            issued_cycles += issued;
        }
        ExecutionStats {
            instructions: self.instructions,
            cycles: issued_cycles + self.stall_cycles,
        }
    }

    /// Execute `budget` instructions drawn from `source`.
    ///
    /// The source drives the core through
    /// [`InstructionSource::run_on`]: a stream that delivers straight to
    /// the core's [`InstructionSink`] methods decodes each instruction
    /// once, with no [`Op`] in between.
    pub fn run<S: InstructionSource>(&mut self, source: &mut S, budget: u64) {
        // One coarse add per run keeps the per-instruction loop free of
        // registry traffic.
        hbmd_obs::add("uarch.instructions_simulated", budget);
        source.run_on(self, budget);
    }

    /// Execute one instruction, updating counters and timing: a
    /// [`fetch`](InstructionSink::fetch) from `pc`, then the method of
    /// the [`InstructionSink`] that `op` names.
    ///
    /// Event mapping:
    ///
    /// | incident | events |
    /// |---|---|
    /// | every branch | `branch-instructions`, `branch-loads` (BTB read) |
    /// | mispredict | `branch-misses` |
    /// | BTB miss | `branch-load-misses` |
    /// | fetch from a new line, L1I miss | `L1-icache-load-misses`, LLC ref |
    /// | fetch page iTLB miss | `iTLB-load-misses` |
    /// | load | `L1-dcache-loads` |
    /// | load L1D miss | `L1-dcache-load-misses`, LLC ref (`LLC-loads`) |
    /// | load LLC miss | `LLC-load-misses`, `cache-misses`, `node-loads` |
    /// | store | `L1-dcache-stores` |
    /// | store L1D miss | LLC ref (write-allocate) |
    /// | store LLC miss / dirty eviction | `cache-misses`, `node-stores` |
    /// | data page dTLB miss | `dTLB-load-misses` |
    /// | any LLC-visible reference | `cache-references` |
    ///
    /// Stall penalties are charged as they occur; the base issue cost is
    /// settled in [`stats`](Cpu::stats).
    #[inline]
    pub fn execute(&mut self, pc: u64, op: Op) {
        self.fetch(pc);
        match op {
            Op::Alu => {}
            Op::Load(addr) => self.load(addr),
            Op::Store(addr) => self.store(addr),
            Op::Branch { target, taken } => self.branch(pc, target, taken),
        }
    }

    /// Next-line prefetch: fill `addr`'s line into L1D and LLC without
    /// charging demand-load events or stall penalties; the traffic is
    /// still LLC-visible (`cache-references`) and may reach the memory
    /// node, exactly as hardware prefetches appear in the counters.
    fn prefetch_line(&mut self, addr: u64) {
        if let Access::Miss { .. } = self.l1d.access(addr, false) {
            self.counters.record(HpcEvent::CacheReferences, 1);
            if let Access::Miss { .. } = self.llc.access(addr, false) {
                self.counters.record(HpcEvent::CacheMisses, 1);
                self.counters.record(HpcEvent::NodeLoads, 1);
            }
        }
    }

    /// An L1D dirty eviction writes through the LLC; an LLC miss on that
    /// writeback drains to the memory node.
    fn drain_writeback(&mut self, victim_addr_hint: u64) {
        // The victim's address is unknown (the cache only tracks tags);
        // modelling the writeback as an LLC store to a neighbouring line
        // preserves the traffic volume, which is what the counters see.
        self.counters.record(HpcEvent::CacheReferences, 1);
        if let Access::Miss { .. } = self.llc.access(victim_addr_hint ^ 0x40, true) {
            self.counters.record(HpcEvent::CacheMisses, 1);
            self.counters.record(HpcEvent::NodeStores, 1);
        }
    }

    /// Clear all caches, predictor state, counters and statistics —
    /// equivalent to launching the workload on a fresh core.
    pub fn reset(&mut self) {
        self.l1i.reset();
        self.l1d.reset();
        self.llc.reset();
        self.itlb.reset();
        self.dtlb.reset();
        self.branch.reset();
        self.counters = CounterSet::new();
        self.instructions = 0;
        self.stall_cycles = 0;
    }
}

impl InstructionSink for Cpu {
    /// Front end: the iTLB, then the L1I and, past it, the LLC.
    #[inline]
    fn fetch(&mut self, pc: u64) {
        let mut penalty = 0;
        if !self.itlb.access(pc) {
            self.counters.record(HpcEvent::ItlbLoadMisses, 1);
            penalty += self.config.tlb_miss_penalty;
        }
        if let Access::Miss { .. } = self.l1i.access(pc, false) {
            self.counters.record(HpcEvent::L1IcacheLoadMisses, 1);
            self.counters.record(HpcEvent::CacheReferences, 1);
            penalty += self.config.l1_miss_penalty;
            if let Access::Miss { .. } = self.llc.access(pc, false) {
                self.counters.record(HpcEvent::CacheMisses, 1);
                self.counters.record(HpcEvent::NodeLoads, 1);
                penalty += self.config.llc_miss_penalty;
            }
        }
        self.instructions += 1;
        self.stall_cycles += penalty;
    }

    #[inline]
    fn load(&mut self, addr: u64) {
        let mut penalty = 0;
        self.counters.record(HpcEvent::L1DcacheLoads, 1);
        if !self.dtlb.access(addr) {
            self.counters.record(HpcEvent::DtlbLoadMisses, 1);
            penalty += self.config.tlb_miss_penalty;
        }
        if let Access::Miss { writeback } = self.l1d.access(addr, false) {
            self.counters.record(HpcEvent::L1DcacheLoadMisses, 1);
            self.counters.record(HpcEvent::CacheReferences, 1);
            self.counters.record(HpcEvent::LlcLoads, 1);
            penalty += self.config.l1_miss_penalty;
            if writeback {
                self.drain_writeback(addr);
            }
            if let Access::Miss { writeback } = self.llc.access(addr, false) {
                self.counters.record(HpcEvent::CacheMisses, 1);
                self.counters.record(HpcEvent::LlcLoadMisses, 1);
                self.counters.record(HpcEvent::NodeLoads, 1);
                penalty += self.config.llc_miss_penalty;
                if writeback {
                    self.counters.record(HpcEvent::NodeStores, 1);
                }
            }
            if self.config.next_line_prefetch {
                self.prefetch_line(addr + self.config.l1d.line_bytes as u64);
            }
        }
        self.stall_cycles += penalty;
    }

    #[inline]
    fn store(&mut self, addr: u64) {
        let mut penalty = 0;
        self.counters.record(HpcEvent::L1DcacheStores, 1);
        if !self.dtlb.access(addr) {
            self.counters.record(HpcEvent::DtlbLoadMisses, 1);
            penalty += self.config.tlb_miss_penalty;
        }
        if let Access::Miss { writeback } = self.l1d.access(addr, true) {
            // Write-allocate: the fill is an LLC-visible reference.
            self.counters.record(HpcEvent::CacheReferences, 1);
            penalty += self.config.l1_miss_penalty;
            if writeback {
                self.drain_writeback(addr);
            }
            if let Access::Miss { writeback } = self.llc.access(addr, true) {
                self.counters.record(HpcEvent::CacheMisses, 1);
                self.counters.record(HpcEvent::NodeStores, 1);
                penalty += self.config.llc_miss_penalty;
                if writeback {
                    self.counters.record(HpcEvent::NodeStores, 1);
                }
            }
        }
        self.stall_cycles += penalty;
    }

    /// Every branch reads the BTB; the outcome is counted without a
    /// branch on it.
    #[inline]
    fn branch(&mut self, pc: u64, target: u64, taken: bool) {
        self.counters.record(HpcEvent::BranchInstructions, 1);
        self.counters.record(HpcEvent::BranchLoads, 1);
        let outcome = self.branch.predict_and_train(pc, taken, target);
        let mispredicted = u64::from(outcome.mispredicted);
        self.counters.record(HpcEvent::BranchMisses, mispredicted);
        self.counters
            .record(HpcEvent::BranchLoadMisses, u64::from(outcome.btb_miss));
        self.stall_cycles += mispredicted * self.config.mispredict_penalty;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{trace_source, Instruction, InstructionSource};

    fn cpu() -> Cpu {
        Cpu::new(CpuConfig::tiny())
    }

    #[test]
    fn alu_only_stream_touches_only_fetch_events() {
        let mut c = cpu();
        // Tight 2-instruction loop: fetch stays within one line/page.
        let mut s = trace_source(vec![
            Instruction::new(0x40_0000, Op::Alu),
            Instruction::new(0x40_0004, Op::Alu),
        ]);
        c.run(&mut s, 1000);
        let k = c.counters();
        assert_eq!(k[HpcEvent::L1DcacheLoads], 0);
        assert_eq!(k[HpcEvent::L1DcacheStores], 0);
        assert_eq!(k[HpcEvent::BranchInstructions], 0);
        assert_eq!(k[HpcEvent::L1IcacheLoadMisses], 1, "one cold fetch miss");
        assert_eq!(k[HpcEvent::ItlbLoadMisses], 1, "one cold page miss");
    }

    #[test]
    fn loads_count_and_miss_hierarchically() {
        let mut c = cpu();
        let mut s = trace_source(vec![Instruction::new(0x40_0000, Op::Load(0x10_0000))]);
        c.run(&mut s, 50);
        let k = c.counters();
        assert_eq!(k[HpcEvent::L1DcacheLoads], 50);
        assert_eq!(k[HpcEvent::L1DcacheLoadMisses], 1, "only the cold miss");
        assert_eq!(k[HpcEvent::LlcLoads], 1);
        assert_eq!(k[HpcEvent::LlcLoadMisses], 1);
        assert_eq!(k[HpcEvent::NodeLoads], 2, "1 data + 1 ifetch");
    }

    #[test]
    fn stores_generate_node_traffic_on_llc_miss() {
        let mut c = cpu();
        let mut s = trace_source(vec![Instruction::new(0x40_0000, Op::Store(0x20_0000))]);
        c.run(&mut s, 10);
        let k = c.counters();
        assert_eq!(k[HpcEvent::L1DcacheStores], 10);
        assert_eq!(k[HpcEvent::NodeStores], 1, "cold store drains once");
    }

    #[test]
    fn branches_update_branch_events() {
        let mut c = cpu();
        let mut s = trace_source(vec![Instruction::new(
            0x40_0000,
            Op::Branch {
                target: 0x40_0040,
                taken: true,
            },
        )]);
        c.run(&mut s, 100);
        let k = c.counters();
        assert_eq!(k[HpcEvent::BranchInstructions], 100);
        assert_eq!(k[HpcEvent::BranchLoads], 100);
        assert!(k[HpcEvent::BranchMisses] <= 3, "loop branch learns fast");
        assert_eq!(k[HpcEvent::BranchLoadMisses], 1, "single cold BTB miss");
    }

    #[test]
    fn streaming_large_array_thrashes_dcache() {
        let mut c = cpu();
        // 1 MiB stream >> 16 KiB tiny LLC.
        let trace: Vec<Instruction> = (0..16_384u64)
            .map(|i| Instruction::new(0x40_0000, Op::Load(0x100_0000 + i * 64)))
            .collect();
        let mut s = trace_source(trace);
        c.run(&mut s, 16_384);
        let k = c.counters();
        assert_eq!(k[HpcEvent::L1DcacheLoadMisses], 16_384, "every line cold");
        assert_eq!(k[HpcEvent::LlcLoadMisses], 16_384);
    }

    #[test]
    fn ipc_degrades_with_memory_stalls() {
        let mut fast = cpu();
        let mut s = trace_source(vec![
            Instruction::new(0x40_0000, Op::Alu),
            Instruction::new(0x40_0004, Op::Alu),
        ]);
        fast.run(&mut s, 10_000);

        let mut slow = cpu();
        let trace: Vec<Instruction> = (0..4096u64)
            .map(|i| Instruction::new(0x40_0000, Op::Load(0x100_0000 + i * 4096)))
            .collect();
        let mut s = trace_source(trace);
        slow.run(&mut s, 10_000);

        // IPC fast > 3 × IPC slow, cross-multiplied over whole counts.
        let (fast, slow) = (fast.stats(), slow.stats());
        assert!(fast.instructions * slow.cycles > 3 * slow.instructions * fast.cycles);
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut c = cpu();
        let mut s = trace_source(vec![Instruction::new(0x40_0000, Op::Load(0x10_0000))]);
        c.run(&mut s, 10);
        c.reset();
        assert!(c.counters().is_zero());
        assert_eq!(c.stats(), ExecutionStats::default());
        c.run(&mut s, 1);
        assert_eq!(
            c.counters()[HpcEvent::L1DcacheLoadMisses],
            1,
            "cache is cold again"
        );
    }

    #[test]
    fn next_line_prefetch_cuts_streaming_demand_misses() {
        let stream_trace = || {
            let trace: Vec<Instruction> = (0..2048u64)
                .map(|i| Instruction::new(0x40_0000, Op::Load(0x100_0000 + i * 64)))
                .collect();
            trace_source(trace)
        };
        let mut plain = Cpu::new(CpuConfig::tiny());
        plain.run(&mut stream_trace(), 2048);

        let mut prefetching = Cpu::new(CpuConfig {
            next_line_prefetch: true,
            ..CpuConfig::tiny()
        });
        prefetching.run(&mut stream_trace(), 2048);

        let plain_misses = plain.counters()[HpcEvent::L1DcacheLoadMisses];
        let prefetch_misses = prefetching.counters()[HpcEvent::L1DcacheLoadMisses];
        assert!(
            prefetch_misses <= plain_misses / 2,
            "prefetch {prefetch_misses} vs demand-only {plain_misses}"
        );
        // The traffic does not vanish: it moves to prefetch references.
        assert!(
            prefetching.counters()[HpcEvent::CacheReferences]
                >= plain.counters()[HpcEvent::CacheReferences] / 2
        );
    }

    #[test]
    fn stall_free_cycles_are_instructions_over_base_ipc() {
        let mut c = cpu();
        let mut s = trace_source(vec![
            Instruction::new(0x40_0000, Op::Alu),
            Instruction::new(0x40_0004, Op::Alu),
        ]);
        c.run(&mut s, 2); // the cold fetch misses
        let warm = c.stats().cycles;
        c.run(&mut s, 10_000);
        let stats = c.stats();
        assert_eq!(stats.instructions, 10_002);
        let expected = (10_000.0 / c.config().base_ipc) as u64;
        assert!(stats.cycles - warm >= expected - 1 && stats.cycles - warm <= expected + 1);
    }

    #[test]
    fn stats_settle_the_same_whenever_they_are_read() {
        let trace: Vec<Instruction> = (0..512u64)
            .map(|i| {
                let op = match i % 5 {
                    0 => Op::Load(0x10_0000 + i * 4160),
                    1 => Op::Store(0x20_0000 + i * 64),
                    2 => Op::Branch {
                        target: 0x40_1000,
                        taken: i % 3 == 0,
                    },
                    _ => Op::Alu,
                };
                Instruction::new(0x40_0000 + (i % 48) * 4, op)
            })
            .collect();
        for base_ipc in [2.0, 3.0, 0.7, 1.3] {
            let config = CpuConfig {
                base_ipc,
                ..CpuConfig::tiny()
            };
            let (mut polled, mut once) = (Cpu::new(config.clone()), Cpu::new(config));
            let mut polled_stream = trace_source(trace.clone());
            let mut once_stream = trace_source(trace.clone());
            let mut previous = ExecutionStats::default();
            for step in 0..1_500 {
                if step == 700 {
                    polled.reset();
                    once.reset();
                    previous = ExecutionStats::default();
                }
                let inst = polled_stream.next_instruction();
                polled.execute(inst.pc, inst.op);
                let stats = polled.stats();
                assert_eq!(stats.instructions, previous.instructions + 1);
                assert!(stats.cycles >= previous.cycles, "cycles never run back");
                previous = stats;
                let inst = once_stream.next_instruction();
                once.execute(inst.pc, inst.op);
            }
            assert_eq!(polled.stats(), once.stats(), "base_ipc {base_ipc}");
            assert_eq!(once.stats().instructions, 800);

            // Past the cold fetch an ALU loop never stalls, so each
            // instruction's cycles are what the per-instruction float
            // chain issues for it.
            let mut alu = Cpu::new(CpuConfig {
                base_ipc,
                ..CpuConfig::tiny()
            });
            let mut alu_stream = trace_source(vec![
                Instruction::new(0x40_0000, Op::Alu),
                Instruction::new(0x40_0004, Op::Alu),
            ]);
            let cycles_per_instruction = 1.0 / base_ipc;
            let mut debt = cycles_per_instruction;
            debt -= (debt as u64) as f64;
            alu.run(&mut alu_stream, 1);
            let mut previous = alu.stats().cycles;
            for step in 1..1_000 {
                debt += cycles_per_instruction;
                let issued = debt as u64;
                debt -= issued as f64;
                alu.run(&mut alu_stream, 1);
                let cycles = alu.stats().cycles;
                assert_eq!(
                    cycles - previous,
                    issued,
                    "base_ipc {base_ipc}, step {step}"
                );
                previous = cycles;
            }
        }
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = || {
            let mut c = cpu();
            let trace: Vec<Instruction> = (0..256u64)
                .map(|i| {
                    let op = match i % 4 {
                        0 => Op::Load(0x10_0000 + i * 128),
                        1 => Op::Store(0x20_0000 + i * 256),
                        2 => Op::Branch {
                            target: 0x40_1000,
                            taken: i % 8 < 4,
                        },
                        _ => Op::Alu,
                    };
                    Instruction::new(0x40_0000 + (i % 32) * 4, op)
                })
                .collect();
            let mut s = trace_source(trace);
            c.run(&mut s, 4096);
            *c.counters()
        };
        assert_eq!(run(), run());
    }
}

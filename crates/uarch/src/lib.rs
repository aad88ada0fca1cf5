//! A Haswell-shaped microarchitecture simulator that emits hardware
//! performance counter events.
//!
//! The reference evaluation ran live malware on an Intel Haswell i5-4590
//! and read its PMU. This crate is the synthetic substitute: a
//! deterministic CPU model with the same *mechanisms* that generate the
//! 16 collected events —
//!
//! * set-associative, LRU [`Cache`]s (32 KiB 8-way L1I and L1D, 6 MiB
//!   12-way LLC, 64-byte lines),
//! * a gshare [`BranchPredictor`] with a branch target buffer,
//! * instruction and data [`Tlb`]s,
//! * a memory-node traffic model (counter reads/writes that escape the
//!   LLC).
//!
//! A [`Cpu`] executes an [`InstructionSource`] and accumulates a
//! [`CounterSet`](hbmd_events::CounterSet). Program behaviour (locality,
//! branchiness, code footprint, store intensity) is expressed as
//! [`StreamParams`] and realised by [`SyntheticStream`], which upper
//! layers compose into per-malware-class behaviour profiles.
//!
//! Everything is deterministic given a seed: the same `(config, params,
//! seed)` triple always yields the same counter values.
//!
//! # Examples
//!
//! ```
//! use hbmd_uarch::{Cpu, CpuConfig, StreamParams, SyntheticStream};
//! use hbmd_events::HpcEvent;
//!
//! let mut cpu = Cpu::new(CpuConfig::haswell());
//! let params = StreamParams::balanced();
//! let mut stream = SyntheticStream::new(params, 42);
//! cpu.run(&mut stream, 10_000);
//!
//! let counts = cpu.counters();
//! assert!(counts[HpcEvent::BranchInstructions] > 0);
//! assert!(counts[HpcEvent::L1DcacheLoads] > 0);
//! ```

mod branch;
mod cache;
mod config;
mod core;
mod inst;
mod synth;
mod tlb;

pub use crate::core::{Cpu, ExecutionStats};
pub use branch::{BranchOutcome, BranchPredictor, BranchPredictorConfig};
pub use cache::{Access, Cache, CacheConfig};
pub use config::CpuConfig;
pub use inst::{trace_source, Instruction, InstructionSink, InstructionSource, Op, TraceSource};
pub use synth::{StreamParams, SyntheticStream};
pub use tlb::{Tlb, TlbConfig};

//! # decache-machine
//!
//! The cycle-based MIMD shared-bus machine simulator: processing
//! elements ([`Processor`]) issue memory operations ([`MemOp`]) through
//! private snooping caches governed by a `decache-core` protocol, over
//! one or more arbitrated shared buses, against a common memory.
//!
//! Each bus cycle the machine (see [`Machine::step`]):
//!
//! 1. lets every idle PE issue one operation — cache hits complete
//!    immediately and silently; misses enqueue a bus request and stall;
//! 2. grants one transaction per bus (retry lane first, then the
//!    arbiter);
//! 3. executes the transaction against memory and dispatches the snoop
//!    to every other cache holding the line, applying the protocol's
//!    reaction (state change, data capture, or interrupt-and-supply with
//!    next-cycle retry).
//!
//! Test-and-Set is sequenced by the cache controller as a locked bus
//! read followed (only on success) by an unlocking bus write, exactly as
//! in Section 6 of the paper; a failing TS is "treated as a non-cachable
//! read".
//!
//! # Examples
//!
//! Two PEs communicate through a shared word under RB:
//!
//! ```
//! use decache_core::{LineState, ProtocolKind};
//! use decache_machine::{MachineBuilder, Script};
//! use decache_mem::{Addr, Word};
//!
//! let flag = Addr::new(0);
//! let mut machine = MachineBuilder::new(ProtocolKind::Rb)
//!     .processor(Script::new().write(flag, Word::new(7)).build())
//!     .processor(Script::new().read(flag).read(flag).build())
//!     .build();
//! machine.run_to_completion(1_000);
//! assert_eq!(machine.memory().peek(flag).unwrap(), Word::new(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod caches;
mod fault;
mod machine;
mod op;
mod outcome;
mod processor;
mod recovery;
mod sharers;
mod snapshot;
mod stats;
mod status;
mod telemetry;
mod trace;

pub use builder::{MachineBuilder, MAX_BUSES, MAX_PES};
pub use fault::{
    FailStopPolicy, FaultKind, FaultPlan, FaultStats, InjectError, RecoveryPolicy, RecoverySource,
};
pub use machine::checkpoint::{
    CacheStatsCheckpoint, CheckpointError, FaultClockEntry, FaultEngineCheckpoint,
    HistogramCheckpoint, MachineCheckpoint, MemoryCheckpoint, PendingCheckpoint, RestoreError,
    StatusCheckpoint, TelemetryCheckpoint, CHECKPOINT_VERSION,
};
pub use machine::Machine;
pub use op::{Access, MemOp, OpResult};
pub use outcome::{
    HaltReason, PeBlame, RunOutcome, StallSite, StallVerdict, DEFAULT_PROGRESS_WINDOW,
};
pub use processor::{
    IdleProcessor, LoopProcessor, Poll, Processor, ProcessorCheckpoint, Script, SpinReader,
};
pub use recovery::RecoveryError;
pub use snapshot::{Snapshot, SnapshotTable};
pub use stats::MachineStats;
pub use telemetry::{CycleHistograms, Histogram};
pub use trace::{CpuDecision, Observation, Observer};

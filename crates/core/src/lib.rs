//! # decache-core
//!
//! The paper's primary contribution: **dynamic decentralized cache
//! coherence schemes** for a shared-bus MIMD multiprocessor.
//!
//! Rudolph & Segall (1984) propose two snooping protocols:
//!
//! * **RB** (Figure 3-1): three per-line states — `R`eadable,
//!   `I`nvalid, `L`ocal. Values fetched by any bus read are *broadcast*:
//!   every cache holding the address captures the value and becomes
//!   readable. Writes are write-through and invalidate other copies,
//!   dynamically reclassifying the datum as local to the writer.
//! * **RWB** (Figure 5-1): additionally snoops the *data* of bus
//!   writes and adds a `F`irst-write state plus a **bus invalidate**
//!   signal. A datum only reverts to the local configuration after `k`
//!   uninterrupted writes by one processor (the paper uses `k = 2`).
//!
//! Two classic schemes are included as baselines: Goodman's
//! *write-once* (the "event broadcasting" scheme the paper extends) and
//! plain *write-through-invalidate*; MESI rides along as a table-only
//! extension.
//!
//! Every protocol is defined once, as a guarded-action rule table
//! ([`ir::kind_table`]), and runs from that table compiled to a dense
//! array ([`AnyProtocol`]). The machine executes it; the product
//! checker, the conformance oracle and the static analyzer in
//! `decache-verify` replay and prove it, reading the table's cells off
//! its one transition domain ([`ir::RuleTable::domain`]). The
//! compiled table implements the [`Protocol`] trait: a per-line state
//! machine consulted by the cache controller on CPU references, on
//! completion of its own bus transactions, and on snooped foreign
//! transactions. The trait is deliberately *pure* (no `&mut self`, no
//! side effects): protocols map observations to
//! [`CpuOutcome`]/[`SnoopOutcome`] decisions, and the machine crate
//! applies them. That purity is what makes the product-machine proof of
//! `decache-verify` executable.
//!
//! # Examples
//!
//! ```
//! use decache_core::{AnyProtocol, BusIntent, CpuOutcome, LineState, Protocol, ProtocolKind};
//!
//! let rb = AnyProtocol::build(ProtocolKind::Rb);
//! // A CPU write to a readable (shared) line is a write-through:
//! match rb.cpu_write(Some(LineState::Readable)) {
//!     CpuOutcome::Miss { intent } => assert_eq!(intent, BusIntent::Write),
//!     CpuOutcome::Hit { .. } => unreachable!("RB write to R must reach the bus"),
//! }
//! // ... after which the line is local to the writer:
//! assert_eq!(
//!     rb.own_complete(Some(LineState::Readable), BusIntent::Write),
//!     LineState::Local
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod diagram;
pub mod ir;
mod kind;
mod protocol;
mod state;

pub use config::Configuration;
pub use diagram::{to_dot, transition_table, Stimulus, TransitionRow};
pub use kind::ProtocolKind;
pub use protocol::{BusIntent, CpuOutcome, Protocol, SnoopEvent, SnoopOutcome};
pub use state::LineState;

/// The protocol type the machine runs: any [`ProtocolKind`] compiled to
/// a dense transition table ([`AnyProtocol::build`]).
///
/// # Examples
///
/// ```
/// use decache_core::{AnyProtocol, LineState, Protocol, ProtocolKind, SnoopEvent};
/// use decache_mem::Word;
///
/// let p = AnyProtocol::build(ProtocolKind::Rb);
/// assert_eq!(p.name(), "RB");
/// let out = p.snoop(LineState::Invalid, SnoopEvent::Read(Word::new(9)));
/// assert!(out.capture);
/// ```
pub type AnyProtocol = ir::TableProtocol;

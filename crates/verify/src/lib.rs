//! # decache-verify
//!
//! The paper's Section 4 consistency proof, made executable.
//!
//! Two complementary checkers:
//!
//! * [`ProductChecker`] — the proof's **product machine**, literally: for
//!   one address and `N` caches (plus the memory automaton, "cache 0"),
//!   it enumerates every state reachable from the initial
//!   `L₀ I₁ … I_N` configuration under all interleavings of CPU reads,
//!   writes, Test-and-Set cycles, and evictions, and checks at every
//!   state that
//!   1. the configuration is *shared* or *local* (plus RWB's
//!      *intermediate*) — the Lemma, and
//!   2. the latest value written is held by the `L`-state cache if one
//!      exists, else by memory and every readable copy — the value half
//!      of the Lemma, and
//!   3. every CPU read hit returns the latest value — the Theorem.
//! * [`SerialOracle`] — a randomized end-to-end check of the *real*
//!   simulator in `decache-machine` against a flat reference memory:
//!   conducted operations are serialized one at a time, so every read
//!   must observe exactly the reference value, and after every operation
//!   the machine's caches and memory must agree with the reference
//!   (owners hold the latest value; readable copies match it).
//!
//! A third check, [`check_monotonic_reads`], attacks the *racing* case
//! directly: concurrent readers of a streamed shared word must never
//! observe a version regression.
//!
//! Around the product machine sit three static-analysis companions:
//!
//! * **Witness traces** ([`Witness`]) — any invariant violation is
//!   reconstructed as the shortest event sequence from the initial
//!   state to the bad configuration, rendered with the paper's state
//!   letters.
//! * **Dead-transition lint** ([`lint`], [`ProductChecker::lint`]) —
//!   transition-table rows that can never fire, unreachable states,
//!   and non-total handling under exhaustive exploration at one `n`.
//! * **Static analyzer gate** ([`static_check`]) — per-rule proofs of
//!   totality, determinism, PE-symmetry, and invariant preservation
//!   over **all** cache counts at once via a counting abstraction of
//!   the rule table ([`static_check::analyze`]); its dead rules are
//!   a subset of the dynamic lint's (not the converse, so both run),
//!   pinned by `static_baseline.txt` and gated in CI by the
//!   `protocol_lint` binary.
//! * **Live conformance oracle** ([`Refinement`]) — subscribes to a
//!   running [`decache_machine::Machine`]'s observation stream and
//!   replays every simulator step against the protocol's rule table,
//!   flagging any step the product model does not allow.
//!
//! All of them take the protocol from the same place the machine does:
//! the kind's rule table compiled to [`decache_core::AnyProtocol`]
//! (or, for mutation tests, an edited copy of it).
//!
//! Together these give the repository's strongest guarantee: the
//! protocol *specifications* are consistent (product machine), and the
//! *implementation* refines them (oracles + monotonic reads).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
pub mod conformance;
pub mod lint;
mod monotonic;
mod oracle;
mod product;
pub mod static_check;
mod witness;

pub use conformance::{ConformanceError, Refinement};
pub use lint::{Coverage, LintReport};
pub use monotonic::{check_monotonic_reads, MonotonicReport};
pub use oracle::{OracleError, OracleReport, SerialOracle};
pub use product::{ProductChecker, ProductReport};
pub use witness::{Invariant, Step, Witness, WitnessEvent};

//! Unified telemetry for the decentralized-cache simulator: one typed
//! [`MetricsSnapshot`] over every counter the machine exposes,
//! cycle-attribution [`Histogram`]s, and a Chrome-trace / Perfetto
//! [`PerfettoTrace`] exporter over the machine's observation stream.
//!
//! The paper's evaluation (Sections 6–7) argues from aggregate
//! statistics — hit ratios, bus utilization, traffic mix. This crate
//! makes those statistics *portable*: a snapshot is a single JSON
//! document with a versioned schema, byte-stable canonical form, lossless
//! round-trip, and a [`check_conservation`] self-audit that ties the
//! counters to each other across crates (cache ↔ bus ↔ machine ↔
//! faults). Everything here observes the simulation without perturbing
//! it: telemetry-enabled and telemetry-disabled runs produce identical
//! statistics, a contract pinned by the fingerprint golden tests.
//!
//! Three layers:
//!
//! - [`json`] — a dependency-free JSON value, canonical writer, and
//!   parser (the build is hermetic; there is no serde here).
//! - [`MetricsSnapshot`] — the metrics registry: per-PE cache counters,
//!   per-bus traffic counters, machine and fault counters, and (when
//!   the machine was built with
//!   [`MachineBuilder::telemetry`](decache_machine::MachineBuilder::telemetry))
//!   the four cycle-attribution histograms: bus-acquire wait, memory
//!   service time, read-miss fill latency, and Test-and-Set spin
//!   length.
//! - [`PerfettoTrace`] — a ring-buffered observer whose capture exports
//!   as Trace Event Format JSON, one track per PE and per bus, loadable
//!   in `chrome://tracing` or ui.perfetto.dev, and renders as one text
//!   line per event. Bench bins honour
//!   `DECACHE_TRACE=<path>` via [`env_trace_path`].
//!
//! [`check_conservation`]: MetricsSnapshot::check_conservation

pub mod artifact;
pub mod checkpoint;
pub mod codec;
pub mod json;
mod perfetto;
mod snapshot;

pub use artifact::{append_line_atomic, write_atomic};
pub use checkpoint::{checkpoint_from_json, checkpoint_to_json, load_checkpoint, save_checkpoint};
pub use codec::{Absent, DecodeError, FromJson, ToJson};
pub use json::Json;
pub use perfetto::{env_trace_path, PerfettoTrace, DEFAULT_CAPACITY};
pub use snapshot::{
    BusCounts, CacheCounts, HistogramSet, HistogramSnapshot, MetricsSnapshot, SCHEMA_VERSION,
};

// The histograms themselves live in `decache-machine` (the machine
// records into them); re-export so telemetry users need one import.
pub use decache_machine::{CycleHistograms, Histogram};

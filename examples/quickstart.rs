//! Quickstart: build a four-processor shared-bus machine, run a tiny
//! program under the RB scheme, and inspect what the caches and bus did.
//!
//! Run with `cargo run --example quickstart`.

use decache::core::ProtocolKind;
use decache::machine::{MachineBuilder, Script, SpinReader};
use decache::mem::{Addr, Word};
use decache::telemetry::PerfettoTrace;

fn main() {
    // A shared flag that P0 raises after some private work while the
    // other PEs spin on their cached copies of it.
    let flag = Addr::new(0);
    let private = Addr::new(8);

    // Capture the machine's observation stream; the same ring renders
    // as text here and as a Perfetto trace via `trace.save(..)`.
    let trace = PerfettoTrace::with_default_capacity();
    let mut machine = MachineBuilder::new(ProtocolKind::Rb)
        .memory_words(256)
        .cache_lines(64)
        .observer(trace.observer())
        .processor(
            Script::new()
                .write(private, Word::ONE)
                .write(flag, Word::new(42))
                .build(),
        )
        .processors(3, |_| {
            Box::new(SpinReader::new(flag, |w| w == Word::new(42)))
        })
        .build();

    let cycles = machine.run_to_completion(10_000);

    println!(
        "ran {cycles} bus cycles under {}",
        machine.protocol().table().name
    );
    println!("memory[flag] = {}", machine.memory().peek(flag).unwrap());
    println!("per-address snapshot: {}", machine.snapshot(flag));
    println!("bus traffic: {}", machine.traffic());
    println!("machine stats: {}", machine.stats());
    println!();
    println!("event trace:");
    for line in trace.text(&machine).lines() {
        println!("  {line}");
    }
    println!();
    println!(
        "note the broadcast: P0's write invalidated the spinners' copies, \
         P0's L line supplied the first re-read, and that one bus read \
         filled every other invalidated cache (broadcast-satisfied = {}), \
         the paper's key mechanism.",
        machine.stats().broadcast_satisfied
    );
}

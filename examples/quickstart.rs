//! Quickstart: build a four-processor shared-bus machine, run a tiny
//! program under the RB scheme, and inspect what the caches and bus did.
//!
//! Run with `cargo run --example quickstart`.

use decache::core::ProtocolKind;
use decache::machine::{MachineBuilder, Script};
use decache::mem::{Addr, Word};

fn main() {
    // A shared flag written by P0 and read by everyone else.
    let flag = Addr::new(0);

    let mut machine = MachineBuilder::new(ProtocolKind::Rb)
        .memory_words(256)
        .cache_lines(64)
        .trace()
        .processor(Script::new().write(flag, Word::new(42)).build())
        .processor(Script::new().read(flag).read(flag).build())
        .processor(Script::new().read(flag).read(flag).build())
        .processor(Script::new().read(flag).read(flag).build())
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
    for event in machine.trace() {
        println!("  {event}");
    }
    println!();
    println!(
        "note the broadcast: one bus read filled every invalidated cache \
         (broadcast-satisfied = {}), the paper's key mechanism.",
        machine.stats().broadcast_satisfied
    );
}

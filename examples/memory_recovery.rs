//! Memory reliability through cache replication — the paper's Section 8
//! future-work idea, demonstrated: corrupt a memory word, then recover
//! it from the replicated copies the coherence protocol left in the
//! caches. RWB's write broadcasting keeps more replicas alive than RB.
//!
//! Run with `cargo run --example memory_recovery`.

use decache::core::ProtocolKind;
use decache::machine::{MachineBuilder, Script};
use decache::mem::{Addr, Word};

fn main() {
    let x = Addr::new(4);

    for kind in [ProtocolKind::Rb, ProtocolKind::Rwb] {
        // Three readers share a value; the writer then updates it once.
        let mut machine = MachineBuilder::new(kind)
            .memory_words(64)
            .processor(Script::new().read(x).read(x).build())
            .processor(Script::new().read(x).read(x).build())
            .processor(Script::new().read(x).read(x).build())
            .processor(Script::new().read(x).write(x, Word::new(1234)).build())
            .build();
        machine.run_to_completion(10_000);

        println!("{}:", machine.protocol().table().name);
        println!("  snapshot after the write: {}", machine.snapshot(x));
        println!("  usable replicas: {}", machine.replica_count(x));

        // A cosmic ray hits the memory array.
        machine
            .corrupt_memory(x, Word::new(0xDEAD))
            .expect("x is in range");
        println!(
            "  memory corrupted to {}",
            machine.memory().peek(x).unwrap()
        );

        match machine.recover_memory(x) {
            Ok(recovered) => println!("  recovered {recovered} from the caches"),
            Err(e) => println!("  unrecoverable: {e}"),
        }
        assert_eq!(machine.memory().peek(x).unwrap(), Word::new(1234));
        println!();
    }

    println!("RWB keeps every reader's copy alive through its write broadcast");
    println!("(\"a higher probability that some cache contains a correct copy\",");
    println!("Section 5), so it tolerates more simultaneous faults than RB.");
}

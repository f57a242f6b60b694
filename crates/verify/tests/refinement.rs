//! Seeded randomized conformance: the live [`Refinement`] oracle rides
//! along on machines driven by random operation streams, for every
//! protocol kind and machine size. Any simulator step the Section 4
//! product model does not allow fails the run with the offending cycle
//! and transition.
//!
//! Reproduce a failure with `DECACHE_TEST_SEED=<seed>`; widen the
//! search with `DECACHE_TEST_CASES=<n>`.

use decache_machine::{FaultPlan, MachineBuilder, RecoveryPolicy, Script};
use decache_mem::{Addr, AddrRange, Word};
use decache_rng::{testing::check, Rng};
use decache_verify::static_check::ANALYZED_KINDS as KINDS;
use decache_verify::Refinement;

/// A random mix of reads, writes, and Test-and-Sets over a small hot
/// address range (small enough that PEs genuinely collide).
fn random_script(rng: &mut Rng, addrs: u64) -> Script {
    let mut script = Script::new();
    for _ in 0..rng.gen_range(4usize..40) {
        let addr = Addr::new(rng.gen_range(0..addrs));
        let value = Word::new(rng.gen_range(1u64..1000));
        script = match rng.gen_range(0u8..10) {
            0..=4 => script.read(addr),
            5..=8 => script.write(addr, value),
            _ => script.test_and_set(addr, value),
        };
    }
    script
}

#[test]
fn random_op_streams_conform_to_the_product_model() {
    check("random_op_streams_conform_to_the_product_model", 8, |rng| {
        for kind in KINDS {
            let n = rng.gen_range(2usize..=4);
            let oracle = Refinement::new(kind, n);
            let mut builder = MachineBuilder::new(kind);
            // Four-line caches over sixteen addresses force evictions,
            // exercising the oracle's writeback check.
            builder.memory_words(32).cache_lines(4);
            for _ in 0..n {
                builder.processor(random_script(rng, 16).build());
            }
            builder.observer(oracle.observer());
            let mut machine = builder.build();
            machine.run_to_completion(1_000_000);
            assert!(
                oracle.checked_steps() > 0,
                "{kind}: the observer saw nothing"
            );
            oracle.assert_clean();
        }
    });
}

#[test]
fn conformance_holds_under_multiple_buses() {
    check("conformance_holds_under_multiple_buses", 4, |rng| {
        for kind in KINDS {
            let n = rng.gen_range(2usize..=4);
            let oracle = Refinement::new(kind, n);
            let mut builder = MachineBuilder::new(kind);
            builder.memory_words(32).cache_lines(8).buses(2);
            for _ in 0..n {
                builder.processor(random_script(rng, 16).build());
            }
            builder.observer(oracle.observer());
            let mut machine = builder.build();
            machine.run_to_completion(1_000_000);
            oracle.assert_clean();
        }
    });
}

#[test]
fn conformance_holds_under_fault_storms() {
    // Transient flips, bus losses, and fail-stops perturb data, parity,
    // and timing but never protocol *state* transitions; scrubs and
    // fail-stops only drop holders, which the product model always
    // allows. The oracle must therefore stay clean through a storm.
    check("conformance_holds_under_fault_storms", 6, |rng| {
        for kind in KINDS {
            let n = rng.gen_range(2usize..=4);
            let oracle = Refinement::new(kind, n);
            let mut builder = MachineBuilder::new(kind);
            builder.memory_words(32).cache_lines(4);
            for _ in 0..n {
                builder.processor(random_script(rng, 16).build());
            }
            builder
                .fault_plan(
                    FaultPlan::new(rng.next_u64())
                        .memory_flip_rate(0.04)
                        .cache_flip_rate(0.04)
                        .bus_loss_rate(0.02)
                        .fail_stop_rate(0.002)
                        .region(AddrRange::with_len(Addr::new(0), 16)),
                )
                .recovery_policy(if rng.gen_range(0u8..2) == 0 {
                    RecoveryPolicy::Majority
                } else {
                    RecoveryPolicy::OwnerOnly
                })
                .observer(oracle.observer());
            let mut machine = builder.build();
            let outcome = machine.run_outcome(1_000_000);
            assert!(outcome.is_complete(), "{kind}: {outcome}");
            assert!(
                oracle.checked_steps() > 0,
                "{kind}: the observer saw nothing"
            );
            oracle.assert_clean();
        }
    });
}

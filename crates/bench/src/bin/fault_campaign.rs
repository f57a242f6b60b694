//! E-FAULT — fault-injection campaign quantifying the Section 5/8
//! reliability claim: under RWB "there is a higher probability that
//! some cache contains a correct copy", so memory-word faults recover
//! more often than under RB, whose write invalidations strip the very
//! replicas recovery needs.
//!
//! Three parts:
//!
//! 1. **Recovery sweep** — fault rate × all seven protocols, many
//!    seeded runs per cell, the live conformance oracle riding on every
//!    run (any protocol-state divergence under faults is fatal).
//! 2. **RWB vs RB** — at equal fault rates, RWB's memory-recovery
//!    success rate must strictly exceed RB's.
//! 3. **Fail-stop degradation** — per protocol × {Drain, Forfeit}, a
//!    PE is killed mid-run; the machine must reach a structured
//!    `Completed` outcome with exact lost-write accounting.
//!
//! `DECACHE_CAMPAIGN_RUNS=<n>` overrides the per-cell run count (CI
//! smoke runs use 1; the oracle and fail-stop checks still bite).
//!
//! The sweep runs on the supervised worker pool
//! ([`par::supervise`]): each cell executes under a panic guard and a
//! per-run cycle budget, so one pathological cell is quarantined and
//! *reported* instead of silently tearing down the whole campaign.
//! `--checkpoint-dir <dir>` / `--resume` add crash-safe progress
//! checkpointing: completed cells land atomically in `<dir>` and a
//! killed campaign resumes without recomputing them (see
//! [`decache_bench::Campaign`]).

use decache_analysis::TextTable;
use decache_bench::{banner, par, record_snapshot, Campaign};
use decache_core::ProtocolKind;
use decache_machine::{FailStopPolicy, FaultPlan, Machine, MachineBuilder, Script};
use decache_mem::{Addr, AddrRange, Word};
use decache_rng::Rng;
use decache_telemetry::{json_record, Absent, FromJson, MetricsSnapshot, ToJson};
use decache_verify::Refinement;

/// The seven protocol variants, in the workspace's canonical order.
const PROTOCOLS: [ProtocolKind; 7] = [
    ProtocolKind::Rb,
    ProtocolKind::RbNoBroadcast,
    ProtocolKind::Rwb,
    ProtocolKind::RwbThreshold(1),
    ProtocolKind::RwbThreshold(3),
    ProtocolKind::WriteOnce,
    ProtocolKind::WriteThrough,
];

const PES: usize = 4;
const HOT_WORDS: u64 = 8;
const CHURN_WORDS: u64 = 32;

fn campaign_runs() -> u64 {
    match std::env::var("DECACHE_CAMPAIGN_RUNS") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("DECACHE_CAMPAIGN_RUNS={v} is not a number")),
        Err(_) => 24,
    }
}

/// The written-then-shared workload that separates the protocols, in
/// three roles:
///
/// * **PE 0, writer** — writes random hot words, with churn reads so
///   its owned lines evict (an attached owner would mask memory faults
///   by supplying, and its write-back overwrites lingering corruption).
/// * **PEs 1..n-1, holders** — populate the whole hot set once, then
///   mostly spin on a private word, occasionally re-reading a hot one.
///   These caches are where recovery replicas live — or don't.
/// * **PE n-1, prober** — reads a hot word, then enough churn that the
///   line is gone again by its next probe. Every probe is a miss whose
///   memory read is a detection opportunity, under every protocol.
///
/// After each write, RWB's broadcast updates every holder's replica in
/// place, so a probe that detects a flip finds a full quorum; RB's
/// invalidation strips the replicas, and a holder only regains one the
/// next time it happens to pick that word — a flip probed inside that
/// window finds nothing to recover from.
fn campaign_script(rng: &mut Rng, pe: usize) -> Script {
    let mut script = Script::new();
    if pe == 0 {
        for round in 0..rng.gen_range(32u64..48) {
            let hot = Addr::new(rng.gen_range(0..HOT_WORDS));
            script = script.write(hot, Word::new(round * 10 + 1));
            for k in 0..4u64 {
                let churn = Addr::new(HOT_WORDS + (round * 4 + k) % CHURN_WORDS);
                script = script.read(churn);
            }
        }
    } else if pe == PES - 1 {
        for round in 0..rng.gen_range(60u64..80) {
            script = script.read(Addr::new(rng.gen_range(0..HOT_WORDS)));
            for k in 0..4u64 {
                let churn = Addr::new(HOT_WORDS + (round * 4 + k + 16) % CHURN_WORDS);
                script = script.read(churn);
            }
        }
    } else {
        for w in 0..HOT_WORDS {
            script = script.read(Addr::new(w));
        }
        let private = Addr::new(HOT_WORDS + CHURN_WORDS + pe as u64);
        for _ in 0..rng.gen_range(150u64..200) {
            script = if rng.gen_range(0u8..8) == 0 {
                script.read(Addr::new(rng.gen_range(0..HOT_WORDS)))
            } else {
                script.read(private)
            };
        }
    }
    script
}

/// One seeded campaign run: oracle-instrumented machine under a
/// rate-driven fault plan, required to conform. Returns the unified
/// metrics snapshot (telemetry enabled), or `None` if the run did not
/// complete within `budget` cycles (the supervisor's watchdog verdict).
fn campaign_run(kind: ProtocolKind, rate: f64, seed: u64, budget: u64) -> Option<MetricsSnapshot> {
    let mut rng = Rng::from_seed(seed);
    let oracle = Refinement::new(kind, PES);
    let mut builder = MachineBuilder::new(kind);
    builder.memory_words(64).cache_lines(16).telemetry();
    for pe in 0..PES {
        builder.processor(campaign_script(&mut rng, pe).build());
    }
    builder
        .fault_plan(
            FaultPlan::new(rng.next_u64())
                .memory_flip_rate(rate)
                .cache_flip_rate(rate / 2.0)
                .bus_loss_rate(rate / 4.0)
                .region(AddrRange::with_len(Addr::new(0), HOT_WORDS)),
        )
        .observer(oracle.observer());
    let mut machine = builder.build();
    let outcome = machine.run_outcome(budget);
    if !outcome.is_complete() {
        return None;
    }
    assert!(
        oracle.checked_steps() > 0,
        "{kind}: the observer saw nothing"
    );
    oracle.assert_clean();
    Some(MetricsSnapshot::from_machine(&machine))
}

/// Aggregated recovery statistics for one (protocol, rate) cell.
#[derive(Clone, Copy, Default)]
struct Cell {
    injected: u64,
    detected: u64,
    owner: u64,
    majority: u64,
    failed: u64,
    heals: u64,
    lost_writes: u64,
    latency_total: u64,
    latency_samples: u64,
}

json_record!(Cell {
    injected,
    detected,
    owner,
    majority,
    failed,
    heals,
    lost_writes,
    latency_total,
    latency_samples,
});

impl Cell {
    fn attempts(&self) -> u64 {
        self.owner + self.majority + self.failed
    }

    fn success_rate(&self) -> Option<f64> {
        let attempts = self.attempts();
        (attempts > 0).then(|| (self.owner + self.majority) as f64 / attempts as f64)
    }

    fn mean_latency(&self) -> f64 {
        if self.latency_samples == 0 {
            return 0.0;
        }
        self.latency_total as f64 / self.latency_samples as f64
    }
}

/// Runs one (protocol, rate) cell: the derived recovery table row plus
/// the merged-across-runs metrics snapshot, conservation-audited.
/// Returns `None` if any run exhausted the supervisor's cycle budget.
fn sweep_cell(
    kind: ProtocolKind,
    rate: f64,
    runs: u64,
    budget: u64,
) -> Option<(Cell, MetricsSnapshot)> {
    let mut cell = Cell::default();
    let mut merged: Option<MetricsSnapshot> = None;
    for run in 0..runs {
        // Seeds depend only on (rate, run), so every protocol sees the
        // same fault-plan seeds at a given rate.
        let seed = 0x5EED_0000 + (rate * 1e6) as u64 * 1_000 + run;
        let snapshot = campaign_run(kind, rate, seed, budget)?;
        let s = &snapshot.faults;
        cell.injected += s.total_injected();
        cell.detected += s.memory_faults_detected + s.cache_faults_detected;
        cell.owner += s.memory_recoveries_owner;
        cell.majority += s.memory_recoveries_majority;
        cell.failed += s.memory_recoveries_failed;
        cell.heals += s.broadcast_heals;
        cell.lost_writes += s.lost_writes;
        cell.latency_total += s.recovery_latency_total;
        cell.latency_samples += s.recovery_latency_samples;
        match &mut merged {
            None => merged = Some(snapshot),
            Some(acc) => acc.merge(&snapshot).expect("same cell configuration"),
        }
    }
    let merged = merged.expect("at least one run per cell");
    merged.check_conservation().unwrap_or_else(|violations| {
        panic!(
            "{kind} rate {rate}: conservation violated:\n  {}",
            violations.join("\n  ")
        )
    });
    Some((cell, merged))
}

/// The stored form of a completed cell: the derived counters plus the
/// merged snapshot, both raw integers, so a resumed campaign prints
/// exactly what the uninterrupted campaign prints.
struct Stored {
    cell: Cell,
    snapshot: MetricsSnapshot,
}

json_record!(Stored { cell, snapshot });

/// Fail-stop scenario: P0 writes `x` twice (the second write is silent
/// under the write-back protocols, so the owned 9 may exist only in
/// its cache) and `z` once, then is killed. A survivor reads `x`. The
/// last values P0 wrote were x=9 and z=4; any of them memory does not
/// hold after the kill is a lost write.
fn fail_stop_run(kind: ProtocolKind, policy: FailStopPolicy) -> (Machine, Word, u64) {
    let x = Addr::new(1);
    let z = Addr::new(2);
    let mut filler = Script::new();
    for i in 0..20u64 {
        filler = filler.read(Addr::new(16 + i % 4));
    }
    let mut machine = MachineBuilder::new(kind)
        .memory_words(64)
        .processor(
            Script::new()
                .write(x, Word::new(1))
                .write(x, Word::new(9))
                .write(z, Word::new(4))
                .build(),
        )
        .processor(filler.read(x).build())
        .fault_plan(FaultPlan::new(7).fail_stop_at(12, 0))
        .fail_stop_policy(policy)
        .build();
    let outcome = machine.run_outcome(1_000_000);
    assert!(
        outcome.is_complete(),
        "{kind} {policy:?}: no graceful degradation: {outcome}"
    );
    assert!(machine.pe_failed(0) && machine.live_pes() == 1);
    let seen_x = machine.memory().peek(x).expect("x in range");
    let seen_z = machine.memory().peek(z).expect("z in range");
    let missing = u64::from(seen_x != Word::new(9)) + u64::from(seen_z != Word::new(4));
    (machine, seen_x, missing)
}

fn main() {
    banner(
        "Fault-injection campaign",
        "Section 5 reliability claim + Section 8 future work, quantified",
    );
    let runs = campaign_runs();
    let rates = [0.002f64, 0.01];
    println!("{runs} runs per cell (DECACHE_CAMPAIGN_RUNS), {PES} PEs,");
    println!("conformance oracle attached to every run\n");

    // Part 1: the sweep. Every (protocol, rate) cell in parallel, on
    // the supervised pool: a panicking or over-budget cell becomes a
    // reported verdict, not a torn-down campaign, and completed cells
    // checkpoint to --checkpoint-dir for crash-safe resume.
    let campaign = Campaign::from_args();
    let supervisor = par::Supervisor::default();
    let cases: Vec<(ProtocolKind, f64)> = rates
        .iter()
        .flat_map(|&rate| PROTOCOLS.iter().map(move |&kind| (kind, rate)))
        .collect();
    let outcomes = par::supervise(&cases, &supervisor, |&(kind, rate), budget| {
        let key = format!("fault_campaign_{kind}_rate_{rate}");
        if let Some(stored) = campaign.load(&key) {
            match Stored::from_json(&stored, Absent::Zero) {
                Ok(Stored { cell, snapshot }) => return Some((cell, snapshot)),
                Err(e) => eprintln!("checkpoint for {key} ignored: {e}"),
            }
        }
        let (cell, snapshot) = sweep_cell(kind, rate, runs, budget)?;
        let stored = Stored { cell, snapshot };
        campaign.store(&key, &stored.to_json());
        Some((stored.cell, stored.snapshot))
    });
    let mut quarantined = Vec::new();
    let mut cells = Vec::new();
    for (&(kind, rate), outcome) in cases.iter().zip(outcomes) {
        match outcome {
            par::CaseOutcome::Ok(result) | par::CaseOutcome::Retried { result, .. } => {
                cells.push(result);
            }
            par::CaseOutcome::Panicked { message } => {
                quarantined.push(format!("{kind} rate {rate}: panicked: {message}"));
            }
            par::CaseOutcome::TimedOut { budget } => {
                quarantined.push(format!("{kind} rate {rate}: exceeded {budget} cycles"));
            }
        }
    }
    assert!(
        quarantined.is_empty(),
        "quarantined cells:\n  {}",
        quarantined.join("\n  ")
    );

    let mut table = TextTable::new(vec![
        "protocol", "rate", "injected", "detected", "owner", "majority", "failed", "success",
        "heals", "lost wr", "latency",
    ]);
    for (&(kind, rate), (cell, merged)) in cases.iter().zip(&cells) {
        table.row(vec![
            kind.to_string(),
            format!("{rate}"),
            cell.injected.to_string(),
            cell.detected.to_string(),
            cell.owner.to_string(),
            cell.majority.to_string(),
            cell.failed.to_string(),
            cell.success_rate()
                .map_or_else(|| "-".into(), |r| format!("{:.0}%", r * 100.0)),
            cell.heals.to_string(),
            cell.lost_writes.to_string(),
            format!("{:.1}", cell.mean_latency()),
        ]);
        record_snapshot(&format!("fault_campaign/{kind}/rate_{rate}"), merged);
    }
    println!("{table}");

    // Part 2: the headline claim, asserted. Small smoke runs may not
    // accumulate enough recovery attempts for the comparison to be
    // meaningful; the threshold keeps CI smoke honest without flaking.
    let cell_of = |kind: ProtocolKind, rate: f64| {
        cases
            .iter()
            .position(|&(k, r)| k == kind && r == rate)
            .map(|i| cells[i].0)
            .expect("cell present")
    };
    for &rate in &rates {
        let rb = cell_of(ProtocolKind::Rb, rate);
        let rwb = cell_of(ProtocolKind::Rwb, rate);
        let (Some(rb_rate), Some(rwb_rate)) = (rb.success_rate(), rwb.success_rate()) else {
            println!("rate {rate}: too few detections to compare (smoke run)");
            continue;
        };
        println!(
            "rate {rate}: RWB recovers {:.0}% vs RB {:.0}% ({} vs {} attempts)",
            rwb_rate * 100.0,
            rb_rate * 100.0,
            rwb.attempts(),
            rb.attempts(),
        );
        if rb.attempts() >= 10 && rwb.attempts() >= 10 {
            assert!(
                rwb_rate > rb_rate,
                "RWB must out-recover RB at rate {rate}: {rwb_rate:.3} vs {rb_rate:.3}"
            );
        }
    }
    println!();

    // Part 3: fail-stop degradation, per protocol and policy.
    let mut table = TextTable::new(vec![
        "protocol",
        "drained (Drain)",
        "lost (Drain)",
        "survivor sees",
        "lost (Forfeit)",
        "survivor sees",
    ]);
    for &kind in &PROTOCOLS {
        let (drain, drain_seen, drain_missing) = fail_stop_run(kind, FailStopPolicy::Drain);
        let (forfeit, forfeit_seen, forfeit_missing) = fail_stop_run(kind, FailStopPolicy::Forfeit);
        let ds = drain.fault_stats();
        let fs = forfeit.fault_stats();
        // Draining flushes every good-parity owned line, so nothing is
        // lost; forfeiting drains nothing, and loses exactly the last
        // written values memory does not hold after the kill.
        assert_eq!(ds.lost_writes, 0, "{kind}: drain lost a write");
        assert_eq!(drain_missing, 0, "{kind}: drain left memory incomplete");
        assert_eq!(fs.drained_lines, 0, "{kind}: forfeit drained");
        assert_eq!(drain_seen, Word::new(9), "{kind}: drain lost the 9");
        assert_eq!(
            fs.lost_writes, forfeit_missing,
            "{kind}: lost-write accounting disagrees with memory's view \
             (survivor saw {forfeit_seen})"
        );
        table.row(vec![
            kind.to_string(),
            ds.drained_lines.to_string(),
            ds.lost_writes.to_string(),
            drain_seen.to_string(),
            fs.lost_writes.to_string(),
            forfeit_seen.to_string(),
        ]);
        record_snapshot(
            &format!("fault_campaign/fail_stop/{kind}/drain"),
            &MetricsSnapshot::from_machine(&drain),
        );
        record_snapshot(
            &format!("fault_campaign/fail_stop/{kind}/forfeit"),
            &MetricsSnapshot::from_machine(&forfeit),
        );
    }
    println!("{table}");
    println!("every run completed with n-1 PEs (structured outcome, no panic);");
    println!("Forfeit loses exactly the owned values memory never saw.");

    // With DECACHE_TRACE=<path>, capture one representative faulted
    // machine (RWB, the higher rate) as a Perfetto trace — injection,
    // detection, and recovery events land on the tracks they hit.
    if decache_telemetry::env_trace_path().is_some() {
        let mut rng = Rng::from_seed(0x7ACE);
        let mut builder = MachineBuilder::new(ProtocolKind::Rwb);
        builder.memory_words(64).cache_lines(16).telemetry();
        for pe in 0..PES {
            builder.processor(campaign_script(&mut rng, pe).build());
        }
        builder.fault_plan(
            FaultPlan::new(rng.next_u64())
                .memory_flip_rate(0.01)
                .cache_flip_rate(0.005)
                .bus_loss_rate(0.0025)
                .region(AddrRange::with_len(Addr::new(0), HOT_WORDS)),
        );
        let trace = decache_bench::env_trace(&mut builder);
        let mut machine = builder.build();
        let outcome = machine.run_outcome(10_000_000);
        assert!(outcome.is_complete(), "trace run: {outcome}");
        decache_bench::save_env_trace(&trace, &machine);
    }
}

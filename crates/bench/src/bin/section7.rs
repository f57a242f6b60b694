//! E18/E19 — runs **Section 7's worked example at full scale**: the
//! paper's 128-PE machine under the reference mix, on one shared bus
//! and on 16 LSB-interleaved buses — and then the same study at
//! 1024 PEs, eight times past the paper's extrapolation ceiling.
//!
//! The paper sizes the shared-bus bandwidth demand as
//! `SBB = m · x · (1/h)` — 128 PEs at 1 MACS and a 10% miss ratio
//! demand 12.8 MACS, so one bus is hopelessly saturated and the
//! multiple-bus organization is required. Historically this bin was
//! infeasible: the scan-every-PE loop made each cycle cost O(m) even
//! with every PE stalled on the saturated bus. The 128-PE scenario now
//! runs in milliseconds (the wake schedule skips no cycle of it: with
//! one-cycle transactions every cycle is live), and the deferred
//! broadcast path plus packed tag-store rows keep the 1024-PE runs in
//! the seconds range.

//! Long sweeps support crash-safe resume: `--checkpoint-dir <dir>`
//! records each completed case atomically, and `--resume` replays
//! recorded cases instead of recomputing them, printing exactly the
//! bytes an uninterrupted run prints (see [`decache_bench::Campaign`]).

use decache_analysis::TextTable;
use decache_bench::{banner, par, record_metrics, Campaign};
use decache_core::ProtocolKind;
use decache_machine::{Machine, MachineBuilder};
use decache_mem::{Addr, AddrRange};
use decache_telemetry::{json_record, Absent, FromJson, ToJson};
use decache_workloads::{MixConfig, MixWorkload};

const OPS_PER_PE: u64 = 500;

/// One case's measured results, and the stored form of a completed
/// case: raw result scalars only (the case identity lives in the file
/// name and is re-derived from the case list on resume).
struct Row {
    cycles: u64,
    miss_ratio: f64,
    utilization: f64,
    busiest_share: f64,
}

json_record!(Row {
    cycles,
    miss_ratio,
    utilization,
    busiest_share,
});

fn run_case(kind: ProtocolKind, pes: usize, buses: usize) -> Row {
    let shared = AddrRange::with_len(Addr::new(0), 64);
    let config = MixConfig {
        ops_per_pe: OPS_PER_PE,
        ..MixConfig::default()
    };
    // Memory must cover every PE's private region above the shared
    // block (see MixWorkload::new).
    let memory_words = (1088 + pes as u64 * 256).next_power_of_two();
    let mut builder = MachineBuilder::new(kind);
    builder
        .memory_words(memory_words)
        .cache_lines(256)
        .buses(buses)
        .processors(pes, |pe| {
            Box::new(MixWorkload::new(config, shared, pe as u64))
        });
    let mut machine = builder.build();
    let cycles = machine.run_to_completion(1_000_000_000);
    Row {
        cycles,
        miss_ratio: 1.0 - machine.total_cache_stats().hit_ratio(),
        utilization: mean_utilization(&machine),
        busiest_share: busiest_share(&machine),
    }
}

fn mean_utilization(machine: &Machine) -> f64 {
    let buses = machine.bus_count();
    (0..buses)
        .map(|b| machine.traffic_per_bus().bus(b).utilization())
        .sum::<f64>()
        / buses as f64
}

fn busiest_share(machine: &Machine) -> f64 {
    let total: u64 = (0..machine.bus_count())
        .map(|b| machine.traffic_per_bus().bus(b).total_transactions())
        .sum();
    let busiest = (0..machine.bus_count())
        .map(|b| machine.traffic_per_bus().bus(b).total_transactions())
        .max()
        .unwrap_or(0);
    busiest as f64 / total.max(1) as f64
}

fn main() {
    banner(
        "Section 7 worked example, simulated",
        "SBB = m*x*(1/h) versus one and sixteen buses, at 128 and 1024 PEs",
    );

    let cases: Vec<(ProtocolKind, usize, usize)> = [ProtocolKind::Rb, ProtocolKind::Rwb]
        .iter()
        .flat_map(|&kind| {
            [(128usize, 1usize), (128, 16), (1024, 1), (1024, 16)]
                .iter()
                .map(move |&(pes, buses)| (kind, pes, buses))
        })
        .collect();
    let campaign = Campaign::from_args();
    let rows = par::run_cases(&cases, |&(kind, pes, buses)| {
        campaign.case(
            &format!("section7_{kind}_{pes}pe_{buses}bus"),
            |json| Ok(Row::from_json(json, Absent::Required)?),
            || run_case(kind, pes, buses),
            Row::to_json,
        )
    });

    let mut table = TextTable::new(vec![
        "protocol",
        "PEs",
        "buses",
        "cycles",
        "miss ratio",
        "SBB demand",
        "mean util",
        "busiest bus",
    ]);
    for (&(kind, pes, buses), r) in cases.iter().zip(&rows) {
        // The paper's bandwidth demand in bus-equivalents: m * (1/h)
        // (x = 1 access per PE-cycle).
        let demand = pes as f64 * r.miss_ratio;
        table.row(vec![
            kind.to_string(),
            pes.to_string(),
            buses.to_string(),
            r.cycles.to_string(),
            format!("{:.1}%", r.miss_ratio * 100.0),
            format!("{demand:.1}"),
            format!("{:.1}%", r.utilization * 100.0),
            format!("{:.1}%", r.busiest_share * 100.0),
        ]);
        record_metrics(
            &format!("section7/{kind}/{pes}pe/{buses}bus"),
            &[
                ("cycles", r.cycles as f64),
                ("miss_ratio", r.miss_ratio),
                ("sbb_demand", demand),
                ("mean_utilization", r.utilization),
                ("busiest_share", r.busiest_share),
            ],
        );
    }
    println!("{table}");

    for (pair, case) in rows.chunks(2).zip(cases.chunks(2)) {
        let (single, multi) = (&pair[0], &pair[1]);
        let (kind, pes, _) = case[0];
        let demand = pes as f64 * single.miss_ratio;
        assert!(
            demand > 1.0,
            "{kind} at {pes} PEs: the machine must demand more than one bus (got {demand:.2})"
        );
        assert!(
            single.utilization > 0.95,
            "{kind} at {pes} PEs: the single bus should saturate (utilization {:.3})",
            single.utilization
        );
        assert!(
            multi.cycles < single.cycles / 2,
            "{kind} at {pes} PEs: 16 buses should relieve the bottleneck ({} -> {} cycles)",
            single.cycles,
            multi.cycles
        );
        assert!(
            multi.busiest_share < 0.25,
            "{kind} at {pes} PEs: interleaving should spread traffic (busiest {:.1}%)",
            multi.busiest_share * 100.0
        );
        println!(
            "{kind} at {pes} PEs: demand {demand:.1} bus-equivalents; 1 bus -> {} cycles at \
             {:.1}% util, 16 buses -> {} cycles (busiest {:.1}%)",
            single.cycles,
            single.utilization * 100.0,
            multi.cycles,
            multi.busiest_share * 100.0
        );
    }
}

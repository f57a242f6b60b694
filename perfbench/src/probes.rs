//! Standalone layer probes for the traced run. A capture run records
//! the workload's own inputs to each layer — generator results, CPU
//! accesses, completed bus transactions, the warmed tag stores — and
//! each probe then replays them against that layer alone, at the
//! workload's geometry and bus discipline.

use crate::check::Fingerprint;
use crate::spec::{Workload, BUDGET};
use crate::trace::Tracer;
use decache_bus::{BusOp, BusQueue, BusTransaction, Routing, ServiceDiscipline};
use decache_cache::{Geometry, TagStore};
use decache_core::ir::TableProtocol;
use decache_core::{AnyProtocol, LineState, Protocol, SnoopEvent};
use decache_machine::{Observation, Observer, OpResult, Poll, Processor, ProcessorCheckpoint};
use decache_mem::{Addr, PeId, Word};
use decache_protocol_ir::hand_table;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Caps on the recorded inputs, so probe batches stay short.
const MAX_ACCESSES: usize = 1_000_000;
const MAX_TRANSACTIONS: usize = 200_000;
const MAX_SNOOPS: usize = 1_000_000;
const MAX_RESULTS: usize = 1_000_000;

/// Host time each probe measures for, in batches of one full replay.
const PROBE_TIME: Duration = Duration::from_millis(400);
const MIN_BATCHES: usize = 5;

/// A CPU reference as the cache saw it: `(pe, addr, write)`.
type Access = (usize, Addr, bool);
/// A completed bus transaction, as its initiator issued it.
type Transaction = (usize, Addr, BusOp);
/// A foreign transaction as one holder snooped it: `(holder, addr, event)`.
type Snoop = (usize, Addr, SnoopEvent);

/// Everything the probes replay, recorded from one untimed run.
pub struct Inputs {
    stores: Vec<TagStore<LineState>>,
    accesses: Vec<Access>,
    transactions: Vec<Transaction>,
    snoops: Vec<Snoop>,
    results: Vec<Vec<Option<OpResult>>>,
    routing: Routing,
    discipline: ServiceDiscipline,
    /// Telemetry histogram means of the timed phase.
    pub acquire_wait_mean: f64,
    pub ts_spin_mean: f64,
    /// The capture run's statistics (telemetry and observers on); they
    /// must equal the untraced run's.
    pub fingerprint: Fingerprint,
}

/// Logs every result a processor is handed, then defers to it.
struct Recording {
    inner: Box<dyn Processor + Send>,
    log: Arc<Mutex<Vec<Option<OpResult>>>>,
    cap: usize,
}

impl Processor for Recording {
    fn next_op(&mut self, last: Option<&OpResult>) -> Poll {
        let mut log = self.log.lock().expect("result log poisoned");
        if log.len() < self.cap {
            log.push(last.copied());
        }
        drop(log);
        self.inner.next_op(last)
    }

    fn checkpoint_state(&self) -> Option<ProcessorCheckpoint> {
        self.inner.checkpoint_state()
    }
}

/// Collects CPU accesses and completed bus transactions.
struct Recorder(Arc<Mutex<(Vec<Access>, Vec<Transaction>)>>);

impl Observer for Recorder {
    fn observe(&mut self, _cycle: u64, observation: &Observation) {
        let mut sink = self.0.lock().expect("observation sink poisoned");
        let (accesses, transactions) = &mut *sink;
        let tx = match *observation {
            Observation::CpuAccess {
                pe, addr, write, ..
            } => {
                if accesses.len() < MAX_ACCESSES {
                    accesses.push((pe, addr, write));
                }
                return;
            }
            Observation::ReadCompleted { pe, addr, locked } => (
                pe,
                addr,
                if locked {
                    BusOp::ReadWithLock
                } else {
                    BusOp::Read
                },
            ),
            Observation::WriteCompleted { pe, addr, unlock } => {
                let op = if unlock {
                    BusOp::WriteWithUnlock(Word::ZERO)
                } else {
                    BusOp::Write(Word::ZERO)
                };
                (pe, addr, op)
            }
            Observation::InvalidateCompleted { pe, addr } => (pe, addr, BusOp::Invalidate),
            _ => return,
        };
        if transactions.len() < MAX_TRANSACTIONS {
            transactions.push(tx);
        }
    }
}

fn snoop_event(op: BusOp) -> SnoopEvent {
    match op {
        BusOp::Read => SnoopEvent::Read(Word::ZERO),
        BusOp::Write(w) => SnoopEvent::Write(w),
        BusOp::Invalidate => SnoopEvent::Invalidate,
        BusOp::ReadWithLock => SnoopEvent::LockedRead(Word::ZERO),
        BusOp::WriteWithUnlock(w) => SnoopEvent::UnlockWrite(w),
    }
}

/// Runs the workload once more with telemetry, a recording observer and
/// recording processors, and keeps the inputs each probe replays.
pub fn capture(w: &Workload, seed: u64) -> Result<Inputs, String> {
    let per_pe = MAX_RESULTS / w.pes;
    let logs: Vec<_> = (0..w.pes)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    let mut builder = w.shape(seed);
    builder.telemetry().processors(w.pes, |pe| {
        Box::new(Recording {
            inner: w.processor(seed, pe),
            log: Arc::clone(&logs[pe]),
            cap: per_pe,
        })
    });
    let mut machine = builder.build();
    if machine.run(w.warm_cycles) {
        return Err("capture run finished during warm-up".into());
    }
    machine.reset_stats();
    let warm = machine
        .checkpoint()
        .map_err(|e| format!("capture checkpoint: {e}"))?;
    let geometry = Geometry::direct_mapped(w.cache_lines);
    let mut stores = Vec::with_capacity(w.pes);
    for ck in warm.caches {
        let mut store = TagStore::new(geometry);
        store.restore_state(ck)?;
        stores.push(store);
    }

    let sink = Arc::new(Mutex::new((Vec::new(), Vec::new())));
    machine.attach_observer(Box::new(Recorder(Arc::clone(&sink))));
    let outcome = machine.run_outcome(BUDGET);
    if !outcome.is_complete() {
        return Err(format!("capture run: {outcome}"));
    }
    let (accesses, transactions) =
        std::mem::take(&mut *sink.lock().expect("observation sink poisoned"));
    let snoops = snoops_of(&stores, &transactions);
    let hist = machine
        .histograms()
        .ok_or("capture machine has no histograms")?;
    Ok(Inputs {
        acquire_wait_mean: hist.bus_acquire_wait.mean(),
        ts_spin_mean: hist.ts_spin.mean(),
        fingerprint: Fingerprint::of(&machine),
        routing: machine.routing(),
        discipline: machine.discipline(),
        results: logs
            .iter()
            .map(|l| std::mem::take(&mut *l.lock().expect("result log poisoned")))
            .collect(),
        stores,
        accesses,
        transactions,
        snoops,
    })
}

/// Expands each transaction to one snoop per other cache holding its
/// line in the warmed stores — the sharer fan-out the machine visits.
fn snoops_of(stores: &[TagStore<LineState>], transactions: &[Transaction]) -> Vec<Snoop> {
    let mut snoops = Vec::new();
    for &(initiator, addr, op) in transactions {
        let event = snoop_event(op);
        for (pe, store) in stores.iter().enumerate() {
            if pe != initiator && store.contains(addr) {
                snoops.push((pe, addr, event));
            }
        }
        if snoops.len() >= MAX_SNOOPS {
            break;
        }
    }
    snoops
}

/// Host nanoseconds per operation of each probe (median over batches).
pub struct ProbeTimes {
    pub next_op_ns: f64,
    pub probe_ns: f64,
    pub broadcast_ns: f64,
    pub transition_ns: f64,
    pub table_transition_ns: f64,
    pub grant_ns: f64,
}

/// Times `work` over fresh `prepare`d state in batches of `ops`
/// operations, one span per batch, and returns the median ns per op.
fn measure<S>(
    tracer: &mut Tracer,
    name: &'static str,
    ops: usize,
    mut prepare: impl FnMut() -> S,
    mut work: impl FnMut(&mut S),
) -> f64 {
    let ops = ops.max(1) as f64;
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_BATCHES || start.elapsed() < PROBE_TIME {
        let mut state = prepare();
        let open = tracer.enter(name);
        let t = Instant::now();
        work(&mut state);
        samples.push(t.elapsed().as_nanos() as f64 / ops);
        tracer.exit(open);
    }
    crate::median(&mut samples)
}

/// The protocol decisions the workload's inputs ask for: CPU accesses
/// against the warmed line states, then the snoops.
fn transitions<P: Protocol>(
    p: &P,
    cpu: &[(Option<LineState>, bool)],
    snoop: &[(LineState, SnoopEvent)],
) {
    for &(state, write) in cpu {
        black_box(if write {
            p.cpu_write(black_box(state))
        } else {
            p.cpu_read(black_box(state))
        });
    }
    for &(state, event) in snoop {
        black_box(p.snoop(black_box(state), event));
    }
}

pub fn run(w: &Workload, seed: u64, inputs: &Inputs, tracer: &mut Tracer) -> ProbeTimes {
    // workloads: replay each PE's recorded results into fresh generators,
    // interleaved across PEs as the machine calls them.
    let calls = inputs.results.iter().map(Vec::len).sum();
    let longest = inputs.results.iter().map(Vec::len).max().unwrap_or(0);
    let next_op_ns = measure(
        tracer,
        "probe.workloads.next_op",
        calls,
        || {
            (0..w.pes)
                .map(|pe| w.processor(seed, pe))
                .collect::<Vec<_>>()
        },
        |gens| {
            for step in 0..longest {
                for (gen, log) in gens.iter_mut().zip(&inputs.results) {
                    if let Some(last) = log.get(step) {
                        black_box(gen.next_op(last.as_ref()));
                    }
                }
            }
        },
    );

    let probe_ns = measure(
        tracer,
        "probe.cache.probe",
        inputs.accesses.len(),
        || (),
        |()| {
            for &(pe, addr, _) in &inputs.accesses {
                black_box(inputs.stores[pe].get(black_box(addr)));
            }
        },
    );

    let protocol = AnyProtocol::build(w.protocol);
    let broadcast_ns = measure(
        tracer,
        "probe.cache.broadcast",
        inputs.snoops.len(),
        || inputs.stores.clone(),
        |stores| {
            for &(pe, addr, event) in &inputs.snoops {
                black_box(stores[pe].apply_broadcast(addr, event.word(), |s| {
                    let out = protocol.snoop(s, event);
                    (out.next, out.capture)
                }));
            }
        },
    );

    let state = |pe: usize, addr| inputs.stores[pe].state_of(addr);
    let cpu: Vec<_> = inputs
        .accesses
        .iter()
        .map(|&(pe, addr, write)| (state(pe, addr), write))
        .collect();
    let snoop: Vec<_> = inputs
        .snoops
        .iter()
        .filter_map(|&(pe, addr, event)| Some((state(pe, addr)?, event)))
        .collect();
    let decisions = cpu.len() + snoop.len();
    let transition_ns = measure(
        tracer,
        "probe.core.transition",
        decisions,
        || (),
        |()| {
            transitions(&protocol, &cpu, &snoop);
        },
    );
    let table = hand_table(w.protocol).map(TableProtocol::new);
    let table_transition_ns = table.map_or(0.0, |table| {
        measure(
            tracer,
            "probe.core.table_transition",
            decisions,
            || (),
            |()| {
                transitions(&table, &cpu, &snoop);
            },
        )
    });

    // bus: request every recorded transaction on its bus, granting
    // whenever the initiator still has one pending, then drain.
    let grant_ns = measure(
        tracer,
        "probe.bus.grant",
        inputs.transactions.len(),
        || {
            let buses = w.buses;
            let queues: Vec<_> = (0..buses)
                .map(|_| BusQueue::with_discipline(inputs.discipline))
                .collect();
            let arbiters: Vec<_> = (0..buses).map(|_| w.arbiter(seed).build()).collect();
            (queues, arbiters)
        },
        |(queues, arbiters)| {
            for &(pe, addr, op) in &inputs.transactions {
                let bus = inputs.routing.bus_of(addr);
                let tx = BusTransaction::new(PeId::new(pe as u16), addr, op);
                while queues[bus].request(tx).is_err() {
                    black_box(queues[bus].grant(arbiters[bus].as_mut()));
                }
            }
            for (queue, arbiter) in queues.iter_mut().zip(arbiters.iter_mut()) {
                while black_box(queue.grant(arbiter.as_mut())).is_some() {}
            }
        },
    );

    ProbeTimes {
        next_op_ns,
        probe_ns,
        broadcast_ns,
        transition_ns,
        table_transition_ns,
        grant_ns,
    }
}

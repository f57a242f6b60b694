//! The processing-element program model.

use crate::{MemOp, OpResult};
use decache_cache::RefClass;
use decache_mem::{Addr, Word};
use std::fmt;

/// What a processor answers when its cache asks for the next operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// Issue this operation.
    Op(MemOp),
    /// Nothing to do this cycle, but more may come (e.g. a conducted
    /// scenario waiting for its next directive). A processor returning
    /// `Wait` must stash anything it needs from the result it was just
    /// shown — it will not be shown again.
    Wait,
    /// The program has finished; the PE halts permanently.
    Halt,
}

impl Poll {
    /// Returns the operation if this is `Poll::Op`.
    pub fn op(self) -> Option<MemOp> {
        match self {
            Poll::Op(op) => Some(op),
            Poll::Wait | Poll::Halt => None,
        }
    }

    /// Returns `true` if this is an operation.
    pub fn is_op(&self) -> bool {
        matches!(self, Poll::Op(_))
    }

    /// Returns `true` if the processor halted.
    pub fn is_halt(&self) -> bool {
        matches!(self, Poll::Halt)
    }
}

impl From<Option<MemOp>> for Poll {
    fn from(op: Option<MemOp>) -> Self {
        match op {
            Some(op) => Poll::Op(op),
            None => Poll::Halt,
        }
    }
}

/// A processor's mutable state in serializable form, for machine
/// checkpoint/restore.
///
/// A checkpoint records *progress through a program*, not the program
/// itself: restore happens into a machine rebuilt with the same
/// processors, so only the position within each program needs to
/// travel. Processors whose state cannot be exported (e.g. arbitrary
/// closures) simply return `None` from
/// [`Processor::checkpoint_state`], which makes the whole machine
/// uncheckpointable with a structured error — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcessorCheckpoint {
    /// A processor with no mutable state (e.g. [`IdleProcessor`]).
    Stateless,
    /// A [`Script`] in flight: how many operations it has not yet
    /// issued.
    Script {
        /// Operations remaining in the script.
        ops_left: u64,
    },
    /// A [`LoopProcessor`] in flight.
    Loop {
        /// Full rounds (plus the current partial one) still to run.
        rounds_left: u64,
        /// Position within the loop body.
        position: u64,
    },
    /// A [`SpinReader`] in flight.
    Spin {
        /// Whether the spin condition has been met.
        satisfied: bool,
    },
    /// A named bag of counters for processors defined outside this
    /// crate (workload generators); the meaning of `words` is fixed by
    /// the processor that wrote it, and `kind` guards against restoring
    /// into the wrong one.
    Custom {
        /// The processor type that produced this state.
        kind: String,
        /// Opaque state words, interpreted by that type.
        words: Vec<u64>,
    },
}

/// A processing element's program: a source of memory operations that
/// reacts to the results of previous operations.
///
/// The paper assumes off-the-shelf PEs whose only interaction with the
/// rest of the machine is through memory references (Section 2); this
/// trait captures exactly that surface. It is expressive enough for
/// straight-line reference streams ([`Script`]), synthetic workload
/// generators, and reactive programs such as Test-and-Test-and-Set
/// spinlocks (which decide the next operation from the last read value).
///
/// # When the machine polls
///
/// Each cycle the machine polls every idle PE's processor, in ascending
/// PE order, before it starts any of the polled operations. A processor
/// sees only its own last result, and starting PE `p`'s operation reads
/// and writes only `p`'s processor slot, status and last result, never
/// another PE's; so every poll returns what it would have returned had
/// the polls and starts been interleaved PE by PE. A processor must
/// not learn about the machine through any other channel (shared state
/// with a cache or bus observer, say), or it could tell the difference.
pub trait Processor {
    /// Produces the next operation, given the result of the previous one
    /// (`None` on the very first call, and after a `Wait`).
    fn next_op(&mut self, last: Option<&OpResult>) -> Poll;

    /// Exports this processor's mutable state for a machine checkpoint,
    /// or `None` if the state cannot be captured (the default — e.g.
    /// closure processors). A `None` makes
    /// [`Machine::checkpoint`](crate::Machine::checkpoint) fail with a
    /// structured error naming the PE.
    fn checkpoint_state(&self) -> Option<ProcessorCheckpoint> {
        None
    }

    /// Rewinds or fast-forwards this processor to a previously exported
    /// state. Called on a freshly built processor during
    /// [`Machine::restore`](crate::Machine::restore).
    ///
    /// # Errors
    ///
    /// Returns a message if `state` has the wrong variant for this
    /// processor or describes an impossible position (the default:
    /// every restore is rejected).
    fn restore_state(&mut self, state: &ProcessorCheckpoint) -> Result<(), String> {
        let _ = state;
        Err("this processor does not support checkpoint restore".into())
    }
}

impl<F> Processor for F
where
    F: FnMut(Option<&OpResult>) -> Poll,
{
    fn next_op(&mut self, last: Option<&OpResult>) -> Poll {
        self(last)
    }
}

/// A fixed, finite sequence of memory operations, built fluently.
///
/// # Examples
///
/// ```
/// use decache_machine::{Processor, Script};
/// use decache_mem::{Addr, Word};
///
/// let mut pe = Script::new()
///     .write(Addr::new(0), Word::new(1))
///     .read(Addr::new(0))
///     .build();
/// assert!(pe.next_op(None).is_op());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Script {
    ops: Vec<MemOp>,
}

impl Script {
    /// Starts an empty script.
    pub fn new() -> Self {
        Script::default()
    }

    /// Appends a shared-class read.
    #[must_use]
    pub fn read(mut self, addr: Addr) -> Self {
        self.ops.push(MemOp::read(addr));
        self
    }

    /// Appends a shared-class write.
    #[must_use]
    pub fn write(mut self, addr: Addr, value: Word) -> Self {
        self.ops.push(MemOp::write(addr, value));
        self
    }

    /// Appends a Test-and-Set.
    #[must_use]
    pub fn test_and_set(mut self, addr: Addr, value: Word) -> Self {
        self.ops.push(MemOp::test_and_set(addr, value));
        self
    }

    /// Appends an arbitrary operation (e.g. with an explicit class).
    #[must_use]
    pub fn op(mut self, op: MemOp) -> Self {
        self.ops.push(op);
        self
    }

    /// Appends a read tagged with a class.
    #[must_use]
    pub fn read_class(mut self, addr: Addr, class: RefClass) -> Self {
        self.ops.push(MemOp::read(addr).with_class(class));
        self
    }

    /// Appends a write tagged with a class.
    #[must_use]
    pub fn write_class(mut self, addr: Addr, value: Word, class: RefClass) -> Self {
        self.ops.push(MemOp::write(addr, value).with_class(class));
        self
    }

    /// Returns the number of operations in the script.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the script is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Finishes the script into a boxed [`Processor`].
    pub fn build(self) -> Box<dyn Processor + Send> {
        Box::new(ScriptProcessor {
            ops: self.ops.into_iter(),
        })
    }
}

/// The running form of a [`Script`]; produced by [`Script::build`].
struct ScriptProcessor {
    ops: std::vec::IntoIter<MemOp>,
}

impl fmt::Debug for ScriptProcessor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ScriptProcessor({} ops left)", self.ops.len())
    }
}

impl Processor for ScriptProcessor {
    fn next_op(&mut self, _last: Option<&OpResult>) -> Poll {
        Poll::from(self.ops.next())
    }

    fn checkpoint_state(&self) -> Option<ProcessorCheckpoint> {
        Some(ProcessorCheckpoint::Script {
            ops_left: self.ops.len() as u64,
        })
    }

    fn restore_state(&mut self, state: &ProcessorCheckpoint) -> Result<(), String> {
        let ProcessorCheckpoint::Script { ops_left } = *state else {
            return Err(format!("script given {state:?}"));
        };
        let have = self.ops.len() as u64;
        if ops_left > have {
            return Err(format!(
                "script checkpoint has {ops_left} ops left but only {have} exist"
            ));
        }
        for _ in 0..(have - ops_left) {
            self.ops.next();
        }
        Ok(())
    }
}

/// A processor that issues no operations; occupies a PE slot in
/// asymmetric experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdleProcessor;

impl Processor for IdleProcessor {
    fn next_op(&mut self, _last: Option<&OpResult>) -> Poll {
        Poll::Halt
    }

    fn checkpoint_state(&self) -> Option<ProcessorCheckpoint> {
        Some(ProcessorCheckpoint::Stateless)
    }

    fn restore_state(&mut self, state: &ProcessorCheckpoint) -> Result<(), String> {
        match state {
            ProcessorCheckpoint::Stateless => Ok(()),
            other => Err(format!("idle processor given {other:?}")),
        }
    }
}

/// Repeats a fixed cyclic sequence of operations a given number of times.
///
/// # Examples
///
/// ```
/// use decache_machine::{LoopProcessor, MemOp, Processor};
/// use decache_mem::{Addr, Word};
///
/// // Ping-pong writes, three rounds.
/// let mut pe = LoopProcessor::new(
///     vec![MemOp::write(Addr::new(0), Word::ONE), MemOp::read(Addr::new(1))],
///     3,
/// );
/// let mut n = 0;
/// while pe.next_op(None).is_op() { n += 1; }
/// assert_eq!(n, 6);
/// ```
#[derive(Debug, Clone)]
pub struct LoopProcessor {
    body: Vec<MemOp>,
    rounds_left: u64,
    position: usize,
}

impl LoopProcessor {
    /// Creates a processor that issues `body` in order, `rounds` times.
    pub fn new(body: Vec<MemOp>, rounds: u64) -> Self {
        LoopProcessor {
            body,
            rounds_left: rounds,
            position: 0,
        }
    }
}

impl Processor for LoopProcessor {
    fn next_op(&mut self, _last: Option<&OpResult>) -> Poll {
        if self.body.is_empty() || self.rounds_left == 0 {
            return Poll::Halt;
        }
        let op = self.body[self.position];
        self.position += 1;
        if self.position == self.body.len() {
            self.position = 0;
            self.rounds_left -= 1;
        }
        Poll::Op(op)
    }

    fn checkpoint_state(&self) -> Option<ProcessorCheckpoint> {
        Some(ProcessorCheckpoint::Loop {
            rounds_left: self.rounds_left,
            position: self.position as u64,
        })
    }

    fn restore_state(&mut self, state: &ProcessorCheckpoint) -> Result<(), String> {
        let ProcessorCheckpoint::Loop {
            rounds_left,
            position,
        } = *state
        else {
            return Err(format!("loop processor given {state:?}"));
        };
        if !self.body.is_empty() && position as usize >= self.body.len() {
            return Err(format!(
                "loop position {position} outside body of {} ops",
                self.body.len()
            ));
        }
        self.rounds_left = rounds_left;
        self.position = position as usize;
        Ok(())
    }
}

/// A word-returning spin: reads `addr` until the value satisfies `until`,
/// then halts. Building block for tests; the full TTS lock lives in
/// `decache-sync`.
pub struct SpinReader {
    addr: Addr,
    until: Box<dyn FnMut(Word) -> bool + Send>,
    satisfied: bool,
}

impl fmt::Debug for SpinReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SpinReader({}, satisfied={})", self.addr, self.satisfied)
    }
}

impl SpinReader {
    /// Spins reading `addr` until `until(value)` is true.
    pub fn new(addr: Addr, until: impl FnMut(Word) -> bool + Send + 'static) -> Self {
        SpinReader {
            addr,
            until: Box::new(until),
            satisfied: false,
        }
    }
}

impl Processor for SpinReader {
    fn next_op(&mut self, last: Option<&OpResult>) -> Poll {
        if self.satisfied {
            return Poll::Halt;
        }
        if let Some(OpResult::Read(w)) = last {
            if (self.until)(*w) {
                self.satisfied = true;
                return Poll::Halt;
            }
        }
        Poll::Op(MemOp::read(self.addr))
    }

    fn checkpoint_state(&self) -> Option<ProcessorCheckpoint> {
        Some(ProcessorCheckpoint::Spin {
            satisfied: self.satisfied,
        })
    }

    fn restore_state(&mut self, state: &ProcessorCheckpoint) -> Result<(), String> {
        let ProcessorCheckpoint::Spin { satisfied } = *state else {
            return Err(format!("spin reader given {state:?}"));
        };
        self.satisfied = satisfied;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_replays_in_order() {
        let mut pe = Script::new()
            .read(Addr::new(0))
            .write(Addr::new(1), Word::new(9))
            .test_and_set(Addr::new(2), Word::ONE)
            .build();
        assert_eq!(pe.next_op(None), Poll::Op(MemOp::read(Addr::new(0))));
        assert_eq!(
            pe.next_op(Some(&OpResult::Read(Word::ZERO))),
            Poll::Op(MemOp::write(Addr::new(1), Word::new(9)))
        );
        assert_eq!(
            pe.next_op(Some(&OpResult::Write)),
            Poll::Op(MemOp::test_and_set(Addr::new(2), Word::ONE))
        );
        assert_eq!(pe.next_op(None), Poll::Halt);
        assert_eq!(pe.next_op(None), Poll::Halt);
    }

    #[test]
    fn script_len_and_classes() {
        let s = Script::new()
            .read_class(Addr::new(0), RefClass::Code)
            .write_class(Addr::new(1), Word::ONE, RefClass::Local);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!(Script::new().is_empty());
    }

    #[test]
    fn closure_is_a_processor() {
        let mut count = 0;
        let mut pe = move |_last: Option<&OpResult>| {
            count += 1;
            Poll::from((count <= 2).then(|| MemOp::read(Addr::new(0))))
        };
        assert!(Processor::next_op(&mut pe, None).is_op());
        assert!(Processor::next_op(&mut pe, None).is_op());
        assert!(Processor::next_op(&mut pe, None).is_halt());
    }

    #[test]
    fn idle_processor_never_issues() {
        let mut pe = IdleProcessor;
        assert!(pe.next_op(None).is_halt());
    }

    #[test]
    fn loop_processor_counts_rounds() {
        let mut pe = LoopProcessor::new(vec![MemOp::read(Addr::new(0))], 5);
        let mut n = 0;
        while pe.next_op(None).is_op() {
            n += 1;
        }
        assert_eq!(n, 5);
    }

    #[test]
    fn empty_loop_body_halts_immediately() {
        let mut pe = LoopProcessor::new(vec![], 10);
        assert!(pe.next_op(None).is_halt());
    }

    #[test]
    fn script_checkpoint_fast_forwards_to_position() {
        let script = Script::new()
            .read(Addr::new(0))
            .read(Addr::new(1))
            .read(Addr::new(2));
        let mut pe = script.clone().build();
        pe.next_op(None); // consume op 0
        let state = pe.checkpoint_state().unwrap();
        assert_eq!(state, ProcessorCheckpoint::Script { ops_left: 2 });

        let mut fresh = script.build();
        fresh.restore_state(&state).unwrap();
        assert_eq!(
            fresh.next_op(None),
            Poll::Op(MemOp::read(Addr::new(1))),
            "restored script resumes at the checkpointed position"
        );
        // A position beyond the program is a structured error.
        let mut fresh = Script::new().read(Addr::new(0)).build();
        assert!(fresh
            .restore_state(&ProcessorCheckpoint::Script { ops_left: 9 })
            .is_err());
    }

    #[test]
    fn loop_and_spin_checkpoints_round_trip() {
        let body = vec![MemOp::read(Addr::new(0)), MemOp::read(Addr::new(1))];
        let mut pe = LoopProcessor::new(body.clone(), 3);
        pe.next_op(None);
        let state = pe.checkpoint_state().unwrap();
        let mut fresh = LoopProcessor::new(body.clone(), 3);
        fresh.restore_state(&state).unwrap();
        assert_eq!(fresh.next_op(None), Poll::Op(body[1]));
        assert!(fresh
            .restore_state(&ProcessorCheckpoint::Loop {
                rounds_left: 1,
                position: 99,
            })
            .is_err());

        let mut spin = SpinReader::new(Addr::new(4), decache_mem::Word::is_zero);
        spin.next_op(Some(&OpResult::Read(Word::ZERO)));
        let state = spin.checkpoint_state().unwrap();
        assert_eq!(state, ProcessorCheckpoint::Spin { satisfied: true });
        let mut fresh = SpinReader::new(Addr::new(4), decache_mem::Word::is_zero);
        fresh.restore_state(&state).unwrap();
        assert!(fresh.next_op(None).is_halt());
    }

    #[test]
    fn closure_processors_are_not_checkpointable() {
        let mut pe = |_last: Option<&OpResult>| Poll::Halt;
        assert!(Processor::checkpoint_state(&pe).is_none());
        assert!(Processor::restore_state(&mut pe, &ProcessorCheckpoint::Stateless).is_err());
    }

    #[test]
    fn spin_reader_stops_on_condition() {
        let mut pe = SpinReader::new(Addr::new(4), decache_mem::Word::is_zero);
        // Issues a read, sees 1, spins; sees 0, halts.
        assert!(pe.next_op(None).is_op());
        assert!(pe.next_op(Some(&OpResult::Read(Word::ONE))).is_op());
        assert!(pe.next_op(Some(&OpResult::Read(Word::ZERO))).is_halt());
        assert!(pe.next_op(None).is_halt());
    }
}

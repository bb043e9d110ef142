//! The machine simulator: processors + cache controllers + home nodes +
//! network, driven by a discrete-event loop.
//!
//! The engine is split in two layers:
//!
//! * `Core` — the shardable simulation state (a contiguous node
//!   range: homes, caches, processors, network ports, per-node event
//!   queue and statistics) plus the event dispatcher. A serial run uses
//!   one full-range core; a PDES run (the `pdes` module) splits the
//!   core into per-worker shards and merges them back afterwards.
//! * [`Machine`] — the public wrapper owning the run policy and the
//!   serial-only instrumentation (tracer, fault injector, paranoid
//!   checking, debug ring), which all force the serial path so the
//!   parallel dispatcher never has to synchronize on them.
//!
//! Every event carries an explicit 128-bit tie-break key (see
//! `key_wire` / `key_local` / `key_barrier`): same-cycle events
//! dispatch in key order, the key of an event is derived only from
//! deterministic per-node counters, and a key names the node it
//! belongs to in its top bits. That is what makes the parallel engine
//! bit-identical to the serial one — each shard dispatches exactly the
//! subsequence of the serial dispatch order that touches its nodes.
//!
//! A processor running an [`Action::Spin`] whose watched line is cached
//! and reads the awaited value is *parked*: it keeps its iteration
//! schedule but has no queued event. Only a cache-side event at its
//! node (a cache-bound message, an injected eviction or corruption)
//! can change what the next load reads, so each such event first
//! settles the iterations that sort before it — retiring them in bulk
//! exactly as their dispatches would have — and then re-parks the
//! spinner or queues its next iteration as an ordinary `ProcStep`.

use crate::program::{Action, ProcCtx, Program};
use crate::stats::{merge_node_stats, MachineStats, NodeStats, SyncRec, SyncRecKind};
use dsm_mesh::{Mesh, NetPorts};
use dsm_protocol::{
    check_invariants, check_line, AddressMap, CacheNode, CacheState, DirState, HomeNode,
    InvariantViolation, MemOp, Msg, OpOutcome, OpResult, Outbox, ProtocolError, ProtocolErrorKind,
    SyncConfig, Value,
};
use dsm_sim::{
    Addr, Cycle, EventQueue, FaultConfig, FaultEvent, FaultFilter, FaultInjector, FaultRecord,
    LineAddr, MachineConfig, NodeId, ProcId, ProtoSpec, ProtoVariant, SimRng, StableHasher,
};
use dsm_trace::{Category, StateLabel, TraceSpec, Tracer};
use std::fmt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Converts a directory state into the label-shaped form trace events
/// carry (`dsm-trace` does not depend on the protocol crate).
fn dir_label(state: &DirState) -> StateLabel {
    match state {
        DirState::Uncached => StateLabel::plain("Uncached"),
        DirState::Shared(sharers) => StateLabel {
            name: "Shared",
            n: sharers.len() as u32,
        },
        DirState::Dirty(owner) => StateLabel {
            name: "Dirty",
            n: owner.as_u32(),
        },
    }
}

/// Converts a cache-line state (`None` = not resident) into a label.
fn cache_label(state: Option<CacheState>) -> StateLabel {
    match state {
        None => StateLabel::plain("Invalid"),
        Some(CacheState::Shared) => StateLabel::plain("Shared"),
        Some(CacheState::Exclusive) => StateLabel::plain("Exclusive"),
    }
}

/// The state of one processor at the moment a run failed, for deadlock
/// and livelock diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcDump {
    /// Which processor.
    pub proc: ProcId,
    /// The outstanding memory operation, if the processor was blocked on
    /// one.
    pub op: Option<MemOp>,
    /// The target address of that operation.
    pub addr: Option<Addr>,
    /// When the outstanding operation was issued.
    pub issued: Option<Cycle>,
    /// The barrier the processor was waiting at, if any.
    pub barrier: Option<u32>,
}

impl fmt::Display for ProcDump {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.proc)?;
        match (self.op, self.issued) {
            (Some(op), Some(at)) => write!(f, " blocked on {op:?} issued at {at}")?,
            (Some(op), None) => write!(f, " blocked on {op:?}")?,
            _ => {}
        }
        if let Some(b) = self.barrier {
            write!(f, " waiting at barrier {b}")?;
        }
        Ok(())
    }
}

/// Error returned when a run cannot complete: cycle limit, deadlock,
/// livelock, a protocol-state error, a barrier-id mismatch in the
/// simulated programs, or (in paranoid mode) a violated protocol
/// invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The cycle limit was reached with processors still active.
    CycleLimit {
        /// The limit that was exhausted.
        limit: Cycle,
        /// Processors that had not terminated.
        active: usize,
    },
    /// The event queue drained while processors were still blocked —
    /// a protocol or program bug.
    Deadlock {
        /// Time of the last processed event.
        at: Cycle,
        /// Processors that had not terminated.
        active: usize,
        /// Per-processor blocked-on state at the moment of deadlock.
        procs: Vec<ProcDump>,
    },
    /// Events kept firing but no memory operation retired for a full
    /// watchdog window ([`FaultConfig::watchdog`] cycles) while at least
    /// one processor had an operation outstanding.
    Livelock {
        /// Time at which the watchdog fired.
        at: Cycle,
        /// The retirement-progress window that elapsed, in cycles.
        window: u64,
        /// Per-processor blocked-on state when the watchdog fired.
        procs: Vec<ProcDump>,
    },
    /// A protocol engine reached a state it cannot legally handle.
    Protocol {
        /// Time of the offending transition.
        at: Cycle,
        /// The structured protocol diagnostic.
        error: ProtocolError,
    },
    /// Paranoid mode found a protocol invariant violated after a
    /// transition (or the quiescence sweep failed at run end).
    Invariant {
        /// Time of the check that failed.
        at: Cycle,
        /// The first violation found.
        violation: InvariantViolation,
    },
    /// Every active processor waits at a simulated barrier, but not all
    /// at the same one — an error in the simulated program.
    BarrierMismatch {
        /// The cycle the last processor arrived (the release time).
        at: Cycle,
        /// The lowest-numbered waiting processor and its barrier id.
        first: (ProcId, u32),
        /// The lowest-numbered processor waiting at a different id.
        other: (ProcId, u32),
    },
    /// A program asked to spin ([`Action::Spin`]) on a registered
    /// synchronization address — an error in the simulated program:
    /// sync accesses are logged one by one for the contention
    /// statistics, so a spin loop must watch an ordinary line.
    SpinOnSync {
        /// When the spin was requested.
        at: Cycle,
        /// The spinning processor.
        proc: ProcId,
        /// The watched address.
        addr: Addr,
    },
    /// The host wall-clock budget for this run elapsed before the
    /// simulation finished. Unlike every other variant this is a
    /// *transient* host condition, not a property of the simulated
    /// machine: rerunning the same job on a less loaded host may well
    /// succeed, so supervisors retry it and never cache it.
    Timeout {
        /// Simulated time when the budget check fired.
        at: Cycle,
        /// Host milliseconds actually spent.
        elapsed_ms: u64,
        /// The wall-clock budget that was exhausted, in milliseconds.
        limit_ms: u64,
    },
}

impl RunError {
    /// `true` for failures caused by the *host* (wall-clock timeouts)
    /// rather than by the simulated machine. Transient failures are
    /// worth retrying and must never be cached or treated as evidence
    /// of a protocol bug; deterministic failures (deadlock, livelock,
    /// protocol errors, invariant violations, cycle limits) reproduce
    /// under replay and are legitimate cache entries and shrink targets.
    pub fn is_transient(&self) -> bool {
        matches!(self, RunError::Timeout { .. })
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::CycleLimit { limit, active } => {
                write!(
                    f,
                    "cycle limit {limit} reached with {active} processors active"
                )
            }
            RunError::Deadlock { at, active, procs } => {
                write!(
                    f,
                    "deadlock at {at}: {active} processors blocked with no pending events"
                )?;
                for p in procs
                    .iter()
                    .filter(|p| p.op.is_some() || p.barrier.is_some())
                {
                    write!(f, "; {p}")?;
                }
                Ok(())
            }
            RunError::Livelock { at, window, procs } => {
                write!(f, "livelock at {at}: no op retired for {window} cycles")?;
                for p in procs.iter().filter(|p| p.op.is_some()) {
                    write!(f, "; {p}")?;
                }
                Ok(())
            }
            RunError::Protocol { at, error } => write!(f, "at {at}: {error}"),
            RunError::Invariant { at, violation } => write!(f, "at {at}: {violation}"),
            RunError::BarrierMismatch {
                at,
                first: (p, b),
                other: (q, c),
            } => write!(
                f,
                "barrier mismatch at {at}: {p} waits at barrier {b} but {q} waits at barrier {c}"
            ),
            RunError::SpinOnSync { at, proc, addr } => write!(
                f,
                "at {at}: {proc} spins on synchronization address {addr}; \
                 spin loops must watch ordinary lines"
            ),
            RunError::Timeout {
                at,
                elapsed_ms,
                limit_ms,
            } => write!(
                f,
                "wall-clock budget exhausted at {at}: {elapsed_ms}ms spent, limit {limit_ms}ms \
                 (transient host condition — retry)"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// Summary of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// Simulated time at which the last processor terminated.
    pub cycles: Cycle,
    /// Total discrete events processed.
    pub events: u64,
}

/// Where [`Machine::run_until`] should pause, if anywhere.
///
/// Pauses happen on event boundaries: the rule is checked after each
/// dispatched event, so a paused machine holds a state that an
/// uninterrupted run passes through exactly. That makes
/// [`StopRule::AfterEvents`] the replay coordinate of the checkpoint
/// system — rebuilding the same machine and pausing after the same
/// event count reproduces the paused state bit for bit.
///
/// A stop rule other than [`StopRule::None`] forces the serial engine
/// (worker setting ignored): pause points are defined by the global
/// event order, which only the serial loop observes directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopRule {
    /// Never pause (equivalent to [`Machine::run`]).
    None,
    /// Pause after the first event dispatched at or beyond this time.
    PauseAt(Cycle),
    /// Pause once this many events (counted from machine construction)
    /// have been dispatched.
    AfterEvents(u64),
}

/// What [`Machine::run_until`] returned: a finished run or a pause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every processor terminated and the machine is quiescent.
    Done(RunReport),
    /// The stop rule fired; call [`Machine::run_until`] again to resume.
    Paused(RunReport),
}

impl RunOutcome {
    /// The report, whether the run finished or paused.
    pub fn report(&self) -> RunReport {
        match *self {
            RunOutcome::Done(r) | RunOutcome::Paused(r) => r,
        }
    }
}

// ---------------------------------------------------------------------
// Canonical event keys
// ---------------------------------------------------------------------
//
// Every queued event carries a `u128` key with the layout
//
//   bits 96..128  node the event belongs to (dispatch shard)
//   bits 88..96   rank: 0 = Wire, 1 = Deliver, 2 = local, 3 = barrier
//   bits  0..88   rank-specific sub-key
//
// Same-cycle events dispatch in ascending key order. Because the node
// occupies the top bits, the serial dispatch order visits same-cycle
// events grouped by node — so a per-node (per-shard) dispatch order is
// exactly the serial order restricted to that node, which is the
// invariant the PDES engine rides on. Sub-keys come from per-node
// monotone counters (the network's per-source launch sequence for
// wire/deliver events, the push cycle plus `Core::local_seq` for local
// events), never from global state.

/// Bit position of the rank field in an event key.
pub(crate) const RANK_SHIFT: u32 = 88;

/// Width of a local key's per-cycle sequence field.
const LOCAL_SEQ_BITS: u32 = 24;

/// The largest sequence number a local key can carry.
const LOCAL_SEQ_MAX: u64 = (1 << LOCAL_SEQ_BITS) - 1;

/// Key of a [`Event::Wire`] arrival: destination node, rank 0, then
/// `(src, launch_seq)` — the per-source FIFO coordinate.
#[inline]
pub(crate) fn key_wire(dst: NodeId, src: NodeId, seq: u64) -> u128 {
    debug_assert!(seq < 1 << 56, "launch sequence overflow");
    (u128::from(dst.as_u32()) << 96) | (u128::from(src.as_u32()) << 56) | u128::from(seq)
}

/// Key of a local event (`Process`, `ProcStep`, `OpDone`): node, rank
/// 2, then the cycle the event was pushed at (bits 24..88) and the
/// node's sequence number within that cycle (bits 0..24). A node pushes
/// its local events in time order, so `(pushed, seq)` orders them
/// exactly as one monotone per-node counter would — and lets a fused
/// push claim the slot of an event pushed at a later cycle.
#[inline]
pub(crate) fn key_local(node: u32, pushed: Cycle, seq: u64) -> u128 {
    debug_assert!(seq <= LOCAL_SEQ_MAX, "local sequence overflow");
    (u128::from(node) << 96)
        | (2u128 << RANK_SHIFT)
        | (u128::from(pushed.as_u64()) << LOCAL_SEQ_BITS)
        | u128::from(seq)
}

/// Key of a fused `ProcStep` (see [`Core::push_fused`]): a local key
/// pushed at `skipped` with the largest sequence number, so it sorts
/// after every local event the node pushes in that cycle.
#[inline]
pub(crate) fn key_fused(node: u32, skipped: Cycle) -> u128 {
    key_local(node, skipped, LOCAL_SEQ_MAX)
}

/// Key of a barrier-release `ProcStep`: node, rank 3. Rank 3 sorts
/// after every other same-cycle event of the node, which matches the
/// serial engine where the release is pushed while dispatching the
/// trigger event (the last arrival) and therefore runs after all
/// already-queued same-cycle work.
#[inline]
pub(crate) fn key_barrier(node: u32) -> u128 {
    (u128::from(node) << 96) | (3u128 << RANK_SHIFT) | u128::from(node)
}

/// The node (= dispatch shard coordinate) an event key belongs to.
#[inline]
pub(crate) fn key_node(key: u128) -> u32 {
    (key >> 96) as u32
}

#[derive(Debug)]
pub(crate) enum Event {
    /// A message's head flit reached its destination's network exit
    /// port (split-phase network, phase 2 pending): the destination
    /// shard runs [`NetPorts::eject`] to serialize it through the exit
    /// port and learn the delivery time.
    Wire(Box<Msg>),
    /// A message arrived at its destination (exit port included).
    ///
    /// Messages are boxed so a queue entry stays pointer-sized: every
    /// message transits the queue two or three times and a `Msg` is
    /// over a hundred bytes, so by-value events would memcpy each
    /// message through the heap several extra times.
    Deliver(Box<Msg>),
    /// A server (memory module or cache controller) finished processing
    /// a message. The second field is the operation span the message
    /// works for (0 when tracing is off or the flow is span-less); it
    /// bridges the service-start → service-finish gap so protocol
    /// handler output inherits the requester's span. Diagnostic-only:
    /// it never influences simulation behaviour and is excluded from
    /// [`Machine::state_digest`] like the tracer that produces it.
    Process(Box<Msg>, u64),
    /// A processor is ready for its next program step.
    ProcStep(ProcId),
    /// A processor's outstanding *remote* operation completed (a local
    /// cache hit retires inside the dispatch that issues it and never
    /// becomes an event; see [`Core::issue_op`]).
    ///
    /// Boxed for the same reason as messages: a slim queue entry halves
    /// the bytes the time wheel has to shuffle per event. The boxes come
    /// from (and return to) a recycling pool, so no allocation happens
    /// at steady state.
    OpDone(ProcId, Box<OpOutcome>),
}

/// What a dispatched event did to the global run condition — the only
/// two effects that need cross-shard coordination. The serial loop
/// reacts by scanning for a barrier release; the PDES coordinator
/// folds them into its generation bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Effect {
    /// Nothing the scheduler needs to know about.
    None,
    /// A processor arrived at a barrier.
    Arrived,
    /// A processor terminated.
    Finished,
}

/// Which barriers a set of processors waits at, reduced to what the
/// release check needs: the lowest-numbered waiting processor with its
/// barrier id, and the lowest-numbered one waiting at a different id.
/// Shard summaries merge into the whole machine's, so the serial and
/// PDES engines report the same mismatch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Waiters {
    first: Option<(ProcId, u32)>,
    other: Option<(ProcId, u32)>,
}

impl Waiters {
    /// Merges summaries of disjoint processor sets.
    pub(crate) fn merge(parts: &[Waiters]) -> Waiters {
        let Some(first) = parts.iter().filter_map(|w| w.first).min() else {
            return Waiters::default();
        };
        // A part whose own first waiter disagrees with the global one
        // offers that waiter; otherwise its own `other` disagrees too.
        let other = parts
            .iter()
            .filter_map(|w| match w.first {
                Some(f) if f.1 != first.1 => Some(f),
                _ => w.other,
            })
            .min();
        Waiters {
            first: Some(first),
            other,
        }
    }

    /// The error to report when the waiters do not agree.
    pub(crate) fn check(&self, at: Cycle) -> Result<(), RunError> {
        match (self.first, self.other) {
            (Some(first), Some(other)) => Err(RunError::BarrierMismatch { at, first, other }),
            _ => Ok(()),
        }
    }
}

/// The debug message-trace ring buffer: `(capacity, entries)`.
pub(crate) type TraceRing = (usize, std::collections::VecDeque<String>);

/// Everything a [`Core`] needs from its environment while dispatching:
/// instrumentation (tracer, debug ring, fault jitter, paranoid flag)
/// and the cross-shard message transport. The serial engine passes a
/// [`SerialIo`] borrowing the machine's instrumentation; shards pass a
/// transport that pushes into inter-worker channels and report no
/// instrumentation (those modes force the serial path).
pub(crate) trait ShardIo {
    /// Fault-injected extra network delay for a message sent now.
    fn jitter(&mut self, _now: Cycle) -> u64 {
        0
    }
    /// The structured tracer, when tracing is on.
    fn tracer(&mut self) -> Option<&mut Tracer> {
        None
    }
    /// The debug message ring, when enabled.
    fn ring(&mut self) -> Option<&mut TraceRing> {
        None
    }
    /// Run the per-transition invariant checker.
    fn paranoid(&self) -> bool {
        false
    }
    /// Hand a message whose destination is outside this core's range to
    /// the cross-shard transport, keyed for deterministic merge.
    fn send_remote(&mut self, wire_at: Cycle, key: u128, msg: Msg);
}

struct ProcState {
    program: Box<dyn Program>,
    rng: SimRng,
    done: bool,
    blocked: bool,
    waiting_barrier: Option<u32>,
    last: Option<OpResult>,
    last_chain: Option<u32>,
    /// (op, issue time, tracked-as-sync) of the outstanding operation.
    current: Option<(MemOp, Cycle, bool)>,
    /// The action the program chose right after a local hit retired,
    /// taken by the `ProcStep` that resumes the processor.
    next: Option<Action>,
    /// The spin loop the processor runs on its program's behalf
    /// ([`Action::Spin`]), until a load reads something other than
    /// `seen`.
    spin: Option<SpinLoop>,
    /// While parked: the cycle the spin's next iteration issues its
    /// load at. Iteration `k` after it issues at `parked + k * period`
    /// and sorts under `key_fused(p, issue - delay)`, the key its
    /// `ProcStep` would have had.
    parked: Option<Cycle>,
    /// The trace span of the outstanding operation (0 = none).
    /// Diagnostic-only; excluded from [`Machine::state_digest`].
    span: u64,
}

/// An [`Action::Spin`] in progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SpinLoop {
    addr: Addr,
    seen: Value,
    delay: u64,
}

// ---------------------------------------------------------------------
// Core: the shardable engine
// ---------------------------------------------------------------------

/// The shardable simulation state for a contiguous node range
/// `[lo, hi)` plus the event dispatcher that advances it.
///
/// A serial run owns one full-range core. A PDES run splits the core
/// into per-worker shards ([`Core::split_off`]); each shard is a fully
/// self-contained simulator for its nodes — its own event queue,
/// network ports ([`NetPorts::split`]), statistics accumulators and
/// recycling pools — communicating with other shards only through
/// keyed cross-shard messages ([`ShardIo::send_remote`]) and the
/// coordinator's barrier/termination protocol. [`Core::absorb`] puts
/// the machine back together.
pub(crate) struct Core {
    /// First node owned by this core.
    pub(crate) lo: u32,
    /// One past the last node owned by this core.
    pub(crate) hi: u32,
    pub(crate) cfg: MachineConfig,
    pub(crate) map: AddressMap,
    pub(crate) mesh: Mesh,
    pub(crate) now: Cycle,
    pub(crate) events: EventQueue<Event>,
    pub(crate) ports: NetPorts,
    homes: Vec<HomeNode>,
    caches: Vec<CacheNode>,
    procs: Vec<ProcState>,
    /// Per-node memory-module server availability.
    mem_busy: Vec<Cycle>,
    /// Per-node cache-controller server availability.
    cache_busy: Vec<Cycle>,
    /// Per-node statistics, merged on demand (canonical node order).
    pub(crate) nstats: Vec<NodeStats>,
    /// Append-only log of sync begin/end records; replayed in canonical
    /// coordinate order when global statistics are read.
    pub(crate) sync_log: Vec<SyncRec>,
    /// Per-node `(cycle, pushes)` of the node's latest local push: the
    /// push-cycle and sequence fields of its local event keys.
    local_seq: Vec<(Cycle, u64)>,
    /// Per-node monotone sequence for sync-log coordinates.
    sync_seq: Vec<u64>,
    /// Non-terminated processors in this core's range.
    pub(crate) active: usize,
    pub(crate) events_processed: u64,
    /// Last time a memory operation retired (watchdog bookkeeping).
    pub(crate) last_retire: Cycle,
    /// Reusable outbox: protocol handlers fill it, [`Core::route`]
    /// drains it in place, and the backing vector's capacity survives
    /// from event to event instead of being reallocated per dispatch.
    outbox: Outbox,
    /// Recycled message boxes: every in-flight message lives in a
    /// `Box<Msg>` (see [`Event`]), and at steady state the simulator
    /// would otherwise pay a malloc/free pair per message. The boxing
    /// is the point — these pools hold ready-made heap allocations for
    /// [`Event`] payloads — so clippy's vec_box (which assumes the
    /// indirection is accidental) does not apply.
    #[allow(clippy::vec_box)]
    msg_pool: Vec<Box<Msg>>,
    /// Recycled completion boxes, same idea as `msg_pool` but for
    /// [`Event::OpDone`] payloads.
    #[allow(clippy::vec_box)]
    outcome_pool: Vec<Box<OpOutcome>>,
}

/// Partitions `nodes` into `workers` contiguous shard ranges
/// `(lo, count)`, remainder spread over the first shards.
pub(crate) fn shard_bounds(nodes: u32, workers: usize) -> Vec<(u32, u32)> {
    let w = (workers.max(1) as u32).min(nodes.max(1));
    let base = nodes / w;
    let rem = nodes % w;
    let mut out = Vec::with_capacity(w as usize);
    let mut lo = 0;
    for i in 0..w {
        let count = base + u32::from(i < rem);
        out.push((lo, count));
        lo += count;
    }
    out
}

/// Which shard of `bounds` owns `node`.
pub(crate) fn shard_of(bounds: &[(u32, u32)], node: u32) -> usize {
    bounds
        .iter()
        .position(|&(lo, count)| node >= lo && node < lo + count)
        .expect("node outside every shard")
}

impl Core {
    /// Local index of a node in this core's vectors.
    #[inline]
    fn li(&self, node: u32) -> usize {
        debug_assert!(
            node >= self.lo && node < self.hi,
            "node {node} outside shard [{}, {})",
            self.lo,
            self.hi
        );
        (node - self.lo) as usize
    }

    /// `true` if this core simulates `node`.
    #[inline]
    fn owns(&self, node: u32) -> bool {
        node >= self.lo && node < self.hi
    }

    /// Pushes a local event keyed after every local event the node has
    /// pushed so far.
    fn push_local(&mut self, at: Cycle, node: u32, event: Event) {
        let i = self.li(node);
        let (cycle, seq) = &mut self.local_seq[i];
        if *cycle != self.now {
            *cycle = self.now;
            *seq = 0;
        }
        // The largest sequence number is reserved for fused pushes.
        debug_assert!(*seq < LOCAL_SEQ_MAX, "local sequence overflow");
        let key = key_local(node, self.now, *seq);
        *seq += 1;
        self.events.push_keyed(at, key, event);
    }

    /// Pushes the `ProcStep` that stands in for a chain of skipped local
    /// events, under the key the last skipped event would have given
    /// it: pushed at `skipped` (the cycle that event would have been
    /// dispatched at), after every local event the node pushes in that
    /// cycle. That is the exact serial position, because while a hit
    /// retires or the processor computes, the node's only same-cycle
    /// local pushes come from its rank-0/1 `Wire`/`Deliver` dispatches,
    /// which run before any rank-2 event of the cycle — no remote
    /// completion can land for a processor with nothing outstanding.
    fn push_fused(&mut self, at: Cycle, skipped: Cycle, p: ProcId) {
        let key = key_fused(p.as_u32(), skipped);
        self.events.push_keyed(at, key, Event::ProcStep(p));
    }

    /// Accepts a cross-shard message from the transport: re-boxes it
    /// from the local pool and queues its wire arrival under the
    /// sender-assigned key.
    pub(crate) fn push_remote(&mut self, wire_at: Cycle, key: u128, msg: Msg) {
        let boxed = self.box_msg(msg);
        self.events.push_keyed(wire_at, key, Event::Wire(boxed));
    }

    /// Wraps a message in a (pooled) box for the event queue.
    fn box_msg(&mut self, msg: Msg) -> Box<Msg> {
        match self.msg_pool.pop() {
            Some(mut b) => {
                *b = msg;
                b
            }
            None => Box::new(msg),
        }
    }

    /// Wraps a completion in a (pooled) box for the event queue.
    fn box_outcome(&mut self, outcome: OpOutcome) -> Box<OpOutcome> {
        match self.outcome_pool.pop() {
            Some(mut b) => {
                *b = outcome;
                b
            }
            None => Box::new(outcome),
        }
    }

    /// Moves the message out of its box and returns the box to the
    /// recycling pool.
    fn recycle(&mut self, mut msg: Box<Msg>) -> Msg {
        let taken = std::mem::replace(
            &mut *msg,
            Msg {
                src: NodeId::new(0),
                dst: NodeId::new(0),
                line: dsm_sim::LineAddr::new(0),
                addr: dsm_sim::Addr::new(0),
                proc: ProcId::new(0),
                chain: 0,
                kind: dsm_protocol::MsgKind::GetS,
            },
        );
        self.msg_pool.push(msg);
        taken
    }

    /// Dispatches one event. `key` is the event's queue key (needed to
    /// derive the delivery key of a wire arrival).
    pub(crate) fn dispatch(
        &mut self,
        key: u128,
        event: Event,
        io: &mut impl ShardIo,
    ) -> Result<Effect, RunError> {
        match event {
            Event::ProcStep(p) => self.proc_step(p, io),
            Event::OpDone(p, outcome) => {
                let o = *outcome;
                self.outcome_pool.push(outcome);
                self.retire(p, o, self.now, io)?;
                self.push_local(
                    self.now + self.cfg.params.issue,
                    p.as_u32(),
                    Event::ProcStep(p),
                );
                Ok(Effect::None)
            }
            Event::Wire(msg) => {
                self.wire(key, msg, io);
                Ok(Effect::None)
            }
            Event::Deliver(msg) => {
                self.deliver(msg, io);
                Ok(Effect::None)
            }
            Event::Process(msg, span) => {
                self.process(key, msg, span, io)?;
                Ok(Effect::None)
            }
        }
    }

    /// Routes freshly emitted messages into the network, draining the
    /// outbox in place so its allocation is reusable. Phase 1 of the
    /// split-phase network: the *source* shard serializes the message
    /// through its entry port and learns the wire-arrival time; the
    /// destination shard finishes the job in [`Core::wire`].
    fn route(&mut self, out: &mut Outbox, io: &mut impl ShardIo) {
        for msg in out.msgs.drain(..) {
            if let Some((cap, q)) = io.ring() {
                if q.len() == *cap {
                    q.pop_front();
                }
                q.push_back(format!(
                    "{} {}->{} {} {:?}",
                    self.now,
                    msg.src,
                    msg.dst,
                    msg.line,
                    std::mem::discriminant(&msg.kind)
                ));
            }
            let src_li = self.li(msg.src.as_u32());
            self.nstats[src_li].msgs.count(msg.kind.class());
            let flits = msg.flits(&self.cfg.params);
            let extra = io.jitter(self.now);
            let (wire_at, seq) = self.ports.launch(
                &self.cfg.params,
                &self.mesh,
                self.now,
                msg.src,
                msg.dst,
                flits,
                extra,
            );
            if let Some(tracer) = io.tracer() {
                if tracer.wants(Category::Msg) {
                    // Wire arrival, not final delivery: the exit port is
                    // the destination's business and unknown at launch.
                    tracer.msg_send(
                        self.now,
                        msg.src,
                        msg.dst,
                        msg.line,
                        msg.kind.label(),
                        flits,
                        self.cfg.hops(msg.src, msg.dst),
                        wire_at,
                    );
                }
            }
            let key = key_wire(msg.dst, msg.src, seq);
            if self.owns(msg.dst.as_u32()) {
                let boxed = self.box_msg(msg);
                self.events.push_keyed(wire_at, key, Event::Wire(boxed));
            } else {
                io.send_remote(wire_at, key, msg);
            }
        }
    }

    /// Phase 2 of the split-phase network: the destination serializes
    /// the arrived message through its exit port. When the exit port is
    /// free the message is delivered inline (no extra queue transit).
    fn wire(&mut self, key: u128, msg: Box<Msg>, io: &mut impl ShardIo) {
        let flits = msg.flits(&self.cfg.params);
        let delivered = self
            .ports
            .eject(&self.cfg.params, self.now, msg.src, msg.dst, flits);
        if delivered == self.now {
            self.deliver(msg, io);
        } else {
            self.events
                .push_keyed(delivered, key | (1u128 << RANK_SHIFT), Event::Deliver(msg));
        }
    }

    /// A message reached its destination: queue it for the appropriate
    /// server (memory module or cache controller).
    fn deliver(&mut self, msg: Box<Msg>, io: &mut impl ShardIo) {
        let node = self.li(msg.dst.as_u32());
        let (busy, service) = if msg.kind.home_bound() {
            (
                &mut self.mem_busy[node],
                self.cfg.params.dir_access + self.cfg.params.mem_access,
            )
        } else {
            (&mut self.cache_busy[node], self.cfg.params.cache_ctrl)
        };
        let start = self.now.max(*busy);
        let finish = start + service;
        *busy = finish;
        let mut span = 0;
        if let Some(tracer) = io.tracer() {
            if tracer.wants(Category::Msg) {
                span = tracer.msg_service(
                    start,
                    finish,
                    msg.src,
                    msg.dst,
                    msg.kind.label(),
                    msg.kind.home_bound(),
                    msg.kind.service_phase(),
                );
            }
        }
        let dst = msg.dst.as_u32();
        self.push_local(finish, dst, Event::Process(msg, span));
    }

    /// Asks processor `p`'s program for its next action, as of `now`.
    fn step_program(&mut self, p: ProcId, now: Cycle) -> Action {
        let i = self.li(p.as_u32());
        let state = &mut self.procs[i];
        let mut ctx = ProcCtx {
            proc: p,
            now,
            last: state.last.take(),
            last_chain: state.last_chain.take(),
            rng: &mut state.rng,
        };
        state.program.step(&mut ctx)
    }

    /// The processor's next action as of `now`. While it spins, the
    /// spin loop answers for the program: a finished compute phase
    /// issues the load, a load that read `seen` computes again, and the
    /// first load that read something else resumes the program with
    /// that result. A program's new [`Action::Spin`] starts the loop
    /// with its compute phase.
    fn next_action(&mut self, p: ProcId, now: Cycle) -> Result<Action, RunError> {
        let i = self.li(p.as_u32());
        let state = &mut self.procs[i];
        if let Some(spin) = state.spin {
            match state.last {
                None => return Ok(Action::Op(MemOp::Load { addr: spin.addr })),
                Some(result) if result.value() == Some(spin.seen) => {
                    state.last = None;
                    state.last_chain = None;
                    return Ok(Action::Compute(spin.delay));
                }
                Some(_) => state.spin = None,
            }
        }
        match self.step_program(p, now) {
            Action::Spin { addr, seen, delay } => {
                if self.map.sync_config_for(addr).is_some() {
                    return Err(RunError::SpinOnSync {
                        at: now,
                        proc: p,
                        addr,
                    });
                }
                self.procs[i].spin = Some(SpinLoop { addr, seen, delay });
                Ok(Action::Compute(delay))
            }
            action => Ok(action),
        }
    }

    fn proc_step(&mut self, p: ProcId, io: &mut impl ShardIo) -> Result<Effect, RunError> {
        let i = self.li(p.as_u32());
        let state = &mut self.procs[i];
        if state.done || state.blocked || state.waiting_barrier.is_some() {
            return Ok(Effect::None);
        }
        debug_assert!(state.parked.is_none(), "a parked processor has no ProcStep");
        let action = match state.next.take() {
            Some(action) => action,
            None => self.next_action(p, self.now)?,
        };
        match action {
            Action::Compute(cycles) => {
                self.push_local(self.now + cycles, p.as_u32(), Event::ProcStep(p));
                Ok(Effect::None)
            }
            Action::Barrier(id) => {
                self.procs[i].waiting_barrier = Some(id);
                Ok(Effect::Arrived)
            }
            Action::Done => {
                self.procs[i].done = true;
                self.active -= 1;
                Ok(Effect::Finished)
            }
            Action::Op(op) => {
                self.issue_op(p, op, io)?;
                Ok(Effect::None)
            }
            Action::Spin { .. } => unreachable!("next_action turns a spin into its steps"),
        }
    }

    fn issue_op(&mut self, p: ProcId, op: MemOp, io: &mut impl ShardIo) -> Result<(), RunError> {
        // One map lookup answers both "sync line?" and "which policy?".
        let sync_cfg = self.map.sync_config_for(op.addr());
        let is_sync = sync_cfg.is_some();
        let i = self.li(p.as_u32());
        if is_sync {
            let seq = self.sync_seq[i];
            self.sync_seq[i] += 1;
            self.sync_log.push(SyncRec {
                at: self.now.as_u64(),
                proc: p.as_u32(),
                seq,
                addr: op.addr().as_u64(),
                kind: SyncRecKind::Begin,
            });
        }
        self.procs[i].current = Some((op, self.now, is_sync));
        if let Some(tracer) = io.tracer() {
            let span = tracer.span_begin(
                self.now,
                p,
                op.label(),
                op.addr().line(self.cfg.params.line_size),
            );
            self.procs[i].span = span;
        }
        let mut out = std::mem::replace(&mut self.outbox, Outbox::new());
        let completed = self.caches[i]
            .start_op_with(op, sync_cfg.unwrap_or_default(), &mut out)
            .map_err(|error| RunError::Protocol {
                at: self.now,
                error,
            })?;
        self.route(&mut out, io);
        self.outbox = out;
        // Back to "no span": anything sent later (fault repair,
        // unrelated servicing) is not this operation's doing.
        if let Some(tracer) = io.tracer() {
            tracer.set_span_ctx(0);
        }
        let Some(outcome) = completed else {
            self.procs[i].blocked = true;
            return Ok(());
        };
        // A local hit: its result is known now, so retire it at its
        // completion cycle, ask the program for its next action as of
        // the cycle it would have resumed at, and queue one `ProcStep`
        // in place of the completion, resume and compute events.
        let at = self.now + self.cfg.params.cache_hit;
        self.retire(p, outcome, at, io)?;
        let resume = at + self.cfg.params.issue;
        match self.next_action(p, resume)? {
            // A spin whose next load would hit and read `seen` again:
            // park it instead of queueing that load's `ProcStep`.
            Action::Compute(_) if self.spin_would_hit(i) => {
                let spin = self.procs[i].spin.expect("spin_would_hit checks it");
                self.procs[i].parked = Some(resume + spin.delay);
            }
            Action::Compute(cycles) => self.push_fused(resume + cycles, resume, p),
            action => {
                self.procs[i].next = Some(action);
                self.push_fused(resume, at, p);
            }
        }
        Ok(())
    }

    /// `true` if local processor `i` spins and its next load would hit
    /// in its cache and read `seen`. Only cache-side events at the node
    /// change that, and they settle and re-check parked spinners. (A
    /// spin whose iterations take no time at all is never parked: it
    /// has no schedule to keep.)
    fn spin_would_hit(&self, i: usize) -> bool {
        self.procs[i].spin.is_some_and(|spin| {
            self.spin_period(spin) > 0 && self.caches[i].peek_word(spin.addr) == Some(spin.seen)
        })
    }

    /// Cycles from one spin iteration's load issue to the next's.
    fn spin_period(&self, spin: SpinLoop) -> u64 {
        self.cfg.params.cache_hit + self.cfg.params.issue + spin.delay
    }

    /// The parked spin of local processor `i` and its iteration period.
    fn parked(&self, i: usize) -> Option<(Cycle, SpinLoop, u64)> {
        let state = &self.procs[i];
        let (next, spin) = (state.parked?, state.spin?);
        Some((next, spin, self.spin_period(spin)))
    }

    /// Retires the next `n` iterations of local processor `i`'s parked
    /// spin, doing in bulk what each iteration's dispatch did: the cache
    /// probe's LRU tick, the operation statistics, `last_retire`, and
    /// (one by one, at their own cycles) the trace records.
    fn retire_parked(&mut self, i: usize, n: u64, io: &mut impl ShardIo) {
        let Some((next, spin, period)) = self.parked(i) else {
            return;
        };
        if n == 0 {
            return;
        }
        let hit = self.cfg.params.cache_hit;
        let line = spin.addr.line(self.cfg.params.line_size);
        let resident = self.caches[i].touch_hits(line, n);
        debug_assert!(resident, "a parked spinner's line stays resident");
        let ns = &mut self.nstats[i];
        ns.ops += n;
        ns.local_ops += n;
        ns.op_latency.add_n(hit as f64, n);
        ns.op_latency_hist.record_n(hit, n);
        let last = next + (n - 1) * period;
        self.last_retire = self.last_retire.max(last + hit);
        if let Some(tracer) = io.tracer() {
            let p = ProcId::new(self.lo + i as u32);
            let label = MemOp::Load { addr: spin.addr }.label();
            for k in 0..n {
                let issued = next + k * period;
                let span = tracer.span_begin(issued, p, label, line);
                tracer.set_span_ctx(0);
                tracer.span_end(issued + hit, p, span, "ok");
                if tracer.wants(Category::Op) {
                    tracer.op(p, issued, issued + hit, label, true, 0);
                }
            }
        }
        self.procs[i].parked = Some(next + n * period);
    }

    /// The key the `ProcStep` of a spin iteration issuing at `issue`
    /// would have had.
    fn spin_key(node: u32, issue: Cycle, spin: SpinLoop) -> u128 {
        key_fused(node, Cycle::new(issue.as_u64() - spin.delay))
    }

    /// Settles `node`'s parked spin up to the event `(at, key)` about
    /// to touch its cache: retires every iteration that sorts before it.
    fn settle(&mut self, node: u32, at: Cycle, key: u128, io: &mut impl ShardIo) {
        let i = self.li(node);
        let Some((next, spin, period)) = self.parked(i) else {
            return;
        };
        if next > at {
            return;
        }
        let mut n = (at - next).as_u64() / period + 1;
        let last = next + (n - 1) * period;
        if last == at && Self::spin_key(node, last, spin) > key {
            n -= 1;
        }
        self.retire_parked(i, n, io);
    }

    /// After a cache-side event at `node`: keeps its spinner parked if
    /// the next load would still hit and read `seen`, otherwise queues
    /// that load's `ProcStep` under the key it would have had.
    fn recheck_parked(&mut self, node: u32) {
        let i = self.li(node);
        let Some((next, spin, _)) = self.parked(i) else {
            return;
        };
        if self.spin_would_hit(i) {
            return;
        }
        self.procs[i].parked = None;
        self.push_fused(
            next,
            Cycle::new(next.as_u64() - spin.delay),
            ProcId::new(node),
        );
    }

    /// Retires, in global `(cycle, key)` order and one at a time, every
    /// parked iteration that sorts before the event `(at, key)`. The
    /// state this reaches is the one lazy settling reaches; the point is
    /// that trace records come out in the order the iterations' own
    /// dispatches emitted them (a drop-oldest ring keeps the same tail).
    pub(crate) fn settle_all_before(&mut self, at: Cycle, key: u128, io: &mut impl ShardIo) {
        loop {
            let due = (0..self.procs.len())
                .filter_map(|i| {
                    let (next, spin, _) = self.parked(i)?;
                    let k = Self::spin_key(self.lo + i as u32, next, spin);
                    ((next, k) < (at, key)).then_some((next, k, i))
                })
                .min();
            let Some((_, _, i)) = due else {
                return;
            };
            self.retire_parked(i, 1, io);
        }
    }

    /// `true` if any local processor is parked on a spin.
    pub(crate) fn any_parked(&self) -> bool {
        self.procs.iter().any(|s| s.parked.is_some())
    }

    /// The latest retirement the parked spinners' iterations up to `now`
    /// made (the hit that parked a spinner included): what their
    /// per-iteration dispatches would have left in `last_retire`.
    pub(crate) fn parked_retire(&self, now: Cycle) -> Option<Cycle> {
        let hit = self.cfg.params.cache_hit;
        (0..self.procs.len())
            .filter_map(|i| {
                let (next, _, period) = self.parked(i)?;
                // Iterations issued at or before `now`, counted from the
                // one before `next` (the parking or last settled hit).
                let ran = now.as_u64().saturating_sub(next.as_u64() - period) / period;
                Some(Cycle::new(next.as_u64() - period + ran * period) + hit)
            })
            .max()
    }

    /// Completes processor `p`'s outstanding operation at cycle `at`
    /// (now for a remote completion, the hit's completion cycle for a
    /// local hit): statistics, the sync log, trace records, and the
    /// result the program sees at its next step.
    fn retire(
        &mut self,
        p: ProcId,
        outcome: OpOutcome,
        at: Cycle,
        io: &mut impl ShardIo,
    ) -> Result<(), RunError> {
        let i = self.li(p.as_u32());
        let Some((op, issued, is_sync)) = self.procs[i].current.take() else {
            return Err(RunError::Protocol {
                at,
                error: ProtocolError::new(
                    ProtocolErrorKind::MissingRequest,
                    format!("operation completion at {p} with no operation outstanding"),
                ),
            });
        };
        self.last_retire = self.last_retire.max(at);
        let cycles = (at - issued).as_u64();
        let latency = cycles as f64;
        {
            let ns = &mut self.nstats[i];
            ns.ops += 1;
            ns.op_latency.add(latency);
            ns.op_latency_hist.record(cycles);
            if outcome.local {
                ns.local_ops += 1;
            }
            if is_sync {
                ns.sync_ops += 1;
                ns.sync_latency.add(latency);
                ns.sync_latency_hist.record((latency / 10.0) as usize);
                ns.msgs.record_chain(outcome.chain);
            }
        }
        if is_sync {
            let seq = self.sync_seq[i];
            self.sync_seq[i] += 1;
            self.sync_log.push(SyncRec {
                at: at.as_u64(),
                proc: p.as_u32(),
                seq,
                addr: op.addr().as_u64(),
                kind: SyncRecKind::End {
                    write: op.is_write() && outcome.result.succeeded(),
                },
            });
        }
        let span = std::mem::take(&mut self.procs[i].span);
        if let Some(tracer) = io.tracer() {
            let outcome_label = match outcome.result {
                OpResult::CasDone { success: false, .. } => "cas-fail",
                OpResult::ScDone { success: false } => "sc-fail",
                OpResult::Loaded {
                    reserved: false, ..
                } if matches!(op, MemOp::LoadLinked { .. }) => "ll-unreserved",
                _ => "ok",
            };
            tracer.span_end(at, p, span, outcome_label);
            if tracer.wants(Category::Op) {
                tracer.op(p, issued, at, op.label(), outcome.local, outcome.chain);
            }
            if tracer.wants(Category::Retry) {
                // A failed atomic attempt means the processor's loop
                // will come around again: the raw material of the
                // paper's retry-storm analysis.
                match outcome.result {
                    OpResult::CasDone { success: false, .. } => {
                        tracer.retry(at, p, "cas-fail");
                    }
                    OpResult::ScDone { success: false } => {
                        tracer.retry(at, p, "sc-fail");
                    }
                    OpResult::Loaded {
                        reserved: false, ..
                    } if matches!(op, MemOp::LoadLinked { .. }) => {
                        tracer.retry(at, p, "ll-unreserved");
                    }
                    _ => {}
                }
            }
            if tracer.wants(Category::Resv) {
                if let (MemOp::LoadLinked { .. }, OpResult::Loaded { reserved, .. }) =
                    (op, outcome.result)
                {
                    let home = op
                        .addr()
                        .line(self.cfg.params.line_size)
                        .home(self.cfg.nodes);
                    let label = if reserved {
                        "ll-reserved"
                    } else {
                        "ll-unreserved"
                    };
                    tracer.reservation(at, home, label);
                }
            }
        }
        let state = &mut self.procs[i];
        state.blocked = false;
        state.last = Some(outcome.result);
        state.last_chain = Some(outcome.chain);
        Ok(())
    }

    fn process(
        &mut self,
        key: u128,
        msg: Box<Msg>,
        span: u64,
        io: &mut impl ShardIo,
    ) -> Result<(), RunError> {
        let node = self.li(msg.dst.as_u32());
        let dst = msg.dst;
        let line = msg.line;
        let msg = self.recycle(msg);
        // Everything the handlers send below — forwards, invalidation
        // fan-out, replies — is on behalf of the operation that caused
        // this message, so those flows inherit its span.
        if let Some(tracer) = io.tracer() {
            tracer.set_span_ctx(span);
        }
        // Coherence-state probes bracket the handler call; the flags are
        // false when tracing is off, so the probes cost nothing then.
        let want_state = io.tracer().is_some_and(|t| t.wants(Category::State));
        let want_queue = io.tracer().is_some_and(|t| t.wants(Category::Queue));
        let mut out = std::mem::replace(&mut self.outbox, Outbox::new());
        if msg.kind.home_bound() {
            let before = want_state.then(|| dir_label(self.homes[node].dir_state(line)));
            self.homes[node]
                .handle(msg, &self.map, &mut out)
                .map_err(|error| RunError::Protocol {
                    at: self.now,
                    error,
                })?;
            if let Some(before) = before {
                let after = dir_label(self.homes[node].dir_state(line));
                if after != before {
                    if let Some(tracer) = io.tracer() {
                        tracer.dir_transition(self.now, dst, line, before, after);
                    }
                }
            }
            if want_queue {
                let depth =
                    (self.homes[node].queued_requests() + self.homes[node].busy_lines()) as u64;
                if let Some(tracer) = io.tracer() {
                    tracer.queue_depth(self.now, dst, depth);
                }
            }
            self.route(&mut out, io);
        } else {
            let proc = ProcId::new(msg.dst.as_u32());
            self.settle(proc.as_u32(), self.now, key, io);
            let before = want_state.then(|| cache_label(self.caches[node].cache_state(line)));
            let completed =
                self.caches[node]
                    .handle(msg, &mut out)
                    .map_err(|error| RunError::Protocol {
                        at: self.now,
                        error,
                    })?;
            if let Some(before) = before {
                let after = cache_label(self.caches[node].cache_state(line));
                if after != before {
                    if let Some(tracer) = io.tracer() {
                        tracer.cache_transition(self.now, dst, line, before, after);
                    }
                }
            }
            self.route(&mut out, io);
            if let Some(outcome) = completed {
                let boxed = self.box_outcome(outcome);
                self.push_local(self.now, proc.as_u32(), Event::OpDone(proc, boxed));
            }
            self.recheck_parked(proc.as_u32());
        }
        self.outbox = out;
        if let Some(tracer) = io.tracer() {
            tracer.set_span_ctx(0);
        }
        if io.paranoid() {
            if let Some(violation) = check_line(&self.caches, &self.homes, &self.map, line)
                .into_iter()
                .next()
            {
                return Err(RunError::Invariant {
                    at: self.now,
                    violation,
                });
            }
        }
        Ok(())
    }

    /// Serial-path barrier scan: releases the barrier if every
    /// non-terminated processor has arrived. Requires the full node
    /// range (the PDES coordinator does the equivalent scan globally).
    ///
    /// # Errors
    ///
    /// [`RunError::BarrierMismatch`] if the waiters disagree on the
    /// barrier id.
    pub(crate) fn try_release_barrier(&mut self) -> Result<(), RunError> {
        debug_assert_eq!(self.lo, 0, "serial barrier scan needs the whole machine");
        if self
            .procs
            .iter()
            .any(|s| !s.done && s.waiting_barrier.is_none())
        {
            return Ok(()); // someone is still running
        }
        let waiters = self.waiters();
        if waiters.first.is_none() {
            return Ok(());
        }
        waiters.check(self.now)?;
        self.apply_barrier_release(self.now);
        Ok(())
    }

    /// Summarizes the barriers this core's processors wait at.
    pub(crate) fn waiters(&self) -> Waiters {
        let mut w = Waiters::default();
        for (i, s) in self.procs.iter().enumerate() {
            let Some(b) = s.waiting_barrier.filter(|_| !s.done) else {
                continue;
            };
            let p = ProcId::new(self.lo + i as u32);
            match w.first {
                None => w.first = Some((p, b)),
                Some((_, first)) if first != b && w.other.is_none() => w.other = Some((p, b)),
                _ => {}
            }
        }
        w
    }

    /// Resumes every locally waiting processor at `at` (rank-3 keys, so
    /// the releases sort after all other same-cycle work of the node).
    /// Returns how many processors were resumed.
    pub(crate) fn apply_barrier_release(&mut self, at: Cycle) -> usize {
        let lo = self.lo;
        let mut resumed = 0;
        for (i, s) in self.procs.iter_mut().enumerate() {
            if !s.done && s.waiting_barrier.is_some() {
                s.waiting_barrier = None;
                let node = lo + i as u32;
                self.events
                    .push_keyed(at, key_barrier(node), Event::ProcStep(ProcId::new(node)));
                resumed += 1;
            }
        }
        resumed
    }

    /// Count of locally waiting (non-done) processors.
    pub(crate) fn waiting_count(&self) -> usize {
        self.procs
            .iter()
            .filter(|s| !s.done && s.waiting_barrier.is_some())
            .count()
    }

    /// `true` if any local processor has an operation outstanding.
    pub(crate) fn any_outstanding(&self) -> bool {
        self.procs.iter().any(|s| s.current.is_some())
    }

    /// Snapshots every local processor's blocked-on state.
    pub(crate) fn proc_dumps(&self) -> Vec<ProcDump> {
        self.procs
            .iter()
            .enumerate()
            .map(|(i, s)| ProcDump {
                proc: ProcId::new(self.lo + i as u32),
                op: s.current.map(|(op, _, _)| op),
                addr: s.current.map(|(op, _, _)| op.addr()),
                issued: s.current.map(|(_, at, _)| at),
                barrier: s.waiting_barrier,
            })
            .collect()
    }

    /// Splits a full-range core into per-shard cores for `bounds`,
    /// leaving `self` an empty husk that [`Core::absorb`] refills.
    /// Pending events are distributed by the node named in their key;
    /// the sync log, recycling pools and the event counter go to shard
    /// 0 (they are merged wholesale, not per node).
    pub(crate) fn split_off(&mut self, bounds: &[(u32, u32)]) -> Vec<Core> {
        assert_eq!(self.lo, 0, "only a whole machine can be split");
        assert_eq!(self.hi, self.cfg.nodes, "only a whole machine can be split");
        let ports = std::mem::replace(&mut self.ports, NetPorts::new_range(0, 0));
        let mut port_shards = ports.split(bounds).into_iter();
        let mut events = std::mem::replace(&mut self.events, EventQueue::new());
        let mut per_shard: Vec<Vec<(Cycle, u128, Event)>> =
            (0..bounds.len()).map(|_| Vec::new()).collect();
        while let Some((at, key, e)) = events.pop_keyed() {
            per_shard[shard_of(bounds, key_node(key))].push((at, key, e));
        }
        let mut out = Vec::with_capacity(bounds.len());
        for (si, &(lo, count)) in bounds.iter().enumerate() {
            let n = count as usize;
            let mut q = EventQueue::with_capacity(n * 8);
            for (at, key, e) in per_shard[si].drain(..) {
                q.push_keyed(at, key, e);
            }
            let procs: Vec<ProcState> = self.procs.drain(..n).collect();
            let active = procs.iter().filter(|s| !s.done).count();
            out.push(Core {
                lo,
                hi: lo + count,
                cfg: self.cfg.clone(),
                map: self.map.clone(),
                mesh: self.mesh.clone(),
                now: self.now,
                events: q,
                ports: port_shards.next().expect("one port shard per bound"),
                homes: self.homes.drain(..n).collect(),
                caches: self.caches.drain(..n).collect(),
                procs,
                mem_busy: self.mem_busy.drain(..n).collect(),
                cache_busy: self.cache_busy.drain(..n).collect(),
                nstats: self.nstats.drain(..n).collect(),
                sync_log: if si == 0 {
                    std::mem::take(&mut self.sync_log)
                } else {
                    Vec::new()
                },
                local_seq: self.local_seq.drain(..n).collect(),
                sync_seq: self.sync_seq.drain(..n).collect(),
                active,
                events_processed: if si == 0 { self.events_processed } else { 0 },
                last_retire: self.last_retire,
                outbox: if si == 0 {
                    std::mem::replace(&mut self.outbox, Outbox::new())
                } else {
                    Outbox::new()
                },
                msg_pool: if si == 0 {
                    std::mem::take(&mut self.msg_pool)
                } else {
                    Vec::new()
                },
                outcome_pool: if si == 0 {
                    std::mem::take(&mut self.outcome_pool)
                } else {
                    Vec::new()
                },
            });
        }
        self.active = 0;
        self.events_processed = 0;
        out
    }

    /// Reassembles shard cores (in node order) into this husk.
    pub(crate) fn absorb(&mut self, parts: Vec<Core>) {
        let mut ports = Vec::with_capacity(parts.len());
        for (si, mut p) in parts.into_iter().enumerate() {
            assert_eq!(
                p.lo,
                self.homes.len() as u32,
                "shards must be absorbed in node order"
            );
            self.now = self.now.max(p.now);
            while let Some((at, key, e)) = p.events.pop_keyed() {
                self.events.push_keyed(at, key, e);
            }
            ports.push(std::mem::replace(&mut p.ports, NetPorts::new_range(0, 0)));
            self.homes.append(&mut p.homes);
            self.caches.append(&mut p.caches);
            self.procs.append(&mut p.procs);
            self.mem_busy.append(&mut p.mem_busy);
            self.cache_busy.append(&mut p.cache_busy);
            self.nstats.append(&mut p.nstats);
            self.sync_log.append(&mut p.sync_log);
            self.local_seq.append(&mut p.local_seq);
            self.sync_seq.append(&mut p.sync_seq);
            self.active += p.active;
            self.events_processed += p.events_processed;
            self.last_retire = self.last_retire.max(p.last_retire);
            if si == 0 {
                self.outbox = std::mem::replace(&mut p.outbox, Outbox::new());
                self.msg_pool = std::mem::take(&mut p.msg_pool);
                self.outcome_pool = std::mem::take(&mut p.outcome_pool);
            }
        }
        self.hi = self.homes.len() as u32;
        self.ports = NetPorts::merge(ports);
    }
}

/// [`ShardIo`] for the serial engine: borrows the machine's
/// instrumentation (all of which forces the serial path, so the
/// parallel dispatcher never sees any of it).
struct SerialIo<'a> {
    tracer: Option<&'a mut Tracer>,
    ring: Option<&'a mut TraceRing>,
    injector: Option<&'a mut FaultInjector>,
    paranoid: bool,
}

impl ShardIo for SerialIo<'_> {
    fn jitter(&mut self, now: Cycle) -> u64 {
        match &mut self.injector {
            Some(inj) => inj.jitter(now.as_u64()),
            None => 0,
        }
    }
    fn tracer(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_deref_mut()
    }
    fn ring(&mut self) -> Option<&mut TraceRing> {
        self.ring.as_deref_mut()
    }
    fn paranoid(&self) -> bool {
        self.paranoid
    }
    fn send_remote(&mut self, _wire_at: Cycle, _key: u128, _msg: Msg) {
        unreachable!("the serial core owns every node; no message is remote")
    }
}

/// Builder for a [`Machine`].
///
/// # Example
///
/// ```
/// use dsm_machine::{Action, MachineBuilder, ProcCtx};
/// use dsm_protocol::MemOp;
/// use dsm_sim::{Addr, MachineConfig};
///
/// let mut b = MachineBuilder::new(MachineConfig::with_nodes(4));
/// for _ in 0..4 {
///     b.add_program(|ctx: &mut ProcCtx<'_>| {
///         if ctx.last.is_none() {
///             Action::Op(MemOp::Load { addr: Addr::new(64) })
///         } else {
///             Action::Done
///         }
///     });
/// }
/// let mut machine = b.build();
/// let report = machine.run(dsm_sim::Cycle::new(100_000)).unwrap();
/// assert!(report.cycles > dsm_sim::Cycle::ZERO);
/// ```
pub struct MachineBuilder {
    cfg: MachineConfig,
    map: AddressMap,
    programs: Vec<Box<dyn Program>>,
    init: Vec<(Addr, Value)>,
    llsc_pool: usize,
    trace: Option<TraceSpec>,
    workers: Option<usize>,
    /// `DSM_PROTO` carried an `hna` clause: flip every registered
    /// INV-policy sync line to home-node atomics at build time.
    hna: bool,
}

thread_local! {
    static FAULT_OVERRIDE: std::cell::RefCell<Option<FaultConfig>> =
        const { std::cell::RefCell::new(None) };
}

/// Runs `f` with every machine built on this thread using exactly
/// `faults` — overriding both the configuration's own fault settings
/// and the `DSM_FAULTS`/`DSM_PARANOID` environment. The previous
/// override (if any) is restored afterwards, also on panic.
///
/// Reproducer replay uses this to pin the exact fault settings of the
/// original failing run without mutating the process environment, which
/// would race with concurrently building machines on other threads.
pub fn with_fault_config<R>(faults: FaultConfig, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<FaultConfig>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FAULT_OVERRIDE.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(FAULT_OVERRIDE.with(|c| c.borrow_mut().replace(faults)));
    f()
}

impl MachineBuilder {
    /// Starts building a machine with the given configuration.
    ///
    /// When the configuration carries the default protocol settings
    /// (DASH variant, one cluster, no cluster penalty), the `DSM_PROTO`
    /// environment variable — a [`ProtoSpec::from_spec`] string such as
    /// `mesif` or `hier,clusters=4,penalty=20` — is applied as an
    /// override, mirroring how `DSM_FAULTS` works. Its `hna` clause is
    /// remembered and flips every INV-policy sync line registered with
    /// [`register_sync`](Self::register_sync) to home-node atomics when
    /// [`build`](Self::build) runs. Explicit non-default configuration
    /// always wins over the environment.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `DSM_PROTO` holds a
    /// malformed spec.
    pub fn new(mut cfg: MachineConfig) -> Self {
        let mut hna = false;
        let proto_is_default =
            cfg.proto == ProtoVariant::Dash && cfg.clusters == 1 && cfg.params.cluster_penalty == 0;
        if proto_is_default {
            if let Ok(spec) = std::env::var("DSM_PROTO") {
                let spec = ProtoSpec::from_spec(&spec)
                    .unwrap_or_else(|e| panic!("invalid DSM_PROTO spec: {e}"));
                spec.apply(&mut cfg);
                hna = spec.home_atomics;
            }
        }
        cfg.validate().expect("invalid machine configuration");
        let line_size = cfg.params.line_size;
        MachineBuilder {
            cfg,
            map: AddressMap::new(line_size),
            programs: Vec::new(),
            init: Vec::new(),
            llsc_pool: 256,
            trace: None,
            workers: None,
            hna,
        }
    }

    /// Enables structured event tracing for the built machine (see
    /// [`TraceSpec`] for sink and category selection). An explicit spec
    /// set here takes precedence over the `DSM_TRACE` environment
    /// variable.
    pub fn with_trace(&mut self, spec: TraceSpec) -> &mut Self {
        self.trace = Some(spec);
        self
    }

    /// Sets how many PDES worker threads the machine may use for a
    /// single run (see [`Machine::set_workers`]). An explicit setting
    /// takes precedence over the `DSM_WORKERS` environment variable;
    /// the default is 1 (serial). Results are bit-identical across
    /// worker counts.
    pub fn with_workers(&mut self, workers: usize) -> &mut Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Registers the line containing `addr` as a synchronization line.
    pub fn register_sync(&mut self, addr: Addr, config: SyncConfig) -> &mut Self {
        self.map.register(addr, config);
        self
    }

    /// Initializes a word of memory before the run.
    pub fn init_word(&mut self, addr: Addr, value: Value) -> &mut Self {
        self.init.push((addr, value));
        self
    }

    /// Sets the linked-list reservation free-pool size per home node.
    pub fn llsc_pool(&mut self, entries: usize) -> &mut Self {
        self.llsc_pool = entries;
        self
    }

    /// Adds the program for the next processor (programs are assigned in
    /// order: the first added runs on processor 0).
    pub fn add_program<P: Program + 'static>(&mut self, program: P) -> &mut Self {
        self.programs.push(Box::new(program));
        self
    }

    /// Builds the machine.
    ///
    /// When the configuration carries no fault settings, the
    /// environment variables `DSM_FAULTS` (a
    /// [`FaultConfig::from_spec`] string) and `DSM_PARANOID=1` are
    /// honored as overrides, so a whole test suite can be run under
    /// fault injection or paranoid invariant checking without code
    /// changes. An explicit [`MachineConfig::faults`] always wins, and
    /// a [`with_fault_config`] override on the building thread wins
    /// over both (reproducer replay relies on this).
    /// Likewise, when no trace spec was set with
    /// [`with_trace`](MachineBuilder::with_trace), `DSM_TRACE` (a
    /// [`TraceSpec::from_spec`] string) enables tracing, and when no
    /// worker count was set with
    /// [`with_workers`](MachineBuilder::with_workers), `DSM_WORKERS`
    /// sets the PDES worker count.
    ///
    /// # Panics
    ///
    /// Panics if the number of programs does not equal the number of
    /// nodes, or if `DSM_FAULTS` / `DSM_TRACE` / `DSM_WORKERS` holds a
    /// malformed spec.
    pub fn build(mut self) -> Machine {
        assert_eq!(
            self.programs.len(),
            self.cfg.nodes as usize,
            "one program per processor is required ({} programs for {} nodes)",
            self.programs.len(),
            self.cfg.nodes
        );
        let mut faults = self.cfg.faults.clone();
        if let Some(pinned) = FAULT_OVERRIDE.with(|c| c.borrow().clone()) {
            faults = pinned;
        } else if !faults.is_active() {
            if let Ok(spec) = std::env::var("DSM_FAULTS") {
                faults = FaultConfig::from_spec(&spec)
                    .unwrap_or_else(|e| panic!("invalid DSM_FAULTS spec: {e}"));
            }
            if std::env::var("DSM_PARANOID").is_ok_and(|v| v == "1") {
                faults.paranoid = true;
            }
        }
        // Record the *effective* fault settings on the machine, so the
        // supervision layer can capture them into reproducer artifacts
        // regardless of where they came from.
        self.cfg.faults = faults.clone();
        let trace_spec = self.trace.or_else(|| {
            std::env::var("DSM_TRACE").ok().map(|spec| {
                TraceSpec::from_spec(&spec)
                    .unwrap_or_else(|e| panic!("invalid DSM_TRACE spec: {e}"))
            })
        });
        let workers = self.workers.unwrap_or_else(|| {
            std::env::var("DSM_WORKERS")
                .ok()
                .map(|v| {
                    v.trim()
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| panic!("invalid DSM_WORKERS value: {v:?}"))
                })
                .unwrap_or(1)
        });
        let tracer = trace_spec.map(|spec| Box::new(Tracer::new(&spec, self.cfg.nodes)));
        let mesh = Mesh::new(&self.cfg);
        let mut seed_rng = SimRng::new(self.cfg.seed);
        let procs: Vec<ProcState> = self
            .programs
            .into_iter()
            .map(|program| ProcState {
                program,
                rng: seed_rng.fork(0xFACE),
                done: false,
                blocked: false,
                waiting_barrier: None,
                last: None,
                last_chain: None,
                current: None,
                next: None,
                spin: None,
                parked: None,
                span: 0,
            })
            .collect();
        let injector = faults
            .any_faults()
            .then(|| FaultInjector::new(faults.clone(), seed_rng.fork(0xFA17)));
        let mut homes = Vec::with_capacity(self.cfg.nodes as usize);
        let mut caches = Vec::with_capacity(self.cfg.nodes as usize);
        if self.hna {
            self.map.enable_home_atomics();
        }
        // Homes grow their tables on demand: paper workloads keep a few
        // dozen lines per home, far below one cache's worth.
        let (mesh_width, _) = self.cfg.mesh_dims();
        for n in 0..self.cfg.nodes {
            let mut home = HomeNode::new(NodeId::new(n), self.cfg.params.line_size, self.llsc_pool);
            home.set_topology(
                self.cfg.proto,
                mesh_width,
                self.cfg.nodes,
                self.cfg.clusters,
            );
            homes.push(home);
            let mut cc = CacheNode::new(NodeId::new(n), self.cfg.params.line_size, self.cfg.cache);
            cc.set_nodes(self.cfg.nodes);
            caches.push(cc);
        }
        let nodes = self.cfg.nodes;
        let core = Core {
            lo: 0,
            hi: nodes,
            map: self.map,
            mesh,
            now: Cycle::ZERO,
            // Each node can have a handful of events in flight
            // (messages, processor steps, memory completions).
            events: EventQueue::with_capacity(nodes as usize * 8),
            ports: NetPorts::new(nodes),
            homes,
            caches,
            procs,
            mem_busy: vec![Cycle::ZERO; nodes as usize],
            cache_busy: vec![Cycle::ZERO; nodes as usize],
            nstats: vec![NodeStats::default(); nodes as usize],
            sync_log: Vec::new(),
            local_seq: vec![(Cycle::ZERO, 0); nodes as usize],
            sync_seq: vec![0; nodes as usize],
            active: nodes as usize,
            events_processed: 0,
            last_retire: Cycle::ZERO,
            outbox: Outbox::new(),
            msg_pool: Vec::new(),
            outcome_pool: Vec::new(),
            cfg: self.cfg,
        };
        let mut machine = Machine {
            core,
            trace: None,
            tracer,
            trace_files: Vec::new(),
            injector,
            paranoid: faults.paranoid,
            watchdog: faults.watchdog,
            injected_evictions: 0,
            injected_wipes: 0,
            injected_corruptions: 0,
            wall_limit: std::env::var("DSM_WALL_LIMIT")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .filter(|&ms| ms > 0)
                .map(Duration::from_millis),
            paused: false,
            workers,
        };
        for (addr, value) in self.init {
            machine.poke_word(addr, value);
        }
        for p in 0..machine.core.cfg.nodes {
            machine
                .core
                .push_local(Cycle::ZERO, p, Event::ProcStep(ProcId::new(p)));
        }
        machine
    }
}

/// The simulated DSM multiprocessor.
///
/// Construct with [`MachineBuilder`], then [`run`](Machine::run).
pub struct Machine {
    /// The shardable engine state (full range while not running in
    /// parallel).
    pub(crate) core: Core,
    /// Optional message-trace ring buffer (debugging aid).
    trace: Option<TraceRing>,
    /// Structured event tracer (`--trace` / `DSM_TRACE`), boxed so the
    /// disabled case costs one pointer in the machine and one
    /// never-taken branch per instrumentation site.
    tracer: Option<Box<Tracer>>,
    /// Paths written by the last trace flush.
    trace_files: Vec<PathBuf>,
    /// Deterministic fault injector, present only when faults are on.
    injector: Option<FaultInjector>,
    /// Run the invariant checker after every protocol transition.
    paranoid: bool,
    /// Livelock watchdog window in cycles (0 = off).
    watchdog: u64,
    /// Evictions forced by the fault injector.
    injected_evictions: u64,
    /// Reservation wipes forced by the fault injector.
    injected_wipes: u64,
    /// Shared-to-exclusive corruptions forced by the fault injector.
    injected_corruptions: u64,
    /// Wall-clock budget per `run`/`run_until` call, if any.
    wall_limit: Option<Duration>,
    /// `true` between a stop-rule pause and the resuming call, so the
    /// resume does not reset watchdog bookkeeping.
    paused: bool,
    /// Requested PDES worker count (1 = serial).
    workers: usize,
}

impl Machine {
    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.core.cfg
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.core.now
    }

    /// Accumulated statistics, merged from the per-node accumulators in
    /// canonical node order (so the result is bit-identical regardless
    /// of how many PDES workers produced them).
    pub fn stats(&self) -> MachineStats {
        merge_node_stats(&self.core.nstats, &self.core.sync_log)
    }

    /// Network statistics.
    pub fn network_stats(&self) -> &dsm_mesh::NetworkStats {
        self.core.ports.stats()
    }

    /// How many PDES worker threads [`run`](Machine::run) may use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Sets how many PDES worker threads [`run`](Machine::run) may use
    /// (1 = serial). The effective count is clamped to the node count,
    /// and serial-only features (tracing, fault injection, paranoid
    /// checking, the livelock watchdog, the debug ring, stop rules)
    /// force the serial engine regardless — the parallel engine's
    /// results are bit-identical, so this only affects wall-clock time.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// The worker count a run would actually use under `stop`:
    /// serial-only instrumentation and stop rules override the setting.
    fn effective_workers(&self, stop: StopRule) -> usize {
        if self.workers <= 1
            || self.tracer.is_some()
            || self.injector.is_some()
            || self.paranoid
            || self.watchdog > 0
            || self.trace.is_some()
            || !matches!(stop, StopRule::None)
            || self.core.active == 0
        {
            return 1;
        }
        self.workers.min(self.core.cfg.nodes as usize)
    }

    /// Writes a word directly into its home memory (initialization /
    /// between quiescent phases only).
    pub fn poke_word(&mut self, addr: Addr, value: Value) {
        let home = addr
            .line(self.core.cfg.params.line_size)
            .home(self.core.cfg.nodes);
        self.core.homes[home.index()].poke_word(addr, value);
    }

    /// Reads the current logical value of a word: the owner's cached
    /// copy if the line is dirty, otherwise home memory. Only meaningful
    /// when the machine is quiescent.
    pub fn read_word(&self, addr: Addr) -> Value {
        let line = addr.line(self.core.cfg.params.line_size);
        let home = line.home(self.core.cfg.nodes);
        if let DirState::Dirty(owner) = self.core.homes[home.index()].dir_state(line) {
            if let Some(v) = self.core.caches[owner.index()].peek_word(addr) {
                return v;
            }
        }
        self.core.homes[home.index()].peek_word(addr)
    }

    /// Runs until every processor terminates or `limit` is reached,
    /// using the configured worker count (see
    /// [`set_workers`](Machine::set_workers)).
    ///
    /// # Errors
    ///
    /// [`RunError::CycleLimit`] if the limit was reached first,
    /// [`RunError::Deadlock`] if the event queue drained with blocked
    /// processors (a protocol/program bug), [`RunError::Livelock`] if the
    /// watchdog window elapsed without an op retiring,
    /// [`RunError::Protocol`] if a protocol engine reached an illegal
    /// state, [`RunError::BarrierMismatch`] if the processors' programs
    /// wait at different barriers, or [`RunError::Invariant`] if
    /// paranoid checking found a violated invariant.
    pub fn run(&mut self, limit: Cycle) -> Result<RunReport, RunError> {
        match self.run_until(limit, StopRule::None)? {
            RunOutcome::Done(report) => Ok(report),
            RunOutcome::Paused(_) => unreachable!("StopRule::None never pauses"),
        }
    }

    /// Like [`run`](Machine::run), but pauses when `stop` fires (see
    /// [`StopRule`]); call again to resume. Because pauses land on event
    /// boundaries, a paused machine's [`state_digest`](Machine::state_digest)
    /// equals the digest an uninterrupted run has at the same event
    /// count — the property the checkpoint/restore layer verifies.
    ///
    /// # Errors
    ///
    /// The same errors as [`run`](Machine::run), plus
    /// [`RunError::Timeout`] when a wall-clock budget
    /// ([`set_wall_limit`](Machine::set_wall_limit) or `DSM_WALL_LIMIT`)
    /// elapses before the run finishes or pauses.
    pub fn run_until(&mut self, limit: Cycle, stop: StopRule) -> Result<RunOutcome, RunError> {
        let workers = self.effective_workers(stop);
        let result = if workers > 1 {
            crate::pdes::run_parallel(&mut self.core, limit, workers, self.wall_limit)
                .map(RunOutcome::Done)
        } else {
            self.run_inner(limit, stop)
        };
        // Traces are most valuable when a run fails (deadlock, protocol
        // error), so flush on the error path too. A trace I/O failure
        // must not masquerade as a simulation failure; report and move
        // on.
        if !matches!(result, Ok(RunOutcome::Paused(_))) {
            if let Err(e) = self.flush_trace() {
                eprintln!("warning: failed to write trace output: {e}");
            }
        }
        result
    }

    /// `true` if `stop` fires at the current event count / time.
    fn should_pause(&self, stop: StopRule) -> bool {
        match stop {
            StopRule::None => false,
            StopRule::PauseAt(cycle) => self.core.now >= cycle,
            StopRule::AfterEvents(n) => self.core.events_processed >= n,
        }
    }

    /// Checks the wall-clock budget (every `WALL_CHECK_MASK + 1` events,
    /// so the `Instant::now` syscall stays off the hot path).
    fn check_wall(&self, started: Instant) -> Result<(), RunError> {
        const WALL_CHECK_MASK: u64 = 8191;
        let Some(budget) = self.wall_limit else {
            return Ok(());
        };
        if self.core.events_processed & WALL_CHECK_MASK != 0 {
            return Ok(());
        }
        let elapsed = started.elapsed();
        if elapsed > budget {
            return Err(RunError::Timeout {
                at: self.core.now,
                elapsed_ms: elapsed.as_millis() as u64,
                limit_ms: budget.as_millis() as u64,
            });
        }
        Ok(())
    }

    /// Dispatches one event on the serial path, with the machine's
    /// instrumentation wired in.
    fn dispatch_serial(&mut self, key: u128, event: Event) -> Result<Effect, RunError> {
        let mut io = SerialIo {
            tracer: self.tracer.as_deref_mut(),
            ring: self.trace.as_mut(),
            injector: self.injector.as_mut(),
            paranoid: self.paranoid,
        };
        self.core.dispatch(key, event, &mut io)
    }

    fn run_inner(&mut self, limit: Cycle, stop: StopRule) -> Result<RunOutcome, RunError> {
        let started = Instant::now();
        if !self.paused {
            self.core.last_retire = self.core.now;
        }
        self.paused = false;
        while self.core.active > 0 {
            let Some((at, key, event)) = self.core.events.pop_keyed() else {
                if self.core.any_parked() {
                    // Nothing can change a parked spinner's line any
                    // more: it would spin until the limit.
                    return Err(RunError::CycleLimit {
                        limit,
                        active: self.core.active,
                    });
                }
                return Err(RunError::Deadlock {
                    at: self.core.now,
                    active: self.core.active,
                    procs: self.core.proc_dumps(),
                });
            };
            debug_assert!(at >= self.core.now, "time ran backwards");
            if at > limit {
                return Err(RunError::CycleLimit {
                    limit,
                    active: self.core.active,
                });
            }
            self.core.now = at;
            self.core.events_processed += 1;
            if self.tracer.is_some() {
                let mut io = SerialIo {
                    tracer: self.tracer.as_deref_mut(),
                    ring: self.trace.as_mut(),
                    injector: self.injector.as_mut(),
                    paranoid: self.paranoid,
                };
                self.core.settle_all_before(at, key, &mut io);
            }
            self.poll_faults(key);
            self.check_watchdog()?;
            self.check_wall(started)?;
            if self.dispatch_serial(key, event)? != Effect::None {
                self.core.try_release_barrier()?;
            }
            if self.should_pause(stop) {
                // Settle parked spinners up to the pause, so the paused
                // state (and its digest) is the one a traced run has.
                let mut io = SerialIo {
                    tracer: self.tracer.as_deref_mut(),
                    ring: self.trace.as_mut(),
                    injector: self.injector.as_mut(),
                    paranoid: self.paranoid,
                };
                for node in 0..self.core.cfg.nodes {
                    self.core.settle(node, at, key, &mut io);
                }
                self.paused = true;
                return Ok(RunOutcome::Paused(RunReport {
                    cycles: self.core.now,
                    events: self.core.events_processed,
                }));
            }
        }
        let finished = self.core.now;
        // Drain in-flight traffic (e.g. final write-backs) so the
        // machine is quiescent: read_word and validate_coherence see the
        // committed state.
        while let Some((at, key, event)) = self.core.events.pop_keyed() {
            if at > limit {
                return Err(RunError::CycleLimit { limit, active: 0 });
            }
            self.core.now = at;
            self.core.events_processed += 1;
            self.check_wall(started)?;
            self.dispatch_serial(key, event)?;
            if self.should_pause(stop) {
                self.paused = true;
                return Ok(RunOutcome::Paused(RunReport {
                    cycles: self.core.now,
                    events: self.core.events_processed,
                }));
            }
        }
        if self.paranoid {
            self.quiescence_check(finished)?;
        }
        Ok(RunOutcome::Done(RunReport {
            cycles: finished,
            events: self.core.events_processed,
        }))
    }

    /// Sets (or clears) the wall-clock budget applied to each
    /// [`run`](Machine::run) / [`run_until`](Machine::run_until) call,
    /// overriding the `DSM_WALL_LIMIT` environment variable read at
    /// build time.
    pub fn set_wall_limit(&mut self, limit: Option<Duration>) {
        self.wall_limit = limit;
    }

    /// Applies the window faults due at the current time, if any, ahead
    /// of the event with queue key `key`. Faults that touch a cache
    /// settle that node's parked spinner first and re-check it after.
    fn poll_faults(&mut self, key: u128) {
        let fired = match &mut self.injector {
            Some(inj) => inj.poll(self.core.now.as_u64(), self.core.cfg.nodes),
            None => return,
        };
        for fault in fired {
            self.apply_fault(fault, key);
        }
    }

    /// Applies one injected fault ahead of the event with queue key
    /// `key`.
    fn apply_fault(&mut self, fault: FaultEvent, key: u128) {
        let now = self.core.now;
        let mut io = SerialIo {
            tracer: self.tracer.as_deref_mut(),
            ring: self.trace.as_mut(),
            injector: self.injector.as_mut(),
            paranoid: self.paranoid,
        };
        match fault {
            FaultEvent::EvictLine { node } => {
                self.core.settle(node.as_u32(), now, key, &mut io);
                let mut out = std::mem::replace(&mut self.core.outbox, Outbox::new());
                if self.core.caches[node.index()]
                    .inject_evict(&mut out)
                    .is_some()
                {
                    self.injected_evictions += 1;
                }
                self.core.route(&mut out, &mut io);
                self.core.outbox = out;
                self.core.recheck_parked(node.as_u32());
            }
            FaultEvent::WipeReservations { node } => {
                self.core.homes[node.index()].wipe_reservations();
                self.injected_wipes += 1;
                if let Some(tracer) = io.tracer() {
                    if tracer.wants(Category::Resv) {
                        tracer.reservation(now, node, "wipe");
                    }
                }
            }
            FaultEvent::CorruptLine { node } => {
                // Promote the first shared resident line (stable
                // iteration order, so replays corrupt the same
                // line). A cache with no shared line absorbs the
                // fault silently.
                let victim = self.core.caches[node.index()]
                    .cached_lines()
                    .find(|(_, s)| *s == CacheState::Shared)
                    .map(|(l, _)| l);
                if let Some(line) = victim {
                    // The promotion probes the line like a hit does.
                    self.core.settle(node.as_u32(), now, key, &mut io);
                    if self.core.caches[node.index()].corrupt_promote_shared(line) {
                        self.injected_corruptions += 1;
                    }
                    self.core.recheck_parked(node.as_u32());
                }
            }
        }
    }

    /// Fails the run if events keep firing but no operation has retired
    /// for a full watchdog window while at least one is outstanding.
    fn check_watchdog(&mut self) -> Result<(), RunError> {
        if self.watchdog == 0 {
            return Ok(());
        }
        if !self.core.any_outstanding() {
            // Nothing outstanding (compute/barrier phases): progress is
            // the program's business, not the protocol's.
            self.core.last_retire = self.core.last_retire.max(self.core.now);
            return Ok(());
        }
        // Parked spinners retire a hit every iteration, as their
        // per-iteration dispatches did.
        if let Some(at) = self.core.parked_retire(self.core.now) {
            self.core.last_retire = self.core.last_retire.max(at);
        }
        // A local hit retires at its completion cycle while the
        // dispatch that issued it runs, so `last_retire` may lie ahead.
        if self.core.now.saturating_sub(self.core.last_retire).as_u64() > self.watchdog {
            return Err(RunError::Livelock {
                at: self.core.now,
                window: self.watchdog,
                procs: self.core.proc_dumps(),
            });
        }
        Ok(())
    }

    /// Full paranoid sweep once the machine is quiescent: every global
    /// invariant, message conservation (no half-done transaction may
    /// survive a drained event queue), then the coherence oracle.
    fn quiescence_check(&self, at: Cycle) -> Result<(), RunError> {
        if let Some(violation) =
            check_invariants(&self.core.caches, &self.core.homes, &self.core.map)
                .into_iter()
                .next()
        {
            return Err(RunError::Invariant { at, violation });
        }
        for (i, cache) in self.core.caches.iter().enumerate() {
            if cache.busy() {
                return Err(RunError::Invariant {
                    at,
                    violation: InvariantViolation {
                        invariant: "message-conservation",
                        line: cache.pending_line(),
                        nodes: vec![NodeId::new(i as u32)],
                        detail: "cache still has an outstanding request at quiescence".into(),
                    },
                });
            }
        }
        for (i, home) in self.core.homes.iter().enumerate() {
            if home.busy_lines() > 0 || home.queued_requests() > 0 {
                return Err(RunError::Invariant {
                    at,
                    violation: InvariantViolation {
                        invariant: "message-conservation",
                        line: None,
                        nodes: vec![NodeId::new(i as u32)],
                        detail: format!(
                            "home still busy at quiescence ({} busy lines, {} queued requests)",
                            home.busy_lines(),
                            home.queued_requests()
                        ),
                    },
                });
            }
        }
        if let Err(detail) = self.validate_coherence() {
            return Err(RunError::Invariant {
                at,
                violation: InvariantViolation {
                    invariant: "coherence",
                    line: None,
                    nodes: Vec::new(),
                    detail,
                },
            });
        }
        Ok(())
    }

    /// How many faults the injector has applied so far, as
    /// `(forced evictions, reservation wipes, forced corruptions)`.
    pub fn injected_faults(&self) -> (u64, u64, u64) {
        (
            self.injected_evictions,
            self.injected_wipes,
            self.injected_corruptions,
        )
    }

    /// The fault schedule applied so far (`None` when faults are off) —
    /// the raw material of reproducer shrinking.
    pub fn fault_record(&self) -> Option<&FaultRecord> {
        self.injector.as_ref().map(FaultInjector::record)
    }

    /// The *effective* fault configuration this machine was built with:
    /// the explicit [`MachineConfig::faults`], a [`with_fault_config`]
    /// override, or the `DSM_FAULTS`/`DSM_PARANOID` environment —
    /// whichever won at build time. Reproducer artifacts capture this
    /// so a replay pins identical fault behaviour.
    pub fn fault_config(&self) -> &FaultConfig {
        &self.core.cfg.faults
    }

    /// Installs (or clears) a candidate-index allow list on the fault
    /// injector, restricting which drawn faults are *applied* without
    /// changing the RNG draw sequence. No-op when faults are off.
    /// Install before running — mid-run installation is sound (queries
    /// are monotone) but makes the run depend on when the call happened.
    pub fn set_fault_filter(&mut self, filter: Option<FaultFilter>) {
        if let Some(inj) = &mut self.injector {
            inj.set_filter(filter);
        }
    }

    /// Total events dispatched since construction — the replay
    /// coordinate used by checkpoints (see [`StopRule::AfterEvents`]).
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// A digest of the machine's complete dynamic state: simulated
    /// time, the pending event queue, network ports, every cache, home
    /// directory and memory line, LL/SC reservations, per-processor
    /// progress, spin loops, park schedules and RNG streams, server
    /// availability, statistics, and fault-injector position.
    ///
    /// Parked spinners are settled lazily while a run is under way, but
    /// a pause ([`StopRule`]) settles them up to the last dispatched
    /// event, so paused and finished machines hash the same with or
    /// without a tracer (which settles them before every event).
    ///
    /// Two machines built from the same configuration that have
    /// dispatched the same event sequence produce equal digests; any
    /// divergence in simulated state changes the digest — and a
    /// parallel run's post-run digest equals the serial run's, because
    /// the merged statistics and event keys are canonical.
    /// Diagnostic-only state (tracers, recycling pools) is excluded —
    /// it cannot influence simulation results.
    pub fn state_digest(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(self.core.now.as_u64());
        h.write_u64(self.core.events_processed);
        h.write_usize(self.core.active);
        self.core
            .events
            .digest_with(&mut h, |event, h| match event {
                Event::Deliver(m) => {
                    h.write_u8(0);
                    m.digest(h);
                }
                // The span word is deliberately not hashed: it is
                // tracer-produced diagnostic state, and digests must agree
                // between traced and untraced runs of the same simulation.
                Event::Process(m, _span) => {
                    h.write_u8(1);
                    m.digest(h);
                }
                Event::ProcStep(p) => {
                    h.write_u8(2);
                    h.write_u32(p.as_u32());
                }
                Event::OpDone(p, o) => {
                    h.write_u8(3);
                    h.write_u32(p.as_u32());
                    o.digest(h);
                }
                Event::Wire(m) => {
                    h.write_u8(4);
                    m.digest(h);
                }
            });
        self.core.ports.digest(&mut h);
        h.write_usize(self.core.homes.len());
        for home in &self.core.homes {
            home.digest(&mut h);
        }
        for cache in &self.core.caches {
            cache.digest(&mut h);
        }
        for proc in &self.core.procs {
            for w in proc.rng.state() {
                h.write_u64(w);
            }
            h.write_u8(proc.done as u8);
            h.write_u8(proc.blocked as u8);
            match proc.waiting_barrier {
                Some(b) => {
                    h.write_u8(1);
                    h.write_u32(b);
                }
                None => h.write_u8(0),
            }
            match &proc.last {
                Some(r) => {
                    h.write_u8(1);
                    r.digest(&mut h);
                }
                None => h.write_u8(0),
            }
            match proc.last_chain {
                Some(c) => {
                    h.write_u8(1);
                    h.write_u32(c);
                }
                None => h.write_u8(0),
            }
            match &proc.current {
                Some((op, at, sync)) => {
                    h.write_u8(1);
                    op.digest(&mut h);
                    h.write_u64(at.as_u64());
                    h.write_u8(*sync as u8);
                }
                None => h.write_u8(0),
            }
            match &proc.next {
                None => h.write_u8(0),
                Some(Action::Op(op)) => {
                    h.write_u8(1);
                    op.digest(&mut h);
                }
                Some(Action::Compute(c)) => {
                    h.write_u8(2);
                    h.write_u64(*c);
                }
                Some(Action::Barrier(b)) => {
                    h.write_u8(3);
                    h.write_u32(*b);
                }
                Some(Action::Done) => h.write_u8(4),
                Some(Action::Spin { addr, seen, delay }) => {
                    h.write_u8(5);
                    h.write_u64(addr.as_u64());
                    h.write_u64(*seen);
                    h.write_u64(*delay);
                }
            }
            match &proc.spin {
                Some(spin) => {
                    h.write_u8(1);
                    h.write_u64(spin.addr.as_u64());
                    h.write_u64(spin.seen);
                    h.write_u64(spin.delay);
                }
                None => h.write_u8(0),
            }
            match proc.parked {
                Some(next) => {
                    h.write_u8(1);
                    h.write_u64(next.as_u64());
                }
                None => h.write_u8(0),
            }
        }
        for c in &self.core.mem_busy {
            h.write_u64(c.as_u64());
        }
        for c in &self.core.cache_busy {
            h.write_u64(c.as_u64());
        }
        self.stats().digest(&mut h);
        h.write_u64(self.core.last_retire.as_u64());
        h.write_u64(self.injected_evictions);
        h.write_u64(self.injected_wipes);
        h.write_u64(self.injected_corruptions);
        match &self.injector {
            Some(inj) => {
                h.write_u8(1);
                inj.digest(&mut h);
            }
            None => h.write_u8(0),
        }
        h.finish()
    }

    /// Runs the per-transition invariant checker over the whole machine
    /// on demand (independent of paranoid mode).
    pub fn check_invariants(&self) -> Vec<InvariantViolation> {
        check_invariants(&self.core.caches, &self.core.homes, &self.core.map)
    }

    /// Test-only corruption hook: illegally promotes a Shared copy of
    /// `line` at `node` to Exclusive, bypassing the protocol. Returns
    /// whether the corruption was applied. Exists so tests can prove the
    /// paranoid checker reports corruption as a structured diagnostic.
    #[doc(hidden)]
    pub fn corrupt_promote_shared(&mut self, node: NodeId, line: LineAddr) -> bool {
        self.core.caches[node.index()].corrupt_promote_shared(line)
    }

    /// Enables a message-trace ring buffer holding the last `capacity`
    /// sends, each formatted as `time src->dst line kind`. Useful when
    /// debugging protocol behaviour in tests. Forces the serial engine.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some((
            capacity,
            std::collections::VecDeque::with_capacity(capacity),
        ));
    }

    /// The trace entries recorded so far (oldest first); empty unless
    /// [`enable_trace`](Machine::enable_trace) was called.
    pub fn trace(&self) -> impl Iterator<Item = &str> {
        self.trace
            .iter()
            .flat_map(|(_, q)| q.iter().map(String::as_str))
    }

    /// The structured event tracer, if tracing is enabled (via
    /// [`MachineBuilder::with_trace`] or `DSM_TRACE`).
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_deref()
    }

    /// Mutable access to the tracer, e.g. to attach a custom
    /// [`TraceSink`](dsm_trace::TraceSink) before running.
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_deref_mut()
    }

    /// Attaches a tracer to an already-built machine, replacing any
    /// existing one. Useful when the machine was constructed by a
    /// workload builder that offers no [`MachineBuilder::with_trace`]
    /// hook; attach before [`run`](Machine::run) or the trace will miss
    /// everything already simulated.
    pub fn attach_tracer(&mut self, spec: &TraceSpec) {
        self.tracer = Some(Box::new(Tracer::new(spec, self.core.cfg.nodes)));
    }

    /// Writes the attached trace sinks to disk (no-op when tracing is
    /// off). [`run`](Machine::run) calls this automatically on both the
    /// success and error paths; calling it again is idempotent because
    /// file names are content-addressed.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the trace files.
    pub fn flush_trace(&mut self) -> std::io::Result<Vec<PathBuf>> {
        let Some(tracer) = &self.tracer else {
            return Ok(Vec::new());
        };
        let paths = tracer.finish(self.core.cfg.seed)?;
        self.trace_files.clone_from(&paths);
        Ok(paths)
    }

    /// Paths written by the most recent trace flush (empty when tracing
    /// is off).
    pub fn trace_files(&self) -> &[PathBuf] {
        &self.trace_files
    }

    /// Checks coherence invariants. Only valid when the machine is
    /// quiescent (after [`run`](Machine::run) returns successfully).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant:
    /// single-writer/multiple-reader, directory/cache agreement, and
    /// value agreement between shared copies and memory.
    pub fn validate_coherence(&self) -> Result<(), String> {
        use std::collections::HashMap;
        let mut copies: HashMap<dsm_sim::LineAddr, Vec<(NodeId, CacheState)>> = HashMap::new();
        for (i, cache) in self.core.caches.iter().enumerate() {
            for (line, state) in cache.cached_lines() {
                copies
                    .entry(line)
                    .or_default()
                    .push((NodeId::new(i as u32), state));
            }
        }
        for (line, holders) in &copies {
            let exclusives: Vec<NodeId> = holders
                .iter()
                .filter(|(_, s)| *s == CacheState::Exclusive)
                .map(|(n, _)| *n)
                .collect();
            if exclusives.len() > 1 {
                return Err(format!(
                    "line {line}: multiple exclusive copies {exclusives:?}"
                ));
            }
            if exclusives.len() == 1 && holders.len() > 1 {
                return Err(format!(
                    "line {line}: exclusive copy at {} coexists with shared copies",
                    exclusives[0]
                ));
            }
            let home = line.home(self.core.cfg.nodes);
            let dir = self.core.homes[home.index()].dir_state(*line);
            match (&dir, exclusives.first()) {
                (DirState::Dirty(owner), Some(e)) if owner == e => {}
                (DirState::Dirty(owner), _) => {
                    return Err(format!(
                        "line {line}: directory says dirty at {owner} but cache state disagrees"
                    ));
                }
                (DirState::Shared(sharers), None) => {
                    for (n, _) in holders {
                        if !sharers.contains(*n) {
                            return Err(format!(
                                "line {line}: {n} holds a shared copy unknown to the directory"
                            ));
                        }
                    }
                    // Shared copies must match memory.
                    let base = line.base(self.core.cfg.params.line_size);
                    for w in 0..(self.core.cfg.params.line_size / 8) {
                        let addr = base + w * 8;
                        let mem = self.core.homes[home.index()].peek_word(addr);
                        for (n, _) in holders {
                            let cached = self.core.caches[n.index()]
                                .peek_word(addr)
                                .expect("holder has the line");
                            if cached != mem {
                                return Err(format!(
                                    "line {line} word {w}: {n} caches {cached}, memory has {mem}"
                                ));
                            }
                        }
                    }
                }
                (DirState::Uncached, None) => {
                    // Silently evicted shared copies leave stale sharers,
                    // never stale cached copies; a cached copy with an
                    // Uncached directory is a bug.
                    return Err(format!(
                        "line {line}: cached copies but directory is uncached"
                    ));
                }
                (DirState::Shared(_), Some(e)) => {
                    return Err(format!(
                        "line {line}: directory says shared but {e} holds it exclusively"
                    ));
                }
                (DirState::Uncached, Some(e)) => {
                    return Err(format!(
                        "line {line}: directory says uncached but {e} holds it exclusively"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_protocol::SyncPolicy;
    use dsm_sim::SimParams;

    /// Cycles a spin test's waiters compute between reads.
    const DELAY: u64 = 4;
    const FLAG0: Addr = Addr::new(0x400);
    const FLAG1: Addr = Addr::new(0x800);
    const FAR: Addr = Addr::new(0xc00);
    const TEST_LIMIT: Cycle = Cycle::new(1_000_000);

    /// A program that waits until the word at `addr` is nonzero, with
    /// [`Action::Spin`] (`spin`) or with the `Compute`/`Load` loop the
    /// spin stands for.
    fn waiter(addr: Addr, spin: bool) -> impl FnMut(&mut ProcCtx<'_>) -> Action + Send {
        let mut phase = 0;
        move |ctx| match phase {
            0 => {
                phase = 1;
                Action::Op(MemOp::Load { addr })
            }
            1 => match ctx.last.and_then(OpResult::value) {
                Some(0) if spin => Action::Spin {
                    addr,
                    seen: 0,
                    delay: DELAY,
                },
                Some(0) => {
                    phase = 2;
                    Action::Compute(DELAY)
                }
                _ => {
                    phase = 3;
                    Action::Done
                }
            },
            2 => {
                phase = 1;
                Action::Op(MemOp::Load { addr })
            }
            _ => Action::Done,
        }
    }

    /// A program that runs `script` in order, then finishes.
    fn script(actions: Vec<Action>) -> impl FnMut(&mut ProcCtx<'_>) -> Action + Send {
        let mut actions = actions.into_iter();
        move |_| actions.next().unwrap_or(Action::Done)
    }

    /// Two waiters (processors 0 and 1) and a writer (processor 2) that
    /// first disturbs flag 0's line without releasing it, then releases
    /// both flags; processor 3 only reads flag 0's line (a sharer whose
    /// traffic must not disturb the spinner).
    fn flag_machine(params: SimParams, gaps: [u64; 3], spin: bool) -> Machine {
        let mut cfg = MachineConfig::with_nodes(4);
        cfg.params = params;
        let mut b = MachineBuilder::new(cfg);
        b.add_program(waiter(FLAG0, spin));
        b.add_program(waiter(FLAG1, spin));
        b.add_program(script(vec![
            Action::Compute(gaps[0]),
            Action::Op(MemOp::Store {
                addr: FLAG0 + 8,
                value: 5,
            }),
            Action::Compute(gaps[1]),
            Action::Op(MemOp::Store {
                addr: FLAG0,
                value: 1,
            }),
            Action::Compute(gaps[2]),
            Action::Op(MemOp::Store {
                addr: FLAG1,
                value: 1,
            }),
        ]));
        b.add_program(script(vec![
            Action::Compute(gaps[0] / 2),
            Action::Op(MemOp::Load { addr: FLAG0 + 16 }),
        ]));
        b.build()
    }

    /// Everything a run simulates, without the event count and queue
    /// layout that parking is allowed to change: completion time, merged
    /// statistics, every cache (LRU clock and stamps included), home,
    /// port and server, and the watchdog's retirement clock.
    fn simulated(m: &Machine, report: RunReport) -> (u64, u64) {
        let mut h = StableHasher::new();
        m.stats().digest(&mut h);
        for cache in &m.core.caches {
            cache.digest(&mut h);
        }
        for home in &m.core.homes {
            home.digest(&mut h);
        }
        m.core.ports.digest(&mut h);
        for c in m.core.mem_busy.iter().chain(&m.core.cache_busy) {
            h.write_u64(c.as_u64());
        }
        h.write_u64(m.core.last_retire.as_u64());
        (report.cycles.as_u64(), h.finish())
    }

    #[test]
    fn spin_simulates_exactly_its_explicit_loop() {
        let mut parked_runs = 0;
        for cache_ctrl in [2, 3, 4, 5] {
            for issue in [1, 2] {
                for gap in 0..12 {
                    let params = SimParams {
                        cache_ctrl,
                        issue,
                        ..SimParams::default()
                    };
                    let gaps = [40 + gap, 60 + 3 * gap, 25 + gap];
                    let run = |spin| {
                        let mut m = flag_machine(params.clone(), gaps, spin);
                        let report = m.run(TEST_LIMIT).expect("flags get released");
                        (simulated(&m, report), report.events)
                    };
                    let (looped, loop_events) = run(false);
                    let (spun, spin_events) = run(true);
                    assert_eq!(
                        spun, looped,
                        "cache_ctrl {cache_ctrl}, issue {issue}, gap {gap}"
                    );
                    assert!(spin_events <= loop_events);
                    parked_runs += usize::from(spin_events < loop_events);
                }
            }
        }
        assert!(
            parked_runs > 80,
            "spinners parked in {parked_runs} of 96 runs"
        );
    }

    #[test]
    fn settle_retires_iterations_sorting_before_a_same_cycle_event() {
        let mut m = flag_machine(SimParams::default(), [400, 400, 400], true);
        let out = m.run_until(TEST_LIMIT, StopRule::PauseAt(Cycle::new(150)));
        assert!(matches!(out, Ok(RunOutcome::Paused(_))));
        let next = m.core.procs[0].parked.expect("processor 0 is parked");
        let period = 1 + 1 + DELAY;
        let ops = |m: &Machine| m.core.nstats[0].ops;
        let mut io = SerialIo {
            tracer: None,
            ring: None,
            injector: None,
            paranoid: false,
        };
        // Two periods on, at the cycle iteration 2 is due. A Process
        // pushed when that iteration's ProcStep would have been pushed
        // (`cache_ctrl == DELAY` makes this the common tie) sorts first,
        // so only iterations 0 and 1 ran before it.
        let due = next + 2 * period;
        let before = ops(&m);
        let pushed_with = Cycle::new(due.as_u64() - DELAY);
        m.core.settle(0, due, key_local(0, pushed_with, 0), &mut io);
        assert_eq!(ops(&m) - before, 2);
        assert_eq!(m.core.procs[0].parked, Some(due));
        // A Process pushed a cycle later sorts after iteration 2.
        m.core
            .settle(0, due, key_local(0, pushed_with + 1, 0), &mut io);
        assert_eq!(ops(&m) - before, 3);
        assert_eq!(m.core.procs[0].parked, Some(due + period));
        // Settling is idempotent up to the same event.
        m.core
            .settle(0, due, key_local(0, pushed_with + 1, 0), &mut io);
        assert_eq!(ops(&m) - before, 3);
    }

    /// Processor 0 spins on flag 0 (parked by cycle 200), processor 1
    /// shares the line, processor 2 releases the flag at cycle 400.
    /// Returns the machine paused at cycle 200 and, if `fault` is given,
    /// with that fault applied ahead of an event at cycle 260.
    fn faulted_spinner(fault: Option<FaultEvent>) -> Machine {
        let mut b = MachineBuilder::new(MachineConfig::with_nodes(4));
        b.add_program(waiter(FLAG0, true));
        // A second reader keeps the line shared, so corruption (which
        // promotes a shared line) finds it.
        b.add_program(script(vec![Action::Op(MemOp::Load { addr: FLAG0 })]));
        b.add_program(script(vec![
            Action::Compute(200),
            Action::Compute(200),
            Action::Op(MemOp::Store {
                addr: FLAG0,
                value: 1,
            }),
        ]));
        b.add_program(script(vec![]));
        let mut m = b.build();
        let out = m.run_until(TEST_LIMIT, StopRule::PauseAt(Cycle::new(150)));
        assert!(matches!(out, Ok(RunOutcome::Paused(_))));
        assert_eq!(m.now(), Cycle::new(200));
        assert!(m.core.procs[0].parked.is_some());
        if let Some(fault) = fault {
            let at = Cycle::new(260);
            m.core.now = at;
            m.apply_fault(fault, key_local(0, at, 0));
        }
        m
    }

    /// Processor 0's cache digest (LRU clock and stamps included).
    fn cache0(m: &Machine) -> u64 {
        let mut h = StableHasher::new();
        m.core.caches[0].digest(&mut h);
        h.finish()
    }

    #[test]
    fn corrupting_the_watched_line_settles_the_spinner_first() {
        let clean = faulted_spinner(None);
        let corrupted = faulted_spinner(Some(FaultEvent::CorruptLine {
            node: NodeId::new(0),
        }));
        // The promotion probes the line like a hit, so the ten
        // iterations issued in (200, 260) retired before it; the value
        // did not change, so the spinner stays parked.
        let period = 1 + 1 + DELAY;
        assert_eq!(corrupted.core.nstats[0].ops, clean.core.nstats[0].ops + 10);
        let next = clean.core.procs[0].parked.unwrap();
        assert_eq!(corrupted.core.procs[0].parked, Some(next + 10 * period));
        assert_ne!(cache0(&corrupted), cache0(&clean));
        assert_eq!(corrupted.injected_faults().2, 1);
    }

    #[test]
    fn evicting_the_watched_line_wakes_the_spinner() {
        let misses = |mut m: Machine| {
            m.run(TEST_LIMIT).expect("the flag is released");
            assert!(m.core.procs[0].done);
            let stats = &m.core.nstats[0];
            stats.ops - stats.local_ops
        };
        let evicted = faulted_spinner(Some(FaultEvent::EvictLine {
            node: NodeId::new(0),
        }));
        assert_eq!(evicted.core.procs[0].parked, None, "the next load misses");
        assert_eq!(evicted.injected_faults().0, 1);
        let clean = misses(faulted_spinner(None));
        assert_eq!(
            misses(evicted),
            clean + 1,
            "one extra miss after the eviction"
        );
    }

    /// A trace sink that keeps every event, in emission order.
    struct Collect(std::sync::Arc<std::sync::Mutex<Vec<dsm_trace::TraceEvent>>>);

    impl dsm_trace::TraceSink for Collect {
        fn record(&mut self, ev: &dsm_trace::TraceEvent) {
            self.0.lock().unwrap().push(*ev);
        }
        fn write_to(&self, _: &mut dyn std::io::Write) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_traced_spin_emits_the_records_of_its_explicit_loop() {
        // Same records, same span ids, same order: a drop-oldest ring
        // keeps the same tail whichever form the program uses.
        let records = |spin: bool| {
            let mut m = flag_machine(SimParams::default(), [40, 60, 25], spin);
            m.attach_tracer(&TraceSpec {
                perfetto: false,
                out: None,
                ring: None,
                ring_out: None,
                cats: dsm_trace::Categories::all(),
            });
            let log = std::sync::Arc::default();
            let sink = Collect(std::sync::Arc::clone(&log));
            m.tracer_mut().unwrap().add_sink(Box::new(sink));
            m.run(TEST_LIMIT).expect("flags get released");
            let events = log.lock().unwrap().clone();
            events
        };
        let looped = records(false);
        assert!(looped.len() > 100);
        assert_eq!(records(true), looped);
    }

    #[test]
    fn a_paused_digest_is_the_same_with_or_without_a_tracer() {
        // A tracer settles parked spinners before every event, an
        // untraced run only when their node's cache is touched; a pause
        // settles both up to the same point. (Paused runs write no
        // trace files.)
        let paused = |traced: bool| {
            let mut m = flag_machine(SimParams::default(), [400, 400, 400], true);
            if traced {
                m.attach_tracer(&TraceSpec::from_spec("ring:64").unwrap());
            }
            let out = m.run_until(TEST_LIMIT, StopRule::PauseAt(Cycle::new(300)));
            assert!(matches!(out, Ok(RunOutcome::Paused(_))));
            assert!(m.core.any_parked());
            m.state_digest()
        };
        assert_eq!(paused(false), paused(true));
    }

    #[test]
    fn a_spin_nobody_ends_hits_the_cycle_limit_on_both_engines() {
        for workers in [1, 2] {
            let mut b = MachineBuilder::new(MachineConfig::with_nodes(2));
            b.with_workers(workers);
            b.add_program(waiter(FLAG0, true));
            b.add_program(script(vec![]));
            let err = b.build().run(Cycle::new(100_000)).unwrap_err();
            assert!(
                matches!(err, RunError::CycleLimit { active: 1, .. }),
                "{workers} workers: {err}"
            );
        }
    }

    #[test]
    fn a_parked_spinner_keeps_the_watchdog_quiet() {
        // Processor 1's miss on a far line takes longer than the
        // watchdog window; processor 0's spin hits retire every six
        // cycles meanwhile, so the run must not count as a livelock.
        // (Every other miss in the run fits in the window.)
        // Homed at node 63 and dirty at node 56 of an 8x8 mesh: a
        // three-hop miss across the machine.
        let far = FAR + 31 * 32;
        // Homed at node 0, next to the writer.
        let flag = Addr::new(64 * 32);
        let run = |spinner: bool| {
            let mut cfg = MachineConfig::with_nodes(64);
            cfg.faults.watchdog = 80;
            let mut b = MachineBuilder::new(cfg);
            if spinner {
                b.add_program(waiter(flag, true));
            } else {
                b.add_program(script(vec![]));
            }
            b.add_program(script(vec![
                Action::Compute(100),
                Action::Op(MemOp::Load { addr: far }),
                Action::Op(MemOp::Store {
                    addr: flag,
                    value: 1,
                }),
            ]));
            for p in 2..64 {
                b.add_program(script(if p == 56 {
                    vec![Action::Op(MemOp::Store {
                        addr: far,
                        value: 7,
                    })]
                } else {
                    vec![]
                }));
            }
            b.build().run(TEST_LIMIT)
        };
        let quiet = run(false);
        assert!(
            matches!(quiet, Err(RunError::Livelock { .. })),
            "the window is shorter than the miss: {quiet:?}"
        );
        let report = run(true).expect("spin hits count as progress");
        assert!(report.cycles.as_u64() > 100);
    }

    #[test]
    fn spinning_on_a_sync_line_is_a_typed_error() {
        let mut b = MachineBuilder::new(MachineConfig::with_nodes(2));
        b.register_sync(
            FLAG0,
            SyncConfig {
                policy: SyncPolicy::Inv,
                ..SyncConfig::default()
            },
        );
        b.add_program(waiter(FLAG0, true));
        b.add_program(script(vec![]));
        let err = b.build().run(TEST_LIMIT).unwrap_err();
        assert!(
            matches!(err, RunError::SpinOnSync { addr: FLAG0, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("synchronization address"));
    }

    /// A node's local pushes over a few cycles, as `(push cycle,
    /// sequence within the cycle)`: several pushes in some cycles, and
    /// cycles far past 2^40.
    fn pushes() -> Vec<(Cycle, u64)> {
        let mut out: Vec<(Cycle, u64)> = Vec::new();
        for c in [0u64, 0, 0, 3, 4, 4, 9, 9, 9, 9, 10, 1 << 45, 1 << 45].map(Cycle::new) {
            let seq = match out.last() {
                Some(&(last, seq)) if last == c => seq + 1,
                _ => 0,
            };
            out.push((c, seq));
        }
        out
    }

    #[test]
    fn push_cycle_keys_order_like_a_monotone_counter() {
        // The counter-only key used to be `(node, rank 2, total pushes)`;
        // the push-cycle key must order every pair the same way.
        let keys: Vec<u128> = pushes()
            .into_iter()
            .map(|(c, seq)| key_local(7, c, seq))
            .collect();
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                assert_eq!(a.cmp(b), i.cmp(&j), "pushes {i} and {j} reorder");
            }
        }
    }

    #[test]
    fn fused_key_sorts_after_same_cycle_pushes_only() {
        for (c, seq) in pushes() {
            let fused = key_fused(7, c);
            assert!(key_local(7, c, seq) < fused);
            assert!(fused < key_local(7, c + 1, 0));
            // Still a local key of the same node: after its wire and
            // delivery keys, before its barrier release.
            assert!(key_wire(NodeId::new(7), NodeId::new(63), 1 << 40) < fused);
            assert!(fused < key_barrier(7));
            assert_eq!(key_node(fused), 7);
        }
    }
}

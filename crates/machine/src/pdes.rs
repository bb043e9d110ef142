//! Conservative parallel discrete-event simulation of one machine.
//!
//! [`run_parallel`] shards a full-range [`Core`] into per-worker
//! logical processes ([`Core::split_off`]) and advances them in
//! bounded windows under a windowed-coordinator protocol:
//!
//! 1. **Report** — every worker publishes its next pending event time,
//!    barrier-waiting count, and the earliest wire-arrival it pushed to
//!    each peer shard since the last round, then waits on a barrier.
//! 2. **Plan** — the barrier leader computes the global virtual time
//!    `GVT` (the minimum over local queues *and* in-flight channel
//!    messages) and hands every shard a dispatch horizon
//!    `te = GVT + lookahead`, where the lookahead is the minimum
//!    latency any cross-shard message can take
//!    ([`dsm_mesh::pair_lookahead`] of the minimum cross-shard hop
//!    distance). No event below the horizon can be affected by a
//!    message a peer has not sent yet, so the window is safe — and
//!    because the bound is static, no null messages are ever needed.
//! 3. **Execute** — workers dispatch events strictly below their
//!    horizon, pushing cross-shard messages into mutex-guarded
//!    channels keyed with the sender-assigned deterministic tie-break
//!    key (see `key_wire` in the machine module), so the receiver's
//!    queue orders them exactly as the serial engine would.
//!
//! Global barriers (the simulated kind) are the one interaction that
//! is not a message: the serial engine releases all waiters inline at
//! the moment the last processor arrives. The coordinator reproduces
//! that time exactly: a shard that observes a local arrival stops its
//! window right after that cycle, a shard with waiting processors is
//! capped just past the earliest time any *runnable* shard could still
//! produce an arrival, and once every active processor is reported
//! waiting the leader schedules a release at the maximum reported
//! arrival time — which is, by construction, the cycle the serial
//! engine would have released at (or, if the waiters disagree on the
//! barrier id, fails the run with the serial engine's
//! [`RunError::BarrierMismatch`]). Rank-3 release keys sort the resumed
//! `ProcStep`s after all same-cycle protocol work of the node, exactly
//! like the serial inline push.
//!
//! Everything a run produces — simulated cycle count, per-node
//! statistics, the sync-access log, network counters, the post-run
//! [`state_digest`](crate::Machine::state_digest) — is bit-identical
//! to the serial engine's, because each shard dispatches exactly the
//! subsequence of the serial dispatch order that touches its nodes and
//! all merged artifacts are combined in canonical node order.

use crate::machine::{
    key_node, shard_bounds, shard_of, Core, Effect, RunError, RunReport, ShardIo, Waiters,
};
use dsm_protocol::Msg;
use dsm_sim::{Cycle, MachineConfig, NodeId};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Matches the serial engine's wall-clock polling period.
const WALL_CHECK_MASK: u64 = 8191;

/// An in-flight cross-shard message: wire-arrival time, deterministic
/// tie-break key (assigned by the sender's entry port), payload.
type Flight = (Cycle, u128, Msg);

/// What one worker tells the coordinator at a round boundary.
#[derive(Debug)]
struct Report {
    /// Earliest pending local event, if any.
    next_local: Option<Cycle>,
    /// Local processors waiting at a simulated barrier.
    waiting: usize,
    /// Which barriers they wait at.
    waiters: Waiters,
    /// Local processors that have not terminated.
    active_local: usize,
    /// Some local processor is parked on a spin (and has no queued
    /// event).
    parked: bool,
    /// Latest local barrier-arrival or termination time this window
    /// (`Cycle::ZERO` when none happened).
    arr_max: Cycle,
    /// Latest local termination time this window.
    fin_max: Cycle,
    /// The shard's local clock after the window.
    max_now: Cycle,
    /// Per-destination-shard minimum wire-arrival among messages sent
    /// this window. Covers every message that may still be sitting in a
    /// channel, so the leader's GVT never misses an in-flight event.
    sent_min: Vec<Option<Cycle>>,
    /// A terminal error the window hit, if any.
    error: Option<RunError>,
}

impl Report {
    fn empty(workers: usize) -> Self {
        Report {
            next_local: None,
            waiting: 0,
            waiters: Waiters::default(),
            active_local: 0,
            parked: false,
            arr_max: Cycle::ZERO,
            fin_max: Cycle::ZERO,
            max_now: Cycle::ZERO,
            sent_min: vec![None; workers],
            error: None,
        }
    }

    /// Fills the queue/processor fields from the shard's current state.
    fn observe(&mut self, core: &mut Core) {
        self.next_local = core.events.peek_horizon();
        self.waiting = core.waiting_count();
        self.waiters = core.waiters();
        self.active_local = core.active;
        self.parked = core.any_parked();
        self.max_now = core.now;
    }
}

/// What the coordinator tells one worker to do next round.
#[derive(Debug, Clone, Default)]
struct Plan {
    /// Dispatch events strictly below this time (`Cycle::ZERO` =
    /// dispatch nothing, e.g. a pure release round).
    horizon: Cycle,
    /// Apply a simulated-barrier release at this time before executing.
    release_at: Option<Cycle>,
    /// The run is over; stop looping.
    done: bool,
}

/// How the run ended, decided by the coordinator.
#[derive(Debug, Clone)]
enum Verdict {
    /// Every processor terminated; `cycles` is the serial completion
    /// time (the latest termination).
    Done { cycles: Cycle },
    /// Queues and channels drained with processors still active.
    Deadlock { at: Cycle, active: usize },
    /// A worker hit a terminal error.
    Fail(RunError),
}

/// Everything the workers share.
struct Ctrl {
    barrier: Barrier,
    coord: Mutex<Coord>,
    /// `chans[dst][src]`: messages in flight from shard `src` to shard
    /// `dst`. Receivers drain their whole row at the start of every
    /// window.
    chans: Vec<Vec<Mutex<Vec<Flight>>>>,
    bounds: Vec<(u32, u32)>,
    /// Conservative lookahead: minimum cycles between a cross-shard
    /// send and its earliest wire arrival.
    lookahead: u64,
    limit: Cycle,
    wall_limit: Option<Duration>,
    started: Instant,
    /// A worker panicked inside its window; everyone shuts down and the
    /// payload is re-thrown on the coordinating thread.
    panicked: AtomicBool,
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Coordinator state, touched only by the barrier leader between the
/// report barrier and the plan barrier.
struct Coord {
    reports: Vec<Report>,
    plans: Vec<Plan>,
    /// Monotone maximum of all reported arrival/termination times: the
    /// exact cycle the serial engine releases the current simulated
    /// barrier generation at.
    gen_max: Cycle,
    /// Monotone maximum of all reported termination times: the serial
    /// completion cycle.
    fin_max: Cycle,
    verdict: Option<Verdict>,
}

/// Minimum hop distance between nodes in *different* shards — the
/// distance that bounds how quickly one shard can affect another.
fn min_cross_shard_hops(cfg: &MachineConfig, bounds: &[(u32, u32)]) -> u32 {
    let mut min = u32::MAX;
    for a in 0..cfg.nodes {
        let sa = shard_of(bounds, a);
        for b in (a + 1)..cfg.nodes {
            if shard_of(bounds, b) != sa {
                min = min.min(cfg.hops(NodeId::new(a), NodeId::new(b)));
            }
        }
    }
    min
}

/// Runs `core` (a full-range machine core) to completion on `workers`
/// threads, bit-identically to the serial engine. See the module docs
/// for the protocol.
pub(crate) fn run_parallel(
    core: &mut Core,
    limit: Cycle,
    workers: usize,
    wall_limit: Option<Duration>,
) -> Result<RunReport, RunError> {
    debug_assert!(workers >= 2, "one worker is the serial engine's job");
    let bounds = shard_bounds(core.cfg.nodes, workers);
    let w = bounds.len();
    let lookahead =
        dsm_mesh::pair_lookahead(&core.cfg.params, min_cross_shard_hops(&core.cfg, &bounds));
    let ctrl = Ctrl {
        barrier: Barrier::new(w),
        coord: Mutex::new(Coord {
            reports: (0..w).map(|_| Report::empty(w)).collect(),
            plans: vec![Plan::default(); w],
            gen_max: Cycle::ZERO,
            fin_max: Cycle::ZERO,
            verdict: None,
        }),
        chans: (0..w)
            .map(|_| (0..w).map(|_| Mutex::new(Vec::new())).collect())
            .collect(),
        bounds: bounds.clone(),
        lookahead,
        limit,
        wall_limit,
        started: Instant::now(),
        panicked: AtomicBool::new(false),
        panic_payload: Mutex::new(None),
    };
    let shards = core.split_off(&bounds);
    let mut returned: Vec<Core> = std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .into_iter()
            .enumerate()
            .map(|(me, shard)| {
                let ctrl = &ctrl;
                s.spawn(move || worker(me, shard, ctrl))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker infrastructure never panics"))
            .collect()
    });
    if let Some(payload) = ctrl.panic_payload.lock().unwrap().take() {
        // A simulated program panicked; surface it exactly as the
        // serial engine would have (the machine is left unusable, but
        // the panic unwinds through the caller just the same).
        resume_unwind(payload);
    }
    // Workers drained their inbound channels before returning, so the
    // shards hold every in-flight message and absorb loses nothing.
    returned.sort_by_key(|c| c.lo);
    core.absorb(returned);
    let verdict = ctrl
        .coord
        .lock()
        .unwrap()
        .verdict
        .take()
        .expect("workers only exit on a verdict");
    match verdict {
        Verdict::Done { cycles } => Ok(RunReport {
            cycles,
            events: core.events_processed,
        }),
        Verdict::Deadlock { at, active } => Err(RunError::Deadlock {
            at,
            active,
            procs: core.proc_dumps(),
        }),
        Verdict::Fail(e) => Err(e),
    }
}

/// One worker thread: report / barrier / plan / barrier / execute.
fn worker(me: usize, mut core: Core, ctrl: &Ctrl) -> Core {
    let mut rep = Report::empty(ctrl.bounds.len());
    rep.observe(&mut core);
    loop {
        {
            let mut coord = ctrl.coord.lock().unwrap();
            coord.reports[me] = rep;
        }
        if ctrl.barrier.wait().is_leader() {
            plan_round(ctrl);
        }
        ctrl.barrier.wait();
        let plan = {
            let coord = ctrl.coord.lock().unwrap();
            coord.plans[me].clone()
        };
        if plan.done {
            break;
        }
        rep = match catch_unwind(AssertUnwindSafe(|| run_window(&mut core, me, &plan, ctrl))) {
            Ok(rep) => rep,
            Err(payload) => {
                // Keep participating in barriers (or the other workers
                // hang); the leader sees the flag and winds everyone
                // down, and the payload is re-thrown after the join.
                ctrl.panicked.store(true, Ordering::SeqCst);
                let mut slot = ctrl.panic_payload.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
                Report::empty(ctrl.bounds.len())
            }
        };
    }
    drain_inbound(&mut core, me, ctrl);
    core
}

/// Moves every in-flight message addressed to shard `me` into its
/// local event queue (keys keep the serial order).
fn drain_inbound(core: &mut Core, me: usize, ctrl: &Ctrl) {
    for src in &ctrl.chans[me] {
        for (at, key, msg) in src.lock().unwrap().drain(..) {
            core.push_remote(at, key, msg);
        }
    }
}

/// [`ShardIo`] for a PDES worker: no instrumentation (it all forces
/// the serial engine), cross-shard sends go to the channels.
struct ParIo<'a> {
    ctrl: &'a Ctrl,
    me: usize,
    /// Minimum wire-arrival pushed to each destination shard this
    /// window (reported so the leader's GVT sees in-flight messages).
    sent_min: Vec<Option<Cycle>>,
}

impl ShardIo for ParIo<'_> {
    fn send_remote(&mut self, wire_at: Cycle, key: u128, msg: Msg) {
        let dst = shard_of(&self.ctrl.bounds, key_node(key));
        debug_assert_ne!(dst, self.me, "local messages never reach send_remote");
        self.sent_min[dst] = Some(match self.sent_min[dst] {
            Some(t) => t.min(wire_at),
            None => wire_at,
        });
        self.ctrl.chans[dst][self.me]
            .lock()
            .unwrap()
            .push((wire_at, key, msg));
    }
}

/// Executes one window: apply any planned barrier release, ingest
/// in-flight messages, then dispatch local events strictly below the
/// horizon (shrinking it past a local barrier arrival).
fn run_window(core: &mut Core, me: usize, plan: &Plan, ctrl: &Ctrl) -> Report {
    if let Some(at) = plan.release_at {
        debug_assert!(at >= core.now, "release planned in a shard's past");
        core.apply_barrier_release(at);
    }
    drain_inbound(core, me, ctrl);
    let mut io = ParIo {
        ctrl,
        me,
        sent_min: vec![None; ctrl.bounds.len()],
    };
    let mut rep = Report::empty(ctrl.bounds.len());
    let mut horizon = plan.horizon;
    while let Some((at, key, event)) = core.events.pop_before_keyed(horizon) {
        debug_assert!(at >= core.now, "time ran backwards");
        core.now = at;
        core.events_processed += 1;
        if core.events_processed & WALL_CHECK_MASK == 0 {
            if let Some(budget) = ctrl.wall_limit {
                let elapsed = ctrl.started.elapsed();
                if elapsed > budget {
                    rep.error = Some(RunError::Timeout {
                        at,
                        elapsed_ms: elapsed.as_millis() as u64,
                        limit_ms: budget.as_millis() as u64,
                    });
                    break;
                }
            }
        }
        match core.dispatch(key, event, &mut io) {
            Ok(Effect::None) => {}
            Ok(Effect::Arrived) => {
                // A local processor reached the simulated barrier. The
                // release cycle is not known until every shard's
                // processors arrive, so finish this cycle and stop: the
                // coordinator caps us near the release time from here
                // on, and the release itself can never precede this
                // arrival.
                rep.arr_max = rep.arr_max.max(at);
                horizon = horizon.min(at + 1);
            }
            Ok(Effect::Finished) => {
                // Terminations feed the same maximum: when the last
                // runnable processor terminates and only waiters
                // remain, the serial engine releases the barrier at
                // exactly that cycle.
                rep.arr_max = rep.arr_max.max(at);
                rep.fin_max = rep.fin_max.max(at);
            }
            Err(e) => {
                rep.error = Some(e);
                break;
            }
        }
    }
    rep.sent_min = io.sent_min;
    rep.observe(core);
    rep
}

/// The leader's round computation. Runs between the two barrier waits,
/// so every report is complete and no worker is reading its plan yet.
fn plan_round(ctrl: &Ctrl) {
    let coord = &mut *ctrl.coord.lock().unwrap();
    let w = coord.reports.len();
    let (arr, fin) = coord
        .reports
        .iter()
        .fold((Cycle::ZERO, Cycle::ZERO), |(a, f), r| {
            (a.max(r.arr_max), f.max(r.fin_max))
        });
    coord.gen_max = coord.gen_max.max(arr);
    coord.fin_max = coord.fin_max.max(fin);
    if ctrl.panicked.load(Ordering::SeqCst) {
        finish(
            coord,
            Verdict::Fail(RunError::Deadlock {
                // Placeholder verdict: the panic payload wins after the
                // join, so this error is never observed.
                at: Cycle::ZERO,
                active: 0,
                procs: Vec::new(),
            }),
        );
        return;
    }
    if let Some((si, _)) = coord
        .reports
        .iter()
        .enumerate()
        .filter(|(_, r)| r.error.is_some())
        .min_by_key(|(si, r)| (r.max_now, *si))
    {
        let e = coord.reports[si].error.take().expect("filtered on is_some");
        finish(coord, Verdict::Fail(e));
        return;
    }
    // The effective next event time of each shard: its own queue, plus
    // anything any peer sent it that may still sit in a channel.
    let eff_next: Vec<Option<Cycle>> = (0..w)
        .map(|q| {
            let mut t = coord.reports[q].next_local;
            for s in 0..w {
                if let Some(m) = coord.reports[s].sent_min[q] {
                    t = Some(match t {
                        Some(t) => t.min(m),
                        None => m,
                    });
                }
            }
            t
        })
        .collect();
    let total_active: usize = coord.reports.iter().map(|r| r.active_local).sum();
    let waiting_total: usize = coord.reports.iter().map(|r| r.waiting).sum();
    // Simulated-barrier release: every active processor is waiting, so
    // the generation is complete. The serial engine released inline at
    // the last arrival — `gen_max` — so schedule exactly that, then
    // replan with the resumed ProcSteps in the queues.
    if total_active > 0 && waiting_total == total_active {
        let at = coord.gen_max;
        let waiters: Vec<Waiters> = coord.reports.iter().map(|r| r.waiters).collect();
        if let Err(e) = Waiters::merge(&waiters).check(at) {
            finish(coord, Verdict::Fail(e));
            return;
        }
        for p in &mut coord.plans {
            *p = Plan {
                horizon: Cycle::ZERO,
                release_at: Some(at),
                done: false,
            };
        }
        return;
    }
    let gvt = eff_next.iter().flatten().copied().min();
    let Some(gvt) = gvt else {
        // No pending work anywhere. Either everything terminated (the
        // normal end), a parked spinner would spin until the limit, or
        // active processors starved (a protocol or program bug — the
        // serial engine's deadlock).
        let verdict = if total_active == 0 {
            Verdict::Done {
                cycles: coord.fin_max,
            }
        } else if coord.reports.iter().any(|r| r.parked) {
            Verdict::Fail(RunError::CycleLimit {
                limit: ctrl.limit,
                active: total_active,
            })
        } else {
            let at = coord
                .reports
                .iter()
                .map(|r| r.max_now)
                .max()
                .unwrap_or(Cycle::ZERO);
            Verdict::Deadlock {
                at,
                active: total_active,
            }
        };
        finish(coord, verdict);
        return;
    };
    if gvt > ctrl.limit {
        // Identical to the serial engine popping its next event past
        // the limit: every event at or below the limit has been
        // dispatched, none beyond it ever was.
        finish(
            coord,
            Verdict::Fail(RunError::CycleLimit {
                limit: ctrl.limit,
                active: total_active,
            }),
        );
        return;
    }
    // The conservative window: nothing below `te` can be affected by a
    // message not yet sent. Clamped just past the cycle limit so no
    // event beyond the limit is ever dispatched (keeps the CycleLimit
    // check above exact).
    let te = (gvt + ctrl.lookahead).min(ctrl.limit + 1);
    // Earliest time any shard that can still *run* a processor might
    // produce a barrier arrival: shards with waiters must not pass it,
    // because the release lands at the last arrival and a released
    // ProcStep may not be pushed into a shard's past.
    let runnable_next = (0..w)
        .filter(|&q| coord.reports[q].active_local > coord.reports[q].waiting)
        .filter_map(|q| eff_next[q])
        .min();
    for (q, p) in coord.plans.iter_mut().enumerate() {
        let mut horizon = te;
        if coord.reports[q].waiting > 0 {
            if let Some(r) = runnable_next {
                horizon = horizon.min(r + 1);
            }
        }
        *p = Plan {
            horizon,
            release_at: None,
            done: false,
        };
    }
}

/// Records the verdict and tells every worker to stop.
fn finish(coord: &mut Coord, verdict: Verdict) {
    coord.verdict = Some(verdict);
    for p in &mut coord.plans {
        p.done = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_bounds_cover_all_nodes_contiguously() {
        for nodes in [1u32, 2, 7, 64, 256] {
            for workers in [1usize, 2, 3, 8, 300] {
                let b = shard_bounds(nodes, workers);
                let mut expect = 0;
                for &(lo, count) in &b {
                    assert_eq!(lo, expect);
                    assert!(count > 0, "empty shard");
                    expect = lo + count;
                }
                assert_eq!(expect, nodes);
            }
        }
    }

    #[test]
    fn cross_shard_hops_is_min_over_cut_pairs() {
        // 4 nodes on a 2x2 mesh, split 2/2: adjacent cross pairs exist.
        let cfg = MachineConfig::with_nodes(4);
        let bounds = shard_bounds(4, 2);
        assert_eq!(min_cross_shard_hops(&cfg, &bounds), 1);
    }
}

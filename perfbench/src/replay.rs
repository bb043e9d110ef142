//! Layer replays of the traced run, fed with the workload's own traffic.
//!
//! [`record`] runs a workload's machines with the simulator's tracer
//! attached and a sink that keeps three streams per machine: every
//! message send, the (scheduled, due) cycle pair of every recorded
//! event, and each processor's operations in issue order. The three
//! harnesses replay those streams through one layer each:
//! `EventQueue` (`dsm-sim`), `LatencyNetwork::send` (`dsm-mesh`) and
//! `CacheNode`/`HomeNode` (`dsm-protocol`).

use crate::harness::median;
use crate::workloads::{run_built, SimCounts, Spec, PROCS};
use atomic_dsm::mesh::{LatencyNetwork, Mesh};
use atomic_dsm::protocol::{
    AddressMap, CacheNode, DirState, HomeNode, MemOp, Msg, Outbox, PhiOp, SyncConfig,
};
use atomic_dsm::sim::{Addr, Cycle, EventQueue, LineAddr, MachineConfig, NodeId};
use atomic_dsm::trace::{Categories, Category, TraceEvent, TraceSink, TraceSpec};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Records kept per stream (sends, event pairs, operations) over all
/// machines of a workload; each machine keeps a prefix of its run.
const CAP: usize = 1 << 19;
/// Repetitions of the queue and mesh replays; the median is reported.
const REPEATS: usize = 5;

/// What one machine's tracer recorded.
#[derive(Debug, Default)]
pub struct Traffic {
    /// Message sends in simulation order: (cycle, source, destination,
    /// flits).
    sends: Vec<(u64, u32, u32, u64)>,
    /// (scheduled at, due) of each recorded event, sorted by scheduling
    /// time once the run ends: a message from send to wire arrival, a
    /// service from start to finish, an operation from issue to
    /// retirement.
    timeline: Vec<(u64, u64)>,
    /// Per processor, its operations in issue order: (label, line).
    scripts: Vec<Vec<(&'static str, LineAddr)>>,
    ops: usize,
    /// The machine's synchronization words and their policies.
    syncs: Vec<(Addr, SyncConfig)>,
}

struct Sink {
    traffic: Rc<RefCell<Traffic>>,
    cap: usize,
}

impl TraceSink for Sink {
    fn record(&mut self, ev: &TraceEvent) {
        let mut t = self.traffic.borrow_mut();
        let full = t.timeline.len() >= 3 * self.cap;
        match *ev {
            TraceEvent::MsgSend {
                at,
                src,
                dst,
                flits,
                deliver_at,
                ..
            } if t.sends.len() < self.cap && !full => {
                t.sends
                    .push((at.as_u64(), src.as_u32(), dst.as_u32(), flits));
                t.timeline.push((at.as_u64(), deliver_at.as_u64()));
            }
            TraceEvent::MsgService { start, finish, .. } if !full => {
                t.timeline.push((start.as_u64(), finish.as_u64()));
            }
            TraceEvent::Op {
                issued, retired, ..
            } if !full => {
                t.timeline.push((issued.as_u64(), retired.as_u64()));
            }
            TraceEvent::SpanBegin { proc, op, line, .. } if t.ops < self.cap => {
                t.ops += 1;
                t.scripts[proc.index()].push((op, line));
            }
            _ => {}
        }
    }

    fn write_to(&self, _: &mut dyn std::io::Write) -> std::io::Result<()> {
        Ok(())
    }
}

/// Builds and runs each spec with the tracer attached (it writes no
/// file) and returns what each recorded, plus the machines' summed
/// counts. Each run's output is checked as in a timed pass.
pub fn record(specs: &[Spec]) -> Result<(Vec<Traffic>, SimCounts), String> {
    let spec = TraceSpec {
        perfetto: false,
        out: None,
        ring: None,
        ring_out: None,
        cats: Categories::none()
            .with(Category::Msg)
            .with(Category::Op)
            .with(Category::Span),
    };
    let cap = CAP / specs.len().max(1);
    let mut all = Vec::new();
    let mut counts = SimCounts::default();
    for s in specs {
        let mut built = s.build();
        let traffic = Rc::new(RefCell::new(Traffic {
            scripts: vec![Vec::new(); PROCS as usize],
            syncs: built.syncs.clone(),
            ..Traffic::default()
        }));
        built.machine.attach_tracer(&spec);
        built
            .machine
            .tracer_mut()
            .expect("a tracer was just attached")
            .add_sink(Box::new(Sink {
                traffic: Rc::clone(&traffic),
                cap,
            }));
        let (_, c) = run_built(built);
        counts.add(&c?);
        let mut traffic = Rc::try_unwrap(traffic)
            .map_err(|_| "the tracer outlived its machine".to_string())?
            .into_inner();
        traffic.timeline.sort_by_key(|&(at, _)| at);
        all.push(traffic);
    }
    Ok((all, counts))
}

/// `EventQueue` push+pop cost, in ns per event, replaying each
/// machine's recorded timeline: events are pushed in the order they
/// were scheduled, and before each push every event due by then is
/// popped. Checks that the queue pops every event, in time order.
pub fn queue_hold_ns(traffic: &[Traffic]) -> Result<f64, String> {
    let events: usize = traffic.iter().map(|t| t.timeline.len()).sum();
    let mut samples = Vec::new();
    for _ in 0..REPEATS {
        let mut ns = 0;
        let mut ordered = true;
        for tl in traffic.iter().map(|t| &t.timeline) {
            let mut q: EventQueue<()> = EventQueue::with_capacity(PROCS as usize * 8);
            let (mut popped, mut last) = (0, Cycle::ZERO);
            let t = Instant::now();
            for &(at, due) in tl {
                while let Some((c, ())) = q.pop_before(Cycle::new(at + 1)) {
                    popped += 1;
                    ordered &= c >= last;
                    last = c;
                }
                q.push(Cycle::new(due.max(at)), ());
            }
            while let Some((c, ())) = q.pop() {
                popped += 1;
                ordered &= c >= last;
                last = c;
            }
            ns += t.elapsed().as_nanos();
            if !ordered || popped != tl.len() {
                return Err(format!(
                    "queue replay: {popped} of {} events popped, in time order: {ordered}",
                    tl.len()
                ));
            }
        }
        samples.push(ns as f64 / events.max(1) as f64);
    }
    Ok(median(samples))
}

/// `LatencyNetwork::send` cost, in ns per message, replaying each
/// machine's recorded sends (same cycles, pairs and sizes) into a fresh
/// network.
pub fn mesh_send_ns(traffic: &[Traffic]) -> f64 {
    let cfg = MachineConfig::with_nodes(PROCS);
    let sends: usize = traffic.iter().map(|t| t.sends.len()).sum();
    let mut samples = Vec::new();
    for _ in 0..REPEATS {
        let mut ns = 0;
        for tr in traffic {
            let mut net = LatencyNetwork::new(Mesh::new(&cfg), cfg.params.clone());
            let t = Instant::now();
            for &(at, src, dst, flits) in &tr.sends {
                black_box(net.send(Cycle::new(at), NodeId::new(src), NodeId::new(dst), flits));
            }
            ns += t.elapsed().as_nanos();
            black_box(net.stats().messages);
        }
        samples.push(ns as f64 / sends.max(1) as f64);
    }
    median(samples)
}

/// Mean host cost of one call into each protocol engine entry point.
#[derive(Debug, Clone, Copy, Default)]
pub struct PumpNs {
    pub start_op: f64,
    pub cache_handle: f64,
    pub home_handle: f64,
}

/// The pump's operation for a recorded (label, line). Fetch-and-Φ adds
/// one to word 0 of the line and never shares its word with a write of
/// another kind, so each line's word 0 ends equal to its number of
/// fetch-and-adds; the other writes go to word 1.
fn mem_op(label: &str, line: LineAddr, line_size: u64, proc: u32) -> Result<MemOp, String> {
    let w0 = line.base(line_size);
    let w1 = Addr::new(w0.as_u64() + 8);
    let value = u64::from(proc) + 1;
    Ok(match label {
        "Load" => MemOp::Load { addr: w0 },
        "Store" => MemOp::Store { addr: w1, value },
        "LoadExclusive" => MemOp::LoadExclusive { addr: w0 },
        "DropCopy" => MemOp::DropCopy { addr: w0 },
        "FetchPhi" => MemOp::FetchPhi {
            addr: w0,
            op: PhiOp::Add(1),
        },
        "Cas" => MemOp::Cas {
            addr: w1,
            expected: 0,
            new: value,
        },
        "LoadLinked" => MemOp::LoadLinked { addr: w1 },
        "StoreConditional" => MemOp::StoreConditional {
            addr: w1,
            value,
            serial: None,
        },
        other => return Err(format!("protocol pump: unknown operation {other:?}")),
    })
}

/// Call counts and summed nanoseconds of one pump run.
#[derive(Default)]
struct PumpSums {
    start_op: (u128, u64),
    cache: (u128, u64),
    home: (u128, u64),
}

/// Drives `CacheNode`/`HomeNode` directly over one FIFO "network", as
/// the protocol crate's interleaving tests do, with each machine's
/// recorded operations as the processors' scripts and its
/// synchronization words registered as the machine registered them.
/// Times every call into the engines. Checks that every script
/// completes and that no fetch-and-add is lost.
pub fn protocol_pump(traffic: &[Traffic]) -> Result<PumpNs, String> {
    let mut sums = PumpSums::default();
    for t in traffic {
        pump_one(t, &mut sums)?;
    }
    let per = |(t, n): (u128, u64)| t as f64 / n.max(1) as f64;
    Ok(PumpNs {
        start_op: per(sums.start_op),
        cache_handle: per(sums.cache),
        home_handle: per(sums.home),
    })
}

fn pump_one(traffic: &Traffic, sums: &mut PumpSums) -> Result<(), String> {
    let cfg = MachineConfig::with_nodes(PROCS);
    let ls = cfg.params.line_size;
    let mut map = AddressMap::new(ls);
    for &(addr, sync) in &traffic.syncs {
        map.register(addr, sync);
    }
    let mut homes: Vec<HomeNode> = (0..PROCS)
        .map(|n| {
            let mut h = HomeNode::new(NodeId::new(n), ls, 256);
            h.reserve_lines(cfg.cache.lines());
            h
        })
        .collect();
    let mut caches: Vec<CacheNode> = (0..PROCS)
        .map(|n| {
            let mut c = CacheNode::new(NodeId::new(n), ls, cfg.cache);
            c.set_nodes(PROCS);
            c
        })
        .collect();
    let scripts = traffic
        .scripts
        .iter()
        .zip(0..)
        .map(|(s, p)| s.iter().map(|&(l, line)| mem_op(l, line, ls, p)).collect())
        .collect::<Result<Vec<Vec<MemOp>>, String>>()?;
    let mut next = vec![0usize; PROCS as usize];
    let mut fifo: VecDeque<Msg> = VecDeque::new();
    let mut out = Outbox::new();
    let err = |e: atomic_dsm::protocol::ProtocolError| e.to_string();

    // Issues processor `p`'s next operations until one blocks.
    let issue = |p: usize,
                 caches: &mut [CacheNode],
                 next: &mut [usize],
                 fifo: &mut VecDeque<Msg>,
                 out: &mut Outbox,
                 sums: &mut PumpSums|
     -> Result<(), String> {
        while next[p] < scripts[p].len() {
            let op = scripts[p][next[p]];
            let t = Instant::now();
            let done = caches[p].start_op(op, &map, out);
            sums.start_op.0 += t.elapsed().as_nanos();
            sums.start_op.1 += 1;
            fifo.extend(out.drain());
            if done.map_err(err)?.is_none() {
                return Ok(());
            }
            next[p] += 1;
        }
        Ok(())
    };
    for p in 0..PROCS as usize {
        issue(p, &mut caches, &mut next, &mut fifo, &mut out, sums)?;
    }
    while let Some(msg) = fifo.pop_front() {
        let node = msg.dst.index();
        if msg.kind.home_bound() {
            let t = Instant::now();
            let r = homes[node].handle(msg, &map, &mut out);
            sums.home.0 += t.elapsed().as_nanos();
            sums.home.1 += 1;
            r.map_err(err)?;
            fifo.extend(out.drain());
        } else {
            let t = Instant::now();
            let r = caches[node].handle(msg, &mut out);
            sums.cache.0 += t.elapsed().as_nanos();
            sums.cache.1 += 1;
            fifo.extend(out.drain());
            if r.map_err(err)?.is_some() {
                next[node] += 1;
                issue(node, &mut caches, &mut next, &mut fifo, &mut out, sums)?;
            }
        }
    }
    if next.iter().zip(&scripts).any(|(&n, s)| n != s.len()) {
        return Err("protocol pump: a processor never completed its script".into());
    }
    let mut adds: BTreeMap<LineAddr, u64> = BTreeMap::new();
    for op in scripts.iter().flatten() {
        if let MemOp::FetchPhi { addr, .. } = op {
            *adds.entry(addr.line(ls)).or_insert(0) += 1;
        }
    }
    for (line, want) in adds {
        let word = line.base(ls);
        let home = &homes[line.home(PROCS).index()];
        let value = match home.dir_state(line) {
            DirState::Dirty(owner) => caches[owner.index()].peek_word(word),
            _ => None,
        }
        .unwrap_or_else(|| home.peek_word(word));
        if value != want {
            return Err(format!(
                "protocol pump: {line} holds {value} after {want} fetch-and-adds"
            ));
        }
    }
    Ok(())
}

//! Same-cycle ordering under non-default timing.
//!
//! With the paper's timing (`issue` = 1, well below the cache-controller
//! and memory service times) the processor step that follows a local
//! cache hit never shares a cycle with a protocol message being
//! processed at the same node, so the paper goldens cannot tell whether
//! those ties break the right way. These runs use `cache_hit` = 3 and
//! `issue` = 6, alone and with a cache-controller or memory service
//! time equal to `issue` — so a message a node receives in the cycle
//! its hit completes is processed in the very cycle its processor
//! resumes — and pin everything observable (cycles, operations, local
//! hits, messages per class and final memory) to values recorded from
//! the engine that scheduled every completion and step as its own
//! queue entry. The values must hold at every PDES worker count.

use atomic_dsm::machine::Machine;
use atomic_dsm::protocol::{SyncConfig, SyncPolicy};
use atomic_dsm::sim::{Addr, Cycle, MachineConfig, SimParams, StableHasher};
use atomic_dsm::stats::MsgClass;
use atomic_dsm::sync::{PrimChoice, Primitive};
use atomic_dsm::workloads::tclosure::read_matrix;
use atomic_dsm::workloads::{
    build_synthetic, build_tclosure, sequential_closure, CounterKind, SyntheticConfig, TcConfig,
};

const LIMIT: Cycle = Cycle::new(500_000_000);
const NODES: u32 = 16;
/// Words of shared memory folded into the memory digest: covers every
/// allocation of both workloads at this size.
const MEMORY_WORDS: u64 = 4096;

/// Everything a run produces that the tie-break order can move.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    cycles: u64,
    ops: u64,
    local_ops: u64,
    /// Message counts in [`MsgClass::ALL`] order.
    msgs: [u64; 8],
    memory: u64,
}

/// An adjustment of the skewed timing.
type Tweak = fn(&mut SimParams);

/// The timing variants: the paper machine with `cache_hit` 3 and
/// `issue` 6, then adjusted.
const VARIANTS: [(&str, Tweak); 3] = [
    ("skewed", |_| {}),
    ("cache_ctrl = issue", |p| p.cache_ctrl = 6),
    ("dir + mem = issue", |p| {
        p.dir_access = 2;
        p.mem_access = 4;
    }),
];

fn config(tweak: Tweak) -> MachineConfig {
    let mut cfg = MachineConfig::with_nodes(NODES);
    cfg.params.cache_hit = 3;
    cfg.params.issue = 6;
    tweak(&mut cfg.params);
    cfg
}

/// A built machine plus the check its finished run must pass.
type Built = (Machine, Box<dyn Fn(&Machine)>);

fn outcome((mut m, check): Built, workers: usize) -> Outcome {
    m.set_workers(workers);
    let report = m.run(LIMIT).expect("run completes");
    check(&m);
    let stats = m.stats();
    let mut memory = StableHasher::new();
    for w in 0..MEMORY_WORDS {
        memory.write_u64(m.read_word(Addr::new(w * 8)));
    }
    Outcome {
        cycles: report.cycles.as_u64(),
        ops: stats.ops,
        local_ops: stats.local_ops,
        msgs: MsgClass::ALL.map(|c| stats.msgs.messages(c)),
        memory: memory.finish(),
    }
}

fn tclosure(cfg: MachineConfig) -> Built {
    let tc = TcConfig {
        size: 10,
        choice: PrimChoice::plain(Primitive::Cas),
        sync: SyncConfig {
            policy: SyncPolicy::Inv,
            ..Default::default()
        },
        density: 0.2,
        seed: 11,
    };
    let (m, layout, input) = build_tclosure(cfg, &tc);
    let want = sequential_closure(&input);
    let check = move |m: &Machine| {
        assert_eq!(read_matrix(m, &layout, tc.size), want, "closure is wrong");
    };
    (m, Box::new(check))
}

fn mcs_counter(cfg: MachineConfig) -> Built {
    let scfg = SyntheticConfig {
        kind: CounterKind::McsLock,
        choice: PrimChoice::plain(Primitive::Llsc),
        sync: SyncConfig {
            policy: SyncPolicy::Inv,
            ..Default::default()
        },
        contention: NODES,
        write_run: 1.0,
        rounds: 4,
    };
    let (m, layout) = build_synthetic(cfg, &scfg);
    let want = scfg.total_updates(NODES);
    let check = move |m: &Machine| {
        assert_eq!(m.read_word(layout.counter), want, "lost counter updates");
    };
    (m, Box::new(check))
}

fn assert_pinned(build: fn(MachineConfig) -> Built, want: &[Outcome; 3]) {
    for ((label, tweak), want) in VARIANTS.iter().zip(want) {
        for workers in [1usize, 3] {
            assert_eq!(
                &outcome(build(config(*tweak)), workers),
                want,
                "{label} at {workers} workers"
            );
        }
    }
}

#[test]
fn tclosure_under_skewed_timing_matches_pinned_runs() {
    assert_pinned(
        tclosure,
        &[
            Outcome {
                cycles: 47516,
                ops: 29197,
                local_ops: 27077,
                msgs: [2120, 2120, 1154, 1027, 0, 1027, 1154, 0],
                memory: 4896085115809731036,
            },
            Outcome {
                cycles: 155246,
                ops: 59644,
                local_ops: 55659,
                msgs: [3985, 3985, 2993, 1102, 0, 1102, 2993, 0],
                memory: 6663694061482485813,
            },
            Outcome {
                cycles: 29678,
                ops: 20945,
                local_ops: 18782,
                msgs: [2163, 2163, 1178, 1043, 0, 1043, 1178, 0],
                memory: 17884027989208245690,
            },
        ],
    );
}

#[test]
fn mcs_counter_under_skewed_timing_matches_pinned_runs() {
    assert_pinned(
        mcs_counter,
        &[
            Outcome {
                cycles: 39760,
                ops: 2354,
                local_ops: 851,
                msgs: [1503, 1503, 200, 726, 0, 726, 200, 0],
                memory: 5605623929937938714,
            },
            Outcome {
                cycles: 44327,
                ops: 2587,
                local_ops: 920,
                msgs: [1667, 1667, 210, 804, 0, 804, 210, 0],
                memory: 12700125177742795631,
            },
            Outcome {
                cycles: 15222,
                ops: 4658,
                local_ops: 3533,
                msgs: [1125, 1125, 300, 562, 0, 562, 300, 0],
                memory: 2882196578579608827,
            },
        ],
    );
}

//! Serial-vs-PDES identity: the parallel engine must be bit-identical
//! to the serial one, for every workload class, at every worker count.
//!
//! The fingerprint is maximally strict: simulated cycle count, total
//! events dispatched, and the machine's full [`state_digest`] (event
//! queue, ports, caches, directories, processor state, RNG streams,
//! merged statistics) — if a single event were dispatched in a
//! different order or a single float summed differently, these runs
//! would diverge.
//!
//! Serial-only instrumentation (paranoid checking, fault injection,
//! tracing) forces the serial engine regardless of the requested
//! worker count; the tests assert that asking for workers under those
//! configurations is honored (identical results), mirroring the
//! serial-vs-parallel-jobs identity check in `runner_determinism.rs`.

use atomic_dsm::machine::{with_fault_config, Machine};
use atomic_dsm::protocol::{SyncConfig, SyncPolicy};
use atomic_dsm::sim::{Cycle, FaultConfig, MachineConfig};
use atomic_dsm::sync::{LinkPrim, PrimChoice, Primitive};
use atomic_dsm::trace::TraceSpec;
use atomic_dsm::workloads::{
    build_lockfree, build_synthetic, build_tclosure, CounterKind, LfConfig, LfStructure,
    SyntheticConfig, TcConfig,
};

const LIMIT: Cycle = Cycle::new(500_000_000);

/// Everything a run can observably produce, all in one tuple.
fn fingerprint(mut m: Machine, workers: usize) -> (u64, u64, u64, u64, u64) {
    m.set_workers(workers);
    let report = m.run(LIMIT).expect("workload completes");
    let stats = m.stats();
    (
        report.cycles.as_u64(),
        report.events,
        m.state_digest(),
        stats.msgs.total_messages(),
        stats.ops,
    )
}

fn counter_machine(nodes: u32) -> Machine {
    let cfg = SyntheticConfig {
        kind: CounterKind::LockFree,
        choice: PrimChoice::plain(Primitive::FetchPhi),
        sync: SyncConfig {
            policy: SyncPolicy::Inv,
            ..Default::default()
        },
        contention: nodes,
        write_run: 1.0,
        rounds: 6,
    };
    build_synthetic(MachineConfig::with_nodes(nodes), &cfg).0
}

fn app_machine(nodes: u32) -> Machine {
    let cfg = TcConfig {
        size: 12,
        choice: PrimChoice::plain(Primitive::FetchPhi),
        sync: SyncConfig {
            policy: SyncPolicy::Inv,
            ..Default::default()
        },
        density: 0.3,
        seed: 7,
    };
    build_tclosure(MachineConfig::with_nodes(nodes), &cfg).0
}

fn lockfree_machine(nodes: u32) -> Machine {
    let cfg = LfConfig {
        structure: LfStructure::Queue,
        prim: LinkPrim::EmulLlsc,
        sync: SyncConfig {
            policy: SyncPolicy::Inv,
            ..Default::default()
        },
        ops_per_proc: 4,
        key_space: 8,
        buckets: 3,
    };
    build_lockfree(MachineConfig::with_nodes(nodes), &cfg).0
}

/// An MCS-lock counter: waiters spin on their queue nodes' `locked`
/// flags and releasers on their `next` words (parked spinners).
fn mcs_machine(nodes: u32) -> Machine {
    let cfg = SyntheticConfig {
        kind: CounterKind::McsLock,
        choice: PrimChoice::plain(Primitive::Llsc),
        sync: SyncConfig {
            policy: SyncPolicy::Inv,
            ..Default::default()
        },
        contention: nodes,
        write_run: 1.0,
        rounds: 4,
    };
    build_synthetic(MachineConfig::with_nodes(nodes), &cfg).0
}

/// Asserts that `build` yields identical observable results at every
/// worker count (1 = the serial engine, the reference).
fn assert_identical(build: &dyn Fn() -> Machine, label: &str) {
    let serial = fingerprint(build(), 1);
    for workers in [2usize, 3, 8] {
        let par = fingerprint(build(), workers);
        assert_eq!(
            serial, par,
            "{label}: {workers}-worker run diverged from serial"
        );
    }
}

#[test]
fn counter_identical_across_worker_counts() {
    assert_identical(&|| counter_machine(8), "synthetic counter");
}

#[test]
fn app_tclosure_identical_across_worker_counts() {
    assert_identical(&|| app_machine(16), "app-tclosure");
}

#[test]
fn mcs_counter_identical_across_worker_counts() {
    assert_identical(&|| mcs_machine(8), "MCS counter");
}

#[test]
fn spinners_under_cache_faults_are_deterministic_at_every_worker_count() {
    // Injected evictions and corruptions settle and re-check the
    // parked spinner of the node they hit. Faults force the serial
    // engine, so every worker request must reproduce the same run:
    // results when only evictions fire, the same typed failure when
    // corruption manufactures a protocol violation.
    let evict = FaultConfig {
        evict_per_10k: 3_000,
        period: 64,
        ..Default::default()
    };
    let corrupt = FaultConfig {
        corrupt_per_10k: 3_000,
        period: 64,
        paranoid: true,
        ..Default::default()
    };
    for (label, build) in [
        ("app-tclosure", app_machine as fn(u32) -> Machine),
        ("MCS counter", mcs_machine),
    ] {
        let run = |faults: &FaultConfig, workers: usize| {
            with_fault_config(faults.clone(), || {
                let mut m = build(8);
                m.set_workers(workers);
                let outcome = m.run(LIMIT).map_err(|e| e.to_string());
                (outcome, m.state_digest(), m.injected_faults())
            })
        };
        for faults in [&evict, &corrupt] {
            let reference = run(faults, 1);
            let (evictions, _, corruptions) = reference.2;
            assert!(evictions + corruptions > 0, "{label}: no fault applied");
            for workers in [1usize, 2, 3, 8] {
                assert_eq!(
                    run(faults, workers),
                    reference,
                    "{label}: faulted run with {workers} workers diverged"
                );
            }
        }
        let evicted = run(&evict, 1);
        assert!(evicted.0.is_ok(), "{label}: evictions are protocol-legal");
    }
}

#[test]
fn lockfree_identical_across_worker_counts() {
    assert_identical(&|| lockfree_machine(4), "lockfree queue");
}

#[test]
fn identity_holds_at_64_nodes() {
    // Paper scale: one shard per mesh row at 8 workers.
    assert_identical(&|| counter_machine(64), "synthetic counter @64");
}

#[test]
fn identity_holds_at_xl_scale() {
    // The smaller of the beyond-paper `scaling-xl` sizes (256
    // processors, a 16x16 mesh): the machines the PDES engine exists
    // for must satisfy the same bit-identity as the paper-scale ones.
    // Few rounds keep the test inside CI budgets.
    let build = || {
        let cfg = SyntheticConfig {
            kind: CounterKind::LockFree,
            choice: PrimChoice::plain(Primitive::FetchPhi),
            sync: SyncConfig {
                policy: SyncPolicy::Inv,
                ..Default::default()
            },
            contention: 256,
            write_run: 1.0,
            rounds: 2,
        };
        build_synthetic(MachineConfig::with_nodes(256), &cfg).0
    };
    let serial = fingerprint(build(), 1);
    for workers in [4usize, 8] {
        let par = fingerprint(build(), workers);
        assert_eq!(
            serial, par,
            "xl counter @256: {workers}-worker run diverged from serial"
        );
    }
}

#[test]
fn paranoid_runs_honor_worker_requests() {
    // DSM_PARANOID forces the serial engine; requesting workers must
    // change nothing.
    let reference = fingerprint(app_machine(8), 1);
    for workers in [2usize, 8] {
        let faults = FaultConfig {
            paranoid: true,
            ..Default::default()
        };
        let fp = with_fault_config(faults, || fingerprint(app_machine(8), workers));
        assert_eq!(
            reference, fp,
            "paranoid run with {workers} workers diverged"
        );
    }
}

#[test]
fn fault_injected_runs_honor_worker_requests() {
    // DSM_FAULTS=light forces the serial engine. Fault-injected results
    // legitimately differ from fault-free ones, so compare the injected
    // runs against each other across worker counts.
    let light = FaultConfig::from_spec("light").unwrap();
    let reference = with_fault_config(light.clone(), || fingerprint(counter_machine(8), 1));
    for workers in [2usize, 8] {
        let fp = with_fault_config(light.clone(), || fingerprint(counter_machine(8), workers));
        assert_eq!(
            reference, fp,
            "fault-injected run with {workers} workers diverged"
        );
    }
}

#[test]
fn traced_runs_honor_worker_requests() {
    // Tracing forces the serial engine; a traced 8-worker run must be
    // byte-identical to a traced serial run, and tracing itself must
    // not move a cycle relative to the untraced serial run.
    let untraced = fingerprint(app_machine(8), 1);
    let traced = |workers: usize| {
        let mut m = app_machine(8);
        let spec = TraceSpec::from_spec("ring:4096:target/pdes-identity-trace").unwrap();
        m.attach_tracer(&spec);
        fingerprint(m, workers)
    };
    assert_eq!(untraced, traced(1), "tracing moved a cycle");
    assert_eq!(untraced, traced(8), "traced 8-worker run diverged");
}

#[test]
fn pdes_runs_are_deterministic_across_repeats() {
    // Same worker count, repeated: thread scheduling must not leak into
    // results.
    let a = fingerprint(app_machine(16), 4);
    let b = fingerprint(app_machine(16), 4);
    assert_eq!(a, b, "4-worker run is not reproducible");
}

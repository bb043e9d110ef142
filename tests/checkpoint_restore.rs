//! The checkpoint/restore identity guarantee, end to end: for every
//! checkpointable workload class (synthetic counter, the three
//! applications, the lock-free structures), pausing a run mid-flight,
//! persisting the checkpoint to disk, restoring it in a logically fresh
//! context and finishing must produce a final result **bit-identical**
//! to a run that was never interrupted — at any worker count. Tampered
//! or torn checkpoint files must be refused (and quarantined), never
//! silently resumed.

use atomic_dsm::experiments::checkpoint::{self, CheckpointError, PauseOutcome};
use atomic_dsm::experiments::runner::{self, Job, JobResult};
use atomic_dsm::experiments::{apps::App, BarSpec, CounterKind, Scale};
use atomic_dsm::protocol::SyncPolicy;
use atomic_dsm::sim::snapshot::FORMAT_VERSION;
use atomic_dsm::sim::SnapshotError;
use atomic_dsm::sync::{LinkPrim, Primitive};
use atomic_dsm::workloads::LfStructure;
use atomic_dsm::MachineConfig;
use std::path::PathBuf;

fn tiny() -> Scale {
    Scale {
        procs: 8,
        rounds: 8,
        tc_size: 8,
        wires: 16,
        tasks: 16,
    }
}

/// One job per checkpointable workload class, at test scale.
fn workloads() -> Vec<(&'static str, Job)> {
    let s = tiny();
    let bar = BarSpec::new(SyncPolicy::Inv, Primitive::Cas);
    vec![
        (
            "counter",
            Job::counter(
                MachineConfig::with_nodes(s.procs),
                CounterKind::LockFree,
                bar,
                s.procs,
                1.0,
                s.rounds,
            ),
        ),
        ("tclosure", Job::app(App::TransitiveClosure, bar, s)),
        ("wireroute", Job::app(App::WireRoute, bar, s)),
        ("cholesky", Job::app(App::Cholesky, bar, s)),
        (
            "lockfree",
            Job::lockfree(
                MachineConfig::with_nodes(s.procs),
                LfStructure::Queue,
                LinkPrim::Llsc,
                SyncPolicy::Inv,
                s.rounds as u32,
                8,
                4,
            ),
        ),
    ]
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dsm-ckpt-it-{}-{name}", std::process::id()))
}

/// The bit-identity proxy: `Debug` output covers every field of every
/// output variant, and f64's `Debug` prints the shortest string that
/// round-trips, so equal strings mean equal bits.
fn render(r: &JobResult) -> String {
    format!("{r:?}")
}

/// An uninterrupted baseline for `job`, simulated fresh (no caches).
fn baseline(job: &Job) -> JobResult {
    match checkpoint::run_with_pause(job, u64::MAX).expect("checkpointable") {
        PauseOutcome::Completed(r) => r,
        PauseOutcome::Paused(_) => panic!("u64::MAX events must not pause"),
    }
}

/// Pause → save → load → replay-restore → finish, for every workload
/// class, comparing against the uninterrupted run byte for byte.
#[test]
fn every_workload_restores_bit_identically_through_disk() {
    for (name, job) in workloads() {
        let golden = render(&baseline(&job));
        let total = checkpoint::total_events(&job).expect("workload completes");
        for frac in [4, 2] {
            let pause = total / frac;
            assert!(pause > 0, "{name}: degenerate pause point");
            let paused = match checkpoint::run_with_pause(&job, pause).unwrap() {
                PauseOutcome::Paused(p) => p,
                PauseOutcome::Completed(_) => {
                    panic!("{name}: completed before interior pause {pause}/{total}")
                }
            };
            let path = tmp(&format!("{name}-{frac}"));
            paused.save(&path).expect("checkpoint saves");
            drop(paused); // the live machine dies with the "process"

            let cp = checkpoint::load(&path).expect("checkpoint loads");
            assert_eq!(cp.events, pause, "{name}: wrong pause coordinate");
            let resumed = checkpoint::resume(&cp).expect("restore succeeds");
            assert_eq!(
                render(&resumed),
                golden,
                "{name}: resume at {pause}/{total} events diverged from the uninterrupted run"
            );
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// The in-process resume path (no disk round trip) obeys the same
/// identity, and the checkpoint coordinates land exactly on the
/// requested event boundary.
#[test]
fn in_process_resume_is_bit_identical() {
    let (_, job) = workloads().remove(0);
    let golden = render(&baseline(&job));
    let pause = checkpoint::total_events(&job).unwrap() / 3;
    let paused = match checkpoint::run_with_pause(&job, pause).unwrap() {
        PauseOutcome::Paused(p) => p,
        PauseOutcome::Completed(_) => panic!("completed before pause"),
    };
    assert_eq!(paused.checkpoint().events, pause);
    assert_eq!(render(&paused.resume()), golden);
}

/// Restoring must agree with the runner's own result for the same job
/// at any worker count: parallel dispatch cannot leak into a resumed
/// result, and vice versa.
#[test]
fn restore_matches_runner_output_across_worker_counts() {
    let (_, job) = workloads().remove(0);
    let pause = checkpoint::total_events(&job).unwrap() / 2;
    let paused = match checkpoint::run_with_pause(&job, pause).unwrap() {
        PauseOutcome::Paused(p) => p,
        PauseOutcome::Completed(_) => panic!("completed before pause"),
    };
    let resumed = render(&paused.resume());
    for jobs in [1usize, 8] {
        let batch = runner::with_workers(jobs, || {
            runner::clear_cache();
            runner::try_run_all(std::slice::from_ref(&job))
        });
        assert_eq!(
            render(&batch[0]),
            resumed,
            "resumed result diverged from a {jobs}-worker run"
        );
    }
}

/// A checkpoint whose digest does not match the replayed machine state
/// is refused with a `Diverged` diagnostic — never silently resumed.
#[test]
fn tampered_checkpoint_is_refused() {
    let (_, job) = workloads().remove(0);
    let pause = checkpoint::total_events(&job).unwrap() / 2;
    let paused = match checkpoint::run_with_pause(&job, pause).unwrap() {
        PauseOutcome::Paused(p) => p,
        PauseOutcome::Completed(_) => panic!("completed before pause"),
    };
    let mut cp = paused.checkpoint().clone();
    cp.digest ^= 1;
    match checkpoint::resume(&cp) {
        Err(CheckpointError::Diverged { events, .. }) => assert_eq!(events, pause),
        other => panic!("tampered digest must diverge, got {other:?}"),
    }
}

/// A checkpoint written by the previous container version — whose
/// replay coordinates count events of an engine that queued every local
/// hit's completion — is refused as `BadVersion` before any replay, not
/// reported as a divergence.
#[test]
fn previous_format_checkpoint_is_refused_as_bad_version() {
    let (_, job) = workloads().remove(0);
    let pause = checkpoint::total_events(&job).unwrap() / 2;
    let paused = match checkpoint::run_with_pause(&job, pause).unwrap() {
        PauseOutcome::Paused(p) => p,
        PauseOutcome::Completed(_) => panic!("completed before pause"),
    };
    let path = tmp("old-version.ckpt");
    paused.save(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&(FORMAT_VERSION - 1).to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    match checkpoint::load(&path) {
        Err(CheckpointError::Snapshot(SnapshotError::BadVersion { found, expected })) => {
            assert_eq!((found, expected), (FORMAT_VERSION - 1, FORMAT_VERSION));
        }
        other => panic!("old-version checkpoint must be BadVersion, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// A torn checkpoint *file* (bit flip on disk) fails the container
/// checksum, is quarantined into `quarantined/`, and reports a
/// structured error — restoring never panics on corrupt input.
#[test]
fn torn_checkpoint_file_is_quarantined() {
    let (_, job) = workloads().remove(0);
    let pause = checkpoint::total_events(&job).unwrap() / 2;
    let paused = match checkpoint::run_with_pause(&job, pause).unwrap() {
        PauseOutcome::Paused(p) => p,
        PauseOutcome::Completed(_) => panic!("completed before pause"),
    };
    let dir = tmp("torn-dir");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mid.ckpt");
    paused.save(&path).unwrap();

    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    match checkpoint::resume_file(&path) {
        Err(CheckpointError::Snapshot(_)) => {}
        other => panic!("corrupt file must fail the container check, got {other:?}"),
    }
    assert!(!path.exists(), "corrupt checkpoint left in place");
    let quarantined: Vec<_> = std::fs::read_dir(dir.join("quarantined"))
        .expect("quarantine directory exists")
        .collect();
    assert!(!quarantined.is_empty(), "nothing was quarantined");
    let _ = std::fs::remove_dir_all(&dir);
}

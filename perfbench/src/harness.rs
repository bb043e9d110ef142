//! Runner harnesses of the traced run, and the statistics helpers.

use crate::spans::Spans;
use crate::workloads::runner_cycles;
use atomic_dsm::experiments::diskcache::with_cache_dir;
use atomic_dsm::experiments::runner::{self, Job, JobOutput, JobResult};
use std::path::Path;
use std::time::Instant;

/// Median of a non-empty sample.
pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile (nearest rank) of a non-empty sample.
pub fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// What the runner harness measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunnerNumbers {
    pub jobs: f64,
    pub job_s_p50: f64,
    pub job_s_p95: f64,
    pub job_s_sum: f64,
    pub worker_busy_share: f64,
    pub tail_s: f64,
    pub cache_hit_us_per_job: f64,
    pub disk_store_ms_per_job: f64,
    pub disk_load_ms_per_job: f64,
    pub disk_quarantined: f64,
}

/// Per-job times of one cold pass: each job through `try_run_one` on
/// the runner's pool, optionally with the disk cache at `dir` (the
/// override is per thread, so each worker sets it).
fn per_job_pass(
    jobs: &[Job],
    workers: usize,
    dir: Option<&Path>,
    spans: &mut Spans,
) -> (f64, Vec<(u64, u64)>, Vec<JobResult>) {
    runner::clear_cache();
    let origin = Instant::now();
    let base = spans.now_ns();
    let outs = runner::fan_out(jobs, workers, |job| {
        let a = origin.elapsed().as_nanos() as u64;
        let r = with_cache_dir(dir, || runner::try_run_one(job));
        (a, origin.elapsed().as_nanos() as u64, r)
    });
    let wall = origin.elapsed().as_secs_f64();
    let mut times = Vec::new();
    let mut results = Vec::new();
    for (a, b, r) in outs {
        spans.record("runner::try_run_one", "runner", base + a, base + b);
        times.push((a, b));
        results.push(r);
    }
    (wall, times, results)
}

fn same_outputs(a: &[JobResult], b: &[JobResult]) -> Result<(), String> {
    let key = |r: &JobResult| match r {
        Ok(JobOutput::Counter(p)) => Ok((p.cycles, p.avg_cycles.to_bits())),
        Ok(JobOutput::App(r)) => Ok((r.cycles, r.write_run.to_bits())),
        Ok(other) => Err(format!("unexpected runner output {other:?}")),
        Err(e) => Err(e.to_string()),
    };
    for (x, y) in a.iter().zip(b) {
        if key(x)? != key(y)? {
            return Err("runner results differ between cold, disk and memory-cache passes".into());
        }
    }
    Ok(())
}

/// The runner harness: a cold per-job pass (spans per job), a cold pass
/// storing every result into the disk cache at `dir`, a pass loading
/// them all back, and a warm memory-cache pass. Every pass must return
/// the cold pass's results.
pub fn runner_passes(
    jobs: &[Job],
    workers: usize,
    dir: &Path,
    spans: &mut Spans,
) -> Result<RunnerNumbers, String> {
    let n = jobs.len() as f64;
    let before = runner::stats();
    let (wall, times, cold) = spans.span("runner::fan_out cold", "runner", |s| {
        per_job_pass(jobs, workers, None, s)
    });
    runner_cycles(&cold)?;
    let job_s: Vec<f64> = times.iter().map(|&(a, b)| (b - a) as f64 / 1e9).collect();
    let sum: f64 = job_s.iter().sum();
    let (_, store_times, stored) = spans.span("runner::fan_out disk store", "runner", |s| {
        per_job_pass(jobs, workers, Some(dir), s)
    });
    same_outputs(&cold, &stored)?;
    let store_extra: Vec<f64> = store_times
        .iter()
        .zip(&times)
        .map(|(&(a, b), &(c, d))| ((b - a) as f64 - (d - c) as f64) / 1e6)
        .collect();
    runner::clear_cache();
    let t = Instant::now();
    let loaded = spans.span("runner::try_run_all disk load", "runner", |_| {
        runner::with_workers(workers, || {
            with_cache_dir(Some(dir), || runner::try_run_all(jobs))
        })
    });
    let load_s = t.elapsed().as_secs_f64();
    same_outputs(&cold, &loaded)?;
    let t = Instant::now();
    let warm = spans.span("runner::try_run_all memory hit", "runner", |_| {
        runner::with_workers(workers, || {
            with_cache_dir(None, || runner::try_run_all(jobs))
        })
    });
    let warm_s = t.elapsed().as_secs_f64();
    same_outputs(&cold, &warm)?;
    let after = runner::stats();
    let jobs_u = jobs.len() as u64;
    let moved = (
        after.disk_stores - before.disk_stores,
        after.disk_hits - before.disk_hits,
        after.cache_hits - before.cache_hits,
    );
    if moved != (jobs_u, jobs_u, jobs_u) {
        return Err(format!(
            "runner harness: (disk stores, disk hits, memory hits) = {moved:?}, expected {jobs_u} each"
        ));
    }
    Ok(RunnerNumbers {
        jobs: n,
        job_s_p50: quantile(job_s.clone(), 0.5),
        job_s_p95: quantile(job_s, 0.95),
        job_s_sum: sum,
        worker_busy_share: sum / (wall * workers.min(jobs.len()) as f64),
        tail_s: wall - sum / workers.min(jobs.len()) as f64,
        cache_hit_us_per_job: warm_s * 1e6 / n,
        disk_store_ms_per_job: median(store_extra),
        disk_load_ms_per_job: load_s * 1e3 / n,
        disk_quarantined: (after.disk_quarantined - before.disk_quarantined) as f64,
    })
}

//! End-to-end and per-layer benchmark of the atomic-dsm simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload tclosure|contended --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. With `--trace 0` it runs one warm-up
//! pass, repeats the workload for `S` seconds and reports the end-to-end
//! metrics; with `--trace 1` it reports the per-layer metrics and writes
//! its spans to `.perfbench_out/`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. See `perfbench/README.md` for the workloads, the metrics
//! and what each layer metric is expected to move.

mod harness;
mod heap;
mod reference;
mod replay;
mod spans;
mod workloads;

use atomic_dsm::experiments::runner;
use harness::median;
use spans::Spans;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{SimCounts, Workload};

/// Where the traced run writes its spans and keeps its scratch disk
/// cache, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";
/// Host seconds of set-up in one round, at least one set-up. A round
/// follows every timed pass and runs set-ups back to back; `setup_s` is
/// the median over rounds of their mean. Rounds spread over the whole
/// window sample the host as the passes do, and a round smooths out the
/// allocator's alternation between reusing freed memory and faulting in
/// fresh pages, which makes single builds bimodal.
const SETUP_ROUND_S: f64 = 0.02;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: dsm-perfbench --workload tclosure|contended --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(bad)?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One metric of the final JSON line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one timed pass over the workload measured.
#[derive(Default)]
struct Pass {
    setup_s: f64,
    wall_s: f64,
    cycles: u64,
    runs: u64,
    failed: u64,
    counts: SimCounts,
}

struct Bench {
    args: Args,
    workers: usize,
    errors: Vec<String>,
}

impl Bench {
    /// Records a failed check; the run then reports `correct: false`.
    fn fail(&mut self, what: String) {
        eprintln!("perfbench: FAILED: {what}");
        self.errors.push(what);
    }

    /// Host seconds of one set-up: the job list and every machine of
    /// the workload, built. Dropping the machines is not timed.
    fn setup_s(&self) -> f64 {
        let t = Instant::now();
        let specs = self.args.workload.specs(self.args.seed);
        let mut total = t.elapsed();
        for spec in specs {
            let t = Instant::now();
            let built = std::hint::black_box(spec.build());
            total += t.elapsed();
            drop(built);
        }
        total.as_secs_f64()
    }

    /// One timed pass: set up, run, then check every output. The pass
    /// span's self time is the benchmark's own checking.
    fn pass(&mut self, spans: &mut Spans) -> Pass {
        spans.next_pass();
        spans.span("workload pass", "bench", |s| self.pass_body(s))
    }

    fn pass_body(&mut self, spans: &mut Spans) -> Pass {
        let seed = self.args.seed;
        let t = Instant::now();
        let specs = spans.span("job list", "bench", |_| self.args.workload.specs(seed));
        let mut p = Pass {
            setup_s: t.elapsed().as_secs_f64(),
            ..Pass::default()
        };
        // Each machine is built, run and dropped before the next, as the
        // runner does with its jobs, so one machine's heap is live at a
        // time.
        for spec in &specs {
            let t = Instant::now();
            let b = spans.span("build machine", "dsm-workloads", |_| spec.build());
            p.setup_s += t.elapsed().as_secs_f64();
            let (run_s, out) =
                spans.span("Machine::run", "dsm-machine", |_| workloads::run_built(b));
            p.wall_s += run_s;
            p.runs += 1;
            match out {
                Ok(c) => {
                    p.cycles += c.cycles;
                    p.counts.add(&c);
                }
                Err(e) => {
                    p.failed += 1;
                    self.fail(e);
                }
            }
        }
        if seed == 0 && p.failed == 0 {
            if let Err(e) = reference::check(self.args.workload, &p.counts) {
                p.failed = p.runs;
                self.fail(e);
            }
        }
        p
    }

    /// Alternates untraced and traced passes for `window` seconds, at
    /// least one of each.
    fn alternating_passes(&mut self, spans: &mut Spans, window: f64) -> (Vec<Pass>, Vec<Pass>) {
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let window = Duration::from_secs_f64(window);
        let start = Instant::now();
        while traced.is_empty() || start.elapsed() < window {
            if plain.len() > traced.len() {
                traced.push(self.pass(spans));
            } else {
                plain.push(self.pass(&mut Spans::new(false)));
            }
        }
        (plain, traced)
    }

    /// One set-up round: set-ups back to back for `SETUP_ROUND_S`;
    /// returns their mean.
    fn setup_round(&self) -> f64 {
        let (mut total, mut n) = (0.0, 0);
        while n == 0 || total < SETUP_ROUND_S {
            total += self.setup_s();
            n += 1;
        }
        total / f64::from(n)
    }

    fn untraced(&mut self) -> (u64, u64, Vec<Metric>) {
        let mut off = Spans::new(false);
        // The first pass is a warm-up: checked, not timed.
        let mut passes = vec![self.pass(&mut off)];
        let (mut timed, mut setups) = (Vec::new(), Vec::new());
        let window = Duration::from_secs_f64(self.args.seconds);
        let start = Instant::now();
        while timed.is_empty() || start.elapsed() < window {
            timed.push(self.pass(&mut off));
            setups.push(self.setup_round());
        }
        // The heap is counted in one more pass, after the window, so the
        // timed passes run uncounted. One pass suffices: every pass
        // builds and runs the same machines.
        let (heap_pass, peak_heap) = heap::measure(|| self.pass(&mut off));
        let wall = median(timed.iter().map(|p| p.wall_s).collect());
        let rate = median(timed.iter().map(|p| p.cycles as f64 / p.wall_s).collect());
        println!(
            "timed passes: {}, simulated cycles per pass: {}, wall_s per pass: {:?}",
            timed.len(),
            timed[0].cycles,
            timed.iter().map(|p| p.wall_s).collect::<Vec<_>>()
        );
        println!(
            "set-up rounds: {}, mean setup_s per round: {setups:?}",
            setups.len()
        );
        passes.extend(timed);
        passes.push(heap_pass);
        let attempted = passes.iter().map(|p| p.runs).sum();
        let failed = passes.iter().map(|p| p.failed).sum();
        let metrics = vec![
            m("wall_s", wall, "s"),
            m("sim_cycles_per_s", rate, "1/s"),
            m("setup_s", median(setups), "s"),
            m("peak_heap_mib", peak_heap, "MiB"),
        ];
        (attempted, failed, metrics)
    }

    fn traced(&mut self, spans: &mut Spans) -> (u64, u64, Vec<Metric>) {
        let w = self.args.workload;
        let seed = self.args.seed;
        // Half the window for the passes; the harnesses take about the
        // other half.
        let (plain, traced) = self.alternating_passes(spans, self.args.seconds / 2.0);
        let mut attempted: u64 = plain.iter().chain(&traced).map(|p| p.runs).sum();
        let mut failed: u64 = plain.iter().chain(&traced).map(|p| p.failed).sum();
        let overhead = median(traced.iter().map(|p| p.wall_s).collect())
            / median(plain.iter().map(|p| p.wall_s).collect())
            - 1.0;

        // Simulated statistics, build and run time of the machines.
        let counts = traced[0].counts.clone();
        let build_s = median(traced.iter().map(|p| p.setup_s).collect());
        let run_s = median(traced.iter().map(|p| p.wall_s).collect());
        let epc = counts.events as f64 / counts.cycles.max(1) as f64;

        // The layer replays, fed with traffic recorded by the simulator's
        // own tracer on the workload's machines.
        spans.next_pass();
        let specs = w.specs(seed);
        attempted += specs.len() as u64;
        let recorded = spans.span("traced machine runs", "dsm-machine", |_| {
            replay::record(&specs)
        });
        let traffic = match recorded {
            Ok((traffic, seen)) => {
                // The tracer only observes: the traced machines must
                // simulate exactly what the untraced passes did.
                if seen != counts {
                    failed += specs.len() as u64;
                    self.fail(
                        "a traced machine simulated differently from its untraced run".into(),
                    );
                }
                traffic
            }
            Err(e) => {
                failed += specs.len() as u64;
                self.fail(e);
                Vec::new()
            }
        };
        attempted += 2;
        let hold_ns = spans
            .span("EventQueue replay", "dsm-sim", |_| {
                replay::queue_hold_ns(&traffic)
            })
            .unwrap_or_else(|e| {
                failed += 1;
                self.fail(e);
                0.0
            });
        let send_ns = spans.span("LatencyNetwork::send replay", "dsm-mesh", |_| {
            replay::mesh_send_ns(&traffic)
        });
        let pump = spans
            .span("protocol FIFO pump", "dsm-protocol", |_| {
                replay::protocol_pump(&traffic)
            })
            .unwrap_or_else(|e| {
                failed += 1;
                self.fail(e);
                replay::PumpNs::default()
            });
        drop(traffic);

        spans.next_pass();
        let jobs = w.jobs(seed);
        let dir = std::path::Path::new(OUT_DIR).join(format!("diskcache-{}", std::process::id()));
        let retries_before = runner::stats().retries;
        let rn = spans.span("runner harness", "runner", |s| {
            harness::runner_passes(&jobs, self.workers, &dir, s)
        });
        let _ = std::fs::remove_dir_all(&dir);
        attempted += 4 * jobs.len() as u64;
        let rn = rn.unwrap_or_else(|e| {
            failed += jobs.len() as u64;
            self.fail(e);
            harness::RunnerNumbers::default()
        });
        let retries = (runner::stats().retries - retries_before) as f64;

        let c = &counts;
        let ops = c.ops.max(1) as f64;
        let msgs = c.msgs.map(|v| v as f64);
        let mut metrics = vec![
            m("machine.events", c.events as f64, "count"),
            m("machine.events_per_op", c.events as f64 / ops, "count"),
            m(
                "machine.ns_per_event",
                run_s * 1e9 / c.events.max(1) as f64,
                "ns",
            ),
            m("machine.run_s", run_s, "s"),
            m("machine.local_op_share", c.local_ops as f64 / ops, "ratio"),
            m("machine.build_s", build_s, "s"),
            m("sim.events_per_cycle", epc, "count"),
            m("sim.queue.hold_ns", hold_ns, "ns"),
            m("mesh.messages", c.net_messages as f64, "count"),
            m(
                "mesh.messages_per_event",
                c.net_messages as f64 / c.events.max(1) as f64,
                "count",
            ),
            m("mesh.entry_wait_cycles", c.entry_wait as f64, "cycles"),
            m("mesh.exit_wait_cycles", c.exit_wait as f64, "cycles"),
            m(
                "mesh.mean_latency_cycles",
                c.net_latency_sum as f64 / c.net_messages.max(1) as f64,
                "cycles",
            ),
            m("mesh.send_ns", send_ns, "ns"),
        ];
        let classes = [
            "protocol.msgs.request",
            "protocol.msgs.reply",
            "protocol.msgs.forward",
            "protocol.msgs.invalidate",
            "protocol.msgs.update",
            "protocol.msgs.ack",
            "protocol.msgs.writeback",
            "protocol.msgs.nak",
        ];
        metrics.extend(classes.iter().zip(msgs).map(|(&n, v)| m(n, v, "count")));
        metrics.extend([
            m("protocol.nak_share", msgs[7] / msgs[0].max(1.0), "ratio"),
            m("protocol.start_op_ns", pump.start_op, "ns"),
            m("protocol.cache_handle_ns", pump.cache_handle, "ns"),
            m("protocol.home_handle_ns", pump.home_handle, "ns"),
            m("sync.sync_op_share", c.sync_ops as f64 / ops, "ratio"),
            m(
                "sync.mean_sync_latency_cycles",
                c.sync_latency_sum / c.sync_ops.max(1) as f64,
                "cycles",
            ),
            m("runner.jobs", rn.jobs, "count"),
            m("runner.job_s_p50", rn.job_s_p50, "s"),
            m("runner.job_s_p95", rn.job_s_p95, "s"),
            m("runner.job_s_sum", rn.job_s_sum, "s"),
            m("runner.worker_busy_share", rn.worker_busy_share, "ratio"),
            m("runner.tail_s", rn.tail_s, "s"),
            m("runner.cache_hit_us_per_job", rn.cache_hit_us_per_job, "us"),
            m(
                "runner.disk_store_ms_per_job",
                rn.disk_store_ms_per_job,
                "ms",
            ),
            m("runner.disk_load_ms_per_job", rn.disk_load_ms_per_job, "ms"),
            m("runner.disk_quarantined", rn.disk_quarantined, "count"),
            m("runner.retries", retries, "count"),
            m("bench.trace_overhead_share", overhead, "ratio"),
        ]);
        (attempted, failed, metrics)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dsm-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The library reads `DSM_*` variables deep inside (fault injection,
    // tracing, worker counts, caches); any of them would change what is
    // measured.
    let dsm: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DSM_"))
        .collect();
    if !dsm.is_empty() {
        eprintln!("dsm-perfbench: refusing to run with {} set", dsm.join(", "));
        return ExitCode::from(2);
    }
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("pinned: Machine::set_workers(1); runner::with_workers({workers}); disk cache off except in the traced runner harness; DSM_* unset");
    let trace = args.trace;
    let mut bench = Bench {
        args,
        workers,
        errors: Vec::new(),
    };
    let mut spans = Spans::new(trace);
    let (attempted, failed, metrics) = if trace {
        bench.traced(&mut spans)
    } else {
        bench.untraced()
    };
    if trace {
        let path = std::path::Path::new(OUT_DIR).join(format!(
            "trace-{}-seed{}.json",
            bench.args.workload.name(),
            bench.args.seed
        ));
        let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
            std::fs::write(
                &path,
                spans.to_json(bench.args.workload.name(), bench.args.seed),
            )
        });
        if let Err(e) = written {
            bench.fail(format!("cannot write {}: {e}", path.display()));
        }
        for (layer, s) in spans.layer_self_s() {
            println!("self time {layer:<14} {s:.6} s");
        }
        println!("spans written to {}", path.display());
    }
    let error_rate = failed as f64 / attempted.max(1) as f64;
    for mt in &metrics {
        println!("{:<34} {:>16.6} {}", mt.name, mt.value, mt.unit);
    }
    println!(
        "{:<34} {:>16.6} ratio ({failed} of {attempted} runs failed)",
        "error_rate", error_rate
    );
    let correct =
        bench.errors.is_empty() && failed == 0 && metrics.iter().all(|mt| mt.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|mt| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                mt.name, mt.value, mt.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! The two workloads: their machines, their runner job lists and the
//! correctness checks on every run.

use atomic_dsm::experiments::apps::App;
use atomic_dsm::experiments::runner::{Job, JobOutput, JobResult};
use atomic_dsm::experiments::{BarSpec, CounterKind, Scale};
use atomic_dsm::machine::{Machine, RunReport};
use atomic_dsm::protocol::{SyncConfig, SyncPolicy};
use atomic_dsm::sim::{Addr, Cycle, MachineConfig};
use atomic_dsm::stats::MsgClass;
use atomic_dsm::sync::Primitive;
use atomic_dsm::workloads::tclosure::read_matrix;
use atomic_dsm::workloads::{
    build_synthetic, build_tclosure, sequential_closure, SyntheticConfig, TcConfig,
};

/// Every workload runs the paper's 64-processor machine.
pub const PROCS: u32 = 64;
/// Cycle budget of one machine run; no workload comes near it.
const RUN_LIMIT: Cycle = Cycle::new(50_000_000_000);
/// The Transitive Closure input seed of the throughput basket's
/// `app-tclosure`; workload seed `s` uses `TC_SEED + s`.
const TC_SEED: u64 = 1898;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Tclosure,
    Contended,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Tclosure, Workload::Contended];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Tclosure => "tclosure",
            Workload::Contended => "contended",
        }
    }

    /// The machines a pass simulates directly through the builders.
    pub fn specs(self, seed: u64) -> Vec<Spec> {
        match self {
            Workload::Tclosure => vec![Spec::Closure {
                matrix_seed: TC_SEED.wrapping_add(seed),
            }],
            Workload::Contended => contended_jobs(seed)
                .into_iter()
                .map(Spec::Counter)
                .collect(),
        }
    }

    /// The same work as runner jobs. Transitive Closure has one runner
    /// job, Figure 6's (same matrix size and bar; the runner fixes its
    /// input seed).
    pub fn jobs(self, seed: u64) -> Vec<Job> {
        match self {
            Workload::Tclosure => vec![Job::app(App::TransitiveClosure, tc_bar(), Scale::paper())],
            Workload::Contended => contended_jobs(seed),
        }
    }
}

fn tc_bar() -> BarSpec {
    BarSpec::new(SyncPolicy::Inv, Primitive::Cas)
}

/// The machine configuration every counter job of seed `s` starts from:
/// the paper machine with its default seed moved by `s`, so seed 0 gives
/// exactly the jobs `figures fig4 --paper` runs.
fn counter_machine(seed: u64) -> MachineConfig {
    let mut mcfg = MachineConfig::with_nodes(PROCS);
    mcfg.seed = mcfg.seed.wrapping_add(seed);
    mcfg
}

/// Four remote-heavy counter runs at full contention (c = 64).
fn contended_jobs(seed: u64) -> Vec<Job> {
    let run = |kind, policy, prim| {
        Job::counter(
            counter_machine(seed),
            kind,
            BarSpec::new(policy, prim),
            PROCS,
            1.0,
            64,
        )
    };
    vec![
        run(CounterKind::TtsLock, SyncPolicy::Inv, Primitive::FetchPhi),
        run(CounterKind::LockFree, SyncPolicy::Inv, Primitive::Llsc),
        // UNC executes every atomic at the line's home memory.
        run(CounterKind::TtsLock, SyncPolicy::Unc, Primitive::FetchPhi),
        run(CounterKind::McsLock, SyncPolicy::Inv, Primitive::Llsc),
    ]
}

/// One directly built machine.
#[derive(Debug)]
pub enum Spec {
    Closure { matrix_seed: u64 },
    Counter(Job),
}

/// A workload's check of a finished machine's output.
type Check = Box<dyn FnOnce(&Machine) -> Result<(), String>>;

/// A built, not yet run, machine with its output check.
pub struct Built {
    pub machine: Machine,
    check: Check,
    /// The words the builder registered as synchronization variables,
    /// with their coherence policy: the address map the machine runs
    /// with.
    pub syncs: Vec<(Addr, SyncConfig)>,
}

impl Spec {
    /// Builds the machine. Counter machines are seeded exactly as the
    /// runner seeds the same job, so both paths simulate one machine.
    pub fn build(&self) -> Built {
        match self {
            Spec::Closure { matrix_seed } => {
                let bar = tc_bar();
                let cfg = TcConfig {
                    size: Scale::paper().tc_size,
                    choice: bar.prim_choice(),
                    sync: bar.sync_config(),
                    density: 0.15,
                    seed: *matrix_seed,
                };
                let (machine, layout, input) =
                    build_tclosure(MachineConfig::with_nodes(PROCS), &cfg);
                Built {
                    machine,
                    syncs: vec![(layout.counter, cfg.sync)],
                    check: Box::new(move |m| {
                        if read_matrix(m, &layout, cfg.size) == sequential_closure(&input) {
                            Ok(())
                        } else {
                            Err("transitive closure differs from sequential_closure".into())
                        }
                    }),
                }
            }
            Spec::Counter(job) => {
                let Job::Counter {
                    mcfg,
                    kind,
                    bar,
                    contention,
                    write_run_bits,
                    rounds,
                } = job
                else {
                    unreachable!("counter specs hold counter jobs")
                };
                let mut mcfg = mcfg.clone();
                mcfg.seed = job.seed();
                let scfg = SyntheticConfig {
                    kind: *kind,
                    choice: bar.prim_choice(),
                    sync: bar.sync_config(),
                    contention: *contention,
                    write_run: f64::from_bits(*write_run_bits),
                    rounds: *rounds,
                };
                let (machine, layout) = build_synthetic(mcfg, &scfg);
                let want = scfg.total_updates(PROCS);
                let label = bar.label();
                let sync_word = match kind {
                    CounterKind::LockFree => layout.counter,
                    CounterKind::TtsLock | CounterKind::McsLock => layout.lock,
                };
                Built {
                    machine,
                    syncs: vec![(sync_word, scfg.sync)],
                    check: Box::new(move |m| {
                        let got = m.read_word(layout.counter);
                        if got == want {
                            Ok(())
                        } else {
                            Err(format!("{label}: counter is {got}, expected {want}"))
                        }
                    }),
                }
            }
        }
    }
}

/// Simulated results summed over machine runs. Every field is a
/// simulated quantity, identical on every host.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimCounts {
    pub cycles: u64,
    pub events: u64,
    pub ops: u64,
    pub local_ops: u64,
    pub sync_ops: u64,
    pub sync_latency_sum: f64,
    pub net_messages: u64,
    pub entry_wait: u64,
    pub exit_wait: u64,
    pub net_latency_sum: u64,
    /// Protocol messages per class, in `MsgClass::ALL` order.
    pub msgs: [u64; 8],
}

impl SimCounts {
    pub fn of(machine: &Machine, report: &RunReport) -> Self {
        let s = machine.stats();
        let net = machine.network_stats();
        SimCounts {
            cycles: report.cycles.as_u64(),
            events: report.events,
            ops: s.ops,
            local_ops: s.local_ops,
            sync_ops: s.sync_ops,
            sync_latency_sum: s.sync_latency.sum(),
            net_messages: net.messages,
            entry_wait: net.entry_wait,
            exit_wait: net.exit_wait,
            net_latency_sum: net.total_latency,
            msgs: MsgClass::ALL.map(|c| s.msgs.messages(c)),
        }
    }

    pub fn add(&mut self, o: &SimCounts) {
        self.cycles += o.cycles;
        self.events += o.events;
        self.ops += o.ops;
        self.local_ops += o.local_ops;
        self.sync_ops += o.sync_ops;
        self.sync_latency_sum += o.sync_latency_sum;
        self.net_messages += o.net_messages;
        self.entry_wait += o.entry_wait;
        self.exit_wait += o.exit_wait;
        self.net_latency_sum += o.net_latency_sum;
        for (a, b) in self.msgs.iter_mut().zip(o.msgs) {
            *a += b;
        }
    }
}

/// Runs one built machine on the serial engine and checks its output.
/// Returns the host seconds inside `Machine::run` and the counts.
pub fn run_built(built: Built) -> (f64, Result<SimCounts, String>) {
    let Built {
        mut machine, check, ..
    } = built;
    machine.set_workers(1);
    let t = std::time::Instant::now();
    let report = machine.run(RUN_LIMIT);
    let run_s = t.elapsed().as_secs_f64();
    let out = match report {
        Ok(report) => check(&machine).map(|()| SimCounts::of(&machine, &report)),
        Err(e) => Err(format!("run failed: {e}")),
    };
    (run_s, out)
}

/// Sum of simulated cycles over the runner's outputs, or the first
/// failure.
pub fn runner_cycles(results: &[JobResult]) -> Result<u64, String> {
    let mut cycles = 0;
    for r in results {
        match r {
            Ok(JobOutput::Counter(p)) => cycles += p.cycles,
            Ok(JobOutput::App(a)) => cycles += a.cycles,
            Ok(other) => return Err(format!("unexpected runner output {other:?}")),
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(cycles)
}

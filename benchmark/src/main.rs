//! The repo benchmark: commit latency, throughput and CPU per command of
//! the transformed replicated log over TCP and on the simulator, with a
//! per-layer split measured from outside. See `benchmark/README.md`.
//!
//! ```text
//! ftm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ftm-benchmark [--seed <n>] [--seconds <s>]        # every workload, both passes
//! ```
//!
//! Prints every metric by name with its unit, then — as the last line of
//! standard output — one JSON object `{correct, attempted, failed,
//! metrics}`. Exits non-zero when a correctness check fails.

mod metrics;
mod notes;
mod probes;
mod procfs;
mod schedule;
mod sim;
mod span;
mod stats;
mod tcp;
mod timed;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use ftm_certify::ProtocolId;
use ftm_faults::scenario::FaultBehavior;

use metrics::{ratio, MetricDef, Values, END_TO_END, PER_LAYER};
use sim::SimSpec;
use tcp::{Load, TcpSpec};

/// `run_seconds` of `BENCHMARK.json`: the default for `--seconds`.
const RUN_SECONDS: u64 = 24;

/// What one run of one workload produced.
pub struct RunOutput {
    /// Metric values by name (end-to-end always; per-layer when traced).
    pub values: Values,
    /// Commands submitted (TCP) or slot-entries expected (simulator).
    pub attempted: u64,
    /// Of those, how many never sealed, were refused, or stayed undecided.
    pub failed: u64,
    /// Every correctness or validity check that failed, in words.
    pub errors: Vec<String>,
    /// Spans of the traced repetition.
    pub spans: Vec<span::Span>,
    /// Simulator workloads: the counts that must repeat exactly per seed.
    pub counts_line: Option<String>,
}

enum Kind {
    Tcp(TcpSpec),
    Sim(SimSpec),
}

struct Workload {
    name: &'static str,
    kind: Kind,
}

/// The workloads. `BENCHMARK.json` records why each of its four exists.
const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "tcp-hr-open100",
        kind: Kind::Tcp(TcpSpec {
            batch: 1,
            load: Load::Open { rate_per_s: 100 },
            idle_conns: 0,
        }),
    },
    Workload {
        name: "tcp-hr-sat256",
        kind: Kind::Tcp(TcpSpec {
            batch: 256,
            load: Load::Closed {
                max_outstanding: 8192,
            },
            idle_conns: 0,
        }),
    },
    // Runs by name and in the all-workloads mode, but is not a workload of
    // `BENCHMARK.json`: 1024 idle connections make every replica loop scan
    // 256 more sockets, the cluster then wants all of both processors, and
    // on a host that delivers between one and two its CPU per command
    // spread by 15 to 25 % between runs of the same code, past any bound.
    Workload {
        name: "tcp-hr-sat256-idle1k",
        kind: Kind::Tcp(TcpSpec {
            batch: 256,
            load: Load::Closed {
                max_outstanding: 8192,
            },
            idle_conns: 1024,
        }),
    },
    Workload {
        name: "sim-hr-k512",
        kind: Kind::Sim(SimSpec {
            protocol: ProtocolId::HurfinRaynal,
            n: 7,
            f: 2,
            modulus_bits: 512,
            slots: 240,
            coalition: &[],
        }),
    },
    Workload {
        name: "sim-ct-attack",
        kind: Kind::Sim(SimSpec {
            protocol: ProtocolId::ChandraToueg,
            n: 7,
            f: 2,
            modulus_bits: 128,
            slots: 400,
            coalition: &[
                (1, FaultBehavior::WrongKey),
                (4, FaultBehavior::DuplicateVotes),
            ],
        }),
    },
];

fn run_workload(w: &Workload, seed: u64, seconds: u64, traced: bool) -> Result<RunOutput, String> {
    let mut out = match &w.kind {
        Kind::Tcp(spec) => tcp::run(spec, seed, seconds, traced)?,
        Kind::Sim(spec) if traced => sim::run_traced(spec, seed),
        Kind::Sim(spec) => sim::run_untraced(spec, seed, seconds),
    };
    if traced {
        // Probes run after the traced pass, on a quiet process.
        let probe_values = match &w.kind {
            Kind::Tcp(_) => probes::run(&probes::tcp_spec(), seed, true),
            Kind::Sim(spec) => probes::run(spec, seed, false),
        };
        for (k, v) in probe_values {
            out.values.entry(k).or_insert(v);
        }
        model_busy(&mut out.values);
        let path = PathBuf::from(format!("benchmark/out/trace-{}.jsonl", w.name));
        span::write_jsonl(&path, &out.spans).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(out)
}

/// Σ calls × probe ns per slot, printed beside the measured
/// `core.actor_busy_us_per_slot` so that work no probe covers shows as
/// the gap between the two. Admission (warm) already includes the memo
/// hits, certificate checks and automaton steps it triggers; signing and
/// memo misses come on top.
fn model_busy(v: &mut Values) {
    let get = |k: &str| v.get(k).copied().unwrap_or(0.0);
    let misses = get("crypto.verifies_per_slot") * (1.0 - get("crypto.memo_hit_pct") / 100.0);
    let ns = get("crypto.signs_per_slot") * get("crypto.sign_ns")
        + misses * get("crypto.verify_miss_ns")
        + get("aux.admits_per_slot") * get("core.admit_ns");
    v.insert("core.model_busy_us_per_slot", ns / 1e3);
}

fn result_line(out: &RunOutput, defs: &[MetricDef]) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.errors.is_empty(),
        out.attempted.max(1),
        out.failed
    );
    for (i, (name, unit)) in defs.iter().enumerate() {
        let value = out.values.get(name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    line
}

fn print_table(title: &str, out: &RunOutput, defs: &[MetricDef]) {
    println!("## {title}");
    for (name, unit) in defs {
        let value = out.values.get(name).copied().unwrap_or(0.0);
        println!("{name:<34} {value:>16.3} {unit}");
    }
    // The untraced pass measures it too; it has no bound (see metrics.rs).
    const CPU: &str = "process.cpu_us_per_cmd";
    if let (false, Some(value)) = (defs.iter().any(|d| d.0 == CPU), out.values.get(CPU)) {
        println!("{CPU:<34} {value:>16.3} us  (per-layer)");
    }
    println!(
        "{:<34} {:>16.6} ratio  ({} of {})",
        "failed_ratio",
        ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    if let Some(counts) = &out.counts_line {
        println!("counts: {counts}");
    }
    for e in &out.errors {
        println!("FAILED CHECK: {e}");
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let int = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = int()?,
            "--seconds" => args.seconds = int()?.max(1),
            "--trace" => args.trace = Some(int()? != 0),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    eprintln!(
        "ftm-benchmark: seed {} seconds {} nproc {} load {}",
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, usize::from),
        procfs::loadavg()
    );
    let selected: Vec<&Workload> = match &args.workload {
        Some(name) => vec![WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))?],
        None => WORKLOADS.iter().collect(),
    };
    // One workload and one pass is the driver's call; the last line of
    // stdout is then that run's result. Without `--workload` or `--trace`
    // every selected workload runs both passes.
    let passes: Vec<bool> = match args.trace {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    let mut all_correct = true;
    for w in selected {
        for &traced in &passes {
            let out = run_workload(w, args.seed, args.seconds, traced)?;
            let (defs, pass) = if traced {
                (PER_LAYER, "per-layer (traced pass + probes)")
            } else {
                (END_TO_END, "end-to-end")
            };
            print_table(&format!("{} — {pass}", w.name), &out, defs);
            println!("{}", result_line(&out, defs));
            all_correct &= out.errors.is_empty() && out.failed == 0;
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ftm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one workload without a bound, see [`WORKLOADS`].
    const UNBOUNDED: &str = "tcp-hr-sat256-idle1k";

    #[test]
    fn benchmark_json_names_these_workloads_and_this_run_length() {
        let json = include_str!("../../BENCHMARK.json");
        assert!(json.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
        for w in &WORKLOADS {
            assert_eq!(
                json.contains(&format!("\"name\": \"{}\"", w.name)),
                w.name != UNBOUNDED,
                "{}",
                w.name
            );
        }
        assert_eq!(json.matches("\"why\"").count(), WORKLOADS.len() - 1);
    }
}

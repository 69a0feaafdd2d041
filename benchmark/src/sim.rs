//! The simulator workloads: the transformed replicated log on
//! `ftm_sim::Simulation`, no sockets, no sleeps, one thread.
//!
//! The stack is wired from the same public pieces, in the same order, as
//! `ftm_faults::scenario::AttackRun::run_coalition_log` wires them (key
//! material and simulator seeded alike, calm network, full retention,
//! coalition members behind `ByzantineLogWrapper`), plus what `AttackRun`
//! has no knob for: the key size, a wall-clock mark at replica 0's slot
//! boundaries and, when traced, a `Timed` wrapper around every actor.
//! [`crosscheck`] holds the two wirings to the same trace.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ftm_certify::{ProtocolId, ValueVector};
use ftm_core::byzantine::log::{check_log_consistency, ReplicatedLog, SlotMsg};
use ftm_core::byzantine::{ByzantineChandraToueg, ByzantineConsensus, TransformedProtocol};
use ftm_core::config::{ProtocolConfig, ProtocolSetup};
use ftm_core::validator::detections;
use ftm_faults::behavior::ByzantineLogWrapper;
use ftm_faults::scenario::{coalition_faulty, log_command, AttackRun, FaultBehavior};
use ftm_sim::runner::{BoxedActor, StopReason};
use ftm_sim::trace::TraceEvent;
use ftm_sim::{Duration, NetworkProfile, ProcessId, RunReport, SimConfig, Simulation};

use crate::metrics::{ratio, Values};
use crate::notes::StackTotals;
use crate::procfs;
use crate::span::{push_slot_trees, Span};
use crate::stats::{median, percentile};
use crate::timed::{shared_log, SharedLog, Timed};
use crate::RunOutput;

/// Key seeds the set-up phase is timed over, and how often each is timed
/// at most.
const SETUP_KEY_SEEDS: usize = 8;
const SETUP_PASSES: usize = 4;

/// Slots of the short run that checks this file's wiring against
/// `AttackRun`'s.
const CROSSCHECK_SLOTS: u64 = 12;

/// One simulator workload.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// Which transformed protocol runs each slot.
    pub protocol: ProtocolId,
    /// Replicas.
    pub n: usize,
    /// Resilience bound.
    pub f: usize,
    /// RSA modulus size of every replica's key.
    pub modulus_bits: usize,
    /// Log length.
    pub slots: u64,
    /// Faulty replicas and how each misbehaves (empty = honest run).
    /// Replica 0 carries the wall-clock marks and must stay correct.
    pub coalition: &'static [(u32, FaultBehavior)],
}

/// Wall-clock marks (ns since the time base) at replica 0's slot
/// boundaries: `opens[k]` when its command source is asked for slot `k`,
/// `seals[k]` when its slot hook fires for slot `k`.
#[derive(Debug, Default)]
struct SlotMarks {
    opens: Vec<u64>,
    seals: Vec<u64>,
}

/// A simulation ready to run, with the handles the benchmark keeps.
pub struct Built {
    /// Key material; its directory's memo counters are read after the run.
    pub setup: ProtocolSetup,
    sim: Simulation<SlotMsg, Vec<ValueVector>>,
    marks: Arc<Mutex<SlotMarks>>,
    /// One per replica when traced, else empty.
    pub logs: Vec<SharedLog<SlotMsg>>,
}

/// Builds the stack for `spec` with `slots` slots. `traced` wraps every
/// actor in [`Timed`]; `capture` also keeps what each replica was sent.
pub fn build(
    spec: &SimSpec,
    slots: u64,
    seed: u64,
    base: Instant,
    traced: bool,
    capture: bool,
) -> Built {
    match spec.protocol {
        ProtocolId::HurfinRaynal => {
            build_as::<ByzantineConsensus>(spec, slots, seed, base, traced, capture)
        }
        ProtocolId::ChandraToueg => {
            build_as::<ByzantineChandraToueg>(spec, slots, seed, base, traced, capture)
        }
    }
}

fn build_as<P: TransformedProtocol + Send + 'static>(
    spec: &SimSpec,
    slots: u64,
    seed: u64,
    base: Instant,
    traced: bool,
    capture: bool,
) -> Built {
    assert!(
        spec.coalition.iter().all(|&(m, _)| m != 0),
        "replica 0 carries the slot marks and must be correct"
    );
    let setup = ProtocolConfig::new(spec.n, spec.f)
        .seed(seed)
        .modulus_bits(spec.modulus_bits)
        .setup();
    let cfg = NetworkProfile::calm().apply(SimConfig::new(spec.n).seed(seed));
    let mut tampers: BTreeMap<u32, _> = spec
        .coalition
        .iter()
        .filter_map(|&(m, b)| {
            b.make_tamper_for(spec.protocol, spec.n, m, seed)
                .map(|t| (m, t))
        })
        .collect();
    let marks = Arc::new(Mutex::new(SlotMarks::default()));
    let logs: Vec<SharedLog<SlotMsg>> = if traced {
        (0..spec.n).map(|_| shared_log()).collect()
    } else {
        Vec::new()
    };
    let sim = Simulation::build_boxed(cfg, |id| {
        let log = if id.0 == 0 {
            let (open, seal) = (Arc::clone(&marks), Arc::clone(&marks));
            ReplicatedLog::<P>::new(&setup, id, slots, move |slot, p| {
                if let Ok(mut m) = open.lock() {
                    m.opens.push(base.elapsed().as_nanos() as u64);
                }
                log_command(slot, p)
            })
            .with_slot_hook(move |_, _| {
                if let Ok(mut m) = seal.lock() {
                    m.seals.push(base.elapsed().as_nanos() as u64);
                }
            })
        } else {
            ReplicatedLog::<P>::new(&setup, id, slots, log_command)
        };
        let actor: BoxedActor<SlotMsg, Vec<ValueVector>> = match tampers.remove(&id.0) {
            Some(tamper) => Box::new(ByzantineLogWrapper::new(
                log,
                tamper,
                setup.keys[id.index()].clone(),
                Duration::of(3),
            )),
            None => Box::new(log),
        };
        if traced {
            Box::new(Timed::new(
                actor,
                base,
                capture,
                Arc::clone(&logs[id.index()]),
            ))
        } else {
            actor
        }
    });
    Built {
        setup,
        sim,
        marks,
        logs,
    }
}

impl Built {
    /// Runs the simulation; returns the report and replica 0's per-slot
    /// `(open, seal)` wall-clock marks.
    pub fn run(self) -> (RunReport<Vec<ValueVector>>, Vec<(u64, u64)>, ProtocolSetup) {
        let report = self.sim.run();
        let marks = self.marks.lock().map_or_else(
            |_| Vec::new(),
            |m| {
                m.opens
                    .iter()
                    .copied()
                    .zip(m.seals.iter().copied())
                    .collect()
            },
        );
        (report, marks, self.setup)
    }
}

/// Counts that must repeat exactly between repetitions with one seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    messages: u64,
    bytes: u64,
    delivered: u64,
    timers: u64,
    events: u64,
    memo_hits: u64,
    memo_misses: u64,
    stack: StackTotals,
    convictions: u64,
    fingerprint: u64,
}

/// Wall-clock marks of one repetition, ns since its time base.
struct Timing {
    /// `Simulation::run` entered and left.
    run_ns: (u64, u64),
    /// Replica 0's `(open, seal)` per slot.
    marks: Vec<(u64, u64)>,
}

/// What one repetition measured.
struct Rep {
    timing: Timing,
    wall_s: f64,
    cpu_ns: u64,
    decided_cmds: u64,
    expected_entries: u64,
    undecided_entries: u64,
    counts: Counts,
    /// Envelopes put to `ModuleStack::admit` by any replica.
    admits: u64,
    trace_entries: u64,
    false_convictions: u64,
    conviction_vt: u64,
    rss_before_kb: u64,
    rss_after_kb: u64,
    calls: Vec<Vec<(u64, u64)>>,
    errors: Vec<String>,
}

fn run_rep(spec: &SimSpec, seed: u64, traced: bool) -> Rep {
    let base = Instant::now();
    let built = build(spec, spec.slots, seed, base, traced, false);
    let logs = built.logs.clone();

    let rss_before_kb = procfs::rss_kb();
    let cpu0 = procfs::process_cpu_ns();
    let t0 = base.elapsed().as_nanos() as u64;
    let (report, marks, setup) = built.run();
    let t1 = base.elapsed().as_nanos() as u64;
    let wall_s = (t1 - t0) as f64 / 1e9;
    let cpu_ns = procfs::process_cpu_ns() - cpu0;
    let rss_after_kb = procfs::rss_kb();

    let mut errors = Vec::new();
    let faulty = coalition_faulty(spec.n, spec.coalition);
    let correct = faulty.iter().filter(|&&x| !x).count() as u64;
    if report.stop != StopReason::AllStopped {
        errors.push(format!("simulation stopped with {:?}", report.stop));
    }
    // Agreement and completeness over the complete logs of the correct
    // replicas (faulty ones are excluded the way crashed ones are).
    let quorum = spec.n - spec.f;
    let common = check_log_consistency(&report.decisions, &faulty, quorum);
    let (decided_cmds, undecided_entries) = match &common {
        Ok(log) => {
            if log.len() as u64 != spec.slots {
                errors.push(format!("log has {} of {} slots", log.len(), spec.slots));
            }
            // Validity: a correct replica's entry, when present, is the
            // command it proposed for that slot.
            for (slot, vect) in log.iter().enumerate() {
                for (p, v) in vect.iter_set() {
                    if !faulty[p] && v != log_command(slot as u64, p as u32) {
                        errors.push(format!("slot {slot}: entry {p} is not p{p}'s command"));
                    }
                }
            }
            let cmds: u64 = log.iter().map(|v| v.non_null_count() as u64).sum();
            (cmds, (spec.slots - log.len() as u64) * correct)
        }
        Err(e) => {
            errors.push(format!("log consistency: {e}"));
            let decided: u64 = report
                .decisions
                .iter()
                .zip(&faulty)
                .filter(|(_, &f)| !f)
                .map(|(d, _)| d.as_ref().map_or(0, |l| l.len() as u64))
                .sum();
            (0, spec.slots * correct - decided)
        }
    };
    for p in &report.contradictions {
        if !faulty[p.index()] {
            errors.push(format!("{p} contradicted itself"));
        }
    }

    // Convictions: every correct replica convicts exactly the coalition.
    let culprits: BTreeSet<String> = spec
        .coalition
        .iter()
        .filter(|(_, b)| *b != FaultBehavior::Honest)
        .map(|(m, _)| ProcessId(*m).to_string())
        .collect();
    let mut by_observer: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    let mut first_seen: BTreeMap<(u32, String), u64> = BTreeMap::new();
    let mut false_convictions = 0;
    let dets = detections(&report.trace);
    for d in &dets {
        if faulty[d.observer.index()] {
            continue;
        }
        if !culprits.contains(&d.culprit) {
            false_convictions += 1;
        }
        by_observer
            .entry(d.observer.0)
            .or_default()
            .insert(d.culprit.clone());
        first_seen
            .entry((d.observer.0, d.culprit.clone()))
            .or_insert(d.at.ticks());
    }
    for p in (0..spec.n as u32).filter(|&p| !faulty[p as usize]) {
        let got = by_observer.remove(&p).unwrap_or_default();
        if got != culprits {
            errors.push(format!("p{p} convicted {got:?}, expected {culprits:?}"));
        }
    }
    let conviction_vt = first_seen.values().copied().max().unwrap_or(0);

    let stack = StackTotals::from_notes(report.trace.entries().iter().filter_map(
        |e| match &e.event {
            TraceEvent::Note { process, text } if !faulty[process.index()] => {
                Some((process.0, text.as_str()))
            }
            _ => None,
        },
    ));
    let everyone =
        StackTotals::from_notes(
            report
                .trace
                .entries()
                .iter()
                .filter_map(|e| match &e.event {
                    TraceEvent::Note { process, text } => Some((process.0, text.as_str())),
                    _ => None,
                }),
        );
    let m = &report.metrics;
    let counts = Counts {
        messages: m.messages_sent,
        bytes: m.bytes_sent,
        delivered: m.messages_delivered,
        timers: m.timers_fired,
        events: m.events_processed,
        memo_hits: setup.dir.cache_hits(),
        memo_misses: setup.dir.cache_misses(),
        stack,
        convictions: dets.len() as u64,
        fingerprint: report.trace.fingerprint(),
    };
    let calls = logs
        .iter()
        .map(|l| l.lock().map_or_else(|_| Vec::new(), |l| l.calls.clone()))
        .collect();
    Rep {
        timing: Timing {
            run_ns: (t0, t1),
            marks,
        },
        wall_s,
        cpu_ns,
        decided_cmds,
        expected_entries: spec.slots * correct,
        undecided_entries,
        trace_entries: report.trace.len() as u64,
        admits: everyone.offered(),
        counts,
        false_convictions,
        conviction_vt,
        rss_before_kb,
        rss_after_kb,
        calls,
        errors,
    }
}

/// Set-up time: keys + stack construction, up to a simulation ready to
/// run. Finding RSA primes takes a seed-dependent number of tries (the
/// time varies by ±50 % from one key seed to the next), which is luck, not
/// cost: set-up is therefore timed over the fixed key seeds `1..=8`
/// whatever `--seed` is, and the median taken. One call times each once
/// and keeps, per key seed, the fastest time seen so far, as for the slots
/// below; the calls are spread over the run, one before each of its first
/// [`SETUP_PASSES`] repetitions, so a slow second of the host at the
/// start does not reach all of them.
fn time_setups(spec: &SimSpec, fastest: &mut [f64]) {
    for (key_seed, best) in (1..).zip(fastest) {
        let t = Instant::now();
        let built = build(spec, spec.slots, key_seed, t, false, false);
        *best = best.min(t.elapsed().as_secs_f64());
        drop(built);
    }
}

/// What same-seed repetitions say about an undisturbed core.
///
/// The host slows a busy core by up to 40 % for seconds at a time and
/// never speeds it up, so repetitions of the same deterministic run differ
/// only by such episodes. Slot `k` executes the same instructions in every
/// repetition; the fastest execution seen of each slot is the one least
/// disturbed, and their sum is the run's wall-clock on a quiet core.
struct Quiet {
    /// Σ over slots of the shortest seal-to-seal interval, plus the
    /// shortest tail after replica 0's last seal.
    wall_s: f64,
    /// Per slot (slot 0 excluded: its command is drawn when the replica
    /// is built), the shortest open→seal at replica 0.
    slot_ns: Vec<u64>,
}

fn quiet(reps: &[&Timing]) -> Quiet {
    let slots = reps.iter().map(|r| r.marks.len()).min().unwrap_or(0);
    let interval = |r: &Timing, k: usize| {
        let from = if k == 0 { r.run_ns.0 } else { r.marks[k - 1].1 };
        r.marks[k].1.saturating_sub(from)
    };
    let tail = |r: &Timing| r.run_ns.1 - r.marks.last().map_or(r.run_ns.0, |m| m.1);
    let min_over = |f: &dyn Fn(&Timing) -> u64| reps.iter().map(|r| f(r)).min().unwrap_or(0);
    let wall_ns: u64 = (0..slots)
        .map(|k| min_over(&|r| interval(r, k)))
        .sum::<u64>()
        + min_over(&tail);
    Quiet {
        wall_s: wall_ns as f64 / 1e9,
        slot_ns: (1..slots)
            .map(|k| min_over(&|r| r.marks[k].1 - r.marks[k].0))
            .collect(),
    }
}

/// Slot rate over the last quarter of the log ÷ over the first quarter.
fn decay_pct(marks: &[(u64, u64)]) -> f64 {
    let q = marks.len() / 4;
    if q == 0 {
        return 0.0;
    }
    let first = marks[q - 1].1 - marks[0].0;
    let last = marks[marks.len() - 1].1 - marks[marks.len() - q].0;
    100.0 * ratio(first as f64, last as f64)
}

fn timings<'a>(reps: &[&'a Rep]) -> Vec<&'a Timing> {
    reps.iter().map(|r| &r.timing).collect()
}

/// The end-to-end metrics of a set of same-seed repetitions.
fn summarize(reps: &[&Rep], q: &Quiet) -> RunOutput {
    let cmds = reps.first().map_or(0, |r| r.decided_cmds) as f64;
    // CPU per wall-clock second as measured (≈ 1: one thread, no sleeps),
    // applied to the quiet-core wall-clock.
    let busy = ratio(
        reps.iter().map(|r| r.cpu_ns as f64 / 1e9).sum(),
        reps.iter().map(|r| r.wall_s).sum(),
    );
    let mut slot_ns = q.slot_ns.clone();
    slot_ns.sort_unstable();
    let values = Values::from([
        ("throughput_cps", ratio(cmds, q.wall_s)),
        ("process.cpu_us_per_cmd", ratio(q.wall_s * busy * 1e6, cmds)),
        ("commit_p50_us", percentile(&slot_ns, 50, 100) as f64 / 1e3),
    ]);
    let mut errors: Vec<String> = reps.iter().flat_map(|r| r.errors.iter().cloned()).collect();
    if reps.windows(2).any(|w| w[0].counts != w[1].counts) {
        errors.push("counts differ between repetitions with one seed".into());
    }
    RunOutput {
        values,
        attempted: reps.iter().map(|r| r.expected_entries).sum(),
        failed: reps.iter().map(|r| r.undecided_entries).sum(),
        errors,
        spans: Vec::new(),
        counts_line: reps.first().map(|r| format!("{:?}", r.counts)),
    }
}

/// Runs `spec` for about `seconds`: whole repetitions with the *same*
/// seed, at least two. The counts must come out identical each time; the
/// times feed [`quiet`].
pub fn run_untraced(spec: &SimSpec, seed: u64, seconds: u64) -> RunOutput {
    let started = Instant::now();
    let mut setups = [f64::INFINITY; SETUP_KEY_SEEDS];
    let mut reps = Vec::new();
    loop {
        if reps.len() < SETUP_PASSES {
            time_setups(spec, &mut setups);
        }
        reps.push(run_rep(spec, seed, false));
        let spent = started.elapsed().as_secs_f64();
        // Stop rather than overshoot by more than half a repetition.
        if reps.len() >= 2 && spent + spent / reps.len() as f64 / 2.0 > seconds as f64 {
            break;
        }
    }
    let reps: Vec<&Rep> = reps.iter().collect();
    let mut out = summarize(&reps, &quiet(&timings(&reps)));
    out.values.insert("setup_s", median(&setups));
    out
}

/// Two untraced and two traced repetitions, alternating. End-to-end and
/// boundary metrics come from the traced ones, the overhead from the
/// quiet-core wall-clock of each pair.
pub fn run_traced(spec: &SimSpec, seed: u64) -> RunOutput {
    let reps: Vec<Rep> = [false, true, false, true]
        .iter()
        .map(|&traced| run_rep(spec, seed, traced))
        .collect();
    let (plain, with_trace) = ([&reps[0], &reps[2]], [&reps[1], &reps[3]]);
    let traced = with_trace[1];
    let q = quiet(&timings(&with_trace));
    let mut out = summarize(&with_trace, &q);
    out.errors
        .extend(plain.iter().flat_map(|r| r.errors.iter().cloned()));
    if plain[0].counts != traced.counts {
        out.errors
            .push("tracing changed the run: counts differ from the untraced repetition".into());
    }
    if spec.modulus_bits == 128 {
        out.errors.extend(crosscheck(spec, seed));
    }

    let slots = spec.slots as f64;
    let wall_s = q.wall_s;
    let c = &traced.counts;
    let busy_ns: u64 = traced.calls.iter().flatten().map(|&(a, b)| b - a).sum();
    let calls: usize = traced.calls.iter().map(Vec::len).sum();
    let mut slot_sorted = q.slot_ns;
    slot_sorted.sort_unstable();
    let v = &mut out.values;
    v.insert("core.slots_per_s", ratio(slots, wall_s));
    v.insert(
        "core.slot_p50_us",
        percentile(&slot_sorted, 50, 100) as f64 / 1e3,
    );
    v.insert(
        "core.slot_p99_us",
        percentile(&slot_sorted, 99, 100) as f64 / 1e3,
    );
    v.insert("core.slot_rate_decay_pct", decay_pct(&traced.timing.marks));
    // Summed over all replicas, as every per-slot figure is: the
    // simulator runs them on one thread, so this is the part of a slot's
    // wall-clock spent inside actors.
    v.insert("core.actor_busy_us_per_slot", busy_ns as f64 / 1e3 / slots);
    v.insert("core.actor_calls_per_slot", calls as f64 / slots);
    v.insert("core.rejects_signature", c.stack.sig_rejects as f64);
    v.insert("core.rejects_automaton", c.stack.auto_rejects as f64);
    v.insert("core.rejects_certificate", c.stack.cert_rejects as f64);
    v.insert(
        "crypto.memo_hit_pct",
        100.0 * ratio(c.memo_hits as f64, (c.memo_hits + c.memo_misses) as f64),
    );
    v.insert(
        "crypto.verifies_per_slot",
        (c.memo_hits + c.memo_misses) as f64 / slots,
    );
    v.insert("detect.convictions", c.convictions as f64);
    v.insert("detect.false_convictions", traced.false_convictions as f64);
    v.insert("detect.conviction_vt", traced.conviction_vt as f64);
    v.insert("fd.suspicions", c.stack.suspicions as f64);
    v.insert("fd.mistakes", c.stack.fd_mistakes as f64);
    v.insert("sim.events_per_s", ratio(c.events as f64, wall_s));
    v.insert("sim.trace_entries", traced.trace_entries as f64);
    v.insert(
        "process.cpu_util_pct",
        100.0 * ratio(traced.cpu_ns as f64 / 1e9, traced.wall_s),
    );
    v.insert(
        "process.cpu_us_per_cmd",
        ratio(traced.cpu_ns as f64 / 1e3, traced.decided_cmds as f64),
    );
    v.insert("process.rss_peak_kb", procfs::rss_peak_kb() as f64);
    v.insert(
        "process.rss_kb_per_kslot",
        traced.rss_after_kb.saturating_sub(traced.rss_before_kb) as f64 / (slots / 1e3),
    );
    v.insert("client.samples", slot_sorted.len() as f64);
    v.insert(
        "client.commit_p90_us",
        percentile(&slot_sorted, 90, 100) as f64 / 1e3,
    );
    v.insert(
        "client.commit_p99_us",
        percentile(&slot_sorted, 99, 100) as f64 / 1e3,
    );
    v.insert(
        "client.commit_max_us",
        slot_sorted.last().copied().unwrap_or(0) as f64 / 1e3,
    );
    v.insert(
        "bench.trace_overhead_pct",
        100.0 * (ratio(wall_s, quiet(&timings(&plain)).wall_s) - 1.0),
    );
    v.insert("net.msgs_per_slot", c.messages as f64 / slots);
    v.insert("net.bytes_per_slot", c.bytes as f64 / slots);
    v.insert("aux.admits_per_slot", traced.admits as f64 / slots);
    v.insert(
        "net.bytes_per_cmd",
        ratio(c.bytes as f64, traced.decided_cmds as f64),
    );
    out.spans = slot_spans(traced);
    out
}

/// `core.slot[open→seal]` at replica 0 with every replica's `core.actor`
/// calls inside it as children; what is left as the slot's self time is
/// the simulator's own work (event queue, delay draws, trace).
fn slot_spans(rep: &Rep) -> Vec<Span> {
    let mut calls: Vec<(u64, u64)> = rep.calls.iter().flatten().copied().collect();
    calls.sort_unstable();
    let slots: Vec<(u64, u64, u64)> = rep
        .timing
        .marks
        .iter()
        .enumerate()
        .skip(1)
        .map(|(slot, &(open, seal))| (slot as u64, open, seal))
        .collect();
    let mut spans = Vec::with_capacity(slots.len() + calls.len());
    push_slot_trees(&mut spans, &slots, &calls);
    spans
}

/// Holds this file's wiring to `AttackRun::run_coalition_log`'s: the same
/// seed, coalition and slot count must leave the same trace and counters
/// (the marks and the `Timed` wrappers stage nothing). Also runs the
/// single-shot coalition and checks `AttackRun::coalition_verdict`.
fn crosscheck(spec: &SimSpec, seed: u64) -> Vec<String> {
    let mut errors = Vec::new();
    let attacker = spec.coalition.first().map_or(0, |&(m, _)| m);
    let run = AttackRun::new(spec.n, spec.f, seed, attacker).protocol(spec.protocol);
    let theirs = run.run_coalition_log(CROSSCHECK_SLOTS, spec.coalition);
    let (ours, _, _) = build(spec, CROSSCHECK_SLOTS, seed, Instant::now(), true, false).run();
    if ours.trace.fingerprint() != theirs.trace.fingerprint() || ours.metrics != theirs.metrics {
        errors.push("benchmark wiring and AttackRun::run_coalition_log diverge".into());
    }
    let single = run.run_coalition(spec.coalition);
    let verdict = run.coalition_verdict(spec.coalition, &single);
    if !verdict.ok() {
        errors.push(format!(
            "single-shot coalition verdict: {:?}",
            verdict.violations
        ));
    }
    errors
}

/// What a short honest run of `(protocol, n, F, key size)` delivered to
/// each replica, for the probes to replay, with the run's own report.
pub struct Capture {
    /// Key material the captured envelopes were signed with.
    pub setup: ProtocolSetup,
    /// `(from, message)` per replica, in delivery order.
    pub delivered: Vec<Vec<(ProcessId, SlotMsg)>>,
    /// Slots captured.
    pub slots: u64,
}

/// Runs `slots` honest slots of `spec`'s protocol and keeps every
/// delivered message.
pub fn capture(spec: &SimSpec, seed: u64, slots: u64) -> Capture {
    let honest = SimSpec {
        coalition: &[],
        ..*spec
    };
    let built = build(&honest, slots, seed, Instant::now(), true, true);
    let logs = built.logs.clone();
    let (_, _, setup) = built.run();
    let delivered = logs
        .iter()
        .map(|l| {
            l.lock()
                .map_or_else(|_| Vec::new(), |mut l| std::mem::take(&mut l.delivered))
        })
        .collect();
    Capture {
        setup,
        delivered,
        slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_core_time_takes_each_slot_from_its_fastest_repetition() {
        // Three slots of 10 ns each on a quiet core, a 5 ns tail. The
        // first repetition is disturbed in slot 1, the second in slot 2.
        let a = Timing {
            run_ns: (100, 155),
            marks: vec![(90, 110), (110, 140), (140, 150)],
        };
        let b = Timing {
            run_ns: (1000, 1060),
            marks: vec![(990, 1010), (1012, 1020), (1020, 1055)],
        };
        let q = quiet(&[&a, &b]);
        assert_eq!(q.wall_s, 35e-9);
        // Open→seal of slots 1 and 2: min(30, 8) and min(10, 35).
        assert_eq!(q.slot_ns, vec![8, 10]);
        // One repetition alone is its own measured wall-clock.
        assert_eq!(quiet(&[&a]).wall_s, 55e-9);
    }

    #[test]
    fn decay_compares_the_last_quarter_with_the_first() {
        // Eight slots: the first two take 10 ns each, the last two 20 ns.
        let mut marks = Vec::new();
        let mut t = 0;
        for k in 0..8 {
            let d = if k < 6 { 10 } else { 20 };
            marks.push((t, t + d));
            t += d;
        }
        assert_eq!(decay_pct(&marks), 50.0);
        assert_eq!(decay_pct(&marks[..3]), 0.0);
    }
}

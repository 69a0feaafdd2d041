//! E1 sweeps: the crash-model Hurfin–Raynal protocol across system sizes,
//! crash patterns and detector quality; and a trace-level golden of both
//! crash actors (Hurfin–Raynal and Chandra–Toueg).

use ft_modular::certify::Value;
use ft_modular::core::crash::{ChandraToueg, CrashConsensus, CrashMsg};
use ft_modular::core::spec::Resilience;
use ft_modular::core::validator::{check_crash_consensus, max_round};
use ft_modular::faults::crash_attacks::{CrashAttack, CrashSaboteur};
use ft_modular::fd::{FailureDetector, OracleDetector, TimeoutDetector};
use ft_modular::sim::runner::BoxedActor;
use ft_modular::sim::{
    Actor, Duration, Payload, ProcessId, RunReport, SimConfig, Simulation, VirtualTime,
};

fn run(n: usize, seed: u64, crashes: &[(usize, u64)]) -> RunReport<Value> {
    let mut cfg = SimConfig::new(n).seed(seed);
    for &(p, t) in crashes {
        cfg = cfg.crash(p, VirtualTime::at(t));
    }
    let res = Resilience::new(n, ftm_core::quorum::max_faults(n));
    Simulation::build(cfg, |id| {
        CrashConsensus::new(
            res,
            id,
            100 + id.0 as u64,
            TimeoutDetector::new(n, Duration::of(150)),
            Duration::of(25),
            Some(Duration::of(40)),
        )
    })
    .run()
}

fn proposals(n: usize) -> Vec<Value> {
    (0..n as u64).map(|i| 100 + i).collect()
}

#[test]
fn sweep_system_sizes_all_honest() {
    for n in [3usize, 4, 5, 7, 9, 12, 16] {
        for seed in 0..3 {
            let report = run(n, seed, &[]);
            let v = check_crash_consensus(&report, &proposals(n), &vec![false; n]);
            assert!(v.ok(), "n={n} seed={seed}: {:?}", v.violations);
            // A correct coordinator with honest peers decides in round 1.
            assert_eq!(max_round(&report.trace, n), 1, "n={n} seed={seed}");
        }
    }
}

#[test]
fn sweep_crash_counts_up_to_the_bound() {
    let n = 7; // tolerates 3 crashes
    for f in 1..=3usize {
        for seed in 0..3 {
            let crashes: Vec<(usize, u64)> = (0..f).map(|i| (i, (i as u64) * 40)).collect();
            let report = run(n, seed, &crashes);
            let v = check_crash_consensus(&report, &proposals(n), &vec![false; n]);
            assert!(v.ok(), "f={f} seed={seed}: {:?}", v.violations);
        }
    }
}

#[test]
fn crashed_coordinators_cost_extra_rounds() {
    // Crash the coordinators of rounds 1 and 2 before the run: survivors
    // must reach round 3 (or later) to decide.
    let n = 5;
    let report = run(n, 1, &[(0, 0), (1, 0)]);
    let v = check_crash_consensus(&report, &proposals(n), &vec![false; n]);
    assert!(v.ok(), "{:?}", v.violations);
    assert!(
        max_round(&report.trace, n) >= 3,
        "two dead coordinators cannot be bypassed in fewer than 3 rounds"
    );
    // The decided value must come from a survivor.
    let d = report.unanimous().expect("agreement");
    assert!(d >= 102, "decided {d} belongs to a crashed coordinator");
}

#[test]
fn termination_with_a_lying_oracle_detector() {
    // Eventual weak accuracy is enough: the detector slanders every
    // process until t = 600, then tells the truth.
    let n = 4;
    let res = Resilience::new(n, 1);
    // Slow delivery (30–60) with a fast suspicion poll (5) guarantees the
    // slander is consulted before the coordinator's CURRENT can land.
    let cfg = SimConfig::new(n)
        .seed(5)
        .delay_range(Duration::of(30), Duration::of(60))
        .gst(VirtualTime::at(2_000), Duration::of(40));
    let report = Simulation::build(cfg, |id| {
        let mut fd = OracleDetector::new(n);
        for p in 0..n as u32 {
            if p != id.0 {
                fd = fd.wrongly_suspect_until(ProcessId(p), VirtualTime::at(600));
            }
        }
        CrashConsensus::new(res, id, 100 + id.0 as u64, fd, Duration::of(5), None)
    })
    .run();
    let v = check_crash_consensus(&report, &proposals(n), &vec![false; n]);
    assert!(v.ok(), "{:?}", v.violations);
    assert!(
        max_round(&report.trace, n) > 1,
        "universal slander must cost at least one round"
    );
}

#[test]
fn crash_just_after_deciding_still_spreads_the_decision() {
    // p0 decides first (it is the coordinator) and its DECIDE broadcast is
    // in flight when it crashes; reliable channels deliver it anyway.
    let n = 4;
    let report = run(n, 2, &[(0, 60)]);
    let v = check_crash_consensus(&report, &proposals(n), &vec![false; n]);
    assert!(v.ok(), "{:?}", v.violations);
}

#[test]
fn heavy_jitter_does_not_break_safety() {
    let n = 5;
    let res = Resilience::new(n, 2);
    for seed in 0..10 {
        let cfg = SimConfig::new(n)
            .seed(seed)
            .delay_range(Duration::of(1), Duration::of(120))
            .gst(VirtualTime::at(5_000), Duration::of(15));
        let report = Simulation::build(cfg, |id| {
            CrashConsensus::new(
                res,
                id,
                100 + id.0 as u64,
                TimeoutDetector::new(n, Duration::of(50)), // aggressive: many mistakes
                Duration::of(20),
                Some(Duration::of(30)),
            )
        })
        .run();
        let v = check_crash_consensus(&report, &proposals(n), &vec![false; n]);
        assert!(v.ok(), "seed={seed}: {:?}", v.violations);
    }
}

#[test]
fn adversarial_schedule_stress_agreement_never_breaks() {
    // Fidelity probe (see DESIGN.md §6, "fidelity note"): Fig. 2's
    // safety rests on FIFO + relay-before-NEXT + unconditional
    // first-CURRENT adoption, not on timestamp locking. Under maximally
    // trigger-happy detectors and jittery delays — the conditions that
    // make change_mind and wrongful suspicions collide — agreement must
    // still hold. (A 30k-seed release-mode sweep found zero violations;
    // this keeps a 300-seed canary in the suite.)
    let n = 5;
    let res = Resilience::new(n, 2);
    for seed in 0..300u64 {
        let cfg = SimConfig::new(n)
            .seed(seed)
            .delay_range(Duration::of(1), Duration::of(40))
            .gst(VirtualTime::at(2_000), Duration::of(12));
        let report = Simulation::build(cfg, |id| {
            CrashConsensus::new(
                res,
                id,
                100 + id.0 as u64,
                TimeoutDetector::new(n, Duration::of(12)),
                Duration::of(6),
                Some(Duration::of(25)),
            )
        })
        .run();
        let v = check_crash_consensus(&report, &proposals(n), &vec![false; n]);
        assert!(v.agreement && v.validity, "seed {seed}: {:?}", v.violations);
    }
}

#[test]
fn fifo_relay_adoption_blocks_the_textbook_attack() {
    // The hand-built schedule from DESIGN.md §6 that *looks* like it
    // should break Agreement:
    //
    // * p0 coordinates round 1 and decides v = 100 (fast relays from
    //   p2, p3), but its DECIDE broadcast is delayed by 400 ticks;
    // * p1 and p4 wrongly suspect p0 forever and vote NEXT immediately;
    // * p2 and p3 see only 2 CURRENTs each (cross relays delayed 30), so
    //   change_mind fires and a NEXT majority forms;
    // * round 2's coordinator p1 never saw round 1's CURRENT in time —
    //   seemingly free to propose its own w = 101.
    //
    // The attack fails for exactly the reason identified in DESIGN.md:
    // p1's third NEXT necessarily comes from a change_mind voter (p2/p3), whose FIFO
    // channel delivers its CURRENT(1, 100) relay *first*, and line 9
    // adopts it even in state q2. So p1 proposes 100, and everyone —
    // including the long-decided p0 — agrees on 100.
    let n = 5;
    let res = Resilience::new(n, 2);
    let slow_pairs = [(2u32, 3u32), (3, 2), (2, 4), (3, 4), (2, 1), (3, 1)];
    let cfg = SimConfig::new(n)
        .seed(0)
        .max_time(VirtualTime::at(5_000))
        .delay_script(move |src, dst, now| {
            // p0's CURRENT and DECIDE to the slanderers, and all its
            // post-t0 sends (the DECIDE broadcast): very late.
            if src.0 == 0 && (dst.0 == 1 || dst.0 == 4 || now > VirtualTime::ZERO) {
                400
            } else if slow_pairs.contains(&(src.0, dst.0)) {
                30 // cross relays among p1..p4: late enough for change_mind
            } else {
                1
            }
        });
    let report = Simulation::build(cfg, |id| {
        let mut fd = OracleDetector::new(n);
        if id.0 == 1 || id.0 == 4 {
            fd = fd.wrongly_suspect_until(ProcessId(0), VirtualTime::at(100_000));
        }
        CrashConsensus::new(res, id, 100 + id.0 as u64, fd, Duration::of(5), None)
    })
    .run();

    let v = check_crash_consensus(&report, &proposals(n), &vec![false; n]);
    assert!(v.ok(), "{:?}", v.violations);
    // The schedule really did force extra rounds…
    assert!(
        max_round(&report.trace, n) >= 2,
        "schedule failed to push past round 1"
    );
    // …and the adoption mechanism made round 2 re-propose the decided
    // value: everyone agrees on p0's 100, not p1's 101.
    assert_eq!(report.unanimous(), Some(100));
}

#[test]
fn deterministic_replay() {
    let a = run(6, 42, &[(2, 100)]);
    let b = run(6, 42, &[(2, 100)]);
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.metrics, b.metrics);
}

/// A crash-model process built by its six-argument constructor over any
/// failure detector, proposing `100 + i`.
trait CrashProtocol {
    type Msg: Payload + 'static;

    fn actor<FD: FailureDetector + 'static>(
        res: Resilience,
        id: ProcessId,
        fd: FD,
        poll: Duration,
        heartbeat: Option<Duration>,
    ) -> BoxedActor<Self::Msg, Value>;
}

struct Hr;
struct Ct;

impl CrashProtocol for Hr {
    type Msg = CrashMsg;

    fn actor<FD: FailureDetector + 'static>(
        res: Resilience,
        id: ProcessId,
        fd: FD,
        poll: Duration,
        heartbeat: Option<Duration>,
    ) -> BoxedActor<CrashMsg, Value> {
        Box::new(CrashConsensus::new(
            res,
            id,
            100 + id.0 as u64,
            fd,
            poll,
            heartbeat,
        ))
    }
}

impl CrashProtocol for Ct {
    type Msg = <ChandraToueg<TimeoutDetector> as Actor>::Msg;

    fn actor<FD: FailureDetector + 'static>(
        res: Resilience,
        id: ProcessId,
        fd: FD,
        poll: Duration,
        heartbeat: Option<Duration>,
    ) -> BoxedActor<Self::Msg, Value> {
        Box::new(ChandraToueg::new(
            res,
            id,
            100 + id.0 as u64,
            fd,
            poll,
            heartbeat,
        ))
    }
}

/// The pinned observables of one run, one line.
fn golden_line(label: &str, report: &RunReport<Value>) -> String {
    format!(
        "{label}: fp={:016x} msgs={} bytes={} end={} decisions={:?}",
        report.trace.fingerprint(),
        report.metrics.messages_sent,
        report.metrics.bytes_sent,
        report.end_time.ticks(),
        report.decisions
    )
}

/// The runs both crash actors are pinned on: n ∈ {4, 5, 7} × seeds 0..3
/// under no crash, the round-1 coordinator crashed at t = 0 and p0
/// crashed at t = 60 (E1's schedules), then the lying-oracle and
/// heavy-jitter configurations above.
fn golden_lines<P: CrashProtocol>() -> Vec<String> {
    let mut lines = Vec::new();
    for n in [4usize, 5, 7] {
        let res = Resilience::new(n, ftm_core::quorum::max_faults(n));
        for (schedule, crash_at) in [("none", None), ("coord@0", Some(0)), ("p0@60", Some(60))] {
            for seed in 0..3 {
                let mut cfg = SimConfig::new(n).seed(seed);
                if let Some(t) = crash_at {
                    cfg = cfg.crash(0, VirtualTime::at(t));
                }
                let report = Simulation::build_boxed(cfg, |id| {
                    let fd = TimeoutDetector::new(n, Duration::of(150));
                    P::actor(res, id, fd, Duration::of(25), Some(Duration::of(40)))
                })
                .run();
                lines.push(golden_line(
                    &format!("n={n} {schedule} seed={seed}"),
                    &report,
                ));
            }
        }
    }
    let n = 4;
    let cfg = SimConfig::new(n)
        .seed(5)
        .delay_range(Duration::of(30), Duration::of(60))
        .gst(VirtualTime::at(2_000), Duration::of(40));
    let report = Simulation::build_boxed(cfg, |id| {
        let mut fd = OracleDetector::new(n);
        for p in (0..n as u32).filter(|&p| p != id.0) {
            fd = fd.wrongly_suspect_until(ProcessId(p), VirtualTime::at(600));
        }
        P::actor(Resilience::new(n, 1), id, fd, Duration::of(5), None)
    })
    .run();
    lines.push(golden_line("lying oracle", &report));
    let n = 5;
    for seed in 0..10 {
        let cfg = SimConfig::new(n)
            .seed(seed)
            .delay_range(Duration::of(1), Duration::of(120))
            .gst(VirtualTime::at(5_000), Duration::of(15));
        let report = Simulation::build_boxed(cfg, |id| {
            let fd = TimeoutDetector::new(n, Duration::of(50));
            P::actor(
                Resilience::new(n, 2),
                id,
                fd,
                Duration::of(20),
                Some(Duration::of(30)),
            )
        })
        .run();
        lines.push(golden_line(&format!("heavy jitter seed={seed}"), &report));
    }
    lines
}

/// FNV-1a over the lines; a mismatch prints every run's values.
fn assert_golden(lines: &[String], pinned: u64) {
    let text = lines.join("\n");
    let digest = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(digest, pinned, "digest {digest:#018x} over:\n{text}");
}

#[test]
fn hurfin_raynal_traces_are_pinned() {
    let mut lines = golden_lines::<Hr>();
    // E2: one saboteur among n = 4, each attack as experiments/e2.rs runs it.
    let attacks = [
        (0, CrashAttack::CorruptEstimate { poison: 31337 }),
        (
            3,
            CrashAttack::ForgeDecide {
                at: VirtualTime::at(1),
                poison: 999,
            },
        ),
    ];
    for (attacker, attack) in attacks {
        for seed in 0..3 {
            let report = Simulation::build_boxed(SimConfig::new(4).seed(seed), |id| {
                let fd = TimeoutDetector::new(4, Duration::of(150));
                let honest = Hr::actor(
                    Resilience::new(4, 1),
                    id,
                    fd,
                    Duration::of(25),
                    Some(Duration::of(40)),
                );
                if id.0 == attacker {
                    Box::new(CrashSaboteur::new(honest, attack.clone()))
                } else {
                    honest
                }
            })
            .run();
            lines.push(golden_line(
                &format!("E2 p{attacker} {attack:?} seed={seed}"),
                &report,
            ));
        }
    }
    assert_golden(&lines, 0x4289_ef1a_39b2_6af6);
}

#[test]
fn chandra_toueg_traces_are_pinned() {
    assert_golden(&golden_lines::<Ct>(), 0x9c39_2956_fb36_038a);
}

//! E3/E5 sweeps: the transformed protocol across sizes, fault budgets,
//! crash placements and network conditions — plus the ψ = n − 2F bound
//! and Propositions 1–2 at the run level; and a trace-level golden of both
//! transformed protocols (Hurfin–Raynal and Chandra–Toueg).

use ft_modular::certify::{ProtocolId, Value, ValueVector};
use ft_modular::core::byzantine::{ByzantineChandraToueg, ByzantineConsensus, TransformedProtocol};
use ft_modular::core::config::{MutenessMode, ProtocolConfig};
use ft_modular::core::validator::{check_vector_consensus, max_round};
use ft_modular::faults::{AttackRun, FaultBehavior};
use ft_modular::sim::{Duration, RunReport, SimConfig, Simulation, VirtualTime};

fn proposals(n: usize) -> Vec<Value> {
    (0..n as u64).map(|i| 100 + i).collect()
}

fn run(n: usize, f: usize, seed: u64, crashes: &[(usize, u64)]) -> RunReport<ValueVector> {
    let setup = ProtocolConfig::new(n, f).seed(seed).setup();
    let mut cfg = SimConfig::new(n).seed(seed);
    for &(p, t) in crashes {
        cfg = cfg.crash(p, VirtualTime::at(t));
    }
    let props = proposals(n);
    Simulation::build_boxed(cfg, |id| {
        Box::new(ByzantineConsensus::new(&setup, id, props[id.index()]))
    })
    .run()
}

#[test]
fn sweep_sizes_and_fault_budgets_all_honest() {
    for (n, f) in [(4usize, 1usize), (5, 1), (7, 2), (9, 2)] {
        for seed in 0..3 {
            let report = run(n, f, seed, &[]);
            let v = check_vector_consensus(&report, &proposals(n), &vec![false; n], f);
            assert!(v.ok(), "n={n} f={f} seed={seed}: {:?}", v.violations);
            let vect = report.unanimous().expect("agreement");
            assert!(
                vect.non_null_count() >= n - f,
                "n={n} f={f}: vector has {} entries < n−F",
                vect.non_null_count()
            );
        }
    }
}

#[test]
fn psi_bound_holds_with_maximal_crashes() {
    // With F processes crashed from the start, the decided vector still
    // carries at least ψ = n − 2F entries of correct processes.
    for (n, f) in [(4usize, 1usize), (5, 1), (7, 2)] {
        for seed in 0..3 {
            let crashes: Vec<(usize, u64)> = (0..f).map(|i| (i, 0)).collect();
            let report = run(n, f, seed, &crashes);
            let faulty: Vec<bool> = (0..n).map(|i| i < f).collect();
            let v = check_vector_consensus(&report, &proposals(n), &faulty, f);
            assert!(v.ok(), "n={n} f={f} seed={seed}: {:?}", v.violations);
            let vect = report.unanimous().expect("agreement among survivors");
            let correct_entries = vect.iter_set().filter(|(k, _)| *k >= f).count();
            assert!(
                correct_entries >= n - 2 * f,
                "n={n} f={f} seed={seed}: only {correct_entries} correct entries"
            );
        }
    }
}

#[test]
fn proposition2_no_two_different_certified_vectors_decided() {
    // Across many seeds and crash placements, all correct deciders hold
    // the same vector (Agreement implies Proposition 2 at decision time).
    for seed in 0..10 {
        let report = run(5, 1, seed, &[(4, 30)]);
        assert!(report.unanimous().is_some(), "seed {seed}: disagreement");
    }
}

#[test]
fn mid_round_crashes_at_various_times() {
    for crash_time in [0u64, 10, 25, 50, 100, 200] {
        let report = run(4, 1, 3, &[(1, crash_time)]);
        let v = check_vector_consensus(&report, &proposals(4), &[false; 4], 1);
        assert!(v.ok(), "crash at {crash_time}: {:?}", v.violations);
    }
}

#[test]
fn slow_network_costs_rounds_but_not_safety() {
    let setup = ProtocolConfig::new(4, 1)
        .seed(8)
        .muteness_timeout(Duration::of(60)) // aggressive vs. slow network
        .setup();
    let props = proposals(4);
    let cfg = SimConfig::new(4)
        .seed(8)
        .delay_range(Duration::of(5), Duration::of(90))
        .gst(VirtualTime::at(4_000), Duration::of(15));
    let report = Simulation::build_boxed(cfg, |id| {
        Box::new(ByzantineConsensus::new(&setup, id, props[id.index()]))
    })
    .run();
    let v = check_vector_consensus(&report, &props, &[false; 4], 1);
    assert!(v.ok(), "{:?}", v.violations);
}

#[test]
fn wrongful_muteness_suspicions_are_tolerated() {
    // A tiny muteness timeout guarantees wrongful suspicions of correct
    // coordinators; the protocol must churn rounds yet stay correct.
    let setup = ProtocolConfig::new(4, 1)
        .seed(9)
        .muteness_timeout(Duration::of(15))
        .poll_interval(Duration::of(10))
        .setup();
    let props = proposals(4);
    let report = Simulation::build_boxed(SimConfig::new(4).seed(9), |id| {
        Box::new(ByzantineConsensus::new(&setup, id, props[id.index()]))
    })
    .run();
    let v = check_vector_consensus(&report, &props, &[false; 4], 1);
    assert!(v.ok(), "{:?}", v.violations);
}

#[test]
fn rounds_progress_past_a_dead_coordinator_chain() {
    // Kill coordinators of rounds 1 and 2 (p0, p1) in a 7/2 system.
    let report = run(7, 2, 4, &[(0, 0), (1, 0)]);
    let v = check_vector_consensus(&report, &proposals(7), &[false; 7], 2);
    assert!(v.ok(), "{:?}", v.violations);
    assert!(max_round(&report.trace, 7) >= 3);
}

#[test]
fn round_aware_muteness_detector_also_works() {
    // Same scenarios as the default detector, with the ◇M variant whose
    // allowance grows per round.
    for seed in 0..5 {
        let setup = ProtocolConfig::new(4, 1)
            .seed(seed)
            .muteness_mode(MutenessMode::RoundAware {
                per_round: Duration::of(50),
            })
            .setup();
        let props = proposals(4);
        let cfg = SimConfig::new(4).seed(seed).crash(0, VirtualTime::ZERO);
        let report = Simulation::build_boxed(cfg, |id| {
            Box::new(ByzantineConsensus::new(&setup, id, props[id.index()]))
        })
        .run();
        let v = check_vector_consensus(&report, &props, &[false; 4], 1);
        assert!(v.ok(), "seed {seed}: {:?}", v.violations);
    }
}

#[test]
fn round_aware_detector_suffers_fewer_wrongful_suspicions_on_slow_nets() {
    // Under a slow network, the adaptive detector with a small base
    // timeout churns extra rounds; the round-aware variant's growing
    // allowance converges faster. Compare rounds-to-decide.
    let slow = |mode: MutenessMode, seed: u64| {
        let setup = ProtocolConfig::new(4, 1)
            .seed(seed)
            .muteness_timeout(Duration::of(40))
            .poll_interval(Duration::of(10))
            .muteness_mode(mode)
            .setup();
        let props = proposals(4);
        let cfg = SimConfig::new(4)
            .seed(seed)
            .delay_range(Duration::of(20), Duration::of(60))
            .gst(VirtualTime::at(8_000), Duration::of(30));
        let report = Simulation::build_boxed(cfg, |id| {
            Box::new(ByzantineConsensus::new(&setup, id, props[id.index()]))
        })
        .run();
        let v = check_vector_consensus(&report, &props, &[false; 4], 1);
        assert!(v.ok(), "{mode:?} seed {seed}: {:?}", v.violations);
        max_round(&report.trace, 4)
    };
    let mut adaptive_rounds = 0usize;
    let mut aware_rounds = 0usize;
    for seed in 0..8 {
        adaptive_rounds += slow(MutenessMode::Adaptive, seed);
        aware_rounds += slow(
            MutenessMode::RoundAware {
                per_round: Duration::of(60),
            },
            seed,
        );
    }
    assert!(
        aware_rounds <= adaptive_rounds,
        "round-aware {aware_rounds} vs adaptive {adaptive_rounds}"
    );
}

#[test]
fn fifo_relay_adoption_blocks_the_textbook_attack_transformed() {
    // The transformed-protocol analogue of the crash-side scripted test
    // (tests/crash_consensus.rs): p0 coordinates round 1 and decides, its
    // DECIDE is delayed by 400 ticks, p1 never hears p0 after the INIT
    // phase and suspects it, p2/p3 change their minds, and round 2's
    // coordinator p1 — which never relayed in round 1 — re-proposes the
    // vector it *adopted* from p2's FIFO-ordered CURRENT relay. Everyone,
    // including the long-decided p0, must hold the same certified vector.
    // (n = 4 is the one system within n > 3F where a slanderer's NEXT and
    // two CURRENTs make a vote quorum without deciding.)
    let n = 4;
    let f = 1;
    let setup = ProtocolConfig::new(n, f)
        .seed(0)
        .muteness_timeout(Duration::of(20))
        .poll_interval(Duration::of(25))
        .setup();
    let props = proposals(n);
    let slow_pairs = [(2u32, 3u32), (3, 2), (2, 1), (3, 1)];
    let cfg = SimConfig::new(n)
        .seed(0)
        .max_time(VirtualTime::at(20_000))
        .delay_script(move |src, dst, now| {
            if now == VirtualTime::ZERO {
                1 // the INIT wave reaches everyone fast
            } else if src.0 == 0 && (dst.0 == 1 || now > VirtualTime::at(2)) {
                // p0's CURRENT and DECIDE to the slanderer, and its
                // DECIDE broadcast: very late.
                400
            } else if slow_pairs.contains(&(src.0, dst.0)) {
                30 // cross relays among p1..p3: late enough for change_mind
            } else {
                1
            }
        });
    let report = Simulation::build_boxed(cfg, |id| {
        Box::new(ByzantineConsensus::new(&setup, id, props[id.index()]))
    })
    .run();

    let v = check_vector_consensus(&report, &props, &vec![false; n], f);
    assert!(v.ok(), "{:?} (stop={:?})", v.violations, report.stop);
    assert!(
        max_round(&report.trace, n) >= 2,
        "schedule failed to push past round 1"
    );
    // Whatever p0 decided in round 1 is exactly what the later rounds
    // re-proposed and decided.
    let p0 = report.decisions[0].clone().expect("p0 decided in round 1");
    assert_eq!(report.unanimous(), Some(p0));
}

#[test]
fn deterministic_replay() {
    let a = run(4, 1, 77, &[(2, 40)]);
    let b = run(4, 1, 77, &[(2, 40)]);
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.metrics, b.metrics);
}

#[test]
fn certificates_grow_with_rounds_but_stay_flat_per_round() {
    // Structural sanity on the cost model: message sizes in round r are
    // bounded (cores are one level deep), so mean message size must stay
    // within a small multiple of the INIT-phase size even when rounds
    // churn. Guards against accidental recursive-certificate blowup.
    let fast = run(4, 1, 1, &[]);
    let churny = {
        let setup = ProtocolConfig::new(4, 1)
            .seed(1)
            .muteness_timeout(Duration::of(15))
            .poll_interval(Duration::of(10))
            .setup();
        let props = proposals(4);
        Simulation::build_boxed(SimConfig::new(4).seed(1), |id| {
            Box::new(ByzantineConsensus::new(&setup, id, props[id.index()]))
        })
        .run()
    };
    let fast_mean = fast.metrics.mean_message_bytes_tenths();
    let churny_mean = churny.metrics.mean_message_bytes_tenths();
    assert!(
        churny_mean < fast_mean * 8,
        "certificate blowup: churny {churny_mean} vs fast {fast_mean} (tenths of a byte)"
    );
}

/// The pinned observables of one run, one line: the trace fingerprint
/// covers every entry, each send's byte count included.
fn golden_line(label: &str, report: &RunReport<ValueVector>) -> String {
    format!(
        "{label}: fp={:016x} msgs={} bytes={} end={} decisions={:?}",
        report.trace.fingerprint(),
        report.metrics.messages_sent,
        report.metrics.bytes_sent,
        report.end_time.ticks(),
        report.decisions
    )
}

/// The runs both transformed protocols are pinned on: n ∈ {4, 5, 7} at
/// the largest admitted F, `⌊(n−1)/3⌋`, × seeds 0..3, all honest and with
/// the round-1 coordinator crashed at t = 0; the slow network with a
/// muteness timeout inside its delay range (the only input where HR's
/// change-mind and end-of-round NEXTs fire); and every `FaultBehavior` at
/// p1 of (4, 1) and of (7, 2) with p0 crashed.
fn golden_lines<P: TransformedProtocol + 'static>() -> Vec<String> {
    let run = |protocol: ProtocolConfig, cfg: SimConfig| {
        let setup = protocol.setup();
        Simulation::build_boxed(cfg, |id| Box::new(P::build(&setup, id, 100 + id.0 as u64))).run()
    };
    let mut lines = Vec::new();
    for n in [4usize, 5, 7] {
        let f = ftm_core::quorum::default_cert_capacity(n);
        for (schedule, crashed) in [("honest", false), ("coord@0", true)] {
            for seed in 0..3 {
                let mut cfg = SimConfig::new(n).seed(seed);
                if crashed {
                    cfg = cfg.crash(0, VirtualTime::ZERO);
                }
                let report = run(ProtocolConfig::new(n, f).seed(seed), cfg);
                lines.push(golden_line(
                    &format!("n={n} {schedule} seed={seed}"),
                    &report,
                ));
            }
        }
    }
    for seed in 0..4 {
        let hasty = ProtocolConfig::new(4, 1)
            .seed(seed)
            .muteness_timeout(Duration::of(60));
        let slow = SimConfig::new(4)
            .seed(seed)
            .delay_range(Duration::of(5), Duration::of(90))
            .gst(VirtualTime::at(4_000), Duration::of(15));
        lines.push(golden_line(&format!("slow seed={seed}"), &run(hasty, slow)));
    }
    // At (4, 1) p1 votes in round 1 only; at (7, 2) with p0 crashed it
    // coordinates round 2.
    for (n, f, p0_crashed) in [(4usize, 1usize, 0usize), (7, 2, 1)] {
        for behavior in FaultBehavior::all() {
            let mut attack = AttackRun::new(n, f, 0, 1)
                .protocol(P::ID)
                .crash_low(p0_crashed);
            if behavior == FaultBehavior::Crash {
                attack = attack.crash_at_start(1);
            }
            let report = attack.run(behavior.make_tamper_for(P::ID, n, 1, 0));
            let label = format!("n={n} p0-crashed={p0_crashed} p1 {}", behavior.label());
            lines.push(golden_line(&label, &report));
        }
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
    assert_eq!(ByzantineConsensus::ID, ProtocolId::HurfinRaynal);
    assert_golden(&golden_lines::<ByzantineConsensus>(), 0x738d_b22a_6847_b84b);
}

#[test]
fn chandra_toueg_traces_are_pinned() {
    assert_eq!(ByzantineChandraToueg::ID, ProtocolId::ChandraToueg);
    assert_golden(
        &golden_lines::<ByzantineChandraToueg>(),
        0x6a6e_1f0a_d15d_3d41,
    );
}

//! The fault matrix (experiments E3/E4): every fault class from the
//! paper's taxonomy is injected into the transformed protocol, and for
//! each we check
//!
//! 1. **safety & liveness survive** — Agreement, Termination and Vector
//!    Validity hold for the correct processes, and
//! 2. **detection happens where the paper says it should** — the module
//!    responsible for the class convicts the culprit at every correct
//!    process (where the class is locally detectable at all).

use ft_modular::certify::{MessageKind, Value, ValueVector};
use ft_modular::core::validator::{detections, Verdict};
use ft_modular::faults::attacks::{Attack, Trigger};
use ft_modular::faults::AttackRun;
use ft_modular::sim::{Duration, ProcessId, RunReport, VirtualTime};

const N: usize = 4;
const F: usize = 1;

/// Runs the transformed protocol with `attacker` running `attack`, through
/// the shared [`AttackRun`] glue (the injection timer defaults to 3 ticks,
/// beating the fastest honest decision so timed attacks never fire into an
/// already-halted system).
fn run_with_attack(seed: u64, attacker: u32, attack: Attack) -> RunReport<ValueVector> {
    AttackRun::new(N, F, seed, attacker).run(Some(attack))
}

fn verdict(report: &RunReport<ValueVector>, attacker: u32) -> Verdict {
    AttackRun::new(N, F, 0, attacker).verdict(report)
}

/// Runs with `attacker` Byzantine AND the round-1 coordinator p0 crashed
/// at t = 0, forcing NEXT-vote traffic (n = 7, F = 2 keeps the quorum).
fn run_with_attack_and_dead_coordinator(
    seed: u64,
    attacker: u32,
    attack: Attack,
) -> RunReport<ValueVector> {
    AttackRun::new(7, 2, seed, attacker)
        .crash_at_start(0)
        .injection_delay(Duration::of(10))
        .run(Some(attack))
}

fn verdict7(report: &RunReport<ValueVector>, attacker: u32) -> Verdict {
    AttackRun::new(7, 2, 0, attacker).verdict(report)
}

/// Asserts that at least one correct process convicted the attacker with
/// the expected class (processes that decided before the faulty message
/// arrived legitimately never observe it).
fn assert_detected_by_some(report: &RunReport<ValueVector>, attacker: u32, class: &str) {
    let det = detections(&report.trace);
    let culprit = format!("p{attacker}");
    assert!(
        det.iter()
            .any(|d| d.observer.0 != attacker && d.culprit == culprit && d.class == class),
        "no correct process convicted p{attacker} of {class}; detections: {det:?}"
    );
}

/// Asserts that every correct process convicted the attacker with the
/// expected fault class.
fn assert_detected_by_all(report: &RunReport<ValueVector>, attacker: u32, class: &str) {
    let det = detections(&report.trace);
    let culprit = format!("p{attacker}");
    let n = report.decisions.len();
    for p in 0..n as u32 {
        if p == attacker || report.crashed[p as usize] {
            continue;
        }
        assert!(
            det.iter()
                .any(|d| d.observer == ProcessId(p) && d.culprit == culprit && d.class == class),
            "p{p} never convicted p{attacker} of {class}; detections: {det:?}"
        );
    }
}

fn assert_no_honest_convicted(report: &RunReport<ValueVector>, attacker: u32) {
    let culprit = format!("p{attacker}");
    for d in detections(&report.trace) {
        assert_eq!(d.culprit, culprit, "an honest process was convicted: {d:?}");
    }
}

#[test]
fn muteness_is_survived_and_needs_no_conviction() {
    for seed in 0..5 {
        let report = run_with_attack(
            seed,
            0,
            Attack::Mute {
                after: VirtualTime::at(30),
            },
        );
        let v = verdict(&report, 0);
        assert!(v.ok(), "seed {seed}: {:?}", v.violations);
        assert_no_honest_convicted(&report, 0);
    }
}

#[test]
fn vector_corruption_is_survived_and_detected() {
    // The attacker is p0, the round-1 coordinator: the worst placement.
    for seed in 0..5 {
        let report = run_with_attack(
            seed,
            0,
            Attack::CorruptVector {
                entry: 2,
                poison: 666,
            },
        );
        let v = verdict(&report, 0);
        assert!(v.ok(), "seed {seed}: {:?}", v.violations);
        assert_detected_by_all(&report, 0, "bad-certificate");
        assert_no_honest_convicted(&report, 0);
        // The poison never reaches a decided vector.
        for d in report.decisions.iter().take(N).flatten() {
            assert_ne!(d.get(2), Some(666), "seed {seed}: poison decided");
        }
    }
}

#[test]
fn round_jumping_is_survived_and_detected() {
    // p0 (round-1 coordinator) is crashed so NEXT votes must flow; the
    // attacker p6 corrupts its round numbers.
    for seed in 0..5 {
        let report = run_with_attack_and_dead_coordinator(seed, 6, Attack::JumpRound { jump: 5 });
        let v = verdict7(&report, 6);
        assert!(v.ok(), "seed {seed}: {:?}", v.violations);
        assert_detected_by_all(&report, 6, "out-of-order");
        assert_no_honest_convicted(&report, 6);
    }
}

#[test]
fn vote_duplication_is_survived_and_detected() {
    for seed in 0..5 {
        let report = run_with_attack_and_dead_coordinator(seed, 6, Attack::DuplicateVotes);
        let v = verdict7(&report, 6);
        assert!(v.ok(), "seed {seed}: {:?}", v.violations);
        assert_detected_by_all(&report, 6, "out-of-order");
        assert_no_honest_convicted(&report, 6);
    }
}

#[test]
fn forged_decide_is_survived_and_detected() {
    for seed in 0..5 {
        let report = run_with_attack(
            seed,
            3,
            Attack::Forge {
                kind: MessageKind::Decide,
                poison: 999,
                trigger: Trigger::At(VirtualTime::at(1)),
            },
        );
        let v = verdict(&report, 3);
        assert!(v.ok(), "seed {seed}: {:?}", v.violations);
        assert_detected_by_some(&report, 3, "bad-certificate");
        assert_no_honest_convicted(&report, 3);
        // Nobody decided the fabricated vector.
        for d in report.decisions.iter().enumerate().filter(|(i, _)| *i != 3) {
            if let Some(vect) = d.1 {
                assert_ne!(
                    vect.get(0),
                    Some(999),
                    "seed {seed}: forged decide accepted"
                );
            }
        }
    }
}

#[test]
fn wrong_key_signatures_are_survived_and_detected() {
    for seed in 0..5 {
        let mut rng = ft_modular::crypto::rng_from_seed(0xBAD + seed);
        let wrong = ft_modular::crypto::rsa::KeyPair::generate(&mut rng, 128);
        let report = run_with_attack(
            seed,
            3,
            Attack::Resign {
                sender: None,
                key: Some(wrong),
            },
        );
        let v = verdict(&report, 3);
        assert!(v.ok(), "seed {seed}: {:?}", v.violations);
        assert_detected_by_all(&report, 3, "bad-signature");
        assert_no_honest_convicted(&report, 3);
    }
}

#[test]
fn identity_theft_is_survived_and_pinned_on_the_thief() {
    for seed in 0..5 {
        let report = run_with_attack(
            seed,
            3,
            Attack::Resign {
                sender: Some(ProcessId(1)),
                key: None,
            },
        );
        let v = verdict(&report, 3);
        assert!(v.ok(), "seed {seed}: {:?}", v.violations);
        // The channel gives the thief away: p3 is convicted, p1 is not.
        assert_detected_by_all(&report, 3, "bad-signature");
        assert_no_honest_convicted(&report, 3);
    }
}

#[test]
fn init_equivocation_cannot_break_agreement() {
    // Not locally detectable — the test is that Agreement and Vector
    // Validity survive anyway (the paper's Proposition 2 territory).
    for seed in 0..8 {
        let report = run_with_attack(seed, 3, Attack::EquivocateInit { alt: 1313 });
        let v = verdict(&report, 3);
        assert!(v.ok(), "seed {seed}: {:?}", v.violations);
        // Whatever entry 3 shows, entries of correct processes are intact.
        if let Some(vect) = report.decisions[0].as_ref() {
            for (k, val) in vect.iter_set() {
                if k != 3 {
                    assert_eq!(val, 100 + k as u64);
                }
            }
        }
    }
}

#[test]
fn spurious_current_is_survived_and_detected() {
    for seed in 0..5 {
        let report = run_with_attack(
            seed,
            3,
            Attack::Forge {
                kind: MessageKind::Current,
                poison: 4242,
                trigger: Trigger::At(VirtualTime::at(1)),
            },
        );
        let v = verdict(&report, 3);
        assert!(v.ok(), "seed {seed}: {:?}", v.violations);
        // Either the bogus CURRENT arrives while the receiver still expects
        // an in-round message (bad certificate) or out of pattern; both
        // convict p3 at whoever is still running.
        let det = detections(&report.trace);
        assert!(
            det.iter().any(|d| d.observer.0 != 3 && d.culprit == "p3"),
            "seed {seed}: nobody convicted p3: {det:?}"
        );
        assert_no_honest_convicted(&report, 3);
    }
}

#[test]
fn replayed_recordings_are_survived_and_detected() {
    // The attacker records its own honest output and replays it all later:
    // every replayed message is a duplicate or stale — out-of-order.
    for seed in 0..5 {
        let report = run_with_attack(
            seed,
            3,
            Attack::Replay {
                at: VirtualTime::at(30),
            },
        );
        let v = verdict(&report, 3);
        assert!(v.ok(), "seed {seed}: {:?}", v.violations);
        // Detection happens whenever a replay reaches a still-running
        // process; with fast decisions that is not guaranteed, but when a
        // conviction exists it must classify as out-of-order and name p3.
        for d in detections(&report.trace) {
            assert_eq!(d.culprit, "p3", "{d:?}");
        }
    }
}

#[test]
fn stripped_certificates_are_survived_and_detected() {
    // Certificates removed from every message that had one: CURRENT/NEXT
    // relays and decisions all lose their evidence.
    for seed in 0..5 {
        let report = run_with_attack(seed, 0, Attack::StripCertificates);
        let v = verdict(&report, 0);
        assert!(v.ok(), "seed {seed}: {:?}", v.violations);
        assert_detected_by_some(&report, 0, "bad-certificate");
        assert_no_honest_convicted(&report, 0);
    }
}

#[test]
fn selective_omission_is_survived() {
    // p3 talks only to p0 and p1; p2 experiences p3 as mute. The paper's
    // point: faultiness is per-observer, and the quorum n − F makes the
    // system whole anyway.
    for seed in 0..5 {
        let report = run_with_attack(seed, 3, Attack::SelectiveOmission { cutoff: 2 });
        let v = verdict(&report, 3);
        assert!(v.ok(), "seed {seed}: {:?}", v.violations);
        assert_no_honest_convicted(&report, 3);
    }
}

#[test]
fn two_simultaneous_different_attackers_within_the_budget() {
    // n = 7, F = 2: one vector corruptor AND one forged-decide injector at
    // once. Both convicted, properties intact for the five correct
    // processes. Two attackers means the shared single-attacker glue does
    // not apply; this test builds its stack by hand.
    use ft_modular::core::byzantine::ByzantineConsensus;
    use ft_modular::core::config::ProtocolConfig;
    use ft_modular::core::validator::check_vector_consensus;
    use ft_modular::faults::ByzantineWrapper;
    use ft_modular::sim::runner::BoxedActor;
    use ft_modular::sim::{SimConfig, Simulation};

    for seed in 0..5 {
        let setup = ProtocolConfig::new(7, 2).seed(seed).setup();
        let report = Simulation::build_boxed(SimConfig::new(7).seed(seed), |id| {
            let honest = ByzantineConsensus::new(&setup, id, 100 + id.0 as u64);
            match id.0 {
                0 => Box::new(ByzantineWrapper::new(
                    honest,
                    Attack::CorruptVector {
                        entry: 2,
                        poison: 666,
                    },
                    setup.keys[0].clone(),
                    Duration::of(10),
                )) as BoxedActor<_, _>,
                6 => Box::new(ByzantineWrapper::new(
                    honest,
                    Attack::Forge {
                        kind: MessageKind::Decide,
                        poison: 999,
                        trigger: Trigger::At(VirtualTime::at(1)),
                    },
                    setup.keys[6].clone(),
                    Duration::of(10),
                )),
                _ => Box::new(honest),
            }
        })
        .run();
        let props: Vec<Value> = (0..7).map(|i| 100 + i).collect();
        let faulty = [true, false, false, false, false, false, true];
        let v = check_vector_consensus(&report, &props, &faulty, 2);
        assert!(v.ok(), "seed {seed}: {:?}", v.violations);
        // Only the two attackers may appear as culprits.
        for d in detections(&report.trace) {
            assert!(
                d.culprit == "p0" || d.culprit == "p6",
                "framed an honest process: {d:?}"
            );
        }
    }
}

#[test]
fn scenario_sweep_covers_the_matrix_with_layer_metrics() {
    // The harness-native fault matrix: 3 system sizes x 3 behaviors, every
    // run surviving the spec check, and the aggregated JSON carrying the
    // per-module-layer byte breakdown for every cell.
    use ft_modular::faults::{sweep_scenarios, FaultBehavior, ScenarioMatrix};

    let m = ScenarioMatrix::new(
        vec![(4, 1), (5, 1), (7, 2)],
        vec![
            FaultBehavior::Honest,
            FaultBehavior::VectorCorrupt,
            FaultBehavior::WrongKey,
        ],
    );
    let report = sweep_scenarios(&m.enumerate(), 1, 0x3A3, 4);
    assert!(report.all_ok(), "some cell violated the spec: {report:?}");

    let cells = report.cells();
    assert_eq!(cells.len(), 9, "expected a full 3x3 matrix");
    for (cell, stats) in &cells {
        for layer in ["bytes-signature", "bytes-certificate", "bytes-protocol"] {
            assert!(
                stats.stats.contains_key(layer),
                "cell {cell} lost layer counter {layer}"
            );
        }
        let total = stats.stats["bytes-total"].p50;
        let sum = stats.stats["bytes-signature"].p50
            + stats.stats["bytes-certificate"].p50
            + stats.stats["bytes-protocol"].p50;
        assert_eq!(sum, total, "cell {cell}: layer bytes do not decompose");
    }

    // The rendered JSON exposes the same breakdown for downstream tooling.
    let json = report.to_json().render();
    for key in [
        "bytes-signature",
        "bytes-certificate",
        "bytes-protocol",
        "detections",
    ] {
        assert!(json.contains(key), "JSON report lost {key}");
    }
}

#[test]
fn fault_classification_is_protocol_independent() {
    // The transformation's promise is protocol-generic: each fault class
    // must be caught by the *same module* whether the transformed protocol
    // is Hurfin–Raynal or Chandra–Toueg. Counts and timings legitimately
    // differ (the protocols exchange different message kinds); the
    // classification — which conviction classes fire, and whether ◇M
    // suspicion covers the muteness cases — must not.
    //
    // n = 7, F = 2 with the round-1 coordinator crashed: under HR this
    // forces NEXT-vote traffic (so vote-targeting attacks have something
    // to corrupt), under CT the NACK path; the budget (attacker + one
    // crash = 2 = F) stays within bounds.
    use ft_modular::certify::ProtocolId;
    use ft_modular::faults::{run_scenario, AttackRun, FaultBehavior};
    use std::collections::BTreeSet;

    let classify = |behavior: FaultBehavior, protocol: ProtocolId| -> (BTreeSet<&str>, bool) {
        let mut classes = BTreeSet::new();
        let mut suspicion = false;
        // Union over seeds: classification is about which module *can*
        // convict the behavior, not one execution's timing accidents.
        for seed in 0..3u64 {
            let sc = AttackRun::single(7, 2, behavior)
                .protocol(protocol)
                .crash_low(1);
            let rec = run_scenario(seed as usize, &sc, 0xC1A5 + seed);
            assert!(
                rec.ok,
                "{} under {}: spec violated: {rec:?}",
                behavior.label(),
                protocol
            );
            for class in [
                "bad-signature",
                "bad-certificate",
                "out-of-order",
                "wrong-syntax",
            ] {
                if rec.get(&format!("convicted-{class}")) > 0 {
                    classes.insert(class);
                }
            }
            suspicion |= rec.get("suspicion-covered") > 0;
        }
        (classes, suspicion)
    };

    for behavior in FaultBehavior::all() {
        let (hr_classes, hr_susp) = classify(behavior, ProtocolId::HurfinRaynal);
        let (ct_classes, ct_susp) = classify(behavior, ProtocolId::ChandraToueg);
        assert_eq!(
            hr_classes,
            ct_classes,
            "behavior {}: conviction classes differ between protocols",
            behavior.label()
        );
        assert_eq!(
            hr_susp,
            ct_susp,
            "behavior {}: ◇M suspicion coverage differs between protocols",
            behavior.label()
        );
        // The muteness cases must actually be covered by ◇M everywhere.
        if matches!(behavior, FaultBehavior::Crash | FaultBehavior::Mute) {
            assert!(hr_susp, "{}: muteness never suspected", behavior.label());
        }
    }
}

#[test]
fn checkpoint_compaction_changes_no_decision_or_conviction() {
    // Certificate checkpointing is pure local compaction: a replica that
    // replaces decided slots' evidence with a signed checkpoint sends not
    // one extra byte on the wire, so a same-seeded attacked run must
    // produce the same decisions, finish at the same virtual time, and
    // yield the identical conviction split (who convicted whom of what)
    // under either retention policy — for both transformed protocols.
    use ft_modular::certify::ProtocolId;
    use ft_modular::core::byzantine::log::Retention;
    use ft_modular::faults::FaultBehavior;
    use std::collections::BTreeSet;

    let conviction_split = |report: &RunReport<Vec<ValueVector>>| -> BTreeSet<String> {
        detections(&report.trace)
            .iter()
            .map(|d| format!("{}:{}:{}", d.observer.0, d.culprit, d.class))
            .collect()
    };

    for protocol in [ProtocolId::HurfinRaynal, ProtocolId::ChandraToueg] {
        for seed in 0..3u64 {
            let run = |retention: Retention| {
                AttackRun::new(N, F, seed, 0)
                    .protocol(protocol)
                    .retention(retention)
                    .run_log(
                        2,
                        FaultBehavior::VectorCorrupt.make_tamper_for(protocol, N, 0, seed),
                    )
            };
            let full = run(Retention::Full);
            let compact = run(Retention::Checkpoint);
            assert_eq!(
                full.decisions, compact.decisions,
                "{protocol} seed {seed}: compaction changed a decision"
            );
            assert_eq!(
                full.end_time, compact.end_time,
                "{protocol} seed {seed}: compaction changed the schedule"
            );
            assert_eq!(
                conviction_split(&full),
                conviction_split(&compact),
                "{protocol} seed {seed}: compaction changed the conviction split"
            );
        }
    }
}

#[test]
fn detection_latency_is_bounded() {
    // E4's quantitative claim: detection happens promptly after the
    // faulty message is delivered, not rounds later.
    let report = run_with_attack(
        1,
        0,
        Attack::CorruptVector {
            entry: 2,
            poison: 666,
        },
    );
    let det = detections(&report.trace);
    let first = det.iter().map(|d| d.at).min().expect("detected at all");
    assert!(
        first < VirtualTime::at(200),
        "first detection too late: {first:?}"
    );
}

#[test]
fn mixed_coalition_classification_is_protocol_independent() {
    // A heterogeneous coalition — one mute member and one double-speaker
    // — must land in the same per-member conviction-class split whether
    // the transformed protocol is Hurfin–Raynal or Chandra–Toueg: the
    // duplicator is an automaton ("out-of-order") conviction, the mute
    // member is ◇M suspicion territory and is never convicted of
    // anything. At n = 7, F = 2 the coalition is the whole budget; the
    // adverse network profile stretches the run far past the mute
    // member's onset (t = 30) plus the ◇M allowance, so the suspicion
    // fires before the system can decide its way out.
    use ft_modular::certify::ProtocolId;
    use ft_modular::faults::{run_scenario, AttackRun, FaultBehavior, NetworkProfile};
    use std::collections::BTreeSet;

    let split = |protocol: ProtocolId| -> (BTreeSet<&str>, BTreeSet<&str>, bool) {
        let mut mute_classes = BTreeSet::new();
        let mut dup_classes = BTreeSet::new();
        let mut mute_suspected = false;
        // Union over seeds: the split is about which module *can* convict
        // each member, not one execution's timing accidents.
        for seed in 0..3u64 {
            let sc = AttackRun::coalition_of(
                7,
                2,
                &[FaultBehavior::Mute, FaultBehavior::DuplicateVotes],
            )
            .network(NetworkProfile::adverse())
            .protocol(protocol);
            let rec = run_scenario(seed as usize, &sc, 0x5117 + seed);
            assert!(rec.ok, "mixed coalition under {protocol}: {rec:?}");
            for class in [
                "bad-signature",
                "bad-certificate",
                "out-of-order",
                "wrong-syntax",
            ] {
                if rec.get(&format!("m0-convicted-{class}")) > 0 {
                    mute_classes.insert(class);
                }
                if rec.get(&format!("m1-convicted-{class}")) > 0 {
                    dup_classes.insert(class);
                }
            }
            mute_suspected |= rec.get("m0-suspected") > 0;
        }
        (mute_classes, dup_classes, mute_suspected)
    };

    let (hr_mute, hr_dup, hr_susp) = split(ProtocolId::HurfinRaynal);
    let (ct_mute, ct_dup, ct_susp) = split(ProtocolId::ChandraToueg);

    // The duplicator is convicted by the automaton under both protocols.
    assert!(
        hr_dup.contains("out-of-order"),
        "HR never convicted the duplicator: {hr_dup:?}"
    );
    assert_eq!(hr_dup, ct_dup, "duplicator conviction split diverged");
    // The mute member is suspicion-covered, never convicted, under both.
    assert!(
        hr_susp && ct_susp,
        "mute member escaped suspicion (hr={hr_susp}, ct={ct_susp})"
    );
    assert!(
        hr_mute.is_empty(),
        "HR convicted the mute member: {hr_mute:?}"
    );
    assert_eq!(hr_mute, ct_mute, "mute-member conviction split diverged");
}

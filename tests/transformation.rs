//! The transformation's before/after contrast (experiment E2) and the
//! module ablation (experiment E8).
//!
//! E2: the same Byzantine behaviors that the transformed protocol survives
//! are fatal to the crash-model protocol — that is the paper's motivation.
//!
//! E8: disabling one module of the Fig. 1 stack at a time re-opens a
//! specific attack — each module is load-bearing.

use ft_modular::certify::{Value, ValueVector};
use ft_modular::core::byzantine::ByzantineConsensus;
use ft_modular::core::config::Checks;
use ft_modular::core::config::ProtocolConfig;
use ft_modular::core::crash::{CrashConsensus, CrashMsg};
use ft_modular::core::spec::Resilience;
use ft_modular::core::validator::{check_crash_consensus, check_vector_consensus};
use ft_modular::faults::crash_attacks::{CrashAttack, CrashSaboteur};
use ft_modular::faults::{Attack, ByzantineWrapper};
use ft_modular::fd::TimeoutDetector;
use ft_modular::sim::runner::BoxedActor;
use ft_modular::sim::{Duration, SimConfig, Simulation, VirtualTime};

const N: usize = 4;

fn crash_actor(id: ft_modular::sim::ProcessId) -> CrashConsensus<TimeoutDetector> {
    CrashConsensus::new(
        Resilience::new(N, 1),
        id,
        100 + id.0 as u64,
        TimeoutDetector::new(N, Duration::of(150)),
        Duration::of(25),
        Some(Duration::of(40)),
    )
}

#[test]
fn e2_crash_protocol_falls_to_estimate_corruption_transformed_survives() {
    let mut crash_violations = 0;
    let mut byz_violations = 0;
    let proposals: Vec<Value> = (0..N as u64).map(|i| 100 + i).collect();
    let faulty = [true, false, false, false]; // p0 is the attacker

    for seed in 0..10u64 {
        // Crash-model protocol under a corrupting coordinator.
        let report = Simulation::build_boxed(SimConfig::new(N).seed(seed), |id| {
            if id.0 == 0 {
                Box::new(CrashSaboteur::new(
                    crash_actor(id),
                    CrashAttack::CorruptEstimate { poison: 31337 },
                )) as BoxedActor<CrashMsg, Value>
            } else {
                Box::new(crash_actor(id))
            }
        })
        .run();
        if !check_crash_consensus(&report, &proposals, &faulty).ok() {
            crash_violations += 1;
        }

        // Transformed protocol under the equivalent attack.
        let setup = ProtocolConfig::new(N, 1).seed(seed).setup();
        let report = Simulation::build_boxed(SimConfig::new(N).seed(seed), |id| {
            let honest = ByzantineConsensus::new(&setup, id, proposals[id.index()]);
            if id.0 == 0 {
                Box::new(ByzantineWrapper::new(
                    honest,
                    Attack::CorruptVector {
                        entry: 2,
                        poison: 31337,
                    },
                    setup.keys[0].clone(),
                    Duration::of(30),
                )) as BoxedActor<_, ValueVector>
            } else {
                Box::new(honest)
            }
        })
        .run();
        if !check_vector_consensus(&report, &proposals, &faulty, 1).ok() {
            byz_violations += 1;
        }
    }
    assert!(
        crash_violations >= 8,
        "the crash protocol should fall nearly always; fell {crash_violations}/10"
    );
    assert_eq!(
        byz_violations, 0,
        "the transformed protocol must survive every run"
    );
}

#[test]
fn e2_crash_protocol_falls_to_forged_decide_transformed_survives() {
    let proposals: Vec<Value> = (0..N as u64).map(|i| 100 + i).collect();
    let faulty = [false, false, false, true];
    let mut crash_violations = 0;

    for seed in 0..10u64 {
        let report = Simulation::build_boxed(SimConfig::new(N).seed(seed), |id| {
            if id.0 == 3 {
                Box::new(CrashSaboteur::new(
                    crash_actor(id),
                    CrashAttack::ForgeDecide {
                        at: VirtualTime::at(1),
                        poison: 999,
                    },
                )) as BoxedActor<CrashMsg, Value>
            } else {
                Box::new(crash_actor(id))
            }
        })
        .run();
        if !check_crash_consensus(&report, &proposals, &faulty).ok() {
            crash_violations += 1;
        }
    }
    assert_eq!(
        crash_violations, 10,
        "an unauthenticated forged DECIDE must poison every crash-model run"
    );
    // The transformed side of this contrast is covered by
    // fault_matrix::forged_decide_is_survived_and_detected.
}

/// Runs the transformed protocol with a vector-corrupting coordinator and
/// the given check configuration; returns whether the run stayed correct.
fn byz_corruption_survives(checks: Checks, seed: u64) -> bool {
    let proposals: Vec<Value> = (0..N as u64).map(|i| 100 + i).collect();
    let setup = ProtocolConfig::new(N, 1).seed(seed).checks(checks).setup();
    let report = Simulation::build_boxed(SimConfig::new(N).seed(seed), |id| {
        let honest = ByzantineConsensus::new(&setup, id, proposals[id.index()]);
        if id.0 == 0 {
            Box::new(ByzantineWrapper::new(
                honest,
                Attack::CorruptVector {
                    entry: 2,
                    poison: 666,
                },
                setup.keys[0].clone(),
                Duration::of(30),
            )) as BoxedActor<_, ValueVector>
        } else {
            Box::new(honest)
        }
    })
    .run();
    check_vector_consensus(&report, &proposals, &[true, false, false, false], 1).ok()
}

#[test]
fn e8_disabling_certificates_reopens_vector_corruption() {
    let mut broken = 0;
    for seed in 0..10u64 {
        assert!(
            byz_corruption_survives(Checks::default(), seed),
            "full stack must survive seed {seed}"
        );
        if !byz_corruption_survives(
            Checks {
                certificates: false,
                ..Checks::default()
            },
            seed,
        ) {
            broken += 1;
        }
    }
    assert!(
        broken >= 8,
        "without certificate checks the corruption must usually win; won {broken}/10"
    );
}

#[test]
fn e8_disabling_signatures_admits_impersonation() {
    // With signatures off, the thief's messages claiming to be p1 are
    // admitted and processed as p1's — the observer applies them to p1's
    // automaton, convicting the *innocent* p1 of p3's double-talk.
    let proposals: Vec<Value> = (0..N as u64).map(|i| 100 + i).collect();
    let mut framed = 0;
    for seed in 0..10u64 {
        let setup = ProtocolConfig::new(N, 1)
            .seed(seed)
            .checks(Checks {
                signatures: false,
                ..Checks::default()
            })
            .setup();
        let report = Simulation::build_boxed(SimConfig::new(N).seed(seed), |id| {
            let honest = ByzantineConsensus::new(&setup, id, proposals[id.index()]);
            if id.0 == 3 {
                Box::new(ByzantineWrapper::new(
                    honest,
                    Attack::Resign {
                        sender: Some(ft_modular::sim::ProcessId(1)),
                        key: None,
                    },
                    setup.keys[3].clone(),
                    Duration::of(30),
                )) as BoxedActor<_, ValueVector>
            } else {
                Box::new(honest)
            }
        })
        .run();
        let det = ft_modular::core::validator::detections(&report.trace);
        if det.iter().any(|d| d.culprit == "p1") {
            framed += 1;
        }
    }
    assert!(
        framed >= 8,
        "without the signature module an innocent process gets framed; framed {framed}/10"
    );
}

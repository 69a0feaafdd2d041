//! Property-based testing: randomized schedules, crash placements and
//! attack choices must never produce a safety violation.
//!
//! These tests treat the whole system as the unit under test: for any
//! random seed (network schedule), any legal crash set, and any attack
//! from the library, the validators must report Agreement and the
//! respective Validity property intact. Termination is also asserted —
//! the simulator's GST default makes every run eventually synchronous.
//!
//! Cases are drawn from the in-tree seeded PRNG (not an external fuzzing
//! framework), so every case is identified by its iteration number and
//! replays identically everywhere.

use ft_modular::certify::{MessageKind, Value, ValueVector};
use ft_modular::core::byzantine::ByzantineConsensus;
use ft_modular::core::config::ProtocolConfig;
use ft_modular::core::crash::CrashConsensus;
use ft_modular::core::spec::Resilience;
use ft_modular::core::validator::{check_crash_consensus, check_vector_consensus};
use ft_modular::crypto::prng::{Rng64, SplitMix64};
use ft_modular::faults::attacks::{Attack, Trigger};
use ft_modular::faults::ByzantineWrapper;
use ft_modular::fd::TimeoutDetector;
use ft_modular::sim::runner::BoxedActor;
use ft_modular::sim::{Duration, SimConfig, Simulation, VirtualTime};

fn proposals(n: usize) -> Vec<Value> {
    (0..n as u64).map(|i| 100 + i).collect()
}

/// Crash-model protocol: random seed, size, delay spread, crash set
/// within the bound.
#[test]
fn crash_protocol_safe_under_random_conditions() {
    let mut gen = SplitMix64::from_seed(0x91091);
    for case in 0..20 {
        let seed = gen.next_u64();
        let n = gen.gen_range_u64(3, 7) as usize;
        let max_delay = gen.gen_range_u64(5, 79);
        let crash_bits = gen.next_u64() as u8;
        let crash_time = gen.gen_range_u64(0, 299);

        let fmax = ftm_core::quorum::max_faults(n);
        let crashed: Vec<usize> = (0..n)
            .filter(|i| crash_bits & (1 << i) != 0)
            .take(fmax)
            .collect();
        let mut cfg = SimConfig::new(n)
            .seed(seed)
            .delay_range(Duration::of(1), Duration::of(max_delay))
            .gst(VirtualTime::at(3_000), Duration::of(max_delay.min(15)));
        for &c in &crashed {
            cfg = cfg.crash(c, VirtualTime::at(crash_time));
        }
        let res = Resilience::new(n, fmax);
        let report = Simulation::build(cfg, move |id| {
            CrashConsensus::new(
                res,
                id,
                100 + id.0 as u64,
                TimeoutDetector::new(n, Duration::of(120)),
                Duration::of(20),
                Some(Duration::of(35)),
            )
        })
        .run();
        let v = check_crash_consensus(&report, &proposals(n), &vec![false; n]);
        assert!(
            v.ok(),
            "case {case}: seed={seed} n={n} crashed={crashed:?}: {:?}",
            v.violations
        );
    }
}

/// Transformed protocol, all honest: random seed, size/budget, delays.
#[test]
fn byzantine_protocol_safe_under_random_conditions() {
    let mut gen = SplitMix64::from_seed(0x91092);
    for case in 0..20 {
        let seed = gen.next_u64();
        let (n, f) = [(4usize, 1usize), (5, 1), (7, 2)][gen.gen_range_u64(0, 2) as usize];
        let max_delay = gen.gen_range_u64(5, 49);
        let crash_time = gen.gen_range_u64(0, 199);
        let crash_someone = gen.next_u64() & 1 == 1;

        let setup = ProtocolConfig::new(n, f).seed(seed).setup();
        let mut cfg = SimConfig::new(n)
            .seed(seed)
            .delay_range(Duration::of(1), Duration::of(max_delay))
            .gst(VirtualTime::at(3_000), Duration::of(max_delay.min(15)));
        if crash_someone {
            cfg = cfg.crash(n - 1, VirtualTime::at(crash_time));
        }
        let props = proposals(n);
        let p2 = props.clone();
        let report = Simulation::build_boxed(cfg, move |id| {
            Box::new(ByzantineConsensus::new(&setup, id, p2[id.index()]))
        })
        .run();
        let v = check_vector_consensus(&report, &props, &vec![false; n], f);
        assert!(
            v.ok(),
            "case {case}: seed={seed} n={n} f={f}: {:?}",
            v.violations
        );
    }
}

/// Transformed protocol under a random attack at a random position:
/// safety and liveness must hold regardless.
#[test]
fn byzantine_protocol_safe_under_random_attacks() {
    let mut gen = SplitMix64::from_seed(0x91093);
    for case in 0..20 {
        let seed = gen.next_u64();
        let attacker = gen.gen_range_u64(0, 3) as u32;
        let attack_kind = gen.gen_range_u64(0, 3) as u8;
        let fire_at = gen.gen_range_u64(1, 119);

        let n = 4;
        let setup = ProtocolConfig::new(n, 1).seed(seed).setup();
        let props = proposals(n);
        let p2 = props.clone();
        let report = Simulation::build_boxed(SimConfig::new(n).seed(seed), move |id| {
            let honest = ByzantineConsensus::new(&setup, id, p2[id.index()]);
            if id.0 == attacker {
                let attack = match attack_kind {
                    0 => Attack::CorruptVector {
                        entry: (attacker as usize + 1) % n,
                        poison: 666,
                    },
                    1 => Attack::JumpRound { jump: 3 },
                    2 => Attack::DuplicateVotes,
                    _ => Attack::Forge {
                        kind: MessageKind::Decide,
                        poison: 999,
                        trigger: Trigger::At(VirtualTime::at(fire_at)),
                    },
                };
                Box::new(ByzantineWrapper::new(
                    honest,
                    attack,
                    setup.keys[attacker as usize].clone(),
                    Duration::of(15),
                )) as BoxedActor<_, ValueVector>
            } else {
                Box::new(honest)
            }
        })
        .run();
        let mut faulty = vec![false; n];
        faulty[attacker as usize] = true;
        let v = check_vector_consensus(&report, &props, &faulty, 1);
        assert!(
            v.ok(),
            "case {case}: seed={seed} attacker={attacker} kind={attack_kind}: {:?}",
            v.violations
        );
        // No honest process is ever convicted, whatever the schedule.
        for d in ft_modular::core::validator::detections(&report.trace) {
            assert_eq!(
                d.culprit,
                format!("p{attacker}"),
                "case {case}: framed an honest process"
            );
        }
    }
}

/// Determinism as a property: two runs with identical inputs are
/// bit-identical, whatever those inputs are.
#[test]
fn runs_are_reproducible() {
    let mut gen = SplitMix64::from_seed(0x91094);
    for case in 0..10 {
        let seed = gen.next_u64();
        let n = gen.gen_range_u64(4, 6) as usize;
        let mk = || {
            let setup = ProtocolConfig::new(n, ftm_core::quorum::default_cert_capacity(n))
                .seed(seed)
                .setup();
            let props = proposals(n);
            Simulation::build_boxed(SimConfig::new(n).seed(seed), move |id| {
                Box::new(ByzantineConsensus::new(&setup, id, props[id.index()]))
            })
            .run()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.decisions, b.decisions, "case {case}");
        assert_eq!(a.end_time, b.end_time, "case {case}");
        assert_eq!(
            a.metrics.messages_sent, b.metrics.messages_sent,
            "case {case}"
        );
        assert_eq!(a.metrics.bytes_sent, b.metrics.bytes_sent, "case {case}");
        assert_eq!(a.trace.fingerprint(), b.trace.fingerprint(), "case {case}");
    }
}

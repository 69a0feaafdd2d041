//! The paper's motivation, live: the same Byzantine coordinator destroys
//! the crash-model protocol and bounces off the transformed one.
//!
//! ```text
//! cargo run --example crash_vs_byzantine
//! ```

use ft_modular::certify::{Value, ValueVector};
use ft_modular::core::byzantine::ByzantineConsensus;
use ft_modular::core::config::ProtocolConfig;
use ft_modular::core::crash::{CrashConsensus, CrashMsg};
use ft_modular::core::spec::Resilience;
use ft_modular::core::validator::{check_crash_consensus, check_vector_consensus, detections};
use ft_modular::faults::crash_attacks::{CrashAttack, CrashSaboteur};
use ft_modular::faults::{Attack, ByzantineWrapper};
use ft_modular::fd::TimeoutDetector;
use ft_modular::sim::runner::BoxedActor;
use ft_modular::sim::{Duration, SimConfig, Simulation};

const N: usize = 4;
const SEED: u64 = 11;

fn main() {
    let proposals: Vec<Value> = (0..N as u64).map(|i| 100 + i).collect();
    println!("proposals: {proposals:?}");
    println!("attacker: p0, the round-1 coordinator, lies about p2's value\n");

    // ------------------------------------------------------------------
    // Act 1: the crash-model protocol meets a Byzantine coordinator.
    // ------------------------------------------------------------------
    let report = Simulation::build_boxed(SimConfig::new(N).seed(SEED), |id| {
        let honest = CrashConsensus::new(
            Resilience::new(N, 1),
            id,
            100 + id.0 as u64,
            TimeoutDetector::new(N, Duration::of(150)),
            Duration::of(25),
            Some(Duration::of(40)),
        );
        if id.0 == 0 {
            Box::new(CrashSaboteur::new(
                honest,
                CrashAttack::CorruptEstimate { poison: 31337 },
            )) as BoxedActor<CrashMsg, Value>
        } else {
            Box::new(honest)
        }
    })
    .run();
    println!("== crash-model protocol (Fig. 2) ==");
    for (i, d) in report.decisions.iter().enumerate().skip(1) {
        println!("  p{i} decided {d:?}");
    }
    let verdict = check_crash_consensus(&report, &proposals, &[true, false, false, false]);
    println!("  verdict: {}", render(&verdict.violations));

    // ------------------------------------------------------------------
    // Act 2: the transformed protocol meets the same attack.
    // ------------------------------------------------------------------
    let setup = ProtocolConfig::new(N, 1).seed(SEED).setup();
    let report = Simulation::build_boxed(SimConfig::new(N).seed(SEED), |id| {
        let honest = ByzantineConsensus::new(&setup, id, 100 + id.0 as u64);
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
    println!("\n== transformed protocol (Fig. 3) ==");
    for (i, d) in report.decisions.iter().enumerate().skip(1) {
        match d {
            Some(v) => println!("  p{i} decided {v:?}"),
            None => println!("  p{i} never decided"),
        }
    }
    let verdict = check_vector_consensus(&report, &proposals, &[true, false, false, false], 1);
    println!("  verdict: {}", render(&verdict.violations));
    println!("  convictions of the attacker:");
    for d in detections(&report.trace) {
        println!(
            "    t={} {} convicted {} ({})",
            d.at, d.observer, d.culprit, d.class
        );
    }
}

fn render(violations: &[String]) -> String {
    if violations.is_empty() {
        "all properties hold".to_string()
    } else {
        format!("VIOLATED — {}", violations.join("; "))
    }
}

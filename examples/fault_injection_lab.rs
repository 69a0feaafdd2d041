//! The fault-injection lab: run the whole attack gallery against the
//! transformed protocol and print, per attack, whether the paper's
//! properties held and which module convicted the attacker.
//!
//! ```text
//! cargo run --example fault_injection_lab
//! ```

use ft_modular::certify::{MessageKind, Value, ValueVector};
use ft_modular::core::byzantine::ByzantineConsensus;
use ft_modular::core::config::ProtocolConfig;
use ft_modular::core::validator::{check_vector_consensus, detections};
use ft_modular::crypto::rsa::KeyPair;
use ft_modular::faults::attacks::{Attack, Trigger};
use ft_modular::faults::ByzantineWrapper;
use ft_modular::sim::runner::BoxedActor;
use ft_modular::sim::{Duration, ProcessId, SimConfig, Simulation, VirtualTime};

const N: usize = 4;
const ATTACKER: u32 = 3;

fn main() {
    let mut rng = ft_modular::crypto::rng_from_seed(0xBAD);
    let wrong_key = KeyPair::generate(&mut rng, 128);
    let gallery = [
        (
            "muteness (silent after t=30)",
            Attack::Mute {
                after: VirtualTime::at(30),
            },
        ),
        (
            "vector corruption",
            Attack::CorruptVector {
                entry: 1,
                poison: 666,
            },
        ),
        ("round jumping (+5)", Attack::JumpRound { jump: 5 }),
        ("vote duplication", Attack::DuplicateVotes),
        (
            "forged DECIDE",
            Attack::Forge {
                kind: MessageKind::Decide,
                poison: 999,
                trigger: Trigger::At(VirtualTime::at(1)),
            },
        ),
        (
            "wrong signing key",
            Attack::Resign {
                sender: None,
                key: Some(wrong_key),
            },
        ),
        (
            "identity theft (claims p1)",
            Attack::Resign {
                sender: Some(ProcessId(1)),
                key: None,
            },
        ),
        ("INIT equivocation", Attack::EquivocateInit { alt: 1313 }),
        (
            "spurious CURRENT",
            Attack::Forge {
                kind: MessageKind::Current,
                poison: 4242,
                trigger: Trigger::At(VirtualTime::at(1)),
            },
        ),
    ];

    println!("n = {N}, F = 1, attacker = p{ATTACKER}; every row is one simulated run\n");
    println!(
        "{:<28} {:<11} {:<10} {:<22} classes seen",
        "attack", "agreement", "validity", "first conviction"
    );
    println!("{}", "-".repeat(95));

    for (name, attack) in gallery {
        let proposals: Vec<Value> = (0..N as u64).map(|i| 100 + i).collect();
        let setup = ProtocolConfig::new(N, 1).seed(5).setup();
        let report = Simulation::build_boxed(SimConfig::new(N).seed(5), |id| {
            let honest = ByzantineConsensus::new(&setup, id, proposals[id.index()]);
            if id.0 == ATTACKER {
                Box::new(ByzantineWrapper::new(
                    honest,
                    attack.clone(),
                    setup.keys[ATTACKER as usize].clone(),
                    Duration::of(10),
                )) as BoxedActor<_, ValueVector>
            } else {
                Box::new(honest)
            }
        })
        .run();

        let mut faulty = [false; N];
        faulty[ATTACKER as usize] = true;
        let v = check_vector_consensus(&report, &proposals, &faulty, 1);
        let det = detections(&report.trace);
        let mut classes: Vec<&str> = det
            .iter()
            .filter(|d| d.observer.0 != ATTACKER)
            .map(|d| d.class.as_str())
            .collect();
        classes.sort_unstable();
        classes.dedup();
        let first = det
            .iter()
            .filter(|d| d.observer.0 != ATTACKER)
            .map(|d| format!("t={} by {}", d.at, d.observer))
            .next()
            .unwrap_or_else(|| "(none needed)".to_string());
        println!(
            "{:<28} {:<11} {:<10} {:<22} {}",
            name,
            yes(v.agreement && v.termination),
            yes(v.validity),
            first,
            if classes.is_empty() {
                "-".to_string()
            } else {
                classes.join(", ")
            },
        );
    }
    println!(
        "\n'(none needed)' marks faults that are either handled by the muteness detector\n\
         alone or are not locally detectable (equivocation) — properties hold regardless."
    );

    sweep_demo();
}

/// The same gallery, harness-style: a scenario matrix fanned across
/// worker threads, aggregated into the structured JSON report. The matrix
/// crosses the protocol axis, so every cell runs once under the
/// transformed Hurfin–Raynal instance and once under transformed
/// Chandra–Toueg. The report is a pure function of `(matrix, base seed)`
/// — rerun it on any number of threads and the bytes do not change.
fn sweep_demo() {
    use ft_modular::faults::{sweep_scenarios, FaultBehavior, ScenarioMatrix};

    let matrix = ScenarioMatrix::new(
        vec![(4, 1), (5, 1), (7, 2)],
        vec![
            FaultBehavior::Honest,
            FaultBehavior::VectorCorrupt,
            FaultBehavior::ForgeDecide,
        ],
    )
    .cross_protocols();
    let report = sweep_scenarios(&matrix.enumerate(), 1, 0x1AB, 4);
    println!("\n== scenario sweep (3 systems x 3 behaviors x 2 protocols, 4 worker threads) ==\n");
    println!("{}", report.to_json().render());
    assert!(report.all_ok(), "a sweep cell violated the spec");
    println!("\nall {} runs satisfied the spec", report.records.len());
}

fn yes(b: bool) -> &'static str {
    if b {
        "ok"
    } else {
        "VIOLATED"
    }
}

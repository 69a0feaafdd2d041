//! A replicated log built from repeated vector consensus — the classic
//! application consensus papers motivate. Each slot of the log is decided
//! by one instance of the transformed protocol; a Byzantine process
//! attacks a different way in every slot and the log stays consistent.
//!
//! ```text
//! cargo run --example replicated_log
//! ```

use ft_modular::certify::{MessageKind, ValueVector};
use ft_modular::core::byzantine::log::{check_log_consistency, ReplicatedLog};
use ft_modular::core::byzantine::ByzantineConsensus;
use ft_modular::core::config::ProtocolConfig;
use ft_modular::faults::attacks::{Attack, Trigger};
use ft_modular::faults::ByzantineWrapper;
use ft_modular::runtime::{Duration, SendBoxedActor, VirtualTime};
use ft_modular::sim::{SimConfig, Simulation};

const N: usize = 4;
const SLOTS: u64 = 6;

fn main() {
    // ------------------------------------------------------------------
    // Part 1: true state-machine replication — one simulation, one
    // ReplicatedLog actor per replica, slots pipelined inside the run.
    // A replica crashes in the middle; the survivors never fork.
    // ------------------------------------------------------------------
    println!("== part 1: ReplicatedLog, one simulation, crash mid-log ==");
    let setup = ProtocolConfig::new(N, 1).seed(42).setup();
    let report = Simulation::build_boxed(
        SimConfig::new(N).seed(42).crash(2, VirtualTime::at(40)),
        |id| {
            Box::new(ReplicatedLog::<ByzantineConsensus>::new(
                &setup,
                id,
                4,
                |slot, p| 1000 * slot + 100 + p as u64,
            ))
        },
    )
    .run();
    match check_log_consistency(&report.decisions, &report.crashed, 3) {
        Ok(log) => {
            for (i, v) in log.iter().enumerate() {
                println!("  slot {i}: {v:?}");
            }
            println!(
                "  {} live replicas agree on {} slots (p2 crashed at t=40); {} msgs, t = {}",
                report.crashed.iter().filter(|c| !**c).count(),
                log.len(),
                report.metrics.messages_sent,
                report.end_time
            );
        }
        Err(e) => println!("  LOG INCONSISTENT: {e}"),
    }

    // ------------------------------------------------------------------
    // Part 2: one fresh consensus instance per slot, with the Byzantine
    // p3 rotating its attack strategy every slot.
    // ------------------------------------------------------------------
    println!("\n== part 2: per-slot instances, rotating attacks ==");
    println!("p3 is Byzantine and rotates its strategy every slot\n");

    let mut log: Vec<ValueVector> = Vec::new();
    for slot in 0..SLOTS {
        // Each slot: fresh keys and a fresh instance; commands are
        // "client requests" 1000*slot + client id.
        let setup = ProtocolConfig::new(N, 1).seed(slot).setup();
        let attack = match slot % 4 {
            0 => Attack::CorruptVector {
                entry: 1,
                poison: 31337,
            },
            1 => Attack::Mute {
                after: VirtualTime::at(5),
            },
            2 => Attack::Forge {
                kind: MessageKind::Decide,
                poison: 999,
                trigger: Trigger::At(VirtualTime::at(1)),
            },
            _ => Attack::DuplicateVotes,
        };
        let attack_name = match slot % 4 {
            0 => "vector corruption",
            1 => "muteness",
            2 => "forged DECIDE",
            _ => "vote duplication",
        };
        let report = Simulation::build_boxed(SimConfig::new(N).seed(slot), |id| {
            let honest = ByzantineConsensus::new(&setup, id, 1000 * slot + 100 + id.0 as u64);
            if id.0 == 3 {
                Box::new(ByzantineWrapper::new(
                    honest,
                    attack.clone(),
                    setup.keys[3].clone(),
                    Duration::of(10),
                )) as SendBoxedActor<_, ValueVector>
            } else {
                Box::new(honest)
            }
        })
        .run();

        let decided = (0..3)
            .filter_map(|p| report.decisions[p].clone())
            .next()
            .expect("correct processes decided");
        let consistent = (0..3)
            .filter_map(|p| report.decisions[p].as_ref())
            .all(|v| *v == decided);
        println!("slot {slot}: {attack_name:<18} decided {decided:?}  consistent={consistent}");
        assert!(consistent, "log diverged at slot {slot}");
        log.push(decided);
    }

    println!("\nfinal log ({} slots):", log.len());
    for (i, v) in log.iter().enumerate() {
        println!("  [{i}] {v:?}");
    }
    println!("\nEvery slot carries >= n − F client commands despite a different");
    println!("attack per slot — the log never forked.");
}

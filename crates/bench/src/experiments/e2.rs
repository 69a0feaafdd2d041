//! E2 — the paper's motivation: the crash protocol is not Byzantine-
//! tolerant; the transformed protocol is, under the same attacks.

use ftm_certify::{MessageKind, Value};
use ftm_core::crash::{CrashConsensus, CrashMsg};
use ftm_core::spec::Resilience;
use ftm_faults::attacks::{Attack, Trigger};
use ftm_faults::crash_attacks::{CrashAttack, CrashSaboteur};
use ftm_fd::TimeoutDetector;
use ftm_sim::runner::BoxedActor;
use ftm_sim::{Duration, SimConfig, Simulation, VirtualTime};

use crate::experiments::common::{crash_verdict_with_faulty, run_byz, verdict_with_faulty};
use crate::report::{pct, Table};

const N: usize = 4;
const SEEDS: u64 = 20;

fn run_crash_attacked(seed: u64, attacker: u32, attack: CrashAttack) -> bool {
    let report = Simulation::build_boxed(SimConfig::new(N).seed(seed), |id| {
        let honest = CrashConsensus::new(
            Resilience::new(N, 1),
            id,
            100 + id.0 as u64,
            TimeoutDetector::new(N, Duration::of(150)),
            Duration::of(25),
            Some(Duration::of(40)),
        );
        if id.0 == attacker {
            Box::new(CrashSaboteur::new(honest, attack.clone())) as BoxedActor<CrashMsg, Value>
        } else {
            Box::new(honest)
        }
    })
    .run();
    crash_verdict_with_faulty(&report, N, &[attacker as usize]).ok()
}

/// Runs E2 and renders its markdown section.
pub fn run() -> String {
    let mut out = String::from(
        "## E2 — The same Byzantine process, before and after the transformation\n\n\
         n = 4, one attacker, 20 seeds per row. A row counts the runs in which\n\
         all three properties survived. The crash-model protocol (Fig. 2) trusts\n\
         every byte; the transformed protocol (Fig. 3) filters it through the\n\
         module stack.\n\n",
    );
    let mut t = Table::new(["attack", "attacker", "crash protocol ok", "transformed ok"]);

    // Estimate/vector corruption by the round-1 coordinator.
    let crash_ok = (0..SEEDS)
        .filter(|&s| run_crash_attacked(s, 0, CrashAttack::CorruptEstimate { poison: 31337 }))
        .count();
    let byz_ok = (0..SEEDS)
        .filter(|&s| {
            let (report, _) = run_byz(
                N,
                1,
                s,
                &[],
                Some((
                    0,
                    Attack::CorruptVector {
                        entry: 2,
                        poison: 31337,
                    },
                )),
            );
            verdict_with_faulty(&report, N, 1, &[0]).ok()
        })
        .count();
    t.row([
        "value corruption".to_string(),
        "p0 (coordinator)".to_string(),
        pct(crash_ok, SEEDS as usize),
        pct(byz_ok, SEEDS as usize),
    ]);

    // Forged decision by a non-coordinator.
    let crash_ok = (0..SEEDS)
        .filter(|&s| {
            run_crash_attacked(
                s,
                3,
                CrashAttack::ForgeDecide {
                    at: VirtualTime::at(1),
                    poison: 999,
                },
            )
        })
        .count();
    let byz_ok = (0..SEEDS)
        .filter(|&s| {
            let (report, _) = run_byz(
                N,
                1,
                s,
                &[],
                Some((
                    3,
                    Attack::Forge {
                        kind: MessageKind::Decide,
                        poison: 999,
                        trigger: Trigger::At(VirtualTime::at(1)),
                    },
                )),
            );
            verdict_with_faulty(&report, N, 1, &[3]).ok()
        })
        .count();
    t.row([
        "forged DECIDE".to_string(),
        "p3".to_string(),
        pct(crash_ok, SEEDS as usize),
        pct(byz_ok, SEEDS as usize),
    ]);

    out.push_str(&t.to_string());
    out.push('\n');
    out
}

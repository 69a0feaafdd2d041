//! E2 — the paper's motivation: the crash protocol is not Byzantine-
//! tolerant; the transformed protocol is, under the same attacks.

use ftm_certify::MessageKind;
use ftm_core::crash::HrCounts;
use ftm_core::rounds::hr::HurfinRaynal;
use ftm_faults::attacks::{Attack, Trigger};
use ftm_faults::crash_attacks::CrashAttack;
use ftm_faults::AttackRun;
use ftm_sim::{Duration, VirtualTime};

use crate::experiments::common::run_crash;
use crate::report::{pct, Table};

const N: usize = 4;
const SEEDS: u64 = 20;

fn crash_survives(seed: u64, attacker: u32, attack: CrashAttack) -> bool {
    run_crash::<HurfinRaynal<HrCounts>>(N, seed, &[], Some((attacker, attack)))
        .verdict
        .ok()
}

fn transformed_survives(seed: u64, attacker: u32, attack: Attack) -> bool {
    let run = AttackRun::new(N, 1, seed, attacker).injection_delay(Duration::of(10));
    run.verdict(&run.run(Some(attack))).ok()
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
        .filter(|&s| crash_survives(s, 0, CrashAttack::CorruptEstimate { poison: 31337 }))
        .count();
    let byz_ok = (0..SEEDS)
        .filter(|&s| {
            transformed_survives(
                s,
                0,
                Attack::CorruptVector {
                    entry: 2,
                    poison: 31337,
                },
            )
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
            crash_survives(
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
            transformed_survives(
                s,
                3,
                Attack::Forge {
                    kind: MessageKind::Decide,
                    poison: 999,
                    trigger: Trigger::At(VirtualTime::at(1)),
                },
            )
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

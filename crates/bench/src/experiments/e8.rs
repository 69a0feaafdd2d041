//! E8 — ablation: disable one module of the Fig. 1 stack at a time and
//! show which attack then breaks which property.

use ftm_core::config::{Checks, ProtocolConfig};
use ftm_core::validator::detections;
use ftm_faults::{Attack, AttackRun};
use ftm_sim::{Duration, ProcessId};

use crate::report::{pct, Table};

const N: usize = 4;
const SEEDS: u64 = 15;

fn checks(name: &str) -> Checks {
    match name {
        "full stack" => Checks::default(),
        "no signatures" => Checks {
            signatures: false,
            ..Checks::default()
        },
        "no certificates" => Checks {
            certificates: false,
            ..Checks::default()
        },
        "no state machines" => Checks {
            timing: false,
            ..Checks::default()
        },
        other => panic!("unknown stack configuration {other:?}"),
    }
}

fn attack(name: &str) -> Attack {
    match name {
        "vector corruption" => Attack::CorruptVector {
            entry: 2,
            poison: 666,
        },
        "identity theft" => Attack::Resign {
            sender: Some(ProcessId(1)),
            key: None,
        },
        "vote duplication" => Attack::DuplicateVotes,
        other => panic!("unknown attack {other:?}"),
    }
}

fn attacker_for(attack_name: &str) -> u32 {
    match attack_name {
        // The corruptor coordinates round 1; the others act from the side.
        "vector corruption" => 0,
        _ => 3,
    }
}

/// Runs E8 and renders its markdown section.
pub fn run() -> String {
    let mut out = String::from(
        "## E8 — Module ablation: every module is load-bearing\n\n\
         15 seeds per cell. Each cell reports how often all properties held\n\
         with the given module removed while the given attack runs. `framed`\n\
         counts runs in which an *innocent* process was convicted — the failure\n\
         mode the signature module exists to prevent. (Vote duplication runs\n\
         with the round-1 coordinator crashed, n = 7, F = 2, so NEXT votes\n\
         flow.)\n\n",
    );
    let mut t = Table::new(["stack", "attack", "all properties", "honest framed"]);

    for stack_name in [
        "full stack",
        "no signatures",
        "no certificates",
        "no state machines",
    ] {
        for attack_name in ["vector corruption", "identity theft", "vote duplication"] {
            let attacker = attacker_for(attack_name);
            let mut ok = 0;
            let mut framed = 0;
            for seed in 0..SEEDS {
                let (n, f, crashed, att) = if attack_name == "vote duplication" {
                    (7, 2, 1, 6)
                } else {
                    (N, 1, 0, attacker)
                };
                let config = ProtocolConfig::new(n, f)
                    .seed(seed)
                    .checks(checks(stack_name));
                let run = AttackRun::with_config(config, seed, att)
                    .injection_delay(Duration::of(10))
                    .crash_low(crashed);
                let report = run.run(Some(attack(attack_name)));
                if run.verdict(&report).ok() {
                    ok += 1;
                }
                let culprit = format!("p{att}");
                if detections(&report.trace)
                    .iter()
                    .any(|d| d.culprit != culprit)
                {
                    framed += 1;
                }
            }
            t.row([
                stack_name.to_string(),
                attack_name.to_string(),
                pct(ok, SEEDS as usize),
                pct(framed, SEEDS as usize),
            ]);
        }
    }
    out.push_str(&t.to_string());
    out.push('\n');
    out
}

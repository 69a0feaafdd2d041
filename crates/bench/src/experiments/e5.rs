//! E5 — Vector Validity: the ψ = n − 2F bound and Propositions 1–2.

use ftm_faults::{Attack, AttackRun};
use ftm_sim::Duration;

use crate::report::{pct, Table};

const SEEDS: u64 = 20;

/// (label, processes `p0..` crashed at t = 0, optional Byzantine attacker).
type Scenario = (String, usize, Option<u32>);

/// Runs E5 and renders its markdown section.
pub fn run() -> String {
    let mut out = String::from(
        "## E5 — Vector Validity: ψ = n − 2F correct entries (paper §1/§5)\n\n\
         20 seeds per row. `min correct entries` is the minimum, across all\n\
         runs and all deciders, of decided-vector entries belonging to correct\n\
         processes — it must be ≥ ψ. `agreement` doubles as Proposition 2 at\n\
         decision time: no two correct deciders ever hold different certified\n\
         vectors. The adversary rows crash F processes at t = 0 or run an INIT\n\
         equivocator (two-faced proposals — the exact attack Vector Consensus\n\
         was introduced to blunt).\n\n",
    );
    let mut t = Table::new([
        "n",
        "F",
        "ψ",
        "scenario",
        "min correct entries",
        "agreement",
        "all ok",
    ]);

    for (n, f) in [(4usize, 1usize), (5, 1), (7, 2)] {
        let psi = ftm_core::quorum::vector_validity_floor(n, f);
        let scenarios: Vec<Scenario> = vec![
            ("all honest".into(), 0, None),
            (format!("{f} crash @ t=0"), f, None),
            ("1 equivocator".into(), 0, Some((n - 1) as u32)),
        ];
        for (label, crashed, byz) in scenarios {
            let mut faulty: Vec<usize> = (0..crashed).collect();
            faulty.extend(byz.map(|a| a as usize));
            let mut min_correct = usize::MAX;
            let mut agree = 0;
            let mut ok = 0;
            for seed in 0..SEEDS {
                let run = AttackRun::new(n, f, seed, byz.unwrap_or(0))
                    .injection_delay(Duration::of(10))
                    .crash_low(crashed);
                let report = run.run(byz.map(|_| Attack::EquivocateInit { alt: 1313 }));
                let v = match byz {
                    Some(_) => run.verdict(&report),
                    None => run.coalition_verdict(&[], &report),
                };
                if v.agreement {
                    agree += 1;
                }
                if v.ok() {
                    ok += 1;
                }
                for d in report.decisions.iter().flatten() {
                    let correct_entries = d.iter_set().filter(|(k, _)| !faulty.contains(k)).count();
                    min_correct = min_correct.min(correct_entries);
                }
            }
            t.row([
                n.to_string(),
                f.to_string(),
                psi.to_string(),
                label,
                if min_correct == usize::MAX {
                    "n/a".to_string()
                } else {
                    min_correct.to_string()
                },
                pct(agree, SEEDS as usize),
                pct(ok, SEEDS as usize),
            ]);
        }
    }

    out.push_str(&t.to_string());
    out.push('\n');
    out
}

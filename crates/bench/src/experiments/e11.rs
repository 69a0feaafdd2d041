//! E11 — Byzantine coalitions up to F (and the F + 1 breakage row),
//! crossed with network-adversity profiles.
//!
//! The paper's resilience claim is a *budget*: the transformation
//! tolerates any combination of up to F arbitrary-faulty processes, under
//! any network that eventually behaves (some GST exists). This experiment
//! sweeps both halves of that sentence at once. The coalition axis grows
//! heterogeneous attacker coalitions one member at a time — cycling
//! through a palette of behaviors caught by *different* modules — from a
//! single attacker up to F + 1, one past the budget. The network axis
//! runs every coalition under the calm profile (the historical defaults),
//! an adverse profile (10× delay spread, late GST) and a no-GST profile
//! (pure asynchrony, terminated by a round cap instead of a decision).
//!
//! The invariants the table demonstrates for these coalitions, and which
//! this experiment *asserts* before rendering (generation fails loudly if
//! they break). They hold for the palette's behaviours, not for every
//! behaviour: `tests/agreement_breaks.rs` pins runs A–C, in which one
//! faulty process breaks Agreement at n = 4, F = 1.
//!
//! * **within the budget, safety holds under every profile** —
//!   Agreement and Vector Validity hold among honest processes in every
//!   coalition ≤ F cell, even without GST;
//! * **within the budget, termination needs only a GST** — every
//!   coalition ≤ F cell under a profile with a GST terminates;
//! * **past the budget, nothing is promised** — the `coalition=F+1`
//!   rows are *reported, not asserted*: they document the observed
//!   breakage, which is not just lost termination — a vector corrupter
//!   backed by enough accomplices can get a poisoned entry decided,
//!   breaking validity itself.
//!
//! A second table isolates the detector axis: the generic adaptive ◇M
//! versus the round-aware variant, under calm and adverse networks, on
//! the honest-with-crashed-coordinator cell that forces suspicion
//! traffic. `fd-mistakes` counts wrongful-suspicion corrections
//! (premature timeouts later contradicted by a message); `honest-mist.`
//! restricts that to peers never convicted — mistakes against processes
//! that deserved the benefit of the doubt. Neither policy wins every
//! cell: they tie on the calm profile, and under adverse delays which one
//! corrects more often depends on the system size.

use ftm_core::config::MutenessMode;
use ftm_faults::{sweep_scenarios, FaultBehavior, NetworkProfile, Scenario};
use ftm_sim::Duration;

use crate::report::Table;

const BASE_SEED: u64 = 0xE11;
const REPEATS: usize = 3;
const THREADS: usize = 4;

/// Behavior palette for growing coalitions: member `i` takes entry
/// `i mod 4`, so every coalition of size ≥ 2 is heterogeneous and every
/// module layer (certification, ◇M, automaton, spurious-message checks)
/// sees an attacker as the coalition grows.
const PALETTE: [FaultBehavior; 4] = [
    FaultBehavior::VectorCorrupt,
    FaultBehavior::Mute,
    FaultBehavior::DuplicateVotes,
    FaultBehavior::ForgeDecide,
];

fn coalition_scenarios() -> Vec<Scenario> {
    let systems = [(4usize, 1usize), (5, 1), (7, 2)];
    let networks = [
        NetworkProfile::calm(),
        NetworkProfile::adverse(),
        NetworkProfile::no_gst(),
    ];
    let mut out = Vec::new();
    for protocol in ftm_certify::ProtocolId::all() {
        for &network in &networks {
            for &(n, f) in &systems {
                for size in 1..=(f + 1).min(n - 1) {
                    let behaviors: Vec<FaultBehavior> =
                        (0..size).map(|i| PALETTE[i % PALETTE.len()]).collect();
                    out.push(
                        Scenario::coalition_of(n, f, &behaviors)
                            .protocol(protocol)
                            .network(network),
                    );
                }
            }
        }
    }
    out
}

/// Runs E11 and renders its markdown section.
///
/// # Panics
///
/// Panics if a within-budget coalition violates safety (agreement or
/// vector validity among honest processes) under any profile, or fails
/// to terminate under a profile with a GST — the paper's resilience
/// claim, over the palette's behaviours. F + 1 rows are reported, never
/// asserted.
pub fn run() -> String {
    let scenarios = coalition_scenarios();
    let report = sweep_scenarios(&scenarios, REPEATS, BASE_SEED, THREADS);

    // Per-cell property tallies (term, agree, valid, runs), plus the
    // hard invariants for within-budget cells.
    type Tally = (u64, u64, u64, u64);
    let mut tallies: std::collections::BTreeMap<&str, Tally> = std::collections::BTreeMap::new();
    for rec in &report.records {
        let f: u64 = rec
            .cell
            .split_whitespace()
            .find_map(|t| t.strip_prefix("f="))
            .and_then(|v| v.parse().ok())
            .expect("cell key carries f=");
        let within_budget = rec.get("coalition-size") <= f;
        let has_gst = !rec.cell.contains("net=no-gst");
        if within_budget {
            assert_eq!(
                rec.get("prop-agreement"),
                1,
                "agreement violated within the budget in {} (seed {:#x})",
                rec.cell,
                rec.seed
            );
            assert_eq!(
                rec.get("prop-validity"),
                1,
                "vector validity violated within the budget in {} (seed {:#x})",
                rec.cell,
                rec.seed
            );
            if has_gst {
                assert_eq!(
                    rec.get("prop-termination"),
                    1,
                    "within-budget coalition failed to terminate in {} (seed {:#x})",
                    rec.cell,
                    rec.seed
                );
            }
        }
        let e = tallies.entry(rec.cell.as_str()).or_insert((0, 0, 0, 0));
        e.0 += rec.get("prop-termination");
        e.1 += rec.get("prop-agreement");
        e.2 += rec.get("prop-validity");
        e.3 += 1;
    }

    let mut out = String::from(
        "## E11 — Coalitions up to F and beyond, across network profiles\n\n\
         3 seeded runs per cell via the parallel sweep harness (base seed\n\
         0xE11), both protocols (`hr` default, `ct` marked). Coalitions\n\
         grow one member at a time through a heterogeneous behavior\n\
         palette (vector-corrupt, mute, duplicate-votes, forge-decide),\n\
         from one attacker to F + 1 — one past the paper's budget. Each\n\
         coalition runs under the calm profile (delays 1..10, GST 2000),\n\
         an adverse one (delays 1..250, GST 2500) and a no-GST profile\n\
         (pure asynchrony, capped at 12 rounds). `term`/`agree`/`valid`\n\
         count runs where each property held; F = ⌊(n−1)/3⌋. Generation\n\
         *asserts* the paper's claim for this palette only (runs A–C of\n\
         `tests/agreement_breaks.rs` break agreement at n = 4, F = 1): in\n\
         every coalition ≤ F row, `agree` and `valid` are full under every\n\
         profile, and `term` is full whenever a GST exists. The F + 1 rows\n\
         are reported, not asserted — they document the breakage past the\n\
         budget, which is not just lost termination (quorum n − F\n\
         unreachable once F + 1 members go mute or are quarantined) and\n\
         capped rounds under no GST: with enough accomplices a vector\n\
         corrupter can get a poisoned entry decided, and `valid` drops\n\
         below full. `quar` is the median count of envelopes dropped\n\
         without inspection because their sender was already convicted.\n\n",
    );

    let mut t = Table::new([
        "cell",
        "term",
        "agree",
        "valid",
        "p50 rounds",
        "p50 end-time",
        "p50 detect",
        "p50 quar",
    ]);
    for (cell, stats) in report.cells() {
        let p50 = |name: &str| {
            stats
                .stats
                .get(name)
                .map_or_else(|| "0".into(), |s| s.p50.to_string())
        };
        let (term_ok, agree_ok, valid_ok, runs) = tallies[cell.as_str()];
        t.row([
            cell.clone(),
            format!("{term_ok}/{runs}"),
            format!("{agree_ok}/{runs}"),
            format!("{valid_ok}/{runs}"),
            p50("rounds"),
            p50("end-time"),
            p50("detections"),
            p50("stack-quarantined"),
        ]);
    }
    out.push_str(&t.to_string());
    out.push('\n');

    out.push_str(
        "### Detector mistake rates: adaptive vs round-aware \u{25c7}M\n\n\
         Honest runs with the round-1 coordinator crashed (the cell that\n\
         forces suspicion traffic before progress), under the calm and\n\
         adverse profiles, 3 seeds per cell. `mistakes` = wrongful\n\
         suspicions later corrected by a message from the suspect;\n\
         `honest-mist.` = the subset against peers never convicted. The\n\
         adaptive detector doubles a peer's allowance after one mistake;\n\
         the round-aware allowance grows only linearly with the round\n\
         (Δ₀ + r·δ), a tighter bound that suspects genuinely mute\n\
         processes sooner in late rounds. Neither wins every cell: on the\n\
         calm profile they tie, and under adverse delays which one\n\
         corrects more often depends on the system size.\n\n",
    );

    let mut detector_scenarios = Vec::new();
    // The round-aware allowance grows by one poll interval per round.
    let round_aware = MutenessMode::RoundAware {
        per_round: Duration::of(25),
    };
    for &muteness in &[MutenessMode::Adaptive, round_aware] {
        for &network in &[NetworkProfile::calm(), NetworkProfile::adverse()] {
            for &(n, f) in &[(5usize, 1usize), (7, 2)] {
                detector_scenarios.push(
                    Scenario::new(n, f, FaultBehavior::Honest)
                        .extra_crashes(1)
                        .muteness(muteness)
                        .network(network),
                );
            }
        }
    }
    let detector_report = sweep_scenarios(&detector_scenarios, REPEATS, 0x4E11, THREADS);
    let mut t = Table::new([
        "cell",
        "ok",
        "p50 suspicions",
        "p50 mistakes",
        "p50 honest-mist.",
        "p50 end-time",
    ]);
    for (cell, stats) in detector_report.cells() {
        let p50 = |name: &str| {
            stats
                .stats
                .get(name)
                .map_or_else(|| "0".into(), |s| s.p50.to_string())
        };
        t.row([
            cell.clone(),
            format!("{}/{}", stats.ok_runs, stats.runs),
            p50("suspicions"),
            p50("stack-fd-mistakes"),
            p50("stack-fd-honest-mistakes"),
            p50("end-time"),
        ]);
    }
    out.push_str(&t.to_string());
    out.push('\n');
    out
}

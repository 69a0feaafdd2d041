//! The coalition property campaign: for *any* seeded draw of a coalition
//! of up to F attackers — random size, random member placement, random
//! per-member behaviors from the full non-benign taxonomy — under *any*
//! drawn network profile, the transformed protocol must keep its
//! contract:
//!
//! * **Agreement + Vector Validity** among honest processes, always;
//! * **Termination** whenever the drawn profile has a GST;
//! * **no wrongful convictions** — every process convicted by an honest
//!   observer is a real coalition member (the channel source pins even
//!   an identity thief, so forged sender identities must not frame the
//!   victim).
//!
//! Cases are drawn from the in-tree seeded PRNG, so every case is
//! identified by its iteration number and replays identically everywhere.
//! Both transformed protocols get their own campaign of 64 draws — the
//! hard CI gate runs all of them.

use ft_modular::certify::ProtocolId;
use ft_modular::core::validator::detections;
use ft_modular::crypto::prng::{Rng64, SplitMix64};
use ft_modular::faults::{coalition_faulty, AttackRun, FaultBehavior, NetworkProfile, Scenario};

/// The behaviors a drawn coalition member may take: the full taxonomy
/// minus `Honest` (a coalition of honest processes proves nothing).
fn attacker_palette() -> Vec<FaultBehavior> {
    FaultBehavior::all()
        .into_iter()
        .filter(|&b| b != FaultBehavior::Honest)
        .collect()
}

/// Draws a coalition of `size` distinct members with random placement
/// (the coordinator p0 is fair game) and random behaviors.
fn draw_coalition(
    gen: &mut SplitMix64,
    n: usize,
    size: usize,
    palette: &[FaultBehavior],
) -> Vec<(u32, FaultBehavior)> {
    let mut ids: Vec<u32> = (0..n as u32).collect();
    // Partial Fisher–Yates: the first `size` entries end up random and
    // distinct.
    for i in 0..size {
        let j = gen.gen_range_u64(i as u64, n as u64 - 1) as usize;
        ids.swap(i, j);
    }
    (0..size)
        .map(|i| {
            let b = palette[gen.gen_range_u64(0, palette.len() as u64 - 1) as usize];
            (ids[i], b)
        })
        .collect()
}

/// One campaign: 64 seeded draws against `protocol`.
fn campaign(protocol: ProtocolId, campaign_seed: u64) {
    let mut gen = SplitMix64::from_seed(campaign_seed);
    let palette = attacker_palette();
    let systems = [(4usize, 1usize), (5, 1), (7, 2)];
    let networks = [
        NetworkProfile::calm(),
        NetworkProfile::jittery(),
        NetworkProfile::adverse(),
    ];
    for case in 0..64 {
        let seed = gen.next_u64();
        let (n, f) = systems[gen.gen_range_u64(0, systems.len() as u64 - 1) as usize];
        let size = gen.gen_range_u64(1, f as u64) as usize;
        let members = draw_coalition(&mut gen, n, size, &palette);
        let network = networks[gen.gen_range_u64(0, networks.len() as u64 - 1) as usize];

        let run = AttackRun::new(n, f, seed, members[0].0)
            .protocol(protocol)
            .network(network);
        let report = run.run_coalition(&members);
        let verdict = run.coalition_verdict(&members, &report);

        // The drawn profiles all have a GST, so the full contract —
        // Agreement, Termination, Vector Validity — must hold.
        assert!(
            verdict.ok(),
            "case {case} ({protocol}): seed={seed:#x} n={n} f={f} \
             members={members:?} net={}: {:?}",
            network.label,
            verdict.violations
        );

        // No wrongful convictions: every conviction spoken by an honest
        // observer names a coalition member.
        let faulty = coalition_faulty(n, &members);
        for d in detections(&report.trace) {
            if faulty[d.observer.index()] {
                continue; // coalition members may say anything
            }
            let convicted: u32 = d
                .culprit
                .strip_prefix('p')
                .and_then(|p| p.parse().ok())
                .unwrap_or_else(|| panic!("unparseable culprit {:?}", d.culprit));
            assert!(
                members.iter().any(|&(m, _)| m == convicted),
                "case {case} ({protocol}): seed={seed:#x} members={members:?} \
                 net={}: honest p{} wrongfully convicted p{convicted} ({})",
                network.label,
                d.observer.0,
                d.class
            );
        }
    }
}

#[test]
fn hurfin_raynal_survives_random_coalitions_under_random_networks() {
    campaign(ProtocolId::HurfinRaynal, 0xC0A1);
}

#[test]
fn chandra_toueg_survives_random_coalitions_under_random_networks() {
    campaign(ProtocolId::ChandraToueg, 0xC0A2);
}

/// Pure asynchrony: no GST at all. Termination is no longer owed (the
/// round cap is the backstop), but safety and conviction attribution
/// still are — 16 draws per protocol over *active* behaviors (mute and
/// crash coalitions park the run against the simulator's time limit,
/// which proves nothing beyond what the GST campaigns already cover).
#[test]
fn safety_holds_without_any_gst() {
    let active: Vec<FaultBehavior> = attacker_palette()
        .into_iter()
        .filter(|&b| b != FaultBehavior::Crash && b != FaultBehavior::Mute)
        .collect();
    let mut gen = SplitMix64::from_seed(0xA57C);
    for protocol in ProtocolId::all() {
        for case in 0..16 {
            let seed = gen.next_u64();
            let (n, f) = (7usize, 2usize);
            let size = gen.gen_range_u64(1, f as u64) as usize;
            let members = draw_coalition(&mut gen, n, size, &active);

            let run = AttackRun::new(n, f, seed, members[0].0)
                .protocol(protocol)
                .network(NetworkProfile::no_gst());
            let report = run.run_coalition(&members);
            let verdict = run.coalition_verdict(&members, &report);
            assert!(
                verdict.agreement && verdict.validity,
                "case {case} ({protocol}): seed={seed:#x} members={members:?}: \
                 safety broke without GST: {:?}",
                verdict.violations
            );
            let faulty = coalition_faulty(n, &members);
            for d in detections(&report.trace) {
                if faulty[d.observer.index()] {
                    continue;
                }
                let convicted: u32 = d
                    .culprit
                    .strip_prefix('p')
                    .and_then(|p| p.parse().ok())
                    .unwrap_or_default();
                assert!(
                    members.iter().any(|&(m, _)| m == convicted),
                    "case {case} ({protocol}): honest p{} wrongfully \
                     convicted p{convicted}",
                    d.observer.0
                );
            }
        }
    }
}

/// A member index drawn by the campaigns is a real process id.
#[test]
fn drawn_coalitions_are_distinct_and_in_range() {
    let mut gen = SplitMix64::from_seed(7);
    let palette = attacker_palette();
    for _ in 0..200 {
        let members = draw_coalition(&mut gen, 10, 3, &palette);
        assert_eq!(members.len(), 3);
        let ids: std::collections::BTreeSet<u32> = members.iter().map(|&(m, _)| m).collect();
        assert_eq!(ids.len(), 3, "duplicate members in {members:?}");
        assert!(ids.iter().all(|&m| m < 10));
        // And the Scenario constructor accepts them.
        let _ = Scenario::coalition(10, 3, members);
    }
}

/// The deep-verify cell the weekly CI cron runs: a large coalition —
/// F = 10 simultaneous attackers, every fourth one mute — at n = 31
/// under the adverse profile. Too slow for the per-push gate
/// (`--ignored` opts in), but the budget claim is about *any* coalition
/// up to F, and 10 is a very different quorum geometry than 3.
#[test]
#[ignore = "deep-verify: minutes-long; run with --ignored in the weekly cron"]
fn large_coalition_at_the_full_budget_under_adversity() {
    let palette = [
        FaultBehavior::VectorCorrupt,
        FaultBehavior::DuplicateVotes,
        FaultBehavior::ForgeDecide,
        FaultBehavior::Mute,
    ];
    let members: Vec<(u32, FaultBehavior)> = (0..10)
        .map(|i| (30 - i as u32, palette[i % palette.len()]))
        .collect();
    for protocol in ProtocolId::all() {
        let run = AttackRun::new(31, 10, 0xB16C0A1, members[0].0)
            .protocol(protocol)
            .network(NetworkProfile::adverse());
        let report = run.run_coalition(&members);
        let verdict = run.coalition_verdict(&members, &report);
        assert!(
            verdict.ok(),
            "({protocol}) n=31 F=10 coalition under adversity: {:?}",
            verdict.violations
        );
        let faulty = coalition_faulty(31, &members);
        let wrongful: Vec<String> = detections(&report.trace)
            .into_iter()
            .filter(|d| !faulty[d.observer.index()])
            .filter(|d| {
                let convicted: Option<u32> =
                    d.culprit.strip_prefix('p').and_then(|p| p.parse().ok());
                convicted.is_none_or(|c| !members.iter().any(|&(m, _)| m == c))
            })
            .map(|d| format!("p{} convicted {} ({})", d.observer.0, d.culprit, d.class))
            .collect();
        assert!(wrongful.is_empty(), "wrongful convictions: {wrongful:?}");
        // With 10 attackers the stack must actually have worked for a
        // living: at least one conviction from some honest observer.
        assert!(
            detections(&report.trace)
                .iter()
                .any(|d| !faulty[d.observer.index()]),
            "no honest process convicted anyone out of a 10-member coalition"
        );
    }
}

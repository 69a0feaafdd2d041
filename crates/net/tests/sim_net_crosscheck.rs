//! Sim/net cross-check: the same `(n, F)` system, workload and attacker
//! produce the same decisions and the same conviction split whether the
//! stack runs under the deterministic simulator or over loopback TCP.
//!
//! This is the issue's "run the Fig. 1 stack unchanged" acceptance test:
//! the actors are byte-for-byte the same types, only the `Runtime`
//! underneath differs.
//!
//! # What is compared, and what is deliberately not
//!
//! Compared — because they are *content-deterministic* (forced by the
//! protocol, independent of message timing):
//!
//! * every honest replica's decided log, slot for slot, across the two
//!   runtimes. With the attacker signing everything with the wrong key,
//!   all of its messages are rejected at the signature check, so each
//!   slot's certified vector can only be built from the `n − F = 3`
//!   honest INITs — the decided vectors are pinned regardless of
//!   schedule;
//! * the deduplicated conviction set `(observer, culprit, class)`: every
//!   honest replica convicts the attacker of the same tangible fault
//!   class on first contact, and convicts nobody else.
//!
//! Excluded — because they are *schedule-dependent* and legitimately
//! differ between virtual time and wall-clock TCP (see the determinism
//! contract in `ftm-net`'s crate docs): message/byte counters (retry and
//! interleaving dependent), end times (virtual ticks vs elapsed
//! milliseconds), the raw note streams (duplicate detections fire once
//! per offending message received, and how many arrive before halt is a
//! race), and per-round timing metrics.

use std::collections::BTreeSet;

use ftm_core::byzantine::log::ReplicatedLog;
use ftm_core::byzantine::ByzantineConsensus;
use ftm_core::config::ProtocolConfig;
use ftm_core::validator::detections;
use ftm_crypto::rsa::KeyPair;
use ftm_faults::{log_command, Attack, AttackRun, ByzantineLogWrapper};
use ftm_net::{parse_convictions, run_loopback_cluster, ClusterConfig};
use ftm_runtime::time::Duration;
use ftm_runtime::SendBoxedActor;

const N: usize = 4;
const F: usize = 1;
const SEED: u64 = 9;
const SLOTS: u64 = 8;
/// Emulated per-hop network latency for the TCP run. Raw loopback is the
/// degenerate network where a hop (~50 µs) is *smaller* than OS
/// thread-scheduling noise, so whether the attacker's slot-`s` message
/// lands while an observer is still deciding slot `s` becomes a
/// scheduler race — a real network's millisecond hops dominate that
/// noise, exactly like the simulator's delay model does. Injecting a
/// few ms of hop latency restores that regime, making first-contact
/// detection (and with it the conviction split) content-determined
/// rather than schedule-determined.
const HOP_MS: u64 = 5;
const ATTACKER: u32 = 3;

/// The same wrong-key attack on both sides (seed-deterministic,
/// mirroring [`ftm_faults::FaultBehavior::WrongKey`]).
fn wrong_key() -> Attack {
    let mut rng = ftm_crypto::rng_from_seed(0xBAD ^ SEED);
    Attack::Resign {
        sender: None,
        key: Some(KeyPair::generate(&mut rng, 128)),
    }
}

/// `(observer, culprit, class)` triples, deduplicated: the *set* of
/// convictions is schedule-independent even though the count of repeated
/// detection notes is not.
type Convictions = BTreeSet<(u32, String, String)>;

#[test]
fn simulator_and_tcp_agree_on_decisions_and_convictions() {
    // --- Simulator side -------------------------------------------------
    let sim = AttackRun::new(N, F, SEED, ATTACKER).run_log(SLOTS, Some(wrong_key()));

    let sim_convictions: Convictions = detections(&sim.trace)
        .into_iter()
        .filter(|d| d.observer.0 != ATTACKER)
        .map(|d| (d.observer.0, d.culprit, d.class))
        .collect();

    // --- TCP side -------------------------------------------------------
    let setup = ProtocolConfig::new(N, F).seed(SEED).setup();
    let cfg = ClusterConfig::new(N, 2, SEED).delivery_delay_ms(HOP_MS);
    let reports = run_loopback_cluster(&cfg, |id| {
        let honest = ReplicatedLog::<ByzantineConsensus>::new(&setup, id, SLOTS, log_command);
        if id.0 == ATTACKER {
            Box::new(ByzantineLogWrapper::new(
                honest,
                wrong_key(),
                setup.keys[ATTACKER as usize].clone(),
                Duration::of(3),
            )) as SendBoxedActor<_, _>
        } else {
            Box::new(honest)
        }
    })
    .expect("cluster run");

    let net_convictions: Convictions = reports
        .iter()
        .filter(|r| r.me.0 != ATTACKER)
        .flat_map(|r| {
            parse_convictions(&r.notes)
                .into_iter()
                .map(|(culprit, class)| (r.me.0, culprit, class))
        })
        .collect();

    // --- Cross-check ----------------------------------------------------
    for (i, report) in reports.iter().enumerate() {
        if i as u32 == ATTACKER {
            continue;
        }
        let sim_log = sim.decisions[i]
            .as_ref()
            .unwrap_or_else(|| panic!("sim: p{i} never decided"));
        assert_eq!(sim_log.len() as u64, SLOTS, "sim: p{i} lost slots");

        assert!(report.halted, "net: p{i} never halted");
        assert!(!report.contradicted, "net: p{i} contradicted itself");
        let net_log = report
            .decision
            .as_ref()
            .unwrap_or_else(|| panic!("net: p{i} never decided"));
        assert_eq!(
            net_log, sim_log,
            "p{i}: decided log differs between runtimes"
        );
    }

    assert!(
        !sim_convictions.is_empty(),
        "the wrong-key attack went undetected in the simulator"
    );
    for (observer, culprit, class) in &sim_convictions {
        assert_eq!(culprit, "p3", "sim: p{observer} convicted {culprit}");
        assert!(!class.is_empty());
    }
    assert_eq!(
        net_convictions, sim_convictions,
        "conviction sets differ between runtimes"
    );
}

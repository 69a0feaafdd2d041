//! The benchmark's two simulator wirings, pinned whole: the trace
//! fingerprint (byte counts included), every `Metrics` counter, and the
//! key directory's verdict-memo hits and misses, for 12-slot logs at
//! n = 7, F = 2, seed 7 and the default key size:
//!
//! - Chandra–Toueg under the `WrongKey` + `DuplicateVotes` coalition
//!   (`sim-ct-attack`'s shape), and
//! - an honest Hurfin–Raynal log (`sim-hr-k512`'s shape).
//!
//! How messages and certificates are held or dispatched — copied or
//! shared, a broadcast or its `n` unicasts — is not behaviour: a change to
//! it must leave every figure here as it is.

use std::collections::BTreeMap;

use ft_modular::certify::{ProtocolId, ValueVector};
use ft_modular::core::byzantine::log::ReplicatedLog;
use ft_modular::core::byzantine::{ByzantineChandraToueg, ByzantineConsensus, TransformedProtocol};
use ft_modular::core::config::{ProtocolConfig, ProtocolSetup};
use ft_modular::faults::{log_command, Attack, AttackRun, ByzantineLogWrapper, FaultBehavior};
use ft_modular::sim::runner::BoxedActor;
use ft_modular::sim::{Duration, NetworkProfile, RunReport, SimConfig, Simulation};

const N: usize = 7;
const F: usize = 2;
const SEED: u64 = 7;
const SLOTS: u64 = 12;

/// `sim-ct-attack`'s coalition.
const COALITION: &[(u32, FaultBehavior)] = &[
    (1, FaultBehavior::WrongKey),
    (4, FaultBehavior::DuplicateVotes),
];

/// The log run `AttackRun::run_coalition_log` builds, wired here from the
/// same public pieces so the key directory can be read after the run.
fn run_as<P: TransformedProtocol + 'static>(
    protocol: ProtocolId,
    coalition: &[(u32, FaultBehavior)],
) -> (RunReport<Vec<ValueVector>>, ProtocolSetup) {
    let setup = ProtocolConfig::new(N, F).seed(SEED).setup();
    let cfg = NetworkProfile::calm().apply(SimConfig::new(N).seed(SEED));
    let mut tampers: BTreeMap<u32, Attack> = coalition
        .iter()
        .filter_map(|&(m, b)| b.make_tamper_for(protocol, N, m, SEED).map(|t| (m, t)))
        .collect();
    let report = Simulation::build_boxed(cfg, |id| {
        let log = ReplicatedLog::<P>::new(&setup, id, SLOTS, log_command);
        match tampers.remove(&id.0) {
            Some(tamper) => {
                let keys = setup.keys[id.index()].clone();
                Box::new(ByzantineLogWrapper::new(log, tamper, keys, Duration::of(3)))
                    as BoxedActor<_, _>
            }
            None => Box::new(log),
        }
    })
    .run();
    (report, setup)
}

/// One run's pinned figures, after checking this file's wiring against
/// `AttackRun`'s.
fn pin_line(protocol: ProtocolId, coalition: &[(u32, FaultBehavior)]) -> String {
    let (report, setup) = match protocol {
        ProtocolId::HurfinRaynal => run_as::<ByzantineConsensus>(protocol, coalition),
        ProtocolId::ChandraToueg => run_as::<ByzantineChandraToueg>(protocol, coalition),
    };
    let theirs = AttackRun::new(N, F, SEED, 0)
        .protocol(protocol)
        .run_coalition_log(SLOTS, coalition);
    assert_eq!(
        (report.trace.fingerprint(), &report.metrics),
        (theirs.trace.fingerprint(), &theirs.metrics),
        "this wiring and AttackRun::run_coalition_log diverge"
    );
    format!(
        "fingerprint={} memo={}/{} {:?}",
        report.trace.fingerprint(),
        setup.dir.cache_hits(),
        setup.dir.cache_misses(),
        report.metrics
    )
}

#[test]
fn chandra_toueg_coalition_log_is_pinned() {
    assert_eq!(
        pin_line(ProtocolId::ChandraToueg, COALITION),
        "fingerprint=1745484488740901467 memo=5240/266 Metrics { messages_sent: 2520, \
         bytes_sent: 747908, signature_bytes: 69874, certificate_bytes: 521878, \
         protocol_bytes: 156156, messages_delivered: 2451, timers_fired: 393, \
         events_processed: 2869, sent_per_process: [420, 336, 336, 336, 420, 336, 336], \
         bytes_per_process: [164549, 90769, 95697, 95690, 109809, 95697, 95697] }"
    );
}

#[test]
fn honest_hurfin_raynal_log_is_pinned() {
    assert_eq!(
        pin_line(ProtocolId::HurfinRaynal, &[]),
        "fingerprint=10578024818339068081 memo=3248/168 Metrics { messages_sent: 1764, \
         bytes_sent: 606760, signature_bytes: 62720, certificate_bytes: 447020, \
         protocol_bytes: 97020, messages_delivered: 1701, timers_fired: 77, \
         events_processed: 1792, sent_per_process: [252, 252, 252, 252, 252, 252, 252], \
         bytes_per_process: [80920, 87640, 87640, 87640, 87640, 87640, 87640] }"
    );
}

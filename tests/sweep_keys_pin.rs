//! The sweep's cell keys and report bytes, pinned: a short hand-built
//! list whose cells between them carry every cell-key marker
//! (` coalition=`, ` members=`, ` proto=ct`, ` fd=round-aware`,
//! ` workload=logN`, ` extra-crashes=k`, ` net=<label>`) runs through
//! `sweep_scenarios`, and the test asserts the exact keys and the sha256
//! of the rendered JSON report.
//!
//! A refactor of how a sweep cell is described or run must leave both
//! pins as they are; only the lines that build the cells may change. A
//! mismatch prints what the sweep now yields.

use ft_modular::certify::ProtocolId;
use ft_modular::core::config::MutenessMode;
use ft_modular::crypto::sha256::Sha256;
use ft_modular::faults::{sweep_scenarios, AttackRun, FaultBehavior, NetworkProfile, Workload};
use ft_modular::sim::Duration;

use FaultBehavior::{Crash, DuplicateVotes, Honest, Mute, VectorCorrupt};

/// The cells, in sweep order.
fn cells() -> Vec<AttackRun> {
    let mut round_aware = AttackRun::single(4, 1, Honest).crash_low(1);
    round_aware.config.muteness_mode = MutenessMode::RoundAware {
        per_round: Duration::of(25),
    };
    vec![
        AttackRun::single(4, 1, Honest),
        AttackRun::single(4, 1, VectorCorrupt)
            .protocol(ProtocolId::ChandraToueg)
            .workload(Workload::Log { slots: 2 }),
        round_aware,
        AttackRun::single(4, 1, Crash).network(NetworkProfile::jittery()),
        AttackRun::coalition_of(7, 2, &[Mute, DuplicateVotes]),
        AttackRun::coalition(7, 2, vec![(2, VectorCorrupt), (4, Mute)])
            .protocol(ProtocolId::ChandraToueg),
    ]
}

const KEYS: [&str; 6] = [
    "n=4 f=1 fault=honest",
    "n=4 f=1 fault=vector-corrupt proto=ct workload=log2",
    "n=4 f=1 fault=honest fd=round-aware extra-crashes=1",
    "n=4 f=1 fault=crash net=jittery",
    "n=7 f=2 fault=mute+duplicate-votes coalition=2",
    "n=7 f=2 fault=vector-corrupt+mute coalition=2 members=2+4 proto=ct",
];

const REPORT_SHA256: &str = "fe3357a5e17e9560c12083b452224896e89ca3efe74df1dd5321be6baf403fc8";

#[test]
fn sweep_cell_keys_and_report_bytes_are_pinned() {
    let report = sweep_scenarios(&cells(), 1, 0x5EED, 2);
    let keys: Vec<&str> = report.records.iter().map(|r| r.cell.as_str()).collect();
    assert_eq!(keys, KEYS, "the cell keys moved");
    assert!(report.all_ok(), "a within-budget cell failed: {report:?}");
    let digest = Sha256::digest(report.to_json().render().as_bytes()).to_string();
    assert_eq!(digest, REPORT_SHA256, "the sweep report's bytes moved");
}

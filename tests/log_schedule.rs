//! The replicated log's schedule, pinned with the bytes left out: one
//! golden digest per protocol over every trace entry (each send's byte
//! count erased, its label kept), the decisions, the end time, the
//! message, delivery and timer counts, and the protocol-layer bytes.
//!
//! What a send weighs may change — a signature scheme, a wire form, a
//! certificate encoding — without any of this moving: which messages go
//! where, in what order, at what virtual time, with what outcome. This
//! digest must never be re-pinned by a change that claims to move only
//! bytes; if it moves, the change moved behaviour.

use ft_modular::certify::ProtocolId;
use ft_modular::faults::{AttackRun, FaultBehavior};
use ft_modular::sim::trace::TraceEvent;

const SLOTS: u64 = 4;

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One run's line: its schedule hash and the outcome, readable on a
/// mismatch.
fn run_line(
    protocol: ProtocolId,
    n: usize,
    f: usize,
    seed: u64,
    coalition: &[(u32, FaultBehavior)],
) -> String {
    let report = AttackRun::new(n, f, seed, 0)
        .protocol(protocol)
        .run_coalition_log(SLOTS, coalition);
    let schedule = report.trace.entries().iter().fold(FNV_OFFSET, |h, e| {
        let text = match &e.event {
            TraceEvent::Send {
                src, dst, label, ..
            } => format!("Send {src}->{dst} {label}"),
            other => format!("{other:?}"),
        };
        fnv(fnv(h, &e.at.ticks().to_le_bytes()), text.as_bytes())
    });
    let m = &report.metrics;
    format!(
        "n={n} f={f} seed={seed} coalition={coalition:?}: schedule={schedule:#018x} \
         end={} sent={} delivered={} timers={} protocol-bytes={} decisions={:?}",
        report.end_time.ticks(),
        m.messages_sent,
        m.messages_delivered,
        m.timers_fired,
        m.protocol_bytes,
        report.decisions
    )
}

/// HR or CT logs at (4, 1) and (7, 2), seeds 0..3, honest and under the
/// `sim-ct-attack` coalition (a `DuplicateVotes` member alone at n = 4).
fn lines(protocol: ProtocolId) -> Vec<String> {
    let mut lines = Vec::new();
    for (n, f, coalition) in [
        (4, 1, &[(3, FaultBehavior::DuplicateVotes)][..]),
        (
            7,
            2,
            &[
                (1, FaultBehavior::WrongKey),
                (4, FaultBehavior::DuplicateVotes),
            ][..],
        ),
    ] {
        for seed in 0..3 {
            lines.push(run_line(protocol, n, f, seed, &[]));
            lines.push(run_line(protocol, n, f, seed, coalition));
        }
    }
    lines
}

/// The digest over `lines`; a mismatch prints every run's values.
fn assert_golden(lines: &[String], pinned: u64) {
    let text = lines.join("\n");
    let digest = fnv(FNV_OFFSET, text.as_bytes());
    assert_eq!(digest, pinned, "digest {digest:#018x} over:\n{text}");
}

#[test]
fn hurfin_raynal_log_schedule_is_pinned() {
    assert_golden(&lines(ProtocolId::HurfinRaynal), 0x08f9_6d6d_dd30_9180);
}

#[test]
fn chandra_toueg_log_schedule_is_pinned() {
    assert_golden(&lines(ProtocolId::ChandraToueg), 0x0741_087f_d1d3_e229);
}

//! The curated hot-path suite behind the `ftm-bench` gate binary.
//!
//! Unlike the exploratory `benches/` targets, this suite is small, fast
//! and *gated*: CI runs it on every push and compares the result against
//! the committed `BENCH_<n>.json` baseline (see `ftm-bench --compare`).
//! Every benchmark that declares `bytes-per-op` does so with a
//! **deterministic integer** — retained-evidence bytes of a fixed-seed
//! run, canonical envelope bytes of a fixed-seed round — so the bytes
//! column is machine-independent and can be hard-gated; wall-clock
//! columns are machine-dependent and only warn.

use ftm_certify::certificate::Certificate;
use ftm_certify::{Core, Envelope, MessageCore, SignedCore, ValueVector};
use ftm_core::byzantine::log::Retention;
use ftm_crypto::keydir::KeyDirectory;
use ftm_crypto::rsa::KeyPair;
use ftm_sim::trace::TraceEvent;
use ftm_sim::{Payload, ProcessId, RunReport};

use crate::timing::Group;

/// Fixed seed for every suite workload: the bytes columns must reproduce
/// bit-for-bit on any machine.
const SEED: u64 = 11;

/// Replicated-log shape for the retention benchmarks.
const N: usize = 4;
const F: usize = 1;
const SLOTS: u64 = 3;

/// Runs the gated suite, recording into the process-wide registry (drain
/// with [`crate::timing::take_results`] or print via
/// [`crate::timing::emit`]).
pub fn run_suite() {
    retention_benches();
    signature_benches();
    crate::transport::transport_benches();
}

/// The retained-evidence bytes a fixed-seed log run reports at replica 0:
/// the *last* value of the `{prefix} slot=k bytes=B` series under `Full`
/// (the linear endpoint), the *max* under `Checkpoint` (the flat bound).
fn retained_bytes(report: &RunReport<Vec<ValueVector>>, prefix: &str, last: bool) -> u64 {
    let series: Vec<u64> = report
        .trace
        .entries()
        .iter()
        .filter_map(|e| match &e.event {
            TraceEvent::Note { process, text } if process.0 == 0 && text.starts_with(prefix) => {
                text.rsplit_once("bytes=").and_then(|(_, b)| b.parse().ok())
            }
            _ => None,
        })
        .collect();
    assert!(!series.is_empty(), "run emitted no `{prefix}` notes");
    if last {
        *series.last().unwrap()
    } else {
        *series.iter().max().unwrap()
    }
}

fn run_log(retention: Retention) -> RunReport<Vec<ValueVector>> {
    ftm_faults::AttackRun::new(N, F, SEED, 0)
        .retention(retention)
        .run_log(SLOTS, |_| None)
}

fn retention_benches() {
    let mut g = Group::new("retention");
    let full_bytes = retained_bytes(&run_log(Retention::Full), "evidence slot=", true);
    g.bench_bytes("full-log-3slots", full_bytes, || run_log(Retention::Full));
    let flat_bytes = retained_bytes(&run_log(Retention::Checkpoint), "checkpoint slot=", false);
    g.bench_bytes("checkpoint-log-3slots", flat_bytes, || {
        run_log(Retention::Checkpoint)
    });
}

/// A fixed-seed round burst: `n` CURRENT envelopes whose certificates all
/// carry the same `n` signed INITs (the overlap the verdict memo
/// exploits). Shared with experiment E12, which reports the amortization
/// counts the suite times.
pub fn round_burst(n: usize) -> (Vec<KeyPair>, Vec<Envelope>) {
    let mut rng = ftm_crypto::rng_from_seed(SEED);
    let (_, keys) = KeyDirectory::generate(&mut rng, n, 128);
    let inits: Vec<SignedCore> = keys
        .iter()
        .enumerate()
        .map(|(i, kp)| {
            SignedCore::sign(
                MessageCore::new(ProcessId(i as u32), Core::Init { value: i as u64 }),
                kp,
            )
        })
        .collect();
    let envs = keys
        .iter()
        .enumerate()
        .map(|(i, kp)| {
            Envelope::make(
                ProcessId(i as u32),
                Core::Current {
                    round: 1,
                    vector: ValueVector::from_entries(vec![Some(1); n]),
                },
                Certificate::from_items(inits.clone()),
                kp,
            )
        })
        .collect();
    (keys, envs)
}

fn signature_benches() {
    let mut g = Group::new("signatures");
    let (keys, envs) = round_burst(N);
    let pubs: Vec<_> = keys.iter().map(|kp| kp.public().clone()).collect();
    let sc = &envs[0].signed;

    // Cold path: a fresh directory (fresh memo) per verification.
    g.bench_batched(
        "verify-uncached",
        || KeyDirectory::new(pubs.clone()),
        |dir| sc.verify(&dir).is_ok(),
    );

    // Warm path: the shared memo answers every verification after the
    // first — the cost every re-checking layer actually pays.
    let warm = KeyDirectory::new(pubs.clone());
    let _ = sc.verify(&warm);
    g.bench("verify-cached", || sc.verify(&warm).is_ok());

    // The "before" row: every signed core of a whole round verified
    // through the raw public key, once per appearance — the cost the
    // stack paid before the verdict memo existed. bytes-per-op is the
    // round's wire volume.
    let round_bytes: u64 = envs.iter().map(|e| e.size_bytes() as u64).sum();
    g.bench_bytes("naive-verify-round", round_bytes, move || {
        envs.iter()
            .flat_map(|env| std::iter::once(&env.signed).chain(env.cert.iter()))
            .all(|sc| {
                let sig = ftm_crypto::rsa::Signature::from_bytes(&sc.signature_bytes());
                pubs[sc.sender().0 as usize].verify_digest(&sc.digest(), &sig)
            })
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retained_bytes_are_deterministic_and_compaction_undercuts_full() {
        let full_a = retained_bytes(&run_log(Retention::Full), "evidence slot=", true);
        let full_b = retained_bytes(&run_log(Retention::Full), "evidence slot=", true);
        assert_eq!(full_a, full_b, "bytes column must be reproducible");
        let flat = retained_bytes(&run_log(Retention::Checkpoint), "checkpoint slot=", false);
        assert!(
            flat < full_a,
            "checkpointing must undercut full retention ({flat} vs {full_a})"
        );
    }
}

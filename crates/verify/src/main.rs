//! The `ftm-verify` CLI: run every static check, print the report, gate CI.
//!
//! ```text
//! ftm-verify [--json] [--rounds N] [--mutation-rounds N]
//! ```
//!
//! Always runs all four specs — the Hurfin–Raynal and Chandra–Toueg
//! transformed / crash pairs — and the quorum grid (about a second). Exit
//! status 0 when every check passed, 1 when any finding exists (false
//! conviction, surviving mutant, lineage break or quorum
//! mismatch), 2 on usage errors. `--json` prints only the byte-stable JSON
//! document; the default adds a human summary to stderr.

use std::process::ExitCode;

use ftm_verify::{verify_all, Bounds};

fn usage() -> ExitCode {
    eprintln!("usage: ftm-verify [--json] [--rounds N] [--mutation-rounds N]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut json_only = false;
    let mut bounds = Bounds::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_only = true,
            "--rounds" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => bounds.soundness_rounds = n,
                None => return usage(),
            },
            "--mutation-rounds" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => bounds.mutation_rounds = n,
                None => return usage(),
            },
            "--help" | "-h" => {
                eprintln!("ftm-verify: static analysis of the observer automaton and of both");
                eprintln!("ends of the crash->Byzantine transformation");
                return usage();
            }
            _ => return usage(),
        }
    }
    if bounds.soundness_rounds == 0 || bounds.mutation_rounds == 0 {
        eprintln!("ftm-verify: round bounds must be at least 1");
        return usage();
    }

    let report = verify_all(&bounds);
    print!("{}", report.to_json().render());

    if !json_only {
        for (label, spec) in &report.specs {
            let mutated = spec.mutation.as_ref().map_or_else(
                || "mutation skipped".to_string(),
                |m| {
                    format!(
                        "{} divergent mutants / {} survivors",
                        m.divergent(),
                        m.survivors.len()
                    )
                },
            );
            eprintln!(
                "ftm-verify[{label}]: {} compliant traces sound to round {}, {mutated}, \
                 lineage {} sends, {} edges from {} roots",
                spec.soundness.traces,
                spec.soundness.max_rounds,
                spec.lineage.sends,
                spec.lineage.edges,
                spec.lineage.roots,
            );
        }
        let q = &report.quorum;
        eprintln!(
            "ftm-verify[quorum]: {} grid points ({} exhaustive pairs), zones \
             {}/{}/{} certified/degraded/broken, {} mismatches",
            q.pairs,
            q.exhaustive_pairs,
            q.certified_zone,
            q.degraded_zone,
            q.broken_zone,
            q.mismatches.len(),
        );
    }

    if report.ok() {
        ExitCode::SUCCESS
    } else {
        eprintln!("ftm-verify: FINDINGS PRESENT — see report");
        ExitCode::FAILURE
    }
}

//! The fixture corpus contract: the clean miniature actor produces zero
//! findings, every mutant is caught by pass F2, the real workspace is
//! clean under the gating scope, the extracted send tables cover the spec
//! bijectively, and the JSON report is byte-stable.

use ftm_flow::report::{FlowReport, PASS_IDS};
use ftm_flow::{analyze_sources, scan_workspace, Analysis};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Fixtures impersonate the HR actor so scoping and conformance-target
/// selection behave exactly as on the real tree.
const VIRTUAL_PATH: &str = "crates/core/src/byzantine/protocol.rs";

/// Single-edit mutants of `clean_hr.rs`, each a send-discipline breach.
const MUTANTS: [&str; 4] = [
    "m_kind_swap.rs",
    "m_round_jump.rs",
    "m_unicast.rs",
    "m_missing_send.rs",
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn analyze_fixture(name: &str) -> Analysis {
    let source = fs::read_to_string(fixture_dir().join(name)).expect(name);
    analyze_sources(&[(VIRTUAL_PATH.to_string(), source)])
}

#[test]
fn clean_fixture_produces_no_findings() {
    let analysis = analyze_fixture("clean_hr.rs");
    assert!(
        analysis.findings.is_empty(),
        "clean fixture must be clean: {:#?}",
        analysis.findings
    );
    // And not vacuously: all four kinds must actually be extracted.
    let kinds: Vec<&str> = analysis.sends[0]
        .sites
        .iter()
        .map(|s| s.kind.as_str())
        .collect();
    for kind in ["Init", "Current", "Next", "Decide"] {
        assert!(kinds.contains(&kind), "missing {kind} in {kinds:?}");
    }
}

#[test]
fn every_mutant_is_caught() {
    for name in MUTANTS {
        let analysis = analyze_fixture(name);
        assert!(
            !analysis.findings.is_empty(),
            "{name}: mutant must be caught"
        );
    }
}

#[test]
fn fixture_corpus_is_complete_and_minimal() {
    let mut on_disk: Vec<String> = fs::read_dir(fixture_dir())
        .expect("fixtures dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("m_"))
        .collect();
    on_disk.sort();
    let mut listed: Vec<String> = MUTANTS.iter().map(|n| (*n).to_string()).collect();
    listed.sort();
    assert_eq!(on_disk, listed, "every mutant on disk must be tested");
}

#[test]
fn real_workspace_is_clean_under_the_gating_scope() {
    let analysis = scan_workspace(&workspace_root()).expect("scan");
    assert!(analysis.files_scanned > 0);
    assert!(
        analysis.findings.is_empty(),
        "gating scope must be clean: {:#?}",
        analysis.findings
    );
}

#[test]
fn extracted_send_tables_cover_both_specs_bijectively() {
    let analysis = scan_workspace(&workspace_root()).expect("scan");
    let mut by_file: BTreeMap<&str, BTreeMap<&str, usize>> = BTreeMap::new();
    for table in &analysis.sends {
        let counts = by_file.entry(table.file.as_str()).or_default();
        for site in &table.sites {
            *counts.entry(site.kind.as_str()).or_insert(0) += 1;
        }
    }
    // HR: 5 sites discharge 7 obligations (CURRENT ×2 by guard
    // bijection, NEXT ×1 literal expanded over its 3 call sites).
    let hr = &by_file["crates/core/src/byzantine/protocol.rs"];
    assert_eq!(hr["Init"], 1);
    assert_eq!(hr["Current"], 2);
    assert_eq!(hr["Next"], 1);
    assert_eq!(hr["Decide"], 1);
    // CT: 6 sites, one per obligation.
    let ct = &by_file["crates/core/src/byzantine/chandra_toueg.rs"];
    for kind in ["Init", "Estimate", "Propose", "Ack", "Nack", "Decide"] {
        assert_eq!(ct[kind], 1, "CT {kind}");
    }
    // Bijectivity itself is what pass F2 checks: with zero findings
    // (asserted above) every obligation paired with exactly one site.
}

#[test]
fn json_report_is_byte_stable_across_scans() {
    let root = workspace_root();
    let render = || {
        let analysis = scan_workspace(&root).expect("scan");
        FlowReport::new(analysis, &[]).to_json().render()
    };
    let a = render();
    let b = render();
    assert_eq!(a, b, "JSON report must be byte-stable");
    assert!(a.contains("\"ok\": true"));
}

#[test]
fn allowlist_vocabulary_matches_the_passes() {
    assert_eq!(PASS_IDS, ["F2"]);
    let entries =
        ftm_lint::parse_allowlist_with("F2 crates/x.rs 3 # reviewed\n", &PASS_IDS).expect("parse");
    assert_eq!(entries.len(), 1);
    assert!(ftm_lint::parse_allowlist_with("D1 crates/x.rs # wrong\n", &PASS_IDS).is_err());
}

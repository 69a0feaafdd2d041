//! Deterministic flow reports: allowlist application, JSON, text.
//!
//! The report machinery mirrors `ftm-lint`'s: findings are split into
//! active and waived by the shared allowlist grammar
//! ([`ftm_lint::parse_allowlist_with`] with the `F2` vocabulary),
//! stale waivers gate, and the `--json` document is rendered on
//! [`ftm_sim::report::Json`] so it is byte-stable across platforms and
//! runs — CI diffs it, so no floats, no hash-map order, no timestamps.

use crate::engine::{ActorTable, Analysis};
use crate::sends::{RoundDelta, Route};
use ftm_lint::Entry;
use ftm_sim::report::Json;
use std::collections::BTreeMap;

/// The finding vocabulary of this analyzer.
pub const PASS_IDS: [&str; 1] = ["F2"];

/// One flow finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlowFinding {
    /// `"F2"` (spec conformance).
    pub pass: &'static str,
    /// Repo-relative file path.
    pub file: String,
    /// 1-indexed line (0 for whole-file obligations).
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// A complete flow report: findings split by the allowlist plus the
/// extracted send tables.
#[derive(Debug)]
pub struct FlowReport {
    /// Number of files analyzed.
    pub files_scanned: u64,
    /// Findings not waived — these gate.
    pub active: Vec<FlowFinding>,
    /// Findings waived by an allowlist entry.
    pub waived: Vec<FlowFinding>,
    /// Allowlist entries that matched nothing — these also gate.
    pub unused: Vec<Entry>,
    /// Extracted per-actor send tables.
    pub sends: Vec<ActorTable>,
}

impl FlowReport {
    /// Builds a report from an analysis and parsed allowlist entries.
    pub fn new(analysis: Analysis, entries: &[Entry]) -> Self {
        let mut findings = analysis.findings;
        findings.sort();
        findings.dedup();
        let mut used = vec![false; entries.len()];
        let mut active = Vec::new();
        let mut waived = Vec::new();
        for finding in findings {
            // Probe the shared matcher with a lint-shaped finding.
            let probe = ftm_lint::Finding {
                lint: finding.pass,
                file: finding.file.clone(),
                line: finding.line,
                message: String::new(),
            };
            let mut hit = false;
            for (i, entry) in entries.iter().enumerate() {
                if entry.matches(&probe) {
                    used[i] = true;
                    hit = true;
                }
            }
            if hit {
                waived.push(finding);
            } else {
                active.push(finding);
            }
        }
        let unused = entries
            .iter()
            .zip(&used)
            .filter(|(_, u)| !**u)
            .map(|(e, _)| e.clone())
            .collect();
        FlowReport {
            files_scanned: analysis.files_scanned,
            active,
            waived,
            unused,
            sends: analysis.sends,
        }
    }

    /// Whether the gate passes: no active findings, no stale waivers.
    pub fn ok(&self) -> bool {
        self.active.is_empty() && self.unused.is_empty()
    }

    /// Active findings per pass id (all ids always present).
    pub fn counts(&self) -> BTreeMap<String, u64> {
        let mut counts: BTreeMap<String, u64> =
            PASS_IDS.iter().map(|id| ((*id).to_string(), 0)).collect();
        for f in &self.active {
            *counts.entry(f.pass.to_string()).or_insert(0) += 1;
        }
        counts
    }

    /// The byte-stable JSON document.
    pub fn to_json(&self) -> Json {
        let finding_obj = |f: &FlowFinding, waived: bool| {
            Json::Obj(vec![
                ("pass".to_string(), Json::Str(f.pass.to_string())),
                ("file".to_string(), Json::Str(f.file.clone())),
                ("line".to_string(), Json::U64(u64::from(f.line))),
                ("message".to_string(), Json::Str(f.message.clone())),
                ("waived".to_string(), Json::Bool(waived)),
            ])
        };
        let mut findings: Vec<Json> = Vec::new();
        for f in &self.active {
            findings.push(finding_obj(f, false));
        }
        for f in &self.waived {
            findings.push(finding_obj(f, true));
        }
        let sends = Json::Obj(
            self.sends
                .iter()
                .map(|t| {
                    let sites = t
                        .sites
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("kind".to_string(), Json::Str(s.kind.clone())),
                                (
                                    "route".to_string(),
                                    Json::Str(
                                        match s.route {
                                            Route::Broadcast => "broadcast",
                                            Route::Unicast => "unicast",
                                        }
                                        .to_string(),
                                    ),
                                ),
                                (
                                    "round".to_string(),
                                    Json::Str(
                                        match s.round {
                                            RoundDelta::Same => "same",
                                            RoundDelta::Jump => "jump",
                                            RoundDelta::Relayed => "relayed",
                                            RoundDelta::NoRound => "none",
                                        }
                                        .to_string(),
                                    ),
                                ),
                                ("fn".to_string(), Json::Str(s.in_fn.clone())),
                                ("line".to_string(), Json::U64(u64::from(s.line))),
                            ])
                        })
                        .collect();
                    (t.file.clone(), Json::Arr(sites))
                })
                .collect(),
        );
        Json::Obj(vec![
            ("version".to_string(), Json::U64(1)),
            ("files_scanned".to_string(), Json::U64(self.files_scanned)),
            (
                "counts".to_string(),
                Json::Obj(
                    self.counts()
                        .into_iter()
                        .map(|(k, v)| (k, Json::U64(v)))
                        .collect(),
                ),
            ),
            ("findings".to_string(), Json::Arr(findings)),
            ("sends".to_string(), sends),
            (
                "allowlist_unused".to_string(),
                Json::Arr(self.unused.iter().map(|e| Json::Str(e.render())).collect()),
            ),
            ("ok".to_string(), Json::Bool(self.ok())),
        ])
    }

    /// The human-readable rendering (one line per finding).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.active {
            out.push_str(&format!(
                "{}: {}:{}: {}\n",
                f.pass, f.file, f.line, f.message
            ));
        }
        for f in &self.waived {
            out.push_str(&format!(
                "{}: {}:{}: {} (waived)\n",
                f.pass, f.file, f.line, f.message
            ));
        }
        for e in &self.unused {
            out.push_str(&format!("stale allowlist entry: {}\n", e.render()));
        }
        out.push_str(&format!(
            "ftm-flow: {} files, {} active finding(s), {} waived, {} stale waiver(s): {}\n",
            self.files_scanned,
            self.active.len(),
            self.waived.len(),
            self.unused.len(),
            if self.ok() { "ok" } else { "FAIL" }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftm_lint::parse_allowlist_with;

    fn finding(pass: &'static str, file: &str, line: u32) -> FlowFinding {
        FlowFinding {
            pass,
            file: file.to_string(),
            line,
            message: "m".to_string(),
        }
    }

    fn analysis(findings: Vec<FlowFinding>) -> Analysis {
        Analysis {
            files_scanned: 1,
            findings,
            sends: Vec::new(),
        }
    }

    #[test]
    fn allowlist_waives_and_tracks_stale_entries() {
        let entries =
            parse_allowlist_with("F2 a.rs 5 # audited\nF2 b.rs # never\n", &PASS_IDS).unwrap();
        let report = FlowReport::new(
            analysis(vec![finding("F2", "a.rs", 5), finding("F2", "a.rs", 6)]),
            &entries,
        );
        assert_eq!(report.waived.len(), 1);
        assert_eq!(report.active.len(), 1);
        assert_eq!(report.unused.len(), 1);
        assert!(!report.ok(), "stale waiver must gate");
    }

    #[test]
    fn counts_always_contain_the_pass() {
        let report = FlowReport::new(analysis(Vec::new()), &[]);
        let counts = report.counts();
        assert_eq!(counts.get("F2"), Some(&0));
        assert!(report.ok());
    }

    #[test]
    fn json_is_byte_stable() {
        let report = FlowReport::new(analysis(vec![finding("F2", "x.rs", 9)]), &[]);
        let a = report.to_json().render();
        let b = report.to_json().render();
        assert_eq!(a, b);
        assert!(a.contains("\"ok\": false"));
    }
}

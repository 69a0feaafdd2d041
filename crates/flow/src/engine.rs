//! The analysis driver: file discovery, pass orchestration, scoping.
//!
//! The analysis covers the code whose send behavior the transformed
//! specs constrain: the Byzantine actors.

use crate::ast::parse_file;
use crate::report::FlowFinding;
use crate::sends::{conform, extract, SendSite};
use ftm_core::spec::ProtocolSpec;
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::Path;

/// Path prefixes covered by the analysis.
pub const SCOPE: [&str; 1] = ["crates/core/src/byzantine/"];

/// Directory names never descended into.
const SKIP_DIRS: [&str; 2] = ["target", "fixtures"];

/// The extracted send table of one actor file (for the report).
#[derive(Debug)]
pub struct ActorTable {
    /// Repo-relative path of the actor file.
    pub file: String,
    /// The extracted send sites, in source order.
    pub sites: Vec<SendSite>,
}

/// The result of the conformance pass over one file set.
#[derive(Debug)]
pub struct Analysis {
    /// Number of files analyzed.
    pub files_scanned: u64,
    /// All findings, unsorted and unwaived.
    pub findings: Vec<FlowFinding>,
    /// Per-actor send tables (conformance targets only).
    pub sends: Vec<ActorTable>,
}

/// Which spec a file is checked against, by path suffix.
fn conformance_target(path: &str) -> Option<(ProtocolSpec, bool)> {
    if path.ends_with("byzantine/protocol.rs") {
        Some((ProtocolSpec::transformed(), true))
    } else if path.ends_with("byzantine/chandra_toueg.rs") {
        Some((ProtocolSpec::transformed_ct(), false))
    } else {
        None
    }
}

/// Runs the pass over `(path, source)` pairs.
///
/// Paths are virtual: fixtures use the real actor paths so scoping and
/// conformance-target selection behave identically in tests.
pub fn analyze_sources(files: &[(String, String)]) -> Analysis {
    let mut sends = Vec::new();
    let mut findings = Vec::new();
    for (path, source) in files {
        // Pass F2: spec conformance of the actor's send behavior.
        if let Some((spec, hr_sigs)) = conformance_target(path) {
            let table = extract(&parse_file(source));
            for sf in conform(&table, &spec, hr_sigs) {
                findings.push(FlowFinding {
                    pass: "F2",
                    file: path.clone(),
                    line: sf.line,
                    message: sf.message,
                });
            }
            sends.push(ActorTable {
                file: path.clone(),
                sites: table.sites,
            });
        }
    }
    Analysis {
        files_scanned: files.len() as u64,
        findings,
        sends,
    }
}

/// Scans the workspace rooted at `root` and runs the pass.
///
/// The walk is deterministic (sorted), skips `target/`, `fixtures/` and
/// hidden directories, and restricts analysis to the [`SCOPE`] prefixes.
pub fn scan_workspace(root: &Path) -> io::Result<Analysis> {
    let mut paths = BTreeSet::new();
    collect_rs_files(root, root, &mut paths)?;
    let mut files = Vec::new();
    for rel in paths {
        if !SCOPE.iter().any(|p| rel.starts_with(p)) {
            continue;
        }
        let source = fs::read_to_string(root.join(&rel))?;
        files.push((rel, source));
    }
    Ok(analyze_sources(&files))
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut BTreeSet<String>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.insert(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conformance_targets_resolve_by_suffix() {
        assert!(conformance_target("crates/core/src/byzantine/protocol.rs").is_some());
        assert!(conformance_target("crates/core/src/byzantine/chandra_toueg.rs").is_some());
        assert!(conformance_target("crates/core/src/byzantine/log.rs").is_none());
        assert!(conformance_target("crates/core/src/crash/protocol.rs").is_none());
    }

    #[test]
    fn scope_prefixes_cover_the_conformance_targets() {
        for p in [
            "crates/core/src/byzantine/protocol.rs",
            "crates/core/src/byzantine/chandra_toueg.rs",
        ] {
            assert!(
                SCOPE.iter().any(|s| p.starts_with(s)),
                "{p} must be in scope"
            );
        }
        assert!(!SCOPE.iter().any(|s| "crates/sim/src/lib.rs".starts_with(s)));
    }
}

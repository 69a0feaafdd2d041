//! Workspace walker: finds `.rs` files, lexes them, runs the rules.
//!
//! The walk is deterministic — directories are read, sorted by name and
//! recursed in order — so finding order (and therefore report bytes) never
//! depends on filesystem enumeration order. `target/`, hidden directories
//! and the lint fixture corpus are skipped: fixtures violate the rules on
//! purpose and are exercised through [`check_source`] with virtual paths.
//! So is `benchmark/`, a standalone package outside this workspace whose
//! job is wall-clock measurement (floats, `Instant` and threads by design).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::lex;
use crate::rules::{check_file, Finding};

/// Directories never descended into (by component name).
const SKIP_DIRS: [&str; 3] = ["target", "fixtures", "benchmark"];

/// Lints one source text under a repo-relative virtual path.
///
/// This is the pure core: the fixture self-test drives it with paths like
/// `crates/certify/src/fixture.rs` to place a fixture inside a rule's
/// scope without the file actually living there.
pub fn check_source(virtual_path: &str, source: &str) -> Vec<Finding> {
    check_file(virtual_path, &lex(source))
}

/// The result of scanning a workspace tree.
#[derive(Debug, Clone)]
pub struct Scan {
    /// Number of `.rs` files lexed.
    pub files_scanned: u64,
    /// All findings, sorted by `(lint, file, line)`.
    pub findings: Vec<Finding>,
}

/// Walks `root` and lints every tracked `.rs` file.
pub fn scan_workspace(root: &Path) -> io::Result<Scan> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    for path in &files {
        let source = fs::read_to_string(path)?;
        let rel = relative_slash_path(root, path);
        findings.extend(check_file(&rel, &lex(&source)));
    }
    findings.sort_by(|a, b| (a.lint, &a.file, a.line).cmp(&(b.lint, &b.file, b.line)));
    Ok(Scan {
        files_scanned: files.len() as u64,
        findings,
    })
}

fn relative_slash_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_source_places_fixtures_by_virtual_path() {
        let src = "use std::collections::HashMap;";
        assert_eq!(check_source("crates/sim/src/v.rs", src).len(), 1);
        assert!(check_source("crates/bench/src/v.rs", src).is_empty());
    }

    #[test]
    fn scan_skips_fixture_and_target_dirs() {
        let dir = std::env::temp_dir().join("ftm-lint-scan-test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("crates/sim/src")).unwrap();
        fs::create_dir_all(dir.join("crates/lint/fixtures")).unwrap();
        fs::create_dir_all(dir.join("target/debug")).unwrap();
        fs::write(
            dir.join("crates/sim/src/a.rs"),
            "use std::collections::HashMap;",
        )
        .unwrap();
        fs::write(dir.join("crates/lint/fixtures/d1.rs"), "fn f(_: f64) {}").unwrap();
        fs::write(dir.join("target/debug/gen.rs"), "fn f(_: f64) {}").unwrap();
        let scan = scan_workspace(&dir).unwrap();
        assert_eq!(scan.files_scanned, 1);
        assert_eq!(scan.findings.len(), 1);
        assert_eq!(scan.findings[0].lint, "D2");
        assert_eq!(scan.findings[0].file, "crates/sim/src/a.rs");
        let _ = fs::remove_dir_all(&dir);
    }
}

//! The finding allowlist: a small, justified escape hatch.
//!
//! Format (one entry per line):
//!
//! ```text
//! D6 crates/core/src/spec.rs 775 # spec construction runs at startup
//! D3 crates/foo/src/bar.rs # whole-file waiver
//! ```
//!
//! `<lint> <path> [<line>] # <justification>` — the justification is
//! mandatory; an entry without one is a parse error. Blank lines and lines
//! starting with `#` are comments. Every entry must match at least one
//! finding: unused entries are reported and fail the run, which keeps the
//! list from outliving the code it excuses.

use crate::rules::{Finding, LINT_IDS};

/// One parsed allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Lint identifier this entry waives.
    pub lint: String,
    /// Repo-relative path the waiver applies to.
    pub file: String,
    /// Specific line, or `None` for a whole-file waiver.
    pub line: Option<u32>,
    /// Why the finding is acceptable (mandatory).
    pub justification: String,
}

impl Entry {
    /// Whether this entry waives `finding`.
    pub fn matches(&self, finding: &Finding) -> bool {
        self.lint == finding.lint
            && self.file == finding.file
            && self.line.is_none_or(|l| l == finding.line)
    }

    /// Canonical one-line rendering (used in reports).
    pub fn render(&self) -> String {
        match self.line {
            Some(l) => format!("{} {} {}", self.lint, self.file, l),
            None => format!("{} {}", self.lint, self.file),
        }
    }
}

/// Parses allowlist text against the D1–D7 lint vocabulary.
pub fn parse(text: &str) -> Result<Vec<Entry>, String> {
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, justification) = line
            .split_once('#')
            .ok_or_else(|| format!("allowlist line {lineno}: missing `# justification`"))?;
        let justification = justification.trim();
        if justification.is_empty() {
            return Err(format!("allowlist line {lineno}: empty justification"));
        }
        let mut parts = head.split_whitespace();
        let lint = parts
            .next()
            .ok_or_else(|| format!("allowlist line {lineno}: missing lint id"))?;
        if !LINT_IDS.contains(&lint) {
            return Err(format!("allowlist line {lineno}: unknown lint `{lint}`"));
        }
        let file = parts
            .next()
            .ok_or_else(|| format!("allowlist line {lineno}: missing file path"))?;
        let line_no = match parts.next() {
            Some(tok) => Some(
                tok.parse::<u32>()
                    .map_err(|_| format!("allowlist line {lineno}: bad line number `{tok}`"))?,
            ),
            None => None,
        };
        if parts.next().is_some() {
            return Err(format!(
                "allowlist line {lineno}: trailing tokens before `#`"
            ));
        }
        entries.push(Entry {
            lint: lint.to_string(),
            file: file.to_string(),
            line: line_no,
            justification: justification.to_string(),
        });
    }
    Ok(entries)
}

/// The verdict after applying the allowlist to a finding set.
#[derive(Debug, Clone)]
pub struct Applied {
    /// Findings not covered by any entry — these gate.
    pub active: Vec<Finding>,
    /// Findings waived by an entry.
    pub waived: Vec<Finding>,
    /// Entries that matched nothing — these also gate.
    pub unused: Vec<Entry>,
}

/// Splits findings into active/waived and reports unused entries.
pub fn apply(findings: Vec<Finding>, entries: &[Entry]) -> Applied {
    let mut used = vec![false; entries.len()];
    let mut active = Vec::new();
    let mut waived = Vec::new();
    for finding in findings {
        let mut hit = false;
        for (i, entry) in entries.iter().enumerate() {
            if entry.matches(&finding) {
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
    Applied {
        active,
        waived,
        unused,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(lint: &'static str, file: &str, line: u32) -> Finding {
        Finding {
            lint,
            file: file.to_string(),
            line,
            message: String::new(),
        }
    }

    #[test]
    fn parses_line_scoped_and_file_scoped_entries() {
        let entries = parse(
            "# header comment\n\nD6 crates/core/src/spec.rs 775 # startup invariant\nD3 crates/x.rs # waived\n",
        )
        .unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].line, Some(775));
        assert_eq!(entries[1].line, None);
    }

    #[test]
    fn rejects_missing_justification_and_unknown_lint() {
        assert!(parse("D6 crates/x.rs 1\n").is_err());
        assert!(parse("D6 crates/x.rs 1 #   \n").is_err());
        assert!(parse("D9 crates/x.rs # nope\n").is_err());
    }

    #[test]
    fn apply_splits_and_tracks_unused() {
        let entries = parse("D6 a.rs 5 # ok\nD1 b.rs # never matches\n").unwrap();
        let applied = apply(
            vec![finding("D6", "a.rs", 5), finding("D6", "a.rs", 6)],
            &entries,
        );
        assert_eq!(applied.waived.len(), 1);
        assert_eq!(applied.active.len(), 1);
        assert_eq!(applied.unused.len(), 1);
        assert_eq!(applied.unused[0].file, "b.rs");
    }
}

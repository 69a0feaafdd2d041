//! The two parts of the determinism discipline (DESIGN.md §13) that no
//! toolchain lint can state about itself, the one-note-grammar rule, and the
//! workspace inventory.
//!
//! **Rule D5**: no ad-hoc quorum arithmetic — `n - f`, `n + f`, `2 * f`,
//! `3 * f` — in the protocol crates; every threshold routes through
//! `ftm_quorum` so both bounds, the transformed protocols' `F ≤ ⌊(n−1)/3⌋`
//! and the crash protocols' `F ≤ ⌊(n−1)/2⌋`, have one audited derivation. That is a spelling convention, not a name-resolution fact, so
//! unlike D1–D4/D6/D7 Clippy cannot check it; this test does, on source lines.
//!
//! **Note grammar**: the text of a trace note is known to
//! `crates/runtime/src/note.rs` alone (DESIGN.md *Notes*); everything else
//! renders and parses through `Note`, so no second tokeniser — and no
//! behaviour hanging on a substring — can grow back. Same source scan as D5.
//!
//! **Lint levels**: the `clippy.toml` bans are kept live by `#[expect]`
//! canaries (`clippy_canaries.rs`), but an `#[expect]` sets its lint's level
//! itself and so stays fulfilled when the surrounding `deny` is deleted. The
//! levels the rules rest on are therefore pinned here, as text.
//!
//! **Inventory**: DESIGN.md §2 and the facade's re-exports are written by
//! hand; the last test holds both to the `crates/*` directory listing.

#![deny(clippy::cast_possible_truncation)] // D7 covers all of `crates/quorum`

use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose protocol logic must not spell thresholds out.
const SCOPE: [&str; 4] = ["core", "certify", "detect", "faults"];
/// The algebra's re-export facade may quote the formulas it re-exports.
const EXEMPT: &str = "core/src/quorum.rs";
/// The classic threshold shapes, as whitespace-free token triples.
const SHAPES: [&str; 4] = ["n-f", "n+f", "2*f", "3*f"];

/// What `crates/lint/fixtures/d5.rs` was: the violation the rule must catch.
const MUST_FIRE: &str = "\
pub struct Thresholds {
    n: usize,
    f: usize,
}

impl Thresholds {
    pub fn quorum(&self) -> usize {
        self.n - self.f
    }
}
";

/// The opening of a string literal that spells a note's text.
const NOTE_LITERALS: [&str; 6] = [
    "\"detected=",
    "\"unproven=",
    "\"suspect=",
    "\"round=",
    "\"stack-stats",
    "\"recovery-suppressed",
];
/// The one file that may: the grammar itself.
const NOTE_GRAMMAR: &str = "runtime/src/note.rs";

/// What `ReplicatedLog::drive` was: behaviour decided by a substring.
const NOTE_MUST_FIRE: &str = "\
fn counts(note: &str) -> bool {
    !(note.contains(\"detected=\") && note.contains(\"class=out-of-order\"))
}
";

/// Identifier/number runs and single punctuation characters of one line,
/// with `self.` dropped so method bodies read like free code.
fn tokens(code: &str) -> Vec<&str> {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    let mut out = Vec::new();
    let mut rest = code;
    while let Some(c) = rest.chars().next() {
        let len = if word(c) {
            rest.find(|c| !word(c)).unwrap_or(rest.len())
        } else {
            c.len_utf8()
        };
        if !c.is_whitespace() {
            out.push(&rest[..len]);
        }
        rest = &rest[len..];
    }
    while let Some(i) = out.windows(2).position(|w| w == ["self", "."]) {
        out.drain(i..i + 2);
    }
    out
}

/// 1-indexed lines of `source` whose code `fires`, outside comments and
/// `#[cfg(test)]` items.
fn lines_where(source: &str, fires: impl Fn(&str) -> bool) -> Vec<usize> {
    let mut hits = Vec::new();
    // Brace depth inside a `#[cfg(test)]` item; `Some(0)` until it opens.
    let mut test_item: Option<usize> = None;
    for (i, line) in source.lines().enumerate() {
        let code = line.split("//").next().unwrap_or("");
        if code.trim() == "#[cfg(test)]" {
            test_item = Some(0);
        } else if let Some(depth) = test_item {
            let depth = depth + code.matches('{').count() - code.matches('}').count();
            // Over once the braces it opened are closed; a field or a
            // `use` opens none and is over at its `,` / `;`.
            let ends = code.contains('}') || code.trim_end().ends_with([',', ';']);
            test_item = (depth > 0 || !ends).then_some(depth);
        } else if fires(code) {
            hits.push(i + 1);
        }
    }
    assert_eq!(test_item, None, "unbalanced #[cfg(test)] item");
    hits
}

/// Lines that spell a threshold shape.
fn ad_hoc_thresholds(source: &str) -> Vec<usize> {
    lines_where(source, |code| {
        tokens(code)
            .windows(3)
            .any(|w| SHAPES.contains(&w.concat().as_str()))
    })
}

/// Lines that spell a note's text.
fn note_literals(source: &str) -> Vec<usize> {
    lines_where(source, |code| {
        NOTE_LITERALS.iter().any(|lit| code.contains(lit))
    })
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable crate directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn the_rule_fires_on_its_sample() {
    assert_eq!(ad_hoc_thresholds(MUST_FIRE), [8]);
    assert_eq!(ad_hoc_thresholds("let ready = 2*f + 1;"), [1]);
    assert!(ad_hoc_thresholds("let span = len - first; // n - f").is_empty());
    let in_test = "#[cfg(test)]\nmod tests {\n    fn q() { n - f }\n}\nfn p() { 3 * f }\n";
    assert_eq!(ad_hoc_thresholds(in_test), [5]);
}

#[test]
fn protocol_crates_route_every_threshold_through_ftm_quorum() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for name in SCOPE {
        rust_files(&crates.join(name), &mut files);
    }
    files.sort();
    let mut findings = Vec::new();
    for file in files.iter().filter(|f| !f.ends_with(EXEMPT)) {
        let source = fs::read_to_string(file).expect("readable source file");
        for line in ad_hoc_thresholds(&source) {
            findings.push(format!("{}:{line}", file.display()));
        }
    }
    assert!(
        findings.is_empty(),
        "ad-hoc quorum arithmetic; use `ftm_quorum::{{quorum_size, intersection_margin, \
         vector_validity_floor}}`: {findings:#?}"
    );
}

#[test]
fn the_note_rule_fires_on_its_sample() {
    assert_eq!(note_literals(NOTE_MUST_FIRE), [2]);
    assert_eq!(note_literals("ctx.note(format!(\"round={}\", r));"), [1]);
    assert!(note_literals("let rounds = rec.get(\"rounds\"); // \"round=\"").is_empty());
    let in_test = "#[cfg(test)]\nmod tests {\n    const S: &str = \"suspect=p2\";\n}\n";
    assert!(note_literals(in_test).is_empty());
    // A `#[cfg(test)]` field ends at its comma, not at the struct's brace.
    let field = "struct S {\n    #[cfg(test)]\n    probes: u64,\n}\nconst R: &str = \"round=\";\n";
    assert_eq!(note_literals(field), [5]);
}

#[test]
fn note_texts_are_spelled_in_the_grammar_module_only() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    rust_files(&root.join("src"), &mut files);
    files.sort();
    let mut findings = Vec::new();
    for file in files
        .iter()
        .filter(|f| !f.ends_with(NOTE_GRAMMAR) && !f.components().any(|c| c.as_os_str() == "tests"))
    {
        let source = fs::read_to_string(file).expect("readable source file");
        for line in note_literals(&source) {
            findings.push(format!("{}:{line}", file.display()));
        }
    }
    assert!(
        findings.is_empty(),
        "note text spelled outside its grammar; render and parse through \
         `ftm_runtime::note::Note`: {findings:#?}"
    );
}

#[test]
fn lint_levels_are_where_the_rules_need_them() {
    const D6: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]";
    const D7: &str = "#![deny(clippy::cast_possible_truncation)]";
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let has_line = |file: &Path, line: &str| {
        let text = fs::read_to_string(file).expect("readable file");
        assert!(
            text.lines().any(|l| l.trim_end() == line),
            "{} lost `{line}`",
            file.display()
        );
    };
    // D1–D4: the workspace levels, and every package inheriting them.
    let root = crates.join("../Cargo.toml");
    for level in ["disallowed_types", "disallowed_methods", "float_arithmetic"] {
        has_line(&root, &format!("{level} = \"deny\""));
    }
    let packages = fs::read_dir(&crates).expect("readable crates directory");
    let manifests = packages.map(|p| p.expect("directory entry").path().join("Cargo.toml"));
    for manifest in manifests.chain([root]) {
        let text = fs::read_to_string(&manifest).expect("readable manifest");
        assert!(
            text.contains("[lints]\nworkspace = true"),
            "{} no longer inherits the workspace lints",
            manifest.display()
        );
    }
    // D6 at the three message-handling crate roots, D7 at the three
    // threshold modules.
    for name in ["core", "certify", "detect"] {
        has_line(&crates.join(name).join("src/lib.rs"), D6);
    }
    for file in [
        "quorum/src/lib.rs",
        "core/src/quorum.rs",
        "certify/src/analyzer.rs",
    ] {
        has_line(&crates.join(file), D7);
    }
}

#[test]
fn design_inventory_and_facade_name_every_crate() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let design = fs::read_to_string(crates.join("../DESIGN.md")).expect("readable DESIGN.md");
    let inventory = design
        .split("\n## ")
        .find(|section| section.starts_with("2. "))
        .expect("DESIGN.md has a section 2");
    let facade = fs::read_to_string(crates.join("../src/lib.rs")).expect("readable facade");

    let mut names = vec!["ft-modular".to_string()];
    for dir in fs::read_dir(&crates).expect("readable crates directory") {
        let dir = dir.expect("directory entry").path();
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("readable manifest");
        let name = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))
            .expect("package name");
        // A library crate ships no binary of its own; those are what the
        // facade exists to gather.
        let library = dir.join("src/lib.rs").exists()
            && !dir.join("src/main.rs").exists()
            && !dir.join("src/bin").exists();
        let reexport = format!("pub use {} as ", name.replace('-', "_"));
        assert!(
            !library || facade.contains(&reexport),
            "src/lib.rs does not re-export library crate `{name}`"
        );
        names.push(name.to_string());
    }
    let missing: Vec<&String> = names
        .iter()
        .filter(|name| !inventory.contains(&format!("`{name}`")))
        .collect();
    assert!(missing.is_empty(), "DESIGN.md §2 omits {missing:?}");
}

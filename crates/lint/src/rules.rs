//! The seven determinism & quorum-discipline rules, D1–D7.
//!
//! Each rule is a token-level pattern with a path scope. Scopes are
//! expressed against repo-relative paths with forward slashes (the engine
//! normalises separators before calling in here), so the rules themselves
//! are pure functions of `(path, token stream)`.
//!
//! | Lint | Enforces                                                        |
//! |------|-----------------------------------------------------------------|
//! | D1   | no `f32`/`f64` outside `crates/bench/src/timing.rs`             |
//! | D2   | no `HashMap`/`HashSet` in report-feeding crates                 |
//! | D3   | no `Instant`/`SystemTime` outside timing.rs / net's `clock.rs`  |
//! | D4   | no `std::thread::spawn` outside `ftm_sim::harness` / net's `cluster.rs` |
//! | D5   | no ad-hoc quorum arithmetic outside `ftm-quorum`                |
//! | D6   | no `unwrap`/`expect`/`panic!` in message-handling paths         |
//! | D7   | no `as` narrowing casts in quorum/threshold arithmetic          |

use crate::lexer::{Lexed, TokenKind};

/// The lint identifiers, in report order. Reports always key counts by all
/// seven so the JSON shape never varies with the finding set.
pub const LINT_IDS: [&str; 7] = ["D1", "D2", "D3", "D4", "D5", "D6", "D7"];

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Lint identifier (`"D1"`..`"D6"`).
    pub lint: &'static str,
    /// Repo-relative path, forward slashes.
    pub file: String,
    /// 1-indexed source line.
    pub line: u32,
    /// Human-readable description with a remediation hint.
    pub message: String,
}

/// The sanctioned home of wall-clock time and floating point.
const TIMING: &str = "crates/bench/src/timing.rs";
/// The sanctioned home of `std::thread` fan-out.
const HARNESS: &str = "crates/sim/src/harness.rs";
/// The transport needs a real clock, but only ONE file in it may read
/// `Instant` directly: everything else (the node loop, the poll probe,
/// the load generator, the integration tests) goes through its
/// `WallClock` API. The crate gets no float pass (D1) either: byte
/// counters and timings there stay integer so load reports remain
/// byte-stable.
const NET_CLOCK: &str = "crates/net/src/clock.rs";
/// The transport's test harness: the one file in `crates/net` that may
/// spawn threads (one per node in loopback clusters and chaos tests).
/// Everything else — including the `tests/` directory — builds on its
/// `spawn_node` handles.
const NET_HARNESS: &str = "crates/net/src/cluster.rs";
/// Crates whose data feeds byte-stable reports (D2 scope).
const REPORT_FEEDING: [&str; 7] = [
    "crates/sim/",
    "crates/faults/",
    "crates/certify/",
    "crates/detect/",
    "crates/verify/",
    "crates/net/",
    "crates/serve/",
];
/// Crates whose protocol logic must route quorum thresholds through
/// `ftm_quorum` (D5 scope).
const QUORUM_SCOPE: [&str; 5] = [
    "crates/core/",
    "crates/certify/",
    "crates/rbcast/",
    "crates/detect/",
    "crates/faults/",
];
/// Crates whose message-handling paths must not abort (D6 scope).
const NO_PANIC_SCOPE: [&str; 3] = [
    "crates/core/src/",
    "crates/certify/src/",
    "crates/detect/src/",
];
/// Files allowed to spell quorum arithmetic out: the algebra crate itself
/// and its `ftm_core::quorum` re-export facade.
const QUORUM_HOMES: [&str; 2] = ["crates/quorum/src/lib.rs", "crates/core/src/quorum.rs"];
/// Files whose threshold arithmetic must not use `as` narrowing casts
/// (D7 scope): the quorum algebra, its facade, and the certificate
/// analyzer that turns quorum counts into verdicts.
const NARROWING_SCOPE: [&str; 3] = [
    "crates/quorum/",
    "crates/core/src/quorum.rs",
    "crates/certify/src/analyzer.rs",
];

fn in_scope(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// Runs every applicable rule over one lexed file.
pub fn check_file(path: &str, lexed: &Lexed) -> Vec<Finding> {
    let mut findings = Vec::new();
    if path != TIMING {
        check_d1(path, lexed, &mut findings);
    }
    if path != TIMING && path != NET_CLOCK {
        check_d3(path, lexed, &mut findings);
    }
    if in_scope(path, &REPORT_FEEDING) {
        check_d2(path, lexed, &mut findings);
    }
    if path != HARNESS && path != NET_HARNESS {
        check_d4(path, lexed, &mut findings);
    }
    if in_scope(path, &QUORUM_SCOPE) && !QUORUM_HOMES.contains(&path) {
        check_d5(path, lexed, &mut findings);
    }
    if in_scope(path, &NO_PANIC_SCOPE) {
        check_d6(path, lexed, &mut findings);
    }
    if in_scope(path, &NARROWING_SCOPE) {
        check_d7(path, lexed, &mut findings);
    }
    findings
}

/// Whether a `Number` token spells a floating-point literal.
fn is_float_literal(text: &str) -> bool {
    if text.starts_with("0x")
        || text.starts_with("0X")
        || text.starts_with("0b")
        || text.starts_with("0o")
    {
        return false;
    }
    if text.contains('.') || text.ends_with("f32") || text.ends_with("f64") {
        return true;
    }
    // Exponent form: digits, then `e`/`E`, then digits (a signed exponent
    // like `1e-3` splits at the sign, leaving a bare trailing `e`). Suffixed
    // integers (`4usize`, `3i64`) have a non-`e` letter first, so they
    // don't match.
    let rest: String = text
        .chars()
        .skip_while(|c| c.is_ascii_digit() || *c == '_')
        .collect();
    match rest.chars().next() {
        Some('e' | 'E') => rest[1..].chars().all(|c| c.is_ascii_digit() || c == '_'),
        _ => false,
    }
}

fn check_d1(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    for tok in &lexed.tokens {
        let hit = match tok.kind {
            TokenKind::Ident => tok.text == "f32" || tok.text == "f64",
            TokenKind::Number => is_float_literal(&tok.text),
            TokenKind::Punct => false,
        };
        if hit {
            out.push(Finding {
                lint: "D1",
                file: path.to_string(),
                line: tok.line,
                message: format!(
                    "floating point (`{}`) breaks byte-stable reports; use integer \
                     tenths/ratios, or move timing into {TIMING}",
                    tok.text
                ),
            });
        }
    }
}

fn check_d2(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    for tok in &lexed.tokens {
        if tok.kind == TokenKind::Ident && (tok.text == "HashMap" || tok.text == "HashSet") {
            out.push(Finding {
                lint: "D2",
                file: path.to_string(),
                line: tok.line,
                message: format!(
                    "`{}` iteration order is nondeterministic and this crate feeds \
                     reports; use `BTreeMap`/`BTreeSet` or emit sorted",
                    tok.text
                ),
            });
        }
    }
}

fn check_d3(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    for tok in &lexed.tokens {
        if tok.kind == TokenKind::Ident && (tok.text == "Instant" || tok.text == "SystemTime") {
            out.push(Finding {
                lint: "D3",
                file: path.to_string(),
                line: tok.line,
                message: format!(
                    "wall-clock time (`{}`) outside {TIMING} and {NET_CLOCK}; \
                     simulations run on `VirtualTime`, benches on \
                     `timing::Stopwatch`, and the transport reads time through \
                     `ftm_net::WallClock`",
                    tok.text
                ),
            });
        }
    }
}

fn check_d4(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for i in 0..toks.len().saturating_sub(3) {
        if toks[i].text == "thread"
            && toks[i + 1].text == ":"
            && toks[i + 2].text == ":"
            && (toks[i + 3].text == "spawn" || toks[i + 3].text == "Builder")
        {
            out.push(Finding {
                lint: "D4",
                file: path.to_string(),
                line: toks[i].line,
                message: "raw thread spawning outside `ftm_sim::harness` and the \
                          transport harness (crates/net/src/cluster.rs); route \
                          parallelism through `harness::parallel_map` or node \
                          threads through `ftm_net::spawn_node` so worker count \
                          cannot leak into results"
                    .to_string(),
            });
        }
    }
}

fn check_d5(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    // Normalise `self . n` to `n` so method bodies match the same patterns
    // as free code, then look for the classic threshold shapes.
    let mut view: Vec<usize> = Vec::with_capacity(lexed.tokens.len());
    let toks = &lexed.tokens;
    let mut i = 0;
    while i < toks.len() {
        if i + 2 < toks.len() && toks[i].text == "self" && toks[i + 1].text == "." {
            i += 2; // keep only the field identifier
            continue;
        }
        view.push(i);
        i += 1;
    }
    const PATTERNS: [(&[&str], &str); 4] = [
        (&["n", "-", "f"], "quorum_size(n, f)"),
        (&["n", "+", "f"], "bracha_echo_quorum(n, f)"),
        (
            &["2", "*", "f"],
            "bracha_ready_quorum(f) / intersection_margin(n, f)",
        ),
        (&["3", "*", "f"], "bracha_min_n(f)"),
    ];
    for w in 0..view.len() {
        for (pat, hint) in PATTERNS {
            if w + pat.len() > view.len() {
                continue;
            }
            let matched = pat
                .iter()
                .enumerate()
                .all(|(k, want)| toks[view[w + k]].text == *want);
            if matched && !lexed.in_test_region(view[w]) {
                let spelled: Vec<&str> = pat.to_vec();
                out.push(Finding {
                    lint: "D5",
                    file: path.to_string(),
                    line: toks[view[w]].line,
                    message: format!(
                        "ad-hoc quorum arithmetic `{}`; use `ftm_quorum::{hint}` so \
                         every threshold shares one audited derivation",
                        spelled.join(" ")
                    ),
                });
                break; // one finding per site even if patterns overlap
            }
        }
    }
}

fn check_d6(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if lexed.in_test_region(i) {
            continue;
        }
        let (hit, name) = if i > 0
            && toks[i - 1].text == "."
            && (toks[i].text == "unwrap" || toks[i].text == "expect")
        {
            (true, toks[i].text.as_str())
        } else if toks[i].text == "panic" && i + 1 < toks.len() && toks[i + 1].text == "!" {
            (true, "panic!")
        } else {
            (false, "")
        };
        if hit {
            out.push(Finding {
                lint: "D6",
                file: path.to_string(),
                line: toks[i].line,
                message: format!(
                    "`{name}` in a message-handling crate can crash a correct \
                     replica on adversarial input; return an error or drop the \
                     message (`let .. else`)"
                ),
            });
        }
    }
}

fn check_d7(path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    /// Integer types an `as` cast can silently truncate a count into.
    const NARROW: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];
    let toks = &lexed.tokens;
    for i in 0..toks.len().saturating_sub(1) {
        if lexed.in_test_region(i) {
            continue;
        }
        if toks[i].kind == TokenKind::Ident
            && toks[i].text == "as"
            && toks[i + 1].kind == TokenKind::Ident
            && NARROW.contains(&toks[i + 1].text.as_str())
        {
            out.push(Finding {
                lint: "D7",
                file: path.to_string(),
                line: toks[i].line,
                message: format!(
                    "`as {}` in threshold arithmetic truncates silently; use \
                     `try_into()`/`try_from()` and handle the error fail-closed",
                    toks[i + 1].text
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lints_of(path: &str, src: &str) -> Vec<&'static str> {
        check_file(path, &lex(src))
            .into_iter()
            .map(|f| f.lint)
            .collect()
    }

    #[test]
    fn d1_fires_on_types_and_literals_but_not_in_timing() {
        let src = "fn f(x: f64) -> f32 { let y = 1.5; x as f32 }";
        assert_eq!(lints_of("crates/sim/src/x.rs", src), ["D1"; 4]);
        assert!(lints_of("crates/bench/src/timing.rs", src).is_empty());
    }

    #[test]
    fn d1_ignores_integer_literals_and_ranges() {
        let src =
            "fn f() { let a = 0x1e; let b = 10u64; let c = 4usize; for i in 0..7 { let _ = i; } }";
        assert!(lints_of("crates/sim/src/x.rs", src).is_empty());
        assert_eq!(
            lints_of("crates/sim/src/x.rs", "fn f() { let x = 1e3; }"),
            ["D1"]
        );
        assert_eq!(
            lints_of("crates/sim/src/x.rs", "fn f() { let x = 1e-3; }"),
            ["D1"]
        );
    }

    #[test]
    fn d2_is_scoped_to_report_feeding_crates() {
        let src = "use std::collections::HashMap;";
        assert_eq!(lints_of("crates/certify/src/x.rs", src), ["D2"]);
        assert!(lints_of("crates/rbcast/src/x.rs", src).is_empty());
    }

    #[test]
    fn d3_fires_outside_timing() {
        let src = "use std::time::Instant; fn f() { let _ = Instant::now(); }";
        assert_eq!(lints_of("crates/core/src/x.rs", src), ["D3", "D3"]);
        assert!(lints_of("crates/bench/src/timing.rs", src).is_empty());
    }

    #[test]
    fn d4_fires_outside_harness() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(lints_of("crates/bench/src/x.rs", src), ["D4"]);
        assert!(lints_of("crates/sim/src/harness.rs", src).is_empty());
    }

    #[test]
    fn d3_and_d4_sanction_single_files_in_net_not_the_crate() {
        let clocky = "use std::time::Instant; fn f() { let _ = Instant::now(); }";
        let spawny = "fn f() { std::thread::spawn(|| {}); }";
        assert!(lints_of("crates/net/src/clock.rs", clocky).is_empty());
        assert!(lints_of("crates/net/src/cluster.rs", spawny).is_empty());
        // The rest of the transport crate — node loop, poll probe, even
        // its tests/ directory — must go through WallClock / spawn_node.
        assert_eq!(lints_of("crates/net/src/node.rs", clocky), ["D3", "D3"]);
        assert_eq!(lints_of("crates/net/src/poll.rs", clocky), ["D3", "D3"]);
        assert_eq!(lints_of("crates/net/src/node.rs", spawny), ["D4"]);
        assert_eq!(
            lints_of("crates/net/tests/chaos_cluster.rs", spawny),
            ["D4"]
        );
        // The server binaries sit *above* the transport: they must get
        // their clocks and threads from ftm-net, not spell their own.
        assert_eq!(lints_of("crates/serve/src/main.rs", clocky), ["D3", "D3"]);
        assert_eq!(lints_of("crates/serve/src/main.rs", spawny), ["D4"]);
    }

    #[test]
    fn net_gets_no_float_pass() {
        let src = "fn f() -> f64 { 1.5 }";
        assert_eq!(lints_of("crates/net/src/node.rs", src), ["D1", "D1"]);
    }

    #[test]
    fn d2_covers_net_and_serve() {
        let src = "use std::collections::HashMap;";
        assert_eq!(lints_of("crates/net/src/node.rs", src), ["D2"]);
        assert_eq!(lints_of("crates/serve/src/lib.rs", src), ["D2"]);
    }

    #[test]
    fn d5_matches_self_qualified_threshold_arithmetic() {
        let src = "impl Q { fn q(&self) -> usize { self.n - self.f } }";
        assert_eq!(lints_of("crates/certify/src/x.rs", src), ["D5"]);
        assert!(lints_of("crates/quorum/src/lib.rs", src).is_empty());
        assert!(lints_of("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn d5_skips_test_regions() {
        let src = "#[cfg(test)]\nmod tests { fn t() { let q = n - f; } }";
        assert!(lints_of("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn d6_fires_in_production_but_not_tests() {
        let src =
            "fn handle() { msg.unwrap(); }\n#[cfg(test)]\nmod t { fn x() { y.expect(\"e\"); } }";
        assert_eq!(lints_of("crates/detect/src/x.rs", src), ["D6"]);
        assert!(lints_of("crates/bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn d6_leaves_unwrap_or_variants_alone() {
        let src = "fn handle() { let v = msg.unwrap_or(0); let w = msg.unwrap_or_default(); let _ = (v, w); }";
        assert!(lints_of("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn d7_flags_narrowing_casts_in_scope_only() {
        let src = "fn q(n: u64) -> u32 { (n - 1) as u32 }";
        assert_eq!(lints_of("crates/quorum/src/lib.rs", src), ["D7"]);
        assert_eq!(lints_of("crates/certify/src/analyzer.rs", src), ["D7"]);
        assert!(lints_of("crates/certify/src/vector.rs", src).is_empty());
    }

    #[test]
    fn d7_allows_widening_casts_and_test_regions() {
        let widening = "fn q(n: u32) -> u64 { n as u64 + (n as usize as u64) }";
        assert!(lints_of("crates/quorum/src/lib.rs", widening).is_empty());
        let test_only = "#[cfg(test)]\nmod tests { fn t(n: u64) -> u32 { n as u32 } }";
        assert!(lints_of("crates/quorum/src/lib.rs", test_only).is_empty());
    }
}

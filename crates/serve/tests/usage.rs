//! `ftm-serve` validates its options before it touches the network: an
//! `--f` beyond `⌊(n−1)/3⌋` for `n` peers, a `--slots 0` log, or a flag
//! it does not know, is a usage error (exit 2) whose message names the
//! flag. The peer addresses are never dialled.

use std::process::Command;

/// Runs `ftm-serve --id 0 --peers <n addresses> <extra…>`; returns the
/// exit code and stderr.
fn serve_with(peers: usize, extra: &[&str]) -> (Option<i32>, String) {
    let peers: Vec<String> = (0..peers).map(|i| format!("127.0.0.1:{}", 9 + i)).collect();
    let out = Command::new(env!("CARGO_BIN_EXE_ftm-serve"))
        .args(["--id", "0", "--peers", &peers.join(",")])
        .args(extra)
        .output()
        .expect("ftm-serve runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn an_f_beyond_the_bound_is_a_usage_error() {
    // Four peers admit F = 1; five also admit only F = 1 (quorums of three
    // out of five can share just one, faulty, process).
    for (peers, f, bound) in [(4, 2, 1), (5, 2, 1), (7, 3, 2)] {
        let (code, stderr) = serve_with(peers, &["--f", &f.to_string()]);
        assert_eq!(code, Some(2), "n = {peers}, --f {f}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "--f must not exceed ⌊(n−1)/3⌋ = {bound} for n = {peers} peers (got {f})"
            )),
            "n = {peers}, --f {f}: {stderr}"
        );
    }
}

#[test]
fn a_log_of_no_slots_is_a_usage_error() {
    // Refused before any key is generated: `ReplicatedLog::new` would
    // panic on it (exit 101).
    let (code, stderr) = serve_with(4, &["--slots", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("--slots must be at least 1 (got 0)"),
        "{stderr}"
    );
}

#[test]
fn a_start_option_is_an_unknown_flag() {
    // Every replica starts its actor at once; a script that still asks
    // for a start option fails loudly instead of running without it.
    let (code, stderr) = serve_with(4, &["--barrier", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --barrier"), "{stderr}");
}

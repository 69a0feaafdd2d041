//! Command-line front end for `ftm-flow`.
//!
//! ```text
//! ftm-flow [--root DIR] [--allowlist FILE] [--json]
//! ```
//!
//! Runs pass F2 (send sites ↔ `ProtocolSpec` obligations) over the
//! Byzantine actors. Exit codes: `0` clean, `1` active findings or stale
//! allowlist entries, `2` usage or I/O error. `--json` prints the
//! byte-stable report to stdout (the human summary goes to stderr so the
//! JSON stays clean).

use std::path::PathBuf;
use std::process::ExitCode;

use ftm_flow::report::{FlowReport, PASS_IDS};

struct Args {
    root: PathBuf,
    allowlist: Option<PathBuf>,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut root = PathBuf::from(".");
    let mut allowlist = None;
    let mut json = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => {
                root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--allowlist" => {
                allowlist = Some(PathBuf::from(it.next().ok_or("--allowlist needs a file")?));
            }
            "--help" | "-h" => {
                return Err("usage: ftm-flow [--root DIR] [--allowlist FILE] [--json]".to_string());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        root,
        allowlist,
        json,
    })
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let allowlist_path = args
        .allowlist
        .unwrap_or_else(|| args.root.join("crates/flow/allowlist.txt"));
    let entries = match std::fs::read_to_string(&allowlist_path) {
        Ok(text) => ftm_lint::parse_allowlist_with(&text, &PASS_IDS)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", allowlist_path.display())),
    };
    let analysis = ftm_flow::scan_workspace(&args.root)
        .map_err(|e| format!("scanning {}: {e}", args.root.display()))?;
    let report = FlowReport::new(analysis, &entries);
    if args.json {
        print!("{}", report.to_json().render());
        eprint!("{}", report.to_text());
    } else {
        print!("{}", report.to_text());
    }
    Ok(report.ok())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("ftm-flow: {msg}");
            ExitCode::from(2)
        }
    }
}

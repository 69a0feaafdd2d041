//! `ftm-load`: drive a cluster of `ftm-serve` replicas and report.
//!
//! ```text
//! ftm-load --peers 127.0.0.1:7100,127.0.0.1:7101,... \
//!          [--slots 1000] [--cluster 0] [--clients N] \
//!          [--requests-per-client 16] [--targets a:p,b:p] [--seed S] \
//!          [--poll-ms 100] [--timeout-ms 120000] [--out report.json]
//! ```
//!
//! Two phases:
//!
//! * **load**: a single-threaded [`ftm_net::run_load`] loop drives
//!   `--clients` concurrent connections (default: one per peer) —
//!   `--requests-per-client` submissions each against `--targets`
//!   (default: all peers), with reconnect backoff and integer-µs latency
//!   percentiles;
//! * **monitor**: one worker per replica (fanned out through the
//!   harness's `parallel_map`, the repo's only sanctioned thread pool
//!   outside the transport) polls `Status` until the replica reports a
//!   complete, halted log.
//!
//! Afterwards the main thread checks the cluster invariants — every
//! replica halted, no contradictions, **all log digests equal**, the
//! batching ledger conservation law (`submitted == queued + inflight +
//! committed`) on every replica, zero convictions — sends `Shutdown`
//! everywhere, and emits a byte-stable integer-only JSON report (exit
//! code 0 only if every invariant holds).
//!
//! Elapsed time is the *maximum replica-reported* `now_ms`: the load
//! generator itself never reads a clock, keeping this crate inside the
//! determinism lint's no-wall-clock scope.

use std::env;
use std::process::ExitCode;

use ftm_crypto::wire::{CanonicalDecode, CanonicalEncode};
use ftm_net::{run_load, ClientConn, LoadConfig};
use ftm_serve::api::{Reply, Request, Status};
use ftm_serve::args::Args;
use ftm_serve::hex;
use ftm_sim::harness::parallel_map;
use ftm_sim::Json;

const FLAGS: [&str; 10] = [
    "peers",
    "slots",
    "cluster",
    "clients",
    "requests-per-client",
    "targets",
    "seed",
    "poll-ms",
    "timeout-ms",
    "out",
];

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ftm-load: {e}");
            ExitCode::from(2)
        }
    }
}

struct Drive {
    cluster: u64,
    slots: u64,
    poll_ms: u64,
    timeout_ms: u64,
}

fn run() -> Result<ExitCode, String> {
    let args = Args::parse(env::args().skip(1), &FLAGS)?;
    let peers = args.list("peers")?;
    let slots = args.u64_or("slots", 1000)?;
    let clients = args.u64_or("clients", peers.len() as u64)? as usize;
    let requests_per_client = args.u64_or("requests-per-client", 16)?;
    let drive = Drive {
        cluster: args.u64_or("cluster", 0)?,
        slots,
        poll_ms: args.u64_or("poll-ms", 100)?,
        timeout_ms: args.u64_or("timeout-ms", 120_000)?,
    };

    let targets = match args.get("targets") {
        Some(_) => args.list("targets")?,
        None => peers.clone(),
    };
    let lcfg = LoadConfig {
        clients,
        targets,
        cluster: drive.cluster,
        requests_per_client,
        seed: args.u64_or("seed", 0xD00D)?,
        timeout_ms: drive.timeout_ms,
    };
    let load = run_load(
        &lcfg,
        |i, k| {
            // Distinct, replayable values per (client, sequence).
            let value = 0xC2_0000_0000 + (i as u64) * requests_per_client + k;
            Request::Submit { value }.canonical_bytes()
        },
        |_, frame| {
            matches!(
                Reply::from_canonical_bytes(frame),
                Ok(Reply::Submitted { .. })
            )
        },
    )
    .map_err(|e| format!("load phase: {e}"))?;
    eprintln!(
        "ftm-load: {} clients completed {} requests ({} reconnects) in {} ms",
        clients, load.completed, load.reconnects, load.elapsed_ms
    );

    let results: Vec<Result<Status, String>> =
        parallel_map(&peers, peers.len(), |_, addr| monitor_replica(addr, &drive));

    // Shut every replica down regardless of outcome, so a failed check
    // still leaves no orphan servers behind.
    for addr in &peers {
        if let Ok(mut conn) = ClientConn::connect(addr, drive.cluster) {
            let _ = conn.request(&Request::Shutdown.canonical_bytes());
        }
    }

    let mut statuses = Vec::new();
    let mut errors = Vec::new();
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Ok(s) => statuses.push(s),
            Err(e) => errors.push(format!("replica {i}: {e}")),
        }
    }

    let all_halted = errors.is_empty() && statuses.iter().all(|s| s.halted);
    let none_contradicted = statuses.iter().all(|s| !s.contradicted);
    let all_complete = statuses.iter().all(|s| s.decided_slots >= drive.slots);
    let digests_agree = statuses
        .windows(2)
        .all(|w| w[0].log_digest == w[1].log_digest);
    // The batching ledger's conservation law, at every replica.
    let conserved = statuses
        .iter()
        .all(|s| s.submitted == s.queued + s.inflight + s.committed);
    let convictions: Vec<String> = statuses
        .iter()
        .flat_map(|s| s.convicted.iter().map(|c| format!("p{} saw {c}", s.me)))
        .collect();
    let ok = all_halted
        && none_contradicted
        && all_complete
        && digests_agree
        && conserved
        && convictions.is_empty();

    let elapsed_ms = statuses.iter().map(|s| s.now_ms).max().unwrap_or(0).max(1);
    let total_bytes: u64 = statuses.iter().map(|s| s.bytes_sent).sum();
    let total_msgs: u64 = statuses.iter().map(|s| s.msgs_sent).sum();
    let report = Json::Obj(vec![
        ("ok".into(), Json::Bool(ok)),
        ("replicas".into(), Json::U64(statuses.len() as u64)),
        ("slots".into(), Json::U64(drive.slots)),
        ("all_halted".into(), Json::Bool(all_halted)),
        ("all_complete".into(), Json::Bool(all_complete)),
        ("digests_agree".into(), Json::Bool(digests_agree)),
        ("none_contradicted".into(), Json::Bool(none_contradicted)),
        ("conserved".into(), Json::Bool(conserved)),
        (
            "log_digest".into(),
            Json::Str(
                statuses
                    .first()
                    .map_or_else(String::new, |s| hex(&s.log_digest)),
            ),
        ),
        (
            "convictions".into(),
            Json::Arr(convictions.into_iter().map(Json::Str).collect()),
        ),
        (
            "errors".into(),
            Json::Arr(errors.into_iter().map(Json::Str).collect()),
        ),
        ("elapsed_ms".into(), Json::U64(elapsed_ms)),
        (
            "slots_per_sec".into(),
            Json::U64(drive.slots.saturating_mul(1000) / elapsed_ms),
        ),
        (
            "slots_per_sec_milli".into(),
            Json::U64(drive.slots.saturating_mul(1_000_000) / elapsed_ms),
        ),
        ("total_msgs_sent".into(), Json::U64(total_msgs)),
        ("total_bytes_sent".into(), Json::U64(total_bytes)),
        (
            "bytes_per_slot".into(),
            Json::U64(total_bytes / drive.slots.max(1)),
        ),
        (
            "total_submitted".into(),
            Json::U64(statuses.iter().map(|s| s.submitted).sum()),
        ),
        (
            "total_committed".into(),
            Json::U64(statuses.iter().map(|s| s.committed).sum()),
        ),
        ("clients".into(), Json::U64(clients as u64)),
        ("load_completed".into(), Json::U64(load.completed)),
        ("load_rejected".into(), Json::U64(load.rejected)),
        ("load_reconnects".into(), Json::U64(load.reconnects)),
        ("load_elapsed_ms".into(), Json::U64(load.elapsed_ms)),
        ("load_p50_us".into(), Json::U64(load.p50_us)),
        ("load_p95_us".into(), Json::U64(load.p95_us)),
        (
            "load_requests_per_sec".into(),
            Json::U64(load.completed.saturating_mul(1000) / load.elapsed_ms.max(1)),
        ),
    ]);
    let rendered = report.render();
    print!("{rendered}");
    if let Some(path) = args.get("out") {
        std::fs::write(path, &rendered).map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Worker for one replica: poll until the log is complete and halted,
/// return the final status. A refused or dropped connection is not fatal:
/// the replica may still be booting or mid-restart (the chaos smoke kills
/// one on purpose), so the worker redials and keeps polling until the
/// attempt budget runs out.
fn monitor_replica(addr: &String, drive: &Drive) -> Result<Status, String> {
    let poll = std::time::Duration::from_millis(drive.poll_ms.max(1));
    let attempts = (drive.timeout_ms / drive.poll_ms.max(1)).max(1);
    let mut conn = None;
    let mut last = None;
    for _ in 0..attempts {
        let polled = match conn.as_mut() {
            Some(c) => request(c, &Request::Status),
            None => Err("disconnected".into()),
        };
        match polled {
            Ok(Reply::Status(s)) if s.halted && s.decided_slots >= drive.slots => return Ok(s),
            Ok(Reply::Status(s)) => last = Some(s),
            Ok(other) => return Err(format!("{addr}: unexpected status reply {other:?}")),
            Err(_) => conn = ClientConn::connect(addr, drive.cluster).ok(),
        }
        std::thread::sleep(poll);
    }
    Err(format!(
        "{addr}: log incomplete after {} ms (last: {} of {} slots)",
        drive.timeout_ms,
        last.map_or(0, |s| s.decided_slots),
        drive.slots
    ))
}

fn request(conn: &mut ClientConn, req: &Request) -> Result<Reply, String> {
    let frame = conn
        .request(&req.canonical_bytes())
        .map_err(|e| format!("request failed: {e}"))?;
    Reply::from_canonical_bytes(&frame).map_err(|e| format!("bad reply: {e}"))
}

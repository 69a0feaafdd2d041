//! `ftm-serve`: one replica of the transformed Byzantine replicated log
//! on real TCP.
//!
//! ```text
//! ftm-serve --id 0 --peers 127.0.0.1:7100,127.0.0.1:7101,... \
//!           [--protocol hr|ct] [--f 1] [--slots 1000] [--seed 0xD00D] \
//!           [--cluster 0] [--timeout-ms 120000] [--batch 1] \
//!           [--barrier 1] [--delay-ms 0]
//! ```
//!
//! The replica is the *same actor* the simulator sweeps: a
//! [`ReplicatedLog`] over the Hurfin–Raynal (`hr`) or Chandra–Toueg
//! (`ct`) transformed consensus, full certify/detect stack included. Key
//! material is derived deterministically from `--seed`, so all replicas
//! started with the same seed share a key directory without any exchange.
//! `--f` may not exceed `⌊(n−1)/3⌋` for `n` peers, the transformed
//! protocols' resilience bound; a larger value is a usage error.
//!
//! Commands come from client `Submit` requests (see `ftm-load`); an
//! opening slot drains up to `--batch` queued commands into one proposal
//! (see [`ftm_serve::batch`]), falling back to a deterministic filler
//! when the queue is empty. The process exits after deciding `--slots`
//! slots *and* receiving a client `Shutdown` (or when `--timeout-ms`
//! trips), printing a byte-stable JSON summary on stdout.
//!
//! `--barrier 0` skips the start barrier: a replica restarted into a
//! live cluster cannot expect a fresh mesh handshake from peers that are
//! already running, so it starts its actor immediately and relies on the
//! checkpoint catch-up protocol (always enabled here) to reach the
//! cluster's current slot.

use std::env;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

use ftm_core::byzantine::log::ReplicatedLog;
use ftm_core::byzantine::{ByzantineChandraToueg, ByzantineConsensus, TransformedProtocol};
use ftm_core::config::ProtocolConfig;
use ftm_crypto::wire::{CanonicalDecode, CanonicalEncode};
use ftm_net::{parse_convictions, run_node, NetReport, NodeConfig, ServiceReply};
use ftm_runtime::ProcessId;
use ftm_serve::api::{Reply, Request, Status};
use ftm_serve::args::Args;
use ftm_serve::batch::BatchState;
use ftm_serve::log_digest;
use ftm_sim::Json;

const FLAGS: [&str; 11] = [
    "id",
    "peers",
    "protocol",
    "f",
    "slots",
    "seed",
    "cluster",
    "timeout-ms",
    "batch",
    "barrier",
    "delay-ms",
];

/// Checkpoints shipped per catch-up reply (see
/// [`ReplicatedLog::with_catchup`]); recovery proceeds in strides of this
/// many slots per round-trip.
const CATCHUP_WINDOW: u64 = 16;

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ftm-serve: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args = Args::parse(env::args().skip(1), &FLAGS)?;
    let peers = args.list("peers")?;
    let id = args.u64_or("id", u64::MAX)?;
    if id as usize >= peers.len() {
        return Err(format!(
            "--id must index into --peers (got {id} with {} peers)",
            peers.len()
        ));
    }
    let (n, f) = (peers.len(), args.u64_or("f", 1)? as usize);
    let bound = ftm_core::quorum::default_cert_capacity(n);
    if f > bound {
        return Err(format!(
            "--f must not exceed ⌊(n−1)/3⌋ = {bound} for n = {n} peers (got {f})"
        ));
    }
    let slots = args.u64_or("slots", 1000)?;
    if slots == 0 {
        return Err("--slots must be at least 1 (got 0)".to_string());
    }
    let seed = args.u64_or("seed", 0xD00D)?;
    let cluster = args.u64_or("cluster", 0)?;
    let timeout_ms = args.u64_or("timeout-ms", 120_000)?;
    let batch = args.u64_or("batch", 1)?.max(1);
    let me = ProcessId(u32::try_from(id).map_err(|_| "--id out of range".to_string())?);
    let mut cfg = NodeConfig::new(me, peers, cluster, seed);
    cfg.run_timeout_ms = timeout_ms;
    cfg.start_barrier = args.u64_or("barrier", 1)? != 0;
    // Artificial per-hop latency (the transport's `tc netem` knob): with
    // a few ms per hop the slot cadence is delay-dominated instead of
    // machine-dominated, which lets chaos scripts time a kill/restart
    // window in wall-clock seconds and have it land mid-run everywhere.
    cfg.delivery_delay_ms = args.u64_or("delay-ms", 0)?;
    match args.get("protocol").unwrap_or("hr") {
        "hr" => serve::<ByzantineConsensus>(&cfg, f, slots, seed, batch),
        "ct" => serve::<ByzantineChandraToueg>(&cfg, f, slots, seed, batch),
        other => Err(format!("--protocol must be hr or ct, got `{other}`")),
    }
}

fn serve<P>(
    cfg: &NodeConfig,
    f: usize,
    slots: u64,
    seed: u64,
    batch: u64,
) -> Result<ExitCode, String>
where
    P: TransformedProtocol + Send + 'static,
{
    let setup = ProtocolConfig::new(cfg.n, f).seed(seed).setup();
    let me = cfg.me;
    // The batching ledger, shared by the command source (drains up to
    // `batch` commands per opening slot), the slot hook (settles sealed
    // slots) and the client service (submits and status snapshots). All
    // three run on the node loop thread; the mutex is never contended.
    let ledger: Arc<Mutex<BatchState>> = Arc::new(Mutex::new(BatchState::new(batch)));
    let source = Arc::clone(&ledger);
    let settle = Arc::clone(&ledger);
    let actor = ReplicatedLog::<P>::new(&setup, me, slots, move |slot, p| {
        source
            .lock()
            .ok()
            .and_then(|mut q| q.propose(slot))
            .unwrap_or(1_000_000 * (slot + 1) + u64::from(p))
    })
    .with_slot_hook(move |slot, vector| {
        if let Ok(mut q) = settle.lock() {
            q.on_sealed(slot, vector.get(me.index()));
        }
    })
    .with_catchup(CATCHUP_WINDOW);
    // Bind with retry (ftm_net::rebind): a replica restarted into a live
    // cluster races the kernel's release of its previous incarnation's
    // address, so a single bind attempt would fail spuriously.
    let listener = ftm_net::rebind(&cfg.peers[me.index()])
        .map_err(|e| format!("bind {}: {e}", cfg.peers[me.index()]))?;
    eprintln!(
        "ftm-serve: replica {me} of {} listening on {}, {slots} slots",
        cfg.n,
        cfg.peers[me.index()]
    );

    let report =
        run_node(
            cfg,
            listener,
            actor,
            |actor, view, frame| match Request::from_canonical_bytes(frame) {
                Ok(Request::Submit { value }) => {
                    let queued = ledger.lock().map_or(0, |mut q| q.submit(value));
                    ServiceReply::reply(Reply::Submitted { queued }.canonical_bytes())
                }
                Ok(Request::Status) => {
                    let status = Status {
                        me: me.0,
                        now_ms: view.now.ticks(),
                        decided_slots: actor.decided_slots() as u64,
                        halted: view.halted,
                        contradicted: view.contradicted,
                        log_digest: log_digest(actor.decided_log()),
                        convicted: parse_convictions(view.notes)
                            .into_iter()
                            .map(|(who, class)| format!("{who} {class}"))
                            .collect(),
                        queued: ledger.lock().map_or(0, |q| q.queued()),
                        msgs_sent: view.msgs_sent,
                        msgs_received: view.msgs_received,
                        bytes_sent: view.bytes_sent,
                        bytes_received: view.bytes_received,
                        batch,
                        submitted: ledger.lock().map_or(0, |q| q.submitted()),
                        committed: ledger.lock().map_or(0, |q| q.committed()),
                        inflight: ledger.lock().map_or(0, |q| q.inflight()),
                        committed_digest: ledger
                            .lock()
                            .map_or_else(|_| Vec::new(), |q| q.committed_digest()),
                    };
                    ServiceReply::reply(Reply::Status(status).canonical_bytes())
                }
                Ok(Request::Shutdown) => {
                    ServiceReply::shutdown(Reply::ShuttingDown.canonical_bytes())
                }
                Err(e) => ServiceReply::reply(Reply::BadRequest(format!("{e}")).canonical_bytes()),
            },
        )
        .map_err(|e| format!("node failed: {e}"))?;

    let committed = ledger.lock().map_or(0, |q| q.committed());
    println!(
        "{}",
        render_report(&report, slots, batch, committed).render()
    );
    Ok(if report.halted && !report.contradicted {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The final per-replica summary printed on stdout (integers only, keys
/// in fixed order — byte-stable given equal state).
fn render_report<D>(report: &NetReport<D>, slots: u64, batch: u64, committed: u64) -> Json {
    let convictions: Vec<Json> = parse_convictions(&report.notes)
        .into_iter()
        .map(|(who, class)| Json::Str(format!("{who} {class}")))
        .collect();
    Json::Obj(vec![
        ("replica".into(), Json::U64(u64::from(report.me.0))),
        ("slots_target".into(), Json::U64(slots)),
        ("batch".into(), Json::U64(batch)),
        ("committed_commands".into(), Json::U64(committed)),
        ("halted".into(), Json::Bool(report.halted)),
        ("contradicted".into(), Json::Bool(report.contradicted)),
        ("convictions".into(), Json::Arr(convictions)),
        ("msgs_sent".into(), Json::U64(report.msgs_sent)),
        ("msgs_received".into(), Json::U64(report.msgs_received)),
        ("bytes_sent".into(), Json::U64(report.bytes_sent)),
        ("bytes_received".into(), Json::U64(report.bytes_received)),
        ("elapsed_ms".into(), Json::U64(report.end_time.ticks())),
    ])
}

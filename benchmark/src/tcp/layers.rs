//! The boundary metrics of a traced TCP repetition: what the closures and
//! wrappers around the public calls recorded, turned into per-layer
//! numbers and spans.
//!
//! Every `*_per_slot` figure is summed over the replicas, i.e. per slot of
//! the log; only `net.slot_wait_us` is per replica and slot.

use std::ops::Range;

use ftm_crypto::keydir::KeyDirectory;

use super::{Raw, ACTIVE, N};
use crate::metrics::{ratio, Values};
use crate::notes::StackTotals;
use crate::span::{push_slot_trees, self_times, Span};
use crate::stats::summary;

/// Most spans of single commands kept per traced repetition.
const COMMAND_SPAN_SAMPLE: usize = 2048;

/// One slot at one replica: it opens when the command source is asked and
/// seals when the slot hook fires.
struct Slot {
    slot: u64,
    open: u64,
    seal: u64,
    /// Commands the ledger moved into this slot's proposal.
    taken: u64,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The boundary metrics of one traced repetition, and its spans.
/// `seal_of[r][k]` is when the k-th command sent to replica `r` sealed.
pub(super) fn layer_values(
    values: &mut Values,
    spans: &mut Vec<Span>,
    raw: &Raw,
    seal_of: &[Vec<Option<u64>>],
) {
    let (e0, e1) = raw.edges;
    let window = e0.t_ns..e1.t_ns;
    let window_s = (e1.t_ns - e0.t_ns) as f64 / 1e9;

    // Slots sealed inside the window, per replica.
    let slots: Vec<Vec<Slot>> = raw
        .recs
        .iter()
        .map(|rec| {
            rec.proposes
                .iter()
                .zip(&rec.seals)
                .filter(|(p, s)| p.slot == s.slot && window.contains(&s.t_ns))
                .map(|(p, s)| Slot {
                    slot: p.slot,
                    open: p.t_ns,
                    seal: s.t_ns,
                    taken: p.taken,
                })
                .collect()
        })
        .collect();
    let sealed: usize = slots.iter().map(Vec::len).sum();
    let log_slots = sealed as f64 / N as f64;

    cadence(values, &slots, &window, log_slots / window_s);
    occupancy(values, &slots[..ACTIVE]);
    let chains = command_chains(values, raw, seal_of, &window);

    // Spans: every slot with the actor calls inside it, then a strided
    // sample of command chains.
    let mut busy_ns = 0u64;
    let mut calls = 0usize;
    for (r, replica_slots) in slots.iter().enumerate() {
        let trees: Vec<(u64, u64, u64)> = replica_slots
            .iter()
            .map(|s| ((r as u64) << 48 | s.slot, s.open, s.seal))
            .collect();
        push_slot_trees(spans, &trees, &raw.calls[r]);
        for &(a, b) in raw.calls[r].iter().filter(|c| window.contains(&c.1)) {
            busy_ns += b - a;
            calls += 1;
        }
    }
    // A slot's self time is its wall-clock minus that replica's own actor
    // time: what it spent waiting on the transport and the other replicas.
    let wait_ns: u64 = self_times(spans)
        .iter()
        .zip(spans.iter())
        .map(|(w, s)| if s.name == "core.slot" { *w } else { 0 })
        .sum();
    values.insert("net.slot_wait_us", ratio(us(wait_ns), sealed as f64));
    values.insert("core.actor_busy_us_per_slot", ratio(us(busy_ns), log_slots));
    values.insert("core.actor_calls_per_slot", ratio(calls as f64, log_slots));
    let stride = chains.len().div_ceil(COMMAND_SPAN_SAMPLE).max(1);
    for (value, [due, send, s_in, s_out, prop, seal]) in chains.into_iter().step_by(stride) {
        let root = spans.len();
        let mut push = |name, start_ns: u64, end_ns: u64, parent| {
            spans.push(Span {
                trace: value,
                name,
                start_ns,
                end_ns: end_ns.max(start_ns),
                parent,
            });
        };
        push("command", due, seal, None);
        push("client.lag", due, send, Some(root));
        push("net.ingress", send, s_in, Some(root));
        push("serve.submit", s_in, s_out, Some(root));
        push("serve.queue_wait", s_out, prop, Some(root));
        push("core.slot", prop, seal, Some(root));
    }

    whole_run_counters(values, raw);

    let cpu_ns = e1.cluster_cpu_ns - e0.cluster_cpu_ns;
    values.insert(
        "process.cpu_util_pct",
        100.0 * ratio(cpu_ns as f64 / 1e9, window_s),
    );
    values.insert(
        "process.vol_ctxsw_per_slot",
        ratio((e1.vol_ctxsw - e0.vol_ctxsw) as f64, log_slots),
    );
    values.insert("process.rss_peak_kb", raw.rss_peak_kb as f64);
    values.insert(
        "process.rss_kb_per_kslot",
        ratio(e1.rss_kb.saturating_sub(e0.rss_kb) as f64, log_slots / 1e3),
    );
}

/// core: how fast slots seal, how long one takes, and how the rate at the
/// end of the window compares with the rate at its start.
fn cadence(values: &mut Values, slots: &[Vec<Slot>], window: &Range<u64>, slots_per_s: f64) {
    let mut slot_ns: Vec<u64> = slots.iter().flatten().map(|s| s.seal - s.open).collect();
    let (p50, _, p99, _) = summary(&mut slot_ns);
    values.insert("core.slots_per_s", slots_per_s);
    values.insert("core.slot_p50_us", us(p50));
    values.insert("core.slot_p99_us", us(p99));
    let quarter = (window.end - window.start) / 4;
    let sealed_in = |r: Range<u64>| slots[0].iter().filter(|s| r.contains(&s.seal)).count() as f64;
    values.insert(
        "core.slot_rate_decay_pct",
        100.0
            * ratio(
                sealed_in(window.end - quarter..window.end),
                sealed_in(window.start..window.start + quarter),
            ),
    );
}

/// serve: batch occupancy at the replicas that receive commands.
fn occupancy(values: &mut Values, active: &[Vec<Slot>]) {
    let count = active.iter().map(Vec::len).sum::<usize>() as f64;
    let taken: u64 = active.iter().flatten().map(|s| s.taken).sum();
    let filler = active.iter().flatten().filter(|s| s.taken == 0).count();
    values.insert("serve.cmds_per_slot", ratio(taken as f64, count));
    values.insert("serve.filler_slot_pct", 100.0 * ratio(filler as f64, count));
}

/// Per command due inside the window, the chain `[due, send, service in,
/// service out, propose, seal]`, and the metrics that are its links.
fn command_chains(
    values: &mut Values,
    raw: &Raw,
    seal_of: &[Vec<Option<u64>>],
    window: &Range<u64>,
) -> Vec<(u64, [u64; 6])> {
    // When each command was (last) proposed, from walking the ledger's
    // FIFO: a proposal takes the next `taken` commands; a seal that
    // committed nothing put them back at the front.
    let mut requeued = 0u64;
    let mut propose_of: Vec<Vec<Option<u64>>> = Vec::with_capacity(ACTIVE);
    for (cmds, rec) in raw.cmds.iter().zip(&raw.recs) {
        let mut at: Vec<Option<u64>> = vec![None; cmds.len()];
        let mut cursor = 0usize;
        let mut committed = 0u64;
        for (i, p) in rec.proposes.iter().enumerate() {
            let hi = (cursor + p.taken as usize).min(cmds.len());
            at[cursor..hi].fill(Some(p.t_ns));
            match rec.seals.get(i) {
                Some(s) if s.committed > committed => {
                    committed = s.committed;
                    cursor = committed as usize;
                }
                Some(_) => requeued += p.taken,
                None => {}
            }
        }
        propose_of.push(at);
    }
    values.insert("serve.requeued_cmds", requeued as f64);

    let mut ingress = Vec::new();
    let mut queue_wait = Vec::new();
    let mut ack = Vec::new();
    let mut chains = Vec::new();
    for (r, cmds) in raw.cmds.iter().enumerate() {
        for (k, c) in cmds.iter().enumerate() {
            if !window.contains(&c.due_ns) {
                continue;
            }
            let (Some(&(s_in, s_out)), Some(&Some(prop)), Some(&Some(seal))) = (
                raw.recs[r].service.get(k),
                propose_of[r].get(k),
                seal_of[r].get(k),
            ) else {
                continue;
            };
            ingress.push(s_in.saturating_sub(c.send_ns));
            queue_wait.push(prop.saturating_sub(s_out));
            if c.ack_ns > 0 {
                ack.push(c.ack_ns.saturating_sub(c.send_ns));
            }
            chains.push((c.value, [c.due_ns, c.send_ns, s_in, s_out, prop, seal]));
        }
    }
    let (ack50, _, ack99, _) = summary(&mut ack);
    values.insert("net.ingress_p50_us", us(summary(&mut ingress).0));
    values.insert("serve.queue_wait_p50_us", us(summary(&mut queue_wait).0));
    values.insert("client.ack_p50_us", us(ack50));
    values.insert("client.ack_p99_us", us(ack99));
    chains
}

/// Ratios over the whole run, from counters the transport, the memo and
/// the module stack keep themselves.
fn whole_run_counters(values: &mut Values, raw: &Raw) {
    let log_slots = raw.recs.iter().map(|r| r.seals.len() as f64).sum::<f64>() / N as f64;
    let msgs: u64 = raw.reports.iter().map(|r| r.msgs_sent).sum();
    let bytes: u64 = raw.reports.iter().map(|r| r.bytes_sent).sum();
    let committed: u64 = raw
        .recs
        .iter()
        .map(|r| r.seals.last().map_or(0, |s| s.committed))
        .sum();
    values.insert("net.msgs_per_slot", ratio(msgs as f64, log_slots));
    values.insert("net.bytes_per_slot", ratio(bytes as f64, log_slots));
    values.insert("net.bytes_per_cmd", ratio(bytes as f64, committed as f64));
    let notes = |needle: &str| {
        raw.reports
            .iter()
            .flat_map(|r| &r.notes)
            .filter(|n| n.contains(needle))
            .count() as f64
    };
    values.insert("net.reconnects", raw.lost as f64);
    values.insert(
        "net.evictions",
        notes("handshake-timeout evicted")
            + notes("backpressure-disconnect")
            + notes("peer-queue-overflow"),
    );
    let hits: u64 = raw.dirs.iter().map(KeyDirectory::cache_hits).sum();
    let misses: u64 = raw.dirs.iter().map(KeyDirectory::cache_misses).sum();
    values.insert(
        "crypto.memo_hit_pct",
        100.0 * ratio(hits as f64, (hits + misses) as f64),
    );
    values.insert(
        "crypto.verifies_per_slot",
        ratio((hits + misses) as f64, log_slots),
    );
    let stack = StackTotals::from_notes(
        raw.reports
            .iter()
            .flat_map(|r| r.notes.iter().map(move |n| (r.me.0, n.as_str()))),
    );
    values.insert("core.rejects_signature", stack.sig_rejects as f64);
    values.insert("core.rejects_automaton", stack.auto_rejects as f64);
    values.insert("core.rejects_certificate", stack.cert_rejects as f64);
    values.insert("fd.suspicions", stack.suspicions as f64);
    values.insert("fd.mistakes", stack.fd_mistakes as f64);
    values.insert(
        "aux.admits_per_slot",
        ratio(stack.offered() as f64, log_slots),
    );
}

//! The names and units of every metric the benchmark reports. The lists
//! here and in `BENCHMARK.json` must agree; a unit test holds them to it.

use std::collections::BTreeMap;

/// A metric's name and unit, as printed.
pub type MetricDef = (&'static str, &'static str);

/// Values of one repetition, or of one run after taking medians. Keys
/// under `aux.` feed a derived metric and are not printed themselves.
pub type Values = BTreeMap<&'static str, f64>;

/// What a user of the system sees. Reported by every workload with
/// `--trace 0`. (CPU per command is `process.cpu_us_per_cmd`, per-layer:
/// a guest's CPU clock also counts the time the host took the processor
/// away, so on a shared host it spread by up to 17 % between runs of the
/// same code where these spread by 3 to 9 %.)
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s"),
    ("commit_p50_us", "us"),
    ("throughput_cps", "1/s"),
];

/// Single-layer metrics (layer = crate name; `client`, `process`, `bench`
/// are the benchmark's own). Reported with `--trace 1`; a metric that does
/// not apply to a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    ("net.ingress_p50_us", "us"),
    ("net.slot_wait_us", "us"),
    ("net.msgs_per_slot", "count"),
    ("net.bytes_per_slot", "B"),
    ("net.bytes_per_cmd", "B"),
    ("net.frame_encode_ns", "ns"),
    ("net.frame_decode_ns", "ns"),
    ("net.poll_scan_ns_per_conn", "ns"),
    ("net.reconnects", "count"),
    ("net.evictions", "count"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.cmds_per_slot", "count"),
    ("serve.filler_slot_pct", "%"),
    ("serve.requeued_cmds", "count"),
    ("serve.submit_ns", "ns"),
    ("serve.propose_seal_ns", "ns"),
    ("core.slots_per_s", "1/s"),
    ("core.slot_p50_us", "us"),
    ("core.slot_p99_us", "us"),
    ("core.slot_rate_decay_pct", "%"),
    ("core.actor_busy_us_per_slot", "us"),
    ("core.actor_calls_per_slot", "count"),
    ("core.model_busy_us_per_slot", "us"),
    ("core.admit_ns", "ns"),
    ("core.rejects_signature", "count"),
    ("core.rejects_automaton", "count"),
    ("core.rejects_certificate", "count"),
    ("core.crash_decide_us", "us"),
    ("core.byz_decide_us", "us"),
    ("core.transform_overhead_x100", "ratio"),
    ("core.crash_bytes_per_decide", "B"),
    ("core.byz_bytes_per_decide", "B"),
    ("certify.check_envelope_ns", "ns"),
    ("certify.cert_bytes_pct", "%"),
    ("crypto.sign_ns", "ns"),
    ("crypto.verify_miss_ns", "ns"),
    ("crypto.verify_hit_ns", "ns"),
    ("crypto.sha256_ns_per_kib", "ns"),
    ("crypto.memo_hit_pct", "%"),
    ("crypto.verifies_per_slot", "count"),
    ("crypto.signs_per_slot", "count"),
    ("detect.step_ns", "ns"),
    ("detect.convictions", "count"),
    ("detect.false_convictions", "count"),
    ("detect.conviction_vt", "ticks"),
    ("fd.suspicions", "count"),
    ("fd.mistakes", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.trace_entries", "count"),
    ("process.cpu_util_pct", "%"),
    ("process.cpu_us_per_cmd", "us"),
    ("process.vol_ctxsw_per_slot", "count"),
    ("process.rss_peak_kb", "kB"),
    ("process.rss_kb_per_kslot", "kB"),
    ("client.commit_p90_us", "us"),
    ("client.commit_p99_us", "us"),
    ("client.commit_max_us", "us"),
    ("client.ack_p50_us", "us"),
    ("client.ack_p99_us", "us"),
    ("client.samples", "count"),
    ("client.gen_lag_p50_us", "us"),
    ("client.gen_lag_p99_us", "us"),
    ("bench.trace_overhead_pct", "%"),
];

/// `a / b`, or 0 when `b` is 0 (a ratio over nothing measured).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `"name": "<n>", "unit": "<u>"` pairs under `key` in BENCHMARK.json,
    /// in order. The file is flat enough that a scan beats a JSON parser.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let end = body.find(']').expect("list closes");
        let after = |s: &str, k: &str| {
            let i = s.find(&format!("\"{k}\"")).expect("field") + k.len() + 2;
            let s = &s[i..];
            let a = s.find('"').expect("open quote") + 1;
            let b = a + s[a..].find('"').expect("close quote");
            s[a..b].to_string()
        };
        body[..end]
            .split('{')
            .skip(1)
            .map(|obj| (after(obj, "name"), after(obj, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String)> = defs
                .iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect();
            assert_eq!(listed(json, key), want, "{key} differs from metrics.rs");
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }
}

//! A minimal wall-clock micro-benchmark harness.
//!
//! The workspace builds with no external crates (the toolchain image is
//! offline), so the `benches/` targets cannot use a benchmarking
//! framework. This module is the replacement: calibrated inner-loop
//! timing with [`std::time::Instant`], reporting the median and best of a
//! handful of samples. It is deliberately simple — good enough to compare
//! orders of magnitude across commits on the same machine, which is all
//! the experiment write-ups need.
//!
//! # Machine-readable output
//!
//! Setting `FTM_BENCH_JSON=1` switches every bench target from the
//! aligned-text lines to one no-float JSON document per target (the same
//! [`ftm_sim::report::Json`] model the sweep harness and `ftm-verify`
//! emit), so downstream tooling can diff timings across commits:
//!
//! ```text
//! FTM_BENCH_JSON=1 cargo bench --bench sha256
//! ```
//!
//! Results accumulate in a process-wide registry; each target's `main`
//! ends with [`emit`], which prints the document and is a no-op in text
//! mode.

use std::sync::Mutex;

use ftm_sim::report::Json;

/// Re-exported so bench targets keep the familiar optimization barrier.
pub use std::hint::black_box;

/// Wall-clock budget per sample: long enough to drown out timer noise.
const TARGET_SAMPLE_NANOS: u64 = 20_000_000;

/// Samples per benchmark; the median is robust to a couple of outliers.
const SAMPLES: usize = 7;

/// One finished measurement, in integer nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchResult {
    /// Group the benchmark ran under.
    pub group: String,
    /// Benchmark name within the group.
    pub name: String,
    /// Median of the per-op samples.
    pub median_ns: u64,
    /// Best (smallest) per-op sample.
    pub best_ns: u64,
    /// Inner-loop iterations per sample.
    pub iters: u64,
    /// Number of samples taken.
    pub samples: u64,
    /// Bytes each operation processes, when the benchmark declared it
    /// (via [`Group::bench_bytes`]); drives the throughput columns.
    pub bytes_per_op: Option<u64>,
}

impl BenchResult {
    /// Median throughput in bytes per second, as an exact integer ratio
    /// `bytes · 10⁹ / median_ns` (widened through `u128`, so no float
    /// enters the report). `None` when the benchmark declared no size.
    pub fn bytes_per_sec(&self) -> Option<u64> {
        self.bytes_per_op
            .map(|b| (u128::from(b) * 1_000_000_000 / u128::from(self.median_ns.max(1))) as u64)
    }
}

/// Process-wide registry of finished measurements, for [`emit`].
static RESULTS: Mutex<Vec<BenchResult>> = Mutex::new(Vec::new());

/// `true` when `FTM_BENCH_JSON` is set: suppress text lines, emit JSON.
pub fn json_mode() -> bool {
    std::env::var_os("FTM_BENCH_JSON").is_some()
}

/// Renders measurements as the no-float JSON document [`emit`] prints.
pub fn results_to_json(results: &[BenchResult]) -> Json {
    Json::Obj(vec![(
        "benchmarks".into(),
        Json::Arr(
            results
                .iter()
                .map(|r| {
                    let opt = |v: Option<u64>| v.map_or(Json::Null, Json::U64);
                    Json::Obj(vec![
                        ("group".into(), Json::Str(r.group.clone())),
                        ("name".into(), Json::Str(r.name.clone())),
                        ("median-ns".into(), Json::U64(r.median_ns)),
                        ("best-ns".into(), Json::U64(r.best_ns)),
                        ("iters".into(), Json::U64(r.iters)),
                        ("samples".into(), Json::U64(r.samples)),
                        ("bytes-per-op".into(), opt(r.bytes_per_op)),
                        ("bytes-per-sec".into(), opt(r.bytes_per_sec())),
                    ])
                })
                .collect(),
        ),
    )])
}

/// Drains the process-wide registry, returning every measurement recorded
/// since the last drain. The `ftm-bench` gate binary uses this to compare
/// a fresh run against a committed baseline without round-tripping through
/// stdout.
pub fn take_results() -> Vec<BenchResult> {
    std::mem::take(&mut *RESULTS.lock().unwrap())
}

/// In JSON mode, prints every recorded measurement as one document and
/// clears the registry; in text mode, a no-op (the lines already printed).
/// Bench targets call this at the end of `main`.
pub fn emit() {
    if !json_mode() {
        return;
    }
    let results: Vec<BenchResult> = std::mem::take(&mut *RESULTS.lock().unwrap());
    println!("{}", results_to_json(&results).render());
}

/// A named group of benchmarks printing aligned `ns/op` lines (or, under
/// `FTM_BENCH_JSON`, silently recording for [`emit`]).
pub struct Group {
    name: String,
}

impl Group {
    /// Starts a group and prints its header.
    pub fn new(name: &str) -> Self {
        if !json_mode() {
            println!("\n== {name} ==");
        }
        Group { name: name.into() }
    }

    /// Benchmarks `f` by inner-loop batching: the per-op cost is the
    /// sample time divided by the iteration count, so per-call timer
    /// overhead vanishes. Use for operations without per-iteration setup.
    pub fn bench<T>(&mut self, name: &str, f: impl FnMut() -> T) {
        self.bench_sized(name, None, f);
    }

    /// Like [`bench`](Self::bench), declaring that each call of `f`
    /// processes `bytes` bytes. The result then carries `bytes-per-op` and
    /// the derived integer-ratio `bytes-per-sec` throughput column.
    pub fn bench_bytes<T>(&mut self, name: &str, bytes: u64, f: impl FnMut() -> T) {
        self.bench_sized(name, Some(bytes), f);
    }

    fn bench_sized<T>(&mut self, name: &str, bytes: Option<u64>, mut f: impl FnMut() -> T) {
        let started = Stopwatch::start();
        black_box(f());
        let once = started.elapsed_ns().max(1);
        let iters = (TARGET_SAMPLE_NANOS / once).clamp(1, 1_000_000);

        let mut samples = [0u64; SAMPLES];
        for s in &mut samples {
            let t = Stopwatch::start();
            for _ in 0..iters {
                black_box(f());
            }
            *s = t.elapsed_ns() / iters;
        }
        self.report(name, &mut samples, iters, bytes);
    }

    /// Records one externally timed measurement: `ops` operations took
    /// `elapsed_ms` wall-clock milliseconds. The per-op figure is the
    /// integer ratio `elapsed_ms · 10⁶ / ops` ns/op with one sample —
    /// for end-to-end workloads (a whole cluster run) where the
    /// calibrated inner loop of [`bench`](Self::bench) would repeat a
    /// multi-second job seven times. Wall-clock only, so the gate treats
    /// it like every other median: soft (warn beyond +25 %).
    pub fn record_ops(&mut self, name: &str, ops: u64, elapsed_ms: u64) {
        let per_op = elapsed_ms.saturating_mul(1_000_000) / ops.max(1);
        let mut samples = [per_op.max(1)];
        self.report(name, &mut samples, 1, None);
    }

    /// Benchmarks `f` with a fresh `setup()` value per call, timing only
    /// `f`. Each call is timed individually, so the per-op figure carries
    /// ~tens of nanoseconds of timer overhead — negligible for the
    /// microsecond-and-up operations this is used on.
    pub fn bench_batched<S, T>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> T,
    ) {
        let input = setup();
        let started = Stopwatch::start();
        black_box(f(input));
        let once = started.elapsed_ns().max(1);
        let iters = (TARGET_SAMPLE_NANOS / once).clamp(1, 10_000);

        let mut samples = [0u64; SAMPLES];
        for s in &mut samples {
            let mut total = 0u64;
            for _ in 0..iters {
                let input = setup();
                let t = Stopwatch::start();
                black_box(f(input));
                total += t.elapsed_ns();
            }
            *s = total / iters;
        }
        self.report(name, &mut samples, iters, None);
    }

    fn report(&self, name: &str, samples: &mut [u64], iters: u64, bytes: Option<u64>) {
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        let best = samples[0];
        let result = BenchResult {
            group: self.name.clone(),
            name: name.into(),
            median_ns: median,
            best_ns: best,
            iters,
            samples: samples.len() as u64,
            bytes_per_op: bytes,
        };
        if !json_mode() {
            let throughput = result
                .bytes_per_sec()
                .map_or(String::new(), |bps| format!("   {bps} B/s"));
            println!(
                "{:<30} {:>12} ns/op   (best {:>12}, {iters} iters x {} samples){throughput}",
                format!("{}/{name}", self.name),
                median,
                best,
                result.samples,
            );
        }
        RESULTS.lock().unwrap().push(result);
    }
}

/// A wall-clock stopwatch: the harness above times through it, and so do
/// callers that want elapsed time for progress logging (the experiment
/// driver's per-section timings). It is the bench side's one sanctioned
/// reader of `Instant` — the D3 ban (`clippy.toml`) rejects any other use.
#[derive(Debug)]
pub struct Stopwatch(
    #[expect(
        clippy::disallowed_types,
        reason = "D3 sanctioned home: benchmarks measure wall-clock time"
    )]
    std::time::Instant,
);

impl Stopwatch {
    /// Starts timing now.
    #[must_use]
    pub fn start() -> Self {
        #[expect(
            clippy::disallowed_types,
            reason = "D3 sanctioned home: the bench side's one raw clock read"
        )]
        let started = std::time::Instant::now();
        Stopwatch(started)
    }

    /// Whole nanoseconds elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Whole milliseconds elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_render_as_integer_only_json() {
        let results = vec![BenchResult {
            group: "g".into(),
            name: "op".into(),
            median_ns: 1234,
            best_ns: 1100,
            iters: 64,
            samples: 7,
            bytes_per_op: None,
        }];
        let doc = results_to_json(&results).render();
        for key in [
            "benchmarks",
            "median-ns",
            "best-ns",
            "iters",
            "samples",
            "bytes-per-op",
            "bytes-per-sec",
        ] {
            assert!(doc.contains(key), "document lost {key}:\n{doc}");
        }
        assert!(doc.contains("1234"));
        assert!(!doc.contains('.'), "no-float model leaked a dot:\n{doc}");
    }

    #[test]
    fn throughput_is_an_exact_integer_ratio() {
        let mut r = BenchResult {
            group: "g".into(),
            name: "op".into(),
            median_ns: 2_000,
            best_ns: 1_900,
            iters: 64,
            samples: 7,
            bytes_per_op: Some(1024),
        };
        // 1024 B / 2 µs = 512 MB/s, computed without floats.
        assert_eq!(r.bytes_per_sec(), Some(512_000_000));
        r.bytes_per_op = None;
        assert_eq!(r.bytes_per_sec(), None);
        // Large sizes must not overflow the widened intermediate.
        r.bytes_per_op = Some(u64::MAX / 2);
        r.median_ns = 1;
        assert!(r.bytes_per_sec().is_some());
    }

    #[test]
    fn bench_bytes_records_the_declared_size() {
        let mut g = Group::new("throughput-test");
        g.bench_bytes("digest", 4096, || black_box(1u64 + 1));
        let results = RESULTS.lock().unwrap();
        let r = results
            .iter()
            .rev()
            .find(|r| r.group == "throughput-test")
            .unwrap();
        assert_eq!(r.bytes_per_op, Some(4096));
        assert!(r.bytes_per_sec().unwrap() > 0);
    }

    #[test]
    fn record_ops_is_an_integer_ratio_single_sample() {
        let mut g = Group::new("record-test");
        g.record_ops("cluster", 500, 2_000); // 500 ops in 2 s = 4 ms/op
        let results = RESULTS.lock().unwrap();
        let r = results
            .iter()
            .rev()
            .find(|r| r.group == "record-test")
            .unwrap();
        assert_eq!(r.median_ns, 4_000_000);
        assert_eq!(r.samples, 1);
        assert_eq!(r.iters, 1);
        assert_eq!(r.bytes_per_op, None);
    }

    #[test]
    fn bench_records_into_the_registry() {
        let before = RESULTS.lock().unwrap().len();
        let mut g = Group::new("registry-test");
        g.bench("noop", || black_box(1u64 + 1));
        let results = RESULTS.lock().unwrap();
        assert!(results.len() > before);
        let r = results.last().unwrap();
        assert_eq!(r.group, "registry-test");
        assert_eq!(r.name, "noop");
        assert_eq!(r.samples, SAMPLES as u64);
    }
}

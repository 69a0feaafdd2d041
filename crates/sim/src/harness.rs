//! Deterministic parallel scenario-sweep harness.
//!
//! Validating the crash→arbitrary transformation means running the same
//! protocol stack across large matrices of fault scenarios. This module is
//! the fan-out machinery: it takes a list of scenarios, derives one
//! independent PRNG seed per scenario from a single base seed, and runs the
//! scenarios across worker threads pulling from a shared queue.
//!
//! # Determinism contract
//!
//! The output is a **pure function of `(scenarios, base_seed)`** — worker
//! count and thread interleaving are unobservable:
//!
//! * every scenario run is single-threaded internally and seeded by
//!   [`derive_seed`]`(base_seed, index)`, never by wall-clock or thread id;
//! * results are written into a slot addressed by scenario index, so the
//!   collected vector has matrix order no matter which worker ran what;
//! * reports carry only virtual-time and count data — no wall-clock fields.
//!
//! `sweep(.., threads: 1, ..)` and `sweep(.., threads: 8, ..)` therefore
//! produce byte-identical JSON, which the `harness_determinism` integration
//! test enforces.
//!
//! # Example
//!
//! ```
//! use ftm_sim::harness::{sweep, RunRecord, SweepReport};
//!
//! let scenarios = vec![2usize, 3, 4];
//! let cell = |n: &usize| format!("n={n}");
//! let records = sweep(&scenarios, 7, 4, cell, |index, n, seed| {
//!     let mut rec = RunRecord::new(cell(n), index, seed);
//!     rec.set("processes", *n as u64);
//!     rec
//! });
//! let report = SweepReport::new(7, records);
//! assert!(report.to_json().render().contains("\"n=2\""));
//! ```

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::prng::derive_seed;
use crate::report::Json;

/// Structured metrics emitted by one scenario run.
///
/// A record is a flat `counter name → u64` map plus identity fields, so
/// heterogeneous scenarios (crash model, muteness, Byzantine attacks)
/// aggregate uniformly: cells are grouped by `cell`, and each counter is
/// summarized as p50/p95/max across the cell's runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// Scenario-cell key, e.g. `"n=4 f=1 fault=vector-corruptor"`. Runs
    /// sharing a cell are aggregated together.
    pub cell: String,
    /// Position in the scenario matrix (also the seed-derivation index).
    pub index: usize,
    /// The derived per-run seed (replay handle: rerun this one scenario
    /// with this seed to reproduce the trace bit-for-bit).
    pub seed: u64,
    /// Whether the run satisfied its scenario's expectations.
    pub ok: bool,
    /// Named counters (rounds, per-layer bytes, suspicions, …).
    pub counters: BTreeMap<String, u64>,
}

impl RunRecord {
    /// Creates an empty passing record for one scenario run.
    pub fn new(cell: impl Into<String>, index: usize, seed: u64) -> Self {
        RunRecord {
            cell: cell.into(),
            index,
            seed,
            ok: true,
            counters: BTreeMap::new(),
        }
    }

    /// Sets counter `name` to `value` (overwrites).
    pub fn set(&mut self, name: impl Into<String>, value: u64) {
        self.counters.insert(name.into(), value);
    }

    /// Adds `delta` to counter `name` (creating it at zero).
    pub fn add(&mut self, name: impl Into<String>, delta: u64) {
        *self.counters.entry(name.into()).or_insert(0) += delta;
    }

    /// Reads counter `name` (zero when unset).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cell".into(), Json::Str(self.cell.clone())),
            ("index".into(), Json::U64(self.index as u64)),
            ("seed".into(), Json::U64(self.seed)),
            ("ok".into(), Json::Bool(self.ok)),
            ("counters".into(), Json::from_map(&self.counters)),
        ])
    }
}

/// Nearest-rank percentile summary of one counter across a cell's runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Median (50th percentile, nearest-rank).
    pub p50: u64,
    /// 95th percentile (nearest-rank).
    pub p95: u64,
    /// Maximum.
    pub max: u64,
}

impl Summary {
    /// Computes the summary of a non-empty sample.
    pub fn of(values: &[u64]) -> Summary {
        assert!(!values.is_empty(), "summary of empty sample");
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let rank = |p: u64| {
            // Nearest-rank: smallest index i with (i+1)/m ≥ p/100.
            let m = sorted.len() as u64;
            let idx = (p * m).div_ceil(100).max(1) - 1;
            sorted[idx as usize]
        };
        Summary {
            p50: rank(50),
            p95: rank(95),
            max: *sorted.last().unwrap(),
        }
    }

    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("p50".into(), Json::U64(self.p50)),
            ("p95".into(), Json::U64(self.p95)),
            ("max".into(), Json::U64(self.max)),
        ])
    }
}

/// Aggregated view of one scenario cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellStats {
    /// Number of runs aggregated into this cell.
    pub runs: u64,
    /// Number of those runs with `ok == true`.
    pub ok_runs: u64,
    /// Per-counter p50/p95/max. A counter missing from some of the cell's
    /// runs is treated as zero there, so summaries always cover all runs.
    pub stats: BTreeMap<String, Summary>,
}

/// The result of one sweep: every run record plus per-cell aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepReport {
    /// Base seed the per-run seeds were derived from.
    pub base_seed: u64,
    /// All run records, in matrix order.
    pub records: Vec<RunRecord>,
}

impl SweepReport {
    /// Wraps sweep output for aggregation and serialization.
    pub fn new(base_seed: u64, records: Vec<RunRecord>) -> Self {
        SweepReport { base_seed, records }
    }

    /// `true` when every run satisfied its scenario's expectations.
    pub fn all_ok(&self) -> bool {
        self.records.iter().all(|r| r.ok)
    }

    /// Groups records by cell and summarizes every counter (sorted by cell
    /// key, so iteration — and the JSON rendering — is deterministic).
    pub fn cells(&self) -> BTreeMap<String, CellStats> {
        let mut grouped: BTreeMap<&str, Vec<&RunRecord>> = BTreeMap::new();
        for rec in &self.records {
            grouped.entry(&rec.cell).or_default().push(rec);
        }
        grouped
            .into_iter()
            .map(|(cell, recs)| {
                let mut names: Vec<&str> = recs
                    .iter()
                    .flat_map(|r| r.counters.keys().map(String::as_str))
                    .collect();
                names.sort_unstable();
                names.dedup();
                let stats = names
                    .into_iter()
                    .map(|name| {
                        let values: Vec<u64> = recs.iter().map(|r| r.get(name)).collect();
                        (name.to_string(), Summary::of(&values))
                    })
                    .collect();
                let stats = CellStats {
                    runs: recs.len() as u64,
                    ok_runs: recs.iter().filter(|r| r.ok).count() as u64,
                    stats,
                };
                (cell.to_string(), stats)
            })
            .collect()
    }

    /// Serializes the full report (aggregates first, then raw records) as a
    /// byte-stable JSON document.
    pub fn to_json(&self) -> Json {
        let cells = Json::Obj(
            self.cells()
                .into_iter()
                .map(|(cell, stats)| {
                    let body = Json::Obj(vec![
                        ("runs".into(), Json::U64(stats.runs)),
                        ("ok_runs".into(), Json::U64(stats.ok_runs)),
                        (
                            "metrics".into(),
                            Json::Obj(
                                stats
                                    .stats
                                    .into_iter()
                                    .map(|(name, s)| (name, s.to_json()))
                                    .collect(),
                            ),
                        ),
                    ]);
                    (cell, body)
                })
                .collect(),
        );
        Json::Obj(vec![
            ("base_seed".into(), Json::U64(self.base_seed)),
            ("runs".into(), Json::U64(self.records.len() as u64)),
            ("cells".into(), cells),
            (
                "records".into(),
                Json::Arr(self.records.iter().map(RunRecord::to_json).collect()),
            ),
        ])
    }
}

/// Fans `scenarios` out across `threads` workers and collects one
/// [`RunRecord`] per scenario, in matrix order.
///
/// Workers pull the next scenario index from a shared atomic counter (work
/// stealing: a worker stuck on a slow run never blocks the others). The
/// callback receives `(index, scenario, seed)` where `seed` is
/// [`derive_seed`]`(base_seed, index)` — runs must draw **all** randomness
/// from that seed for the determinism contract to hold. `cell` names a
/// scenario in a failure message.
///
/// # Panics
///
/// Panics if a run panics. Each run is caught in its worker, and the
/// first failure in matrix order is re-raised on the caller's thread as
/// `cell <cell(scenario)> (index <i>, seed <s>): <the run's message>`.
pub fn sweep<S, C, F>(
    scenarios: &[S],
    base_seed: u64,
    threads: usize,
    cell: C,
    run: F,
) -> Vec<RunRecord>
where
    S: Sync,
    C: Fn(&S) -> String,
    F: Fn(usize, &S, u64) -> RunRecord + Sync,
{
    let seed = |index: usize| derive_seed(base_seed, index as u64);
    let outcomes = parallel_map(scenarios, threads, |index, scenario| {
        panic::catch_unwind(AssertUnwindSafe(|| run(index, scenario, seed(index))))
    });
    outcomes
        .into_iter()
        .zip(scenarios)
        .enumerate()
        .map(|(index, (outcome, scenario))| {
            outcome.unwrap_or_else(|payload| {
                panic!(
                    "cell {} (index {index}, seed {}): {}",
                    cell(scenario),
                    seed(index),
                    panic_message(payload.as_ref())
                )
            })
        })
        .collect()
}

/// The text a panic was raised with (`panic!` with a literal carries a
/// `&str`, with format arguments a `String`).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    match payload.downcast_ref::<&str>() {
        Some(text) => text,
        None => payload
            .downcast_ref::<String>()
            .map_or("a run panicked", String::as_str),
    }
}

/// Order-preserving work-stealing map: applies `f` to every item of
/// `items` across `threads` workers and returns the results in input
/// order.
///
/// This is the harness's fan-out primitive — [`sweep`] is built on it, and
/// batch jobs whose units are not scenario runs (e.g. per-round signature
/// verification of a message batch) reuse the same worker discipline.
/// Workers pull the next index from a shared atomic counter, so a slow
/// item never blocks the rest of the batch. `f` must be a pure function of
/// `(index, item)` for the output to be independent of thread count.
///
/// # Panics
///
/// Panics if any worker panics (the panic is propagated).
pub fn parallel_map<S, T, F>(items: &[S], threads: usize, f: F) -> Vec<T>
where
    S: Sync,
    T: Send,
    F: Fn(usize, &S) -> T + Sync,
{
    let workers = threads.max(1).min(items.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    #[expect(
        clippy::disallowed_methods,
        reason = "D4 sanctioned home: the one fan-out primitive; results are slotted by input \
                  index, so worker count cannot reach a report"
    )]
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(index) else {
                    break;
                };
                let result = f(index, item);
                *slots[index].lock().unwrap() = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every item slot is filled before the scope ends")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_cell(scenario: &u64) -> String {
        format!("s={scenario}")
    }

    fn toy_run(index: usize, scenario: &u64, seed: u64) -> RunRecord {
        let mut rec = RunRecord::new(toy_cell(scenario), index, seed);
        rec.set("value", scenario * 10);
        rec.add("seed_low", seed & 0xFF);
        rec
    }

    #[test]
    fn sweep_preserves_matrix_order() {
        let scenarios = vec![5u64, 1, 9, 3];
        let records = sweep(&scenarios, 42, 3, toy_cell, toy_run);
        let cells: Vec<&str> = records.iter().map(|r| r.cell.as_str()).collect();
        assert_eq!(cells, vec!["s=5", "s=1", "s=9", "s=3"]);
        assert_eq!(
            records.iter().map(|r| r.index).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn sweep_output_is_independent_of_thread_count() {
        let scenarios: Vec<u64> = (0..40).collect();
        let one = sweep(&scenarios, 7, 1, toy_cell, toy_run);
        let eight = sweep(&scenarios, 7, 8, toy_cell, toy_run);
        assert_eq!(one, eight);
        let a = SweepReport::new(7, one).to_json().render();
        let b = SweepReport::new(7, eight).to_json().render();
        assert_eq!(a, b);
    }

    #[test]
    fn a_failed_run_is_re_raised_naming_its_cell_index_and_seed() {
        let scenarios = vec![5u64, 6, 7, 6];
        let failed = panic::catch_unwind(|| {
            sweep(&scenarios, 42, 2, toy_cell, |index, s, seed| {
                assert_ne!(*s, 6, "six is refused");
                toy_run(index, s, seed)
            })
        })
        .expect_err("the sweep must fail");
        let message = panic_message(failed.as_ref());
        let seed = derive_seed(42, 1);
        assert!(
            message.starts_with(&format!("cell s=6 (index 1, seed {seed}): ")),
            "{message}"
        );
        assert!(message.contains("six is refused"), "{message}");
    }

    #[test]
    fn parallel_map_preserves_order_for_any_thread_count() {
        let items: Vec<u64> = (0..50).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 8] {
            let got = parallel_map(&items, threads, |_, &x| x * x);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn distinct_base_seeds_derive_distinct_run_seeds() {
        let scenarios = vec![1u64, 2];
        let a = sweep(&scenarios, 1, 1, toy_cell, toy_run);
        let b = sweep(&scenarios, 2, 1, toy_cell, toy_run);
        assert_ne!(a[0].seed, b[0].seed);
        assert_ne!(a[0].seed, a[1].seed);
    }

    #[test]
    fn sweep_handles_empty_matrix_and_more_threads_than_work() {
        let records = sweep(&Vec::<u64>::new(), 0, 8, toy_cell, toy_run);
        assert!(records.is_empty());
        let records = sweep(&[4u64], 0, 8, toy_cell, toy_run);
        assert_eq!(records.len(), 1);
    }

    #[test]
    fn summary_nearest_rank_matches_hand_computation() {
        let s = Summary::of(&[10, 20, 30, 40, 50]);
        assert_eq!(s.p50, 30);
        assert_eq!(s.p95, 50);
        assert_eq!(s.max, 50);
        let single = Summary::of(&[7]);
        assert_eq!((single.p50, single.p95, single.max), (7, 7, 7));
        let pair = Summary::of(&[1, 100]);
        assert_eq!(pair.p50, 1);
        assert_eq!(pair.p95, 100);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn summary_rejects_empty_samples() {
        Summary::of(&[]);
    }

    #[test]
    fn cells_aggregate_by_key_and_fill_missing_counters_with_zero() {
        let mut a = RunRecord::new("cell", 0, 1);
        a.set("x", 10);
        let mut b = RunRecord::new("cell", 1, 2);
        b.set("x", 30);
        b.set("y", 5);
        b.ok = false;
        let report = SweepReport::new(0, vec![a, b]);
        let cells = report.cells();
        let stats = &cells["cell"];
        assert_eq!(stats.runs, 2);
        assert_eq!(stats.ok_runs, 1);
        assert_eq!(stats.stats["x"].max, 30);
        // `y` is missing from run 0 → treated as zero there.
        assert_eq!(stats.stats["y"].p50, 0);
        assert_eq!(stats.stats["y"].max, 5);
        assert!(!report.all_ok());
    }

    #[test]
    fn report_json_contains_aggregates_and_records() {
        let scenarios = vec![1u64, 1, 2];
        let report = SweepReport::new(3, sweep(&scenarios, 3, 2, toy_cell, toy_run));
        let json = report.to_json().render();
        assert!(json.contains("\"base_seed\": 3"));
        assert!(json.contains("\"s=1\""));
        assert!(json.contains("\"p95\""));
        assert!(json.contains("\"records\""));
        assert!(report.all_ok());
    }
}

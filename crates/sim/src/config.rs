//! Run configuration: everything a simulation's outcome depends on.

use std::fmt;
use std::sync::Arc;

use crate::process::ProcessId;
use crate::time::{Duration, VirtualTime};

/// A scripted delay policy: given `(src, dst, send time)`, return the
/// message delay in ticks (clamped to ≥ 1; the FIFO floor still applies).
///
/// Scripts replace the random delay draw entirely, letting tests construct
/// *specific* adversarial schedules — e.g. the attempted agreement-violation
/// schedule analyzed in DESIGN.md §6.
pub type DelayScript = dyn Fn(ProcessId, ProcessId, VirtualTime) -> u64 + Send + Sync;

/// Complete configuration of a simulation run.
///
/// A run is a pure function of this value plus the actor factory, so tests
/// and experiments record the config (notably [`SimConfig::seed`]) to make
/// every result replayable.
///
/// # Example
///
/// ```
/// use ftm_sim::{Duration, SimConfig, VirtualTime};
/// let cfg = SimConfig::new(7)
///     .seed(42)
///     .delay_range(Duration::of(1), Duration::of(20))
///     .gst(VirtualTime::at(500), Duration::of(10));
/// assert_eq!(cfg.n, 7);
/// ```
#[derive(Clone)]
pub struct SimConfig {
    /// Number of processes.
    pub n: usize,
    /// RNG seed governing message delays (and any actor-requested draws).
    pub rng_seed: u64,
    /// Minimum message delay.
    pub min_delay: Duration,
    /// Maximum message delay before GST (the "arbitrary but finite" phase).
    pub max_delay: Duration,
    /// Global Stabilization Time: after this instant delays are capped by
    /// `post_gst_max_delay`. `None` means the network never stabilizes
    /// (pure asynchrony) — timeout-based detectors may then never become
    /// accurate, exactly as FLP warns.
    pub gst: Option<VirtualTime>,
    /// Delay cap after GST (ignored when `gst` is `None`).
    pub post_gst_max_delay: Duration,
    /// Hard stop: the run aborts (marked non-quiescent) past this time.
    pub max_time: VirtualTime,
    /// Hard stop on the number of processed events (runaway-protocol guard).
    pub max_events: u64,
    /// Scheduled crash times: `(process index, crash instant)` pairs.
    /// Crashed processes stop receiving, sending and firing timers.
    pub crashes: Vec<(usize, VirtualTime)>,
    /// Optional scripted delays (replaces random draws when set).
    pub delay_script: Option<Arc<DelayScript>>,
    /// Hard stop on protocol rounds: the run ends once any process notes
    /// entry into a round beyond this cap (`round=N` with `N > max_rounds`).
    /// `None` (the default) leaves rounds unbounded. This is the
    /// termination backstop for never-stabilizing networks (`gst: None`),
    /// where round churn may otherwise continue until `max_time`.
    pub max_rounds: Option<u64>,
}

impl fmt::Debug for SimConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimConfig")
            .field("n", &self.n)
            .field("rng_seed", &self.rng_seed)
            .field("min_delay", &self.min_delay)
            .field("max_delay", &self.max_delay)
            .field("gst", &self.gst)
            .field("post_gst_max_delay", &self.post_gst_max_delay)
            .field("max_time", &self.max_time)
            .field("max_events", &self.max_events)
            .field("crashes", &self.crashes)
            .field(
                "delay_script",
                &self.delay_script.as_ref().map(|_| "<script>"),
            )
            .finish()
    }
}

impl SimConfig {
    /// Creates a configuration for `n` processes with conservative defaults:
    /// seed 0, delays in `[1, 10]`, GST at 2 000 with post-GST cap 10,
    /// `max_time` 2 000 000, `max_events` 5 000 000, no crashes.
    pub fn new(n: usize) -> Self {
        SimConfig {
            n,
            rng_seed: 0,
            min_delay: Duration::of(1),
            max_delay: Duration::of(10),
            gst: Some(VirtualTime::at(2_000)),
            post_gst_max_delay: Duration::of(10),
            max_time: VirtualTime::at(2_000_000),
            max_events: 5_000_000,
            crashes: Vec::new(),
            delay_script: None,
            max_rounds: None,
        }
    }

    /// Installs a scripted delay policy (see [`DelayScript`]).
    pub fn delay_script<F>(mut self, script: F) -> Self
    where
        F: Fn(ProcessId, ProcessId, VirtualTime) -> u64 + Send + Sync + 'static,
    {
        self.delay_script = Some(Arc::new(script));
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }

    /// Sets the pre-GST message delay range `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn delay_range(mut self, min: Duration, max: Duration) -> Self {
        assert!(min <= max, "min delay exceeds max delay");
        self.min_delay = min;
        self.max_delay = max;
        self
    }

    /// Sets the Global Stabilization Time and the post-GST delay cap.
    pub fn gst(mut self, at: VirtualTime, post_max: Duration) -> Self {
        self.gst = Some(at);
        self.post_gst_max_delay = post_max;
        self
    }

    /// Removes the GST: the network stays arbitrarily slow forever.
    pub fn no_gst(mut self) -> Self {
        self.gst = None;
        self
    }

    /// Schedules process `index` to crash at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= n`.
    pub fn crash(mut self, index: usize, at: VirtualTime) -> Self {
        assert!(index < self.n, "crash index out of range");
        self.crashes.push((index, at));
        self
    }

    /// Sets the hard stop time.
    pub fn max_time(mut self, t: VirtualTime) -> Self {
        self.max_time = t;
        self
    }

    /// Caps protocol rounds: the run stops once any process notes entry
    /// into round `cap + 1` (see [`SimConfig::max_rounds`]).
    pub fn max_rounds(mut self, cap: u64) -> Self {
        self.max_rounds = Some(cap);
        self
    }
}

/// A named network-adversity level: one point on the delay/GST axis the
/// sweep harness crosses scenarios with.
///
/// A profile bundles the simulator's partial-synchrony knobs — the pre-GST
/// delay range, the Global Stabilization Time (or its absence), the
/// post-GST delay cap — plus the round-cap backstop that keeps
/// never-stabilizing runs finite. [`NetworkProfile::apply`] maps a profile
/// onto a [`SimConfig`]; [`NetworkProfile::calm`] reproduces the
/// `SimConfig::new` defaults exactly, so sweeps that only use the calm
/// profile are byte-identical to sweeps that predate the axis.
///
/// # Example
///
/// ```
/// use ftm_sim::{NetworkProfile, SimConfig};
/// let cfg = NetworkProfile::adverse().apply(SimConfig::new(4).seed(7));
/// assert!(cfg.max_delay > SimConfig::new(4).max_delay);
/// let cfg = NetworkProfile::no_gst().apply(SimConfig::new(4));
/// assert!(cfg.gst.is_none() && cfg.max_rounds.is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkProfile {
    /// Stable kebab-case name used in sweep cell keys.
    pub label: &'static str,
    /// Minimum message delay.
    pub min_delay: Duration,
    /// Maximum message delay before GST.
    pub max_delay: Duration,
    /// Global Stabilization Time; `None` = the network never stabilizes.
    pub gst: Option<VirtualTime>,
    /// Delay cap after GST (ignored when `gst` is `None`).
    pub post_gst_max_delay: Duration,
    /// Round cap (termination backstop for `gst: None` profiles).
    pub max_rounds: Option<u64>,
}

impl NetworkProfile {
    /// The default network: delays in `[1, 10]`, GST at 2 000 with
    /// post-GST cap 10 — exactly the [`SimConfig::new`] defaults, so calm
    /// cells keep their historical keys and traces.
    pub fn calm() -> Self {
        NetworkProfile {
            label: "calm",
            min_delay: Duration::of(1),
            max_delay: Duration::of(10),
            gst: Some(VirtualTime::at(2_000)),
            post_gst_max_delay: Duration::of(10),
            max_rounds: None,
        }
    }

    /// A jittery but benign network: delays in `[1, 60]`, same GST. Wide
    /// enough to reorder messages aggressively, still below the default
    /// muteness timeout, so detectors rarely err.
    pub fn jittery() -> Self {
        NetworkProfile {
            label: "jittery",
            min_delay: Duration::of(1),
            max_delay: Duration::of(60),
            gst: Some(VirtualTime::at(2_000)),
            post_gst_max_delay: Duration::of(10),
            max_rounds: None,
        }
    }

    /// An adverse network: pre-GST delays in `[1, 250]` — beyond the
    /// default muteness timeout, so ◇M detectors make real mistakes before
    /// stabilization — with GST at 2 500 and a post-GST cap of 20.
    /// Liveness is still guaranteed (GST exists); the mistake counters are
    /// what this profile is for.
    pub fn adverse() -> Self {
        NetworkProfile {
            label: "adverse",
            min_delay: Duration::of(1),
            max_delay: Duration::of(250),
            gst: Some(VirtualTime::at(2_500)),
            post_gst_max_delay: Duration::of(20),
            max_rounds: None,
        }
    }

    /// A never-stabilizing network (`gst: None`): delays stay in
    /// `[1, 250]` forever. Termination cannot be promised (FLP territory) —
    /// the round cap of 12 ends runs that churn without deciding, so a
    /// sweep cell under this profile always terminates, via decision or
    /// via [`crate::runner::StopReason::RoundLimit`].
    pub fn no_gst() -> Self {
        NetworkProfile {
            label: "no-gst",
            min_delay: Duration::of(1),
            max_delay: Duration::of(250),
            gst: None,
            post_gst_max_delay: Duration::of(10),
            max_rounds: Some(12),
        }
    }

    /// Every built-in profile, in the stable sweep-axis order.
    pub fn all() -> Vec<NetworkProfile> {
        vec![
            NetworkProfile::calm(),
            NetworkProfile::jittery(),
            NetworkProfile::adverse(),
            NetworkProfile::no_gst(),
        ]
    }

    /// Maps the profile onto `cfg`, overriding its delay range, GST and
    /// round cap.
    pub fn apply(&self, mut cfg: SimConfig) -> SimConfig {
        cfg = cfg.delay_range(self.min_delay, self.max_delay);
        cfg = match self.gst {
            Some(at) => cfg.gst(at, self.post_gst_max_delay),
            None => cfg.no_gst(),
        };
        if let Some(cap) = self.max_rounds {
            cfg = cfg.max_rounds(cap);
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let cfg = SimConfig::new(5)
            .seed(9)
            .delay_range(Duration::of(2), Duration::of(4))
            .no_gst()
            .crash(1, VirtualTime::at(100))
            .max_time(VirtualTime::at(10));
        assert_eq!(cfg.rng_seed, 9);
        assert_eq!(cfg.min_delay, Duration::of(2));
        assert!(cfg.gst.is_none());
        assert_eq!(cfg.crashes, vec![(1, VirtualTime::at(100))]);
        assert_eq!(cfg.max_time, VirtualTime::at(10));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn crash_index_validated() {
        let _ = SimConfig::new(3).crash(3, VirtualTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "min delay exceeds")]
    fn delay_range_validated() {
        let _ = SimConfig::new(3).delay_range(Duration::of(5), Duration::of(1));
    }

    #[test]
    fn calm_profile_reproduces_the_defaults() {
        let plain = SimConfig::new(4).seed(9);
        let calm = NetworkProfile::calm().apply(SimConfig::new(4).seed(9));
        assert_eq!(calm.min_delay, plain.min_delay);
        assert_eq!(calm.max_delay, plain.max_delay);
        assert_eq!(calm.gst, plain.gst);
        assert_eq!(calm.post_gst_max_delay, plain.post_gst_max_delay);
        assert_eq!(calm.max_rounds, plain.max_rounds);
    }

    #[test]
    fn profiles_have_distinct_labels_and_no_gst_is_round_capped() {
        let profiles = NetworkProfile::all();
        let labels: std::collections::BTreeSet<&str> = profiles.iter().map(|p| p.label).collect();
        assert_eq!(labels.len(), profiles.len(), "profile labels collide");
        for p in &profiles {
            assert!(
                p.gst.is_some() || p.max_rounds.is_some(),
                "{}: a never-stabilizing profile must carry a round cap",
                p.label
            );
        }
        let cfg = NetworkProfile::no_gst().apply(SimConfig::new(3));
        assert!(cfg.gst.is_none());
        assert_eq!(cfg.max_rounds, Some(12));
    }
}

//! Protocol-level configuration and shared setup (key material).

use ftm_crypto::keydir::KeyDirectory;
use ftm_crypto::rsa::KeyPair;
use ftm_sim::Duration;

use crate::spec::Resilience;

/// Which ◇M implementation the transformed protocol embeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutenessMode {
    /// The generic adaptive timeout detector (doubles on mistakes).
    Adaptive,
    /// The round-aware variant: allowance grows by `per_round` with every
    /// round the observer enters (Doudou et al.'s implementation shape).
    RoundAware {
        /// Per-round allowance increment.
        per_round: Duration,
    },
}

/// Which checks [`ModuleStack::admit`] runs — all on by default.
///
/// Exists for the ablation experiment (E8): disabling one module at a time
/// shows each is load-bearing. Production use keeps the default.
///
/// [`ModuleStack::admit`]: crate::transform::ModuleStack::admit
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    /// Identity and core-signature verification (the signature module).
    pub signatures: bool,
    /// Certificate item signatures and per-kind well-formedness (the
    /// reliable certification module / `PF` predicates).
    pub certificates: bool,
    /// The per-peer timing automaton (out-of-order detection).
    pub timing: bool,
}

impl Default for Checks {
    fn default() -> Self {
        Checks {
            signatures: true,
            certificates: true,
            timing: true,
        }
    }
}

/// Tunable parameters of both protocols.
///
/// # Example
///
/// ```
/// use ftm_core::config::ProtocolConfig;
/// use ftm_sim::Duration;
/// let cfg = ProtocolConfig::new(7, 2)
///     .seed(3)
///     .muteness_timeout(Duration::of(200));
/// let setup = cfg.setup();
/// assert_eq!(setup.resilience.quorum(), 5);
/// assert_eq!(setup.keys.len(), 7);
/// ```
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// Number of processes.
    pub n: usize,
    /// Tolerated faults `F`.
    pub f: usize,
    /// Seed for key generation (independent of the network seed).
    pub key_seed: u64,
    /// RSA modulus width; 128 bits keeps big sweeps fast (see the crypto
    /// crate's security disclaimer).
    pub modulus_bits: usize,
    /// Initial timeout of the muteness detector ◇M (Byzantine protocol).
    pub muteness_timeout: Duration,
    /// Initial timeout of the crash detector ◇S (crash protocol).
    pub crash_fd_timeout: Duration,
    /// How often a waiting process re-evaluates its suspicion of the
    /// coordinator (the event-driven rendering of the paper's `upon`).
    pub poll_interval: Duration,
    /// Heartbeat period for the crash protocol's ◇S implementation
    /// (`None` disables heartbeats; the detector then feeds on protocol
    /// messages only).
    pub heartbeat_interval: Option<Duration>,
    /// Which non-muteness checks run (all on by default; the ablation
    /// experiment E8 turns modules off one at a time).
    pub checks: Checks,
    /// Which ◇M implementation the transformed protocol embeds.
    pub muteness_mode: MutenessMode,
}

impl ProtocolConfig {
    /// Conservative defaults: key seed 0xF7, 128-bit keys, muteness/crash
    /// timeouts 150, poll every 25, heartbeats every 40.
    ///
    /// # Panics
    ///
    /// Panics if `(n, f)` violate the crash protocols' resilience bound
    /// (see [`Resilience::new`]). A transformed process built from the
    /// setup also needs `f ≤ ⌊(n−1)/3⌋`, which its certification module
    /// checks.
    pub fn new(n: usize, f: usize) -> Self {
        let _ = Resilience::new(n, f); // validate early
        ProtocolConfig {
            n,
            f,
            key_seed: 0xF7,
            modulus_bits: 128,
            muteness_timeout: Duration::of(150),
            crash_fd_timeout: Duration::of(150),
            poll_interval: Duration::of(25),
            heartbeat_interval: Some(Duration::of(40)),
            checks: Checks::default(),
            muteness_mode: MutenessMode::Adaptive,
        }
    }

    /// Selects the ◇M implementation.
    pub fn muteness_mode(mut self, mode: MutenessMode) -> Self {
        self.muteness_mode = mode;
        self
    }

    /// Disables some non-muteness checks (ablation experiment E8 only).
    pub fn checks(mut self, checks: Checks) -> Self {
        self.checks = checks;
        self
    }

    /// Sets the key-generation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.key_seed = seed;
        self
    }

    /// Sets the RSA modulus width.
    pub fn modulus_bits(mut self, bits: usize) -> Self {
        self.modulus_bits = bits;
        self
    }

    /// Sets the ◇M initial timeout.
    pub fn muteness_timeout(mut self, t: Duration) -> Self {
        self.muteness_timeout = t;
        self
    }

    /// Sets the suspicion poll interval.
    pub fn poll_interval(mut self, t: Duration) -> Self {
        self.poll_interval = t;
        self
    }

    /// Generates the run's shared key material and resilience parameters.
    pub fn setup(&self) -> ProtocolSetup {
        let mut rng = ftm_crypto::rng_from_seed(self.key_seed);
        let (dir, keys) = KeyDirectory::generate(&mut rng, self.n, self.modulus_bits);
        ProtocolSetup {
            resilience: Resilience::new(self.n, self.f),
            dir,
            keys,
            config: self.clone(),
        }
    }
}

/// Everything the actors of one run share: resilience parameters, the
/// public-key directory, and each process's key pair.
///
/// Faulty processes receive the same setup — they can misuse their own key
/// but cannot alter the directory or read other private keys (except when a
/// fault injector deliberately models a stolen key).
#[derive(Debug, Clone)]
pub struct ProtocolSetup {
    /// `(n, F)` and derived thresholds.
    pub resilience: Resilience,
    /// Public keys of all processes.
    pub dir: KeyDirectory,
    /// Private key pairs, indexed by process.
    pub keys: Vec<KeyPair>,
    /// The generating configuration (for timeouts etc.).
    pub config: ProtocolConfig,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_is_deterministic_in_seed() {
        let a = ProtocolConfig::new(3, 1).seed(5).setup();
        let b = ProtocolConfig::new(3, 1).seed(5).setup();
        assert_eq!(a.keys[0].public(), b.keys[0].public());
        let c = ProtocolConfig::new(3, 1).seed(6).setup();
        assert_ne!(a.keys[0].public(), c.keys[0].public());
    }

    #[test]
    fn builder_round_trip() {
        let cfg = ProtocolConfig::new(4, 1)
            .modulus_bits(64)
            .muteness_timeout(Duration::of(9))
            .poll_interval(Duration::of(7));
        assert_eq!(cfg.modulus_bits, 64);
        assert_eq!(cfg.muteness_timeout, Duration::of(9));
        assert_eq!(cfg.poll_interval, Duration::of(7));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn invalid_resilience_rejected_early() {
        let _ = ProtocolConfig::new(4, 2);
    }
}

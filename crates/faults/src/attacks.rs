//! Concrete Byzantine strategies against the transformed protocol.
//!
//! Each strategy realizes one failure from the paper's taxonomy (§2). The
//! names in brackets give the paper's fault class and the module expected
//! to catch it:
//!
//! | Strategy             | Paper fault                          | Caught by |
//! |----------------------|--------------------------------------|-----------|
//! | [`MuteAfter`]        | muteness (permanent omission)        | muteness FD ◇M |
//! | [`VectorCorruptor`]  | corruption of a variable value       | certificate analyzer |
//! | [`RoundJumper`]      | misevaluation / corrupted round      | state machine + round-entry evidence |
//! | [`VoteDuplicator`]   | duplication of a statement           | state machine |
//! | [`DecideForger`]     | spurious statement (forged decision) | certificate analyzer |
//! | [`WrongKeySigner`]   | unsigned/forged messages             | signature module |
//! | [`IdentityThief`]    | falsified identity                   | signature module |
//! | [`InitEquivocator`]  | two-faced proposal                   | *not locally detectable* — Agreement must survive it |
//! | [`SpuriousCurrent`]  | spurious statement (fake coordinator)| certificate analyzer |

use ftm_certify::{
    Certificate, Core, Envelope, MessageCore, Round, SignedCore, Value, ValueVector,
};
use ftm_crypto::rsa::KeyPair;
use ftm_sim::{ProcessId, VirtualTime};

use crate::behavior::Tamper;

/// Re-signs a (possibly mutated) core with the attacker's own key,
/// preserving the certificate.
fn resign(me: ProcessId, core: Core, cert: Certificate, keys: &KeyPair) -> Envelope {
    Envelope::make(me, core, cert, keys)
}

/// Re-signs every staged envelope's unchanged core as `sender` under
/// `keys`, certificates untouched. The copies of one broadcast carry one
/// statement and signatures are deterministic, so a run of equal
/// statements is signed once.
fn resign_all(sender: ProcessId, keys: &KeyPair, staged: &mut [(ProcessId, Envelope)]) {
    let mut last: Option<(SignedCore, SignedCore)> = None;
    for (_, env) in staged {
        let forged = match &last {
            Some((honest, forged)) if *honest == env.signed => forged.clone(),
            _ => SignedCore::sign(MessageCore::new(sender, env.core().clone()), keys),
        };
        let honest = std::mem::replace(&mut env.signed, forged.clone());
        last = Some((honest, forged));
    }
}

/// Permanent omission: stops sending anything from `after` on.
///
/// Until then it behaves honestly — the hardest muteness case for ◇M,
/// since the detector has already learned to trust the process.
#[derive(Debug)]
pub struct MuteAfter {
    /// When the process falls silent.
    pub after: VirtualTime,
}

impl Tamper for MuteAfter {
    fn tamper(
        &mut self,
        _me: ProcessId,
        _keys: &KeyPair,
        staged: &mut Vec<(ProcessId, Envelope)>,
        now: VirtualTime,
    ) {
        if now >= self.after {
            staged.clear();
        }
    }
}

/// Corrupts one entry of every outgoing estimate vector to `poison` — the
/// paper's "corruption of a local variable". Covers the vector-carrying
/// kinds of both transformed protocols (CURRENT/DECIDE under Hurfin–Raynal,
/// ESTIMATE/PROPOSE/ACK under Chandra–Toueg); a run only ever stages its
/// own protocol's kinds, so the extra arms are inert for the other one.
/// The signature is valid (the process signs its own lie); only the
/// certificate analysis can catch the mismatch with the INIT witnesses.
#[derive(Debug)]
pub struct VectorCorruptor {
    /// Which vector entry to falsify.
    pub entry: usize,
    /// The poison value written there.
    pub poison: Value,
}

impl Tamper for VectorCorruptor {
    fn tamper(
        &mut self,
        me: ProcessId,
        keys: &KeyPair,
        staged: &mut Vec<(ProcessId, Envelope)>,
        _now: VirtualTime,
    ) {
        for (_, env) in staged.iter_mut() {
            let new_core = match env.core().clone() {
                Core::Current { round, mut vector } => {
                    if self.entry < vector.len() {
                        vector.set(self.entry, self.poison);
                    }
                    Some(Core::Current { round, vector })
                }
                Core::Decide { round, mut vector } => {
                    if self.entry < vector.len() {
                        vector.set(self.entry, self.poison);
                    }
                    Some(Core::Decide { round, vector })
                }
                Core::Estimate {
                    round,
                    mut vector,
                    ts,
                } => {
                    if self.entry < vector.len() {
                        vector.set(self.entry, self.poison);
                    }
                    Some(Core::Estimate { round, vector, ts })
                }
                Core::Propose { round, mut vector } => {
                    if self.entry < vector.len() {
                        vector.set(self.entry, self.poison);
                    }
                    Some(Core::Propose { round, vector })
                }
                Core::Ack { round, mut vector } => {
                    if self.entry < vector.len() {
                        vector.set(self.entry, self.poison);
                    }
                    Some(Core::Ack { round, vector })
                }
                _ => None,
            };
            if let Some(core) = new_core {
                *env = resign(me, core, env.cert.clone(), keys);
            }
        }
    }
}

/// Corrupts the round number of outgoing round votes by `jump` — modeling
/// a corrupted `r_i` variable or a misevaluated round-advance condition.
/// Targets the vote kind of whichever protocol is running: NEXT under
/// Hurfin–Raynal, ACK/NACK under Chandra–Toueg.
#[derive(Debug)]
pub struct RoundJumper {
    /// How many rounds to add.
    pub jump: Round,
}

impl Tamper for RoundJumper {
    fn tamper(
        &mut self,
        me: ProcessId,
        keys: &KeyPair,
        staged: &mut Vec<(ProcessId, Envelope)>,
        _now: VirtualTime,
    ) {
        for (_, env) in staged.iter_mut() {
            let core = match env.core().clone() {
                Core::Next { round } => Core::Next {
                    round: round + self.jump,
                },
                Core::Ack { round, vector } => Core::Ack {
                    round: round + self.jump,
                    vector,
                },
                Core::Nack { round } => Core::Nack {
                    round: round + self.jump,
                },
                _ => continue,
            };
            *env = resign(me, core, env.cert.clone(), keys);
        }
    }
}

/// Duplicates every outgoing round vote (NEXT under Hurfin–Raynal, ACK and
/// NACK under Chandra–Toueg) — the paper's "duplication of a statement".
/// The duplicate is byte-identical and validly signed; only the per-peer
/// state machine notices the second receipt is not enabled.
#[derive(Debug)]
pub struct VoteDuplicator;

impl Tamper for VoteDuplicator {
    fn tamper(
        &mut self,
        _me: ProcessId,
        _keys: &KeyPair,
        staged: &mut Vec<(ProcessId, Envelope)>,
        _now: VirtualTime,
    ) {
        let dups: Vec<(ProcessId, Envelope)> = staged
            .iter()
            .filter(|(_, env)| {
                matches!(
                    env.core(),
                    Core::Next { .. } | Core::Ack { .. } | Core::Nack { .. }
                )
            })
            .cloned()
            .collect();
        staged.extend(dups);
    }
}

/// Injects a forged `DECIDE` with a fabricated vector and an empty
/// certificate at `at` — the strongest spurious-statement attack: if it
/// were believed, Agreement and Validity would both fall.
#[derive(Debug)]
pub struct DecideForger {
    /// When to fire (once).
    pub at: VirtualTime,
    /// System size (to fabricate a plausible-width vector).
    pub n: usize,
    /// The fabricated value planted in every entry.
    pub poison: Value,
    fired: bool,
}

impl DecideForger {
    /// Creates the one-shot forger.
    pub fn new(at: VirtualTime, n: usize, poison: Value) -> Self {
        DecideForger {
            at,
            n,
            poison,
            fired: false,
        }
    }
}

impl Tamper for DecideForger {
    fn tamper(
        &mut self,
        _me: ProcessId,
        _keys: &KeyPair,
        _staged: &mut Vec<(ProcessId, Envelope)>,
        _now: VirtualTime,
    ) {
    }

    fn inject(
        &mut self,
        me: ProcessId,
        keys: &KeyPair,
        now: VirtualTime,
    ) -> Vec<(ProcessId, Envelope)> {
        if self.fired || now < self.at {
            return Vec::new();
        }
        self.fired = true;
        let mut vector = ValueVector::empty(self.n);
        for k in 0..self.n {
            vector.set(k, self.poison);
        }
        let env = resign(
            me,
            Core::Decide { round: 1, vector },
            Certificate::new(),
            keys,
        );
        (0..self.n as u32)
            .map(|p| (ProcessId(p), env.clone()))
            .collect()
    }
}

/// Signs everything with a key that is not the registered one — a broken
/// or stolen signing key. Every message fails verification.
#[derive(Debug)]
pub struct WrongKeySigner {
    /// The wrong key used for signing.
    pub wrong: KeyPair,
}

impl Tamper for WrongKeySigner {
    fn tamper(
        &mut self,
        me: ProcessId,
        _keys: &KeyPair,
        staged: &mut Vec<(ProcessId, Envelope)>,
        _now: VirtualTime,
    ) {
        resign_all(me, &self.wrong, staged);
    }
}

/// Claims to be `victim` on every outgoing message (identity
/// falsification). The signature cannot match the claimed identity, and
/// the channel source gives the thief away.
#[derive(Debug)]
pub struct IdentityThief {
    /// Whose identity to steal.
    pub victim: ProcessId,
}

impl Tamper for IdentityThief {
    fn tamper(
        &mut self,
        _me: ProcessId,
        keys: &KeyPair,
        staged: &mut Vec<(ProcessId, Envelope)>,
        _now: VirtualTime,
    ) {
        resign_all(self.victim, keys, staged);
    }
}

/// Sends one INIT value to even-indexed processes and another to
/// odd-indexed ones. Both are validly signed by the equivocator, and no
/// single receiver can tell — the paper's "irrelevant initial value"
/// problem. Vector Consensus must keep Agreement anyway (Proposition 2 /
/// experiment E5).
#[derive(Debug)]
pub struct InitEquivocator {
    /// The alternative value sent to odd-indexed processes.
    pub alt: Value,
}

impl Tamper for InitEquivocator {
    fn tamper(
        &mut self,
        me: ProcessId,
        keys: &KeyPair,
        staged: &mut Vec<(ProcessId, Envelope)>,
        _now: VirtualTime,
    ) {
        for (to, env) in staged.iter_mut() {
            if to.index() % 2 == 1 {
                if let Core::Init { .. } = env.core() {
                    *env = resign(me, Core::Init { value: self.alt }, env.cert.clone(), keys);
                }
            }
        }
    }
}

/// Injects a CURRENT for round 1 with an unbacked vector while not being
/// the coordinator — a spurious statement / fake-coordinator attack.
#[derive(Debug)]
pub struct SpuriousCurrent {
    /// When to fire (once).
    pub at: VirtualTime,
    /// System size.
    pub n: usize,
    fired: bool,
}

impl SpuriousCurrent {
    /// Creates the one-shot injector.
    pub fn new(at: VirtualTime, n: usize) -> Self {
        SpuriousCurrent {
            at,
            n,
            fired: false,
        }
    }
}

impl Tamper for SpuriousCurrent {
    fn tamper(
        &mut self,
        _me: ProcessId,
        _keys: &KeyPair,
        _staged: &mut Vec<(ProcessId, Envelope)>,
        _now: VirtualTime,
    ) {
    }

    fn inject(
        &mut self,
        me: ProcessId,
        keys: &KeyPair,
        now: VirtualTime,
    ) -> Vec<(ProcessId, Envelope)> {
        if self.fired || now < self.at {
            return Vec::new();
        }
        self.fired = true;
        let mut vector = ValueVector::empty(self.n);
        for k in 0..self.n {
            vector.set(k, 4242);
        }
        let env = resign(
            me,
            Core::Current { round: 1, vector },
            Certificate::new(),
            keys,
        );
        (0..self.n as u32)
            .map(|p| (ProcessId(p), env.clone()))
            .collect()
    }
}

/// The Chandra–Toueg rendering of the fake-coordinator attack: a spurious
/// PROPOSE for round 1 with an unbacked vector and no estimate quorum,
/// sent while not being the coordinator.
///
/// The PROPOSE slot sits *behind* the mandatory ESTIMATE in the CT
/// observer automaton, so a free-floating injection would be convicted on
/// timing alone — a different (and easier) catch than the fake-coordinator
/// CURRENT under Hurfin–Raynal, whose slot is open from round entry. To
/// exercise the same module, the attack piggybacks on the attacker's own
/// round-1 ESTIMATE broadcast: each FIFO channel then carries
/// `ESTIMATE(1), PROPOSE(1)`, which is timing-legal, and only the
/// certificate analyzer (no estimate quorum, wrong coordinator) convicts.
#[derive(Debug)]
pub struct SpuriousPropose {
    /// System size.
    pub n: usize,
    fired: bool,
}

impl SpuriousPropose {
    /// Creates the one-shot injector.
    pub fn new(n: usize) -> Self {
        SpuriousPropose { n, fired: false }
    }
}

impl Tamper for SpuriousPropose {
    fn tamper(
        &mut self,
        me: ProcessId,
        keys: &KeyPair,
        staged: &mut Vec<(ProcessId, Envelope)>,
        _now: VirtualTime,
    ) {
        let estimating = staged
            .iter()
            .any(|(_, env)| matches!(env.core(), Core::Estimate { round: 1, .. }));
        if self.fired || !estimating {
            return;
        }
        self.fired = true;
        let mut vector = ValueVector::empty(self.n);
        for k in 0..self.n {
            vector.set(k, 4242);
        }
        let env = resign(
            me,
            Core::Propose { round: 1, vector },
            Certificate::new(),
            keys,
        );
        staged.extend((0..self.n as u32).map(|p| (ProcessId(p), env.clone())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(seed: u64) -> KeyPair {
        let mut rng = ftm_crypto::rng_from_seed(seed);
        KeyPair::generate(&mut rng, 128)
    }

    fn staged_init(me: ProcessId, n: usize, keys: &KeyPair) -> Vec<(ProcessId, Envelope)> {
        (0..n as u32)
            .map(|p| {
                (
                    ProcessId(p),
                    Envelope::make(me, Core::Init { value: 7 }, Certificate::new(), keys),
                )
            })
            .collect()
    }

    #[test]
    fn mute_after_silences_only_past_deadline() {
        let k = keys(1);
        let mut t = MuteAfter {
            after: VirtualTime::at(50),
        };
        let mut staged = staged_init(ProcessId(0), 2, &k);
        t.tamper(ProcessId(0), &k, &mut staged, VirtualTime::at(10));
        assert_eq!(staged.len(), 2);
        t.tamper(ProcessId(0), &k, &mut staged, VirtualTime::at(50));
        assert!(staged.is_empty());
    }

    #[test]
    fn vector_corruptor_rewrites_and_resigns() {
        let k = keys(2);
        let mut t = VectorCorruptor {
            entry: 1,
            poison: 666,
        };
        let vect = ValueVector::from_entries(vec![Some(1), Some(2), None]);
        let mut staged = vec![(
            ProcessId(1),
            Envelope::make(
                ProcessId(0),
                Core::Current {
                    round: 1,
                    vector: vect,
                },
                Certificate::new(),
                &k,
            ),
        )];
        t.tamper(ProcessId(0), &k, &mut staged, VirtualTime::ZERO);
        let Core::Current { vector, .. } = staged[0].1.core() else {
            panic!("kind preserved");
        };
        assert_eq!(vector.get(1), Some(666));
        // Still validly signed by the attacker's own key.
        let dir = ftm_crypto::keydir::KeyDirectory::new(vec![k.public().clone()]);
        assert!(staged[0].1.signed.verify(&dir).is_ok());
    }

    #[test]
    fn round_jumper_shifts_next_only() {
        let k = keys(3);
        let mut t = RoundJumper { jump: 5 };
        let mut staged = vec![
            (
                ProcessId(1),
                Envelope::make(
                    ProcessId(0),
                    Core::Next { round: 2 },
                    Certificate::new(),
                    &k,
                ),
            ),
            (
                ProcessId(1),
                Envelope::make(
                    ProcessId(0),
                    Core::Init { value: 1 },
                    Certificate::new(),
                    &k,
                ),
            ),
        ];
        t.tamper(ProcessId(0), &k, &mut staged, VirtualTime::ZERO);
        assert_eq!(staged[0].1.round(), 7);
        assert!(matches!(staged[1].1.core(), Core::Init { .. }));
    }

    #[test]
    fn vote_duplicator_doubles_next_votes() {
        let k = keys(4);
        let mut t = VoteDuplicator;
        let mut staged = vec![
            (
                ProcessId(1),
                Envelope::make(
                    ProcessId(0),
                    Core::Next { round: 1 },
                    Certificate::new(),
                    &k,
                ),
            ),
            (
                ProcessId(1),
                Envelope::make(
                    ProcessId(0),
                    Core::Init { value: 1 },
                    Certificate::new(),
                    &k,
                ),
            ),
        ];
        t.tamper(ProcessId(0), &k, &mut staged, VirtualTime::ZERO);
        assert_eq!(staged.len(), 3);
    }

    #[test]
    fn decide_forger_fires_once() {
        let k = keys(5);
        let mut t = DecideForger::new(VirtualTime::at(10), 3, 999);
        assert!(t.inject(ProcessId(0), &k, VirtualTime::at(5)).is_empty());
        let first = t.inject(ProcessId(0), &k, VirtualTime::at(10));
        assert_eq!(first.len(), 3);
        assert!(matches!(first[0].1.core(), Core::Decide { .. }));
        assert!(t.inject(ProcessId(0), &k, VirtualTime::at(20)).is_empty());
    }

    #[test]
    fn identity_thief_changes_claimed_sender() {
        let k = keys(6);
        let mut t = IdentityThief {
            victim: ProcessId(2),
        };
        let mut staged = staged_init(ProcessId(0), 1, &k);
        t.tamper(ProcessId(0), &k, &mut staged, VirtualTime::ZERO);
        assert_eq!(staged[0].1.sender(), ProcessId(2));
    }

    #[test]
    fn equivocator_splits_by_destination_parity() {
        let k = keys(7);
        let mut t = InitEquivocator { alt: 13 };
        let mut staged = staged_init(ProcessId(0), 4, &k);
        t.tamper(ProcessId(0), &k, &mut staged, VirtualTime::ZERO);
        let vals: Vec<u64> = staged
            .iter()
            .map(|(_, e)| match e.core() {
                Core::Init { value } => *value,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(vals, vec![7, 13, 7, 13]);
    }

    #[test]
    fn spurious_current_targets_everyone_once() {
        let k = keys(8);
        let mut t = SpuriousCurrent::new(VirtualTime::at(1), 3);
        let msgs = t.inject(ProcessId(2), &k, VirtualTime::at(1));
        assert_eq!(msgs.len(), 3);
        assert!(matches!(msgs[0].1.core(), Core::Current { round: 1, .. }));
        assert!(t.inject(ProcessId(2), &k, VirtualTime::at(2)).is_empty());
    }

    #[test]
    fn spurious_propose_rides_the_round_one_estimate() {
        let k = keys(11);
        let mut t = SpuriousPropose::new(3);
        let estimate = |to: u32| {
            (
                ProcessId(to),
                Envelope::make(
                    ProcessId(2),
                    Core::Estimate {
                        round: 1,
                        vector: ValueVector::empty(3),
                        ts: 0,
                    },
                    Certificate::new(),
                    &k,
                ),
            )
        };
        // Unrelated traffic (the INIT broadcast) leaves the attack dormant.
        let mut init = vec![(
            ProcessId(0),
            Envelope::make(
                ProcessId(2),
                Core::Init { value: 5 },
                Certificate::new(),
                &k,
            ),
        )];
        t.tamper(ProcessId(2), &k, &mut init, VirtualTime::ZERO);
        assert_eq!(init.len(), 1);
        // The round-1 ESTIMATE broadcast gets the fake PROPOSE appended,
        // one per process, *after* the estimates (FIFO keeps it in-slot).
        let mut staged: Vec<_> = (0..3).map(estimate).collect();
        t.tamper(ProcessId(2), &k, &mut staged, VirtualTime::at(40));
        assert_eq!(staged.len(), 6);
        for (i, (to, env)) in staged[3..].iter().enumerate() {
            assert_eq!(to.index(), i);
            assert!(matches!(env.core(), Core::Propose { round: 1, .. }));
        }
        // One-shot: later estimates do not re-fire it.
        let mut again: Vec<_> = (0..3).map(estimate).collect();
        t.tamper(ProcessId(2), &k, &mut again, VirtualTime::at(80));
        assert_eq!(again.len(), 3);
    }

    #[test]
    fn round_jumper_and_duplicator_cover_ct_votes() {
        let k = keys(12);
        let vect = ValueVector::from_entries(vec![Some(1), None, None]);
        let mut staged = vec![(
            ProcessId(1),
            Envelope::make(
                ProcessId(0),
                Core::Ack {
                    round: 2,
                    vector: vect,
                },
                Certificate::new(),
                &k,
            ),
        )];
        let mut jumper = RoundJumper { jump: 5 };
        jumper.tamper(ProcessId(0), &k, &mut staged, VirtualTime::ZERO);
        assert_eq!(staged[0].1.round(), 7);
        let mut dup = VoteDuplicator;
        dup.tamper(ProcessId(0), &k, &mut staged, VirtualTime::ZERO);
        assert_eq!(staged.len(), 2);
    }

    #[test]
    fn vector_corruptor_rewrites_ct_kinds() {
        let k = keys(13);
        let mut t = VectorCorruptor {
            entry: 0,
            poison: 666,
        };
        let vect = ValueVector::from_entries(vec![Some(1), Some(2), None]);
        let mut staged = vec![(
            ProcessId(1),
            Envelope::make(
                ProcessId(0),
                Core::Estimate {
                    round: 1,
                    vector: vect,
                    ts: 0,
                },
                Certificate::new(),
                &k,
            ),
        )];
        t.tamper(ProcessId(0), &k, &mut staged, VirtualTime::ZERO);
        let Core::Estimate { vector, .. } = staged[0].1.core() else {
            panic!("kind preserved");
        };
        assert_eq!(vector.get(0), Some(666));
    }

    #[test]
    fn wrong_key_signer_breaks_verification() {
        let right = keys(9);
        let wrong = keys(10);
        let mut t = WrongKeySigner {
            wrong: wrong.clone(),
        };
        let mut staged = staged_init(ProcessId(0), 1, &right);
        t.tamper(ProcessId(0), &right, &mut staged, VirtualTime::ZERO);
        let dir = ftm_crypto::keydir::KeyDirectory::new(vec![right.public().clone()]);
        assert!(staged[0].1.signed.verify(&dir).is_err());
    }
}

/// Records every message it sends and replays the whole recording once,
/// later — stale-round replays and duplicate statements mixed together
/// (the paper's "wrong time" class at its broadest).
#[derive(Debug)]
pub struct Replayer {
    /// When to replay the recording (once).
    pub at: VirtualTime,
    recorded: Vec<Envelope>,
    fired: bool,
}

impl Replayer {
    /// Creates the one-shot replayer.
    pub fn new(at: VirtualTime) -> Self {
        Replayer {
            at,
            recorded: Vec::new(),
            fired: false,
        }
    }
}

impl Tamper for Replayer {
    fn tamper(
        &mut self,
        _me: ProcessId,
        _keys: &KeyPair,
        staged: &mut Vec<(ProcessId, Envelope)>,
        _now: VirtualTime,
    ) {
        for (_, env) in staged.iter() {
            if self.recorded.len() < 64 {
                self.recorded.push(env.clone());
            }
        }
    }

    fn inject(
        &mut self,
        _me: ProcessId,
        _keys: &KeyPair,
        now: VirtualTime,
    ) -> Vec<(ProcessId, Envelope)> {
        if self.fired || now < self.at || self.recorded.is_empty() {
            return Vec::new();
        }
        self.fired = true;
        // Replay everything recorded so far, to everyone.
        let mut out = Vec::new();
        for env in &self.recorded {
            for p in 0..4u32 {
                out.push((ProcessId(p), env.clone()));
            }
        }
        out
    }
}

/// Strips the certificate off every outgoing message (re-signing the bare
/// core) — modeling a process whose certification module is broken or
/// deliberately bypassed. Receivers must reject everything whose kind
/// requires evidence.
#[derive(Debug)]
pub struct CertStripper;

impl Tamper for CertStripper {
    fn tamper(
        &mut self,
        me: ProcessId,
        keys: &KeyPair,
        staged: &mut Vec<(ProcessId, Envelope)>,
        _now: VirtualTime,
    ) {
        for (_, env) in staged.iter_mut() {
            if !env.cert.is_empty() {
                *env = resign(me, env.core().clone(), Certificate::new(), keys);
            }
        }
    }
}

/// Sends only to processes with index below `cutoff` — selective omission
/// (a process can be "mute with respect to some processes" — exactly the
/// paper's observation that faultiness is per-observer).
#[derive(Debug)]
pub struct SelectiveSender {
    /// Processes with index ≥ `cutoff` receive nothing.
    pub cutoff: usize,
}

impl Tamper for SelectiveSender {
    fn tamper(
        &mut self,
        _me: ProcessId,
        _keys: &KeyPair,
        staged: &mut Vec<(ProcessId, Envelope)>,
        _now: VirtualTime,
    ) {
        staged.retain(|(to, _)| to.index() < self.cutoff);
    }
}

#[cfg(test)]
mod late_attack_tests {
    use super::*;

    fn keys(seed: u64) -> KeyPair {
        let mut rng = ftm_crypto::rng_from_seed(seed);
        KeyPair::generate(&mut rng, 128)
    }

    #[test]
    fn replayer_records_then_replays_once() {
        let k = keys(20);
        let mut t = Replayer::new(VirtualTime::at(50));
        let mut staged = vec![(
            ProcessId(1),
            Envelope::make(
                ProcessId(0),
                Core::Init { value: 3 },
                Certificate::new(),
                &k,
            ),
        )];
        t.tamper(ProcessId(0), &k, &mut staged, VirtualTime::at(10));
        assert!(t.inject(ProcessId(0), &k, VirtualTime::at(20)).is_empty());
        let replayed = t.inject(ProcessId(0), &k, VirtualTime::at(50));
        assert_eq!(replayed.len(), 4); // 1 recorded message × 4 targets
        assert!(t.inject(ProcessId(0), &k, VirtualTime::at(60)).is_empty());
    }

    #[test]
    fn cert_stripper_empties_certificates() {
        let k = keys(21);
        let mut t = CertStripper;
        let inner = ftm_certify::SignedCore::sign(
            ftm_certify::MessageCore::new(ProcessId(1), Core::Next { round: 1 }),
            &k,
        );
        let mut staged = vec![(
            ProcessId(1),
            Envelope::make(
                ProcessId(0),
                Core::Next { round: 1 },
                Certificate::from_items([inner]),
                &k,
            ),
        )];
        t.tamper(ProcessId(0), &k, &mut staged, VirtualTime::ZERO);
        assert!(staged[0].1.cert.is_empty());
    }

    #[test]
    fn selective_sender_drops_high_indices() {
        let k = keys(22);
        let mut t = SelectiveSender { cutoff: 2 };
        let mut staged: Vec<(ProcessId, Envelope)> = (0..4u32)
            .map(|p| {
                (
                    ProcessId(p),
                    Envelope::make(
                        ProcessId(0),
                        Core::Init { value: 1 },
                        Certificate::new(),
                        &k,
                    ),
                )
            })
            .collect();
        t.tamper(ProcessId(0), &k, &mut staged, VirtualTime::ZERO);
        let targets: Vec<u32> = staged.iter().map(|(p, _)| p.0).collect();
        assert_eq!(targets, vec![0, 1]);
    }
}

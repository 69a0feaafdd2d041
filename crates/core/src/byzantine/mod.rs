//! The transformed protocols (paper Fig. 3): Vector Consensus resilient to
//! arbitrary failures.
//!
//! Obtained from the crash-model protocols of [`crate::crash`] by applying
//! the transformation rules of [`crate::transform`]:
//!
//! * a preliminary **vector-certification phase** replaces raw initial
//!   values (INIT exchange, `n − F` collected);
//! * every message is a signed [`ftm_certify::Envelope`] carrying a
//!   certificate; every receipt runs through the
//!   [`crate::transform::ModuleStack`];
//! * the crash majority `> n/2` becomes the quorum `n − F`;
//! * the ◇S guard `p_c ∈ suspected_i` becomes
//!   `p_c ∈ (suspected_i ∪ faulty_i)` over the muteness and non-muteness
//!   modules;
//! * corruptible local variables (`nb_current`, `nb_next`, `rec_from`) are
//!   replaced by certificate expressions: the vote records of [`votes`].
//!
//! The module layout mirrors paper Fig. 1. The four generic modules and
//! everything Fig. 3 shades gray are one actor, [`Transformed`], written
//! once in [`shell`]; the protocol-specific round module is the one the
//! crash model runs — [`crate::rounds::hr`], [`crate::rounds::ct`] — over
//! a certificate record ([`HrCerts`], [`CtCerts`]). A round module cannot
//! send on its own: it discharges one of its protocol's spec rows through
//! [`crate::rounds::Shell::emit`], so send conformance with
//! `ProtocolSpec::sends` is a typing fact, and the shell assembles the
//! row's certificate by walking the row's `justified_by`. The
//! [`TransformedProtocol`] trait is the seam layers above (the replicated
//! log, the fault harness) build against. Both instances are built for
//! `F ≤ min(⌊(n−1)/2⌋, C) = ⌊(n−1)/3⌋` arbitrary faults (the
//! certification module refuses more, `ftm_certify::CertChecker::new_for`)
//! and decide a vector with at least `ψ = n − 2F ≥ 1` entries from
//! correct processes. Agreement holds against the behaviours the sweeps
//! sample, not against all: `tests/agreement_breaks.rs` pins runs A–C.

pub mod batch;
pub mod log;
pub mod shell;
pub mod votes;

use ftm_certify::{Certificate, Envelope, MessageCore, ProtocolId, SignedCore, Value, ValueVector};
use ftm_sim::{Actor, Context, ProcessId, TimerTag};

use crate::config::ProtocolSetup;
use crate::rounds::{ct, hr};
use crate::spec::ProtocolSpec;
use crate::transform::ModuleStack;

pub use log::ReplicatedLog;
pub use shell::{ArbitraryModel, Transformed};
pub use votes::{CtCerts, HrCerts};

/// The transformed Hurfin–Raynal protocol (paper Fig. 3).
pub type ByzantineConsensus = Transformed<hr::HurfinRaynal<HrCerts>>;
/// The transformed Chandra–Toueg protocol.
pub type ByzantineChandraToueg = Transformed<ct::ChandraToueg<CtCerts>>;

/// A protocol produced by the crash→arbitrary transformation: an actor
/// speaking signed [`Envelope`]s and deciding a certified [`ValueVector`],
/// with an embedded module stack and a declarative spec.
///
/// This is the seam that makes the runtime protocol-generic: the
/// replicated log, the fault-injection harness and the sweep runner are
/// written against this trait and instantiated per [`ProtocolId`].
///
/// As an [`Actor`] the process signs its own INIT and DECIDE, each alone.
/// A host that signs them itself — the replicated log seals one slot's
/// DECIDE and the next slot's INIT with one RSA operation — drives it
/// through the entry points below instead, which never sign either:
/// [`start`](Self::start), [`receive`](Self::receive),
/// [`tick`](Self::tick), then [`take_announce`](Self::take_announce) and
/// [`announce`](Self::announce) once it decides.
pub trait TransformedProtocol: Actor<Msg = Envelope, Decision = ValueVector> {
    /// The base protocol's identity — selects the observer automaton
    /// table, the §5 certification-rule table and the decision predicate.
    const ID: ProtocolId;

    /// Builds one process proposing `value`.
    fn build(setup: &ProtocolSetup, me: ProcessId, value: Value) -> Self
    where
        Self: Sized;

    /// The transformed spec this runtime implements: `transform` of the
    /// protocol's crash spec.
    fn spec() -> ProtocolSpec
    where
        Self: Sized,
    {
        ProtocolSpec::transformed_for(Self::ID)
    }

    /// Read access to the module stack (evidence logs, detector state).
    fn stack(&self) -> &ModuleStack;

    /// The decide-vote quorum backing this process's decision (`CURRENT`
    /// items under Hurfin–Raynal, `ACK` under Chandra–Toueg), available
    /// once the instance has decided. This is the evidence a log-layer
    /// checkpoint compacts into a single envelope
    /// (see `ftm_certify::checkpoint`).
    fn decide_evidence(&self) -> Option<&Certificate>;

    /// This process's INIT (Fig. 3 line 5), unsigned, for the host to
    /// seal and hand to [`start`](Self::start).
    fn init_core(&self) -> MessageCore;

    /// [`Actor::on_start`] with the INIT already sealed by the host.
    fn start(&mut self, init: SignedCore, ctx: &mut Context<'_, Envelope, ValueVector>);

    /// [`Actor::on_message`], except that a DECIDE this delivery leads to
    /// is left for [`take_announce`](Self::take_announce).
    fn receive(
        &mut self,
        from: ProcessId,
        env: &Envelope,
        ctx: &mut Context<'_, Envelope, ValueVector>,
    );

    /// [`Actor::on_timer`], leaving a DECIDE as
    /// [`receive`](Self::receive) does.
    fn tick(&mut self, tag: TimerTag, ctx: &mut Context<'_, Envelope, ValueVector>);

    /// The decision's DECIDE core, unsigned — once: `None` before the
    /// process decides and after the core was taken.
    fn take_announce(&mut self) -> Option<MessageCore>;

    /// Broadcasts the DECIDE [`take_announce`](Self::take_announce) gave
    /// out, sealed by the host, with the decide-vote quorum as its
    /// certificate.
    fn announce(&mut self, decide: SignedCore, ctx: &mut Context<'_, Envelope, ValueVector>);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use ftm_sim::{SimConfig, Simulation};

    fn run_generic<P: TransformedProtocol + 'static>(n: usize, f: usize, seed: u64) -> bool {
        let setup = ProtocolConfig::new(n, f).seed(seed).setup();
        Simulation::build_boxed(SimConfig::new(n).seed(seed), |id| {
            Box::new(P::build(&setup, id, 100 + id.0 as u64))
        })
        .run()
        .all_decided()
    }

    #[test]
    fn both_protocols_run_through_the_trait_seam() {
        assert!(run_generic::<ByzantineConsensus>(4, 1, 5));
        assert!(run_generic::<ByzantineChandraToueg>(4, 1, 5));
    }

    #[test]
    fn trait_spec_matches_the_protocol_id() {
        assert_eq!(
            <ByzantineConsensus as TransformedProtocol>::spec()
                .table
                .protocol,
            ProtocolId::HurfinRaynal
        );
        assert_eq!(
            <ByzantineChandraToueg as TransformedProtocol>::spec()
                .table
                .protocol,
            ProtocolId::ChandraToueg
        );
    }
}

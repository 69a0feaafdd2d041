//! The round modules of paper Fig. 1, each written once and run in either
//! fault model.
//!
//! Fig. 3 is Fig. 2 with three changes: a count of votes becomes a
//! certificate, a crash majority becomes the quorum `n − F`, and a value
//! becomes a certified vector. None of them is control flow, so a
//! protocol's round logic — its state, its guards, its thresholds stated as
//! "quorum" — is one [`Rounds`] implementation ([`hr`], [`ct`]) generic
//! over its vote [`Record`]. The model supplies the record (sender sets and
//! counts in [`crate::crash::votes`], certificates in
//! [`crate::byzantine::votes`] — the paper's "replace expressions over
//! corruptible local variables with expressions over certificates") and
//! the [`Shell`], which renders a send: a round module names the spec row
//! it discharges ([`SendId`]) and never builds a message or a certificate.
//! No round module branches on the model.

pub mod ct;
pub mod hr;

use std::fmt;

use ftm_certify::{MessageKind, ProtocolId, Round};
use ftm_sim::ProcessId;

/// Spec id of both shells' terminal send.
pub(crate) const DECIDE_ANNOUNCE: &str = "decide-announce";

/// The kinds a round module can put on the wire: `MessageKind` without the
/// shells' own `INIT` / `DECIDE` and the log layer's `CHECKPOINT`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Vote {
    /// `CURRENT(r, est)` (HR).
    Current,
    /// `NEXT(r)` (HR).
    Next,
    /// `ESTIMATE(r, est, ts)` (CT).
    Estimate,
    /// `PROPOSE(r, est)` (CT).
    Propose,
    /// `ACK(r, est)` (CT).
    Ack,
    /// `NACK(r)` (CT).
    Nack,
}

/// A protocol's round-module send obligations as a closed type: one value
/// per `ProtocolSpec::sends` row other than the shells' own sends.
pub trait SendId: Copy + fmt::Debug + 'static {
    /// Every id, in `ProtocolSpec::sends` order.
    const ALL: &'static [Self];

    /// The `ConditionalSend::id` of the row this value discharges.
    fn id(self) -> &'static str;

    /// The one kind that row puts on the wire.
    fn kind(self) -> Vote;
}

/// A fault model: what a round module receives, sends and concludes.
pub trait Model {
    /// A vote of the round in progress, as the shell hands it over.
    type Vote<'v>;
    /// This process's own send, as the shell rendered it.
    type Sent;
    /// The evidence that ends a round and opens the next.
    type Entry;
    /// What a decision carries.
    type Decision;

    /// The kind of `vote`.
    fn kind(vote: &Self::Vote<'_>) -> MessageKind;
}

/// The record a round module keeps of its round's votes, in its model's
/// form.
pub trait Record: fmt::Debug + Default {
    /// The model the record keeps votes of.
    type Model: Model;

    /// The shell sent `own` for this process (rendered, but withheld, for
    /// a crash coordinator's own ACK).
    fn sent(&mut self, _own: &<Self::Model as Model>::Sent) {}
}

/// A vote as the model of record `V` hands it over.
pub type Ballot<'v, V> = <<V as Record>::Model as Model>::Vote<'v>;
/// A round's end as the model of record `V` certifies it.
pub type Entry<V> = <<V as Record>::Model as Model>::Entry;
/// A decision as the model of record `V` carries it.
pub type Decision<V> = <<V as Record>::Model as Model>::Decision;

/// What a round module tells the shell after reacting to an event.
#[must_use]
pub enum Step<V: Record> {
    /// The round goes on.
    Stay,
    /// The round is over; the evidence opens the next one.
    NextRound(Entry<V>),
    /// Decide.
    Decide(Decision<V>),
}

/// Round module `R`'s view of its shell for the duration of one callback.
/// A round module reads the shell and speaks only through
/// [`emit`](Shell::emit); it never holds the runtime's effect handle.
pub trait Shell<R: Rounds> {
    /// This process.
    fn me(&self) -> ProcessId;

    /// The round in progress.
    fn round(&self) -> Round;

    /// The coordinator of the round in progress.
    fn coordinator(&self) -> ProcessId;

    /// The vote threshold: the crash majority `⌊n/2⌋ + 1`, or `n − F` once
    /// transformed.
    fn quorum(&self) -> usize;

    /// Adopts the estimate `vote` carries, stamped with the round in
    /// progress (once transformed, with the INIT backing of the
    /// certificate that carried it).
    fn adopt(&mut self, vote: &Ballot<'_, R::Votes>);

    /// Discharges the spec row `row`, the round module's only way to send.
    /// The kind comes from `row`, the round is the shell's, value-carrying
    /// kinds carry the adopted estimate, and the shell picks destinations
    /// and justification; `votes` learns of the send ([`Record::sent`])
    /// and, once transformed, lends the evidence the row's certificate
    /// cites:
    ///
    /// ```
    /// use ftm_certify::{Certified, ProtocolId};
    /// use ftm_core::byzantine::HrCerts;
    /// use ftm_core::rounds::hr::HrSend;
    /// use ftm_core::rounds::{Rounds, Shell, Step, Vote};
    /// use ftm_sim::ProcessId;
    ///
    /// #[derive(Debug, Default)]
    /// struct Impatient {
    ///     votes: HrCerts,
    /// }
    /// impl Rounds for Impatient {
    ///     const ID: ProtocolId = ProtocolId::HurfinRaynal;
    ///     type Send = HrSend;
    ///     type Votes = HrCerts;
    ///     fn open_round(&mut self, sh: &mut impl Shell<Self>) {
    ///         sh.emit(HrSend::NextSuspicion, &mut self.votes);
    ///     }
    ///     fn on_vote(&mut self, _: ProcessId, _: Certified<'_>, _: &mut impl Shell<Self>) -> Step<HrCerts> { Step::Stay }
    ///     fn awaits_coordinator(&self, _: &impl Shell<Self>) -> bool { false }
    ///     fn on_suspicion(&mut self, _: &mut impl Shell<Self>) -> Step<HrCerts> { Step::Stay }
    /// }
    /// ```
    ///
    /// The same module voting `NEXT` for a round of its own choosing is
    /// rejected (only the `emit` line differs; the rest is hidden):
    ///
    /// ```compile_fail
    /// # use ftm_certify::{Certified, ProtocolId};
    /// # use ftm_core::byzantine::HrCerts;
    /// # use ftm_core::rounds::hr::HrSend;
    /// # use ftm_core::rounds::{Rounds, Shell, Step, Vote};
    /// # use ftm_sim::ProcessId;
    /// # #[derive(Debug, Default)]
    /// # struct Impatient {
    /// #     votes: HrCerts,
    /// # }
    /// # impl Rounds for Impatient {
    /// #     const ID: ProtocolId = ProtocolId::HurfinRaynal;
    /// #     type Send = HrSend;
    /// #     type Votes = HrCerts;
    ///     fn open_round(&mut self, sh: &mut impl Shell<Self>) {
    ///         sh.emit(HrSend::NextSuspicion, sh.round() + 1, &mut self.votes);
    ///     }
    /// #     fn on_vote(&mut self, _: ProcessId, _: Certified<'_>, _: &mut impl Shell<Self>) -> Step<HrCerts> { Step::Stay }
    /// #     fn awaits_coordinator(&self, _: &impl Shell<Self>) -> bool { false }
    /// #     fn on_suspicion(&mut self, _: &mut impl Shell<Self>) -> Step<HrCerts> { Step::Stay }
    /// # }
    /// ```
    ///
    /// So is emitting a kind instead of an obligation — here a `CURRENT`
    /// where the suspicion row says `NEXT`:
    ///
    /// ```compile_fail
    /// # use ftm_certify::{Certified, ProtocolId};
    /// # use ftm_core::byzantine::HrCerts;
    /// # use ftm_core::rounds::hr::HrSend;
    /// # use ftm_core::rounds::{Rounds, Shell, Step, Vote};
    /// # use ftm_sim::ProcessId;
    /// # #[derive(Debug, Default)]
    /// # struct Impatient {
    /// #     votes: HrCerts,
    /// # }
    /// # impl Rounds for Impatient {
    /// #     const ID: ProtocolId = ProtocolId::HurfinRaynal;
    /// #     type Send = HrSend;
    /// #     type Votes = HrCerts;
    ///     fn open_round(&mut self, sh: &mut impl Shell<Self>) {
    ///         sh.emit(Vote::Current, &mut self.votes);
    ///     }
    /// #     fn on_vote(&mut self, _: ProcessId, _: Certified<'_>, _: &mut impl Shell<Self>) -> Step<HrCerts> { Step::Stay }
    /// #     fn awaits_coordinator(&self, _: &impl Shell<Self>) -> bool { false }
    /// #     fn on_suspicion(&mut self, _: &mut impl Shell<Self>) -> Step<HrCerts> { Step::Stay }
    /// # }
    /// ```
    fn emit(&mut self, row: R::Send, votes: &mut R::Votes);
}

/// The protocol-specific round module of paper Fig. 1, for either model:
/// the round's control flags and vote record, speaking only through the
/// [`Shell`] it is handed.
pub trait Rounds: fmt::Debug + Default {
    /// The base protocol: selects the transformed shell's observer
    /// automaton and §5 rule table.
    const ID: ProtocolId;

    /// The sends this module may emit.
    type Send: SendId;

    /// The round's vote record, which fixes the model.
    type Votes: Record;

    /// The shell entered a new round: reset the per-round record and make
    /// the round-opening send, if this process owes one.
    fn open_round(&mut self, sh: &mut impl Shell<Self>);

    /// A vote for the round in progress (never `INIT`, `DECIDE`,
    /// `CHECKPOINT` or a heartbeat, never another round's).
    fn on_vote(
        &mut self,
        from: ProcessId,
        vote: Ballot<'_, Self::Votes>,
        sh: &mut impl Shell<Self>,
    ) -> Step<Self::Votes>;

    /// Whether this process still waits on the round coordinator, i.e.
    /// whether suspecting it would make this process give up.
    fn awaits_coordinator(&self, sh: &impl Shell<Self>) -> bool;

    /// The coordinator is suspected (or convicted) while awaited.
    fn on_suspicion(&mut self, sh: &mut impl Shell<Self>) -> Step<Self::Votes>;
}

/// Sends made so far per spec row, in `ProtocolSpec::sends` order: each
/// shell counts a send where it commits to it; the coverage tests read the
/// tally.
#[derive(Debug)]
pub(crate) struct Discharged(pub(crate) Vec<(&'static str, u32)>);

impl Discharged {
    /// A zero count for each of `opening`, the rows of `S` and
    /// `decide-announce`.
    pub(crate) fn new<S: SendId>(opening: &[&'static str]) -> Self {
        let rows = S::ALL.iter().map(|row| row.id());
        let ids = opening.iter().copied().chain(rows).chain([DECIDE_ANNOUNCE]);
        Discharged(ids.map(|id| (id, 0)).collect())
    }

    pub(crate) fn count(&mut self, id: &'static str) {
        if let Some((_, n)) = self.0.iter_mut().find(|(d, _)| *d == id) {
            *n += 1;
        }
    }
}

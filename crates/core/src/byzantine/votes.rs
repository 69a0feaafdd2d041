//! The transformed model's vote records: certificates (paper §5.1).
//!
//! A faulty process can corrupt any local variable, so no count another
//! process would have to trust is kept: Fig. 2's `nb_current`, `nb_next`
//! and `rec_from` become the cardinalities `|current_cert|`,
//! `|next_cert|` and `REC_FROM` of sets of signed votes, and a round ends
//! on a quorum of signed votes that travels on as the next round's entry
//! evidence. What a record holds is what the shell's sends cite: for each
//! edge of a send's `justified_by`, one store, chosen by the cited row's
//! kind ([`Ledger::cite`]).

use ftm_certify::certificate::distinct_senders;
use ftm_certify::{Certificate, Certified, Core, MessageKind, Round, SignedCore, ValueVector};
use ftm_sim::ProcessId;

use super::shell::{ArbitraryModel, Ledger};
use crate::rounds::{ct, hr, Record};
use crate::spec::{EvidencePhase, Justification};

/// The items among `items` that endorse `vector`, once from a quorum of
/// distinct signers: a decision and its evidence.
fn endorsing<'a>(
    items: impl Iterator<Item = &'a SignedCore> + Clone,
    vector: &ValueVector,
    quorum: usize,
) -> Option<(ValueVector, Certificate)> {
    let endorses = |i: &SignedCore| i.core().core.vector() == Some(vector);
    (distinct_senders(items.clone(), endorses) >= quorum).then(|| {
        (
            vector.clone(),
            items.filter(|i| endorses(i)).cloned().collect(),
        )
    })
}

/// Hurfin–Raynal's votes of one round, as certificates.
#[derive(Debug, Default)]
pub struct HrCerts {
    current_cert: Certificate,
    next_cert: Certificate,
    /// The coordinator's signed CURRENT, once seen (it certifies relays,
    /// Fig. 3 line 19).
    coord_core: Option<SignedCore>,
}

impl Record for HrCerts {
    type Model = ArbitraryModel;

    /// The own NEXT joins `next_cert` as it is sent — the paper's
    /// `state = q2` over certificates; its self-delivered copy is the same
    /// signed core and deduplicates.
    fn sent(&mut self, own: &SignedCore) {
        if own.kind() == MessageKind::Next {
            self.next_cert.insert(own.clone());
        }
    }
}

impl Ledger for HrCerts {
    /// The coordinator's CURRENT a relay adopted its vector from, which
    /// it may have seen only inside another relay's certificate; else the
    /// round's CURRENT or NEXT votes, whichever row cast them.
    fn cite(&self, edge: &Justification, kind: MessageKind, cert: &mut Certificate) {
        match kind {
            MessageKind::Current if edge.adopted => cert.extend(self.coord_core.clone()),
            MessageKind::Current => cert.extend(self.current_cert.iter().cloned()),
            MessageKind::Next => cert.extend(self.next_cert.iter().cloned()),
            _ => {}
        }
    }
}

impl hr::Votes for HrCerts {
    fn current(&mut self, from: ProcessId, vote: &Certified<'_>, coord: ProcessId) -> bool {
        let first = self.current_cert.is_empty();
        self.current_cert.insert(vote.signed.clone());
        if first {
            self.coord_core = if from == coord {
                Some(vote.signed.clone())
            } else {
                let backing = |v| vote.cert.find_current(coord, vote.round(), v).cloned();
                vote.core().vector().and_then(backing)
            };
            debug_assert!(self.coord_core.is_some(), "analyzer guarantees backing");
        }
        first
    }

    fn next(&mut self, _: ProcessId, vote: &Certified<'_>) {
        self.next_cert.insert(vote.signed.clone());
    }

    fn counts(&self, round: Round) -> (usize, usize, usize) {
        let currents = self
            .current_cert
            .count_senders(&[MessageKind::Current], round);
        let nexts = self.next_cert.count_senders(&[MessageKind::Next], round);
        // REC_FROM: who sent either vote, over both certificates.
        let vote = |i: &SignedCore| {
            i.round() == round && matches!(i.kind(), MessageKind::Current | MessageKind::Next)
        };
        let both = self.current_cert.iter().chain(self.next_cert.iter());
        let rec_from = distinct_senders(both, vote);
        (currents, nexts, rec_from)
    }

    /// Only CURRENTs endorsing the adopted vector, the first one's, count:
    /// a faulty coordinator can sign two. (The record holds the round's
    /// CURRENTs only.)
    fn decision(&self, quorum: usize) -> Option<(ValueVector, Certificate)> {
        let adopted = self.current_cert.iter().next()?.core().core.vector()?;
        endorsing(self.current_cert.iter(), adopted, quorum)
    }

    /// "r is certified by next_cert before it is reset."
    fn end(&mut self) -> Certificate {
        std::mem::take(&mut self.next_cert)
    }
}

/// Chandra–Toueg's votes of one round as certificates, plus the one item
/// carried across rounds.
#[derive(Debug, Default)]
pub struct CtCerts {
    /// The coordinator's signed PROPOSE from the round the estimate was
    /// adopted in, which makes a later ESTIMATE's timestamp auditable.
    ts_backing: Option<SignedCore>,
    /// The round's ESTIMATE envelopes, one per sender.
    estimates: Vec<Certified<'static>>,
    /// The round's signed ACK/NACK items: a quorum of distinct voters ends
    /// the round and certifies entry into the next.
    vote_cert: Certificate,
    /// The round coordinator's signed PROPOSE, once seen.
    proposed: Option<SignedCore>,
}

impl Record for CtCerts {
    type Model = ArbitraryModel;

    /// The own PROPOSE is the round's proposal; the own ACK adopts it as
    /// the timestamp backing; the own ACK or NACK joins `vote_cert`.
    fn sent(&mut self, own: &SignedCore) {
        match own.kind() {
            MessageKind::Propose => self.proposed = Some(own.clone()),
            kind @ (MessageKind::Ack | MessageKind::Nack) => {
                if kind == MessageKind::Ack {
                    self.ts_backing.clone_from(&self.proposed);
                }
                self.vote_cert.insert(own.clone());
            }
            _ => {}
        }
    }
}

impl Ledger for CtCerts {
    /// The round's ESTIMATEs; the coordinator's PROPOSE a vector was
    /// adopted from — the PROPOSE of the round the estimate was adopted in
    /// for an earlier round's, this round's otherwise.
    fn cite(&self, edge: &Justification, kind: MessageKind, cert: &mut Certificate) {
        match kind {
            MessageKind::Estimate => cert.extend(self.estimates.iter().map(|e| e.signed.clone())),
            MessageKind::Propose if edge.phase == EvidencePhase::PrevRound => {
                cert.extend(self.ts_backing.clone());
            }
            MessageKind::Propose => cert.extend(self.proposed.clone()),
            _ => {}
        }
    }
}

/// The adoption timestamp an ESTIMATE claims.
fn ts_of(estimate: &Certified<'_>) -> Round {
    match estimate.core() {
        Core::Estimate { ts, .. } => *ts,
        _ => 0,
    }
}

impl ct::Votes for CtCerts {
    fn open(&mut self) {
        self.estimates.clear();
        self.proposed = None;
    }

    /// Duplicates are dropped: the stack already convicts their sender.
    fn estimate(&mut self, from: ProcessId, vote: Certified<'_>) -> usize {
        if self.estimates.iter().all(|e| e.sender() != from) {
            self.estimates.push(vote.into_owned());
        }
        self.estimates.len()
    }

    /// The first maximum-timestamp estimate.
    fn freshest(&self) -> Option<&Certified<'static>> {
        let max_ts = self.estimates.iter().map(ts_of).max()?;
        self.estimates.iter().find(|e| ts_of(e) == max_ts)
    }

    fn vote(&mut self, _: ProcessId, vote: &Certified<'_>) {
        if vote.kind() != MessageKind::Propose {
            self.vote_cert.insert(vote.signed.clone());
        } else if self.proposed.is_none() {
            self.proposed = Some(vote.signed.clone());
        }
    }

    fn decision(&self, round: Round, quorum: usize) -> Option<(ValueVector, Certificate)> {
        let acks = || self.vote_cert.iter_kind_round(MessageKind::Ack, round);
        if acks().count() < quorum {
            return None; // fewer ACK items than a quorum of senders needs
        }
        acks().find_map(|ack| {
            let vector = ack.core().core.vector()?;
            endorsing(acks(), vector, quorum)
        })
    }

    fn end(&mut self, round: Round, quorum: usize) -> Option<Certificate> {
        let votes = [MessageKind::Ack, MessageKind::Nack];
        let over = self.vote_cert.count_senders(&votes, round) >= quorum;
        over.then(|| std::mem::take(&mut self.vote_cert))
    }
}

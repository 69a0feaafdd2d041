//! The crash model's vote records: counts and sender sets (Fig. 2's
//! `nb_current`, `nb_next`, `rec_from`; Chandra–Toueg's estimates, ACK and
//! NACK sets). A crash-model process trusts every message, so a record
//! counts what it is told.

use std::collections::BTreeSet;

use ftm_certify::Round;
use ftm_sim::ProcessId;

use super::message::CrashMsg;
use super::shell::CrashModel;
use crate::rounds::{ct, hr, Record};

/// Hurfin–Raynal's votes of one round; its own NEXT counts when it
/// self-delivers.
#[derive(Debug, Default)]
pub struct HrCounts {
    nb_current: usize,
    nb_next: usize,
    rec_from: BTreeSet<ProcessId>,
}

impl Record for HrCounts {
    type Model = CrashModel;
}

impl hr::Votes for HrCounts {
    fn current(&mut self, from: ProcessId, _: &CrashMsg, _: ProcessId) -> bool {
        self.nb_current += 1;
        self.rec_from.insert(from);
        self.nb_current == 1
    }

    fn next(&mut self, from: ProcessId, _: &CrashMsg) {
        self.nb_next += 1;
        self.rec_from.insert(from);
    }

    fn counts(&self, _: Round) -> (usize, usize, usize) {
        (self.nb_current, self.nb_next, self.rec_from.len())
    }

    /// Every CURRENT counts: a crash-faulty coordinator proposes one value.
    fn decision(&self, majority: usize) -> Option<()> {
        (self.nb_current >= majority).then_some(())
    }

    fn end(&mut self) {}
}

/// Chandra–Toueg's votes of one round. ESTIMATE, ACK and NACK go to the
/// coordinator only, so only the coordinator collects, from its proposal
/// on; a non-coordinator's round ends with its own vote.
#[derive(Debug, Default)]
pub struct CtCounts {
    estimates: Vec<(ProcessId, CrashMsg)>,
    /// This process proposed: it is the round's coordinator.
    proposed: bool,
    acks: BTreeSet<ProcessId>,
    nacks: BTreeSet<ProcessId>,
    /// This process voted without proposing: nothing more reaches it.
    cast: bool,
}

impl Record for CtCounts {
    type Model = CrashModel;

    fn sent(&mut self, own: &CrashMsg) {
        match *own {
            CrashMsg::Propose { .. } => self.proposed = true,
            CrashMsg::Ack { .. } | CrashMsg::Nack { .. } => self.cast = !self.proposed,
            _ => {}
        }
    }
}

impl ct::Votes for CtCounts {
    fn open(&mut self) {
        *self = CtCounts::default();
    }

    fn estimate(&mut self, from: ProcessId, vote: CrashMsg) -> usize {
        self.estimates.push((from, vote));
        self.estimates.len()
    }

    /// The last maximum-timestamp estimate.
    fn freshest(&self) -> Option<&CrashMsg> {
        let ts = |msg: &&CrashMsg| match **msg {
            CrashMsg::Estimate { ts, .. } => ts,
            _ => 0,
        };
        self.estimates.iter().map(|(_, msg)| msg).max_by_key(ts)
    }

    /// Counts once the proposal is out (a vote overtaking it is lost); the
    /// coordinator's own PROPOSE, self-delivered, is its ACK.
    fn vote(&mut self, from: ProcessId, vote: &CrashMsg) {
        if self.proposed {
            match vote {
                CrashMsg::Nack { .. } => self.nacks.insert(from),
                _ => self.acks.insert(from),
            };
        }
    }

    fn decision(&self, _: Round, majority: usize) -> Option<()> {
        (self.acks.len() >= majority).then_some(())
    }

    fn end(&mut self, _: Round, majority: usize) -> Option<()> {
        (self.cast || self.acks.len() + self.nacks.len() >= majority).then_some(())
    }
}

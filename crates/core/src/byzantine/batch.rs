//! Command batching: many client submissions per log slot.
//!
//! A slot's vector holds **one value per replica**, so an unbatched server
//! commits at most one client command per slot it proposes in. Batching
//! packs up to `batch` queued commands into that single value: a batch of
//! one rides as the raw command (wire-identical to the unbatched server),
//! a larger batch rides as a 64-bit digest of the command list
//! ([`encode_batch`]). The consensus layer is untouched — it agrees on
//! opaque `u64`s either way — and the replicated log keeps the ledger
//! mapping its proposed slots back to the commands they carried.
//!
//! Commit accounting is conservative: a batch counts as committed only
//! when the sealed slot's vector contains this replica's entry and that
//! entry equals the value the ledger recorded for the slot. A missing or
//! mismatched entry requeues the whole batch at the **front** of the
//! queue, so commands are delayed, never dropped, and their relative
//! order is preserved. The conservation law
//!
//! ```text
//! submitted == queued + inflight + committed
//! ```
//!
//! holds at every step and is what the batching equivalence tests (and
//! `ftm-load`'s cross-checks) lean on.
//!
//! This module is deliberately socket- and clock-free: it is driven by
//! the log's `on_input` and slot seals, and unit-tested without a cluster.

use std::collections::{BTreeMap, VecDeque};

use ftm_crypto::sha256::Sha256;
use ftm_crypto::wire::Encoder;

/// The value proposed for `slot` when `commands` client commands ride it.
///
/// * empty — the log proposes its command closure's value instead (this
///   function is not called);
/// * one command — the raw command value, byte-identical on the wire to
///   an unbatched proposal of the same command;
/// * more — the first 8 bytes (big-endian) of SHA-256 over the canonical
///   encoding of `(slot, commands)`, a collision-resistant commitment the
///   proposer can recompute when the slot seals.
pub fn encode_batch(slot: u64, commands: &[u64]) -> Option<u64> {
    match commands {
        [] => None,
        [one] => Some(*one),
        many => {
            let mut enc = Encoder::new();
            enc.bytes(b"ftm-batch");
            enc.u64(slot);
            enc.u32(u32::try_from(many.len()).unwrap_or(u32::MAX));
            for c in many {
                enc.u64(*c);
            }
            let digest = Sha256::digest(&enc.into_bytes());
            let mut word = [0u8; 8];
            word.copy_from_slice(&digest.as_bytes()[..8]);
            Some(u64::from_be_bytes(word))
        }
    }
}

/// A replica's batching ledger: queued commands, in-flight batches keyed
/// by slot, and the committed multiset.
#[derive(Debug)]
pub struct BatchState {
    batch: u64,
    queue: VecDeque<u64>,
    /// Commands proposed for a slot whose fate is not yet known.
    proposed: BTreeMap<u64, Vec<u64>>,
    committed: Vec<u64>,
    submitted: u64,
}

impl BatchState {
    /// A ledger proposing at most `batch` commands per slot (a `batch` of
    /// zero is treated as one).
    pub fn new(batch: u64) -> Self {
        BatchState {
            batch: batch.max(1),
            queue: VecDeque::new(),
            proposed: BTreeMap::new(),
            committed: Vec::new(),
            submitted: 0,
        }
    }

    /// Accepts one client command; returns the queue depth after the push.
    pub fn submit(&mut self, value: u64) -> u64 {
        self.queue.push_back(value);
        self.submitted += 1;
        self.queue.len() as u64
    }

    /// Drains up to `batch` commands for the opening `slot` and returns
    /// the value to propose, or `None` when the queue is empty (the log
    /// proposes its closure's value; the ledger records nothing).
    pub fn propose(&mut self, slot: u64) -> Option<u64> {
        let take = (self.batch).min(self.queue.len() as u64) as usize;
        if take == 0 {
            return None;
        }
        let commands: Vec<u64> = self.queue.drain(..take).collect();
        let value = encode_batch(slot, &commands);
        self.proposed.insert(slot, commands);
        value
    }

    /// Settles `slot` after it sealed: `my_entry` is this replica's entry
    /// in the decided vector (if present). The recorded batch commits when
    /// the entry matches its encoding, and requeues at the front
    /// otherwise, preserving submission order.
    pub fn on_sealed(&mut self, slot: u64, my_entry: Option<u64>) {
        let Some(commands) = self.proposed.remove(&slot) else {
            return;
        };
        if my_entry.is_some() && my_entry == encode_batch(slot, &commands) {
            self.committed.extend(commands);
        } else {
            for c in commands.into_iter().rev() {
                self.queue.push_front(c);
            }
        }
    }

    /// Commands submitted over the ledger's lifetime.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Commands waiting to be proposed.
    pub fn queued(&self) -> u64 {
        self.queue.len() as u64
    }

    /// Commands riding slots whose fate is unknown.
    pub fn inflight(&self) -> u64 {
        self.proposed.values().map(|c| c.len() as u64).sum()
    }

    /// Commands whose slot sealed with this replica's entry intact.
    pub fn committed(&self) -> u64 {
        self.committed.len() as u64
    }

    /// SHA-256 over the sorted committed multiset: equal digests mean the
    /// same commands committed, independent of batch size or the slots
    /// they rode in. This is the batching-equivalence observable.
    pub fn committed_digest(&self) -> Vec<u8> {
        let mut sorted = self.committed.clone();
        sorted.sort_unstable();
        let mut enc = Encoder::new();
        enc.bytes(b"ftm-committed");
        enc.u32(u32::try_from(sorted.len()).unwrap_or(u32::MAX));
        for c in &sorted {
            enc.u64(*c);
        }
        Sha256::digest(&enc.into_bytes()).as_bytes().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conserved(s: &BatchState) -> bool {
        s.submitted() == s.queued() + s.inflight() + s.committed()
    }

    #[test]
    fn single_command_batches_ride_as_the_raw_value() {
        assert_eq!(encode_batch(3, &[]), None);
        assert_eq!(encode_batch(3, &[42]), Some(42));
        // Multi-command batches commit to slot and content.
        let a = encode_batch(3, &[1, 2]);
        assert_ne!(a, encode_batch(4, &[1, 2]));
        assert_ne!(a, encode_batch(3, &[2, 1]));
        assert_eq!(a, encode_batch(3, &[1, 2]));
    }

    #[test]
    fn commit_path_conserves_commands() {
        let mut s = BatchState::new(4);
        for v in 0..10 {
            s.submit(100 + v);
        }
        assert!(conserved(&s));
        let v0 = s.propose(0).expect("4 queued");
        assert_eq!(s.inflight(), 4);
        assert!(conserved(&s));
        s.on_sealed(0, Some(v0));
        assert_eq!(s.committed(), 4);
        assert!(conserved(&s));
        // Remaining 6 drain in two more slots.
        let v1 = s.propose(1).expect("4 more");
        let v2 = s.propose(2).expect("last 2");
        s.on_sealed(1, Some(v1));
        s.on_sealed(2, Some(v2));
        assert_eq!(s.committed(), 10);
        assert_eq!(s.propose(3), None, "queue is dry");
        assert!(conserved(&s));
    }

    #[test]
    fn missing_or_mismatched_entries_requeue_in_order() {
        let mut s = BatchState::new(2);
        for v in [7, 8, 9] {
            s.submit(v);
        }
        let _ = s.propose(0).expect("proposed 7,8");
        // Entry missing from the decided vector: the batch returns to the
        // front of the queue, ahead of the not-yet-proposed 9.
        s.on_sealed(0, None);
        assert_eq!(s.committed(), 0);
        assert!(conserved(&s));
        let v1 = s.propose(1).expect("retry 7,8");
        assert_eq!(v1, encode_batch(1, &[7, 8]).unwrap());
        // A mismatched entry (another value won the slot) also requeues.
        s.on_sealed(1, Some(v1 ^ 1));
        assert!(conserved(&s));
        let v2 = s.propose(2).expect("retry again");
        s.on_sealed(2, Some(v2));
        let v3 = s.propose(3).expect("9 now");
        assert_eq!(v3, 9);
        s.on_sealed(3, Some(v3));
        assert_eq!(s.committed(), 3);
        assert!(conserved(&s));
    }

    #[test]
    fn committed_digest_is_batch_size_independent() {
        let run = |batch: u64| {
            let mut s = BatchState::new(batch);
            for v in 0..12 {
                s.submit(500 + v);
            }
            let mut slot = 0;
            while s.queued() > 0 {
                if let Some(v) = s.propose(slot) {
                    s.on_sealed(slot, Some(v));
                }
                slot += 1;
            }
            s.committed_digest()
        };
        assert_eq!(run(1), run(16));
        assert_eq!(run(3), run(100));
    }
}

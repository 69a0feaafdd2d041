//! Eager-relay reliable broadcast (crash model).
//!
//! The simplest member of the family, and precisely what Fig. 2/3 line 2
//! does with DECIDE messages: *on first receipt of `m`, send `m` to
//! everyone, then deliver `m`*. If any correct process delivers, every
//! correct process eventually delivers — a crashed relayer cannot
//! un-send the copies already handed to reliable channels.

use std::collections::BTreeSet;

use ftm_sim::{Actor, Context, Payload, ProcessId};

/// The broadcast payload: `(origin, tag)` identifies one broadcast
/// instance; `body` is the content.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EagerMsg {
    /// The process that originated the broadcast.
    pub origin: ProcessId,
    /// Origin-local sequence tag distinguishing its broadcasts.
    pub tag: u64,
    /// The content.
    pub body: u64,
}

impl Payload for EagerMsg {
    fn size_bytes(&self) -> usize {
        4 + 8 + 8
    }

    fn label(&self) -> String {
        format!("RB({},#{},{})", self.origin, self.tag, self.body)
    }
}

/// The protocol-agnostic component: tracks which `(origin, tag)` instances
/// were already relayed/delivered.
///
/// # Example
///
/// ```
/// use ftm_rbcast::eager::{EagerMsg, EagerState};
/// use ftm_sim::ProcessId;
///
/// let mut st = EagerState::new();
/// let m = EagerMsg { origin: ProcessId(0), tag: 1, body: 42 };
/// // First receipt: relay and deliver.
/// assert_eq!(st.on_receive(&m), Some(42));
/// // Duplicate: ignore.
/// assert_eq!(st.on_receive(&m), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EagerState {
    seen: BTreeSet<(ProcessId, u64)>,
}

impl EagerState {
    /// Fresh state: nothing seen.
    pub fn new() -> Self {
        EagerState::default()
    }

    /// Processes one receipt. Returns `Some(body)` when the message is new
    /// (the caller must relay it to everyone and then deliver), `None` on
    /// a duplicate.
    pub fn on_receive(&mut self, m: &EagerMsg) -> Option<u64> {
        if self.seen.insert((m.origin, m.tag)) {
            Some(m.body)
        } else {
            None
        }
    }

    /// Number of distinct instances seen.
    pub fn seen_count(&self) -> usize {
        self.seen.len()
    }
}

/// A self-contained simulator actor: process 0 broadcasts `body` once;
/// everyone delivers via eager relay and decides the delivered value.
#[derive(Debug)]
pub struct EagerActor {
    state: EagerState,
    /// `Some(body)` on the designated broadcaster.
    pub broadcast: Option<u64>,
}

impl EagerActor {
    /// Creates a relay-only participant.
    pub fn relay() -> Self {
        EagerActor {
            state: EagerState::new(),
            broadcast: None,
        }
    }

    /// Creates the broadcaster of `body`.
    pub fn broadcaster(body: u64) -> Self {
        EagerActor {
            state: EagerState::new(),
            broadcast: Some(body),
        }
    }
}

impl Actor for EagerActor {
    type Msg = EagerMsg;
    type Decision = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, EagerMsg, u64>) {
        if let Some(body) = self.broadcast {
            ctx.broadcast(EagerMsg {
                origin: ctx.me(),
                tag: 0,
                body,
            });
        }
    }

    fn on_message(
        &mut self,
        _from: ProcessId,
        msg: &EagerMsg,
        ctx: &mut Context<'_, EagerMsg, u64>,
    ) {
        if let Some(body) = self.state.on_receive(msg) {
            ctx.broadcast(msg.clone()); // relay before delivering
            ctx.decide(body);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftm_sim::{SimConfig, Simulation, VirtualTime};

    fn run(n: usize, seed: u64, crashes: &[(usize, u64)]) -> ftm_sim::RunReport<u64> {
        let mut cfg = SimConfig::new(n).seed(seed);
        for &(p, t) in crashes {
            cfg = cfg.crash(p, VirtualTime::at(t));
        }
        Simulation::build(cfg, |id| {
            if id.0 == 0 {
                EagerActor::broadcaster(77)
            } else {
                EagerActor::relay()
            }
        })
        .run()
    }

    #[test]
    fn everyone_delivers_the_broadcast() {
        let report = run(5, 1, &[]);
        assert!(report.all_decided());
        assert_eq!(report.unanimous(), Some(77));
    }

    #[test]
    fn broadcaster_crash_after_send_still_delivers_everywhere() {
        // The broadcaster's sends are in flight when it crashes; relays
        // finish the job (Totality).
        let report = run(5, 2, &[(0, 1)]);
        for p in 1..5 {
            assert_eq!(report.decisions[p], Some(77), "p{p} missed the broadcast");
        }
    }

    #[test]
    fn chained_relayer_crashes_are_survived() {
        let report = run(6, 3, &[(1, 4), (2, 8)]);
        for p in 3..6 {
            assert_eq!(report.decisions[p], Some(77));
        }
    }

    #[test]
    fn duplicates_are_delivered_once() {
        let mut st = EagerState::new();
        let m = EagerMsg {
            origin: ProcessId(3),
            tag: 9,
            body: 5,
        };
        assert_eq!(st.on_receive(&m), Some(5));
        for _ in 0..10 {
            assert_eq!(st.on_receive(&m), None);
        }
        assert_eq!(st.seen_count(), 1);
    }

    #[test]
    fn distinct_instances_are_independent() {
        let mut st = EagerState::new();
        let a = EagerMsg {
            origin: ProcessId(0),
            tag: 0,
            body: 1,
        };
        let b = EagerMsg {
            origin: ProcessId(0),
            tag: 1,
            body: 2,
        };
        let c = EagerMsg {
            origin: ProcessId(1),
            tag: 0,
            body: 3,
        };
        assert!(st.on_receive(&a).is_some());
        assert!(st.on_receive(&b).is_some());
        assert!(st.on_receive(&c).is_some());
        assert_eq!(st.seen_count(), 3);
    }
}

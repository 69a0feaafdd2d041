//! Byzantine strategies against the *crash-model* protocol.
//!
//! The crash protocol trusts every byte it receives — that is its model.
//! These wrappers demonstrate experiment E2: the moment a process behaves
//! arbitrarily instead of merely crashing, the crash protocol's properties
//! collapse. The attacks mirror [`crate::attacks`] but need no signing,
//! because there is nothing to sign.

use std::fmt;

use ftm_certify::Value;
use ftm_core::crash::CrashMsg;
use ftm_sim::{Actor, Context, Duration, ProcessId, StagedSend, VirtualTime};

use crate::behavior::{Deviation, Faulty};

/// What a crash-protocol saboteur does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashAttack {
    /// Rewrite the estimate of every outgoing CURRENT/DECIDE to `poison`
    /// (corrupted variable). Undetectable without certificates.
    CorruptEstimate {
        /// The poison value.
        poison: Value,
    },
    /// Broadcast a forged `DECIDE(poison)` at `at` (spurious statement).
    ForgeDecide {
        /// When to fire.
        at: VirtualTime,
        /// The fabricated decision.
        poison: Value,
    },
}

/// A [`CrashAttack`] in progress (the forged DECIDE fires once).
#[derive(Debug)]
pub struct Sabotage {
    attack: CrashAttack,
    fired: bool,
}

impl Deviation<CrashMsg> for Sabotage {
    fn first_inject(&self) -> Duration {
        Duration::of(1)
    }

    fn rewrite(
        &mut self,
        _: ProcessId,
        _: usize,
        _: VirtualTime,
        staged: &mut Vec<StagedSend<CrashMsg>>,
    ) {
        if let CrashAttack::CorruptEstimate { poison } = self.attack {
            for send in staged {
                if let CrashMsg::Current { est, .. } | CrashMsg::Decide { est } = send.msg_mut() {
                    *est = poison;
                }
            }
        }
    }

    fn inject<D>(&mut self, ctx: &mut Context<'_, CrashMsg, D>) -> Option<Duration>
    where
        D: Clone + fmt::Debug + PartialEq,
    {
        let CrashAttack::ForgeDecide { at, poison } = self.attack else {
            return None;
        };
        if self.fired {
            None
        } else if ctx.now() >= at {
            self.fired = true;
            ctx.broadcast(CrashMsg::Decide { est: poison });
            None
        } else {
            Some(Duration::of(5))
        }
    }
}

/// The honest crash protocol wrapped by a [`CrashAttack`].
pub type CrashSaboteur<A> = Faulty<A, Sabotage>;

impl<A: Actor<Msg = CrashMsg>> CrashSaboteur<A> {
    /// Wraps `inner` with `attack`.
    pub fn new(inner: A, attack: CrashAttack) -> Self {
        Faulty {
            inner,
            deviation: Sabotage {
                attack,
                fired: false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::INJECT_TIMER;
    use ftm_core::crash::CrashConsensus;
    use ftm_core::spec::Resilience;
    use ftm_core::validator::check_crash_consensus;
    use ftm_fd::TimeoutDetector;
    use ftm_sim::process::Effects;
    use ftm_sim::runner::BoxedActor;
    use ftm_sim::{SimConfig, Simulation, StagedSend, TimerTag};

    /// Minimal inner actor: broadcasts one CURRENT and one NEXT.
    #[derive(Debug)]
    struct Voter;
    impl Actor for Voter {
        type Msg = CrashMsg;
        type Decision = Value;
        fn on_start(&mut self, ctx: &mut Context<'_, CrashMsg, Value>) {
            ctx.broadcast(CrashMsg::Current { round: 1, est: 7 });
            ctx.send(ProcessId(1), CrashMsg::Next { round: 1 });
        }
        fn on_message(&mut self, _: ProcessId, _: &CrashMsg, _: &mut Context<'_, CrashMsg, Value>) {
        }
    }

    /// The sends and timers one callback stages at p0 of 3, at time `now`.
    fn staged(
        now: u64,
        call: impl FnOnce(&mut Context<'_, CrashMsg, Value>),
    ) -> (Vec<StagedSend<CrashMsg>>, Vec<(Duration, TimerTag)>) {
        let mut draw = || 0u64;
        let mut fx = Effects::default();
        let mut ctx = Context::new(VirtualTime::at(now), ProcessId(0), 3, &mut draw, &mut fx);
        call(&mut ctx);
        (fx.sends, fx.timers)
    }

    #[test]
    fn corrupt_estimate_rewrites_staged_votes_and_never_injects() {
        let mut saboteur = CrashSaboteur::new(Voter, CrashAttack::CorruptEstimate { poison: 666 });
        let (sends, timers) = staged(0, |ctx| saboteur.on_start(ctx));
        let poisoned = CrashMsg::Current { round: 1, est: 666 };
        assert_eq!(
            sends,
            [
                StagedSend::ToAll(poisoned),
                StagedSend::To(ProcessId(1), CrashMsg::Next { round: 1 }),
            ],
            "the vote's broadcast is poisoned once and stays one; NEXT is untouched"
        );
        assert_eq!(timers, [(Duration::of(1), INJECT_TIMER)]);
        let (sends, timers) = staged(1, |ctx| saboteur.on_timer(INJECT_TIMER, ctx));
        assert!(sends.is_empty() && timers.is_empty());
    }

    #[test]
    fn forge_decide_polls_until_its_time_then_fires_once() {
        let attack = CrashAttack::ForgeDecide {
            at: VirtualTime::at(6),
            poison: 999,
        };
        let mut saboteur = CrashSaboteur::new(Voter, attack);
        let (sends, _) = staged(0, |ctx| saboteur.on_start(ctx));
        assert_eq!(sends.len(), 2, "honest output passes through");
        assert!(sends.contains(&StagedSend::ToAll(CrashMsg::Current { round: 1, est: 7 })));
        let (sends, timers) = staged(1, |ctx| saboteur.on_timer(INJECT_TIMER, ctx));
        assert!(sends.is_empty());
        assert_eq!(timers, [(Duration::of(5), INJECT_TIMER)]);
        let (sends, timers) = staged(6, |ctx| saboteur.on_timer(INJECT_TIMER, ctx));
        assert_eq!(sends, [StagedSend::ToAll(CrashMsg::Decide { est: 999 })]);
        assert!(timers.is_empty(), "one shot: the timer is not re-armed");
        assert!(saboteur.deviation.fired);
    }

    fn honest(n: usize, id: ProcessId) -> CrashConsensus<TimeoutDetector> {
        CrashConsensus::new(
            Resilience::new(n, ftm_core::quorum::max_faults(n)),
            id,
            100 + id.0 as u64,
            TimeoutDetector::new(n, Duration::of(150)),
            Duration::of(25),
            Some(Duration::of(40)),
        )
    }

    #[test]
    fn forged_decide_destroys_agreement_or_validity() {
        // E2 core claim: one Byzantine process forging DECIDE(poison) makes
        // the crash protocol decide a value nobody proposed.
        let n = 4;
        let mut violated = 0;
        for seed in 0..10u64 {
            let report = Simulation::build_boxed(SimConfig::new(n).seed(seed), |id| {
                if id.0 == 3 {
                    Box::new(CrashSaboteur::new(
                        honest(n, id),
                        CrashAttack::ForgeDecide {
                            at: VirtualTime::at(1),
                            poison: 999,
                        },
                    )) as BoxedActor<CrashMsg, Value>
                } else {
                    Box::new(honest(n, id))
                }
            })
            .run();
            let proposals = [100, 101, 102, 103];
            let verdict = check_crash_consensus(&report, &proposals, &[false, false, false, true]);
            if !verdict.ok() {
                violated += 1;
            }
        }
        assert_eq!(
            violated, 10,
            "a forged DECIDE must poison every run of the crash protocol"
        );
    }

    #[test]
    fn corrupt_coordinator_estimate_destroys_validity() {
        // The round-1 coordinator proposes a value nobody holds; the crash
        // protocol happily decides it.
        let n = 4;
        let mut violated = 0;
        for seed in 0..10u64 {
            let report = Simulation::build_boxed(SimConfig::new(n).seed(seed), |id| {
                if id.0 == 0 {
                    Box::new(CrashSaboteur::new(
                        honest(n, id),
                        CrashAttack::CorruptEstimate { poison: 31337 },
                    )) as BoxedActor<CrashMsg, Value>
                } else {
                    Box::new(honest(n, id))
                }
            })
            .run();
            let proposals = [100, 101, 102, 103];
            let verdict = check_crash_consensus(&report, &proposals, &[true, false, false, false]);
            if !verdict.ok() {
                violated += 1;
            }
        }
        assert!(
            violated >= 8,
            "estimate corruption must poison nearly every run; got {violated}/10"
        );
    }
}

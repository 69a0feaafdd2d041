//! `Timed<A>`: a transparent [`Actor`] wrapper that times every callback
//! from outside and can keep a copy of what was delivered.
//!
//! The wrapper stages nothing and touches no effect, so the wrapped
//! actor's behaviour — and, on the simulator, the run's trace — is the
//! same with and without it.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use ftm_runtime::{Actor, Context, ProcessId, TimerTag};

/// What one `Timed` actor recorded.
#[derive(Debug)]
pub struct ActorLog<M> {
    /// `(start, end)` of every `on_start`/`on_message`/`on_timer` call, in
    /// nanoseconds since the time base, in call order.
    pub calls: Vec<(u64, u64)>,
    /// Every delivered `(from, message)`, when capture is on (probes
    /// replay these through single public functions).
    pub delivered: Vec<(ProcessId, M)>,
}

/// Shared handle to an [`ActorLog`]; the benchmark keeps one clone, the
/// actor (possibly on another thread) the other.
pub type SharedLog<M> = Arc<Mutex<ActorLog<M>>>;

/// An empty shared log.
pub fn shared_log<M>() -> SharedLog<M> {
    Arc::new(Mutex::new(ActorLog {
        calls: Vec::new(),
        delivered: Vec::new(),
    }))
}

/// See the module documentation.
pub struct Timed<A: Actor> {
    inner: A,
    base: Instant,
    capture: bool,
    log: SharedLog<A::Msg>,
}

impl<A: Actor> Timed<A> {
    /// Wraps `inner`; times are nanoseconds since `base`.
    pub fn new(inner: A, base: Instant, capture: bool, log: SharedLog<A::Msg>) -> Self {
        Timed {
            inner,
            base,
            capture,
            log,
        }
    }

    fn timed(&mut self, call: impl FnOnce(&mut A)) {
        let start = self.base.elapsed().as_nanos() as u64;
        call(&mut self.inner);
        let end = self.base.elapsed().as_nanos() as u64;
        if let Ok(mut log) = self.log.lock() {
            log.calls.push((start, end));
        }
    }
}

impl<A: Actor> Actor for Timed<A> {
    type Msg = A::Msg;
    type Decision = A::Decision;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg, Self::Decision>) {
        self.timed(|a| a.on_start(ctx));
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: &Self::Msg,
        ctx: &mut Context<'_, Self::Msg, Self::Decision>,
    ) {
        if self.capture {
            if let Ok(mut log) = self.log.lock() {
                log.delivered.push((from, msg.clone()));
            }
        }
        self.timed(|a| a.on_message(from, msg, ctx));
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, Self::Msg, Self::Decision>) {
        self.timed(|a| a.on_timer(tag, ctx));
    }
}

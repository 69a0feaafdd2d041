//! Trace explorer: print the complete annotated event trace of a small
//! transformed-protocol run — every send, delivery, suspicion, round
//! change, conviction and decision, in virtual-time order.
//!
//! Useful for understanding how the module stack behaves step by step.
//!
//! ```text
//! cargo run --example trace_explorer            # honest run
//! cargo run --example trace_explorer corrupt    # with a lying coordinator
//! ```

use ft_modular::certify::ValueVector;
use ft_modular::core::byzantine::ByzantineConsensus;
use ft_modular::core::config::ProtocolConfig;
use ft_modular::faults::{Attack, ByzantineWrapper};
use ft_modular::sim::runner::BoxedActor;
use ft_modular::sim::trace::TraceEvent;
use ft_modular::sim::{Duration, SimConfig, Simulation};

fn main() {
    let corrupt = std::env::args().any(|a| a == "corrupt");
    let n = 4;
    let setup = ProtocolConfig::new(n, 1).seed(1).setup();
    println!(
        "n = {n}, F = 1, quorum = {}{}\n",
        setup.resilience.quorum(),
        if corrupt {
            " — p0 (coordinator) corrupts entry 1 of every vector"
        } else {
            " — all honest"
        }
    );

    let report = Simulation::build_boxed(SimConfig::new(n).seed(1), |id| {
        let honest = ByzantineConsensus::new(&setup, id, 100 + id.0 as u64);
        if corrupt && id.0 == 0 {
            Box::new(ByzantineWrapper::new(
                honest,
                Attack::CorruptVector {
                    entry: 1,
                    poison: 666,
                },
                setup.keys[0].clone(),
                Duration::of(30),
            )) as BoxedActor<_, ValueVector>
        } else {
            Box::new(honest)
        }
    })
    .run();

    for entry in report.trace.entries() {
        let line = match &entry.event {
            TraceEvent::Send {
                src,
                dst,
                label,
                bytes,
            } => {
                format!("{src} ──▶ {dst}  {label}  ({bytes}B)")
            }
            TraceEvent::Deliver { src, dst, label } => {
                format!("{dst} ◀── {src}  {label}")
            }
            TraceEvent::Timer { at_process, tag } => format!("{at_process} timer #{tag}"),
            TraceEvent::Crash { process } => format!("{process} 💥 CRASH"),
            TraceEvent::Decide { process, value } => format!("{process} ✔ DECIDE {value}"),
            TraceEvent::Halt { process } => format!("{process} ∎ halt"),
            TraceEvent::Note { process, text } => format!("{process} ✎ {text}"),
        };
        println!("[t={:>4}] {line}", entry.at);
    }

    println!("\nfinal decisions:");
    for (i, d) in report.decisions.iter().enumerate() {
        println!("  p{i}: {d:?}");
    }
    println!(
        "totals: {} messages, {} bytes, {} events",
        report.metrics.messages_sent, report.metrics.bytes_sent, report.metrics.events_processed
    );
}

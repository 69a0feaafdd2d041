//! Quickstart: run the transformed (Byzantine-resilient) vector consensus
//! on a simulated asynchronous network and print what everyone decided.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use ft_modular::core::byzantine::ByzantineConsensus;
use ft_modular::core::config::ProtocolConfig;
use ft_modular::core::validator::max_round;
use ft_modular::sim::{SimConfig, Simulation};

fn main() {
    let n = 5;
    let f = 1;

    // Shared setup: RSA key pairs for everyone plus the public directory.
    let setup = ProtocolConfig::new(n, f).seed(2026).setup();
    println!(
        "system: n = {n}, F = {f}, quorum = {}",
        setup.resilience.quorum()
    );
    println!(
        "psi bound: decided vector carries >= {} correct entries\n",
        setup.resilience.psi()
    );

    // Everyone proposes 100 + its index; the network delivers with random
    // delays in [1, 10] and stabilizes after GST.
    let report = Simulation::build_boxed(SimConfig::new(n).seed(7), |id| {
        Box::new(ByzantineConsensus::new(&setup, id, 100 + id.0 as u64))
    })
    .run();

    for (i, d) in report.decisions.iter().enumerate() {
        match d {
            Some(vect) => println!("p{i} decided {vect:?}"),
            None => println!("p{i} never decided"),
        }
    }
    println!(
        "\nagreement: {}",
        if report.unanimous().is_some() {
            "yes"
        } else {
            "NO"
        }
    );
    println!("rounds used: {}", max_round(&report.trace, n));
    println!(
        "cost: {} messages, {} bytes, decided at t = {}",
        report.metrics.messages_sent, report.metrics.bytes_sent, report.end_time
    );
}

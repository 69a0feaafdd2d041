//! The transformed protocols' resilience bound, `F ≤ ⌊(n−1)/3⌋`, as the
//! public constructors enforce it: for every n in 4..=13 and both
//! transformed protocols, the largest admitted F builds a process and a
//! certificate checker, and F + 1 is refused with the bound's message.
//! The crash protocols keep `F ≤ ⌊(n−1)/2⌋`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ft_modular::certify::{CertChecker, ProtocolId};
use ft_modular::core::byzantine::{ByzantineChandraToueg, ByzantineConsensus, TransformedProtocol};
use ft_modular::core::config::ProtocolConfig;
use ft_modular::core::spec::Resilience;
use ft_modular::quorum::default_cert_capacity;
use ft_modular::sim::ProcessId;

/// The text a refused construction panics with.
fn panic_text(build: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(build)).expect_err("construction refused");
    payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| format!("{payload:?}"))
}

fn build<P: TransformedProtocol>(n: usize, f: usize) {
    let setup = ProtocolConfig::new(n, f).seed(5).setup();
    let _ = P::build(&setup, ProcessId(0), 100);
}

fn check_bound<P: TransformedProtocol>(protocol: ProtocolId) {
    assert_eq!(P::ID, protocol);
    for n in 4usize..=13 {
        let f = default_cert_capacity(n);
        let refused = format!(
            "F = {} exceeds the resilience bound of the transformed protocols, \
             C = ⌊(n−1)/3⌋ = {f}",
            f + 1
        );
        let dir = ProtocolConfig::new(n, f).seed(5).setup().dir;
        build::<P>(n, f);
        let _ = CertChecker::new_for(protocol, n, f, dir.clone());
        let text = panic_text(|| {
            let _ = CertChecker::new_for(protocol, n, f + 1, dir);
        });
        assert_eq!(text, refused, "{protocol} n = {n}");
        // From n = 5 on, F + 1 is within the crash bound, so a setup exists
        // and the transformed process itself is refused, with the same text.
        if n >= 5 {
            let _ = Resilience::new(n, f + 1);
            assert_eq!(
                panic_text(|| build::<P>(n, f + 1)),
                refused,
                "{protocol} n = {n}"
            );
        }
    }
}

#[test]
fn transformed_protocols_admit_f_up_to_a_third_and_refuse_one_more() {
    check_bound::<ByzantineConsensus>(ProtocolId::HurfinRaynal);
    check_bound::<ByzantineChandraToueg>(ProtocolId::ChandraToueg);
    // The crash protocols' bound is ⌊(n−1)/2⌋: (5, 2) still builds there.
    let crash = Resilience::new(5, 2);
    assert_eq!((crash.n(), crash.f()), (5, 2));
}

//! Every fault behavior, pinned at the trace level: for each
//! `FaultBehavior::all()` row × both transformed protocols × {one-shot
//! consensus, a 2-slot replicated log}, the trace fingerprint (byte counts
//! included), the wire bytes and the decision count of one `run_scenario`
//! cell at n = 4, F = 1, attacker p3, seed 11.
//!
//! How an attack is written down — one strategy type per behavior or one
//! enum — is not behaviour: a change to it must leave this table as it is.
//! A mismatch prints the whole table as it now stands.
//!
//! Some one-shot cells coincide: a Hurfin–Raynal instance with an honest
//! coordinator decides in round 1 before any NEXT vote or the t = 30
//! deadlines, so muteness, round jumping, duplicated votes and the replay
//! leave only the wrapper's inject timer in its trace. The log rows run
//! long enough for each of them to act.

use ft_modular::certify::ProtocolId;
use ft_modular::faults::{run_scenario, FaultBehavior, Scenario, Workload};

const SEED: u64 = 11;

/// `behavior protocol workload fingerprint bytes-total decided`, one line
/// per cell, in `all()` × protocol × workload order.
const PINNED: &str = "\
honest hr one-shot 18127870841283190020 7468 4
honest hr log2 10603389064672307997 18256 4
honest ct one-shot 9348208873185497469 10236 4
honest ct log2 2795587914938663376 24504 4
crash hr one-shot 6147759147398014651 5540 3
crash hr log2 1334789346101834012 13576 3
crash ct one-shot 15456687892462110519 8032 3
crash ct log2 7240110006777403798 19200 3
mute hr one-shot 17744757992701857219 7468 4
mute hr log2 808442426369260720 15996 4
mute ct one-shot 15545860274392822040 10236 4
mute ct log2 11463274497736303554 21936 4
vector-corrupt hr one-shot 15983204546474652015 7532 4
vector-corrupt hr log2 12310489717488446208 18192 4
vector-corrupt ct one-shot 2407973421036851501 10300 4
vector-corrupt ct log2 16986392038100143755 24448 4
round-jump hr one-shot 17744757992701857219 7468 4
round-jump hr log2 16146420928077395010 18256 4
round-jump ct one-shot 2075265005459706472 10236 4
round-jump ct log2 1533768212565510467 24504 4
duplicate-votes hr one-shot 17744757992701857219 7468 4
duplicate-votes hr log2 16146420928077395010 18256 4
duplicate-votes ct one-shot 16098764203396373388 10724 4
duplicate-votes ct log2 9888271168900339382 25544 4
forge-decide hr one-shot 3172149457545976456 7744 4
forge-decide hr log2 7341221777369711234 18548 4
forge-decide ct one-shot 3972939186288005351 10512 4
forge-decide ct log2 11322920515512754395 24784 4
wrong-key hr one-shot 1180351433437480616 7468 4
wrong-key hr log2 6538923245370703291 18008 4
wrong-key ct one-shot 2001201658810018430 10236 4
wrong-key ct log2 949129483889178559 24248 4
steal-identity hr one-shot 1640952050665176896 7468 4
steal-identity hr log2 17166037774380603403 18008 4
steal-identity ct one-shot 9237606078262733218 10236 4
steal-identity ct log2 11408632772588127917 24248 4
equivocate-init hr one-shot 15975287025853093325 7468 4
equivocate-init hr log2 13783084891874919822 18192 4
equivocate-init ct one-shot 2873381428367843334 10236 4
equivocate-init ct log2 12802454748688866933 24184 4
spurious-current hr one-shot 5433444616181353328 7744 4
spurious-current hr log2 12408033296231065674 18548 4
spurious-current ct one-shot 7949179216838112427 10512 4
spurious-current ct log2 3938833350716826849 24812 4
replay hr one-shot 17744757992701857219 7468 4
replay hr log2 5101884548637220925 27968 4
replay ct one-shot 15545860274392822040 10236 4
replay ct log2 16245003172899022789 39608 4
strip-certificates hr one-shot 7444075473626181102 6144 4
strip-certificates hr log2 17633548166022145870 15096 4
strip-certificates ct one-shot 2703497447162849009 8912 4
strip-certificates ct log2 2315654472545464481 21324 4
selective-omission hr one-shot 8310049918973534616 6504 4
selective-omission hr log2 5198989527539738475 15898 4
selective-omission ct one-shot 1322827146346341652 9134 4
selective-omission ct log2 13277307769272002097 21852 4
";

fn table() -> String {
    let mut out = String::new();
    for behavior in FaultBehavior::all() {
        for protocol in ProtocolId::all() {
            for (workload, name) in [
                (Workload::OneShot, "one-shot"),
                (Workload::Log { slots: 2 }, "log2"),
            ] {
                let sc = Scenario::new(4, 1, behavior)
                    .protocol(protocol)
                    .workload(workload);
                assert_eq!(sc.attackers, [(3, behavior)]);
                let rec = run_scenario(0, &sc, SEED);
                out.push_str(&format!(
                    "{} {} {name} {} {} {}\n",
                    behavior.label(),
                    protocol.label(),
                    rec.get("trace-fingerprint"),
                    rec.get("bytes-total"),
                    rec.get("decided"),
                ));
            }
        }
    }
    out
}

#[test]
fn every_behavior_on_both_protocols_and_workloads_is_pinned() {
    let now = table();
    assert!(
        now == PINNED,
        "the attack table moved; it now reads:\n{now}"
    );
}

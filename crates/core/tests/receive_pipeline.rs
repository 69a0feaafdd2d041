//! The receive path of the paper's Fig. 1 as one process sees it, through
//! [`ModuleStack`]'s public surface only: which envelopes clear identity,
//! core signature, syntax, the per-peer automaton, certification and
//! round-entry evidence, whom a rejection convicts, and in which order the
//! checks run when an envelope fails more than one.
//!
//! Each rejection is pinned as `"<culprit> <class>: <reason>"`. Ablations
//! are set through [`ProtocolConfig::checks`]' field, never by naming its
//! type.

use ftm_certify::analyzer::CertChecker;
use ftm_certify::rules::{certification_rules_for, Checked, EvidencePhase};
use ftm_certify::{
    Certificate, Certified, CertifyError, Core, Envelope, MessageCore, MessageKind, ProtocolId,
    SignedCore, ValueVector,
};
use ftm_core::config::{ProtocolConfig, ProtocolSetup};
use ftm_core::transform::ModuleStack;
use ftm_crypto::rsa::KeyPair;
use ftm_sim::process::Effects;
use ftm_sim::{Context, ProcessId, VirtualTime};

const N: usize = 4;
const HR: ProtocolId = ProtocolId::HurfinRaynal;

fn setup_with(signatures: bool) -> ProtocolSetup {
    let mut cfg = ProtocolConfig::new(N, 1).seed(81);
    cfg.checks.signatures = signatures;
    cfg.setup()
}

/// A (4, 1) Hurfin–Raynal stack, all checks on, and its key material.
fn fixture() -> (ModuleStack, Vec<KeyPair>) {
    let setup = setup_with(true);
    (ModuleStack::for_setup(HR, &setup), setup.keys)
}

/// The same stack with the signature module ablated.
fn ablated_fixture() -> (ModuleStack, Vec<KeyPair>) {
    let setup = setup_with(false);
    (ModuleStack::for_setup(HR, &setup), setup.keys)
}

fn signed(keys: &[KeyPair], claimed: u32, core: Core, cert: Certificate, key: usize) -> Envelope {
    Envelope::make(ProcessId(claimed), core, cert, &keys[key])
}

fn init(keys: &[KeyPair], s: u32) -> Envelope {
    let core = Core::Init { value: s as u64 };
    signed(keys, s, core, Certificate::new(), s as usize)
}

fn next(keys: &[KeyPair], s: u32, round: u64, cert: Certificate) -> Envelope {
    signed(keys, s, Core::Next { round }, cert, s as usize)
}

/// `"ok"` or `"<culprit> <class>: <reason>"`.
fn verdict(res: Result<Certified<'_>, CertifyError>) -> String {
    match res {
        Ok(_) => "ok".to_owned(),
        Err(e) => format!("{} {}: {}", e.culprit, e.class.label(), e.reason),
    }
}

fn admit(stack: &mut ModuleStack, from: u32, env: &Envelope) -> String {
    verdict(stack.admit(ProcessId(from), env, VirtualTime::ZERO))
}

fn faulty(stack: &ModuleStack) -> Vec<u32> {
    (0..N as u32)
        .filter(|&p| stack.is_faulty(ProcessId(p)))
        .collect()
}

const STOLEN: &str = "bad-signature: claimed sender differs from channel source";

#[test]
fn honest_inits_are_admitted_and_nobody_is_convicted() {
    let (mut stack, keys) = fixture();
    for s in 0..N as u32 {
        assert_eq!(admit(&mut stack, s, &init(&keys, s)), "ok");
    }
    assert_eq!(faulty(&stack), [] as [u32; 0]);
    assert!(stack.stats_note().to_string().contains(" admitted=4 "));
}

#[test]
fn a_falsified_identity_is_blamed_on_the_channel_source() {
    // p3 sends over its own channel p1's genuine INIT (a replayed
    // statement, p1's signature and all).
    let (mut stack, keys) = fixture();
    assert_eq!(
        admit(&mut stack, 3, &init(&keys, 1)),
        format!("p3 {STOLEN}")
    );
    assert_eq!(faulty(&stack), [3]);
    // p1 is untouched: its own INIT still opens its automaton.
    assert_eq!(admit(&mut stack, 1, &init(&keys, 1)), "ok");
}

#[test]
fn an_out_of_range_claimed_sender_is_wrong_syntax_and_frames_nobody() {
    // With the signature module ablated the claimed id is all the stack
    // has; one outside the system is the culprit it claims to be.
    let (mut stack, keys) = ablated_fixture();
    let ghost = signed(&keys, 9, Core::Init { value: 5 }, Certificate::new(), 2);
    assert_eq!(
        admit(&mut stack, 2, &ghost),
        "p9 wrong-syntax: sender id out of range"
    );
    assert_eq!(faulty(&stack), [] as [u32; 0]);
    // No automaton moved: every peer's INIT is still its first message.
    for s in 0..N as u32 {
        assert_eq!(admit(&mut stack, s, &init(&keys, s)), "ok");
    }
}

#[test]
fn a_forged_core_signature_convicts_its_sender() {
    // p2 signs with p3's key.
    let (mut stack, keys) = fixture();
    let forged = signed(&keys, 2, Core::Init { value: 5 }, Certificate::new(), 3);
    assert_eq!(
        admit(&mut stack, 2, &forged),
        "p2 bad-signature: core signature does not verify for claimed sender"
    );
    assert_eq!(faulty(&stack), [2]);
}

#[test]
fn an_out_of_order_first_message_convicts_through_the_automaton() {
    let (mut stack, keys) = fixture();
    assert_eq!(
        admit(&mut stack, 1, &next(&keys, 1, 1, Certificate::new())),
        "p1 out-of-order: first message is not INIT"
    );
    assert_eq!(faulty(&stack), [1]);
}

/// p0, round 1's coordinator, relays a CURRENT(1) whose vector no INIT
/// backs.
fn unwitnessed_current(keys: &[KeyPair]) -> Envelope {
    let mut vector = ValueVector::empty(N);
    vector.set(0, 1);
    vector.set(1, 2);
    vector.set(2, 3);
    let core = Core::Current { round: 1, vector };
    signed(keys, 0, core, Certificate::new(), 0)
}

#[test]
fn a_bad_certificate_convicts_after_timing_passes() {
    let (mut stack, keys) = fixture();
    assert_eq!(admit(&mut stack, 0, &init(&keys, 0)), "ok");
    let verdict = admit(&mut stack, 0, &unwitnessed_current(&keys));
    assert!(verdict.starts_with("p0 bad-certificate: "), "{verdict}");
    assert_eq!(faulty(&stack), [0]);
}

#[test]
fn an_admitted_next_advances_the_peer_automaton() {
    let (mut stack, keys) = fixture();
    let round_one = next(&keys, 1, 1, Certificate::new());
    assert_eq!(admit(&mut stack, 1, &init(&keys, 1)), "ok");
    assert_eq!(admit(&mut stack, 1, &round_one), "ok");
    // The automaton recorded the NEXT(1): the same vote again is a
    // duplicate in a round it already closed.
    assert_eq!(
        admit(&mut stack, 1, &round_one),
        "p1 out-of-order: duplicate NEXT in one round"
    );
    assert_eq!(faulty(&stack), [1]);
}

/// The edge the rule table leaves to round entry — `next-suspicion`'s
/// `NEXT(r − 1)` quorum, carried but read by no row — is checked by the
/// stack: a sender's first vote of round 2 is admitted with it and
/// convicted without it, while the row admits both.
#[test]
fn the_edge_no_row_reads_is_checked_on_round_entry() {
    let on_entry: Vec<_> = (ProtocolId::all().into_iter())
        .flat_map(certification_rules_for)
        .flat_map(|row| row.edges.iter().map(move |edge| (row, edge)))
        .filter(|(_, edge)| edge.checked == Checked::OnRoundEntry)
        .collect();
    let [(row, edge)] = on_entry[..] else {
        panic!("one edge is left to round entry, not {on_entry:?}");
    };
    assert_eq!(
        (row.id, edge.phase),
        ("next-suspicion", EvidencePhase::PrevRound)
    );
    assert!(edge.cites.iter().all(|cite| cite.kind == MessageKind::Next));
    let setup = setup_with(true);
    let keys = &setup.keys;
    let checker = CertChecker::new_for(HR, N, 1, setup.dir.clone());
    let entry = Certificate::from_items((0..3u32).map(|s| {
        let core = MessageCore::new(ProcessId(s), Core::Next { round: 1 });
        SignedCore::sign(core, &keys[s as usize])
    }));
    let cases = [
        (entry, "ok"),
        (
            Certificate::new(),
            "p3 bad-certificate: first message of a new round carries no round-entry evidence",
        ),
    ];
    for (cert, expected) in cases {
        let mut stack = ModuleStack::for_setup(HR, &setup);
        assert_eq!(admit(&mut stack, 3, &init(keys, 3)), "ok");
        assert_eq!(
            admit(&mut stack, 3, &next(keys, 3, 1, Certificate::new())),
            "ok"
        );
        let vote = next(keys, 3, 2, cert);
        assert_eq!(checker.rule_for(&vote), Ok(*row));
        assert_eq!(admit(&mut stack, 3, &vote), expected);
        assert_eq!(stack.is_faulty(ProcessId(3)), expected != "ok");
    }
}

#[test]
fn a_convicted_peers_stragglers_are_each_rejected_and_noted_once() {
    let (mut stack, keys) = fixture();
    let straggler = next(&keys, 1, 1, Certificate::new());
    let mut draw = || 0u64;
    let mut fx = Effects::default();
    let mut ctx = Context::new(VirtualTime::ZERO, ProcessId(0), N, &mut draw, &mut fx);
    for _ in 0..=10_000 {
        assert!(stack.receive(ProcessId(1), &straggler, &mut ctx).is_none());
    }
    assert_eq!(
        fx.notes,
        ["detected=p1 class=out-of-order reason=first message is not INIT"]
    );
    assert_eq!(faulty(&stack), [1]);
    let note = stack.stats_note().to_string();
    assert!(note.contains(" auto-rejects=10001 "), "{note}");
    assert!(note.contains(" quarantined=10000 "), "{note}");
}

#[test]
fn convictions_are_per_culprit() {
    let (mut stack, keys) = fixture();
    for s in [1u32, 2] {
        let verdict = admit(&mut stack, s, &next(&keys, s, 1, Certificate::new()));
        assert!(
            verdict.starts_with(&format!("p{s} out-of-order: ")),
            "{verdict}"
        );
    }
    assert_eq!(faulty(&stack), [1, 2]);
}

// The check order: an envelope failing two stages reports the earlier.

#[test]
fn identity_is_checked_before_the_automaton() {
    // p3 sends, under p1's name, a NEXT(1) that would be out of order as
    // either peer's first message.
    let (mut stack, keys) = fixture();
    assert_eq!(
        admit(&mut stack, 3, &next(&keys, 1, 1, Certificate::new())),
        format!("p3 {STOLEN}")
    );
    assert_eq!(faulty(&stack), [3]);
}

#[test]
fn the_automaton_is_checked_before_certification() {
    // A CURRENT(1) with a bad certificate as p0's first message: the
    // timing fault is what is reported.
    let (mut stack, keys) = fixture();
    assert_eq!(
        admit(&mut stack, 0, &unwitnessed_current(&keys)),
        "p0 out-of-order: first message is not INIT"
    );
    assert_eq!(faulty(&stack), [0]);
}

#[test]
fn with_signatures_ablated_the_automaton_follows_the_claimed_sender() {
    // p2 sends p1's INIT over its own channel: admitted as p1's, so p1's
    // own INIT is then a duplicate and frames p1, while p2's automaton has
    // not moved.
    let (mut stack, keys) = ablated_fixture();
    assert_eq!(admit(&mut stack, 2, &init(&keys, 1)), "ok");
    assert_eq!(
        admit(&mut stack, 1, &init(&keys, 1)),
        "p1 out-of-order: duplicate INIT"
    );
    assert_eq!(admit(&mut stack, 2, &init(&keys, 2)), "ok");
    assert_eq!(faulty(&stack), [1]);
}

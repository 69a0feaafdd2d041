//! Adversarial fuzzing of the certificate analyzer: starting from a valid
//! envelope, any *semantically meaningful* random mutation must either be
//! rejected or leave the message equal to a valid one. This is the
//! executable form of the paper's reliability requirement on the
//! certification module: no process can tamper with a message or its
//! certificate without being detected.
//!
//! Mutations are drawn from the in-tree seeded PRNG, so each failing case
//! is identified by its iteration number and replays identically.

use ftm_certify::analyzer::CertChecker;
use ftm_certify::{Certificate, Core, Envelope, FaultClass, MessageCore, SignedCore, ValueVector};
use ftm_crypto::keydir::KeyDirectory;
use ftm_crypto::prng::{Rng64, SplitMix64};
use ftm_crypto::rsa::KeyPair;
use ftm_sim::ProcessId;

const N: usize = 4;
const F: usize = 1;

fn fixture() -> (CertChecker, Vec<KeyPair>) {
    let mut rng = ftm_crypto::rng_from_seed(0xFEED);
    let (dir, keys) = KeyDirectory::generate(&mut rng, N, 128);
    (CertChecker::new(N, F, dir), keys)
}

fn signed(keys: &[KeyPair], sender: u32, core: Core) -> SignedCore {
    SignedCore::sign(
        MessageCore::new(ProcessId(sender), core),
        &keys[sender as usize],
    )
}

/// A valid coordinator CURRENT(1, vect) with its INIT witness quorum.
fn valid_current(keys: &[KeyPair]) -> (Envelope, ValueVector) {
    let mut vect = ValueVector::empty(N);
    let mut cert = Certificate::new();
    for s in 0..(N - F) as u32 {
        vect.set(s as usize, 100 + s as u64);
        cert.insert(signed(
            keys,
            s,
            Core::Init {
                value: 100 + s as u64,
            },
        ));
    }
    (
        Envelope::make(
            ProcessId(0),
            Core::Current {
                round: 1,
                vector: vect.clone(),
            },
            cert,
            &keys[0],
        ),
        vect,
    )
}

/// A valid DECIDE(1, vect) backed by a CURRENT quorum.
fn valid_decide(keys: &[KeyPair], vect: &ValueVector) -> Envelope {
    let cert = Certificate::from_items((0..(N - F) as u32).map(|s| {
        signed(
            keys,
            s,
            Core::Current {
                round: 1,
                vector: vect.clone(),
            },
        )
    }));
    Envelope::make(
        ProcessId(0),
        Core::Decide {
            round: 1,
            vector: vect.clone(),
        },
        cert,
        &keys[0],
    )
}

/// Mutating any vector entry of a signed CURRENT — with a re-sign by
/// the sender, as a Byzantine process would — must be rejected unless
/// the mutation is the identity.
#[test]
fn mutated_current_vectors_are_rejected() {
    let (checker, keys) = fixture();
    let (env, vect) = valid_current(&keys);
    assert!(checker.check_envelope(&env).is_ok());

    let mut rng = SplitMix64::from_seed(0xF0221);
    for case in 0..64 {
        let entry = rng.gen_range_u64(0, N as u64 - 1) as usize;
        let value = rng.gen_range_u64(0, 1999);

        let mut mutated = vect.clone();
        mutated.set(entry, value);
        let forged = Envelope::make(
            ProcessId(0),
            Core::Current {
                round: 1,
                vector: mutated.clone(),
            },
            env.cert.clone(),
            &keys[0],
        );
        if mutated == vect {
            assert!(checker.check_envelope(&forged).is_ok(), "case {case}");
        } else {
            assert!(checker.check_envelope(&forged).is_err(), "case {case}");
        }
    }
}

/// Claiming any other sender for a valid envelope must be rejected
/// (even with a re-sign by the claimed sender's *actual* key being
/// unavailable, the attacker can only sign as itself).
#[test]
fn reattributed_messages_are_rejected() {
    let (checker, keys) = fixture();
    let (env, vect) = valid_current(&keys);
    for claimed in 1..N as u32 {
        // The attacker (p3) re-signs the coordinator's message claiming
        // `claimed`'s identity with its own key.
        let forged = Envelope::make(
            ProcessId(claimed),
            Core::Current {
                round: 1,
                vector: vect.clone(),
            },
            env.cert.clone(),
            &keys[3],
        );
        assert!(
            checker.check_envelope(&forged).is_err(),
            "claimed={claimed}"
        );
    }
}

/// Changing the round of a valid CURRENT invalidates its round-entry
/// evidence.
#[test]
fn round_shifted_currents_are_rejected() {
    let (checker, keys) = fixture();
    let (env, vect) = valid_current(&keys);
    let mut rng = SplitMix64::from_seed(0xF0223);
    for case in 0..48 {
        let round = rng.gen_range_u64(2, 49);
        let coord = checker.coordinator(round);
        let forged = Envelope::make(
            coord,
            Core::Current {
                round,
                vector: vect.clone(),
            },
            env.cert.clone(),
            &keys[coord.index()],
        );
        assert!(checker.check_envelope(&forged).is_err(), "case {case}");
    }
}

/// Dropping any single item from a DECIDE's quorum certificate drops
/// it below n − F and must be rejected.
#[test]
fn thinned_decide_quorums_are_rejected() {
    let (checker, keys) = fixture();
    let (_, vect) = valid_current(&keys);
    let env = valid_decide(&keys, &vect);
    assert!(checker.check_envelope(&env).is_ok());

    for drop_idx in 0..(N - F) {
        let thinned: Certificate = env
            .cert
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != drop_idx)
            .map(|(_, item)| item.clone())
            .collect();
        let forged = Envelope::make(ProcessId(0), env.core().clone(), thinned, &keys[0]);
        assert!(
            checker.check_envelope(&forged).is_err(),
            "drop_idx={drop_idx}"
        );
    }
}

/// A DECIDE whose vector differs from the quorum's vector in any entry
/// must be rejected.
#[test]
fn decide_vector_must_match_quorum() {
    let (checker, keys) = fixture();
    let (_, vect) = valid_current(&keys);
    let env = valid_decide(&keys, &vect);
    let mut rng = SplitMix64::from_seed(0xF0225);
    for case in 0..64 {
        let entry = rng.gen_range_u64(0, N as u64 - 1) as usize;
        let value = rng.gen_range_u64(0, 1999);
        let mut mutated = vect.clone();
        mutated.set(entry, value);
        let forged = Envelope::make(
            ProcessId(0),
            Core::Decide {
                round: 1,
                vector: mutated.clone(),
            },
            env.cert.clone(),
            &keys[0],
        );
        if mutated == vect {
            assert!(checker.check_envelope(&forged).is_ok(), "case {case}");
        } else {
            assert!(checker.check_envelope(&forged).is_err(), "case {case}");
        }
    }
}

/// Swapping a certificate item's signature for another item's (mix and
/// match of genuine parts) must be rejected.
#[test]
fn franken_certificates_are_rejected() {
    let (checker, keys) = fixture();
    let (env, vect) = valid_current(&keys);
    for a in 0..(N - F) {
        for b in 0..(N - F) {
            if a == b {
                continue;
            }
            let items: Vec<&SignedCore> = env.cert.iter().collect();
            // Rebuild item `a`'s core with item `b`'s signature bytes: both
            // are genuine, but the pair is not.
            let franken = SignedCore::from_parts(
                items[a].core().clone(),
                ftm_crypto::rsa::Signature::from_bytes(&items[b].signature_bytes()),
            );
            let mut cert: Certificate = env
                .cert
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != a)
                .map(|(_, item)| item.clone())
                .collect();
            cert.insert(franken);
            let forged = Envelope::make(
                ProcessId(0),
                Core::Current {
                    round: 1,
                    vector: vect.clone(),
                },
                cert,
                &keys[0],
            );
            assert!(checker.check_envelope(&forged).is_err(), "a={a} b={b}");
        }
    }
}

/// Wire round-trip: any structurally valid envelope survives
/// serialization bit-exactly, signature included.
#[test]
fn envelopes_roundtrip_through_wire_bytes() {
    let (_checker, keys) = fixture();
    let mut rng = SplitMix64::from_seed(0xF0227);
    for case in 0..48 {
        let sender = rng.gen_range_u64(0, N as u64 - 1) as u32;
        let kind = rng.gen_range_u64(0, 3) as u8;
        let round = rng.gen_range_u64(1, 49);
        let entries: Vec<Option<u64>> = (0..rng.gen_range_u64(0, 5))
            .map(|_| {
                if rng.next_u64() & 1 == 0 {
                    None
                } else {
                    Some(rng.next_u64())
                }
            })
            .collect();
        let cert_values: Vec<u64> = (0..rng.gen_range_u64(0, 3))
            .map(|_| rng.next_u64())
            .collect();

        let vector = ValueVector::from_entries(entries);
        let core = match kind {
            0 => Core::Init { value: round },
            1 => Core::Current { round, vector },
            2 => Core::Next { round },
            _ => Core::Decide { round, vector },
        };
        let cert = Certificate::from_items(
            cert_values
                .iter()
                .enumerate()
                .map(|(i, &v)| signed(&keys, (i % N) as u32, Core::Init { value: v })),
        );
        let env = Envelope::make(ProcessId(sender), core, cert, &keys[sender as usize]);
        let back = Envelope::from_bytes(&env.to_bytes()).expect("roundtrip");
        assert_eq!(back, env, "case {case}");
        assert_eq!(back.signed.digest(), env.signed.digest(), "case {case}");
    }
}

/// `sender`'s INIT(value), signed in one pair with a DECIDE of a previous
/// slot — the form a replicated log puts INITs of slots ≥ 1 in.
fn paired_init(keys: &[KeyPair], sender: u32, value: u64) -> SignedCore {
    let decide = MessageCore::new(
        ProcessId(sender),
        Core::Decide {
            round: 1,
            vector: ValueVector::from_entries(vec![Some(7); N]),
        },
    );
    let init = MessageCore::new(ProcessId(sender), Core::Init { value });
    let [_, init] = SignedCore::sign_pair(decide, init, &keys[sender as usize]);
    init
}

/// [`valid_current`] with every INIT witness a pair member.
fn valid_current_over_pairs(keys: &[KeyPair]) -> Envelope {
    let (env, vect) = valid_current(keys);
    let cert = Certificate::from_items(env.cert.iter().map(|item| {
        paired_init(
            keys,
            item.sender().0,
            vect.get(item.sender().index()).unwrap(),
        )
    }));
    Envelope::make(ProcessId(0), env.core().clone(), cert, &keys[0])
}

fn flip(d: ftm_crypto::sha256::Digest, bit: usize) -> ftm_crypto::sha256::Digest {
    let mut d = d;
    d.0[bit / 8] ^= 1 << (bit % 8);
    d
}

/// A member sent as a message: any flipped bit of its sibling is a
/// bad-signature conviction of its sender.
#[test]
fn a_flipped_sibling_bit_in_a_head_convicts_the_sender() {
    let (checker, keys) = fixture();
    let head = paired_init(&keys, 2, 102);
    let env = |signed| Envelope {
        signed,
        cert: Certificate::new(),
    };
    assert!(checker.check_envelope(&env(head.clone())).is_ok());
    let sibling = head.sibling().unwrap();
    for bit in 0..256 {
        let err = checker
            .check_envelope(&env(head.with_sibling(Some(flip(sibling, bit)))))
            .unwrap_err();
        assert_eq!(
            (err.culprit, err.class),
            (ProcessId(2), FaultClass::BadSignature),
            "bit {bit}"
        );
    }
}

/// The same flip inside a relayed certificate: a bad-certificate
/// conviction of the relayer, whose message it is.
#[test]
fn a_flipped_sibling_bit_in_a_certificate_convicts_the_relayer() {
    let (checker, keys) = fixture();
    let env = valid_current_over_pairs(&keys);
    assert!(checker.check_envelope(&env).is_ok());
    let items: Vec<&SignedCore> = env.cert.iter().collect();
    for (i, item) in items.iter().enumerate() {
        for bit in [0, 31, 128, 255] {
            let bad = item.with_sibling(Some(flip(item.sibling().unwrap(), bit)));
            let cert = Certificate::from_items(items.iter().enumerate().map(|(j, it)| {
                if j == i {
                    bad.clone()
                } else {
                    (*it).clone()
                }
            }));
            let relayed = Envelope::make(ProcessId(0), env.core().clone(), cert, &keys[0]);
            let err = checker.check_envelope(&relayed).unwrap_err();
            assert_eq!(
                (err.culprit, err.class),
                (ProcessId(0), FaultClass::BadCertificate),
                "item {i} bit {bit}"
            );
        }
    }
}

/// Bit-flips anywhere in an envelope whose certificate holds pair
/// members: a flipped copy that decodes is either the same bytes again or
/// rejected by the analyzer — never accepted as a different message.
#[test]
fn bitflipped_envelopes_over_pairs_never_forge() {
    let (checker, keys) = fixture();
    let env = valid_current_over_pairs(&keys);
    let bytes = env.to_bytes();
    let mut rng = SplitMix64::from_seed(0xF0229);
    for case in 0..200 {
        let mut flipped = bytes.clone();
        let idx = rng.gen_range_u64(0, bytes.len() as u64 - 1) as usize;
        flipped[idx] ^= 1 << rng.gen_range_u64(0, 7);
        if let Ok(decoded) = Envelope::from_bytes(&flipped) {
            if decoded.to_bytes() != bytes {
                assert!(
                    checker.check_envelope(&decoded).is_err(),
                    "case {case}: byte {idx} forged"
                );
            }
        }
    }
}

/// Bit-flips in wire bytes never produce an envelope that both decodes
/// AND passes the analyzer as someone else's message: either decoding
/// fails, or the signature check pins the blame correctly.
#[test]
fn bitflipped_envelopes_never_forge() {
    let (checker, keys) = fixture();
    let (env, _) = valid_current(&keys);
    let mut rng = SplitMix64::from_seed(0xF0228);
    for case in 0..48 {
        let mut bytes = env.to_bytes();
        let idx = rng.gen_range_u64(0, bytes.len() as u64 - 1) as usize;
        let flip_bit = rng.gen_range_u64(0, 7) as u8;
        bytes[idx] ^= 1 << flip_bit;
        match Envelope::from_bytes(&bytes) {
            Err(_) => {} // structural corruption caught by the codec
            Ok(decoded) => {
                if decoded == env {
                    // The flip landed in a signature's high zero-padding or
                    // similar semantic no-op; acceptance is correct.
                } else {
                    // Semantically different message: the analyzer must
                    // reject it (bad signature or bad certificate).
                    assert!(
                        checker.check_envelope(&decoded).is_err(),
                        "case {case}: flipped bit {flip_bit} of byte {idx} forged"
                    );
                }
            }
        }
    }
}

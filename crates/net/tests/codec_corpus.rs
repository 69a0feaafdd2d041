//! Wire-codec corpus: committed golden bytes plus seeded property tests.
//!
//! The golden constants pin the frame and handshake encodings byte for
//! byte — any change to the wire layout fails here first and forces a
//! [`ftm_net::VERSION`] bump. The property tests drive the codec with a
//! seeded PRNG (reproducible, no wall-clock randomness): encode→decode
//! identity over random inputs, and rejection-without-panic for every
//! truncation and for arbitrary garbage — for frames and handshakes, and
//! for slot messages carrying signed-pair members, whose wire form opens
//! with a four-byte pair head and a raw sibling digest.

use std::io::{self, Cursor};

use ftm_certify::{Certificate, Core, Envelope, MessageCore, SignedCore, ValueVector};
use ftm_core::byzantine::log::SlotMsg;
use ftm_core::config::ProtocolConfig;
use ftm_crypto::prng::{Rng64, Xoshiro256PlusPlus};
use ftm_crypto::wire::{CanonicalDecode, CanonicalEncode};
use ftm_net::{read_frame, write_frame, Hello, DEFAULT_MAX_FRAME};
use ftm_sim::{Payload, ProcessId};

const ROUNDS: usize = 200;

fn hex(bytes: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(out, "{b:02x}");
    }
    out
}

/// Golden frame bytes: 4-byte big-endian length prefix, then the payload.
#[test]
fn golden_frame_bytes() {
    let mut buf = Vec::new();
    write_frame(&mut buf, &[0xDE, 0xAD, 0xBE, 0xEF]).expect("write");
    assert_eq!(hex(&buf), "00000004deadbeef");

    let mut empty = Vec::new();
    write_frame(&mut empty, &[]).expect("write empty");
    assert_eq!(hex(&empty), "00000000");
}

/// Golden handshake bytes: magic `"FTMN"`, version 1, tag, fields.
#[test]
fn golden_hello_bytes() {
    let peer = Hello::Peer {
        id: 3,
        cluster: 0xABCD,
    };
    assert_eq!(
        hex(&peer.canonical_bytes()),
        "46544d4e000000010100000003000000000000abcd"
    );

    let client = Hello::Client { cluster: 0xBEEF };
    assert_eq!(
        hex(&client.canonical_bytes()),
        "46544d4e0000000102000000000000beef"
    );

    // And the goldens decode back, so the constants stay honest.
    assert_eq!(
        Hello::from_canonical_bytes(&peer.canonical_bytes()),
        Ok(peer)
    );
    assert_eq!(
        Hello::from_canonical_bytes(&client.canonical_bytes()),
        Ok(client)
    );
}

/// Seeded frame round-trips: random payload lengths and contents survive
/// write→read unchanged, including back-to-back frames on one stream.
#[test]
fn frames_roundtrip_over_seeded_payloads() {
    let mut rng = Xoshiro256PlusPlus::from_seed(0xC0DEC);
    for _ in 0..ROUNDS {
        let len = (rng.next_u64() % 2048) as usize;
        let payload: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).expect("write");
        write_frame(&mut buf, &payload).expect("write twice");
        let mut cursor = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME).expect("read"),
            payload
        );
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME).expect("read"),
            payload
        );
    }
}

/// Seeded handshake round-trips over random ids and cluster values.
#[test]
fn hellos_roundtrip_over_seeded_values() {
    let mut rng = Xoshiro256PlusPlus::from_seed(0x4E110);
    for _ in 0..ROUNDS {
        let hello = if rng.next_u64().is_multiple_of(2) {
            Hello::Peer {
                id: (rng.next_u64() & 0xFFFF_FFFF) as u32,
                cluster: rng.next_u64(),
            }
        } else {
            Hello::Client {
                cluster: rng.next_u64(),
            }
        };
        let bytes = hello.canonical_bytes();
        assert_eq!(Hello::from_canonical_bytes(&bytes), Ok(hello));
    }
}

/// Every strict prefix of a valid frame is an error (EOF), never a panic
/// and never a bogus success.
#[test]
fn every_frame_truncation_is_rejected() {
    let mut buf = Vec::new();
    write_frame(&mut buf, b"truncate-me").expect("write");
    for cut in 0..buf.len() {
        let err = read_frame(&mut Cursor::new(&buf[..cut]), DEFAULT_MAX_FRAME)
            .expect_err("prefix must not parse");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
    }
}

/// Every strict prefix of a valid handshake is a decode error.
#[test]
fn every_hello_truncation_is_rejected() {
    let bytes = Hello::Peer {
        id: 7,
        cluster: 0x0123_4567_89AB_CDEF,
    }
    .canonical_bytes();
    for cut in 0..bytes.len() {
        assert!(
            Hello::from_canonical_bytes(&bytes[..cut]).is_err(),
            "prefix of length {cut} must not parse"
        );
    }
}

/// Slot messages as a replicated log sends them: p1's DECIDE(0) and
/// INIT(1) signed as one pair, and p0's CURRENT(1) whose INIT witnesses
/// are such pair members.
fn paired_slot_messages() -> Vec<SlotMsg> {
    let setup = ProtocolConfig::new(4, 1).seed(5).setup();
    let vector = ValueVector::from_entries(vec![Some(1100), Some(1101), Some(1102), None]);
    let pair = |p: u32| {
        let decide = MessageCore::new(
            ProcessId(p),
            Core::Decide {
                round: 1,
                vector: ValueVector::from_entries(vec![Some(100), Some(101), None, Some(103)]),
            },
        );
        let init = MessageCore::new(
            ProcessId(p),
            Core::Init {
                value: 1100 + u64::from(p),
            },
        );
        SignedCore::sign_pair(decide, init, &setup.keys[p as usize])
    };
    let [decide, init] = pair(1);
    let witnesses = Certificate::from_items((0..3).map(|p| pair(p)[1].clone()));
    let current = Envelope::make(
        ProcessId(0),
        Core::Current { round: 1, vector },
        witnesses,
        &setup.keys[0],
    );
    let bare = |signed| Envelope {
        signed,
        cert: Certificate::new(),
    };
    vec![
        SlotMsg {
            slot: 0,
            env: bare(decide),
        },
        SlotMsg {
            slot: 1,
            env: bare(init),
        },
        SlotMsg {
            slot: 1,
            env: current,
        },
    ]
}

/// Pair members survive a frame round trip byte for byte, in a head and
/// back to back inside a certificate.
#[test]
fn paired_slot_messages_roundtrip_through_frames() {
    for msg in paired_slot_messages() {
        let bytes = msg.canonical_bytes();
        let mut buf = Vec::new();
        write_frame(&mut buf, &bytes).expect("write");
        let payload = read_frame(&mut Cursor::new(buf), DEFAULT_MAX_FRAME).expect("read");
        let back = SlotMsg::from_canonical_bytes(&payload).expect("decode");
        assert_eq!(back.canonical_bytes(), bytes);
        assert_eq!(back.env.signed.sibling(), msg.env.signed.sibling());
    }
}

/// Every strict prefix of a slot message carrying pair members is a
/// decode error, never a panic.
#[test]
fn every_truncation_of_a_paired_slot_message_is_a_decode_error() {
    for msg in paired_slot_messages() {
        let bytes = msg.canonical_bytes();
        for cut in 0..bytes.len() {
            assert!(
                SlotMsg::from_canonical_bytes(&bytes[..cut]).is_err(),
                "{} cut at {cut}",
                msg.label()
            );
        }
    }
}

/// Seeded garbage spliced after a valid prefix — so it reaches the pair
/// head, the raw sibling and the members behind it — is a decode error,
/// never a panic.
#[test]
fn seeded_garbage_in_paired_slot_messages_is_a_decode_error() {
    let mut rng = Xoshiro256PlusPlus::from_seed(0x9A125);
    let corpus: Vec<Vec<u8>> = paired_slot_messages()
        .iter()
        .map(CanonicalEncode::canonical_bytes)
        .collect();
    for case in 0..ROUNDS {
        let valid = &corpus[case % corpus.len()];
        let cut = (rng.next_u64() % valid.len() as u64) as usize;
        let tail = (rng.next_u64() % 64) as usize;
        let mut junk = valid[..cut].to_vec();
        junk.extend((0..tail).map(|_| (rng.next_u64() & 0xFF) as u8));
        assert!(
            SlotMsg::from_canonical_bytes(&junk).is_err(),
            "case {case}: cut {cut} + {tail} random bytes decoded"
        );
    }
}

/// Seeded garbage never panics the decoder: random byte strings either
/// fail to decode or (for the framing layer) yield a bounded payload.
#[test]
fn seeded_garbage_is_rejected_without_panic() {
    let mut rng = Xoshiro256PlusPlus::from_seed(0x6A2BA6E);
    for _ in 0..ROUNDS {
        let len = (rng.next_u64() % 64) as usize;
        let junk: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();

        // Handshake decoding: garbage must error (the magic makes an
        // accidental parse astronomically unlikely, and the decoder also
        // rejects trailing bytes).
        assert!(Hello::from_canonical_bytes(&junk).is_err());

        // Framing: reading garbage with a small cap either errors or
        // returns a payload no longer than the cap.
        if let Ok(payload) = read_frame(&mut Cursor::new(&junk), 16) {
            assert!(payload.len() <= 16);
        }
    }
}

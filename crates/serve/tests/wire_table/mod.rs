//! One value of every canonically encoded wire type, built from a fixed
//! seed, and the hostile inputs they are pinned against. Shared by the
//! byte pins (`wire_pins.rs`) and the length-hint check (`wire_hints.rs`).

use ftm_certify::{Certificate, Core, Envelope, MessageCore, SignedCore, ValueVector};
use ftm_core::byzantine::log::SlotMsg;
use ftm_crypto::keydir::KeyDirectory;
use ftm_crypto::sha256::Sha256;
use ftm_crypto::wire::{CanonicalDecode, CanonicalEncode};
use ftm_net::Hello;
use ftm_serve::api::{Reply, Request, Status};
use ftm_sim::ProcessId;

/// One pinned value: its canonical bytes, its length hint, whether it
/// decodes back to itself, and what each proper prefix decodes to.
pub struct Pin {
    /// Which value this is.
    pub name: String,
    /// Its canonical encoding.
    pub bytes: Vec<u8>,
    /// What its `encoded_len_hint` says (read by the length-hint check).
    #[allow(dead_code)]
    pub hint: usize,
    /// `from_canonical_bytes(bytes) == value`.
    pub roundtrips: bool,
    /// The decode result of `bytes[..cut]` for every `cut < len`,
    /// run-length encoded (`UnexpectedEnd*13 BadLength(8)*8`).
    pub truncations: String,
}

fn pin<T: CanonicalEncode + CanonicalDecode + PartialEq>(name: &str, value: &T) -> Pin {
    let bytes = value.canonical_bytes();
    let mut runs: Vec<(String, usize)> = Vec::new();
    for cut in 0..bytes.len() {
        let got = match T::from_canonical_bytes(&bytes[..cut]) {
            Ok(_) => "Ok".to_string(),
            Err(e) => format!("{e:?}"),
        };
        match runs.last_mut() {
            Some((last, count)) if *last == got => *count += 1,
            _ => runs.push((got, 1)),
        }
    }
    let truncations = runs
        .iter()
        .map(|(got, count)| format!("{got}*{count}"))
        .collect::<Vec<_>>()
        .join(" ");
    Pin {
        name: name.to_string(),
        hint: value.encoded_len_hint(),
        roundtrips: T::from_canonical_bytes(&bytes).as_ref() == Ok(value),
        bytes,
        truncations,
    }
}

/// Lowercase hex of `bytes`.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The decode result of `bytes` as `T`, rendered for a pin line.
fn verdict<T: CanonicalDecode>(bytes: &[u8], show: impl Fn(&T) -> String) -> String {
    match T::from_canonical_bytes(bytes) {
        Ok(v) => format!("Ok({})", show(&v)),
        Err(e) => format!("Err({e:?})"),
    }
}

fn vector() -> ValueVector {
    ValueVector::from_entries(vec![Some(7), None, Some(u64::MAX), None])
}

/// Four 64-bit signers from seed 52.
fn keys() -> Vec<ftm_crypto::rsa::KeyPair> {
    let mut rng = ftm_crypto::rng_from_seed(52);
    KeyDirectory::generate(&mut rng, 4, 64).1
}

fn cores() -> Vec<(&'static str, Core)> {
    let digest = Sha256::digest(b"slot 3");
    vec![
        ("init", Core::Init { value: 42 }),
        (
            "current",
            Core::Current {
                round: 2,
                vector: vector(),
            },
        ),
        ("next", Core::Next { round: 3 }),
        (
            "decide",
            Core::Decide {
                round: 4,
                vector: vector(),
            },
        ),
        (
            "estimate",
            Core::Estimate {
                round: 5,
                vector: vector(),
                ts: 1,
            },
        ),
        (
            "propose",
            Core::Propose {
                round: 6,
                vector: vector(),
            },
        ),
        (
            "ack",
            Core::Ack {
                round: 7,
                vector: vector(),
            },
        ),
        ("nack", Core::Nack { round: 8 }),
        ("checkpoint", Core::Checkpoint { slot: 3, digest }),
    ]
}

/// An envelope whose head is a lone core and whose certificate holds a
/// lone member and both members of a signed pair.
pub fn envelope() -> Envelope {
    let keys = keys();
    let lone = SignedCore::sign(
        MessageCore::new(ProcessId(0), Core::Init { value: 1 }),
        &keys[0],
    );
    let [decide, init] = SignedCore::sign_pair(
        MessageCore::new(
            ProcessId(1),
            Core::Decide {
                round: 1,
                vector: vector(),
            },
        ),
        MessageCore::new(ProcessId(1), Core::Init { value: 9 }),
        &keys[1],
    );
    let head = SignedCore::sign(
        MessageCore::new(ProcessId(2), Core::Next { round: 1 }),
        &keys[2],
    );
    Envelope {
        signed: head,
        cert: Certificate::from_items([lone, decide, init]),
    }
}

/// An envelope whose head is a pair member, with an empty certificate.
fn pair_headed() -> Envelope {
    let keys = keys();
    let [next, _init] = SignedCore::sign_pair(
        MessageCore::new(ProcessId(3), Core::Next { round: 2 }),
        MessageCore::new(ProcessId(3), Core::Init { value: 5 }),
        &keys[3],
    );
    Envelope {
        signed: next,
        cert: Certificate::new(),
    }
}

/// A status with two convictions.
pub fn status() -> Status {
    Status {
        me: 2,
        now_ms: 1234,
        decided_slots: 17,
        halted: true,
        contradicted: false,
        log_digest: vec![0xAB; 4],
        convicted: vec!["p3 bad-certificate".to_string(), "p1 é".to_string()],
        queued: 5,
        msgs_sent: 100,
        msgs_received: 90,
        bytes_sent: 4000,
        bytes_received: 3800,
        batch: 16,
        submitted: 40,
        committed: 30,
        inflight: 5,
        committed_digest: vec![0xCD; 3],
    }
}

/// Every pinned value, in table order.
pub fn pins() -> Vec<Pin> {
    let mut out = Vec::new();
    for (name, core) in cores() {
        out.push(pin(
            &format!("core/{name}"),
            &MessageCore::new(ProcessId(1), core),
        ));
    }
    out.push(pin("vector", &vector()));
    out.push(pin("vector/empty", &ValueVector::empty(0)));
    out.push(pin("envelope", &envelope()));
    out.push(pin("envelope/pair-head", &pair_headed()));
    out.push(pin(
        "slot",
        &SlotMsg {
            slot: 11,
            env: envelope(),
        },
    ));
    out.push(pin(
        "hello/peer",
        &Hello::Peer {
            id: 3,
            cluster: 0xABCD,
        },
    ));
    out.push(pin("hello/client", &Hello::Client { cluster: 0xBEEF }));
    out.push(pin("request/submit", &Request::Submit { value: 77 }));
    out.push(pin("request/status", &Request::Status));
    out.push(pin("request/shutdown", &Request::Shutdown));
    out.push(pin("reply/submitted", &Reply::Submitted { queued: 3 }));
    out.push(pin("reply/status", &Reply::Status(status())));
    out.push(pin("reply/shutting-down", &Reply::ShuttingDown));
    out.push(pin(
        "reply/bad-request",
        &Reply::BadRequest("no ü".to_string()),
    ));
    out.push(pin("status", &status()));
    out
}

fn with(prefix: &[u8], rest: &[u8]) -> Vec<u8> {
    [prefix, rest].concat()
}

/// Hostile inputs and what each decodes to: unknown tags, oversize
/// counts, invalid UTF-8, a wrong magic or version, duplicate members.
pub fn hostile() -> Vec<(&'static str, String)> {
    let show_core = |c: &MessageCore| c.label();
    let show_vec = |v: &ValueVector| format!("{v:?}");
    let show_env = |e: &Envelope| format!("cert={}", e.cert.len());
    let show_status = |s: &Status| format!("{:?}", s.convicted);
    let show_reply = |r: &Reply| format!("{r:?}");
    let show_hello = |h: &Hello| format!("{h:?}");
    let show_request = |r: &Request| format!("{r:?}");

    let sender = 1u32.to_be_bytes();
    let status = status().canonical_bytes();
    // `status` bytes: me 4, now 8, decided 8, halted 1, contradicted 1,
    // log_digest 4+4 — the convicted count sits at offset 30.
    let convicted_at = 30;
    let env = envelope().canonical_bytes();
    let head_len = envelope().signed.canonical_bytes().len();
    let one_member = {
        // The head, a count of 2, then the same lone member twice.
        let member = envelope()
            .cert
            .iter()
            .next()
            .expect("member")
            .canonical_bytes();
        [&env[..head_len], &2u32.to_be_bytes(), &member, &member].concat()
    };
    let hello = Hello::Client { cluster: 9 }.canonical_bytes();

    vec![
        (
            "core/tag-0",
            verdict(&with(&sender, &[0, 0, 0, 0, 0, 0, 0, 0, 1]), show_core),
        ),
        (
            "core/tag-10",
            verdict(&with(&sender, &[10, 0, 0, 0, 0, 0, 0, 0, 1]), show_core),
        ),
        ("core/no-tag", verdict(&sender, show_core)),
        ("vector/option-tag-2", verdict(&[0, 0, 0, 1, 2], show_vec)),
        (
            "vector/count-over-rest",
            verdict(&[0, 0, 0, 3, 0, 0], show_vec),
        ),
        (
            "vector/count-max",
            verdict(&[0xff, 0xff, 0xff, 0xff, 0], show_vec),
        ),
        ("vector/count-fits", verdict(&[0, 0, 0, 2, 0, 0], show_vec)),
        (
            "envelope/cert-count-over-rest",
            verdict(&with(&env[..head_len], &[0, 0, 0, 9, 0]), show_env),
        ),
        (
            "envelope/cert-count-max",
            verdict(&with(&env[..head_len], &[0xff; 4]), show_env),
        ),
        ("envelope/duplicate-members", verdict(&one_member, show_env)),
        ("status/halted-2", {
            let mut bad = status.clone();
            bad[20] = 2;
            verdict(&bad, show_status)
        }),
        ("status/convicted-count-over-rest", {
            let mut bad = status.clone();
            bad[convicted_at..convicted_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
            verdict(&bad, show_status)
        }),
        ("status/convicted-invalid-utf8", {
            let mut bad = status.clone();
            // First conviction's first byte ("p" → 0xff).
            bad[convicted_at + 8] = 0xff;
            verdict(&bad, show_status)
        }),
        ("status/log-digest-over-rest", {
            let mut bad = status.clone();
            bad[22..26].copy_from_slice(&0x0100_0000u32.to_be_bytes());
            verdict(&bad, show_status)
        }),
        ("reply/tag-0", verdict(&[0], show_reply)),
        ("reply/tag-5", verdict(&[5], show_reply)),
        (
            "reply/bad-request-invalid-utf8",
            verdict(&[4, 0, 0, 0, 2, 0xc3, 0x28], show_reply),
        ),
        (
            "reply/bad-request-over-rest",
            verdict(&[4, 0, 0, 0, 9, b'x'], show_reply),
        ),
        ("request/tag-0", verdict(&[0], show_request)),
        ("request/tag-4", verdict(&[4], show_request)),
        ("request/trailing", verdict(&[2, 0], show_request)),
        ("hello/wrong-magic", {
            let mut bad = hello.clone();
            bad[0] ^= 1;
            verdict(&bad, show_hello)
        }),
        ("hello/wrong-version", {
            let mut bad = hello.clone();
            bad[7] = 2;
            verdict(&bad, show_hello)
        }),
        ("hello/tag-3", {
            let mut bad = hello.clone();
            bad[8] = 3;
            verdict(&bad, show_hello)
        }),
    ]
}

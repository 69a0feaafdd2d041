// Canaries for the `clippy.toml` bans behind rules D1–D4 (DESIGN.md §13),
// `include!`d by every package's lib.rs. Each `#[expect]` is fulfilled only
// while its ban reaches the including package: drop a `disallowed-types` /
// `disallowed-methods` entry, or shadow the root `clippy.toml` from a crate,
// and `cargo clippy -- -D warnings` fails with "this lint expectation is
// unfulfilled". Plain `cargo build`/`test`/`doc` never evaluate `clippy::`
// expectations. (An `#[expect]` sets its lint's level itself, so it cannot
// witness a level: those are pinned by `crates/quorum/tests/discipline.rs`.)

#[expect(clippy::disallowed_types, reason = "D1 canary: f32")]
const _: Option<f32> = None;
#[expect(clippy::disallowed_types, reason = "D1 canary: f64")]
const _: Option<f64> = None;

#[expect(clippy::disallowed_types, reason = "D2 canary: HashMap")]
const _: Option<std::collections::HashMap<(), ()>> = None;
#[expect(clippy::disallowed_types, reason = "D2 canary: HashSet")]
const _: Option<std::collections::HashSet<()>> = None;

#[expect(clippy::disallowed_types, reason = "D3 canary: Instant")]
const _: Option<std::time::Instant> = None;
#[expect(clippy::disallowed_types, reason = "D3 canary: SystemTime")]
const _: Option<std::time::SystemTime> = None;

#[expect(clippy::disallowed_methods, reason = "D4 canary: spawn")]
const _: fn() = || drop(std::thread::spawn(|| ()));
#[expect(clippy::disallowed_methods, reason = "D4 canary: Builder::spawn")]
const _: fn() = || drop(std::thread::Builder::new().spawn(|| ()));
#[expect(clippy::disallowed_methods, reason = "D4 canary: scope")]
const _: fn() = || std::thread::scope(|_| ());

//! # ft-modular
//!
//! A full reproduction of **Baldoni, Hélary, Raynal — "From Crash
//! Fault-Tolerance to Arbitrary-Fault Tolerance: Towards a Modular
//! Approach" (DSN 2000)**: the modular methodology that turns a round-based
//! protocol tolerating crash failures into one tolerating arbitrary
//! (Byzantine) failures, instantiated on the Hurfin–Raynal consensus
//! protocol.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`crypto`] — from-scratch SHA-256, bignum, RSA signatures, key
//!   directory, canonical encoding;
//! * [`quorum`] — the `n − F` threshold algebra (also reachable as
//!   [`core::quorum`], its canonical path);
//! * [`runtime`] — the runtime-agnostic actor boundary: [`runtime::Actor`],
//!   staged effects, virtual time, and the [`runtime::Runtime`] trait both
//!   runtimes implement;
//! * [`sim`] — deterministic discrete-event simulator (reliable FIFO
//!   channels, partial synchrony, crash scheduling);
//! * [`net`] — threaded TCP transport: the same actors over real sockets
//!   (`ftm-serve` / `ftm-load` binaries live in the `ftm-serve` crate);
//! * [`fd`] — failure detectors: ◇S (crash), ◇M (muteness), oracles, and
//!   quality measurement;
//! * [`certify`] — signed envelopes, certificates, the certificate
//!   analyzer, vector certification;
//! * [`detect`] — non-muteness failure detection (per-peer state
//!   machines);
//! * [`core`] — the round modules (Fig. 2 and Fig. 3's round logic,
//!   one per protocol), the crash-model shell, the transformation stack
//!   (Fig. 1), the transformed vector consensus (Fig. 3), and run
//!   validators;
//! * [`faults`] — the Byzantine fault-injection library;
//! * [`verify`] — static protocol analyzer: model-checks the observer
//!   automaton (determinism, totality, bounded soundness, mutation kill
//!   matrix) and the certificate-rule coverage table.
//!
//! See `README.md` for a guided tour, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for the reproduced results.
//!
//! # Example: surviving a Byzantine coordinator
//!
//! ```
//! use ft_modular::core::byzantine::ByzantineConsensus;
//! use ft_modular::core::config::ProtocolConfig;
//! use ft_modular::core::validator::check_vector_consensus;
//! use ft_modular::faults::{Attack, ByzantineWrapper};
//! use ft_modular::sim::{Duration, SimConfig, Simulation};
//!
//! let n = 4;
//! let setup = ProtocolConfig::new(n, 1).seed(1).setup();
//! let report = Simulation::build_boxed(SimConfig::new(n).seed(1), |id| {
//!     let honest = ByzantineConsensus::new(&setup, id, 100 + id.0 as u64);
//!     if id.0 == 0 {
//!         // Round-1 coordinator lies about p2's value in every vector.
//!         Box::new(ByzantineWrapper::new(
//!             honest,
//!             Attack::CorruptVector { entry: 2, poison: 666 },
//!             setup.keys[0].clone(),
//!             Duration::of(40),
//!         ))
//!     } else {
//!         Box::new(honest)
//!     }
//! })
//! .run();
//! let verdict = check_vector_consensus(
//!     &report,
//!     &[100, 101, 102, 103],
//!     &[true, false, false, false],
//!     1,
//! );
//! assert!(verdict.ok(), "{:?}", verdict.violations);
//! ```
//!
//! # Certification before use is a type
//!
//! Everything that writes replicated state takes a
//! [`certify::Certified`] envelope, which only the certification stack
//! mints. A replica catching up from a peer's checkpoint must run the
//! analyzer before it may read the decided vector out of it:
//!
//! ```
//! use ft_modular::certify::{
//!     checkpoint_vector, make_checkpoint, CertChecker, Certificate, Core, MessageCore,
//!     ProtocolId, SignedCore, ValueVector,
//! };
//! use ft_modular::core::byzantine::log::SlotMsg;
//! use ft_modular::crypto::keydir::KeyDirectory;
//! use ft_modular::sim::ProcessId;
//!
//! let mut rng = ft_modular::crypto::rng_from_seed(7);
//! let (dir, keys) = KeyDirectory::generate(&mut rng, 4, 128);
//! let checker = CertChecker::new(4, 1, dir);
//! let vect = ValueVector::from_entries(vec![Some(7), Some(8), Some(9), None]);
//! let quorum = Certificate::from_items((0..3u32).map(|s| {
//!     let vote = Core::Current { round: 1, vector: vect.clone() };
//!     SignedCore::sign(MessageCore::new(ProcessId(s), vote), &keys[s as usize])
//! }));
//! let hr = ProtocolId::HurfinRaynal;
//! let msg = SlotMsg { slot: 4, env: make_checkpoint(hr, 4, &vect, quorum, ProcessId(1), &keys[1]) };
//!
//! let env = checker.check_envelope(&msg.env).expect("quorum-backed checkpoint");
//! assert_eq!(checkpoint_vector(hr, 3, &env), Some(vect));
//! ```
//!
//! Skip the `check_envelope` call and the same program is rejected by
//! rustc (only the last two lines differ; the prelude is hidden):
//!
//! ```compile_fail
//! # use ft_modular::certify::{
//! #     checkpoint_vector, make_checkpoint, CertChecker, Certificate, Core, MessageCore,
//! #     ProtocolId, SignedCore, ValueVector,
//! # };
//! # use ft_modular::core::byzantine::log::SlotMsg;
//! # use ft_modular::crypto::keydir::KeyDirectory;
//! # use ft_modular::sim::ProcessId;
//! # let mut rng = ft_modular::crypto::rng_from_seed(7);
//! # let (dir, keys) = KeyDirectory::generate(&mut rng, 4, 128);
//! # let checker = CertChecker::new(4, 1, dir);
//! # let vect = ValueVector::from_entries(vec![Some(7), Some(8), Some(9), None]);
//! # let quorum = Certificate::from_items((0..3u32).map(|s| {
//! #     let vote = Core::Current { round: 1, vector: vect.clone() };
//! #     SignedCore::sign(MessageCore::new(ProcessId(s), vote), &keys[s as usize])
//! # }));
//! # let hr = ProtocolId::HurfinRaynal;
//! # let msg = SlotMsg { slot: 4, env: make_checkpoint(hr, 4, &vect, quorum, ProcessId(1), &keys[1]) };
//! assert_eq!(checkpoint_vector(hr, 3, &msg.env), Some(vect));
//! ```
//!
//! # Send conformance is a type
//!
//! Each protocol's round logic is one module, [`core::rounds::Rounds`],
//! run in either fault model by a shell written once per model
//! ([`core::byzantine::Transformed`], [`core::crash::Crash`]). The shell
//! owns the runtime's effect handle; a round module speaks only through
//! [`core::rounds::Shell::emit`], which takes one of its protocol's
//! declared send rows and derives kind, round, routing and certificate
//! itself:
//!
//! ```
//! use ft_modular::certify::{Certified, Envelope, ProtocolId};
//! use ft_modular::core::byzantine::HrCerts;
//! use ft_modular::core::rounds::hr::HrSend;
//! use ft_modular::core::rounds::{Rounds, Shell, Step};
//! use ft_modular::sim::ProcessId;
//!
//! #[derive(Debug, Default)]
//! struct Parrot {
//!     votes: HrCerts,
//! }
//!
//! impl Rounds for Parrot {
//!     const ID: ProtocolId = ProtocolId::HurfinRaynal;
//!     type Send = HrSend;
//!     type Votes = HrCerts;
//!
//!     fn open_round(&mut self, _: &mut impl Shell<Self>) {}
//!     fn on_vote(&mut self, _: ProcessId, env: Certified<'_>, sh: &mut impl Shell<Self>) -> Step<HrCerts> {
//!         sh.emit(HrSend::CurrentRelay, &mut self.votes);
//!         Step::Stay
//!     }
//!     fn awaits_coordinator(&self, _: &impl Shell<Self>) -> bool {
//!         false
//!     }
//!     fn on_suspicion(&mut self, _: &mut impl Shell<Self>) -> Step<HrCerts> {
//!         Step::Stay
//!     }
//! }
//! ```
//!
//! Reach past `emit` for the effect handle — to echo the received
//! envelope as is, or to one process only — and the same module is
//! rejected by rustc (only the first line of `on_vote` differs): the
//! module sees its shell as a type parameter, which has no fields.
//!
//! ```compile_fail
//! # use ft_modular::certify::{Certified, Envelope, ProtocolId};
//! # use ft_modular::core::byzantine::HrCerts;
//! # use ft_modular::core::rounds::hr::HrSend;
//! # use ft_modular::core::rounds::{Rounds, Shell, Step};
//! # use ft_modular::sim::ProcessId;
//! # #[derive(Debug, Default)]
//! # struct Parrot {
//! #     votes: HrCerts,
//! # }
//! # impl Rounds for Parrot {
//! #     const ID: ProtocolId = ProtocolId::HurfinRaynal;
//! #     type Send = HrSend;
//! #     type Votes = HrCerts;
//! #     fn open_round(&mut self, _: &mut impl Shell<Self>) {}
//!     fn on_vote(&mut self, _: ProcessId, env: Certified<'_>, sh: &mut impl Shell<Self>) -> Step<HrCerts> {
//!         sh.ctx.broadcast(Envelope::clone(&env));
//!         Step::Stay
//!     }
//! #     fn awaits_coordinator(&self, _: &impl Shell<Self>) -> bool {
//! #         false
//! #     }
//! #     fn on_suspicion(&mut self, _: &mut impl Shell<Self>) -> Step<HrCerts> {
//! #         Step::Stay
//! #     }
//! # }
//! ```
//!
//! The crash model is held the same way. A crash-model round module may
//! relay through `emit`:
//!
//! ```
//! use ft_modular::certify::ProtocolId;
//! use ft_modular::core::crash::{CrashMsg, HrCounts};
//! use ft_modular::core::rounds::hr::HrSend;
//! use ft_modular::core::rounds::{Rounds, Shell, Step};
//! use ft_modular::sim::ProcessId;
//!
//! #[derive(Debug, Default)]
//! struct Parrot {
//!     votes: HrCounts,
//! }
//!
//! impl Rounds for Parrot {
//!     const ID: ProtocolId = ProtocolId::HurfinRaynal;
//!     type Send = HrSend;
//!     type Votes = HrCounts;
//!
//!     fn open_round(&mut self, _: &mut impl Shell<Self>) {}
//!     fn on_vote(&mut self, _: ProcessId, msg: CrashMsg, sh: &mut impl Shell<Self>) -> Step<HrCounts> {
//!         sh.emit(HrSend::CurrentRelay, &mut self.votes);
//!         Step::Stay
//!     }
//!     fn awaits_coordinator(&self, _: &impl Shell<Self>) -> bool {
//!         false
//!     }
//!     fn on_suspicion(&mut self, _: &mut impl Shell<Self>) -> Step<HrCounts> {
//!         Step::Stay
//!     }
//! }
//! ```
//!
//! but it cannot unicast a vote past it either:
//!
//! ```compile_fail
//! # use ft_modular::certify::ProtocolId;
//! # use ft_modular::core::crash::{CrashMsg, HrCounts};
//! # use ft_modular::core::rounds::hr::HrSend;
//! # use ft_modular::core::rounds::{Rounds, Shell, Step};
//! # use ft_modular::sim::ProcessId;
//! # #[derive(Debug, Default)]
//! # struct Parrot {
//! #     votes: HrCounts,
//! # }
//! # impl Rounds for Parrot {
//! #     const ID: ProtocolId = ProtocolId::HurfinRaynal;
//! #     type Send = HrSend;
//! #     type Votes = HrCounts;
//! #     fn open_round(&mut self, _: &mut impl Shell<Self>) {}
//!     fn on_vote(&mut self, _: ProcessId, msg: CrashMsg, sh: &mut impl Shell<Self>) -> Step<HrCounts> {
//!         sh.ctx.send(ProcessId(0), msg);
//!         Step::Stay
//!     }
//! #     fn awaits_coordinator(&self, _: &impl Shell<Self>) -> bool {
//! #         false
//! #     }
//! #     fn on_suspicion(&mut self, _: &mut impl Shell<Self>) -> Step<HrCounts> {
//! #         Step::Stay
//! #     }
//! # }
//! ```

pub use ftm_certify as certify;
pub use ftm_core as core;
pub use ftm_crypto as crypto;
pub use ftm_detect as detect;
pub use ftm_faults as faults;
pub use ftm_fd as fd;
pub use ftm_net as net;
pub use ftm_quorum as quorum;
pub use ftm_runtime as runtime;
pub use ftm_sim as sim;
pub use ftm_verify as verify;

include!("../clippy_canaries.rs"); // D1–D4 ban canaries, DESIGN.md §13

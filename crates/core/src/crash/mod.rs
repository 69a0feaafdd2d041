//! The crash-model protocols, the *input* of the paper's transformation.
//!
//! Hurfin–Raynal (paper Fig. 2) and Chandra–Toueg are ◇S-based,
//! rotating-coordinator, asynchronous-round consensus protocols assuming a
//! majority of correct processes and reliable FIFO channels. Each round, a
//! predetermined coordinator tries to impose its estimate. As on the
//! transformed side ([`crate::byzantine`]), each protocol is a round module
//! — [`hr::HurfinRaynal`], [`ct::ChandraToueg`] — inside one actor written
//! once, [`Crash`] in [`shell`], speaking one vocabulary, [`CrashMsg`].

pub mod ct;
pub mod hr;
pub mod message;
pub mod shell;

pub use message::CrashMsg;
pub use shell::Crash;

/// The crash-model Hurfin–Raynal protocol (paper Fig. 2).
pub type CrashConsensus<FD> = Crash<hr::HurfinRaynal, FD>;
/// The crash-model Chandra–Toueg protocol.
pub type ChandraToueg<FD> = Crash<ct::ChandraToueg, FD>;

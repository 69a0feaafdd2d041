//! The crash-model protocols, the *input* of the paper's transformation.
//!
//! Hurfin–Raynal (paper Fig. 2) and Chandra–Toueg are ◇S-based,
//! rotating-coordinator, asynchronous-round consensus protocols assuming a
//! majority of correct processes and reliable FIFO channels. Each round, a
//! predetermined coordinator tries to impose its estimate. Each protocol is
//! its round module of [`crate::rounds`] — the one the transformed side
//! runs too — over a crash-model vote record of [`votes`], inside one
//! actor written once, [`Crash`] in [`shell`], speaking one vocabulary,
//! [`CrashMsg`].

pub mod message;
pub mod shell;
pub mod votes;

pub use message::CrashMsg;
pub use shell::{Crash, CrashModel};
pub use votes::{CtCounts, HrCounts};

use crate::rounds::{ct, hr};

/// The crash-model Hurfin–Raynal protocol (paper Fig. 2).
pub type CrashConsensus<FD> = Crash<hr::HurfinRaynal<HrCounts>, FD>;
/// The crash-model Chandra–Toueg protocol.
pub type ChandraToueg<FD> = Crash<ct::ChandraToueg<CtCounts>, FD>;

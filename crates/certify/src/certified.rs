//! Certification-before-use as a type.
//!
//! The paper's Fig. 1 promises that the round-protocol module only ever
//! consumes a message that has crossed the signature, muteness,
//! non-muteness and certification modules. [`Certified`] carries that
//! promise in the type system: it wraps an [`Envelope`], has a private
//! field and no public constructor, and comes into existence in exactly
//! one place — [`CertChecker::certify`], the certification module's walk
//! over its rule table. Every replicated-state sink (the actors' admitted-message
//! handlers and round buffers, [`VectorBuilder::absorb`],
//! [`checkpoint_vector`], the replicated log's checkpoint install) takes
//! a `Certified`, so handing one a raw `&Envelope` is a type error.
//!
//! [`VectorBuilder::absorb`]: crate::vector::VectorBuilder::absorb
//! [`checkpoint_vector`]: crate::checkpoint::checkpoint_vector

use std::borrow::Cow;
use std::ops::Deref;

use crate::analyzer::CertChecker;
use crate::error::CertifyError;
use crate::signed::Envelope;

/// An [`Envelope`] that has passed the certification module.
///
/// Read-only ([`Deref`] to the envelope, no `DerefMut`), so a certified
/// message cannot be edited after the fact. Borrowed from the caller's
/// envelope when minted; [`Certified::into_owned`] detaches it for the
/// round buffers that must outlive the receive call.
///
/// # Obtaining one
///
/// Only through a gate that ends in [`CertChecker::certify`]:
/// [`CertChecker::check_envelope`] here and `ModuleStack::admit` in
/// `ftm-core`.
///
/// ```
/// use ftm_certify::analyzer::CertChecker;
/// use ftm_certify::vector::VectorBuilder;
/// use ftm_certify::{Certificate, Certified, Core, Envelope};
/// use ftm_sim::ProcessId;
///
/// let mut rng = ftm_crypto::rng_from_seed(3);
/// let (dir, keys) = ftm_crypto::keydir::KeyDirectory::generate(&mut rng, 4, 128);
/// let checker = CertChecker::new(4, 1, dir);
/// let raw_env = Envelope::make(ProcessId(0), Core::Init { value: 7 },
///                              Certificate::new(), &keys[0]);
/// let mut b = VectorBuilder::new(4, 1);
/// let env: Certified<'_> = checker.check_envelope(&raw_env).expect("honest INIT");
/// assert!(b.absorb(&env));
/// ```
///
/// # What the compiler rejects
///
/// Each block below is the program above with only its last two lines
/// changed (the shared prelude is hidden), so the one thing that stops
/// it compiling is the missing `check_envelope` call.
///
/// An unchecked envelope reaching the vector-certification sink:
///
/// ```compile_fail
/// # use ftm_certify::analyzer::CertChecker;
/// # use ftm_certify::vector::VectorBuilder;
/// # use ftm_certify::{Certificate, Certified, Core, Envelope};
/// # use ftm_sim::ProcessId;
/// # let mut rng = ftm_crypto::rng_from_seed(3);
/// # let (dir, keys) = ftm_crypto::keydir::KeyDirectory::generate(&mut rng, 4, 128);
/// # let checker = CertChecker::new(4, 1, dir);
/// # let raw_env = Envelope::make(ProcessId(0), Core::Init { value: 7 },
/// #                              Certificate::new(), &keys[0]);
/// # let mut b = VectorBuilder::new(4, 1);
/// assert!(b.absorb(&raw_env));
/// ```
///
/// Forging one from outside this module — the field is private:
///
/// ```compile_fail
/// # use ftm_certify::analyzer::CertChecker;
/// # use ftm_certify::vector::VectorBuilder;
/// # use ftm_certify::{Certificate, Certified, Core, Envelope};
/// # use ftm_sim::ProcessId;
/// # let mut rng = ftm_crypto::rng_from_seed(3);
/// # let (dir, keys) = ftm_crypto::keydir::KeyDirectory::generate(&mut rng, 4, 128);
/// # let checker = CertChecker::new(4, 1, dir);
/// # let raw_env = Envelope::make(ProcessId(0), Core::Init { value: 7 },
/// #                              Certificate::new(), &keys[0]);
/// # let mut b = VectorBuilder::new(4, 1);
/// let env: Certified<'_> = Certified(std::borrow::Cow::Borrowed(&raw_env));
/// assert!(b.absorb(&env));
/// ```
///
/// and there is no `From`, `Default` or other constructor to reach for:
///
/// ```compile_fail
/// # use ftm_certify::analyzer::CertChecker;
/// # use ftm_certify::vector::VectorBuilder;
/// # use ftm_certify::{Certificate, Certified, Core, Envelope};
/// # use ftm_sim::ProcessId;
/// # let mut rng = ftm_crypto::rng_from_seed(3);
/// # let (dir, keys) = ftm_crypto::keydir::KeyDirectory::generate(&mut rng, 4, 128);
/// # let checker = CertChecker::new(4, 1, dir);
/// # let raw_env = Envelope::make(ProcessId(0), Core::Init { value: 7 },
/// #                              Certificate::new(), &keys[0]);
/// # let mut b = VectorBuilder::new(4, 1);
/// let env: Certified<'_> = (&raw_env).into();
/// assert!(b.absorb(&env));
/// ```
#[derive(Debug, Clone)]
pub struct Certified<'a>(Cow<'a, Envelope>);

impl Deref for Certified<'_> {
    type Target = Envelope;

    fn deref(&self) -> &Envelope {
        &self.0
    }
}

impl Certified<'_> {
    /// Detaches the certified envelope from the buffer it was received
    /// in (one envelope clone, none if already owned).
    pub fn into_owned(self) -> Certified<'static> {
        Certified(Cow::Owned(self.0.into_owned()))
    }
}

impl CertChecker {
    /// The certification module proper, and the only place a
    /// [`Certified`] is minted: re-verifies the signature of every
    /// certificate item, then finds the row of the rule table whose send
    /// condition the envelope satisfies ([`CertChecker::rule_for`], paper
    /// §5.1).
    ///
    /// `certificates` is the E8 ablation bit (`Checks::certificates` in
    /// `ftm-core`): `false` skips both steps, so the ablated stack
    /// still hands its protocol module a `Certified` — minted here, by
    /// the same function, rather than through a second unchecked
    /// constructor. Everything outside the ablation experiment passes
    /// `true`.
    ///
    /// Head-signature and syntax checks are the caller's (they belong to
    /// the signature module): see [`CertChecker::check_envelope`].
    ///
    /// # Errors
    ///
    /// The first rule violation, pinned on the envelope's sender.
    pub fn certify<'a>(
        &self,
        env: &'a Envelope,
        certificates: bool,
    ) -> Result<Certified<'a>, CertifyError> {
        if certificates {
            self.check_cert_signatures(env)?;
            self.rule_for(env)?;
        }
        Ok(Certified(Cow::Borrowed(env)))
    }
}

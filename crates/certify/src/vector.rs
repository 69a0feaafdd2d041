//! Vector certification: certifying the uncertifiable initial values.
//!
//! Initial values have no history, so no certificate can witness them
//! (paper §5.1). The fix is the preliminary exchange that turns consensus
//! into **Vector Consensus**: every process signs and broadcasts
//! `INIT(v_i)`, waits for exactly `n − F` INITs, and builds
//!
//! * an estimate vector `est_vect` with the received values (null
//!   elsewhere), and
//! * a certificate `est_cert` containing those `n − F` signed INITs —
//!   which *is* the witness for every non-null entry.
//!
//! Propositions 1–2 of the paper (every correct process builds such a
//! certified vector; no process can exhibit two different vectors certified
//! by the same INIT set) are exercised by this module's tests and the E5
//! experiment.

use ftm_sim::ProcessId;

use crate::certificate::Certificate;
use crate::certified::Certified;
use crate::error::{CertifyError, FaultClass};
use crate::message::{Core, MessageKind, ValueVector};

/// Accumulates INIT messages into a certified initial vector.
///
/// # Example
///
/// ```
/// use ftm_certify::vector::VectorBuilder;
/// use ftm_certify::{CertChecker, Certificate, Core, Envelope};
/// use ftm_crypto::keydir::KeyDirectory;
/// use ftm_sim::ProcessId;
///
/// let mut rng = ftm_crypto::rng_from_seed(3);
/// let (dir, keys) = KeyDirectory::generate(&mut rng, 3, 128);
/// let checker = CertChecker::new(3, 1, dir);
/// let mut b = VectorBuilder::new(3, 1);
/// for s in 0..2u32 {
///     let env = Envelope::make(ProcessId(s), Core::Init { value: s as u64 },
///                              Certificate::new(), &keys[s as usize]);
///     b.absorb(&checker.check_envelope(&env).expect("honest INIT"));
/// }
/// assert!(b.complete()); // n − F = 2 INITs collected
/// let (vect, cert) = b.finish();
/// assert_eq!(vect.get(0), Some(0));
/// assert_eq!(vect.get(2), None);
/// assert_eq!(cert.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct VectorBuilder {
    n: usize,
    f: usize,
    vector: ValueVector,
    cert: Certificate,
}

impl VectorBuilder {
    /// Creates a builder for `n` processes tolerating `f` faults.
    ///
    /// # Panics
    ///
    /// Panics if `f >= n`.
    pub fn new(n: usize, f: usize) -> Self {
        assert!(f < n, "F must be smaller than n");
        VectorBuilder {
            n,
            f,
            vector: ValueVector::empty(n),
            cert: Certificate::with_capacity(ftm_quorum::quorum_size(n, f)),
        }
    }

    /// Absorbs an INIT envelope. The first INIT per sender wins; anything
    /// beyond the `n − F` target or from an already seen sender is
    /// ignored. Returns `true` when the envelope was used.
    pub fn absorb(&mut self, env: &Certified<'_>) -> bool {
        if self.complete() {
            return false;
        }
        let Core::Init { value } = env.core() else {
            return false;
        };
        let k = env.sender().index();
        if k >= self.n || self.vector.get(k).is_some() {
            return false;
        }
        self.vector.set(k, *value);
        self.cert.insert(env.signed.clone());
        true
    }

    /// Whether exactly `n − F` INITs were collected (the exit condition of
    /// the preliminary phase, Fig. 3 line 6).
    pub fn complete(&self) -> bool {
        self.cert.count_init_senders() >= ftm_quorum::quorum_size(self.n, self.f)
    }

    /// Consumes the builder, returning `(est_vect, est_cert)`.
    ///
    /// # Panics
    ///
    /// Panics unless [`VectorBuilder::complete`] — finishing early would
    /// hand the protocol an uncertified vector.
    pub fn finish(self) -> (ValueVector, Certificate) {
        assert!(self.complete(), "vector certification incomplete");
        (self.vector, self.cert)
    }
}

impl Certificate {
    /// Distinct senders of INIT items (helper for the builder's exit
    /// condition and the analyzer's witness rule).
    pub fn count_init_senders(&self) -> usize {
        self.count_senders(&[MessageKind::Init], 0)
    }
}

/// Checks the Vector Validity property on a decided vector: at least
/// `psi = n − 2F` entries must carry the initial values of *correct*
/// processes (`correct_values[k] = Some(v)` is ground truth known to the
/// experiment harness, `None` marks faulty processes).
///
/// # Errors
///
/// Returns a [`CertifyError`] naming the first offending entry, or a
/// generic one when the ψ bound is missed.
pub fn check_vector_validity(
    decided: &ValueVector,
    correct_values: &[Option<u64>],
    f: usize,
) -> Result<(), CertifyError> {
    let n = correct_values.len();
    // Entries attributed to correct processes must be their true values.
    for (k, v) in decided.iter_set() {
        if let Some(Some(true_v)) = correct_values.get(k).map(|cv| cv.map(|tv| tv == v)) {
            if !true_v {
                return Err(CertifyError::new(
                    ProcessId(k as u32),
                    FaultClass::BadCertificate,
                    "decided vector falsifies a correct process's value",
                ));
            }
        }
    }
    let from_correct = decided
        .iter_set()
        .filter(|(k, _)| {
            correct_values
                .get(*k)
                .is_some_and(std::option::Option::is_some)
        })
        .count();
    let psi = ftm_quorum::vector_validity_floor(n, f);
    if from_correct < psi {
        return Err(CertifyError::new(
            ProcessId(0),
            FaultClass::BadCertificate,
            "decided vector has fewer than n−2F entries from correct processes",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::CertChecker;
    use crate::signed::Envelope;
    use ftm_crypto::keydir::KeyDirectory;
    use ftm_crypto::rsa::KeyPair;

    fn fixture(n: usize, f: usize) -> (CertChecker, Vec<KeyPair>) {
        let mut rng = ftm_crypto::rng_from_seed(51);
        let (dir, keys) = KeyDirectory::generate(&mut rng, n, 128);
        (CertChecker::new(n, f, dir), keys)
    }

    fn init_env(sender: u32, value: u64, keys: &[KeyPair]) -> Envelope {
        Envelope::make(
            ProcessId(sender),
            Core::Init { value },
            Certificate::new(),
            &keys[sender as usize],
        )
    }

    /// Certifies and absorbs `INIT(value)` from `sender`.
    fn absorb(
        b: &mut VectorBuilder,
        checker: &CertChecker,
        sender: u32,
        value: u64,
        keys: &[KeyPair],
    ) -> bool {
        let env = init_env(sender, value, keys);
        b.absorb(&checker.check_envelope(&env).expect("honest INIT"))
    }

    #[test]
    fn builder_collects_exactly_quorum() {
        let (checker, ks) = fixture(4, 1);
        let mut b = VectorBuilder::new(4, 1);
        assert!(absorb(&mut b, &checker, 0, 10, &ks));
        assert!(absorb(&mut b, &checker, 1, 11, &ks));
        assert!(!b.complete());
        assert!(absorb(&mut b, &checker, 2, 12, &ks));
        assert!(b.complete());
        // A fourth INIT is ignored: the phase waits for exactly n − F.
        assert!(!absorb(&mut b, &checker, 3, 13, &ks));
        let (vect, cert) = b.finish();
        assert_eq!(vect.non_null_count(), 3);
        assert_eq!(vect.get(3), None);
        assert_eq!(cert.len(), 3);
    }

    #[test]
    fn duplicate_sender_ignored() {
        let (checker, ks) = fixture(3, 1);
        let mut b = VectorBuilder::new(3, 1);
        assert!(absorb(&mut b, &checker, 0, 1, &ks));
        // Equivocation attempt: second value from the same sender.
        assert!(!absorb(&mut b, &checker, 0, 2, &ks));
        let mut b2 = b.clone();
        assert!(absorb(&mut b2, &checker, 1, 3, &ks));
        let (vect, _) = b2.finish();
        assert_eq!(vect.get(0), Some(1));
    }

    #[test]
    #[should_panic(expected = "incomplete")]
    fn finishing_early_panics() {
        let _ = VectorBuilder::new(3, 1).finish();
    }

    #[test]
    fn proposition1_shape_vector_matches_cert() {
        // The built vector's non-null entries are exactly the INIT senders
        // and the certificate witnesses each of them.
        let (checker, ks) = fixture(5, 2);
        let mut b = VectorBuilder::new(5, 2);
        for s in [4u32, 2, 0] {
            absorb(&mut b, &checker, s, 100 + s as u64, &ks);
        }
        let (vect, cert) = b.finish();
        assert!(checker
            .init_portion_well_formed(&cert, &vect, ProcessId(0))
            .is_ok());
    }

    #[test]
    fn vector_validity_accepts_honest_vector() {
        let decided = ValueVector::from_entries(vec![Some(1), Some(2), None, Some(4)]);
        let truth = [Some(1), Some(2), Some(3), None]; // p3 faulty
        assert!(check_vector_validity(&decided, &truth, 1).is_ok());
    }

    #[test]
    fn vector_validity_rejects_falsified_entry() {
        let decided = ValueVector::from_entries(vec![Some(9), Some(2), None, None]);
        let truth = [Some(1), Some(2), Some(3), None];
        let err = check_vector_validity(&decided, &truth, 1).unwrap_err();
        assert!(err.reason.contains("falsifies"));
    }

    #[test]
    fn vector_validity_enforces_psi_bound() {
        // n = 4, F = 1 → ψ = 2; only one correct entry present.
        let decided = ValueVector::from_entries(vec![Some(1), None, None, Some(99)]);
        let truth = [Some(1), Some(2), Some(3), None];
        let err = check_vector_validity(&decided, &truth, 1).unwrap_err();
        assert!(err.reason.contains("n−2F"));
    }
}

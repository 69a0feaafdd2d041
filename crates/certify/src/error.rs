//! Error and fault-classification types for message validation.

use std::error::Error;
use std::fmt;

use ftm_sim::ProcessId;

/// The failure classes a received message can reveal (paper §3).
///
/// The paper's taxonomy: **out-of-order** messages (wrong time — transient
/// omission, duplication, or a message the program text can never produce)
/// and **wrong expected** messages (right time, wrong message or content —
/// substituted messages, syntactically or semantically incorrect content).
/// Signature failures identify the sender unforgeably, so they are their
/// own class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// The signature does not verify for the claimed sender.
    BadSignature,
    /// Wrong time: the receipt event is not enabled in the sender's state
    /// machine (duplicate, replay, stale or premature message).
    OutOfOrder,
    /// Right time, but the content is syntactically malformed (e.g. a
    /// vector of the wrong width).
    WrongSyntax,
    /// Right time, but the certificate is not well-formed with respect to
    /// the carried value or the send condition (substituted message,
    /// corrupted variable, misevaluated condition).
    BadCertificate,
}

impl FaultClass {
    /// The stable kebab-case name conviction notes and reports carry.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::BadSignature => "bad-signature",
            FaultClass::OutOfOrder => "out-of-order",
            FaultClass::WrongSyntax => "wrong-syntax",
            FaultClass::BadCertificate => "bad-certificate",
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A validation failure: which process exhibited which fault class, and a
/// human-readable reason for the experiment logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifyError {
    /// The process the evidence incriminates.
    pub culprit: ProcessId,
    /// The paper's failure class.
    pub class: FaultClass,
    /// What exactly failed (static description, keeps errors cheap).
    pub reason: &'static str,
}

impl CertifyError {
    /// Convenience constructor.
    pub fn new(culprit: ProcessId, class: FaultClass, reason: &'static str) -> Self {
        CertifyError {
            culprit,
            class,
            reason,
        }
    }
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} by {}: {}", self.class, self.culprit, self.reason)
    }
}

impl Error for CertifyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_culprit_and_class() {
        let e = CertifyError::new(
            ProcessId(3),
            FaultClass::BadCertificate,
            "too few INIT items",
        );
        let s = e.to_string();
        assert!(s.contains("p3"));
        assert!(s.contains("bad-certificate"));
        assert!(s.contains("too few INIT items"));
    }

    #[test]
    fn classes_are_distinct() {
        use FaultClass::*;
        let all = [BadSignature, OutOfOrder, WrongSyntax, BadCertificate];
        for (i, a) in all.iter().enumerate() {
            for (j, b) in all.iter().enumerate() {
                assert_eq!(a == b, i == j);
            }
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CertifyError>();
    }
}

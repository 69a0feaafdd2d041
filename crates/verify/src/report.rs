//! Aggregation of every check into one no-float JSON report.
//!
//! The document is built with [`ftm_sim::report::Json`], the same
//! byte-stable integer-only model the sweep harness emits — CI treats the
//! two uniformly and can diff reports across commits. The top level holds
//! one section per verified spec plus the quorum-algebra section:
//!
//! ```text
//! { "specs": { "transformed": {…}, "crash": {…}, "ct": {…}, "crash-ct": {…} },
//!   "quorum": {…}, "ok": true }
//! ```

use ftm_sim::report::Json;

use crate::lineage::LineageReport;
use crate::mutation::MutationReport;
use crate::quorum::QuorumReport;
use crate::soundness::SoundnessReport;

fn strings(v: &[String]) -> Json {
    Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect())
}

/// Everything `ftm-verify` proved (or failed to prove) about one spec.
#[derive(Debug, Clone)]
pub struct SpecReport {
    /// Bounded soundness over compliant traces.
    pub soundness: SoundnessReport,
    /// Static mutation analysis (detection completeness) — only for specs
    /// with an opening kind.
    pub mutation: Option<MutationReport>,
    /// Certificate-lineage flow analysis.
    pub lineage: LineageReport,
}

impl SpecReport {
    /// `true` when every check that ran passed with nothing vacuous.
    pub fn ok(&self) -> bool {
        self.soundness.false_convictions.is_empty()
            && self.soundness.traces > 0
            && self
                .mutation
                .as_ref()
                .is_none_or(MutationReport::all_killed)
            && self.lineage.ok()
    }

    /// Renders this spec's section of the JSON document.
    pub fn to_json(&self) -> Json {
        let mutation = match &self.mutation {
            None => Json::Null,
            Some(m) => {
                let ops = Json::Obj(
                    m.operators
                        .iter()
                        .map(|(op, s)| {
                            (
                                op.label().to_string(),
                                Json::Obj(vec![
                                    ("generated".into(), Json::U64(s.generated)),
                                    ("equivalent".into(), Json::U64(s.equivalent)),
                                    ("killed".into(), Json::U64(s.killed)),
                                    ("survived".into(), Json::U64(s.survived)),
                                ]),
                            )
                        })
                        .collect(),
                );
                Json::Obj(vec![
                    ("round-bound".into(), Json::U64(m.max_rounds)),
                    ("bases".into(), Json::U64(m.bases)),
                    ("divergent".into(), Json::U64(m.divergent())),
                    ("operators".into(), ops),
                    ("survivors".into(), strings(&m.survivors)),
                ])
            }
        };

        Json::Obj(vec![
            (
                "soundness".into(),
                Json::Obj(vec![
                    ("round-bound".into(), Json::U64(self.soundness.max_rounds)),
                    ("traces".into(), Json::U64(self.soundness.traces)),
                    ("steps".into(), Json::U64(self.soundness.steps)),
                    (
                        "false-convictions".into(),
                        strings(&self.soundness.false_convictions),
                    ),
                ]),
            ),
            ("mutation".into(), mutation),
            (
                "lineage".into(),
                Json::Obj(vec![
                    ("sends".into(), Json::U64(self.lineage.sends)),
                    ("edges".into(), Json::U64(self.lineage.edges)),
                    ("roots".into(), Json::U64(self.lineage.roots)),
                    ("trusted".into(), Json::Bool(self.lineage.trusted)),
                    ("dangling".into(), strings(&self.lineage.dangling)),
                    ("unjustified".into(), strings(&self.lineage.unjustified)),
                    ("dead-routes".into(), strings(&self.lineage.dead_routes)),
                    ("cycles".into(), strings(&self.lineage.cycles)),
                ]),
            ),
            ("ok".into(), Json::Bool(self.ok())),
        ])
    }
}

/// The full multi-spec run: one section per spec plus the quorum algebra.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Per-spec reports, keyed by spec label, in driver order.
    pub specs: Vec<(&'static str, SpecReport)>,
    /// The exhaustive quorum-algebra check (grid `n <= 64`).
    pub quorum: QuorumReport,
}

impl VerifyReport {
    /// `true` when every per-spec check and the quorum grid passed: the CI
    /// gate.
    pub fn ok(&self) -> bool {
        !self.specs.is_empty() && self.specs.iter().all(|(_, s)| s.ok()) && self.quorum.ok()
    }

    fn quorum_json(q: &QuorumReport) -> Json {
        Json::Obj(vec![
            ("pairs".into(), Json::U64(q.pairs)),
            ("exhaustive-pairs".into(), Json::U64(q.exhaustive_pairs)),
            (
                "zones".into(),
                Json::Obj(vec![
                    ("certified".into(), Json::U64(q.certified_zone)),
                    ("degraded".into(), Json::U64(q.degraded_zone)),
                    ("broken".into(), Json::U64(q.broken_zone)),
                ]),
            ),
            ("cert-witnesses".into(), strings(&q.cert_witnesses)),
            ("disjoint-witnesses".into(), strings(&q.disjoint_witnesses)),
            ("mismatches".into(), strings(&q.mismatches)),
            ("ok".into(), Json::Bool(q.ok())),
        ])
    }

    /// Renders the report as the byte-stable JSON document.
    pub fn to_json(&self) -> Json {
        let specs = Json::Obj(
            self.specs
                .iter()
                .map(|(label, s)| ((*label).to_string(), s.to_json()))
                .collect(),
        );
        Json::Obj(vec![
            ("specs".into(), specs),
            ("quorum".into(), Self::quorum_json(&self.quorum)),
            ("ok".into(), Json::Bool(self.ok())),
        ])
    }
}

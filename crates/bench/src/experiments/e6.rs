//! E6 — the price of arbitrary-fault tolerance: crash vs. transformed.

use ftm_core::config::ProtocolConfig;
use ftm_core::crash::HrCounts;
use ftm_core::quorum::default_cert_capacity;
use ftm_core::rounds::hr::HurfinRaynal;
use ftm_faults::{AttackRun, NetworkProfile};
use ftm_sim::{Duration, VirtualTime};

use crate::experiments::common::{run_crash, Outcome};
use crate::report::{mean, ratio, Table};

const SEEDS: u64 = 10;

/// Delays drawn from [20, 60] until a GST at 8 000, capped at 30 after.
const CHURN: NetworkProfile = NetworkProfile {
    label: "churn",
    min_delay: Duration::of(20),
    max_delay: Duration::of(60),
    gst: Some(VirtualTime::at(8_000)),
    post_gst_max_delay: Duration::of(30),
    max_rounds: None,
};

/// Runs `run` with nobody attacking and reads its figures, judged with
/// nobody marked faulty.
fn honest(run: &AttackRun) -> Outcome {
    let report = run.run(None);
    Outcome::of(&report, run.config.n, run.coalition_verdict(&[], &report))
}

fn means(outcomes: &[Outcome]) -> (String, String, String, String) {
    let msgs: Vec<u64> = outcomes.iter().map(|o| o.messages).collect();
    let bytes: Vec<u64> = outcomes.iter().map(|o| o.bytes).collect();
    let lat: Vec<u64> = outcomes.iter().map(|o| o.latency).collect();
    // bytes/msg as the ratio of totals — the same integer-ratio figure the
    // bench JSON reports, no per-run float division.
    let per = ratio(bytes.iter().sum(), msgs.iter().sum());
    (mean(&msgs), mean(&bytes), per, mean(&lat))
}

/// Runs E6 and renders its markdown section.
pub fn run() -> String {
    let mut out = String::from(
        "## E6 — The price of the transformation (overhead table)\n\n\
         All-honest runs, 10 seeds per row, identical network conditions.\n\
         The transformed protocol pays for (i) the INIT exchange, (ii) RSA\n\
         signatures on every message, and (iii) certificates (sets of signed\n\
         cores) attached to every vote. The crash protocol's messages are\n\
         9–17 bytes; heartbeats are included in its totals.\n\n",
    );
    let mut t = Table::new([
        "n",
        "protocol",
        "mean msgs",
        "mean bytes",
        "bytes/msg",
        "mean decision time",
    ]);
    for n in [4usize, 5, 7, 9] {
        let crash: Vec<Outcome> = (0..SEEDS)
            .map(|s| run_crash::<HurfinRaynal<HrCounts>>(n, s, &[], None))
            .collect();
        let (m, b, per, lat) = means(&crash);
        t.row([n.to_string(), "crash (Fig. 2)".into(), m, b, per, lat]);

        let byz: Vec<Outcome> = (0..SEEDS)
            .map(|s| honest(&AttackRun::new(n, default_cert_capacity(n), s, 0)))
            .collect();
        let (m, b, per, lat) = means(&byz);
        t.row([n.to_string(), "transformed (Fig. 3)".into(), m, b, per, lat]);
    }
    out.push_str(&t.to_string());

    out.push_str(
        "\n### Certificate growth under round churn\n\n\
         Message delays drawn from [20, 60] with an increasingly aggressive\n\
         muteness timeout: wrongful suspicions force extra rounds, and\n\
         certificates carry the per-round vote sets — bytes/message stays\n\
         bounded with contention (signed cores never nest; see the design\n\
         note in `ftm-certify`), and falls: a NEXT carries only the votes its\n\
         rule reads, fewer bytes than a CURRENT's INIT backing.\n\n",
    );
    let mut t = Table::new(["muteness timeout", "mean rounds", "mean msgs", "bytes/msg"]);
    for timeout in [400u64, 150, 60, 30] {
        let outcomes: Vec<Outcome> = (0..SEEDS)
            .map(|s| {
                let config = ProtocolConfig::new(4, 1)
                    .seed(s)
                    .muteness_timeout(Duration::of(timeout))
                    .poll_interval(Duration::of(10));
                honest(&AttackRun::with_config(config, s, 0).network(CHURN))
            })
            .collect();
        let rounds: Vec<u64> = outcomes.iter().map(|o| o.rounds as u64).collect();
        let (m, _b, per, _lat) = means(&outcomes);
        t.row([format!("Δ={timeout}"), mean(&rounds), m, per]);
    }
    out.push_str(&t.to_string());
    out.push('\n');
    out
}

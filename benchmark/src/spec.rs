//! What each workload sends: its queries, its update count, and the seeds
//! derived from the workload seed.

use mpds_service::engine::{Algo, QueryRequest};

/// Result count of every query.
pub const K: usize = 3;
/// Minimum NDS size of every NDS query.
pub const LM: usize = 2;
/// The datasets the workloads query, built during every set-up.
pub const DATASETS: [&str; 2] = ["karate", "lastfm"];
/// The durable dataset a traced run's private engine mutates: a copy of
/// karate.
pub const CHURN: &str = "churn";

/// Operation counts per second of `--seconds`, sized on a 2-core x86-64 box
/// (release build) so that a run takes about `--seconds`. Counts are fixed
/// per run, never durations, so every build answers the same queries and
/// applies the same updates (whose cost grows with the dataset).
const MPDS_COLD_QUERIES_PER_S: f64 = 15.0;
const MPDS_CAPPED_QUERIES_PER_S: f64 = 22.0;
const NDS_COLD_QUERIES_PER_S: f64 = 6.0;
const TRACED_UPDATES_PER_S: f64 = 40.0;
/// A traced query also pays for its in-process replays (about twice its
/// own time) and runs on one client; traced runs send this share of the
/// untraced queries so that they take about as long.
const TRACED_QUERY_SHARE: f64 = 0.15;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MpdsCold,
    MpdsCapped,
    NdsCold,
}

impl Workload {
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "mpds-cold" => Ok(Workload::MpdsCold),
            "mpds-capped" => Ok(Workload::MpdsCapped),
            "nds-cold" => Ok(Workload::NdsCold),
            other => Err(format!("unknown workload {other:?}")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::MpdsCold => "mpds-cold",
            Workload::MpdsCapped => "mpds-capped",
            Workload::NdsCold => "nds-cold",
        }
    }

    /// The dataset the workload queries.
    pub fn dataset(self) -> &'static str {
        match self {
            Workload::MpdsCold => "karate",
            Workload::MpdsCapped | Workload::NdsCold => "lastfm",
        }
    }

    /// Closed-loop query clients of an untraced run. Heavy-tailed densest
    /// families need twice the MPDS queries per second for steady
    /// quantiles; traced runs use one client so that replay timings do not
    /// contend with a second query.
    pub fn clients(self, trace: bool) -> usize {
        match self {
            Workload::MpdsCold | Workload::MpdsCapped if !trace => 2,
            _ => 1,
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// SplitMix64 of `(seed, i)`: independent per-request seeds derived from
/// the workload seed.
pub fn derive(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One query as the client sends it.
#[derive(Clone)]
pub struct QuerySpec {
    pub dataset: &'static str,
    pub algo: Algo,
    pub theta: usize,
    pub seed: u64,
}

impl QuerySpec {
    pub fn path(&self) -> String {
        let lm = match self.algo {
            Algo::Mpds => String::new(),
            Algo::Nds => format!("&lm={LM}"),
        };
        format!(
            "/query?dataset={}&algo={}&notion=edge&theta={}&k={K}{lm}&seed={}",
            self.dataset,
            self.algo.as_str(),
            self.theta,
            self.seed
        )
    }

    /// The same query as the engine parses it.
    pub fn request(&self) -> QueryRequest {
        let mut r = QueryRequest::new(self.dataset);
        r.algo = self.algo;
        r.theta = self.theta;
        r.k = K;
        r.lm = LM;
        r.seed = self.seed;
        r
    }
}

fn count(args: &Args, per_s: f64) -> usize {
    (args.seconds as f64 * per_s).round().max(1.0) as usize
}

/// The cold queries of a run, in order; every one has a fresh seed.
pub fn cold_specs(args: &Args) -> Vec<QuerySpec> {
    let (algo, theta, per_s) = match args.workload {
        Workload::MpdsCold => (Algo::Mpds, 64, MPDS_COLD_QUERIES_PER_S),
        // One world per query, so each capped family is its own request and
        // the latency quantiles do not hinge on how many capped worlds a
        // query happened to draw.
        Workload::MpdsCapped => (Algo::Mpds, 1, MPDS_CAPPED_QUERIES_PER_S),
        Workload::NdsCold => (Algo::Nds, 64, NDS_COLD_QUERIES_PER_S),
    };
    let share = if args.trace { TRACED_QUERY_SHARE } else { 1.0 };
    (0..count(args, per_s * share))
        .map(|i| QuerySpec {
            dataset: args.workload.dataset(),
            algo,
            theta,
            seed: derive(args.seed, i as u64),
        })
        .collect()
}

/// Durable update batches a traced run applies to its private engine.
pub fn update_count(args: &Args) -> usize {
    count(args, TRACED_UPDATES_PER_S)
}

//! Turns what a run measured into its named metrics and the result line.

use crate::phases::{EngineCounters, Lane};

/// Everything a run measured, before it becomes metrics.
pub struct Measured {
    pub lane: Lane,
    pub setup_s: Vec<f64>,
    pub build_ms: Vec<f64>,
    /// Wall time of the timed query phase.
    pub query_elapsed_s: f64,
    /// `/metrics` counters before and after the timed query phase.
    pub counters: (EngineCounters, EngineCounters),
    pub wal_bytes_per_update: f64,
    pub checkpoints: u64,
}

pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Linear-interpolated percentile; 0 when there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Peak resident set of this process in MB (VmHWM).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The metrics a user of the service sees. Each is non-zero on every
/// workload: success and exactness are reported as the shares that went
/// right (`ok_frac` = 1 − failed share, `exact_frac` = 1 − truncated share).
pub fn end_to_end(m: &Measured) -> Metrics {
    let l = &m.lane;
    let n = l.query_ms.len() as f64;
    let elapsed = m.query_elapsed_s;
    vec![
        ("setup_s", percentile(&m.setup_s, 0.5), "s"),
        ("query_p50_ms", percentile(&l.query_ms, 0.5), "ms"),
        ("query_p90_ms", percentile(&l.query_ms, 0.9), "ms"),
        ("query_per_s", ratio(n, elapsed), "1/s"),
        ("worlds_per_s", ratio(l.worlds as f64, elapsed), "1/s"),
        ("exact_frac", 1.0 - ratio(l.truncated as f64, n), "fraction"),
        (
            "ok_frac",
            1.0 - ratio(l.tally.failed as f64, l.tally.attempted as f64),
            "fraction",
        ),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// The per-layer metrics of a traced run, from the benchmark's own spans.
/// Layers a workload does not exercise read 0.
pub fn per_layer(m: &Measured) -> Metrics {
    let l = &m.lane;
    let t = l.tr.totals();
    let us = |name: &str| t.get(name).map_or(0.0, |x| x.total_us());
    let count = |name: &str| t.get(name).map_or(0, |x| x.count) as f64;
    let r = &l.replay;
    let worlds = r.worlds as f64;
    let queries = count("core.run");
    let mut sizes: Vec<f64> = r.family_sizes.iter().map(|&s| s as f64).collect();
    sizes.sort_by(f64::total_cmp);
    let solver = us("densest.all_densest") + us("densest.max_sized");
    let served = us("http.request");
    let hit_us = ratio(us("engine.hit"), count("engine.hit"));
    // Served latency minus the replayed self times of the layers below HTTP.
    let attributed = us("sampling.world")
        + solver
        + us("core.accumulate")
        + us("core.finalize")
        + us("itemset.mine")
        + us("engine.render");
    let unattributed = ratio(served - attributed, served);
    let (c0, c1) = m.counters;
    let (hits, misses) = (c1.hits - c0.hits, c1.misses - c0.misses);
    vec![
        (
            "sampling.world_us",
            ratio(us("sampling.world"), worlds),
            "us",
        ),
        (
            "densest.instances_us",
            ratio(us("densest.instances"), worlds),
            "us",
        ),
        ("densest.peel_us", ratio(us("densest.peel"), worlds), "us"),
        (
            "densest.flow_us",
            ratio(
                us("densest.max_density") - us("densest.instances") - us("densest.peel"),
                worlds,
            ),
            "us",
        ),
        (
            "densest.enumerate_us",
            ratio(
                us("densest.all_densest") - us("densest.max_density"),
                count("densest.all_densest"),
            ),
            "us",
        ),
        (
            "densest.max_sized_us",
            ratio(us("densest.max_sized"), count("densest.max_sized")),
            "us",
        ),
        ("densest.family_size_p50", percentile(&sizes, 0.5), "count"),
        (
            "densest.family_size_max",
            sizes.last().copied().unwrap_or(0.0),
            "count",
        ),
        (
            "densest.truncated_worlds",
            r.truncated_worlds as f64,
            "count",
        ),
        (
            "densest.core_keep_ratio",
            ratio(r.core_kept as f64, r.non_isolated as f64),
            "ratio",
        ),
        ("core.run_ms", ratio(us("core.run"), queries) / 1e3, "ms"),
        (
            "core.accumulate_finalize_ms",
            ratio(
                us("core.run") - us("sampling.world") - solver - us("itemset.mine"),
                queries,
            ) / 1e3,
            "ms",
        ),
        (
            "core.candidate_dedupe_ratio",
            ratio(r.distinct_sets as f64, r.emitted_sets as f64),
            "ratio",
        ),
        (
            "itemset.mine_ms",
            ratio(us("itemset.mine"), queries) / 1e3,
            "ms",
        ),
        (
            "engine.render_us",
            ratio(us("engine.render"), queries),
            "us",
        ),
        (
            "engine.miss_overhead_ms",
            ratio(served - us("core.run") - us("engine.render"), queries) / 1e3,
            "ms",
        ),
        ("engine.hit_us", hit_us, "us"),
        (
            "cache.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
            "ratio",
        ),
        (
            "engine.computed",
            (c1.computed - c0.computed) as f64,
            "count",
        ),
        (
            "http.overhead_us",
            ratio(us("http.hit"), count("http.hit")) - hit_us,
            "us",
        ),
        (
            "http.connects_per_request",
            ratio(l.client.connects as f64, l.client.requests as f64),
            "ratio",
        ),
        ("registry.build_ms", percentile(&m.build_ms, 0.5), "ms"),
        (
            "registry.apply_update_us",
            ratio(us("registry.apply_update"), count("registry.apply_update")),
            "us",
        ),
        (
            "store.wal_bytes_per_update",
            m.wal_bytes_per_update,
            "bytes",
        ),
        ("store.checkpoints", m.checkpoints as f64, "count"),
        ("trace.unattributed_frac", unattributed, "fraction"),
    ]
}

/// The result line: `correct`, `attempted`, `failed` and the metrics, each
/// with its value and unit.
pub fn render(lane: &Lane, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        lane.tally.failed == 0,
        lane.tally.attempted.max(1),
        lane.tally.failed,
        body.join(",")
    )
}

//! Observability overhead gate: a disabled `mpds_obs::Recorder` attached to
//! a query's [`RunControl`] must cost < 2% of end-to-end estimator
//! throughput.
//!
//! ```text
//! cargo run --release -p mpds-bench --bin obs_overhead -- \
//!     [--rounds N] [--batch N] [--check]
//! ```
//!
//! The instrumented pipeline calls `control.recorder()` and opens a span at
//! every stage boundary; with the recorder disabled (the default in every
//! unprofiled request) the span guard is inert and takes no clock readings.
//! This gate measures that claim: it runs the same `Query::mpds` workload
//! with **no recorder** and with a **disabled recorder** attached, in
//! interleaved rounds (so thermal/scheduler drift hits both variants
//! equally), takes the best round per variant, and reports the throughput
//! ratio `disabled / bare`. `--check` (the CI `harness-smoke` job) fails the
//! process when the ratio drops below 0.98 — i.e. when merely *carrying*
//! the disabled recorder costs 2% or more.

use densest::DensityNotion;
use mpds::api::Query;
use mpds::control::RunControl;
use mpds_obs::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;
use ugraph::{generators, UncertainGraph};

/// The measured workload: one full MPDS estimator run (sampling, per-world
/// densest solves, accumulation, ranking) on a degree-skewed graph.
fn workload() -> UncertainGraph {
    let mut rng = StdRng::seed_from_u64(0x0b5);
    let g = generators::barabasi_albert(300, 5, &mut rng);
    let probs: Vec<f64> = (0..g.num_edges())
        .map(|_| rng.gen_range(0.1..0.9))
        .collect();
    UncertainGraph::new(g, probs)
}

/// Times `batch` full runs under `control`, returning elapsed seconds.
fn time_batch(g: &UncertainGraph, control: &RunControl, batch: usize) -> f64 {
    let start = Instant::now();
    for i in 0..batch {
        let run = Query::mpds(DensityNotion::Edge)
            .theta(32)
            .k(3)
            .seed(1000 + i as u64)
            .control(control.clone())
            .run(g)
            .expect("estimator run");
        std::hint::black_box(run.top_k.len());
    }
    start.elapsed().as_secs_f64()
}

fn main() {
    let mut rounds = 7usize;
    let mut batch = 6usize;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--rounds" => {
                rounds = args
                    .next()
                    .expect("--rounds needs a value")
                    .parse()
                    .expect("bad --rounds")
            }
            "--batch" => {
                batch = args
                    .next()
                    .expect("--batch needs a value")
                    .parse()
                    .expect("bad --batch")
            }
            "--check" => check = true,
            other => panic!("unknown argument {other}"),
        }
    }

    let g = workload();
    let bare = RunControl::unbounded();
    let disabled = RunControl::unbounded().with_recorder(Arc::new(Recorder::new(false)));

    // Warm-up: touch both paths once, untimed.
    time_batch(&g, &bare, 1);
    time_batch(&g, &disabled, 1);

    // Interleaved best-of rounds: the minimum is the least-perturbed
    // observation of each variant's true cost.
    let mut best_bare = f64::INFINITY;
    let mut best_disabled = f64::INFINITY;
    for round in 0..rounds {
        let b = time_batch(&g, &bare, batch);
        let d = time_batch(&g, &disabled, batch);
        best_bare = best_bare.min(b);
        best_disabled = best_disabled.min(d);
        eprintln!("round {round}: bare {b:.4}s, disabled-recorder {d:.4}s");
    }

    let bare_ops = batch as f64 / best_bare;
    let disabled_ops = batch as f64 / best_disabled;
    let ratio = disabled_ops / bare_ops;
    println!(
        "{{\"schema\":\"mpds-bench/obs_overhead/v1\",\"bare_runs_per_sec\":{bare_ops:.3},\
         \"disabled_recorder_runs_per_sec\":{disabled_ops:.3},\"throughput_ratio\":{ratio:.4},\
         \"floor\":0.98}}"
    );

    if check && ratio < 0.98 {
        eprintln!(
            "overhead gate FAILED: disabled-recorder throughput ratio {ratio:.4} < 0.98 \
             (carrying the recorder costs >2%)"
        );
        std::process::exit(1);
    }
    if check {
        println!("overhead gate: OK (ratio {ratio:.4} >= 0.98)");
    }
}

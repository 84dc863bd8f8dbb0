//! The repository's end-to-end benchmark.
//!
//! One process binds an in-process `mpds_service::Server` on loopback and
//! drives it over HTTP with closed-loop clients: each caller waits for its
//! answer before it sends the next request. A run prints one JSON line, the
//! end-to-end metrics with `--trace 0` and the per-layer metrics with
//! `--trace 1`. `README.md` in this directory describes the workloads, the
//! metrics and how to run it.

mod client;
mod phases;
mod replay;
mod report;
mod spec;
mod trace;

use phases::{Lane, Stack};
use report::Measured;
use spec::{Args, Workload};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use trace::Tracer;

const USAGE: &str = "usage: mpds-benchmark --workload <mpds-cold|mpds-capped|nds-cold> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Cold queries whose cached copy a traced run re-reads.
const PROBES: usize = 32;

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Sets up `SETUPS` times from fresh state, keeping the last stack.
/// Returns it with each set-up's wall time in s and build time in ms.
fn set_up_timed(tr: &mut Tracer) -> Result<(Stack, Vec<f64>, Vec<f64>), String> {
    let mut kept = None;
    let (mut setup_s, mut build_ms) = (Vec::new(), Vec::new());
    for _ in 0..SETUPS {
        // The previous stack is torn down before the next one is timed.
        drop(kept.take());
        let t = Instant::now();
        let (stack, build) = phases::set_up(tr)?;
        setup_s.push(t.elapsed().as_secs_f64());
        build_ms.push(build);
        kept = Some(stack);
    }
    Ok((kept.expect("SETUPS > 0"), setup_s, build_ms))
}

fn run(args: &Args, scratch: &Path) -> Result<Measured, String> {
    let mut setup_tr = Tracer::new(args.trace);
    let (stack, setup_s, build_ms) = set_up_timed(&mut setup_tr)?;
    let mut meta = client::Client::new(stack.addr());
    let mut timed = Lane::new(stack.addr(), args.trace);
    timed.tr.absorb(setup_tr);
    let specs = spec::cold_specs(args);
    let before = phases::engine_counters(&mut meta)?;
    let started = Instant::now();
    let next = AtomicUsize::new(0);
    let lanes: Vec<Lane> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.workload.clients(args.trace))
            .map(|_| {
                scope.spawn(|| {
                    let mut lane = Lane::new(stack.addr(), args.trace);
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(spec) = specs.get(i) else { break };
                        let keep = args.trace && i + PROBES >= specs.len();
                        phases::cold_query(args, &stack, &mut lane, spec, i, keep);
                    }
                    lane
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query client panicked"))
            .collect()
    });
    let query_elapsed_s = started.elapsed().as_secs_f64();
    lanes.into_iter().for_each(|l| timed.absorb(l));
    let after = phases::engine_counters(&mut meta)?;

    // Every cache lookup of the timed phase is accounted for: each cold
    // query is one miss, and nothing else touched the cache.
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let sent = timed.query_ms.len() as u64;
    timed.tally.record(if (hits, misses) == (0, sent) {
        Ok(())
    } else {
        Err(format!(
            "/metrics counted {hits} hits and {misses} misses for {sent} cold queries"
        ))
    });

    let mut store = (0.0, 0);
    if args.trace {
        phases::probe_cached(&stack, &mut timed, &specs);
        drop(stack);
        store = phases::replay_updates(scratch, spec::update_count(args), &mut timed)?;
    }
    Ok(Measured {
        lane: timed,
        setup_s,
        build_ms,
        query_elapsed_s,
        counters: (before, after),
        wal_bytes_per_update: store.0,
        checkpoints: store.1,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // A traced run's durable data directory, inside the working directory.
    let scratch = PathBuf::from(".bench_tmp").join(std::process::id().to_string());
    let outcome = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let m = match outcome {
        Ok(m) => m,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    };
    let metrics = if args.trace {
        let path = PathBuf::from(".bench_trace").join(format!(
            "{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = m.lane.tr.write_jsonl(&path) {
            eprintln!("writing {}: {e}", path.display());
        }
        report::per_layer(&m)
    } else {
        report::end_to_end(&m)
    };
    let l = &m.lane;
    eprintln!(
        "{} seed {}: {} queries in {:.2} s, {} operations, {} failed",
        args.workload.name(),
        args.seed,
        l.query_ms.len(),
        m.query_elapsed_s,
        l.tally.attempted,
        l.tally.failed
    );
    println!("{}", report::render(l, &metrics));
    if l.tally.failed > 0 {
        std::process::exit(1);
    }
}

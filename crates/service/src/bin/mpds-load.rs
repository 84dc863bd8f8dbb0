//! `mpds-load`: runs the seven loopback load scenarios of
//! [`mpds_service::harness`] against servers it starts itself, writes one
//! report, and exits non-zero on any violation.
//!
//! ```text
//! mpds-load [--out PATH]        (default target/mpds-load.json)
//! ```
//!
//! Each scenario gets a fresh in-process server (4 workers, queue 256,
//! cache 512; `mutable` for churn) on an ephemeral loopback port, except
//! `flight`, which binds its own recorder-enabled and recorder-disabled
//! pair, and `kill_recover`, which needs a real SIGKILL and so spawns the
//! `mpds-cli` binary built beside this one (`cargo build --release -p
//! mpds-service` builds both).

use mpds_service::harness::{self, Load, Report};
use mpds_service::{EngineConfig, GraphRegistry, QueryEngine, Server, ServerConfig};
use std::net::{SocketAddr, TcpListener};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Where a scenario's server comes from.
#[derive(Clone, Copy)]
enum Serve {
    /// A fresh in-process server (`true`: mutable).
    InProcess(bool),
    /// The scenario binds its own servers.
    Own,
    /// The scenario spawns a server on a free loopback port.
    FreePort,
}

type Scenario = fn(&Load, &mut Report);

/// Every scenario with its server and sizes: `(name, run, serve, clients,
/// per_client, theta)`, all on karate with k = 3.
#[rustfmt::skip]
const SCENARIOS: [(&str, Scenario, Serve, usize, usize, usize); 7] = [
    ("read",         harness::read,         Serve::InProcess(false), 32, 25,   64),
    ("churn",        harness::churn,        Serve::InProcess(true),   8,  4,   64),
    ("batch",        harness::batch,        Serve::InProcess(false),  1,  4,  256),
    ("anytime",      harness::anytime,      Serve::InProcess(false),  8,  2, 1024),
    ("obs",          harness::obs,          Serve::InProcess(false),  8,  4,   64),
    ("flight",       harness::flight,       Serve::Own,               8,  8,   64),
    ("kill_recover", harness::kill_recover, Serve::FreePort,          1,  1,   64),
];

fn bind(mutable: bool) -> std::io::Result<Server> {
    let engine = Arc::new(QueryEngine::new(
        GraphRegistry::with_builtins(),
        &EngineConfig {
            cache_capacity: 512,
            cache_shards: 8,
        },
    ));
    let cfg = ServerConfig {
        threads: 4,
        queue_capacity: 256,
        mutable,
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", engine, &cfg)
}

/// The scenario's server (if this binary owns it) and the address to load.
fn target(serve: Serve) -> std::io::Result<(Option<Server>, SocketAddr)> {
    match serve {
        Serve::InProcess(mutable) => {
            let server = bind(mutable)?;
            let addr = server.local_addr();
            Ok((Some(server), addr))
        }
        Serve::Own => Ok((None, SocketAddr::from(([127, 0, 0, 1], 0)))),
        Serve::FreePort => Ok((None, TcpListener::bind("127.0.0.1:0")?.local_addr()?)),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = match args.as_slice() {
        [] => "target/mpds-load.json".to_string(),
        [flag, path] if flag == "--out" => path.clone(),
        _ => {
            eprintln!("usage: mpds-load [--out PATH]");
            return ExitCode::FAILURE;
        }
    };

    let mut report = Report::default();
    for (name, run, serve, clients, per_client, theta) in SCENARIOS {
        let (phases, figures, violations) = (
            report.phases.len(),
            report.figures.len(),
            report.violations.len(),
        );
        let started = Instant::now();
        match target(serve) {
            Ok((server, addr)) => {
                let load = Load {
                    addr,
                    clients,
                    per_client,
                    dataset: "karate".to_string(),
                    theta,
                    k: 3,
                };
                run(&load, &mut report);
                drop(server);
            }
            Err(e) => report.violations.push(format!("{name}: bind: {e}")),
        }
        println!("{name} ({:.1} s)", started.elapsed().as_secs_f64());
        for p in &report.phases[phases..] {
            println!(
                "  {:<24} {:>5} reqs, {:>3} errors, {:>9.1} req/s, p50 {:>8.3} ms, p99 {:>8.3} ms",
                p.name, p.requests, p.errors, p.throughput_rps, p.p50_ms, p.p99_ms
            );
        }
        for (figure, value) in &report.figures[figures..] {
            println!("  {figure:<40} {value:.3}");
        }
        for v in &report.violations[violations..] {
            eprintln!("violation: {v}");
        }
    }

    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&out, harness::render(&report)) {
        eprintln!("error: write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    if report.violations.is_empty() {
        println!("check: OK");
        ExitCode::SUCCESS
    } else {
        eprintln!("check: FAILED ({} violations)", report.violations.len());
        ExitCode::FAILURE
    }
}

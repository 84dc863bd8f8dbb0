//! End-to-end durability tests: kill a durable server mid-churn, restart it
//! from the same `--data-dir`, and hold it to the uninterrupted twin's
//! bytes.
//!
//! The crash is simulated by dropping the [`Server`] (and its registry)
//! without any checkpoint or graceful flush — with fsync-on-commit the WAL
//! already contains every acknowledged batch, so a drop and a SIGKILL leave
//! the same on-disk state. The real-SIGKILL path is exercised by
//! `mpds-load`'s `kill_recover` scenario.

use mpds_service::harness::{churn_batch, http_get, http_post, Exchange};
use mpds_service::{EngineConfig, GraphRegistry, QueryEngine, Server, ServerConfig};
use mpds_store::{Store, SyncPolicy};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

const QUERY: &str = "/query?dataset=karate&theta=48&k=3&seed=7";
const BATCH_EDGES: usize = 6;

fn start_server(data_dir: Option<&Path>, mutable: bool) -> Server {
    let mut registry = GraphRegistry::with_builtins();
    if let Some(dir) = data_dir {
        registry.set_store(Store::create(dir, SyncPolicy::Commit).expect("create store"));
        // The serve command's boot sequence: recover every dataset with
        // on-disk state before the listener accepts traffic.
        for (name, outcome) in registry.recover_on_boot() {
            outcome.unwrap_or_else(|e| panic!("recover {name:?}: {e}"));
        }
    }
    let engine = Arc::new(QueryEngine::new(registry, &EngineConfig::default()));
    let cfg = ServerConfig {
        mutable,
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", engine, &cfg).expect("bind ephemeral port")
}

fn get(server: &Server, path: &str) -> Exchange {
    http_get(server.local_addr(), path, Duration::from_secs(60)).expect("http_get")
}

fn post(server: &Server, path: &str, body: &str) -> Exchange {
    http_post(
        server.local_addr(),
        path,
        body.as_bytes(),
        Duration::from_secs(60),
    )
    .expect("http_post")
}

/// Applies churn round `round` to `server`, asserting the acknowledged
/// generation.
fn apply(server: &Server, round: usize, expect_generation: u64) {
    let e = post(
        server,
        "/update?dataset=karate",
        &churn_batch(round, BATCH_EDGES),
    );
    assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
    let body = String::from_utf8_lossy(&e.body);
    assert!(
        body.contains(&format!("\"generation\":{expect_generation}")),
        "round {round}: expected generation {expect_generation}: {body}"
    );
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mpds-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn kill_and_recover_matches_uninterrupted_twin() {
    let dir = temp_dir("twin");

    // The twin never crashes and never persists — the reference run.
    let twin = start_server(None, true);
    // Server A persists every acknowledged batch under `dir`.
    let server_a = start_server(Some(&dir), true);

    for round in 0..3 {
        apply(&server_a, round, round as u64 + 1);
        apply(&twin, round, round as u64 + 1);
    }
    // Both sides answer the canonical query identically before the crash
    // (same base graph, same batches, deterministic estimator).
    let read_a = get(&server_a, QUERY);
    let read_twin = get(&twin, QUERY);
    assert_eq!(read_a.status, 200);
    assert_eq!(read_a.body, read_twin.body, "pre-crash twin divergence");

    // Crash: no checkpoint was ever taken, so recovery is WAL-only.
    drop(server_a);

    let server_b = start_server(Some(&dir), true);
    let listing = String::from_utf8(get(&server_b, "/datasets").body).unwrap();
    assert!(listing.contains("\"generation\":3"), "{listing}");
    assert!(listing.contains("\"replayed_records\":3"), "{listing}");
    let read_b = get(&server_b, QUERY);
    assert_eq!(
        read_b.body, read_twin.body,
        "recovered server must serve byte-identical query responses"
    );

    // Checkpoint, then keep churning on both sides. Generation continuity:
    // the first post-restart ack is exactly pre-crash + 1.
    let ckpt = post(&server_b, "/admin/checkpoint?dataset=karate", "");
    assert_eq!(ckpt.status, 200, "{}", String::from_utf8_lossy(&ckpt.body));
    let ckpt_body = String::from_utf8_lossy(&ckpt.body);
    assert!(ckpt_body.contains("\"generation\":3"), "{ckpt_body}");
    assert!(ckpt_body.contains("\"wal_records\":0"), "{ckpt_body}");
    for round in 3..5 {
        apply(&server_b, round, round as u64 + 1);
        apply(&twin, round, round as u64 + 1);
    }

    // Second crash: recovery is now checkpoint + WAL tail.
    drop(server_b);
    let server_c = start_server(Some(&dir), true);
    let listing = String::from_utf8(get(&server_c, "/datasets").body).unwrap();
    assert!(listing.contains("\"generation\":5"), "{listing}");
    assert!(
        listing.contains("\"last_checkpoint_generation\":3"),
        "{listing}"
    );
    assert!(listing.contains("\"replayed_records\":2"), "{listing}");
    let read_c = get(&server_c, QUERY);
    let read_twin = get(&twin, QUERY);
    assert_eq!(
        read_c.body, read_twin.body,
        "checkpoint+tail recovery must serve byte-identical query responses"
    );

    // And the recovered server keeps accepting updates at the next
    // generation.
    apply(&server_c, 5, 6);

    drop(server_c);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_endpoint_is_gated() {
    // Immutable servers refuse the admin endpoint outright.
    let server = start_server(None, false);
    let e = post(&server, "/admin/checkpoint?dataset=karate", "");
    assert_eq!(e.status, 403, "{}", String::from_utf8_lossy(&e.body));
    assert!(String::from_utf8_lossy(&e.body).contains("--mutable"));
    drop(server);

    // Mutable but non-durable: a clear 400 pointing at --data-dir.
    let server = start_server(None, true);
    let e = post(&server, "/admin/checkpoint?dataset=karate", "");
    assert_eq!(e.status, 400, "{}", String::from_utf8_lossy(&e.body));
    assert!(String::from_utf8_lossy(&e.body).contains("--data-dir"));
    // Missing dataset parameter.
    let e = post(&server, "/admin/checkpoint", "");
    assert_eq!(e.status, 400);
    drop(server);

    // Durable and mutable: the happy path, visible in /metrics.
    let dir = temp_dir("gate");
    let server = start_server(Some(&dir), true);
    apply(&server, 0, 1);
    let e = post(&server, "/admin/checkpoint?dataset=karate", "");
    assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
    let metrics = String::from_utf8(get(&server, "/metrics").body).unwrap();
    assert!(metrics.contains("\"checkpoints\":1"), "{metrics}");
    assert!(metrics.contains("\"wal_records\":0"), "{metrics}");
    assert!(
        metrics.contains("\"last_checkpoint_generation\":1"),
        "{metrics}"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_sync_interval_mode_still_recovers_acknowledged_batches_on_clean_drop() {
    // Interval mode coalesces fsyncs but still *writes* every record before
    // the ack; a clean process exit (drop flushes OS buffers via File drop +
    // the page cache) must still recover everything. This pins the weaker
    // guarantee the README documents for `--wal-sync interval`.
    let dir = temp_dir("interval");
    {
        let mut registry = GraphRegistry::with_builtins();
        registry.set_store(Store::create(&dir, SyncPolicy::Interval).expect("create store"));
        let engine = Arc::new(QueryEngine::new(registry, &EngineConfig::default()));
        let cfg = ServerConfig {
            mutable: true,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", engine, &cfg).expect("bind");
        apply(&server, 0, 1);
        apply(&server, 1, 2);
    }
    let server = start_server(Some(&dir), true);
    let listing = String::from_utf8(get(&server, "/datasets").body).unwrap();
    assert!(listing.contains("\"generation\":2"), "{listing}");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

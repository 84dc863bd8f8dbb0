//! End-to-end loopback tests: a real server on an ephemeral port, real HTTP
//! requests from client threads.

use mpds_service::harness::{
    self, http_get, http_post, wait_until_healthy, Exchange, Load, Report,
};
use mpds_service::{EngineConfig, GraphRegistry, QueryEngine, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn start_server(engine_cfg: &EngineConfig, server_cfg: &ServerConfig) -> Server {
    let engine = Arc::new(QueryEngine::new(GraphRegistry::with_builtins(), engine_cfg));
    Server::bind("127.0.0.1:0", engine, server_cfg).expect("bind ephemeral port")
}

fn get(server: &Server, path: &str) -> Exchange {
    http_get(server.local_addr(), path, Duration::from_secs(60)).expect("http_get")
}

#[test]
fn health_datasets_and_errors() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    wait_until_healthy(server.local_addr(), Duration::from_secs(5)).unwrap();

    let e = get(&server, "/healthz");
    assert_eq!(e.status, 200);
    assert_eq!(e.body, b"{\"status\":\"ok\"}");

    let e = get(&server, "/datasets");
    assert_eq!(e.status, 200);
    let text = String::from_utf8(e.body).unwrap();
    assert!(text.contains("\"name\":\"karate\""), "{text}");
    assert!(text.contains("\"name\":\"intel-lab\""), "{text}");

    // Forcing stats loads the dataset.
    let e = get(&server, "/dataset?name=karate");
    assert_eq!(e.status, 200);
    let text = String::from_utf8(e.body).unwrap();
    assert!(text.contains("\"nodes\":34"), "{text}");
    assert!(text.contains("\"edges\":78"), "{text}");

    assert_eq!(get(&server, "/nope").status, 404);
    assert_eq!(get(&server, "/dataset?name=ghost").status, 400);
    assert_eq!(get(&server, "/query?dataset=ghost").status, 400);
    assert_eq!(get(&server, "/query?dataset=karate&theta=0").status, 400);
    assert_eq!(get(&server, "/query?dataset=karate&bogus=1").status, 400);
    assert_eq!(
        get(&server, "/query?dataset=karate&theta=1&theta=2").status,
        400
    );
}

#[test]
fn identical_queries_return_identical_bytes_from_concurrent_clients() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let path = "/query?dataset=karate&theta=200&k=3&seed=9";

    let clients = 12;
    let bodies: Vec<Vec<u8>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let e = get(&server, path);
                    assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
                    e.body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for b in &bodies {
        assert_eq!(b, &bodies[0], "all responses must be bytewise identical");
    }
    // Sequential repeat is also identical (served from cache).
    let again = get(&server, path);
    assert_eq!(again.body, bodies[0]);

    // /metrics shows exactly one computation for the whole burst.
    let metrics = String::from_utf8(get(&server, "/metrics").body).unwrap();
    assert!(metrics.contains("\"computed\":1"), "{metrics}");
}

#[test]
fn timeout_parameter_maps_to_504() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let e = get(
        &server,
        "/query?dataset=karate&theta=1000000&seed=123456&timeout_ms=0",
    );
    assert_eq!(e.status, 504, "{}", String::from_utf8_lossy(&e.body));
    let text = String::from_utf8(e.body).unwrap();
    assert!(text.contains("deadline exceeded"), "{text}");
}

/// Connects, waits until every client of `connected` has connected, stays
/// silent for `hold`, then sends a GET and returns the response status. The
/// worker that dequeues this connection sits in its request read for the
/// whole of `hold`, so the test, not the CPU, decides how long that worker
/// is busy.
fn get_after_silence(server: &Server, path: &str, connected: &Barrier, hold: Duration) -> u16 {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set read timeout");
    connected.wait();
    std::thread::sleep(hold);
    let request = format!("GET {path} HTTP/1.1\r\nHost: loopback\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).expect("write");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    raw.split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {raw:?}"))
}

#[test]
fn saturated_bounded_queue_answers_503() {
    // 1 worker + queue bound 1. Every client connects, and only once all
    // have connected does the one-second silence before each query start:
    // the first accepted connection holds the worker in its request read,
    // the next waits in the one queue slot, and every further connection
    // must be turned away with 503 at the admission gate. A shed
    // connection gets its 503 once its request arrives (the rejection
    // drains the head first, for up to 2 s).
    let server = start_server(
        &EngineConfig::default(),
        &ServerConfig {
            threads: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
    );
    // Distinct seeds so nothing coalesces; karate at a small theta keeps
    // each served query cheap on any machine.
    let flood = 8;
    let connected = Barrier::new(flood);
    let hold = Duration::from_secs(1);
    let (server_ref, connected) = (&server, &connected);
    let results: Vec<u16> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..flood)
            .map(|i| {
                s.spawn(move || {
                    let path = format!("/query?dataset=karate&theta=8&k=3&seed={}", 500 + i);
                    get_after_silence(server_ref, &path, connected, hold)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let ok = results.iter().filter(|&&s| s == 200).count();
    let rejected = results.iter().filter(|&&s| s == 503).count();
    assert_eq!(
        ok + rejected,
        flood,
        "only 200 or 503 expected: {results:?}"
    );
    assert!(ok >= 1, "at least the first request must be served");
    assert!(
        rejected >= 1,
        "a saturated 1-worker/1-slot server must shed load: {results:?}"
    );
    let metrics = String::from_utf8(get(&server, "/metrics").body).unwrap();
    assert!(
        metrics.contains(&format!("\"rejected\":{rejected}")),
        "{metrics}"
    );
}

#[test]
fn harness_runs_clean_against_adequately_provisioned_server() {
    // A miniature of `mpds-load`'s read scenario: enough queue for the
    // client burst, 4 workers, cold + repeat phases, all invariants checked.
    let server = start_server(
        &EngineConfig {
            cache_capacity: 512,
            cache_shards: 8,
        },
        &ServerConfig {
            threads: 4,
            queue_capacity: 256,
            ..ServerConfig::default()
        },
    );
    let load = Load {
        addr: server.local_addr(),
        clients: 8,
        per_client: 5,
        theta: 32,
        ..Load::default()
    };
    let mut report = Report::default();
    harness::read(&load, &mut report);
    assert!(
        report.violations.is_empty(),
        "violations: {:?}",
        report.violations
    );
    assert_eq!(report.phase("read.cold").unwrap().requests, 8 * 5);
    assert_eq!(report.phase("read.repeat").unwrap().requests, 8 * 5);
    assert!(report.figure("read.repeat_cache_hit_rate").unwrap() > 0.9);
    let rendered = harness::render(&report);
    assert!(rendered.contains("\"schema\":\"mpds-service/load_report/v1\""));
}

#[test]
fn batch_bytes_match_sequential_queries_and_fill_the_cache() {
    // Two independent servers: `standalone` answers each member as its own
    // /query (its own full estimator run per member); `batched` answers the
    // same member set as one POST /batch over a shared world stream. The
    // member bodies must agree byte for byte across the two processes'
    // worth of state — the QuerySet determinism contract over real HTTP.
    let standalone = start_server(&EngineConfig::default(), &ServerConfig::default());
    let batched = start_server(&EngineConfig::default(), &ServerConfig::default());
    let member_path = |k: usize| format!("/query?dataset=karate&theta=100&k={k}&seed=31");

    let body = br#"{"dataset":"karate","theta":100,"seed":31,
        "members":[{"k":2},{"k":3},{"k":4}]}"#;
    let e = http_post(
        batched.local_addr(),
        "/batch",
        body,
        Duration::from_secs(60),
    )
    .unwrap();
    assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
    let envelope = String::from_utf8(e.body).unwrap();
    assert!(envelope.contains("\"members\":3"), "{envelope}");
    assert!(envelope.contains("\"computed\":3"), "{envelope}");
    assert!(
        envelope.contains("\"sources\":[\"MISS\",\"MISS\",\"MISS\"]"),
        "{envelope}"
    );

    for k in [2, 3, 4] {
        let seq = get(&standalone, &member_path(k));
        assert_eq!(seq.status, 200);
        let seq_body = String::from_utf8(seq.body).unwrap();
        assert!(
            envelope.contains(&seq_body),
            "batch member k={k} bytes differ from the standalone /query bytes:\n\
             standalone: {seq_body}\nenvelope: {envelope}"
        );
        // The batch populated the cache: the point query is a HIT with the
        // same bytes.
        let followup = get(&batched, &member_path(k));
        assert_eq!(followup.status, 200);
        assert_eq!(followup.x_cache.as_deref(), Some("HIT"), "k={k}");
        assert_eq!(String::from_utf8(followup.body).unwrap(), seq_body);
    }

    // One shared stream: the batch sampled theta worlds once, not three
    // times (the standalone server's counter shows the unamortized cost).
    let metrics = String::from_utf8(get(&batched, "/metrics").body).unwrap();
    assert!(metrics.contains("\"worlds_sampled\":100"), "{metrics}");
    assert!(metrics.contains("\"batches\":1"), "{metrics}");
    let metrics = String::from_utf8(get(&standalone, "/metrics").body).unwrap();
    assert!(metrics.contains("\"worlds_sampled\":300"), "{metrics}");

    // Protocol edges: GET /batch is 405, malformed bodies are 400.
    assert_eq!(get(&batched, "/batch").status, 405);
    let e = http_post(
        batched.local_addr(),
        "/batch",
        b"not json",
        Duration::from_secs(10),
    )
    .unwrap();
    assert_eq!(e.status, 400);
}

#[test]
fn diff_endpoint_reports_no_change_against_itself() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let e = get(&server, "/diff?dataset=karate&against=karate&theta=64&k=3");
    assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
    let text = String::from_utf8(e.body).unwrap();
    assert!(text.contains("\"dataset\":\"karate\",\"against\":\"karate\""));
    assert!(text.contains("\"unchanged\":true"), "{text}");
    let metrics = String::from_utf8(get(&server, "/metrics").body).unwrap();
    assert!(metrics.contains("\"diffs\":1"), "{metrics}");

    assert_eq!(get(&server, "/diff?dataset=karate").status, 400);
    assert_eq!(
        get(&server, "/diff?dataset=karate&against=ghost").status,
        400
    );
    assert_eq!(
        get(&server, "/diff?dataset=karate&against=karate&threads=2").status,
        400
    );
}

#[test]
fn batch_harness_runs_clean_and_measures_amortization() {
    // A miniature of `mpds-load`'s batch scenario: its invariants must hold
    // (zero non-2xx, ratio >= 2, follow-up HITs embedded in the envelope).
    let server = start_server(
        &EngineConfig {
            cache_capacity: 512,
            cache_shards: 8,
        },
        &ServerConfig {
            threads: 4,
            queue_capacity: 256,
            ..ServerConfig::default()
        },
    );
    let load = Load {
        addr: server.local_addr(),
        per_client: 2,
        theta: 64,
        ..Load::default()
    };
    let mut report = Report::default();
    harness::batch(&load, &mut report);
    assert!(
        report.violations.is_empty(),
        "violations: {:?}",
        report.violations
    );
    // Loopback is exact: 8 members standalone = 8 theta, batched = theta.
    let members = harness::BATCH_MEMBERS as f64;
    let figure = |name: &str| report.figure(&format!("batch.{name}")).unwrap();
    assert_eq!(figure("standalone_worlds_per_member"), 64.0);
    assert!((figure("batch_worlds_per_member") - 64.0 / members).abs() < 1e-9);
    assert!((figure("amortization_ratio") - members).abs() < 1e-9);
    assert_eq!(figure("followup_hit_rate"), 1.0);
    let rendered = harness::render(&report);
    assert!(rendered.contains("\"schema\":\"mpds-service/load_report/v1\""));
}

#[test]
fn anytime_budget_serves_200_then_refines_to_the_same_cache_key() {
    // The anytime contract over real HTTP: a budget-truncated query answers
    // 200 with a best-so-far body (never 504), and the background refinement
    // tier republishes a converged body under the same URL so a follow-up is
    // a cache HIT without the budget marker.
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let path = "/query?dataset=karate&theta=2000&k=3&seed=41&budget_ms=1";

    let e = get(&server, path);
    assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
    let text = String::from_utf8(e.body).unwrap();
    assert!(text.contains("\"stop_reason\":\"budget\""), "{text}");

    // Poll the identical URL (budget_ms is not part of the cache key) until
    // the refinement worker has swapped in the converged body.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    let refined = loop {
        let e = get(&server, path);
        assert_eq!(e.status, 200);
        let body = String::from_utf8(e.body).unwrap();
        if e.x_cache.as_deref() == Some("HIT") && !body.contains("\"stop_reason\":\"budget\"") {
            break body;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no refined body within the deadline; last: {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        refined.contains("\"stop_reason\":\"completed\""),
        "{refined}"
    );
    assert!(refined.contains("\"worlds_sampled\":2000"), "{refined}");
    let metrics = String::from_utf8(get(&server, "/metrics").body).unwrap();
    assert!(metrics.contains("\"refined\":1"), "{metrics}");

    // A stable-stop query converges early and says so in its stats block.
    let e = get(
        &server,
        "/query?dataset=karate&theta=3000&k=1&seed=7&stop=stable&window=64",
    );
    assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
    let text = String::from_utf8(e.body).unwrap();
    assert!(text.contains("\"stop\":\"stable\",\"window\":64"), "{text}");
    assert!(text.contains("\"stop_reason\":\"stable\""), "{text}");
    assert!(text.contains("\"converged_at\":"), "{text}");
}

#[test]
fn shutdown_cancels_inflight_queries() {
    let mut server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let addr = server.local_addr();
    // Launch a long query, give it a moment to start, then shut down: the
    // cooperative cancel must terminate it promptly with a 503 (not hang).
    let handle = std::thread::spawn(move || {
        http_get(
            addr,
            "/query?dataset=lastfm&theta=100000&seed=77",
            Duration::from_secs(60),
        )
    });
    std::thread::sleep(Duration::from_millis(300));
    let start = std::time::Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "shutdown must not wait for the full 100k-world query"
    );
    // A transport error is also acceptable: the worker may tear the
    // connection down mid-exchange.
    if let Ok(e) = handle.join().unwrap() {
        assert_eq!(e.status, 503, "{}", String::from_utf8_lossy(&e.body));
    }
}

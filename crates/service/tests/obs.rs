//! End-to-end observability tests: `?profile=1` cache neutrality, `/metrics`
//! content negotiation, refinement-queue drain, and access-log output — all
//! over real loopback HTTP.

use mpds_obs::scrape;
use mpds_service::harness::{self, http_get, http_get_accept, Exchange, Load, Report};
use mpds_service::{EngineConfig, GraphRegistry, QueryEngine, Server, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

fn start_server(engine_cfg: &EngineConfig, server_cfg: &ServerConfig) -> Server {
    let engine = Arc::new(QueryEngine::new(GraphRegistry::with_builtins(), engine_cfg));
    Server::bind("127.0.0.1:0", engine, server_cfg).expect("bind ephemeral port")
}

fn get(server: &Server, path: &str) -> Exchange {
    http_get(server.local_addr(), path, Duration::from_secs(60)).expect("http_get")
}

const STAGES: [&str; 6] = [
    "snapshot_resolve",
    "cache_probe",
    "world_materialize",
    "estimator_accumulate",
    "stable_tracker",
    "json_render",
];

#[test]
fn profile_block_rides_along_without_perturbing_cached_bytes() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let path = "/query?dataset=karate&theta=100&k=3&seed=17";

    // Cold profiled request: a MISS that computes, caches the *unprofiled*
    // bytes, and splices the stage breakdown into its own response only.
    let profiled = get(&server, &format!("{path}&profile=1"));
    assert_eq!(
        profiled.status,
        200,
        "{}",
        String::from_utf8_lossy(&profiled.body)
    );
    assert_eq!(profiled.x_cache.as_deref(), Some("MISS"));
    let profiled_body = String::from_utf8(profiled.body).unwrap();
    assert!(profiled_body.contains("\"profile\":{"), "{profiled_body}");
    assert!(profiled_body.contains("\"stages\":{"), "{profiled_body}");
    for stage in STAGES {
        assert!(
            profiled_body.contains(&format!("\"{stage}\":{{")),
            "missing stage {stage}: {profiled_body}"
        );
    }
    // The splice must still be valid JSON under the server's own parser.
    mpds_service::json::JsonValue::parse(&profiled_body).expect("profiled body parses");

    // The unprofiled re-issue is a cache HIT with no trace of the profile.
    let plain = get(&server, path);
    assert_eq!(plain.status, 200);
    assert_eq!(plain.x_cache.as_deref(), Some("HIT"));
    let plain_body = String::from_utf8(plain.body).unwrap();
    assert!(!plain_body.contains("profile"), "{plain_body}");
    // Splice contract: profiled bytes are the cached body minus its closing
    // brace, plus the appended profile object.
    assert!(
        profiled_body.starts_with(&plain_body[..plain_body.len() - 1]),
        "profiled body is not a suffix-splice of the cached body:\n\
         profiled: {profiled_body}\nplain: {plain_body}"
    );

    // A profiled re-issue is itself a HIT (profile is not part of the key)
    // and says so in its breakdown.
    let again = get(&server, &format!("{path}&profile=1"));
    assert_eq!(again.x_cache.as_deref(), Some("HIT"));
    let again_body = String::from_utf8(again.body).unwrap();
    assert!(
        again_body.contains("\"profile\":{\"source\":\"HIT\""),
        "{again_body}"
    );

    // Both profiled requests were counted, and their stage timings
    // aggregated into the Prometheus per-stage totals.
    let legacy = String::from_utf8(get(&server, "/metrics").body).unwrap();
    assert_eq!(scrape::json_uint(&legacy, "profiled"), Some(2), "{legacy}");
    let prom_text = {
        let e = http_get_accept(
            server.local_addr(),
            "/metrics",
            "text/plain",
            Duration::from_secs(10),
        )
        .unwrap();
        String::from_utf8(e.body).unwrap()
    };
    assert_eq!(
        scrape::prom_value(&prom_text, "mpds_profiled_requests_total", &[]),
        Some(2.0)
    );
    // The MISS ran the estimator: its accumulate stage must show up.
    let accumulate = scrape::prom_value(
        &prom_text,
        "mpds_stage_invocations_total",
        &[("stage", "estimator_accumulate")],
    );
    assert!(accumulate.is_some_and(|v| v >= 1.0), "{prom_text}");
}

#[test]
fn metrics_content_negotiation_selects_prometheus_text() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    // Seed one query so the request-duration family has samples.
    let e = get(&server, "/query?dataset=karate&theta=32&k=3&seed=5");
    assert_eq!(e.status, 200);

    // Default Accept (none at all): the legacy JSON body, byte-compatible
    // with what pre-PR8 scrapers key-scan.
    let legacy = get(&server, "/metrics");
    assert_eq!(legacy.status, 200);
    let legacy_body = String::from_utf8(legacy.body).unwrap();
    assert!(
        legacy_body.starts_with("{\"cache\":{\"hits\":"),
        "{legacy_body}"
    );
    assert!(scrape::json_uint(&legacy_body, "computed").is_some());

    // Accept: text/plain → Prometheus text exposition.
    let prom = http_get_accept(
        server.local_addr(),
        "/metrics",
        "text/plain",
        Duration::from_secs(10),
    )
    .unwrap();
    assert_eq!(prom.status, 200);
    let prom_body = String::from_utf8(prom.body).unwrap();
    assert!(prom_body.starts_with("# HELP "), "{prom_body}");
    assert!(
        prom_body.contains("# TYPE mpds_http_request_duration_microseconds histogram"),
        "{prom_body}"
    );

    // The query that just ran is reconstructible as an exact histogram
    // window: one 2xx /query observation across all 64 buckets.
    let hist = scrape::prom_histogram(
        &prom_body,
        "mpds_http_request_duration_microseconds",
        &[("endpoint", "query"), ("status", "2xx")],
    )
    .expect("query histogram present");
    assert_eq!(hist.count(), 1);
    assert!(hist.sum() > 0);

    // Scalar families mirror the legacy counters exactly.
    assert_eq!(
        scrape::prom_value(&prom_body, "mpds_queries_computed_total", &[]),
        scrape::json_uint(&legacy_body, "computed").map(|v| v as f64)
    );
    // A Prometheus-ish Accept string also negotiates.
    let prom2 = http_get_accept(
        server.local_addr(),
        "/metrics",
        "application/openmetrics-text;version=1.0.0",
        Duration::from_secs(10),
    )
    .unwrap();
    assert!(String::from_utf8(prom2.body)
        .unwrap()
        .starts_with("# HELP "));
}

#[test]
fn refine_queue_reports_depth_and_drains_to_zero() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    // A budget-truncated query enqueues a background refinement job.
    let e = get(
        &server,
        "/query?dataset=karate&theta=2000&k=3&seed=23&budget_ms=1",
    );
    assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
    assert!(String::from_utf8_lossy(&e.body).contains("\"stop_reason\":\"budget\""));

    // Poll the legacy body until the worker finishes: `refined` increments
    // and the queue-depth gauge returns to zero.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    let legacy = loop {
        let m = String::from_utf8(get(&server, "/metrics").body).unwrap();
        if scrape::json_uint(&m, "refined") == Some(1)
            && scrape::json_uint(&m, "refine_queue_depth") == Some(0)
        {
            break m;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "refinement did not drain within the deadline; last: {m}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(scrape::json_uint(&legacy, "refine_ok"), Some(1));
    assert_eq!(scrape::json_uint(&legacy, "refine_failed"), Some(0));

    // The Prometheus view agrees: one completed run, one latency
    // observation, drained gauge.
    let prom = http_get_accept(
        server.local_addr(),
        "/metrics",
        "text/plain",
        Duration::from_secs(10),
    )
    .unwrap();
    let text = String::from_utf8(prom.body).unwrap();
    assert_eq!(
        scrape::prom_value(&text, "mpds_refine_runs_total", &[("outcome", "ok")]),
        Some(1.0)
    );
    assert_eq!(
        scrape::prom_value(&text, "mpds_refine_queue_depth", &[]),
        Some(0.0)
    );
    let refine_hist =
        scrape::prom_histogram(&text, "mpds_refine_duration_microseconds", &[]).unwrap();
    assert_eq!(refine_hist.count(), 1);
}

#[test]
fn access_log_records_each_request_as_jsonl() {
    let log_path = std::env::temp_dir().join(format!(
        "mpds-obs-access-{}-{}.jsonl",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let server = start_server(
        &EngineConfig::default(),
        &ServerConfig {
            access_log: Some(log_path.clone()),
            ..ServerConfig::default()
        },
    );

    assert_eq!(get(&server, "/healthz").status, 200);
    let q = get(&server, "/query?dataset=karate&theta=32&k=3&seed=11");
    assert_eq!(q.status, 200);
    assert_eq!(get(&server, "/nope").status, 404);

    let text = std::fs::read_to_string(&log_path).expect("access log exists");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{text}");
    for line in &lines {
        // Every line is valid JSON under the server's own parser and starts
        // with a monotone request id.
        assert!(line.starts_with("{\"id\":"), "{line}");
        mpds_service::json::JsonValue::parse(line).expect("log line parses");
    }
    assert!(
        lines[0].contains("\"endpoint\":\"healthz\""),
        "{}",
        lines[0]
    );
    assert!(lines[0].contains("\"method\":\"GET\""), "{}", lines[0]);
    assert!(lines[0].contains("\"status\":200"), "{}", lines[0]);
    assert!(lines[0].contains("\"wall_us\":"), "{}", lines[0]);

    // The query line carries the full provenance: cache source, dataset,
    // generation, stop reason, and worlds sampled.
    assert!(lines[1].contains("\"endpoint\":\"query\""), "{}", lines[1]);
    assert!(lines[1].contains("\"source\":\"MISS\""), "{}", lines[1]);
    assert!(lines[1].contains("\"dataset\":\"karate\""), "{}", lines[1]);
    assert!(lines[1].contains("\"generation\":"), "{}", lines[1]);
    assert!(
        lines[1].contains("\"stop_reason\":\"completed\""),
        "{}",
        lines[1]
    );
    assert!(lines[1].contains("\"worlds_sampled\":32"), "{}", lines[1]);

    assert!(lines[2].contains("\"endpoint\":\"other\""), "{}", lines[2]);
    assert!(lines[2].contains("\"status\":404"), "{}", lines[2]);

    drop(server);
    let _ = std::fs::remove_file(&log_path);
}

/// The store-side stages an `/update` against a durable dataset must record.
const STORE_STAGES: [&str; 2] = ["wal_append", "wal_fsync"];

#[test]
fn every_response_carries_a_trace_id_that_resolves_via_debug_trace() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());

    // A computed query (stable stop, so every engine-side stage fires —
    // the trace record omits zero-count stages): the header trace id
    // resolves to a completed record with the full per-stage breakdown.
    let q = get(
        &server,
        "/query?dataset=karate&theta=200&k=3&seed=31&stop=stable&window=8",
    );
    assert_eq!(q.status, 200);
    let trace = q.trace_id.clone().expect("X-Trace-Id on /query");
    assert_eq!(trace.len(), 16, "{trace}");
    assert!(
        trace
            .bytes()
            .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')),
        "{trace}"
    );

    let t = get(&server, &format!("/debug/trace/{trace}"));
    assert_eq!(t.status, 200, "{}", String::from_utf8_lossy(&t.body));
    let body = String::from_utf8(t.body).unwrap();
    assert!(
        body.contains(&format!("\"trace_id\":\"{trace}\"")),
        "{body}"
    );
    assert!(body.contains("\"state\":\"completed\""), "{body}");
    assert!(body.contains("\"endpoint\":\"query\""), "{body}");
    assert!(body.contains("\"status\":200"), "{body}");
    assert!(body.contains("\"wall_us\":"), "{body}");
    for stage in STAGES {
        assert!(
            body.contains(&format!("\"{stage}\":{{\"count\":")),
            "missing stage {stage}: {body}"
        );
    }
    mpds_service::json::JsonValue::parse(&body).expect("trace body parses");

    // Error responses are traced too.
    let nf = get(&server, "/nope");
    assert_eq!(nf.status, 404);
    assert!(nf.trace_id.is_some());

    // Trace id 0 is never minted, so it is deterministically unknown; a
    // malformed id is a 400. Both failures still mint their own trace ids.
    let missing = get(&server, "/debug/trace/0000000000000000");
    assert_eq!(missing.status, 404);
    assert!(missing.trace_id.is_some());
    let bad = get(&server, "/debug/trace/not-a-trace-id");
    assert_eq!(bad.status, 400);
    assert!(bad.trace_id.is_some());
}

#[test]
fn profile_stages_agree_with_debug_trace() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let e = get(
        &server,
        "/query?dataset=karate&theta=200&k=3&seed=37&stop=stable&window=8&profile=1",
    );
    assert_eq!(e.status, 200);
    let trace = e.trace_id.clone().expect("X-Trace-Id on profiled query");
    let profiled = String::from_utf8(e.body).unwrap();

    let t = get(&server, &format!("/debug/trace/{trace}"));
    assert_eq!(t.status, 200, "{}", String::from_utf8_lossy(&t.body));
    let trace_body = String::from_utf8(t.body).unwrap();

    // Both views of the same request expose the same engine-side stages —
    // the ?profile=1 splice and the flight record come from one recorder.
    for stage in STAGES {
        let key = format!("\"{stage}\":{{\"count\":");
        assert!(
            profiled.contains(&key),
            "profile missing {stage}: {profiled}"
        );
        assert!(
            trace_body.contains(&key),
            "trace missing {stage}: {trace_body}"
        );
    }
}

#[test]
fn zero_threshold_promotes_queries_but_never_debug_self_traffic() {
    let server = start_server(
        &EngineConfig::default(),
        &ServerConfig {
            slow_ms: Some(0),
            ..ServerConfig::default()
        },
    );

    // /debug/requests registers before it routes, so the snapshot it
    // renders always contains its own in-flight trace.
    let dr = get(&server, "/debug/requests");
    assert_eq!(dr.status, 200);
    let own = dr.trace_id.clone().expect("X-Trace-Id on /debug/requests");
    let dr_body = String::from_utf8(dr.body).unwrap();
    assert!(
        dr_body.contains(&format!("\"trace_id\":\"{own}\"")),
        "{dr_body}"
    );
    assert!(dr_body.contains("\"state\":\"in_flight\""), "{dr_body}");

    // One query under the zero threshold: promoted into the slow ring.
    let q = get(&server, "/query?dataset=karate&theta=32&k=3&seed=41");
    assert_eq!(q.status, 200);
    let q_trace = q.trace_id.clone().unwrap();

    let slow = get(&server, "/debug/slow");
    assert_eq!(slow.status, 200);
    let slow_body = String::from_utf8(slow.body).unwrap();
    assert!(
        slow_body.contains(&format!("\"trace_id\":\"{q_trace}\"")),
        "{slow_body}"
    );
    assert!(slow_body.contains("\"slow\":true"), "{slow_body}");
    // Self-observation traffic (/debug/*, /metrics) is never promoted, even
    // at a zero threshold.
    assert!(!slow_body.contains(&own), "{slow_body}");

    // The promotion counter is visible in both /metrics flavors.
    let legacy = String::from_utf8(get(&server, "/metrics").body).unwrap();
    assert!(
        scrape::json_uint(&legacy, "slow_queries").is_some_and(|v| v >= 1),
        "{legacy}"
    );
    let prom = http_get_accept(
        server.local_addr(),
        "/metrics",
        "text/plain",
        Duration::from_secs(10),
    )
    .unwrap();
    let text = String::from_utf8(prom.body).unwrap();
    assert!(
        scrape::prom_value(&text, "mpds_slow_queries_total", &[]).is_some_and(|v| v >= 1.0),
        "{text}"
    );
}

#[test]
fn update_traces_record_wal_and_fsync_stages() {
    let dir = std::env::temp_dir().join(format!(
        "mpds-obs-trace-store-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let mut registry = GraphRegistry::with_builtins();
    registry.set_store(
        mpds_store::Store::create(&dir, mpds_store::SyncPolicy::Commit).expect("create store"),
    );
    let engine = Arc::new(QueryEngine::new(registry, &EngineConfig::default()));
    let server = Server::bind(
        "127.0.0.1:0",
        engine,
        &ServerConfig {
            mutable: true,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");

    let e = harness::http_post(
        server.local_addr(),
        "/update?dataset=karate",
        b"0 1 0.9\n",
        Duration::from_secs(60),
    )
    .expect("http_post");
    assert_eq!(e.status, 200, "{}", String::from_utf8_lossy(&e.body));
    let trace = e.trace_id.clone().expect("X-Trace-Id on /update");

    let t = get(&server, &format!("/debug/trace/{trace}"));
    assert_eq!(t.status, 200, "{}", String::from_utf8_lossy(&t.body));
    let body = String::from_utf8(t.body).unwrap();
    assert!(body.contains("\"endpoint\":\"update\""), "{body}");
    for stage in STORE_STAGES {
        assert!(
            body.contains(&format!("\"{stage}\":{{\"count\":")),
            "missing store stage {stage}: {body}"
        );
    }

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn histogram_exemplars_carry_the_latest_trace_id() {
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let q = get(&server, "/query?dataset=karate&theta=32&k=3&seed=91");
    assert_eq!(q.status, 200);
    let trace = q.trace_id.clone().unwrap();

    let prom = http_get_accept(
        server.local_addr(),
        "/metrics",
        "text/plain",
        Duration::from_secs(10),
    )
    .unwrap();
    let text = String::from_utf8(prom.body).unwrap();
    let exemplars = scrape::prom_exemplars(
        &text,
        "mpds_http_request_duration_microseconds",
        &[("endpoint", "query"), ("status", "2xx")],
    );
    assert_eq!(exemplars.len(), 1, "{text}");
    assert_eq!(
        exemplars[0].1.trace_id(),
        mpds_obs::flight::parse_trace_id(&trace),
        "{text}"
    );
}

#[test]
fn slo_families_expose_targets_and_burn_rates() {
    // Default objectives: query latency p99 < 250 ms at 0.99, plus 0.999
    // availability on /query and /update.
    let server = start_server(&EngineConfig::default(), &ServerConfig::default());
    let q = get(&server, "/query?dataset=karate&theta=16&k=3&seed=51");
    assert_eq!(q.status, 200);

    let prom = http_get_accept(
        server.local_addr(),
        "/metrics",
        "text/plain",
        Duration::from_secs(10),
    )
    .unwrap();
    let text = String::from_utf8(prom.body).unwrap();

    assert_eq!(
        scrape::prom_value(&text, "mpds_slo_target", &[("slo", "query-latency-250ms")]),
        Some(0.99),
        "{text}"
    );
    assert_eq!(
        scrape::prom_value(&text, "mpds_slo_target", &[("slo", "query-availability")]),
        Some(0.999),
        "{text}"
    );
    // The one fast 200 scored good on both query objectives; /update saw no
    // traffic at all.
    for slo in ["query-latency-250ms", "query-availability"] {
        assert_eq!(
            scrape::prom_value(
                &text,
                "mpds_slo_requests_total",
                &[("slo", slo), ("verdict", "good")]
            ),
            Some(1.0),
            "{slo}: {text}"
        );
        assert_eq!(
            scrape::prom_value(
                &text,
                "mpds_slo_requests_total",
                &[("slo", slo), ("verdict", "bad")]
            ),
            Some(0.0),
            "{slo}: {text}"
        );
    }
    assert_eq!(
        scrape::prom_value(
            &text,
            "mpds_slo_requests_total",
            &[("slo", "update-availability"), ("verdict", "good")]
        ),
        Some(0.0),
        "{text}"
    );
    // No bad requests anywhere: every burn rate reads exactly zero.
    for window in ["5m", "1h"] {
        assert_eq!(
            scrape::prom_value(
                &text,
                "mpds_slo_burn_rate",
                &[("slo", "query-availability"), ("window", window)]
            ),
            Some(0.0),
            "{window}: {text}"
        );
    }
}

#[test]
fn flight_harness_mini_run_resolves_an_exemplar() {
    // A miniature of `mpds-load`'s flight scenario. The throughput-ratio gate is
    // meaningless at this sample size, so only non-throughput violations
    // count here.
    let load = Load {
        clients: 2,
        per_client: 2,
        theta: 32,
        ..Load::default()
    };
    let mut report = Report::default();
    harness::flight(&load, &mut report);
    let hard: Vec<&String> = report
        .violations
        .iter()
        .filter(|v| !v.contains("throughput"))
        .collect();
    assert!(hard.is_empty(), "violations: {hard:?}");
    let figure = |name: &str| report.figure(&format!("flight.{name}")).unwrap();
    assert_eq!(figure("debug_requests_ok"), 1.0);
    assert!(figure("debug_slow_len") >= 1.0);
    assert_eq!(figure("exemplar_resolved"), 1.0);
    let errors = |phase: &str| report.phase(&format!("flight.{phase}")).unwrap().errors;
    assert_eq!(errors("enabled.cold") + errors("enabled.repeat"), 0);
    assert_eq!(errors("disabled.cold") + errors("disabled.repeat"), 0);
    let rendered = harness::render(&report);
    assert!(rendered.contains("\"schema\":\"mpds-service/load_report/v1\""));
}

#[test]
fn obs_harness_runs_clean_with_server_side_percentiles() {
    // A miniature of `mpds-load`'s obs scenario: server-side windows must
    // count exactly the traffic sent and agree with client-side timings.
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
        clients: 4,
        per_client: 3,
        theta: 32,
        ..Load::default()
    };
    let mut report = Report::default();
    harness::obs(&load, &mut report);
    assert!(
        report.violations.is_empty(),
        "violations: {:?}",
        report.violations
    );
    let figure = |name: &str| report.figure(&format!("obs.{name}")).unwrap();
    assert_eq!(figure("server_cold_requests"), 12.0);
    assert_eq!(figure("server_repeat_requests"), 12.0);
    assert_eq!(figure("profile_ok"), 1.0);
    assert!(figure("server_cold_p50_ms") > 0.0);
    let rendered = harness::render(&report);
    assert!(rendered.contains("\"schema\":\"mpds-service/load_report/v1\""));
}

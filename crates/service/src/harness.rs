//! Loopback load harness: seven scenarios that drive a server over real
//! HTTP and check the serving invariants end to end.
//!
//! Every scenario is a function `fn(&Load, &mut Report)`. It takes the one
//! [`Load`] config (target address, client fan-out, query shape), runs its
//! phases, and writes into the one [`Report`]: per-phase latency stats,
//! named figures, and violations, each prefixed with the scenario name.
//! [`render`] serializes a report in one schema ([`SCHEMA`]). Any non-2xx
//! response in a phase is a violation; the table lists the other checks.
//!
//! | Scenario | Server | Checks beyond zero non-2xx |
//! |---|---|---|
//! | [`read`] | any | repeat bodies byte-identical; repeat cache hit rate > 0.9; legacy JSON `/metrics` shape |
//! | [`churn`] | `mutable` | strictly monotone generations, one per update batch |
//! | [`batch`] | any | `computed` = members at a fresh seed; amortization ≥ 2; every follow-up a HIT embedded verbatim in the envelope; `worlds_sampled` readable |
//! | [`anytime`] | any | zero 504s under budget; ≥ 1 budget-truncated body; stable p50 < fixed p50; every budget query refined within 120 s |
//! | [`obs`] | any | Prometheus text on `Accept: text/plain`; server windows count exactly the requests sent; server p50 within [0.25×−1 ms, 4×+1 ms] of client p50; `?profile=1` has stages and does not leak into the cached body |
//! | [`flight`] | binds its own two | `/debug/requests` lists its own trace; `/debug/slow` non-empty at a zero threshold; an exemplar resolves to stages; enabled/disabled throughput ≥ [`OVERHEAD_RATIO_FLOOR`] |
//! | [`kill_recover`] | spawns `mpds-cli` | recovered generation = pre-kill generation; byte-identical read across the SIGKILL; gap-free generations after the restart |
//!
//! The harness is a plain blocking TCP client with no state shared with
//! the server beyond the socket. `mpds-load` runs all seven scenarios
//! against servers it starts itself; the loopback tests run them small
//! against their own. All response scraping (flat JSON counters,
//! Prometheus text) goes through the shared [`mpds_obs::scrape`] parser.

use crate::json::JsonWriter;
use mpds_obs::scrape;
use mpds_obs::HistogramSnapshot;
use std::fmt::Display;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The schema string of a rendered [`Report`].
pub const SCHEMA: &str = "mpds-service/load_report/v1";

/// Update rounds of one [`churn`] run.
pub const CHURN_ROUNDS: usize = 8;

/// Edges inserted per update round of [`churn`] and [`kill_recover`]
/// (see [`churn_batch`]).
pub const BATCH_EDGES: usize = 16;

/// Members of each [`batch`] request.
pub const BATCH_MEMBERS: usize = 8;

/// `stop=stable` window of [`anytime`]'s stable phase.
pub const STABLE_WINDOW: u32 = 64;

/// `budget_ms` of [`anytime`]'s budget phase: far below a cold run, so
/// truncation actually happens.
pub const BUDGET_MS: u64 = 10;

/// Minimum allowed `enabled/disabled` throughput ratio in [`flight`]: the
/// flight recorder may cost at most 5% under the harness workload.
pub const OVERHEAD_RATIO_FLOOR: f64 = 0.95;

/// Update rounds [`kill_recover`] applies before the SIGKILL.
pub const ROUNDS_BEFORE_KILL: usize = 6;

/// Update rounds [`kill_recover`] applies after the restart.
pub const ROUNDS_AFTER_RESTART: usize = 4;

/// Worker threads of the servers [`flight`] binds and [`kill_recover`]
/// spawns.
const SERVER_THREADS: usize = 4;

/// Client timeout of every harness request.
const TIMEOUT: Duration = Duration::from_secs(120);

/// The body marker of a budget-truncated anytime answer.
const BUDGET_MARK: &str = "\"stop_reason\":\"budget\"";

/// What a scenario drives: the server and the traffic shape.
#[derive(Debug, Clone)]
pub struct Load {
    /// Server address. [`kill_recover`] binds its spawned server here;
    /// [`flight`] ignores it and binds its own pair.
    pub addr: SocketAddr,
    /// Concurrent client threads per phase.
    pub clients: usize,
    /// Requests per client per phase ([`churn`]: reads per client per
    /// round; [`batch`]: rounds).
    pub per_client: usize,
    /// Dataset queried (and updated).
    pub dataset: String,
    /// Worlds per query.
    pub theta: usize,
    /// Result count per query.
    pub k: usize,
}

impl Default for Load {
    fn default() -> Self {
        Load {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            clients: 8,
            per_client: 4,
            dataset: "karate".to_string(),
            theta: 64,
            k: 3,
        }
    }
}

impl Load {
    /// The `/query` path prefix of this load's query shape.
    fn query(&self) -> String {
        format!(
            "/query?dataset={}&theta={}&k={}",
            self.dataset, self.theta, self.k
        )
    }
}

/// One HTTP exchange as seen by a harness client.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// HTTP status code (0 for a transport failure inside a scenario).
    pub status: u16,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Wall-clock latency.
    pub latency: Duration,
    /// The `X-Cache` response header (`HIT` / `MISS` / `COALESCED`), when
    /// the server sent one.
    pub x_cache: Option<String>,
    /// The `X-Trace-Id` response header (16 lowercase hex digits), when the
    /// server sent one.
    pub trace_id: Option<String>,
}

impl Exchange {
    fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    fn hit(&self) -> bool {
        self.x_cache.as_deref() == Some("HIT")
    }
}

/// Issues one blocking request (the head and optional body are passed
/// pre-serialized) and reads the full response.
fn http_exchange(addr: SocketAddr, request: &[u8], timeout: Duration) -> std::io::Result<Exchange> {
    let start = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(request)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let latency = start.elapsed();
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header end"))?;
    let head = String::from_utf8_lossy(&raw[..header_end]);
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let header = |name: &str| {
        head.lines().skip(1).find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim()
                .eq_ignore_ascii_case(name)
                .then(|| v.trim().to_string())
        })
    };
    let x_cache = header("x-cache");
    let trace_id = header("x-trace-id");
    Ok(Exchange {
        status,
        body: raw[header_end + 4..].to_vec(),
        latency,
        x_cache,
        trace_id,
    })
}

/// Issues one blocking HTTP/1.1 GET and reads the full response.
pub fn http_get(addr: SocketAddr, path: &str, timeout: Duration) -> std::io::Result<Exchange> {
    let req = format!("GET {path} HTTP/1.1\r\nHost: loopback\r\nConnection: close\r\n\r\n");
    http_exchange(addr, req.as_bytes(), timeout)
}

/// [`http_get`] with an explicit `Accept` header — the scraper half of the
/// `/metrics` content negotiation (`Accept: text/plain` selects Prometheus
/// text exposition).
pub fn http_get_accept(
    addr: SocketAddr,
    path: &str,
    accept: &str,
    timeout: Duration,
) -> std::io::Result<Exchange> {
    let req = format!(
        "GET {path} HTTP/1.1\r\nHost: loopback\r\nAccept: {accept}\r\nConnection: close\r\n\r\n"
    );
    http_exchange(addr, req.as_bytes(), timeout)
}

/// Issues one blocking HTTP/1.1 POST with `body` and reads the full
/// response (the client half of `POST /update`).
pub fn http_post(
    addr: SocketAddr,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> std::io::Result<Exchange> {
    let mut req = format!(
        "POST {path} HTTP/1.1\r\nHost: loopback\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    http_exchange(addr, &req, timeout)
}

/// Polls `/healthz` until the server answers (used to wait out a spawned
/// server's startup).
pub fn wait_until_healthy(addr: SocketAddr, budget: Duration) -> Result<(), String> {
    let deadline = Instant::now() + budget;
    loop {
        match http_get(addr, "/healthz", Duration::from_secs(2)) {
            Ok(e) if e.status == 200 => return Ok(()),
            _ if Instant::now() >= deadline => {
                return Err(format!("server at {addr} not healthy within {budget:?}"))
            }
            _ => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

/// Turns a transport failure into a status-0 exchange whose body names the
/// error, so phases count it as a non-2xx instead of dropping it.
fn settle(result: std::io::Result<Exchange>, what: &str) -> Exchange {
    result.unwrap_or_else(|e| Exchange {
        status: 0,
        body: format!("{what}: {e}").into_bytes(),
        latency: Duration::ZERO,
        x_cache: None,
        trace_id: None,
    })
}

fn get(addr: SocketAddr, path: &str) -> Exchange {
    settle(http_get(addr, path, TIMEOUT), path)
}

/// `/metrics` as Prometheus text.
fn get_prom_metrics(addr: SocketAddr) -> Exchange {
    settle(
        http_get_accept(addr, "/metrics", "text/plain", TIMEOUT),
        "/metrics",
    )
}

fn post(addr: SocketAddr, path: &str, body: &[u8]) -> Exchange {
    settle(http_post(addr, path, body, TIMEOUT), path)
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx]
}

/// Runs one phase: `load.clients` threads against `load.addr`, each
/// issuing `per_client` GETs produced by `path_of(client, i)`. Returns
/// every exchange plus the phase wall clock.
fn run_phase(
    load: &Load,
    per_client: usize,
    path_of: impl Fn(usize, usize) -> String + Sync,
) -> (Vec<Exchange>, Duration) {
    let all = Mutex::new(Vec::with_capacity(load.clients * per_client));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..load.clients {
            let (all, path_of) = (&all, &path_of);
            scope.spawn(move || {
                for i in 0..per_client {
                    let e = get(load.addr, &path_of(c, i));
                    all.lock()
                        .expect("no client panics holding the lock")
                        .push(e);
                }
            });
        }
    });
    let all = all.into_inner().expect("no client panics holding the lock");
    (all, start.elapsed())
}

/// Latency/throughput summary of one phase.
#[derive(Debug, Clone)]
pub struct Phase {
    /// `scenario.phase`.
    pub name: String,
    /// Requests issued.
    pub requests: usize,
    /// Responses with a non-2xx status (transport failures included).
    pub errors: usize,
    /// Requests per second over the phase wall clock.
    pub throughput_rps: f64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
}

/// Everything one harness run measured and every invariant it saw broken.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Per-phase stats, in run order.
    pub phases: Vec<Phase>,
    /// Named scalar results (`scenario.figure`); flags are `1.0` / `0.0`.
    pub figures: Vec<(String, f64)>,
    /// Broken invariants (`scenario: …`). Empty means every check held.
    pub violations: Vec<String>,
}

impl Report {
    /// The phase named `scenario.phase`.
    pub fn phase(&self, name: &str) -> Option<&Phase> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// The figure named `scenario.figure`.
    pub fn figure(&self, name: &str) -> Option<f64> {
        self.figures
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    fn scenario(&mut self, name: &'static str) -> Scope<'_> {
        Scope { name, report: self }
    }
}

/// A [`Report`] as one scenario writes it: every name gets the scenario
/// prefix.
struct Scope<'a> {
    name: &'static str,
    report: &'a mut Report,
}

impl Scope<'_> {
    /// Records a phase; any non-2xx response in it is a violation.
    fn phase(&mut self, phase: &str, exchanges: &[Exchange], elapsed: Duration) -> Phase {
        // Transport failures (status 0) carry no meaningful latency; they
        // count as errors but must not poison the percentiles.
        let mut lat_ms: Vec<f64> = exchanges
            .iter()
            .filter(|e| e.status != 0)
            .map(|e| e.latency.as_secs_f64() * 1e3)
            .collect();
        lat_ms.sort_by(f64::total_cmp);
        let failed: Vec<&Exchange> = exchanges.iter().filter(|e| !e.ok()).collect();
        if let Some(first) = failed.first() {
            self.violation(format!(
                "{phase}: {} non-2xx responses (first: {} {})",
                failed.len(),
                first.status,
                first.text()
            ));
        }
        let p = Phase {
            name: format!("{}.{phase}", self.name),
            requests: exchanges.len(),
            errors: failed.len(),
            throughput_rps: exchanges.len() as f64 / elapsed.as_secs_f64().max(1e-9),
            p50_ms: percentile(&lat_ms, 0.50),
            p99_ms: percentile(&lat_ms, 0.99),
        };
        self.report.phases.push(p.clone());
        p
    }

    fn figure(&mut self, name: &str, value: f64) {
        self.report
            .figures
            .push((format!("{}.{name}", self.name), value));
    }

    fn flag(&mut self, name: &str, value: bool) {
        self.figure(name, if value { 1.0 } else { 0.0 });
    }

    fn violation(&mut self, message: impl Display) {
        self.report
            .violations
            .push(format!("{}: {message}", self.name));
    }
}

/// Serializes a report in the [`SCHEMA`] schema.
pub fn render(r: &Report) -> String {
    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("schema", SCHEMA)
        .field_str(
            "note",
            "loopback load harness: read, churn, batch, anytime, obs, flight and \
             kill_recover scenarios; latencies are machine-dependent, the checked \
             invariants are the violations",
        )
        .key("phases")
        .begin_array();
    for p in &r.phases {
        w.begin_object()
            .field_str("name", &p.name)
            .field_uint("requests", p.requests as u64)
            .field_uint("errors", p.errors as u64)
            .field_float("throughput_rps", round3(p.throughput_rps))
            .field_float("p50_ms", round3(p.p50_ms))
            .field_float("p99_ms", round3(p.p99_ms))
            .end_object();
    }
    w.end_array().key("figures").begin_object();
    for (name, value) in &r.figures {
        w.field_float(name, round3(*value));
    }
    w.end_object().key("violations").begin_array();
    for v in &r.violations {
        w.string(v);
    }
    w.end_array().end_object();
    let mut s = w.finish();
    s.push('\n');
    s
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// **read** — a cold phase (distinct seeds, every request computes), then a
/// repeat phase (one identical query the cache and in-flight coalescing
/// must absorb). Checks byte-identical repeat bodies and a repeat cache hit
/// rate above 0.9, read off the legacy JSON `/metrics` body.
pub fn read(load: &Load, report: &mut Report) {
    let mut r = report.scenario("read");
    let base = load.query();
    let per = load.per_client.max(1);
    let (cold, elapsed) = run_phase(load, per, |c, i| {
        format!("{base}&seed={}", 10_000 + (c * per + i) as u64)
    });
    r.phase("cold", &cold, elapsed);

    let before = legacy_metrics(load.addr, &mut r);
    let (repeat, elapsed) = run_phase(load, per, |_, _| format!("{base}&seed=42"));
    r.phase("repeat", &repeat, elapsed);
    let after = legacy_metrics(load.addr, &mut r);

    let bodies: Vec<&Vec<u8>> = repeat.iter().filter(|e| e.ok()).map(|e| &e.body).collect();
    match bodies.first() {
        Some(first) => {
            let divergent = bodies.iter().filter(|b| *b != first).count();
            if divergent > 0 {
                r.violation(format!(
                    "repeat: {divergent} of {} bodies differ from the first",
                    bodies.len()
                ));
            }
        }
        None => r.violation("repeat: no successful responses"),
    }

    // Every request performs exactly one cache lookup (coalesced requests
    // miss first, then join), so lookups = hits + misses and the requests
    // served without recomputation = hits + coalesced.
    let hit_rate = match (before, after) {
        (Some(b), Some(a)) => {
            let delta = |key: &str| {
                scrape::json_uint(&a, key)
                    .unwrap_or(0)
                    .saturating_sub(scrape::json_uint(&b, key).unwrap_or(0))
            };
            let lookups = delta("hits") + delta("misses");
            (delta("hits") + delta("coalesced")) as f64 / lookups.max(1) as f64
        }
        _ => 0.0,
    };
    r.figure("repeat_cache_hit_rate", hit_rate);
    if hit_rate <= 0.9 {
        r.violation(format!("repeat cache hit rate {hit_rate:.3} not above 0.9"));
    }
}

/// Reads the legacy JSON `/metrics` body, checking its `"cache":{"hits":`
/// shape.
fn legacy_metrics(addr: SocketAddr, r: &mut Scope) -> Option<String> {
    let e = get(addr, "/metrics");
    if !e.ok() {
        r.violation(format!("/metrics: status {} {}", e.status, e.text()));
        return None;
    }
    let body = e.text();
    if !body.contains("\"cache\":{\"hits\":") {
        r.violation("legacy JSON /metrics has no \"cache\":{\"hits\": counter");
    }
    Some(body)
}

/// The deterministic mutation batch of churn round `round`: inserts
/// `batch_edges` fresh label-pair edges, and from round 1 on re-weights the
/// first half of the previous round's pairs and deletes the second half —
/// all three mutation kinds per round, bounded graph growth, and entirely
/// dataset-agnostic (fresh labels start at 1 000 000).
pub fn churn_batch(round: usize, batch_edges: usize) -> String {
    let pair = |r: usize, j: usize| {
        let u = 1_000_000u64 + ((r * batch_edges + j) as u64) * 2;
        (u, u + 1)
    };
    let mut out = String::new();
    for j in 0..batch_edges {
        let (u, v) = pair(round, j);
        let p = 0.2 + 0.1 * (j % 6) as f64;
        out.push_str(&format!("{u} {v} {p:.1}\n"));
    }
    if round > 0 {
        for j in 0..batch_edges {
            let (u, v) = pair(round - 1, j);
            if j < batch_edges / 2 {
                out.push_str(&format!("{u} {v} 0.9\n"));
            } else {
                out.push_str(&format!("{u} {v} -\n"));
            }
        }
    }
    out
}

/// POSTs churn round `round` to `load`'s dataset and records the
/// acknowledged generation.
fn apply_round(
    load: &Load,
    round: usize,
    updates: &mut Vec<Exchange>,
    generations: &mut Vec<u64>,
    r: &mut Scope,
) {
    let path = format!("/update?dataset={}", load.dataset);
    let e = post(load.addr, &path, churn_batch(round, BATCH_EDGES).as_bytes());
    if e.ok() {
        match scrape::json_uint(&e.text(), "generation") {
            Some(g) => generations.push(g),
            None => r.violation(format!("round {round}: no generation in update response")),
        }
    }
    updates.push(e);
}

/// **churn** — [`CHURN_ROUNDS`] update batches against a `mutable` server,
/// each followed by a recovery probe (the canonical read must MISS under
/// the new generation, then HIT) and a concurrent read burst. Checks
/// strictly monotone generations, one per batch.
pub fn churn(load: &Load, report: &mut Report) {
    let mut r = report.scenario("churn");
    let query = format!("{}&seed=42", load.query());
    let (mut reads, mut updates, mut generations) = (Vec::new(), Vec::new(), Vec::new());
    // Warm the cache at the starting generation so round 0's MISS is
    // attributable to the generation bump, not to a cold cache.
    let warm = get(load.addr, &query);
    let mut reads_elapsed = warm.latency;
    reads.push(warm);
    let mut recovered = 0usize;
    for round in 0..CHURN_ROUNDS {
        apply_round(load, round, &mut updates, &mut generations, &mut r);
        let (first, second) = (get(load.addr, &query), get(load.addr, &query));
        if first.x_cache.as_deref() == Some("MISS") && second.hit() {
            recovered += 1;
        }
        reads_elapsed += first.latency + second.latency;
        reads.extend([first, second]);
        let (burst, elapsed) = run_phase(load, load.per_client, |_, _| query.clone());
        reads_elapsed += elapsed;
        reads.extend(burst);
    }
    r.phase("reads", &reads, reads_elapsed);
    r.phase("updates", &updates, updates.iter().map(|e| e.latency).sum());

    let monotone = generations.windows(2).all(|w| w[0] < w[1]);
    if !monotone {
        r.violation(format!("generations not monotone: {generations:?}"));
    }
    if generations.len() != CHURN_ROUNDS {
        r.violation(format!(
            "expected {CHURN_ROUNDS} update generations, observed {}",
            generations.len()
        ));
    }
    r.figure(
        "first_generation",
        generations.first().copied().unwrap_or(0) as f64,
    );
    r.figure(
        "last_generation",
        generations.last().copied().unwrap_or(0) as f64,
    );
    r.flag("generations_monotone", monotone);
    r.figure(
        "post_update_hit_recovery",
        recovered as f64 / CHURN_ROUNDS as f64,
    );
}

/// The `(algo, k)` of batch member `j`: k climbs from 2, every fourth
/// member is NDS — distinct cache keys throughout, both estimators fed by
/// the one stream.
pub fn batch_member_spec(j: usize) -> (&'static str, usize) {
    (if j % 4 == 3 { "nds" } else { "mpds" }, j + 2)
}

/// Renders the `POST /batch` body of `members` members over `load`'s
/// dataset and θ.
pub fn batch_body(load: &Load, members: usize, seed: u64) -> String {
    let mut w = JsonWriter::new();
    w.begin_object()
        .field_str("dataset", &load.dataset)
        .field_uint("theta", load.theta as u64)
        .field_uint("seed", seed)
        .key("members")
        .begin_array();
    for j in 0..members {
        let (algo, k) = batch_member_spec(j);
        w.begin_object()
            .field_str("algo", algo)
            .field_uint("k", k as u64)
            .end_object();
    }
    w.end_array().end_object();
    w.finish()
}

/// **batch** — `load.per_client` rounds, each (1) issuing the
/// [`BATCH_MEMBERS`] members as sequential standalone `/query`s under one
/// fresh seed (θ worlds per member off the `/metrics` `worlds_sampled`
/// delta), (2) issuing the same members as one `POST /batch` under another
/// fresh seed (θ worlds in total), and (3) re-issuing every member as a
/// point query at the batch seed. Checks `computed` = members, an
/// amortization ratio of at least 2, and every follow-up a HIT whose bytes
/// the envelope embeds verbatim.
pub fn batch(load: &Load, report: &mut Report) {
    let mut r = report.scenario("batch");
    let worlds_now = |r: &mut Scope| -> u64 {
        let e = get(load.addr, "/metrics");
        match scrape::json_uint(&e.text(), "worlds_sampled") {
            Some(w) if e.ok() => w,
            _ => {
                r.violation(format!(
                    "no worlds_sampled in /metrics (status {})",
                    e.status
                ));
                0
            }
        }
    };
    let member_path = |j: usize, seed: u64| {
        let (algo, k) = batch_member_spec(j);
        format!(
            "/query?dataset={}&theta={}&algo={algo}&k={k}&seed={seed}",
            load.dataset, load.theta
        )
    };
    let (mut standalone, mut batches) = (Vec::new(), Vec::new());
    let (mut standalone_worlds, mut batch_worlds) = (0u64, 0u64);
    let (mut followups, mut followup_hits) = (0usize, 0usize);

    for round in 0..load.per_client {
        let seed = 30_000 + round as u64;
        let w0 = worlds_now(&mut r);
        for j in 0..BATCH_MEMBERS {
            standalone.push(get(load.addr, &member_path(j, seed)));
        }
        let w1 = worlds_now(&mut r);
        standalone_worlds += w1.saturating_sub(w0);

        let seed = 60_000 + round as u64;
        let body = batch_body(load, BATCH_MEMBERS, seed);
        let e = post(load.addr, "/batch", body.as_bytes());
        let (ok, envelope) = (e.ok(), e.text());
        batches.push(e);
        if !ok {
            continue;
        }
        batch_worlds += worlds_now(&mut r).saturating_sub(w1);
        if scrape::json_uint(&envelope, "computed") != Some(BATCH_MEMBERS as u64) {
            r.violation(format!(
                "round {round}: batch at a fresh seed should compute all {BATCH_MEMBERS} members"
            ));
        }
        for j in 0..BATCH_MEMBERS {
            let e = get(load.addr, &member_path(j, seed));
            followups += 1;
            let embedded = envelope.contains(&e.text());
            if e.hit() && embedded {
                followup_hits += 1;
            } else {
                r.violation(format!(
                    "round {round} member {j}: follow-up was {:?}, embedded={embedded}",
                    e.x_cache
                ));
            }
        }
    }
    let sum = |ex: &[Exchange]| ex.iter().map(|e| e.latency).sum();
    r.phase("standalone", &standalone, sum(&standalone));
    r.phase("batch", &batches, sum(&batches));

    let answers = (load.per_client * BATCH_MEMBERS).max(1) as f64;
    let standalone_per_member = standalone_worlds as f64 / answers;
    let batch_per_member = batch_worlds as f64 / answers;
    let ratio = if batch_per_member > 0.0 {
        standalone_per_member / batch_per_member
    } else {
        0.0
    };
    if ratio < 2.0 {
        r.violation(format!(
            "amortization ratio {ratio:.3} below 2 \
             ({standalone_per_member:.1} vs {batch_per_member:.1} worlds/member)"
        ));
    }
    if followups == 0 {
        r.violation("no follow-up point queries completed");
    }
    r.figure("standalone_worlds_per_member", standalone_per_member);
    r.figure("batch_worlds_per_member", batch_per_member);
    r.figure("amortization_ratio", ratio);
    r.figure(
        "followup_hit_rate",
        followup_hits as f64 / followups.max(1) as f64,
    );
}

/// **anytime** — four phases at fresh seeds: (1) cold fixed-θ queries;
/// (2) the same with `stop=stable&window=`[`STABLE_WINDOW`], which must be
/// faster at the median; (3) `budget_ms=`[`BUDGET_MS`] queries, which must
/// all answer 200 (zero 504s) with at least one budget-truncated body;
/// (4) polling each budget query's identical URL (`budget_ms` is not part
/// of the cache key) until the background refinement tier republishes a
/// converged body under the same key, within 120 s in total.
pub fn anytime(load: &Load, report: &mut Report) {
    let mut r = report.scenario("anytime");
    let base = load.query();
    let per = load.per_client.max(1);
    let seed_of = |block: u64, c: usize, i: usize| block + (c * per + i) as u64;

    let (ex, elapsed) = run_phase(load, per, |c, i| {
        format!("{base}&seed={}", seed_of(40_000, c, i))
    });
    let fixed = r.phase("fixed", &ex, elapsed);
    let (ex, elapsed) = run_phase(load, per, |c, i| {
        format!(
            "{base}&seed={}&stop=stable&window={STABLE_WINDOW}",
            seed_of(50_000, c, i)
        )
    });
    let stable = r.phase("stable", &ex, elapsed);
    let budget_path = |c: usize, i: usize| {
        format!(
            "{base}&seed={}&budget_ms={BUDGET_MS}",
            seed_of(70_000, c, i)
        )
    };
    let (ex, elapsed) = run_phase(load, per, budget_path);
    r.phase("budget", &ex, elapsed);

    let truncated = ex
        .iter()
        .filter(|e| e.ok() && e.text().contains(BUDGET_MARK))
        .count();
    let gateway_timeouts = ex.iter().filter(|e| e.status == 504).count();
    if gateway_timeouts > 0 {
        r.violation(format!(
            "budget: {gateway_timeouts} responses were 504 — budgeted serving must degrade, not fail"
        ));
    }
    if truncated == 0 {
        r.violation(format!(
            "budget: no response was budget-truncated at budget_ms={BUDGET_MS} — the gate proved nothing"
        ));
    }
    let speedup = if stable.p50_ms > 0.0 {
        fixed.p50_ms / stable.p50_ms
    } else {
        0.0
    };
    if speedup <= 1.0 {
        r.violation(format!(
            "stable p50 {:.3} ms not below fixed p50 {:.3} ms — early stop bought nothing",
            stable.p50_ms, fixed.p50_ms
        ));
    }

    // The server refines serially on one worker (so refinement cannot
    // starve serving), hence one generous deadline for the whole backlog.
    let deadline = Instant::now() + Duration::from_secs(120);
    let (mut followups, mut refined) = (0usize, 0usize);
    let mut waits_ms = Vec::new();
    'outer: for c in 0..load.clients {
        for i in 0..per {
            let path = budget_path(c, i);
            followups += 1;
            let started = Instant::now();
            loop {
                let e = get(load.addr, &path);
                if !e.ok() {
                    r.violation(format!(
                        "follow-up {path}: status {} while polling for refinement",
                        e.status
                    ));
                    break;
                }
                if e.hit() && !e.text().contains(BUDGET_MARK) {
                    refined += 1;
                    waits_ms.push(started.elapsed().as_secs_f64() * 1e3);
                    break;
                }
                if Instant::now() >= deadline {
                    r.violation(format!(
                        "follow-up {path}: no refined body within the 120 s deadline"
                    ));
                    break 'outer;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    if refined < followups {
        r.violation(format!(
            "only {refined} of {followups} budget queries were refined to convergence"
        ));
    }
    waits_ms.sort_by(f64::total_cmp);
    r.figure("stable_speedup", speedup);
    r.figure("budget_truncated", truncated as f64);
    r.figure("budget_504s", gateway_timeouts as f64);
    r.figure("refined_followups", followups as f64);
    r.figure("refined_hits", refined as f64);
    r.figure("refined_wait_p50_ms", percentile(&waits_ms, 0.50));
}

/// Scrapes `/metrics` as Prometheus text and reconstructs the cumulative
/// 2xx `/query` latency histogram. Records a violation and returns an
/// empty snapshot when the scrape fails or is not Prometheus text; a
/// family with no samples yet is simply empty.
fn scrape_query_hist(addr: SocketAddr, r: &mut Scope) -> HistogramSnapshot {
    let e = get_prom_metrics(addr);
    let text = e.text();
    if !e.ok() {
        r.violation(format!("/metrics scrape: status {} {text}", e.status));
        return HistogramSnapshot::default();
    }
    if !text.contains("# TYPE mpds_http_request_duration_microseconds histogram") {
        r.violation("/metrics with Accept: text/plain did not return Prometheus text");
        return HistogramSnapshot::default();
    }
    scrape::prom_histogram(
        &text,
        "mpds_http_request_duration_microseconds",
        &[("endpoint", "query"), ("status", "2xx")],
    )
    .unwrap_or_default()
}

/// **obs** — the read scenario's cold/repeat shape, with Prometheus
/// `/metrics` scrapes bracketing each phase (they land in the
/// `endpoint="metrics"` series, so they never pollute the `/query`
/// window). Checks that each server-side window counts exactly the
/// requests sent, that server p50 lies within `[0.25×−1 ms, 4×+1 ms]` of
/// client p50 (wide enough for log2 bucket quantization, tight enough to
/// catch µs read as ms), and that a `?profile=1` probe of the cached
/// repeat query returns a stage breakdown while the unprofiled re-issue
/// still serves the original bytes.
pub fn obs(load: &Load, report: &mut Report) {
    let mut r = report.scenario("obs");
    let base = load.query();
    let per = load.per_client.max(1);
    let s0 = scrape_query_hist(load.addr, &mut r);
    let (ex, elapsed) = run_phase(load, per, |c, i| {
        format!("{base}&seed={}", 80_000 + (c * per + i) as u64)
    });
    let cold = r.phase("cold", &ex, elapsed);
    let s1 = scrape_query_hist(load.addr, &mut r);
    let repeat_path = format!("{base}&seed=4242");
    let (ex, elapsed) = run_phase(load, per, |_, _| repeat_path.clone());
    let repeat = r.phase("repeat", &ex, elapsed);
    let s2 = scrape_query_hist(load.addr, &mut r);

    let sent = (load.clients * per) as u64;
    for (phase, client, window) in [
        ("cold", &cold, s1.since(&s0)),
        ("repeat", &repeat, s2.since(&s1)),
    ] {
        let (requests, p50, p99) = (
            window.count(),
            window.quantile(0.50) / 1e3,
            window.quantile(0.99) / 1e3,
        );
        if requests != sent {
            r.violation(format!(
                "server-side {phase} window counted {requests} requests, harness sent {sent}"
            ));
        }
        let hi = client.p50_ms * 4.0 + 1.0;
        let lo = (client.p50_ms * 0.25 - 1.0).max(0.0);
        if p50 > hi || p50 < lo {
            r.violation(format!(
                "{phase}: server-side p50 {p50:.3} ms outside [{lo:.3}, {hi:.3}] band \
                 around client-side p50 {:.3} ms",
                client.p50_ms
            ));
        }
        r.figure(&format!("server_{phase}_requests"), requests as f64);
        r.figure(&format!("server_{phase}_p50_ms"), p50);
        r.figure(&format!("server_{phase}_p99_ms"), p99);
    }

    let profiled = get(load.addr, &format!("{repeat_path}&profile=1"));
    let text = profiled.text();
    let profile_ok = if !profiled.ok() {
        r.violation(format!(
            "profile=1 probe: status {} {text}",
            profiled.status
        ));
        false
    } else if !text.contains("\"profile\":{") || !text.contains("\"stages\":{") {
        r.violation("profile=1 response carries no stage breakdown");
        false
    } else {
        let plain = get(load.addr, &repeat_path);
        if !plain.ok() {
            r.violation(format!("unprofiled re-issue: status {}", plain.status));
            false
        } else if plain.text().contains("\"profile\":") {
            r.violation("profile block leaked into the cached unprofiled body");
            false
        } else {
            true
        }
    };
    r.flag("profile_ok", profile_ok);
}

/// Binds one in-process server over the builtin datasets for [`flight`].
/// `slow_ms = 0` on both sides keeps the workload symmetric (the stderr
/// slow echo fires identically) while making the enabled side's slow ring
/// exercise promotion.
fn bind_flight_server(flight: bool) -> std::io::Result<crate::Server> {
    let engine = Arc::new(crate::QueryEngine::new(
        crate::GraphRegistry::with_builtins(),
        &crate::EngineConfig::default(),
    ));
    let cfg = crate::ServerConfig {
        threads: SERVER_THREADS,
        slow_ms: Some(0),
        flight,
        ..crate::ServerConfig::default()
    };
    crate::Server::bind("127.0.0.1:0", engine, &cfg)
}

/// **flight** — binds two in-process servers, flight recorder enabled and
/// disabled, and runs the identical untimed warmup, cold and repeat
/// phases against each, so the enabled/disabled throughput ratio is a
/// same-run measurement gated at [`OVERHEAD_RATIO_FLOOR`]. Against the
/// enabled server it also checks that `GET /debug/requests` lists its own
/// trace id (the request registers before routing), that `GET /debug/slow`
/// is non-empty under the zero slow threshold, and that a Prometheus
/// histogram exemplar resolves through `GET /debug/trace/<id>` to a
/// per-stage breakdown. `load.addr` is not used.
pub fn flight(load: &Load, report: &mut Report) {
    let mut r = report.scenario("flight");
    let base = load.query();
    let per = load.per_client.max(1);
    let mut rps = [0.0f64; 2];
    for (side, enabled) in [("enabled", true), ("disabled", false)] {
        let mut server = match bind_flight_server(enabled) {
            Ok(s) => s,
            Err(e) => return r.violation(format!("bind flight-{side} server: {e}")),
        };
        let side_load = Load {
            addr: server.local_addr(),
            ..load.clone()
        };
        // Untimed warmup so neither side pays one-time costs (lazy
        // estimator paths, allocator growth) inside its measured window.
        run_phase(&side_load, 1, |c, _| format!("{base}&seed={}", 900_000 + c));
        let (cold, cold_elapsed) = run_phase(&side_load, per, |c, i| {
            format!("{base}&seed={}", 100_000 + (c * per + i) as u64)
        });
        let (repeat, repeat_elapsed) =
            run_phase(&side_load, per, |_, _| format!("{base}&seed=7777"));
        r.phase(&format!("{side}.cold"), &cold, cold_elapsed);
        r.phase(&format!("{side}.repeat"), &repeat, repeat_elapsed);
        rps[usize::from(!enabled)] = (cold.len() + repeat.len()) as f64
            / (cold_elapsed + repeat_elapsed).as_secs_f64().max(1e-9);
        if enabled {
            // The repeat phase is the newest traffic, so its records
            // cannot have been evicted from the rings yet.
            probe_debug_endpoints(side_load.addr, &mut r);
        }
        server.shutdown();
    }
    let ratio = rps[0] / rps[1].max(1e-9);
    if ratio < OVERHEAD_RATIO_FLOOR {
        r.violation(format!(
            "flight-enabled throughput is {ratio:.3}x the disabled server's \
             (floor {OVERHEAD_RATIO_FLOOR})"
        ));
    }
    r.figure("enabled_rps", rps[0]);
    r.figure("disabled_rps", rps[1]);
    r.figure("overhead_ratio", ratio);
}

/// The three introspection checks of [`flight`].
fn probe_debug_endpoints(addr: SocketAddr, r: &mut Scope) {
    let e = get(addr, "/debug/requests");
    let own = e
        .trace_id
        .as_deref()
        .is_some_and(|id| e.text().contains(&format!("\"trace_id\":\"{id}\"")));
    if !e.ok() || !own {
        r.violation(format!(
            "/debug/requests (status {}) did not list its own in-flight trace {:?}",
            e.status, e.trace_id
        ));
    }
    r.flag("debug_requests_ok", e.ok() && own);

    let e = get(addr, "/debug/slow");
    let text = e.text();
    let slow = text.matches("\"trace_id\"").count();
    if !e.ok() || !text.contains("\"slow\":[") || slow == 0 {
        r.violation(format!(
            "/debug/slow (status {}) is empty although the slow threshold was zero",
            e.status
        ));
    }
    r.figure("debug_slow_len", slow as f64);

    let resolved = resolve_exemplar(addr, r);
    r.flag("exemplar_resolved", resolved);
}

/// Walks the Prometheus `/query` 2xx latency exemplars from the highest
/// occupied bucket downward (the slowest requests are the ones the flight
/// recorder exists to explain) and reports whether one resolves through
/// `GET /debug/trace/<id>` to a non-empty stage breakdown.
fn resolve_exemplar(addr: SocketAddr, r: &mut Scope) -> bool {
    let e = get_prom_metrics(addr);
    if !e.ok() {
        r.violation(format!("/metrics scrape: status {} {}", e.status, e.text()));
        return false;
    }
    let mut exemplars = scrape::prom_exemplars(
        &e.text(),
        "mpds_http_request_duration_microseconds",
        &[("endpoint", "query"), ("status", "2xx")],
    );
    exemplars.sort_by_key(|(bucket, _)| std::cmp::Reverse(*bucket));
    let resolved = exemplars
        .iter()
        .filter_map(|(_, ex)| ex.trace_id())
        .any(|id| {
            let hex = mpds_obs::flight::format_trace_id(id);
            let e = get(addr, &format!("/debug/trace/{hex}"));
            e.status == 200 && e.text().contains("\"stages\":{\"")
        });
    if !resolved {
        r.violation(format!(
            "none of the {} /query histogram exemplars resolved via /debug/trace/<id> \
             to a stage breakdown",
            exemplars.len()
        ));
    }
    resolved
}

/// **kill_recover** — spawns the `mpds-cli` binary that sits beside the
/// running executable as `serve --mutable --data-dir` on `load.addr` over a
/// fresh temporary data directory, applies [`ROUNDS_BEFORE_KILL`] churn
/// batches, SIGKILLs it (no flush, no graceful shutdown), restarts it from
/// the same directory, and applies [`ROUNDS_AFTER_RESTART`] more. Checks
/// that the restarted server recovers the exact pre-kill generation, that
/// the canonical read is byte-identical across the kill, and that the
/// generations run 1, 2, … with no gap.
pub fn kill_recover(load: &Load, report: &mut Report) {
    let mut r = report.scenario("kill_recover");
    let exe = std::env::current_exe().unwrap_or_default();
    let bin = exe.with_file_name(format!("mpds-cli{}", std::env::consts::EXE_SUFFIX));
    if !bin.is_file() {
        return r.violation(format!(
            "{} not found (build it with `cargo build --release -p mpds-service`)",
            bin.display()
        ));
    }
    let dir = std::env::temp_dir().join(format!("mpds-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    kill_recover_in(load, &bin, &dir, &mut r);
    let _ = std::fs::remove_dir_all(&dir);
}

fn kill_recover_in(load: &Load, bin: &Path, dir: &Path, r: &mut Scope) {
    let query = format!("{}&seed=42", load.query());
    let (mut updates, mut reads, mut generations) = (Vec::new(), Vec::new(), Vec::new());

    let Some(mut child) = start_server(bin, dir, load.addr, Duration::from_secs(30), r) else {
        return;
    };
    for round in 0..ROUNDS_BEFORE_KILL {
        apply_round(load, round, &mut updates, &mut generations, r);
    }
    let pre_kill = generations.last().copied().unwrap_or(0);
    // The canonical read at the pre-kill generation is the byte-identity
    // baseline the recovered server must reproduce.
    reads.push(get(load.addr, &query));
    let _ = child.kill();
    let _ = child.wait();

    // Recovery wall time is respawn → healthy (checkpoint load and WAL
    // replay happen before the listener binds).
    let restarted = Instant::now();
    let Some(mut child) = start_server(bin, dir, load.addr, Duration::from_secs(60), r) else {
        return;
    };
    r.figure("recovery_wall_ms", restarted.elapsed().as_secs_f64() * 1e3);
    let (recovered, replayed, server_ms) = dataset_row(load.addr, &load.dataset, r);
    if recovered != pre_kill {
        r.violation(format!(
            "recovered generation {recovered} != pre-kill generation {pre_kill}"
        ));
    }
    reads.push(get(load.addr, &query));
    let identical = reads[0].ok() && reads[1].ok() && reads[0].body == reads[1].body;
    if !identical {
        r.violation(format!(
            "post-recovery read differs from the pre-kill read ({} vs {} bytes)",
            reads[1].body.len(),
            reads[0].body.len()
        ));
    }
    for round in ROUNDS_BEFORE_KILL..ROUNDS_BEFORE_KILL + ROUNDS_AFTER_RESTART {
        apply_round(load, round, &mut updates, &mut generations, r);
    }
    let _ = child.kill();
    let _ = child.wait();

    let sum = |ex: &[Exchange]| ex.iter().map(|e| e.latency).sum();
    r.phase("updates", &updates, sum(&updates));
    r.phase("reads", &reads, sum(&reads));
    let expected: Vec<u64> = (1..=(ROUNDS_BEFORE_KILL + ROUNDS_AFTER_RESTART) as u64).collect();
    let continuous = generations == expected;
    if !continuous {
        r.violation(format!(
            "generations not continuous across the kill: {generations:?} (expected {expected:?})"
        ));
    }
    r.figure("pre_kill_generation", pre_kill as f64);
    r.figure("recovered_generation", recovered as f64);
    r.figure("replayed_records", replayed as f64);
    r.figure("server_recovery_ms", server_ms as f64);
    r.flag("reads_identical", identical);
    r.flag("generations_continuous", continuous);
}

/// Spawns `bin serve --mutable --data-dir dir` on `addr` with its output
/// discarded and waits for it to answer `/healthz`.
fn start_server(
    bin: &Path,
    dir: &Path,
    addr: SocketAddr,
    budget: Duration,
    r: &mut Scope,
) -> Option<Child> {
    let spawned = Command::new(bin)
        .args(["serve", "--bind", &addr.to_string()])
        .args(["--threads", &SERVER_THREADS.to_string()])
        .args(["--mutable", "--data-dir"])
        .arg(dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn();
    let mut child = match spawned {
        Ok(c) => c,
        Err(e) => {
            r.violation(format!("spawn {}: {e}", bin.display()));
            return None;
        }
    };
    if let Err(e) = wait_until_healthy(addr, budget) {
        r.violation(e);
        let _ = child.kill();
        let _ = child.wait();
        return None;
    }
    Some(child)
}

/// Reads `dataset`'s `(generation, replayed_records, recovery_ms)` out of
/// `/datasets`; zeros, with a violation, when the row is unreadable.
fn dataset_row(addr: SocketAddr, dataset: &str, r: &mut Scope) -> (u64, u64, u64) {
    let e = get(addr, "/datasets");
    let doc = crate::json::JsonValue::parse(&e.text());
    let rows = doc
        .as_ref()
        .ok()
        .and_then(|d| d.get("datasets").ok().flatten())
        .and_then(|v| v.as_array("datasets").ok())
        .unwrap_or_default();
    let field = |row: &crate::json::JsonValue, key: &str| {
        row.get(key).ok().flatten().and_then(|v| v.as_u64(key).ok())
    };
    let row = rows.iter().find(|row| {
        row.get("name")
            .ok()
            .flatten()
            .and_then(|v| v.as_str("name").ok())
            == Some(dataset)
    });
    match row {
        Some(row) => (
            field(row, "generation").unwrap_or(0),
            field(row, "replayed_records").unwrap_or(0),
            field(row, "recovery_ms").unwrap_or(0),
        ),
        None => {
            r.violation(format!(
                "/datasets (status {}) has no row for dataset {dataset:?}",
                e.status
            ));
            (0, 0, 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exchange(status: u16, ms: u64) -> Exchange {
        Exchange {
            status,
            body: b"{}".to_vec(),
            latency: Duration::from_millis(ms),
            x_cache: None,
            trace_id: None,
        }
    }

    /// One scenario's rendering fixture: its name, phases and figures.
    type Row = (
        &'static str,
        &'static [&'static str],
        &'static [(&'static str, f64)],
    );

    const READ: Row = (
        "read",
        &["cold", "repeat"],
        &[("repeat_cache_hit_rate", 0.99)],
    );
    const CHURN: Row = (
        "churn",
        &["reads", "updates"],
        &[("last_generation", 8.0), ("generations_monotone", 1.0)],
    );
    const BATCH: Row = (
        "batch",
        &["standalone", "batch"],
        &[("amortization_ratio", 8.0), ("followup_hit_rate", 1.0)],
    );
    const ANYTIME: Row = (
        "anytime",
        &["fixed", "stable", "budget"],
        &[("stable_speedup", 4.0), ("budget_504s", 0.0)],
    );
    const OBS: Row = (
        "obs",
        &["cold", "repeat"],
        &[("server_cold_p50_ms", 1.25), ("profile_ok", 1.0)],
    );
    const FLIGHT: Row = (
        "flight",
        &["enabled.cold", "disabled.cold"],
        &[("overhead_ratio", 0.987), ("exemplar_resolved", 1.0)],
    );
    const KILL_RECOVER: Row = (
        "kill_recover",
        &["updates", "reads"],
        &[("recovered_generation", 6.0), ("reads_identical", 1.0)],
    );

    /// Fills a report with `rows` (a 503 in each scenario's first phase),
    /// renders it, and checks that every phase, figure and violation
    /// appears under the one schema.
    fn assert_renders(rows: &[Row]) -> Report {
        let mut report = Report::default();
        for &(scenario, phases, figures) in rows {
            let mut s = report.scenario(scenario);
            for (i, phase) in phases.iter().enumerate() {
                let status = if i == 0 { 503 } else { 200 };
                let p = s.phase(
                    phase,
                    &[exchange(200, 2), exchange(status, 4)],
                    Duration::from_millis(8),
                );
                assert_eq!(p.name, format!("{scenario}.{phase}"));
                assert_eq!((p.requests, p.errors), (2, usize::from(i == 0)));
            }
            for &(name, value) in figures {
                s.figure(name, value);
            }
        }
        let text = render(&report);
        assert!(text.ends_with("}\n"));
        let doc = crate::json::JsonValue::parse(&text).expect("report parses");
        let schema = doc
            .get("schema")
            .unwrap()
            .unwrap()
            .as_str("schema")
            .unwrap();
        assert_eq!(schema, SCHEMA);
        assert_eq!(
            report.violations.len(),
            rows.len(),
            "{:?}",
            report.violations
        );
        for &(scenario, phases, figures) in rows {
            for phase in phases {
                assert!(text.contains(&format!(
                    "{{\"name\":\"{scenario}.{phase}\",\"requests\":2,"
                )));
            }
            for &(name, value) in figures {
                let key = format!("{scenario}.{name}");
                assert_eq!(report.figure(&key), Some(value));
                assert!(
                    text.contains(&format!("\"{key}\":{value:?}")),
                    "{key}: {text}"
                );
            }
            let violation = format!(
                "{scenario}: {}: 1 non-2xx responses (first: 503 {{}})",
                phases[0]
            );
            assert!(report.violations.contains(&violation), "{violation}");
            assert!(text.contains(&violation.replace('"', "\\\"")), "{text}");
        }
        report
    }

    #[test]
    fn report_renders_with_schema() {
        // All seven scenarios share one report and one schema.
        let report = assert_renders(&[READ, CHURN, BATCH, ANYTIME, OBS, FLIGHT, KILL_RECOVER]);
        assert_eq!(report.phase("read.repeat").unwrap().p50_ms, 4.0);
        assert_eq!(report.phase("read.repeat").unwrap().throughput_rps, 250.0);
        assert!(report.phase("read.nope").is_none());
    }

    #[test]
    fn churn_report_renders_with_schema() {
        assert_renders(&[CHURN]);
    }

    #[test]
    fn batch_report_renders_with_schema() {
        assert_renders(&[BATCH]);
    }

    #[test]
    fn anytime_report_renders_with_schema() {
        assert_renders(&[ANYTIME]);
    }

    #[test]
    fn obs_report_renders_with_schema() {
        assert_renders(&[OBS]);
    }

    #[test]
    fn flight_report_renders_with_schema() {
        assert_renders(&[FLIGHT]);
    }

    #[test]
    fn kill_recover_report_renders_with_schema() {
        assert_renders(&[KILL_RECOVER]);
    }

    #[test]
    fn counter_scan_and_percentiles() {
        // The counter scans ride the shared mpds-obs parser; pin the
        // harness-visible behavior here too.
        let body = "{\"cache\":{\"hits\":12,\"misses\":3},\"coalesced\":4}";
        assert_eq!(scrape::json_uint(body, "hits"), Some(12));
        assert_eq!(scrape::json_uint(body, "misses"), Some(3));
        assert_eq!(scrape::json_uint(body, "coalesced"), Some(4));
        assert_eq!(scrape::json_uint(body, "absent"), None);

        let ms = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(percentile(&ms, 0.5), 3.0);
        assert_eq!(percentile(&ms, 0.99), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn churn_batches_are_deterministic_and_disjoint() {
        let b0 = churn_batch(0, 4);
        assert_eq!(b0, churn_batch(0, 4));
        // Round 0: inserts only.
        assert_eq!(b0.lines().count(), 4);
        assert!(!b0.contains(" -"));
        // Round 1: 4 inserts + 2 re-weights + 2 deletes of round 0's pairs.
        let b1 = churn_batch(1, 4);
        assert_eq!(b1.lines().count(), 8);
        assert_eq!(b1.matches(" -").count(), 2);
        assert_eq!(b1.matches(" 0.9").count(), 2);
        // No line may repeat an edge key within one batch (the server
        // rejects duplicates): all first-two-token pairs distinct.
        let keys: Vec<&str> = b1.lines().map(|l| l.rsplit_once(' ').unwrap().0).collect();
        let unique: std::collections::HashSet<&&str> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len(), "{b1}");
    }

    #[test]
    fn batch_member_specs_are_distinct_cache_keys() {
        let specs: Vec<(&str, usize)> = (0..8).map(batch_member_spec).collect();
        let unique: std::collections::HashSet<&(&str, usize)> = specs.iter().collect();
        assert_eq!(unique.len(), specs.len(), "{specs:?}");
        assert!(specs.iter().any(|(a, _)| *a == "nds"));
        assert!(specs.iter().any(|(a, _)| *a == "mpds"));
    }

    #[test]
    fn batch_body_is_deterministic_and_parseable() {
        let load = Load {
            theta: 256,
            ..Load::default()
        };
        let body = batch_body(&load, 3, 7);
        assert_eq!(body, batch_body(&load, 3, 7));
        assert!(body.starts_with("{\"dataset\":\"karate\",\"theta\":256,\"seed\":7,"));
        // The body must round-trip through the server's own parser.
        let doc = crate::json::JsonValue::parse(&body).unwrap();
        assert_eq!(
            doc.get("members")
                .unwrap()
                .unwrap()
                .as_array("m")
                .unwrap()
                .len(),
            3
        );
    }
}

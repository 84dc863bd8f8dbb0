//! The phases of a run: set-up, cold queries, and the traced run's
//! in-process replays, probes and durable updates. Every client thread works
//! on its own [`Lane`].

use crate::client::Client;
use crate::replay::{self, ReplayCounts};
use crate::spec::{Args, QuerySpec, CHURN, DATASETS};
use crate::trace::{Tracer, NONE};
use mpds::RunControl;
use mpds_service::engine::{render_query_response, run_query, EngineConfig};
use mpds_service::harness::churn_batch;
use mpds_service::json::JsonValue;
use mpds_service::{GraphRegistry, QueryEngine, QueryError, ResponseSource, Server, ServerConfig};
use mpds_store::{Store, SyncPolicy};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Edges inserted per `/update` batch (`harness::churn_batch` grammar).
const BATCH_EDGES: usize = 8;

/// Operations attempted and failed. A failure is a non-2xx response, a
/// transport error or a failed check.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("check failed: {msg}");
            }
        }
    }
}

/// The state of one client thread: its connection, spans, tally and
/// samples. Lanes are merged when their phase ends.
pub struct Lane {
    pub client: Client,
    pub tr: Tracer,
    pub tally: Tally,
    pub query_ms: Vec<f64>,
    /// Sampled worlds behind the answers this lane received.
    pub worlds: u64,
    pub truncated: u64,
    pub replay: ReplayCounts,
    /// `(index, body)` of cold queries kept for the traced probes.
    pub kept: Vec<(usize, Vec<u8>)>,
}

impl Lane {
    pub fn new(addr: SocketAddr, trace: bool) -> Self {
        Lane {
            client: Client::new(addr),
            tr: Tracer::new(trace),
            tally: Tally::default(),
            query_ms: Vec::new(),
            worlds: 0,
            truncated: 0,
            replay: ReplayCounts::default(),
            kept: Vec::new(),
        }
    }

    /// Folds `other` into this lane.
    pub fn absorb(&mut self, other: Lane) {
        self.client.connects += other.client.connects;
        self.client.requests += other.client.requests;
        self.tr.absorb(other.tr);
        self.tally.attempted += other.tally.attempted;
        self.tally.failed += other.tally.failed;
        self.query_ms.extend(other.query_ms);
        self.worlds += other.worlds;
        self.truncated += other.truncated;
        self.replay.absorb(other.replay);
        self.kept.extend(other.kept);
    }
}

/// A bound server over a fresh registry and data directory.
pub struct Stack {
    pub server: Server,
    pub engine: Arc<QueryEngine>,
}

impl Stack {
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

/// One set-up: registry, the builds of both queried datasets (every
/// workload serves the same two, so set-up does the same work on each),
/// server bind. Returns the stack and the time of the datasets' first
/// `GraphRegistry::get` in ms.
pub fn set_up(tr: &mut Tracer) -> Result<(Stack, f64), String> {
    let root = tr.begin("setup", NONE, 0);
    let engine = Arc::new(QueryEngine::new(
        GraphRegistry::with_builtins(),
        &EngineConfig::default(),
    ));
    let t = Instant::now();
    for name in DATASETS {
        tr.time("registry.build", root, 0, || engine.registry().get(name))?;
    }
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let cfg = ServerConfig {
        threads: std::thread::available_parallelism().map_or(2, |n| n.get()),
        ..ServerConfig::default()
    };
    let server = tr.time("server.bind", root, 0, || {
        Server::bind("127.0.0.1:0", Arc::clone(&engine), &cfg)
    });
    tr.end(root);
    let server = server.map_err(|e| format!("bind: {e}"))?;
    Ok((Stack { server, engine }, build_ms))
}

/// The engine's cache and compute counters, from `/metrics`.
#[derive(Clone, Copy, Default)]
pub struct EngineCounters {
    pub hits: u64,
    pub misses: u64,
    pub computed: u64,
}

fn fetch_json(client: &mut Client, path: &str) -> Result<JsonValue, String> {
    let resp = client.get(path).map_err(|e| format!("GET {path}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET {path} answered {}", resp.status));
    }
    JsonValue::parse(resp.body_text()).map_err(|e| format!("GET {path}: {e}"))
}

fn field_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)?.ok_or(format!("missing {key:?}"))?.as_u64(key)
}

pub fn engine_counters(client: &mut Client) -> Result<EngineCounters, String> {
    let m = fetch_json(client, "/metrics")?;
    let cache = m.get("cache")?.ok_or("no cache block in /metrics")?;
    Ok(EngineCounters {
        hits: field_u64(cache, "hits")?,
        misses: field_u64(cache, "misses")?,
        computed: field_u64(&m, "computed")?,
    })
}

/// Applies churn batches `0..n` (the `harness::churn_batch` grammar) to a
/// private durable engine in-process, timing `QueryEngine::apply_update`;
/// each batch must raise the generation by exactly one. Returns the store's
/// WAL bytes per logged batch and its checkpoints: each compaction of a
/// durable dataset writes one.
pub fn replay_updates(dir: &Path, n: usize, lane: &mut Lane) -> Result<(f64, u64), String> {
    let mut registry = GraphRegistry::with_builtins();
    registry.register_builtin(CHURN, ugraph::datasets::karate_club);
    let store = Store::create(dir, SyncPolicy::Commit)
        .map_err(|e| format!("data dir {}: {e}", dir.display()))?;
    registry.set_store(store);
    let engine = QueryEngine::new(registry, &EngineConfig::default());
    engine.registry().get(CHURN)?;
    for round in 0..n {
        let batch = churn_batch(round, BATCH_EDGES);
        let out = lane
            .tr
            .time("registry.apply_update", NONE, round as u32, || {
                engine.apply_update(CHURN, batch.as_bytes())
            });
        lane.tally.record(match out {
            Ok(o) if o.generation == round as u64 + 1 => Ok(()),
            Ok(o) => Err(format!("update {round}: generation {}", o.generation)),
            Err(e) => Err(format!("update {round}: {e}")),
        });
    }
    let info = engine
        .registry()
        .list()
        .into_iter()
        .find(|d| d.name == CHURN)
        .ok_or("churn dataset not listed")?;
    let (bytes, records) = (info.wal_bytes.unwrap_or(0), info.wal_records.unwrap_or(0));
    let per_update = if records == 0 {
        0.0
    } else {
        bytes as f64 / records as f64
    };
    Ok((per_update, info.compactions.unwrap_or(0)))
}

/// One timed cold query: a 200 MISS with θ sampled worlds. A traced query
/// is also replayed in-process, and both replays must render the served
/// body byte for byte. `keep` keeps the body for the probes.
pub fn cold_query(
    args: &Args,
    stack: &Stack,
    lane: &mut Lane,
    spec: &QuerySpec,
    index: usize,
    keep: bool,
) {
    let request = index as u32;
    let tr = &mut lane.tr;
    let root = tr.begin("query", NONE, request);
    let span = tr.begin("http.request", root, request);
    let t = Instant::now();
    let resp = lane.client.get(&spec.path());
    lane.query_ms.push(t.elapsed().as_secs_f64() * 1e3);
    tr.end(span);
    let checked = resp.map_err(|e| e.to_string()).and_then(|r| {
        if r.status != 200 {
            return Err(format!("answered {}: {}", r.status, r.body_text()));
        }
        if r.header("x-cache") != Some("MISS") {
            return Err(format!("X-Cache {:?}, expected MISS", r.header("x-cache")));
        }
        let v = JsonValue::parse(r.body_text())?;
        let worlds = field_u64(v.get("stats")?.ok_or("no stats")?, "worlds_sampled")?;
        if worlds != spec.theta as u64 {
            return Err(format!("{worlds} worlds sampled, expected {}", spec.theta));
        }
        let truncated = v.get("truncated")?.ok_or("no truncated")?;
        Ok((truncated.as_bool("truncated")?, r.body))
    });
    let body = match checked {
        Ok((truncated, body)) => {
            lane.worlds += spec.theta as u64;
            lane.truncated += u64::from(truncated);
            lane.tally.record(Ok(()));
            body
        }
        Err(e) => {
            lane.tally.record(Err(format!("query {index}: {e}")));
            Vec::new()
        }
    };
    if args.trace {
        let g = stack
            .engine
            .registry()
            .get(spec.dataset)
            .expect("dataset built during set-up");
        let req = spec.request();
        let same = |rendered: &str, what: &str| {
            if rendered.as_bytes() == body.as_slice() {
                Ok(())
            } else {
                Err(format!(
                    "query {index}: {what} differs from the served body"
                ))
            }
        };
        let run = tr.time("core.run", root, request, || {
            run_query(&g, &req, &RunControl::unbounded())
        });
        lane.tally.record(match run {
            Ok(payload) => {
                let rendered = tr.time("engine.render", root, request, || {
                    render_query_response(&req, &payload)
                });
                same(&rendered, "run_query replay")
            }
            Err(e) => Err(format!("query {index}: run_query: {e}")),
        });
        let span = tr.begin("replay", root, request);
        let payload = replay::replay(tr, span, request, &g, &req, &mut lane.replay);
        tr.end(span);
        lane.tally.record(same(
            &render_query_response(&req, &payload),
            "per-world replay",
        ));
    }
    tr.end(root);
    if keep {
        lane.kept.push((index, body));
    }
}

/// Re-reads kept cold queries over HTTP and in-process: both must be cache
/// hits with the MISS body's bytes.
pub fn probe_cached(stack: &Stack, lane: &mut Lane, specs: &[QuerySpec]) {
    for (index, body) in std::mem::take(&mut lane.kept) {
        let request = index as u32;
        let spec = &specs[index];
        let root = lane.tr.begin("probe", NONE, request);
        let client = &mut lane.client;
        let resp = lane
            .tr
            .time("http.hit", root, request, || client.get(&spec.path()));
        lane.tally.record(match resp {
            Ok(r) if r.status == 200 && r.header("x-cache") == Some("HIT") && r.body == body => {
                Ok(())
            }
            Ok(r) => Err(format!(
                "probe {index}: status {} X-Cache {:?}, body equal: {}",
                r.status,
                r.header("x-cache"),
                r.body == body
            )),
            Err(e) => Err(format!("probe {index}: {e}")),
        });
        let req = spec.request();
        let hit = lane
            .tr
            .time("engine.hit", root, request, || stack.engine.execute(&req));
        lane.tally.record(in_process_hit(hit, &body, index));
        lane.tr.end(root);
    }
}

fn in_process_hit(
    hit: Result<(Arc<Vec<u8>>, ResponseSource), QueryError>,
    body: &[u8],
    index: usize,
) -> Result<(), String> {
    match hit {
        Ok((b, ResponseSource::Hit)) if b.as_slice() == body => Ok(()),
        Ok((b, source)) => Err(format!(
            "in-process read {index}: {source:?}, body equal: {}",
            b.as_slice() == body
        )),
        Err(e) => Err(format!("in-process read {index}: {e}")),
    }
}

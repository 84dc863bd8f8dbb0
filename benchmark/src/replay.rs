//! In-process replay of one served cold query on the exact worlds the server
//! drew: a serial query samples from `SamplerKind::MonteCarlo.build(g, seed)`
//! on the registry's own graph, so this loop sees the same worlds in the same
//! order. Each world's layers are called one by one through their public
//! functions, inside spans, and the answer is rebuilt so that its rendered
//! bytes can be compared with the served body.

use crate::trace::{SpanId, Tracer};
use densest::{all_densest, max_density, max_sized_densest};
use mpds::api::SamplerKind;
use mpds_service::engine::{Algo, QueryRequest, ResponsePayload};
use mpds_service::registry::LoadedGraph;
use std::collections::HashMap;
use std::hint::black_box;
use ugraph::{EdgeMask, Graph, NodeSet};

/// `mpds::api::Query`'s default enumeration cap, which the engine keeps.
const ENUMERATION_CAP: usize = 100_000;
/// `mpds::api::Query`'s default miner node cap, which the engine keeps.
const MINER_NODE_CAP: usize = 5_000_000;

/// Counts the replay gathers besides its spans.
#[derive(Default)]
pub struct ReplayCounts {
    pub worlds: u64,
    /// Densest-family size of every MPDS world (0 for empty worlds).
    pub family_sizes: Vec<usize>,
    pub truncated_worlds: u64,
    /// Nodes kept by the `(⌈ρ̃⌉, ·)`-core reduction, and non-isolated nodes.
    pub core_kept: u64,
    pub non_isolated: u64,
    /// Candidate sets emitted by the worlds, and distinct among them.
    pub emitted_sets: u64,
    pub distinct_sets: u64,
}

impl ReplayCounts {
    pub fn absorb(&mut self, other: ReplayCounts) {
        self.worlds += other.worlds;
        self.family_sizes.extend(other.family_sizes);
        self.truncated_worlds += other.truncated_worlds;
        self.core_kept += other.core_kept;
        self.non_isolated += other.non_isolated;
        self.emitted_sets += other.emitted_sets;
        self.distinct_sets += other.distinct_sets;
    }
}

/// Replays `req` (a validated serial, fixed-θ, non-heuristic query) and
/// returns the payload the engine would render.
pub fn replay(
    tr: &mut Tracer,
    parent: SpanId,
    request: u32,
    g: &LoadedGraph,
    req: &QueryRequest,
    counts: &mut ReplayCounts,
) -> ResponsePayload {
    let notion = req.validate().expect("benchmark queries are valid");
    let graph = &g.graph;
    let mut sampler = SamplerKind::MonteCarlo.build(graph, req.seed);
    let mut mask = EdgeMask::new(graph.num_edges());
    let mut world = Graph::default();
    let mut candidates: HashMap<NodeSet, u32> = HashMap::new();
    let mut transactions: Vec<NodeSet> = Vec::new();
    let mut empty_worlds = 0usize;
    let mut truncated = false;
    for _ in 0..req.theta {
        let w = tr.begin("world", parent, request);
        let s = tr.begin("sampling.world", w, request);
        sampler.next_mask_into(&mut mask);
        world = graph.world_from_bitmap(&mask, world);
        tr.end(s);

        let instances = tr.time("densest.instances", w, request, || {
            densest::solve::instances_of(&world, &notion)
        });
        if instances.count() > 0 {
            let peeling = tr.time("densest.peel", w, request, || {
                densest::peeling::peel(world.num_nodes(), &instances)
            });
            let k = peeling.best_density.ceil();
            counts.core_kept += peeling.core_number.iter().filter(|&&c| c >= k).count() as u64;
            counts.non_isolated += (0..world.num_nodes() as u32)
                .filter(|&v| world.degree(v) > 0)
                .count() as u64;
        }
        tr.time("densest.max_density", w, request, || {
            black_box(max_density(&world, &notion))
        });

        match req.algo {
            Algo::Mpds => {
                let found = tr.time("densest.all_densest", w, request, || {
                    all_densest(&world, &notion, ENUMERATION_CAP)
                });
                match found {
                    None => {
                        empty_worlds += 1;
                        counts.family_sizes.push(0);
                    }
                    Some(r) => {
                        truncated |= r.truncated;
                        counts.truncated_worlds += u64::from(r.truncated);
                        counts.family_sizes.push(r.subgraphs.len());
                        counts.emitted_sets += r.subgraphs.len() as u64;
                        tr.time("core.accumulate", w, request, || {
                            for sg in r.subgraphs {
                                *candidates.entry(sg).or_insert(0) += 1;
                            }
                        });
                    }
                }
            }
            Algo::Nds => {
                let found = tr.time("densest.max_sized", w, request, || {
                    max_sized_densest(&world, &notion)
                });
                match found {
                    Some((_, ms)) => transactions.push(ms),
                    None => empty_worlds += 1,
                }
            }
        }
        tr.end(w);
        counts.worlds += 1;
    }

    let theta = req.theta as f64;
    let (score_name, top_k, truncated) = match req.algo {
        Algo::Mpds => {
            counts.distinct_sets += candidates.len() as u64;
            let top = tr.time("core.finalize", parent, request, || {
                let mut all: Vec<(&NodeSet, u32)> =
                    candidates.iter().map(|(s, &c)| (s, c)).collect();
                all.sort_by(|a, b| {
                    b.1.cmp(&a.1)
                        .then(a.0.len().cmp(&b.0.len()))
                        .then(a.0.cmp(b.0))
                });
                all.into_iter()
                    .take(req.k)
                    .map(|(s, c)| (s.clone(), c as f64 / theta))
                    .collect::<Vec<_>>()
            });
            ("tau_hat", top, truncated)
        }
        Algo::Nds => {
            let (mined, capped) = tr.time("itemset.mine", parent, request, || {
                itemset::top_k_closed(&transactions, req.k, req.lm, MINER_NODE_CAP)
            });
            let top = mined
                .into_iter()
                .map(|c| (c.items, c.support as f64 / theta))
                .collect();
            ("gamma_hat", top, capped)
        }
    };
    ResponsePayload {
        score_name,
        rows: top_k
            .into_iter()
            .map(|(set, score)| (set.iter().map(|&v| g.label_of(v)).collect(), score))
            .collect(),
        empty_worlds,
        truncated,
        worlds_sampled: req.theta,
        stop_reason: "completed",
        converged_at: None,
    }
}

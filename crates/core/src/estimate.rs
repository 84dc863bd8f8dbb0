//! Top-k MPDS estimation (paper Algorithm 1).
//!
//! Sample θ possible worlds; in each, find **all** densest subgraphs and
//! increment their counters; return the k node sets with the highest
//! estimated densest subgraph probability `τ̂(U) = count(U) / θ` (an unbiased
//! estimator — paper Lemma 1; accuracy guarantees in [`crate::theory`]).
//!
//! The runnable entry point is [`crate::api::Query::mpds`] (single queries)
//! and [`crate::api::queryset::QuerySet`] (batches over one shared world
//! stream); this module keeps the result type and the ranking helpers.

use densest::DensityNotion;
use std::collections::HashMap;
use ugraph::{NodeId, NodeSet};

/// Configuration for the top-k MPDS estimator.
#[derive(Debug, Clone)]
pub struct MpdsConfig {
    /// Density notion ρ (edge / h-clique / pattern).
    pub notion: DensityNotion,
    /// Number of sampled possible worlds θ.
    pub theta: usize,
    /// How many top node sets to return.
    pub k: usize,
    /// Cap on densest subgraphs enumerated per world (they can explode —
    /// paper Table VIII; LastFM std-dev > 22 000).
    pub enumeration_cap: usize,
    /// `true` (paper default): count *all* densest subgraphs per world.
    /// `false`: count one uniformly random densest subgraph per world — the
    /// §VI-D ablation showing why "all" matters (up to 20× on LastFM).
    pub all_densest: bool,
    /// Use the §III-C heuristic (innermost core + denser peeling suffixes)
    /// instead of the exact enumeration. For large graphs / big patterns.
    pub heuristic: bool,
    /// Seed for the internal tie-breaking RNG (used by the `one densest`
    /// ablation mode).
    pub choice_seed: u64,
}

impl MpdsConfig {
    /// Paper-default configuration for a given notion, θ, and k.
    pub fn new(notion: DensityNotion, theta: usize, k: usize) -> Self {
        MpdsConfig {
            notion,
            theta,
            k,
            enumeration_cap: 100_000,
            all_densest: true,
            heuristic: false,
            choice_seed: 0x5eed,
        }
    }
}

/// Output of the estimator.
#[derive(Debug, Clone)]
pub struct MpdsResult {
    /// Top-k node sets with their estimated densest subgraph probability
    /// `τ̂`, sorted by `τ̂` descending (ties: smaller set first, then
    /// lexicographic — deterministic).
    pub top_k: Vec<(NodeSet, f64)>,
    /// Full candidate table: node set → number of worlds in which it was a
    /// densest subgraph.
    pub candidates: HashMap<NodeSet, u32>,
    /// Number of sampled worlds.
    pub theta: usize,
    /// Worlds with no instance of the notion (they contribute to no set).
    pub empty_worlds: usize,
    /// Number of densest subgraphs found in each world (paper Table VIII).
    pub densest_counts: Vec<usize>,
    /// Whether any world's enumeration hit the cap.
    pub truncated: bool,
}

impl MpdsResult {
    /// Estimated densest subgraph probability of an arbitrary node set.
    pub fn tau_hat(&self, nodes: &[NodeId]) -> f64 {
        let key: NodeSet = nodes.to_vec();
        *self.candidates.get(&key).unwrap_or(&0) as f64 / self.theta as f64
    }
}

/// Deterministically selects the k best candidates (shared by the builder
/// API's serial and parallel execution paths).
pub(crate) fn select_top_k(
    candidates: &HashMap<NodeSet, u32>,
    k: usize,
    theta: usize,
) -> Vec<(NodeSet, f64)> {
    let mut all: Vec<(&NodeSet, u32)> = candidates.iter().map(|(s, &c)| (s, c)).collect();
    all.sort_by(|a, b| {
        b.1.cmp(&a.1)
            .then(a.0.len().cmp(&b.0.len()))
            .then(a.0.cmp(b.0))
    });
    all.into_iter()
        .take(k)
        .map(|(s, c)| (s.clone(), c as f64 / theta as f64))
        .collect()
}

/// The k best candidate sets under exactly [`select_top_k`]'s order, kept
/// current while counts grow, so the `Stop::Stable` tracker reads the top-k
/// after every world without rescanning every candidate.
///
/// Offer a set each time its count grows. Counts never shrink, so a set
/// whose count did not change cannot overtake a kept one, and the kept sets
/// stay the top-k of all candidates.
pub(crate) struct TopK {
    k: usize,
    entries: Vec<(NodeSet, u32)>,
}

impl TopK {
    pub(crate) fn new(k: usize) -> Self {
        TopK {
            k,
            entries: Vec::with_capacity(k + 1),
        }
    }

    /// Records that `set`'s count is now `count`.
    pub(crate) fn offer(&mut self, set: &NodeSet, count: u32) {
        let before = |(xs, xc): (&NodeSet, u32), (ys, yc): (&NodeSet, u32)| -> bool {
            yc.cmp(&xc)
                .then(xs.len().cmp(&ys.len()))
                .then(xs.cmp(ys))
                .is_lt()
        };
        let owned = match self.entries.iter().position(|(s, _)| s == set) {
            Some(i) => self.entries.remove(i).0,
            None if self.entries.len() < self.k => set.clone(),
            None => match self.entries.last() {
                Some((last, c)) if before((set, count), (last, *c)) => set.clone(),
                _ => return,
            },
        };
        let pos = (self.entries).partition_point(|(s, c)| before((s, *c), (set, count)));
        self.entries.insert(pos, (owned, count));
        self.entries.truncate(self.k);
    }

    /// The kept sets, best first.
    pub(crate) fn sets(&self) -> Vec<NodeSet> {
        self.entries.iter().map(|(s, _)| s.clone()).collect()
    }
}

/// Summary statistics of the per-world densest-subgraph counts, as reported
/// in the paper's Table VIII: `(mean, std, [q1, median, q3])`.
pub fn densest_count_stats(counts: &[usize]) -> (f64, f64, [usize; 3]) {
    assert!(!counts.is_empty());
    let n = counts.len() as f64;
    let mean = counts.iter().sum::<usize>() as f64 / n;
    let var = counts
        .iter()
        .map(|&c| (c as f64 - mean) * (c as f64 - mean))
        .sum::<f64>()
        / n;
    let mut sorted = counts.to_vec();
    sorted.sort_unstable();
    let q = |f: f64| sorted[((sorted.len() - 1) as f64 * f).round() as usize];
    (mean, var.sqrt(), [q(0.25), q(0.5), q(0.75)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Query, RunDetails};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sampling::MonteCarlo;
    use ugraph::UncertainGraph;

    /// The paper's Fig. 1 running example (matches Table I's probabilities).
    fn fig1() -> UncertainGraph {
        UncertainGraph::from_weighted_edges(4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)])
    }

    #[test]
    fn top_k_sets_matches_the_full_sort() {
        // Pseudo-random counts with heavy ties exercise every tie-break
        // (count, then length, then lexicographic). Counts grow one at a
        // time, as the fold grows them, and after each step the kept top-k
        // must equal the full sort's.
        let mut candidates: HashMap<NodeSet, u32> = HashMap::new();
        let mut tops: Vec<TopK> = [0, 1, 3, 7, 60].into_iter().map(TopK::new).collect();
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..600 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let len = 1 + (x % 4) as u32;
            let first = (x >> 32) as u32 % 50;
            let set: NodeSet = (0..len).map(|j| (first + j * 7) % 50).collect();
            let set = ugraph::nodeset::canonicalize(set);
            let count = candidates.entry(set.clone()).or_insert(0);
            *count += 1;
            let count = *count;
            for top in &mut tops {
                top.offer(&set, count);
                let slow: Vec<NodeSet> = select_top_k(&candidates, top.k, 1)
                    .into_iter()
                    .map(|(s, _)| s)
                    .collect();
                assert_eq!(top.sets(), slow, "k = {}", top.k);
            }
        }
    }

    /// The builder query equivalent to a legacy `MpdsConfig` invocation.
    fn query_for(cfg: &MpdsConfig) -> Query {
        Query::mpds(cfg.notion.clone())
            .theta(cfg.theta)
            .k(cfg.k)
            .enumeration_cap(cfg.enumeration_cap)
            .all_densest(cfg.all_densest)
            .heuristic(cfg.heuristic)
            .choice_seed(cfg.choice_seed)
    }

    fn run(g: &UncertainGraph, cfg: &MpdsConfig, seed: u64) -> MpdsResult {
        match query_for(cfg).seed(seed).run(g).unwrap().details {
            RunDetails::Mpds(r) => r,
            RunDetails::Nds(_) => unreachable!("Query::mpds produces MPDS details"),
        }
    }

    #[test]
    fn fig1_mpds_is_bd() {
        // Table I: DSP({B,D}) = 0.42 is the maximum; B = 1, D = 3.
        let g = fig1();
        let cfg = MpdsConfig::new(DensityNotion::Edge, 4000, 1);
        let r = run(&g, &cfg, 42);
        assert_eq!(r.top_k.len(), 1);
        assert_eq!(r.top_k[0].0, vec![1, 3]);
        assert!((r.top_k[0].1 - 0.42).abs() < 0.03, "tau {}", r.top_k[0].1);
    }

    #[test]
    fn fig1_estimates_match_table1() {
        let g = fig1();
        let cfg = MpdsConfig::new(DensityNotion::Edge, 8000, 10);
        let r = run(&g, &cfg, 7);
        // Table I DSP row: {A,B}=.07, {A,C}=.24, {B,D}=.42, {A,B,C}=.05,
        // {A,B,D}=.17, {A,B,C,D}=.28 (with A,B,C,D = 0,1,2,3).
        let close = |set: &[NodeId], want: f64| {
            let got = r.tau_hat(set);
            assert!((got - want).abs() < 0.025, "{set:?}: {got} vs {want}");
        };
        close(&[0, 1], 0.072);
        close(&[0, 2], 0.24);
        close(&[1, 3], 0.42);
        close(&[0, 1, 2], 0.048);
        close(&[0, 1, 3], 0.168);
        close(&[0, 1, 2, 3], 0.28);
    }

    #[test]
    fn empty_worlds_are_counted() {
        let g = UncertainGraph::from_weighted_edges(3, &[(0, 1, 0.1)]);
        let cfg = MpdsConfig::new(DensityNotion::Edge, 1000, 1);
        let r = run(&g, &cfg, 1);
        // ~90% of worlds have no edges.
        assert!(r.empty_worlds > 800);
        assert_eq!(r.densest_counts.len(), 1000);
        // The only candidate is {0,1} with tau ≈ 0.1.
        assert_eq!(r.top_k[0].0, vec![0, 1]);
        assert!((r.top_k[0].1 - 0.1).abs() < 0.03);
    }

    #[test]
    fn one_vs_all_mode() {
        // Two disjoint certain edges: every world has 3 densest subgraphs
        // ({0,1}, {2,3}, {0,1,2,3}). "All" mode gives each tau = 1; "one"
        // mode splits the mass.
        let g = UncertainGraph::from_weighted_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]);
        let mut cfg = MpdsConfig::new(DensityNotion::Edge, 300, 3);
        let all = run(&g, &cfg, 3);
        assert_eq!(all.top_k.len(), 3);
        for (_, tau) in &all.top_k {
            assert!((tau - 1.0).abs() < 1e-9);
        }
        cfg.all_densest = false;
        let one = run(&g, &cfg, 3);
        let total: f64 = one.top_k.iter().map(|(_, t)| t).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for (_, tau) in &one.top_k {
            assert!(*tau < 0.6, "one-mode mass should split, got {tau}");
        }
    }

    #[test]
    fn clique_mpds_on_certain_triangle() {
        let g = UncertainGraph::from_weighted_edges(
            4,
            &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 0.5)],
        );
        let cfg = MpdsConfig::new(DensityNotion::Clique(3), 200, 1);
        let r = run(&g, &cfg, 5);
        assert_eq!(r.top_k[0].0, vec![0, 1, 2]);
        assert!((r.top_k[0].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn heuristic_mode_runs() {
        let g = fig1();
        let mut cfg = MpdsConfig::new(DensityNotion::Edge, 500, 2);
        cfg.heuristic = true;
        let r = run(&g, &cfg, 11);
        assert!(!r.top_k.is_empty());
        // Heuristic candidates still have sane probabilities.
        for (_, tau) in &r.top_k {
            assert!(*tau <= 1.0 && *tau > 0.0);
        }
    }

    #[test]
    fn stats_helper() {
        let (mean, std, q) = densest_count_stats(&[1, 1, 1, 3]);
        assert!((mean - 1.5).abs() < 1e-12);
        assert!(std > 0.0);
        assert_eq!(q, [1, 1, 1]);
    }

    #[test]
    fn estimator_is_deterministic_given_seeds() {
        let g = fig1();
        let cfg = MpdsConfig::new(DensityNotion::Edge, 200, 3);
        let a = run(&g, &cfg, 99);
        let b = run(&g, &cfg, 99);
        assert_eq!(a.top_k, b.top_k);
    }

    #[test]
    fn unbounded_control_matches_uncontrolled_run() {
        use crate::api::{ChunkedReference, SamplerKind};
        use crate::control::RunControl;
        let g = fig1();
        let cfg = MpdsConfig::new(DensityNotion::Edge, 300, 3);
        let a = run(&g, &cfg, 17);
        let mut mc = ChunkedReference::new(&g, SamplerKind::MonteCarlo, 17);
        let b = match query_for(&cfg)
            .control(RunControl::unbounded())
            .run_with_sampler(&g, &mut mc)
            .unwrap()
            .details
        {
            RunDetails::Mpds(r) => r,
            RunDetails::Nds(_) => unreachable!(),
        };
        assert_eq!(a.top_k, b.top_k);
        assert_eq!(a.candidates, b.candidates);
    }

    #[test]
    fn expired_deadline_interrupts_before_first_world() {
        use crate::api::ApiError;
        use crate::control::RunControl;
        use std::time::{Duration, Instant};
        let g = fig1();
        let cfg = MpdsConfig::new(DensityNotion::Edge, 10_000, 1);
        let mut mc = MonteCarlo::new(&g, StdRng::seed_from_u64(1));
        let ctrl = RunControl::unbounded().with_deadline(Instant::now() - Duration::from_millis(1));
        let err = query_for(&cfg)
            .control(ctrl)
            .run_with_sampler(&g, &mut mc)
            .unwrap_err();
        match err {
            ApiError::Interrupted(i) => {
                assert_eq!(i.reason, crate::control::InterruptReason::DeadlineExceeded);
                assert_eq!(i.completed_worlds, 0);
            }
            other => panic!("expected interruption, got {other:?}"),
        }
    }

    #[test]
    fn raised_cancel_flag_interrupts() {
        use crate::api::ApiError;
        use crate::control::RunControl;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let g = fig1();
        let cfg = MpdsConfig::new(DensityNotion::Edge, 10_000, 1);
        let mut mc = MonteCarlo::new(&g, StdRng::seed_from_u64(1));
        let flag = Arc::new(AtomicBool::new(true));
        flag.store(true, Ordering::Relaxed);
        let ctrl = RunControl::unbounded().with_cancel_flag(flag);
        let err = query_for(&cfg)
            .control(ctrl)
            .run_with_sampler(&g, &mut mc)
            .unwrap_err();
        match err {
            ApiError::Interrupted(i) => {
                assert_eq!(i.reason, crate::control::InterruptReason::Cancelled);
            }
            other => panic!("expected interruption, got {other:?}"),
        }
    }
}

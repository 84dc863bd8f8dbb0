//! Property-based pins for the `mpds::api` determinism contract, now that
//! the legacy free functions (`top_k_mpds`, `top_k_nds`, …) are gone:
//!
//! * `.run()` at seed `s` with θ ≤ [`CHUNK`] is bit-identical to
//!   `.run_with_sampler` over an externally-constructed sampler seeded with
//!   `s` — the contract the legacy wrappers used to witness, and the one
//!   chunk every served benchmark query stays within;
//! * `Exec::Threads(n)` for n in 1..=8 is bit-identical to `Exec::Serial`,
//!   and both to `.run_with_sampler` over the [`CHUNK`]-world chunks of
//!   `SamplerKind::build_stream` concatenated by hand;
//! * a single-member [`mpds::QuerySet`] is bit-identical to the equivalent
//!   standalone [`Query`] run, for MPDS and NDS under all three samplers;
//! * recorded-baseline values (bit-exact `f64`s of a four-chunk run) stay
//!   reproducible, so any drift in the world stream shows up.

use densest::DensityNotion;
use mpds::api::{Exec, Query, RunDetails, SamplerKind, CHUNK};
use mpds::{MpdsResult, NdsResult, QuerySet, Stop, StopReason};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sampling::{MonteCarlo, WorldSampler};
use ugraph::{EdgeMask, Graph, NodeId, NodeSet, UncertainGraph};

/// The chunked world stream rebuilt by hand: chunk `j` of `CHUNK` worlds
/// from `kind.build_stream(g, seed, j)`, concatenated into one sampler.
struct Chunked<'g> {
    g: &'g UncertainGraph,
    kind: SamplerKind,
    seed: u64,
    drawn: usize,
    chunk: Option<Box<dyn WorldSampler>>,
}

impl<'g> Chunked<'g> {
    fn new(g: &'g UncertainGraph, kind: SamplerKind, seed: u64) -> Self {
        Chunked {
            g,
            kind,
            seed,
            drawn: 0,
            chunk: None,
        }
    }
}

impl WorldSampler for Chunked<'_> {
    fn num_edges(&self) -> usize {
        self.g.num_edges()
    }

    fn next_mask_into(&mut self, mask: &mut EdgeMask) {
        if self.drawn % CHUNK == 0 {
            let j = (self.drawn / CHUNK) as u64;
            self.chunk = Some(self.kind.build_stream(self.g, self.seed, j));
        }
        self.drawn += 1;
        self.chunk.as_mut().unwrap().next_mask_into(mask);
    }

    fn aux_memory_bytes(&self) -> usize {
        0
    }

    fn name(&self) -> &'static str {
        "chunked"
    }
}

/// θ values on both sides of the first chunk boundaries.
fn arb_theta() -> impl Strategy<Value = usize> {
    (0usize..5).prop_map(|i| [1, 127, 128, 129, 300][i])
}

fn arb_sampler() -> impl Strategy<Value = SamplerKind> {
    (0usize..3).prop_map(|i| [SamplerKind::MonteCarlo, SamplerKind::Lp, SamplerKind::Rss][i])
}

/// Strategy: a random uncertain graph on up to 6 nodes with edge
/// probabilities in (0, 1].
fn arb_uncertain() -> impl Strategy<Value = UncertainGraph> {
    (3usize..=6).prop_flat_map(|n| {
        let pairs: Vec<(NodeId, NodeId)> = (0..n as NodeId)
            .flat_map(|u| ((u + 1)..n as NodeId).map(move |v| (u, v)))
            .collect();
        let len = pairs.len();
        proptest::collection::vec(proptest::bool::ANY, len).prop_flat_map(move |mask| {
            let edges: Vec<(NodeId, NodeId)> = pairs
                .iter()
                .zip(&mask)
                .filter(|(_, &b)| b)
                .map(|(&e, _)| e)
                .collect();
            let g = Graph::from_edges(n, &edges);
            let m = g.num_edges();
            proptest::collection::vec(0.1f64..=1.0, m)
                .prop_map(move |probs| UncertainGraph::new(g.clone(), probs))
        })
    })
}

fn mpds_details(details: RunDetails) -> MpdsResult {
    match details {
        RunDetails::Mpds(r) => r,
        RunDetails::Nds(_) => unreachable!("MPDS query yields MPDS details"),
    }
}

fn nds_details(details: RunDetails) -> NdsResult {
    match details {
        RunDetails::Nds(r) => r,
        RunDetails::Mpds(_) => unreachable!("NDS query yields NDS details"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Serial MPDS: `.run()` at seed `s` ≡ `.run_with_sampler` over an
    /// equally-seeded MC sampler for every θ within the first chunk, across
    /// both the all-densest default and the §VI-D one-mode ablation.
    #[test]
    fn serial_mpds_run_equals_external_sampler(
        ug in arb_uncertain(),
        seed in 0u64..512,
        theta in 1usize..=CHUNK,
        k in 0usize..4, // k = 0 is the legal degenerate "rank nothing" query
        all_mode in proptest::bool::ANY,
    ) {
        let query = || Query::mpds(DensityNotion::Edge)
            .theta(theta)
            .k(k)
            .all_densest(all_mode);
        let mut mc = MonteCarlo::new(&ug, StdRng::seed_from_u64(seed));
        let external = mpds_details(query().run_with_sampler(&ug, &mut mc).unwrap().details);
        let run = query().seed(seed).run(&ug).unwrap();
        prop_assert_eq!(&run.top_k, &external.top_k);
        let details = mpds_details(run.details);
        prop_assert_eq!(details.candidates, external.candidates);
        prop_assert_eq!(details.densest_counts, external.densest_counts);
        prop_assert_eq!(details.empty_worlds, external.empty_worlds);
        prop_assert_eq!(details.truncated, external.truncated);
    }

    /// Threaded MPDS: `Exec::Threads(n)` ≡ `Exec::Serial` ≡
    /// `.run_with_sampler` over the hand-composed chunk stream, in both
    /// the all-densest and the one-densest mode.
    #[test]
    fn threads_mpds_equals_serial(
        ug in arb_uncertain(),
        seed in 0u64..512,
        theta in arb_theta(),
        workers in 1usize..=8,
        kind in arb_sampler(),
        all_mode in proptest::bool::ANY,
    ) {
        let query = || Query::mpds(DensityNotion::Edge)
            .theta(theta)
            .k(3)
            .seed(seed)
            .sampler(kind)
            .all_densest(all_mode);
        let serial = query().run(&ug).unwrap();
        let threaded = query().exec(Exec::Threads(workers)).run(&ug).unwrap();
        let mut chunked = Chunked::new(&ug, kind, seed);
        let composed = query().run_with_sampler(&ug, &mut chunked).unwrap();
        for other in [&serial, &composed] {
            prop_assert_eq!(&threaded.top_k, &other.top_k);
            prop_assert_eq!(threaded.stats.worlds_sampled, other.stats.worlds_sampled);
            prop_assert_eq!(threaded.stats.empty_worlds, other.stats.empty_worlds);
            let (t, o) = (mpds_details(threaded.details.clone()), mpds_details(other.details.clone()));
            prop_assert_eq!(t.candidates, o.candidates);
            prop_assert_eq!(t.densest_counts, o.densest_counts);
            prop_assert_eq!(t.truncated, o.truncated);
        }
    }

    /// Serial NDS: `.run()` at seed `s` ≡ `.run_with_sampler` over an
    /// equally-seeded MC sampler for every θ within the first chunk.
    #[test]
    fn serial_nds_run_equals_external_sampler(
        ug in arb_uncertain(),
        seed in 0u64..512,
        theta in 1usize..=CHUNK,
        min_size in 0usize..4, // 0 imposes no size floor
    ) {
        let query = || Query::nds(DensityNotion::Edge)
            .theta(theta)
            .k(4)
            .min_size(min_size);
        let mut mc = MonteCarlo::new(&ug, StdRng::seed_from_u64(seed));
        let external = nds_details(query().run_with_sampler(&ug, &mut mc).unwrap().details);
        let run = query().seed(seed).run(&ug).unwrap();
        prop_assert_eq!(&run.top_k, &external.top_k);
        let details = nds_details(run.details);
        prop_assert_eq!(details.transactions, external.transactions);
        prop_assert_eq!(details.empty_worlds, external.empty_worlds);
    }

    /// Threaded NDS: `Exec::Threads(n)` ≡ `Exec::Serial` ≡
    /// `.run_with_sampler` over the hand-composed chunk stream.
    #[test]
    fn threads_nds_equals_serial(
        ug in arb_uncertain(),
        seed in 0u64..512,
        theta in arb_theta(),
        workers in 1usize..=8,
        kind in arb_sampler(),
    ) {
        let query = || Query::nds(DensityNotion::Edge)
            .theta(theta)
            .k(4)
            .min_size(2)
            .seed(seed)
            .sampler(kind);
        let serial = query().run(&ug).unwrap();
        let threaded = query().exec(Exec::Threads(workers)).run(&ug).unwrap();
        let mut chunked = Chunked::new(&ug, kind, seed);
        let composed = query().run_with_sampler(&ug, &mut chunked).unwrap();
        for other in [&serial, &composed] {
            prop_assert_eq!(&threaded.top_k, &other.top_k);
            prop_assert_eq!(threaded.stats.worlds_sampled, other.stats.worlds_sampled);
            let (t, o) = (nds_details(threaded.details.clone()), nds_details(other.details.clone()));
            prop_assert_eq!(t.transactions, o.transactions);
            prop_assert_eq!(t.empty_worlds, o.empty_worlds);
            prop_assert_eq!(t.miner_capped, o.miner_capped);
        }
    }

    /// The anytime contract, MPDS side: a `Stop::Stable` run that stops
    /// after `t` worlds is bit-identical to `Stop::FixedTheta` at
    /// `theta = t` with the same seed — early stopping truncates the world
    /// stream, it never changes what any prefix of the stream estimates.
    #[test]
    fn stable_stop_equals_fixed_theta_at_the_stop_point_mpds(
        ug in arb_uncertain(),
        seed in 0u64..512,
        theta in 4usize..40,
        window in 1usize..6,
    ) {
        let stable = Query::mpds(DensityNotion::Edge)
            .theta(theta)
            .k(3)
            .seed(seed)
            .stop(Stop::Stable { window, min_theta: window, theta_cap: theta })
            .run(&ug)
            .unwrap();
        let t = stable.stats.worlds_sampled;
        prop_assert!(t >= 1 && t <= theta, "stop point {} outside 1..={}", t, theta);
        if stable.stats.stop_reason == StopReason::Stable {
            prop_assert!(t < theta || stable.stats.converged_at.is_some());
        } else {
            prop_assert_eq!(stable.stats.stop_reason, StopReason::Completed);
            prop_assert_eq!(t, theta);
        }
        let fixed = Query::mpds(DensityNotion::Edge)
            .theta(t)
            .k(3)
            .seed(seed)
            .run(&ug)
            .unwrap();
        let sb: Vec<(NodeSet, u64)> =
            stable.top_k.iter().map(|(s, v)| (s.clone(), v.to_bits())).collect();
        let fb: Vec<(NodeSet, u64)> =
            fixed.top_k.iter().map(|(s, v)| (s.clone(), v.to_bits())).collect();
        prop_assert_eq!(sb, fb);
        prop_assert_eq!(stable.stats.empty_worlds, fixed.stats.empty_worlds);
        let s = mpds_details(stable.details);
        let f = mpds_details(fixed.details);
        prop_assert_eq!(s.candidates, f.candidates);
        prop_assert_eq!(s.densest_counts, f.densest_counts);
    }

    /// The anytime contract, NDS side: same statement over the closed-set
    /// miner — transactions collected up to the stop point match a fixed-θ
    /// run of exactly that length.
    #[test]
    fn stable_stop_equals_fixed_theta_at_the_stop_point_nds(
        ug in arb_uncertain(),
        seed in 0u64..512,
        theta in 4usize..40,
        window in 1usize..6,
    ) {
        let stable = Query::nds(DensityNotion::Edge)
            .theta(theta)
            .k(3)
            .min_size(2)
            .seed(seed)
            .stop(Stop::Stable { window, min_theta: window, theta_cap: theta })
            .run(&ug)
            .unwrap();
        let t = stable.stats.worlds_sampled;
        prop_assert!(t >= 1 && t <= theta);
        let fixed = Query::nds(DensityNotion::Edge)
            .theta(t)
            .k(3)
            .min_size(2)
            .seed(seed)
            .run(&ug)
            .unwrap();
        let sb: Vec<(NodeSet, u64)> =
            stable.top_k.iter().map(|(s, v)| (s.clone(), v.to_bits())).collect();
        let fb: Vec<(NodeSet, u64)> =
            fixed.top_k.iter().map(|(s, v)| (s.clone(), v.to_bits())).collect();
        prop_assert_eq!(sb, fb);
        let s = nds_details(stable.details);
        let f = nds_details(fixed.details);
        prop_assert_eq!(s.transactions, f.transactions);
        prop_assert_eq!(s.empty_worlds, f.empty_worlds);
    }

    /// A single-member `QuerySet` is bit-identical to the equivalent
    /// standalone MPDS `Query` run under every sampler.
    #[test]
    fn single_member_queryset_equals_standalone_mpds(
        ug in arb_uncertain(),
        seed in 0u64..512,
        theta in 1usize..30,
        k in 0usize..4,
    ) {
        for kind in [SamplerKind::MonteCarlo, SamplerKind::Lp, SamplerKind::Rss] {
            let member = Query::mpds(DensityNotion::Edge).k(k);
            let standalone = member
                .clone()
                .sampler(kind)
                .theta(theta)
                .seed(seed)
                .run(&ug)
                .unwrap();
            let batch = QuerySet::new()
                .sampler(kind)
                .theta(theta)
                .seed(seed)
                .push(member)
                .run(&ug)
                .unwrap();
            prop_assert_eq!(batch.runs.len(), 1);
            prop_assert_eq!(batch.stats.worlds_sampled, theta);
            let run = &batch.runs[0];
            prop_assert_eq!(&run.top_k, &standalone.top_k);
            let b = mpds_details(run.details.clone());
            let s = mpds_details(standalone.details);
            prop_assert_eq!(b.candidates, s.candidates);
            prop_assert_eq!(b.densest_counts, s.densest_counts);
            prop_assert_eq!(b.empty_worlds, s.empty_worlds);
            prop_assert_eq!(b.truncated, s.truncated);
        }
    }

    /// A single-member `QuerySet` is bit-identical to the equivalent
    /// standalone NDS `Query` run under every sampler.
    #[test]
    fn single_member_queryset_equals_standalone_nds(
        ug in arb_uncertain(),
        seed in 0u64..512,
        theta in 1usize..30,
        min_size in 0usize..4,
    ) {
        for kind in [SamplerKind::MonteCarlo, SamplerKind::Lp, SamplerKind::Rss] {
            let member = Query::nds(DensityNotion::Edge).k(4).min_size(min_size);
            let standalone = member
                .clone()
                .sampler(kind)
                .theta(theta)
                .seed(seed)
                .run(&ug)
                .unwrap();
            let batch = QuerySet::new()
                .sampler(kind)
                .theta(theta)
                .seed(seed)
                .push(member)
                .run(&ug)
                .unwrap();
            prop_assert_eq!(batch.runs.len(), 1);
            let run = &batch.runs[0];
            prop_assert_eq!(&run.top_k, &standalone.top_k);
            let b = nds_details(run.details.clone());
            let s = nds_details(standalone.details);
            prop_assert_eq!(b.transactions, s.transactions);
            prop_assert_eq!(b.empty_worlds, s.empty_worlds);
        }
    }
}

/// Recorded baseline: bit-exact outputs of the Fig. 1 graph at a pinned
/// `(seed, theta)`. θ = 400 spans four chunks of the world stream, so these
/// values pin the chunk seeding (chunk 0 from the root seed, chunk `j ≥ 1`
/// from `stream_seed(seed, j)`) on top of sampling order, candidate
/// aggregation, and tie-breaking: any drift shows up as a bit mismatch.
#[test]
fn recorded_baseline_mpds_fig1() {
    let g = UncertainGraph::from_weighted_edges(4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)]);
    let run = Query::mpds(DensityNotion::Edge)
        .theta(400)
        .k(4)
        .seed(1234)
        .run(&g)
        .unwrap();
    let recorded: Vec<(NodeSet, u64)> = vec![
        (vec![1, 3], 0x3fda147ae147ae14),
        (vec![0, 1, 2, 3], 0x3fd28f5c28f5c28f),
        (vec![0, 2], 0x3fcd1eb851eb851f),
        (vec![0, 1, 3], 0x3fc6b851eb851eb8),
    ];
    let got: Vec<(NodeSet, u64)> = run
        .top_k
        .iter()
        .map(|(set, tau)| (set.clone(), tau.to_bits()))
        .collect();
    assert_eq!(got, recorded);
    assert_eq!(run.stats.empty_worlds, 52);
}

/// Recorded baseline for the NDS path (same graph, seed, and θ — the world
/// stream is estimator-independent, so `empty_worlds` matches the MPDS run).
#[test]
fn recorded_baseline_nds_fig1() {
    let g = UncertainGraph::from_weighted_edges(4, &[(0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)]);
    let run = Query::nds(DensityNotion::Edge)
        .theta(400)
        .k(4)
        .min_size(2)
        .seed(1234)
        .run(&g)
        .unwrap();
    let recorded: Vec<(NodeSet, u64)> = vec![
        (vec![1, 3], 0x3fe67ae147ae147b),
        (vec![0, 1], 0x3fe28f5c28f5c28f),
        (vec![0, 1, 3], 0x3fddeb851eb851ec),
        (vec![0, 2], 0x3fd999999999999a),
    ];
    let got: Vec<(NodeSet, u64)> = run
        .top_k
        .iter()
        .map(|(set, gamma)| (set.clone(), gamma.to_bits()))
        .collect();
    assert_eq!(got, recorded);
    assert_eq!(run.stats.empty_worlds, 52);
}

//! Property-based tests over the RP-DBSCAN pipeline.

use proptest::prelude::*;
use rpdbscan_core::graph::{CellSubgraph, CellType, UnionFind};
use rpdbscan_core::merge::{merge_runs, tournament, write_run, Run, RunReader};
use rpdbscan_core::partition::{group_by_cell, pseudo_random_deal};
use rpdbscan_core::{RpDbscan, RpDbscanParams};
use rpdbscan_engine::{CostModel, Engine};
use rpdbscan_geom::Dataset;
use rpdbscan_grid::GridSpec;
use rpdbscan_store::SpillDir;

fn dataset_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 2), 1..150)
}

/// Random subgraphs over a small cell universe with arbitrary types and
/// core-originated edges.
fn subgraph_strategy() -> impl Strategy<Value = CellSubgraph> {
    (
        prop::collection::vec(
            prop::sample::select(vec![CellType::Core, CellType::NonCore]),
            8,
        ),
        prop::collection::vec((0u32..8, 0u32..8), 0..24),
    )
        .prop_map(|(types, raw_edges)| {
            let edges = raw_edges
                .into_iter()
                .filter(|&(a, b)| a != b && types[a as usize] == CellType::Core)
                .collect();
            let types = types
                .into_iter()
                .enumerate()
                .map(|(i, t)| (i as u32, t))
                .collect();
            CellSubgraph::new(types, edges)
        })
}

fn core_components(g: &CellSubgraph, n: u32) -> Vec<u32> {
    let mut uf = UnionFind::new(n as usize);
    for &(a, b) in g.edges() {
        if g.cell_type(a) == CellType::Core && g.cell_type(b) == CellType::Core {
            uf.union(a, b);
        }
    }
    // Canonicalise representatives to first-appearance order so two
    // union-finds with different internal roots compare equal.
    let mut canon = std::collections::HashMap::new();
    (0..n)
        .map(|c| {
            let r = uf.find(c);
            let next = canon.len() as u32;
            *canon.entry(r).or_insert(next)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pseudo random partitioning is a disjoint cover with near-equal
    /// cell counts for any data and partition count.
    #[test]
    fn partitioning_disjoint_cover(
        pts in dataset_strategy(),
        k in 1usize..12,
        seed in 0u64..1000,
    ) {
        let data = Dataset::from_rows(2, &pts).unwrap();
        let spec = GridSpec::new(2, 1.0, 0.25).unwrap();
        let cells = group_by_cell(&spec, &data);
        let n_cells = cells.len();
        let parts = pseudo_random_deal(cells, k, seed);
        let total_cells: usize = parts.iter().map(Vec::len).sum();
        prop_assert_eq!(total_cells, n_cells);
        let total_points: usize = parts.iter().flatten().map(|c| c.points.len()).sum();
        prop_assert_eq!(total_points, pts.len());
        let counts: Vec<usize> = parts.iter().map(Vec::len).collect();
        let (mn, mx) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        prop_assert!(mx - mn <= 1);
    }

    /// Merging preserves core-cell connectivity (edge reduction removes
    /// only redundant edges) and never loses determined vertex types.
    #[test]
    fn merge_preserves_connectivity_and_types(
        g1 in subgraph_strategy(),
        g2 in subgraph_strategy(),
    ) {
        // Reference: plain union without reduction.
        let union = CellSubgraph::new(
            [g1.types(), g2.types()].concat(),
            [g1.edges(), g2.edges()].concat(),
        );
        let (merged, _) = merge_runs(RunReader::memory(&g1), RunReader::memory(&g2)).unwrap();
        // Types agree.
        for c in 0..8u32 {
            prop_assert_eq!(merged.cell_type(c), union.cell_type(c));
        }
        // Core components agree.
        prop_assert_eq!(core_components(&merged, 8), core_components(&union, 8));
        // Reduction never grows the edge set.
        prop_assert!(merged.num_edges() <= union.num_edges());
    }

    /// A run read back from its spill file is the run that was written.
    #[test]
    fn spill_encoding_round_trips(g in subgraph_strategy()) {
        let spill = SpillDir::create(None).unwrap();
        let handle = write_run(&spill, &g).unwrap();
        prop_assert_eq!(RunReader::open(&spill, &handle).unwrap().read_all().unwrap(), g);
    }

    /// The merge is one function of its inputs: reading them from memory
    /// or from spill files gives the same graph and frontier bytes.
    #[test]
    fn merge_is_independent_of_where_runs_live(
        g1 in subgraph_strategy(),
        g2 in subgraph_strategy(),
    ) {
        let resident = merge_runs(RunReader::memory(&g1), RunReader::memory(&g2)).unwrap();
        let spill = SpillDir::create(None).unwrap();
        let (h1, h2) = (write_run(&spill, &g1).unwrap(), write_run(&spill, &g2).unwrap());
        let spilled = merge_runs(
            RunReader::open(&spill, &h1).unwrap(),
            RunReader::open(&spill, &h2).unwrap(),
        )
        .unwrap();
        prop_assert_eq!(spilled.0.types(), resident.0.types());
        prop_assert_eq!(spilled.0.edges(), resident.0.edges());
        prop_assert_eq!(spilled.1, resident.1);
    }

    /// Tournament order never changes core-cell connectivity.
    #[test]
    fn tournament_order_invariant(graphs in prop::collection::vec(subgraph_strategy(), 1..6)) {
        let engine = Engine::with_cost_model(2, CostModel::free());
        let run = |gs: Vec<CellSubgraph>| {
            tournament(&engine, gs.into_iter().map(Run::Memory).collect(), None)
                .unwrap()
                .global
        };
        let fwd = run(graphs.clone());
        let rev = run(graphs.into_iter().rev().collect());
        prop_assert_eq!(core_components(&fwd, 8), core_components(&rev, 8));
    }

    /// The full pipeline is invariant to partition count and seed: the
    /// clustering depends only on (eps, minPts, rho).
    #[test]
    fn clustering_invariant_to_partitioning(
        pts in dataset_strategy(),
        k in 1usize..10,
        seed in 0u64..100,
    ) {
        let data = Dataset::from_rows(2, &pts).unwrap();
        let engine = Engine::with_cost_model(2, CostModel::free());
        let run = |k: usize, seed: u64| {
            RpDbscan::new(
                RpDbscanParams::new(1.0, 3).with_partitions(k).with_seed(seed),
            )
            .unwrap()
            .run(&data, &engine)
            .unwrap()
            .clustering
        };
        let base = run(1, 0);
        let other = run(k, seed);
        let ri = rpdbscan_metrics::rand_index(
            &base,
            &other,
            rpdbscan_metrics::NoisePolicy::SingleCluster,
        );
        prop_assert_eq!(ri, 1.0);
    }

    /// Labels partition the points: every label is either None or a valid
    /// dense cluster id, and cluster count matches the stats.
    #[test]
    fn output_labels_are_consistent(pts in dataset_strategy()) {
        let data = Dataset::from_rows(2, &pts).unwrap();
        let engine = Engine::with_cost_model(2, CostModel::free());
        let out = RpDbscan::new(RpDbscanParams::new(1.5, 2).with_partitions(4))
            .unwrap()
            .run(&data, &engine)
            .unwrap();
        prop_assert_eq!(out.clustering.len(), pts.len());
        prop_assert_eq!(out.stats.num_clusters, out.clustering.num_clusters());
        prop_assert_eq!(out.stats.noise_points, out.clustering.noise_count());
        prop_assert_eq!(out.stats.points_processed, pts.len() as u64);
    }
}

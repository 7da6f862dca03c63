//! The RP-DBSCAN driver: Algorithm 1 staged through the execution engine.
//!
//! Stage names carry the phase prefixes Figure 12's breakdown reads:
//! `phase1-1` (pseudo random partitioning), `phase1-2` (dictionary
//! building + broadcast), `phase2` (cell graph construction), `phase3-1`
//! (progressive merging), `phase3-2` (point labeling).

use crate::export::CellGraph;
use crate::label::{assemble_clustering, label_partition, LabelSupport};
use crate::merge::{tournament, Run};
use crate::params::RpDbscanParams;
use crate::partition::{pseudo_random_partition, CellPoints, Partition};
use crate::phase2::{build_local_clustering, QueryRouting};
use crate::CoreError;
use rpdbscan_engine::Engine;
use rpdbscan_geom::{Dataset, PointId};
use rpdbscan_grid::{
    CellCoord, CellDictionary, CellEntry, DictionaryIndex, FxHashMap, GridSpec, QueryStats,
};
use rpdbscan_metrics::Clustering;
/// Measured facts about a completed run (feeds Tables 5/7 and Figures
/// 12/13/14/17).
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Density backend that answered the Phase II core-point decision
    /// (`exact` for every run of this driver; the approximate backends
    /// report through `rpdbscan-density`'s own stats).
    pub backend: &'static str,
    /// Non-empty cells in the dictionary.
    pub dict_cells: usize,
    /// Non-empty sub-cells in the dictionary.
    pub dict_subcells: usize,
    /// Analytical dictionary size (Lemma 4.3), bits.
    pub dict_size_bits: u64,
    /// Actual broadcast payload, bytes.
    pub dict_wire_bytes: u64,
    /// Edges after each merge round; index 0 is the pre-merge total
    /// (Figure 17 / Table 7).
    pub edges_per_round: Vec<usize>,
    /// Total points processed across all splits — always exactly `N` for
    /// RP-DBSCAN (Figure 14).
    pub points_processed: u64,
    /// Clusters found.
    pub num_clusters: usize,
    /// Outlier count.
    pub noise_points: usize,
    /// Partitions used.
    pub num_partitions: usize,
    /// Aggregated region-query counters.
    pub query_subdicts_skipped: u64,
    /// Aggregated region-query counters.
    pub query_subdicts_visited: u64,
    /// Aggregated region-query counters.
    pub query_cells_candidate: u64,
    /// Phase II cell query plans built (one per partition cell the cost
    /// model routed through the planner).
    pub query_plans_built: u64,
    /// Region queries answered through a memoized cell plan.
    pub query_plan_hits: u64,
    /// Cells answered purely from a plan's precomputed sub-cell sums —
    /// no per-point distance test at all.
    pub query_cells_planned_full: u64,
    /// Partition cells the cost model routed through the memoized
    /// planner (occupancy at or above the break-even threshold).
    pub query_cells_routed_planned: u64,
    /// Partition cells the cost model routed through the per-point kd
    /// path.
    pub query_cells_routed_kd: u64,
    /// The cost model's break-even occupancy for this run — cells below
    /// it can never be planned (calibrated once per dictionary build).
    pub route_min_occupancy: u32,
    /// True when the run streamed cells from a column store instead of a
    /// resident dataset. Every field below is zero on resident runs.
    pub out_of_core: bool,
    /// The buffer pool's byte budget.
    pub pool_budget_bytes: u64,
    /// Page pins answered from cache.
    pub pool_hits: u64,
    /// Page pins that read from disk.
    pub pool_misses: u64,
    /// Pages evicted by the pool.
    pub pool_evictions: u64,
    /// High-water mark of bytes the pool tracked at once — the scale
    /// bench asserts this stays within the budget.
    pub pool_peak_tracked_bytes: u64,
    /// Bytes written to Phase II→III spill files.
    pub spill_bytes_written: u64,
    /// Bytes read back from spill files during the tournament merge.
    pub spill_bytes_read: u64,
    /// High-water mark of bytes any single spill-merge frontier held in
    /// memory (merged type table + survivor edges + union-find).
    pub merge_peak_frontier_bytes: u64,
}

/// A finished clustering plus its statistics and the cell graph it was
/// labelled from.
#[derive(Debug, Clone)]
pub struct RpDbscanOutput {
    /// Point labels (None = outlier).
    pub clustering: Clustering,
    /// Run statistics.
    pub stats: RunStats,
    /// The Phase III cell graph; [`CellGraph::export`] turns it into the
    /// per-cell records the serving layer consumes.
    pub cells: CellGraph,
}

/// The RP-DBSCAN algorithm, configured once and runnable on any dataset.
#[derive(Debug, Clone)]
pub struct RpDbscan {
    params: RpDbscanParams,
}

impl RpDbscan {
    /// Validates the parameters and builds a runner.
    ///
    /// This driver executes the exact grid backend only: an approximate
    /// [`crate::DensityBackendKind`] selection is rejected here with
    /// [`CoreError::UnsupportedBackend`] — `rpdbscan-density`'s
    /// `backend_for` is the dispatcher that runs every kind.
    pub fn new(params: RpDbscanParams) -> Result<Self, CoreError> {
        if params.min_pts == 0 {
            return Err(CoreError::InvalidMinPts(0));
        }
        if params.num_partitions == 0 {
            return Err(CoreError::InvalidPartitions(0));
        }
        validate_backend_config(&params.density_backend)?;
        if !params.density_backend.is_exact() {
            return Err(CoreError::UnsupportedBackend(params.density_backend.name()));
        }
        // eps/rho validity is checked by GridSpec at run time (needs dim),
        // but fail fast on obviously bad values here.
        GridSpec::new(1, params.eps, params.rho)?;
        Ok(Self { params })
    }

    /// The configured parameters.
    pub fn params(&self) -> &RpDbscanParams {
        &self.params
    }

    /// Convenience entry point for library users who don't care about the
    /// cluster simulation: runs on an internal engine sized to the local
    /// machine with a zero-cost network model and returns only the
    /// clustering output.
    ///
    /// ```
    /// use rpdbscan_core::{RpDbscan, RpDbscanParams};
    /// use rpdbscan_geom::Dataset;
    ///
    /// let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 * 0.05, 0.0]).collect();
    /// let data = Dataset::from_rows(2, &rows).unwrap();
    /// let out = RpDbscan::new(RpDbscanParams::new(0.2, 3))
    ///     .unwrap()
    ///     .run_local(&data)
    ///     .unwrap();
    /// assert_eq!(out.clustering.num_clusters(), 1);
    /// ```
    pub fn run_local(&self, data: &Dataset) -> Result<RpDbscanOutput, CoreError> {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let engine = Engine::with_cost_model(workers, rpdbscan_engine::CostModel::free());
        self.run(data, &engine)
    }

    /// Runs the full three-phase algorithm on `data` using `engine`.
    pub fn run(&self, data: &Dataset, engine: &Engine) -> Result<RpDbscanOutput, CoreError> {
        let p = &self.params;
        let spec = GridSpec::new(data.dim(), p.eps, p.rho)?;
        let k = p.num_partitions;

        // ---- Phase I-1: pseudo random partitioning -------------------
        // Parallel cell grouping over point ranges, then the seeded
        // random deal of whole cells to partitions.
        let chunks = point_ranges(data.len(), k);
        let grouped = engine.run_stage("phase1-1:group-by-cell", chunks, |_ctx, (lo, hi)| {
            Ok(group_range_by_cell(&spec, data, lo, hi))
        })?;
        let cells = merge_cell_groups(grouped.outputs);
        let parts = pseudo_random_partition(cells, k, p.seed);
        // Dealing cells to partitions moves every point to its worker
        // exactly once; charge the same per-point shuffle the region-split
        // baselines pay for their (duplicated) redistribution.
        let point_bytes = (data.dim() * 4) as u64;
        engine.shuffle_cost("phase1-1:shuffle", data.len() as u64 * point_bytes);

        // ---- Phase I-2: cell dictionary building + broadcast ----------
        let part_refs: Vec<&Partition> = parts.iter().collect();
        let entries =
            engine.run_stage("phase1-2:dictionary", part_refs.clone(), |_ctx, part| {
                Ok(part
                    .cells
                    .iter()
                    .map(|c| {
                        CellEntry::from_points(
                            &spec,
                            c.coord.clone(),
                            c.points.iter().map(|&id| data.point(id)),
                        )
                    })
                    .collect::<Vec<_>>())
            })?;
        let dict =
            CellDictionary::from_entries(spec.clone(), entries.outputs.into_iter().flatten());
        let wire_bytes = dict.encode().len() as u64;
        engine.broadcast_cost("phase1-2:broadcast", wire_bytes);
        let dict_cells = dict.num_cells();
        let dict_subcells = dict.num_sub_cells();
        let dict_size_bits = dict.size_bits();
        let index = DictionaryIndex::new(dict, p.subdict_capacity);

        // ---- Phase II: cell graph construction ------------------------
        // Calibrated once per dictionary build; each partition cell then
        // routes itself between the memoized planner and the kd path.
        let routing = QueryRouting::auto(&index);
        let locals =
            engine.run_stage("phase2:local-clustering", part_refs.clone(), |ctx, part| {
                if Some(ctx.index()) == p.inject_fault {
                    // lint:allow(panic-safety): deliberate fault-injection hook; the engine's panic recovery is what is under test
                    panic!("injected fault in partition {}", ctx.index());
                }
                build_local_clustering(part, data, &index, p.min_pts, routing)
            })?;
        let mut query_stats = QueryStats::default();
        let mut core_points: FxHashMap<u32, Vec<PointId>> = FxHashMap::default();
        let mut runs: Vec<Run> = Vec::with_capacity(k);
        let mut points_processed = 0u64;
        for local in locals.outputs {
            query_stats.merge(&local.stats);
            points_processed += local.queries;
            for (c, pts) in local.core_points {
                core_points.entry(c).or_default().extend(pts);
            }
            runs.push(Run::Memory(local.subgraph));
        }

        // ---- Phase III-1: progressive graph merging --------------------
        let merged = tournament(engine, runs, None)?;

        // ---- Phase III-2: point labeling -------------------------------
        let support = LabelSupport::build(merged.global, index.dict());
        let labeled = engine.run_stage("phase3-2:labeling", part_refs, |_ctx, part| {
            label_partition(part, &support, &core_points, index.dict(), data, p.eps)
        })?;
        let clustering = assemble_clustering(data.len(), labeled.outputs);

        let stats = RunStats {
            backend: p.density_backend.name(),
            dict_cells,
            dict_subcells,
            dict_size_bits,
            dict_wire_bytes: wire_bytes,
            edges_per_round: merged.edges_per_round,
            points_processed,
            num_clusters: support.clusters.num_clusters,
            noise_points: clustering.noise_count(),
            num_partitions: k,
            query_subdicts_skipped: query_stats.subdicts_skipped as u64,
            query_subdicts_visited: query_stats.subdicts_visited as u64,
            query_cells_candidate: query_stats.cells_candidate as u64,
            query_plans_built: query_stats.plans_built as u64,
            query_plan_hits: query_stats.plan_hits as u64,
            query_cells_planned_full: query_stats.cells_planned_full as u64,
            query_cells_routed_planned: query_stats.cells_routed_planned as u64,
            query_cells_routed_kd: query_stats.cells_routed_kd as u64,
            route_min_occupancy: routing.min_occupancy().unwrap_or(0),
            out_of_core: false,
            pool_budget_bytes: 0,
            pool_hits: 0,
            pool_misses: 0,
            pool_evictions: 0,
            pool_peak_tracked_bytes: 0,
            spill_bytes_written: 0,
            spill_bytes_read: 0,
            merge_peak_frontier_bytes: 0,
        };
        let cells = CellGraph {
            dict: index.into_dict(),
            support,
            core_points,
        };
        Ok(RpDbscanOutput {
            clustering,
            stats,
            cells,
        })
    }
}

/// Validates a backend selection's knobs (any kind — the density crate
/// dispatcher calls this too, so range checks live in exactly one place).
pub fn validate_backend_config(kind: &crate::DensityBackendKind) -> Result<(), CoreError> {
    match kind {
        crate::DensityBackendKind::Exact => Ok(()),
        crate::DensityBackendKind::MutualKnn { k } => {
            if *k == 0 {
                return Err(CoreError::InvalidBackendConfig {
                    backend: kind.name(),
                    reason: "k must be >= 1",
                });
            }
            Ok(())
        }
        crate::DensityBackendKind::SampledCore { sample_frac } => {
            if !(*sample_frac > 0.0 && *sample_frac <= 1.0) {
                return Err(CoreError::InvalidBackendConfig {
                    backend: kind.name(),
                    reason: "sample_frac must be in (0, 1]",
                });
            }
            Ok(())
        }
    }
}

/// Splits `0..n` into `k` near-equal ranges (last may be short).
fn point_ranges(n: usize, k: usize) -> Vec<(usize, usize)> {
    let k = k.max(1);
    let step = n.div_ceil(k).max(1);
    (0..n)
        .step_by(step)
        .map(|lo| (lo, (lo + step).min(n)))
        .collect()
}

/// Groups one range of points by cell (the Map of Algorithm 2).
fn group_range_by_cell(
    spec: &GridSpec,
    data: &Dataset,
    lo: usize,
    hi: usize,
) -> FxHashMap<CellCoord, Vec<PointId>> {
    let mut out: FxHashMap<CellCoord, Vec<PointId>> = FxHashMap::default();
    for i in lo..hi {
        let id = PointId(i as u32);
        out.entry(spec.cell_of(data.point(id)))
            .or_default()
            .push(id);
    }
    out
}

/// Combines per-range groupings into the global cell list (the Reduce of
/// Algorithm 2), ordered deterministically.
fn merge_cell_groups(groups: Vec<FxHashMap<CellCoord, Vec<PointId>>>) -> Vec<CellPoints> {
    let mut merged: FxHashMap<CellCoord, Vec<PointId>> = FxHashMap::default();
    for g in groups {
        for (coord, pts) in g {
            merged.entry(coord).or_default().extend(pts);
        }
    }
    let mut cells: Vec<CellPoints> = merged
        .into_iter()
        .map(|(coord, points)| CellPoints { coord, points })
        .collect();
    cells.sort_unstable_by(|a, b| a.coord.cmp(&b.coord));
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpdbscan_engine::CostModel;

    fn blob(cx: f64, cy: f64, n: usize, spread: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let a = i as f64 * 0.61803398875;
                let r = spread * (i % 10) as f64 / 10.0;
                vec![cx + r * a.cos(), cy + r * a.sin()]
            })
            .collect()
    }

    fn two_blob_data() -> Dataset {
        let mut rows = blob(0.0, 0.0, 80, 0.4);
        rows.extend(blob(12.0, -7.0, 80, 0.4));
        rows.push(vec![-40.0, 40.0]);
        Dataset::from_rows(2, &rows).unwrap()
    }

    #[test]
    fn end_to_end_two_clusters() {
        let data = two_blob_data();
        let params = RpDbscanParams::new(1.0, 5).with_partitions(6);
        let engine = Engine::with_cost_model(6, CostModel::free());
        let out = RpDbscan::new(params).unwrap().run(&data, &engine).unwrap();
        assert_eq!(out.clustering.num_clusters(), 2);
        assert_eq!(out.clustering.noise_count(), 1);
        assert_eq!(out.stats.points_processed, data.len() as u64);
        assert!(out.stats.dict_cells > 0);
        assert!(out.stats.edges_per_round.len() >= 2);
    }

    #[test]
    fn stage_report_has_all_phases() {
        let data = two_blob_data();
        let engine = Engine::new(4);
        let params = RpDbscanParams::new(1.0, 5).with_partitions(4);
        RpDbscan::new(params).unwrap().run(&data, &engine).unwrap();
        let rep = engine.report();
        for prefix in ["phase1-1", "phase1-2", "phase2", "phase3-1", "phase3-2"] {
            assert!(
                rep.stages.iter().any(|s| s.name.starts_with(prefix)),
                "missing stage {prefix}"
            );
        }
        assert!(rep.total_elapsed() > 0.0);
    }

    #[test]
    fn edge_counts_decrease_monotonically() {
        let data = two_blob_data();
        let engine = Engine::with_cost_model(8, CostModel::free());
        let params = RpDbscanParams::new(1.0, 5).with_partitions(8);
        let out = RpDbscan::new(params).unwrap().run(&data, &engine).unwrap();
        let e = &out.stats.edges_per_round;
        for w in e.windows(2) {
            assert!(w[1] <= w[0], "{e:?}");
        }
    }

    #[test]
    fn validation_errors() {
        assert!(RpDbscan::new(RpDbscanParams::new(1.0, 0)).is_err());
        assert!(RpDbscan::new(RpDbscanParams::new(1.0, 5).with_partitions(0)).is_err());
        assert!(RpDbscan::new(RpDbscanParams::new(-1.0, 5)).is_err());
        assert!(RpDbscan::new(RpDbscanParams::new(1.0, 5).with_rho(0.0)).is_err());
    }

    #[test]
    fn approximate_backends_are_rejected_typed() {
        use crate::params::DensityBackendKind;
        let knn = RpDbscanParams::new(1.0, 5)
            .with_density_backend(DensityBackendKind::MutualKnn { k: 8 });
        assert_eq!(
            RpDbscan::new(knn).unwrap_err(),
            CoreError::UnsupportedBackend("knn")
        );
        let sampled = RpDbscanParams::new(1.0, 5)
            .with_density_backend(DensityBackendKind::SampledCore { sample_frac: 0.5 });
        assert_eq!(
            RpDbscan::new(sampled).unwrap_err(),
            CoreError::UnsupportedBackend("sampled")
        );
        // Bad knobs are caught before the kind check, for every kind.
        let bad_k = RpDbscanParams::new(1.0, 5)
            .with_density_backend(DensityBackendKind::MutualKnn { k: 0 });
        assert!(matches!(
            RpDbscan::new(bad_k).unwrap_err(),
            CoreError::InvalidBackendConfig { backend: "knn", .. }
        ));
        for frac in [0.0, -0.1, 1.5, f64::NAN] {
            let bad = RpDbscanParams::new(1.0, 5)
                .with_density_backend(DensityBackendKind::SampledCore { sample_frac: frac });
            assert!(
                matches!(
                    RpDbscan::new(bad).unwrap_err(),
                    CoreError::InvalidBackendConfig {
                        backend: "sampled",
                        ..
                    }
                ),
                "frac={frac}"
            );
        }
    }

    #[test]
    fn run_stats_carry_the_backend_tag() {
        let data = two_blob_data();
        let engine = Engine::with_cost_model(4, CostModel::free());
        let out = RpDbscan::new(RpDbscanParams::new(1.0, 5))
            .unwrap()
            .run(&data, &engine)
            .unwrap();
        assert_eq!(out.stats.backend, "exact");
    }

    #[test]
    fn empty_dataset_is_fine() {
        let data = Dataset::from_flat(2, vec![]).unwrap();
        let engine = Engine::new(2);
        let out = RpDbscan::new(RpDbscanParams::new(1.0, 5))
            .unwrap()
            .run(&data, &engine)
            .unwrap();
        assert_eq!(out.clustering.len(), 0);
        assert_eq!(out.stats.num_clusters, 0);
    }

    #[test]
    fn single_point_is_noise_unless_min_pts_one() {
        let data = Dataset::from_rows(2, &[vec![1.0, 1.0]]).unwrap();
        let engine = Engine::new(2);
        let out = RpDbscan::new(RpDbscanParams::new(1.0, 5))
            .unwrap()
            .run(&data, &engine)
            .unwrap();
        assert_eq!(out.clustering.noise_count(), 1);
        let out = RpDbscan::new(RpDbscanParams::new(1.0, 1))
            .unwrap()
            .run(&data, &engine)
            .unwrap();
        assert_eq!(out.clustering.num_clusters(), 1);
    }

    #[test]
    fn results_independent_of_partition_count_and_seed() {
        let data = two_blob_data();
        let engine = Engine::with_cost_model(4, CostModel::free());
        let base = RpDbscan::new(RpDbscanParams::new(1.0, 5).with_partitions(1))
            .unwrap()
            .run(&data, &engine)
            .unwrap();
        for (k, seed) in [(3, 0), (7, 9), (16, 123)] {
            let out = RpDbscan::new(
                RpDbscanParams::new(1.0, 5)
                    .with_partitions(k)
                    .with_seed(seed),
            )
            .unwrap()
            .run(&data, &engine)
            .unwrap();
            let ri = rpdbscan_metrics::rand_index(
                &base.clustering,
                &out.clustering,
                rpdbscan_metrics::NoisePolicy::SingleCluster,
            );
            assert_eq!(ri, 1.0, "k={k} seed={seed}");
        }
    }

    #[test]
    fn routed_planner_engages_and_accounts_every_cell() {
        // The always-on routed planner: dense blob cells amortise a plan,
        // the lone outlier's cell takes the kd path, and the routing
        // counters account for every occupied cell exactly once. (The
        // bit-exactness of planned vs kd output is pinned by the phase2
        // and planned-equivalence suites; here we check the driver's
        // routing bookkeeping end to end.)
        let data = two_blob_data();
        let engine = Engine::with_cost_model(4, CostModel::free());
        let mut first: Option<rpdbscan_metrics::Clustering> = None;
        for (k, cap) in [(1, u64::MAX), (5, 32), (9, 8)] {
            let params = RpDbscanParams::new(1.0, 5)
                .with_partitions(k)
                .with_subdict_capacity(cap);
            let out = RpDbscan::new(params).unwrap().run(&data, &engine).unwrap();
            let s = &out.stats;
            // Every occupied cell got exactly one routing decision
            // (partitions hold disjoint cell sets).
            assert_eq!(
                s.query_cells_routed_planned + s.query_cells_routed_kd,
                s.dict_cells as u64,
                "k={k} cap={cap}"
            );
            // One plan per planned-routed cell, none elsewhere.
            assert_eq!(s.query_plans_built, s.query_cells_routed_planned);
            // The dense blobs clear the break-even threshold; the
            // outlier's singleton cell cannot (floor is ≥ 8).
            assert!(s.query_cells_routed_planned >= 1, "k={k} cap={cap}");
            assert!(s.query_cells_routed_kd >= 1, "k={k} cap={cap}");
            assert_eq!(
                s.route_min_occupancy,
                rpdbscan_grid::PlannerCostModel::from_dim(2).min_occupancy
            );
            // Routing never changes the output.
            match &first {
                None => first = Some(out.clustering.clone()),
                Some(c) => assert_eq!(&out.clustering, c, "k={k} cap={cap}"),
            }
        }
    }

    #[test]
    fn subdict_capacity_does_not_change_clustering() {
        let data = two_blob_data();
        let engine = Engine::with_cost_model(4, CostModel::free());
        let a = RpDbscan::new(RpDbscanParams::new(1.0, 5).with_subdict_capacity(u64::MAX))
            .unwrap()
            .run(&data, &engine)
            .unwrap();
        let b = RpDbscan::new(RpDbscanParams::new(1.0, 5).with_subdict_capacity(8))
            .unwrap()
            .run(&data, &engine)
            .unwrap();
        assert_eq!(a.clustering, b.clustering);
    }

    #[test]
    fn injected_panic_surfaces_as_stage_error() {
        let data = two_blob_data();
        let engine = Engine::new(4);
        let params = RpDbscanParams::new(1.0, 5)
            .with_partitions(4)
            .with_injected_fault(1);
        let err = RpDbscan::new(params)
            .unwrap()
            .run(&data, &engine)
            .unwrap_err();
        match err {
            CoreError::Stage(e) => {
                assert_eq!(e.stage, "phase2:local-clustering");
                assert!(e.to_string().contains("injected fault"), "{e}");
            }
            other => panic!("expected Stage error, got {other:?}"),
        }
        // The engine survives the failure and can run the same data again.
        let ok = RpDbscan::new(RpDbscanParams::new(1.0, 5).with_partitions(4))
            .unwrap()
            .run(&data, &engine)
            .unwrap();
        assert_eq!(ok.clustering.num_clusters(), 2);
    }

    #[test]
    fn point_ranges_cover() {
        assert_eq!(point_ranges(10, 3), vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(point_ranges(0, 3), Vec::<(usize, usize)>::new());
        assert_eq!(point_ranges(2, 8), vec![(0, 1), (1, 2)]);
    }
}

//! Phase II: core marking and cell subgraph building (Algorithm 3).
//!
//! Each partition independently runs an `(ε,ρ)`-region query for every one
//! of its points against the broadcast dictionary, marks core points and
//! core cells, and emits a cell subgraph whose edges point from its core
//! cells to every cell holding a qualifying neighbour sub-cell. Successor
//! cells living in other partitions stay type-undetermined until Phase
//! III merges the knowledge in.
//!
//! A planned cell whose plan proves every point's density ≥ minPts (a
//! *dense* cell) skips the per-point queries: its points are all core
//! and its successors are found per cell (DESIGN §5.1).

use crate::graph::{CellSubgraph, CellType};
use crate::source::{CellSource, Scratch};
use rpdbscan_engine::TaskError;
use rpdbscan_geom::PointId;
use rpdbscan_grid::{
    CellQueryPlan, DictionaryIndex, FxHashMap, PlannerCostModel, QueryRoute, QueryStats,
};

/// How Phase II routes each cell's region queries.
///
/// Production code uses [`QueryRouting::Auto`]: the cost model routes each
/// cell by occupancy, so dense cells amortise a [`CellQueryPlan`] while
/// sparse cells take the cheaper per-point kd path. The forced variants
/// exist for the equivalence suites and ablations — all three produce
/// bit-identical clustering output; routing is purely a performance
/// decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryRouting {
    /// Per-cell cost-model routing (the production default).
    Auto(PlannerCostModel),
    /// Force a plan for every cell regardless of occupancy.
    Planned,
    /// Force the per-point kd path everywhere — the correctness oracle
    /// the planned path is pinned against.
    Oracle,
}

impl QueryRouting {
    /// Cost-model routing calibrated for `index` — what `driver`, `stream`
    /// and `serve` all use.
    pub fn auto(index: &DictionaryIndex) -> Self {
        QueryRouting::Auto(PlannerCostModel::calibrate(index))
    }

    /// Decides the route for one cell holding `occupancy` query points.
    #[inline]
    pub fn route(&self, occupancy: usize) -> QueryRoute {
        match self {
            QueryRouting::Auto(model) => model.route(occupancy),
            QueryRouting::Planned => QueryRoute::Planned,
            QueryRouting::Oracle => QueryRoute::Kd,
        }
    }

    /// The cost-model threshold in effect (`None` for the forced modes).
    pub fn min_occupancy(&self) -> Option<u32> {
        match self {
            QueryRouting::Auto(model) => Some(model.min_occupancy),
            _ => None,
        }
    }
}

/// Output of Phase II for one partition.
#[derive(Debug, Clone)]
pub struct LocalClustering {
    /// The partition's cell subgraph.
    pub subgraph: CellSubgraph,
    /// Core points per owned core cell (needed by Phase III-2's exact
    /// distance checks on partial edges, Algorithm 4 Lines 18–23).
    pub core_points: FxHashMap<u32, Vec<PointId>>,
    /// Aggregated region-query instrumentation.
    pub stats: QueryStats,
    /// Points of the partition, each resolved by a region query or by
    /// the dense-cell path (so always the partition's point count; it
    /// feeds `RunStats::points_processed`).
    pub queries: u64,
}

/// Incremental Algorithm 3 state: feed cells one at a time with
/// [`Self::process_cell`], then [`Self::finish`]. Holds the partition's
/// accumulating subgraph plus all query scratch, so processing a cell
/// allocates nothing in steady state. Start a partition from
/// [`Default::default`].
#[derive(Debug, Default)]
pub struct LocalBuilder {
    /// The partition's subgraph so far, unsorted until [`Self::finish`].
    types: Vec<(u32, CellType)>,
    edges: Vec<(u32, u32)>,
    core_points: FxHashMap<u32, Vec<PointId>>,
    stats: QueryStats,
    queries: u64,
    // Scratch buffers reused across all points of the partition.
    neighbors: Vec<u32>,
    r: rpdbscan_grid::RegionQueryResult,
}

impl LocalBuilder {
    /// Runs Algorithm 3's per-cell body: region-query every point of the
    /// cell, mark core points, and (for a core cell) add successor edges.
    ///
    /// A planned cell whose [`CellQueryPlan::density_floor`] reaches
    /// `min_pts` skips the per-point queries: all of its points are core,
    /// and its successors are found per cell by
    /// [`CellQueryPlan::successors_into`]. The output is the one the
    /// per-point loop would build.
    ///
    /// `ids` lists the cell's point ids and `rows` their gathered
    /// coordinates, row-major: the `j`-th id's point occupies
    /// `rows[j*dim..(j+1)*dim]`. A cell absent from the broadcast
    /// dictionary is an internal-consistency violation reported as a
    /// [`TaskError`].
    pub fn process_cell(
        &mut self,
        index: &DictionaryIndex,
        min_pts: usize,
        routing: QueryRouting,
        coord: &rpdbscan_grid::CellCoord,
        ids: &[PointId],
        rows: &[f64],
    ) -> Result<(), TaskError> {
        let dim = index.spec().dim();
        debug_assert_eq!(rows.len(), ids.len() * dim, "one row per id");
        let cell_idx = index.dict().index_of(coord).ok_or_else(|| {
            TaskError::new(format!(
                "partition cell {coord} missing from broadcast dictionary"
            ))
        })?;
        self.neighbors.clear();
        self.queries += ids.len() as u64;
        let plan = match routing.route(ids.len()) {
            QueryRoute::Planned => {
                self.stats.cells_routed_planned += 1;
                let plan = CellQueryPlan::build(index, cell_idx);
                // Build cost is charged once per cell, not once per point.
                self.stats.merge(plan.build_stats());
                Some(plan)
            }
            QueryRoute::Kd => {
                self.stats.cells_routed_kd += 1;
                None
            }
        };
        if let Some(plan) = &plan {
            if !ids.is_empty() && plan.density_floor() >= min_pts as u64 {
                // Dense cell: every point's density is at least the
                // floor, so all are core (Lines 9–12) and the successors
                // (13–16) are the cells any of them reaches.
                self.stats.points_dense += ids.len() as u32;
                self.core_points
                    .entry(cell_idx)
                    .or_default()
                    .extend_from_slice(ids);
                self.types.push((cell_idx, CellType::Core));
                plan.successors_into(cell_idx, rows, &mut self.neighbors);
                self.edges
                    .extend(self.neighbors.iter().map(|&nc| (cell_idx, nc)));
                return Ok(());
            }
        }
        let mut is_core_cell = false;
        for (&pid, p) in ids.iter().zip(rows.chunks_exact(dim)) {
            match &plan {
                Some(plan) => plan.query_into(p, &mut self.r),
                None => index.region_query_cells_into(p, &mut self.r),
            }
            self.stats.merge(&self.r.stats);
            if self.r.density >= min_pts as u64 {
                // p is a core point (Line 9–10); its cell is core (11–12)
                // and all cells holding one of its (ε,ρ)-neighbour
                // sub-cells are reachable successors (13–16).
                is_core_cell = true;
                self.core_points.entry(cell_idx).or_default().push(pid);
                for &nc in &self.r.neighbor_cells {
                    if nc != cell_idx {
                        self.neighbors.push(nc);
                    }
                }
            }
        }
        self.types.push((
            cell_idx,
            if is_core_cell {
                CellType::Core
            } else {
                CellType::NonCore
            },
        ));
        if is_core_cell {
            self.neighbors.sort_unstable();
            self.neighbors.dedup();
            self.edges
                .extend(self.neighbors.iter().map(|&nc| (cell_idx, nc)));
        }
        Ok(())
    }

    /// The partition's finished local clustering; sorts its subgraph
    /// into a run.
    pub fn finish(self) -> LocalClustering {
        LocalClustering {
            subgraph: CellSubgraph::new(self.types, self.edges),
            core_points: self.core_points,
            stats: self.stats,
            queries: self.queries,
        }
    }
}

/// Runs Algorithm 3 over the cells of one partition: `cells` lists
/// directory indices into `source`, visited in the given order.
///
/// `index` is the broadcast dictionary. `routing` decides per cell
/// whether a [`CellQueryPlan`] is built (and every point of the cell
/// answered through it — the kd-tree candidate search and sub-cell
/// centre materialisation amortised over the cell's points) or each
/// point runs the per-point kd query. The clustering output
/// is identical on every route; the decision is recorded in the
/// returned stats (`cells_routed_planned` / `cells_routed_kd`).
///
/// Runs inside a `run_stage` task; a failed gather or a partition cell
/// absent from the broadcast dictionary is reported as a [`TaskError`]
/// so it flows through the engine's failure path.
pub fn build_local_clustering(
    source: &CellSource<'_>,
    cells: &[u32],
    index: &DictionaryIndex,
    min_pts: usize,
    routing: QueryRouting,
) -> Result<LocalClustering, TaskError> {
    let mut builder = LocalBuilder::default();
    let mut s = Scratch::default();
    for &ci in cells {
        source.gather_coords(ci, &mut s)?;
        source.gather_ids(ci, &mut s)?;
        builder.process_cell(index, min_pts, routing, source.coord(ci), &s.ids, &s.coords)?;
    }
    Ok(builder.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeType;
    use crate::partition::{group_by_cell, pseudo_random_deal, CellPoints};
    use rpdbscan_geom::Dataset;
    use rpdbscan_grid::{CellDictionary, GridSpec};

    /// A line of 10 points spaced 0.1 apart plus one far outlier.
    fn line_world() -> (GridSpec, Dataset) {
        let spec = GridSpec::new(2, 0.5, 0.01).unwrap();
        let mut rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.1, 0.0]).collect();
        rows.push(vec![50.0, 50.0]);
        (spec, Dataset::from_rows(2, &rows).unwrap())
    }

    /// The cells, their seeded deal into `k` partitions of directory
    /// indices, and the dictionary index.
    fn setup(
        spec: &GridSpec,
        data: &Dataset,
        k: usize,
    ) -> (Vec<CellPoints>, Vec<Vec<u32>>, DictionaryIndex) {
        let cells = group_by_cell(spec, data);
        let parts = pseudo_random_deal((0..cells.len() as u32).collect(), k, 0);
        let dict = CellDictionary::build_from_points(spec.clone(), data.iter().map(|(_, p)| p));
        (cells, parts, DictionaryIndex::new(dict, 1 << 16))
    }

    #[test]
    fn dense_line_marks_core_outlier_does_not() {
        let (spec, data) = line_world();
        let (cells, parts, index) = setup(&spec, &data, 1);
        let src = CellSource::Resident {
            data: &data,
            cells: &cells,
        };
        let local =
            build_local_clustering(&src, &parts[0], &index, 4, QueryRouting::Planned).unwrap();
        // Some interior cell must be core; the outlier's cell must not be.
        let outlier_cell = index.dict().index_of(&spec.cell_of(&[50.0, 50.0])).unwrap();
        assert_eq!(local.subgraph.cell_type(outlier_cell), CellType::NonCore);
        let n_core = local
            .subgraph
            .types()
            .iter()
            .filter(|&&(_, t)| t == CellType::Core)
            .count();
        assert!(n_core >= 1);
        // With minPts=4 and 0.1 spacing, eps=0.5 covers >= 4 neighbours
        // for interior points, so core points exist.
        assert!(!local.core_points.is_empty());
    }

    #[test]
    fn single_partition_edges_are_all_determined() {
        let (spec, data) = line_world();
        let (cells, parts, index) = setup(&spec, &data, 1);
        let src = CellSource::Resident {
            data: &data,
            cells: &cells,
        };
        let local =
            build_local_clustering(&src, &parts[0], &index, 4, QueryRouting::Planned).unwrap();
        assert!(local.subgraph.is_global());
        let (_, _, undet) = local.subgraph.edge_type_counts();
        assert_eq!(undet, 0);
    }

    #[test]
    fn multi_partition_leaves_cross_edges_undetermined() {
        let (spec, data) = line_world();
        let (cells, parts, index) = setup(&spec, &data, 3);
        let src = CellSource::Resident {
            data: &data,
            cells: &cells,
        };
        let mut any_undetermined = false;
        for part in &parts {
            let local =
                build_local_clustering(&src, part, &index, 4, QueryRouting::Planned).unwrap();
            let (_, _, undet) = local.subgraph.edge_type_counts();
            if undet > 0 {
                any_undetermined = true;
            }
        }
        assert!(
            any_undetermined,
            "a 10-point chain split 3 ways must produce cross-partition edges"
        );
    }

    #[test]
    fn min_pts_one_everything_with_a_point_is_core() {
        let (spec, data) = line_world();
        let (cells, parts, index) = setup(&spec, &data, 1);
        let src = CellSource::Resident {
            data: &data,
            cells: &cells,
        };
        let local =
            build_local_clustering(&src, &parts[0], &index, 1, QueryRouting::Planned).unwrap();
        for &(cell, t) in local.subgraph.types() {
            assert_eq!(t, CellType::Core, "cell {cell} not core at minPts=1");
        }
    }

    #[test]
    fn huge_min_pts_nothing_is_core() {
        let (spec, data) = line_world();
        let (cells, parts, index) = setup(&spec, &data, 1);
        let src = CellSource::Resident {
            data: &data,
            cells: &cells,
        };
        let local =
            build_local_clustering(&src, &parts[0], &index, 1000, QueryRouting::Planned).unwrap();
        assert!(local.core_points.is_empty());
        assert_eq!(local.subgraph.num_edges(), 0);
        for &(_, t) in local.subgraph.types() {
            assert_eq!(t, CellType::NonCore);
        }
    }

    #[test]
    fn edges_originate_from_core_cells_only() {
        let (spec, data) = line_world();
        let (cells, parts, index) = setup(&spec, &data, 1);
        let src = CellSource::Resident {
            data: &data,
            cells: &cells,
        };
        let local =
            build_local_clustering(&src, &parts[0], &index, 4, QueryRouting::Planned).unwrap();
        for &(from, _) in local.subgraph.edges() {
            assert_eq!(local.subgraph.cell_type(from), CellType::Core);
        }
        // Derived edge types must never be Undetermined here (one
        // partition) and never panic.
        for &(from, to) in local.subgraph.edges() {
            let t = local.subgraph.edge_type(from, to);
            assert_ne!(t, EdgeType::Undetermined);
        }
    }

    #[test]
    fn planner_and_oracle_paths_agree_exactly() {
        let (spec, data) = line_world();
        for k in [1, 3] {
            let (cells, parts, index) = setup(&spec, &data, k);
            let src = CellSource::Resident {
                data: &data,
                cells: &cells,
            };
            for part in &parts {
                for min_pts in [1, 4, 1000] {
                    let oracle =
                        build_local_clustering(&src, part, &index, min_pts, QueryRouting::Oracle)
                            .unwrap();
                    assert_eq!(oracle.stats.plan_hits, 0);
                    assert_eq!(oracle.stats.cells_routed_planned, 0);
                    // Every routing mode must agree with the oracle
                    // bit-for-bit — routing is a pure performance choice.
                    for routing in [
                        QueryRouting::Planned,
                        QueryRouting::auto(&index),
                        QueryRouting::Auto(PlannerCostModel { min_occupancy: 2 }),
                    ] {
                        let routed =
                            build_local_clustering(&src, part, &index, min_pts, routing).unwrap();
                        assert_eq!(routed.queries, oracle.queries);
                        assert_eq!(routed.core_points, oracle.core_points);
                        assert_eq!(routed.subgraph.types(), oracle.subgraph.types());
                        assert_eq!(routed.subgraph.edges(), oracle.subgraph.edges());
                        // Per-point counters are bit-identical while every
                        // point runs a query; only the amortised
                        // candidate/sub-dictionary counters differ. Dense
                        // cells run no per-point query at all.
                        if routed.stats.points_dense == 0 {
                            assert_eq!(routed.stats.cells_full, oracle.stats.cells_full);
                            assert_eq!(routed.stats.cells_partial, oracle.stats.cells_partial);
                            assert_eq!(
                                routed.stats.subcells_reported,
                                oracle.stats.subcells_reported
                            );
                        }
                        if min_pts == 1000 {
                            assert_eq!(routed.stats.points_dense, 0);
                        }
                        // Routing decisions are fully accounted for.
                        assert_eq!(
                            routed.stats.cells_routed_planned + routed.stats.cells_routed_kd,
                            part.len() as u32,
                            "every cell gets exactly one routing decision"
                        );
                        assert_eq!(
                            routed.stats.cells_routed_planned, routed.stats.plans_built,
                            "one plan per planned-routed cell"
                        );
                        if routing == QueryRouting::Planned {
                            // Every point of a planned cell is either
                            // queried through its plan or resolved dense.
                            assert_eq!(
                                routed.stats.plan_hits + routed.stats.points_dense,
                                routed.queries as u32
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn query_counts_match_point_count() {
        let (spec, data) = line_world();
        let (cells, parts, index) = setup(&spec, &data, 2);
        let src = CellSource::Resident {
            data: &data,
            cells: &cells,
        };
        let total: u64 = parts
            .iter()
            .map(|p| {
                build_local_clustering(&src, p, &index, 4, QueryRouting::auto(&index))
                    .unwrap()
                    .queries
            })
            .sum();
        assert_eq!(total, data.len() as u64);
    }
}

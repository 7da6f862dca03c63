//! Phase II: core marking and cell subgraph building (Algorithm 3).
//!
//! Each partition independently marks core points and core cells against
//! the broadcast dictionary, and emits a cell subgraph whose edges point
//! from its core cells to every cell holding a qualifying neighbour
//! sub-cell. Successor cells living in other partitions stay
//! type-undetermined until Phase III merges the knowledge in.
//!
//! Algorithm 3 runs one `(ε,ρ)`-region query per point. Here every cell
//! is answered from its ε-window instead, gathered once: core marking
//! stops at minPts nearest first, and a core cell's successors are found
//! per cell (DESIGN §5.2). The per-point region query survives only as
//! the oracle the window path is tested against.

use crate::graph::{CellSubgraph, CellType};
use crate::source::{CellSource, Scratch};
use rpdbscan_engine::TaskError;
use rpdbscan_geom::PointId;
use rpdbscan_grid::{CellWindow, DictionaryIndex, FxHashMap, QueryStats};

/// How Phase II answers each cell. Both variants produce bit-identical
/// clustering output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryRouting {
    /// Every cell from its ε-window ([`CellWindow`]): what production
    /// callers use.
    Window,
    /// The per-point kd query for every point — the correctness oracle
    /// the window path is pinned against.
    Oracle,
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
    /// Points of the partition, each resolved from its cell's window or
    /// by a region query (so always the partition's point count; it feeds
    /// `RunStats::points_processed`).
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
    window: CellWindow,
    core_rows: Vec<f64>,
}

impl LocalBuilder {
    /// Runs Algorithm 3's per-cell body: mark the cell's core points and
    /// (for a core cell) add its successor edges. Under
    /// [`QueryRouting::Window`] the cell is answered from its
    /// [`CellWindow`] (see [`Self::process_window_cell`]); under
    /// [`QueryRouting::Oracle`] every point runs the per-point region
    /// query, as Algorithm 3 states it. Both build the same output.
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
        self.stats.cells_routed_kd += 1;
        if routing == QueryRouting::Window {
            self.process_window_cell(index, min_pts as u64, cell_idx, ids, rows);
            return Ok(());
        }
        let mut is_core_cell = false;
        for (&pid, p) in ids.iter().zip(rows.chunks_exact(dim)) {
            index.region_query_cells_into(p, &mut self.r);
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

    /// Algorithm 3's per-cell body from the cell's ε-window, without a
    /// per-point region query. A window whose total density is below
    /// `min_pts` holds no core point. Otherwise each point sums the
    /// window nearest first until `min_pts` ([`CellWindow::is_core`]),
    /// and a core cell's successors are the window cells one of its core
    /// points reaches ([`CellWindow::successors_into`]). Core flags,
    /// core-point order and edges are the per-point loop's.
    fn process_window_cell(
        &mut self,
        index: &DictionaryIndex,
        min_pts: u64,
        cell_idx: u32,
        ids: &[PointId],
        rows: &[f64],
    ) {
        let dim = index.spec().dim();
        self.window.gather(index, cell_idx);
        self.core_rows.clear();
        if self.window.total() >= min_pts {
            for (&pid, p) in ids.iter().zip(rows.chunks_exact(dim)) {
                if self.window.is_core(index, p, min_pts) {
                    self.core_points.entry(cell_idx).or_default().push(pid);
                    self.core_rows.extend_from_slice(p);
                }
            }
        }
        if self.core_rows.is_empty() {
            self.types.push((cell_idx, CellType::NonCore));
            return;
        }
        self.types.push((cell_idx, CellType::Core));
        self.window
            .successors_into(index, &self.core_rows, &mut self.neighbors);
        self.edges
            .extend(self.neighbors.iter().map(|&nc| (cell_idx, nc)));
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
/// `index` is the broadcast dictionary. `routing` is
/// [`QueryRouting::Window`] everywhere but the equivalence tests, which
/// compare it against [`QueryRouting::Oracle`]. Every cell counts once in
/// the returned stats' `cells_routed_kd`.
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
            build_local_clustering(&src, &parts[0], &index, 4, QueryRouting::Window).unwrap();
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
            build_local_clustering(&src, &parts[0], &index, 4, QueryRouting::Window).unwrap();
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
                build_local_clustering(&src, part, &index, 4, QueryRouting::Window).unwrap();
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
            build_local_clustering(&src, &parts[0], &index, 1, QueryRouting::Window).unwrap();
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
            build_local_clustering(&src, &parts[0], &index, 1000, QueryRouting::Window).unwrap();
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
            build_local_clustering(&src, &parts[0], &index, 4, QueryRouting::Window).unwrap();
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
    fn window_and_oracle_paths_agree_exactly() {
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
                    let window =
                        build_local_clustering(&src, part, &index, min_pts, QueryRouting::Window)
                            .unwrap();
                    // The two paths agree bit for bit.
                    assert_eq!(window.queries, oracle.queries);
                    assert_eq!(window.core_points, oracle.core_points);
                    assert_eq!(window.subgraph.types(), oracle.subgraph.types());
                    assert_eq!(window.subgraph.edges(), oracle.subgraph.edges());
                    // Neither builds a plan, and every cell is counted once.
                    for local in [&window, &oracle] {
                        assert_eq!(local.stats.plans_built, 0);
                        assert_eq!(local.stats.plan_hits, 0);
                        assert_eq!(local.stats.cells_routed_planned, 0);
                        assert_eq!(local.stats.cells_routed_kd, part.len() as u32);
                    }
                    // The window path runs no per-point query.
                    assert_eq!(window.stats.cells_candidate, 0);
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
                build_local_clustering(&src, p, &index, 4, QueryRouting::Window)
                    .unwrap()
                    .queries
            })
            .sum();
        assert_eq!(total, data.len() as u64);
    }
}

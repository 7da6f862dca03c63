//! Phase III-2: point labeling (Algorithm 4, second part; Lemma 3.5).
//!
//! The global cell graph's spanning trees over core cells *are* the
//! clusters (Figure 10b). Points in core cells inherit their cell's
//! cluster directly (the fully-direct branch of Lemma 3.5); points in
//! non-core cells are checked individually against the core points of
//! their predecessor cells with an exact ε distance test (the
//! partially-direct branch), and points matching nothing are outliers.

use crate::graph::{CellSubgraph, CellType, UnionFind};
use crate::source::{CellSource, Scratch};
use rpdbscan_engine::TaskError;
use rpdbscan_geom::{dist2, PointId};
use rpdbscan_grid::{CellDictionary, FxHashMap};
use rpdbscan_metrics::Clustering;

/// Cluster assignment at the cell level: each core cell's cluster id.
#[derive(Debug, Clone)]
pub struct GlobalClusters {
    /// Cluster id per core cell (dictionary index → dense cluster id).
    pub cluster_of_cell: FxHashMap<u32, u32>,
    /// Number of clusters.
    pub num_clusters: usize,
}

/// Extracts clusters from the global cell graph: connected components of
/// core cells under full edges (each spanning tree of Figure 10b is the
/// maximal set of core cells forming one cluster).
fn extract_clusters(g: &CellSubgraph) -> GlobalClusters {
    let core_ids: Vec<u32> = g
        .types()
        .iter()
        .filter(|&&(_, t)| t == CellType::Core)
        .map(|&(c, _)| c)
        .collect();
    // Union-find ids are positions in the sorted core list.
    let dense = |c: u32| core_ids.partition_point(|&x| x < c) as u32;
    let mut uf = UnionFind::new(core_ids.len());
    for &(a, b) in g.edges() {
        if g.cell_type(a) == CellType::Core && g.cell_type(b) == CellType::Core {
            uf.union(dense(a), dense(b));
        }
    }
    // Dense cluster ids in order of first appearance over sorted cells.
    let mut cluster_of_root: FxHashMap<u32, u32> = FxHashMap::default();
    let mut cluster_of_cell: FxHashMap<u32, u32> = FxHashMap::default();
    for (i, &cell) in core_ids.iter().enumerate() {
        let root = uf.find(i as u32);
        let next = cluster_of_root.len() as u32;
        let cid = *cluster_of_root.entry(root).or_insert(next);
        cluster_of_cell.insert(cell, cid);
    }
    GlobalClusters {
        num_clusters: cluster_of_root.len(),
        cluster_of_cell,
    }
}

/// Everything Phase III-2 labeling reads from the merged global graph,
/// derived once and shared read-only across the per-partition label
/// tasks (both the resident and out-of-core drivers label against this
/// same bundle).
#[derive(Debug, Clone)]
pub struct LabelSupport {
    /// The merged global cell graph.
    pub global: CellSubgraph,
    /// Cluster id per core cell.
    pub clusters: GlobalClusters,
    /// Predecessor core cells per non-core cell, in cell-coordinate
    /// order: the border tie-break order, which depends only on the data
    /// — not on partition count, seed, or dictionary build order — so
    /// ambiguous border points resolve identically across runs and
    /// across the batch and streaming pipelines.
    pub preds: FxHashMap<u32, Vec<u32>>,
}

impl LabelSupport {
    /// Extracts clusters and the predecessor map from the global graph
    /// over `dict`'s cell ids.
    pub fn build(global: CellSubgraph, dict: &CellDictionary) -> LabelSupport {
        let clusters = extract_clusters(&global);
        let preds = predecessor_map(&global, dict);
        LabelSupport {
            global,
            clusters,
            preds,
        }
    }
}

/// Predecessor core cells of every non-core cell: the `PC` set of
/// Algorithm 4, Line 18, read off the global graph's partial edges and
/// sorted by cell coordinate.
fn predecessor_map(g: &CellSubgraph, dict: &CellDictionary) -> FxHashMap<u32, Vec<u32>> {
    let mut preds: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
    for &(a, b) in g.edges() {
        if g.cell_type(a) == CellType::Core && g.cell_type(b) == CellType::NonCore {
            preds.entry(b).or_default().push(a);
        }
    }
    for v in preds.values_mut() {
        // Coordinates are unique per cell, so duplicates end up adjacent.
        v.sort_unstable_by(|a, b| dict.entry(*a).coord.cmp(&dict.entry(*b).coord));
        v.dedup();
    }
    preds
}

/// Labels the points of one partition from the global graph's label
/// support (Algorithm 4, Lines 10–23). `cells` lists directory indices
/// into `source`, visited in the given order. Returns `(point, label)`
/// pairs; `None` labels are outliers.
///
/// Core cells need only their ids. A non-core cell gathers its own
/// coordinates, and each predecessor's core coordinates are gathered
/// once per partition, so border cells near the same core cell share
/// one gather and the per-point loop is pure arithmetic.
///
/// Runs inside a `run_stage` task, so internal-consistency violations
/// (a partition cell absent from the dictionary, an undetermined cell
/// in a supposedly global graph) and failed gathers surface as
/// [`TaskError`]s and flow through the engine's failure path instead of
/// panicking a worker.
pub fn label_partition(
    source: &CellSource<'_>,
    cells: &[u32],
    support: &LabelSupport,
    core_points: &FxHashMap<u32, Vec<PointId>>,
    dict: &CellDictionary,
    eps: f64,
) -> Result<Vec<(PointId, Option<u32>)>, TaskError> {
    let eps2 = eps * eps;
    let dim = source.dim();
    let mut out = Vec::new();
    let mut s = Scratch::default();
    // Gathered coordinates of each predecessor cell's core points, keyed
    // by dictionary cell index.
    let mut core_coords: FxHashMap<u32, Vec<f64>> = FxHashMap::default();
    for &ci in cells {
        let coord = source.coord(ci);
        let idx = dict.index_of(coord).ok_or_else(|| {
            TaskError::new(format!("partition cell {coord} missing from dictionary"))
        })?;
        source.gather_ids(ci, &mut s)?;
        match support.global.cell_type(idx) {
            CellType::Core => {
                // All points of a core cell share its cluster (Lines 13–16).
                let cid = support.clusters.cluster_of_cell[&idx];
                out.extend(s.ids.iter().map(|&p| (p, Some(cid))));
            }
            CellType::NonCore => {
                // Border points: exact check against predecessor core
                // points (Lines 18–23); first qualifying predecessor in
                // cell-coordinate order wins, as in sequential DBSCAN's
                // first-come assignment.
                source.gather_coords(ci, &mut s)?;
                let pred_cells = support.preds.get(&idx).map_or(&[][..], Vec::as_slice);
                for &pc in pred_cells {
                    if core_coords.contains_key(&pc) {
                        continue;
                    }
                    let Some(cores) = core_points.get(&pc) else {
                        continue;
                    };
                    let mut gathered = Vec::new();
                    source.gather_core_coords(
                        &dict.entry(pc).coord,
                        cores,
                        &mut s,
                        &mut gathered,
                    )?;
                    core_coords.insert(pc, gathered);
                }
                for (&q, qc) in s.ids.iter().zip(s.coords.chunks_exact(dim)) {
                    let mut label = None;
                    'search: for &pc in pred_cells {
                        if let Some(pcoords) = core_coords.get(&pc) {
                            for pcc in pcoords.chunks_exact(dim) {
                                if dist2(pcc, qc) <= eps2 {
                                    label = Some(support.clusters.cluster_of_cell[&pc]);
                                    break 'search;
                                }
                            }
                        }
                    }
                    out.push((q, label));
                }
            }
            CellType::Undetermined => {
                return Err(TaskError::new(format!(
                    "global graph contains undetermined cell {idx}"
                )));
            }
        }
    }
    Ok(out)
}

/// Assembles per-partition label lists into one [`Clustering`] over `n`
/// points.
pub fn assemble_clustering(n: usize, parts: Vec<Vec<(PointId, Option<u32>)>>) -> Clustering {
    let mut clustering = Clustering::all_noise(n);
    for part in parts {
        for (pid, label) in part {
            clustering.labels_mut()[pid.index()] = label;
        }
    }
    clustering
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{tournament, Run};
    use crate::partition::{group_by_cell, pseudo_random_deal};
    use crate::phase2::{build_local_clustering, QueryRouting};
    use rpdbscan_engine::{CostModel, Engine};
    use rpdbscan_geom::Dataset;
    use rpdbscan_grid::{CellEntry, DictionaryIndex, GridSpec};

    /// End-to-end mini pipeline (partition → phase2 → merge → label) used
    /// by the labeling tests.
    fn run_pipeline(
        rows: &[Vec<f64>],
        eps: f64,
        min_pts: usize,
        k: usize,
    ) -> (Clustering, GlobalClusters) {
        let data = Dataset::from_rows(2, rows).unwrap();
        let spec = GridSpec::new(2, eps, 0.01).unwrap();
        let cells = group_by_cell(&spec, &data);
        let src = CellSource::Resident {
            data: &data,
            cells: &cells,
        };
        let parts = pseudo_random_deal((0..cells.len() as u32).collect(), k, 0);
        let dict = CellDictionary::build_from_points(spec.clone(), data.iter().map(|(_, p)| p));
        let index = DictionaryIndex::new(dict, 1 << 16);
        let locals: Vec<_> = parts
            .iter()
            .map(|p| {
                build_local_clustering(&src, p, &index, min_pts, QueryRouting::Window).unwrap()
            })
            .collect();
        let mut core_points: FxHashMap<u32, Vec<PointId>> = FxHashMap::default();
        let mut graphs = Vec::new();
        for l in locals {
            for (c, pts) in l.core_points {
                core_points.entry(c).or_default().extend(pts);
            }
            graphs.push(Run::Memory(l.subgraph));
        }
        let engine = Engine::with_cost_model(2, CostModel::free());
        let g = tournament(&engine, graphs, None).unwrap().global;
        assert!(g.is_global());
        let support = LabelSupport::build(g, index.dict());
        let labeled: Vec<_> = parts
            .iter()
            .map(|p| label_partition(&src, p, &support, &core_points, index.dict(), eps).unwrap())
            .collect();
        (assemble_clustering(data.len(), labeled), support.clusters)
    }

    fn blob(cx: f64, cy: f64, n: usize, spread: f64) -> Vec<Vec<f64>> {
        // Deterministic ring-ish blob, dense enough to be core.
        (0..n)
            .map(|i| {
                let a = i as f64 * 0.61803398875;
                let r = spread * (i % 10) as f64 / 10.0;
                vec![cx + r * a.cos(), cy + r * a.sin()]
            })
            .collect()
    }

    #[test]
    fn two_blobs_two_clusters_outlier_noise() {
        let mut rows = blob(0.0, 0.0, 60, 0.3);
        rows.extend(blob(10.0, 10.0, 60, 0.3));
        rows.push(vec![50.0, -50.0]);
        for k in [1, 2, 5] {
            let (c, g) = run_pipeline(&rows, 1.0, 5, k);
            assert_eq!(g.num_clusters, 2, "k={k}");
            assert_eq!(c.num_clusters(), 2, "k={k}");
            assert_eq!(c.noise_count(), 1, "k={k}");
            // Points of the same blob share a label.
            let l0 = c.labels()[0];
            assert!((0..60).all(|i| c.labels()[i] == l0));
            let l1 = c.labels()[60];
            assert!((60..120).all(|i| c.labels()[i] == l1));
            assert_ne!(l0, l1);
        }
    }

    #[test]
    fn partition_count_does_not_change_labels() {
        let mut rows = blob(0.0, 0.0, 50, 0.4);
        rows.extend(blob(6.0, -3.0, 50, 0.4));
        let (c1, _) = run_pipeline(&rows, 0.8, 5, 1);
        let (c8, _) = run_pipeline(&rows, 0.8, 5, 8);
        // Same clustering up to label permutation: compare via Rand index.
        let ri =
            rpdbscan_metrics::rand_index(&c1, &c8, rpdbscan_metrics::NoisePolicy::SingleCluster);
        assert_eq!(ri, 1.0);
    }

    #[test]
    fn border_points_join_via_partial_edges() {
        // A dense blob plus a single border point within eps of the blob
        // edge but itself not core.
        let mut rows = blob(0.0, 0.0, 60, 0.3);
        rows.push(vec![0.9, 0.0]); // within eps=1.0 of blob's core points
        let (c, _) = run_pipeline(&rows, 1.0, 5, 3);
        let border = c.labels()[60];
        assert!(border.is_some(), "border point must be labeled");
        assert_eq!(border, c.labels()[0]);
    }

    #[test]
    fn all_noise_when_min_pts_too_high() {
        let rows = blob(0.0, 0.0, 20, 2.0);
        let (c, g) = run_pipeline(&rows, 0.1, 50, 2);
        assert_eq!(g.num_clusters, 0);
        assert_eq!(c.noise_count(), 20);
    }

    #[test]
    fn extract_clusters_counts_isolated_core_cells() {
        let g = CellSubgraph::new(
            vec![
                (0, CellType::Core),
                (5, CellType::Core),
                (9, CellType::NonCore),
            ],
            vec![],
        );
        let c = extract_clusters(&g);
        assert_eq!(c.num_clusters, 2);
        assert_ne!(c.cluster_of_cell[&0], c.cluster_of_cell[&5]);
        assert!(!c.cluster_of_cell.contains_key(&9));
    }

    #[test]
    fn predecessor_map_collects_partial_edges_in_coordinate_order() {
        // Dictionary index order is not coordinate order: cell 0 sits to
        // the right of cell 1.
        let spec = GridSpec::new(2, 1.0, 1.0).unwrap();
        let entries = [[1.5, 0.1], [0.1, 0.1], [0.8, 0.1]]
            .iter()
            .map(|p| CellEntry::from_points(&spec, spec.cell_of(p), [&p[..]]));
        let dict = CellDictionary::from_entries(spec.clone(), entries);
        let g = CellSubgraph::new(
            vec![
                (0, CellType::Core),
                (1, CellType::Core),
                (2, CellType::NonCore),
            ],
            // One full edge, then two partial ones.
            vec![(0, 1), (0, 2), (1, 2)],
        );
        let p = predecessor_map(&g, &dict);
        assert_eq!(p.len(), 1);
        assert_eq!(p[&2], vec![1, 0]);
    }
}

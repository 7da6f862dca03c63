//! ρ-approximate DBSCAN (Gan & Tao 2015) as a single-machine clusterer.
//!
//! The paper incorporates ρ-approximate DBSCAN into the local-clustering
//! step of ESP-/RBP-/CBP-DBSCAN for a fair comparison with RP-DBSCAN
//! (§7.1.2). Rather than re-deriving the machinery, this reuses the
//! RP-DBSCAN cell pipeline with a single partition: build the grid and
//! two-level dictionary over the (local) data, mark cores with
//! `(ε,ρ)`-region queries, connect cells, and label — which is exactly
//! the cell-based approximation of Gan & Tao that RP-DBSCAN generalises.

use rpdbscan_core::label::{assemble_clustering, label_partition, LabelSupport};
use rpdbscan_core::partition::{dictionary_of, group_by_cell};
use rpdbscan_core::phase2::{build_local_clustering, QueryRouting};
use rpdbscan_core::CellSource;
use rpdbscan_engine::TaskError;
use rpdbscan_geom::Dataset;
use rpdbscan_grid::{DictionaryIndex, GridSpec};
use rpdbscan_metrics::Clustering;

/// ρ-approximate DBSCAN result with core flags.
#[derive(Debug, Clone)]
pub struct RhoApproxOutput {
    /// Point labels (None = noise).
    pub clustering: Clustering,
    /// `core[i]` is true iff point `i` is an (approximate) core point.
    pub core: Vec<bool>,
}

/// Runs ρ-approximate DBSCAN on `data`.
///
/// Errors when `(data.dim(), eps, rho)` is not a valid grid
/// configuration, or when the internal cell pipeline reports an
/// inconsistency; the baseline drivers run this inside engine tasks, so
/// the [`TaskError`] flows through their stage failure path.
pub fn rho_approx_dbscan(
    data: &Dataset,
    eps: f64,
    min_pts: usize,
    rho: f64,
) -> Result<RhoApproxOutput, TaskError> {
    let spec = GridSpec::new(data.dim(), eps, rho)
        .map_err(|e| TaskError::new(format!("invalid grid configuration: {e}")))?;
    let cells = group_by_cell(&spec, data);
    let src = CellSource::Resident {
        data,
        cells: &cells,
    };
    let all: Vec<u32> = (0..cells.len() as u32).collect();
    let index = DictionaryIndex::single(dictionary_of(&spec, data, &cells));
    let local = build_local_clustering(&src, &all, &index, min_pts, QueryRouting::Window)?;

    let mut core = vec![false; data.len()];
    for pts in local.core_points.values() {
        for p in pts {
            core[p.index()] = true;
        }
    }
    debug_assert!(
        local.subgraph.is_global(),
        "single partition graph must be global"
    );
    let support = LabelSupport::build(local.subgraph, index.dict());
    let labeled = label_partition(&src, &all, &support, &local.core_points, index.dict(), eps)?;
    Ok(RhoApproxOutput {
        clustering: assemble_clustering(data.len(), vec![labeled]),
        core,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::dbscan;
    use rpdbscan_metrics::{rand_index, NoisePolicy};

    fn blobs() -> Dataset {
        let mut rows = Vec::new();
        for b in 0..3 {
            let (cx, cy) = (b as f64 * 20.0, b as f64 * -10.0);
            for i in 0..50 {
                let a = i as f64 * 0.618;
                let r = 0.5 * (i % 10) as f64 / 10.0;
                rows.push(vec![cx + r * a.cos(), cy + r * a.sin()]);
            }
        }
        rows.push(vec![500.0, 500.0]);
        Dataset::from_rows(2, &rows).unwrap()
    }

    #[test]
    fn matches_exact_dbscan_at_small_rho() {
        let d = blobs();
        let exact = dbscan(&d, 1.0, 5);
        let approx = rho_approx_dbscan(&d, 1.0, 5, 0.01).unwrap();
        let ri = rand_index(
            &exact.clustering,
            &approx.clustering,
            NoisePolicy::SingleCluster,
        );
        assert_eq!(ri, 1.0);
        assert_eq!(approx.core, exact.core);
    }

    #[test]
    fn three_clusters_one_outlier() {
        let d = blobs();
        let out = rho_approx_dbscan(&d, 1.0, 5, 0.01).unwrap();
        assert_eq!(out.clustering.num_clusters(), 3);
        assert_eq!(out.clustering.noise_count(), 1);
    }

    #[test]
    fn coarse_rho_still_reasonable() {
        let d = blobs();
        let exact = dbscan(&d, 1.0, 5);
        let approx = rho_approx_dbscan(&d, 1.0, 5, 0.5).unwrap();
        let ri = rand_index(
            &exact.clustering,
            &approx.clustering,
            NoisePolicy::SingleCluster,
        );
        assert!(ri > 0.95, "rho=0.5 Rand index {ri}");
    }

    #[test]
    fn empty_input() {
        let d = Dataset::from_flat(2, vec![]).unwrap();
        let out = rho_approx_dbscan(&d, 1.0, 5, 0.01).unwrap();
        assert!(out.clustering.is_empty());
        assert!(out.core.is_empty());
    }
}

//! The exact grid backend: a thin adapter over the batch driver.

use crate::{DensityBackend, DensityError, DensityOutput, DensityStats};
use rpdbscan_core::partition::{dictionary_of, group_by_cell};
use rpdbscan_core::phase2::{build_local_clustering, QueryRouting};
use rpdbscan_core::{CellSource, DensityBackendKind};
use rpdbscan_core::{RpDbscan, RpDbscanParams};
use rpdbscan_engine::Engine;
use rpdbscan_geom::{Dataset, PointId};
use rpdbscan_grid::{DictionaryIndex, GridSpec};

/// The paper's exact `(ε,ρ)`-region-query density, unchanged.
///
/// `cluster` *is* [`RpDbscan::run`] — the adapter forwards to the batch
/// driver with the backend selection normalised to
/// [`DensityBackendKind::Exact`], so its labels are bit-identical to a
/// driver run with the same parameters (the equivalence suite pins
/// this). `core_flags` runs Phase II alone over the same dictionary.
pub struct ExactGrid {
    params: RpDbscanParams,
}

impl ExactGrid {
    /// Creates the adapter. The params' backend selection is normalised
    /// to [`DensityBackendKind::Exact`] so the inner driver accepts it.
    pub fn new(params: RpDbscanParams) -> Self {
        Self {
            params: params.with_density_backend(DensityBackendKind::Exact),
        }
    }
}

impl DensityBackend for ExactGrid {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn core_flags(&self, data: &Dataset, engine: &Engine) -> Result<Vec<bool>, DensityError> {
        let p = &self.params;
        let spec =
            GridSpec::new(data.dim(), p.eps, p.rho).map_err(rpdbscan_core::CoreError::from)?;
        // One cell sort groups the points and feeds the dictionary.
        let cells = group_by_cell(&spec, data);
        let index = DictionaryIndex::new(dictionary_of(&spec, data, &cells), p.subdict_capacity);

        // Core status is a per-point property, so any cell split gives
        // the same flags; chunk the (already coordinate-sorted) cells
        // into `num_partitions` contiguous directory-index ranges for
        // engine fan-out.
        let src = CellSource::Resident {
            data,
            cells: &cells,
        };
        let ranges: Vec<Vec<u32>> = crate::point_ranges(cells.len(), p.num_partitions)
            .into_iter()
            .map(|(lo, hi)| (lo as u32..hi as u32).collect())
            .collect();

        let min_pts = p.min_pts;
        let stage = engine.run_stage("density:exact-cores", ranges, |_ctx, part| {
            let local = build_local_clustering(&src, &part, &index, min_pts, QueryRouting::Window)?;
            let mut ids: Vec<PointId> = local.core_points.into_values().flatten().collect();
            ids.sort_unstable();
            Ok(ids)
        })?;

        let mut flags = vec![false; data.len()];
        for ids in stage.outputs {
            for pid in ids {
                flags[pid.0 as usize] = true;
            }
        }
        Ok(flags)
    }

    fn cluster(&self, data: &Dataset, engine: &Engine) -> Result<DensityOutput, DensityError> {
        let out = RpDbscan::new(self.params)?.run(data, engine)?;
        let mut stats = DensityStats::new("exact");
        stats.neighbor_searches = out.stats.points_processed;
        stats.num_clusters = out.stats.num_clusters;
        stats.noise_points = out.stats.noise_points;
        Ok(DensityOutput {
            clustering: out.clustering,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpdbscan_engine::CostModel;

    fn two_blobs() -> Dataset {
        let mut rows = Vec::new();
        for i in 0..20 {
            rows.push(vec![(i % 5) as f64 * 0.1, (i / 5) as f64 * 0.1]);
            rows.push(vec![8.0 + (i % 5) as f64 * 0.1, (i / 5) as f64 * 0.1]);
        }
        rows.push(vec![50.0, 50.0]); // noise
        Dataset::from_rows(2, &rows).unwrap()
    }

    #[test]
    fn cluster_matches_the_batch_driver_bit_for_bit() {
        let data = two_blobs();
        let params = RpDbscanParams::new(0.4, 4).with_partitions(3);
        let engine = Engine::with_cost_model(2, CostModel::free());
        let ours = ExactGrid::new(params).cluster(&data, &engine).unwrap();
        let reference = RpDbscan::new(params).unwrap().run(&data, &engine).unwrap();
        assert_eq!(ours.clustering.labels(), reference.clustering.labels());
        assert_eq!(ours.stats.backend, "exact");
        assert_eq!(ours.stats.num_clusters, 2);
    }

    #[test]
    fn core_flags_mark_dense_points_only() {
        let data = two_blobs();
        let params = RpDbscanParams::new(0.4, 4).with_partitions(3);
        let engine = Engine::with_cost_model(2, CostModel::free());
        let flags = ExactGrid::new(params).core_flags(&data, &engine).unwrap();
        assert_eq!(flags.len(), data.len());
        assert!(!flags[data.len() - 1], "the far outlier is not core");
        assert!(flags.iter().filter(|f| **f).count() > 20);
    }
}

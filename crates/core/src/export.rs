//! The Phase III cell graph a run hands back, and its per-cell export.
//!
//! Phase III (Algorithm 4) ends with everything a reader of the
//! clustering needs: the cluster id of every core cell, the predecessor
//! core cells of every non-core cell, and the core points. The batch
//! and out-of-core drivers keep those structures as a [`CellGraph`] on
//! their output instead of dropping them, and [`CellGraph::export`]
//! flattens them into the same coordinate-keyed [`CellExport`] records
//! the streaming clusterer publishes — the one per-cell record the
//! serving layer builds shards from.

use crate::label::LabelSupport;
use rpdbscan_geom::{Dataset, PointId};
use rpdbscan_grid::{CellCoord, CellDictionary, FxHashMap};

/// Read-only per-cell clustering state keyed by stable cell coordinates:
/// everything an external reader needs to reproduce Phase III's label
/// resolution (the batch → serving and stream → serving handoff).
#[derive(Debug, Clone, PartialEq)]
pub struct CellExport {
    /// The cell's coordinate.
    pub coord: CellCoord,
    /// Cluster id when the cell is core, `None` for non-core cells.
    pub cluster: Option<u32>,
    /// For non-core cells: the predecessor core cells of the cell graph's
    /// partial edges, sorted by coordinate (the deterministic border
    /// tie-break order). Empty for core cells.
    pub preds: Vec<CellCoord>,
    /// Flat coordinates of the cell's core points (`dim` values per
    /// point) — the operands of the exact ε border checks.
    pub core_coords: Vec<f64>,
}

/// The global cell graph of a finished run, as Phase III-2 labelled
/// against it.
#[derive(Debug, Clone)]
pub struct CellGraph {
    /// The run's cell dictionary; its indices are the graph's cell ids.
    pub(crate) dict: CellDictionary,
    /// Cluster ids of core cells and predecessors of non-core cells.
    pub(crate) support: LabelSupport,
    /// Core point ids per core cell (dictionary index → ids).
    pub(crate) core_points: FxHashMap<u32, Vec<PointId>>,
}

impl CellGraph {
    /// The run's cell dictionary (the sub-cell summaries of every
    /// occupied cell).
    pub fn dict(&self) -> &CellDictionary {
        &self.dict
    }

    /// One record per occupied cell, sorted by cell coordinate. Core
    /// point coordinates are read from `data`, the dataset the run
    /// clustered (point ids index into it).
    pub fn export(&self, data: &Dataset) -> Vec<CellExport> {
        let dict = &self.dict;
        let coord = |i: u32| &dict.entry(i).coord;
        let mut order: Vec<u32> = (0..dict.num_cells() as u32).collect();
        order.sort_unstable_by(|&a, &b| coord(a).cmp(coord(b)));
        order
            .into_iter()
            .map(|i| {
                // Only non-core cells have predecessors.
                let preds = self.support.preds.get(&i).map_or_else(Vec::new, |pc| {
                    pc.iter().map(|&p| coord(p).clone()).collect()
                });
                let cores = self.core_points.get(&i).map_or(&[][..], Vec::as_slice);
                let mut core_coords = Vec::with_capacity(cores.len() * data.dim());
                for &p in cores {
                    core_coords.extend_from_slice(data.point(p));
                }
                CellExport {
                    coord: coord(i).clone(),
                    cluster: self.support.clusters.cluster_of_cell.get(&i).copied(),
                    preds,
                    core_coords,
                }
            })
            .collect()
    }
}

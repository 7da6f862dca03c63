//! Where a batch run's cells live: in memory, or paged from a column
//! store.
//!
//! Both batch drivers run one pipeline (Phase I-1's deal through
//! Phase III-2) over a [`CellSource`]. A source lists the run's occupied
//! cells in coordinate order and addresses them by *directory index*,
//! their position in that list. The store's row order (cell coordinate,
//! then original id) is the order Phase I-1's grouping produces (both
//! are the grid's one cell sort), so the
//! two variants list the same cells, ids and bit-exact coordinates in
//! the same order for the same points. That is what makes an
//! out-of-core run bit-identical to a resident one.
//!
//! The pipeline dispatches on the variant once per cell gather, never
//! per point: every gather decodes a whole cell into reusable scratch
//! buffers, and the per-point loops read those.

use crate::partition::CellPoints;
use crate::task_err;
use rpdbscan_engine::TaskError;
use rpdbscan_geom::{Dataset, PointId};
use rpdbscan_grid::CellCoord;
use rpdbscan_store::BufferPool;

/// The cells of one batch run, addressed by directory index.
#[derive(Debug, Clone, Copy)]
pub enum CellSource<'a> {
    /// Points in memory: the dataset plus its cells, coordinate-sorted
    /// as [`crate::partition::group_by_cell`] returns them.
    Resident {
        /// The points.
        data: &'a Dataset,
        /// The occupied cells, sorted by coordinate.
        cells: &'a [CellPoints],
    },
    /// Points in a column store, read through a buffer pool; the
    /// store's cell directory is the cell list.
    Paged(&'a BufferPool),
}

/// Reusable decode buffers for one task's gathers, so a partition's
/// cells allocate nothing in steady state.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Point ids of the last [`CellSource::gather_ids`] cell, ascending.
    pub(crate) ids: Vec<PointId>,
    /// Row-major coordinates of the last [`CellSource::gather_coords`]
    /// cell, in id order.
    pub(crate) coords: Vec<f64>,
    raw_ids: Vec<u32>,
    rows: Vec<u64>,
}

impl<'a> CellSource<'a> {
    /// Number of occupied cells.
    pub(crate) fn num_cells(&self) -> usize {
        match self {
            CellSource::Resident { cells, .. } => cells.len(),
            CellSource::Paged(pool) => pool.store().cells().len(),
        }
    }

    /// Number of points over all cells.
    pub(crate) fn num_points(&self) -> usize {
        match self {
            CellSource::Resident { data, .. } => data.len(),
            CellSource::Paged(pool) => pool.store().len() as usize,
        }
    }

    /// Coordinates per point.
    pub(crate) fn dim(&self) -> usize {
        match self {
            CellSource::Resident { data, .. } => data.dim(),
            CellSource::Paged(pool) => pool.store().dim(),
        }
    }

    /// The lattice coordinate of cell `ci`.
    pub(crate) fn coord(&self, ci: u32) -> &'a CellCoord {
        match *self {
            CellSource::Resident { cells, .. } => &cells[ci as usize].coord,
            CellSource::Paged(pool) => &pool.store().cells()[ci as usize].coord,
        }
    }

    /// Gathers cell `ci`'s point ids into `s.ids`.
    pub(crate) fn gather_ids(&self, ci: u32, s: &mut Scratch) -> Result<(), TaskError> {
        s.ids.clear();
        match *self {
            CellSource::Resident { cells, .. } => {
                s.ids.extend_from_slice(&cells[ci as usize].points);
            }
            CellSource::Paged(pool) => {
                let meta = &pool.store().cells()[ci as usize];
                pool.gather_ids(meta.row_start, meta.row_count, &mut s.raw_ids)
                    .map_err(task_err)?;
                s.ids.extend(s.raw_ids.iter().map(|&i| PointId(i)));
            }
        }
        Ok(())
    }

    /// Gathers cell `ci`'s coordinates row-major into `s.coords`, in
    /// the order [`Self::gather_ids`] lists the ids.
    pub(crate) fn gather_coords(&self, ci: u32, s: &mut Scratch) -> Result<(), TaskError> {
        match *self {
            CellSource::Resident { data, cells } => {
                s.coords.clear();
                for &id in &cells[ci as usize].points {
                    s.coords.extend_from_slice(data.point(id));
                }
            }
            CellSource::Paged(pool) => {
                let meta = &pool.store().cells()[ci as usize];
                pool.gather_coords(meta.row_start, meta.row_count, &mut s.coords)
                    .map_err(task_err)?;
            }
        }
        Ok(())
    }

    /// Gathers the coordinates of `ids` (ascending, all inside the cell
    /// at `coord`) row-major into `out`, replacing its contents. Uses
    /// only `s`'s private buffers, so `s.ids` and `s.coords` survive.
    pub(crate) fn gather_core_coords(
        &self,
        coord: &CellCoord,
        ids: &[PointId],
        s: &mut Scratch,
        out: &mut Vec<f64>,
    ) -> Result<(), TaskError> {
        match *self {
            CellSource::Resident { data, .. } => {
                out.clear();
                for &id in ids {
                    out.extend_from_slice(data.point(id));
                }
            }
            CellSource::Paged(pool) => {
                let cells = pool.store().cells();
                let meta = cells
                    .binary_search_by(|m| m.coord.cmp(coord))
                    .map(|i| &cells[i])
                    .map_err(|_| {
                        TaskError::new(format!("cell {coord} missing from store directory"))
                    })?;
                s.raw_ids.clear();
                s.raw_ids.extend(ids.iter().map(|p| p.0));
                pool.rows_of_ids(meta.row_start, meta.row_count, &s.raw_ids, &mut s.rows)
                    .map_err(task_err)?;
                pool.gather_rows_coords(&s.rows, out).map_err(task_err)?;
            }
        }
        Ok(())
    }
}

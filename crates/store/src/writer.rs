//! Ingest: build a column store file from a stream of points.
//!
//! Ingest is the one resident step of the out-of-core pipeline: it holds
//! the raw coordinates while it sorts rows by `(cell, original id)` and
//! writes the paged columns. The sort is the grid's cell sort
//! ([`CellRuns::sort`]), the kernel the resident pipeline's Phase I-1
//! groups points with, so the store's rows and directory are exactly
//! the resident directory. Everything downstream (dictionary build,
//! Phase II, labeling) then streams cells through the buffer pool
//! instead of owning coordinate copies. The write hot loops take hoisted
//! scratch buffers and are marked `// lint:hot` so the analyzer keeps
//! them allocation-free.

use crate::format::{self, CellMeta, Header, HEADER_BYTES};
use crate::StoreError;
use rpdbscan_grid::{CellRuns, GridSpec};
use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

/// Facts about a finished ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestStats {
    /// Points written.
    pub points: u64,
    /// Non-empty cells in the directory.
    pub cells: u64,
    /// Total pages across all columns.
    pub pages: u64,
    /// Final file size in bytes.
    pub file_bytes: u64,
}

/// Accumulates points, then sorts and writes the store in [`Self::finish`].
#[derive(Debug)]
pub struct StoreWriter {
    spec: GridSpec,
    page_rows: u32,
    dim: usize,
    coords: Vec<f64>,
}

impl StoreWriter {
    /// A writer for points under `spec`'s grid, paged at `page_rows`
    /// rows per page ([`format::DEFAULT_PAGE_ROWS`] is the usual choice).
    pub fn new(spec: GridSpec, page_rows: u32) -> Result<Self, StoreError> {
        if page_rows == 0 {
            return Err(StoreError::InvalidConfig {
                what: "page_rows must be >= 1",
            });
        }
        Ok(StoreWriter {
            dim: spec.dim(),
            spec,
            page_rows,
            coords: Vec::new(),
        })
    }

    /// Appends one point (original ids are assigned in push order).
    pub fn push(&mut self, p: &[f64]) -> Result<(), StoreError> {
        if p.len() != self.dim {
            return Err(StoreError::InvalidConfig {
                what: "row dimensionality disagrees with the grid spec",
            });
        }
        if self.len() >= u32::MAX as u64 {
            return Err(StoreError::InvalidConfig {
                what: "too many points for 32-bit point ids",
            });
        }
        self.coords.extend_from_slice(p);
        Ok(())
    }

    /// Points pushed so far.
    pub fn len(&self) -> u64 {
        (self.coords.len() / self.dim) as u64
    }

    /// True when no point has been pushed.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Sorts rows by `(cell, original id)` with the cell sort and writes
    /// the store file.
    pub fn finish(self, path: &Path) -> Result<IngestStats, StoreError> {
        let dim = self.dim;
        let n = self.len();

        // The cell sort: its id order is the row order, its cells the
        // directory.
        let runs = CellRuns::sort(&self.spec, &self.coords, 0);
        let order = runs.all_ids();
        let dir_cells: Vec<CellMeta> = (0..runs.len())
            .map(|ci| {
                let rows = runs.rows(ci);
                CellMeta {
                    coord: runs.coord(ci),
                    row_start: rows.start as u64,
                    row_count: rows.len() as u64,
                }
            })
            .collect();

        let file = File::create(path)?;
        let mut w = BufWriter::new(file);
        // Header placeholder; the real one lands after the directory
        // bytes (and their checksum) are known.
        w.write_all(&[0u8; HEADER_BYTES as usize])?;

        let mut page_buf: Vec<u8> = Vec::with_capacity(self.page_rows as usize * 8);
        let mut page_sums: Vec<u64> =
            Vec::with_capacity((dim + 1) * format::pages_in_col(n, self.page_rows) as usize);
        for c in 0..dim {
            write_coord_column(
                &mut w,
                &self.coords,
                dim,
                c,
                order,
                self.page_rows,
                &mut page_buf,
                &mut page_sums,
            )?;
        }
        write_perm_column(&mut w, order, self.page_rows, &mut page_buf, &mut page_sums)?;

        let dir = format::encode_directory(&dir_cells, &page_sums);
        w.write_all(&dir)?;
        let mut file = w.into_inner().map_err(|e| StoreError::Io(e.to_string()))?;

        let header = Header {
            dim: dim as u32,
            n_points: n,
            page_rows: self.page_rows,
            eps: self.spec.eps(),
            rho: self.spec.rho(),
            dir_offset: HEADER_BYTES + n * (dim as u64 * 8 + 4),
            dir_bytes: dir.len() as u64,
            dir_checksum: format::fnv1a(&dir),
        };
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header.encode())?;
        file.flush()?;

        Ok(IngestStats {
            points: n,
            cells: dir_cells.len() as u64,
            pages: page_sums.len() as u64,
            file_bytes: header.dir_offset + header.dir_bytes,
        })
    }
}

/// Writes one coordinate column in sorted row order, page by page,
/// recording a checksum per page. `page_buf` is caller-hoisted scratch.
// lint:hot
#[allow(clippy::too_many_arguments)]
fn write_coord_column(
    w: &mut BufWriter<File>,
    coords: &[f64],
    dim: usize,
    col: usize,
    order: &[u32],
    page_rows: u32,
    page_buf: &mut Vec<u8>,
    page_sums: &mut Vec<u64>,
) -> Result<(), StoreError> {
    for chunk in order.chunks(page_rows as usize) {
        page_buf.clear();
        for &orig in chunk {
            let v = coords[orig as usize * dim + col];
            page_buf.extend_from_slice(&v.to_le_bytes());
        }
        page_sums.push(format::fnv1a(page_buf));
        w.write_all(page_buf)?;
    }
    Ok(())
}

/// Writes the permutation column (original point id per sorted row).
// lint:hot
fn write_perm_column(
    w: &mut BufWriter<File>,
    order: &[u32],
    page_rows: u32,
    page_buf: &mut Vec<u8>,
    page_sums: &mut Vec<u64>,
) -> Result<(), StoreError> {
    for chunk in order.chunks(page_rows as usize) {
        page_buf.clear();
        for &orig in chunk {
            page_buf.extend_from_slice(&orig.to_le_bytes());
        }
        page_sums.push(format::fnv1a(page_buf));
        w.write_all(page_buf)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_rejects_bad_config() {
        let spec = GridSpec::new(2, 1.0, 0.5).unwrap();
        assert!(matches!(
            StoreWriter::new(spec.clone(), 0),
            Err(StoreError::InvalidConfig { .. })
        ));
        let mut w = StoreWriter::new(spec, 4).unwrap();
        assert!(matches!(
            w.push(&[1.0, 2.0, 3.0]),
            Err(StoreError::InvalidConfig { .. })
        ));
        assert!(w.is_empty());
    }

    #[test]
    fn sort_is_by_cell_then_id() {
        let spec = GridSpec::new(1, 1.0, 0.5).unwrap();
        let mut w = StoreWriter::new(spec.clone(), 4).unwrap();
        for v in [5.0, 0.5, 5.1, 0.2] {
            w.push(&[v]).unwrap();
        }
        let path = std::env::temp_dir().join(format!("writer-sort-{}.store", std::process::id()));
        let stats = w.finish(&path).unwrap();
        let store = crate::ColumnStore::open(&path).unwrap();
        let mut perm = Vec::new();
        store.read_page(1, 0, &mut perm).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(stats.cells, 2);
        let cells: Vec<(Vec<i64>, u64, u64)> = store
            .cells()
            .iter()
            .map(|m| (m.coord.coords().to_vec(), m.row_start, m.row_count))
            .collect();
        assert_eq!(cells, vec![(vec![0], 0, 2), (vec![5], 2, 2)]);
        // The permutation column lists original ids in row order.
        let ids: Vec<u32> = perm
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        assert_eq!(ids, vec![1, 3, 0, 2]);
    }
}

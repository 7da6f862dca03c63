//! The two-level cell dictionary (Definition 4.2).
//!
//! The dictionary is the compact summary of the *entire* data set that
//! Phase I broadcasts to every worker: a root level of cells and a leaf
//! level of sub-cells, each entry recording `⟨position, density⟩`. Its two
//! compression tricks (Lemma 4.3) are (a) storing only densities, never
//! point positions, and (b) addressing a sub-cell by its `d(h−1)`-bit
//! local ordering inside its cell instead of by floats.
//!
//! Two size figures are exposed:
//!
//! * [`CellDictionary::size_bits`] — the bit-exact analytical model of
//!   Lemma 4.3, used to regenerate Table 5;
//! * [`CellDictionary::encode`] — an actual wire encoding (length-prefixed,
//!   little-endian, sub-cell positions bit-packed), whose byte length the
//!   execution engine charges as broadcast cost.

use crate::cell::{CellCoord, SubCellIdx};
use crate::cellsort::CellRuns;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::spec::GridSpec;
use std::cmp::Ordering;

/// One leaf entry: a sub-cell's packed local position and its density.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubCellEntry {
    /// Packed `d(h−1)`-bit local position within the parent cell.
    pub idx: SubCellIdx,
    /// Number of points inside the sub-cell.
    pub count: u32,
}

/// One root entry: a cell, its density, and its non-empty sub-cells.
#[derive(Debug, Clone, PartialEq)]
pub struct CellEntry {
    /// Lattice coordinate of the cell.
    pub coord: CellCoord,
    /// Number of points inside the cell (= sum of sub-cell counts).
    pub count: u32,
    /// Non-empty sub-cells, sorted by packed index.
    pub subs: Vec<SubCellEntry>,
}

impl CellEntry {
    /// Summarises the points of one cell into a root+leaf entry: the
    /// points' packed sub-cell indices, sorted and run-length counted.
    ///
    /// Callers guarantee every point actually falls in `coord`'s cell;
    /// boundary points are clamped into it by the sub-index computation.
    pub fn from_points<'a>(
        spec: &GridSpec,
        coord: CellCoord,
        points: impl IntoIterator<Item = &'a [f64]>,
    ) -> Self {
        // One entry per point, then sorted and folded in place: the
        // histogram allocates nothing beyond its own list.
        let mut subs: Vec<SubCellEntry> = points
            .into_iter()
            .map(|p| {
                debug_assert_eq!(spec.cell_of(p), coord, "point outside its cell");
                SubCellEntry {
                    idx: spec.sub_index_of(&coord, p),
                    count: 1,
                }
            })
            .collect();
        let total = subs.len() as u32;
        subs.sort_unstable_by_key(|s| s.idx);
        subs.dedup_by(|later, kept| {
            let same = later.idx == kept.idx;
            if same {
                kept.count += later.count;
            }
            same
        });
        subs.shrink_to_fit();
        Self {
            coord,
            count: total,
            subs,
        }
    }

    /// Merges another entry for the same cell (used when the same cell is
    /// summarised by several point batches): the two sorted sub-cell
    /// lists are merged, equal indices adding their counts.
    pub fn merge(&mut self, other: CellEntry) {
        debug_assert_eq!(self.coord, other.coord);
        self.count += other.count;
        let (x, y) = (&self.subs, &other.subs);
        let mut subs = Vec::with_capacity(x.len() + y.len());
        let (mut i, mut j) = (0, 0);
        while i < x.len() && j < y.len() {
            match x[i].idx.cmp(&y[j].idx) {
                Ordering::Less => {
                    subs.push(x[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    subs.push(y[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    subs.push(SubCellEntry {
                        idx: x[i].idx,
                        count: x[i].count + y[j].count,
                    });
                    i += 1;
                    j += 1;
                }
            }
        }
        subs.extend_from_slice(&x[i..]);
        subs.extend_from_slice(&y[j..]);
        self.subs = subs;
    }
}

/// The two-level cell dictionary over the whole data set.
///
/// ```
/// use rpdbscan_grid::{CellDictionary, GridSpec};
///
/// let spec = GridSpec::new(2, 1.0, 0.1).unwrap();
/// let points: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 * 0.01, 0.0]).collect();
/// let dict = CellDictionary::build_from_points(
///     spec,
///     points.iter().map(|p| p.as_slice()),
/// );
/// assert_eq!(dict.total_points(), 100);
/// // Broadcast wire format round-trips.
/// let back = CellDictionary::decode(dict.encode()).unwrap();
/// assert_eq!(back.num_cells(), dict.num_cells());
/// ```
#[derive(Debug, Clone)]
pub struct CellDictionary {
    spec: GridSpec,
    cells: Vec<CellEntry>,
    lookup: FxHashMap<CellCoord, u32>,
}

impl CellDictionary {
    /// Assembles a dictionary from per-partition cell entries, merging any
    /// duplicate cells (Algorithm 2, Lines 18–20: `M ← M₁ ∪ … ∪ M_k`).
    pub fn from_entries(spec: GridSpec, entries: impl IntoIterator<Item = CellEntry>) -> Self {
        let mut cells: Vec<CellEntry> = Vec::new();
        let mut lookup: FxHashMap<CellCoord, u32> = FxHashMap::default();
        for e in entries {
            match lookup.get(&e.coord) {
                Some(&i) => cells[i as usize].merge(e),
                None => {
                    lookup.insert(e.coord.clone(), cells.len() as u32);
                    cells.push(e);
                }
            }
        }
        Self {
            spec,
            cells,
            lookup,
        }
    }

    /// Builds a dictionary directly from a point stream (convenience for
    /// tests and the single-machine baselines): the points are copied
    /// into one buffer and cell-sorted ([`CellRuns::sort`]), and each
    /// cell becomes an entry, in coordinate order.
    pub fn build_from_points<'a>(
        spec: GridSpec,
        points: impl IntoIterator<Item = &'a [f64]>,
    ) -> Self {
        let dim = spec.dim();
        let mut coords = Vec::new();
        for p in points {
            debug_assert_eq!(p.len(), dim, "point dimension mismatch");
            coords.extend_from_slice(p);
        }
        let runs = CellRuns::sort(&spec, &coords, 0);
        let entries: Vec<CellEntry> = (0..runs.len())
            .map(|ci| {
                let rows = runs
                    .ids(ci)
                    .iter()
                    .map(|&i| &coords[i as usize * dim..(i as usize + 1) * dim]);
                CellEntry::from_points(&spec, runs.coord(ci), rows)
            })
            .collect();
        Self::from_entries(spec, entries)
    }

    /// The grid the dictionary was built over.
    #[inline]
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Number of (non-empty) cells.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of (non-empty) sub-cells across all cells.
    pub fn num_sub_cells(&self) -> usize {
        self.cells.iter().map(|c| c.subs.len()).sum()
    }

    /// Total number of summarised points.
    pub fn total_points(&self) -> u64 {
        self.cells.iter().map(|c| c.count as u64).sum()
    }

    /// All cell entries (index order is stable and used as the cell id
    /// space by the cell graph).
    #[inline]
    pub fn cells(&self) -> &[CellEntry] {
        &self.cells
    }

    /// The entry at dictionary index `i`.
    #[inline]
    pub fn entry(&self, i: u32) -> &CellEntry {
        &self.cells[i as usize]
    }

    /// Dictionary index of a cell coordinate, if the cell is non-empty.
    #[inline]
    pub fn index_of(&self, coord: &CellCoord) -> Option<u32> {
        self.lookup.get(coord).copied()
    }

    /// Looks a cell up by coordinate.
    pub fn get(&self, coord: &CellCoord) -> Option<&CellEntry> {
        self.index_of(coord).map(|i| self.entry(i))
    }

    /// Analytical size in bits per Lemma 4.3:
    /// `32(|cell| + |sub|) + 32·d·|cell| + d(h−1)·|sub|`.
    pub fn size_bits(&self) -> u64 {
        let cells = self.num_cells() as u64;
        let subs = self.num_sub_cells() as u64;
        let d = self.spec.dim() as u64;
        let pos_bits_per_sub = d * (self.spec.h() as u64 - 1);
        32 * (cells + subs) + 32 * d * cells + pos_bits_per_sub * subs
    }

    /// Analytical size in bytes (Lemma 4.3, rounded up).
    pub fn size_bytes(&self) -> u64 {
        self.size_bits().div_ceil(8)
    }

    /// Serialises the dictionary to its broadcast wire format.
    ///
    /// Layout (little-endian): magic `RPD1`, `dim: u32`, `h: u32`,
    /// `eps: f64`, `rho: f64`, `n_cells: u64`, then per cell: `d × i64`
    /// coordinates, `count: u32`, `n_subs: u32`, and per sub-cell its
    /// position packed into `⌈d(h−1)/8⌉` bytes followed by `count: u32`.
    pub fn encode(&self) -> Vec<u8> {
        let sub_pos_bytes = (self.spec.sub_bits() as usize).div_ceil(8);
        let mut buf = Vec::with_capacity(64 + self.num_cells() * 32);
        buf.extend_from_slice(b"RPD1");
        buf.extend_from_slice(&(self.spec.dim() as u32).to_le_bytes());
        buf.extend_from_slice(&self.spec.h().to_le_bytes());
        buf.extend_from_slice(&self.spec.eps().to_le_bytes());
        buf.extend_from_slice(&self.spec.rho().to_le_bytes());
        buf.extend_from_slice(&(self.cells.len() as u64).to_le_bytes());
        for cell in &self.cells {
            for &c in cell.coord.coords() {
                buf.extend_from_slice(&c.to_le_bytes());
            }
            buf.extend_from_slice(&cell.count.to_le_bytes());
            buf.extend_from_slice(&(cell.subs.len() as u32).to_le_bytes());
            for s in &cell.subs {
                let bytes = s.idx.0.to_le_bytes();
                buf.extend_from_slice(&bytes[..sub_pos_bytes]);
                buf.extend_from_slice(&s.count.to_le_bytes());
            }
        }
        buf
    }

    /// The byte length of [`Self::encode`]'s output, computed from the
    /// counts without encoding: a 36-byte header, then per cell
    /// `8·d + 8` bytes and `⌈d(h−1)/8⌉ + 4` per sub-cell.
    pub fn encoded_len(&self) -> usize {
        let sub_pos_bytes = (self.spec.sub_bits() as usize).div_ceil(8);
        let cell_bytes = 8 * self.spec.dim() + 8;
        36 + self.cells.len() * cell_bytes + self.num_sub_cells() * (sub_pos_bytes + 4)
    }

    /// Parses a dictionary previously produced by [`Self::encode`].
    pub fn decode(data: impl AsRef<[u8]>) -> Result<Self, DecodeError> {
        let mut data = Reader(data.as_ref());
        if data.take(4)? != b"RPD1" {
            return Err(DecodeError::BadMagic);
        }
        let dim = data.get_u32_le()? as usize;
        let _h = data.get_u32_le()?;
        let eps = data.get_f64_le()?;
        let rho = data.get_f64_le()?;
        let n_cells = data.get_u64_le()? as usize;
        let spec = GridSpec::new(dim, eps, rho).map_err(|_| DecodeError::BadHeader)?;
        let sub_pos_bytes = (spec.sub_bits() as usize).div_ceil(8);
        // Never trust wire-supplied lengths for allocation: a 20-byte buffer
        // claiming u64::MAX cells must fail with `Truncated`, not abort on an
        // over-sized `Vec`. Each cell needs at least `8·dim + 8` payload
        // bytes, so the remaining buffer bounds every count up front.
        let min_cell_bytes = (dim as u128) * 8 + 8;
        if (n_cells as u128) * min_cell_bytes > data.remaining() as u128 {
            return Err(DecodeError::Truncated);
        }
        let mut cells = Vec::with_capacity(n_cells);
        for _ in 0..n_cells {
            let mut coords = Vec::with_capacity(dim);
            for _ in 0..dim {
                coords.push(data.get_i64_le()?);
            }
            let coord = CellCoord::new(coords);
            let count = data.get_u32_le()?;
            let n_subs = data.get_u32_le()? as usize;
            let min_sub_bytes = (sub_pos_bytes as u128) + 4;
            if (n_subs as u128) * min_sub_bytes > data.remaining() as u128 {
                return Err(DecodeError::Truncated);
            }
            let mut subs = Vec::with_capacity(n_subs);
            let mut sub_total = 0u64;
            for _ in 0..n_subs {
                let mut raw = [0u8; 16];
                raw[..sub_pos_bytes].copy_from_slice(data.take(sub_pos_bytes)?);
                let idx = SubCellIdx(u128::from_le_bytes(raw));
                let c = data.get_u32_le()?;
                sub_total += c as u64;
                subs.push(SubCellEntry { idx, count: c });
            }
            if sub_total != count as u64 {
                return Err(DecodeError::Inconsistent);
            }
            cells.push(CellEntry { coord, count, subs });
        }
        Ok(Self::from_entries(spec, cells))
    }

    /// Inserts a batch of points, updating cell and sub-cell densities in
    /// place. Returns the coordinate of every cell whose counts changed
    /// (each at most once, sorted). New cells are appended, so existing
    /// dictionary indices stay valid across the call.
    pub fn insert_points<'a>(
        &mut self,
        points: impl IntoIterator<Item = &'a [f64]>,
    ) -> Vec<CellCoord> {
        let mut dirty: FxHashSet<CellCoord> = FxHashSet::default();
        for p in points {
            debug_assert_eq!(p.len(), self.spec.dim(), "point dimension mismatch");
            let coord = self.spec.cell_of(p);
            let i = match self.lookup.get(&coord) {
                Some(&i) => i as usize,
                None => {
                    let i = self.cells.len();
                    self.lookup.insert(coord.clone(), i as u32);
                    self.cells.push(CellEntry {
                        coord: coord.clone(),
                        count: 0,
                        subs: Vec::new(),
                    });
                    i
                }
            };
            let sub = self.spec.sub_index_of(&coord, p);
            let cell = &mut self.cells[i];
            cell.count += 1;
            match cell.subs.binary_search_by_key(&sub, |s| s.idx) {
                Ok(j) => cell.subs[j].count += 1,
                Err(j) => cell.subs.insert(j, SubCellEntry { idx: sub, count: 1 }),
            }
            dirty.insert(coord);
        }
        let mut out: Vec<CellCoord> = dirty.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Removes a batch of previously inserted points, decrementing cell and
    /// sub-cell densities. Returns the coordinate of every cell whose counts
    /// changed (each at most once, sorted). Sub-cells reaching density zero
    /// are dropped immediately; cells reaching density zero are kept as
    /// empty entries — so indices stay valid — until [`Self::compact`] runs.
    ///
    /// # Panics
    ///
    /// Panics if a point's cell or sub-cell is not present in the
    /// dictionary: removing a point that was never inserted is a caller
    /// bug, not a recoverable condition.
    pub fn remove_points<'a>(
        &mut self,
        points: impl IntoIterator<Item = &'a [f64]>,
    ) -> Vec<CellCoord> {
        let mut dirty: FxHashSet<CellCoord> = FxHashSet::default();
        for p in points {
            debug_assert_eq!(p.len(), self.spec.dim(), "point dimension mismatch");
            let coord = self.spec.cell_of(p);
            let i = *self
                .lookup
                .get(&coord)
                .unwrap_or_else(|| panic!("remove_points: cell {coord} not in dictionary")) // lint:allow(panic-safety): documented `# Panics` contract — removing a never-inserted point is a caller bug
                as usize;
            let sub = self.spec.sub_index_of(&coord, p);
            let cell = &mut self.cells[i];
            let j = cell
                .subs
                .binary_search_by_key(&sub, |s| s.idx)
                .unwrap_or_else(|_| panic!("remove_points: sub-cell {sub} of {coord} is empty")); // lint:allow(panic-safety): documented `# Panics` contract — removing a never-inserted point is a caller bug
            cell.subs[j].count -= 1;
            if cell.subs[j].count == 0 {
                cell.subs.remove(j);
            }
            assert!(cell.count > 0, "remove_points: cell {coord} already empty");
            cell.count -= 1;
            dirty.insert(coord);
        }
        let mut out: Vec<CellCoord> = dirty.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Drops cells left empty by [`Self::remove_points`] and rebuilds the
    /// coordinate lookup. Invalidates previously obtained dictionary
    /// indices; run it before handing the dictionary to index or graph
    /// construction, which treat every entry as a non-empty cell.
    pub fn compact(&mut self) {
        if self.cells.iter().all(|c| c.count > 0) {
            return;
        }
        self.cells.retain(|c| c.count > 0);
        self.lookup.clear();
        for (i, c) in self.cells.iter().enumerate() {
            self.lookup.insert(c.coord.clone(), i as u32);
        }
    }
}

/// Little-endian slice reader used by [`CellDictionary::decode`].
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    #[inline]
    fn remaining(&self) -> usize {
        self.0.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.0.len() < n {
            return Err(DecodeError::Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    /// Takes exactly `N` bytes as an array; `take` guarantees the length.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let bytes = self.take(N)?;
        let mut buf = [0u8; N];
        buf.copy_from_slice(bytes);
        Ok(buf)
    }

    fn get_u32_le(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    fn get_u64_le(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    fn get_i64_le(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take_array()?))
    }

    fn get_f64_le(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.get_u64_le()?))
    }
}

/// Errors from [`CellDictionary::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended mid-structure.
    Truncated,
    /// The magic prefix was not `RPD1`.
    BadMagic,
    /// Header fields describe an invalid grid.
    BadHeader,
    /// A cell's density disagrees with the sum of its sub-cell densities.
    Inconsistent,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "dictionary buffer truncated"),
            DecodeError::BadMagic => write!(f, "bad dictionary magic"),
            DecodeError::BadHeader => write!(f, "invalid dictionary header"),
            DecodeError::Inconsistent => write!(f, "cell/sub-cell densities disagree"),
        }
    }
}

impl std::error::Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec2d() -> GridSpec {
        GridSpec::new(2, 2.0f64.sqrt(), 0.5).unwrap() // side 1, splits 2
    }

    fn flat(points: &[[f64; 2]]) -> Vec<&[f64]> {
        points.iter().map(|p| p.as_slice()).collect()
    }

    #[test]
    fn build_counts_points_per_cell_and_subcell() {
        let pts = [[0.1, 0.1], [0.2, 0.2], [0.9, 0.9], [1.5, 0.5]];
        let d = CellDictionary::build_from_points(spec2d(), flat(&pts));
        assert_eq!(d.num_cells(), 2);
        assert_eq!(d.total_points(), 4);
        let c00 = d.get(&CellCoord::new([0, 0])).unwrap();
        assert_eq!(c00.count, 3);
        // (0.1,0.1) and (0.2,0.2) share the lower-left sub-cell; (0.9,0.9)
        // sits in the upper-right one.
        assert_eq!(c00.subs.len(), 2);
        assert_eq!(c00.subs.iter().map(|s| s.count).sum::<u32>(), 3);
        let c10 = d.get(&CellCoord::new([1, 0])).unwrap();
        assert_eq!(c10.count, 1);
    }

    #[test]
    fn from_entries_merges_duplicate_cells() {
        let spec = spec2d();
        let coord = CellCoord::new([0, 0]);
        let a = CellEntry::from_points(&spec, coord.clone(), flat(&[[0.1, 0.1]]));
        let b = CellEntry::from_points(&spec, coord.clone(), flat(&[[0.15, 0.15], [0.9, 0.9]]));
        let d = CellDictionary::from_entries(spec, [a, b]);
        assert_eq!(d.num_cells(), 1);
        let e = d.get(&coord).unwrap();
        assert_eq!(e.count, 3);
        assert_eq!(e.subs.iter().map(|s| s.count).sum::<u32>(), 3);
        // subs stay sorted after merge
        assert!(e.subs.windows(2).all(|w| w[0].idx < w[1].idx));
    }

    #[test]
    fn lemma_4_3_size_model() {
        let pts = [[0.1, 0.1], [0.9, 0.9], [1.5, 0.5]];
        let d = CellDictionary::build_from_points(spec2d(), flat(&pts));
        let cells = d.num_cells() as u64; // 2
        let subs = d.num_sub_cells() as u64; // 3
                                             // h = 2, d = 2 -> position bits per sub = 2
        let expect = 32 * (cells + subs) + 32 * 2 * cells + 2 * subs;
        assert_eq!(d.size_bits(), expect);
        assert_eq!(d.size_bytes(), expect.div_ceil(8));
    }

    #[test]
    fn encode_decode_round_trip() {
        let pts = [
            [0.1, 0.1],
            [0.2, 0.7],
            [0.9, 0.9],
            [1.5, 0.5],
            [-3.3, 4.4],
            [100.0, -250.0],
        ];
        let d = CellDictionary::build_from_points(spec2d(), flat(&pts));
        let wire = d.encode();
        let back = CellDictionary::decode(wire).unwrap();
        assert_eq!(back.num_cells(), d.num_cells());
        assert_eq!(back.total_points(), d.total_points());
        for cell in d.cells() {
            let b = back.get(&cell.coord).expect("cell survives round trip");
            assert_eq!(b, cell);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            CellDictionary::decode(b"nope").unwrap_err(),
            DecodeError::BadMagic
        );
        assert_eq!(
            CellDictionary::decode(b"RP").unwrap_err(),
            DecodeError::Truncated
        );
        // valid magic, truncated header
        assert_eq!(
            CellDictionary::decode(b"RPD1\x02\x00").unwrap_err(),
            DecodeError::Truncated
        );
    }

    #[test]
    fn wire_size_tracks_analytical_size() {
        // The wire format carries an O(1) header and i64 coords instead of
        // f32 positions, so it is within a small constant factor of the
        // Lemma 4.3 figure — broadcast-cost accounting relies on this.
        let mut pts = Vec::new();
        for i in 0..50 {
            for j in 0..50 {
                pts.push([i as f64 * 0.11, j as f64 * 0.13]);
            }
        }
        let refs: Vec<&[f64]> = pts.iter().map(|p| p.as_slice()).collect();
        let d = CellDictionary::build_from_points(spec2d(), refs);
        let wire_bits = d.encode().len() as u64 * 8;
        let model_bits = d.size_bits();
        assert!(wire_bits >= model_bits / 2);
        assert!(wire_bits <= model_bits * 4);
    }

    #[test]
    fn encoded_len_matches_encoding() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for dim in [1, 2, 3, 5, 13] {
            for rho in [1.0, 0.5, 0.1, 0.01] {
                let spec = GridSpec::new(dim, 1.3, rho).unwrap();
                let empty = CellDictionary::build_from_points(spec.clone(), std::iter::empty());
                assert_eq!(empty.encoded_len(), empty.encode().len());
                let pts: Vec<Vec<f64>> = (0..200)
                    .map(|_| (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect())
                    .collect();
                let d = CellDictionary::build_from_points(spec, pts.iter().map(|p| p.as_slice()));
                assert_eq!(d.encoded_len(), d.encode().len(), "dim {dim} rho {rho}");
            }
        }
    }

    #[test]
    fn empty_dictionary() {
        let d = CellDictionary::build_from_points(spec2d(), std::iter::empty());
        assert_eq!(d.num_cells(), 0);
        assert_eq!(d.total_points(), 0);
        let back = CellDictionary::decode(d.encode()).unwrap();
        assert_eq!(back.num_cells(), 0);
    }

    #[test]
    fn insert_points_matches_batch_build() {
        let pts = [[0.1, 0.1], [0.2, 0.7], [0.9, 0.9], [1.5, 0.5], [-3.3, 4.4]];
        let batch = CellDictionary::build_from_points(spec2d(), flat(&pts));
        let mut inc = CellDictionary::build_from_points(spec2d(), std::iter::empty());
        // First three points all land in cell (0,0).
        let dirty = inc.insert_points(flat(&pts[..3]));
        assert_eq!(dirty, vec![CellCoord::new([0, 0])]);
        let dirty = inc.insert_points(flat(&pts[3..]));
        assert_eq!(dirty.len(), 2);
        assert_eq!(inc.total_points(), batch.total_points());
        assert_eq!(inc.num_cells(), batch.num_cells());
        for cell in batch.cells() {
            assert_eq!(inc.get(&cell.coord).unwrap(), cell);
        }
        // Sub-cell lists stay sorted through incremental insertion.
        for cell in inc.cells() {
            assert!(cell.subs.windows(2).all(|w| w[0].idx < w[1].idx));
        }
    }

    #[test]
    fn remove_points_reverses_insert_and_compact_drops_empties() {
        let pts = [[0.1, 0.1], [0.2, 0.7], [0.9, 0.9], [1.5, 0.5]];
        let mut d = CellDictionary::build_from_points(spec2d(), flat(&pts));
        let dirty = d.remove_points(flat(&[[1.5, 0.5]]));
        assert_eq!(dirty, vec![CellCoord::new([1, 0])]);
        // The emptied cell survives (indices stable) until compact.
        assert_eq!(d.num_cells(), 2);
        assert_eq!(d.get(&CellCoord::new([1, 0])).unwrap().count, 0);
        assert_eq!(d.total_points(), 3);
        d.compact();
        assert_eq!(d.num_cells(), 1);
        assert!(d.get(&CellCoord::new([1, 0])).is_none());
        // Remaining cell equals a fresh build over the remaining points.
        let fresh = CellDictionary::build_from_points(spec2d(), flat(&pts[..3]));
        assert_eq!(
            d.get(&CellCoord::new([0, 0])),
            fresh.get(&CellCoord::new([0, 0]))
        );
        // Lookup indices are consistent after compaction.
        let i = d.index_of(&CellCoord::new([0, 0])).unwrap();
        assert_eq!(d.entry(i).coord, CellCoord::new([0, 0]));
    }

    #[test]
    #[should_panic(expected = "remove_points")]
    fn remove_unknown_point_panics() {
        let mut d = CellDictionary::build_from_points(spec2d(), flat(&[[0.1, 0.1]]));
        d.remove_points(flat(&[[9.0, 9.0]]));
    }

    #[test]
    fn decode_rejects_every_truncation() {
        // Fuzz-style: every strict prefix of a valid wire image must fail
        // cleanly — no panic, no over-allocation, always `Err`.
        let pts = [[0.1, 0.1], [0.2, 0.7], [0.9, 0.9], [1.5, 0.5], [-3.3, 4.4]];
        let wire = CellDictionary::build_from_points(spec2d(), flat(&pts)).encode();
        for len in 0..wire.len() {
            let err =
                CellDictionary::decode(&wire[..len]).expect_err("prefix decodes successfully");
            assert!(
                matches!(err, DecodeError::Truncated | DecodeError::BadMagic),
                "prefix len {len}: unexpected error {err:?}"
            );
        }
        assert!(CellDictionary::decode(&wire).is_ok());
    }

    #[test]
    fn decode_rejects_huge_claimed_counts_without_allocating() {
        // Header claims u64::MAX cells in a 20-byte payload: must be
        // `Truncated` before any proportional allocation happens.
        let mut wire = Vec::new();
        wire.extend_from_slice(b"RPD1");
        wire.extend_from_slice(&2u32.to_le_bytes()); // dim
        wire.extend_from_slice(&2u32.to_le_bytes()); // h
        wire.extend_from_slice(&1.0f64.to_le_bytes()); // eps
        wire.extend_from_slice(&0.5f64.to_le_bytes()); // rho
        wire.extend_from_slice(&u64::MAX.to_le_bytes()); // n_cells
        wire.extend_from_slice(&[0u8; 20]);
        assert_eq!(
            CellDictionary::decode(&wire).unwrap_err(),
            DecodeError::Truncated
        );

        // rho = 1 gives h = 1 and zero sub-cell bits, so an absurd
        // dimension passes grid validation — the byte budget must still
        // reject it before the per-cell coordinate allocation.
        let mut wire = Vec::new();
        wire.extend_from_slice(b"RPD1");
        wire.extend_from_slice(&u32::MAX.to_le_bytes()); // dim = 4 294 967 295
        wire.extend_from_slice(&1u32.to_le_bytes()); // h
        wire.extend_from_slice(&1.0f64.to_le_bytes()); // eps
        wire.extend_from_slice(&1.0f64.to_le_bytes()); // rho
        wire.extend_from_slice(&1u64.to_le_bytes()); // n_cells
        wire.extend_from_slice(&[0u8; 64]);
        assert_eq!(
            CellDictionary::decode(&wire).unwrap_err(),
            DecodeError::Truncated
        );

        // A plausible cell that claims u32::MAX sub-cells it cannot carry.
        let mut wire = Vec::new();
        wire.extend_from_slice(b"RPD1");
        wire.extend_from_slice(&2u32.to_le_bytes());
        wire.extend_from_slice(&2u32.to_le_bytes());
        wire.extend_from_slice(&1.0f64.to_le_bytes());
        wire.extend_from_slice(&0.5f64.to_le_bytes());
        wire.extend_from_slice(&1u64.to_le_bytes());
        wire.extend_from_slice(&0i64.to_le_bytes()); // coord x
        wire.extend_from_slice(&0i64.to_le_bytes()); // coord y
        wire.extend_from_slice(&7u32.to_le_bytes()); // count
        wire.extend_from_slice(&u32::MAX.to_le_bytes()); // n_subs
        wire.extend_from_slice(&[0u8; 32]);
        assert_eq!(
            CellDictionary::decode(&wire).unwrap_err(),
            DecodeError::Truncated
        );
    }

    #[test]
    fn decode_rejects_corrupt_headers() {
        let base = CellDictionary::build_from_points(spec2d(), flat(&[[0.1, 0.1]])).encode();
        // dim = 0
        let mut w = base.clone();
        w[4..8].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            CellDictionary::decode(&w).unwrap_err(),
            DecodeError::BadHeader
        );
        // eps = NaN
        let mut w = base.clone();
        w[12..20].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(
            CellDictionary::decode(&w).unwrap_err(),
            DecodeError::BadHeader
        );
        // rho = 0
        let mut w = base.clone();
        w[20..28].copy_from_slice(&0.0f64.to_le_bytes());
        assert_eq!(
            CellDictionary::decode(&w).unwrap_err(),
            DecodeError::BadHeader
        );
        // dimension mismatch: header says d = 3 over a d = 2 payload
        let mut w = base;
        w[4..8].copy_from_slice(&3u32.to_le_bytes());
        assert!(CellDictionary::decode(&w).is_err());
    }

    #[test]
    fn decode_rejects_count_subcell_disagreement() {
        let mut wire =
            CellDictionary::build_from_points(spec2d(), flat(&[[0.1, 0.1], [0.9, 0.9]])).encode();
        // Header: 4 magic + 4 dim + 4 h + 8 eps + 8 rho + 8 n_cells = 36.
        // First cell: 2 × i64 coords (16), then count: u32 at offset 52.
        wire[52..56].copy_from_slice(&17u32.to_le_bytes());
        assert_eq!(
            CellDictionary::decode(&wire).unwrap_err(),
            DecodeError::Inconsistent
        );
    }

    #[test]
    fn decode_never_panics_on_single_byte_corruption() {
        let pts = [[0.1, 0.1], [0.2, 0.7], [0.9, 0.9], [1.5, 0.5]];
        let wire = CellDictionary::build_from_points(spec2d(), flat(&pts)).encode();
        for i in 0..wire.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut w = wire.clone();
                w[i] ^= flip;
                // Ok or Err are both acceptable — panicking or aborting is not.
                let _ = CellDictionary::decode(&w);
            }
        }
    }

    #[test]
    fn high_dimensional_subcell_positions_survive_encoding() {
        // d = 13, rho = 0.01 -> 91-bit packed positions exercise the
        // bit-packing path beyond 64 bits.
        let spec = GridSpec::new(13, 1000.0, 0.01).unwrap();
        let p1: Vec<f64> = (0..13).map(|i| i as f64 * 3.0).collect();
        let p2: Vec<f64> = (0..13).map(|i| i as f64 * 3.0 + 250.0).collect();
        let d = CellDictionary::build_from_points(spec, [p1.as_slice(), p2.as_slice()]);
        let back = CellDictionary::decode(d.encode()).unwrap();
        for cell in d.cells() {
            assert_eq!(back.get(&cell.coord).unwrap(), cell);
        }
    }
}

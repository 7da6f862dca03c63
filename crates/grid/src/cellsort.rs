//! The cell sort: the one kernel that groups points by cell.
//!
//! Phase I-1 of the batch driver, the dictionary's point build and the
//! column store's ingest all need the same thing: points grouped by cell
//! (Algorithm 2's `emit(cid, p)` and aggregation by cell id), cells in
//! coordinate order and ids ascending inside a cell. [`CellRuns::sort`]
//! computes every point's lattice coordinate into one flat `i64` buffer,
//! with no per-point [`CellCoord`], argsorts the rows by
//! `(lattice row, id)` (a stable radix sort of the rows) and keeps the
//! runs of equal rows: one lattice row and one id run per cell, the
//! *directory*. That is the order the store
//! writes its rows in, so a resident and a paged run list the same cells
//! and ids in the same order.
//!
//! The parallel form is a sample sort. Each point range is sorted on its
//! own; [`CellRuns::splitters`] samples cell boundaries from those sorted
//! runs; [`CellRuns::merge`] merges one key range of every run; and
//! [`CellRuns::concat`] joins the merged buckets, which gives exactly one
//! sort of all the points.

use crate::cell::CellCoord;
use crate::spec::GridSpec;

/// Points grouped by cell, cells in coordinate order, ids ascending
/// inside a cell: the directory of one cell sort.
///
/// Flat: `dim` lattice values per cell, CSR offsets into one id array.
/// [`Self::len`] counts cells; a cell's *directory index* is its rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRuns {
    dim: usize,
    /// Lattice coordinate per cell, `dim` values each, ascending.
    lattice: Vec<i64>,
    /// Offsets into `ids` per cell (`len = cells + 1`).
    starts: Vec<u32>,
    /// Point ids, cell after cell, ascending within a cell.
    ids: Vec<u32>,
}

/// Samples per bucket the splitters take from every sorted run.
const OVERSAMPLE: usize = 8;

impl CellRuns {
    /// No points, no cells.
    fn empty(dim: usize) -> Self {
        Self {
            dim,
            lattice: Vec::new(),
            starts: vec![0],
            ids: Vec::new(),
        }
    }

    /// Groups the rows of `coords` (row-major, `spec.dim()` values per
    /// row) by cell. Row `i` has id `first_id + i`.
    ///
    /// # Panics
    ///
    /// Panics when the ids overflow `u32` (point ids are 32-bit).
    pub fn sort(spec: &GridSpec, coords: &[f64], first_id: u32) -> Self {
        let dim = spec.dim();
        debug_assert_eq!(coords.len() % dim, 0, "ragged row buffer");
        let n = coords.len() / dim;
        assert!(
            u32::try_from(n).is_ok_and(|n| first_id.checked_add(n).is_some()),
            "{n} rows from id {first_id} overflow 32-bit point ids"
        );
        let mut rows = Vec::with_capacity(n * dim);
        lattice_rows(spec, coords, &mut rows);
        let mut order: Vec<u32> = (0..n as u32).collect();
        argsort_rows(&rows, dim, &mut order);
        let mut out = Self::empty(dim);
        out.ids.reserve(n);
        out.collect_runs(&rows, &order, |i, ids| ids.push(first_id + i));
        out
    }

    /// Appends the cells of `order`, indices of `rows` sorted by row:
    /// each run of equal rows is one cell, and `ids_of(i, ids)` appends
    /// the ids of row `i`.
    // lint:hot
    fn collect_runs(
        &mut self,
        rows: &[i64],
        order: &[u32],
        mut ids_of: impl FnMut(u32, &mut Vec<u32>),
    ) {
        let dim = self.dim;
        let row = |i: u32| &rows[i as usize * dim..(i as usize + 1) * dim];
        let mut prev: Option<&[i64]> = None;
        for &i in order {
            let r = row(i);
            if prev != Some(r) {
                if prev.is_some() {
                    self.starts.push(self.ids.len() as u32);
                }
                self.lattice.extend_from_slice(r);
                prev = Some(r);
            }
            ids_of(i, &mut self.ids);
        }
        if prev.is_some() {
            self.starts.push(self.ids.len() as u32);
        }
    }

    /// Number of cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// True when there is no cell (and so no point).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The lattice coordinate of cell `ci`.
    #[inline]
    pub fn lattice(&self, ci: usize) -> &[i64] {
        &self.lattice[ci * self.dim..(ci + 1) * self.dim]
    }

    /// Cell `ci`'s lattice coordinate as a [`CellCoord`] (allocates).
    pub fn coord(&self, ci: usize) -> CellCoord {
        CellCoord::new(self.lattice(ci).iter().copied())
    }

    /// The positions of cell `ci`'s ids in [`Self::all_ids`].
    #[inline]
    pub fn rows(&self, ci: usize) -> std::ops::Range<usize> {
        self.starts[ci] as usize..self.starts[ci + 1] as usize
    }

    /// Cell `ci`'s point ids, ascending.
    #[inline]
    pub fn ids(&self, ci: usize) -> &[u32] {
        &self.ids[self.rows(ci)]
    }

    /// Every id in directory order: cell after cell, ascending inside a
    /// cell (the column store's row order).
    #[inline]
    pub fn all_ids(&self) -> &[u32] {
        &self.ids
    }

    /// Up to `buckets − 1` distinct cell coordinates, ascending and flat
    /// (`dim` values each), that cut the cells of `runs` into key ranges
    /// of similar size: [`OVERSAMPLE`] per bucket sampled evenly from
    /// every run, sorted, then every `1/buckets`-th sample. Bucket `j` of
    /// [`Self::merge`] takes the cells from splitter `j − 1` (inclusive)
    /// to splitter `j` (exclusive), so a cell never straddles two
    /// buckets. Fewer distinct samples than buckets give fewer
    /// splitters; no cell gives none.
    pub fn splitters(runs: &[CellRuns], buckets: usize) -> Vec<i64> {
        let per_run = buckets.saturating_mul(OVERSAMPLE);
        let mut samples: Vec<&[i64]> = Vec::new();
        for run in runs {
            let n = run.len();
            let k = n.min(per_run);
            samples.extend((0..k).map(|s| run.lattice(s * n / k)));
        }
        samples.sort_unstable();
        samples.dedup();
        let mut out: Vec<i64> = Vec::new();
        let mut last: Option<&[i64]> = None;
        for j in 1..buckets {
            let Some(&s) = samples.get(j * samples.len() / buckets) else {
                break;
            };
            if last != Some(s) {
                out.extend_from_slice(s);
                last = Some(s);
            }
        }
        out
    }

    /// Merges bucket `bucket` of `runs` under `splitters` (from
    /// [`Self::splitters`]): every cell of every run whose coordinate lies
    /// in the bucket's key range, with each cell's ids from all runs.
    ///
    /// The runs must hold disjoint id ranges in ascending order (every id
    /// of `runs[r]` below every id of `runs[r + 1]`), as the sorts of
    /// consecutive point ranges do. The bucket's run cells are gathered
    /// in run order and sorted by coordinate with the same stable radix
    /// sort as [`Self::sort`], so a cell's pieces stay in run order and
    /// its ids come out ascending. (A cell-at-a-time `k`-way merge of the
    /// runs took twice as long on a 3-d set of two points per cell.)
    pub fn merge(dim: usize, runs: &[CellRuns], splitters: &[i64], bucket: usize) -> Self {
        debug_assert!(runs.iter().all(|r| r.dim == dim), "mixed dimensions");
        debug_assert!(
            runs.windows(2).all(|w| {
                let below = w[0].ids.iter().max();
                below.is_none() || w[1].ids.iter().all(|id| Some(id) > below)
            }),
            "runs' id ranges overlap or descend"
        );
        let key = |j: usize| &splitters[j * dim..(j + 1) * dim];
        let lo = bucket.checked_sub(1).map(key);
        let hi = (bucket < splitters.len() / dim).then(|| key(bucket));
        // Every run's cells in the bucket's key range, in run order: their
        // rows, and (run, cell) per row.
        let mut rows = Vec::new();
        let mut from: Vec<(u32, u32)> = Vec::new();
        let mut points = 0;
        for (r, run) in runs.iter().enumerate() {
            let first = |bound: Option<&[i64]>, none: usize| {
                bound.map_or(none, |b| partition_point(run, |l| l < b))
            };
            let (at, end) = (first(lo, 0), first(hi, run.len()));
            rows.extend_from_slice(&run.lattice[at * dim..end * dim]);
            from.extend((at..end).map(|c| (r as u32, c as u32)));
            points += (run.starts[end] - run.starts[at]) as usize;
        }
        let mut order: Vec<u32> = (0..from.len() as u32).collect();
        argsort_rows(&rows, dim, &mut order);
        let mut out = Self::empty(dim);
        out.ids.reserve(points);
        out.collect_runs(&rows, &order, |i, ids| {
            let (r, c) = from[i as usize];
            ids.extend_from_slice(runs[r as usize].ids(c as usize));
        });
        out
    }

    /// Joins `parts`, whose cells must ascend across the parts (the
    /// buckets of [`Self::merge`], in bucket order), into one directory.
    pub fn concat(dim: usize, parts: Vec<CellRuns>) -> Self {
        let mut out = Self::empty(dim);
        out.lattice
            .reserve(parts.iter().map(|p| p.lattice.len()).sum());
        out.starts.reserve(parts.iter().map(CellRuns::len).sum());
        out.ids.reserve(parts.iter().map(|p| p.ids.len()).sum());
        for part in parts {
            debug_assert_eq!(part.dim, dim, "mixed dimensions");
            debug_assert!(
                out.is_empty() || part.is_empty() || out.lattice(out.len() - 1) < part.lattice(0),
                "parts out of order"
            );
            let base = out.ids.len() as u32;
            out.lattice.extend_from_slice(&part.lattice);
            out.starts
                .extend(part.starts[1..].iter().map(|&s| base + s));
            out.ids.extend_from_slice(&part.ids);
        }
        out
    }
}

/// The first cell of `run` where `pred` on its coordinate turns false
/// (`pred` holds on a prefix of the cells).
fn partition_point(run: &CellRuns, pred: impl Fn(&[i64]) -> bool) -> usize {
    let (mut a, mut b) = (0, run.len());
    while a < b {
        let mid = a + (b - a) / 2;
        if pred(run.lattice(mid)) {
            a = mid + 1;
        } else {
            b = mid;
        }
    }
    a
}

/// Appends the lattice row of every point of `coords` to `rows`.
// lint:hot
fn lattice_rows(spec: &GridSpec, coords: &[f64], rows: &mut Vec<i64>) {
    for p in coords.chunks_exact(spec.dim()) {
        spec.lattice_into(p, rows);
    }
}

/// Sorts `order` (row indices, ascending on entry) by lattice row,
/// stably, so equal rows keep index order: the `(row, index)` order.
///
/// An LSD radix sort over one digit per byte of each coordinate's offset
/// from its dimension's minimum, last dimension first, low byte first.
/// Bytes above an offset's span are never read, and a digit every row
/// shares moves nothing, so a 2-d range of 12.5k rows takes about four
/// scatter passes: 0.3 ms where a comparison argsort of the flat rows
/// took 1.9 ms on the 2-core host of EXPERIMENTS.md.
pub(crate) fn argsort_rows(rows: &[i64], dim: usize, order: &mut Vec<u32>) {
    let n = order.len();
    if n <= 1 {
        return;
    }
    let mut lo = vec![i64::MAX; dim];
    let mut hi = vec![i64::MIN; dim];
    bounds(rows, &mut lo, &mut hi);
    // Digits per dimension, and each dimension's first histogram.
    let mut first = Vec::with_capacity(dim + 1);
    first.push(0);
    for (&l, &h) in lo.iter().zip(&hi) {
        let span = h.wrapping_sub(l) as u64;
        let digits = (u64::BITS - span.leading_zeros()).div_ceil(8) as usize;
        first.push(first[first.len() - 1] + digits);
    }
    let mut counts = vec![0u32; first[dim] * 256];
    histograms(rows, &lo, &first, &mut counts);
    let mut tmp = vec![0u32; n];
    for d in (0..dim).rev() {
        for digit in first[d]..first[d + 1] {
            let count = &mut counts[digit * 256..(digit + 1) * 256];
            if count.iter().any(|&c| c as usize == n) {
                continue;
            }
            let mut sum = 0;
            for c in count.iter_mut() {
                (*c, sum) = (sum, sum + *c);
            }
            let shift = 8 * (digit - first[d]) as u32;
            scatter(rows, dim, d, lo[d], shift, count, order, &mut tmp);
            std::mem::swap(order, &mut tmp);
        }
    }
}

/// Per-dimension minimum and maximum of the rows.
// lint:hot
fn bounds(rows: &[i64], lo: &mut [i64], hi: &mut [i64]) {
    for r in rows.chunks_exact(lo.len()) {
        for ((l, h), &v) in lo.iter_mut().zip(hi.iter_mut()).zip(r) {
            *l = (*l).min(v);
            *h = (*h).max(v);
        }
    }
}

/// One 256-bucket histogram per digit, in a single pass over the rows:
/// dimension `d`'s digits are `first[d]..first[d + 1]`.
// lint:hot
fn histograms(rows: &[i64], lo: &[i64], first: &[usize], counts: &mut [u32]) {
    for r in rows.chunks_exact(lo.len()) {
        for (d, (&v, &l)) in r.iter().zip(lo).enumerate() {
            let offset = v.wrapping_sub(l) as u64;
            for (k, digit) in (first[d]..first[d + 1]).enumerate() {
                counts[digit * 256 + ((offset >> (8 * k)) & 0xff) as usize] += 1;
            }
        }
    }
}

/// One stable counting pass: moves `order` into `out` by the byte at
/// `shift` of dimension `d`'s offset, `start` holding each bucket's
/// first slot.
// lint:hot
#[allow(clippy::too_many_arguments)]
fn scatter(
    rows: &[i64],
    dim: usize,
    d: usize,
    lo: i64,
    shift: u32,
    start: &mut [u32],
    order: &[u32],
    out: &mut [u32],
) {
    for &i in order {
        let offset = rows[i as usize * dim + d].wrapping_sub(lo) as u64;
        let slot = &mut start[((offset >> shift) & 0xff) as usize];
        out[*slot as usize] = i;
        *slot += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_groups_by_cell_then_id() {
        let spec = GridSpec::new(1, 1.0, 0.5).unwrap();
        let runs = CellRuns::sort(&spec, &[5.0, 0.5, 5.1, 0.2, -0.5], 10);
        assert_eq!(runs.len(), 3);
        assert_eq!(runs.all_ids().len(), 5);
        assert_eq!(runs.lattice(0), &[-1]);
        assert_eq!(runs.ids(0), &[14]);
        assert_eq!(runs.ids(1), &[11, 13]);
        assert_eq!(runs.ids(2), &[10, 12]);
        assert_eq!(runs.all_ids(), &[14, 11, 13, 10, 12]);
        assert_eq!(runs.rows(2), 3..5);
        assert_eq!(runs.coord(2), CellCoord::new([5]));
    }

    #[test]
    fn empty_sort_and_merge() {
        let spec = GridSpec::new(3, 1.0, 0.5).unwrap();
        let runs = CellRuns::sort(&spec, &[], 0);
        assert!(runs.is_empty());
        assert_eq!(runs, CellRuns::empty(3));
        let all = [runs.clone(), runs];
        let spl = CellRuns::splitters(&all, 4);
        assert!(spl.is_empty());
        assert_eq!(CellRuns::merge(3, &all, &spl, 0), CellRuns::empty(3));
        assert_eq!(CellRuns::concat(3, Vec::new()), CellRuns::empty(3));
    }
}

//! Grid geometry: cells and sub-cells.
//!
//! Definition 3.1 fixes a cell as a `d`-dimensional hypercube whose
//! *diagonal* is ε, so its side is `ε/√d`: any two points sharing a cell
//! are within ε of each other, which is what makes one core point promote
//! its whole cell (Figure 3a).
//!
//! Definition 4.1 splits each cell into `2^{d(h−1)}` sub-cells, where
//! `h = 1 + ⌈log₂(1/ρ)⌉`; a sub-cell's diagonal is `ε/2^{h−1} ≤ ρ·ε`, which
//! is exactly the bound Lemma 5.2 needs for the `(ε,ρ)`-query sandwich.

use crate::cell::{CellCoord, SubCellIdx};
use crate::GridError;
use rpdbscan_geom::Aabb;
/// Immutable description of the grid induced by `(d, ε, ρ)`.
///
/// ```
/// use rpdbscan_grid::GridSpec;
///
/// let spec = GridSpec::new(2, 1.0, 0.01).unwrap();
/// // Cell diagonal is exactly eps, so the side is eps/sqrt(d).
/// assert!((spec.side() - 1.0 / 2f64.sqrt()).abs() < 1e-12);
/// // rho = 0.01 needs h = 8 approximation levels (Definition 4.1).
/// assert_eq!(spec.h(), 8);
/// let cell = spec.cell_of(&[3.2, -1.7]);
/// assert!(spec.cell_aabb(&cell).contains(&[3.2, -1.7]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    dim: usize,
    eps: f64,
    rho: f64,
    /// Side length of a cell: `ε/√d` (diagonal = ε).
    side: f64,
    /// Approximation level `h = 1 + ⌈log₂(1/ρ)⌉` (Definition 4.1).
    h: u32,
    /// Sub-cell subdivisions per dimension: `2^{h−1}`.
    splits: u32,
    /// Side length of a sub-cell: `side / splits`.
    sub_side: f64,
}

impl GridSpec {
    /// Creates a grid for `dim`-dimensional data with DBSCAN radius `eps`
    /// and approximation parameter `rho ∈ (0, 1]`.
    pub fn new(dim: usize, eps: f64, rho: f64) -> Result<Self, GridError> {
        if dim == 0 {
            return Err(GridError::ZeroDimension);
        }
        if !eps.is_finite() || eps <= 0.0 {
            return Err(GridError::NonPositiveEps(eps));
        }
        if !(rho > 0.0 && rho <= 1.0) {
            return Err(GridError::InvalidRho(rho));
        }
        let h = 1 + (1.0 / rho).log2().ceil() as u32;
        let bits = dim as u32 * (h - 1);
        if bits > 128 {
            return Err(GridError::SubCellBitsOverflow { required: bits });
        }
        let side = eps / (dim as f64).sqrt();
        let splits = 1u32 << (h - 1);
        Ok(Self {
            dim,
            eps,
            rho,
            side,
            h,
            splits,
            sub_side: side / splits as f64,
        })
    }

    /// Data dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The neighbourhood radius ε.
    #[inline]
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The approximation parameter ρ.
    #[inline]
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Cell side length (`ε/√d`).
    #[inline]
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Cell diagonal length — always exactly ε by construction.
    #[inline]
    pub fn cell_diag(&self) -> f64 {
        self.eps
    }

    /// The approximation level `h` of Definition 4.1.
    #[inline]
    pub fn h(&self) -> u32 {
        self.h
    }

    /// Sub-cell subdivisions per dimension (`2^{h−1}`).
    #[inline]
    pub fn splits_per_dim(&self) -> u32 {
        self.splits
    }

    /// Sub-cell side length.
    #[inline]
    pub fn sub_side(&self) -> f64 {
        self.sub_side
    }

    /// Number of position bits per sub-cell (`d(h−1)`, Lemma 4.3).
    #[inline]
    pub fn sub_bits(&self) -> u32 {
        self.dim as u32 * (self.h - 1)
    }

    /// Number of sub-cells per cell (`2^{d(h−1)}`); saturates at
    /// `u128::MAX` for extreme configurations.
    pub fn sub_cells_per_cell(&self) -> u128 {
        1u128.checked_shl(self.sub_bits()).unwrap_or(u128::MAX)
    }

    /// The candidate-window reach `b = 1 + ⌈√d⌉`: two cells whose boxes
    /// lie within ε of each other differ by at most `b` lattice steps in
    /// every dimension (`(|δ|−1)·side ≤ ε` gives `|δ| ≤ 1 + √d`).
    #[inline]
    pub fn window_reach(&self) -> i64 {
        1 + (self.dim as f64).sqrt().ceil() as i64
    }

    /// Lattice coordinate of the cell containing `p`.
    pub fn cell_of(&self, p: &[f64]) -> CellCoord {
        debug_assert_eq!(p.len(), self.dim);
        CellCoord::new(p.iter().map(|v| (v / self.side).floor() as i64))
    }

    /// Minimum corner of a cell.
    pub fn cell_origin(&self, c: &CellCoord) -> Vec<f64> {
        c.coords().iter().map(|&i| i as f64 * self.side).collect()
    }

    /// Centre point of a cell.
    pub fn cell_center(&self, c: &CellCoord) -> Vec<f64> {
        c.coords()
            .iter()
            .map(|&i| (i as f64 + 0.5) * self.side)
            .collect()
    }

    /// Axis-aligned box of a cell.
    pub fn cell_aabb(&self, c: &CellCoord) -> Aabb {
        let min = self.cell_origin(c);
        let max: Vec<f64> = min.iter().map(|v| v + self.side).collect();
        Aabb::new(min, max)
    }

    /// Local sub-cell index of `p` within its cell `c` — `(h−1)` bits per
    /// dimension, dimension 0 in the least significant bits.
    pub fn sub_index_of(&self, c: &CellCoord, p: &[f64]) -> SubCellIdx {
        debug_assert_eq!(p.len(), self.dim);
        let bits = (self.h - 1) as u128; // bits per dimension (as shift width)
        let mut idx: u128 = 0;
        for (i, (&coord, &v)) in c.coords().iter().zip(p.iter()).enumerate() {
            let origin = coord as f64 * self.side;
            let mut local = ((v - origin) / self.sub_side).floor() as i64;
            // Floating-point boundary safety: points exactly on the upper
            // face (or off by one ulp) clamp into the cell.
            local = local.clamp(0, (self.splits - 1) as i64);
            idx |= (local as u128) << (i as u128 * bits);
        }
        SubCellIdx(idx)
    }

    /// Centre point of sub-cell `sub` of cell `c` — the approximated
    /// position `q̂` of Definition 5.1.
    pub fn sub_center(&self, c: &CellCoord, sub: SubCellIdx) -> Vec<f64> {
        let mut out = vec![0.0; self.dim];
        self.sub_center_into(c, sub, &mut out);
        out
    }

    /// Allocation-free form of [`Self::sub_center`] for query hot loops.
    #[inline]
    pub fn sub_center_into(&self, c: &CellCoord, sub: SubCellIdx, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.dim);
        let bits = self.h - 1;
        let mask: u128 = if bits == 0 { 0 } else { (1u128 << bits) - 1 };
        for (i, (&coord, o)) in c.coords().iter().zip(out.iter_mut()).enumerate() {
            let local = ((sub.0 >> (i as u32 * bits)) & mask) as f64;
            *o = coord as f64 * self.side + (local + 0.5) * self.sub_side;
        }
    }

    /// Squared distance from `p` to the nearest and farthest points of
    /// cell `c`'s box, computed without materialising the box. The pair
    /// drives the fully/partially-contained split of the region query.
    #[inline]
    pub fn cell_dist2_bounds(&self, c: &CellCoord, p: &[f64]) -> (f64, f64) {
        debug_assert_eq!(p.len(), self.dim);
        let mut min_acc = 0.0;
        let mut max_acc = 0.0;
        for (&coord, &v) in c.coords().iter().zip(p.iter()) {
            let lo = coord as f64 * self.side;
            let hi = lo + self.side;
            let dmin = if v < lo {
                lo - v
            } else if v > hi {
                v - hi
            } else {
                0.0
            };
            let dmax = (v - lo).abs().max((v - hi).abs());
            min_acc += dmin * dmin;
            max_acc += dmax * dmax;
        }
        (min_acc, max_acc)
    }

    /// Squared minimum distance between the boxes of two cells. Zero for
    /// identical or face/edge/corner-adjacent cells; otherwise the summed
    /// squared per-dimension gaps. Used by the streaming subsystem to bound
    /// which cells an update can affect: a cell whose box is farther than ε
    /// from every changed cell cannot change core status or edges.
    #[inline]
    pub fn cell_min_dist2(&self, a: &CellCoord, b: &CellCoord) -> f64 {
        debug_assert_eq!(a.dim(), b.dim());
        let mut acc = 0.0;
        for (&x, &y) in a.coords().iter().zip(b.coords().iter()) {
            let gap = (x as i128 - y as i128).abs() - 1;
            if gap > 0 {
                let g = gap as f64 * self.side;
                acc += g * g;
            }
        }
        acc
    }

    /// Whether cell `b`'s box may lie within ε of cell `a`'s box: the
    /// ε-window test of serving's classify candidates and the stream's
    /// dirty region. The bound carries [`crate::PLAN_SLACK`], so rounding
    /// can never drop a cell on the boundary; a cell kept by the slack
    /// alone costs a test, never a result.
    #[inline]
    pub fn in_eps_window(&self, a: &CellCoord, b: &CellCoord) -> bool {
        self.cell_min_dist2(a, b) <= self.eps * self.eps * (1.0 + crate::PLAN_SLACK)
    }

    /// Squared distance bounds between the boxes of two cells:
    /// `(min², max²)` over all point pairs `(p, q)` with `p` in `a`'s box
    /// and `q` in `b`'s box.
    ///
    /// This is the cell-to-cell generalisation of
    /// [`Self::cell_dist2_bounds`], and it deliberately mirrors that
    /// method's arithmetic (`lo = coord·side`, `hi = lo + side`, absolute
    /// differences, squares summed per dimension) so the query planner can
    /// classify candidate cells consistently with the per-point bounds the
    /// unplanned query computes: for every `p` in `a`'s box,
    /// `min² ≤ cell_dist2_bounds(b, p).0` and
    /// `cell_dist2_bounds(b, p).1 ≤ max²` up to f64 rounding (the planner
    /// adds a relative slack before acting on either bound).
    #[inline]
    pub fn cell_box_dist2_bounds(&self, a: &CellCoord, b: &CellCoord) -> (f64, f64) {
        debug_assert_eq!(a.dim(), b.dim());
        let side = self.side;
        box_box_dist2_bounds(
            a.coords().iter().map(|&x| x as f64 * side),
            b.coords().iter().map(|&y| y as f64 * side),
            side,
        )
    }

    /// Decomposes a packed sub-cell index into per-dimension locals.
    pub fn sub_locals(&self, sub: SubCellIdx) -> Vec<u32> {
        let bits = self.h - 1;
        let mask: u128 = if bits == 0 { 0 } else { (1u128 << bits) - 1 };
        (0..self.dim)
            .map(|i| ((sub.0 >> (i as u32 * bits)) & mask) as u32)
            .collect()
    }
}

/// [`GridSpec::cell_box_dist2_bounds`] over the two boxes' minimum
/// corners, so callers holding origins (the query planner reads them from
/// the index layout) share its arithmetic.
#[inline]
pub(crate) fn box_box_dist2_bounds(
    alo: impl IntoIterator<Item = f64>,
    blo: impl IntoIterator<Item = f64>,
    side: f64,
) -> (f64, f64) {
    let mut min_acc = 0.0;
    let mut max_acc = 0.0;
    for (alo, blo) in alo.into_iter().zip(blo) {
        let (ahi, bhi) = (alo + side, blo + side);
        let dmin = if ahi < blo {
            blo - ahi
        } else if bhi < alo {
            alo - bhi
        } else {
            0.0
        };
        let dmax = (ahi - blo).max(bhi - alo);
        min_acc += dmin * dmin;
        max_acc += dmax * dmax;
    }
    (min_acc, max_acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpdbscan_geom::dist;

    #[test]
    fn h_matches_definition_4_1() {
        // rho = 0.01 -> h = 1 + ceil(log2(100)) = 1 + 7 = 8
        assert_eq!(GridSpec::new(2, 1.0, 0.01).unwrap().h(), 8);
        // rho = 0.05 -> ceil(log2(20)) = 5 -> h = 6
        assert_eq!(GridSpec::new(2, 1.0, 0.05).unwrap().h(), 6);
        // rho = 0.10 -> ceil(log2(10)) = 4 -> h = 5
        assert_eq!(GridSpec::new(2, 1.0, 0.10).unwrap().h(), 5);
        // rho = 1 -> h = 1: sub-cell == cell
        assert_eq!(GridSpec::new(2, 1.0, 1.0).unwrap().h(), 1);
        // rho = 0.5 -> h = 2 as in the paper's running figures
        assert_eq!(GridSpec::new(2, 1.0, 0.5).unwrap().h(), 2);
    }

    #[test]
    fn cell_diagonal_is_eps() {
        for d in [1usize, 2, 3, 5, 13] {
            let g = GridSpec::new(d, 2.0, 0.5).unwrap();
            let diag = (g.side() * g.side() * d as f64).sqrt();
            assert!((diag - 2.0).abs() < 1e-12, "d={d}");
        }
    }

    #[test]
    fn sub_cell_diagonal_at_most_rho_eps() {
        // Lemma 5.2 requires diag(sub-cell) <= rho * eps.
        for rho in [0.01, 0.05, 0.1, 0.3, 0.77, 1.0] {
            let g = GridSpec::new(3, 1.5, rho).unwrap();
            let sub_diag = g.sub_side() * (3f64).sqrt();
            assert!(
                sub_diag <= rho * 1.5 + 1e-12,
                "rho={rho}: sub diag {sub_diag}"
            );
        }
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(GridSpec::new(0, 1.0, 0.5).is_err());
        assert!(GridSpec::new(2, 0.0, 0.5).is_err());
        assert!(GridSpec::new(2, -1.0, 0.5).is_err());
        assert!(GridSpec::new(2, f64::NAN, 0.5).is_err());
        assert!(GridSpec::new(2, 1.0, 0.0).is_err());
        assert!(GridSpec::new(2, 1.0, 1.5).is_err());
        // d=20, rho=0.01 -> 20*7 = 140 bits > 128
        assert!(matches!(
            GridSpec::new(20, 1.0, 0.01),
            Err(GridError::SubCellBitsOverflow { required: 140 })
        ));
    }

    #[test]
    fn teraclick_dimensionality_fits() {
        // d=13, rho=0.01 -> 91 bits: the paper's largest configuration.
        let g = GridSpec::new(13, 1500.0, 0.01).unwrap();
        assert_eq!(g.sub_bits(), 91);
    }

    #[test]
    fn cell_of_floor_semantics() {
        let g = GridSpec::new(2, 2.0f64.sqrt(), 0.5).unwrap(); // side = 1.0
        assert!((g.side() - 1.0).abs() < 1e-12);
        assert_eq!(g.cell_of(&[0.5, 0.5]).coords(), &[0, 0]);
        assert_eq!(g.cell_of(&[-0.5, 1.5]).coords(), &[-1, 1]);
        assert_eq!(g.cell_of(&[3.0, -3.0]).coords(), &[3, -3]);
    }

    #[test]
    fn cell_aabb_contains_its_points() {
        let g = GridSpec::new(3, 1.0, 0.1).unwrap();
        let p = [0.123, -4.56, 7.89];
        let c = g.cell_of(&p);
        assert!(g.cell_aabb(&c).contains(&p));
    }

    #[test]
    fn sub_index_round_trips_through_center() {
        let g = GridSpec::new(2, 2.0f64.sqrt(), 0.25).unwrap(); // h=3, splits=4
        assert_eq!(g.splits_per_dim(), 4);
        let p = [0.30, 0.80];
        let c = g.cell_of(&p);
        let sub = g.sub_index_of(&c, &p);
        let center = g.sub_center(&c, sub);
        // The point must lie within half a sub-cell diagonal of the centre.
        let max_err = g.sub_side() * (2f64).sqrt() / 2.0;
        assert!(dist(&p, &center) <= max_err + 1e-12);
        // And the centre must itself fall back into the same sub-cell.
        assert_eq!(g.sub_index_of(&c, &center), sub);
    }

    #[test]
    fn sub_index_clamps_boundary_points() {
        let g = GridSpec::new(1, 1.0, 0.5).unwrap(); // splits = 2, side = 1
        let c = CellCoord::new([0]);
        // exactly on the upper cell face
        let sub = g.sub_index_of(&c, &[1.0]);
        assert!(sub.0 < 2);
    }

    #[test]
    fn sub_locals_decompose() {
        let g = GridSpec::new(3, 3f64.sqrt(), 0.25).unwrap(); // side=1, splits=4
        let c = CellCoord::new([0, 0, 0]);
        let p = [0.1, 0.6, 0.9]; // locals 0, 2, 3
        let sub = g.sub_index_of(&c, &p);
        assert_eq!(g.sub_locals(sub), vec![0, 2, 3]);
    }

    #[test]
    fn cell_min_dist2_matches_box_geometry() {
        let g = GridSpec::new(2, 2.0f64.sqrt(), 0.5).unwrap(); // side = 1
        let origin = CellCoord::new([0, 0]);
        // Same cell and all eight surrounding cells touch: distance 0.
        for dx in -1..=1 {
            for dy in -1..=1 {
                assert_eq!(g.cell_min_dist2(&origin, &CellCoord::new([dx, dy])), 0.0);
            }
        }
        // One empty cell of gap along x: distance = side = 1.
        assert_eq!(g.cell_min_dist2(&origin, &CellCoord::new([2, 0])), 1.0);
        // Diagonal gap of one cell in each axis.
        assert_eq!(g.cell_min_dist2(&origin, &CellCoord::new([2, -2])), 2.0);
        // Symmetry.
        let a = CellCoord::new([-3, 7]);
        let b = CellCoord::new([4, 4]);
        assert_eq!(g.cell_min_dist2(&a, &b), g.cell_min_dist2(&b, &a));
        // Agrees with the point-to-box bound evaluated at the nearest
        // corner of the other cell.
        let d2 = g.cell_min_dist2(&origin, &CellCoord::new([3, 5]));
        let (near, _) = g.cell_dist2_bounds(&CellCoord::new([3, 5]), &[1.0, 1.0]);
        assert!((d2 - near).abs() < 1e-12);
    }

    #[test]
    fn rho_one_single_subcell() {
        let g = GridSpec::new(2, 1.0, 1.0).unwrap();
        let c = CellCoord::new([0, 0]);
        let s1 = g.sub_index_of(&c, &[0.1, 0.1]);
        let s2 = g.sub_index_of(&c, &[0.6, 0.2]);
        assert_eq!(s1, s2);
        assert_eq!(g.sub_center(&c, s1), g.cell_center(&c));
    }

    #[test]
    fn negative_coordinates_subcells_stay_local() {
        let g = GridSpec::new(2, 2.0f64.sqrt(), 0.25).unwrap();
        let p = [-0.3, -1.7];
        let c = g.cell_of(&p);
        let sub = g.sub_index_of(&c, &p);
        let center = g.sub_center(&c, sub);
        assert!(g.cell_aabb(&c).contains(&center));
        let max_err = g.sub_side() * (2f64).sqrt() / 2.0;
        assert!(dist(&p, &center) <= max_err + 1e-12);
    }
}

//! Cell addressing types.

/// Integer lattice coordinate of a cell (one `i64` per dimension).
///
/// Boxed slice rather than `Vec` to keep the in-memory footprint at two
/// words; coordinates are immutable once computed.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellCoord(Box<[i64]>);

impl CellCoord {
    /// Builds a coordinate from per-dimension lattice indices.
    pub fn new(coords: impl IntoIterator<Item = i64>) -> Self {
        Self(coords.into_iter().collect())
    }

    /// The lattice indices.
    #[inline]
    pub fn coords(&self) -> &[i64] {
        &self.0
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.0.len()
    }
}

/// Visits every lattice point of the inclusive box `[lo, hi]` exactly
/// once, in lexicographic order: dimension 0 is the outermost digit and
/// the last dimension varies fastest, so the points come out in
/// [`CellCoord`] order. Visits nothing when some `lo[i] > hi[i]`.
pub fn for_each_in_box(lo: &[i64], hi: &[i64], mut visit: impl FnMut(&[i64])) {
    debug_assert_eq!(lo.len(), hi.len());
    if lo.iter().zip(hi).any(|(l, h)| l > h) {
        return;
    }
    let mut cur = lo.to_vec();
    loop {
        visit(&cur);
        let mut d = cur.len();
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            if cur[d] < hi[d] {
                cur[d] += 1;
                break;
            }
            cur[d] = lo[d];
        }
    }
}

impl std::fmt::Display for CellCoord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

/// Packed local index of a sub-cell within its cell: `(h−1)` bits per
/// dimension (Lemma 4.3's `d(h−1)`-bit position), dimension 0 in the least
/// significant bits. 128 bits accommodates the paper's largest
/// configuration (d = 13, ρ = 0.01 → 91 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubCellIdx(pub u128);

impl std::fmt::Display for SubCellIdx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sc{:x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_equality_and_hash() {
        use std::collections::HashSet;
        let a = CellCoord::new([1, 2, 3]);
        let b = CellCoord::new([1, 2, 3]);
        let c = CellCoord::new([3, 2, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut s = HashSet::new();
        s.insert(a.clone());
        assert!(s.contains(&b));
        assert!(!s.contains(&c));
    }

    #[test]
    fn display_forms() {
        assert_eq!(CellCoord::new([1, -2]).to_string(), "(1,-2)");
        assert_eq!(SubCellIdx(255).to_string(), "scff");
    }

    fn box_points(lo: &[i64], hi: &[i64]) -> Vec<Vec<i64>> {
        let mut out = Vec::new();
        for_each_in_box(lo, hi, |p| out.push(p.to_vec()));
        out
    }

    #[test]
    fn box_walk_visits_every_point_once_in_coordinate_order() {
        let (lo, hi) = ([-1i64, 0, 2], [1i64, 3, 3]);
        let points = box_points(&lo, &hi);
        assert_eq!(points.len(), 3 * 4 * 2);
        // Strictly increasing lexicographically: each point once, in
        // `CellCoord` order (dimension 0 outermost).
        for w in points.windows(2) {
            assert!(w[0] < w[1], "{:?} then {:?}", w[0], w[1]);
        }
        assert_eq!(points[0], lo.to_vec());
        assert_eq!(points[points.len() - 1], hi.to_vec());
        assert_eq!(points[1], vec![-1, 0, 3], "last dimension varies fastest");
        for p in &points {
            for i in 0..3 {
                assert!((lo[i]..=hi[i]).contains(&p[i]), "{p:?}");
            }
        }
    }

    #[test]
    fn box_walk_degenerate_and_one_dimensional_boxes() {
        assert_eq!(box_points(&[4, -2], &[4, -2]), vec![vec![4, -2]]);
        assert_eq!(
            box_points(&[-2], &[1]),
            vec![vec![-2], vec![-1], vec![0], vec![1]]
        );
        assert!(box_points(&[0, 1], &[3, 0]).is_empty());
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(CellCoord::new([0, 5]) < CellCoord::new([1, 0]));
        assert!(CellCoord::new([1, 0]) < CellCoord::new([1, 1]));
    }
}

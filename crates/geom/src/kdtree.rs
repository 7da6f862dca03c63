//! A static kd-tree with radius (range) queries.
//!
//! Two consumers in the workspace:
//!
//! * `rpdbscan-grid` indexes the *cell centres* of each sub-dictionary so an
//!   `(ε,ρ)`-region query touches `O(log |cell|)` cells (Lemma 5.6 uses an
//!   R*-tree/kd-tree for the same purpose);
//! * `rpdbscan-baselines` exact DBSCAN uses it as its neighbourhood index
//!   for data sets whose dimensionality makes direct grid enumeration
//!   wasteful.
//!
//! The tree is built once over a frozen point set (median splits, bulk
//! loading) and answers queries through a visitor callback so hot paths
//! avoid intermediate allocations.

use crate::distance::dist2;

const LEAF_SIZE: usize = 16;

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        start: u32,
        end: u32,
    },
    Internal {
        axis: u16,
        split: f64,
        /// Index of the right child; the left child is always `self + 1`
        /// (pre-order layout), so only one link is stored.
        right: u32,
    },
}

/// A static kd-tree over `n` points of dimension `d`, carrying a `u32`
/// payload per point (typically a point id or a cell index).
#[derive(Debug, Clone)]
pub struct KdTree {
    dim: usize,
    /// Point coordinates, permuted during construction (SoA row-major).
    coords: Vec<f64>,
    /// Payload for each (permuted) point.
    payload: Vec<u32>,
    nodes: Vec<Node>,
}

impl KdTree {
    /// Builds a tree from a flat coordinate buffer and parallel payload
    /// array. `coords.len() == payload.len() * dim`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths disagree or `dim == 0`.
    pub fn build(dim: usize, mut coords: Vec<f64>, mut payload: Vec<u32>) -> Self {
        assert!(dim > 0, "kd-tree dimension must be positive");
        assert_eq!(coords.len(), payload.len() * dim, "buffer length mismatch");
        let n = payload.len();
        let mut nodes = Vec::new();
        if n > 0 {
            // An index permutation is sorted recursively, then applied once.
            let mut idx: Vec<u32> = (0..n as u32).collect();
            build_rec(dim, &coords, &mut idx, 0, n, &mut nodes);
            let mut new_coords = vec![0.0; coords.len()];
            let mut new_payload = vec![0u32; n];
            for (pos, &orig) in idx.iter().enumerate() {
                let o = orig as usize;
                new_coords[pos * dim..(pos + 1) * dim]
                    .copy_from_slice(&coords[o * dim..(o + 1) * dim]);
                new_payload[pos] = payload[o];
            }
            coords = new_coords;
            payload = new_payload;
        }
        Self {
            dim,
            coords,
            payload,
            nodes,
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// `true` when the tree indexes nothing.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    #[inline]
    fn pt(&self, i: usize) -> &[f64] {
        &self.coords[i * self.dim..(i + 1) * self.dim]
    }

    /// Visits every indexed point within `radius` of `q` (inclusive).
    ///
    /// The visitor receives `(payload, squared_distance)`.
    pub fn for_each_within<F: FnMut(u32, f64)>(&self, q: &[f64], radius: f64, mut f: F) {
        debug_assert_eq!(q.len(), self.dim);
        if self.nodes.is_empty() {
            return;
        }
        let r2 = radius * radius;
        // Explicit stack of (node index, accumulated squared distance of q
        // to the node's region along split planes crossed so far).
        let mut stack: Vec<(u32, f64)> = vec![(0, 0.0)];
        while let Some((ni, acc)) = stack.pop() {
            if acc > r2 {
                continue;
            }
            match &self.nodes[ni as usize] {
                Node::Leaf { start, end } => {
                    for i in *start as usize..*end as usize {
                        let d2 = dist2(q, self.pt(i));
                        if d2 <= r2 {
                            f(self.payload[i], d2);
                        }
                    }
                }
                Node::Internal { axis, split, right } => {
                    let a = *axis as usize;
                    let diff = q[a] - *split;
                    let (near, far) = if diff <= 0.0 {
                        (ni + 1, *right)
                    } else {
                        (*right, ni + 1)
                    };
                    // Crossing into the far side costs at least diff² along
                    // this axis; the accumulated lower bound stays valid
                    // because planes on distinct axes contribute
                    // independently, and we take the max per axis via the
                    // monotone accumulation below being conservative.
                    let far_acc = acc.max(diff * diff);
                    stack.push((far, far_acc));
                    stack.push((near, acc));
                }
            }
        }
    }

    /// Visits every indexed point within `radius` of the axis-aligned box
    /// `[lo, hi]` (inclusive): points whose squared distance to the box
    /// ([`crate::Aabb::min_dist2`] semantics) is at most `radius²`.
    ///
    /// The visitor receives `(payload, squared_distance_to_box)`. This is
    /// the build-time candidate search of the grid crate's cell query
    /// planner: one box query from a cell's AABB replaces one point query
    /// per member point (any point of the box is within `radius` of a
    /// reported candidate whenever it is within `radius − diam(box)` of
    /// it, so the result is a superset of every per-point search).
    ///
    /// `stack` is the traversal's scratch, cleared first, so a caller
    /// that keeps one across searches allocates nothing in steady state.
    pub fn for_each_near_box<F: FnMut(u32, f64)>(
        &self,
        lo: &[f64],
        hi: &[f64],
        radius: f64,
        stack: &mut Vec<(u32, f64)>,
        mut f: F,
    ) {
        debug_assert_eq!(lo.len(), self.dim);
        debug_assert_eq!(hi.len(), self.dim);
        if self.nodes.is_empty() {
            return;
        }
        let r2 = radius * radius;
        // Same traversal shape as `for_each_within`, with the query point
        // generalised to an interval per axis: crossing a split plane costs
        // the gap between the plane and the nearer interval endpoint.
        stack.clear();
        stack.push((0, 0.0));
        while let Some((ni, acc)) = stack.pop() {
            if acc > r2 {
                continue;
            }
            match &self.nodes[ni as usize] {
                Node::Leaf { start, end } => {
                    for i in *start as usize..*end as usize {
                        let p = self.pt(i);
                        let mut d2 = 0.0;
                        for a in 0..self.dim {
                            let d = if p[a] < lo[a] {
                                lo[a] - p[a]
                            } else if p[a] > hi[a] {
                                p[a] - hi[a]
                            } else {
                                0.0
                            };
                            d2 += d * d;
                        }
                        if d2 <= r2 {
                            f(self.payload[i], d2);
                        }
                    }
                }
                Node::Internal { axis, split, right } => {
                    let a = *axis as usize;
                    // Entering the left half-space costs nothing unless the
                    // whole interval sits right of the plane, and vice versa.
                    let dl = if lo[a] > *split { lo[a] - *split } else { 0.0 };
                    let dr = if hi[a] < *split { *split - hi[a] } else { 0.0 };
                    stack.push((*right, acc.max(dr * dr)));
                    stack.push((ni + 1, acc.max(dl * dl)));
                }
            }
        }
    }

    /// Collects payloads within `radius` of `q`.
    pub fn within(&self, q: &[f64], radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_within(q, radius, |p, _| out.push(p));
        out
    }

    /// The `k` nearest indexed points to `q`, as `(payload, d²)` pairs
    /// sorted ascending by `(d², payload)`.
    ///
    /// Ties at the `k`-th distance resolve by payload, so the result is a
    /// pure function of the indexed point set — independent of tree
    /// layout or traversal order. Returns fewer than `k` pairs only when
    /// the tree indexes fewer than `k` points. The query point is *not*
    /// excluded: a caller indexing its own points asks for `k + 1` and
    /// drops itself. This is the neighbour search of the mutual-kNN
    /// density backend (`rpdbscan-density`).
    pub fn nearest_k(&self, q: &[f64], k: usize) -> Vec<(u32, f64)> {
        debug_assert_eq!(q.len(), self.dim);
        if k == 0 || self.nodes.is_empty() {
            return Vec::new();
        }
        // Max-heap of the current best k, worst candidate on top; a new
        // point displaces the top when lexicographically smaller by
        // (d², payload), which is exactly the final sort order.
        let mut heap: std::collections::BinaryHeap<KnnCand> = std::collections::BinaryHeap::new();
        let mut stack: Vec<(u32, f64)> = vec![(0, 0.0)];
        while let Some((ni, acc)) = stack.pop() {
            // Prune only on strict excess: a subtree at exactly the worst
            // distance may still hold a tied point with smaller payload.
            if heap.len() == k && acc > heap.peek().map(|c| c.d2).unwrap_or(f64::INFINITY) {
                continue;
            }
            match &self.nodes[ni as usize] {
                Node::Leaf { start, end } => {
                    for i in *start as usize..*end as usize {
                        let cand = KnnCand {
                            d2: dist2(q, self.pt(i)),
                            payload: self.payload[i],
                        };
                        if heap.len() < k {
                            heap.push(cand);
                        } else if let Some(worst) = heap.peek() {
                            if cand < *worst {
                                heap.pop();
                                heap.push(cand);
                            }
                        }
                    }
                }
                Node::Internal { axis, split, right } => {
                    let a = *axis as usize;
                    let diff = q[a] - *split;
                    let (near, far) = if diff <= 0.0 {
                        (ni + 1, *right)
                    } else {
                        (*right, ni + 1)
                    };
                    // Far side first so the near side is explored first
                    // (LIFO), tightening the heap before the far bound
                    // check fires.
                    stack.push((far, acc.max(diff * diff)));
                    stack.push((near, acc));
                }
            }
        }
        let mut out: Vec<(u32, f64)> = heap.into_iter().map(|c| (c.payload, c.d2)).collect();
        out.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Counts points within `radius` of `q`, stopping early once `limit`
    /// is reached (used for `|N_ε(p)| ≥ minPts` tests where the exact count
    /// past the threshold is irrelevant).
    pub fn count_within_at_least(&self, q: &[f64], radius: f64, limit: usize) -> bool {
        let mut n = 0usize;
        // No early-exit hook in the visitor; emulate with a cheap check.
        // The tree prunes well enough that this stays fast, and correctness
        // is what matters for the baseline.
        self.for_each_within(q, radius, |_, _| n += 1);
        n >= limit
    }
}

/// A kNN candidate ordered lexicographically by `(d², payload)` under
/// `f64::total_cmp`, so heap displacement and the final sort agree and
/// the result is traversal-order-independent.
#[derive(Debug, Clone, Copy)]
struct KnnCand {
    d2: f64,
    payload: u32,
}

impl PartialEq for KnnCand {
    fn eq(&self, other: &Self) -> bool {
        matches!(self.cmp(other), std::cmp::Ordering::Equal)
    }
}
impl Eq for KnnCand {}
impl PartialOrd for KnnCand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for KnnCand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.d2
            .total_cmp(&other.d2)
            .then(self.payload.cmp(&other.payload))
    }
}

fn build_rec(
    dim: usize,
    coords: &[f64],
    idx: &mut [u32],
    lo: usize,
    hi: usize,
    nodes: &mut Vec<Node>,
) {
    let n = hi - lo;
    if n <= LEAF_SIZE {
        nodes.push(Node::Leaf {
            start: lo as u32,
            end: hi as u32,
        });
        return;
    }
    // Pick the axis with the widest spread over this slice.
    let mut best_axis = 0usize;
    let mut best_spread = f64::NEG_INFINITY;
    for a in 0..dim {
        let mut mn = f64::INFINITY;
        let mut mx = f64::NEG_INFINITY;
        for &i in &idx[lo..hi] {
            let v = coords[i as usize * dim + a];
            mn = mn.min(v);
            mx = mx.max(v);
        }
        let spread = mx - mn;
        if spread > best_spread {
            best_spread = spread;
            best_axis = a;
        }
    }
    let mid = lo + n / 2;
    let slice = &mut idx[lo..hi];
    slice.select_nth_unstable_by(n / 2, |&a, &b| {
        let va = coords[a as usize * dim + best_axis];
        let vb = coords[b as usize * dim + best_axis];
        va.total_cmp(&vb)
    });
    let split = coords[idx[mid] as usize * dim + best_axis];

    let me = nodes.len();
    nodes.push(Node::Internal {
        axis: best_axis as u16,
        split,
        right: 0, // patched below
    });
    build_rec(dim, coords, idx, lo, mid, nodes);
    let right_pos = nodes.len() as u32;
    if let Node::Internal { right, .. } = &mut nodes[me] {
        *right = right_pos;
    }
    build_rec(dim, coords, idx, mid, hi, nodes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn brute_within(dim: usize, coords: &[f64], q: &[f64], r: f64) -> Vec<u32> {
        let mut out: Vec<u32> = (0..coords.len() / dim)
            .filter(|&i| dist2(q, &coords[i * dim..(i + 1) * dim]) <= r * r)
            .map(|i| i as u32)
            .collect();
        out.sort_unstable();
        out
    }

    fn random_coords(rng: &mut StdRng, n: usize, dim: usize) -> Vec<f64> {
        (0..n * dim).map(|_| rng.gen_range(-10.0..10.0)).collect()
    }

    #[test]
    fn empty_tree_queries_cleanly() {
        let t = KdTree::build(3, vec![], vec![]);
        assert!(t.is_empty());
        assert!(t.within(&[0.0, 0.0, 0.0], 5.0).is_empty());
    }

    #[test]
    fn single_point() {
        let t = KdTree::build(2, vec![1.0, 2.0], vec![7]);
        assert_eq!(t.within(&[1.0, 2.0], 0.0), vec![7]);
        assert_eq!(t.within(&[5.0, 5.0], 1.0), Vec::<u32>::new());
    }

    #[test]
    fn matches_brute_force_2d() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 500;
        let coords = random_coords(&mut rng, n, 2);
        let t = KdTree::build(2, coords.clone(), (0..n as u32).collect());
        for _ in 0..50 {
            let q = [rng.gen_range(-12.0..12.0), rng.gen_range(-12.0..12.0)];
            let r = rng.gen_range(0.0..6.0);
            let mut got = t.within(&q, r);
            got.sort_unstable();
            assert_eq!(got, brute_within(2, &coords, &q, r));
        }
    }

    #[test]
    fn matches_brute_force_5d() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 400;
        let coords = random_coords(&mut rng, n, 5);
        let t = KdTree::build(5, coords.clone(), (0..n as u32).collect());
        for _ in 0..25 {
            let q: Vec<f64> = (0..5).map(|_| rng.gen_range(-12.0..12.0)).collect();
            let r = rng.gen_range(0.5..8.0);
            let mut got = t.within(&q, r);
            got.sort_unstable();
            assert_eq!(got, brute_within(5, &coords, &q, r));
        }
    }

    #[test]
    fn duplicate_points_all_reported() {
        let coords = vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let t = KdTree::build(2, coords, vec![0, 1, 2]);
        let mut got = t.within(&[1.0, 1.0], 0.1);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn radius_is_inclusive() {
        let t = KdTree::build(1, vec![0.0, 3.0], vec![0, 1]);
        let got = t.within(&[0.0], 3.0);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn count_within_at_least() {
        let coords: Vec<f64> = (0..100).map(|i| i as f64 * 0.01).collect();
        let t = KdTree::build(1, coords, (0..100).collect());
        assert!(t.count_within_at_least(&[0.5], 0.2, 30));
        assert!(!t.count_within_at_least(&[0.5], 0.01, 30));
    }

    #[test]
    fn payloads_are_preserved() {
        // Payloads unrelated to positions must come back untouched.
        let coords = vec![0.0, 10.0, 20.0, 30.0];
        let t = KdTree::build(1, coords, vec![100, 200, 300, 400]);
        let got = t.within(&[20.0], 0.5);
        assert_eq!(got, vec![300]);
    }

    #[test]
    fn box_query_matches_brute_force() {
        use crate::bbox::Aabb;
        let mut rng = StdRng::seed_from_u64(21);
        for dim in [1usize, 2, 3, 4] {
            let n = 400;
            let coords = random_coords(&mut rng, n, dim);
            let t = KdTree::build(dim, coords.clone(), (0..n as u32).collect());
            for _ in 0..25 {
                let lo: Vec<f64> = (0..dim).map(|_| rng.gen_range(-11.0..9.0)).collect();
                let hi: Vec<f64> = lo.iter().map(|v| v + rng.gen_range(0.0..4.0)).collect();
                let r = rng.gen_range(0.0..5.0);
                let bb = Aabb::new(lo.clone(), hi.clone());
                let mut expected: Vec<u32> = (0..n)
                    .filter(|&i| bb.min_dist2(&coords[i * dim..(i + 1) * dim]) <= r * r)
                    .map(|i| i as u32)
                    .collect();
                expected.sort_unstable();
                let mut got = Vec::new();
                t.for_each_near_box(&lo, &hi, r, &mut Vec::new(), |p, d2| {
                    assert!(d2 <= r * r + 1e-12);
                    got.push(p);
                });
                got.sort_unstable();
                assert_eq!(got, expected, "dim={dim} r={r}");
            }
        }
    }

    #[test]
    fn degenerate_box_equals_point_query() {
        let mut rng = StdRng::seed_from_u64(33);
        let n = 300;
        let coords = random_coords(&mut rng, n, 3);
        let t = KdTree::build(3, coords.clone(), (0..n as u32).collect());
        for _ in 0..20 {
            let q: Vec<f64> = (0..3).map(|_| rng.gen_range(-12.0..12.0)).collect();
            let r = rng.gen_range(0.0..6.0);
            let mut a = t.within(&q, r);
            a.sort_unstable();
            let mut b = Vec::new();
            t.for_each_near_box(&q, &q, r, &mut Vec::new(), |p, _| b.push(p));
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn box_query_on_empty_tree() {
        let t = KdTree::build(2, vec![], vec![]);
        t.for_each_near_box(&[0.0, 0.0], &[1.0, 1.0], 5.0, &mut Vec::new(), |_, _| {
            panic!("empty tree reported a point")
        });
    }

    fn brute_nearest_k(dim: usize, coords: &[f64], q: &[f64], k: usize) -> Vec<(u32, f64)> {
        let mut all: Vec<(u32, f64)> = (0..coords.len() / dim)
            .map(|i| (i as u32, dist2(q, &coords[i * dim..(i + 1) * dim])))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    #[test]
    fn nearest_k_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(5);
        for dim in [1usize, 2, 3, 7] {
            let n = 300;
            let coords = random_coords(&mut rng, n, dim);
            let t = KdTree::build(dim, coords.clone(), (0..n as u32).collect());
            for _ in 0..20 {
                let q: Vec<f64> = (0..dim).map(|_| rng.gen_range(-12.0..12.0)).collect();
                for k in [1usize, 4, 17, n, n + 5] {
                    let got = t.nearest_k(&q, k);
                    assert_eq!(got, brute_nearest_k(dim, &coords, &q, k), "dim={dim} k={k}");
                }
            }
        }
    }

    #[test]
    fn nearest_k_ties_resolve_by_payload() {
        // Four coincident points: any k of them is "correct", the
        // contract picks the smallest payloads.
        let coords = vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let t = KdTree::build(2, coords, vec![9, 3, 7, 1]);
        let got: Vec<u32> = t.nearest_k(&[1.0, 1.0], 2).iter().map(|p| p.0).collect();
        assert_eq!(got, vec![1, 3]);
    }

    #[test]
    fn nearest_k_edge_cases() {
        let empty = KdTree::build(2, vec![], vec![]);
        assert!(empty.nearest_k(&[0.0, 0.0], 3).is_empty());
        let one = KdTree::build(1, vec![2.0], vec![7]);
        assert!(one.nearest_k(&[0.0], 0).is_empty());
        assert_eq!(one.nearest_k(&[0.0], 5), vec![(7, 4.0)]);
    }

    #[test]
    fn large_tree_no_false_negatives_near_splits() {
        // Clustered data stresses split-plane pruning.
        let mut rng = StdRng::seed_from_u64(99);
        let mut coords = Vec::new();
        for c in 0..10 {
            let cx = c as f64 * 2.0;
            for _ in 0..100 {
                coords.push(cx + rng.gen_range(-0.01..0.01));
                coords.push(rng.gen_range(-0.01..0.01));
            }
        }
        let n = coords.len() / 2;
        let t = KdTree::build(2, coords.clone(), (0..n as u32).collect());
        for c in 0..10 {
            let q = [c as f64 * 2.0, 0.0];
            let got = t.within(&q, 0.1);
            assert_eq!(got.len(), 100, "cluster {c} incomplete");
        }
    }
}

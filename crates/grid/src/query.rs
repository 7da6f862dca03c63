//! The `(ε,ρ)`-region query (Definition 5.1).
//!
//! Given a query point `p`, the query finds every *sub-cell* whose centre
//! `q̂` satisfies `dist(p, q̂) ≤ ε`, returning densities rather than points.
//! Processing follows §5 exactly:
//!
//! 1. sub-dictionaries whose MBR fails the Lemma 5.10 test are skipped;
//! 2. within a fragment, candidate cells are found by a kd-tree radius
//!    search over cell centres (radius `ε + diag/2`);
//! 3. a candidate cell *fully contained* in the query ball contributes all
//!    of its sub-cells without individual checks; a *partially contained*
//!    cell contributes only sub-cells whose centre passes the distance
//!    test.

use crate::subdict::DictionaryIndex;
use rpdbscan_geom::kernel;

/// Instrumentation counters for one region query — used by the anatomy
/// benches (§7.6) to demonstrate the effect of defragmentation and MBR
/// skipping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Sub-dictionaries skipped by the Lemma 5.10 MBR rule.
    pub subdicts_skipped: u32,
    /// Sub-dictionaries whose kd-tree was searched.
    pub subdicts_visited: u32,
    /// Candidate cells returned by kd-tree searches.
    pub cells_candidate: u32,
    /// Candidate cells fully contained in the query ball.
    pub cells_full: u32,
    /// Candidate cells contributing at least one sub-cell after per-centre
    /// checks.
    pub cells_partial: u32,
    /// Sub-cells reported to the visitor.
    pub subcells_reported: u32,
    /// Query plans built (cell-level planner; one per planned cell).
    pub plans_built: u32,
    /// Queries answered through a memoized [`crate::plan::CellQueryPlan`].
    pub plan_hits: u32,
    /// Cells answered from a plan's precomputed *always-qualifying*
    /// sub-cells without any per-point distance test (subset of
    /// `cells_partial`).
    pub cells_planned_full: u32,
    /// Occupied cells answered through a memoized plan. Phase II builds
    /// no plan, so it leaves this zero.
    pub cells_routed_planned: u32,
    /// Occupied cells answered without a plan. In Phase II, every cell:
    /// answered from its ε-window ([`crate::CellWindow`]), which the
    /// per-point counters above do not cover, or under the oracle routing
    /// by one per-point query per point.
    pub cells_routed_kd: u32,
}

impl QueryStats {
    /// Accumulates another query's counters.
    pub fn merge(&mut self, other: &QueryStats) {
        self.subdicts_skipped += other.subdicts_skipped;
        self.subdicts_visited += other.subdicts_visited;
        self.cells_candidate += other.cells_candidate;
        self.cells_full += other.cells_full;
        self.cells_partial += other.cells_partial;
        self.subcells_reported += other.subcells_reported;
        self.plans_built += other.plans_built;
        self.plan_hits += other.plan_hits;
        self.cells_planned_full += other.cells_planned_full;
        self.cells_routed_planned += other.cells_routed_planned;
        self.cells_routed_kd += other.cells_routed_kd;
    }
}

/// Aggregated result of a region query at the cell level: the neighbour
/// cells (dictionary indices) and the total neighbour density.
#[derive(Debug, Clone, Default)]
pub struct RegionQueryResult {
    /// Cells contributing at least one `(ε,ρ)`-neighbour sub-cell, i.e.
    /// the cells fully or partially directly reachable from the query
    /// point's cell (Algorithm 3, Line 13).
    pub neighbor_cells: Vec<u32>,
    /// Σ densities of qualifying sub-cells — the `num` of Algorithm 3,
    /// Line 8, compared against `minPts`.
    pub density: u64,
    /// Query counters.
    pub stats: QueryStats,
}

/// Squared distance bounds `(min², max²)` from `p` to the cell box with
/// minimum corner `lo` and side `side`. Bit-identical to
/// [`crate::GridSpec::cell_dist2_bounds`] when `lo` holds the same
/// `coord as f64 · side` origins: the same per-dimension values, squared
/// and summed in dimension order.
// lint:hot
#[inline]
pub(crate) fn box_dist2_bounds(lo: &[f64], side: f64, p: &[f64]) -> (f64, f64) {
    debug_assert_eq!(lo.len(), p.len());
    let mut min_acc = 0.0;
    let mut max_acc = 0.0;
    for (&l, &v) in lo.iter().zip(p.iter()) {
        let hi = l + side;
        // Branch-free selection of the same values the branchy
        // `cell_dist2_bounds` arms produce: `l - v` when the point is
        // left of the box, `v - hi` right of it, else 0.
        let dmin = (l - v).max(v - hi).max(0.0);
        let dmax = (v - l).abs().max((v - hi).abs());
        min_acc += dmin * dmin;
        max_acc += dmax * dmax;
    }
    (min_acc, max_acc)
}

/// What one cell contributes to the region query of `p`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellContribution {
    /// The whole box lies within ε, so every sub-cell qualifies untested.
    pub(crate) full: bool,
    /// Sub-cells within ε.
    pub(crate) hits: u32,
    /// Σ densities of those sub-cells.
    pub(crate) density: u64,
}

/// The per-candidate step of the region query: the contribution of the
/// cell whose box starts at `lo`, whose sub-cells are `centers`/`counts`
/// and whose density is `total`, to the query of `p`, or `None` when the
/// box bounds rule the cell out. A fully contained cell adds `total`
/// with no centre tested; otherwise the kernel sums the centres within
/// ε. [`DictionaryIndex::region_query_cells_into`] and
/// [`crate::CellWindow`]'s density sums both step through it, so they count
/// the same density for every cell.
// lint:hot
#[inline]
pub(crate) fn cell_contribution(
    lo: &[f64],
    side: f64,
    (centers, counts): (&[f64], &[u32]),
    total: u64,
    eps2: f64,
    p: &[f64],
) -> Option<CellContribution> {
    let (min2, max2) = box_dist2_bounds(lo, side, p);
    if min2 > eps2 {
        return None; // cannot contain any qualifying centre
    }
    Some(if max2 <= eps2 {
        CellContribution {
            full: true,
            hits: counts.len() as u32,
            density: total,
        }
    } else {
        let (hits, density) = kernel::sum_within_u32(p, centers, p.len(), eps2, counts);
        CellContribution {
            full: false,
            hits,
            density,
        }
    })
}

impl DictionaryIndex {
    /// Region query aggregated to the cell level: neighbour cells (each
    /// listed once) plus the total qualifying density.
    pub fn region_query_cells(&self, p: &[f64]) -> RegionQueryResult {
        let mut result = RegionQueryResult::default();
        self.region_query_cells_into(p, &mut result);
        result
    }

    /// Buffer-reusing form of [`Self::region_query_cells`]: clears and
    /// refills `result` so per-point callers (core marking runs one query
    /// per point) reuse its buffers across queries.
    ///
    /// Candidates come from the fragment kd-trees in their visit order,
    /// so `neighbor_cells` lists cells in that order; each candidate's
    /// box and sub-cell centres are read from the index's flat layout.
    // lint:hot
    pub fn region_query_cells_into(&self, p: &[f64], result: &mut RegionQueryResult) {
        let spec = self.spec();
        debug_assert_eq!(p.len(), spec.dim());
        let side = spec.side();
        let eps = spec.eps();
        let eps2 = eps * eps;
        // A cell can hold a qualifying sub-cell centre only if its own
        // centre lies within ε + diag/2 of p (centres sit inside cells).
        let cell_radius = eps + spec.cell_diag() * 0.5;
        let layout = self.layout();
        let mut stats = QueryStats::default();
        let cells = &mut result.neighbor_cells;
        let density = &mut result.density;
        cells.clear();
        *density = 0;

        for sd in self.subdicts() {
            if sd.mbr().lemma_5_10_skippable(p, eps) {
                stats.subdicts_skipped += 1;
                continue;
            }
            stats.subdicts_visited += 1;
            // The tree's payloads are layout positions; neighbours are
            // reported by dictionary id.
            sd.tree().for_each_within(p, cell_radius, |pos, _| {
                stats.cells_candidate += 1;
                let Some(c) = cell_contribution(
                    layout.origin(pos),
                    side,
                    layout.subs(pos),
                    layout.total(pos),
                    eps2,
                    p,
                ) else {
                    return;
                };
                if c.full {
                    stats.cells_full += 1;
                } else if c.hits > 0 {
                    stats.cells_partial += 1;
                }
                if c.hits > 0 {
                    stats.subcells_reported += c.hits;
                    *density += c.density;
                    cells.push(layout.id(pos));
                }
            });
        }
        result.stats = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::CellDictionary;
    use crate::spec::GridSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rpdbscan_geom::{dist, dist2};

    /// Brute-force reference: qualifying density = Σ counts of sub-cells
    /// whose centre is within eps of p, computed straight off the
    /// dictionary without any index.
    fn brute_density(dict: &CellDictionary, p: &[f64]) -> u64 {
        let spec = dict.spec();
        let mut density = 0;
        for cell in dict.cells() {
            for sub in &cell.subs {
                let c = spec.sub_center(&cell.coord, sub.idx);
                if dist(p, &c) <= spec.eps() {
                    density += sub.count as u64;
                }
            }
        }
        density
    }

    fn random_dict(seed: u64, n: usize, dim: usize, eps: f64, rho: f64) -> CellDictionary {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(0.0..10.0)).collect())
            .collect();
        let refs: Vec<&[f64]> = pts.iter().map(|p| p.as_slice()).collect();
        CellDictionary::build_from_points(GridSpec::new(dim, eps, rho).unwrap(), refs)
    }

    /// The entry-decoding region query the flat layout replaced, kept as
    /// an oracle: the same fragment kd-trees in the same order, but each
    /// candidate read from its `CellEntry`, its bounds from
    /// `cell_dist2_bounds` and every centre decoded by `sub_center_into`
    /// and tested with scalar `dist2`.
    fn decoded_query(idx: &DictionaryIndex, p: &[f64]) -> RegionQueryResult {
        let spec = idx.spec();
        let eps2 = spec.eps() * spec.eps();
        let cell_radius = spec.eps() + spec.cell_diag() * 0.5;
        let mut center = vec![0.0; spec.dim()];
        let mut r = RegionQueryResult::default();
        for sd in idx.subdicts() {
            if sd.mbr().lemma_5_10_skippable(p, spec.eps()) {
                r.stats.subdicts_skipped += 1;
                continue;
            }
            r.stats.subdicts_visited += 1;
            sd.tree().for_each_within(p, cell_radius, |pos, _| {
                r.stats.cells_candidate += 1;
                let ci = idx.layout().id(pos);
                let entry = idx.dict().entry(ci);
                let (min_d2, max_d2) = spec.cell_dist2_bounds(&entry.coord, p);
                if min_d2 > eps2 {
                    return;
                }
                let full = max_d2 <= eps2;
                let mut hits = 0;
                for sub in &entry.subs {
                    spec.sub_center_into(&entry.coord, sub.idx, &mut center);
                    if full || dist2(p, &center) <= eps2 {
                        hits += 1;
                        r.density += sub.count as u64;
                    }
                }
                if full {
                    r.stats.cells_full += 1;
                } else if hits > 0 {
                    r.stats.cells_partial += 1;
                }
                if hits > 0 {
                    r.stats.subcells_reported += hits;
                    r.neighbor_cells.push(ci);
                }
            });
        }
        r
    }

    /// Query points for `idx`: random ones around the data, and for each
    /// of the first cells its lattice corner, its upper corner, a point
    /// on its lower face along every axis and its first sub-cell centre.
    fn oracle_queries(idx: &DictionaryIndex, rng: &mut StdRng) -> Vec<Vec<f64>> {
        let spec = idx.spec();
        let dim = spec.dim();
        let side = spec.side();
        let mut qs: Vec<Vec<f64>> = (0..40)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..7.0)).collect())
            .collect();
        for entry in idx.dict().cells().iter().take(25) {
            let lo = spec.cell_origin(&entry.coord);
            qs.push(lo.clone());
            qs.push(lo.iter().map(|v| v + side).collect());
            for a in 0..dim {
                let mut face: Vec<f64> = lo.iter().map(|v| v + rng.gen_range(0.0..side)).collect();
                face[a] = lo[a];
                qs.push(face);
            }
            qs.push(spec.sub_center(&entry.coord, entry.subs[0].idx));
        }
        qs
    }

    #[test]
    fn flat_layout_matches_entry_decoding_oracle() {
        let mut rng = StdRng::seed_from_u64(71);
        let mut r = RegionQueryResult::default();
        for dim in 1..=4 {
            for rho in [1.0, 0.1, 0.01] {
                let pts: Vec<Vec<f64>> = (0..300)
                    .map(|_| (0..dim).map(|_| rng.gen_range(0.0..6.0)).collect())
                    .collect();
                let refs: Vec<&[f64]> = pts.iter().map(|p| p.as_slice()).collect();
                let spec = GridSpec::new(dim, 0.9, rho).unwrap();
                let dict = CellDictionary::build_from_points(spec, refs);
                for cap in [1, 16, u64::MAX] {
                    let idx = DictionaryIndex::new(dict.clone(), cap);
                    for q in oracle_queries(&idx, &mut rng) {
                        idx.region_query_cells_into(&q, &mut r);
                        let want = decoded_query(&idx, &q);
                        let at = format!("dim={dim} rho={rho} cap={cap} q={q:?}");
                        assert_eq!(r.density, want.density, "{at}");
                        assert_eq!(r.neighbor_cells, want.neighbor_cells, "{at}");
                        assert_eq!(r.stats, want.stats, "{at}");
                    }
                }
            }
        }
        // An empty dictionary: no fragments, nothing reported.
        let spec = GridSpec::new(2, 0.9, 0.1).unwrap();
        let idx = DictionaryIndex::new(CellDictionary::build_from_points(spec, []), 16);
        idx.region_query_cells_into(&[0.0, 0.0], &mut r);
        let want = decoded_query(&idx, &[0.0, 0.0]);
        assert_eq!((r.density, r.stats), (0, QueryStats::default()));
        assert!(r.neighbor_cells.is_empty());
        assert_eq!((want.density, want.stats), (r.density, r.stats));
    }

    #[test]
    fn query_matches_brute_force_2d() {
        let dict = random_dict(1, 800, 2, 0.9, 0.25);
        let idx = DictionaryIndex::new(dict, 64);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..60 {
            let p = [rng.gen_range(-1.0..11.0), rng.gen_range(-1.0..11.0)];
            assert_eq!(
                idx.region_query_cells(&p).density,
                brute_density(idx.dict(), &p)
            );
        }
    }

    #[test]
    fn query_matches_brute_force_3d_various_rho() {
        for rho in [1.0, 0.5, 0.1, 0.05] {
            let dict = random_dict(3, 500, 3, 1.4, rho);
            let idx = DictionaryIndex::new(dict, 128);
            let mut rng = StdRng::seed_from_u64(4);
            for _ in 0..30 {
                let p: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..10.0)).collect();
                assert_eq!(
                    idx.region_query_cells(&p).density,
                    brute_density(idx.dict(), &p),
                    "rho={rho}"
                );
            }
        }
    }

    #[test]
    fn defragmentation_does_not_change_results() {
        // §5.2: skipping + defragmentation must not affect query output.
        let dict = random_dict(5, 600, 2, 0.8, 0.25);
        let single = DictionaryIndex::single(dict.clone());
        let frag = DictionaryIndex::new(dict, 16);
        assert!(frag.num_subdicts() > 4);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..50 {
            let p = [rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)];
            let a = single.region_query_cells(&p);
            let b = frag.region_query_cells(&p);
            assert_eq!(a.density, b.density);
            let mut ca = a.neighbor_cells.clone();
            let mut cb = b.neighbor_cells.clone();
            ca.sort_unstable();
            ca.dedup();
            cb.sort_unstable();
            cb.dedup();
            assert_eq!(ca, cb);
        }
    }

    #[test]
    fn skipping_actually_skips_far_fragments() {
        // Two distant blobs -> fragments around each; querying near one
        // must skip the other's fragment.
        let spec = GridSpec::new(2, 1.0, 0.5).unwrap();
        let mut pts = Vec::new();
        for i in 0..50 {
            pts.push(vec![i as f64 * 0.1, 0.0]);
            pts.push(vec![100.0 + i as f64 * 0.1, 0.0]);
        }
        let refs: Vec<&[f64]> = pts.iter().map(|p| p.as_slice()).collect();
        let dict = CellDictionary::build_from_points(spec, refs);
        let idx = DictionaryIndex::new(dict, 20);
        let stats = idx.region_query_cells(&[0.0, 0.0]).stats;
        assert!(stats.subdicts_skipped > 0, "{stats:?}");
        assert!(stats.subdicts_visited > 0);
    }

    #[test]
    fn lemma_5_2_sandwich_bound() {
        // Every point counted by the (eps,rho)-query lies within
        // (1+rho/2)eps of p, and every point within (1-rho/2)eps is
        // counted. We verify on the generating points themselves.
        let mut rng = StdRng::seed_from_u64(9);
        let pts: Vec<Vec<f64>> = (0..400)
            .map(|_| vec![rng.gen_range(0.0..5.0), rng.gen_range(0.0..5.0)])
            .collect();
        let refs: Vec<&[f64]> = pts.iter().map(|p| p.as_slice()).collect();
        let eps = 0.7;
        let rho = 0.05;
        let spec = GridSpec::new(2, eps, rho).unwrap();
        let dict = CellDictionary::build_from_points(spec, refs);
        let idx = DictionaryIndex::new(dict, 256);
        for _ in 0..20 {
            let q = vec![rng.gen_range(0.0..5.0), rng.gen_range(0.0..5.0)];
            let approx = idx.region_query_cells(&q).density;
            let lower = pts
                .iter()
                .filter(|p| dist(&q, p) <= (1.0 - rho / 2.0) * eps)
                .count() as u64;
            let upper = pts
                .iter()
                .filter(|p| dist(&q, p) <= (1.0 + rho / 2.0) * eps)
                .count() as u64;
            assert!(
                lower <= approx && approx <= upper,
                "sandwich violated: {lower} <= {approx} <= {upper}"
            );
        }
    }

    #[test]
    fn neighbor_cells_are_deduplicated() {
        let dict = random_dict(11, 300, 2, 1.2, 0.25);
        let idx = DictionaryIndex::new(dict, 64);
        let r = idx.region_query_cells(&[5.0, 5.0]);
        let mut sorted = r.neighbor_cells.clone();
        sorted.sort_unstable();
        let before = sorted.len();
        sorted.dedup();
        assert_eq!(before, sorted.len(), "duplicate neighbour cells reported");
    }

    #[test]
    fn empty_region_reports_nothing() {
        let dict = random_dict(13, 100, 2, 0.5, 0.5);
        let idx = DictionaryIndex::new(dict, 64);
        let r = idx.region_query_cells(&[500.0, 500.0]);
        assert_eq!(r.density, 0);
        assert!(r.neighbor_cells.is_empty());
    }

    #[test]
    fn own_subcell_counts_toward_density() {
        // A lone point: its own sub-cell centre is within eps (Example 5.7
        // counts p itself).
        let spec = GridSpec::new(2, 1.0, 0.1).unwrap();
        let p = [3.3f64, 4.4];
        let dict = CellDictionary::build_from_points(spec, [p.as_slice()]);
        let idx = DictionaryIndex::single(dict);
        assert_eq!(idx.region_query_cells(&p).density, 1);
    }
}

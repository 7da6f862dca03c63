//! Cell-level query planning for serving's classify, which needs each
//! query point's density and neighbour cells against a published index.
//!
//! All points of one cell run nearly the same `(ε,ρ)`-region query: the
//! candidate search and most of the distance decisions depend only on
//! the *cell*, not on the individual point. A [`CellQueryPlan`] hoists
//! that shared work out of the per-point loop:
//!
//! 1. **Candidates once per cell.** [`CellQueryPlan::from_candidates`]
//!    takes any candidate list meeting the candidate contract of DESIGN
//!    §9: every cell whose box may lie within ε of the query box, a
//!    superset of every per-point search's reach. Serving's classify
//!    feeds it the cell's lattice window.
//! 2. **Cell- and sub-cell-level classification.** Each candidate cell is
//!    classified by the box-to-box bounds of
//!    [`crate::GridSpec::cell_box_dist2_bounds`]: *never* (min² > ε²
//!    plus slack: no point of the query cell can reach it — pruned from
//!    the plan entirely) or *planned*. Within a planned cell, each
//!    sub-cell whose centre is within ε of **every** point of the query
//!    cell box (point-to-box max² ≤ ε² minus slack) is *always-qualifying*: its
//!    density is folded into a per-cell precomputed sum and it is never
//!    distance-tested again. Note that an entire *cell* can never be
//!    always-qualifying — the cell diagonal is exactly ε (Definition
//!    3.1), so even the query cell's own far corner is at distance ε —
//!    but its *sub-cells* routinely are, because a sub-centre sits at
//!    least `sub_side/2` inside the box, leaving a real margin.
//! 3. **SoA centre layout.** The remaining *tested* sub-cell centres are
//!    copied into one flat `Vec<f64>` with parallel `counts`/prefix
//!    arrays, so the per-point inner loop is a branch-light linear scan
//!    over the plan's own cells only.
//!
//! Classification uses a conservative relative slack ([`PLAN_SLACK`]):
//! near the ε boundary a sub-cell stays in the tested set, where
//! [`CellQueryPlan::query_into`] (and [`CellQueryPlan::density`], the
//! same per-point walk without the neighbour list) replicates the unplanned
//! [`crate::DictionaryIndex::region_query_cells_into`] arithmetic bit for bit
//! (same box origins, same bound formulas, same centre coordinates, same
//! distance kernel).
//! Misclassification towards *tested* therefore costs a few extra
//! per-point distance tests but can never change a result; the
//! *always-qualifying* and *never* buckets only fire with a margin that
//! per-point rounding cannot cross. The window holds every cell a point
//! of the query cell can reach, so Lemma 5.6's candidate completeness
//! carries over.

use crate::query::{box_dist2_bounds, QueryStats, RegionQueryResult};
use crate::spec::{box_box_dist2_bounds, GridSpec};
use rpdbscan_geom::kernel;

/// Relative slack applied to ε² before a sub-cell may be classified
/// *always-qualifying* (max² ≤ ε²·(1−slack)) or a cell *never*
/// (min² > ε²·(1+slack)).
///
/// Box-level bounds and per-point bounds are evaluated with different
/// (though mirrored) floating-point expressions; the slack guarantees a
/// classification can only differ from the per-point decision for
/// sub-cells left in the *tested* set, where the per-point oracle
/// arithmetic is replicated exactly.
pub const PLAN_SLACK: f64 = 1e-9;

/// One candidate cell handed to [`CellQueryPlan::from_candidates`]; the
/// fields are the candidate contract of DESIGN §9.
#[derive(Debug, Clone, Copy)]
pub struct PlanCandidate<'a> {
    /// Reported back in `neighbor_cells` when the cell is reached.
    pub id: u32,
    /// Box origin, `coord · side` per dimension — the arithmetic of
    /// [`GridSpec::cell_dist2_bounds`].
    pub origin: &'a [f64],
    /// Occupied sub-cell centres, `dim` values each.
    pub centers: &'a [f64],
    /// Sub-cell point counts, parallel to `centers`.
    pub counts: &'a [u32],
    /// Σ `counts`: the density of a fully contained cell.
    pub total: u64,
}

/// A memoized `(ε,ρ)`-region query plan for one cell.
///
/// Serving's classify builds one per cell with
/// [`CellQueryPlan::from_candidates`] and caches it. Every point of the
/// cell is then answered through [`CellQueryPlan::query_into`] (or
/// [`CellQueryPlan::density`]). Results are identical to
/// [`crate::DictionaryIndex::region_query_cells`] (density,
/// neighbour-cell set, and the `cells_full`/`cells_partial`/
/// `subcells_reported` counters); only the candidate counter differs,
/// because the candidate search is done once for the plan
/// (`cells_candidate` counts the planned cells; a plan visits no
/// sub-dictionary).
#[derive(Debug, Clone)]
pub struct CellQueryPlan {
    dim: usize,
    eps2: f64,
    side: f64,
    /// Planned cells: candidate id per cell.
    cell_idx: Vec<u32>,
    /// Planned cells: box origin per cell, `dim` values each, computed
    /// exactly as `cell_dist2_bounds` does (`coord · side`).
    lo: Vec<f64>,
    /// Planned cells: Σ densities of **all** sub-cells (full-containment
    /// case).
    total: Vec<u64>,
    /// Planned cells: number of *always-qualifying* sub-cells.
    always_subs: Vec<u32>,
    /// Planned cells: Σ densities of the always-qualifying sub-cells.
    always_total: Vec<u64>,
    /// Planned cells: prefix offsets into `centers`/`counts` for the
    /// *tested* sub-cells (`len = cells + 1`).
    sub_start: Vec<u32>,
    /// Tested sub-cell centres, SoA: `dim` values per sub-cell.
    centers: Vec<f64>,
    /// Tested sub-cell densities, parallel to `centers`.
    counts: Vec<u32>,
    /// One-off build cost: `plans_built = 1`. Merge once per plan, not
    /// once per point.
    build_stats: QueryStats,
}

impl CellQueryPlan {
    /// Plans the region query for the cell whose box starts at `origin`
    /// from an explicit candidate list — the one never/always/tested
    /// classifier. `candidates` must meet the candidate contract
    /// (DESIGN §9): box origins computed as `coord · side`, every cell
    /// whose box may lie within ε of the query box present once, in any
    /// order (order only sets the order of reported neighbour cells).
    /// The iterator is walked twice: once to size the plan, once to fill
    /// it.
    pub fn from_candidates<'a, I>(spec: &GridSpec, origin: &[f64], candidates: I) -> Self
    where
        I: Iterator<Item = PlanCandidate<'a>> + Clone,
    {
        let dim = spec.dim();
        let eps2 = spec.eps() * spec.eps();
        let side = spec.side();
        debug_assert_eq!(origin.len(), dim);
        // Size every array for the candidates up front: pruning only
        // shrinks them, and a plan is built per planned cell.
        let (n, subs) = candidates
            .clone()
            .fold((0, 0), |(n, subs), c| (n + 1, subs + c.counts.len()));
        let mut sub_start = Vec::with_capacity(n + 1);
        sub_start.push(0);
        let mut plan = Self {
            dim,
            eps2,
            side,
            cell_idx: Vec::with_capacity(n),
            lo: Vec::with_capacity(n * dim),
            total: Vec::with_capacity(n),
            always_subs: Vec::with_capacity(n),
            always_total: Vec::with_capacity(n),
            sub_start,
            centers: Vec::with_capacity(subs * dim),
            counts: Vec::with_capacity(subs),
            build_stats: QueryStats {
                plans_built: 1,
                ..QueryStats::default()
            },
        };
        let never_bound = eps2 * (1.0 + PLAN_SLACK);
        let always_bound = eps2 * (1.0 - PLAN_SLACK);
        for c in candidates {
            debug_assert_eq!(c.centers.len(), c.counts.len() * dim);
            let (min2, _) =
                box_box_dist2_bounds(origin.iter().copied(), c.origin.iter().copied(), side);
            if min2 > never_bound {
                continue; // *never*: out of reach for every point in the cell
            }
            let seg_start = plan.counts.len();
            let mut n_always = 0u32;
            let mut t_always = 0u64;
            for (center, &count) in c.centers.chunks_exact(dim).zip(c.counts) {
                // Point-to-box bounds with the roles swapped: the
                // nearest/farthest query-cell point from this centre.
                let (cmin2, cmax2) = box_dist2_bounds(origin, side, center);
                if cmin2 > never_bound {
                    // *never*: beyond ε of every query-cell point, so the
                    // per-point test can't hit — drop it from the tested
                    // SoA. (Such a centre also makes the full-containment
                    // branch unreachable for this cell: a point within ε
                    // of the whole cell box would be within ε of the
                    // centre, contradicting this bound — so the cell's
                    // total is still safe to report there.)
                    continue;
                }
                if cmax2 <= always_bound {
                    n_always += 1;
                    t_always += count as u64;
                } else {
                    plan.centers.extend_from_slice(center);
                    plan.counts.push(count);
                }
            }
            if n_always == 0 && plan.counts.len() == seg_start {
                // Every occupied sub-cell was never-pruned: the cell can
                // contribute nothing to any query point (its full-
                // containment branch is unreachable by the argument
                // above), so it earns no slot in the per-point loop.
                continue;
            }
            plan.cell_idx.push(c.id);
            plan.lo.extend_from_slice(c.origin);
            plan.total.push(c.total);
            plan.always_subs.push(n_always);
            plan.always_total.push(t_always);
            plan.sub_start.push(plan.counts.len() as u32);
        }
        // Serving caches its plans (~16k per generation), so give back the
        // capacity pruning left unused; a shrinking realloc is in place.
        plan.cell_idx.shrink_to_fit();
        plan.lo.shrink_to_fit();
        plan.total.shrink_to_fit();
        plan.always_subs.shrink_to_fit();
        plan.always_total.shrink_to_fit();
        plan.sub_start.shrink_to_fit();
        plan.centers.shrink_to_fit();
        plan.counts.shrink_to_fit();
        plan
    }

    /// Squared distance bounds `(min², max²)` from `p` to planned cell
    /// `j`'s box, bit-identical to `GridSpec::cell_dist2_bounds` (same
    /// origins, same formulas).
    // lint:hot
    #[inline]
    fn box_bounds(&self, j: usize, p: &[f64]) -> (f64, f64) {
        box_dist2_bounds(&self.lo[j * self.dim..(j + 1) * self.dim], self.side, p)
    }

    /// Planned cell `j`'s tested sub-cell range in `centers`/`counts`.
    #[inline]
    fn tested(&self, j: usize) -> std::ops::Range<usize> {
        self.sub_start[j] as usize..self.sub_start[j + 1] as usize
    }

    /// The per-point walk both query entry points share: box bounds per
    /// planned cell, then the full-containment total or the
    /// always-qualifying sum plus the kernel over the tested centres.
    /// Calls `reached(j, reported)` for every planned cell `j` the bounds
    /// admit — `reported` is `None` when the cell is fully contained,
    /// else the number of its sub-cells within ε — and returns the
    /// density.
    // lint:hot
    #[inline(always)]
    fn walk(&self, p: &[f64], mut reached: impl FnMut(usize, Option<u32>)) -> u64 {
        debug_assert_eq!(p.len(), self.dim);
        let eps2 = self.eps2;
        let dim = self.dim;
        let mut density = 0u64;
        for j in 0..self.cell_idx.len() {
            let (min_acc, max_acc) = self.box_bounds(j, p);
            if min_acc > eps2 {
                continue; // cannot contain any qualifying centre
            }
            if max_acc <= eps2 {
                // Fully contained for this particular point: every
                // sub-cell qualifies, tested or not.
                density += self.total[j];
                reached(j, None);
            } else {
                // Always-qualifying sub-cells need no distance test; the
                // rest is the shared chunked kernel over the flattened
                // SoA centres — bit-identical to a scalar `dist2` scan
                // (see `rpdbscan_geom::kernel`).
                let tested = self.tested(j);
                let (hits, tested_density) = kernel::sum_within_u32(
                    p,
                    &self.centers[tested.start * dim..tested.end * dim],
                    dim,
                    eps2,
                    &self.counts[tested],
                );
                density += self.always_total[j] + tested_density;
                reached(j, Some(self.always_subs[j] + hits));
            }
        }
        density
    }

    /// Answers the region query for `p` (a point of the planned cell),
    /// clearing and refilling `result` exactly like
    /// [`crate::DictionaryIndex::region_query_cells_into`].
    // lint:hot
    pub fn query_into(&self, p: &[f64], result: &mut RegionQueryResult) {
        result.neighbor_cells.clear();
        let mut stats = QueryStats {
            plan_hits: 1,
            cells_candidate: self.cell_idx.len() as u32,
            ..QueryStats::default()
        };
        let neighbors = &mut result.neighbor_cells;
        result.density = self.walk(p, |j, reported| match reported {
            None => {
                stats.cells_full += 1;
                stats.subcells_reported += self.always_subs[j] + self.tested(j).len() as u32;
                neighbors.push(self.cell_idx[j]);
            }
            Some(0) => {}
            Some(reported) => {
                stats.cells_partial += 1;
                stats.subcells_reported += reported;
                neighbors.push(self.cell_idx[j]);
                if self.tested(j).is_empty() {
                    // Answered purely from precomputed data.
                    stats.cells_planned_full += 1;
                }
            }
        });
        result.stats = stats;
    }

    /// The region-query density of `p` (a point of the planned cell):
    /// the `density` [`Self::query_into`] reports, without the neighbour
    /// list or counters — the density half of serving's classify.
    // lint:hot
    pub fn density(&self, p: &[f64]) -> u64 {
        self.walk(p, |_, _| {})
    }

    /// Number of planned (non-pruned) candidate cells.
    pub fn num_cells(&self) -> usize {
        self.cell_idx.len()
    }

    /// Number of *always-qualifying* sub-cells across all planned cells —
    /// answered from precomputed density sums, never distance-tested.
    pub fn num_always_subcells(&self) -> u64 {
        self.always_subs.iter().map(|&n| n as u64).sum()
    }

    /// Number of *tested* sub-cell centres materialised in the SoA layout.
    pub fn num_tested_subcells(&self) -> usize {
        self.counts.len()
    }

    /// One-off build counters (`plans_built = 1`). Merge once per plan
    /// so aggregate stats stay meaningful.
    pub fn build_stats(&self) -> &QueryStats {
        &self.build_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::CellDictionary;
    use crate::spec::GridSpec;
    use crate::DictionaryIndex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Plans cell `ci` of `idx` from a brute-force candidate list: every
    /// dictionary cell [`GridSpec::in_eps_window`] accepts, ascending by
    /// dictionary id, read from the index layout.
    fn plan_for(idx: &DictionaryIndex, ci: u32) -> CellQueryPlan {
        let (dict, layout) = (idx.dict(), idx.layout());
        let spec = dict.spec();
        let own = &dict.entry(ci).coord;
        let candidates = (0..dict.num_cells() as u32)
            .filter(|&c| spec.in_eps_window(own, &dict.entry(c).coord))
            .map(|c| {
                let p = layout.pos_of(c);
                let (centers, counts) = layout.subs(p);
                PlanCandidate {
                    id: c,
                    origin: layout.origin(p),
                    centers,
                    counts,
                    total: layout.total(p),
                }
            });
        CellQueryPlan::from_candidates(spec, layout.origin(layout.pos_of(ci)), candidates)
    }

    fn random_dict(seed: u64, n: usize, dim: usize, eps: f64, rho: f64) -> CellDictionary {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(0.0..10.0)).collect())
            .collect();
        let refs: Vec<&[f64]> = pts.iter().map(|p| p.as_slice()).collect();
        CellDictionary::build_from_points(GridSpec::new(dim, eps, rho).unwrap(), refs)
    }

    #[test]
    fn planned_query_matches_oracle_for_cell_points() {
        let dict = random_dict(21, 900, 2, 0.9, 0.25);
        let idx = DictionaryIndex::new(dict, 64);
        let spec = idx.spec().clone();
        let mut rng = StdRng::seed_from_u64(22);
        let mut planned = RegionQueryResult::default();
        for ci in 0..idx.dict().num_cells() as u32 {
            let plan = plan_for(&idx, ci);
            let bb = spec.cell_aabb(&idx.dict().entry(ci).coord);
            for _ in 0..5 {
                let p: Vec<f64> = (0..2)
                    .map(|a| rng.gen_range(bb.min()[a]..bb.max()[a]))
                    .collect();
                plan.query_into(&p, &mut planned);
                let oracle = idx.region_query_cells(&p);
                assert_eq!(planned.density, oracle.density);
                let mut a = planned.neighbor_cells.clone();
                let mut b = oracle.neighbor_cells.clone();
                a.sort_unstable();
                b.sort_unstable();
                b.dedup();
                assert_eq!(a, b);
                assert_eq!(planned.stats.cells_full, oracle.stats.cells_full);
                assert_eq!(planned.stats.cells_partial, oracle.stats.cells_partial);
                assert_eq!(
                    planned.stats.subcells_reported,
                    oracle.stats.subcells_reported
                );
            }
        }
    }

    #[test]
    fn dense_cells_produce_always_qualifying_subcells() {
        // A tight blob: the own cell's sub-cell centres are within ε of
        // every point of the cell, so the plan must fold them into the
        // precomputed per-cell sums.
        let spec = GridSpec::new(2, 4.0, 0.5).unwrap();
        let mut pts = Vec::new();
        for i in 0..40 {
            for j in 0..40 {
                pts.push(vec![i as f64 * 0.2, j as f64 * 0.2]);
            }
        }
        let refs: Vec<&[f64]> = pts.iter().map(|p| p.as_slice()).collect();
        let dict = CellDictionary::build_from_points(spec, refs);
        let idx = DictionaryIndex::single(dict);
        for ci in 0..idx.dict().num_cells() as u32 {
            let plan = plan_for(&idx, ci);
            assert!(
                plan.num_always_subcells() > 0,
                "cell {ci}: no always-qualifying sub-cell in a dense blob"
            );
            assert_eq!(plan.build_stats().plans_built, 1);
        }
    }
}

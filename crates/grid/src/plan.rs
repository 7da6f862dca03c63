//! Cell-level query planning for the Phase II hot path.
//!
//! All points of one cell run nearly the same `(ε,ρ)`-region query: the
//! sub-dictionary scan, the kd-tree candidate search, and most of the
//! distance decisions depend only on the *cell*, not on the individual
//! point. A [`CellQueryPlan`] hoists that shared work out of the
//! per-point loop:
//!
//! 1. **Candidate search once per cell.** The kd-trees are searched once
//!    from the query cell's box with radius `ε + diag` — a guaranteed
//!    superset of every per-point search (per-point radius is
//!    `ε + diag/2` and every point lies inside the box). This gather is
//!    [`CellQueryPlan::build`]'s alone: the steps below live in
//!    [`CellQueryPlan::from_candidates`], which takes any candidate list
//!    meeting the candidate contract of DESIGN §9 (serving's classify
//!    feeds it the cell's lattice window).
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
//!    over the plan's own cells only. In Phase II the centres, counts and
//!    box origins come from the [`DictionaryIndex`]'s flat layout, the one
//!    place sub-cell centres are decoded; a build never touches a
//!    `CellEntry`.
//!
//! 4. **Dense cells.** The always-qualifying sums bound every point's
//!    density from below ([`CellQueryPlan::density_floor`]). When the
//!    bound reaches minPts, Phase II needs no per-point query: every
//!    point is core, and [`CellQueryPlan::successors_into`] finds the
//!    cells they reach per cell — a cell with an always-qualifying
//!    sub-cell at once, any other by walking the points until the first
//!    one that reaches it.
//!
//! Classification uses a conservative relative slack ([`PLAN_SLACK`]):
//! near the ε boundary a sub-cell stays in the tested set, where
//! [`CellQueryPlan::query_into`] (and [`CellQueryPlan::density`], the
//! same per-point walk without the neighbour list) replicates the unplanned
//! [`DictionaryIndex::region_query_cells_into`] arithmetic bit for bit
//! (same box origins, same bound formulas, same centre coordinates, same
//! distance kernel).
//! Misclassification towards *tested* therefore costs a few extra
//! per-point distance tests but can never change a result; the
//! *always-qualifying* and *never* buckets only fire with a margin that
//! per-point rounding cannot cross. Lemma 5.6 (kd-tree candidate
//! completeness) and Lemma 5.10 (MBR skipping) are preserved because both
//! are applied with the query cell's whole box substituted for the query
//! point.

use crate::cell::CellCoord;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::query::{box_dist2_bounds, QueryStats, RegionQueryResult};
use crate::spec::{box_box_dist2_bounds, GridSpec};
use crate::subdict::DictionaryIndex;
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
/// Build once per cell with [`CellQueryPlan::build`] (or
/// [`CellQueryPlan::from_candidates`]), then answer every point of that
/// cell through [`CellQueryPlan::query_into`]. Results are
/// identical to [`DictionaryIndex::region_query_cells`] (density,
/// neighbour-cell set, and the `cells_full`/`cells_partial`/
/// `subcells_reported` counters); only candidate/sub-dictionary counters
/// differ because that work is amortised into
/// [`CellQueryPlan::build_stats`].
#[derive(Debug, Clone)]
pub struct CellQueryPlan {
    dim: usize,
    eps2: f64,
    side: f64,
    /// Planned cells: candidate id per cell (a dictionary index in
    /// Phase II).
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
    /// One-off build cost: kd-search and skip counters plus
    /// `plans_built = 1`. Merge once per plan, not once per point.
    build_stats: QueryStats,
}

impl CellQueryPlan {
    /// Plans the region query for the cell at dictionary index `idx`:
    /// gathers its candidates from the fragment kd-trees, then classifies
    /// them through [`Self::from_candidates`].
    pub fn build(index: &DictionaryIndex, idx: u32) -> Self {
        let spec = index.spec();
        let layout = index.layout();
        let dim = spec.dim();
        let eps2 = spec.eps() * spec.eps();
        let side = spec.side();
        let qlo = layout.origin(idx);
        let qhi: Vec<f64> = qlo.iter().map(|v| v + side).collect();
        // Per-point searches use radius ε + diag/2 from a point inside the
        // box; ε + diag from the box itself is a strict superset with a
        // diag/2 safety margin, so no float edge can lose a candidate.
        let kd_radius = spec.eps() + spec.cell_diag();
        let mut stats = QueryStats {
            plans_built: 1,
            ..QueryStats::default()
        };

        let mut candidates: Vec<u32> = Vec::new();
        for sd in index.subdicts() {
            // Box-level Lemma 5.10: qualifying sub-cell centres lie inside
            // the fragment MBR, so the fragment is irrelevant to every
            // point of the query box when the box-to-MBR distance exceeds
            // ε (checked with the conservative slack).
            let mut mbr_min2 = 0.0;
            for a in 0..dim {
                let g = if qhi[a] < sd.mbr().min()[a] {
                    sd.mbr().min()[a] - qhi[a]
                } else if qlo[a] > sd.mbr().max()[a] {
                    qlo[a] - sd.mbr().max()[a]
                } else {
                    0.0
                };
                mbr_min2 += g * g;
            }
            if mbr_min2 > eps2 * (1.0 + PLAN_SLACK) {
                stats.subdicts_skipped += 1;
                continue;
            }
            stats.subdicts_visited += 1;
            sd.tree().for_each_near_box(qlo, &qhi, kd_radius, |ci, _| {
                stats.cells_candidate += 1;
                candidates.push(ci);
            });
        }
        // Fragments partition the cells, so each candidate appears once;
        // sort so the plan layout is independent of fragmentation.
        candidates.sort_unstable();

        let mut plan = Self::from_candidates(
            spec,
            qlo,
            candidates.iter().map(|&ci| {
                let (centers, counts) = layout.subs(ci);
                PlanCandidate {
                    id: ci,
                    origin: layout.origin(ci),
                    centers,
                    counts,
                    total: layout.total(ci),
                }
            }),
        );
        plan.build_stats = stats;
        plan
    }

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
    /// origins, same formulas). Shared by the per-point walk and
    /// [`Self::successors_into`] so the two paths cannot drift.
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
    /// [`DictionaryIndex::region_query_cells_into`].
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

    /// A lower bound on the region-query density of **every** point of
    /// the planned cell: the summed densities of the always-qualifying
    /// sub-cells, which [`Self::query_into`] adds for each point without
    /// a test. The own cell's sub-cells are always among them (each
    /// sub-centre sits `sub_side/2` inside the box), so the bound is at
    /// least the cell's own count. When it reaches `minPts`, every point
    /// of the cell is core without a query.
    pub fn density_floor(&self) -> u64 {
        self.always_total.iter().sum()
    }

    /// Appends to `out`, in candidate order (ascending dictionary order
    /// for a plan from [`Self::build`]), every planned cell other than
    /// `own` (the planned cell's own id) that some row of `rows` (the
    /// cell's points, row-major) reaches — the sorted, deduplicated union of the
    /// `neighbor_cells` that [`Self::query_into`] would report over those
    /// rows, without the per-point density sums.
    ///
    /// A cell with an always-qualifying sub-cell is reached by every row.
    /// Otherwise the rows are walked until the first one whose box bounds
    /// admit the cell and that either contains the whole cell within ε
    /// or has one of its tested centres within ε.
    // lint:hot
    pub fn successors_into(&self, own: u32, rows: &[f64], out: &mut Vec<u32>) {
        debug_assert_eq!(rows.len() % self.dim, 0, "ragged row buffer");
        let eps2 = self.eps2;
        let dim = self.dim;
        for (j, &cj) in self.cell_idx.iter().enumerate() {
            if cj == own {
                continue;
            }
            let reached = self.always_subs[j] > 0 || {
                let tested = self.tested(j);
                let centers = &self.centers[tested.start * dim..tested.end * dim];
                rows.chunks_exact(dim).any(|p| {
                    let (min_acc, max_acc) = self.box_bounds(j, p);
                    min_acc <= eps2
                        && (max_acc <= eps2 || kernel::any_within(p, centers, dim, eps2))
                })
            };
            if reached {
                out.push(cj);
            }
        }
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

    /// One-off build counters (`plans_built = 1`, kd-search and skip
    /// figures). Merge once per plan so aggregate stats stay meaningful.
    pub fn build_stats(&self) -> &QueryStats {
        &self.build_stats
    }
}

/// Route chosen by the [`PlannerCostModel`] for one occupied cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryRoute {
    /// Build a [`CellQueryPlan`] and answer every point through
    /// [`CellQueryPlan::query_into`].
    Planned,
    /// Run each point through the per-point kd path
    /// ([`DictionaryIndex::region_query_cells_into`]); the cell is too
    /// sparse to amortise a plan build.
    Kd,
}

/// Per-cell routing decision between the memoized planner and the
/// per-point kd path.
///
/// Building a [`CellQueryPlan`] is a fixed cost per cell — one kd search
/// at radius `ε + diag` (sweeping `(4/3)^d` the volume of a per-point
/// search, whose radius is `ε + diag/2`) plus a classification pass over
/// the gathered candidates — while each planned query saves part of a kd
/// point query. The break-even occupancy is taken as `build_cost / 0.85`
/// point queries, the saving measured when a planned query cost ~0.15×
/// of a kd one. Since kd queries read the index's flat layout, a planned
/// query costs ~0.4–0.75× of a kd one (BENCH_query: dense 1.3×, builds
/// included), so the formula overstates the saving; up to 6 dimensions
/// the floor sets the threshold. Below break-even, planning is pure
/// overhead: planning every cell of BENCH_query's sparse shape runs at
/// 0.60×. The model is **calibrated once per dictionary build** from
/// structural quantities only (dimension), with a conservative floor —
/// deterministic, no clocks, so identical inputs always route
/// identically.
///
/// Routing never affects results: both paths are pinned bit-identical by
/// the planned-vs-oracle equivalence suite, so the model is free to be a
/// pure performance heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerCostModel {
    /// Minimum cell occupancy (query points per cell) at which plan
    /// construction amortises; cells below it route to the kd path.
    pub min_occupancy: u32,
}

impl PlannerCostModel {
    /// Conservative floor on the break-even occupancy: even when the
    /// dimensional estimate predicts a lower break-even, cells must hold
    /// at least this many points before a plan is built. Keeps routing
    /// robustly on the kd path for sparse workloads (~3 points/cell)
    /// where the planner measures 0.60×.
    pub const MIN_OCCUPANCY_FLOOR: u32 = 8;

    /// Calibrates the model for one dictionary build.
    pub fn calibrate(index: &DictionaryIndex) -> Self {
        Self::from_dim(index.spec().dim())
    }

    /// Model from structural quantities alone (integer arithmetic in
    /// milli-units; deterministic across platforms).
    pub fn from_dim(dim: usize) -> Self {
        // (4/3)^d volume inflation of the cell-level kd search relative
        // to a per-point search, in milli-units.
        let mut inflation = 1000u64;
        for _ in 0..dim.min(16) {
            inflation = inflation * 4 / 3;
        }
        // Build cost in point-query equivalents: the inflated kd search
        // plus one candidate classification pass.
        let build_cost = 1000 + inflation;
        // Break-even = build_cost / 0.85 (the measured per-point saving
        // of the planned steady state), rounded up.
        let break_even = (build_cost * 20).div_ceil(17 * 1000);
        Self {
            min_occupancy: (break_even as u32).max(Self::MIN_OCCUPANCY_FLOOR),
        }
    }

    /// Routes a cell with `occupancy` resident query points.
    #[inline]
    pub fn route(&self, occupancy: usize) -> QueryRoute {
        if occupancy >= self.min_occupancy as usize {
            QueryRoute::Planned
        } else {
            QueryRoute::Kd
        }
    }
}

/// Per-run cache counters of a [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Plans built (cache misses).
    pub built: u64,
    /// Queries served by an already-built plan of the current epoch.
    pub hits: u64,
    /// Previously planned cells whose plan was dropped because the cell
    /// was dirtied by an update.
    pub invalidated: u64,
}

/// Coordinate-keyed plan memo for the streaming repair path.
///
/// Dictionary indices — and therefore every index stored inside a
/// [`CellQueryPlan`] — are *epoch-scoped*: the streaming engine compacts
/// the dictionary and rebuilds its [`DictionaryIndex`] on every repair
/// epoch, so a plan must never be applied across epochs. The cache
/// enforces that rule structurally: [`PlanCache::begin_epoch`] drops all
/// cached plans and records, per dirty cell that had a plan, an
/// invalidation. Within an epoch, plans are shared by every query point
/// of the same cell.
#[derive(Debug, Default)]
pub struct PlanCache {
    /// Plans of the current epoch only.
    epoch_plans: FxHashMap<CellCoord, CellQueryPlan>,
    /// Coordinates planned in any epoch — the set invalidations are
    /// charged against.
    planned: FxHashSet<CellCoord>,
    stats: PlanCacheStats,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a repair epoch: drops every cached plan (indices from the
    /// previous epoch are invalid) and counts an invalidation for each
    /// `dirty` cell that had been planned before.
    pub fn begin_epoch<'a>(&mut self, dirty: impl IntoIterator<Item = &'a CellCoord>) {
        for c in dirty {
            if self.planned.remove(c) {
                self.stats.invalidated += 1;
            }
        }
        self.epoch_plans.clear();
    }

    /// Returns the current epoch's plan for `coord`, building it on first
    /// use. `None` when `coord` is not an occupied cell of the index.
    pub fn get_or_build(
        &mut self,
        index: &DictionaryIndex,
        coord: &CellCoord,
    ) -> Option<&CellQueryPlan> {
        let idx = index.dict().index_of(coord)?;
        if self.epoch_plans.contains_key(coord) {
            self.stats.hits += 1;
        } else {
            self.stats.built += 1;
            self.planned.insert(coord.clone());
            self.epoch_plans
                .insert(coord.clone(), CellQueryPlan::build(index, idx));
        }
        self.epoch_plans.get(coord)
    }

    /// Read-only lookup into the current epoch (for parallel stages that
    /// share a prebuilt cache).
    pub fn get(&self, coord: &CellCoord) -> Option<&CellQueryPlan> {
        self.epoch_plans.get(coord)
    }

    /// Number of plans held for the current epoch.
    pub fn len(&self) -> usize {
        self.epoch_plans.len()
    }

    /// True when no plan is cached for the current epoch.
    pub fn is_empty(&self) -> bool {
        self.epoch_plans.is_empty()
    }

    /// Cache counters.
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::CellDictionary;
    use crate::spec::GridSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
            let plan = CellQueryPlan::build(&idx, ci);
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
            let plan = CellQueryPlan::build(&idx, ci);
            assert!(
                plan.num_always_subcells() > 0,
                "cell {ci}: no always-qualifying sub-cell in a dense blob"
            );
            assert_eq!(plan.build_stats().plans_built, 1);
        }
    }

    #[test]
    fn cost_model_floor_makes_sparse_cells_unplannable() {
        for dim in 1..=6 {
            let m = PlannerCostModel::from_dim(dim);
            assert!(m.min_occupancy >= PlannerCostModel::MIN_OCCUPANCY_FLOOR);
            // Every occupancy below the threshold routes kd — this is the
            // structural guarantee behind the sparse-workload regression
            // test: a cell can only be planned at or above break-even.
            for occ in 0..m.min_occupancy as usize {
                assert_eq!(m.route(occ), QueryRoute::Kd, "dim={dim} occ={occ}");
            }
            assert_eq!(m.route(m.min_occupancy as usize), QueryRoute::Planned);
            assert_eq!(m.route(1_000_000), QueryRoute::Planned);
        }
    }

    #[test]
    fn cost_model_is_deterministic_per_build() {
        let dict = random_dict(41, 300, 3, 1.0, 0.5);
        let idx = DictionaryIndex::new(dict, 64);
        let a = PlannerCostModel::calibrate(&idx);
        let b = PlannerCostModel::calibrate(&idx);
        assert_eq!(a, b);
        assert_eq!(a, PlannerCostModel::from_dim(3));
    }

    #[test]
    fn cache_memoizes_within_epoch_and_invalidates_dirty_cells() {
        let dict = random_dict(31, 200, 2, 1.0, 0.5);
        let idx = DictionaryIndex::new(dict, 64);
        let coord = idx.dict().entry(0).coord.clone();
        let mut cache = PlanCache::new();
        assert!(cache.get_or_build(&idx, &coord).is_some());
        assert!(cache.get_or_build(&idx, &coord).is_some());
        assert_eq!(cache.stats().built, 1);
        assert_eq!(cache.stats().hits, 1);
        // Next epoch dirties that cell: its plan counts as invalidated and
        // is rebuilt on next use.
        cache.begin_epoch([&coord]);
        assert!(cache.get(&coord).is_none());
        assert_eq!(cache.stats().invalidated, 1);
        assert!(cache.get_or_build(&idx, &coord).is_some());
        assert_eq!(cache.stats().built, 2);
        // A coordinate outside the dictionary has no plan.
        let missing = CellCoord::new([1_000, 1_000]);
        assert!(cache.get_or_build(&idx, &missing).is_none());
    }
}

//! Scoped graph repair for incremental clustering.
//!
//! The batch pipeline (Phase II, [`crate::phase2`]) recomputes core status
//! and successor edges for *every* cell. The streaming subsystem
//! (`rpdbscan-stream`) only needs that computation for the cells an
//! insert/remove batch actually disturbed — a cell's core status and edges
//! depend solely on `(ε,ρ)`-region queries of its own points, so a cell
//! farther than ε from every changed cell (measured box-to-box, see
//! `GridSpec::cell_min_dist2`) is untouched. This module exposes the
//! per-cell repair step and the scoped border-point relabeling check so the
//! stream crate reuses exactly the batch semantics instead of duplicating
//! them.
//!
//! Everything here is keyed by [`CellCoord`] rather than dictionary index:
//! dictionary indices shift as cells appear and disappear across epochs,
//! while coordinates are stable for the lifetime of a cell.

use rpdbscan_geom::dist2;
use rpdbscan_grid::{CellCoord, CellWindow, DictionaryIndex, GridSpec, SubCellEntry, SubCellIdx};

/// Re-derived state of one cell after a mutation epoch: the output of
/// Algorithm 3's per-cell loop, expressed in stable cell coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRepair {
    /// Whether the cell holds at least one core point.
    pub is_core: bool,
    /// Caller-supplied ids of the cell's core points (subset of the input
    /// `points`, in input order).
    pub core_points: Vec<u32>,
    /// Coordinates of every *other* cell holding an `(ε,ρ)`-neighbour
    /// sub-cell of some core point — the cell's successors in the cell
    /// graph. Sorted and deduplicated.
    pub neighbors: Vec<CellCoord>,
    /// `(ε,ρ)`-region density of each input point, in input order — the
    /// quantity compared against `minPts`. Streaming callers cache these
    /// so later epochs can apply per-cell deltas instead of re-querying.
    pub densities: Vec<u64>,
}

/// Recomputes one cell's core status, core-point set, and successor edges
/// against the current dictionary — the unit of work of a streaming repair
/// stage.
///
/// The cell is answered from its ε-window, gathered once into `window`:
/// each point's density is the full-window sum
/// ([`CellWindow::density`]), the points at minPts or above are core, and
/// the successors are the window cells a core point reaches
/// ([`CellWindow::successors_into`]) — the per-point region query's
/// densities and neighbour cells (DESIGN §5.2).
///
/// `points` are opaque caller ids (the stream crate's point slots);
/// `point_of` resolves an id to its coordinates. The dictionary behind
/// `index` must already reflect the epoch's mutations.
pub fn recompute_cell<'a, F>(
    index: &DictionaryIndex,
    window: &mut CellWindow,
    coord: &CellCoord,
    points: &[u32],
    point_of: F,
    min_pts: usize,
) -> CellRepair
where
    F: Fn(u32) -> &'a [f64],
{
    let dict = index.dict();
    let mut repair = CellRepair {
        is_core: false,
        core_points: Vec::new(),
        neighbors: Vec::new(),
        densities: Vec::with_capacity(points.len()),
    };
    let Some(id) = dict.index_of(coord) else {
        return repair; // an emptied cell: no points, nothing to answer
    };
    window.gather(index, id);
    let mut core_rows = Vec::new();
    for &p in points {
        let q = point_of(p);
        let density = window.density(index, q);
        repair.densities.push(density);
        if density >= min_pts as u64 {
            repair.core_points.push(p);
            core_rows.extend_from_slice(q);
        }
    }
    let mut successors = Vec::new();
    window.successors_into(index, &core_rows, &mut successors);
    repair.neighbors = successors
        .into_iter()
        .map(|i| dict.entry(i).coord.clone())
        .collect();
    repair.neighbors.sort_unstable();
    repair.is_core = !repair.core_points.is_empty();
    repair
}

/// The `(ε,ρ)`-density one cell contributes to a query point: the summed
/// counts of its sub-cells whose centres lie within ε of `q` — the
/// per-cell inner step of [`DictionaryIndex::region_query_cells_into`],
/// with the same containment fast paths and bit-identical bounds and
/// distances, computed from the entry so streaming deltas reproduce the
/// full query's arithmetic exactly.
///
/// `scratch` must be a `dim`-sized buffer; it keeps the loop
/// allocation-free.
pub fn cell_contribution(
    spec: &GridSpec,
    q: &[f64],
    coord: &CellCoord,
    subs: &[SubCellEntry],
    scratch: &mut [f64],
) -> u64 {
    if subs.is_empty() {
        return 0;
    }
    let eps2 = spec.eps() * spec.eps();
    let (min_d2, max_d2) = spec.cell_dist2_bounds(coord, q);
    if min_d2 > eps2 {
        return 0;
    }
    if max_d2 <= eps2 {
        return subs.iter().map(|s| s.count as u64).sum();
    }
    let mut sum = 0;
    for s in subs {
        spec.sub_center_into(coord, s.idx, scratch);
        if dist2(q, scratch) <= eps2 {
            sum += s.count as u64;
        }
    }
    sum
}

/// The signed sub-cell population change of one cell across an epoch,
/// produced by [`sub_diff`]. A micro-batch touches a handful of sub-cells
/// even in dense cells, so `entries` stays tiny where the full sub list can
/// run to hundreds — which is what makes per-point density deltas cheap.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubDiff {
    /// `Σ (new − old)` over all sub-cells: the cell's total count change.
    pub total: i64,
    /// `(sub-cell index, new − old count)` for every sub-cell whose count
    /// changed, sorted by index.
    pub entries: Vec<(SubCellIdx, i64)>,
    /// Sub-cells that went from unoccupied to occupied. A count increase
    /// of an already-occupied sub-cell cannot create a cell-graph edge
    /// (qualification is geometric), so these are the only sub-cells that
    /// can.
    pub added: Vec<SubCellIdx>,
    /// Sub-cells that went from occupied to unoccupied — the only
    /// sub-cells whose loss can break an existing edge.
    pub removed: Vec<SubCellIdx>,
}

/// Sorted-merge diff of a cell's sub lists before and after an epoch. Both
/// inputs must be sorted by sub-cell index (the dictionary invariant).
pub fn sub_diff(old: &[SubCellEntry], new: &[SubCellEntry]) -> SubDiff {
    let mut diff = SubDiff::default();
    let (mut i, mut j) = (0, 0);
    while i < old.len() || j < new.len() {
        let (idx, d) = match (old.get(i), new.get(j)) {
            (Some(a), Some(b)) if a.idx == b.idx => {
                let d = b.count as i64 - a.count as i64;
                i += 1;
                j += 1;
                (a.idx, d)
            }
            (Some(a), Some(b)) if a.idx < b.idx => {
                i += 1;
                diff.removed.push(a.idx);
                (a.idx, -(a.count as i64))
            }
            (Some(_) | None, Some(b)) => {
                j += 1;
                diff.added.push(b.idx);
                (b.idx, b.count as i64)
            }
            (Some(a), None) => {
                i += 1;
                diff.removed.push(a.idx);
                (a.idx, -(a.count as i64))
            }
            // Dead under the loop condition (one side is always Some);
            // ending the merge beats panicking if that ever changes.
            (None, None) => break,
        };
        if d != 0 {
            diff.total += d;
            diff.entries.push((idx, d));
        }
    }
    diff
}

/// The change in [`cell_contribution`] implied by a sub-cell diff:
/// exactly `cell_contribution(new) − cell_contribution(old)`, branch for
/// branch. Both calls see the same `(min_d2, max_d2)` bounds for a given
/// `(coord, q)`, so the fast paths short-circuit identically, and in the
/// partially-contained case unchanged sub-cells cancel term by term —
/// only the (few) diff entries need a centre test.
pub fn contribution_delta(
    spec: &GridSpec,
    q: &[f64],
    coord: &CellCoord,
    diff: &SubDiff,
    scratch: &mut [f64],
) -> i64 {
    if diff.entries.is_empty() {
        return 0;
    }
    let eps2 = spec.eps() * spec.eps();
    let (min_d2, max_d2) = spec.cell_dist2_bounds(coord, q);
    if min_d2 > eps2 {
        return 0;
    }
    if max_d2 <= eps2 {
        return diff.total;
    }
    let mut sum = 0;
    for &(idx, d) in &diff.entries {
        spec.sub_center_into(coord, idx, scratch);
        if dist2(q, scratch) <= eps2 {
            sum += d;
        }
    }
    sum
}

/// The exact-ε border check of Algorithm 4 (Lines 18–23), scoped to one
/// point: scans predecessor core cells in the given order and returns the
/// index of the first one holding a core point within ε of `q`, or `None`
/// if the point is an outlier.
///
/// Callers pass `preds` sorted by cell coordinate so the winner matches the
/// batch pipeline's deterministic tie-break in
/// [`crate::label::label_partition`].
pub fn assign_border_point<'a, F>(
    q: &[f64],
    preds: &[(&CellCoord, &[u32])],
    point_of: F,
    eps: f64,
) -> Option<usize>
where
    F: Fn(u32) -> &'a [f64],
{
    let eps2 = eps * eps;
    for (i, (_, cores)) in preds.iter().enumerate() {
        if cores.iter().any(|&p| dist2(point_of(p), q) <= eps2) {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpdbscan_grid::{CellDictionary, GridSpec};

    fn world() -> (GridSpec, Vec<Vec<f64>>) {
        let spec = GridSpec::new(2, 0.5, 0.01).unwrap();
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 * 0.1, 0.0]).collect();
        (spec, rows)
    }

    #[test]
    fn recompute_matches_phase2_on_static_data() {
        use crate::partition::group_by_cell;
        use crate::phase2::{build_local_clustering, QueryRouting};
        let (spec, rows) = world();
        let data = rpdbscan_geom::Dataset::from_rows(2, &rows).unwrap();
        let dict = CellDictionary::build_from_points(spec.clone(), data.iter().map(|(_, p)| p));
        let index = DictionaryIndex::single(dict);
        let cells = group_by_cell(&spec, &data);
        let src = crate::CellSource::Resident {
            data: &data,
            cells: &cells,
        };
        let all: Vec<u32> = (0..cells.len() as u32).collect();
        let local = build_local_clustering(&src, &all, &index, 4, QueryRouting::Window).unwrap();
        for cell in &cells {
            let ids: Vec<u32> = cell.points.iter().map(|p| p.0).collect();
            let rep = recompute_cell(
                &index,
                &mut CellWindow::default(),
                &cell.coord,
                &ids,
                |id| data.point(rpdbscan_geom::PointId(id)),
                4,
            );
            let idx = index.dict().index_of(&cell.coord).unwrap();
            let batch_core = local
                .core_points
                .get(&idx)
                .map(|v| v.iter().map(|p| p.0).collect::<Vec<_>>())
                .unwrap_or_default();
            assert_eq!(rep.core_points, batch_core, "cell {}", cell.coord);
            assert_eq!(
                rep.is_core,
                local.subgraph.cell_type(idx) == crate::graph::CellType::Core
            );
            // Edges out of this cell in the batch graph equal the repair's
            // neighbor set, translated to coordinates.
            let mut batch_nbrs: Vec<CellCoord> = local
                .subgraph
                .edges()
                .iter()
                .filter(|&&(a, _)| a == idx)
                .map(|&(_, b)| index.dict().entry(b).coord.clone())
                .collect();
            batch_nbrs.sort_unstable();
            assert_eq!(rep.neighbors, batch_nbrs, "cell {}", cell.coord);
        }
    }

    #[test]
    fn recompute_matches_per_point_queries() {
        let (spec, rows) = world();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let dict = CellDictionary::build_from_points(spec.clone(), refs);
        let index = DictionaryIndex::single(dict);
        let point_of = |id: u32| rows[id as usize].as_slice();
        let mut by_cell: Vec<(CellCoord, Vec<u32>)> = Vec::new();
        for (i, p) in rows.iter().enumerate() {
            let c = spec.cell_of(p);
            match by_cell.iter_mut().find(|(cc, _)| *cc == c) {
                Some((_, v)) => v.push(i as u32),
                None => by_cell.push((c, vec![i as u32])),
            }
        }
        let mut window = CellWindow::default();
        for (coord, ids) in &by_cell {
            let rep = recompute_cell(&index, &mut window, coord, ids, point_of, 4);
            let own = index.dict().index_of(coord);
            let (mut densities, mut cores, mut nbrs) = (Vec::new(), Vec::new(), Vec::new());
            for &id in ids {
                let r = index.region_query_cells(point_of(id));
                densities.push(r.density);
                if r.density >= 4 {
                    cores.push(id);
                    nbrs.extend(r.neighbor_cells.iter().filter(|&&c| Some(c) != own));
                }
            }
            let mut nbrs: Vec<CellCoord> = nbrs
                .into_iter()
                .map(|c| index.dict().entry(c).coord.clone())
                .collect();
            nbrs.sort_unstable();
            nbrs.dedup();
            assert_eq!(rep.densities, densities, "cell {coord}");
            assert_eq!(rep.core_points, cores, "cell {coord}");
            assert_eq!(rep.is_core, !cores.is_empty());
            assert_eq!(rep.neighbors, nbrs, "cell {coord}");
        }
    }

    #[test]
    fn empty_cell_repairs_to_noncore() {
        let (spec, rows) = world();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let dict = CellDictionary::build_from_points(spec, refs);
        let index = DictionaryIndex::single(dict);
        let rep = recompute_cell(
            &index,
            &mut CellWindow::default(),
            &CellCoord::new([100, 100]),
            &[],
            |_| unreachable!("no points"),
            4,
        );
        assert!(!rep.is_core);
        assert!(rep.core_points.is_empty());
        assert!(rep.neighbors.is_empty());
    }

    #[test]
    fn contributions_sum_to_region_query_density() {
        let (spec, rows) = world();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let dict = CellDictionary::build_from_points(spec.clone(), refs);
        let index = DictionaryIndex::single(dict.clone());
        let mut scratch = vec![0.0; 2];
        for q in &rows {
            let full = index.region_query_cells(q);
            let total: u64 = dict
                .cells()
                .iter()
                .map(|e| cell_contribution(&spec, q, &e.coord, &e.subs, &mut scratch))
                .sum();
            assert_eq!(total, full.density, "q = {q:?}");
        }
    }

    #[test]
    fn contribution_delta_matches_full_difference() {
        let (spec, rows) = world();
        let old_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let old_dict = CellDictionary::build_from_points(spec.clone(), old_refs);
        // New population: drop the first three points, add a few others —
        // cells appear, disappear, and shift counts.
        let added = [vec![0.05, 0.0], vec![2.0, 0.0], vec![0.9, 0.02]];
        let new_rows: Vec<&[f64]> = rows[3..]
            .iter()
            .chain(added.iter())
            .map(|r| r.as_slice())
            .collect();
        let new_dict = CellDictionary::build_from_points(spec.clone(), new_rows);
        let no_subs: &[SubCellEntry] = &[];
        let mut coords: Vec<CellCoord> = old_dict
            .cells()
            .iter()
            .chain(new_dict.cells())
            .map(|e| e.coord.clone())
            .collect();
        coords.sort_unstable();
        coords.dedup();
        let mut scratch = vec![0.0; 2];
        for c in &coords {
            let old = old_dict.get(c).map_or(no_subs, |e| e.subs.as_slice());
            let new = new_dict.get(c).map_or(no_subs, |e| e.subs.as_slice());
            let diff = sub_diff(old, new);
            // added/removed are exactly the occupancy flips.
            let occupancy =
                |subs: &[SubCellEntry], idx| subs.iter().any(|s| s.idx == idx && s.count > 0);
            for &(idx, _) in &diff.entries {
                assert_eq!(
                    diff.added.contains(&idx),
                    !occupancy(old, idx) && occupancy(new, idx)
                );
                assert_eq!(
                    diff.removed.contains(&idx),
                    occupancy(old, idx) && !occupancy(new, idx)
                );
            }
            for q in rows.iter().chain(added.iter()) {
                let want = cell_contribution(&spec, q, c, new, &mut scratch) as i64
                    - cell_contribution(&spec, q, c, old, &mut scratch) as i64;
                let got = contribution_delta(&spec, q, c, &diff, &mut scratch);
                assert_eq!(got, want, "cell {c}, q = {q:?}");
            }
        }
        // Identical lists diff to nothing.
        let e = &old_dict.cells()[0];
        assert_eq!(sub_diff(&e.subs, &e.subs), SubDiff::default());
    }

    #[test]
    fn border_assignment_first_qualifying_wins() {
        let a = CellCoord::new([0, 0]);
        let b = CellCoord::new([1, 0]);
        let pts = [vec![0.0, 0.0], vec![0.5, 0.0], vec![10.0, 0.0]];
        let point_of = |id: u32| pts[id as usize].as_slice();
        let a_cores: &[u32] = &[0];
        let b_cores: &[u32] = &[1, 2];
        let preds: Vec<(&CellCoord, &[u32])> = vec![(&a, a_cores), (&b, b_cores)];
        // q within eps of cores of both cells: the first listed cell wins.
        assert_eq!(
            assign_border_point(&[0.3, 0.0], &preds, point_of, 0.6),
            Some(0)
        );
        // q within eps of only the second cell's cores.
        assert_eq!(
            assign_border_point(&[0.8, 0.0], &preds, point_of, 0.4),
            Some(1)
        );
        // q near nothing.
        assert_eq!(
            assign_border_point(&[5.0, 5.0], &preds, point_of, 0.5),
            None
        );
    }
}

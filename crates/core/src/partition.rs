//! Phase I-1: pseudo random partitioning (Algorithm 2, first part).
//!
//! Points are grouped into cells, and whole *cells* are distributed to
//! partitions uniformly at random — retaining DBSCAN's need for local
//! contiguity (everything in one cell is mutually within ε) while getting
//! the load balance of a random split (Figure 2). Every cell lands in
//! exactly one partition, so no point is ever duplicated: the total number
//! of points processed equals `N` exactly (Figure 14's RP-DBSCAN series).

use crate::driver::point_ranges;
use crate::CoreError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rpdbscan_engine::Engine;
use rpdbscan_geom::{Dataset, PointId};
use rpdbscan_grid::{CellCoord, CellRuns, GridSpec};

/// The points of one cell, kept together through partitioning.
#[derive(Debug, Clone)]
pub struct CellPoints {
    /// The cell's lattice coordinate.
    pub coord: CellCoord,
    /// Ids of the points inside the cell, ascending.
    pub points: Vec<PointId>,
}

/// Groups the data set's points by cell, cells in coordinate order: one
/// [`CellRuns::sort`] of every point, on the calling thread.
///
/// This is Algorithm 2's first Map/Reduce pair (`emit(cid, p)` then
/// aggregation by cell id); [`group_by_cell_staged`] runs the same pair
/// on the engine.
pub fn group_by_cell(spec: &GridSpec, data: &Dataset) -> Vec<CellPoints> {
    cell_points(&CellRuns::sort(spec, data.flat(), 0), PointId)
}

/// [`group_by_cell`] as two engine stages, a sample sort. The Map sorts
/// each of `k` point ranges by cell (`phase1-1:sort-by-cell`); the
/// splitters cut the sorted runs' cells into key ranges; the Reduce
/// merges each key range of every run (`phase1-1:merge-by-cell`). The
/// merged buckets, concatenated, equal [`group_by_cell`]'s output.
pub fn group_by_cell_staged(
    engine: &Engine,
    spec: &GridSpec,
    data: &Dataset,
    k: usize,
) -> Result<Vec<CellPoints>, CoreError> {
    let dim = spec.dim();
    let flat = data.flat();
    let ranges = point_ranges(data.len(), k);
    let sorted = engine.run_stage("phase1-1:sort-by-cell", ranges, |_ctx, (lo, hi)| {
        Ok(CellRuns::sort(spec, &flat[lo * dim..hi * dim], lo as u32))
    })?;
    let runs = sorted.outputs;
    let splitters = CellRuns::splitters(&runs, k);
    let buckets: Vec<usize> = (0..=splitters.len() / dim).collect();
    let merged = engine.run_stage("phase1-1:merge-by-cell", buckets, |_ctx, bucket| {
        let bucket = CellRuns::merge(dim, &runs, &splitters, bucket);
        Ok(cell_points(&bucket, PointId))
    })?;
    Ok(merged.outputs.concat())
}

/// One [`CellPoints`] per cell of `runs`, in directory order, each id
/// `i` becoming `id(i)`.
fn cell_points(runs: &CellRuns, id: impl Fn(u32) -> PointId) -> Vec<CellPoints> {
    (0..runs.len())
        .map(|ci| CellPoints {
            coord: runs.coord(ci),
            points: runs.ids(ci).iter().map(|&i| id(i)).collect(),
        })
        .collect()
}

/// Distributes items over `k` partitions uniformly at random
/// (Algorithm 2, Lines 5–11: a random key per cell, then aggregation by
/// key). A seeded shuffle followed by round-robin dealing realises the
/// paper's "partitions of the same size" with counts equal to ±1.
///
/// The batch pipeline deals directory cell *indices* (positions in a
/// [`crate::CellSource`]'s coordinate-sorted cell list). Because
/// `StdRng::seed_from_u64` plus `shuffle` depend only on the seed and
/// the item count, the resident and paged sources of the same points
/// are dealt identically — the anchor of their bit-for-bit output
/// equivalence.
pub fn pseudo_random_deal<T>(items: Vec<T>, k: usize, seed: u64) -> Vec<Vec<T>> {
    assert!(k >= 1, "need at least one partition");
    let mut items = items;
    let mut rng = StdRng::seed_from_u64(seed);
    items.shuffle(&mut rng);
    let mut parts: Vec<Vec<T>> = (0..k)
        .map(|_| Vec::with_capacity(items.len() / k + 1))
        .collect();
    for (i, item) in items.into_iter().enumerate() {
        parts[i % k].push(item);
    }
    parts
}

/// Ablation variant: *true* random partitioning of individual points
/// (Figure 1b without the cell trick). Cells are split across partitions,
/// so each partition re-derives its own (partial) cells. Used by the
/// ablation bench to show why the pseudo variant is needed.
pub fn true_random_partition(
    spec: &GridSpec,
    data: &Dataset,
    k: usize,
    seed: u64,
) -> Vec<Vec<CellPoints>> {
    assert!(k >= 1, "need at least one partition");
    let mut ids: Vec<PointId> = data.ids().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    ids.shuffle(&mut rng);
    let mut coords = Vec::new();
    (0..k)
        .map(|pid| {
            // The partition's ids ascending, so its local ids (gather
            // order) map to ascending global ones.
            let mut slice: Vec<PointId> = ids.iter().skip(pid).step_by(k).copied().collect();
            slice.sort_unstable();
            coords.clear();
            for &id in &slice {
                coords.extend_from_slice(data.point(id));
            }
            cell_points(&CellRuns::sort(spec, &coords, 0), |local| {
                slice[local as usize]
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let flat: Vec<f64> = (0..n * 2).map(|_| rng.gen_range(0.0..50.0)).collect();
        Dataset::from_flat(2, flat).unwrap()
    }

    fn spec() -> GridSpec {
        GridSpec::new(2, 1.0, 0.5).unwrap()
    }

    fn num_points(part: &[CellPoints]) -> usize {
        part.iter().map(|c| c.points.len()).sum()
    }

    #[test]
    fn grouping_covers_every_point_once() {
        let d = data(500, 1);
        let cells = group_by_cell(&spec(), &d);
        let total: usize = cells.iter().map(|c| c.points.len()).sum();
        assert_eq!(total, 500);
        let mut seen = vec![false; 500];
        for c in &cells {
            for p in &c.points {
                assert!(!seen[p.index()], "point duplicated");
                seen[p.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn grouped_points_really_share_the_cell() {
        let d = data(300, 2);
        let s = spec();
        for c in group_by_cell(&s, &d) {
            for p in &c.points {
                assert_eq!(s.cell_of(d.point(*p)), c.coord);
            }
        }
    }

    #[test]
    fn partitions_are_disjoint_and_cover() {
        let d = data(400, 3);
        let cells = group_by_cell(&spec(), &d);
        let n_cells = cells.len();
        let parts = pseudo_random_deal(cells, 7, 42);
        assert_eq!(parts.len(), 7);
        let total_cells: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total_cells, n_cells);
        let total_points: usize = parts.iter().map(|p| num_points(p)).sum();
        assert_eq!(total_points, 400, "duplication must be exactly zero");
    }

    #[test]
    fn cell_counts_differ_by_at_most_one() {
        let d = data(1000, 4);
        let cells = group_by_cell(&spec(), &d);
        let parts = pseudo_random_deal(cells, 6, 0);
        let counts: Vec<usize> = parts.iter().map(Vec::len).collect();
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min <= 1, "{counts:?}");
    }

    #[test]
    fn partitioning_is_seed_deterministic() {
        let d = data(200, 5);
        let a = pseudo_random_deal(group_by_cell(&spec(), &d), 4, 7);
        let b = pseudo_random_deal(group_by_cell(&spec(), &d), 4, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.len(), y.len());
            for (cx, cy) in x.iter().zip(y) {
                assert_eq!(cx.coord, cy.coord);
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let d = data(300, 6);
        let a = pseudo_random_deal(group_by_cell(&spec(), &d), 4, 1);
        let b = pseudo_random_deal(group_by_cell(&spec(), &d), 4, 2);
        let same = a.iter().zip(&b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(cx, cy)| cx.coord == cy.coord)
        });
        assert!(!same, "shuffle appears seed-independent");
    }

    #[test]
    fn single_partition_keeps_everything() {
        let d = data(100, 7);
        let parts = pseudo_random_deal(group_by_cell(&spec(), &d), 1, 0);
        assert_eq!(parts.len(), 1);
        assert_eq!(num_points(&parts[0]), 100);
    }

    #[test]
    fn true_random_covers_and_may_split_cells() {
        let d = data(600, 8);
        let s = spec();
        let parts = true_random_partition(&s, &d, 5, 3);
        let total: usize = parts.iter().map(|p| num_points(p)).sum();
        assert_eq!(total, 600);
        // Point-level balance is near-exact by construction.
        for p in &parts {
            assert!((num_points(p) as i64 - 120).abs() <= 1);
        }
    }

    /// The staged sample sort lists the same cells and ids as one sort,
    /// from empty input to more ranges than points.
    #[test]
    fn staged_grouping_equals_one_sort() {
        let engine = Engine::new(3);
        for (n, k) in [(0, 4), (1, 4), (3, 8), (500, 1), (500, 6), (1000, 16)] {
            let d = data(n, 9 + n as u64);
            let staged = group_by_cell_staged(&engine, &spec(), &d, k).unwrap();
            let once = group_by_cell(&spec(), &d);
            assert_eq!(staged.len(), once.len(), "n {n} k {k}");
            for (a, b) in staged.iter().zip(&once) {
                assert_eq!((&a.coord, &a.points), (&b.coord, &b.points), "n {n} k {k}");
            }
        }
        let rep = engine.report();
        for stage in ["phase1-1:sort-by-cell", "phase1-1:merge-by-cell"] {
            assert!(rep.stages.iter().any(|s| s.name == stage), "{stage}");
        }
    }
}

//! The per-cell answer of Phase II and of stream repair.
//!
//! Phase II needs two facts about each cell: which of its points are
//! core, and which cells its core points reach. Neither needs a per-point
//! region query. [`CellWindow`] gathers the cell's ε-window once
//! ([`DictionaryIndex::window_at`]) and answers both from it, with the
//! two grid-DBSCAN techniques of Wang, Gu and Shun:
//!
//! * **Early-exit core marking.** A window whose total density is below
//!   minPts holds no core point, so the cell needs no per-point work.
//!   Otherwise each point sums the window nearest first (its own cell,
//!   then by box-to-box gap) and stops as soon as the sum reaches minPts.
//! * **Per-cell connectivity.** A window cell is a successor when one
//!   core point reaches it, so the core points are tried per candidate
//!   until the first hit ([`CellWindow::successors_into`]).
//!
//! Stream repair caches every point's density, so it sums the whole
//! window instead, with no early exit ([`CellWindow::density`]).
//!
//! Every per-cell contribution is the one the per-point query computes
//! (same box bounds, same kernel, same layout values), and the window
//! holds every cell that query can count, so core flags and successors
//! equal those of [`DictionaryIndex::region_query_cells_into`]; only the
//! order of the summation changes, and integer sums do not depend on it.

use crate::query::{box_dist2_bounds, cell_contribution};
use crate::subdict::{DictionaryIndex, GatherScratch};
use rpdbscan_geom::kernel;

/// One cell's ε-window, gathered once and read by every point of the
/// cell. Holds its buffers across gathers, so a caller that keeps one
/// per partition (Phase II) or per repair task (stream repair) allocates
/// nothing in steady state.
///
/// Its methods take the index the window was gathered from.
#[derive(Debug, Clone, Default)]
pub struct CellWindow {
    /// The query cell's layout position.
    own: u32,
    /// The window's cells as layout positions, nearest first.
    cells: Vec<u32>,
    /// Σ densities of the window's cells.
    total: u64,
    /// Gather scratch.
    scratch: GatherScratch,
    /// Sort scratch: nearness key per gathered cell, bucket offsets,
    /// and the sorted positions.
    keys: Vec<usize>,
    starts: Vec<usize>,
    sorted: Vec<u32>,
}

impl CellWindow {
    /// Gathers the window of the cell with dictionary id `id`, replacing
    /// the previous one, and orders it nearest first: the own cell, then
    /// by squared box-to-box gap in lattice steps, ties by the number of
    /// axes stepped (face neighbours before edge and corner ones).
    pub fn gather(&mut self, index: &DictionaryIndex, id: u32) {
        let layout = index.layout();
        self.own = layout.pos_of(id);
        index.window_into(self.own, &mut self.scratch, &mut self.cells);
        self.total = self.cells.iter().map(|&p| layout.total(p)).sum();
        let own = layout.coord(self.own);
        let dim = own.len();
        // Counting sort on (squared gap, axes stepped): both are at most
        // `dim` inside the window, and only the own cell steps no axis. A
        // comparison sort of the ~55 cells of a 3-d window cost about as
        // much as the gather itself.
        let width = dim + 1;
        self.keys.clear();
        self.keys.extend(self.cells.iter().map(|&p| {
            let (mut gap2, mut axes) = (0usize, 0usize);
            for (&a, &b) in own.iter().zip(layout.coord(p)) {
                let d = a.abs_diff(b) as usize;
                gap2 += d.saturating_sub(1).pow(2);
                axes += usize::from(d != 0);
            }
            gap2.min(dim) * width + axes
        }));
        self.starts.clear();
        self.starts.resize(width * width + 1, 0);
        for &k in &self.keys {
            self.starts[k + 1] += 1;
        }
        for i in 1..self.starts.len() {
            self.starts[i] += self.starts[i - 1];
        }
        self.sorted.clear();
        self.sorted.resize(self.cells.len(), 0);
        for (&p, &k) in self.cells.iter().zip(&self.keys) {
            self.sorted[self.starts[k]] = p;
            self.starts[k] += 1;
        }
        std::mem::swap(&mut self.cells, &mut self.sorted);
    }

    /// Σ densities of the window's cells: an upper bound on the
    /// region-query density of every point of the cell. Below minPts, no
    /// point of the cell is core.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether `p` (a point of the cell) has region-query density of at
    /// least `min_pts`, i.e. is a core point. Sums the window nearest
    /// first and stops at `min_pts`.
    pub fn is_core(&self, index: &DictionaryIndex, p: &[f64], min_pts: u64) -> bool {
        self.density_until(index, p, min_pts) >= min_pts
    }

    /// The region-query density of `p` (a point of the cell): the sum
    /// over every window cell, with no early exit. Equals the `density`
    /// of [`DictionaryIndex::region_query_cells`], because the window
    /// holds every cell that query can count.
    pub fn density(&self, index: &DictionaryIndex, p: &[f64]) -> u64 {
        self.density_until(index, p, u64::MAX)
    }

    /// Sums the window's contributions to the density of `p` nearest
    /// first, stopping once the sum reaches `stop`.
    // lint:hot
    #[inline]
    fn density_until(&self, index: &DictionaryIndex, p: &[f64], stop: u64) -> u64 {
        let spec = index.spec();
        let layout = index.layout();
        let eps2 = spec.eps() * spec.eps();
        let mut density = 0u64;
        for &c in &self.cells {
            let Some(contribution) = cell_contribution(
                layout.origin(c),
                spec.side(),
                layout.subs(c),
                layout.total(c),
                eps2,
                p,
            ) else {
                continue;
            };
            density += contribution.density;
            if density >= stop {
                break;
            }
        }
        density
    }

    /// Appends to `out`, ascending, the dictionary id of every window
    /// cell other than the own cell that some row of `rows` (the cell's
    /// core points, row-major) reaches: the sorted, deduplicated union of
    /// the `neighbor_cells` their per-point queries would report, less
    /// the own cell.
    ///
    /// A row reaches a cell when its box bounds admit the cell and it
    /// either holds the whole box within ε or has a sub-cell centre
    /// within ε: the bounds and the kernel of the per-point query, so a
    /// row reaches the cell exactly when its query would list the cell.
    /// The rows are tried per cell until the first hit.
    // lint:hot
    pub fn successors_into(&self, index: &DictionaryIndex, rows: &[f64], out: &mut Vec<u32>) {
        let spec = index.spec();
        let layout = index.layout();
        let (side, eps2) = (spec.side(), spec.eps() * spec.eps());
        let dim = spec.dim();
        debug_assert_eq!(rows.len() % dim, 0, "ragged row buffer");
        let from = out.len();
        for &c in &self.cells {
            if c == self.own {
                continue;
            }
            let (lo, centers) = (layout.origin(c), layout.subs(c).0);
            let reached = rows.chunks_exact(dim).any(|p| {
                let (min_acc, max_acc) = box_dist2_bounds(lo, side, p);
                min_acc <= eps2 && (max_acc <= eps2 || kernel::any_within(p, centers, dim, eps2))
            });
            if reached {
                out.push(layout.id(c));
            }
        }
        out[from..].sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellCoord;
    use crate::dictionary::{CellDictionary, CellEntry};
    use crate::spec::GridSpec;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// `n` points in `[0, extent)^dim`, summarised into a dictionary whose
    /// ids follow a shuffled (deal-like) order, not coordinate order;
    /// returned with the points.
    fn shuffled_dict(
        seed: u64,
        n: usize,
        dim: usize,
        extent: f64,
        rho: f64,
    ) -> (CellDictionary, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = GridSpec::new(dim, 0.9, rho).unwrap();
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(0.0..extent)).collect())
            .collect();
        let sorted =
            CellDictionary::build_from_points(spec.clone(), pts.iter().map(|p| p.as_slice()));
        let mut entries: Vec<CellEntry> = sorted.cells().to_vec();
        entries.shuffle(&mut rng);
        (CellDictionary::from_entries(spec, entries), pts)
    }

    /// The brute-force window: every dictionary cell `in_eps_window`
    /// accepts, by dictionary id, ascending.
    fn brute_window(dict: &CellDictionary, id: u32) -> Vec<u32> {
        brute_window_at(dict, &dict.entry(id).coord)
    }

    /// [`brute_window`] of any lattice coordinate, occupied or not.
    fn brute_window_at(dict: &CellDictionary, own: &CellCoord) -> Vec<u32> {
        let spec = dict.spec();
        let mut ids: Vec<u32> = (0..dict.num_cells() as u32)
            .filter(|&c| spec.in_eps_window(own, &dict.entry(c).coord))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Unoccupied lattice coordinates around `dict`'s cells: a step off
    /// every few cells (mostly gaps between cells), and the corners of
    /// the occupied extent pushed out by `b − 1`, `b` and `b + 3` lattice
    /// steps (`b` the window reach), which touch the lattice, graze it
    /// and miss it.
    fn unoccupied_probes(dict: &CellDictionary) -> Vec<CellCoord> {
        let dim = dict.spec().dim();
        let b = dict.spec().window_reach();
        let mut probes = Vec::new();
        for (i, cell) in dict.cells().iter().enumerate().step_by(3) {
            let mut c = cell.coord.coords().to_vec();
            c[i % dim] += if i % 2 == 0 { 1 } else { -2 };
            probes.push(CellCoord::new(c));
        }
        let (mut lo, mut hi) = (vec![i64::MAX; dim], vec![i64::MIN; dim]);
        for cell in dict.cells() {
            for (a, &x) in cell.coord.coords().iter().enumerate() {
                lo[a] = lo[a].min(x);
                hi[a] = hi[a].max(x);
            }
        }
        for push in [b - 1, b, b + 3] {
            probes.push(CellCoord::new(lo.iter().map(|&x| x - push)));
            probes.push(CellCoord::new(hi.iter().map(|&x| x + push)));
            let mut mixed = lo.clone();
            mixed[0] = hi[0] + push;
            probes.push(CellCoord::new(mixed));
        }
        probes.retain(|c| dict.index_of(c).is_none());
        probes
    }

    #[test]
    fn window_into_matches_brute_force_scan_on_both_gathers() {
        let (mut scratch, mut out) = (GatherScratch::default(), Vec::new());
        let mut window = CellWindow::default();
        let (mut walked, mut searched) = (0, 0);
        let (mut unoccupied, mut nonempty) = (0, 0);
        for dim in 1..=5 {
            // A small extent fills few columns, a large one many: the
            // stencil's column bound and the gather rule's cost estimate
            // take both gathers across the sweep.
            for (extent, n) in [(2.0, 40), (12.0, 400)] {
                let (dict, pts) = shuffled_dict(dim as u64 * 31 + n as u64, n, dim, extent, 0.25);
                let mut members: Vec<Vec<&[f64]>> = vec![Vec::new(); dict.num_cells()];
                for p in &pts {
                    let id = dict.index_of(&dict.spec().cell_of(p)).unwrap();
                    members[id as usize].push(p);
                }
                for cap in [1, 16, u64::MAX] {
                    let idx = DictionaryIndex::new(dict.clone(), cap);
                    if idx.column_walks() {
                        walked += 1;
                    } else {
                        searched += 1;
                    }
                    let layout = idx.layout();
                    // Unoccupied coordinates: gaps and off the lattice.
                    for probe in unoccupied_probes(&dict) {
                        idx.window_at(probe.coords(), &mut scratch, &mut out);
                        assert!(out.windows(2).all(|w| w[0] < w[1]), "not ascending");
                        let mut ids: Vec<u32> = out.iter().map(|&p| layout.id(p)).collect();
                        ids.sort_unstable();
                        let at = format!("dim {dim} n {n} cap {cap} probe {probe}");
                        assert_eq!(ids, brute_window_at(&dict, &probe), "{at}");
                        unoccupied += 1;
                        nonempty += usize::from(!ids.is_empty());
                    }
                    for id in 0..dict.num_cells() as u32 {
                        idx.window_into(layout.pos_of(id), &mut scratch, &mut out);
                        assert!(out.windows(2).all(|w| w[0] < w[1]), "not ascending");
                        let mut ids: Vec<u32> = out.iter().map(|&p| layout.id(p)).collect();
                        ids.sort_unstable();
                        let at = format!("dim {dim} n {n} cap {cap} cell {id}");
                        assert_eq!(ids, brute_window(&dict, id), "{at}");
                        // The full-window density is the per-point query's.
                        window.gather(&idx, id);
                        for &p in &members[id as usize] {
                            let want = idx.region_query_cells(p).density;
                            assert_eq!(window.density(&idx, p), want, "{at}");
                        }
                    }
                }
            }
        }
        assert!(
            walked > 0 && searched > 0,
            "walked {walked}, searched {searched}"
        );
        assert!(
            nonempty > 0 && nonempty < unoccupied,
            "{nonempty} of {unoccupied} unoccupied windows hold a cell"
        );
    }

    #[test]
    fn window_is_nearest_first_and_totals_its_cells() {
        let (dict, _) = shuffled_dict(5, 300, 3, 6.0, 0.1);
        let idx = DictionaryIndex::new(dict.clone(), 32);
        let mut w = CellWindow::default();
        for id in 0..dict.num_cells() as u32 {
            w.gather(&idx, id);
            let layout = idx.layout();
            assert_eq!(layout.id(w.cells[0]), id, "own cell first");
            let want: u64 = brute_window(&dict, id)
                .iter()
                .map(|&c| dict.entry(c).count as u64)
                .sum();
            assert_eq!(w.total(), want);
            let gaps: Vec<f64> = w
                .cells
                .iter()
                .map(|&c| {
                    dict.spec()
                        .cell_min_dist2(&dict.entry(id).coord, &dict.entry(layout.id(c)).coord)
                })
                .collect();
            assert!(gaps.windows(2).all(|g| g[0] <= g[1]), "cell {id}: {gaps:?}");
        }
    }
}

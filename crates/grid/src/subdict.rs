//! Sub-dictionaries: BSP defragmentation and MBR skipping (§4.2.2, §5.2).
//!
//! A worker cannot always hold the whole dictionary resident, so the
//! dictionary is kept as disjoint *sub-dictionaries* (Definition 4.4).
//! *Dictionary defragmentation* reallocates cells so that contiguous cells
//! share a sub-dictionary and sub-dictionaries have similar sizes; the
//! paper adopts binary space partitioning that enumerates cut candidates
//! and picks the one minimising the size difference of the two components.
//! Each sub-dictionary carries a minimum bounding rectangle (Definition
//! 5.9) so region queries can skip irrelevant sub-dictionaries wholesale
//! (Lemma 5.10), plus a kd-tree over its cell centres for the
//! `O(log |cell|)` candidate search of Lemma 5.6.
//!
//! Next to the fragments the index keeps `CellLayout`, a flat copy of
//! the dictionary in dictionary order: cell box origins, cell densities
//! and every sub-cell's centre and count. Region queries and plan builds
//! read candidates from it instead of chasing each [`CellEntry`]'s boxed
//! coordinate and sub-cell list and decoding the packed sub-cell index of
//! every centre they test.
//!
//! [`CellEntry`]: crate::dictionary::CellEntry

use crate::dictionary::CellDictionary;
use crate::spec::GridSpec;
use rpdbscan_geom::{Aabb, KdTree};

/// One defragmented fragment of the dictionary.
#[derive(Debug, Clone)]
pub struct SubDictionary {
    /// Dictionary indices of the cells in this fragment.
    cell_ids: Vec<u32>,
    /// MBR over the member cells' boxes (Definition 5.9).
    mbr: Aabb,
    /// kd-tree over member cell centres; payload = dictionary cell index.
    tree: KdTree,
    /// Root+leaf entry count (the "size" balanced by defragmentation).
    weight: u64,
}

impl SubDictionary {
    fn build(spec: &GridSpec, dict: &CellDictionary, cell_ids: Vec<u32>) -> Self {
        debug_assert!(!cell_ids.is_empty());
        let dim = spec.dim();
        let mut mbr: Option<Aabb> = None;
        let mut coords = Vec::with_capacity(cell_ids.len() * dim);
        let mut weight = 0u64;
        for &id in &cell_ids {
            let entry = dict.entry(id);
            let bb = spec.cell_aabb(&entry.coord);
            match &mut mbr {
                Some(m) => m.union(&bb),
                None => mbr = Some(bb),
            }
            coords.extend_from_slice(&spec.cell_center(&entry.coord));
            weight += 1 + entry.subs.len() as u64;
        }
        let tree = KdTree::build(dim, coords, cell_ids.clone());
        Self {
            cell_ids,
            mbr: mbr.expect("non-empty fragment"), // lint:allow(panic-safety): fragments are built from at least one cell, so the union is Some
            tree,
            weight,
        }
    }

    /// Dictionary indices of member cells.
    pub fn cell_ids(&self) -> &[u32] {
        &self.cell_ids
    }

    /// The fragment's minimum bounding rectangle.
    pub fn mbr(&self) -> &Aabb {
        &self.mbr
    }

    /// The fragment's kd-tree over cell centres.
    pub(crate) fn tree(&self) -> &KdTree {
        &self.tree
    }

    /// Root+leaf entry count.
    pub fn weight(&self) -> u64 {
        self.weight
    }
}

/// The dictionary in structure-of-arrays form, cells in dictionary
/// order: what the query hot loops read (§5 region queries and
/// [`crate::plan::CellQueryPlan`] builds).
///
/// Every value is the one the entry-based arithmetic produces: origins
/// are `coord as f64 · side` as in [`GridSpec::cell_dist2_bounds`], and
/// centres are [`GridSpec::sub_center_into`]'s output, so a query over
/// the layout is bit-identical to one decoding [`CellDictionary`]
/// entries. It costs `8·dim + 12` bytes per cell (origin, density,
/// offset) and `8·dim + 4` per sub-cell (centre, count).
#[derive(Debug, Clone)]
pub(crate) struct CellLayout {
    dim: usize,
    /// Box origin per cell, `dim` values each.
    origins: Vec<f64>,
    /// Σ sub-cell densities per cell.
    totals: Vec<u64>,
    /// CSR offsets into `centers`/`counts` (`len = cells + 1`).
    sub_start: Vec<u32>,
    /// Sub-cell centres, `dim` values each, cells' sub-cells contiguous.
    centers: Vec<f64>,
    /// Sub-cell densities, parallel to `centers`.
    counts: Vec<u32>,
}

impl CellLayout {
    fn build(dict: &CellDictionary) -> Self {
        let spec = dict.spec();
        let dim = spec.dim();
        let side = spec.side();
        let subs = dict.num_sub_cells();
        assert!(
            u32::try_from(subs).is_ok(),
            "{subs} sub-cells overflow the layout's u32 offsets"
        );
        let mut layout = Self {
            dim,
            origins: Vec::with_capacity(dict.num_cells() * dim),
            totals: Vec::with_capacity(dict.num_cells()),
            sub_start: Vec::with_capacity(dict.num_cells() + 1),
            centers: vec![0.0; subs * dim],
            counts: Vec::with_capacity(subs),
        };
        layout.sub_start.push(0);
        for entry in dict.cells() {
            layout
                .origins
                .extend(entry.coord.coords().iter().map(|&c| c as f64 * side));
            let mut total = 0u64;
            for sub in &entry.subs {
                let k = layout.counts.len();
                spec.sub_center_into(
                    &entry.coord,
                    sub.idx,
                    &mut layout.centers[k * dim..(k + 1) * dim],
                );
                layout.counts.push(sub.count);
                total += sub.count as u64;
            }
            layout.totals.push(total);
            layout.sub_start.push(layout.counts.len() as u32);
        }
        layout
    }

    /// Cell `i`'s box origin (minimum corner).
    #[inline]
    pub(crate) fn origin(&self, i: u32) -> &[f64] {
        let i = i as usize;
        &self.origins[i * self.dim..(i + 1) * self.dim]
    }

    /// Cell `i`'s density (Σ of its sub-cell counts).
    #[inline]
    pub(crate) fn total(&self, i: u32) -> u64 {
        self.totals[i as usize]
    }

    /// Cell `i`'s sub-cells: their centres (`dim` values each) and
    /// counts.
    #[inline]
    pub(crate) fn subs(&self, i: u32) -> (&[f64], &[u32]) {
        let i = i as usize;
        let (a, b) = (self.sub_start[i] as usize, self.sub_start[i + 1] as usize);
        (
            &self.centers[a * self.dim..b * self.dim],
            &self.counts[a..b],
        )
    }
}

/// The queryable form of a broadcast dictionary: defragmented
/// sub-dictionaries with MBRs and per-fragment kd-trees, plus the flat
/// `CellLayout` the queries read.
#[derive(Debug, Clone)]
pub struct DictionaryIndex {
    dict: CellDictionary,
    subdicts: Vec<SubDictionary>,
    layout: CellLayout,
}

impl DictionaryIndex {
    /// Defragments `dict` into sub-dictionaries of at most
    /// `max_entries_per_subdict` root+leaf entries each (the "available
    /// main memory" budget of §4.2.2) and indexes each fragment.
    ///
    /// A zero capacity is meaningless — every fragment must hold at least
    /// one cell's root+leaf entries — so it is clamped to 1, which
    /// degenerates to one fragment per cell (queries still return the
    /// exact same results, just without batching).
    pub fn new(dict: CellDictionary, max_entries_per_subdict: u64) -> Self {
        // Clamp before anything else so `new(d, 0)` and `new(d, 1)` are
        // the same index by construction (regression: the clamp used to
        // sit inside the non-empty branch only).
        let cap = max_entries_per_subdict.max(1);
        let spec = dict.spec().clone();
        let n = dict.num_cells();
        let mut subdicts = Vec::new();
        if n > 0 {
            let mut items: Vec<u32> = (0..n as u32).collect();
            let mut out: Vec<Vec<u32>> = Vec::new();
            bsp_split(&spec, &dict, &mut items, cap, &mut out);
            subdicts = out
                .into_iter()
                .map(|ids| SubDictionary::build(&spec, &dict, ids))
                .collect();
        }
        let layout = CellLayout::build(&dict);
        Self {
            dict,
            subdicts,
            layout,
        }
    }

    /// Ablation helper: a single un-defragmented sub-dictionary covering
    /// everything (what §5.2 compares against). Same construction path as
    /// [`Self::new`], just with an unbounded memory budget.
    pub fn single(dict: CellDictionary) -> Self {
        Self::new(dict, u64::MAX)
    }

    /// The underlying dictionary.
    #[inline]
    pub fn dict(&self) -> &CellDictionary {
        &self.dict
    }

    /// Drops the sub-dictionary fragments and hands back the dictionary.
    pub fn into_dict(self) -> CellDictionary {
        self.dict
    }

    /// The grid spec.
    #[inline]
    pub fn spec(&self) -> &GridSpec {
        self.dict.spec()
    }

    /// The sub-dictionaries.
    #[inline]
    pub fn subdicts(&self) -> &[SubDictionary] {
        &self.subdicts
    }

    /// Number of fragments.
    pub fn num_subdicts(&self) -> usize {
        self.subdicts.len()
    }

    /// The flat query layout.
    #[inline]
    pub(crate) fn layout(&self) -> &CellLayout {
        &self.layout
    }
}

/// Recursive BSP: splits `items` (dictionary cell indices) until each
/// fragment's entry weight fits the cap, cutting along the candidate that
/// best balances the two sides, as in §4.2.2.
fn bsp_split(
    spec: &GridSpec,
    dict: &CellDictionary,
    items: &mut Vec<u32>,
    cap: u64,
    out: &mut Vec<Vec<u32>>,
) {
    let weight = |id: u32| -> u64 { 1 + dict.entry(id).subs.len() as u64 };
    let total: u64 = items.iter().map(|&i| weight(i)).sum();
    if total <= cap || items.len() <= 1 {
        out.push(std::mem::take(items));
        return;
    }
    let dim = spec.dim();
    // Pick, over all dimensions, the cut between adjacent distinct lattice
    // coordinates minimising the weight difference of the two components.
    let mut best: Option<(usize, i64, u64)> = None; // (dim, cut_after, diff)
    let mut sorted = items.clone();
    for d in 0..dim {
        sorted.sort_unstable_by_key(|&i| dict.entry(i).coord.coords()[d]);
        let mut prefix = 0u64;
        for w in sorted.windows(2) {
            prefix += weight(w[0]);
            let (a, b) = (
                dict.entry(w[0]).coord.coords()[d],
                dict.entry(w[1]).coord.coords()[d],
            );
            if a == b {
                continue; // cut must fall between distinct coordinates
            }
            let diff = prefix.abs_diff(total - prefix);
            if best.is_none_or(|(_, _, bd)| diff < bd) {
                best = Some((d, a, diff));
            }
        }
        // windows(2) misses the last element's weight; irrelevant since a
        // cut after the final element keeps everything on one side.
    }
    match best {
        Some((d, cut_after, _)) => {
            let (mut left, mut right): (Vec<u32>, Vec<u32>) = items
                .drain(..)
                .partition(|&i| dict.entry(i).coord.coords()[d] <= cut_after);
            debug_assert!(!left.is_empty() && !right.is_empty());
            bsp_split(spec, dict, &mut left, cap, out);
            bsp_split(spec, dict, &mut right, cap, out);
        }
        None => {
            // Every cell shares one lattice coordinate in all dimensions —
            // a single cell duplicated is impossible, so this means one
            // coordinate only: emit as-is.
            out.push(std::mem::take(items));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellCoord;

    fn dict_grid(nx: i64, ny: i64) -> CellDictionary {
        // One point per cell on an nx × ny lattice.
        let spec = GridSpec::new(2, 2.0f64.sqrt(), 0.5).unwrap(); // side 1
        let mut pts = Vec::new();
        for x in 0..nx {
            for y in 0..ny {
                pts.push(vec![x as f64 + 0.5, y as f64 + 0.5]);
            }
        }
        let refs: Vec<&[f64]> = pts.iter().map(|p| p.as_slice()).collect();
        CellDictionary::build_from_points(spec, refs)
    }

    #[test]
    fn fragments_are_disjoint_and_cover() {
        let dict = dict_grid(8, 8);
        let n = dict.num_cells();
        let idx = DictionaryIndex::new(dict, 20);
        assert!(idx.num_subdicts() > 1);
        let mut seen = vec![false; n];
        for sd in idx.subdicts() {
            for &c in sd.cell_ids() {
                assert!(!seen[c as usize], "cell {c} in two fragments");
                seen[c as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some cell missing from fragments");
    }

    #[test]
    fn fragment_weights_respect_cap() {
        let dict = dict_grid(10, 10); // weight 2 per cell (1 cell + 1 sub)
        let idx = DictionaryIndex::new(dict, 30);
        for sd in idx.subdicts() {
            assert!(sd.weight() <= 30, "fragment weight {}", sd.weight());
        }
    }

    #[test]
    fn balanced_cuts_roughly_halve() {
        let dict = dict_grid(16, 1);
        let idx = DictionaryIndex::new(dict, 17); // force one split of 32
        assert_eq!(idx.num_subdicts(), 2);
        let w: Vec<u64> = idx.subdicts().iter().map(|s| s.weight()).collect();
        assert_eq!(w[0] + w[1], 32);
        assert!(w[0].abs_diff(w[1]) <= 2, "unbalanced: {w:?}");
    }

    #[test]
    fn mbr_covers_member_cells() {
        let dict = dict_grid(6, 6);
        let spec = dict.spec().clone();
        let idx = DictionaryIndex::new(dict, 24);
        for sd in idx.subdicts() {
            for &c in sd.cell_ids() {
                let bb = spec.cell_aabb(&idx.dict().entry(c).coord);
                assert!(sd.mbr().contains(bb.min()));
                assert!(sd.mbr().contains(bb.max()));
            }
        }
    }

    #[test]
    fn single_puts_everything_in_one_fragment() {
        let dict = dict_grid(5, 5);
        let idx = DictionaryIndex::single(dict);
        assert_eq!(idx.num_subdicts(), 1);
        assert_eq!(idx.subdicts()[0].cell_ids().len(), 25);
    }

    #[test]
    fn zero_capacity_is_clamped_not_degenerate() {
        // Regression: a zero budget used to reach bsp_split unclamped in
        // some constructions; it must behave exactly like capacity 1
        // (one fragment per cell) and answer queries identically to the
        // single-fragment ablation index.
        let dict = dict_grid(4, 4);
        let zero = DictionaryIndex::new(dict.clone(), 0);
        let one = DictionaryIndex::new(dict.clone(), 1);
        let single = DictionaryIndex::single(dict);
        assert_eq!(zero.num_subdicts(), 16, "expected one fragment per cell");
        assert_eq!(zero.num_subdicts(), one.num_subdicts());
        for x in 0..5 {
            for y in 0..5 {
                let p = [x as f64 + 0.3, y as f64 + 0.7];
                let a = zero.region_query_cells(&p);
                let b = single.region_query_cells(&p);
                assert_eq!(a.density, b.density);
                let mut ca = a.neighbor_cells.clone();
                let mut cb = b.neighbor_cells.clone();
                ca.sort_unstable();
                cb.sort_unstable();
                assert_eq!(ca, cb);
            }
        }
    }

    #[test]
    fn empty_dictionary_yields_no_fragments() {
        let spec = GridSpec::new(2, 1.0, 0.5).unwrap();
        let dict = CellDictionary::build_from_points(spec, std::iter::empty());
        let idx = DictionaryIndex::new(dict, 10);
        assert_eq!(idx.num_subdicts(), 0);
    }

    #[test]
    fn identical_column_cannot_split_along_that_dim() {
        // All cells share x = 0; splitting must happen along y.
        let spec = GridSpec::new(2, 2.0f64.sqrt(), 0.5).unwrap();
        let mut pts = Vec::new();
        for y in 0..10 {
            pts.push(vec![0.5, y as f64 + 0.5]);
        }
        let refs: Vec<&[f64]> = pts.iter().map(|p| p.as_slice()).collect();
        let dict = CellDictionary::build_from_points(spec, refs);
        let idx = DictionaryIndex::new(dict, 8);
        assert!(idx.num_subdicts() >= 2);
        for sd in idx.subdicts() {
            assert!(sd.weight() <= 8);
        }
        let _ = CellCoord::new([0, 0]); // silence unused import in cfg(test)
    }
}

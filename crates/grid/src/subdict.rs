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
//! `O(log |cell|)` candidate search of Lemma 5.6. The fragments are
//! built the first time a query needs them.
//!
//! Next to the fragments the index keeps `CellLayout`, a flat copy of
//! the dictionary in coordinate order: lattice coordinates, cell box
//! origins, cell densities and every sub-cell's centre and count, plus a
//! column directory. Region queries and the ε-window gather read
//! candidates from it instead of chasing each [`CellEntry`]'s boxed
//! coordinate and sub-cell list and decoding the packed sub-cell index of
//! every centre they test. Rows are *layout positions*; everything the
//! index reports is a dictionary id, mapped through one permutation.
//!
//! [`CellEntry`]: crate::dictionary::CellEntry

use crate::cell::for_each_in_box;
use crate::dictionary::CellDictionary;
use crate::fxhash::FxHashMap;
use crate::plan::PLAN_SLACK;
use crate::spec::GridSpec;
use rpdbscan_geom::{Aabb, KdTree};
use std::sync::OnceLock;

/// One defragmented fragment of the dictionary.
#[derive(Debug, Clone)]
pub struct SubDictionary {
    /// Dictionary indices of the cells in this fragment.
    cell_ids: Vec<u32>,
    /// MBR over the member cells' boxes (Definition 5.9).
    mbr: Aabb,
    /// kd-tree over member cell centres; payload = the cell's layout
    /// position.
    tree: KdTree,
    /// Root+leaf entry count (the "size" balanced by defragmentation).
    weight: u64,
}

impl SubDictionary {
    fn build(
        spec: &GridSpec,
        dict: &CellDictionary,
        layout: &CellLayout,
        cell_ids: Vec<u32>,
    ) -> Self {
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
        let positions = cell_ids.iter().map(|&id| layout.pos_of(id)).collect();
        let tree = KdTree::build(dim, coords, positions);
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

    /// The fragment's kd-tree over cell centres. Its payloads are layout
    /// positions, not dictionary ids, so it stays inside the crate.
    pub(crate) fn tree(&self) -> &KdTree {
        &self.tree
    }

    /// Root+leaf entry count.
    pub fn weight(&self) -> u64 {
        self.weight
    }
}

/// The dictionary in structure-of-arrays form, cells in coordinate
/// order: what the query hot loops read (§5 region queries and the
/// ε-window gather of [`DictionaryIndex::window_into`]).
///
/// A cell's row is its *layout position*, the rank of its lattice
/// coordinate; its dictionary id (deal order, which numbers clusters)
/// is read through `ids`, and `pos_of` maps back. Neighbouring cells
/// therefore sit close in memory, and the cells sharing their leading
/// `d−1` coordinates (a *column*) form one run of positions, ascending
/// in the last coordinate, which `columns` finds by those coordinates.
///
/// Every value is the one the entry-based arithmetic produces: origins
/// are `coord as f64 · side` as in [`GridSpec::cell_dist2_bounds`], and
/// centres are [`GridSpec::sub_center_into`]'s output, so a query over
/// the layout is bit-identical to one decoding [`CellDictionary`]
/// entries. It costs `16·dim + 20` bytes per cell (coordinate, origin,
/// density, offset, both permutation entries) plus a directory entry per
/// column, and `8·dim + 4` per sub-cell (centre, count).
#[derive(Debug, Clone)]
pub(crate) struct CellLayout {
    dim: usize,
    /// Dictionary id per position.
    ids: Vec<u32>,
    /// Position per dictionary id (the inverse of `ids`).
    pos_of: Vec<u32>,
    /// Lattice coordinate per position, `dim` values each.
    coords: Vec<i64>,
    /// Box origin per position, `dim` values each.
    origins: Vec<f64>,
    /// Σ sub-cell densities per position.
    totals: Vec<u64>,
    /// CSR offsets into `centers`/`counts` (`len = cells + 1`).
    sub_start: Vec<u32>,
    /// Sub-cell centres, `dim` values each, cells' sub-cells contiguous.
    centers: Vec<f64>,
    /// Sub-cell densities, parallel to `centers`.
    counts: Vec<u32>,
    /// Column directory: leading `d−1` coordinates → the column's
    /// positions `start..end`.
    columns: FxHashMap<Box<[i64]>, (u32, u32)>,
}

impl CellLayout {
    fn build(dict: &CellDictionary) -> Self {
        let spec = dict.spec();
        let dim = spec.dim();
        let side = spec.side();
        let n = dict.num_cells();
        let subs = dict.num_sub_cells();
        assert!(
            u32::try_from(subs).is_ok(),
            "{subs} sub-cells overflow the layout's u32 offsets"
        );
        let mut ids: Vec<u32> = (0..n as u32).collect();
        ids.sort_unstable_by(|&a, &b| dict.entry(a).coord.cmp(&dict.entry(b).coord));
        let mut layout = Self {
            dim,
            pos_of: vec![0; n],
            coords: Vec::with_capacity(n * dim),
            origins: Vec::with_capacity(n * dim),
            totals: Vec::with_capacity(n),
            sub_start: Vec::with_capacity(n + 1),
            centers: vec![0.0; subs * dim],
            counts: Vec::with_capacity(subs),
            columns: FxHashMap::default(),
            ids,
        };
        layout.sub_start.push(0);
        for (pos, &id) in layout.ids.iter().enumerate() {
            let entry = dict.entry(id);
            let coord = entry.coord.coords();
            layout.pos_of[id as usize] = pos as u32;
            layout.coords.extend_from_slice(coord);
            layout
                .origins
                .extend(coord.iter().map(|&c| c as f64 * side));
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
            // Sorted order makes each column one run: extend the run the
            // previous position opened, or open a new one.
            let lead = &coord[..dim - 1];
            match layout.columns.get_mut(lead) {
                Some(run) => run.1 = pos as u32 + 1,
                None => {
                    layout
                        .columns
                        .insert(lead.into(), (pos as u32, pos as u32 + 1));
                }
            }
        }
        layout
    }

    /// The dictionary id of the cell at position `pos`.
    #[inline]
    pub(crate) fn id(&self, pos: u32) -> u32 {
        self.ids[pos as usize]
    }

    /// The position of the cell with dictionary id `id`.
    #[inline]
    pub(crate) fn pos_of(&self, id: u32) -> u32 {
        self.pos_of[id as usize]
    }

    /// The lattice coordinate of the cell at `pos`.
    #[inline]
    pub(crate) fn coord(&self, pos: u32) -> &[i64] {
        let i = pos as usize;
        &self.coords[i * self.dim..(i + 1) * self.dim]
    }

    /// Cell `pos`'s box origin (minimum corner).
    #[inline]
    pub(crate) fn origin(&self, pos: u32) -> &[f64] {
        let i = pos as usize;
        &self.origins[i * self.dim..(i + 1) * self.dim]
    }

    /// Cell `pos`'s density (Σ of its sub-cell counts).
    #[inline]
    pub(crate) fn total(&self, pos: u32) -> u64 {
        self.totals[pos as usize]
    }

    /// Cell `pos`'s sub-cells: their centres (`dim` values each) and
    /// counts.
    #[inline]
    pub(crate) fn subs(&self, pos: u32) -> (&[f64], &[u32]) {
        let i = pos as usize;
        let (a, b) = (self.sub_start[i] as usize, self.sub_start[i + 1] as usize);
        (
            &self.centers[a * self.dim..b * self.dim],
            &self.counts[a..b],
        )
    }

    /// The positions of the column with leading coordinates `lead`
    /// whose last coordinate lies in `lo..=hi`.
    fn column_range(&self, lead: &[i64], lo: i64, hi: i64) -> std::ops::Range<u32> {
        let Some(&(start, end)) = self.columns.get(lead) else {
            return 0..0;
        };
        let last = |pos: u32| self.coords[pos as usize * self.dim + self.dim - 1];
        partition_point(start, end, |pos| last(pos) < lo)..partition_point(start, end, |pos| {
            last(pos) <= hi
        })
    }
}

/// The first position in `a..b` where `pred` turns false (`pred` holds
/// on a prefix of the range).
fn partition_point(mut a: u32, mut b: u32, pred: impl Fn(u32) -> bool) -> u32 {
    while a < b {
        let mid = a + (b - a) / 2;
        if pred(mid) {
            a = mid + 1;
        } else {
            b = mid;
        }
    }
    a
}

/// The queryable form of a broadcast dictionary: the flat `CellLayout`
/// the queries read, plus defragmented sub-dictionaries with MBRs and
/// per-fragment kd-trees.
///
/// The fragments are built on first use ([`Self::subdicts`]): by the
/// per-point region query, the kd search of [`Self::window_into`] and
/// the gather rule's sample. An index whose windows take the column walk
/// (every 1- to 3-d one) never builds them.
#[derive(Debug, Clone)]
pub struct DictionaryIndex {
    dict: CellDictionary,
    /// The fragments' root+leaf entry budget (at least 1).
    cap: u64,
    subdicts: OnceLock<Vec<SubDictionary>>,
    layout: CellLayout,
    /// The column walk's stencil, or `None` when [`Self::window_into`]
    /// runs the kd search instead.
    stencil: Option<ColumnStencil>,
}

/// The lattice columns of the `±b` window that hold a window cell,
/// relative to the query cell, in lexicographic order: each column's
/// leading `d−1` offsets and the largest last-coordinate offset
/// [`GridSpec::in_eps_window`] accepts in it. The window test depends on
/// an offset only through its per-axis gaps, and a larger gap only adds
/// to the distance, so the offsets up to that reach are exactly the
/// column's window cells.
#[derive(Debug, Clone)]
struct ColumnStencil {
    /// Leading offsets, `d−1` per column.
    leads: Vec<i64>,
    /// Last-coordinate reach per column.
    reach: Vec<i64>,
}

impl ColumnStencil {
    fn new(spec: &GridSpec) -> Self {
        let dim = spec.dim();
        let b = spec.window_reach();
        let origin = vec![0i64; dim];
        let mut offset = vec![0i64; dim];
        let mut stencil = Self {
            leads: Vec::new(),
            reach: Vec::new(),
        };
        for_each_in_box(&vec![-b; dim - 1], &vec![b; dim - 1], |lead| {
            offset[..dim - 1].copy_from_slice(lead);
            let reach = (0..=b).rev().find(|&r| {
                offset[dim - 1] = r;
                spec.in_eps_window_at(&origin, &offset)
            });
            if let Some(r) = reach {
                stencil.leads.extend_from_slice(lead);
                stencil.reach.push(r);
            }
        });
        stencil
    }
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
        let layout = CellLayout::build(&dict);
        let window_columns = (2 * spec.window_reach() + 1).checked_pow(spec.dim() as u32 - 1);
        let stencil = window_columns
            .is_some_and(|w| w as usize <= layout.columns.len())
            .then(|| ColumnStencil::new(&spec));
        let mut index = Self {
            dict,
            cap,
            subdicts: OnceLock::new(),
            layout,
            stencil: None,
        };
        index.stencil = stencil.filter(|s| index.column_walk_pays(s));
        index
    }

    /// BSP defragmentation and the per-fragment MBRs and kd-trees.
    fn build_subdicts(&self) -> Vec<SubDictionary> {
        let (spec, dict) = (self.spec(), &self.dict);
        let n = dict.num_cells();
        if n == 0 {
            return Vec::new();
        }
        let mut items: Vec<u32> = (0..n as u32).collect();
        let mut out: Vec<Vec<u32>> = Vec::new();
        bsp_split(spec, dict, &mut items, self.cap, &mut out);
        out.into_iter()
            .map(|ids| SubDictionary::build(spec, dict, &self.layout, ids))
            .collect()
    }

    /// Whether the fragments have been built.
    #[cfg(test)]
    pub(crate) fn subdicts_built(&self) -> bool {
        self.subdicts.get().is_some()
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

    /// The sub-dictionaries, built on the first call.
    #[inline]
    pub fn subdicts(&self) -> &[SubDictionary] {
        self.subdicts.get_or_init(|| self.build_subdicts())
    }

    /// Number of fragments (builds them).
    pub fn num_subdicts(&self) -> usize {
        self.subdicts().len()
    }

    /// The flat query layout.
    #[inline]
    pub(crate) fn layout(&self) -> &CellLayout {
        &self.layout
    }

    /// Whether the ε-window gather walks the column directory (`true`)
    /// or searches the fragment kd-trees (`false`); fixed when the index
    /// is built (see [`Self::window_into`]).
    pub fn column_walks(&self) -> bool {
        self.stencil.is_some()
    }

    /// The ε-window of the cell at layout position `pos`: every occupied
    /// cell that [`GridSpec::in_eps_window`] accepts, the cell itself
    /// included, as ascending layout positions (coordinate order). Clears
    /// `out` first; a caller that keeps `scratch` across gathers
    /// allocates nothing in steady state.
    ///
    /// Two gathers return the same set; a rule fixed when the index is
    /// built picks one. The *column walk* visits the window's lattice
    /// columns (a stencil of at most `(2b+1)^(d−1)`, `b` =
    /// [`GridSpec::window_reach`]), finds each in the column directory
    /// and binary-searches it for the run of last coordinates within the
    /// column's reach, so no cell is tested. The *kd search* searches the
    /// fragment kd-trees from the cell's box, with the box-level Lemma
    /// 5.10 skip and radius `ε + diag`, and filters the hits by the
    /// window test.
    ///
    /// The column walk costs one directory probe per stencil column
    /// whatever the data (25 columns in 3-d, 179 in 4-d, 1,273 in 5-d,
    /// 8,255 in 6-d). The kd search pays a fixed traversal plus a test
    /// per tree hit, and its hits grow with the density around the cell.
    /// The rule prices both in probes ([`KD_BASE_PROBES`],
    /// [`PROBES_PER_HIT`]) and runs the column walk when its stencil
    /// costs no more than the kd search's mean over up to
    /// [`RULE_SAMPLE`] cells spread over the layout; a stencil cheaper
    /// than the kd traversal alone (every 1- to 3-d one) needs no sample.
    /// A stencil box with more columns than the directory holds is not
    /// built at all.
    // lint:hot
    pub(crate) fn window_into(&self, pos: u32, scratch: &mut GatherScratch, out: &mut Vec<u32>) {
        out.clear();
        match &self.stencil {
            Some(stencil) => self.walk_columns(stencil, pos, &mut scratch.column, out),
            None => {
                self.search_window(pos, scratch, out);
                out.sort_unstable();
            }
        }
    }

    /// The column walk of [`Self::window_into`]; `column` is scratch for
    /// the probe key.
    // lint:hot
    fn walk_columns(
        &self,
        stencil: &ColumnStencil,
        pos: u32,
        column: &mut Vec<i64>,
        out: &mut Vec<u32>,
    ) {
        let layout = &self.layout;
        let dim = layout.dim;
        let c = layout.coord(pos);
        let (lead, last) = (&c[..dim - 1], c[dim - 1]);
        column.clear();
        column.resize(dim - 1, 0);
        // Columns in lexicographic order, each column's run ascending:
        // the positions come out sorted.
        'columns: for (k, &r) in stencil.reach.iter().enumerate() {
            let offsets = &stencil.leads[k * (dim - 1)..(k + 1) * (dim - 1)];
            for ((q, &x), &o) in column.iter_mut().zip(lead).zip(offsets) {
                // A column past the lattice's i64 range is empty.
                let Some(v) = x.checked_add(o) else {
                    continue 'columns;
                };
                *q = v;
            }
            out.extend(layout.column_range(column, last.saturating_sub(r), last.saturating_add(r)));
        }
    }

    /// The kd search of [`Self::window_into`]: appends the window's
    /// positions to `out` in visit order and returns the number of tree
    /// hits it tested (the gather rule's measure of its cost).
    // lint:hot
    fn search_window(&self, pos: u32, scratch: &mut GatherScratch, out: &mut Vec<u32>) -> usize {
        let spec = self.spec();
        let layout = &self.layout;
        let eps2 = spec.eps() * spec.eps();
        let side = spec.side();
        let c = layout.coord(pos);
        let qlo = layout.origin(pos);
        let qhi = &mut scratch.hi;
        qhi.clear();
        qhi.extend(qlo.iter().map(|v| v + side));
        let kd_radius = spec.eps() + spec.cell_diag();
        let mut hits = 0;
        for sd in self.subdicts() {
            // Box-level Lemma 5.10: qualifying sub-cell centres lie inside
            // the fragment MBR, so the fragment is irrelevant to every
            // point of the query box when the box-to-MBR distance exceeds
            // ε (checked with the conservative slack).
            let (mlo, mhi) = (sd.mbr().min(), sd.mbr().max());
            let mut mbr_min2 = 0.0;
            for (a, (&l, &h)) in qlo.iter().zip(qhi.iter()).enumerate() {
                let g = if h < mlo[a] {
                    mlo[a] - h
                } else if l > mhi[a] {
                    l - mhi[a]
                } else {
                    0.0
                };
                mbr_min2 += g * g;
            }
            if mbr_min2 > eps2 * (1.0 + PLAN_SLACK) {
                continue;
            }
            sd.tree()
                .for_each_near_box(qlo, qhi, kd_radius, &mut scratch.stack, |p, _| {
                    hits += 1;
                    if spec.in_eps_window_at(c, layout.coord(p)) {
                        out.push(p);
                    }
                });
        }
        hits
    }

    /// The gather rule of [`Self::window_into`]: whether the column walk
    /// over `stencil` is expected to cost no more than the kd search.
    fn column_walk_pays(&self, stencil: &ColumnStencil) -> bool {
        let n = self.layout.ids.len();
        let k = n.min(RULE_SAMPLE);
        // The probes the sampled kd hits must outweigh: none when the
        // stencil is cheaper than the kd search's traversal alone (every
        // 1- to 3-d stencil), so no search runs then.
        let excess = stencil.reach.len().saturating_sub(KD_BASE_PROBES) * k;
        let (mut scratch, mut out) = (GatherScratch::default(), Vec::new());
        let mut hits = 0;
        // Stops as soon as the hits outweigh the probes, so a dense index
        // pays for few samples.
        excess == 0
            || (0..k).any(|i| {
                hits += self.search_window((i * n / k) as u32, &mut scratch, &mut out);
                out.clear();
                hits * PROBES_PER_HIT >= excess
            })
    }
}

/// Cells the gather rule of [`DictionaryIndex::window_into`] samples.
const RULE_SAMPLE: usize = 64;

/// The gather rule's kd cost per cell, in column-walk probes (a
/// directory lookup and binary search, 30–75 ns on the 2-core host of
/// EXPERIMENTS.md, "The gather rule"): the traversal a kd search pays
/// even when it hits one cell, ~3 µs there, ...
const KD_BASE_PROBES: usize = 64;
/// ... and each tree hit it tests, 80–240 ns there in 3- and 4-d. So a
/// kd search costs about `KD_BASE_PROBES + PROBES_PER_HIT · hits`
/// probes.
const PROBES_PER_HIT: usize = 4;

/// Scratch buffers of [`DictionaryIndex::window_into`].
#[derive(Debug, Clone, Default)]
pub(crate) struct GatherScratch {
    /// The column walk's probe key.
    column: Vec<i64>,
    /// The kd search's query box upper corner.
    hi: Vec<f64>,
    /// The kd search's traversal stack.
    stack: Vec<(u32, f64)>,
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

    /// `n` uniform points in `[0, extent)^dim`, summarised at ε = `eps`.
    fn uniform_dict(dim: usize, n: usize, extent: f64, eps: f64) -> CellDictionary {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(dim as u64);
        let pts: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(0.0..extent)).collect())
            .collect();
        let spec = GridSpec::new(dim, eps, 0.5).unwrap();
        CellDictionary::build_from_points(spec, pts.iter().map(|p| p.as_slice()))
    }

    #[test]
    fn gather_rule_prices_column_walk_against_kd_search() {
        // 3-d: the 25-column stencil is cheaper than any kd search.
        assert!(DictionaryIndex::single(uniform_dict(3, 200, 1_000.0, 1.0)).column_walks());
        // 4-d, side 1, ~86% of an 8^4 lattice occupied: the kd search
        // hits hundreds of cells, more than the 179-column stencil costs.
        let dense = DictionaryIndex::single(uniform_dict(4, 8_000, 8.0, 2.0));
        assert!(dense.layout.columns.len() >= 343, "the stencil is built");
        assert!(dense.column_walks());
        // 5-d, one point per cell and column: the kd search hits about
        // one cell, far cheaper than probing 1,273 columns.
        let sparse = DictionaryIndex::single(uniform_dict(5, 3_000, 1_000.0, 1.0));
        assert!(sparse.layout.columns.len() >= 2_401, "the stencil is built");
        assert!(!sparse.column_walks());
        // Empty: nothing to sample, nothing to gather.
        let spec = GridSpec::new(4, 1.0, 0.5).unwrap();
        let empty = CellDictionary::build_from_points(spec, std::iter::empty());
        let _ = DictionaryIndex::single(empty).column_walks();
    }

    #[test]
    fn fragments_are_built_on_first_use_only() {
        let dict = uniform_dict(3, 600, 12.0, 1.5);
        let (mut scratch, mut out) = (GatherScratch::default(), Vec::new());
        for cap in [1, 8, u64::MAX] {
            // 3-d windows take the column walk: no fragment is built.
            let lazy = DictionaryIndex::new(dict.clone(), cap);
            assert!(lazy.column_walks());
            for pos in 0..dict.num_cells() as u32 {
                lazy.window_into(pos, &mut scratch, &mut out);
                assert!(!out.is_empty());
            }
            assert!(!lazy.subdicts_built(), "cap {cap}");
            // A per-point query builds them, and answers as an index
            // whose fragments were built before any query.
            let eager = DictionaryIndex::new(dict.clone(), cap);
            assert!(eager.num_subdicts() > 0 && eager.subdicts_built());
            for cell in dict.cells() {
                let p = dict.spec().cell_center(&cell.coord);
                let (a, b) = (lazy.region_query_cells(&p), eager.region_query_cells(&p));
                assert_eq!(a.density, b.density, "cap {cap}");
                assert_eq!(a.neighbor_cells, b.neighbor_cells, "cap {cap}");
                assert_eq!(a.stats, b.stats, "cap {cap}");
            }
            assert!(lazy.subdicts_built(), "cap {cap}");
            assert_eq!(lazy.num_subdicts(), eager.num_subdicts());
        }
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

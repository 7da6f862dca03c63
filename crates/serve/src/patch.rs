//! Copy-on-write shard patching: the one way shards are built.
//!
//! [`ServingIndex::apply_patch`] builds the next index generation from a
//! base generation plus each shard's dirty cells and label rows. Shards
//! none of whose cells are dirty are `Arc`-shared with the base
//! wholesale; a patched shard clones its row table (`Arc` pointer
//! copies) and rebuilds only the dirty rows, keeping every surviving
//! cell's row number stable.
//!
//! A full build ([`ServingIndex::from_batch`],
//! [`ServingIndex::from_stream`]) is this patch applied to an empty
//! generation, with every exported cell dirty and every label row
//! given. [`ServingIndex::patch_from_stream`] applies it to a previous
//! generation, with the dirty set
//! [`StreamingRpDbscan::dirty_cells_since`]: every cell whose exported
//! record changed in any epoch after the base generation — structural
//! changes (membership, core set, predecessors, sub-cell summaries),
//! cells emptied entirely, and cells whose cluster id moved (the
//! stream's sticky renumbering stamps exactly the ids that moved, so no
//! per-record rescan is needed here).
//!
//! Row stability is what makes the plan-cache carry-over sound: a
//! [`CellPlan`](crate::CellPlan) only references cells within ε of its
//! home cell, so a plan whose ε-window contains no dirty cell resolves
//! against the patched index exactly as it did against the base — the
//! [`PatchSummary`] exports that window (`invalidates`) and the server
//! carries everything outside it.

use crate::index::{fnv64, shard_of_cell, shard_of_point};
use crate::index::{CellRecord, ClusterStats, LabelShard, ServingIndex, Shard};
use crate::ServeError;
use rpdbscan_core::CellExport;
use rpdbscan_grid::{for_each_in_box, CellCoord, CellDictionary, FxHashMap, FxHashSet, GridSpec};
use rpdbscan_stream::StreamingRpDbscan;
use std::sync::Arc;

/// How an incremental publish ([`ServingIndex::patch_from_stream`])
/// differed from its base generation.
#[derive(Debug, Clone)]
pub struct PatchSummary {
    base_generation: u64,
    patched_shards: usize,
    shared_shards: usize,
    patched_label_shards: usize,
    shared_label_shards: usize,
    rebuilt_cells: usize,
    removed_cells: usize,
    /// The super-cells overlapping the ε-window of a dirty cell: a
    /// conservative, cache-resident stand-in for the exact invalidation
    /// set. `None` when even the super enumeration was infeasible (high
    /// dimension × many dirty cells), in which case every plan counts as
    /// invalidated.
    invalid: Option<SuperCells>,
}

/// Marked *super-cells*: `(b+1)`-cell-wide lattice blocks, `b` the
/// candidate-window reach. A plan is invalidated when its home cell's
/// super-cell is marked — possibly a false positive (the super-cell is
/// coarser than ε, and a 64-bit hash can collide), never a false
/// negative, so carrying the rest is sound.
#[derive(Debug, Clone)]
struct SuperCells {
    /// Super-cell width in lattice cells.
    width: i64,
    /// FNV hashes of the marked super-cell coordinates.
    marked: FxHashSet<u64>,
}

impl PatchSummary {
    /// Generation of the index this patch was built against.
    pub fn base_generation(&self) -> u64 {
        self.base_generation
    }

    /// Cell shards rebuilt because at least one of their cells changed.
    pub fn patched_shards(&self) -> usize {
        self.patched_shards
    }

    /// Cell shards `Arc`-shared with the base generation untouched.
    pub fn shared_shards(&self) -> usize {
        self.shared_shards
    }

    /// Label shards rebuilt because at least one row changed.
    pub fn patched_label_shards(&self) -> usize {
        self.patched_label_shards
    }

    /// Label shards `Arc`-shared with the base generation untouched.
    pub fn shared_label_shards(&self) -> usize {
        self.shared_label_shards
    }

    /// Cell records rebuilt (inserted or updated).
    pub fn rebuilt_cells(&self) -> usize {
        self.rebuilt_cells
    }

    /// Cell records tombstoned (their cell was emptied).
    pub fn removed_cells(&self) -> usize {
        self.removed_cells
    }

    /// Whether a plan homed at `coord` must be rebuilt: true whenever
    /// some dirty cell lies within ε of `coord`'s box, conservatively
    /// true for some nearby cells beyond ε (super-cell granularity),
    /// and true for everything when the window was infeasible.
    pub fn invalidates(&self, coord: &CellCoord) -> bool {
        self.invalid.as_ref().is_none_or(|s| {
            let super_coord = coord.coords().iter().map(|&c| c.div_euclid(s.width));
            s.marked.contains(&fnv64(super_coord))
        })
    }

    /// Whether the patch bounded its invalidation set — when false,
    /// every cached plan counts as invalidated and nothing is carried.
    pub fn can_carry(&self) -> bool {
        self.invalid.is_some()
    }
}

/// Cluster `c`'s stats row, growing `clusters` with empty rows up to it.
fn cluster_entry(clusters: &mut Vec<ClusterStats>, c: u32) -> &mut ClusterStats {
    while clusters.len() <= c as usize {
        clusters.push(ClusterStats {
            cluster: clusters.len() as u32,
            points: 0,
            core_points: 0,
            core_cells: 0,
        });
    }
    &mut clusters[c as usize]
}

/// Per-cluster summaries folded from every core cell's
/// `(cluster, core points)` and every point's label, sized to the
/// highest cluster id present. Folded over plain sequences, so the
/// totals never depend on hash-map iteration order.
fn fold_cluster_stats(
    core_cells: impl IntoIterator<Item = (u32, usize)>,
    point_labels: impl IntoIterator<Item = Option<u32>>,
) -> Vec<ClusterStats> {
    let mut clusters = Vec::new();
    for (c, core_points) in core_cells {
        let entry = cluster_entry(&mut clusters, c);
        entry.core_cells += 1;
        entry.core_points += core_points;
    }
    for c in point_labels.into_iter().flatten() {
        cluster_entry(&mut clusters, c).points += 1;
    }
    clusters
}

/// One shard's dirty cells: `(coord, export)` items, the export `None`
/// for a cell that emptied.
pub(crate) type DirtyCell = (CellCoord, Option<CellExport>);

/// The label half of a patch, bucketed by label shard.
pub(crate) enum LabelRows {
    /// Only the rows that can have moved since the base: per shard, the
    /// `(id, label)` updates and the ids whose rows are dropped.
    Delta {
        upd: Vec<Vec<(u32, Option<u32>)>>,
        del: Vec<Vec<u32>>,
    },
    /// Every row of the new generation, per shard.
    Full(Vec<Vec<(u32, Option<u32>)>>),
}

impl LabelRows {
    /// Buckets every row of a generation over `k` label shards.
    pub(crate) fn full(rows: impl IntoIterator<Item = (u32, Option<u32>)>, k: usize) -> Self {
        let mut by_shard = vec![Vec::new(); k];
        for (id, l) in rows {
            by_shard[shard_of_point(id, k)].push((id, l));
        }
        LabelRows::Full(by_shard)
    }
}

/// The stream's cells at `coords` bucketed over `k` cell shards, each
/// exported lazily — by its shard's worker. Sorted `coords` keep every
/// shard's rows in coordinate order.
pub(crate) fn stream_cells<'a>(
    stream: &'a StreamingRpDbscan,
    coords: impl IntoIterator<Item = &'a CellCoord>,
    k: usize,
) -> Vec<impl Iterator<Item = DirtyCell> + Send + 'a> {
    let mut by_shard: Vec<Vec<&CellCoord>> = vec![Vec::new(); k];
    for c in coords {
        by_shard[shard_of_cell(c, k)].push(c);
    }
    by_shard
        .into_iter()
        .map(move |cs| {
            cs.into_iter()
                .map(move |c| (c.clone(), stream.export_cell(c)))
        })
        .collect()
}

/// Rebuilds the dirty rows of one shard on top of the base generation's
/// row table. Everything untouched is an `Arc` pointer copy; surviving
/// cells keep their rows, emptied cells leave tombstones on the free
/// list, new cells fill freed rows first — the one place shard rows are
/// inserted. Returns the patched shard and its `(rebuilt, removed)` row
/// counts; every record swap's cluster contribution (core cells and
/// core points, signed) is appended to `deltas` so a patch can adjust
/// the base cluster stats instead of re-folding every record. `scratch`
/// must hold `dim` slots.
// lint:hot
fn patch_shard(
    base: &Shard,
    dirty: impl Iterator<Item = DirtyCell>,
    dict: &CellDictionary,
    generation: u64,
    scratch: &mut [f64],
    deltas: &mut Vec<(u32, i64, i64)>,
) -> (Shard, usize, usize) {
    let dim = dict.spec().dim();
    let contribution = |rec: &CellRecord, sign: i64| {
        rec.cluster
            .map(|c| (c, sign, sign * (rec.core.len() / dim) as i64))
    };
    let mut cells = base.cells.clone();
    let mut records = base.records.clone();
    let mut free = base.free.clone();
    let mut rebuilt = 0usize;
    let mut removed = 0usize;
    for (coord, export) in dirty {
        match export {
            Some(export) => {
                rebuilt += 1;
                let rec = Arc::new(CellRecord::new(export, dict, scratch));
                deltas.extend(contribution(&rec, 1));
                match cells.get(&coord) {
                    Some(&row) => {
                        if let Some(old) = &records[row as usize] {
                            deltas.extend(contribution(old, -1));
                        }
                        records[row as usize] = Some(rec);
                    }
                    None => {
                        let row = match free.pop() {
                            Some(r) => {
                                records[r as usize] = Some(rec);
                                r
                            }
                            None => {
                                records.push(Some(rec));
                                (records.len() - 1) as u32
                            }
                        };
                        cells.insert(Arc::new(coord), row);
                    }
                }
            }
            None => {
                if let Some(row) = cells.remove(&coord) {
                    removed += 1;
                    if let Some(old) = &records[row as usize] {
                        deltas.extend(contribution(old, -1));
                    }
                    records[row as usize] = None;
                    free.push(row);
                }
            }
        }
    }
    (
        Shard {
            cells,
            records,
            free,
            built: generation,
        },
        rebuilt,
        removed,
    )
}

/// Patches label shard `s` of `base` with its rows. Returns the
/// (possibly shared) shard, whether it was rebuilt, and the
/// `(cluster, Δpoints)` of every effective row change on the delta path
/// (the full path re-folds the stats instead).
fn patch_labels(
    base: &Arc<LabelShard>,
    rows: &LabelRows,
    s: usize,
    generation: u64,
) -> (Arc<LabelShard>, bool, Vec<(u32, i64)>) {
    let mut deltas: Vec<(u32, i64)> = Vec::new();
    let labels = match rows {
        LabelRows::Delta { upd, del } => {
            let (upd, del) = (&upd[s], &del[s]);
            let mut changed = false;
            for (id, l) in upd {
                let old = base.labels.get(id);
                if old != Some(l) {
                    changed = true;
                    if let Some(Some(c)) = old {
                        deltas.push((*c, -1));
                    }
                    if let Some(c) = l {
                        deltas.push((*c, 1));
                    }
                }
            }
            for id in del {
                if let Some(Some(c)) = base.labels.get(id) {
                    deltas.push((*c, -1));
                }
                changed |= base.labels.contains_key(id);
            }
            if !changed {
                return (Arc::clone(base), false, deltas);
            }
            let mut labels = base.labels.clone();
            for &(id, l) in upd {
                labels.insert(id, l);
            }
            for id in del {
                labels.remove(id);
            }
            labels
        }
        LabelRows::Full(rows) => {
            // Share iff every row the shard would hold matches the
            // base's map exactly.
            let mine = &rows[s];
            let unchanged = mine.len() == base.labels.len()
                && mine
                    .iter()
                    .all(|(id, l)| base.labels.get(id).is_some_and(|p| p == l));
            if unchanged {
                return (Arc::clone(base), false, deltas);
            }
            mine.iter().copied().collect()
        }
    };
    let shard = LabelShard {
        labels,
        built: generation,
    };
    (Arc::new(shard), true, deltas)
}

/// One shard's contribution to a patched generation: the (possibly
/// shared) cell and label shards plus the signed cluster-stat deltas
/// the publish folds into the base totals.
struct ShardPatch {
    shard: Arc<Shard>,
    patched: bool,
    rebuilt: usize,
    removed: usize,
    /// `(cluster, Δcore_cells, Δcore_points)` per record swap.
    record_deltas: Vec<(u32, i64, i64)>,
    label: Arc<LabelShard>,
    label_patched: bool,
    /// `(cluster, Δpoints)` per effective label row change.
    label_deltas: Vec<(u32, i64)>,
}

/// Hashes of every super-cell overlapping the `±b` lattice window of a
/// dirty cell — a conservative cover of the plans a patch invalidates.
/// `None` when even this enumeration would be unreasonably large;
/// callers then invalidate everything.
///
/// Exact per-cell enumeration of the ε-window (`(2b+1)^d` candidates per
/// dirty cell) builds a set so large that populating it dominates the
/// whole patch; super-cell granularity needs at most `3^d` marks per
/// dirty cell (the window spans ≤ 3 supers per dimension), the set stays
/// small enough to live in cache, and coarseness only ever
/// over-invalidates — the publish-time warm sweep rebuilds the few extra
/// plans, correctness never depends on the window being tight.
fn invalidated_supers(spec: &GridSpec, dirty: &[CellCoord]) -> Option<SuperCells> {
    let dim = spec.dim();
    let b = spec.window_reach();
    let width = b + 1;
    let per_cell = 3i64.checked_pow(dim as u32)?;
    let total = per_cell.checked_mul(dirty.len() as i64)?;
    if total > 1 << 20 {
        return None;
    }
    let mut marked = FxHashSet::default();
    let mut lo = vec![0i64; dim];
    let mut hi = vec![0i64; dim];
    for c in dirty {
        for (i, &x) in c.coords().iter().enumerate() {
            lo[i] = (x - b).div_euclid(width);
            hi[i] = (x + b).div_euclid(width);
        }
        for_each_in_box(&lo, &hi, |p| {
            marked.insert(fnv64(p.iter().copied()));
        });
    }
    Some(SuperCells { width, marked })
}

impl ServingIndex {
    /// Applies one patch to `base`: shard `s` rebuilds the records of
    /// `cells[s]` and its label rows from `rows`; shards with nothing to
    /// do are `Arc`-shared with `base`. Returns the new generation, with
    /// no patch summary attached, and the summary of what changed, with
    /// no invalidation window — the caller decides whether to publish
    /// either.
    ///
    /// Per-shard patching is embarrassingly parallel — cells and label
    /// rows are hash-partitioned — and at small batch fractions the
    /// publish is latency-critical, so on multicore hosts each shard
    /// gets a scoped worker (which also runs the shard's lazy exports).
    /// Results are joined in shard order, making the assembled index
    /// identical to a serial pass.
    pub(crate) fn apply_patch<D>(
        base: &ServingIndex,
        dict: &CellDictionary,
        generation: u64,
        cells: Vec<D>,
        rows: &LabelRows,
    ) -> (Self, PatchSummary)
    where
        D: IntoIterator<Item = DirtyCell> + Send,
    {
        let k = base.shards.len();
        debug_assert_eq!(cells.len(), k);
        let worker = |s: usize, dirty: D| -> ShardPatch {
            let mut dirty = dirty.into_iter().peekable();
            let mut record_deltas: Vec<(u32, i64, i64)> = Vec::new();
            let (shard, patched, rebuilt, removed) = if dirty.peek().is_none() {
                (Arc::clone(&base.shards[s]), false, 0, 0)
            } else {
                let mut scratch = vec![0.0; dict.spec().dim()];
                let (sh, rb, rm) = patch_shard(
                    &base.shards[s],
                    dirty,
                    dict,
                    generation,
                    &mut scratch,
                    &mut record_deltas,
                );
                (Arc::new(sh), true, rb, rm)
            };
            let (label, label_patched, label_deltas) =
                patch_labels(&base.label_shards[s], rows, s, generation);
            ShardPatch {
                shard,
                patched,
                rebuilt,
                removed,
                record_deltas,
                label,
                label_patched,
                label_deltas,
            }
        };
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let results: Vec<ShardPatch> = if cores > 1 && k > 1 {
            // lint:allow(thread-discipline): shard workers are pure functions over frozen inputs joined before return; the publish path must stay runnable without an engine instance
            std::thread::scope(|sc| {
                let worker = &worker;
                let handles: Vec<_> = cells
                    .into_iter()
                    .enumerate()
                    .map(|(s, dirty)| sc.spawn(move || worker(s, dirty)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard patch worker panicked")) // lint:allow(panic-safety): workers only read frozen state and build new records; a panic there is a bug worth surfacing, not absorbing
                    .collect()
            })
        } else {
            cells
                .into_iter()
                .enumerate()
                .map(|(s, dirty)| worker(s, dirty))
                .collect()
        };

        let mut shards = Vec::with_capacity(k);
        let mut label_shards = Vec::with_capacity(k);
        let mut patched_shards = 0usize;
        let mut rebuilt_cells = 0usize;
        let mut removed_cells = 0usize;
        let mut patched_label_shards = 0usize;
        let mut record_deltas: Vec<(u32, i64, i64)> = Vec::new();
        let mut label_deltas: Vec<(u32, i64)> = Vec::new();
        for out in results {
            patched_shards += usize::from(out.patched);
            rebuilt_cells += out.rebuilt;
            removed_cells += out.removed;
            record_deltas.extend(out.record_deltas);
            shards.push(out.shard);
            patched_label_shards += usize::from(out.label_patched);
            label_deltas.extend(out.label_deltas);
            label_shards.push(out.label);
        }

        let dim = base.spec.dim();
        let clusters = match rows {
            LabelRows::Delta { .. } => {
                // Adjust the base stats by the signed per-record and
                // per-row deltas — integer adds, so the totals land
                // exactly where a from-scratch fold would.
                let mut clusters = base.clusters.clone();
                for (c, d_cells, d_points) in record_deltas {
                    let entry = cluster_entry(&mut clusters, c);
                    entry.core_cells = (entry.core_cells as i64 + d_cells) as usize;
                    entry.core_points = (entry.core_points as i64 + d_points) as usize;
                }
                for (c, d) in label_deltas {
                    let entry = cluster_entry(&mut clusters, c);
                    entry.points = (entry.points as i64 + d) as usize;
                }
                // A fold sizes the vector to the highest id present in
                // any record or row; a vanished tail cluster has all-zero
                // counts, so trimming zero tails reproduces that bound.
                while clusters
                    .last()
                    .is_some_and(|c| c.points == 0 && c.core_points == 0 && c.core_cells == 0)
                {
                    clusters.pop();
                }
                clusters
            }
            LabelRows::Full(rows) => fold_cluster_stats(
                shards
                    .iter()
                    .flat_map(|s| s.records.iter().flatten())
                    .filter_map(|r| Some((r.cluster?, r.core.len() / dim))),
                rows.iter().flatten().map(|&(_, label)| label),
            ),
        };
        let num_points = label_shards.iter().map(|l| l.labels.len()).sum();

        let summary = PatchSummary {
            base_generation: base.generation,
            patched_shards,
            shared_shards: k - patched_shards,
            patched_label_shards,
            shared_label_shards: k - patched_label_shards,
            rebuilt_cells,
            removed_cells,
            invalid: None,
        };
        let index = Self {
            spec: base.spec.clone(),
            eps2: base.eps2,
            generation,
            shards,
            label_shards,
            clusters,
            num_points,
            patch: None,
            generation_tail: generation,
        };
        (index, summary)
    }

    /// Builds the stream's current epoch as an incremental patch of
    /// `prev` instead of a full rebuild: only the cells that changed
    /// since `prev`'s generation are re-exported and re-frozen; every
    /// shard without a dirty cell is `Arc`-shared with `prev`
    /// wholesale. The result is bit-for-bit equivalent to
    /// [`ServingIndex::from_stream`] at the same epoch — same labels,
    /// same classify results, same cluster stats — which the serve
    /// equivalence suite pins.
    ///
    /// `prev` must be an earlier generation of *this same stream* (built
    /// by `from_stream` or a previous patch): the delta accounting is
    /// relative to `prev.generation()` as a stream epoch. A base from a
    /// different grid is rejected with [`ServeError::PatchGridMismatch`];
    /// a base not strictly older than the stream's epoch with
    /// [`ServeError::PatchNotNewer`].
    pub fn patch_from_stream(
        prev: &Arc<ServingIndex>,
        stream: &StreamingRpDbscan,
    ) -> Result<Self, ServeError> {
        let spec = stream.spec();
        // Bitwise float equality on purpose, as in the dictionary
        // compatibility check: any difference means a different grid.
        let same_grid = prev.spec.dim() == spec.dim()
            && prev.spec.eps().to_bits() == spec.eps().to_bits()
            && prev.spec.rho().to_bits() == spec.rho().to_bits();
        if !same_grid {
            return Err(ServeError::PatchGridMismatch);
        }
        let generation = stream.epoch();
        if prev.generation >= generation {
            return Err(ServeError::PatchNotNewer {
                base: prev.generation,
                epoch: generation,
            });
        }

        // Dirty set: structural deltas since the base epoch. Cluster-id
        // movements are already stamped by the stream's sticky
        // renumbering, so this covers id churn too without rescanning
        // every record.
        let mut dirty = stream.dirty_cells_since(prev.generation);
        dirty.sort_unstable();
        dirty.dedup();
        let k = prev.shards.len();

        // Label delta: the fast path patches the base label maps with
        // only the rows that can have moved — points in dirty cells,
        // border points whose winning core cell is dirty, explicit
        // border-label moves, and removed slots. When the stream's
        // per-epoch deltas no longer reach back to the base generation,
        // fall back to a full row export compared shard-by-shard.
        let rows = match (
            stream.removed_since(prev.generation),
            stream.label_moves_since(prev.generation),
        ) {
            (Some(removed), Some(moves)) => {
                let mut cell_rows: Vec<(u32, Option<u32>)> = Vec::new();
                for c in &dirty {
                    stream.cell_label_rows(c, &mut cell_rows);
                }
                let mut updates: FxHashMap<u32, Option<u32>> = cell_rows.into_iter().collect();
                let dirty_set: FxHashSet<&CellCoord> = dirty.iter().collect();
                for (p, winner) in stream.border_winners() {
                    if dirty_set.contains(winner) {
                        updates
                            .entry(p)
                            .or_insert_with(|| stream.cell_cluster(winner));
                    }
                }
                let mut upd = vec![Vec::new(); k];
                let mut del = vec![Vec::new(); k];
                for p in moves.into_iter().chain(removed) {
                    if let std::collections::hash_map::Entry::Vacant(e) = updates.entry(p) {
                        match stream.label_of_point(p) {
                            Some(label) => {
                                e.insert(label);
                            }
                            // A dead slot: either a recorded removal, or
                            // a border move whose point was since
                            // removed. Dropping the row is right for
                            // both (removing an absent key is a no-op).
                            None => del[shard_of_point(p, k)].push(p),
                        }
                    }
                }
                // lint:allow(unordered-iter): per-shard update lists feed id-keyed maps and signed stat deltas, so order is immaterial
                for (id, l) in updates {
                    upd[shard_of_point(id, k)].push((id, l));
                }
                LabelRows::Delta { upd, del }
            }
            _ => LabelRows::full(stream.export_label_rows(), k),
        };

        let cells = stream_cells(stream, &dirty, k);
        let (mut index, mut summary) =
            Self::apply_patch(prev, stream.dictionary(), generation, cells, &rows);
        summary.invalid = invalidated_supers(spec, &dirty);
        index.patch = Some(summary);
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpdbscan_core::RpDbscanParams;

    fn stream_1d(points: &[f64]) -> StreamingRpDbscan {
        let mut s = StreamingRpDbscan::new(1, RpDbscanParams::new(1.0, 3)).unwrap();
        s.insert_batch(points).unwrap();
        s
    }

    #[test]
    fn grid_and_generation_mismatches_are_rejected() {
        let s = stream_1d(&[0.0, 0.1, 0.2, 0.3]);
        let base = Arc::new(ServingIndex::from_stream(&s, 2));
        // Same epoch: nothing to patch.
        assert!(matches!(
            ServingIndex::patch_from_stream(&base, &s),
            Err(ServeError::PatchNotNewer { base: 1, epoch: 1 })
        ));
        // Different grid: rejected before any delta accounting.
        let mut other = StreamingRpDbscan::new(1, RpDbscanParams::new(0.5, 3)).unwrap();
        other.insert_batch(&[0.0, 0.1]).unwrap();
        other.insert_batch(&[0.2]).unwrap();
        assert!(matches!(
            ServingIndex::patch_from_stream(&base, &other),
            Err(ServeError::PatchGridMismatch)
        ));
    }

    #[test]
    fn untouched_shards_are_arc_shared_and_rows_stay_stable() {
        // A long 1-D run spreads cells over both shards; a second batch
        // far to the right leaves at least one shard's cells untouched.
        let points: Vec<f64> = (0..40).map(|i| i as f64 * 0.4).collect();
        let mut s = stream_1d(&points);
        let base = Arc::new(ServingIndex::from_stream(&s, 4));
        s.insert_batch(&[100.0, 100.2, 100.4, 100.6]).unwrap();
        let patched = ServingIndex::patch_from_stream(&base, &s).unwrap();
        let summary = patched.patch_summary().expect("patched index");
        assert_eq!(summary.base_generation(), base.generation());
        assert!(
            summary.shared_shards() >= 1,
            "a distant batch must leave some shard untouched: {summary:?}"
        );
        assert_eq!(
            summary.patched_shards() + summary.shared_shards(),
            patched.num_shards()
        );
        // Shared shards are the same allocation, not equal copies.
        let mut shared_ptrs = 0;
        for (a, b) in base.shards.iter().zip(patched.shards.iter()) {
            if Arc::ptr_eq(a, b) {
                shared_ptrs += 1;
                assert!(b.built < patched.generation());
            } else {
                assert_eq!(b.built, patched.generation());
            }
        }
        assert_eq!(shared_ptrs, summary.shared_shards());
        // Rows of surviving cells did not move.
        for (s_idx, shard) in base.shards.iter().enumerate() {
            for (coord, &row) in &shard.cells {
                let patched_shard = &patched.shards[s_idx];
                if let Some(&new_row) = patched_shard.cells.get(coord) {
                    assert_eq!(new_row, row, "row moved for {coord:?}");
                }
            }
        }
        assert_eq!(patched.verify_shards(), Some(s.epoch()));
    }

    #[test]
    fn emptied_cells_leave_tombstones_and_freed_rows_are_reused() {
        let points: Vec<f64> = (0..30).map(|i| i as f64 * 0.4).collect();
        let mut s = stream_1d(&points);
        let ids = s.snapshot().ids.clone();
        let base = Arc::new(ServingIndex::from_stream(&s, 1));
        let cells_before = base.num_cells();
        // Remove the leftmost points: their cells empty out.
        s.remove_batch(&ids[..6]).unwrap();
        let shrunk = Arc::new(ServingIndex::patch_from_stream(&base, &s).unwrap());
        let summary = shrunk.patch_summary().unwrap();
        assert!(summary.removed_cells() >= 1, "{summary:?}");
        assert_eq!(shrunk.num_cells(), cells_before - summary.removed_cells());
        assert!(!shrunk.shards[0].free.is_empty());
        // Rows vector did not shrink: tombstones, not compaction.
        assert_eq!(shrunk.shards[0].records.len(), base.shards[0].records.len());
        // Refill: new cells reuse the freed rows before growing.
        s.insert_batch(&[-0.1, -0.3, -0.5, -0.7]).unwrap();
        let refilled = ServingIndex::patch_from_stream(&shrunk, &s).unwrap();
        assert!(refilled.shards[0].free.len() < shrunk.shards[0].free.len());
        assert_eq!(
            refilled.shards[0].records.len(),
            shrunk.shards[0].records.len()
        );
    }

    #[test]
    fn invalidation_window_is_a_conservative_eps_superset() {
        // Super-cell marking must invalidate every cell within the L∞
        // ε-window of a dirty cell (soundness) while still rejecting
        // cells far outside it (it is a filter, not a no-op).
        let s = stream_1d(&[0.0, 0.1, 0.2]);
        let spec = s.spec().clone();
        let dirty = vec![CellCoord::new([0i64])];
        let summary = PatchSummary {
            base_generation: 0,
            patched_shards: 0,
            shared_shards: 0,
            patched_label_shards: 0,
            shared_label_shards: 0,
            rebuilt_cells: 0,
            removed_cells: 0,
            invalid: invalidated_supers(&spec, &dirty),
        };
        assert!(summary.can_carry(), "small dirty sets must build a window");
        // 1-D: b = 2, so cells −2..=2 are within the ε reach of cell 0
        // and must all be invalidated.
        for x in -2..=2 {
            assert!(
                summary.invalidates(&CellCoord::new([x])),
                "cell {x} is inside the ε window of dirty cell 0"
            );
        }
        // Far cells fall outside every marked super-cell.
        assert!(!summary.invalidates(&CellCoord::new([5i64])));
        assert!(!summary.invalidates(&CellCoord::new([-6i64])));
    }
}

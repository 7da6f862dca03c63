//! The immutable, sharded serving index.
//!
//! A [`ServingIndex`] is a frozen read-optimised copy of one clustering
//! epoch. Cells are hash-partitioned into `K` shards; each shard holds
//! its cells' records — cluster label, sorted predecessor core cells,
//! flat core-point coordinates, and the cell's box origin, sub-cell
//! centres and `u32` sub-cell counts (the candidate fields the grid's
//! query planner takes) — plus the point-id → label rows routed to it.
//!
//! Label resolution in [`ServingIndex::classify`] reproduces Phase III
//! exactly (Algorithm 4, Lines 10–23): a query in a core cell takes the
//! cell's cluster; a query in an occupied non-core cell is tested
//! against the core points of the cell's *stored* predecessor cells in
//! coordinate order, first hit wins — the same candidates in the same
//! order as `label_partition`, so indexed points classify to their
//! stored labels bit for bit. A query in an unoccupied cell (a
//! coordinate the clustering never saw) falls back to every core cell
//! whose box is within ε, still visited in coordinate order.
//!
//! The density half of a classify is the grid's [`CellQueryPlan`], built
//! by [`CellQueryPlan::from_candidates`] from the cell's ε-window: the
//! never/always/tested classification and the per-point walk exist
//! once, in `rpdbscan_grid::plan`. The window itself is gathered from
//! the generation's [`DictionaryIndex`] ([`DictionaryIndex::window_at`],
//! Phase II's gather) and mapped from layout positions to records.

use crate::patch::{stream_cells, DirtyCell, LabelRows, PatchSummary};
use crate::ServeError;
use rpdbscan_core::{CellExport, RpDbscanOutput};
use rpdbscan_geom::{dist2, kernel, Dataset};
use rpdbscan_grid::{
    for_each_in_box, CellCoord, CellDictionary, CellQueryPlan, DictionaryIndex, FxHashMap,
    GatherScratch, GridSpec, PlanCandidate,
};
use rpdbscan_stream::StreamingRpDbscan;
use std::sync::Arc;

/// Per-cluster size summary served by [`ServingIndex::cluster_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterStats {
    /// The dense cluster id.
    pub cluster: u32,
    /// Points labeled with the cluster (core and border).
    pub points: usize,
    /// Core points across the cluster's core cells.
    pub core_points: usize,
    /// Core cells forming the cluster.
    pub core_cells: usize,
}

/// Result of classifying a coordinate against a served clustering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Classification {
    /// The cluster the coordinate joins (`None` = noise).
    pub label: Option<u32>,
    /// Approximate ε-neighbourhood size, estimated from the sub-cell
    /// summaries exactly as the paper's ρ-approximate region query
    /// counts density (Definition 5.1).
    pub density: u64,
}

/// Location of one cell record: `(shard, row)` into the index's shards.
/// Rows are *stable across patches* ([`ServingIndex::patch_from_stream`]
/// tombstones vacated rows instead of compacting), so a plan carried
/// over from the previous generation keeps resolving to the same
/// records.
pub(crate) type CellRef = (u32, u32);

/// A memoised classify plan for one grid cell: the shard lookups of the
/// label half, resolved once, and the density half as the grid's
/// [`CellQueryPlan`] over the cell's ε-window. Plans are bound to the
/// generation of the index that built them — the server's LRU drops
/// them on hot-swap, or carries them over a patch that left their
/// window untouched.
#[derive(Debug, Clone)]
pub struct CellPlan {
    /// The query's own cell, when occupied.
    pub(crate) home: Option<CellRef>,
    /// Core-cell candidates for label resolution, in coordinate order:
    /// the home cell's stored predecessors when the home cell is an
    /// occupied non-core cell, or the ε-window core cells when the home
    /// cell is unoccupied. Empty when the home cell is core.
    pub(crate) sources: Vec<CellRef>,
    /// The density half: the window's cells classified never / always /
    /// tested by [`CellQueryPlan::from_candidates`], answered per query
    /// by [`CellQueryPlan::density`].
    pub(crate) density: CellQueryPlan,
}

/// One cell's frozen record. Records sit behind `Arc` so an incremental
/// publish can pointer-copy the untouched rows of a patched shard.
#[derive(Debug, Clone)]
pub(crate) struct CellRecord {
    /// The cell's lattice coordinate.
    pub(crate) coord: CellCoord,
    /// Cluster id when the cell is core; `None` for non-core cells.
    pub(crate) cluster: Option<u32>,
    /// For non-core cells: predecessor core cells, coordinate-sorted.
    pub(crate) preds: Vec<CellCoord>,
    /// Flat coordinates of the cell's core points.
    pub(crate) core: Vec<f64>,
    /// The cell's box origin, `coord · side` per dimension.
    pub(crate) origin: Vec<f64>,
    /// SoA sub-cell centres (`dim` values per sub-cell). With per-shard
    /// copy-on-write there is no global dictionary layout to read them
    /// from, so the records are the index's only store of sub-cells.
    pub(crate) sub_centers: Vec<f64>,
    /// Sub-cell densities, parallel to `sub_centers`.
    pub(crate) sub_counts: Vec<u32>,
    /// Total points in the cell (= sum of `sub_counts`).
    pub(crate) count: u64,
}

/// One shard: the cells hashed to it. Shards sit behind `Arc` so an
/// incremental publish ([`ServingIndex::patch_from_stream`]) shares
/// every shard whose cells all held with the previous generation
/// wholesale — copy-on-write at shard granularity, per-cell `Arc`
/// pointer copies within a patched shard.
#[derive(Debug, Clone, Default)]
pub(crate) struct Shard {
    /// Cell coordinate → row in `records`. Keys sit behind `Arc` so a
    /// patch's clone of the map is a refcount bump per entry instead of
    /// a fresh coordinate allocation (lookups still take a plain
    /// `&CellCoord` through `Borrow`).
    pub(crate) cells: FxHashMap<Arc<CellCoord>, u32>,
    /// Cell records; `None` marks a row a patch vacated. Rows are stable
    /// across patches — a surviving cell keeps its row, which is what
    /// lets carried-over plans keep their [`CellRef`]s.
    pub(crate) records: Vec<Option<Arc<CellRecord>>>,
    /// Vacated rows available for reuse by later patches.
    pub(crate) free: Vec<u32>,
    /// Generation that built or last patched this shard — equal to the
    /// index generation on patched shards, strictly older on shards
    /// shared from a previous generation (0 for a shard shared from the
    /// empty generation a full build patches).
    pub(crate) built: u64,
}

/// Point-id → label rows routed to one shard. Split from [`Shard`]
/// because point routing (`shard_of_point`) and cell routing
/// (`shard_of_cell`) hash independently: a patch can share a label
/// shard whose rows all held while rebuilding the same-numbered cell
/// shard, and vice versa.
#[derive(Debug, Clone, Default)]
pub(crate) struct LabelShard {
    /// Point id → stored label.
    pub(crate) labels: FxHashMap<u32, Option<u32>>,
    /// Generation that built or last patched this shard.
    pub(crate) built: u64,
}

impl CellRecord {
    /// Freezes one exported cell into a record, materialising the cell's
    /// sub-cells from `dict` into the SoA layout a plan's candidates
    /// take. The one record constructor, called by the shard patch that
    /// every build goes through.
    /// `scratch` must hold `dim` slots.
    pub(crate) fn new(export: CellExport, dict: &CellDictionary, scratch: &mut [f64]) -> Self {
        let spec = dict.spec();
        let subs = dict
            .get(&export.coord)
            .map_or(&[][..], |c| c.subs.as_slice());
        let mut sub_centers = Vec::with_capacity(subs.len() * spec.dim());
        let mut sub_counts = Vec::with_capacity(subs.len());
        let mut count = 0u64;
        for sub in subs {
            spec.sub_center_into(&export.coord, sub.idx, scratch);
            sub_centers.extend_from_slice(scratch);
            sub_counts.push(sub.count);
            count += u64::from(sub.count);
        }
        CellRecord {
            origin: spec.cell_origin(&export.coord),
            coord: export.coord,
            cluster: export.cluster,
            preds: export.preds,
            core: export.core_coords,
            sub_centers,
            sub_counts,
            count,
        }
    }

    /// This record as candidate `id` of a density plan.
    fn candidate(&self, id: u32) -> PlanCandidate<'_> {
        PlanCandidate {
            id,
            origin: &self.origin,
            centers: &self.sub_centers,
            counts: &self.sub_counts,
            total: self.count,
        }
    }
}

/// An immutable, sharded, read-optimised copy of one clustering epoch.
///
/// Built either from a batch run ([`ServingIndex::from_batch`]) or from
/// the streaming clusterer's current epoch
/// ([`ServingIndex::from_stream`]); queried lock-free through shared
/// references (all methods take `&self` and mutate nothing).
#[derive(Debug)]
pub struct ServingIndex {
    pub(crate) spec: GridSpec,
    pub(crate) eps2: f64,
    /// Head generation counter, written first at construction.
    pub(crate) generation: u64,
    pub(crate) shards: Vec<Arc<Shard>>,
    pub(crate) label_shards: Vec<Arc<LabelShard>>,
    pub(crate) clusters: Vec<ClusterStats>,
    pub(crate) num_points: usize,
    /// How this index was published: `Some` for an incremental patch of
    /// a previous generation ([`ServingIndex::patch_from_stream`]),
    /// `None` for a full build.
    pub(crate) patch: Option<PatchSummary>,
    /// The index over this generation's dictionary, which every plan's
    /// ε-window is gathered from: the stream's own epoch index for
    /// [`Self::from_stream`] and [`Self::patch_from_stream`], one built
    /// from the run's dictionary for [`Self::from_batch`].
    pub(crate) dict_index: Arc<DictionaryIndex>,
    /// The record of the cell at each layout position of `dict_index`.
    pub(crate) refs: Vec<Option<CellRef>>,
    /// Tail generation counter, written last at construction; equal to
    /// `generation` in any fully constructed index, so a reader seeing
    /// the pair disagree would have caught a torn publication.
    pub(crate) generation_tail: u64,
}

/// Scratch buffers of a plan build: the window gather's, and the
/// window as layout positions and as records.
#[derive(Debug, Default)]
pub(crate) struct PlanScratch {
    gather: GatherScratch,
    positions: Vec<u32>,
    window: Vec<CellRef>,
}

/// FNV-1a over a cell's lattice coordinates: the shard routing hash.
pub(crate) fn shard_of_cell(coord: &CellCoord, num_shards: usize) -> usize {
    (fnv64(coord.coords().iter().copied()) % num_shards as u64) as usize
}

/// FNV-1a over a sequence of i64 values (LE bytes). Shard routing hashes
/// a cell's lattice coordinates and reduces the hash modulo the shard
/// count; the patch invalidation window hashes super-cell coordinates
/// and stores the full 64 bits as a compact stand-in for them (a
/// collision merely over-invalidates one cached plan, which is sound).
/// Streaming, so callers never materialise the coordinate they hash.
pub(crate) fn fnv64(vals: impl IntoIterator<Item = i64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in vals {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Multiplicative hash routing a point id to its shard.
pub(crate) fn shard_of_point(id: u32, num_shards: usize) -> usize {
    let h = u64::from(id).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    ((h >> 32) % num_shards as u64) as usize
}

impl ServingIndex {
    /// Builds an index from a finished batch run and the dataset it
    /// clustered: the run's own Phase III cell graph, exported through
    /// [`CellGraph::export`](rpdbscan_core::CellGraph::export), becomes
    /// the shards, so served cluster ids are the stored labels' ids.
    ///
    /// The export reads core-point coordinates from `data` by id, so a
    /// dataset of the wrong length ([`ServeError::LabelMismatch`]) or
    /// dimension ([`ServeError::DimensionMismatch`]) is rejected.
    pub fn from_batch(
        data: &Dataset,
        output: &RpDbscanOutput,
        num_shards: usize,
        generation: u64,
    ) -> Result<Self, ServeError> {
        let stored = output.clustering.labels();
        if stored.len() != data.len() {
            return Err(ServeError::LabelMismatch {
                points: data.len(),
                labels: stored.len(),
            });
        }
        let dict = output.cells.dict();
        if data.dim() != dict.spec().dim() {
            return Err(ServeError::DimensionMismatch {
                expected: dict.spec().dim(),
                got: data.dim(),
            });
        }
        let k = num_shards.max(1);
        let mut cells: Vec<Vec<DirtyCell>> = vec![Vec::new(); k];
        // The export is coordinate-sorted, so every shard's rows are too.
        for export in output.cells.export(data) {
            cells[shard_of_cell(&export.coord, k)].push((export.coord.clone(), Some(export)));
        }
        let rows = stored.iter().enumerate().map(|(i, &l)| (i as u32, l));
        let index = Arc::new(DictionaryIndex::single(dict.clone()));
        Ok(Self::from_empty(&index, generation, cells, rows))
    }

    /// Builds an index from the streaming clusterer's current epoch.
    /// The index generation is the stream's epoch, so
    /// [`IndexSlot::publish_if_newer`](crate::IndexSlot::publish_if_newer)
    /// can skip republishing unchanged epochs.
    pub fn from_stream(stream: &StreamingRpDbscan, num_shards: usize) -> Self {
        // The epoch index holds exactly the stream's occupied cells, and
        // its layout positions rank them by coordinate.
        let index = stream.index();
        let dict = index.dict();
        let coords = (0..dict.num_cells() as u32).map(|pos| &dict.entry(index.id_at(pos)).coord);
        let cells = stream_cells(stream, coords, num_shards.max(1));
        Self::from_empty(index, stream.epoch(), cells, stream.export_label_rows())
    }

    /// A full build: the shard patch applied to an empty generation with
    /// one shard per `cells` bucket, every cell dirty and every label
    /// row given.
    fn from_empty<D>(
        index: &Arc<DictionaryIndex>,
        generation: u64,
        cells: Vec<D>,
        rows: impl IntoIterator<Item = (u32, Option<u32>)>,
    ) -> Self
    where
        D: IntoIterator<Item = DirtyCell> + Send,
    {
        let k = cells.len();
        let spec = index.spec();
        let empty = Self {
            spec: spec.clone(),
            eps2: spec.eps() * spec.eps(),
            generation: 0,
            shards: vec![Arc::default(); k],
            label_shards: vec![Arc::default(); k],
            clusters: Vec::new(),
            num_points: 0,
            patch: None,
            dict_index: Arc::clone(index),
            refs: Vec::new(),
            generation_tail: 0,
        };
        Self::apply_patch(&empty, index, generation, cells, &LabelRows::full(rows, k)).0
    }

    /// The grid the index serves over.
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Dimensionality of served coordinates.
    pub fn dim(&self) -> usize {
        self.spec.dim()
    }

    /// The epoch this index was built from.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Reads both generation counters and returns the generation only if
    /// they agree. The head is written first and the tail last during
    /// construction, so `None` would mean a reader observed a partially
    /// constructed index — the torn-read detector the hot-swap bench
    /// asserts never fires.
    pub fn verify_generation(&self) -> Option<u64> {
        (self.generation == self.generation_tail).then_some(self.generation)
    }

    /// Like [`Self::verify_generation`], but additionally checks that no
    /// shard — cell or label — claims a build generation *newer* than
    /// the index itself. Patched generations `Arc`-share untouched
    /// shards with their base, so an (impossible by construction, hence
    /// asserted) in-place mutation of a shared shard by a later patch
    /// would trip exactly this. The delta-publish bench readers run it
    /// on every load.
    pub fn verify_shards(&self) -> Option<u64> {
        let g = self.verify_generation()?;
        let cells_ok = self.shards.iter().all(|s| s.built <= g);
        let labels_ok = self.label_shards.iter().all(|s| s.built <= g);
        (cells_ok && labels_ok).then_some(g)
    }

    /// How this index was published: `Some` when it was incrementally
    /// patched from a previous generation, `None` for a full build.
    pub fn patch_summary(&self) -> Option<&PatchSummary> {
        self.patch.as_ref()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of indexed points.
    pub fn num_points(&self) -> usize {
        self.num_points
    }

    /// Number of occupied cells.
    pub fn num_cells(&self) -> usize {
        self.shards.iter().map(|s| s.cells.len()).sum()
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// The shard serving queries that land in `coord`'s cell.
    pub fn shard_of_coord(&self, coord: &CellCoord) -> u32 {
        shard_of_cell(coord, self.shards.len()) as u32
    }

    /// The shard holding point `id`'s label row.
    pub fn shard_of_id(&self, id: u32) -> u32 {
        shard_of_point(id, self.shards.len()) as u32
    }

    /// The stored label of indexed point `id`: `Some(label)` when the
    /// point is indexed (`label` itself is `None` for noise), `None` for
    /// unknown ids.
    pub fn label_of(&self, id: u32) -> Option<Option<u32>> {
        self.label_shards[shard_of_point(id, self.label_shards.len())]
            .labels
            .get(&id)
            .copied()
    }

    /// Size summary of cluster `cluster`, if it exists.
    pub fn cluster_stats(&self, cluster: u32) -> Option<&ClusterStats> {
        self.clusters.get(cluster as usize)
    }

    /// Checks a query coordinate's shape.
    pub(crate) fn validate(&self, q: &[f64]) -> Result<(), ServeError> {
        if q.len() != self.spec.dim() {
            return Err(ServeError::DimensionMismatch {
                expected: self.spec.dim(),
                got: q.len(),
            });
        }
        if q.iter().any(|v| !v.is_finite()) {
            return Err(ServeError::NonFinite);
        }
        Ok(())
    }

    /// Looks a cell up across the shards.
    pub(crate) fn find_cell(&self, coord: &CellCoord) -> Option<CellRef> {
        let s = shard_of_cell(coord, self.shards.len());
        self.shards[s].cells.get(coord).map(|&r| (s as u32, r))
    }

    pub(crate) fn record(&self, (s, r): CellRef) -> &CellRecord {
        self.shards[s as usize].records[r as usize]
            .as_deref()
            .expect("CellRef resolves to a vacated row") // lint:allow(panic-safety): refs come from the live cells map or from carried plans whose ε-window the patch kept clear of every vacated or rebuilt row
    }

    /// Builds the classify plan for one grid cell: resolves every shard
    /// lookup of the label half a query landing in `coord` will need, and
    /// builds the density half from the cell's ε-window through the
    /// planner's classifier. Serving reads densities only, so window
    /// candidates are numbered by position. Plans are pure functions of
    /// the index, so the server memoises them per cell — and
    /// pre-populates them at publish time.
    pub fn plan_for(&self, coord: &CellCoord) -> CellPlan {
        self.plan_with(coord, &mut PlanScratch::default())
    }

    /// [`Self::plan_for`] with the caller's scratch, so a warm sweep
    /// reuses one set of buffers.
    fn plan_with(&self, coord: &CellCoord, scratch: &mut PlanScratch) -> CellPlan {
        let home = self.find_cell(coord);
        self.window_candidates(coord, scratch);
        let window = &scratch.window;
        let sources = match home {
            // Core home cell: the label is the cell's cluster, no
            // per-point checks needed.
            Some(h) if self.record(h).cluster.is_some() => Vec::new(),
            // Occupied non-core cell: Phase III's exact candidate list —
            // the stored predecessors, already coordinate-sorted.
            Some(h) => self
                .record(h)
                .preds
                .iter()
                .filter_map(|c| self.find_cell(c))
                .collect(),
            // Unoccupied cell (a coordinate the clustering never saw):
            // fall back to every core cell within ε, coordinate-sorted —
            // the same candidates Phase II's region query would visit.
            None => window
                .iter()
                .copied()
                .filter(|&c| self.record(c).cluster.is_some())
                .collect(),
        };
        let density = CellQueryPlan::from_candidates(
            &self.spec,
            &self.spec.cell_origin(coord),
            (0u32..)
                .zip(window)
                .map(|(i, &c)| self.record(c).candidate(i)),
        );
        CellPlan {
            home,
            sources,
            density,
        }
    }

    /// Leaves in `scratch.window` the records of the occupied cells
    /// whose box is within ε of `coord`'s box, in coordinate order: the
    /// generation index's [`DictionaryIndex::window_at`], mapped from
    /// layout positions to records.
    // lint:hot
    fn window_candidates(&self, coord: &CellCoord, scratch: &mut PlanScratch) {
        let PlanScratch {
            gather,
            positions,
            window,
        } = scratch;
        self.dict_index.window_at(coord.coords(), gather, positions);
        window.clear();
        window.extend(positions.iter().filter_map(|&p| self.refs[p as usize]));
    }

    /// Classifies a coordinate against the served clustering: the label
    /// a new point at `q` would receive under Phase III's rules, plus a
    /// ρ-approximate density estimate. See [`Self::classify_with`] for
    /// the plan-reusing form the server's cache drives.
    pub fn classify(&self, q: &[f64]) -> Result<Classification, ServeError> {
        self.validate(q)?;
        let plan = self.plan_for(&self.spec.cell_of(q));
        self.classify_with(&plan, q)
    }

    /// Classifies a coordinate using a memoised [`CellPlan`] built by
    /// [`Self::plan_for`] on this same index (plans do not survive a
    /// hot-swap; the server's LRU is flushed on generation change).
    ///
    /// Results are bit-identical to [`Self::classify_oracle`]: the label
    /// scan only changes *which* core point proves a source cell (the
    /// winning cell, and hence the label, is the same), and the density
    /// is the plan's per-point walk, whose bounds and `dist2` expressions
    /// replicate the oracle's exactly and sum the same integer terms.
    // lint:hot
    pub fn classify_with(&self, plan: &CellPlan, q: &[f64]) -> Result<Classification, ServeError> {
        self.validate(q)?;
        let dim = self.spec.dim();
        let eps2 = self.eps2;
        let label = match plan.home {
            Some(h) if self.record(h).cluster.is_some() => self.record(h).cluster,
            _ => {
                // First candidate core cell (coordinate order) holding a
                // core point within ε wins — Algorithm 4, Lines 18–23.
                // The chunked kernel only proves existence; the label is
                // the cell's cluster, independent of which point hit.
                let mut label = None;
                for &c in &plan.sources {
                    let rec = self.record(c);
                    if kernel::any_within(q, &rec.core, dim, eps2) {
                        label = rec.cluster;
                        break;
                    }
                }
                label
            }
        };
        let density = plan.density.density(q);
        Ok(Classification { label, density })
    }

    /// Reference classification: rebuilds the candidate window per query
    /// and runs the scalar per-query arithmetic with no plan-time
    /// resolution. This is the oracle [`Self::classify_with`] is pinned
    /// against by the serve equivalence suite — label *and* density must
    /// match it bit for bit.
    pub fn classify_oracle(&self, q: &[f64]) -> Result<Classification, ServeError> {
        self.validate(q)?;
        let coord = self.spec.cell_of(q);
        let home = self.find_cell(&coord);
        let mut scratch = PlanScratch::default();
        self.window_candidates(&coord, &mut scratch);
        let candidates = scratch.window;
        let label = match home {
            Some(h) if self.record(h).cluster.is_some() => self.record(h).cluster,
            _ => {
                let sources: Vec<CellRef> = match home {
                    Some(h) => self
                        .record(h)
                        .preds
                        .iter()
                        .filter_map(|c| self.find_cell(c))
                        .collect(),
                    None => candidates
                        .iter()
                        .copied()
                        .filter(|&c| self.record(c).cluster.is_some())
                        .collect(),
                };
                let mut label = None;
                'search: for &c in &sources {
                    let rec = self.record(c);
                    for p in rec.core.chunks_exact(self.spec.dim()) {
                        if dist2(p, q) <= self.eps2 {
                            label = rec.cluster;
                            break 'search;
                        }
                    }
                }
                label
            }
        };
        let mut density = 0u64;
        for &c in &candidates {
            let rec = self.record(c);
            let (lo, hi) = self.spec.cell_dist2_bounds(&rec.coord, q);
            if lo > self.eps2 {
                continue;
            }
            if hi <= self.eps2 {
                density += rec.count;
            } else {
                for (center, &n) in rec
                    .sub_centers
                    .chunks_exact(self.spec.dim())
                    .zip(rec.sub_counts.iter())
                {
                    if dist2(center, q) <= self.eps2 {
                        density += u64::from(n);
                    }
                }
            }
        }
        Ok(Classification { label, density })
    }

    /// The plans a warm publish should pre-populate, in deterministic
    /// order: every occupied cell (coordinate-sorted) first — a query
    /// landing in any of them then never builds a plan cold — followed,
    /// budget permitting, by the unoccupied cells of their immediate
    /// lattice neighbourhood, whose window-candidate search is the
    /// expensive half of a cold unoccupied-cell classify. At most
    /// `budget` plans are returned (occupied cells take precedence), so
    /// a bounded LRU is never asked to evict its own warm set.
    pub fn warm_plans(&self, budget: usize) -> Vec<(CellCoord, CellPlan)> {
        let mut occupied: Vec<CellCoord> = self
            .shards
            .iter()
            .flat_map(|s| s.records.iter().flatten().map(|r| r.coord.clone()))
            .collect();
        occupied.sort_unstable();
        let mut scratch = PlanScratch::default();
        let mut out: Vec<(CellCoord, CellPlan)> = occupied
            .iter()
            .take(budget)
            .map(|c| (c.clone(), self.plan_with(c, &mut scratch)))
            .collect();
        // Neighbourhood warming only pays while the 3^d halo is small
        // relative to the budget headroom; high dimensions skip it.
        let dim = self.spec.dim();
        let halo_feasible = 3usize.checked_pow(dim as u32).is_some_and(|w| w <= 1 << 12);
        if out.len() < budget && halo_feasible {
            let mut halo: std::collections::BTreeSet<CellCoord> = std::collections::BTreeSet::new();
            for c in &occupied {
                let lo: Vec<i64> = c.coords().iter().map(|&x| x - 1).collect();
                let hi: Vec<i64> = c.coords().iter().map(|&x| x + 1).collect();
                for_each_in_box(&lo, &hi, |p| {
                    let cc = CellCoord::new(p.iter().copied());
                    if self.find_cell(&cc).is_none() {
                        halo.insert(cc);
                    }
                });
            }
            for c in halo {
                if out.len() >= budget {
                    break;
                }
                let plan = self.plan_with(&c, &mut scratch);
                out.push((c, plan));
            }
        }
        out
    }

    /// The warm set for an incremental publish: plans only for the
    /// occupied cells the patch invalidated (every other cell's plan is
    /// carried over by the server), coordinate-sorted, at most `budget`.
    /// Falls back to the full [`Self::warm_plans`] sweep when the index
    /// is not a patch or the patch could not bound its invalidation set.
    pub fn warm_plans_invalidated(&self, budget: usize) -> Vec<(CellCoord, CellPlan)> {
        let Some(summary) = self.patch.as_ref().filter(|p| p.can_carry()) else {
            return self.warm_plans(budget);
        };
        let mut coords: Vec<CellCoord> = self
            .shards
            .iter()
            .flat_map(|s| s.cells.keys())
            .filter(|c| summary.invalidates(c.as_ref()))
            .map(|c| CellCoord::clone(c))
            .collect();
        coords.sort_unstable();
        coords.truncate(budget);
        let mut scratch = PlanScratch::default();
        coords
            .into_iter()
            .map(|c| {
                let plan = self.plan_with(&c, &mut scratch);
                (c, plan)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpdbscan_core::RpDbscanParams;

    /// Every record whose cell `in_eps_window` accepts, by brute force
    /// over the shards, in coordinate order.
    fn brute_window(index: &ServingIndex, coord: &CellCoord) -> Vec<CellCoord> {
        let mut out: Vec<CellCoord> = index
            .shards
            .iter()
            .flat_map(|s| s.records.iter().flatten())
            .filter(|r| index.spec.in_eps_window(coord, &r.coord))
            .map(|r| r.coord.clone())
            .collect();
        out.sort_unstable();
        out
    }

    /// Checks the plan windows of every occupied cell, of a unit-step
    /// halo around every third one, and of coordinates off the occupied
    /// extent, against [`brute_window`]; an unoccupied cell's label
    /// candidates must be its window's core cells. Returns how many
    /// unoccupied probes held a cell in their window.
    fn check_windows(index: &ServingIndex, at: &str) -> usize {
        let dim = index.dim();
        let b = index.spec.window_reach();
        let mut probes: Vec<CellCoord> = index
            .shards
            .iter()
            .flat_map(|s| s.records.iter().flatten().map(|r| r.coord.clone()))
            .collect();
        probes.sort_unstable();
        let occupied = probes.len();
        for i in (0..occupied).step_by(3) {
            let mut c = probes[i].coords().to_vec();
            c[i % dim] += if i % 2 == 0 { 1 } else { -1 };
            probes.push(CellCoord::new(c));
        }
        let first = probes[0].coords().to_vec();
        for push in [b - 1, b + 4] {
            probes.push(CellCoord::new(first.iter().map(|&x| x - push)));
        }
        let mut scratch = PlanScratch::default();
        let mut nonempty = 0;
        for probe in &probes {
            index.window_candidates(probe, &mut scratch);
            let got: Vec<CellCoord> = scratch
                .window
                .iter()
                .map(|&r| index.record(r).coord.clone())
                .collect();
            let want = brute_window(index, probe);
            assert_eq!(got, want, "{at}: probe {probe}");
            let plan = index.plan_for(probe);
            if plan.home.is_none() {
                nonempty += usize::from(!want.is_empty());
                let cores: Vec<CellRef> = scratch
                    .window
                    .iter()
                    .copied()
                    .filter(|&r| index.record(r).cluster.is_some())
                    .collect();
                assert_eq!(plan.sources, cores, "{at}: probe {probe}");
            }
        }
        nonempty
    }

    #[test]
    fn plan_windows_match_brute_force_before_and_after_a_patch() {
        // 3-d windows take the column walk; sparse 5-d ones (about one
        // point per cell) take the kd search.
        for (dim, n, extent, walks) in [(3, 600, 6.0, true), (5, 300, 6.0, false)] {
            // SplitMix64: uniform points in [0, extent)^dim.
            let mut state = dim as u64;
            let mut points = |k: usize| -> Vec<f64> {
                (0..k * dim)
                    .map(|_| {
                        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                        let mut z = state;
                        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                        (z ^ (z >> 31)) as f64 / u64::MAX as f64 * extent
                    })
                    .collect()
            };
            let params = RpDbscanParams::new(1.0, 4);
            let mut s = StreamingRpDbscan::new(dim, params).unwrap();
            let ids = s.insert_batch(&points(n)).unwrap();
            assert_eq!(s.index().column_walks(), walks, "dim {dim}");
            let base = Arc::new(ServingIndex::from_stream(&s, 4));
            let mut nonempty = check_windows(&base, &format!("dim {dim} full build"));
            // Insert and expire, then patch: removed cells vacate rows,
            // new cells take them.
            s.insert_batch(&points(40)).unwrap();
            s.remove_batch(&ids[..60]).unwrap();
            let patched = ServingIndex::patch_from_stream(&base, &s).unwrap();
            assert!(patched.patch_summary().unwrap().removed_cells() > 0);
            nonempty += check_windows(&patched, &format!("dim {dim} patched"));
            assert!(nonempty > 0, "dim {dim}: every unoccupied window was empty");
        }
    }

    #[test]
    fn shard_hashes_are_stable_and_in_range() {
        for k in [1usize, 2, 4, 7] {
            for i in 0..64u32 {
                assert!(shard_of_point(i, k) < k);
            }
            for x in -8i64..8 {
                for y in -8i64..8 {
                    let c = CellCoord::new([x, y]);
                    assert!(shard_of_cell(&c, k) < k);
                    assert_eq!(shard_of_cell(&c, k), shard_of_cell(&c.clone(), k));
                }
            }
        }
    }

    #[test]
    fn cells_spread_over_shards() {
        let coords: Vec<CellCoord> = (0..100)
            .map(|i| CellCoord::new([i as i64 % 10, i as i64 / 10]))
            .collect();
        let mut used = [false; 4];
        for c in &coords {
            used[shard_of_cell(c, 4)] = true;
        }
        assert!(used.iter().all(|&u| u), "all 4 shards take cells");
    }
}

//! The immutable, sharded serving index.
//!
//! A [`ServingIndex`] is a frozen read-optimised copy of one clustering
//! epoch. Cells are hash-partitioned into `K` shards; each shard holds
//! its cells' records — cluster label, sorted predecessor core cells,
//! flat core-point coordinates, and a structure-of-arrays copy of the
//! sub-cell centres and densities (the same SoA layout the Phase II
//! query planner uses) — plus the point-id → label rows routed to it.
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

use crate::patch::PatchSummary;
use crate::ServeError;
use rpdbscan_core::{CellExport, RpDbscanOutput};
use rpdbscan_geom::{dist2, kernel, Dataset};
use rpdbscan_grid::{CellCoord, CellDictionary, FxHashMap, GridSpec};
use rpdbscan_stream::StreamingRpDbscan;
use std::sync::Arc;

/// Relative slack on squared-distance cell bounds, absorbing the
/// round-off of `side = eps/√d`. It is applied in both conservative
/// directions: candidate cells are kept when their box is within
/// `ε²(1+EPS_SLACK)` (boundary cells are never missed), and plan-time
/// resolution only fires with a margin (`never` above `ε²(1+EPS_SLACK)`,
/// `always` below `ε²(1−EPS_SLACK)`) — anything in doubt stays on the
/// tested list, where the per-query arithmetic replicates the scalar
/// oracle bit for bit. Same value and argument as
/// `rpdbscan_grid::plan::PLAN_SLACK`.
pub(crate) const EPS_SLACK: f64 = 1e-9;

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

/// A memoised classify plan for one grid cell: every shard lookup a
/// query landing in the cell will need, resolved once, plus the
/// plan-time half of the density estimate. Plans are bound to the
/// generation of the index that built them — the server's LRU drops
/// them on hot-swap.
///
/// The density candidates are resolved the same way the Phase II
/// [`CellQueryPlan`](rpdbscan_grid::CellQueryPlan) resolves them: a
/// candidate cell whose box is farther than ε from every point of the
/// home cell is pruned (*never*), a sub-cell centre within ε of every
/// point of the home cell is folded into a per-cell precomputed sum
/// (*always*), and everything near the boundary stays *tested*, where
/// [`ServingIndex::classify_with`] replicates the scalar oracle's
/// arithmetic exactly — same box origins, same bound formulas, same
/// centre coordinates, same `dist2` order — through the shared chunked
/// kernel ([`rpdbscan_geom::kernel`]).
#[derive(Debug, Clone)]
pub struct CellPlan {
    /// The query's own cell, when occupied.
    pub(crate) home: Option<CellRef>,
    /// Core-cell candidates for label resolution, in coordinate order:
    /// the home cell's stored predecessors when the home cell is an
    /// occupied non-core cell, or the ε-window core cells when the home
    /// cell is unoccupied. Empty when the home cell is core.
    pub(crate) sources: Vec<CellRef>,
    /// Planned density cells: box origin per cell (`dim` values each,
    /// computed exactly as `cell_dist2_bounds` does: `coord · side`).
    pub(crate) d_lo: Vec<f64>,
    /// Planned density cells: total point count (full-containment case).
    pub(crate) d_total: Vec<u64>,
    /// Planned density cells: Σ counts of the always-qualifying
    /// sub-cells — added without a distance test whenever the cell is
    /// partially contained.
    pub(crate) d_always: Vec<u64>,
    /// Prefix offsets into `d_centers`/`d_counts` for each planned
    /// cell's tested sub-cells (`len = cells + 1`).
    pub(crate) d_sub_start: Vec<u32>,
    /// Tested sub-cell centres, SoA: `dim` values per sub-cell.
    pub(crate) d_centers: Vec<f64>,
    /// Tested sub-cell densities, parallel to `d_centers`.
    pub(crate) d_counts: Vec<u64>,
}

impl CellPlan {
    /// Number of per-query cell lookups the plan resolved (label source
    /// cells plus surviving density cells).
    pub fn num_candidates(&self) -> usize {
        self.sources.len() + self.d_total.len()
    }

    /// Number of sub-cell centres left for per-query distance tests.
    pub fn num_tested_subcells(&self) -> usize {
        self.d_counts.len()
    }

    /// Number of label source cells a non-core-home query scans (0 when
    /// the home cell is core — the label needs no per-point checks).
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// Number of candidate cells surviving the plan-time never-prune in
    /// the density half.
    pub fn num_planned_cells(&self) -> usize {
        self.d_total.len()
    }
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
    /// SoA sub-cell centres (`dim` values per sub-cell).
    pub(crate) sub_centers: Vec<f64>,
    /// Sub-cell densities, parallel to `sub_centers`.
    pub(crate) sub_counts: Vec<u64>,
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
    /// shared from a previous generation.
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
    /// sub-cells from `dict` into the SoA layout the classify kernel
    /// consumes. The one record constructor: full builds from a batch
    /// run or a stream, and incremental patches, all come through here.
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
            sub_counts.push(u64::from(sub.count));
            count += u64::from(sub.count);
        }
        CellRecord {
            coord: export.coord,
            cluster: export.cluster,
            preds: export.preds,
            core: export.core_coords,
            sub_centers,
            sub_counts,
            count,
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
    /// Density backend that produced the served clustering (recorded at
    /// index build; always `exact` today since approximate backends are
    /// rejected, but surfaced so deployments can attribute what they
    /// serve).
    pub(crate) backend: &'static str,
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
    /// Tail generation counter, written last at construction; equal to
    /// `generation` in any fully constructed index, so a reader seeing
    /// the pair disagree would have caught a torn publication.
    pub(crate) generation_tail: u64,
}

/// FNV-1a over a cell's lattice coordinates: the shard routing hash.
pub(crate) fn shard_of_cell(coord: &CellCoord, num_shards: usize) -> usize {
    (coord_fnv64(coord.coords()) % num_shards as u64) as usize
}

/// FNV-1a over a coordinate's lattice indices. Shard routing reduces it
/// modulo the shard count; the patch invalidation window stores the full
/// 64 bits as a compact stand-in for the coordinate itself (a collision
/// merely over-invalidates one cached plan, which is sound).
pub(crate) fn coord_fnv64(coords: &[i64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &c in coords {
        for b in c.to_le_bytes() {
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
        let rows = stored
            .iter()
            .enumerate()
            .map(|(i, &l)| (i as u32, l))
            .collect();
        Ok(Self::build(
            dict,
            output.stats.backend,
            generation,
            num_shards,
            output.cells.export(data),
            rows,
        ))
    }

    /// Builds an index from the streaming clusterer's current epoch.
    /// The index generation is the snapshot's epoch, so
    /// [`IndexSlot::publish_if_newer`](crate::IndexSlot::publish_if_newer)
    /// can skip republishing unchanged epochs.
    pub fn from_stream(stream: &StreamingRpDbscan, num_shards: usize) -> Self {
        let snap = stream.snapshot();
        let rows: Vec<(u32, Option<u32>)> = snap
            .ids
            .iter()
            .zip(snap.labels.labels().iter())
            .map(|(id, &l)| (id.0, l))
            .collect();
        Self::build(
            stream.dictionary(),
            "exact",
            snap.epoch(),
            num_shards,
            stream.export_cells(),
            rows,
        )
    }

    /// Assembles the sharded structure from per-cell exports (coordinate
    /// order) over `dict` and point rows.
    fn build(
        dict: &CellDictionary,
        backend: &'static str,
        generation: u64,
        num_shards: usize,
        exports: Vec<CellExport>,
        rows: Vec<(u32, Option<u32>)>,
    ) -> Self {
        let spec = dict.spec().clone();
        let k = num_shards.max(1);
        let dim = spec.dim();
        let eps2 = spec.eps() * spec.eps();

        // Per-cluster summaries, folded over the plain vectors so the
        // totals never depend on hash-map iteration order.
        let num_clusters = exports
            .iter()
            .filter_map(|e| e.cluster)
            .chain(rows.iter().filter_map(|&(_, l)| l))
            .map(|c| c as usize + 1)
            .max()
            .unwrap_or(0);
        let mut clusters: Vec<ClusterStats> = (0..num_clusters)
            .map(|c| ClusterStats {
                cluster: c as u32,
                points: 0,
                core_points: 0,
                core_cells: 0,
            })
            .collect();
        for e in &exports {
            if let Some(c) = e.cluster {
                clusters[c as usize].core_cells += 1;
                clusters[c as usize].core_points += e.core_coords.len() / dim;
            }
        }
        for &(_, label) in &rows {
            if let Some(c) = label {
                clusters[c as usize].points += 1;
            }
        }

        let mut shards: Vec<Shard> = (0..k).map(|_| Shard::default()).collect();
        let mut scratch = vec![0.0; dim];
        for export in exports {
            let shard = &mut shards[shard_of_cell(&export.coord, k)];
            shard
                .cells
                .insert(Arc::new(export.coord.clone()), shard.records.len() as u32);
            let rec = CellRecord::new(export, dict, &mut scratch);
            shard.records.push(Some(Arc::new(rec)));
        }
        for s in &mut shards {
            s.built = generation;
        }
        let num_points = rows.len();
        let mut label_shards: Vec<LabelShard> = (0..k).map(|_| LabelShard::default()).collect();
        for (id, label) in rows {
            label_shards[shard_of_point(id, k)].labels.insert(id, label);
        }
        for s in &mut label_shards {
            s.built = generation;
        }

        Self {
            spec,
            eps2,
            backend,
            generation,
            shards: shards.into_iter().map(Arc::new).collect(),
            label_shards: label_shards.into_iter().map(Arc::new).collect(),
            clusters,
            num_points,
            patch: None,
            generation_tail: generation,
        }
    }

    /// Density backend that produced the served clustering.
    pub fn backend(&self) -> &'static str {
        self.backend
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
    fn validate(&self, q: &[f64]) -> Result<(), ServeError> {
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
    /// lookup a query landing in `coord` will need and precomputes the
    /// plan-time half of the density estimate (never-pruned cells,
    /// always-qualifying sub-cell sums, tested sub-centre SoA). Plans
    /// are pure functions of the index, so the server memoises them per
    /// cell — and pre-populates them at publish time.
    pub fn plan_for(&self, coord: &CellCoord) -> CellPlan {
        let home = self.find_cell(coord);
        let candidates = self.window_candidates(coord);
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
            None => candidates
                .iter()
                .copied()
                .filter(|&c| self.record(c).cluster.is_some())
                .collect(),
        };
        let dim = self.spec.dim();
        let side = self.spec.side();
        let never_bound = self.eps2 * (1.0 + EPS_SLACK);
        let always_bound = self.eps2 * (1.0 - EPS_SLACK);
        let mut plan = CellPlan {
            home,
            sources,
            d_lo: Vec::new(),
            d_total: Vec::new(),
            d_always: Vec::new(),
            d_sub_start: vec![0],
            d_centers: Vec::new(),
            d_counts: Vec::new(),
        };
        let mut seg_centers: Vec<f64> = Vec::new();
        let mut seg_counts: Vec<u64> = Vec::new();
        for &c in &candidates {
            let rec = self.record(c);
            let (min2, _) = self.spec.cell_box_dist2_bounds(coord, &rec.coord);
            if min2 > never_bound {
                // *never*: out of reach for every query point in `coord`.
                continue;
            }
            seg_centers.clear();
            seg_counts.clear();
            let mut t_always = 0u64;
            for (center, &n) in rec.sub_centers.chunks_exact(dim).zip(rec.sub_counts.iter()) {
                // Point-to-box bounds with the roles swapped: the
                // nearest/farthest point of `coord`'s box to this centre.
                let (cmin2, cmax2) = self.spec.cell_dist2_bounds(coord, center);
                if cmin2 > never_bound {
                    // *never*: beyond ε of every query in the home box —
                    // the per-query test can't hit, so drop it from the
                    // tested SoA. Its presence also makes the cell's
                    // full-containment branch unreachable (a query within
                    // ε of the whole cell box would be within ε of this
                    // centre), so `d_total` stays safe to report there.
                    continue;
                }
                if cmax2 <= always_bound {
                    t_always += n;
                } else {
                    seg_centers.extend_from_slice(center);
                    seg_counts.push(n);
                }
            }
            if t_always == 0 && seg_counts.is_empty() {
                // Every occupied sub-cell was never-pruned: the cell can
                // contribute nothing to any query in `coord` (its
                // full-containment branch is unreachable by the argument
                // above), so it earns no slot in the per-query loop.
                continue;
            }
            for &cc in rec.coord.coords() {
                plan.d_lo.push(cc as f64 * side);
            }
            plan.d_total.push(rec.count);
            plan.d_centers.extend_from_slice(&seg_centers);
            plan.d_counts.extend_from_slice(&seg_counts);
            plan.d_always.push(t_always);
            plan.d_sub_start.push(plan.d_counts.len() as u32);
        }
        plan
    }

    /// Occupied cells whose box is within ε of `coord`'s box, in
    /// coordinate order. Enumerates the `(2b+1)^d` window when that is
    /// cheaper than scanning the cell table, mirroring the streaming
    /// subsystem's dirty-region fallback for high dimensions.
    fn window_candidates(&self, coord: &CellCoord) -> Vec<CellRef> {
        let dim = self.spec.dim();
        let bound = self.eps2 * (1.0 + EPS_SLACK);
        let b = 1 + (dim as f64).sqrt().ceil() as i64;
        let width = (2 * b + 1) as usize;
        let box_cost = width.checked_pow(dim as u32);
        let table_cost = self.num_cells();
        if box_cost.is_some_and(|c| c <= table_cost.saturating_mul(4)) {
            // Enumerate offsets with dimension 0 as the outermost digit,
            // so candidates come out in lattice-coordinate order.
            let mut out = Vec::new();
            let mut offs = vec![-b; dim];
            let mut cand = Vec::with_capacity(dim);
            loop {
                cand.clear();
                cand.extend(coord.coords().iter().zip(offs.iter()).map(|(&c, &o)| c + o));
                let cc = CellCoord::new(cand.iter().copied());
                if self.spec.cell_min_dist2(coord, &cc) <= bound {
                    if let Some(r) = self.find_cell(&cc) {
                        out.push(r);
                    }
                }
                // Increment the mixed-radix counter, last dimension
                // fastest.
                let mut d = dim;
                loop {
                    if d == 0 {
                        return out;
                    }
                    d -= 1;
                    if offs[d] < b {
                        offs[d] += 1;
                        break;
                    }
                    offs[d] = -b;
                }
            }
        } else {
            // High dimension: the window would dwarf the table — scan
            // every record instead and sort by coordinate.
            let mut hits: Vec<(CellCoord, CellRef)> = Vec::new();
            for (s, shard) in self.shards.iter().enumerate() {
                for (r, rec) in shard.records.iter().enumerate() {
                    let Some(rec) = rec else { continue };
                    if self.spec.cell_min_dist2(coord, &rec.coord) <= bound {
                        hits.push((rec.coord.clone(), (s as u32, r as u32)));
                    }
                }
            }
            hits.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            hits.into_iter().map(|(_, r)| r).collect()
        }
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
    /// arithmetic replicates the oracle's per-query bounds and `dist2`
    /// expressions exactly, summing the same `u64` terms.
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
        let side = self.spec.side();
        let mut density = 0u64;
        for j in 0..plan.d_total.len() {
            // Per-query box bounds, bit-identical to
            // `GridSpec::cell_dist2_bounds` (same origins, same formulas).
            let lo = &plan.d_lo[j * dim..(j + 1) * dim];
            let mut min_acc = 0.0;
            let mut max_acc = 0.0;
            for (&l, &v) in lo.iter().zip(q.iter()) {
                let hi = l + side;
                // Branch-free selection of the same values the branchy
                // `cell_dist2_bounds` arms produce: `l - v` when the
                // query is left of the box, `v - hi` right of it, else 0.
                let dmin = (l - v).max(v - hi).max(0.0);
                let dmax = (v - l).abs().max((v - hi).abs());
                min_acc += dmin * dmin;
                max_acc += dmax * dmax;
            }
            if min_acc > eps2 {
                continue;
            }
            if max_acc <= eps2 {
                // Fully contained cell: every sub-cell counts.
                density += plan.d_total[j];
            } else {
                // Partially contained: the always-qualifying sub-cells
                // were summed at plan time; the tested remainder runs
                // through the shared chunked kernel over the SoA centres.
                let start = plan.d_sub_start[j] as usize;
                let end = plan.d_sub_start[j + 1] as usize;
                density += plan.d_always[j]
                    + kernel::sum_within_u64(
                        q,
                        &plan.d_centers[start * dim..end * dim],
                        dim,
                        eps2,
                        &plan.d_counts[start..end],
                    );
            }
        }
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
        let candidates = self.window_candidates(&coord);
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
                        density += n;
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
        let mut out: Vec<(CellCoord, CellPlan)> = occupied
            .iter()
            .take(budget)
            .map(|c| (c.clone(), self.plan_for(c)))
            .collect();
        // Neighbourhood warming only pays while the 3^d halo is small
        // relative to the budget headroom; high dimensions skip it.
        let dim = self.spec.dim();
        let halo_feasible = 3usize.checked_pow(dim as u32).is_some_and(|w| w <= 1 << 12);
        if out.len() < budget && halo_feasible {
            let mut halo: std::collections::BTreeSet<CellCoord> = std::collections::BTreeSet::new();
            let mut cand = Vec::with_capacity(dim);
            for c in &occupied {
                let mut offs = vec![-1i64; dim];
                loop {
                    cand.clear();
                    cand.extend(c.coords().iter().zip(offs.iter()).map(|(&x, &o)| x + o));
                    let cc = CellCoord::new(cand.iter().copied());
                    if self.find_cell(&cc).is_none() {
                        halo.insert(cc);
                    }
                    let mut d = dim;
                    loop {
                        if d == 0 {
                            break;
                        }
                        d -= 1;
                        if offs[d] < 1 {
                            offs[d] += 1;
                            break;
                        }
                        offs[d] = -1;
                    }
                    if offs.iter().all(|&o| o == -1) {
                        break;
                    }
                }
            }
            for c in halo {
                if out.len() >= budget {
                    break;
                }
                let plan = self.plan_for(&c);
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
        coords
            .into_iter()
            .map(|c| {
                let plan = self.plan_for(&c);
                (c, plan)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

//! Incremental micro-batch clustering over the RP-DBSCAN batch pipeline.
//!
//! The paper's pipeline is strictly batch: every run rebuilds the cell
//! dictionary, the cell graph, and all labels. Its data structures are
//! nonetheless naturally incremental — an inserted or deleted point
//! perturbs exactly one cell's densities (Definitions 3.1, 4.1–4.2), and a
//! cell's core status and successor edges depend only on `(ε,ρ)`-region
//! queries of its own points, so nothing farther than ε from a changed
//! cell (box-to-box, `GridSpec::cell_min_dist2`) can be affected.
//!
//! [`StreamingRpDbscan`] exploits that locality: it keeps a long-lived
//! mutable dictionary, per-cell graph state, and point labels, accepts
//! [`StreamingRpDbscan::insert_batch`] / [`StreamingRpDbscan::remove_batch`]
//! micro-batches, and repairs only the *dirty region* of each batch —
//! the changed cells plus every occupied cell within ε of one. Connected
//! components and the labels of affected border points are then re-resolved,
//! and [`StreamingRpDbscan::snapshot`] exposes a consistent epoch view.
//!
//! Each micro-batch executes as engine stages named
//! `epoch-{n}:{ingest,repair,relabel}` (see
//! `rpdbscan_engine::epoch_stage_name`), so streaming inherits Stage API
//! v2's retry/cancellation, pluggable schedulers, per-task metrics, and
//! Chrome-trace lanes for free.
//!
//! The headline invariant, enforced by this crate's property tests: after
//! *any* interleaving of insert and delete batches, the clustering equals
//! `RpDbscan::run_local` on the surviving points (Rand index 1.0) with the
//! same parameters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rpdbscan_core::repair::{
    assign_border_point, cell_contribution, contribution_delta, recompute_cell, sub_diff,
    CellRepair, SubDiff,
};
use rpdbscan_core::{CellExport, RpDbscanParams};
use rpdbscan_engine::{epoch_stage_name, CostModel, Engine, EngineReport, StageError};
use rpdbscan_geom::{dist2, Dataset};
use rpdbscan_grid::{
    for_each_in_box, CellCoord, CellDictionary, CellWindow, DecodeError, DictionaryIndex,
    FxHashMap, FxHashSet, GridError, GridSpec, SubCellEntry,
};
use rpdbscan_metrics::Clustering;

mod window;
pub use window::SlidingWindow;

/// Stable identifier of a point in the stream: assigned by
/// [`StreamingRpDbscan::insert_batch`], consumed by
/// [`StreamingRpDbscan::remove_batch`]. Slots of removed points are
/// recycled for later insertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamPointId(pub u32);

/// Errors from the streaming layer.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// Grid construction rejected the `(d, ε, ρ)` combination.
    Grid(GridError),
    /// `minPts` must be at least 1.
    InvalidMinPts(usize),
    /// A batch's flat coordinate buffer is not a multiple of the
    /// dimensionality, or a row has the wrong width.
    DimensionMismatch {
        /// Configured dimensionality.
        expected: usize,
        /// Offending length.
        got: usize,
    },
    /// A batch coordinate is NaN or infinite.
    NonFinite {
        /// Index of the offending point within the batch.
        index: usize,
    },
    /// A removal referenced an id that is not live (never issued, already
    /// removed, or repeated within the batch).
    UnknownPoint(u32),
    /// The streaming epoch path repairs dirty regions with the exact
    /// `(ε,ρ)`-region query; an approximate density backend selection
    /// (`knn` / `sampled`) has no incremental repair story yet and is
    /// rejected at construction. The payload is the rejected backend's
    /// tag.
    UnsupportedBackend(&'static str),
    /// An engine stage failed (a task panicked and exhausted its
    /// retries). The ingest stage runs before any state mutation, so an
    /// ingest failure leaves the stream untouched.
    Stage(StageError),
    /// A serialized cell dictionary failed to decode (truncated buffer,
    /// bad magic, corrupt header, or inconsistent densities).
    Dictionary(DecodeError),
    /// A decoded cell dictionary was built over a different grid than
    /// this stream's `(d, ε, ρ)` configuration.
    DictionaryMismatch {
        /// This stream's `(dim, eps, rho)`.
        expected: (usize, f64, f64),
        /// The decoded dictionary's `(dim, eps, rho)`.
        got: (usize, f64, f64),
    },
    /// A sliding window must admit at least one point.
    InvalidWindow,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Grid(e) => write!(f, "grid error: {e}"),
            StreamError::InvalidMinPts(m) => write!(f, "minPts must be >= 1, got {m}"),
            StreamError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "dimension mismatch: expected multiple of {expected}, got {got}"
                )
            }
            StreamError::NonFinite { index } => {
                write!(f, "batch point {index} has a non-finite coordinate")
            }
            StreamError::UnknownPoint(id) => write!(f, "point id {id} is not live"),
            StreamError::UnsupportedBackend(b) => write!(
                f,
                "streaming only supports the exact density backend; \
                 `{b}` has no incremental repair path"
            ),
            StreamError::Stage(e) => write!(f, "{e}"),
            StreamError::Dictionary(e) => write!(f, "corrupt dictionary: {e}"),
            StreamError::DictionaryMismatch { expected, got } => write!(
                f,
                "dictionary grid mismatch: stream is (dim={}, eps={}, rho={}), \
                 dictionary is (dim={}, eps={}, rho={})",
                expected.0, expected.1, expected.2, got.0, got.1, got.2
            ),
            StreamError::InvalidWindow => {
                write!(f, "sliding window must admit at least one point")
            }
        }
    }
}

impl std::error::Error for StreamError {}

impl From<GridError> for StreamError {
    fn from(e: GridError) -> Self {
        StreamError::Grid(e)
    }
}

impl From<StageError> for StreamError {
    fn from(e: StageError) -> Self {
        StreamError::Stage(e)
    }
}

impl From<DecodeError> for StreamError {
    fn from(e: DecodeError) -> Self {
        StreamError::Dictionary(e)
    }
}

/// Counters describing the streaming state and the most recent epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamStats {
    /// Number of live points.
    pub live_points: usize,
    /// Number of occupied cells.
    pub num_cells: usize,
    /// Number of clusters at the latest epoch.
    pub num_clusters: usize,
    /// Cells whose densities the latest batch changed.
    pub last_changed_cells: usize,
    /// Cells repaired in the latest epoch (changed cells plus their
    /// ε-neighbourhood).
    pub last_dirty_cells: usize,
    /// Non-core cells whose border points were re-labeled in the latest
    /// epoch.
    pub last_relabeled_cells: usize,
    /// Total cells repaired across all epochs.
    pub total_repaired_cells: u64,
    /// Total points ever inserted.
    pub total_inserted: u64,
    /// Total points ever removed.
    pub total_removed: u64,
}

/// A consistent view of the clustering at one epoch.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The epoch this snapshot reflects (one epoch per applied batch).
    pub epoch: u64,
    /// Live point ids, ascending; row `i` of `labels` is the label of
    /// `ids[i]`. Matches the row order of [`StreamingRpDbscan::dataset`].
    pub ids: Vec<StreamPointId>,
    /// Cluster labels (`None` = noise), one per live point.
    pub labels: Clustering,
    /// Counters at this epoch.
    pub stats: StreamStats,
    /// Cells whose serve-visible state the snapshot's epoch changed,
    /// sorted by coordinate — see [`Snapshot::dirty_cells`].
    pub dirty: Vec<CellCoord>,
}

impl Snapshot {
    /// The snapshot's version: the epoch it reflects. Two snapshots taken
    /// without an intervening batch share one version, so a hot-swap
    /// publisher can compare versions and skip republishing an unchanged
    /// epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The cells whose exported state ([`StreamingRpDbscan::export_cell`])
    /// this epoch changed, sorted by coordinate — including cells the
    /// batch emptied entirely. An incremental index publisher rebuilds
    /// only these; for deltas spanning more than one epoch use
    /// [`StreamingRpDbscan::dirty_cells_since`]. Cluster-id *renumbering*
    /// is deliberately out of scope (ids are reassigned globally every
    /// epoch), so a delta consumer additionally compares its stored ids
    /// against [`StreamingRpDbscan::cell_cluster`].
    pub fn dirty_cells(&self) -> &[CellCoord] {
        &self.dirty
    }
}

/// Per-cell incremental state: the streaming equivalent of one vertex of
/// the batch pipeline's cell graph, keyed by coordinate rather than
/// dictionary index (indices shift across epochs; coordinates do not).
#[derive(Debug, Clone, Default)]
struct CellState {
    /// Live point slots in this cell (insertion order).
    points: Vec<u32>,
    /// Subset of `points` that are core points.
    core_points: Vec<u32>,
    /// Whether the cell holds at least one core point.
    is_core: bool,
    /// Successor cells of this (core) cell, sorted by coordinate.
    neighbors: Vec<CellCoord>,
}

/// Output of one cell's repair: the full re-derived state, or — for
/// unchanged cells whose core set and edges both held — just the
/// refreshed density caches, which the apply step can absorb without
/// touching the graph or the relabel set.
enum Repair {
    Full(CellRepair),
    DensityOnly(Vec<u64>),
}

/// Long-lived incremental RP-DBSCAN state; see the crate docs.
///
/// ```
/// use rpdbscan_core::RpDbscanParams;
/// use rpdbscan_stream::StreamingRpDbscan;
///
/// let params = RpDbscanParams::new(1.0, 4);
/// let mut s = StreamingRpDbscan::new(2, params).unwrap();
/// // A tight 2×5 grid of points: one cluster.
/// let mut batch = Vec::new();
/// for i in 0..5 {
///     batch.extend([i as f64 * 0.3, 0.0]);
///     batch.extend([i as f64 * 0.3, 0.3]);
/// }
/// let ids = s.insert_batch(&batch).unwrap();
/// assert_eq!(ids.len(), 10);
/// let snap = s.snapshot();
/// assert_eq!(snap.epoch, 1);
/// assert_eq!(snap.labels.num_clusters(), 1);
/// // Removing one half leaves the other clustered.
/// s.remove_batch(&ids[..5]).unwrap();
/// assert_eq!(s.snapshot().labels.len(), 5);
/// ```
#[derive(Debug)]
pub struct StreamingRpDbscan {
    params: RpDbscanParams,
    spec: GridSpec,
    engine: Engine,
    dim: usize,
    /// Slot-major flat coordinates; slot `s` occupies
    /// `coords[s*dim .. (s+1)*dim]`. Slots of removed points are recycled.
    coords: Vec<f64>,
    live: Vec<bool>,
    /// Cached `(ε,ρ)`-region density per live slot, kept current by the
    /// repair stage: full-window sums for new points, per-cell deltas for
    /// the rest.
    density: Vec<u64>,
    free: Vec<u32>,
    n_live: usize,
    /// Incrementally maintained two-level cell dictionary — always equal
    /// to a fresh build over the live points.
    dict: CellDictionary,
    cells: FxHashMap<CellCoord, CellState>,
    /// Reverse adjacency for border labeling: non-core cell → its core
    /// predecessor cells, sorted by coordinate (the batch pipeline's
    /// deterministic tie-break order). Maintained incrementally from
    /// repair diffs.
    preds: FxHashMap<CellCoord, Vec<CellCoord>>,
    /// Cluster id per core cell, rebuilt each epoch from the cached edges.
    cluster_of_cell: FxHashMap<CellCoord, u32>,
    num_clusters: usize,
    /// Winning predecessor core cell per labeled border point slot.
    /// Stored as a coordinate so cluster renumbering between epochs never
    /// invalidates it; resolved to a cluster id at snapshot time.
    border_label: FxHashMap<u32, CellCoord>,
    /// Last epoch each cell's *serve-visible* record changed: its point
    /// membership, core set, successor edges, or predecessor list.
    /// Coordinates of removed cells keep their removal epoch, so a delta
    /// consumer that last synced at epoch `e` recovers every difference
    /// from [`Self::dirty_cells_since`]. Density-only repairs are absent
    /// on purpose — cached per-point densities are never exported.
    touched_epoch: FxHashMap<CellCoord, u64>,
    /// Per-epoch stamp lists for the most recent epochs (front = oldest
    /// kept, back = current) — a materialised fast path for
    /// head-chasing `dirty_cells_since` queries (an incremental publish
    /// a few epochs behind), which would otherwise scan the whole
    /// `touched_epoch` map on every publish.
    recent_dirty: std::collections::VecDeque<(u64, Vec<CellCoord>)>,
    /// Per-epoch removed point slots, same retention as `recent_dirty`:
    /// the delta a label consumer needs to drop rows without rescanning.
    recent_removed: std::collections::VecDeque<(u64, Vec<u32>)>,
    /// Per-epoch slots whose `border_label` entry effectively changed
    /// (inserted, rehomed, or cleared), same retention as `recent_dirty`.
    /// Together with the dirty-cell and removed deltas this closes the
    /// label-delta story: a border point's label can move even when its
    /// own cell's exported record does not.
    recent_label_moves: std::collections::VecDeque<(u64, Vec<u32>)>,
    /// Slots removed by the batch being applied, staged for
    /// `recent_removed` when the repair epoch materialises its deltas.
    pending_removed: Vec<u32>,
    epoch: u64,
    stats: StreamStats,
}

impl StreamingRpDbscan {
    /// Creates an empty streaming state for `dim`-dimensional points with
    /// a machine-sized engine (free cost model), mirroring
    /// `RpDbscan::run_local`.
    pub fn new(dim: usize, params: RpDbscanParams) -> Result<Self, StreamError> {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self::with_engine(
            dim,
            params,
            Engine::with_cost_model(workers, CostModel::free()),
        )
    }

    /// Creates an empty streaming state running its stages on `engine`.
    pub fn with_engine(
        dim: usize,
        params: RpDbscanParams,
        engine: Engine,
    ) -> Result<Self, StreamError> {
        if params.min_pts < 1 {
            return Err(StreamError::InvalidMinPts(params.min_pts));
        }
        if !params.density_backend.is_exact() {
            return Err(StreamError::UnsupportedBackend(
                params.density_backend.name(),
            ));
        }
        let spec = GridSpec::new(dim, params.eps, params.rho)?;
        let dict = CellDictionary::build_from_points(spec.clone(), std::iter::empty());
        Ok(Self {
            params,
            spec,
            engine,
            dim,
            coords: Vec::new(),
            live: Vec::new(),
            density: Vec::new(),
            free: Vec::new(),
            n_live: 0,
            dict,
            cells: FxHashMap::default(),
            preds: FxHashMap::default(),
            cluster_of_cell: FxHashMap::default(),
            num_clusters: 0,
            border_label: FxHashMap::default(),
            touched_epoch: FxHashMap::default(),
            recent_dirty: std::collections::VecDeque::new(),
            recent_removed: std::collections::VecDeque::new(),
            recent_label_moves: std::collections::VecDeque::new(),
            pending_removed: Vec::new(),
            epoch: 0,
            stats: StreamStats::default(),
        })
    }

    /// The configured parameters.
    pub fn params(&self) -> &RpDbscanParams {
        &self.params
    }

    /// The grid the stream clusters over.
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Serializes the current cell dictionary in the broadcast wire
    /// format (`CellDictionary::encode`), e.g. to persist alongside the
    /// labels for a later compatibility check.
    pub fn encode_dictionary(&self) -> Vec<u8> {
        self.dict.encode()
    }

    /// Decodes `bytes` as a broadcast cell dictionary and checks it was
    /// built over this stream's exact grid.
    ///
    /// Corrupt input surfaces as [`StreamError::Dictionary`] (truncated
    /// buffer, bad magic, corrupt header, inconsistent densities); a
    /// well-formed dictionary for a different `(d, ε, ρ)` surfaces as
    /// [`StreamError::DictionaryMismatch`]. On success the decoded
    /// dictionary is returned for inspection.
    pub fn check_dictionary(&self, bytes: &[u8]) -> Result<CellDictionary, StreamError> {
        let dict = CellDictionary::decode(bytes)?;
        let (ours, theirs) = (&self.spec, dict.spec());
        // Bitwise float equality on purpose: the wire format round-trips
        // eps/rho exactly, so any difference means a different grid.
        let same = ours.dim() == theirs.dim()
            && ours.eps().to_bits() == theirs.eps().to_bits()
            && ours.rho().to_bits() == theirs.rho().to_bits();
        if !same {
            return Err(StreamError::DictionaryMismatch {
                expected: (ours.dim(), ours.eps(), ours.rho()),
                got: (theirs.dim(), theirs.eps(), theirs.rho()),
            });
        }
        Ok(dict)
    }

    /// Number of live points.
    pub fn len(&self) -> usize {
        self.n_live
    }

    /// Whether the stream holds no live points.
    pub fn is_empty(&self) -> bool {
        self.n_live == 0
    }

    /// The current epoch (number of applied batches).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The engine running the streaming stages.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The engine's accumulated report — streaming epochs appear as
    /// `epoch-{n}:{step}` stages (metrics, trace lanes).
    pub fn report(&self) -> EngineReport {
        self.engine.report()
    }

    /// Inserts a micro-batch given as a flat coordinate buffer
    /// (`dim` values per point) and advances one epoch. Returns the
    /// assigned id of each inserted point, in batch order.
    pub fn insert_batch(&mut self, flat: &[f64]) -> Result<Vec<StreamPointId>, StreamError> {
        if !flat.len().is_multiple_of(self.dim) {
            return Err(StreamError::DimensionMismatch {
                expected: self.dim,
                got: flat.len(),
            });
        }
        if let Some(bad) = flat.iter().position(|v| !v.is_finite()) {
            return Err(StreamError::NonFinite {
                index: bad / self.dim,
            });
        }
        let n = flat.len() / self.dim;
        self.epoch += 1;

        // Stage 1 — ingest: grid-locate the batch in parallel.
        let coords_of = self.run_ingest(flat)?;

        // Apply serially: allocate slots, update the point store, the
        // per-cell membership lists, and the dictionary densities.
        let mut ids = Vec::with_capacity(n);
        for (i, coord) in coords_of.iter().enumerate() {
            let p = &flat[i * self.dim..(i + 1) * self.dim];
            let slot = match self.free.pop() {
                Some(s) => {
                    self.coords[s as usize * self.dim..(s as usize + 1) * self.dim]
                        .copy_from_slice(p);
                    self.live[s as usize] = true;
                    s
                }
                None => {
                    let s = self.live.len() as u32;
                    self.coords.extend_from_slice(p);
                    self.live.push(true);
                    self.density.push(0);
                    s
                }
            };
            self.cells
                .entry(coord.clone())
                .or_default()
                .points
                .push(slot);
            ids.push(StreamPointId(slot));
        }
        self.n_live += n;
        self.stats.total_inserted += n as u64;
        let old_subs = self.capture_subs(coords_of.iter());
        let changed = self
            .dict
            .insert_points((0..n).map(|i| &flat[i * self.dim..(i + 1) * self.dim]));
        let new_slots: FxHashSet<u32> = ids.iter().map(|&StreamPointId(s)| s).collect();

        self.run_repair_epoch(changed, old_subs, new_slots)?;
        Ok(ids)
    }

    /// Snapshots the sub-cell entries of the given cells *before* a
    /// dictionary mutation, so the repair stage can compute each
    /// neighbour's density delta (new minus old contribution).
    fn capture_subs<'a>(
        &self,
        coords: impl Iterator<Item = &'a CellCoord>,
    ) -> FxHashMap<CellCoord, Vec<SubCellEntry>> {
        let mut old_subs: FxHashMap<CellCoord, Vec<SubCellEntry>> = FxHashMap::default();
        for c in coords {
            if !old_subs.contains_key(c) {
                let subs = self.dict.get(c).map(|e| e.subs.clone()).unwrap_or_default();
                old_subs.insert(c.clone(), subs);
            }
        }
        old_subs
    }

    /// Inserts a micro-batch of row vectors (convenience wrapper over
    /// [`Self::insert_batch`]).
    pub fn insert_rows(&mut self, rows: &[Vec<f64>]) -> Result<Vec<StreamPointId>, StreamError> {
        let mut flat = Vec::with_capacity(rows.len() * self.dim);
        for r in rows {
            if r.len() != self.dim {
                return Err(StreamError::DimensionMismatch {
                    expected: self.dim,
                    got: r.len(),
                });
            }
            flat.extend_from_slice(r);
        }
        self.insert_batch(&flat)
    }

    /// Removes a micro-batch of previously inserted points and advances
    /// one epoch. Ids must be live and distinct; on error nothing is
    /// applied.
    pub fn remove_batch(&mut self, ids: &[StreamPointId]) -> Result<(), StreamError> {
        // Validate before mutating anything.
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        for &StreamPointId(s) in ids {
            if (s as usize) >= self.live.len() || !self.live[s as usize] || !seen.insert(s) {
                return Err(StreamError::UnknownPoint(s));
            }
        }
        self.epoch += 1;

        // Stage 1 — ingest: grid-locate the doomed points in parallel.
        let flat: Vec<f64> = ids
            .iter()
            .flat_map(|&StreamPointId(s)| {
                self.coords[s as usize * self.dim..(s as usize + 1) * self.dim]
                    .iter()
                    .copied()
            })
            .collect();
        let coords_of = self.run_ingest(&flat)?;

        // Apply serially.
        let old_subs = self.capture_subs(coords_of.iter());
        let changed = self
            .dict
            .remove_points((0..ids.len()).map(|i| &flat[i * self.dim..(i + 1) * self.dim]));
        for (&StreamPointId(s), coord) in ids.iter().zip(coords_of.iter()) {
            let state = self
                .cells
                .get_mut(coord)
                .expect("live point's cell missing from state"); // lint:allow(panic-safety): ids were validated live above, and every live point's cell has a CellState by the insert-path invariant
            state.points.retain(|&p| p != s);
            self.live[s as usize] = false;
            self.free.push(s);
            self.border_label.remove(&s);
            self.pending_removed.push(s);
        }
        self.n_live -= ids.len();
        self.stats.total_removed += ids.len() as u64;

        self.run_repair_epoch(changed, old_subs, FxHashSet::default())
    }

    /// A consistent labeled view of the live points at the current epoch.
    pub fn snapshot(&self) -> Snapshot {
        let mut ids = Vec::with_capacity(self.n_live);
        let mut labels = Vec::with_capacity(self.n_live);
        for (s, &alive) in self.live.iter().enumerate() {
            if !alive {
                continue;
            }
            let slot = s as u32;
            let p = &self.coords[s * self.dim..(s + 1) * self.dim];
            let coord = self.spec.cell_of(p);
            let state = &self.cells[&coord];
            let label = if state.is_core {
                Some(self.cluster_of_cell[&coord])
            } else {
                self.border_label.get(&slot).map(|winner| {
                    *self
                        .cluster_of_cell
                        .get(winner)
                        .expect("border label points at a non-core cell") // lint:allow(panic-safety): repair only records border winners that are core cells, and every core cell gets a cluster id in the same pass
                })
            };
            ids.push(StreamPointId(slot));
            labels.push(label);
        }
        Snapshot {
            epoch: self.epoch,
            ids,
            labels: Clustering::new(labels),
            stats: self.stats,
            dirty: self.dirty_cells_since(self.epoch.saturating_sub(1)),
        }
    }

    /// Cells whose serve-visible state changed *after* `epoch`
    /// (exclusive), sorted by coordinate. Includes cells that have since
    /// been emptied — the consumer sees them vanish from
    /// [`Self::export_cell`] — and cells whose cluster id moved: ids are
    /// sticky across epochs, and the component rebuild stamps exactly
    /// the cells whose id changed.
    pub fn dirty_cells_since(&self, epoch: u64) -> Vec<CellCoord> {
        // Head-chasing consumer: every epoch after `epoch` is still in
        // the recent-stamp deque (one entry per repair epoch), so the
        // answer is a concatenation of a few small lists instead of a
        // scan over every cell ever touched.
        let covered = self
            .recent_dirty
            .front()
            .is_some_and(|&(first, _)| first <= epoch + 1)
            && self
                .recent_dirty
                .back()
                .is_some_and(|&(last, _)| last == self.epoch);
        if covered {
            let mut out: Vec<CellCoord> = self
                .recent_dirty
                .iter()
                .filter(|&&(e, _)| e > epoch)
                .flat_map(|(_, v)| v.iter().cloned())
                .collect();
            out.sort_unstable();
            out.dedup();
            return out;
        }
        let mut out: Vec<CellCoord> = self
            .touched_epoch
            .iter()
            .filter(|&(_, &e)| e > epoch)
            .map(|(c, _)| c.clone())
            .collect();
        out.sort_unstable();
        out
    }

    /// Per-point label rows at the current epoch: `(id, label)` for every
    /// live point, equal as a set to [`Self::snapshot`]'s `ids`/`labels`
    /// pairing but computed by walking the cell table instead of
    /// re-deriving every point's cell — the cheap form delta consumers
    /// use. Row order is unspecified.
    pub fn export_label_rows(&self) -> Vec<(u32, Option<u32>)> {
        let mut out = Vec::with_capacity(self.n_live);
        // lint:allow(unordered-iter): rows land in id-keyed maps and additive folds downstream, so emission order is immaterial
        for (coord, state) in &self.cells {
            self.append_cell_rows(coord, state, &mut out);
        }
        out
    }

    /// Appends the current `(id, label)` rows of the cell at `coord`
    /// (no-op when the cell is unoccupied) — the per-cell unit of
    /// [`Self::export_label_rows`], for delta consumers that only
    /// relabel the cells named by [`Self::dirty_cells_since`].
    pub fn cell_label_rows(&self, coord: &CellCoord, out: &mut Vec<(u32, Option<u32>)>) {
        if let Some(state) = self.cells.get(coord) {
            self.append_cell_rows(coord, state, out);
        }
    }

    fn append_cell_rows(
        &self,
        coord: &CellCoord,
        state: &CellState,
        out: &mut Vec<(u32, Option<u32>)>,
    ) {
        if state.is_core {
            let cid = self.cluster_of_cell[coord];
            for &p in &state.points {
                out.push((p, Some(cid)));
            }
        } else {
            for &p in &state.points {
                let label = self.border_label.get(&p).map(|winner| {
                    *self
                        .cluster_of_cell
                        .get(winner)
                        .expect("border label points at a non-core cell") // lint:allow(panic-safety): repair only records border winners that are core cells, and every core cell gets a cluster id in the same pass
                });
                out.push((p, label));
            }
        }
    }

    /// The current label of the live point in `slot` (`Some(None)` is a
    /// live noise point), or `None` when the slot is free.
    pub fn label_of_point(&self, slot: u32) -> Option<Option<u32>> {
        if !self.is_live(slot) {
            return None;
        }
        let p = &self.coords[slot as usize * self.dim..(slot as usize + 1) * self.dim];
        let coord = self.spec.cell_of(p);
        let state = self.cells.get(&coord)?;
        if state.is_core {
            Some(self.cluster_of_cell.get(&coord).copied())
        } else {
            Some(self.border_label.get(&slot).map(|winner| {
                *self
                    .cluster_of_cell
                    .get(winner)
                    .expect("border label points at a non-core cell") // lint:allow(panic-safety): repair only records border winners that are core cells, and every core cell gets a cluster id in the same pass
            }))
        }
    }

    /// Whether `slot` currently holds a live point.
    pub fn is_live(&self, slot: u32) -> bool {
        self.live.get(slot as usize).copied().unwrap_or(false)
    }

    /// The current border assignments as `(slot, winning core cell)`
    /// pairs, one per labeled border point, in unspecified order.
    pub fn border_winners(&self) -> impl Iterator<Item = (u32, &CellCoord)> + '_ {
        // lint:allow(unordered-iter): order is documented unspecified; the delta-publish consumer feeds an id-keyed map
        self.border_label.iter().map(|(&s, c)| (s, c))
    }

    /// Point slots removed *after* `epoch` (exclusive), sorted and
    /// deduped, or `None` when the retained per-epoch deltas no longer
    /// reach back that far. A returned slot may have been reused by a
    /// later insert — callers pick between "drop the row" and "relabel"
    /// by [`Self::is_live`].
    pub fn removed_since(&self, epoch: u64) -> Option<Vec<u32>> {
        Self::recent_slots_since(&self.recent_removed, epoch, self.epoch)
    }

    /// Slots whose border-label entry effectively changed *after*
    /// `epoch` (exclusive), sorted and deduped, or `None` when the
    /// retained deltas don't reach back that far. Together with
    /// [`Self::dirty_cells_since`] and [`Self::removed_since`] this is a
    /// complete account of label movement: a border point's label can
    /// move without its own cell's exported record changing.
    pub fn label_moves_since(&self, epoch: u64) -> Option<Vec<u32>> {
        Self::recent_slots_since(&self.recent_label_moves, epoch, self.epoch)
    }

    /// Cluster id of the core cell at `coord` under the current epoch's
    /// numbering (`None` when the cell is unoccupied or non-core).
    pub fn cell_cluster(&self, coord: &CellCoord) -> Option<u32> {
        self.cluster_of_cell.get(coord).copied()
    }

    /// The live points as a [`Dataset`], in [`Self::snapshot`]'s row
    /// order — so a batch `RpDbscan::run_local` over it is directly
    /// comparable with the snapshot's labels.
    pub fn dataset(&self) -> Dataset {
        let mut flat = Vec::with_capacity(self.n_live * self.dim);
        for (s, &alive) in self.live.iter().enumerate() {
            if alive {
                flat.extend_from_slice(&self.coords[s * self.dim..(s + 1) * self.dim]);
            }
        }
        // lint:allow(panic-safety): flat is built as n_live rows of exactly dim coordinates, and dim >= 1 is checked at construction
        Dataset::from_flat(self.dim, flat).expect("live points form a valid dataset")
    }

    /// The incrementally maintained cell dictionary (always equal to a
    /// fresh build over the live points).
    pub fn dictionary(&self) -> &CellDictionary {
        &self.dict
    }

    /// Exports the per-cell clustering state for the current epoch,
    /// sorted by cell coordinate. This is the handoff an external index
    /// builder (the serving layer) needs to resolve labels exactly as
    /// Phase III does: core cells carry their cluster id, non-core cells
    /// carry their sorted predecessor core cells, and every cell carries
    /// its core points' coordinates for the exact ε border checks.
    pub fn export_cells(&self) -> Vec<CellExport> {
        let mut coords: Vec<&CellCoord> = self.cells.keys().collect();
        coords.sort_unstable();
        coords
            .into_iter()
            .filter_map(|coord| self.export_cell(coord))
            .collect()
    }

    /// Exports one cell's serving record at the current epoch, or `None`
    /// when the cell is unoccupied — the per-cell counterpart of
    /// [`Self::export_cells`] for delta consumers that only rebuild the
    /// cells named by [`Self::dirty_cells_since`].
    pub fn export_cell(&self, coord: &CellCoord) -> Option<CellExport> {
        let state = self.cells.get(coord)?;
        let cluster = if state.is_core {
            self.cluster_of_cell.get(coord).copied()
        } else {
            None
        };
        let preds = if state.is_core {
            Vec::new()
        } else {
            self.preds.get(coord).cloned().unwrap_or_default()
        };
        let mut core_coords = Vec::with_capacity(state.core_points.len() * self.dim);
        for &s in &state.core_points {
            core_coords.extend_from_slice(
                &self.coords[s as usize * self.dim..(s as usize + 1) * self.dim],
            );
        }
        Some(CellExport {
            coord: coord.clone(),
            cluster,
            preds,
            core_coords,
        })
    }

    /// Splits `items` into at most `2 × physical threads` chunks for stage
    /// fan-out.
    fn chunked<T: Clone>(&self, items: &[T]) -> Vec<Vec<T>> {
        if items.is_empty() {
            return Vec::new();
        }
        let want = (self.engine.workers() * 2).max(1);
        let chunk = items.len().div_ceil(want);
        items.chunks(chunk).map(|c| c.to_vec()).collect()
    }

    /// Stage `epoch-{n}:ingest` — grid-locates a flat batch in parallel
    /// and returns one cell coordinate per point.
    fn run_ingest(&self, flat: &[f64]) -> Result<Vec<CellCoord>, StageError> {
        let dim = self.dim;
        let n = flat.len() / dim;
        let ranges: Vec<(usize, usize)> = {
            let idx: Vec<usize> = (0..n).collect();
            self.chunked(&idx)
                .into_iter()
                .map(|c| (c[0], c[c.len() - 1] + 1))
                .collect()
        };
        let spec = &self.spec;
        let name = epoch_stage_name(self.epoch, "ingest");
        let result = self
            .engine
            .run_stage(&name, ranges, |_, (lo, hi): (usize, usize)| {
                Ok((lo..hi)
                    .map(|i| spec.cell_of(&flat[i * dim..(i + 1) * dim]))
                    .collect::<Vec<CellCoord>>())
            })?;
        Ok(result.outputs.into_iter().flatten().collect())
    }

    /// The dirty region of a batch: every occupied cell within ε
    /// (box-to-box) of a changed cell, paired with the changed cells
    /// within ε of it (the sources of its density deltas). Uses lattice
    /// box enumeration when the `(2B+1)^d` window is smaller than a scan
    /// over all occupied cells, the scan otherwise; both apply the same
    /// [`GridSpec::in_eps_window`] test, so the result is identical. Its
    /// slack keeps boundary cells: repairing an unaffected cell is a
    /// no-op, missing an affected one is a correctness bug.
    fn dirty_region(&self, changed: &[CellCoord]) -> Vec<(CellCoord, Vec<CellCoord>)> {
        let mut dirty: FxHashMap<CellCoord, Vec<CellCoord>> = FxHashMap::default();
        let mut pair = |changed: &CellCoord, occupied: CellCoord| {
            dirty.entry(occupied).or_default().push(changed.clone());
        };
        let b = self.spec.window_reach();
        let window = (2 * b + 1).checked_pow(self.dim as u32);
        let box_cost = window.and_then(|w| w.checked_mul(changed.len() as i64));
        let scan_cost = (self.cells.len() * changed.len()) as i64;
        match box_cost {
            Some(cost) if cost <= scan_cost => {
                for c in changed {
                    let lo: Vec<i64> = c.coords().iter().map(|&x| x - b).collect();
                    let hi: Vec<i64> = c.coords().iter().map(|&x| x + b).collect();
                    for_each_in_box(&lo, &hi, |p| {
                        let cand = CellCoord::new(p.iter().copied());
                        if self.cells.contains_key(&cand) && self.spec.in_eps_window(c, &cand) {
                            pair(c, cand);
                        }
                    });
                }
            }
            _ => {
                // lint:allow(unordered-iter): pairs accumulate into dirty, whose values and keys are both sorted before use below
                for cand in self.cells.keys() {
                    for c in changed {
                        if self.spec.in_eps_window(c, cand) {
                            pair(c, cand.clone());
                        }
                    }
                }
            }
        }
        for sources in dirty.values_mut() {
            sources.sort_unstable();
        }
        let mut cells: Vec<(CellCoord, Vec<CellCoord>)> = dirty.into_iter().collect();
        cells.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        cells
    }

    /// Repairs the dirty region of one epoch: recompute core status and
    /// edges for dirty cells (stage `repair`), refresh the reverse
    /// predecessor adjacency, re-extract connected components, and
    /// re-label the border points whose predecessors changed (stage
    /// `relabel`).
    ///
    /// Cached densities move by *deltas*: each is adjusted by the changed
    /// cells' new-minus-old sub-cell contributions. The delta arithmetic
    /// reuses the region query's own per-cell step ([`cell_contribution`]),
    /// and densities are exact `u64` counts, so the result is identical to
    /// a full recomputation. In a changed cell (one that gained or lost
    /// points), new points have no cached density: they are answered from
    /// the cell's ε-window ([`CellWindow::density`]), gathered once, and
    /// new or newly promoted core points take their successors from the
    /// same window. The remaining dirty cells — unchanged cells within ε
    /// of a changed one — recheck only their edges toward changed cells,
    /// unless a density crossed minPts; then the whole cell is
    /// recomputed from its window ([`recompute_cell`]).
    fn run_repair_epoch(
        &mut self,
        changed: Vec<CellCoord>,
        old_subs: FxHashMap<CellCoord, Vec<SubCellEntry>>,
        new_slots: FxHashSet<u32>,
    ) -> Result<(), StreamError> {
        self.stats.last_changed_cells = changed.len();
        let dirty = self.dirty_region(&changed);
        self.stats.last_dirty_cells = dirty.len();
        self.stats.total_repaired_cells += dirty.len() as u64;
        let changed_set: FxHashSet<CellCoord> = changed.iter().cloned().collect();

        // The dictionary must be compact (no empty cells) before it backs
        // region queries: empty entries would still contribute vertices.
        self.dict.compact();
        let index = DictionaryIndex::single(self.dict.clone());

        // One sub-cell diff per changed cell: cached densities then move by
        // `contribution_delta` over these few entries instead of two full
        // sub-list passes per (point, changed cell) pair.
        let sub_diffs: FxHashMap<CellCoord, SubDiff> = changed
            .iter()
            .map(|y| {
                let old = old_subs.get(y).map_or(&[] as &[SubCellEntry], |v| v);
                let new = self.dict.get(y).map_or(&[] as &[SubCellEntry], |e| &e.subs);
                (y.clone(), sub_diff(old, new))
            })
            .collect();

        // Stage 2 — repair: per-cell core/edge recomputation in parallel.
        let repairs = {
            let cells = &self.cells;
            let coords = &self.coords;
            let density = &self.density;
            let spec = &self.spec;
            let dim = self.dim;
            let min_pts = self.params.min_pts as u64;
            let changed_set = &changed_set;
            let sub_diffs = &sub_diffs;
            let new_slots = &new_slots;
            let name = epoch_stage_name(self.epoch, "repair");
            let empty: &[u32] = &[];
            let no_cells: &[CellCoord] = &[];
            let no_subs: &[SubCellEntry] = &[];
            self.engine
                .run_stage(
                    &name,
                    self.chunked(&dirty),
                    |_, chunk: Vec<(CellCoord, Vec<CellCoord>)>| {
                        let point_of =
                            |slot: u32| &coords[slot as usize * dim..(slot as usize + 1) * dim];
                        let eps2 = spec.eps() * spec.eps();
                        // Does sub-cell `s` of cell `y` lie within ε of
                        // some point in `ids`? Same per-(cell, point)
                        // bounds fast paths as the region query, so
                        // qualification decisions stay identical.
                        let sub_hits =
                            |y: &CellCoord,
                             s: rpdbscan_grid::SubCellIdx,
                             ids: &[u32],
                             scratch: &mut [f64]| {
                                ids.iter().any(|&p| {
                                    let q = point_of(p);
                                    let (lo, hi) = spec.cell_dist2_bounds(y, q);
                                    if lo > eps2 {
                                        return false;
                                    }
                                    if hi <= eps2 {
                                        return true;
                                    }
                                    spec.sub_center_into(y, s, scratch);
                                    dist2(q, scratch) <= eps2
                                })
                            };
                        // Ground-truth edge test: some point in `ids`
                        // reports a current sub-cell of `y`.
                        let edge_rescan = |y: &CellCoord, ids: &[u32], scratch: &mut [f64]| {
                            let subs = index.dict().get(y).map_or(no_subs, |e| &e.subs);
                            ids.iter().any(|&p| {
                                cell_contribution(spec, point_of(p), y, subs, scratch) > 0
                            })
                        };
                        let mut scratch = vec![0.0; dim];
                        let mut window = CellWindow::default();
                        let mut fresh_rows: Vec<f64> = Vec::new();
                        let mut srcs: Vec<&SubDiff> = Vec::new();
                        let mut dlt_buf: Vec<i64> = Vec::new();
                        let mut out: Vec<(CellCoord, Repair)> = Vec::with_capacity(chunk.len());
                        for (c, sources) in chunk {
                            let pts = cells.get(&c).map_or(empty, |s| s.points.as_slice());
                            srcs.clear();
                            srcs.extend(sources.iter().map(|y| &sub_diffs[y]));
                            if changed_set.contains(&c) {
                                // The cell's own point set changed. New
                                // points have no cached density and are
                                // answered from the cell's ε-window;
                                // surviving points get density deltas.
                                // Edges come from three sources: the
                                // window successors of new and
                                // newly-promoted core points, the previous
                                // edge list (a surviving core's
                                // qualification against an unchanged cell
                                // is static), and the sub-cell diffs of
                                // changed cells.
                                let (old_core_list, state_nbrs) =
                                    cells.get(&c).map_or((empty, no_cells), |s| {
                                        (s.core_points.as_slice(), s.neighbors.as_slice())
                                    });
                                let old_core_set: FxHashSet<u32> =
                                    old_core_list.iter().copied().collect();
                                // A cell the batch emptied is absent from
                                // the dictionary, and has no point to
                                // read the window for.
                                if let Some(id) = index.dict().index_of(&c) {
                                    window.gather(&index, id);
                                }
                                let mut densities: Vec<u64> = Vec::with_capacity(pts.len());
                                for &p in pts {
                                    let q = point_of(p);
                                    if new_slots.contains(&p) {
                                        densities.push(window.density(&index, q));
                                    } else {
                                        let mut d = density[p as usize] as i64;
                                        for (y, diff) in sources.iter().zip(srcs.iter()) {
                                            d += contribution_delta(spec, q, y, diff, &mut scratch);
                                        }
                                        densities.push(d as u64);
                                    }
                                }
                                let core_points: Vec<u32> = pts
                                    .iter()
                                    .zip(densities.iter())
                                    .filter(|(_, &d)| d >= min_pts)
                                    .map(|(&p, _)| p)
                                    .collect();
                                // Core points with no cached edges — new
                                // ones, and pre-existing points promoted
                                // this epoch — take their successors from
                                // the window.
                                fresh_rows.clear();
                                for &p in &core_points {
                                    if new_slots.contains(&p) || !old_core_set.contains(&p) {
                                        fresh_rows.extend_from_slice(point_of(p));
                                    }
                                }
                                let mut new_neighbor_idx: Vec<u32> = Vec::new();
                                window.successors_into(&index, &fresh_rows, &mut new_neighbor_idx);
                                let survivors: Vec<u32> = core_points
                                    .iter()
                                    .copied()
                                    .filter(|p| old_core_set.contains(p))
                                    .collect();
                                let core_now: FxHashSet<u32> =
                                    core_points.iter().copied().collect();
                                let lost_any = old_core_list.iter().any(|p| !core_now.contains(p));
                                let mut neighbors: Vec<CellCoord> = new_neighbor_idx
                                    .into_iter()
                                    .map(|i| index.dict().entry(i).coord.clone())
                                    .collect();
                                neighbors.sort_unstable();
                                // Previous edges: carried by surviving cores
                                // unless the target changed (its vacated
                                // sub-cells decide) or this cell lost cores
                                // (survivors must re-qualify).
                                for t in state_nbrs {
                                    if survivors.is_empty() || neighbors.binary_search(t).is_ok() {
                                        continue;
                                    }
                                    let keep =
                                        if changed_set.contains(t) {
                                            if lost_any {
                                                edge_rescan(t, &survivors, &mut scratch)
                                            } else {
                                                let diff = &sub_diffs[t];
                                                !diff.removed.iter().any(|&s| {
                                                    sub_hits(t, s, &survivors, &mut scratch)
                                                }) || edge_rescan(t, &survivors, &mut scratch)
                                            }
                                        } else if lost_any {
                                            edge_rescan(t, &survivors, &mut scratch)
                                        } else {
                                            true
                                        };
                                    if keep {
                                        let i = neighbors.binary_search(t).unwrap_err();
                                        neighbors.insert(i, t.clone());
                                    }
                                }
                                // Edges toward changed cells can also appear
                                // when a newly occupied sub-cell lands
                                // within ε of a surviving core.
                                if !survivors.is_empty() {
                                    for y in &sources {
                                        if *y == c
                                            || neighbors.binary_search(y).is_ok()
                                            || state_nbrs.binary_search(y).is_ok()
                                        {
                                            continue;
                                        }
                                        let diff = &sub_diffs[y];
                                        if diff
                                            .added
                                            .iter()
                                            .any(|&s| sub_hits(y, s, &survivors, &mut scratch))
                                        {
                                            let i = neighbors.binary_search(y).unwrap_err();
                                            neighbors.insert(i, y.clone());
                                        }
                                    }
                                }
                                out.push((
                                    c,
                                    Repair::Full(CellRepair {
                                        is_core: !core_points.is_empty(),
                                        core_points,
                                        neighbors,
                                        densities,
                                    }),
                                ));
                                continue;
                            }
                            // Delta repair: points unchanged; densities move
                            // by the changed neighbours' contribution diffs.
                            let state = &cells[&c];
                            dlt_buf.clear();
                            let mut density_changed = false;
                            for &p in pts {
                                let q = point_of(p);
                                let mut dlt = 0i64;
                                for (y, diff) in sources.iter().zip(srcs.iter()) {
                                    dlt += contribution_delta(spec, q, y, diff, &mut scratch);
                                }
                                if dlt != 0 {
                                    density_changed = true;
                                }
                                dlt_buf.push(dlt);
                            }
                            if density_changed {
                                // The core set changes iff a density crossed
                                // the minPts threshold; then the cell's
                                // edges are a union over *core* points'
                                // queries, so edges toward unchanged cells
                                // may flip too — recompute in full.
                                let crossed = pts.iter().zip(dlt_buf.iter()).any(|(&p, &dlt)| {
                                    let d = density[p as usize];
                                    (d >= min_pts) != ((d as i64 + dlt) as u64 >= min_pts)
                                });
                                if crossed {
                                    let rep = recompute_cell(
                                        &index,
                                        &mut window,
                                        &c,
                                        pts,
                                        point_of,
                                        min_pts as usize,
                                    );
                                    out.push((c, Repair::Full(rep)));
                                    continue;
                                }
                            }
                            // Core set unchanged: edges toward unchanged
                            // cells are unchanged; an edge toward a changed
                            // cell can only appear through a newly occupied
                            // sub-cell or break through a vacated one.
                            let cores = state.core_points.as_slice();
                            let mut edge_ops: Vec<(bool, &CellCoord)> = Vec::new();
                            for (y, diff) in sources.iter().zip(srcs.iter()) {
                                match state.neighbors.binary_search(y) {
                                    Ok(_) => {
                                        if !diff.removed.is_empty()
                                            && diff
                                                .removed
                                                .iter()
                                                .any(|&s| sub_hits(y, s, cores, &mut scratch))
                                            && !edge_rescan(y, cores, &mut scratch)
                                        {
                                            edge_ops.push((false, y));
                                        }
                                    }
                                    Err(_) => {
                                        if !cores.is_empty()
                                            && !diff.added.is_empty()
                                            && diff
                                                .added
                                                .iter()
                                                .any(|&s| sub_hits(y, s, cores, &mut scratch))
                                        {
                                            edge_ops.push((true, y));
                                        }
                                    }
                                }
                            }
                            if edge_ops.is_empty() {
                                if density_changed {
                                    let densities: Vec<u64> = pts
                                        .iter()
                                        .zip(dlt_buf.iter())
                                        .map(|(&p, &dlt)| (density[p as usize] as i64 + dlt) as u64)
                                        .collect();
                                    out.push((c, Repair::DensityOnly(densities)));
                                }
                                continue;
                            }
                            let mut neighbors = state.neighbors.clone();
                            for (insert, y) in edge_ops {
                                match neighbors.binary_search(y) {
                                    Err(i) if insert => neighbors.insert(i, y.clone()),
                                    Ok(i) if !insert => {
                                        neighbors.remove(i);
                                    }
                                    _ => {}
                                }
                            }
                            let densities: Vec<u64> = pts
                                .iter()
                                .zip(dlt_buf.iter())
                                .map(|(&p, &dlt)| (density[p as usize] as i64 + dlt) as u64)
                                .collect();
                            out.push((
                                c,
                                Repair::Full(CellRepair {
                                    is_core: !cores.is_empty(),
                                    core_points: cores.to_vec(),
                                    neighbors,
                                    densities,
                                }),
                            ));
                        }
                        Ok(out)
                    },
                )?
                .outputs
        };

        // Apply repairs: diff each cell's outgoing edges to update the
        // reverse predecessor map and collect the label-dirty set — the
        // non-core cells whose predecessor lists or predecessor core
        // points may have changed.
        let mut label_dirty: FxHashSet<CellCoord> = FxHashSet::default();
        // Cells whose *exported* record actually changed this epoch: a
        // strict subset of `label_dirty`, which also holds cells that
        // merely need their border labels re-checked. Only this subset
        // is stamped into `touched_epoch` — stamping all of
        // `label_dirty` would dirty the whole ε-repair region and sink
        // the serving layer's incremental publish.
        let mut serve_dirty: FxHashSet<CellCoord> = FxHashSet::default();
        // Slots whose border-label entry effectively changes this epoch,
        // for the `recent_label_moves` delta.
        let mut label_moves: Vec<u32> = Vec::new();
        // Cells on the receiving end of an edge flip. Whether that flip
        // is serve-visible depends on the target's *final* core status
        // this epoch (a core cell exports an empty predecessor list), so
        // the decision is deferred until every repair has been applied.
        let mut pred_targets: FxHashSet<CellCoord> = FxHashSet::default();
        for (coord, rep) in repairs.into_iter().flatten() {
            let rep = match rep {
                Repair::Full(r) => r,
                Repair::DensityOnly(densities) => {
                    // Core set and edges held: only the cached densities
                    // moved, so neither the graph nor any label can change.
                    if let Some(state) = self.cells.get(&coord) {
                        for (&p, &d) in state.points.iter().zip(densities.iter()) {
                            self.density[p as usize] = d;
                        }
                    }
                    continue;
                }
            };
            let state = self.cells.entry(coord.clone()).or_default();
            let core_changed = state.core_points != rep.core_points;
            if core_changed {
                serve_dirty.insert(coord.clone());
            }
            let old_targets: Vec<CellCoord> = if state.is_core {
                std::mem::take(&mut state.neighbors)
            } else {
                Vec::new()
            };
            let new_targets: Vec<CellCoord> = if rep.is_core {
                rep.neighbors.clone()
            } else {
                Vec::new()
            };
            if rep.is_core {
                // Core-cell points are labeled through their cell; stale
                // border assignments must not linger.
                for &p in &state.points {
                    if self.border_label.remove(&p).is_some() {
                        label_moves.push(p);
                    }
                }
            }
            for (&p, &d) in state.points.iter().zip(rep.densities.iter()) {
                self.density[p as usize] = d;
            }
            state.is_core = rep.is_core;
            state.core_points = rep.core_points;
            state.neighbors = rep.neighbors;
            label_dirty.insert(coord.clone());
            // Sorted-merge diff of old vs new successor lists.
            let (mut i, mut j) = (0, 0);
            while i < old_targets.len() || j < new_targets.len() {
                let ord = match (old_targets.get(i), new_targets.get(j)) {
                    (Some(a), Some(b)) => a.cmp(b),
                    (Some(_), None) => std::cmp::Ordering::Less,
                    (None, Some(_)) => std::cmp::Ordering::Greater,
                    // Dead under the loop condition (one side is always
                    // Some); ending the merge beats panicking.
                    (None, None) => break,
                };
                match ord {
                    std::cmp::Ordering::Less => {
                        // Edge coord → old_targets[i] disappeared.
                        let t = &old_targets[i];
                        if let Some(v) = self.preds.get_mut(t) {
                            if let Ok(k) = v.binary_search(&coord) {
                                v.remove(k);
                            }
                            if v.is_empty() {
                                self.preds.remove(t);
                            }
                        }
                        label_dirty.insert(t.clone());
                        pred_targets.insert(t.clone());
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        // Edge coord → new_targets[j] appeared.
                        let t = &new_targets[j];
                        let v = self.preds.entry(t.clone()).or_default();
                        if let Err(k) = v.binary_search(&coord) {
                            v.insert(k, coord.clone());
                        }
                        label_dirty.insert(t.clone());
                        pred_targets.insert(t.clone());
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        // Edge kept — the target needs relabeling only if
                        // this predecessor's core point set moved.
                        if core_changed {
                            label_dirty.insert(old_targets[i].clone());
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
        }

        // Drop emptied cells (only changed cells can lose their last
        // point). Every cell within ε of one was dirty, so no surviving
        // neighbor or predecessor list references them.
        let emptied: Vec<CellCoord> = changed_set
            .iter()
            .filter(|c| self.cells.get(*c).is_some_and(|s| s.points.is_empty()))
            .cloned()
            .collect();
        for c in &emptied {
            self.cells.remove(c);
            self.preds.remove(c);
            label_dirty.remove(c);
        }

        // An edge flip only shows up in the *target's* exported record
        // when the target ends the epoch non-core (core cells export an
        // empty predecessor list, and their cluster-id movements are
        // stamped by `rebuild_components`). Core targets whose core set
        // itself moved are already in `serve_dirty`; emptied targets are
        // covered by `changed_set`.
        // lint:allow(unordered-iter): targets land in a set, so visit order is immaterial
        for t in pred_targets {
            if self.cells.get(&t).is_some_and(|s| !s.is_core) {
                serve_dirty.insert(t);
            }
        }

        // Stamp the serve-visible delta of this epoch: every cell whose
        // core set or predecessor list actually moved (`serve_dirty`)
        // plus every cell whose dictionary entry moved (`changed_set`,
        // which also covers the cells just emptied). Cells the repair
        // merely re-checked stay unstamped — their exported record is
        // unchanged. Cluster-id movements are stamped separately by
        // `rebuild_components`.
        // lint:allow(unordered-iter): epoch stamps land in a map keyed by the same coords, so insertion order is immaterial
        for c in serve_dirty.iter().chain(changed_set.iter()) {
            self.touched_epoch.insert(c.clone(), self.epoch);
        }

        // Re-extract connected components of core cells over the cached
        // edges (serial integer pass; deletions can split clusters, so a
        // scoped union is not sound — the global pass is).
        self.rebuild_components();

        // Stage 3 — relabel: exact-ε border checks for the label-dirty
        // non-core cells.
        let mut targets: Vec<CellCoord> = label_dirty
            .into_iter()
            .filter(|c| self.cells.get(c).is_some_and(|s| !s.is_core))
            .collect();
        targets.sort_unstable();
        self.stats.last_relabeled_cells = targets.len();
        let assignments = {
            let cells = &self.cells;
            let preds = &self.preds;
            let coords = &self.coords;
            let dim = self.dim;
            let eps = self.params.eps;
            let name = epoch_stage_name(self.epoch, "relabel");
            self.engine
                .run_stage(&name, self.chunked(&targets), |_, chunk: Vec<CellCoord>| {
                    let mut out: Vec<(u32, Option<CellCoord>)> = Vec::new();
                    let empty: Vec<CellCoord> = Vec::new();
                    for c in &chunk {
                        let state = &cells[c];
                        let pred_cells: Vec<(&CellCoord, &[u32])> = preds
                            .get(c)
                            .unwrap_or(&empty)
                            .iter()
                            .map(|p| (p, cells[p].core_points.as_slice()))
                            .collect();
                        for &slot in &state.points {
                            let q = &coords[slot as usize * dim..(slot as usize + 1) * dim];
                            let win = assign_border_point(
                                q,
                                &pred_cells,
                                |s| &coords[s as usize * dim..(s as usize + 1) * dim],
                                eps,
                            );
                            out.push((slot, win.map(|k| pred_cells[k].0.clone())));
                        }
                    }
                    Ok(out)
                })?
                .outputs
        };
        for (slot, winner) in assignments.into_iter().flatten() {
            match winner {
                Some(c) => {
                    if self.border_label.insert(slot, c.clone()) != Some(c) {
                        label_moves.push(slot);
                    }
                }
                None => {
                    if self.border_label.remove(&slot).is_some() {
                        label_moves.push(slot);
                    }
                }
            }
        }

        // Materialise this epoch's stamps for the head-chasing
        // `dirty_cells_since` fast path (one map scan per epoch here
        // instead of one per publish; publishes more than
        // `RECENT_DIRTY_EPOCHS` epochs behind fall back to the map).
        const RECENT_DIRTY_EPOCHS: usize = 8;
        let mut last: Vec<CellCoord> = self
            .touched_epoch
            .iter()
            .filter(|&(_, &e)| e == self.epoch)
            .map(|(c, _)| c.clone())
            .collect();
        last.sort_unstable();
        self.recent_dirty.push_back((self.epoch, last));
        while self.recent_dirty.len() > RECENT_DIRTY_EPOCHS {
            self.recent_dirty.pop_front();
        }
        let removed = std::mem::take(&mut self.pending_removed);
        self.recent_removed.push_back((self.epoch, removed));
        while self.recent_removed.len() > RECENT_DIRTY_EPOCHS {
            self.recent_removed.pop_front();
        }
        label_moves.sort_unstable();
        label_moves.dedup();
        self.recent_label_moves.push_back((self.epoch, label_moves));
        while self.recent_label_moves.len() > RECENT_DIRTY_EPOCHS {
            self.recent_label_moves.pop_front();
        }

        self.stats.live_points = self.n_live;
        self.stats.num_cells = self.cells.len();
        self.stats.num_clusters = self.num_clusters;
        Ok(())
    }

    /// Concatenation of a per-epoch slot-delta deque over `(epoch, now]`,
    /// sorted and deduped, or `None` when the deque no longer covers the
    /// requested range (every repair epoch pushes one entry, so coverage
    /// means the front entry is at or before `epoch + 1` and the back is
    /// current).
    fn recent_slots_since(
        deque: &std::collections::VecDeque<(u64, Vec<u32>)>,
        epoch: u64,
        now: u64,
    ) -> Option<Vec<u32>> {
        let covered = deque.front().is_some_and(|&(first, _)| first <= epoch + 1)
            && deque.back().is_some_and(|&(last, _)| last == now);
        covered.then(|| {
            let mut out: Vec<u32> = deque
                .iter()
                .filter(|&&(e, _)| e > epoch)
                .flat_map(|(_, v)| v.iter().copied())
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        })
    }

    /// Rebuilds `cluster_of_cell` from the cached core-core adjacency.
    ///
    /// Cluster ids are *sticky* across epochs: each component keeps the
    /// previous id of its first member (coordinate order) that both had
    /// an id last epoch and whose id no earlier component claimed; only
    /// components that can't (brand-new ones, or the losing halves of a
    /// split) draw fresh ids, the smallest unclaimed ones. An insertion
    /// therefore renumbers the clusters it actually touches instead of
    /// shifting every id after it — which is what keeps the serving
    /// layer's delta publish proportional to the real change: every cell
    /// whose id *did* move is stamped into the epoch's dirty set here.
    fn rebuild_components(&mut self) {
        let mut core: Vec<&CellCoord> = self
            .cells
            .iter()
            .filter(|(_, s)| s.is_core)
            .map(|(c, _)| c)
            .collect();
        core.sort_unstable();
        let dense: FxHashMap<&CellCoord, u32> = core
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i as u32))
            .collect();
        let mut uf = rpdbscan_core::graph::UnionFind::new(core.len());
        for &c in &core {
            for n in &self.cells[c].neighbors {
                if let Some(&j) = dense.get(n) {
                    uf.union(dense[c], j);
                }
            }
        }
        // First pass, in coordinate order: each component claims the
        // first previous id among its members that is still unclaimed.
        let mut cluster_of_root: FxHashMap<u32, u32> = FxHashMap::default();
        let mut claimed = FxHashSet::default();
        let mut root_order: Vec<u32> = Vec::new();
        for &c in &core {
            let root = uf.find(dense[c]);
            if !cluster_of_root.contains_key(&root) {
                root_order.push(root);
            }
            if let std::collections::hash_map::Entry::Vacant(slot) = cluster_of_root.entry(root) {
                if let Some(&prev) = self.cluster_of_cell.get(c) {
                    if claimed.insert(prev) {
                        slot.insert(prev);
                    }
                }
            }
        }
        // Second pass: unclaimed components (new, or split losers) take
        // the smallest free ids in first-member coordinate order.
        let mut next_free = 0u32;
        for root in root_order {
            if cluster_of_root.contains_key(&root) {
                continue;
            }
            while claimed.contains(&next_free) {
                next_free += 1;
            }
            claimed.insert(next_free);
            cluster_of_root.insert(root, next_free);
        }
        let mut cluster_of_cell: FxHashMap<CellCoord, u32> = FxHashMap::default();
        for &c in &core {
            let cid = cluster_of_root[&uf.find(dense[c])];
            cluster_of_cell.insert(c.clone(), cid);
        }
        // Stamp every id movement into the epoch's dirty set: cells
        // whose id changed or that just became core, and cells that
        // stopped being core. The serving layer's incremental publish
        // reads these stamps instead of re-scanning every record.
        // lint:allow(unordered-iter): stamps land in a map keyed by the same coords, so visit order is immaterial
        for (c, &cid) in &cluster_of_cell {
            if self.cluster_of_cell.get(c) != Some(&cid) {
                self.touched_epoch.insert(c.clone(), self.epoch);
            }
        }
        for c in self.cluster_of_cell.keys() {
            if !cluster_of_cell.contains_key(c) {
                self.touched_epoch.insert(c.clone(), self.epoch);
            }
        }
        self.num_clusters = cluster_of_root.len();
        self.cluster_of_cell = cluster_of_cell;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Each cell's point slots and core slots, by coordinate.
    fn cell_sets(s: &StreamingRpDbscan) -> Vec<(CellCoord, Vec<u32>, Vec<u32>)> {
        let mut out: Vec<_> = s
            .cells
            .iter()
            .map(|(c, st)| (c.clone(), st.points.clone(), st.core_points.clone()))
            .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Checks every live slot's cached density, and every cell's core set
    /// and successor list, against the per-point region query on a fresh
    /// index of the live points.
    fn check_against_fresh_index(s: &StreamingRpDbscan, at: &str) {
        let point = |p: u32| &s.coords[p as usize * s.dim..(p as usize + 1) * s.dim];
        let live = (0..s.live.len() as u32).filter(|&p| s.live[p as usize]);
        let dict = CellDictionary::build_from_points(s.spec.clone(), live.map(point));
        let index = DictionaryIndex::single(dict);
        assert_eq!(s.cells.len(), index.dict().num_cells(), "{at}");
        let min_pts = s.params.min_pts as u64;
        for (coord, points, core_points) in cell_sets(s) {
            let own = index.dict().index_of(&coord);
            assert!(own.is_some(), "{at}: cell {coord} is not occupied");
            let (mut cores, mut successors) = (Vec::new(), Vec::new());
            for &p in &points {
                let r = index.region_query_cells(point(p));
                assert_eq!(s.density[p as usize], r.density, "{at}: slot {p}");
                if r.density >= min_pts {
                    cores.push(p);
                    successors.extend(
                        r.neighbor_cells
                            .iter()
                            .filter(|&&c| Some(c) != own)
                            .map(|&c| index.dict().entry(c).coord.clone()),
                    );
                }
            }
            successors.sort_unstable();
            successors.dedup();
            let state = &s.cells[&coord];
            assert_eq!(core_points, cores, "{at}: cell {coord} core set");
            assert_eq!(state.is_core, !cores.is_empty(), "{at}: cell {coord}");
            assert_eq!(state.neighbors, successors, "{at}: cell {coord} successors");
        }
    }

    /// Replays a seeded interleaving of insert and remove batches of
    /// points uniform in `[0, extent)^dim`, checking the repair state
    /// after every epoch. Returns how often an unchanged cell's core set
    /// moved (the delta path's threshold crossing) and how often a
    /// surviving point of a changed cell was promoted to core.
    fn replay(dim: usize, extent: f64, min_pts: usize, seed: u64) -> (usize, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = StreamingRpDbscan::new(dim, RpDbscanParams::new(1.0, min_pts)).unwrap();
        let mut live: Vec<StreamPointId> = Vec::new();
        let (mut crossed, mut promoted) = (0, 0);
        for epoch in 0..40 {
            let before = cell_sets(&s);
            if live.is_empty() || rng.gen_range(0..10) < 6 {
                // A large first batch fills the dense shape at once.
                let k = if epoch == 0 {
                    80
                } else {
                    rng.gen_range(1..=60)
                };
                let flat: Vec<f64> = (0..k * dim).map(|_| rng.gen_range(0.0..extent)).collect();
                live.extend(s.insert_batch(&flat).unwrap());
            } else {
                let k = rng.gen_range(1..=live.len().min(40));
                let doomed: Vec<StreamPointId> = (0..k)
                    .map(|_| live.swap_remove(rng.gen_range(0..live.len())))
                    .collect();
                s.remove_batch(&doomed).unwrap();
            }
            check_against_fresh_index(&s, &format!("dim {dim} seed {seed} epoch {epoch}"));
            for (coord, points, cores) in cell_sets(&s) {
                let Ok(i) = before.binary_search_by(|b| b.0.cmp(&coord)) else {
                    continue;
                };
                let (_, old_points, old_cores) = &before[i];
                if *old_points == points {
                    crossed += usize::from(*old_cores != cores);
                } else {
                    promoted += cores
                        .iter()
                        .filter(|p| old_points.contains(p) && !old_cores.contains(p))
                        .count();
                }
            }
        }
        (crossed, promoted)
    }

    #[test]
    fn repair_matches_per_point_queries_after_every_epoch() {
        // Dense: 9 cells of side 1/√2 over [0, 2)², averaging 13 or more
        // points a cell after 90% of the epochs. Sparse: 3-d, about one
        // point per occupied cell.
        for (dim, extent, min_pts) in [(2, 2.0, 60), (3, 5.0, 4)] {
            let (mut crossed, mut promoted) = (0, 0);
            for seed in 0..4 {
                let (c, p) = replay(dim, extent, min_pts, seed);
                crossed += c;
                promoted += p;
            }
            assert!(crossed > 0, "dim {dim}: no threshold crossing");
            assert!(promoted > 0, "dim {dim}: no promoted core");
        }
    }
}

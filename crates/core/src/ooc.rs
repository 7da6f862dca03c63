//! The out-of-core driver: Algorithm 1 over a paged column store.
//!
//! [`RpDbscan::run_out_of_core`] runs the same three phases as
//! [`RpDbscan::run`], but point coordinates never live in memory as a
//! whole: Phase I-2's dictionary build and Phase II's region queries
//! gather one cell at a time through a byte-budgeted
//! [`BufferPool`], and Phase III-1 keeps cell graphs in spill files —
//! each partition's subgraph is written to disk after Phase II, and the
//! tournament's matches stream two files against each other, holding
//! only the merged type table, the core-cell union-find and the survivor
//! edge list (the *frontier*) in memory.
//!
//! The output is bit-identical to the resident pipeline on the same
//! parameters, by construction rather than by accident:
//!
//! * the store's row order (cell coordinate, then original id) equals
//!   the resident pipeline's `merge_cell_groups` order, so the seeded
//!   shuffle in [`pseudo_random_deal`] deals the same cells to the same
//!   partitions;
//! * Phase II feeds the shared [`LocalBuilder`] the same ids and the
//!   same (bit-exact, round-tripped through the file) coordinates in
//!   the same order;
//! * Phase III-1 is the same [`tournament`] and the same
//!   [`crate::merge::merge_runs`] as the resident run; only where a
//!   match's output is kept differs.
//!
//! The equivalence suite pins all of this across dimensions, densities,
//! budgets and partition counts.

use crate::driver::{RpDbscan, RpDbscanOutput, RunStats};
use crate::graph::CellType;
use crate::label::{assemble_clustering, LabelSupport};
use crate::merge::{tournament, Run};
use crate::partition::pseudo_random_deal;
use crate::phase2::{LocalBuilder, PointSource, QueryRouting};
use crate::{task_err, CoreError};
use rpdbscan_engine::{Engine, TaskError};
use rpdbscan_geom::PointId;
use rpdbscan_grid::{CellDictionary, CellEntry, DictionaryIndex, FxHashMap, QueryStats};
use rpdbscan_store::{BufferPool, ColumnStore, SpillDir, StoreError};
use std::path::PathBuf;
use std::sync::Arc;

/// Knobs of the out-of-core pipeline.
#[derive(Debug, Clone)]
pub struct OutOfCoreConfig {
    /// Buffer pool byte budget. The pool evicts towards it and only
    /// overshoots when every cached page is pinned at once, so the
    /// effective floor is one page per worker plus one.
    pub mem_budget_bytes: u64,
    /// Where spill files go (the system temp directory when `None`).
    /// The directory the run creates underneath is removed at the end.
    pub spill_dir: Option<PathBuf>,
}

impl OutOfCoreConfig {
    /// A config with the given pool budget, spilling under the system
    /// temp directory.
    pub fn new(mem_budget_bytes: u64) -> Self {
        OutOfCoreConfig {
            mem_budget_bytes,
            spill_dir: None,
        }
    }

    /// Redirects spill files under `dir`.
    pub fn with_spill_dir(mut self, dir: PathBuf) -> Self {
        self.spill_dir = Some(dir);
        self
    }
}

impl RpDbscan {
    /// Runs the full three-phase algorithm against a column store,
    /// keeping coordinate residency bounded by `cfg.mem_budget_bytes`.
    ///
    /// The store must have been ingested with the same `(ε, ρ)` the
    /// runner was configured with — the grid assignment of points to
    /// cells is baked into the store's row order, so a mismatch is a
    /// typed error ([`StoreError::GridMismatch`]), not a silent
    /// reclustering under different parameters.
    pub fn run_out_of_core(
        &self,
        store: &Arc<ColumnStore>,
        cfg: &OutOfCoreConfig,
        engine: &Engine,
    ) -> Result<RpDbscanOutput, CoreError> {
        let p = self.params();
        for (field, stored, requested) in [("eps", store.eps(), p.eps), ("rho", store.rho(), p.rho)]
        {
            if stored.to_bits() != requested.to_bits() {
                return Err(CoreError::Store(StoreError::GridMismatch {
                    field,
                    store: stored,
                    requested,
                }));
            }
        }
        let spec = store.spec().clone();
        let dim = store.dim();
        let k = p.num_partitions;
        let pool = BufferPool::new(Arc::clone(store), cfg.mem_budget_bytes);
        let spill = SpillDir::create(cfg.spill_dir.as_deref())?;

        // ---- Phase I-1: pseudo random partitioning -------------------
        // The directory *is* the grouped cell list (built at ingest, in
        // the same sorted order the resident pipeline produces), so
        // partitioning deals directory indices instead of point vectors.
        let dir_indices: Vec<u32> = (0..store.cells().len() as u32).collect();
        let parts: Vec<Vec<u32>> = pseudo_random_deal(dir_indices, k, p.seed);
        let point_bytes = (dim * 4) as u64;
        engine.shuffle_cost("phase1-1:shuffle", store.len() * point_bytes);

        // ---- Phase I-2: cell dictionary building + broadcast ----------
        let part_refs: Vec<&[u32]> = parts.iter().map(|v| v.as_slice()).collect();
        let entries =
            engine.run_stage("phase1-2:dictionary", part_refs.clone(), |_ctx, part| {
                let mut coords: Vec<f64> = Vec::new();
                let mut out = Vec::with_capacity(part.len());
                for &ci in part {
                    let meta = &pool.store().cells()[ci as usize];
                    pool.gather_coords(meta.row_start, meta.row_count, &mut coords)
                        .map_err(task_err)?;
                    out.push(CellEntry::from_points(
                        &spec,
                        meta.coord.clone(),
                        coords.chunks_exact(dim.max(1)),
                    ));
                }
                Ok(out)
            })?;
        let dict =
            CellDictionary::from_entries(spec.clone(), entries.outputs.into_iter().flatten());
        let wire_bytes = dict.encode().len() as u64;
        engine.broadcast_cost("phase1-2:broadcast", wire_bytes);
        let dict_cells = dict.num_cells();
        let dict_subcells = dict.num_sub_cells();
        let dict_size_bits = dict.size_bits();
        let index = DictionaryIndex::new(dict, p.subdict_capacity);

        // ---- Phase II: cell graph construction, spilled ---------------
        let routing = QueryRouting::auto(&index);
        let locals =
            engine.run_stage("phase2:local-clustering", part_refs.clone(), |ctx, part| {
                if Some(ctx.index()) == p.inject_fault {
                    // lint:allow(panic-safety): deliberate fault-injection hook; the engine's panic recovery is what is under test
                    panic!("injected fault in partition {}", ctx.index());
                }
                let mut builder = LocalBuilder::new(&index);
                let mut coords: Vec<f64> = Vec::new();
                let mut ids: Vec<u32> = Vec::new();
                let mut pids: Vec<PointId> = Vec::new();
                for &ci in part {
                    let meta = &pool.store().cells()[ci as usize];
                    pool.gather_coords(meta.row_start, meta.row_count, &mut coords)
                        .map_err(task_err)?;
                    pool.gather_ids(meta.row_start, meta.row_count, &mut ids)
                        .map_err(task_err)?;
                    pids.clear();
                    pids.extend(ids.iter().map(|&i| PointId(i)));
                    builder.process_cell(
                        &index,
                        p.min_pts,
                        routing,
                        &meta.coord,
                        &pids,
                        PointSource::Rows(&coords),
                    )?;
                }
                let local = builder.finish();
                let run = Run::keep(local.subgraph, Some(&spill)).map_err(task_err)?;
                Ok((run, local.core_points, local.stats, local.queries))
            })?;
        let mut query_stats = QueryStats::default();
        let mut core_points: FxHashMap<u32, Vec<PointId>> = FxHashMap::default();
        let mut runs: Vec<Run> = Vec::with_capacity(k);
        let mut points_processed = 0u64;
        for (run, cores, stats, queries) in locals.outputs {
            query_stats.merge(&stats);
            points_processed += queries;
            for (c, pts) in cores {
                core_points.entry(c).or_default().extend(pts);
            }
            runs.push(run);
        }

        // ---- Phase III-1: progressive merging over spill files --------
        let merged = tournament(engine, runs, Some(&spill))?;

        // ---- Phase III-2: point labeling -------------------------------
        let supports = LabelSupport::build(merged.global);
        let eps2 = p.eps * p.eps;
        let labeled = engine.run_stage("phase3-2:labeling", part_refs, |_ctx, part| {
            label_ooc_partition(part, &pool, &index, &supports, &core_points, eps2)
        })?;
        let clustering = assemble_clustering(store.len() as usize, labeled.outputs);

        let pool_stats = pool.stats();
        let spill_stats = spill.stats();
        let stats = RunStats {
            backend: p.density_backend.name(),
            dict_cells,
            dict_subcells,
            dict_size_bits,
            dict_wire_bytes: wire_bytes,
            edges_per_round: merged.edges_per_round,
            points_processed,
            num_clusters: supports.clusters.num_clusters,
            noise_points: clustering.noise_count(),
            num_partitions: k,
            query_subdicts_skipped: query_stats.subdicts_skipped as u64,
            query_subdicts_visited: query_stats.subdicts_visited as u64,
            query_cells_candidate: query_stats.cells_candidate as u64,
            query_plans_built: query_stats.plans_built as u64,
            query_plan_hits: query_stats.plan_hits as u64,
            query_cells_planned_full: query_stats.cells_planned_full as u64,
            query_cells_routed_planned: query_stats.cells_routed_planned as u64,
            query_cells_routed_kd: query_stats.cells_routed_kd as u64,
            route_min_occupancy: routing.min_occupancy().unwrap_or(0),
            out_of_core: true,
            pool_budget_bytes: pool_stats.budget_bytes,
            pool_hits: pool_stats.hits,
            pool_misses: pool_stats.misses,
            pool_evictions: pool_stats.evictions,
            pool_peak_tracked_bytes: pool_stats.peak_tracked_bytes,
            spill_bytes_written: spill_stats.bytes_written,
            spill_bytes_read: spill_stats.bytes_read,
            merge_peak_frontier_bytes: merged.peak_frontier_bytes,
        };
        Ok(RpDbscanOutput { clustering, stats })
    }
}

/// Labels one out-of-core partition: core cells inherit their cluster,
/// border points run the exact ε check against predecessor core points
/// gathered through the pool (Algorithm 4, Lines 10–23 — the same walk
/// as `label_partition`, with the store standing in for the dataset).
fn label_ooc_partition(
    part: &[u32],
    pool: &BufferPool,
    index: &DictionaryIndex,
    supports: &LabelSupport,
    core_points: &FxHashMap<u32, Vec<PointId>>,
    eps2: f64,
) -> Result<Vec<(PointId, Option<u32>)>, TaskError> {
    let store = pool.store();
    let dict = index.dict();
    let dim = store.dim();
    let mut out = Vec::new();
    let mut ids: Vec<u32> = Vec::new();
    let mut coords: Vec<f64> = Vec::new();
    let mut core_ids: Vec<u32> = Vec::new();
    let mut core_rows: Vec<u64> = Vec::new();
    // Gathered coordinates of each predecessor cell's core points, keyed
    // by dictionary cell index — border cells near the same core cell
    // share one gather.
    let mut core_coord_cache: FxHashMap<u32, Vec<f64>> = FxHashMap::default();
    for &ci in part {
        let meta = &store.cells()[ci as usize];
        let idx = dict.index_of(&meta.coord).ok_or_else(|| {
            TaskError::new(format!(
                "partition cell {} missing from dictionary",
                meta.coord
            ))
        })?;
        pool.gather_ids(meta.row_start, meta.row_count, &mut ids)
            .map_err(task_err)?;
        match supports.global.cell_type(idx) {
            CellType::Core => {
                let cid = supports.clusters.cluster_of_cell[&idx];
                for &i in &ids {
                    out.push((PointId(i), Some(cid)));
                }
            }
            CellType::NonCore => {
                pool.gather_coords(meta.row_start, meta.row_count, &mut coords)
                    .map_err(task_err)?;
                let empty = Vec::new();
                let mut pred_cells = supports.preds.get(&idx).unwrap_or(&empty).clone();
                pred_cells.sort_unstable_by(|a, b| dict.entry(*a).coord.cmp(&dict.entry(*b).coord));
                // Gather every predecessor's core coordinates up front so
                // the per-point loop below is pure arithmetic.
                for &pc in &pred_cells {
                    if core_coord_cache.contains_key(&pc) {
                        continue;
                    }
                    let cores = match core_points.get(&pc) {
                        Some(c) => c,
                        None => continue,
                    };
                    core_ids.clear();
                    core_ids.extend(cores.iter().map(|p| p.0));
                    let pcoord = &dict.entry(pc).coord;
                    let pmeta = store
                        .cells()
                        .binary_search_by(|m| m.coord.cmp(pcoord))
                        .map(|i| &store.cells()[i])
                        .map_err(|_| {
                            TaskError::new(format!(
                                "predecessor cell {pcoord} missing from store directory"
                            ))
                        })?;
                    pool.rows_of_ids(pmeta.row_start, pmeta.row_count, &core_ids, &mut core_rows)
                        .map_err(task_err)?;
                    let mut gathered = Vec::new();
                    pool.gather_rows_coords(&core_rows, &mut gathered)
                        .map_err(task_err)?;
                    core_coord_cache.insert(pc, gathered);
                }
                for (j, &i) in ids.iter().enumerate() {
                    let qc = &coords[j * dim..(j + 1) * dim];
                    let mut label = None;
                    'search: for &pc in &pred_cells {
                        if let Some(pcoords) = core_coord_cache.get(&pc) {
                            for pcc in pcoords.chunks_exact(dim) {
                                if rpdbscan_geom::dist2(pcc, qc) <= eps2 {
                                    label = Some(supports.clusters.cluster_of_cell[&pc]);
                                    break 'search;
                                }
                            }
                        }
                    }
                    out.push((PointId(i), label));
                }
            }
            CellType::Undetermined => {
                return Err(TaskError::new(format!(
                    "global graph contains undetermined cell {idx}"
                )));
            }
        }
    }
    Ok(out)
}

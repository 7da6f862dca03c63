//! The out-of-core driver: Algorithm 1 over a paged column store.
//!
//! [`RpDbscan::run_out_of_core`] runs the same pipeline as
//! [`RpDbscan::run`], over a [`CellSource::Paged`] instead of a resident
//! one, so point coordinates never live in memory as a whole: every
//! phase gathers one cell at a time through a byte-budgeted
//! [`BufferPool`], and Phase III-1 keeps cell graphs in spill files —
//! each partition's subgraph is written to disk after Phase II, and the
//! tournament's matches stream two files against each other, holding
//! only the merged type table, the core-cell union-find and the survivor
//! edge list (the *frontier*) in memory.
//!
//! The output is bit-identical to the resident pipeline on the same
//! parameters, by construction rather than by accident:
//!
//! * the store's row order (cell coordinate, then original id) and the
//!   resident pipeline's directory both come from the one cell sort
//!   ([`rpdbscan_grid::CellRuns`]), so both sources list the same cells,
//!   ids and (bit-exact, round-tripped through the file) coordinates in
//!   the same order, and the seeded deal hands the same cells to the
//!   same partitions;
//! * everything after the deal is one code path; only the gathers and
//!   where a tournament match's output is kept differ.
//!
//! The equivalence suite pins all of this across dimensions, densities,
//! budgets and partition counts.

use crate::driver::{RpDbscan, RpDbscanOutput};
use crate::source::CellSource;
use crate::CoreError;
use rpdbscan_engine::Engine;
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
        let pool = BufferPool::new(Arc::clone(store), cfg.mem_budget_bytes);
        let spill = SpillDir::create(cfg.spill_dir.as_deref())?;
        let mut out = self.pipeline(
            store.spec().clone(),
            CellSource::Paged(&pool),
            Some(&spill),
            engine,
        )?;
        let pool_stats = pool.stats();
        let spill_stats = spill.stats();
        let s = &mut out.stats;
        s.pool_budget_bytes = pool_stats.budget_bytes;
        s.pool_hits = pool_stats.hits;
        s.pool_misses = pool_stats.misses;
        s.pool_evictions = pool_stats.evictions;
        s.pool_peak_tracked_bytes = pool_stats.peak_tracked_bytes;
        s.spill_bytes_written = spill_stats.bytes_written;
        s.spill_bytes_read = spill_stats.bytes_read;
        Ok(out)
    }
}

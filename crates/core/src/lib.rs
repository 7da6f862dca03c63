//! RP-DBSCAN: Random Partitioning DBSCAN (SIGMOD'18) — the core algorithm.
//!
//! The algorithm clusters a data set with DBSCAN semantics in three
//! MapReduce phases (Algorithm 1 of the paper):
//!
//! 1. **Data partitioning** ([`partition`]) — *pseudo random partitioning*
//!    distributes grid cells (not points) uniformly at random over `k`
//!    partitions, then builds and broadcasts the two-level cell dictionary
//!    summarising the whole data set.
//! 2. **Cell graph construction** ([`phase2`]) — every partition answers
//!    `(ε,ρ)`-region queries against the broadcast dictionary to mark core
//!    points/cells and emit a *cell subgraph* of directly-reachable cell
//!    pairs.
//! 3. **Cell graph merging** ([`merge`], [`label`]) — subgraphs merge in a
//!    parallel tournament with progressive edge-type detection and
//!    redundant-full-edge reduction; points are then labeled from the
//!    global cell graph (Lemma 3.5).
//!
//! The high-level entry point is [`RpDbscan`]:
//!
//! ```
//! use rpdbscan_core::{RpDbscan, RpDbscanParams};
//! use rpdbscan_engine::Engine;
//! use rpdbscan_geom::Dataset;
//!
//! // two tight blobs and one outlier
//! let mut rows = Vec::new();
//! for i in 0..40 {
//!     let t = i as f64 * 0.01;
//!     rows.push(vec![t, t]);
//!     rows.push(vec![10.0 + t, 10.0 - t]);
//! }
//! rows.push(vec![100.0, 100.0]);
//! let data = Dataset::from_rows(2, &rows).unwrap();
//!
//! let params = RpDbscanParams::new(1.0, 5).with_partitions(4).with_rho(0.01);
//! let engine = Engine::new(4);
//! let out = RpDbscan::new(params).unwrap().run(&data, &engine).unwrap();
//! assert_eq!(out.clustering.num_clusters(), 2);
//! assert_eq!(out.clustering.noise_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod export;
pub mod graph;
pub mod label;
pub mod merge;
pub mod ooc;
pub mod params;
pub mod partition;
pub mod phase2;
pub mod repair;

pub use driver::{validate_backend_config, RpDbscan, RpDbscanOutput, RunStats};
pub use export::{CellExport, CellGraph};
pub use graph::{CellSubgraph, CellType, EdgeType};
pub use ooc::OutOfCoreConfig;
pub use params::{DensityBackendKind, RpDbscanParams};
pub use partition::{pseudo_random_deal, CellPoints, Partition};
pub use phase2::{LocalBuilder, PointSource, QueryRouting};
pub use repair::{
    assign_border_point, cell_contribution, contribution_delta, recompute_cell, sub_diff,
    CellRepair, SubDiff,
};

/// Errors from the RP-DBSCAN driver.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Grid construction rejected the `(d, ε, ρ)` combination.
    Grid(rpdbscan_grid::GridError),
    /// `minPts` must be at least 1.
    InvalidMinPts(usize),
    /// The number of partitions must be at least 1.
    InvalidPartitions(usize),
    /// Input dimensionality disagrees with a previous configuration.
    DimensionMismatch {
        /// Expected dimensionality.
        expected: usize,
        /// Dataset dimensionality.
        got: usize,
    },
    /// An engine stage failed: a task returned an error or panicked and
    /// exhausted its retries (e.g. a poisoned partition).
    Stage(rpdbscan_engine::StageError),
    /// The batch driver only runs the exact grid backend; approximate
    /// density backends are dispatched by `rpdbscan-density`. The
    /// payload is the rejected backend's tag (`knn` / `sampled`).
    UnsupportedBackend(&'static str),
    /// A density-backend knob is out of range (e.g. `k = 0` or a sample
    /// fraction outside `(0, 1]`).
    InvalidBackendConfig {
        /// The rejected backend's tag.
        backend: &'static str,
        /// What was wrong with its configuration.
        reason: &'static str,
    },
    /// The out-of-core pipeline hit a column-store error: a corrupt or
    /// truncated store file, a grid-parameter mismatch between the store
    /// header and the run's parameters, or a spill IO failure.
    Store(rpdbscan_store::StoreError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Grid(e) => write!(f, "grid error: {e}"),
            CoreError::InvalidMinPts(m) => write!(f, "minPts must be >= 1, got {m}"),
            CoreError::InvalidPartitions(k) => write!(f, "partitions must be >= 1, got {k}"),
            CoreError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            CoreError::Stage(e) => write!(f, "{e}"),
            CoreError::UnsupportedBackend(b) => write!(
                f,
                "the batch driver only runs the exact grid backend; \
                 run the `{b}` backend through rpdbscan-density's backend_for"
            ),
            CoreError::InvalidBackendConfig { backend, reason } => {
                write!(f, "invalid `{backend}` backend configuration: {reason}")
            }
            CoreError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<rpdbscan_grid::GridError> for CoreError {
    fn from(e: rpdbscan_grid::GridError) -> Self {
        CoreError::Grid(e)
    }
}

impl From<rpdbscan_engine::StageError> for CoreError {
    fn from(e: rpdbscan_engine::StageError) -> Self {
        CoreError::Stage(e)
    }
}

impl From<rpdbscan_store::StoreError> for CoreError {
    fn from(e: rpdbscan_store::StoreError) -> Self {
        CoreError::Store(e)
    }
}

/// Converts a store-layer failure inside an engine task into the
/// engine's task-failure currency.
pub(crate) fn task_err(e: rpdbscan_store::StoreError) -> rpdbscan_engine::TaskError {
    rpdbscan_engine::TaskError::new(e.to_string())
}

//! Read-path serving layer: query a finished RP-DBSCAN clustering.
//!
//! The batch pipeline ends with a [`Clustering`] and the streaming
//! subsystem ends with an epoch [`Snapshot`] — both write-side artifacts.
//! This crate adds the read side: an immutable, cell-hash-sharded
//! [`ServingIndex`] answering three queries over a published clustering
//!
//! * [`ServingIndex::label_of`] — the stored label of an indexed point,
//! * [`ServingIndex::classify`] — the label a *new* coordinate would
//!   receive, resolved exactly as Phase III resolves border points
//!   (first predecessor core cell in coordinate order with a core point
//!   within ε wins, Algorithm 4 Lines 18–23),
//! * [`ServingIndex::cluster_stats`] — per-cluster size summaries,
//!
//! a [`Server`] front-end that micro-batches requests through the
//! execution engine's worker pool with per-shard routing, bounded-queue
//! admission control ([`ServeError::Overloaded`]) and a small LRU of
//! classify cell plans, and an [`IndexSlot`] for epoch hot-swap: the
//! streaming clusterer publishes each epoch's snapshot as a fresh
//! `Arc<ServingIndex>` that readers pick up atomically, with head/tail
//! generation counters proving no torn reads
//! ([`ServingIndex::verify_generation`]).
//!
//! ```
//! use std::sync::Arc;
//! use rpdbscan_core::{RpDbscan, RpDbscanParams};
//! use rpdbscan_geom::Dataset;
//! use rpdbscan_serve::ServingIndex;
//!
//! let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 * 0.05, 0.0]).collect();
//! let data = Dataset::from_rows(2, &rows).unwrap();
//! let params = RpDbscanParams::new(0.2, 3);
//! let out = RpDbscan::new(params).unwrap().run_local(&data).unwrap();
//! let index = Arc::new(ServingIndex::from_batch(&data, &out, 4, 1).unwrap());
//! // Stored label and fresh classification agree on an indexed point.
//! assert_eq!(
//!     index.classify(&[1.0, 0.0]).unwrap().label,
//!     index.label_of(20).unwrap(),
//! );
//! ```
//!
//! [`Clustering`]: rpdbscan_metrics::Clustering
//! [`Snapshot`]: rpdbscan_stream::Snapshot

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rpdbscan_engine::StageError;

mod cache;
mod index;
mod patch;
mod server;
mod swap;

pub use cache::PlanLru;
pub use index::{CellPlan, Classification, ClusterStats, ServingIndex};
pub use patch::PatchSummary;
pub use server::{Request, Response, Server, ServerConfig, ServerStats};
pub use swap::IndexSlot;

/// Errors from the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// The server's bounded request queue is full; the request was
    /// rejected at admission rather than queued unboundedly.
    Overloaded {
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// A query coordinate, or the dataset handed to
    /// [`ServingIndex::from_batch`], has the wrong number of dimensions.
    DimensionMismatch {
        /// Dimensionality of the served clustering.
        expected: usize,
        /// Dimensionality of the query or dataset.
        got: usize,
    },
    /// A query coordinate is NaN or infinite.
    NonFinite,
    /// A serving stage failed on the engine.
    Stage(StageError),
    /// The clustering's label vector does not cover the dataset.
    LabelMismatch {
        /// Points in the dataset.
        points: usize,
        /// Labels in the clustering.
        labels: usize,
    },
    /// An incremental publish's base index serves a different grid than
    /// the stream it would patch from; shard layouts are only comparable
    /// when the grid specs match bitwise.
    PatchGridMismatch,
    /// An incremental publish's base index is not strictly older than the
    /// stream epoch, so there is no delta to apply.
    PatchNotNewer {
        /// Generation of the base index.
        base: u64,
        /// Epoch of the stream.
        epoch: u64,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Overloaded { capacity } => {
                write!(f, "request queue full (capacity {capacity})")
            }
            Self::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "got {got} coordinates per point, index expects {expected}"
                )
            }
            Self::NonFinite => write!(f, "query coordinate is NaN or infinite"),
            Self::Stage(e) => write!(f, "serving stage failed: {e}"),
            Self::LabelMismatch { points, labels } => {
                write!(f, "clustering has {labels} labels for {points} points")
            }
            Self::PatchGridMismatch => write!(
                f,
                "incremental publish requires the base index and the stream \
                 to share a grid spec"
            ),
            Self::PatchNotNewer { base, epoch } => write!(
                f,
                "incremental publish base generation {base} is not older than \
                 stream epoch {epoch}"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Stage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StageError> for ServeError {
    fn from(e: StageError) -> Self {
        Self::Stage(e)
    }
}

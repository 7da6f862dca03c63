//! Pluggable density backends for the Phase II core-point decision.
//!
//! RP-DBSCAN's Phase II answers one question per point: *is this a core
//! point, and which cells hold its `(ε,ρ)`-neighbours?* The batch
//! pipeline answers it exactly against the broadcast cell dictionary —
//! correct in any dimension, but the grid machinery degrades as `d`
//! grows (the `(2b+1)^d` neighbour window and `2^d`-ary sub-cell tree
//! both blow up). This crate abstracts the decision behind the
//! [`DensityBackend`] trait and ships three implementations:
//!
//! * [`ExactGrid`] — a thin adapter over the existing dictionary +
//!   kd-tree path. Bit-identical to [`RpDbscan`]: `cluster` *is* the
//!   batch driver, so every pre-backend label is reproduced exactly.
//! * [`MutualKnn`] — density from a mutual-kNN graph à la KNN-DBSCAN
//!   (arXiv 2009.04552): a point is core when at least `minPts − 1` of
//!   its `k` nearest neighbours within ε are *mutual* (each lists the
//!   other). Clusters are the connected components of the mutual
//!   core–core graph; non-core points join their nearest core within ε.
//! * [`SampledCore`] — sampled core estimation à la DBSCAN++
//!   (arXiv 1810.13105): the full region query runs only on an
//!   `s`-fraction uniform sample, cores within ε are linked, and every
//!   remaining point classifies against its nearest discovered core.
//!
//! Selection is carried by [`DensityBackendKind`] on
//! [`RpDbscanParams`]; [`backend_for`] dispatches it. The batch driver,
//! the streaming epoch path, and the serving index accept only the
//! exact kind (each rejects approximate kinds with a typed error), so
//! this crate is the one place approximate backends execute.
//!
//! ```
//! use rpdbscan_core::{DensityBackendKind, RpDbscanParams};
//! use rpdbscan_density::backend_for;
//! use rpdbscan_engine::{CostModel, Engine};
//! use rpdbscan_geom::Dataset;
//!
//! let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 * 0.05, 0.0]).collect();
//! let data = Dataset::from_rows(2, &rows).unwrap();
//! let params = RpDbscanParams::new(0.3, 3)
//!     .with_density_backend(DensityBackendKind::MutualKnn { k: 8 });
//! let engine = Engine::with_cost_model(2, CostModel::free());
//! let backend = backend_for(&params).unwrap();
//! let out = backend.cluster(&data, &engine).unwrap();
//! assert_eq!(out.stats.backend, "knn");
//! assert_eq!(out.clustering.num_clusters(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rpdbscan_core::{CoreError, DensityBackendKind, RpDbscanParams};
use rpdbscan_engine::{Engine, StageError, TaskError};
use rpdbscan_geom::Dataset;
use rpdbscan_grid::QueryStats;
use rpdbscan_metrics::Clustering;

mod exact;
mod knn;
mod sampled;
mod uf;

pub use exact::ExactGrid;
pub use knn::MutualKnn;
pub use sampled::SampledCore;

/// Errors from a density backend.
#[derive(Debug)]
pub enum DensityError {
    /// A core-pipeline error (grid construction, parameter validation,
    /// or — for the exact backend — anything the batch driver raises).
    Core(CoreError),
    /// A backend stage failed on the execution engine.
    Stage(StageError),
    /// A backend task failed outside an engine stage.
    Task(TaskError),
}

impl std::fmt::Display for DensityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Core(e) => write!(f, "core error: {e}"),
            Self::Stage(e) => write!(f, "density stage failed: {e}"),
            Self::Task(e) => write!(f, "density task failed: {e}"),
        }
    }
}

impl std::error::Error for DensityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Core(e) => Some(e),
            Self::Stage(e) => Some(e),
            Self::Task(_) => None,
        }
    }
}

impl From<CoreError> for DensityError {
    fn from(e: CoreError) -> Self {
        Self::Core(e)
    }
}

impl From<StageError> for DensityError {
    fn from(e: StageError) -> Self {
        Self::Stage(e)
    }
}

impl From<TaskError> for DensityError {
    fn from(e: TaskError) -> Self {
        Self::Task(e)
    }
}

/// Statistics of one backend clustering pass.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityStats {
    /// Backend tag (`exact` / `knn` / `sampled`).
    pub backend: &'static str,
    /// Core points found, when the backend surfaces per-point core
    /// status on its clustering path. `None` for [`ExactGrid`], whose
    /// `cluster` delegates wholesale to the batch driver (core counts
    /// are available through [`DensityBackend::core_flags`]).
    pub core_points: Option<usize>,
    /// Neighbourhood searches executed: region queries for the grid
    /// backends, kNN queries for the graph backend.
    pub neighbor_searches: u64,
    /// Clusters in the output labelling.
    pub num_clusters: usize,
    /// Points labelled noise.
    pub noise_points: usize,
    /// Aggregated region-query instrumentation. Only [`SampledCore`]
    /// runs dictionary region queries, so the counters stay zero for the
    /// other backends.
    pub query: QueryStats,
}

impl DensityStats {
    fn new(backend: &'static str) -> Self {
        Self {
            backend,
            core_points: None,
            neighbor_searches: 0,
            num_clusters: 0,
            noise_points: 0,
            query: QueryStats::default(),
        }
    }
}

/// A finished backend clustering.
#[derive(Debug)]
pub struct DensityOutput {
    /// Point labels (None = noise), canonicalised: cluster ids are
    /// assigned by the smallest point index each cluster contains.
    pub clustering: Clustering,
    /// Backend statistics.
    pub stats: DensityStats,
}

/// One way of answering Phase II's core-point/neighbourhood decision.
///
/// Implementations must be deterministic: the same dataset and
/// parameters produce the same labels regardless of engine worker
/// count. Only [`ExactGrid`] promises *bit-identity* with the batch
/// driver; the approximate backends promise high Rand agreement on
/// well-separated data (measured by the `density_accuracy` bench and
/// pinned by this crate's property tests), not identical labels.
pub trait DensityBackend {
    /// The backend's stable tag (`exact` / `knn` / `sampled`).
    fn name(&self) -> &'static str;

    /// Per-point core flags under this backend's density estimate.
    ///
    /// For [`SampledCore`] only sampled points can be flagged — that is
    /// the estimator's contract, not an implementation gap.
    fn core_flags(&self, data: &Dataset, engine: &Engine) -> Result<Vec<bool>, DensityError>;

    /// Full clustering under this backend's density estimate.
    fn cluster(&self, data: &Dataset, engine: &Engine) -> Result<DensityOutput, DensityError>;
}

/// Instantiates the backend selected by `params.density_backend`,
/// validating backend knobs ([`rpdbscan_core::validate_backend_config`])
/// first.
pub fn backend_for(params: &RpDbscanParams) -> Result<Box<dyn DensityBackend>, DensityError> {
    rpdbscan_core::validate_backend_config(&params.density_backend)?;
    if params.min_pts == 0 {
        return Err(DensityError::Core(CoreError::InvalidMinPts(0)));
    }
    Ok(match params.density_backend {
        DensityBackendKind::Exact => Box::new(ExactGrid::new(*params)),
        DensityBackendKind::MutualKnn { k } => Box::new(MutualKnn::new(*params, k)),
        DensityBackendKind::SampledCore { sample_frac } => {
            Box::new(SampledCore::new(*params, sample_frac))
        }
    })
}

/// Convenience: dispatch on `params.density_backend` and cluster.
pub fn cluster_with(
    params: &RpDbscanParams,
    data: &Dataset,
    engine: &Engine,
) -> Result<DensityOutput, DensityError> {
    backend_for(params)?.cluster(data, engine)
}

/// Splits `0..n` into at most `chunks` contiguous ranges for engine
/// fan-out. Deterministic in `n` and `chunks` alone, so stage task
/// boundaries (and therefore outputs) never depend on worker count.
fn point_ranges(n: usize, chunks: usize) -> Vec<(usize, usize)> {
    let chunks = chunks.clamp(1, n.max(1));
    let per = n.div_ceil(chunks);
    let mut ranges = Vec::new();
    let mut lo = 0;
    while lo < n {
        let hi = (lo + per).min(n);
        ranges.push((lo, hi));
        lo = hi;
    }
    ranges
}

/// Canonicalises labels: cluster ids are renumbered `0..` in order of
/// each cluster's smallest point index.
fn canonicalize(labels: &mut [Option<u32>]) {
    let mut remap: Vec<Option<u32>> = Vec::new();
    let mut next = 0u32;
    for l in labels.iter_mut() {
        if let Some(old) = *l {
            let slot = old as usize;
            if slot >= remap.len() {
                remap.resize(slot + 1, None);
            }
            let new = match remap[slot] {
                Some(new) => new,
                None => {
                    let new = next;
                    remap[slot] = Some(new);
                    next += 1;
                    new
                }
            };
            *l = Some(new);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_ranges_cover_and_partition() {
        for n in [0usize, 1, 7, 64, 100] {
            for chunks in [1usize, 3, 8, 200] {
                let ranges = point_ranges(n, chunks);
                let mut expect = 0;
                for &(lo, hi) in &ranges {
                    assert_eq!(lo, expect);
                    assert!(hi > lo);
                    expect = hi;
                }
                assert_eq!(expect, n);
                if n == 0 {
                    assert!(ranges.is_empty());
                }
            }
        }
    }

    #[test]
    fn canonicalize_orders_by_first_appearance() {
        let mut labels = vec![Some(7), None, Some(2), Some(7), Some(9), None];
        canonicalize(&mut labels);
        assert_eq!(labels, vec![Some(0), None, Some(1), Some(0), Some(2), None]);
    }

    #[test]
    fn backend_for_dispatches_and_validates() {
        let base = RpDbscanParams::new(0.5, 4);
        assert_eq!(backend_for(&base).unwrap().name(), "exact");
        let knn = base.with_density_backend(DensityBackendKind::MutualKnn { k: 8 });
        assert_eq!(backend_for(&knn).unwrap().name(), "knn");
        let sampled =
            base.with_density_backend(DensityBackendKind::SampledCore { sample_frac: 0.5 });
        assert_eq!(backend_for(&sampled).unwrap().name(), "sampled");

        let bad_k = base.with_density_backend(DensityBackendKind::MutualKnn { k: 0 });
        assert!(matches!(
            backend_for(&bad_k),
            Err(DensityError::Core(CoreError::InvalidBackendConfig { .. }))
        ));
        let bad_frac =
            base.with_density_backend(DensityBackendKind::SampledCore { sample_frac: 0.0 });
        assert!(matches!(
            backend_for(&bad_frac),
            Err(DensityError::Core(CoreError::InvalidBackendConfig { .. }))
        ));
        let mut zero_minpts = base;
        zero_minpts.min_pts = 0;
        assert!(matches!(
            backend_for(&zero_minpts),
            Err(DensityError::Core(CoreError::InvalidMinPts(0)))
        ));
    }
}

//! The cell grid and two-level cell dictionary of RP-DBSCAN.
//!
//! This crate implements the paper's Sections 3–5 data structures:
//!
//! * [`GridSpec`] — the grid of `d`-dimensional hypercube cells with
//!   diagonal length ε (Definition 3.1) and their sub-cells with diagonal
//!   `ε/2^(h−1)` (Definition 4.1);
//! * [`CellDictionary`] — the two-level cell dictionary (Definition 4.2)
//!   with the bit-exact size model of Lemma 4.3 and a compact wire encoding
//!   used to measure broadcast cost;
//! * [`DictionaryIndex`] — sub-dictionaries produced by BSP
//!   defragmentation (§4.2.2), each carrying an MBR (Definition 5.9) for
//!   the skipping rule of Lemma 5.10 and a kd-tree over cell centres so an
//!   `(ε,ρ)`-region query costs `O(log |cell|)` (Lemma 5.6), built on
//!   first use;
//! * [`DictionaryIndex::region_query_cells`] — the `(ε,ρ)`-region query
//!   itself (Definition 5.1), read from the index's flat cell layout,
//!   which keeps cells in coordinate order with a column directory;
//! * [`CellRuns`] — the cell sort: points grouped by cell in coordinate
//!   order, the one kernel behind Phase I-1, the dictionary's point
//!   build and the column store's ingest;
//! * [`CellWindow`] — the per-cell answer of Phase II and stream repair:
//!   the gathered ε-window with early-exit core marking, exact full-window
//!   densities and per-cell successors;
//! * [`CellQueryPlan`] — a memoized per-cell region query for serving's
//!   classify.
//!
//! The hash tables used throughout are keyed by integer lattice coordinates
//! and use a local FxHash-style hasher ([`fxhash`]) because the default
//! SipHash dominates cell-lookup profiles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod cellsort;
pub mod dictionary;
pub mod fxhash;
pub mod plan;
pub mod query;
pub mod spec;
pub mod subdict;
pub mod window;

pub use cell::{for_each_in_box, CellCoord, SubCellIdx};
pub use cellsort::CellRuns;
pub use dictionary::{CellDictionary, CellEntry, DecodeError, SubCellEntry};
pub use fxhash::{FxHashMap, FxHashSet};
pub use plan::{CellQueryPlan, PlanCandidate, PLAN_SLACK};
pub use query::{QueryStats, RegionQueryResult};
pub use spec::GridSpec;
pub use subdict::DictionaryIndex;
pub use window::CellWindow;

/// Errors produced by grid construction.
#[derive(Debug, Clone, PartialEq)]
pub enum GridError {
    /// ε must be strictly positive.
    NonPositiveEps(f64),
    /// ρ must lie in `(0, 1]`.
    InvalidRho(f64),
    /// Dimensionality must be at least 1.
    ZeroDimension,
    /// `d·(h−1)` sub-cell position bits exceed the 128-bit budget.
    SubCellBitsOverflow {
        /// Required bits.
        required: u32,
    },
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::NonPositiveEps(e) => write!(f, "eps must be > 0, got {e}"),
            GridError::InvalidRho(r) => write!(f, "rho must be in (0, 1], got {r}"),
            GridError::ZeroDimension => write!(f, "dimension must be >= 1"),
            GridError::SubCellBitsOverflow { required } => write!(
                f,
                "sub-cell index needs {required} bits (> 128); increase rho or reduce dimension"
            ),
        }
    }
}

impl std::error::Error for GridError {}

//! A miniature MapReduce-style execution engine.
//!
//! The paper implements all algorithms on Apache Spark over 12 Azure VMs.
//! That substrate is unavailable here, so this crate provides the
//! equivalent abstractions the algorithms need, built from scratch:
//!
//! * **stages of tasks over partitions** ([`Engine::run_stage`]) — the
//!   unit Spark calls a stage of an RDD transformation;
//! * **broadcast variables** ([`Engine::broadcast_cost`]) — the mechanism
//!   Phase I uses to ship the two-level cell dictionary to every worker;
//! * **per-task metrics** — elapsed time per split, exactly what the
//!   paper's Spark counters provide for Figures 12/13/21.
//!
//! # Physical execution vs. the virtual cluster
//!
//! Tasks execute on a *physical* thread pool sized to the local machine
//! (never wider than the virtual cluster, so a one-worker engine runs
//! its tasks in order), and each task's wall-clock duration is measured
//! individually. Panics
//! are caught per task, failures can be retried ([`RetryPolicy`]), and a
//! task whose retries are exhausted fails the whole stage with a
//! [`StageError`]. Cluster behaviour is then *simulated*: the measured
//! durations are placed onto `W` **virtual workers** by a pluggable
//! [`Scheduler`] ([`Fifo`] by default — the greedy policy Spark's
//! scheduler effectively yields for a single stage; [`Lpt`] and
//! [`ChunkedSteal`] are alternatives for scheduling studies), producing a
//! makespan that is independent of how many cores the local host happens
//! to have. Broadcast and shuffle costs are charged via an explicit
//! [`CostModel`], and every run leaves a [`Trace`] (one span per task on
//! its virtual lane) exportable as Chrome trace-event JSON. This is the substitution documented in
//! DESIGN.md: relative speed-ups, load imbalance, and phase breakdowns —
//! the quantities the paper reports — survive this simulation; absolute
//! seconds do not (and are not claimed).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod metrics;
pub mod pool;
pub mod sched;
pub mod stage;
pub mod task;
pub mod trace;

pub use cost::CostModel;
pub use metrics::{epoch_stage_name, parse_epoch_stage, EngineReport, StageMetrics};
pub use sched::{ChunkedSteal, Fifo, Lpt, Placement, Schedule, Scheduler};
pub use stage::{Engine, StageResult};
pub use task::{RetryPolicy, StageError, TaskCtx, TaskError};
pub use trace::{NetworkEvent, NetworkKind, TaskSpan, Trace};

//! The engine: stage execution against a virtual cluster.

use crate::cost::CostModel;
use crate::metrics::{EngineReport, StageMetrics};
use crate::pool;
use crate::sched::{Fifo, Scheduler};
use crate::task::{RetryPolicy, StageError, TaskCtx, TaskError};
use crate::trace::{NetworkEvent, NetworkKind, TaskSpan};
use std::sync::Mutex;

/// Result of running one stage: ordered task outputs plus metrics.
#[derive(Debug)]
pub struct StageResult<T> {
    /// Task outputs, in task (partition) order.
    pub outputs: Vec<T>,
    /// The stage's metrics (also appended to the engine report).
    pub metrics: StageMetrics,
}

/// Mutable engine state behind one lock: the metrics report and the
/// virtual clock the trace timeline is built on.
#[derive(Debug)]
struct EngineState {
    report: EngineReport,
    clock: f64,
}

/// A simulated cluster executing MapReduce-style stages.
///
/// `virtual_workers` controls the simulated cluster width (the paper's
/// core count); physical execution uses one thread per virtual worker, up
/// to the local machine's parallelism, so a one-worker engine runs its
/// tasks in order on one thread.
/// The scheduling policy and the per-task retry policy are pluggable.
///
/// ```
/// use rpdbscan_engine::Engine;
///
/// let engine = Engine::new(4);
/// let result = engine
///     .run_stage("square", vec![1u64, 2, 3], |_ctx, x| Ok(x * x))
///     .unwrap();
/// assert_eq!(result.outputs, vec![1, 4, 9]);
/// engine.broadcast_cost("ship-dictionary", 1_000_000);
/// assert_eq!(engine.report().stages.len(), 2);
/// ```
#[derive(Debug)]
pub struct Engine {
    virtual_workers: usize,
    physical_threads: usize,
    cost: CostModel,
    scheduler: Box<dyn Scheduler>,
    retry: RetryPolicy,
    state: Mutex<EngineState>,
}

impl Engine {
    /// An engine with `virtual_workers` simulated workers and the default
    /// cost model, FIFO scheduler, and no-retry policy.
    pub fn new(virtual_workers: usize) -> Self {
        Self::with_cost_model(virtual_workers, CostModel::default())
    }

    /// An engine with an explicit cost model.
    pub fn with_cost_model(virtual_workers: usize, cost: CostModel) -> Self {
        let virtual_workers = virtual_workers.max(1);
        Self {
            virtual_workers,
            physical_threads: pool::physical_threads().min(virtual_workers),
            cost,
            scheduler: Box::new(Fifo),
            retry: RetryPolicy::none(),
            state: Mutex::new(EngineState {
                report: EngineReport {
                    stages: Vec::new(),
                    trace: crate::trace::Trace {
                        workers: virtual_workers,
                        ..Default::default()
                    },
                },
                clock: 0.0,
            }),
        }
    }

    /// Replaces the scheduling policy (builder style).
    pub fn with_scheduler(mut self, scheduler: impl Scheduler + 'static) -> Self {
        self.scheduler = Box::new(scheduler);
        self
    }

    /// Replaces the per-task retry policy (builder style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Number of simulated workers.
    pub fn workers(&self) -> usize {
        self.virtual_workers
    }

    /// The engine's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Name of the active scheduling policy.
    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.name()
    }

    /// Runs one stage: applies `f` to every input (a partition) on the
    /// physical pool, measures each task, and places the measured
    /// durations onto the virtual cluster with the engine's scheduler.
    ///
    /// A task fails by returning `Err` or panicking (panics are caught,
    /// not propagated); failures are retried per the engine's
    /// [`RetryPolicy`], and the first task to exhaust its retries fails
    /// the stage — remaining tasks are cancelled and the [`StageError`]
    /// propagates to the caller.
    pub fn run_stage<I, T, F>(
        &self,
        name: &str,
        inputs: Vec<I>,
        f: F,
    ) -> Result<StageResult<T>, StageError>
    where
        I: Send + Clone,
        T: Send,
        F: Fn(&TaskCtx, I) -> Result<T, TaskError> + Sync,
    {
        let batch = pool::run_batch(
            self.physical_threads,
            name,
            self.virtual_workers,
            self.retry,
            inputs,
            f,
        )?;
        let mut durations = batch.durations;
        // Task times are reported the way Spark's counters report them —
        // including launch overhead. This also floors sub-millisecond
        // tasks so load-imbalance ratios reflect scheduling reality
        // rather than timer noise.
        for d in &mut durations {
            *d += self.cost.per_task_overhead_sec;
        }
        let schedule = self.scheduler.schedule(&durations, self.virtual_workers);
        let work: f64 = durations.iter().sum();
        let span = durations.iter().fold(0.0f64, |a, &b| a.max(b));
        let lower = (work / self.virtual_workers as f64).max(span);
        let imbalance = if lower > 0.0 {
            schedule.makespan / lower
        } else {
            1.0
        };
        let metrics = StageMetrics {
            name: name.to_string(),
            num_tasks: durations.len(),
            workers: self.virtual_workers,
            scheduler: self.scheduler.name().to_string(),
            makespan: schedule.makespan,
            work,
            span,
            imbalance,
            task_durations: durations.clone(),
            network_time: 0.0,
        };
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let clock = state.clock;
        for (task, placement) in schedule.placements.iter().enumerate() {
            state.report.trace.spans.push(TaskSpan {
                stage: name.to_string(),
                task,
                worker: placement.worker,
                start: clock + placement.start,
                duration: durations[task],
            });
        }
        state.clock += metrics.elapsed();
        state.report.stages.push(metrics.clone());
        Ok(StageResult {
            outputs: batch.outputs,
            metrics,
        })
    }

    /// Charges the cost of broadcasting `bytes` to every worker as a
    /// zero-task stage (Phase I's dictionary broadcast).
    pub fn broadcast_cost(&self, name: &str, bytes: u64) -> f64 {
        let t = self.cost.broadcast_time(bytes, self.virtual_workers);
        self.charge_network(name, NetworkKind::Broadcast, bytes, t);
        t
    }

    /// Charges the cost of shuffling `bytes` point-to-point (Phase III's
    /// subgraph exchanges between merge rounds).
    pub fn shuffle_cost(&self, name: &str, bytes: u64) -> f64 {
        let t = self.cost.transfer_time(bytes);
        self.charge_network(name, NetworkKind::Shuffle, bytes, t);
        t
    }

    fn charge_network(&self, name: &str, kind: NetworkKind, bytes: u64, seconds: f64) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let clock = state.clock;
        state.report.trace.events.push(NetworkEvent {
            name: name.to_string(),
            kind,
            bytes,
            start: clock,
            duration: seconds,
        });
        state.clock += seconds;
        state.report.stages.push(StageMetrics {
            name: name.to_string(),
            num_tasks: 0,
            workers: self.virtual_workers,
            scheduler: self.scheduler.name().to_string(),
            task_durations: Vec::new(),
            makespan: 0.0,
            work: 0.0,
            span: 0.0,
            imbalance: 1.0,
            network_time: seconds,
        });
    }

    /// Snapshot of everything run so far, trace included.
    pub fn report(&self) -> EngineReport {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .report
            .clone()
    }

    /// Clears accumulated metrics and trace (between experiment
    /// repetitions).
    pub fn reset(&self) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.report.stages.clear();
        state.report.trace.spans.clear();
        state.report.trace.events.clear();
        state.clock = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Lpt;

    #[test]
    fn stage_outputs_ordered_and_logged() {
        let e = Engine::with_cost_model(4, CostModel::free());
        let r = e
            .run_stage("double", (0..10u64).collect(), |_, x| Ok(x * 2))
            .unwrap();
        assert_eq!(r.outputs, (0..10).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(r.metrics.num_tasks, 10);
        assert_eq!(r.metrics.scheduler, "fifo");
        let rep = e.report();
        assert_eq!(rep.stages.len(), 1);
        assert_eq!(rep.stages[0].name, "double");
    }

    #[test]
    fn broadcast_and_shuffle_costs_recorded() {
        let e = Engine::new(8);
        let b = e.broadcast_cost("bc", 1_000_000);
        let s = e.shuffle_cost("sh", 500_000);
        assert!(b > 0.0 && s > 0.0);
        let rep = e.report();
        assert_eq!(rep.stages.len(), 2);
        assert!((rep.total_elapsed() - (b + s)).abs() < 1e-12);
        assert_eq!(rep.trace.events.len(), 2);
        assert_eq!(rep.trace.events[0].kind, NetworkKind::Broadcast);
        assert_eq!(rep.trace.events[1].kind, NetworkKind::Shuffle);
        // Second event starts when the first finishes.
        assert!((rep.trace.events[1].start - b).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_report_and_trace() {
        let e = Engine::new(2);
        e.run_stage("x", vec![1, 2, 3], |_, v| Ok(v)).unwrap();
        e.broadcast_cost("bc", 1024);
        e.reset();
        let rep = e.report();
        assert!(rep.stages.is_empty());
        assert!(rep.trace.spans.is_empty());
        assert!(rep.trace.events.is_empty());
    }

    #[test]
    fn failing_task_fails_stage_without_abort() {
        let e = Engine::with_cost_model(4, CostModel::free());
        let err = e
            .run_stage("poisoned", (0..8u32).collect(), |_, x| {
                if x == 6 {
                    Err(TaskError::new("bad partition"))
                } else {
                    Ok(x)
                }
            })
            .unwrap_err();
        assert_eq!(err.stage, "poisoned");
        assert_eq!(err.task, 6);
        // A failed stage records no metrics.
        assert!(e.report().stages.is_empty());
        // The engine stays usable afterwards.
        let r = e.run_stage("after", vec![1u32], |_, x| Ok(x)).unwrap();
        assert_eq!(r.outputs, vec![1]);
    }

    #[test]
    fn trace_spans_cover_every_task_on_valid_lanes() {
        let e = Engine::with_cost_model(3, CostModel::free());
        e.run_stage("a", vec![(); 7], |_, ()| Ok(())).unwrap();
        e.run_stage("b", vec![(); 5], |_, ()| Ok(())).unwrap();
        let rep = e.report();
        assert_eq!(rep.trace.spans.len(), 12);
        assert!(rep.trace.spans.iter().all(|s| s.worker < 3));
        assert_eq!(rep.trace.workers, 3);
        // Stage b's spans start at or after stage a's elapsed time.
        let a_elapsed = rep.stages[0].elapsed();
        for span in rep.trace.spans.iter().filter(|s| s.stage == "b") {
            assert!(span.start >= a_elapsed - 1e-12);
        }
        let json = rep.chrome_trace_json();
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn scheduler_is_pluggable() {
        let e = Engine::with_cost_model(2, CostModel::free()).with_scheduler(Lpt);
        assert_eq!(e.scheduler_name(), "lpt");
        let r = e.run_stage("s", vec![1, 2, 3], |_, v| Ok(v)).unwrap();
        assert_eq!(r.metrics.scheduler, "lpt");
    }

    #[test]
    fn retry_policy_is_engine_wide() {
        let e =
            Engine::with_cost_model(2, CostModel::free()).with_retry(RetryPolicy::with_attempts(2));
        let r = e
            .run_stage("flaky", vec![5u32], |ctx, x| {
                if ctx.attempt() == 1 {
                    Err(TaskError::new("transient"))
                } else {
                    Ok(x)
                }
            })
            .unwrap();
        assert_eq!(r.outputs, vec![5]);
    }

    #[test]
    fn work_span_imbalance_are_consistent() {
        let e = Engine::with_cost_model(4, CostModel::free());
        let r = e
            .run_stage("m", vec![1u64, 2, 3, 4, 5, 6, 7, 8], |_, x| {
                // Busy-wait proportional to x so durations are non-trivial.
                let start = std::time::Instant::now();
                while start.elapsed().as_micros() < x as u128 * 200 {}
                Ok(x)
            })
            .unwrap();
        let m = &r.metrics;
        assert!((m.work - m.total_cpu()).abs() < 1e-12);
        assert!(m.span <= m.work + 1e-12);
        assert!(m.makespan >= m.makespan_lower_bound() - 1e-12);
        assert!(m.imbalance >= 1.0 - 1e-9);
    }
}

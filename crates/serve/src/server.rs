//! The serving front-end: micro-batched, shard-routed query execution.
//!
//! A [`Server`] accepts requests into a bounded queue ([`Server::submit`]
//! rejects with [`ServeError::Overloaded`] when full — back-pressure at
//! admission, never unbounded memory), then [`Server::drain`] executes
//! everything queued as one micro-batch on the execution engine's
//! worker pool: requests are grouped by kind and target shard, each
//! group becomes one engine task, and classify requests reuse memoised
//! [`CellPlan`](crate::CellPlan)s from a generation-aware LRU. Every
//! batch resolves against a single `Arc<ServingIndex>` loaded once from
//! the hot-swap slot, so all requests of a batch observe one epoch.
//!
//! Latency percentiles come from the engine's per-task measurements
//! (`StageMetrics::task_durations`) — the serving path itself never
//! reads a clock, preserving the workspace's determinism discipline.

use crate::cache::PlanLru;
use crate::index::{CellPlan, Classification, ClusterStats, ServingIndex};
use crate::swap::IndexSlot;
use crate::ServeError;
use rpdbscan_engine::{Engine, TaskError};
use rpdbscan_grid::{CellCoord, FxHashMap};
use rpdbscan_metrics::LatencyHistogram;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum queued requests before [`Server::submit`] rejects with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Maximum memoised classify cell plans.
    pub cache_capacity: usize,
    /// Pre-populate the plan cache when a new index generation is
    /// published through this server (including construction): every
    /// occupied cell's plan — plus, budget permitting, the unoccupied
    /// halo's window candidate lists — is built once at publish time
    /// instead of cold on first query. Default `true`; turn off to
    /// measure the cold-publish baseline.
    pub warm_on_publish: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            cache_capacity: 256,
            warm_on_publish: true,
        }
    }
}

/// A serving request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Stored label of an indexed point.
    LabelOf(u32),
    /// Classify a fresh coordinate (Phase III border rules).
    Classify(Vec<f64>),
    /// Size summary of a cluster.
    ClusterStats(u32),
}

/// A serving response, mirroring the [`Request`] variants.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `Some(label)` for indexed points (`label` is `None` for noise),
    /// `None` for ids the index has never seen.
    Label(Option<Option<u32>>),
    /// The classification of the queried coordinate.
    Classified(Classification),
    /// `None` when the cluster id does not exist.
    Stats(Option<ClusterStats>),
}

/// Request kind: the first half of the (kind, shard) task-routing key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Label,
    Classify,
    Stats,
}

/// A queued request with its admission-order ticket.
#[derive(Debug)]
struct QueueState {
    next_ticket: u64,
    items: VecDeque<(u64, Request)>,
}

/// A request resolved to its execution form: shard routing done, plans
/// attached.
#[derive(Debug, Clone)]
enum Prepared {
    Label(u32),
    Classify(Vec<f64>, Arc<CellPlan>),
    Stats(u32),
}

/// Aggregate serving counters and latency histograms.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Requests answered.
    pub served: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses.
    pub cache_misses: u64,
    /// Plans pre-built into the cache by warm publishes.
    pub plans_warmed: u64,
    /// Plans carried across delta publishes without a rebuild (the
    /// patch proved their cells' ε-windows untouched).
    pub plans_carried: u64,
    /// Per-task latencies of `LabelOf` micro-batch tasks, seconds.
    pub label_of: LatencyHistogram,
    /// Per-task latencies of `Classify` micro-batch tasks, seconds.
    pub classify: LatencyHistogram,
    /// Per-task latencies of `ClusterStats` micro-batch tasks, seconds.
    pub cluster_stats: LatencyHistogram,
}

/// Mutable half of [`ServerStats`] (cache counters live in the LRU).
#[derive(Debug, Default)]
struct StatsInner {
    submitted: u64,
    rejected: u64,
    batches: u64,
    served: u64,
    plans_warmed: u64,
    plans_carried: u64,
    label_of: LatencyHistogram,
    classify: LatencyHistogram,
    cluster_stats: LatencyHistogram,
}

/// The serving front-end over one hot-swappable index slot.
#[derive(Debug)]
pub struct Server {
    engine: Engine,
    slot: Arc<IndexSlot>,
    config: ServerConfig,
    queue: Mutex<QueueState>,
    cache: Mutex<PlanLru>,
    stats: Mutex<StatsInner>,
}

/// Resolves the classify plan for one cell within a drained micro-batch.
///
/// The first request landing in a cell takes exactly one LRU access — a
/// hit, or a miss plus a cold build — and parks the plan in `gathered`;
/// every later request of the same batch in the same cell shares it
/// without touching the LRU. Grouping the gather by cell keeps a burst
/// of queries into one hot cell at one cache probe per batch.
// lint:hot
fn gather_plan(
    index: &ServingIndex,
    cache: &mut PlanLru,
    gathered: &mut FxHashMap<CellCoord, Arc<CellPlan>>,
    coord: &CellCoord,
) -> Arc<CellPlan> {
    if let Some(p) = gathered.get(coord) {
        return Arc::clone(p);
    }
    let plan = match cache.get(coord) {
        Some(p) => p,
        None => {
            let p = Arc::new(index.plan_for(coord));
            cache.insert(coord.clone(), Arc::clone(&p));
            p
        }
    };
    gathered.insert(coord.clone(), Arc::clone(&plan));
    plan
}

impl Server {
    /// A server initially publishing `index`, executing on `engine`.
    pub fn new(engine: Engine, index: Arc<ServingIndex>, config: ServerConfig) -> Self {
        Self::from_slot(engine, Arc::new(IndexSlot::new(index)), config)
    }

    /// A server over an externally shared hot-swap slot (the streaming
    /// publisher holds the other reference).
    pub fn from_slot(engine: Engine, slot: Arc<IndexSlot>, config: ServerConfig) -> Self {
        let cache_capacity = config.cache_capacity;
        let server = Self {
            engine,
            slot,
            config,
            queue: Mutex::new(QueueState {
                next_ticket: 0,
                items: VecDeque::new(),
            }),
            cache: Mutex::new(PlanLru::new(cache_capacity)),
            stats: Mutex::new(StatsInner::default()),
        };
        let initial = server.slot.load();
        server.warm_cache(&initial);
        server
    }

    /// The engine executing the micro-batches.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The shared hot-swap slot, for external publishers.
    pub fn slot(&self) -> Arc<IndexSlot> {
        Arc::clone(&self.slot)
    }

    /// The currently published index.
    pub fn index(&self) -> Arc<ServingIndex> {
        self.slot.load()
    }

    /// Publishes a new index generation unconditionally, pre-populating
    /// the plan cache for it when `warm_on_publish` is set.
    pub fn publish(&self, index: Arc<ServingIndex>) -> u64 {
        let generation = self.slot.publish(Arc::clone(&index));
        self.warm_cache(&index);
        generation
    }

    /// Publishes a new index generation unless it is not newer than the
    /// current one; returns whether the swap happened. A successful swap
    /// warms the plan cache like [`Self::publish`].
    pub fn publish_if_newer(&self, index: Arc<ServingIndex>) -> bool {
        let swapped = self.slot.publish_if_newer(Arc::clone(&index));
        if swapped {
            self.warm_cache(&index);
        }
        swapped
    }

    /// Pre-populates the plan cache for `index`'s generation: re-scopes
    /// the LRU, then inserts every plan the index yields under the
    /// cache-capacity budget. Inserts bypass the hit/miss counters, so a
    /// warm publish leaves the miss count at zero — the property the
    /// warm-publish unit test pins.
    ///
    /// When `index` was produced by a delta publish patched directly on
    /// top of the generation this cache is scoped to, the plans of cells
    /// the patch proved untouched are *carried* instead of rebuilt
    /// ([`PlanLru::carry_forward`]) and only the invalidated ε-window is
    /// rewarmed ([`ServingIndex::warm_plans_invalidated`]).
    fn warm_cache(&self, index: &ServingIndex) {
        if !self.config.warm_on_publish {
            return;
        }
        let carried: Option<u64> = {
            let mut cache = self.cache.lock().unwrap_or_else(|p| p.into_inner());
            match index.patch_summary() {
                Some(p) if p.can_carry() && cache.generation() == p.base_generation() => {
                    Some(cache.carry_forward(index.generation(), |c| !p.invalidates(c)) as u64)
                }
                _ => None,
            }
        };
        let warmed = if carried.is_some() {
            index.warm_plans_invalidated(self.config.cache_capacity)
        } else {
            index.warm_plans(self.config.cache_capacity)
        };
        let count = warmed.len() as u64;
        {
            let mut cache = self.cache.lock().unwrap_or_else(|p| p.into_inner());
            cache.reset_for_generation(index.generation());
            for (coord, plan) in warmed {
                cache.insert(coord, Arc::new(plan));
            }
        }
        let mut stats = self.stats.lock().unwrap_or_else(|p| p.into_inner());
        stats.plans_warmed += count;
        stats.plans_carried += carried.unwrap_or(0);
    }

    /// Requests currently queued.
    pub fn queue_len(&self) -> usize {
        self.queue
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .items
            .len()
    }

    /// Admits one request, returning its ticket, or rejects it when the
    /// queue is at capacity. Classify coordinates are shape-checked here
    /// so malformed requests fail at admission, not mid-batch.
    pub fn submit(&self, req: Request) -> Result<u64, ServeError> {
        if let Request::Classify(q) = &req {
            self.slot.load().validate(q)?;
        }
        let ticket = {
            let mut queue = self.queue.lock().unwrap_or_else(|p| p.into_inner());
            if queue.items.len() >= self.config.queue_capacity {
                drop(queue);
                self.stats
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .rejected += 1;
                return Err(ServeError::Overloaded {
                    capacity: self.config.queue_capacity,
                });
            }
            let t = queue.next_ticket;
            queue.next_ticket += 1;
            queue.items.push_back((t, req));
            t
        };
        self.stats
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .submitted += 1;
        Ok(ticket)
    }

    /// Executes everything queued as one micro-batch and returns
    /// `(ticket, response)` pairs in ticket order. The whole batch runs
    /// against the single index generation current at drain time.
    pub fn drain(&self) -> Result<Vec<(u64, Response)>, ServeError> {
        let pending: Vec<(u64, Request)> = {
            let mut queue = self.queue.lock().unwrap_or_else(|p| p.into_inner());
            queue.items.drain(..).collect()
        };
        if pending.is_empty() {
            return Ok(Vec::new());
        }
        let index = self.slot.load();

        // Route each request to its (kind, shard) task, resolving
        // classify plans through the generation-aware LRU up front —
        // amortised per *cell*, not per request: `gathered` holds each
        // distinct cell's plan for the duration of this batch.
        let mut groups: BTreeMap<(Kind, u32), Vec<(u64, Prepared)>> = BTreeMap::new();
        {
            let mut cache = self.cache.lock().unwrap_or_else(|p| p.into_inner());
            cache.reset_for_generation(index.generation());
            let mut gathered: FxHashMap<CellCoord, Arc<CellPlan>> = FxHashMap::default();
            for (ticket, req) in pending {
                let (key, prepared) = match req {
                    Request::LabelOf(id) => {
                        ((Kind::Label, index.shard_of_id(id)), Prepared::Label(id))
                    }
                    Request::Classify(q) => {
                        let coord = index.spec().cell_of(&q);
                        let plan = gather_plan(&index, &mut cache, &mut gathered, &coord);
                        (
                            (Kind::Classify, index.shard_of_coord(&coord)),
                            Prepared::Classify(q, plan),
                        )
                    }
                    Request::ClusterStats(c) => (
                        (Kind::Stats, c % index.num_shards().max(1) as u32),
                        Prepared::Stats(c),
                    ),
                };
                groups.entry(key).or_default().push((ticket, prepared));
            }
        }
        let inputs: Vec<(Kind, Vec<(u64, Prepared)>)> =
            groups.into_iter().map(|((k, _), v)| (k, v)).collect();
        let kinds: Vec<Kind> = inputs.iter().map(|(k, _)| *k).collect();

        let batch_no = {
            let mut stats = self.stats.lock().unwrap_or_else(|p| p.into_inner());
            stats.batches += 1;
            stats.batches
        };
        let idx = &index;
        let result = self.engine.run_stage(
            &format!("serve:batch-{batch_no}"),
            inputs,
            |_ctx, (_kind, items): (Kind, Vec<(u64, Prepared)>)| {
                let mut out = Vec::with_capacity(items.len());
                for (ticket, p) in items {
                    let resp = match p {
                        Prepared::Label(id) => Response::Label(idx.label_of(id)),
                        Prepared::Classify(q, plan) => Response::Classified(
                            idx.classify_with(&plan, &q)
                                .map_err(|e| TaskError::new(format!("classify failed: {e}")))?,
                        ),
                        Prepared::Stats(c) => Response::Stats(idx.cluster_stats(c).cloned()),
                    };
                    out.push((ticket, resp));
                }
                Ok(out)
            },
        )?;

        let mut responses: Vec<(u64, Response)> = Vec::new();
        {
            let mut stats = self.stats.lock().unwrap_or_else(|p| p.into_inner());
            for (i, out) in result.outputs.into_iter().enumerate() {
                let d = result.metrics.task_durations.get(i).copied().unwrap_or(0.0);
                match kinds.get(i) {
                    Some(Kind::Label) => stats.label_of.record(d),
                    Some(Kind::Classify) => stats.classify.record(d),
                    Some(Kind::Stats) | None => stats.cluster_stats.record(d),
                }
                stats.served += out.len() as u64;
                responses.extend(out);
            }
        }
        responses.sort_unstable_by_key(|&(t, _)| t);
        Ok(responses)
    }

    /// Convenience: submits `reqs` and drains, returning responses in
    /// the order the requests were given. Fails fast on admission
    /// rejection.
    pub fn execute(&self, reqs: Vec<Request>) -> Result<Vec<Response>, ServeError> {
        let mut tickets = Vec::with_capacity(reqs.len());
        for r in reqs {
            tickets.push(self.submit(r)?);
        }
        let mut by_ticket: FxHashMap<u64, Response> = self.drain()?.into_iter().collect();
        Ok(tickets
            .into_iter()
            .filter_map(|t| by_ticket.remove(&t))
            .collect())
    }

    /// A snapshot of the serving counters and latency histograms.
    pub fn stats(&self) -> ServerStats {
        let inner = self.stats.lock().unwrap_or_else(|p| p.into_inner());
        let cache = self.cache.lock().unwrap_or_else(|p| p.into_inner());
        ServerStats {
            submitted: inner.submitted,
            rejected: inner.rejected,
            batches: inner.batches,
            served: inner.served,
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            plans_warmed: inner.plans_warmed,
            plans_carried: inner.plans_carried,
            label_of: inner.label_of.clone(),
            classify: inner.classify.clone(),
            cluster_stats: inner.cluster_stats.clone(),
        }
    }
}

//! The serving workload: a sliding window of points served by a
//! `Server` over a `ServingIndex` under an open loop of reads. The
//! traced run adds a rate ladder and a churn segment, whose writes
//! share the loop with the reads.
//!
//! One thread generates the load. Reads arrive on a Poisson schedule;
//! each is submitted once due and `drain()` runs whenever requests are
//! pending, so a read's latency counts from its due time and includes
//! any wait behind a drain or a write. A write pushes a batch into the
//! window, patches the index from the stream and publishes it, the way
//! `rpdbscan serve --window` does; its latency counts from its due time
//! to the return of the publish.

use crate::metrics::Metrics;
use crate::stats::{median, percentile, poisson_schedule, ratio, tail};
use crate::trace::{now, since, Tracer};
use crate::{derive_seed, Config, Outcome, MIN_PTS, RHO, WORKERS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_dbscan::prelude::*;
use rp_dbscan::serve::ServerStats;
use rpdbscan_json::Value;
use std::sync::Arc;
use std::time::Duration;

/// ε of the served clustering (`cosmo_like` 3-d).
const SERVE_EPS: f64 = 0.8;
/// Cell-hash shards of the serving index.
const SHARDS: usize = 2;
/// Admission queue bound; a read beyond it is rejected and counts as
/// failed.
const QUEUE_CAPACITY: usize = 16_384;
/// Classify plans the server memoises (and re-warms on publish).
const CACHE_CAPACITY: usize = 16_384;
/// Offered read rate of the measured segment, reads per second.
const READ_RATE: f64 = 8_000.0;
/// Seconds between writes of the churn segment.
const WRITE_EVERY_S: f64 = 2.0;
/// Points per write, as a share of the window.
const WRITE_FRACTION: f64 = 0.001;
/// Discarded warm-up before the measured segment, seconds.
const WARMUP_S: f64 = 1.0;
/// One response in this many is checked against an oracle.
const CHECK_EVERY: u64 = 16;
/// Rates of the capacity ladder, as multiples of [`READ_RATE`].
const LADDER: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
/// A ladder step passes when its read tail and its generator lateness
/// stay within this limit and nothing is rejected.
const LATENCY_LIMIT_S: f64 = 0.050;
/// Distinct fresh points the classify reads cycle through.
const QUERY_POOL: usize = 8_192;

/// The live serving state.
struct Live {
    window: SlidingWindow,
    server: Server,
    /// Largest stream slot ever handed out; live ids are drawn below it.
    max_slot: u32,
}

/// Set-up timings of one build.
struct Build {
    preload_s: f64,
    index_s: f64,
    warm_s: f64,
}

fn build(points: &[f64], dim: usize, tracer: &mut Tracer) -> Result<(Live, Build), String> {
    let params = RpDbscanParams::new(SERVE_EPS, MIN_PTS).with_rho(RHO);
    let t0 = now();
    let engine = Engine::with_cost_model(WORKERS, CostModel::free());
    let mut s = StreamingRpDbscan::with_engine(dim, params, engine).map_err(|e| e.to_string())?;
    let ids = s.insert_batch(points).map_err(|e| e.to_string())?;
    let window = SlidingWindow::new(s, ids.len()).map_err(|e| e.to_string())?;
    let root = tracer.span("stream.preload", t0, None);
    let preload_s = since(t0);
    let t1 = now();
    let index = Arc::new(ServingIndex::from_stream(window.stream(), SHARDS));
    tracer.span("serve.index_build", t1, Some(root));
    let index_s = since(t1);
    let t2 = now();
    let config = ServerConfig {
        queue_capacity: QUEUE_CAPACITY,
        cache_capacity: CACHE_CAPACITY,
        warm_on_publish: true,
    };
    let server = Server::new(
        Engine::with_cost_model(WORKERS, CostModel::free()),
        index,
        config,
    );
    tracer.span("serve.server_new", t2, Some(root));
    let warm_s = since(t2);
    let max_slot = ids.iter().map(|id| id.0).max().unwrap_or(0);
    let live = Live {
        window,
        server,
        max_slot,
    };
    Ok((
        live,
        Build {
            preload_s,
            index_s,
            warm_s,
        },
    ))
}

/// Request mix: 50% classify of a fresh point, 45% label of a random
/// live id, 5% cluster stats.
struct Traffic {
    rng: StdRng,
    queries: Dataset,
    next_query: usize,
}

impl Traffic {
    fn next(&mut self, live: &Live) -> Request {
        let roll = self.rng.gen_range(0..100u32);
        if roll < 50 {
            let q = self.queries.point_at(self.next_query % self.queries.len());
            self.next_query += 1;
            Request::Classify(q.to_vec())
        } else if roll < 95 {
            let stream = live.window.stream();
            let mut id = self.rng.gen_range(0..=live.max_slot);
            for _ in 0..64 {
                if stream.is_live(id) {
                    break;
                }
                id = self.rng.gen_range(0..=live.max_slot);
            }
            Request::LabelOf(id)
        } else {
            let clusters = live.server.index().num_clusters().max(1) as u32;
            Request::ClusterStats(self.rng.gen_range(0..clusters))
        }
    }
}

/// Whether `resp` is what the oracles say `req` should get from the
/// currently published generation.
fn correct(live: &Live, req: &Request, resp: &Response) -> bool {
    let index = live.server.index();
    match (req, resp) {
        (Request::Classify(q), Response::Classified(c)) => {
            index.classify_oracle(q).is_ok_and(|o| &o == c)
        }
        (Request::LabelOf(id), Response::Label(l)) => {
            live.window.stream().label_of_point(*id) == *l
        }
        (Request::ClusterStats(c), Response::Stats(s)) => index.cluster_stats(*c).cloned() == *s,
        _ => false,
    }
}

/// One write: timings and what the program reported about it.
struct Write {
    freshness_s: f64,
    push_s: f64,
    patch_s: f64,
    publish_s: f64,
    rebuilt_cells: f64,
    shared_shards: f64,
    warmed: f64,
    carried: f64,
    /// Cells the write's epoch repaired; read from a snapshot, which
    /// copies every label, so only traced writes take it.
    dirty_cells: Option<f64>,
    expired: f64,
}

/// Everything one segment measured.
#[derive(Default)]
struct Segment {
    /// Read latency, due time to the return of its drain, seconds.
    latency: Vec<f64>,
    /// Per read: whether its drain was traced.
    traced: Vec<bool>,
    queue_wait: Vec<f64>,
    service: Vec<f64>,
    /// How late the generator submitted each read, seconds.
    late: Vec<f64>,
    writes: Vec<Write>,
    /// Writes attempted, failed ones included.
    writes_attempted: u64,
    reads: u64,
    rejected: u64,
    errors: u64,
    wrong: u64,
    drains: u64,
    drain_busy_s: f64,
    cache_hits: u64,
    cache_misses: u64,
}

impl Segment {
    fn failed(&self) -> u64 {
        self.rejected + self.errors + self.wrong
    }

    fn attempted(&self) -> u64 {
        self.reads + self.writes_attempted
    }

    /// The capacity-ladder rule: the step's read tail and generator
    /// lateness stay within the limit, and nothing failed.
    fn meets_limit(&self) -> bool {
        let late = percentile(&sorted(&self.late), 0.99);
        let tail_ok = tail(&self.latency).is_some_and(|t| t.value <= LATENCY_LIMIT_S);
        tail_ok && late <= LATENCY_LIMIT_S && self.failed() == 0
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// What a segment offers: the read rate, its length, and writes.
struct Load {
    rate: f64,
    seconds: f64,
    writes: bool,
    seed: u64,
    /// Trace half the drains and half the writes, each picked by
    /// [`coin`], so traced and untraced ops share the segment's
    /// conditions and compare fairly.
    alternate_trace: bool,
}

/// A pending read: its due time and, for one in [`CHECK_EVERY`], the
/// request kept for the oracle check.
struct Pending {
    due: f64,
    seq: u64,
    check: Option<Request>,
}

/// Whether the `n`th drain or write of a traced segment is traced: a
/// hashed coin, not parity, because drains fall into patterns around
/// writes and parity would put a pattern on one side.
fn coin(n: u64) -> bool {
    derive_seed(n, 0) & 1 == 1
}

/// Runs one open-loop segment against `live`.
fn segment(
    live: &mut Live,
    traffic: &mut Traffic,
    feed: &mut Feed,
    load: &Load,
    tracer: &mut Tracer,
) -> Result<Segment, String> {
    let schedule = poisson_schedule(load.rate, load.seconds, load.seed);
    let mut seg = Segment::default();
    let stats0 = live.server.stats();
    live.server.engine().reset();
    let mut next_write = load.writes.then_some(WRITE_EVERY_S / 2.0);
    let mut next = 0usize;
    let mut seq = 0u64;
    let mut pending: Vec<Pending> = Vec::new();
    let start = now();
    loop {
        let t = since(start);
        if let Some(due) = next_write.filter(|&d| d <= t) {
            tracer.set_enabled(load.alternate_trace && coin(seg.writes_attempted));
            seg.writes_attempted += 1;
            match write(live, feed, start, due, tracer) {
                Ok(w) => seg.writes.push(w),
                Err(e) => {
                    eprintln!("write failed: {e}");
                    seg.errors += 1;
                }
            }
            let following = due + WRITE_EVERY_S;
            next_write = (following < load.seconds).then_some(following);
            continue;
        }
        while next < schedule.len() && schedule[next] <= t {
            let due = schedule[next];
            next += 1;
            let req = traffic.next(live);
            let check = seq.is_multiple_of(CHECK_EVERY).then(|| req.clone());
            seg.reads += 1;
            seg.late.push(t - due);
            match live.server.submit(req) {
                Ok(_) => pending.push(Pending { due, seq, check }),
                Err(rp_dbscan::serve::ServeError::Overloaded { .. }) => seg.rejected += 1,
                Err(e) => {
                    eprintln!("submit failed: {e}");
                    seg.errors += 1;
                }
            }
            seq += 1;
        }
        if !pending.is_empty() {
            let traced = load.alternate_trace && coin(seg.drains);
            tracer.set_enabled(traced);
            let d0 = now();
            let began = since(start);
            let res = live.server.drain();
            let ended = since(start);
            seg.drains += 1;
            let drain_id = tracer.span_with(
                "serve.drain",
                d0,
                None,
                vec![("requests", Value::Int(pending.len() as i64))],
            );
            match res {
                Ok(resps) if resps.len() == pending.len() => {
                    for (p, (_, resp)) in pending.iter().zip(&resps) {
                        seg.latency.push(ended - p.due);
                        seg.traced.push(traced);
                        seg.queue_wait.push(began - p.due);
                        seg.service.push(ended - began);
                        if let Some(req) = &p.check {
                            if !correct(live, req, resp) {
                                seg.wrong += 1;
                            }
                            let due_at = start + Duration::from_secs_f64(p.due);
                            tracer.span_with(
                                "serve.request",
                                due_at,
                                Some(drain_id),
                                vec![("request", Value::Int(p.seq as i64))],
                            );
                        }
                    }
                }
                Ok(_) => seg.errors += pending.len() as u64,
                Err(e) => {
                    eprintln!("drain failed: {e}");
                    seg.errors += pending.len() as u64;
                }
            }
            pending.clear();
            continue;
        }
        let wake = match (schedule.get(next), next_write) {
            (None, None) => break,
            (Some(&r), Some(w)) => r.min(w),
            (Some(&r), None) => r,
            (None, Some(w)) => w,
        };
        let t = since(start);
        if wake > t {
            std::thread::sleep(Duration::from_secs_f64(wake - t));
        }
    }
    let report = live.server.engine().report();
    seg.drain_busy_s = report.stages.iter().map(|s| s.work).sum();
    let stats1 = live.server.stats();
    seg.cache_hits = stats1.cache_hits - stats0.cache_hits;
    seg.cache_misses = stats1.cache_misses - stats0.cache_misses;
    Ok(seg)
}

/// The churn feed: fresh points written in fixed-size batches.
struct Feed {
    points: Dataset,
    batch: usize,
    next: usize,
}

impl Feed {
    fn take(&mut self) -> Vec<f64> {
        let mut flat = Vec::with_capacity(self.batch * self.points.dim());
        for _ in 0..self.batch {
            flat.extend_from_slice(self.points.point_at(self.next % self.points.len()));
            self.next += 1;
        }
        flat
    }
}

/// One write due at `due` seconds after `start`: push into the window,
/// patch the index, publish, and check the published shards.
fn write(
    live: &mut Live,
    feed: &mut Feed,
    start: std::time::Instant,
    due: f64,
    tracer: &mut Tracer,
) -> Result<Write, String> {
    let flat = feed.take();
    let t0 = now();
    let ids = live.window.push_batch(&flat).map_err(|e| e.to_string())?;
    let push_s = since(t0);
    live.max_slot = ids.iter().map(|id| id.0).fold(live.max_slot, u32::max);
    let t1 = now();
    let patched = ServingIndex::patch_from_stream(&live.server.index(), live.window.stream())
        .map_err(|e| e.to_string())?;
    let patch_s = since(t1);
    let (rebuilt_cells, shared_shards) = patched.patch_summary().map_or((0.0, 0.0), |p| {
        (p.rebuilt_cells() as f64, p.shared_shards() as f64)
    });
    let before: ServerStats = live.server.stats();
    let t2 = now();
    let generation = live.server.publish(Arc::new(patched));
    let publish_s = since(t2);
    let freshness_s = since(start) - due;
    let after = live.server.stats();
    let root = tracer.span("serve.write", start + Duration::from_secs_f64(due), None);
    tracer.span("stream.push_batch", t0, Some(root));
    tracer.span("serve.patch_from_stream", t1, Some(root));
    tracer.span("serve.publish", t2, Some(root));
    let index = live.server.index();
    if index.verify_shards() != Some(generation) {
        return Err(format!(
            "published generation {generation} failed verify_shards"
        ));
    }
    let dirty_cells = tracer
        .enabled()
        .then(|| live.window.stream().snapshot().stats.last_dirty_cells as f64);
    Ok(Write {
        freshness_s,
        push_s,
        patch_s,
        publish_s,
        rebuilt_cells,
        shared_shards,
        warmed: (after.plans_warmed - before.plans_warmed) as f64,
        carried: (after.plans_carried - before.plans_carried) as f64,
        dirty_cells,
        expired: live.window.last_expired() as f64,
    })
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> Result<Outcome, String> {
    // The window, and fresh points of the same shape: the first
    // QUERY_POOL are classify queries, the rest the churn feed.
    let (window, fresh) = crate::sample(
        synth::cosmo_like,
        cfg.sizes.window,
        cfg.sizes.window,
        cfg.seed,
    );
    let dim = window.dim();
    let points = window.flat().to_vec();
    drop(window);
    let split = QUERY_POOL.min(fresh.len() / 2) * dim;
    let (q, f) = fresh.flat().split_at(split);
    let mut traffic = Traffic {
        rng: StdRng::seed_from_u64(derive_seed(cfg.seed, 1)),
        queries: Dataset::from_flat(dim, q.to_vec()).map_err(|e| e.to_string())?,
        next_query: 0,
    };
    let mut feed = Feed {
        points: Dataset::from_flat(dim, f.to_vec()).map_err(|e| e.to_string())?,
        batch: ((cfg.sizes.window as f64 * WRITE_FRACTION).round() as usize).max(1),
        next: 0,
    };
    let mut m = Metrics::default();

    // ---- set-up, repeated; the last build is served -------------------
    let mut builds = Vec::new();
    let mut build_peaks = Vec::new();
    let mut live = None;
    let start = now();
    while !cfg.sizes.setup_done(builds.len(), since(start)) {
        drop(live.take()); // free the previous build before timing the next
        crate::reset_peak_rss();
        let (l, b) = build(&points, dim, tracer)?;
        build_peaks.push(crate::peak_rss_mb()?);
        live = Some(l);
        builds.push(b);
    }
    let mut live = live.ok_or("no set-up repetitions")?;
    let med = |f: fn(&Build) -> f64| median(&builds.iter().map(f).collect::<Vec<_>>());
    m.put("setup_s", med(|b| b.preload_s + b.index_s + b.warm_s));
    m.put("stream.preload_s", med(|b| b.preload_s));
    m.put("serve.index_build_s", med(|b| b.index_s));
    m.put("serve.server_warm_s", med(|b| b.warm_s));

    // ---- warm-up, then the measured read segment -----------------------
    let warm = Load {
        rate: READ_RATE,
        seconds: WARMUP_S.min(cfg.seconds),
        writes: false,
        seed: derive_seed(cfg.seed, 4),
        alternate_trace: false,
    };
    tracer.set_enabled(false);
    let mut segs = vec![segment(&mut live, &mut traffic, &mut feed, &warm, tracer)?];
    let load = Load {
        rate: READ_RATE,
        seconds: cfg.seconds,
        writes: false,
        seed: derive_seed(cfg.seed, 5),
        alternate_trace: cfg.trace,
    };
    crate::reset_peak_rss();
    let reads = segment(&mut live, &mut traffic, &mut feed, &load, tracer)?;
    let serve_peak = crate::peak_rss_mb()?;
    tracer.set_enabled(false);
    // The larger of one set-up's peak (median over repetitions) and the
    // measured segment's.
    m.put("process.peak_rss_mb", median(&build_peaks).max(serve_peak));
    m.put("op_p50_ms", median(&reads.latency) * 1e3);
    if cfg.trace {
        // Tracing overhead: reads of traced drains against the others.
        let split = |want: bool| {
            let v = reads.latency.iter().zip(&reads.traced);
            median(
                &v.filter(|&(_, &t)| t == want)
                    .map(|(&l, _)| l)
                    .collect::<Vec<_>>(),
            )
        };
        m.put("trace.overhead_frac", split(true) / split(false) - 1.0);
        read_layers(&mut m, &reads);
        m.put(
            "serve.max_read_qps",
            ladder(&mut live, &mut traffic, &mut feed, cfg, tracer)?,
        );
        // The churn segment: the same reads plus writes. Its warm-up
        // holds one write, since the first publish finds the plan cache
        // the set-up filled, fuller than later publishes find it.
        for (stream, seconds, alternate_trace) in
            [(6, WRITE_EVERY_S, false), (7, cfg.seconds, true)]
        {
            let load = Load {
                rate: READ_RATE,
                seconds: seconds.min(cfg.seconds),
                writes: true,
                seed: derive_seed(cfg.seed, stream),
                alternate_trace,
            };
            segs.push(segment(&mut live, &mut traffic, &mut feed, &load, tracer)?);
        }
        write_layers(&mut m, &segs[segs.len() - 1]);
    }
    segs.push(reads);
    tracer.set_enabled(cfg.trace);

    let attempted = segs.iter().map(Segment::attempted).sum();
    let failed = segs.iter().map(Segment::failed).sum();
    let problems = segs
        .iter()
        .filter(|s| s.failed() > 0)
        .map(|s| {
            format!(
                "{} rejected, {} errored, {} wrong of {} reads and {} writes",
                s.rejected,
                s.errors,
                s.wrong,
                s.reads,
                s.writes.len()
            )
        })
        .collect();
    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics: m,
    })
}

/// The highest ladder rate whose step meets the latency limit, stopping
/// at the first step that does not (0 when the first fails).
fn ladder(
    live: &mut Live,
    traffic: &mut Traffic,
    feed: &mut Feed,
    cfg: &Config,
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let step_s = cfg.seconds / 10.0;
    let mut steps = Vec::new();
    for (i, mult) in LADDER.iter().enumerate() {
        let load = Load {
            rate: READ_RATE * mult,
            seconds: step_s,
            writes: false,
            seed: derive_seed(cfg.seed, 16 + i as u64),
            alternate_trace: false,
        };
        let seg = segment(live, traffic, feed, &load, tracer)?;
        let ok = seg.meets_limit();
        steps.push((load.rate, ok));
        if !ok {
            break;
        }
    }
    Ok(max_passing_rate(&steps))
}

/// The `max_read_qps` rule over `(rate, passed)` steps in ladder order:
/// the last rate of the leading run of passing steps.
pub fn max_passing_rate(steps: &[(f64, bool)]) -> f64 {
    steps
        .iter()
        .take_while(|(_, ok)| *ok)
        .last()
        .map_or(0.0, |&(rate, _)| rate)
}

/// The per-layer metrics of the traced read segment.
fn read_layers(m: &mut Metrics, seg: &Segment) {
    m.put("serve.drain_busy_s", seg.drain_busy_s);
    m.put("serve.drains", seg.drains as f64);
    m.put("serve.batch_mean", ratio(seg.reads, seg.drains));
    m.put("serve.queue_wait_p50_ms", median(&seg.queue_wait) * 1e3);
    m.put("serve.service_p50_ms", median(&seg.service) * 1e3);
    m.put(
        "serve.cache_hit_rate",
        ratio(seg.cache_hits, seg.cache_hits + seg.cache_misses),
    );
    m.put("serve.rejected", seg.rejected as f64);
    m.put(
        "serve.gen_late_p99_ms",
        percentile(&sorted(&seg.late), 0.99) * 1e3,
    );
    m.put("serve.read_tail_ms", read_tail_ms(seg, "read"));
}

/// The per-layer metrics of the churn segment.
fn write_layers(m: &mut Metrics, seg: &Segment) {
    let w = &seg.writes;
    let med = |f: fn(&Write) -> f64| median(&w.iter().map(f).collect::<Vec<_>>());
    m.put("stream.push_s", med(|w| w.push_s));
    let dirty: Vec<f64> = w.iter().filter_map(|w| w.dirty_cells).collect();
    m.put("stream.dirty_cells", median(&dirty));
    m.put("stream.expired", med(|w| w.expired));
    m.put("serve.patch_s", med(|w| w.patch_s));
    m.put("serve.publish_s", med(|w| w.publish_s));
    m.put("serve.rebuilt_cells", med(|w| w.rebuilt_cells));
    m.put("serve.shared_shards", med(|w| w.shared_shards));
    m.put("serve.plans_warmed_per_publish", med(|w| w.warmed));
    let carried: f64 = w.iter().map(|w| w.carried).sum();
    let warmed: f64 = w.iter().map(|w| w.warmed).sum();
    m.put(
        "serve.plan_carry_ratio",
        if carried + warmed > 0.0 {
            carried / (carried + warmed)
        } else {
            0.0
        },
    );
    m.put("serve.freshness_s", med(|w| w.freshness_s));
    m.put("serve.churn_read_tail_ms", read_tail_ms(seg, "churn read"));
}

/// The segment's read tail in ms (see [`tail`]), printed with the
/// percentile it is and the reads it covers; 0 with too few reads.
fn read_tail_ms(seg: &Segment, what: &str) -> f64 {
    tail(&seg.latency).map_or(0.0, |t| {
        eprintln!(
            "{what} tail: p{} = {:.3} ms over {} reads",
            t.q * 100.0,
            t.value * 1e3,
            t.samples
        );
        t.value * 1e3
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_read_qps_is_the_last_step_before_the_first_failure() {
        assert_eq!(max_passing_rate(&[]), 0.0);
        assert_eq!(max_passing_rate(&[(8e3, false)]), 0.0);
        assert_eq!(
            max_passing_rate(&[(8e3, true), (16e3, true), (24e3, false)]),
            16e3
        );
        // A later pass after a failure does not count.
        assert_eq!(
            max_passing_rate(&[(8e3, true), (16e3, false), (24e3, true)]),
            8e3
        );
        assert_eq!(max_passing_rate(&[(8e3, true), (16e3, true)]), 16e3);
    }

    #[test]
    fn a_step_fails_on_any_rejection_or_a_slow_tail() {
        let fast = Segment {
            latency: vec![0.001; 2000],
            late: vec![0.0; 2000],
            reads: 2000,
            ..Segment::default()
        };
        assert!(fast.meets_limit());
        let rejected = Segment {
            rejected: 1,
            ..fast_clone(&fast)
        };
        assert!(!rejected.meets_limit());
        let mut slow = fast_clone(&fast);
        slow.latency[..100].fill(0.2);
        assert!(!slow.meets_limit());
        let mut late = fast_clone(&fast);
        late.late[..100].fill(0.2);
        assert!(!late.meets_limit());
    }

    fn fast_clone(s: &Segment) -> Segment {
        Segment {
            latency: s.latency.clone(),
            late: s.late.clone(),
            reads: s.reads,
            ..Segment::default()
        }
    }
}

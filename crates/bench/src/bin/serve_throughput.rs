//! Serving-layer throughput, latency percentiles, hot-swap safety, and
//! delta-publish lag.
//!
//! Four measurements over a Cosmo-like workload:
//!
//! 1. `label_of` throughput + p50/p95/p99 per-task latency at shard
//!    counts {1, 4, num_cpus};
//! 2. `classify` the same way (every query resolves through the
//!    Phase III border rules and the plan LRU);
//! 3. a mixed read + epoch-swap run: one publisher task hot-swaps a
//!    *patched chain* of streaming epoch indices (epoch 1 is a full
//!    build, every later epoch a copy-on-write
//!    `ServingIndex::patch_from_stream`) through the shared
//!    [`IndexSlot`] while reader tasks classify concurrently, counting
//!    torn-generation observations (must be zero, now including the
//!    per-shard build stamps via `verify_shards`) and generation
//!    regressions (must be zero);
//! 4. publish lag vs batch fraction: a sliding-window stream pushes
//!    micro-batches of 1% (and 5%) of the window, and each epoch is
//!    published twice — once as a full `from_stream` rebuild, once as a
//!    delta patch — timing both, asserting the patched generation reads
//!    bit-identically, and asserting the patch is never slower (and at
//!    the 1% fraction, outside smoke, at least 5x faster).
//!
//! Results land in `BENCH_serve.json` (plus the usual CSV under
//! `target/experiments/`).
//!
//! ```sh
//! cargo run --release -p rpdbscan-bench --bin serve_throughput
//! cargo run --release -p rpdbscan-bench --bin serve_throughput -- --smoke
//! ```
//!
//! `--smoke` shrinks the workload for CI: same code paths, same JSON
//! shape, meaningless timings.

use rpdbscan_bench::{scale, write_csv, MIN_PTS, RHO};
use rpdbscan_core::{RpDbscan, RpDbscanParams};
use rpdbscan_data::synth::cosmo_like;
use rpdbscan_data::SynthConfig;
use rpdbscan_engine::{CostModel, Engine};
use rpdbscan_json::{ToJson, Value};
use rpdbscan_serve::{IndexSlot, Request, Server, ServerConfig, ServingIndex};
use rpdbscan_stream::{SlidingWindow, StreamingRpDbscan};
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct ServeRow {
    kind: String,
    shards: usize,
    queries: usize,
    seconds: f64,
    qps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    /// Classify plan-LRU hit rate, `hits / (hits + misses)`. Warm
    /// publish makes this 1.0; `label_of` never touches plans (0.0).
    plan_hit_rate: f64,
    /// Plans pre-built at publish time (0 under `classify_cold`).
    plans_warmed: u64,
}

rpdbscan_json::impl_to_json!(ServeRow {
    kind,
    shards,
    queries,
    seconds,
    qps,
    p50_us,
    p95_us,
    p99_us,
    plan_hit_rate,
    plans_warmed
});

struct LagRow {
    fraction: f64,
    epoch: u64,
    batch: usize,
    expired: usize,
    full_secs: f64,
    patch_secs: f64,
    speedup: f64,
    rebuilt_cells: usize,
    patched_shards: usize,
    shared_shards: usize,
    plans_carried: u64,
}

rpdbscan_json::impl_to_json!(LagRow {
    fraction,
    epoch,
    batch,
    expired,
    full_secs,
    patch_secs,
    speedup,
    rebuilt_cells,
    patched_shards,
    shared_shards,
    plans_carried
});

fn to_us(v: Option<f64>) -> f64 {
    v.unwrap_or(0.0) * 1e6
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n = if smoke {
        8_000
    } else {
        (50_000.0 * scale()) as usize
    };
    let eps = 0.8;
    let params = RpDbscanParams::new(eps, MIN_PTS).with_rho(RHO);
    let data = cosmo_like(SynthConfig::new(n).with_seed(42));
    let workers = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let batch = if smoke { 256 } else { 512 };
    println!(
        "Serving throughput on Cosmo-like (n={n}), eps={eps}, minPts={MIN_PTS}, rho={RHO}, \
         {workers} workers{}",
        if smoke { " [smoke]" } else { "" }
    );

    let out = RpDbscan::new(params)
        .expect("valid params")
        .run_local(&data)
        .expect("batch run succeeds");
    println!("clustered: {} clusters", out.clustering.num_clusters());

    // ---- 1+2: read throughput across shard counts --------------------
    let mut rows = Vec::new();
    let mut shard_counts = vec![1usize, 4];
    if !shard_counts.contains(&workers) {
        shard_counts.push(workers);
    }
    println!(
        "{:>13} {:>7} {:>9} {:>11} {:>9} {:>9} {:>9}",
        "kind", "shards", "queries", "qps", "p50(us)", "p95(us)", "p99(us)"
    );
    for &shards in &shard_counts {
        let index =
            Arc::new(ServingIndex::from_batch(&data, &out, shards, 1).expect("index build"));
        // Three runs per shard count: label_of and classify against the
        // default warm-publish server, plus a classify_cold comparison
        // against a server that skips plan warming (build-on-miss).
        for kind in ["label_of", "classify", "classify_cold"] {
            let server = Server::new(
                Engine::with_cost_model(workers, CostModel::free()),
                Arc::clone(&index),
                ServerConfig {
                    queue_capacity: batch,
                    // Room for every occupied cell plus halo plans, so
                    // warming is never budget-capped mid-index.
                    cache_capacity: index.num_cells() + 4096,
                    warm_on_publish: kind != "classify_cold",
                },
            );
            // Min-of-repeats: qps is the fastest full sweep, so a noisy
            // neighbour on the box can't masquerade as a regression. The
            // cold row stays single-pass — a second sweep would measure
            // an already-warmed cache, not cold-start behaviour.
            let repeats = if smoke || kind == "classify_cold" {
                1
            } else {
                3
            };
            let mut seconds = f64::INFINITY;
            for _ in 0..repeats {
                let t0 = Instant::now(); // lint:allow(determinism-time): wall-clock qps is printed for the user, not fed into clustering results
                let mut served = 0usize;
                for lo in (0..n).step_by(batch) {
                    let hi = (lo + batch).min(n);
                    for i in lo..hi {
                        let req = if kind == "label_of" {
                            Request::LabelOf(i as u32)
                        } else {
                            Request::Classify(data.point_at(i).to_vec())
                        };
                        server.submit(req).expect("queue sized to the batch");
                    }
                    served += server.drain().expect("drain succeeds").len();
                }
                seconds = seconds.min(t0.elapsed().as_secs_f64());
                assert_eq!(served, n, "every query answered");
            }
            let stats = server.stats();
            let hist = if kind == "label_of" {
                &stats.label_of
            } else {
                &stats.classify
            };
            let probes = stats.cache_hits + stats.cache_misses;
            let row = ServeRow {
                kind: kind.to_string(),
                shards,
                queries: n,
                seconds,
                qps: n as f64 / seconds.max(1e-9),
                p50_us: to_us(hist.p50()),
                p95_us: to_us(hist.p95()),
                p99_us: to_us(hist.p99()),
                plan_hit_rate: if probes == 0 {
                    0.0
                } else {
                    stats.cache_hits as f64 / probes as f64
                },
                plans_warmed: stats.plans_warmed,
            };
            if kind == "classify" {
                assert_eq!(
                    stats.cache_misses, 0,
                    "warm publish must leave no occupied cell cold"
                );
            }
            println!(
                "{:>13} {:>7} {:>9} {:>11.0} {:>9.1} {:>9.1} {:>9.1}  hit={:.3} warmed={}",
                row.kind,
                row.shards,
                row.queries,
                row.qps,
                row.p50_us,
                row.p95_us,
                row.p99_us,
                row.plan_hit_rate,
                row.plans_warmed
            );
            rows.push(row);
        }
    }

    // ---- 3: mixed reads + epoch hot-swap -----------------------------
    // Build one serving index per streaming epoch — the first a full
    // build, every later one a copy-on-write patch of its predecessor,
    // exactly like the streaming publisher runs in production — then
    // replay the publications against concurrent readers.
    let num_epochs = 6usize;
    let swap_shards = 4usize;
    let mut stream = StreamingRpDbscan::new(data.dim(), params).expect("valid stream params");
    let mut epochs: Vec<Arc<ServingIndex>> = Vec::with_capacity(num_epochs);
    let mut epoch_build_secs: Vec<f64> = Vec::with_capacity(num_epochs);
    for chunk in 0..num_epochs {
        let lo = chunk * n / num_epochs;
        let hi = (chunk + 1) * n / num_epochs;
        let mut flat = Vec::with_capacity((hi - lo) * data.dim());
        for i in lo..hi {
            flat.extend_from_slice(data.point_at(i));
        }
        stream.insert_batch(&flat).expect("insert succeeds");
        let t0 = Instant::now(); // lint:allow(determinism-time): publish wall time is reported, not fed into clustering results
        let idx = match epochs.last() {
            None => Arc::new(ServingIndex::from_stream(&stream, swap_shards)),
            Some(prev) => {
                Arc::new(ServingIndex::patch_from_stream(prev, &stream).expect("patch succeeds"))
            }
        };
        epoch_build_secs.push(t0.elapsed().as_secs_f64());
        epochs.push(idx);
    }
    let slot = Arc::new(IndexSlot::new(Arc::clone(&epochs[0])));
    // Same-generation publications are skipped, not replayed.
    assert!(
        !slot.publish_if_newer(Arc::clone(&epochs[0])),
        "same-or-older generations never displace the current index"
    );
    let queries: Vec<Vec<f64>> = (0..256.min(n))
        .map(|i| data.point_at(i * (n / 256.min(n)).max(1) % n).to_vec())
        .collect();
    let done = AtomicBool::new(false);
    let readers = workers.max(2);
    let min_reads = 200u64;
    let max_reads: u64 = if smoke { 2_000 } else { 50_000 };

    let engine = Engine::with_cost_model(readers + 1, CostModel::free());
    let tasks: Vec<usize> = (0..=readers).collect();
    let result = engine
        .run_stage("serve:swap-mix", tasks, |_ctx, task| {
            if task == 0 {
                // Publisher: walk the epoch sequence, interleaving a read
                // between swaps so the schedule mixes with the readers.
                let mut swaps = 0u64;
                for e in &epochs[1..] {
                    if slot.publish_if_newer(Arc::clone(e)) {
                        swaps += 1;
                    }
                    let idx = slot.load();
                    for q in queries.iter().take(8) {
                        std::hint::black_box(
                            idx.classify(q)
                                .map_err(|e| rpdbscan_engine::TaskError::new(e.to_string()))?,
                        );
                    }
                }
                done.store(true, Ordering::Release);
                Ok((swaps, 0u64, 0u64, 0u64))
            } else {
                // Reader: load → verify generation *and* per-shard build
                // stamps (patched generations Arc-share shards with their
                // base, so a torn patch would show up here) → classify,
                // until the publisher finishes (with a floor so serialized
                // schedules still measure, and a cap so nothing spins
                // forever).
                let mut reads = 0u64;
                let mut torn = 0u64;
                let mut regressions = 0u64;
                let mut last_gen = 0u64;
                while reads < min_reads || (!done.load(Ordering::Acquire) && reads < max_reads) {
                    let idx = slot.load();
                    match idx.verify_shards() {
                        Some(g) => {
                            if g < last_gen {
                                regressions += 1;
                            }
                            last_gen = g;
                        }
                        None => torn += 1,
                    }
                    let q = &queries[reads as usize % queries.len()];
                    std::hint::black_box(
                        idx.classify(q)
                            .map_err(|e| rpdbscan_engine::TaskError::new(e.to_string()))?,
                    );
                    reads += 1;
                }
                Ok((0u64, reads, torn, regressions))
            }
        })
        .expect("swap-mix stage succeeds");
    let swaps: u64 = result.outputs.iter().map(|r| r.0).sum();
    let reads: u64 = result.outputs.iter().map(|r| r.1).sum();
    let torn: u64 = result.outputs.iter().map(|r| r.2).sum();
    let regressions: u64 = result.outputs.iter().map(|r| r.3).sum();
    println!(
        "hot-swap mix: {readers} readers, {swaps} swaps over {} epochs, {reads} reads, \
         {torn} torn generations, {regressions} generation regressions",
        num_epochs
    );
    assert_eq!(torn, 0, "a reader observed a torn index generation");
    assert_eq!(
        regressions, 0,
        "a reader observed the generation move backwards"
    );
    assert_eq!(
        swaps,
        num_epochs as u64 - 1,
        "every newer epoch published once"
    );
    assert_eq!(slot.generation(), num_epochs as u64);

    // ---- 4: delta publish lag vs batch fraction ----------------------
    // A sliding window holding the whole workload: each epoch pushes a
    // micro-batch of `fraction * n` fresh points (expiring as many of
    // the oldest), and the new epoch is published both ways — a full
    // `from_stream` rebuild and a copy-on-write patch — under a timer.
    // The patched index must read bit-identically and must never be
    // slower; at the 1% fraction outside smoke it must be >=5x faster.
    let lag_shards = 4usize;
    let lag_epochs = 6usize;
    let fractions: &[f64] = if smoke { &[0.01] } else { &[0.01, 0.05] };
    let max_batch = fractions
        .iter()
        .map(|f| ((n as f64 * f).ceil() as usize).max(1))
        .max()
        .unwrap_or(1);
    let feed = cosmo_like(SynthConfig::new(max_batch * lag_epochs).with_seed(43));
    let mut lag_rows: Vec<LagRow> = Vec::new();
    println!(
        "{:>9} {:>6} {:>7} {:>8} {:>11} {:>11} {:>8} {:>9} {:>8}",
        "fraction",
        "epoch",
        "batch",
        "expired",
        "full(s)",
        "patch(s)",
        "speedup",
        "rebuilt",
        "carried"
    );
    for &fraction in fractions {
        let b = ((n as f64 * fraction).ceil() as usize).max(1);
        let mut seed_stream =
            StreamingRpDbscan::new(data.dim(), params).expect("valid stream params");
        let mut flat = Vec::with_capacity(n * data.dim());
        for i in 0..n {
            flat.extend_from_slice(data.point_at(i));
        }
        seed_stream.insert_batch(&flat).expect("insert succeeds");
        let mut w = SlidingWindow::new(seed_stream, n).expect("nonzero window");
        let mut prev = Arc::new(ServingIndex::from_stream(w.stream(), lag_shards));
        let server = Server::new(
            Engine::with_cost_model(workers, CostModel::free()),
            Arc::clone(&prev),
            ServerConfig {
                queue_capacity: n.max(256),
                cache_capacity: n + 8192,
                warm_on_publish: true,
            },
        );
        for e in 0..lag_epochs {
            let mut push = Vec::with_capacity(b * data.dim());
            for i in 0..b {
                push.extend_from_slice(feed.point_at(e * max_batch + i));
            }
            w.push_batch(&push).expect("push succeeds");
            // Min-of-repeats on both sides so a noisy neighbour can't
            // tip the comparison either way. The patch side is cheap
            // enough that stolen CPU ticks dominate any single run, so
            // it gets more repeats than the full rebuild.
            let mut full_secs = f64::INFINITY;
            let mut full = None;
            for _ in 0..3 {
                let t0 = Instant::now(); // lint:allow(determinism-time): publish wall time is the measured quantity
                let idx = ServingIndex::from_stream(w.stream(), lag_shards);
                full_secs = full_secs.min(t0.elapsed().as_secs_f64());
                full = Some(idx);
            }
            let full = full.expect("at least one rebuild ran");
            let mut patch_secs = f64::INFINITY;
            let mut patched = None;
            for _ in 0..5 {
                let t0 = Instant::now(); // lint:allow(determinism-time): publish wall time is the measured quantity
                let idx =
                    ServingIndex::patch_from_stream(&prev, w.stream()).expect("patch succeeds");
                patch_secs = patch_secs.min(t0.elapsed().as_secs_f64());
                patched = Some(idx);
            }
            let patched = Arc::new(patched.expect("at least one patch ran"));

            // Bit-for-bit equivalence: every live id's stored label, and
            // classification of a probe sample, must match the full
            // rebuild exactly.
            assert_eq!(patched.generation(), full.generation());
            assert_eq!(patched.num_points(), full.num_points());
            assert_eq!(
                patched.verify_shards(),
                Some(patched.generation()),
                "patched generation failed the torn-read detector"
            );
            for id in w.stream().snapshot().ids {
                assert_eq!(
                    patched.label_of(id.0),
                    full.label_of(id.0),
                    "patched label diverged from full rebuild for id {}",
                    id.0
                );
            }
            let live = w.stream().dataset();
            let probe_step = (live.len() / 128).max(1);
            for i in (0..live.len()).step_by(probe_step) {
                let q = live.point_at(i);
                assert_eq!(
                    patched.classify(q).expect("classify succeeds"),
                    full.classify(q).expect("classify succeeds"),
                    "patched classify diverged from full rebuild"
                );
            }

            // Publish through the server: untouched cells' plans are
            // carried, so classifying them afterwards must cost zero
            // cold plan builds.
            let summary = patched
                .patch_summary()
                .expect("patched index has a summary")
                .clone();
            let carried_before = server.stats().plans_carried;
            assert!(server.publish_if_newer(Arc::clone(&patched)));
            let stats = server.stats();
            let plans_carried = stats.plans_carried - carried_before;
            let misses_before = stats.cache_misses;
            let reqs: Vec<Request> = (0..live.len())
                .step_by(probe_step)
                .map(|i| Request::Classify(live.point_at(i).to_vec()))
                .collect();
            let served = server.execute(reqs).expect("probe batch succeeds");
            assert_eq!(served.len(), live.len().div_ceil(probe_step));
            assert_eq!(
                server.stats().cache_misses,
                misses_before,
                "a delta publish left an occupied cell's plan cold"
            );

            let speedup = full_secs / patch_secs.max(1e-9);
            let row = LagRow {
                fraction,
                epoch: patched.generation(),
                batch: b,
                expired: w.last_expired(),
                full_secs,
                patch_secs,
                speedup,
                rebuilt_cells: summary.rebuilt_cells(),
                patched_shards: summary.patched_shards(),
                shared_shards: summary.shared_shards(),
                plans_carried,
            };
            println!(
                "{:>9.3} {:>6} {:>7} {:>8} {:>11.6} {:>11.6} {:>8.1} {:>9} {:>8}",
                row.fraction,
                row.epoch,
                row.batch,
                row.expired,
                row.full_secs,
                row.patch_secs,
                row.speedup,
                row.rebuilt_cells,
                row.plans_carried
            );
            assert!(
                patch_secs <= full_secs,
                "delta publish ({patch_secs:.6}s) slower than full rebuild ({full_secs:.6}s) \
                 at batch fraction {fraction}"
            );
            if !smoke && fraction <= 0.011 {
                assert!(
                    speedup >= 5.0,
                    "delta publish only {speedup:.1}x faster than full rebuild at batch \
                     fraction {fraction}; the acceptance floor is 5x"
                );
            }
            lag_rows.push(row);
            prev = patched;
        }
    }

    write_csv("serve_throughput", &rows);
    let mut doc = Value::object();
    doc.insert("workload", "Cosmo-like");
    doc.insert("total_points", n);
    doc.insert("eps", eps);
    doc.insert("min_pts", MIN_PTS);
    doc.insert("rho", RHO);
    doc.insert("workers", workers);
    doc.insert("smoke", Value::Bool(smoke));
    doc.insert(
        "rows",
        Value::Array(rows.iter().map(|r| r.to_json()).collect()),
    );
    let mut swap = Value::object();
    swap.insert("readers", readers);
    swap.insert("epochs", num_epochs);
    swap.insert("shards", swap_shards);
    swap.insert("swaps", swaps);
    swap.insert("reads", reads);
    swap.insert("torn_generations", torn);
    swap.insert("generation_regressions", regressions);
    swap.insert("epoch_build_secs", epoch_build_secs);
    doc.insert("hot_swap", swap);
    let mut lag = Value::object();
    lag.insert("epochs", lag_epochs);
    lag.insert("shards", lag_shards);
    lag.insert("window", n);
    lag.insert(
        "rows",
        Value::Array(lag_rows.iter().map(|r| r.to_json()).collect()),
    );
    doc.insert("publish_lag", lag);
    let path = "BENCH_serve.json";
    let mut f = std::io::BufWriter::new(std::fs::File::create(path).expect("create json"));
    writeln!(f, "{doc}").expect("write json");
    println!("wrote {path}");
}

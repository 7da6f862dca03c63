//! The batch workloads (`batch-dense`, `batch-sparse`) and the
//! out-of-core one (`ooc-dense`): generate points, write them to CSV
//! untimed, set up from the CSV several times, then time clustering
//! calls for the run's measuring time.

use crate::metrics::Metrics;
use crate::stats::{fingerprint, median, ratio};
use crate::trace::{now, since, Tracer};
use crate::{Config, Outcome, Workload, MIN_PTS, PARTITIONS, RHO, WORKERS};
use rp_dbscan::baselines::rho_approx_dbscan;
use rp_dbscan::core::{RpDbscanOutput, RunStats};
use rp_dbscan::data::io;
use rp_dbscan::engine::{EngineReport, StageMetrics};
use rp_dbscan::prelude::*;
use rp_dbscan::store::DEFAULT_PAGE_ROWS;
use std::sync::Arc;

/// ε of the dense workloads: the OSM stand-in's ε₁₀ in `rpdbscan-bench`.
const DENSE_EPS: f64 = 1.2;
/// ε of the sparse workload: keeps `cosmo_like` at about two points per
/// cell at this size, so almost every cell takes the kd path.
const SPARSE_EPS: f64 = 0.75;
/// Smallest Rand index against exact DBSCAN a batch run may reach.
const MIN_RAND: f64 = 0.999;
/// Fewest timed reps per run, however slow a rep is.
const MIN_REPS: usize = 3;

/// Label fingerprints at the default seed and full size, recomputed by
/// the `#[ignore]`d `exact_oracle_evidence` test. `ooc-dense` clusters
/// the `batch-dense` points and must match them bit for bit.
pub const DENSE_FINGERPRINT: u64 = 0x7139_b450_e89f_403e;
/// See [`DENSE_FINGERPRINT`].
pub const SPARSE_FINGERPRINT: u64 = 0xbb85_7e73_2689_f7e5;

/// The workload's points and ε: all but a seeded ninth of a fixed
/// point cloud, so each seed's input differs while the workload's
/// structure, and with it the cost of clustering it, stays put.
pub fn input(cfg: &Config) -> (Dataset, f64) {
    let (shape, n, eps): (fn(SynthConfig) -> Dataset, usize, f64) = match cfg.workload {
        Workload::BatchSparse => (synth::cosmo_like, cfg.sizes.sparse_n, SPARSE_EPS),
        _ => (synth::osm_like, cfg.sizes.dense_n, DENSE_EPS),
    };
    (crate::sample(shape, n, n / 8, cfg.seed).0, eps)
}

fn params(eps: f64) -> RpDbscanParams {
    RpDbscanParams::new(eps, MIN_PTS)
        .with_rho(RHO)
        .with_partitions(PARTITIONS)
}

/// What a timed rep clusters: the resident dataset or the column store.
enum Source {
    Resident(Dataset),
    Store(Arc<ColumnStore>, OutOfCoreConfig),
}

/// One traced rep: its wall time and everything the program reported.
struct Rep {
    wall: f64,
    report: EngineReport,
    stats: RunStats,
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> Result<Outcome, String> {
    let (data, eps) = input(cfg);
    let (n, dim) = (data.len(), data.dim());
    let csv = cfg.work_dir.join("points.csv");
    io::write_csv(&csv, &data, ',').map_err(|e| e.to_string())?;
    drop(data); // the program receives only the CSV
    let runner = RpDbscan::new(params(eps)).map_err(|e| e.to_string())?;
    let mut m = Metrics::default();

    // ---- set-up, repeated; the last repetition's result is used -----
    let mut setup = Vec::new();
    let mut setup_peaks = Vec::new();
    let source = if cfg.workload == Workload::OocDense {
        let (mut ingest, mut finish, mut open) = (Vec::new(), Vec::new(), Vec::new());
        let path = cfg.work_dir.join("points.store");
        let mut store = None;
        let start = now();
        while !cfg.sizes.setup_done(setup.len(), since(start)) {
            drop(store.take());
            crate::reset_peak_rss();
            let t0 = now();
            let spec = GridSpec::new(dim, eps, RHO).map_err(|e| e.to_string())?;
            let mut w = StoreWriter::new(spec, DEFAULT_PAGE_ROWS).map_err(|e| e.to_string())?;
            io::for_each_csv_row(&csv, ',', |row| w.push(row).map_err(|e| e.to_string()))
                .map_err(|e| e.to_string())?;
            let ingest_id = tracer.span("store.ingest", t0, None);
            ingest.push(since(t0));
            let t1 = now();
            w.finish(&path).map_err(|e| e.to_string())?;
            tracer.span("store.finish", t1, Some(ingest_id));
            finish.push(since(t1));
            let t2 = now();
            store = Some(Arc::new(
                ColumnStore::open(&path).map_err(|e| e.to_string())?,
            ));
            tracer.span("store.open", t2, Some(ingest_id));
            open.push(since(t2));
            setup.push(since(t0));
            setup_peaks.push(crate::peak_rss_mb()?);
        }
        m.put("store.ingest_s", median(&ingest));
        m.put("store.finish_s", median(&finish));
        m.put("store.open_s", median(&open));
        let store = store.ok_or("no set-up repetitions")?;
        // Pool budget: a quarter of the resident coordinate bytes.
        let budget = store.resident_bytes() / 4;
        let ooc = OutOfCoreConfig::new(budget).with_spill_dir(cfg.work_dir.clone());
        Source::Store(store, ooc)
    } else {
        let mut data = None;
        let start = now();
        while !cfg.sizes.setup_done(setup.len(), since(start)) {
            drop(data.take());
            crate::reset_peak_rss();
            let t0 = now();
            data = Some(io::read_csv(&csv, ',').map_err(|e| e.to_string())?);
            tracer.span("data.read_csv", t0, None);
            setup.push(since(t0));
            setup_peaks.push(crate::peak_rss_mb()?);
        }
        m.put("data.csv_read_s", median(&setup));
        Source::Resident(data.ok_or("no set-up repetitions")?)
    };
    m.put("setup_s", median(&setup));

    let cluster = |engine: &Engine| match &source {
        Source::Resident(d) => runner.run(d, engine),
        Source::Store(s, ooc) => runner.run_out_of_core(s, ooc, engine),
    };

    // ---- warm-up, then timed reps -------------------------------------
    // The warm-up rep's labels are the reference every later rep must
    // reproduce exactly.
    let first = cluster(&Engine::new(WORKERS)).map_err(|e| e.to_string())?;
    let mut attempted = 1u64;
    let mut failed = 0u64;
    let mut problems = Vec::new();
    // A traced run alternates untraced and traced reps; the ratio of
    // their medians is the tracing overhead.
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut run_peaks = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let start = now();
    while walls.len() < MIN_REPS || since(start) < cfg.seconds {
        let traced_rep = cfg.trace && attempted.is_multiple_of(2);
        tracer.set_enabled(traced_rep);
        let engine = Engine::new(WORKERS);
        crate::reset_peak_rss();
        let t = now();
        let out = cluster(&engine).map_err(|e| e.to_string())?;
        let wall = since(t);
        attempted += 1;
        if out.clustering != first.clustering {
            failed += 1;
            problems.push(format!("rep {attempted}: labels differ from the first rep"));
        }
        if traced_rep {
            let id = tracer.span("cluster", t, None);
            let report = engine.report();
            tracer.engine_tasks(id, &report);
            traced_walls.push(wall);
            traced.push(Rep {
                wall,
                report,
                stats: out.stats,
            });
        } else {
            walls.push(wall);
            run_peaks.push(crate::peak_rss_mb()?);
        }
    }
    tracer.set_enabled(cfg.trace);
    // The larger of one set-up's and one clustering call's peak, each
    // the median over its repetitions.
    m.put(
        "process.peak_rss_mb",
        median(&setup_peaks).max(median(&run_peaks)),
    );
    m.put("op_p50_ms", median(&walls) * 1e3);
    if !traced_walls.is_empty() {
        m.put(
            "trace.overhead_frac",
            median(&traced_walls) / median(&walls) - 1.0,
        );
    }
    layers(&mut m, &traced);

    // ---- correctness, after the peak RSS was read ----------------------
    let oracle = match &source {
        Source::Resident(d) => {
            let rho = rho_approx_dbscan(d, eps, MIN_PTS, RHO).map_err(|e| e.to_string())?;
            // Each noise point its own cluster: a Rand index of 1 then
            // means the same noise points and the same clusters.
            let ri = rand_index(&rho.clustering, &first.clustering, NoisePolicy::Singletons);
            if ri != 1.0 {
                Some("labels differ from single-partition rho-approximate DBSCAN's".to_string())
            } else if cfg.workload == Workload::BatchSparse {
                check_against_exact(d, eps, &first)
            } else {
                None
            }
        }
        Source::Store(..) => {
            let d = io::read_csv(&csv, ',').map_err(|e| e.to_string())?;
            let resident = runner
                .run(&d, &Engine::new(WORKERS))
                .map_err(|e| e.to_string())?;
            (resident.clustering != first.clustering)
                .then(|| "out-of-core labels differ from the resident run's".to_string())
        }
    };
    let want = if cfg.workload == Workload::BatchSparse {
        SPARSE_FINGERPRINT
    } else {
        DENSE_FINGERPRINT
    };
    let fp = fingerprint(first.clustering.labels());
    eprintln!("label fingerprint {fp:#018x} ({n} points)");
    let fp_problem = (cfg.is_reference() && fp != want)
        .then(|| format!("label fingerprint {fp:#018x} differs from the committed {want:#018x}"));
    for p in oracle.into_iter().chain(fp_problem) {
        // The reps all reproduce the first, so a wrong first rep makes
        // every rep wrong.
        failed = attempted;
        problems.push(p);
    }
    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics: m,
    })
}

/// Rand index of `out` against exact DBSCAN on the same points; `Some`
/// describes a shortfall.
fn check_against_exact(data: &Dataset, eps: f64, out: &RpDbscanOutput) -> Option<String> {
    let exact = exact_dbscan(data, eps, MIN_PTS);
    let ri = rand_index(
        &exact.clustering,
        &out.clustering,
        NoisePolicy::SingleCluster,
    );
    eprintln!("rand index against exact DBSCAN: {ri:.6}");
    (ri < MIN_RAND).then(|| format!("rand index {ri:.6} against exact DBSCAN is below {MIN_RAND}"))
}

/// A stage's measured busy time (Σ task durations) and span (longest
/// task), without the per-task launch overhead the engine's cost model
/// adds to every duration for its simulated timeline.
fn measured(s: &StageMetrics) -> (f64, f64) {
    let overhead = CostModel::default().per_task_overhead_sec;
    let d = s.task_durations.iter().map(|d| d - overhead);
    d.fold((0.0, 0.0), |(busy, span), d| (busy + d, f64::max(span, d)))
}

/// Busy time and span, summed over the stages whose names start with
/// `prefix`.
fn phase(report: &EngineReport, prefix: &str) -> (f64, f64) {
    let stages = report.stages.iter().filter(|s| s.name.starts_with(prefix));
    stages
        .map(measured)
        .fold((0.0, 0.0), |(b, s), (sb, ss)| (b + sb, s + ss))
}

/// The per-layer metrics of the traced reps: timings are medians over
/// the reps, counters come from the last (they repeat exactly).
fn layers(m: &mut Metrics, reps: &[Rep]) {
    let Some(last) = reps.last() else {
        return;
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let busy = |r: &Rep| phase(&r.report, "").0;
    // A stage cannot take less wall time than its busy time spread over
    // the threads, nor less than its longest task.
    let floor = |s: &StageMetrics| {
        let (busy, span) = measured(s);
        (busy / threads).max(span)
    };
    m.put("engine.busy_s", med(&busy));
    m.put("engine.sim_s", med(&|r| r.report.total_elapsed()));
    m.put("engine.thread_util", med(&|r| busy(r) / (r.wall * threads)));
    m.put(
        "engine.outside_stages_est_s",
        med(&|r| r.wall - r.report.stages.iter().map(floor).sum::<f64>()),
    );
    m.put(
        "engine.phase2.imbalance",
        med(&|r| r.report.load_imbalance_with_prefix("phase2")),
    );
    for (name, prefix) in [
        ("phase1_1", "phase1-1"),
        ("phase1_2", "phase1-2"),
        ("phase2", "phase2"),
        ("phase3_1", "phase3-1"),
        ("phase3_2", "phase3-2"),
    ] {
        m.put(
            &format!("core.{name}.busy_s"),
            med(&|r| phase(&r.report, prefix).0),
        );
        m.put(
            &format!("core.{name}.span_s"),
            med(&|r| phase(&r.report, prefix).1),
        );
    }
    let s = &last.stats;
    m.put("core.phase1_2.dict_wire_bytes", s.dict_wire_bytes as f64);
    m.put(
        "core.phase3_1.rounds",
        s.edges_per_round.len().saturating_sub(1) as f64,
    );
    m.put(
        "core.phase3_1.edges_pre",
        s.edges_per_round.first().map_or(0, |&e| e) as f64,
    );
    m.put(
        "core.phase3_1.edges_post",
        s.edges_per_round.last().map_or(0, |&e| e) as f64,
    );
    m.put("grid.dict_cells", s.dict_cells as f64);
    m.put(
        "grid.cells_routed_planned",
        s.query_cells_routed_planned as f64,
    );
    m.put("grid.cells_routed_kd", s.query_cells_routed_kd as f64);
    m.put("grid.plan_hits", s.query_plan_hits as f64);
    m.put("grid.cells_planned_full", s.query_cells_planned_full as f64);
    let subdicts = s.query_subdicts_skipped + s.query_subdicts_visited;
    m.put(
        "grid.subdict_skip_ratio",
        ratio(s.query_subdicts_skipped, subdicts),
    );
    m.put("store.pool.hits", s.pool_hits as f64);
    m.put("store.pool.misses", s.pool_misses as f64);
    m.put(
        "store.pool.hit_rate",
        ratio(s.pool_hits, s.pool_hits + s.pool_misses),
    );
    m.put("store.pool.evictions", s.pool_evictions as f64);
    m.put("store.pool.peak_bytes", s.pool_peak_tracked_bytes as f64);
    m.put("store.spill.bytes_written", s.spill_bytes_written as f64);
    m.put("store.spill.bytes_read", s.spill_bytes_read as f64);
    m.put(
        "store.merge.frontier_peak_bytes",
        s.merge_peak_frontier_bytes as f64,
    );
}

/// Fingerprint and exact-DBSCAN Rand index of a resident run on the
/// workload's input: the evidence behind the committed fingerprints.
#[cfg(test)]
pub fn evidence(cfg: &Config) -> (u64, f64) {
    let (data, eps) = input(cfg);
    let out = RpDbscan::new(params(eps))
        .and_then(|r| r.run(&data, &Engine::new(WORKERS)))
        .expect("run succeeds");
    let exact = exact_dbscan(&data, eps, MIN_PTS);
    let ri = rand_index(
        &exact.clustering,
        &out.clustering,
        NoisePolicy::SingleCluster,
    );
    (fingerprint(out.clustering.labels()), ri)
}

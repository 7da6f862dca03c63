//! `rpbench`: the repository's benchmark. One command runs one workload
//! for a fixed measuring time, checks the program's outputs, prints
//! every metric as `name value unit`, and ends with one JSON line:
//! `{"attempted":…,"correct":…,"failed":…,"metrics":{…}}`.
//!
//! ```sh
//! cargo run --release --manifest-path rpbench/Cargo.toml -- \
//!     --workload batch-dense [--seed 42] [--seconds 20] [--trace 0|1] \
//!     [--trace-dir .rpbench] [--json runs.jsonl]
//! cargo run --release --manifest-path rpbench/Cargo.toml -- \
//!     compare A.jsonl B.jsonl [--bench BENCHMARK.json]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer ones and writes `<trace-dir>/trace-<workload>.json`. The
//! exit code is nonzero when a check fails or the run cannot finish.
//! Work files go under `.rpbench/` in the current directory and are
//! removed at the end. See README.md for the workloads and metrics.

mod batch;
mod compare;
mod metrics;
mod serve;
mod stats;
mod trace;

use metrics::{Metrics, END_TO_END, PER_LAYER};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rp_dbscan::data::SynthConfig;
use rp_dbscan::geom::Dataset;
use rpdbscan_json::Value;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// minPts and ρ of every workload, and the virtual workers the engine
/// schedules onto (physical threads are `available_parallelism()`): the
/// experiment harness's settings.
pub use rpdbscan_bench::{MIN_PTS, RHO, WORKERS};
/// Partitions of a batch run, as many per virtual worker as the
/// experiment harness uses.
pub const PARTITIONS: usize = WORKERS * rpdbscan_bench::PARTS_PER_WORKER;
/// The seed the committed label fingerprints belong to.
pub const DEFAULT_SEED: u64 = 42;
/// The seed of every workload's shape. A run's `--seed` picks which
/// points of that shape the program gets, so runs with different seeds
/// measure the same workload on different inputs instead of on
/// differently shaped data, whose cost varies by ±20% from seed to seed.
pub const SHAPE_SEED: u64 = 42;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `osm_like` 2-d, clustered resident: the planner-heavy case.
    BatchDense,
    /// `cosmo_like` 3-d at about two points per cell: the kd path and
    /// the merge.
    BatchSparse,
    /// The `batch-dense` points clustered through the column store.
    OocDense,
    /// Reads against a served sliding window; the traced run adds
    /// writes.
    Serve,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::BatchDense,
        Workload::BatchSparse,
        Workload::OocDense,
        Workload::Serve,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchDense => "batch-dense",
            Workload::BatchSparse => "batch-sparse",
            Workload::OocDense => "ooc-dense",
            Workload::Serve => "serve",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes. The benchmark runs at [`Sizes::FULL`]; the smoke test
/// runs every workload at [`Sizes::TINY`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Points of `batch-dense` and `ooc-dense`.
    pub dense_n: usize,
    /// Points of `batch-sparse`.
    pub sparse_n: usize,
    /// Points in the served window.
    pub window: usize,
    /// Seconds set-up is repeated for, at least [`MIN_SETUP_REPS`]
    /// times; `setup_s` is the median repetition.
    pub setup_budget_s: f64,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        dense_n: 200_000,
        sparse_n: 60_000,
        window: 50_000,
        setup_budget_s: 1.0,
    };
    /// Sizes for the smoke test.
    pub const TINY: Sizes = Sizes {
        dense_n: 5_000,
        sparse_n: 3_000,
        window: 3_000,
        setup_budget_s: 0.0,
    };

    /// Whether set-up has been repeated enough after `reps` repetitions
    /// taking `elapsed` seconds.
    pub fn setup_done(&self, reps: usize, elapsed: f64) -> bool {
        reps >= MIN_SETUP_REPS && elapsed >= self.setup_budget_s
    }
}

/// Fewest set-up repetitions per run.
pub const MIN_SETUP_REPS: usize = 3;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    pub sizes: Sizes,
    /// Scratch directory for the CSV, the store and spill files.
    pub work_dir: PathBuf,
}

impl Config {
    /// Whether the committed fingerprints apply to this run's inputs.
    pub fn is_reference(&self) -> bool {
        self.seed == DEFAULT_SEED && self.sizes == Sizes::FULL
    }
}

/// What a workload measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Operations run (clustering calls, or reads and writes).
    pub attempted: u64,
    /// Operations that were rejected, errored or gave a wrong answer.
    pub failed: u64,
    /// What the checks found wrong, one line each.
    pub problems: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// A seed for one input stream of a run (SplitMix64 of `seed` and
/// `stream`), so queries, feed and arrivals each have their own.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draws `n + fresh` points of `shape` at [`SHAPE_SEED`] and splits
/// them by `seed` into the `n` points the program gets and `fresh`
/// points of the same shape the program has not seen.
pub fn sample(
    shape: fn(SynthConfig) -> Dataset,
    n: usize,
    fresh: usize,
    seed: u64,
) -> (Dataset, Dataset) {
    let pool = shape(SynthConfig::new(n + fresh).with_seed(SHAPE_SEED));
    let mut order: Vec<usize> = (0..pool.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let gather = |ids: &[usize]| {
        let mut flat = Vec::with_capacity(ids.len() * pool.dim());
        for &i in ids {
            flat.extend_from_slice(pool.point_at(i));
        }
        Dataset::from_flat(pool.dim(), flat).expect("rows of a generated dataset")
    };
    let (chosen, rest) = order.split_at(n.min(order.len()));
    (gather(chosen), gather(rest))
}

/// Restarts the peak-RSS count from the current RSS, so the next
/// [`peak_rss_mb`] covers only what ran in between. Without the reset
/// (an older kernel), the peak covers the whole process.
pub fn reset_peak_rss() {
    // Best effort: the reset only sharpens the measurement.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Runs one workload; the work directory must exist.
pub fn run(cfg: &Config, tracer: &mut trace::Tracer) -> Result<Outcome, String> {
    match cfg.workload {
        Workload::Serve => serve::run(cfg, tracer),
        Workload::BatchDense | Workload::BatchSparse | Workload::OocDense => {
            batch::run(cfg, tracer)
        }
    }
}

/// The result line: every end-to-end metric, or every per-layer one
/// for a traced run.
fn result_json(out: &Outcome, traced: bool) -> Value {
    let mut metrics = Value::object();
    for (name, value, unit) in out
        .metrics
        .select(if traced { PER_LAYER } else { END_TO_END })
    {
        let mut m = Value::object();
        m.insert("value", Value::Float(value));
        m.insert("unit", unit);
        metrics.insert(name, m);
    }
    let mut doc = Value::object();
    doc.insert("correct", Value::Bool(out.correct()));
    doc.insert("attempted", Value::Int(out.attempted as i64));
    doc.insert("failed", Value::Int(out.failed as i64));
    doc.insert("metrics", metrics);
    doc
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: PathBuf,
    json: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: Workload::BatchDense,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        trace_dir: PathBuf::from(".rpbench"),
        json: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--trace-dir" => out.trace_dir = PathBuf::from(value()?),
            "--json" => out.json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    out.workload = workload.ok_or(format!("--workload is required ({})", names.join(", ")))?;
    Ok(out)
}

fn append_record(path: &Path, args: &Args, result: &Value) -> Result<(), String> {
    let mut rec = Value::object();
    rec.insert("workload", args.workload.name());
    rec.insert("seed", Value::Int(args.seed as i64));
    rec.insert("trace", Value::Bool(args.trace));
    rec.insert("result", result.clone());
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(f, "{rec}").map_err(|e| format!("{}: {e}", path.display()))
}

fn bench(args: &Args) -> Result<bool, String> {
    let work_dir = PathBuf::from(".rpbench").join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let cfg = Config {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        sizes: Sizes::FULL,
        work_dir: work_dir.clone(),
    };
    let mut tracer = trace::Tracer::new(args.trace);
    let outcome = run(&cfg, &mut tracer);
    // Best effort: a leftover directory is harmless, the result is not.
    let _ = std::fs::remove_dir_all(&work_dir);
    let outcome = outcome?;
    if args.trace {
        std::fs::create_dir_all(&args.trace_dir)
            .map_err(|e| format!("{}: {e}", args.trace_dir.display()))?;
        let path = args
            .trace_dir
            .join(format!("trace-{}.json", args.workload.name()));
        std::fs::write(&path, tracer.to_chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, value, unit) in outcome.metrics.select(list) {
        println!("{name} {value} {unit}");
    }
    let result = result_json(&outcome, args.trace);
    if let Some(path) = &args.json {
        append_record(path, args, &result)?;
    }
    println!("{result}");
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        _ => parse_args(&args).and_then(|a| bench(&a)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("rpbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload, dir: &Path, trace: bool) -> Config {
        Config {
            workload,
            seed: 7,
            seconds: 0.2,
            trace,
            sizes: Sizes::TINY,
            work_dir: dir.to_path_buf(),
        }
    }

    /// Names of one metric list in `BENCHMARK.json`.
    fn listed(bench: &Value, key: &str) -> Vec<String> {
        let list = bench
            .as_object()
            .and_then(|o| o.get(key))
            .and_then(Value::as_array);
        list.expect("metric list")
            .iter()
            .filter_map(|m| match m.as_object().and_then(|o| o.get("name")) {
                Some(Value::String(s)) => Some(s.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn every_workload_runs_tiny_and_reports_every_listed_metric() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
        let bench = Value::parse(&text).expect("valid JSON");
        let workloads = listed(&bench, "workloads");
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
        let names = |l: &[(&str, &str)]| l.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(listed(&bench, "end_to_end"), names(END_TO_END));
        assert_eq!(listed(&bench, "per_layer"), names(PER_LAYER));

        let dir = std::env::temp_dir().join(format!("rpbench-smoke-{}", std::process::id()));
        for w in Workload::ALL {
            for traced in [false, true] {
                std::fs::create_dir_all(&dir).expect("work dir");
                let mut tracer = trace::Tracer::new(traced);
                let out = run(&tiny(w, &dir, traced), &mut tracer).expect("tiny run");
                assert!(out.correct(), "{}: {:?}", w.name(), out.problems);
                assert!(out.attempted >= 1);
                let json = result_json(&out, traced);
                let metrics = json
                    .as_object()
                    .and_then(|o| o.get("metrics"))
                    .and_then(Value::as_object);
                let printed: Vec<String> = metrics.expect("metrics").keys().cloned().collect();
                let mut want = names(if traced { PER_LAYER } else { END_TO_END });
                want.sort();
                assert_eq!(printed, want, "{}", w.name());
                if traced {
                    Value::parse(&tracer.to_chrome_json()).expect("trace is valid JSON");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn arguments_are_checked() {
        let a = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&a("--workload serve --seed 3 --seconds 5 --trace 1")).is_ok());
        assert!(parse_args(&a("--seed 3")).is_err());
        assert!(parse_args(&a("--workload nope")).is_err());
        assert!(parse_args(&a("--workload batch-dense --trace 2")).is_err());
        assert!(parse_args(&a("--workload batch-dense --seconds 0")).is_err());
    }

    #[test]
    fn samples_split_one_shape_by_seed() {
        let shape = rp_dbscan::data::synth::osm_like;
        let (a, fresh) = sample(shape, 100, 20, 1);
        assert_eq!((a.len(), fresh.len()), (100, 20));
        assert_eq!(a.flat(), sample(shape, 100, 20, 1).0.flat());
        assert_ne!(a.flat(), sample(shape, 100, 20, 2).0.flat());
    }

    #[test]
    fn derived_seeds_differ_per_stream() {
        assert_ne!(derive_seed(42, 1), derive_seed(42, 2));
        assert_eq!(derive_seed(42, 1), derive_seed(42, 1));
    }

    /// Recomputes the label fingerprints at the default seed and full
    /// size with their Rand index against exact DBSCAN, the evidence
    /// behind the committed fingerprints, then runs `ooc-dense` there,
    /// which must reproduce the `batch-dense` labels bit for bit.
    #[test]
    #[ignore = "runs exact DBSCAN at full size"]
    fn exact_oracle_evidence() {
        let dir = std::env::temp_dir().join(format!("rpbench-evidence-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("work dir");
        let reference = |w| Config {
            seed: DEFAULT_SEED,
            sizes: Sizes::FULL,
            ..tiny(w, &dir, false)
        };
        for (w, want) in [
            (Workload::BatchDense, batch::DENSE_FINGERPRINT),
            (Workload::BatchSparse, batch::SPARSE_FINGERPRINT),
        ] {
            let (fp, ri) = batch::evidence(&reference(w));
            println!("{}: fingerprint {fp:#018x}, rand index {ri:.6}", w.name());
            assert!(ri >= 0.999, "{}: rand index {ri}", w.name());
            assert_eq!(fp, want, "{}: fingerprint", w.name());
        }
        let out = run(
            &reference(Workload::OocDense),
            &mut trace::Tracer::new(false),
        )
        .expect("run");
        assert!(out.correct(), "ooc-dense: {:?}", out.problems);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

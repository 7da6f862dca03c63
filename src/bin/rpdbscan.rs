//! `rpdbscan` — command-line interface to the RP-DBSCAN reproduction.
//!
//! ```text
//! rpdbscan generate <kind> <n> <out.csv> [--seed S]
//! rpdbscan ingest   <in.csv> --out <store> --eps E [--rho R]
//!                   [--page-rows N] [--delim C]
//! rpdbscan cluster  <in.csv> <out.csv> --eps E --min-pts M
//!                   [--algo rp|exact|esp|rbp|cbp|spark|ng]
//!                   [--rho R] [--partitions K] [--workers W] [--delim C]
//! rpdbscan cluster  <out.labels> --store <file> --min-pts M
//!                   [--mem-budget B] [--spill-dir D]
//!                   [--partitions K] [--workers W]
//! rpdbscan stream   <in.csv> <out.csv> --eps E --min-pts M --batch B
//!                   [--rho R] [--workers W] [--window N]
//!                   [--order file|shuffled|locality|sliding]
//!                   [--seed S] [--delim C]
//! rpdbscan serve    <in.csv> --eps E --min-pts M [--queries q.csv]
//!                   [--out labels.csv] [--shards K] [--workers W]
//!                   [--rho R] [--queue CAP] [--delim C]
//!                   [--window N --batch B [--order O] [--seed S]]
//! rpdbscan compare  <in.csv> --eps E --min-pts M [--workers W]
//! rpdbscan metrics  <a.csv> <b.csv>
//! rpdbscan plot     <labeled.csv> <out.svg>
//! ```
//!
//! `stream` replays the input as insert micro-batches of `B` points
//! through [`StreamingRpDbscan`], printing one line per epoch, and writes
//! the final labels — byte-for-byte the clustering `cluster --algo rp`
//! would produce on the same points.
//!
//! `stream --window N` keeps only the newest `N` points live: each
//! micro-batch expires the oldest arrivals past the window through the
//! exact deletion-repair path, and the final labels cover the survivors.
//!
//! `serve` clusters the input once, builds a sharded [`ServingIndex`],
//! and classifies query coordinates through the micro-batched [`Server`]
//! read path. Without `--queries` it re-serves the input points and
//! reports agreement with the stored labels (always 100% — classification
//! replays Phase III exactly).
//!
//! `serve --window N --batch B` instead replays the input as a sliding
//! window of `N` points and *delta-publishes* each epoch: the first epoch
//! builds the index from the stream, every later one patches the previous
//! generation copy-on-write ([`ServingIndex::patch_from_stream`]), and
//! queries are answered from the final published generation.
//!
//! `ingest` streams a CSV into an out-of-core column store: points are
//! sorted by grid cell under `(ε, ρ)` and written as paged,
//! checksummed per-dimension columns plus a cell directory. `cluster
//! --store <file>` then runs the out-of-core pipeline against it under a
//! byte-capped buffer pool (`--mem-budget`, default ¼ of the dataset's
//! resident size), spilling per-partition cell graphs to disk, and
//! writes one cluster label per line in original point order — the
//! labels are bit-identical to what the resident pipeline produces.
//!
//! `generate` kinds: `moons`, `blobs`, `chameleon`, `geolife`, `cosmo`,
//! `osm`, `teraclick`, `mixture:<dim>:<alpha>`, `uniform:<dim>:<range>`.
//! Labeled CSVs carry the cluster id as a trailing column (−1 = noise).

use rp_dbscan::data::io;
use rp_dbscan::metrics::{adjusted_rand_index, normalized_mutual_info};
use rp_dbscan::prelude::*;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  rpdbscan generate <kind> <n> <out.csv> [--seed S]
  rpdbscan ingest   <in.csv> --out <store> --eps E [--rho R] [options]
  rpdbscan cluster  <in.csv> <out.csv> --eps E --min-pts M [options]
  rpdbscan cluster  <out.labels> --store <file> --min-pts M [options]
  rpdbscan stream   <in.csv> <out.csv> --eps E --min-pts M --batch B [options]
  rpdbscan serve    <in.csv> --eps E --min-pts M [options]
  rpdbscan compare  <in.csv> --eps E --min-pts M [--workers W]
  rpdbscan metrics  <a.csv> <b.csv>
  rpdbscan plot     <labeled.csv> <out.svg>

ingest options:
  --out F          output store file     (required)
  --eps E          grid cell side = eps/sqrt(dim)   (required)
  --rho R          approximation rate    (default 0.01)
  --page-rows N    rows per page         (default 4096)
  --delim C        field delimiter       (default ,)

cluster options:
  --algo rp|exact|esp|rbp|cbp|spark|ng   (default rp)
  --rho R          approximation rate    (default 0.01)
  --partitions K   RP partitions / region splits (default 32)
  --workers W      simulated workers     (default 8)
  --delim C        field delimiter       (default ,)
  --density-backend exact|knn|sampled    Phase II density estimator (default exact; rp only)
  --knn-k K        kNN-graph neighbours per point   (knn backend, default 10)
  --sample-frac S  core-candidate sample fraction   (sampled backend, default 0.1)

cluster --store options (out-of-core; eps/rho come from the store header):
  --store F        column store written by ingest
  --mem-budget B   buffer-pool byte cap, K/M/G suffixes allowed
                   (default: resident size / 4)
  --spill-dir D    directory for merge spill files  (default: temp dir)
  --eps E, --rho R verified against the store header if given
  --min-pts, --partitions, --workers as above

stream options:
  --batch B        points per insert micro-batch (required)
  --window N       sliding window: keep only the newest N points live
  --order file|shuffled|locality|sliding   arrival order  (default file)
  --seed S         shuffle seed          (default 0)
  --save-dict F    write the final cell dictionary (wire format) to F
  --check-dict F   decode F and verify it matches this run's grid
  --density-backend B   must be exact: streaming has no approximate repair path
  --rho, --workers, --delim as above

serve options:
  --queries F      CSV of coordinates to classify (default: the input)
  --out F          write classified queries as a labeled CSV to F
  --shards K       index shards         (default 4)
  --queue CAP      admission queue capacity / micro-batch size (default 1024)
  --window N       sliding-window replay with per-epoch delta publishes
  --batch B        replay micro-batch size  (required with --window)
  --order, --seed  arrival order for the windowed replay, as in stream
  --density-backend B   must be exact: classification replays the exact cell graph
  --rho, --workers, --delim as above

generate kinds: moons blobs chameleon geolife cosmo osm teraclick
                hyperteraclick:<dim> mixture:<dim>:<alpha> uniform:<dim>:<range>";

/// Minimal flag scanner: returns the value following `--name`.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid value for {name}: {v:?}")),
        None => Ok(default),
    }
}

fn require<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    flag(args, name)
        .ok_or_else(|| format!("missing required flag {name}"))?
        .parse()
        .map_err(|_| format!("invalid value for {name}"))
}

/// Parses `--density-backend` plus its backend-specific knobs.
fn parse_backend(args: &[String]) -> Result<DensityBackendKind, String> {
    let name = flag(args, "--density-backend").unwrap_or_else(|| "exact".into());
    match name.as_str() {
        "exact" => Ok(DensityBackendKind::Exact),
        "knn" => Ok(DensityBackendKind::MutualKnn {
            k: parse_flag(args, "--knn-k", 10)?,
        }),
        "sampled" => Ok(DensityBackendKind::SampledCore {
            sample_frac: parse_flag(args, "--sample-frac", 0.1)?,
        }),
        other => Err(format!(
            "unknown --density-backend {other:?} (expected exact, knn, or sampled)"
        )),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or("no command given")?;
    match cmd.as_str() {
        "generate" => generate(&args[1..]),
        "ingest" => ingest(&args[1..]),
        "cluster" => cluster(&args[1..]),
        "stream" => stream(&args[1..]),
        "serve" => serve(&args[1..]),
        "compare" => compare(&args[1..]),
        "metrics" => metrics(&args[1..]),
        "plot" => plot(&args[1..]),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn generate(args: &[String]) -> Result<(), String> {
    let kind = args.first().ok_or("generate: missing <kind>")?.clone();
    let n: usize = args
        .get(1)
        .ok_or("generate: missing <n>")?
        .parse()
        .map_err(|_| "generate: <n> must be an integer")?;
    let out = PathBuf::from(args.get(2).ok_or("generate: missing <out.csv>")?);
    let seed: u64 = parse_flag(args, "--seed", 0)?;
    let cfg = SynthConfig::new(n).with_seed(seed);
    let data = match kind.as_str() {
        "moons" => synth::moons(cfg, 0.05),
        "blobs" => synth::blobs(cfg, 6, 1.5, 100.0),
        "chameleon" => synth::chameleon_like(cfg),
        "geolife" => synth::geolife_like(cfg),
        "cosmo" => synth::cosmo_like(cfg),
        "osm" => synth::osm_like(cfg),
        "teraclick" => synth::teraclick_like(cfg),
        other => {
            let parts: Vec<&str> = other.split(':').collect();
            match parts.as_slice() {
                ["mixture", dim, alpha] => {
                    let dim: usize = dim.parse().map_err(|_| "bad mixture dim")?;
                    let alpha: f64 = alpha.parse().map_err(|_| "bad mixture alpha")?;
                    synth::gaussian_mixture(cfg, dim, alpha)
                }
                ["uniform", dim, range] => {
                    let dim: usize = dim.parse().map_err(|_| "bad uniform dim")?;
                    let range: f64 = range.parse().map_err(|_| "bad uniform range")?;
                    synth::uniform(cfg, dim, range)
                }
                ["hyperteraclick", dim] => {
                    let dim: usize = dim.parse().map_err(|_| "bad hyperteraclick dim")?;
                    if dim == 0 {
                        return Err("hyperteraclick dim must be >= 1".into());
                    }
                    synth::hyper_teraclick_like(cfg, dim)
                }
                _ => return Err(format!("unknown generate kind {kind:?}")),
            }
        }
    };
    io::write_csv(&out, &data, ',').map_err(|e| e.to_string())?;
    println!(
        "wrote {} points ({}d) to {}",
        data.len(),
        data.dim(),
        out.display()
    );
    Ok(())
}

fn load(path: &Path, delim: char) -> Result<Dataset, String> {
    io::read_csv(path, delim).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parses a byte count with an optional K/M/G/T suffix (powers of 1024).
fn parse_bytes(v: &str) -> Result<u64, String> {
    let v = v.trim();
    let bad = || format!("invalid byte count {v:?} (expected e.g. 1073741824, 256M, 2G)");
    let (digits, shift) = match v.chars().last() {
        Some('K' | 'k') => (&v[..v.len() - 1], 10),
        Some('M' | 'm') => (&v[..v.len() - 1], 20),
        Some('G' | 'g') => (&v[..v.len() - 1], 30),
        Some('T' | 't') => (&v[..v.len() - 1], 40),
        Some(_) => (v, 0),
        None => return Err(bad()),
    };
    let n: u64 = digits.trim().parse().map_err(|_| bad())?;
    n.checked_mul(1u64 << shift).ok_or_else(bad)
}

/// `rpdbscan ingest <in.csv> --out <store> --eps E [--rho R] …` —
/// streams the CSV row-by-row into a cell-sorted column store.
fn ingest(args: &[String]) -> Result<(), String> {
    let input = PathBuf::from(args.first().ok_or("ingest: missing <in.csv>")?);
    let out = PathBuf::from(flag(args, "--out").ok_or("missing required flag --out")?);
    let eps: f64 = require(args, "--eps")?;
    let rho: f64 = parse_flag(args, "--rho", 0.01)?;
    let page_rows: u32 = parse_flag(args, "--page-rows", rp_dbscan::store::DEFAULT_PAGE_ROWS)?;
    let delim: char = parse_flag(args, "--delim", ',')?;

    // The grid (and with it the writer) is created lazily on the first
    // row, once the dimensionality is known.
    let mut writer: Option<rp_dbscan::store::StoreWriter> = None;
    let mut dim = 0usize;
    io::for_each_csv_row(&input, delim, |row| {
        let w = match &mut writer {
            Some(w) => w,
            None => {
                dim = row.len();
                let spec = GridSpec::new(dim, eps, rho).map_err(|e| e.to_string())?;
                let fresh = rp_dbscan::store::StoreWriter::new(spec, page_rows)
                    .map_err(|e| e.to_string())?;
                writer.get_or_insert(fresh)
            }
        };
        w.push(row).map_err(|e| e.to_string())
    })
    .map_err(|e| format!("{}: {e}", input.display()))?;
    let writer = writer.ok_or_else(|| {
        format!(
            "{}: input has no points, cannot infer dimensionality",
            input.display()
        )
    })?;
    let stats = writer
        .finish(&out)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "ingested {} points ({dim}d) into {}: {} cells, {} pages, {} bytes",
        stats.points,
        out.display(),
        stats.cells,
        stats.pages,
        stats.file_bytes
    );
    Ok(())
}

/// `rpdbscan cluster <out.labels> --store <file> …` — the out-of-core
/// pipeline: pool-pinned page reads under a byte budget, spill-to-disk
/// tournament merge, one label per output line in original point order.
fn cluster_store(args: &[String]) -> Result<(), String> {
    let output = PathBuf::from(args.first().ok_or("cluster: missing <out.labels>")?);
    if output.to_string_lossy().starts_with("--") {
        return Err("cluster: the <out.labels> positional must come before flags".into());
    }
    let store_path = PathBuf::from(flag(args, "--store").ok_or("missing required flag --store")?);
    let min_pts: usize = require(args, "--min-pts")?;
    let partitions: usize = parse_flag(args, "--partitions", 32)?;
    let workers: usize = parse_flag(args, "--workers", 8)?;

    let store = rp_dbscan::store::ColumnStore::open(&store_path)
        .map_err(|e| format!("{}: {e}", store_path.display()))?;
    let store = std::sync::Arc::new(store);
    // ε/ρ are baked into the store's cell lattice; explicit flags are
    // still accepted and verified bitwise by the driver (GridMismatch).
    let eps: f64 = parse_flag(args, "--eps", store.eps())?;
    let rho: f64 = parse_flag(args, "--rho", store.rho())?;
    let budget = match flag(args, "--mem-budget") {
        Some(v) => parse_bytes(&v)?,
        None => (store.resident_bytes() / 4).max(64 * 1024),
    };
    let mut cfg = OutOfCoreConfig::new(budget);
    if let Some(d) = flag(args, "--spill-dir") {
        cfg = cfg.with_spill_dir(PathBuf::from(d));
    }
    println!(
        "store {}: {} points ({}d), {} cells, eps {} rho {}, {} file bytes",
        store_path.display(),
        store.len(),
        store.dim(),
        store.cells().len(),
        store.eps(),
        store.rho(),
        store.file_bytes()
    );

    let params = RpDbscanParams::new(eps, min_pts)
        .with_rho(rho)
        .with_partitions(partitions);
    let engine = Engine::new(workers);
    let start = std::time::Instant::now(); // lint:allow(determinism-time): wall-clock timing is printed for the user, not fed into clustering results
    let out = RpDbscan::new(params)
        .map_err(|e| e.to_string())?
        .run_out_of_core(&store, &cfg, &engine)
        .map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64();
    let s = &out.stats;
    println!(
        "pool: budget {} bytes, {} hits / {} misses, {} evictions, peak tracked {} bytes",
        s.pool_budget_bytes,
        s.pool_hits,
        s.pool_misses,
        s.pool_evictions,
        s.pool_peak_tracked_bytes
    );
    println!(
        "spill: {} bytes written, {} bytes read, merge frontier peak {} bytes",
        s.spill_bytes_written, s.spill_bytes_read, s.merge_peak_frontier_bytes
    );
    println!(
        "rp (out-of-core): {} clusters, {} noise, {wall:.2}s wall, {:.3}s simulated",
        out.clustering.num_clusters(),
        out.clustering.noise_count(),
        engine.report().total_elapsed()
    );
    write_labels(&output, &out.clustering)?;
    println!("wrote labels to {}", output.display());
    Ok(())
}

/// Writes one cluster label per line (−1 = noise), line `i` belonging to
/// original point `i`. Unlike a labeled CSV this needs no coordinates,
/// so the out-of-core path never has to materialise the dataset.
fn write_labels(path: &Path, clustering: &Clustering) -> Result<(), String> {
    use std::io::Write;
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    let mut write = || -> std::io::Result<()> {
        for label in clustering.labels() {
            match label {
                Some(c) => writeln!(w, "{c}")?,
                None => writeln!(w, "-1")?,
            }
        }
        w.flush()
    };
    write().map_err(|e| format!("{}: {e}", path.display()))
}

fn cluster(args: &[String]) -> Result<(), String> {
    if flag(args, "--store").is_some() {
        return cluster_store(args);
    }
    let input = PathBuf::from(args.first().ok_or("cluster: missing <in.csv>")?);
    let output = PathBuf::from(args.get(1).ok_or("cluster: missing <out.csv>")?);
    let eps: f64 = require(args, "--eps")?;
    let min_pts: usize = require(args, "--min-pts")?;
    let algo = flag(args, "--algo").unwrap_or_else(|| "rp".into());
    let rho: f64 = parse_flag(args, "--rho", 0.01)?;
    let partitions: usize = parse_flag(args, "--partitions", 32)?;
    let workers: usize = parse_flag(args, "--workers", 8)?;
    let delim: char = parse_flag(args, "--delim", ',')?;
    let backend = parse_backend(args)?;
    if !backend.is_exact() && algo != "rp" {
        return Err(format!(
            "--density-backend {} only applies to --algo rp",
            backend.name()
        ));
    }

    let data = load(&input, delim)?;
    println!("loaded {} points ({}d)", data.len(), data.dim());
    let engine = Engine::new(workers);
    let start = std::time::Instant::now(); // lint:allow(determinism-time): wall-clock timing is printed for the user, not fed into clustering results
    let clustering = match algo.as_str() {
        "rp" if !backend.is_exact() => {
            let params = RpDbscanParams::new(eps, min_pts)
                .with_rho(rho)
                .with_partitions(partitions)
                .with_density_backend(backend);
            let be = rp_dbscan::density::backend_for(&params).map_err(|e| e.to_string())?;
            let out = be.cluster(&data, &engine).map_err(|e| e.to_string())?;
            println!(
                "density backend {}: {} neighbour searches, {} core points",
                out.stats.backend,
                out.stats.neighbor_searches,
                out.stats
                    .core_points
                    .map_or_else(|| "?".into(), |c| c.to_string()),
            );
            out.clustering
        }
        "rp" => {
            let params = RpDbscanParams::new(eps, min_pts)
                .with_rho(rho)
                .with_partitions(partitions);
            let out = RpDbscan::new(params)
                .map_err(|e| e.to_string())?
                .run(&data, &engine)
                .map_err(|e| e.to_string())?;
            println!(
                "dictionary: {} cells / {} sub-cells, {} bytes broadcast",
                out.stats.dict_cells, out.stats.dict_subcells, out.stats.dict_wire_bytes
            );
            out.clustering
        }
        "exact" => exact_dbscan(&data, eps, min_pts).clustering,
        "esp" | "rbp" | "cbp" | "spark" => {
            let params = match algo.as_str() {
                "esp" => RegionParams::esp(eps, min_pts, rho, partitions),
                "rbp" => RegionParams::rbp(eps, min_pts, rho, partitions),
                "cbp" => RegionParams::cbp(eps, min_pts, rho, partitions),
                _ => RegionParams::spark(eps, min_pts, partitions),
            };
            RegionDbscan::new(params)
                .run(&data, &engine)
                .map_err(|e| e.to_string())?
                .clustering
        }
        "ng" => {
            NgDbscan::new(NgParams::new(eps, min_pts))
                .run(&data, &engine)
                .map_err(|e| e.to_string())?
                .clustering
        }
        other => return Err(format!("unknown --algo {other:?}")),
    };
    let wall = start.elapsed().as_secs_f64();
    println!(
        "{algo}: {} clusters, {} noise, {wall:.2}s wall, {:.3}s simulated",
        clustering.num_clusters(),
        clustering.noise_count(),
        engine.report().total_elapsed()
    );
    io::write_labeled_csv(&output, &data, &clustering, delim).map_err(|e| e.to_string())?;
    println!("wrote labels to {}", output.display());
    Ok(())
}

/// Resolves an `--order` flag into a visit permutation over `data`.
/// `locality` buckets by ε-sided cells; `sliding` sweeps the first axis
/// with ε of arrival jitter.
fn visit_order(order: &str, data: &Dataset, eps: f64, seed: u64) -> Result<Vec<u32>, String> {
    match order {
        "file" => Ok((0..data.len() as u32).collect()),
        "shuffled" => Ok(rp_dbscan::data::shuffled_order(data, seed)),
        "locality" => Ok(rp_dbscan::data::locality_order(data, eps, seed)),
        "sliding" => Ok(rp_dbscan::data::sliding_order(data, eps, seed)),
        other => Err(format!("unknown --order {other:?}")),
    }
}

fn stream(args: &[String]) -> Result<(), String> {
    let input = PathBuf::from(args.first().ok_or("stream: missing <in.csv>")?);
    let output = PathBuf::from(args.get(1).ok_or("stream: missing <out.csv>")?);
    let eps: f64 = require(args, "--eps")?;
    let min_pts: usize = require(args, "--min-pts")?;
    let batch: usize = require(args, "--batch")?;
    if batch == 0 {
        return Err("stream: --batch must be >= 1".into());
    }
    let rho: f64 = parse_flag(args, "--rho", 0.01)?;
    let workers: usize = parse_flag(args, "--workers", 8)?;
    let delim: char = parse_flag(args, "--delim", ',')?;
    let order = flag(args, "--order").unwrap_or_else(|| "file".into());
    let seed: u64 = parse_flag(args, "--seed", 0)?;
    let window: Option<usize> = flag(args, "--window")
        .map(|v| v.parse().map_err(|_| format!("invalid --window {v:?}")))
        .transpose()?;
    if window == Some(0) {
        return Err("stream: --window must be >= 1".into());
    }
    let save_dict = flag(args, "--save-dict").map(PathBuf::from);
    let check_dict = flag(args, "--check-dict").map(PathBuf::from);

    let data = load(&input, delim)?;
    println!("loaded {} points ({}d)", data.len(), data.dim());
    let idx = visit_order(&order, &data, eps, seed)?;
    // Streaming repair only exists for the exact backend; approximate
    // selections are rejected by `with_engine` with a typed error.
    let params = RpDbscanParams::new(eps, min_pts)
        .with_rho(rho)
        .with_density_backend(parse_backend(args)?);
    let engine = Engine::with_cost_model(workers, CostModel::free());
    let s =
        StreamingRpDbscan::with_engine(data.dim(), params, engine).map_err(|e| e.to_string())?;
    if let Some(p) = &check_dict {
        let bytes = std::fs::read(p).map_err(|e| format!("{}: {e}", p.display()))?;
        let dict = s
            .check_dictionary(&bytes)
            .map_err(|e| format!("{}: {e}", p.display()))?;
        println!(
            "checked dictionary {}: {} cells, grid compatible",
            p.display(),
            dict.num_cells()
        );
    }
    println!(
        "{:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "epoch", "inserted", "expired", "total", "clusters", "changed", "dirty", "sec"
    );
    // An absent --window is an unbounded one: push_batch never expires.
    let mut w = SlidingWindow::new(s, window.unwrap_or(usize::MAX)).map_err(|e| e.to_string())?;
    for chunk in idx.chunks(batch) {
        let mut flat = Vec::with_capacity(chunk.len() * data.dim());
        for &i in chunk {
            flat.extend_from_slice(data.point_at(i as usize));
        }
        let t = std::time::Instant::now(); // lint:allow(determinism-time): wall-clock timing is printed for the user, not fed into clustering results
        w.push_batch(&flat).map_err(|e| e.to_string())?;
        let snap = w.stream().snapshot();
        println!(
            "{:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8.3}",
            snap.epoch,
            chunk.len(),
            w.last_expired(),
            snap.stats.live_points,
            snap.stats.num_clusters,
            snap.stats.last_changed_cells,
            snap.stats.last_dirty_cells,
            t.elapsed().as_secs_f64()
        );
    }
    let s = w.into_stream();
    let snap = s.snapshot();
    io::write_labeled_csv(&output, &s.dataset(), &snap.labels, delim).map_err(|e| e.to_string())?;
    println!("wrote labels to {}", output.display());
    if let Some(p) = &save_dict {
        let bytes = s.encode_dictionary();
        std::fs::write(p, &bytes).map_err(|e| format!("{}: {e}", p.display()))?;
        println!(
            "wrote dictionary ({} bytes) to {}",
            bytes.len(),
            p.display()
        );
    }
    Ok(())
}

fn serve(args: &[String]) -> Result<(), String> {
    let input = PathBuf::from(args.first().ok_or("serve: missing <in.csv>")?);
    let eps: f64 = require(args, "--eps")?;
    let min_pts: usize = require(args, "--min-pts")?;
    let rho: f64 = parse_flag(args, "--rho", 0.01)?;
    let shards: usize = parse_flag(args, "--shards", 4)?;
    let workers: usize = parse_flag(args, "--workers", 8)?;
    let queue: usize = parse_flag(args, "--queue", 1024)?;
    let delim: char = parse_flag(args, "--delim", ',')?;
    if shards == 0 || queue == 0 {
        return Err("serve: --shards and --queue must be >= 1".into());
    }
    let queries_path = flag(args, "--queries").map(PathBuf::from);
    let out_path = flag(args, "--out").map(PathBuf::from);
    let window: Option<usize> = flag(args, "--window")
        .map(|v| v.parse().map_err(|_| format!("invalid --window {v:?}")))
        .transpose()?;
    if window == Some(0) {
        return Err("serve: --window must be >= 1".into());
    }

    let data = load(&input, delim)?;
    println!("loaded {} points ({}d)", data.len(), data.dim());
    // Classification replays the exact cell graph; an approximate
    // backend selection fails here (driver) and at the index build.
    let params = RpDbscanParams::new(eps, min_pts)
        .with_rho(rho)
        .with_density_backend(parse_backend(args)?);
    let config = ServerConfig {
        queue_capacity: queue,
        cache_capacity: 4096,
        ..ServerConfig::default()
    };
    // Both paths end with a published index and the labels the input's
    // points are stored under (the self-serve agreement oracle).
    let (server, stored, base_data) = if let Some(win) = window {
        serve_window_build(args, data, &params, eps, win, shards, workers, config)?
    } else {
        let out = RpDbscan::new(params)
            .map_err(|e| e.to_string())?
            .run_local(&data)
            .map_err(|e| e.to_string())?;
        println!(
            "clustered: {} clusters, {} noise",
            out.clustering.num_clusters(),
            out.clustering.noise_count()
        );
        let index = ServingIndex::from_batch(&data, &out, shards, 1).map_err(|e| e.to_string())?;
        let server = Server::new(
            Engine::with_cost_model(workers, CostModel::free()),
            std::sync::Arc::new(index),
            config,
        );
        (server, out.clustering.labels().to_vec(), data)
    };
    {
        let index = server.index();
        println!(
            "serving index: {} shards, {} cells, {} points, generation {}",
            index.num_shards(),
            index.num_cells(),
            index.num_points(),
            index.generation()
        );
    }

    let self_serve = queries_path.is_none();
    let qdata = match &queries_path {
        Some(p) => load(p, delim)?,
        None => base_data,
    };
    if qdata.dim() != server.index().spec().dim() {
        return Err(format!(
            "serve: query dimension {} does not match data dimension {}",
            qdata.dim(),
            server.index().spec().dim()
        ));
    }
    let mut labels: Vec<Option<u32>> = Vec::with_capacity(qdata.len());
    for chunk_start in (0..qdata.len()).step_by(queue) {
        let chunk_end = (chunk_start + queue).min(qdata.len());
        let reqs: Vec<rp_dbscan::serve::Request> = (chunk_start..chunk_end)
            .map(|i| rp_dbscan::serve::Request::Classify(qdata.point_at(i).to_vec()))
            .collect();
        for resp in server.execute(reqs).map_err(|e| e.to_string())? {
            match resp {
                rp_dbscan::serve::Response::Classified(c) => labels.push(c.label),
                other => return Err(format!("serve: unexpected response {other:?}")),
            }
        }
    }
    let clustered = labels.iter().filter(|l| l.is_some()).count();
    println!(
        "served {} classify queries: {} in clusters, {} noise",
        labels.len(),
        clustered,
        labels.len() - clustered
    );
    if self_serve {
        let agree = labels.iter().zip(&stored).filter(|(a, b)| a == b).count();
        println!(
            "agreement with stored labels: {}/{} ({:.1}%)",
            agree,
            labels.len(),
            100.0 * agree as f64 / labels.len().max(1) as f64
        );
    }
    let stats = server.stats();
    let us = |v: Option<f64>| v.unwrap_or(0.0) * 1e6;
    println!(
        "classify latency: p50 {:.1}us p95 {:.1}us p99 {:.1}us ({} batches, {} plan cache hits / {} misses)",
        us(stats.classify.p50()),
        us(stats.classify.p95()),
        us(stats.classify.p99()),
        stats.batches,
        stats.cache_hits,
        stats.cache_misses
    );
    if let Some(p) = &out_path {
        let clustering = Clustering::new(labels);
        io::write_labeled_csv(p, &qdata, &clustering, delim).map_err(|e| e.to_string())?;
        println!("wrote labels to {}", p.display());
    }
    Ok(())
}

/// Replays the input as a sliding window of `win` points and publishes
/// one index generation per epoch: a full [`ServingIndex::from_stream`]
/// build for the first, a copy-on-write [`ServingIndex::patch_from_stream`]
/// delta on top of the served generation for every later one (falling
/// back to a full build if the patch is rejected). Returns the server
/// with the final generation published, the survivors' stored labels,
/// and the survivors themselves as the self-serve query set.
#[allow(clippy::too_many_arguments)]
fn serve_window_build(
    args: &[String],
    data: Dataset,
    params: &RpDbscanParams,
    eps: f64,
    win: usize,
    shards: usize,
    workers: usize,
    config: ServerConfig,
) -> Result<(Server, Vec<Option<u32>>, Dataset), String> {
    let batch: usize = require(args, "--batch")?;
    if batch == 0 {
        return Err("serve: --batch must be >= 1".into());
    }
    let order = flag(args, "--order").unwrap_or_else(|| "file".into());
    let seed: u64 = parse_flag(args, "--seed", 0)?;
    let idx = visit_order(&order, &data, eps, seed)?;
    let engine = Engine::with_cost_model(workers, CostModel::free());
    let s =
        StreamingRpDbscan::with_engine(data.dim(), *params, engine).map_err(|e| e.to_string())?;
    let mut w = SlidingWindow::new(s, win).map_err(|e| e.to_string())?;
    let mut server: Option<Server> = None;
    println!(
        "{:>6} {:>9} {:>9} {:>9} {:>9} {:>18} {:>8}",
        "epoch", "inserted", "expired", "live", "clusters", "publish", "sec"
    );
    for chunk in idx.chunks(batch) {
        let mut flat = Vec::with_capacity(chunk.len() * data.dim());
        for &i in chunk {
            flat.extend_from_slice(data.point_at(i as usize));
        }
        let t = std::time::Instant::now(); // lint:allow(determinism-time): wall-clock timing is printed for the user, not fed into clustering results
        w.push_batch(&flat).map_err(|e| e.to_string())?;
        let publish = match &server {
            None => {
                let index = std::sync::Arc::new(ServingIndex::from_stream(w.stream(), shards));
                server = Some(Server::new(
                    Engine::with_cost_model(workers, CostModel::free()),
                    index,
                    config.clone(),
                ));
                "full build".to_string()
            }
            Some(srv) => {
                let prev = srv.index();
                match ServingIndex::patch_from_stream(&prev, w.stream()) {
                    Ok(patched) => {
                        let label = patched.patch_summary().map_or_else(
                            || "patch".to_string(),
                            |p| {
                                format!("patch {}/{} shards", p.patched_shards(), p.shared_shards())
                            },
                        );
                        srv.publish_if_newer(std::sync::Arc::new(patched));
                        label
                    }
                    Err(_) => {
                        // Grid drift or a non-newer base: rebuild fully.
                        let index = ServingIndex::from_stream(w.stream(), shards);
                        srv.publish_if_newer(std::sync::Arc::new(index));
                        "full rebuild".to_string()
                    }
                }
            }
        };
        let snap = w.stream().snapshot();
        println!(
            "{:>6} {:>9} {:>9} {:>9} {:>9} {:>18} {:>8.3}",
            snap.epoch,
            chunk.len(),
            w.last_expired(),
            snap.stats.live_points,
            snap.stats.num_clusters,
            publish,
            t.elapsed().as_secs_f64()
        );
    }
    let server = server.ok_or("serve: input produced no epochs")?;
    let snap = w.stream().snapshot();
    Ok((server, snap.labels.labels().to_vec(), w.stream().dataset()))
}

fn compare(args: &[String]) -> Result<(), String> {
    let input = PathBuf::from(args.first().ok_or("compare: missing <in.csv>")?);
    let eps: f64 = require(args, "--eps")?;
    let min_pts: usize = require(args, "--min-pts")?;
    let workers: usize = parse_flag(args, "--workers", 8)?;
    let data = load(&input, ',')?;
    println!("loaded {} points ({}d)", data.len(), data.dim());
    let exact = exact_dbscan(&data, eps, min_pts);
    println!(
        "{:<14} {:>12} {:>9} {:>9} {:>8}",
        "algorithm", "simulated(s)", "clusters", "noise", "RI"
    );
    let ri = |c: &Clustering| rand_index(&exact.clustering, c, NoisePolicy::SingleCluster);
    // RP
    let engine = Engine::new(workers);
    let out = RpDbscan::new(RpDbscanParams::new(eps, min_pts).with_partitions(workers * 4))
        .map_err(|e| e.to_string())?
        .run(&data, &engine)
        .map_err(|e| e.to_string())?;
    println!(
        "{:<14} {:>12.3} {:>9} {:>9} {:>8.4}",
        "RP-DBSCAN",
        engine.report().total_elapsed(),
        out.clustering.num_clusters(),
        out.clustering.noise_count(),
        ri(&out.clustering)
    );
    for (name, params) in [
        ("ESP-DBSCAN", RegionParams::esp(eps, min_pts, 0.01, workers)),
        ("RBP-DBSCAN", RegionParams::rbp(eps, min_pts, 0.01, workers)),
        ("CBP-DBSCAN", RegionParams::cbp(eps, min_pts, 0.01, workers)),
        ("SPARK-DBSCAN", RegionParams::spark(eps, min_pts, workers)),
    ] {
        let engine = Engine::new(workers);
        let out = RegionDbscan::new(params)
            .run(&data, &engine)
            .map_err(|e| e.to_string())?;
        println!(
            "{:<14} {:>12.3} {:>9} {:>9} {:>8.4}",
            name,
            engine.report().total_elapsed(),
            out.clustering.num_clusters(),
            out.clustering.noise_count(),
            ri(&out.clustering)
        );
    }
    let engine = Engine::new(workers);
    let out = NgDbscan::new(NgParams::new(eps, min_pts))
        .run(&data, &engine)
        .map_err(|e| e.to_string())?;
    println!(
        "{:<14} {:>12.3} {:>9} {:>9} {:>8.4}",
        "NG-DBSCAN",
        engine.report().total_elapsed(),
        out.clustering.num_clusters(),
        out.clustering.noise_count(),
        ri(&out.clustering)
    );
    Ok(())
}

/// Splits a labeled CSV (trailing label column) into data + clustering.
fn load_labeled(path: &Path) -> Result<(Dataset, Clustering), String> {
    let combined = load(path, ',')?;
    if combined.dim() < 2 {
        return Err(format!(
            "{}: labeled files need >= 2 columns",
            path.display()
        ));
    }
    let dim = combined.dim() - 1;
    let mut b = DatasetBuilder::with_capacity(dim, combined.len()).expect("dim >= 1");
    let mut labels = Vec::with_capacity(combined.len());
    for (_, row) in combined.iter() {
        b.push(&row[..dim]).expect("dim matches");
        let l = row[dim];
        labels.push(if l < 0.0 { None } else { Some(l as u32) });
    }
    Ok((b.build(), Clustering::new(labels)))
}

fn metrics(args: &[String]) -> Result<(), String> {
    let a = PathBuf::from(args.first().ok_or("metrics: missing <a.csv>")?);
    let b = PathBuf::from(args.get(1).ok_or("metrics: missing <b.csv>")?);
    let (_, ca) = load_labeled(&a)?;
    let (_, cb) = load_labeled(&b)?;
    if ca.len() != cb.len() {
        return Err(format!("label counts differ: {} vs {}", ca.len(), cb.len()));
    }
    for policy in [NoisePolicy::SingleCluster, NoisePolicy::Singletons] {
        println!(
            "{policy:?}: RI={:.6} ARI={:.6} NMI={:.6}",
            rand_index(&ca, &cb, policy),
            adjusted_rand_index(&ca, &cb, policy),
            normalized_mutual_info(&ca, &cb, policy),
        );
    }
    Ok(())
}

fn plot(args: &[String]) -> Result<(), String> {
    let input = PathBuf::from(args.first().ok_or("plot: missing <labeled.csv>")?);
    let output = PathBuf::from(args.get(1).ok_or("plot: missing <out.svg>")?);
    let (data, clustering) = load_labeled(&input)?;
    rp_dbscan::plot::ScatterPlot::new(
        &data,
        &clustering,
        &format!(
            "{} — {} clusters, {} noise",
            input
                .file_name()
                .map(|f| f.to_string_lossy())
                .unwrap_or_default(),
            clustering.num_clusters(),
            clustering.noise_count()
        ),
    )
    .save(&output, 640.0, 560.0)
    .map_err(|e| e.to_string())?;
    println!("wrote {}", output.display());
    Ok(())
}

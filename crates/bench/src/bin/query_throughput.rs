//! Per-cell window vs per-point `(ε,ρ)`-region query throughput.
//!
//! Stream repair caches every point's density, so it needs each new
//! point's full `(ε,ρ)`-region density, not just a core flag. It answers
//! a cell from its ε-window: one gather per cell (`CellWindow::gather`),
//! then each point sums every window cell (`CellWindow::density`). This
//! binary times that path against the per-point kd query it replaced,
//! which stays as the correctness oracle, on two workload shapes:
//!
//! * **dense** — points packed ≥ 16 per cell, where one gather serves
//!   many points (the shape clustered data takes);
//! * **sparse** — near-singleton cells, where a gather serves ~3 points,
//!   plus a thin dense tail of blob cells, the shape skewed data takes;
//!
//! and two paths per shape:
//!
//! * **oracle** — `DictionaryIndex::region_query_cells_into` per point;
//! * **window** — one `CellWindow` gather per cell, then the full-window
//!   density per point.
//!
//! Both paths run identical per-point sequences with their density sums
//! cross-checked, so a divergence fails loudly, and the window path is
//! **gated**: the run aborts if it is slower than the oracle (< 1.0×) on
//! either shape, which fails the CI smoke job. Each repeat times both
//! paths, alternating which runs first; a speedup is the median over
//! repeats of the paired per-repeat time ratios, so one noisy repeat
//! cannot decide the gate.
//!
//! Results land in `BENCH_query.json` (plus the usual CSV under
//! `target/experiments/`).
//!
//! ```sh
//! cargo run --release -p rpdbscan-bench --bin query_throughput
//! cargo run --release -p rpdbscan-bench --bin query_throughput -- --smoke
//! ```
//!
//! `--smoke` shrinks the workload for CI: same code path, well-formed
//! JSON, same gate, noisier timings.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpdbscan_bench::{scale, write_csv, RHO};
use rpdbscan_core::partition::group_by_cell;
use rpdbscan_grid::{CellDictionary, CellWindow, DictionaryIndex, GridSpec, RegionQueryResult};
use rpdbscan_json::{ToJson, Value};
use std::io::Write;
use std::time::Instant;

struct QueryRow {
    shape: String,
    path: String,
    points: usize,
    cells: usize,
    points_per_cell: f64,
    seconds: f64,
    qps: f64,
    ns_per_point: f64,
    /// Speedup over the per-point oracle (1.0 for the oracle itself).
    speedup_vs_oracle: f64,
}

rpdbscan_json::impl_to_json!(QueryRow {
    shape,
    path,
    points,
    cells,
    points_per_cell,
    seconds,
    qps,
    ns_per_point,
    speedup_vs_oracle
});

/// Uniform points over `[0, extent)²` — cell occupancy is set by the
/// extent/ε ratio.
fn uniform(n: usize, extent: f64, seed: u64) -> rpdbscan_geom::Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flat = Vec::with_capacity(n * 2);
    for _ in 0..n * 2 {
        flat.push(rng.gen_range(0.0..extent));
    }
    rpdbscan_geom::Dataset::from_flat(2, flat).expect("well-formed flat buffer")
}

/// Mostly-uniform sparse field with a 5% dense tail in a few tight
/// blobs: near-singleton cells, where a window gather is amortised over
/// the fewest points, plus a few heavy cells.
fn sparse_with_tail(n: usize, extent: f64, seed: u64) -> rpdbscan_geom::Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_blob = n / 20;
    let blobs = 4usize;
    let mut flat = Vec::with_capacity(n * 2);
    for _ in 0..(n - n_blob) * 2 {
        flat.push(rng.gen_range(0.0..extent));
    }
    let centers: Vec<(f64, f64)> = (0..blobs)
        .map(|_| {
            (
                rng.gen_range(5.0..extent - 5.0),
                rng.gen_range(5.0..extent - 5.0),
            )
        })
        .collect();
    for i in 0..n_blob {
        let (cx, cy) = centers[i % blobs];
        flat.push(cx + rng.gen_range(-0.3..0.3));
        flat.push(cy + rng.gen_range(-0.3..0.3));
    }
    rpdbscan_geom::Dataset::from_flat(2, flat).expect("well-formed flat buffer")
}

fn bench_shape(
    shape: &str,
    data: rpdbscan_geom::Dataset,
    eps: f64,
    repeats: usize,
) -> Vec<QueryRow> {
    let n = data.len();
    let spec = GridSpec::new(2, eps, RHO).expect("valid grid");
    let dict = CellDictionary::build_from_points(spec.clone(), data.iter().map(|(_, p)| p));
    let index = DictionaryIndex::new(dict, 1 << 16);
    let cells = group_by_cell(&spec, &data);
    let n_cells = cells.len();

    // The two paths run interleaved per repeat, in reverse order every
    // other repeat, so drift (frequency scaling, cache state) and
    // whichever path runs first hit both alike. Speedups are the median
    // over repeats of the paired per-repeat ratios — the statistic the
    // window ≥ 1.0× gate reads — and `seconds` is the min.
    let mut r = RegionQueryResult::default();
    let mut window = CellWindow::default();
    let mut times = vec![[0.0f64; 2]; repeats]; // oracle, window
    let mut density = [0u64; 2];
    for (rep, t) in times.iter_mut().enumerate() {
        let order = if rep % 2 == 0 { [0, 1] } else { [1, 0] };
        for path in order {
            let t0 = Instant::now(); // lint:allow(determinism-time): wall-clock timing is printed for the user, not fed into clustering results
            let mut d = 0u64;
            for cell in &cells {
                if path == 0 {
                    for &pid in &cell.points {
                        index.region_query_cells_into(data.point(pid), &mut r);
                        d += r.density;
                    }
                } else {
                    let idx = index.dict().index_of(&cell.coord).expect("occupied cell");
                    window.gather(&index, idx);
                    for &pid in &cell.points {
                        d += window.density(&index, data.point(pid));
                    }
                }
            }
            t[path] = t0.elapsed().as_secs_f64();
            density[path] = d;
        }
    }
    assert_eq!(
        density[1], density[0],
        "{shape}: window path diverged from the oracle"
    );
    let best = |path: usize| times.iter().map(|t| t[path]).fold(f64::INFINITY, f64::min);
    let speedup = |path: usize| {
        let mut ratios: Vec<f64> = times.iter().map(|t| t[0] / t[path]).collect();
        ratios.sort_unstable_by(f64::total_cmp);
        let mid = ratios.len() / 2;
        if ratios.len() % 2 == 1 {
            ratios[mid]
        } else {
            (ratios[mid - 1] + ratios[mid]) / 2.0
        }
    };
    let row = |name: &str, path: usize| QueryRow {
        shape: shape.to_string(),
        path: name.to_string(),
        points: n,
        cells: n_cells,
        points_per_cell: n as f64 / n_cells as f64,
        seconds: best(path),
        qps: n as f64 / best(path),
        ns_per_point: best(path) * 1e9 / n as f64,
        speedup_vs_oracle: speedup(path),
    };
    let rows = vec![row("oracle", 0), row("window", 1)];
    for r in &rows {
        println!(
            "{:>6}/{:<6}: {:>8} pts, {:>6} cells ({:>7.1} pts/cell)  {:>8.1} ns/pt  {:>5.2}x",
            r.shape,
            r.path,
            r.points,
            r.cells,
            r.points_per_cell,
            r.ns_per_point,
            r.speedup_vs_oracle
        );
    }
    rows
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (n, repeats) = if smoke {
        (4_000, 5)
    } else {
        ((60_000.0 * scale()) as usize, 3)
    };
    println!(
        "Region-query throughput (n={n}, rho={RHO}{})",
        if smoke { " [smoke]" } else { "" }
    );
    let mut rows = Vec::new();
    // eps=1.6 over [0,8)²: ~7×7 cells of side 1.13 → hundreds of
    // points per cell (well past the ≥16 pts/cell dense regime).
    rows.extend(bench_shape("dense", uniform(n, 8.0, 42), 1.6, repeats));
    // eps=0.8, extent scaled with √n so uniform occupancy stays ~3
    // pts/cell at every n (80 at the default 60k): near-singleton cells,
    // where a gather is amortised over the fewest points, plus a 5% blob
    // tail. The sparse shape keeps a larger smoke n than dense: its
    // per-point cost is ~100× lower (near-singleton neighbourhoods), so
    // a dense-sized smoke run would finish in single-digit milliseconds,
    // below the noise floor the hard ≥1.0× gate needs, while dense at
    // this n would dominate CI time.
    let n_sparse = if smoke { 30_000 } else { n };
    let sparse_extent = 80.0 * (n_sparse as f64 / 60_000.0).sqrt();
    rows.extend(bench_shape(
        "sparse",
        sparse_with_tail(n_sparse, sparse_extent, 42),
        0.8,
        repeats,
    ));

    // The window gate: stream repair's per-cell path must not lose to
    // the per-point query it replaced, on either shape.
    for r in rows.iter().filter(|r| r.path == "window") {
        assert!(
            r.speedup_vs_oracle >= 1.0,
            "window gate: {} shape at {:.3}x < 1.0x vs the oracle",
            r.shape,
            r.speedup_vs_oracle
        );
        println!(
            "window gate: {} {:.2}x >= 1.0x ok",
            r.shape, r.speedup_vs_oracle
        );
    }

    write_csv("query_throughput", &rows);
    let mut doc = Value::object();
    doc.insert("workload", "uniform 2d");
    doc.insert("points", n);
    doc.insert("rho", RHO);
    doc.insert("smoke", Value::Bool(smoke));
    doc.insert(
        "rows",
        Value::Array(rows.iter().map(|r| r.to_json()).collect()),
    );
    let path = "BENCH_query.json";
    let mut f = std::io::BufWriter::new(std::fs::File::create(path).expect("create json"));
    writeln!(f, "{doc}").expect("write json");
    println!("wrote {path}");
}

//! Planned vs unplanned vs *routed* `(ε,ρ)`-region query throughput.
//!
//! Stream repair answers one region query per point of a repaired cell,
//! because it caches every point's density (Phase II needs only core
//! flags and answers each cell from its ε-window instead). The
//! cell-level planner (`CellQueryPlan`) amortises the kd-tree candidate
//! search and sub-cell classification over all points of a cell, and the
//! `PlannerCostModel` decides per cell whether that amortisation pays.
//! This binary measures all three paths on two workload shapes:
//!
//! * **dense** — points packed ≥ 16 per cell, where one plan serves many
//!   queries (the shape clustered data takes);
//! * **sparse** — near-singleton cells (where plan builds amortise
//!   poorly — the planner's historical 0.69× worst case) plus a thin
//!   dense tail of blob cells, the shape real skewed data takes;
//!
//! and three paths per shape:
//!
//! * **unplanned** — the per-point kd oracle;
//! * **planned** — a plan per cell, unconditionally (the old
//!   `use_query_planner = true` ablation);
//! * **routed** — stream repair's rule: the cost model routes each cell
//!   to whichever of the two is cheaper for its occupancy.
//!
//! All paths run identical per-point query sequences with densities
//! cross-checked, so a divergence fails loudly — and the routed path is
//! **gated**: the run aborts if routed speedup drops below 1.0× on
//! either shape, which is what makes the bench-smoke CI job fail on a
//! routing regression. Each repeat times all three paths, alternating
//! which runs first; a speedup is the median over repeats of the paired
//! per-repeat time ratios, so one noisy repeat cannot decide the gate.
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
//! JSON, same routed gate, noisier timings.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpdbscan_bench::{scale, write_csv, RHO};
use rpdbscan_core::partition::group_by_cell;
use rpdbscan_grid::{
    CellDictionary, CellQueryPlan, DictionaryIndex, GridSpec, PlannerCostModel, QueryRoute,
    RegionQueryResult,
};
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
    /// Speedup over the unplanned oracle (1.0 for unplanned itself).
    speedup_vs_unplanned: f64,
    /// Cells the path planned (all for `planned`, cost-model split for
    /// `routed`, none for `unplanned`).
    cells_planned: usize,
    /// Cells the path sent down the per-point kd oracle.
    cells_kd: usize,
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
    speedup_vs_unplanned,
    cells_planned,
    cells_kd
});

/// Uniform points over `[0, extent)²` — cell occupancy is set by the
/// extent/ε ratio, which is all that matters to the planner.
fn uniform(n: usize, extent: f64, seed: u64) -> rpdbscan_geom::Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flat = Vec::with_capacity(n * 2);
    for _ in 0..n * 2 {
        flat.push(rng.gen_range(0.0..extent));
    }
    rpdbscan_geom::Dataset::from_flat(2, flat).expect("well-formed flat buffer")
}

/// Mostly-uniform sparse field with a 5% dense tail in a few tight
/// blobs. The uniform mass is near-singleton cells — the regime where
/// unconditional planning historically lost — while the blob cells sit
/// far above the routing threshold, so a correct cost model plans them
/// and a broken one shows up as routed < 1.0×.
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
    let model = PlannerCostModel::calibrate(&index);
    let cells_routed_planned = cells
        .iter()
        .filter(|c| model.route(c.points.len()) == QueryRoute::Planned)
        .count();

    // The three paths run interleaved per repeat, in reverse order every
    // other repeat, so drift (frequency scaling, cache state) and
    // whichever path runs first hit all paths alike. Speedups are the
    // median over repeats of the paired per-repeat ratios — the statistic
    // the routed ≥ 1.0× gate reads — and `seconds` is the min.
    let mut r = RegionQueryResult::default();
    let mut times = vec![[0.0f64; 3]; repeats]; // unplanned, planned, routed
    let mut density = [0u64; 3];
    for (rep, t) in times.iter_mut().enumerate() {
        let order = if rep % 2 == 0 { [0, 1, 2] } else { [2, 1, 0] };
        for path in order {
            let t0 = Instant::now(); // lint:allow(determinism-time): wall-clock timing is printed for the user, not fed into clustering results
            let mut d = 0u64;
            for cell in &cells {
                // Unplanned runs the per-point kd path, result buffer
                // reused as stream repair runs it; planned builds each
                // cell's plan unconditionally (build time included — that
                // is the real repair cost); routed is stream repair's
                // rule, where the cost model picks per cell.
                let planned = match path {
                    0 => false,
                    1 => true,
                    _ => model.route(cell.points.len()) == QueryRoute::Planned,
                };
                if planned {
                    let idx = index.dict().index_of(&cell.coord).expect("occupied cell");
                    let plan = CellQueryPlan::build(&index, idx);
                    for &pid in &cell.points {
                        plan.query_into(data.point(pid), &mut r);
                        d += r.density;
                    }
                } else {
                    for &pid in &cell.points {
                        index.region_query_cells_into(data.point(pid), &mut r);
                        d += r.density;
                    }
                }
            }
            t[path] = t0.elapsed().as_secs_f64();
            density[path] = d;
        }
    }
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

    assert_eq!(
        density[1], density[0],
        "{shape}: planned path diverged from the oracle"
    );
    assert_eq!(
        density[2], density[0],
        "{shape}: routed path diverged from the oracle"
    );

    let row = |name: &str, path: usize, planned: usize, kd: usize| QueryRow {
        shape: shape.to_string(),
        path: name.to_string(),
        points: n,
        cells: n_cells,
        points_per_cell: n as f64 / n_cells as f64,
        seconds: best(path),
        qps: n as f64 / best(path),
        ns_per_point: best(path) * 1e9 / n as f64,
        speedup_vs_unplanned: speedup(path),
        cells_planned: planned,
        cells_kd: kd,
    };
    let rows = vec![
        row("unplanned", 0, 0, n_cells),
        row("planned", 1, n_cells, 0),
        row(
            "routed",
            2,
            cells_routed_planned,
            n_cells - cells_routed_planned,
        ),
    ];
    for r in &rows {
        println!(
            "{:>7}/{:<9}: {:>8} pts, {:>6} cells ({:>7.1} pts/cell)  {:>8.1} ns/pt  {:>5.2}x  ({} planned / {} kd)",
            r.shape, r.path, r.points, r.cells, r.points_per_cell, r.ns_per_point,
            r.speedup_vs_unplanned, r.cells_planned, r.cells_kd
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
    // pts/cell at every n (80 at the default 60k): near-singleton cells
    // plus a 5% blob tail the router must pick out. Keeping occupancy
    // scale-invariant keeps the routed win structural in smoke runs too
    // — shrinking n at fixed extent would starve the blob cells and
    // turn the ≥1.0× gate into a coin flip on timing noise. The sparse
    // shape also keeps a larger smoke n than dense: its per-point cost
    // is ~100× lower (near-singleton neighbourhoods), so a dense-sized
    // smoke run would finish in single-digit milliseconds — below the
    // noise floor the hard ≥1.0× gate needs — while dense at this n
    // would dominate CI time.
    let n_sparse = if smoke { 30_000 } else { n };
    let sparse_extent = 80.0 * (n_sparse as f64 / 60_000.0).sqrt();
    rows.extend(bench_shape(
        "sparse",
        sparse_with_tail(n_sparse, sparse_extent, 42),
        0.8,
        repeats,
    ));

    // The routing gate: self-selection must never lose to the oracle on
    // either shape. This is the assertion that turns a bench-smoke CI
    // run red when a cost-model regression reintroduces the 0.69× case.
    for r in rows.iter().filter(|r| r.path == "routed") {
        assert!(
            r.speedup_vs_unplanned >= 1.0,
            "routed gate: {} shape at {:.3}x < 1.0x vs unplanned",
            r.shape,
            r.speedup_vs_unplanned
        );
        println!(
            "routed gate: {} {:.2}x >= 1.0x ok",
            r.shape, r.speedup_vs_unplanned
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

//! Ablation: dictionary anatomy (§4.2.2 / §5.2's techniques).
//!
//! Quantifies, on one workload:
//!
//! * the effect of **sub-dictionary capacity** (BSP defragmentation) and
//!   **MBR skipping** on region-query work — fragments skipped, candidate
//!   cells touched, wall time;
//! * the effect of **ρ** on dictionary size and Phase II time (the paper's
//!   Table 5 / Figure 11 interplay).
//!
//! ```sh
//! cargo run --release -p rpdbscan-bench --bin ablation_dictionary
//! ```

use rpdbscan_bench::*;
use rpdbscan_data::{synth, SynthConfig};
use rpdbscan_grid::{CellDictionary, DictionaryIndex, GridSpec, QueryStats, RegionQueryResult};
use std::time::Instant;

struct DefragRow {
    capacity: u64,
    fragments: usize,
    skipped_per_query: f64,
    candidates_per_query: f64,
    seconds_per_1k_queries: f64,
}

rpdbscan_json::impl_to_json!(DefragRow {
    capacity,
    fragments,
    skipped_per_query,
    candidates_per_query,
    seconds_per_1k_queries
});

struct RhoRow {
    rho: f64,
    h: u32,
    subcells: usize,
    dict_bytes: u64,
    seconds_per_1k_queries: f64,
}

rpdbscan_json::impl_to_json!(RhoRow {
    rho,
    h,
    subcells,
    dict_bytes,
    seconds_per_1k_queries
});

fn main() {
    let n = (60_000.0 * scale()) as usize;
    let data = synth::geolife_like(SynthConfig::new(n));
    let eps = 0.3;

    // ---- Defragmentation / MBR skipping sweep -----------------------
    println!("Sub-dictionary capacity sweep (rho = {RHO}):");
    println!(
        "{:>12} {:>10} {:>14} {:>16} {:>14}",
        "capacity", "fragments", "skipped/query", "candidates/query", "s/1k queries"
    );
    let spec = GridSpec::new(3, eps, RHO).expect("valid grid");
    let dict = CellDictionary::build_from_points(spec, data.iter().map(|(_, p)| p));
    let queries: Vec<&[f64]> = data.iter().step_by(61).map(|(_, p)| p).take(1000).collect();
    let mut defrag_rows = Vec::new();
    for capacity in [u64::MAX, 1 << 16, 1 << 13, 1 << 10] {
        let index = DictionaryIndex::new(dict.clone(), capacity);
        let mut stats = QueryStats::default();
        let mut r = RegionQueryResult::default();
        let t0 = Instant::now(); // lint:allow(determinism-time): wall-clock timing is printed for the user, not fed into clustering results
        for q in &queries {
            index.region_query_cells_into(q, &mut r);
            stats.merge(&r.stats);
        }
        let secs = t0.elapsed().as_secs_f64();
        let nq = queries.len() as f64;
        let row = DefragRow {
            capacity,
            fragments: index.num_subdicts(),
            skipped_per_query: stats.subdicts_skipped as f64 / nq,
            candidates_per_query: stats.cells_candidate as f64 / nq,
            seconds_per_1k_queries: secs * 1000.0 / nq,
        };
        println!(
            "{:>12} {:>10} {:>14.1} {:>16.1} {:>14.4}",
            if capacity == u64::MAX {
                "unlimited".to_string()
            } else {
                capacity.to_string()
            },
            row.fragments,
            row.skipped_per_query,
            row.candidates_per_query,
            row.seconds_per_1k_queries
        );
        defrag_rows.push(row);
    }
    write_csv("ablation_defrag", &defrag_rows);

    // ---- rho sweep ---------------------------------------------------
    println!("\nApproximation-rate sweep (unlimited capacity):");
    println!(
        "{:>8} {:>4} {:>12} {:>12} {:>14}",
        "rho", "h", "sub-cells", "dict bytes", "s/1k queries"
    );
    let mut rho_rows = Vec::new();
    for rho in [0.5, 0.1, 0.05, 0.01] {
        let spec = GridSpec::new(3, eps, rho).expect("valid grid");
        let h = spec.h();
        let dict = CellDictionary::build_from_points(spec, data.iter().map(|(_, p)| p));
        let index = DictionaryIndex::single(dict);
        let mut r = RegionQueryResult::default();
        let t0 = Instant::now(); // lint:allow(determinism-time): wall-clock timing is printed for the user, not fed into clustering results
        for q in &queries {
            index.region_query_cells_into(q, &mut r);
        }
        let secs = t0.elapsed().as_secs_f64();
        let row = RhoRow {
            rho,
            h,
            subcells: index.dict().num_sub_cells(),
            dict_bytes: index.dict().size_bytes(),
            seconds_per_1k_queries: secs * 1000.0 / queries.len() as f64,
        };
        println!(
            "{:>8} {:>4} {:>12} {:>12} {:>14.4}",
            row.rho, row.h, row.subcells, row.dict_bytes, row.seconds_per_1k_queries
        );
        rho_rows.push(row);
    }
    write_csv("ablation_rho", &rho_rows);
    println!("\nCoarser rho shrinks the dictionary and speeds queries at the cost of");
    println!("approximation (Table 4 quantifies the accuracy side of this trade).");
}

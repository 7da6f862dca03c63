//! Table 5: size of the two-level cell dictionary as a fraction of the
//! data set, across the ε ladder (§7.6.1).
//!
//! The dictionary size is the analytical bit count of Lemma 4.3 (density
//! integers + cell float positions + `d(h−1)`-bit sub-cell orderings);
//! the data size counts 32-bit floats per coordinate, matching the
//! paper's storage model. The actual broadcast (wire) size is also shown.
//!
//! ```sh
//! cargo run --release -p rpdbscan-bench --bin table5_dict_size
//! ```

use rpdbscan_bench::*;
use rpdbscan_grid::{CellDictionary, GridSpec};

struct DictRow {
    dataset: String,
    eps: f64,
    cells: usize,
    subcells: usize,
    dict_bytes: u64,
    wire_bytes: u64,
    data_bytes: usize,
    percent_of_data: f64,
}

rpdbscan_json::impl_to_json!(DictRow {
    dataset,
    eps,
    cells,
    subcells,
    dict_bytes,
    wire_bytes,
    data_bytes,
    percent_of_data
});

fn main() {
    let mut rows = Vec::new();
    println!(
        "{:<16} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "dataset", "eps", "cells", "sub-cells", "dict bytes", "% of data"
    );
    for spec in datasets() {
        let data = spec.generate();
        let data_bytes = data.paper_size_bytes();
        for eps in spec.eps_ladder() {
            let grid = GridSpec::new(data.dim(), eps, RHO).expect("valid grid");
            let dict = CellDictionary::build_from_points(grid, data.iter().map(|(_, p)| p));
            let dict_bytes = dict.size_bytes();
            let pct = 100.0 * dict_bytes as f64 / data_bytes as f64;
            println!(
                "{:<16} {:>10.3} {:>10} {:>12} {:>12} {:>9.2}%",
                spec.name,
                eps,
                dict.num_cells(),
                dict.num_sub_cells(),
                dict_bytes,
                pct
            );
            rows.push(DictRow {
                dataset: spec.name.into(),
                eps,
                cells: dict.num_cells(),
                subcells: dict.num_sub_cells(),
                dict_bytes,
                wire_bytes: dict.encoded_len() as u64,
                data_bytes,
                percent_of_data: pct,
            });
        }
    }
    // Paper-scale density proxy: the paper's sets pack thousands of
    // points per sub-cell (10^7–10^9 points over comparable space), which
    // is where the 0.04–8.2% compression comes from. A dense uniform
    // square reproduces that ratio regime at laptop point counts.
    {
        let n = (500_000.0 * scale()) as usize;
        let data =
            rpdbscan_data::synth::uniform(rpdbscan_data::SynthConfig::new(n).with_seed(3), 2, 5.0);
        let data_bytes = data.paper_size_bytes();
        for eps in [2.5, 5.0] {
            let grid = GridSpec::new(2, eps, RHO).expect("valid grid");
            let dict = CellDictionary::build_from_points(grid, data.iter().map(|(_, p)| p));
            let pct = 100.0 * dict.size_bytes() as f64 / data_bytes as f64;
            println!(
                "{:<16} {:>10.3} {:>10} {:>12} {:>12} {:>9.2}%",
                "Dense-proxy",
                eps,
                dict.num_cells(),
                dict.num_sub_cells(),
                dict.size_bytes(),
                pct
            );
            rows.push(DictRow {
                dataset: "Dense-proxy".into(),
                eps,
                cells: dict.num_cells(),
                subcells: dict.num_sub_cells(),
                dict_bytes: dict.size_bytes(),
                wire_bytes: dict.encoded_len() as u64,
                data_bytes,
                percent_of_data: pct,
            });
        }
    }
    write_csv("table5_dict_size", &rows);
    println!("\nPaper's Table 5: 0.04%–8.20% of the data, shrinking as eps grows");
    println!("(larger cells -> fewer entries) and as data sets grow denser.");
    println!("Note: at harness scale the data is sparser per cell than the paper's");
    println!("10^7–10^9-point sets, so absolute percentages sit higher; the eps trend holds.");
}

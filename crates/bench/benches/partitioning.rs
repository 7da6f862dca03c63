//! Criterion micro-bench / ablation: partitioning strategies.
//!
//! Compares the cost of producing data splits under
//! * pseudo random partitioning (RP-DBSCAN, cells dealt randomly),
//! * true random partitioning (the naive §2.2.1 strategy),
//! * the three region-split partitioners (ESP/RBP/CBP) — the paper's
//!   "expensive data split" problem (§1.1 problem 1).

use criterion::{criterion_group, criterion_main, Criterion};
use rpdbscan_baselines::region::{split_regions, SplitStrategy};
use rpdbscan_core::partition::{group_by_cell, pseudo_random_deal, true_random_partition};
use rpdbscan_data::{synth, SynthConfig};
use rpdbscan_grid::GridSpec;
use std::hint::black_box;
use std::time::Duration;

fn bench_partitioning(c: &mut Criterion) {
    let data = synth::geolife_like(SynthConfig::new(40_000));
    let spec = GridSpec::new(3, 0.3, 0.01).expect("valid grid");
    let k = 32;
    let eps = 0.3;

    let mut group = c.benchmark_group("partitioning");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    group.sample_size(10);
    group.bench_function("pseudo_random_cells", |b| {
        b.iter(|| {
            let cells = group_by_cell(&spec, &data);
            black_box(pseudo_random_deal(cells, k, 0).len())
        })
    });
    group.bench_function("true_random_points", |b| {
        b.iter(|| black_box(true_random_partition(&spec, &data, k, 0).len()))
    });
    for (name, strategy) in [
        ("region_even_split", SplitStrategy::EvenSplit),
        ("region_reduced_boundary", SplitStrategy::ReducedBoundary),
        ("region_cost_based", SplitStrategy::CostBased),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(split_regions(&data, k, eps, strategy).len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_partitioning);
criterion_main!(benches);

//! Criterion micro-bench: `(ε,ρ)`-region queries.
//!
//! Covers the §7.6 anatomy claims at micro scale:
//! * query cost vs ρ (coarser ρ → fewer sub-cells → faster queries);
//! * defragmentation + MBR skipping vs a single monolithic dictionary
//!   (the §5.2 ablation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpdbscan_data::{synth, SynthConfig};
use rpdbscan_grid::{CellDictionary, DictionaryIndex, GridSpec, RegionQueryResult};
use std::hint::black_box;
use std::time::Duration;

fn bench_rho(c: &mut Criterion) {
    let data = synth::geolife_like(SynthConfig::new(20_000));
    let mut group = c.benchmark_group("region_query_rho");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    for rho in [0.10, 0.05, 0.01] {
        let spec = GridSpec::new(3, 0.5, rho).expect("valid grid");
        let dict = CellDictionary::build_from_points(spec, data.iter().map(|(_, p)| p));
        let index = DictionaryIndex::new(dict, 1 << 14);
        let queries: Vec<&[f64]> = data.iter().take(200).map(|(_, p)| p).collect();
        let mut r = RegionQueryResult::default();
        group.bench_with_input(BenchmarkId::from_parameter(rho), &rho, |b, _| {
            b.iter(|| {
                let mut total = 0u64;
                for q in &queries {
                    index.region_query_cells_into(black_box(q), &mut r);
                    total += r.density;
                }
                black_box(total)
            })
        });
    }
    group.finish();
}

fn bench_defrag_ablation(c: &mut Criterion) {
    let data = synth::geolife_like(SynthConfig::new(20_000));
    let spec = GridSpec::new(3, 0.5, 0.01).expect("valid grid");
    let dict = CellDictionary::build_from_points(spec, data.iter().map(|(_, p)| p));
    let queries: Vec<&[f64]> = data.iter().take(200).map(|(_, p)| p).collect();

    let mut group = c.benchmark_group("region_query_defrag");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    let mut r = RegionQueryResult::default();
    let single = DictionaryIndex::single(dict.clone());
    group.bench_function("single_dictionary", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for q in &queries {
                single.region_query_cells_into(black_box(q), &mut r);
                total += r.density;
            }
            black_box(total)
        })
    });
    let frag = DictionaryIndex::new(dict, 4096);
    group.bench_function("defragmented_with_mbr_skip", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for q in &queries {
                frag.region_query_cells_into(black_box(q), &mut r);
                total += r.density;
            }
            black_box(total)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_rho, bench_defrag_ablation);
criterion_main!(benches);

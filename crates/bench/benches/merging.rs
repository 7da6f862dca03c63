//! Criterion micro-bench / ablation: progressive graph merging.
//!
//! Measures a tournament over realistic cell subgraphs, and the §6.1.4
//! ablation — merging with vs without redundant-full-edge reduction (the
//! reduction is what keeps later rounds cheap, Figure 17).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpdbscan_core::graph::{CellSubgraph, CellType};
use rpdbscan_core::merge::{merge_runs, tournament, Run, RunReader};
use rpdbscan_engine::{CostModel, Engine};
use std::hint::black_box;
use std::time::Duration;

/// Builds `k` subgraphs over a shared core-cell universe, mimicking
/// Phase II output: each partition knows a disjoint slice of vertex types
/// and contributes edges into the whole universe.
fn synth_subgraphs(k: usize, cells: u32, edges_per_graph: usize, seed: u64) -> Vec<CellSubgraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let slice = cells / k as u32;
    (0..k)
        .map(|i| {
            let lo = i as u32 * slice;
            let hi = if i == k - 1 { cells } else { lo + slice };
            let types = (lo..hi)
                .map(|c| {
                    let t = if rng.gen_bool(0.8) {
                        CellType::Core
                    } else {
                        CellType::NonCore
                    };
                    (c, t)
                })
                .collect();
            let mut edges = Vec::with_capacity(edges_per_graph);
            for _ in 0..edges_per_graph {
                let from = rng.gen_range(lo..hi);
                // Edges target nearby cells, as real reachability does.
                let to = (from as i64 + rng.gen_range(-40..40)).clamp(0, cells as i64 - 1) as u32;
                if from != to {
                    edges.push((from, to));
                }
            }
            CellSubgraph::new(types, edges)
        })
        .collect()
}

fn bench_tournament(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_merging");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    // One worker: the rounds run back to back, so this times the merge
    // itself rather than the host's parallelism.
    let engine = Engine::with_cost_model(1, CostModel::free());
    group.bench_function("tournament_16x5000_edges", |b| {
        b.iter_with_setup(
            || {
                synth_subgraphs(16, 20_000, 5_000, 7)
                    .into_iter()
                    .map(Run::Memory)
                    .collect::<Vec<_>>()
            },
            |runs| {
                let t = tournament(&engine, runs, None).expect("in-memory tournament");
                black_box(t.global.num_edges())
            },
        )
    });
    group.bench_function("single_merge_runs", |b| {
        let gs = synth_subgraphs(2, 20_000, 20_000, 9);
        b.iter(|| {
            let (g, _) = merge_runs(RunReader::memory(&gs[0]), RunReader::memory(&gs[1]))
                .expect("in-memory merge");
            black_box(g.num_edges())
        })
    });
    // Ablation: union without edge reduction (what merging would cost if
    // cycles were kept — the edge count never shrinks).
    group.bench_function("union_without_reduction", |b| {
        b.iter_with_setup(
            || synth_subgraphs(16, 20_000, 5_000, 7),
            |graphs| {
                let types = graphs.iter().flat_map(|g| g.types()).copied().collect();
                let edges = graphs.iter().flat_map(|g| g.edges()).copied().collect();
                black_box(CellSubgraph::new(types, edges).num_edges())
            },
        )
    });
    group.finish();
}

criterion_group!(benches, bench_tournament);
criterion_main!(benches);

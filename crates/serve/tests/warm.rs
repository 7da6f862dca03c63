//! Warm-at-publish: a fresh generation published through the server
//! pre-populates the generation-scoped plan LRU, so classify traffic
//! into occupied cells never builds a plan cold.

use std::sync::Arc;

use rpdbscan_core::{RpDbscan, RpDbscanParams};
use rpdbscan_engine::{CostModel, Engine};
use rpdbscan_geom::Dataset;
use rpdbscan_serve::{Request, Server, ServerConfig, ServingIndex};

fn built_index(generation: u64) -> (Dataset, Arc<ServingIndex>) {
    let rows: Vec<Vec<f64>> = (0..80)
        .map(|i| vec![(i % 20) as f64 * 0.2, (i / 20) as f64 * 0.2])
        .collect();
    let data = Dataset::from_rows(2, &rows).unwrap();
    let params = RpDbscanParams::new(0.5, 4);
    let out = RpDbscan::new(params).unwrap().run_local(&data).unwrap();
    let index = Arc::new(ServingIndex::from_batch(&data, &out, 4, generation).unwrap());
    (data, index)
}

/// Classifies every indexed point through the server and returns how
/// many responses came back.
fn classify_all(server: &Server, data: &Dataset) -> usize {
    let mut served = 0;
    for i in 0..data.len() {
        let q = data.point(rpdbscan_geom::PointId(i as u32)).to_vec();
        server.submit(Request::Classify(q)).unwrap();
        if i % 64 == 63 {
            served += server.drain().unwrap().len();
        }
    }
    served + server.drain().unwrap().len()
}

#[test]
fn fresh_generation_publish_builds_no_cold_plans_for_occupied_cells() {
    let (data, index1) = built_index(1);
    let server = Server::new(
        Engine::with_cost_model(2, CostModel::free()),
        Arc::clone(&index1),
        ServerConfig {
            cache_capacity: 4096,
            ..ServerConfig::default()
        },
    );
    let after_construct = server.stats();
    assert!(
        after_construct.plans_warmed as usize >= index1.num_cells(),
        "construction warms every occupied cell ({} warmed, {} cells)",
        after_construct.plans_warmed,
        index1.num_cells()
    );

    // Every indexed point lands in an occupied cell: all plan lookups
    // must be warm hits, zero cold builds.
    assert_eq!(classify_all(&server, &data), data.len());
    let stats = server.stats();
    assert_eq!(stats.cache_misses, 0, "occupied cell built a plan cold");
    assert!(stats.cache_hits >= 1);

    // A query one cell outside the occupied region lands in the warmed
    // unoccupied halo — its window candidate list was precomputed too.
    server.submit(Request::Classify(vec![-0.2, 0.0])).unwrap();
    server.drain().unwrap();
    assert_eq!(
        server.stats().cache_misses,
        0,
        "halo cell plan was not pre-warmed"
    );

    // A *fresh generation* published through the server re-warms the
    // re-scoped cache: classify traffic stays free of cold builds.
    let (_, index2) = built_index(2);
    assert!(server.publish_if_newer(Arc::clone(&index2)));
    assert_eq!(classify_all(&server, &data), data.len());
    let stats = server.stats();
    assert_eq!(
        stats.cache_misses, 0,
        "fresh generation publish left occupied cells cold"
    );
    assert!(
        stats.plans_warmed >= 2 * after_construct.plans_warmed,
        "second publish warmed again"
    );

    // Same-or-older generations do not swap and do not re-warm.
    let warmed_before = server.stats().plans_warmed;
    assert!(!server.publish_if_newer(index2));
    assert_eq!(server.stats().plans_warmed, warmed_before);
}

#[test]
fn cold_publish_builds_on_first_miss() {
    let (data, index) = built_index(1);
    let server = Server::new(
        Engine::with_cost_model(2, CostModel::free()),
        index,
        ServerConfig {
            cache_capacity: 4096,
            warm_on_publish: false,
            ..ServerConfig::default()
        },
    );
    assert_eq!(server.stats().plans_warmed, 0);
    assert_eq!(classify_all(&server, &data), data.len());
    let stats = server.stats();
    assert!(
        stats.cache_misses >= 1,
        "cold publish must build plans on demand"
    );
}

//! Admission control and micro-batch execution, across schedulers.
//!
//! A full queue must reject with `Overloaded` — never block or deadlock
//! — and a drain must answer everything admitted, in ticket order, under
//! every scheduler the engine offers.

use std::sync::Arc;

use rpdbscan_core::{RpDbscan, RpDbscanParams};
use rpdbscan_engine::{ChunkedSteal, CostModel, Engine, Fifo, Lpt};
use rpdbscan_geom::Dataset;
use rpdbscan_serve::{Request, Response, ServeError, Server, ServerConfig, ServingIndex};

fn built_index() -> (Dataset, Arc<ServingIndex>, RpDbscanParams) {
    let rows: Vec<Vec<f64>> = (0..80)
        .map(|i| vec![(i % 20) as f64 * 0.2, (i / 20) as f64 * 0.2])
        .collect();
    let data = Dataset::from_rows(2, &rows).unwrap();
    let params = RpDbscanParams::new(0.5, 4);
    let out = RpDbscan::new(params).unwrap().run_local(&data).unwrap();
    let index = Arc::new(ServingIndex::from_batch(&data, &out, 4, 1).unwrap());
    (data, index, params)
}

fn engines() -> Vec<Engine> {
    vec![
        Engine::with_cost_model(4, CostModel::free()).with_scheduler(Fifo),
        Engine::with_cost_model(4, CostModel::free()).with_scheduler(Lpt),
        Engine::with_cost_model(4, CostModel::free()).with_scheduler(ChunkedSteal::new(2)),
    ]
}

#[test]
fn full_queue_rejects_then_recovers() {
    let (data, index, _) = built_index();
    for engine in engines() {
        let name = engine.scheduler_name();
        let server = Server::new(
            engine,
            Arc::clone(&index),
            ServerConfig {
                queue_capacity: 4,
                cache_capacity: 8,
                ..ServerConfig::default()
            },
        );
        // Fill the queue with a mix of request kinds.
        let tickets: Vec<u64> = vec![
            Request::LabelOf(0),
            Request::Classify(data.point(rpdbscan_geom::PointId(1)).to_vec()),
            Request::ClusterStats(0),
            Request::LabelOf(9999),
        ]
        .into_iter()
        .map(|r| server.submit(r).unwrap())
        .collect();
        assert_eq!(tickets, vec![0, 1, 2, 3], "scheduler {name}");
        assert_eq!(server.queue_len(), 4);

        // Admission control: the fifth request bounces immediately.
        let err = server.submit(Request::LabelOf(5)).unwrap_err();
        assert!(
            matches!(err, ServeError::Overloaded { capacity: 4 }),
            "scheduler {name}: {err}"
        );
        assert_eq!(server.queue_len(), 4, "rejection leaves the queue intact");

        // Drain answers everything admitted, in ticket order.
        let responses = server.drain().unwrap();
        assert_eq!(responses.len(), 4, "scheduler {name}");
        for (i, (t, _)) in responses.iter().enumerate() {
            assert_eq!(*t, i as u64);
        }
        match &responses[0].1 {
            Response::Label(Some(_)) => {}
            other => panic!("scheduler {name}: expected stored label, got {other:?}"),
        }
        match &responses[3].1 {
            Response::Label(None) => {}
            other => panic!("scheduler {name}: unknown id must be None, got {other:?}"),
        }

        // The queue is free again; tickets keep ascending past the
        // rejected request (which consumed none).
        assert_eq!(server.queue_len(), 0);
        assert_eq!(server.submit(Request::LabelOf(1)).unwrap(), 4);
        let again = server.drain().unwrap();
        assert_eq!(again.len(), 1);

        let stats = server.stats();
        assert_eq!(stats.submitted, 5, "scheduler {name}");
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.served, 5);
        assert_eq!(stats.batches, 2);
    }
}

#[test]
fn drain_on_empty_queue_is_a_noop() {
    let (_, index, _) = built_index();
    let engine = Engine::with_cost_model(2, CostModel::free());
    let server = Server::new(engine, index, ServerConfig::default());
    assert!(server.drain().unwrap().is_empty());
    let stats = server.stats();
    assert_eq!(stats.batches, 0, "empty drains run no stage");
}

#[test]
fn execute_returns_responses_in_request_order() {
    let (data, index, _) = built_index();
    let engine = Engine::with_cost_model(4, CostModel::free());
    let server = Server::new(engine, Arc::clone(&index), ServerConfig::default());
    let reqs: Vec<Request> = (0..20)
        .map(|i| match i % 3 {
            0 => Request::LabelOf(i as u32),
            1 => Request::Classify(data.point(rpdbscan_geom::PointId(i as u32)).to_vec()),
            _ => Request::ClusterStats(0),
        })
        .collect();
    let responses = server.execute(reqs).unwrap();
    assert_eq!(responses.len(), 20);
    for (i, resp) in responses.iter().enumerate() {
        match (i % 3, resp) {
            (0, Response::Label(Some(l))) => {
                assert_eq!(*l, index.label_of(i as u32).unwrap());
            }
            (1, Response::Classified(c)) => {
                assert_eq!(c.label, index.label_of(i as u32).unwrap());
            }
            (2, Response::Stats(Some(_))) => {}
            other => panic!("request {i}: unexpected response {other:?}"),
        }
    }
}

#[test]
fn classify_plans_hit_the_cache_on_repeat_traffic() {
    let (data, index, _) = built_index();
    let q = data.point(rpdbscan_geom::PointId(0)).to_vec();

    // Default (warm publish): construction pre-builds every occupied
    // cell's plan, so even the first lookup is a hit.
    let engine = Engine::with_cost_model(2, CostModel::free());
    let server = Server::new(engine, Arc::clone(&index), ServerConfig::default());
    for _ in 0..3 {
        server.submit(Request::Classify(q.clone())).unwrap();
        server.drain().unwrap();
    }
    let stats = server.stats();
    assert!(stats.plans_warmed >= 1, "warm publish built plans");
    assert_eq!(stats.cache_misses, 0, "warmed plan is never built cold");
    assert_eq!(stats.cache_hits, 3, "every batch reuses the warm plan");
    assert!(stats.classify.count() >= 1, "classify latencies recorded");

    // Cold publish: the historical build-on-first-miss behaviour.
    let engine = Engine::with_cost_model(2, CostModel::free());
    let server = Server::new(
        engine,
        index,
        ServerConfig {
            warm_on_publish: false,
            ..ServerConfig::default()
        },
    );
    for _ in 0..3 {
        server.submit(Request::Classify(q.clone())).unwrap();
        server.drain().unwrap();
    }
    let stats = server.stats();
    assert_eq!(stats.plans_warmed, 0);
    assert_eq!(stats.cache_misses, 1, "first lookup builds the plan");
    assert_eq!(stats.cache_hits, 2, "repeats reuse it");
}

#[test]
fn malformed_classify_fails_at_admission() {
    let (_, index, _) = built_index();
    let engine = Engine::with_cost_model(2, CostModel::free());
    let server = Server::new(engine, index, ServerConfig::default());
    assert!(matches!(
        server.submit(Request::Classify(vec![1.0])),
        Err(ServeError::DimensionMismatch {
            expected: 2,
            got: 1
        })
    ));
    assert!(matches!(
        server.submit(Request::Classify(vec![f64::NAN, 0.0])),
        Err(ServeError::NonFinite)
    ));
    assert_eq!(server.queue_len(), 0);
    let stats = server.stats();
    assert_eq!(stats.submitted, 0);
}

//! The streaming subsystem's headline invariant: after any interleaving of
//! insert/remove micro-batches, the incremental clustering equals a fresh
//! batch `RpDbscan::run_local` over the surviving points — Rand index 1.0,
//! not merely "close".

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rpdbscan_core::{RpDbscan, RpDbscanParams};
use rpdbscan_data::synth::{blobs, gaussian_mixture_with, moons, SynthConfig};
use rpdbscan_geom::Dataset;
use rpdbscan_metrics::{rand_index, NoisePolicy};
use rpdbscan_stream::{StreamPointId, StreamingRpDbscan};

/// Replays `data` into a stream as a random interleaving of insert and
/// remove batches (driven by `seed`), checking after every applied batch
/// that the snapshot equals the batch algorithm over the live points.
fn check_random_interleaving(data: &Dataset, params: RpDbscanParams, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..data.len()).collect();
    order.shuffle(&mut rng);
    let mut s = StreamingRpDbscan::new(data.dim(), params).expect("valid stream params");
    let mut live: Vec<StreamPointId> = Vec::new();
    let mut next = 0usize;
    let mut applied = 0usize;
    while next < order.len() || applied < 6 {
        let do_remove = !live.is_empty() && (next >= order.len() || rng.gen_range(0..10) < 4);
        if do_remove {
            let k = rng.gen_range(1..=live.len().min(40));
            let mut doomed = Vec::with_capacity(k);
            for _ in 0..k {
                let i = rng.gen_range(0..live.len());
                doomed.push(live.swap_remove(i));
            }
            s.remove_batch(&doomed).expect("remove live ids");
        } else {
            let k = rng.gen_range(1..=(order.len() - next).min(60));
            let mut flat = Vec::with_capacity(k * data.dim());
            for &i in &order[next..next + k] {
                flat.extend_from_slice(data.point_at(i));
            }
            next += k;
            live.extend(s.insert_batch(&flat).expect("insert batch"));
        }
        applied += 1;

        let current = s.dataset();
        assert_eq!(current.len(), live.len());
        let snap = s.snapshot();
        assert_eq!(snap.epoch, applied as u64);
        if current.is_empty() {
            continue;
        }
        let batch = RpDbscan::new(params)
            .expect("valid params")
            .run_local(&current)
            .expect("batch run succeeds");
        let ri = rand_index(&snap.labels, &batch.clustering, NoisePolicy::SingleCluster);
        assert_eq!(
            ri,
            1.0,
            "epoch {} ({} live points): stream diverged from batch",
            snap.epoch,
            current.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn moons_interleavings_match_batch(seed in 0u64..10_000) {
        let data = moons(SynthConfig::new(220).with_seed(seed), 0.05);
        let params = RpDbscanParams::new(0.2, 4);
        check_random_interleaving(&data, params, seed);
    }

    #[test]
    fn blobs_interleavings_match_batch(seed in 0u64..10_000) {
        let data = blobs(SynthConfig::new(240).with_seed(seed.wrapping_add(1)), 3, 1.0, 40.0);
        let params = RpDbscanParams::new(1.0, 5);
        check_random_interleaving(&data, params, seed);
    }

    #[test]
    fn gaussian_mixture_interleavings_match_batch(seed in 0u64..10_000) {
        let data = gaussian_mixture_with(
            SynthConfig::new(240).with_seed(seed.wrapping_add(2)),
            3,
            1.0,
            4,
            30.0,
        );
        let params = RpDbscanParams::new(1.2, 5);
        check_random_interleaving(&data, params, seed);
    }
}

/// Two dense blocks joined by a two-row bridge: removing the bridge must
/// split the cluster, re-inserting it must merge the halves back — and at
/// every stage the stream must agree with the batch algorithm.
#[test]
fn bridge_removal_splits_and_reinsertion_merges() {
    let params = RpDbscanParams::new(0.5, 4);
    let block = |x0: f64| -> Vec<f64> {
        let mut v = Vec::new();
        for i in 0..5 {
            for j in 0..3 {
                v.extend([x0 + i as f64 * 0.3, j as f64 * 0.3]);
            }
        }
        v
    };
    let bridge: Vec<f64> = {
        let mut v = Vec::new();
        let mut x = 1.5;
        while x < 4.75 {
            v.extend([x, 0.0]);
            v.extend([x, 0.3]);
            x += 0.3;
        }
        v
    };

    let mut s = StreamingRpDbscan::new(2, params).unwrap();
    s.insert_batch(&block(0.0)).unwrap();
    s.insert_batch(&block(4.8)).unwrap();
    let check = |s: &StreamingRpDbscan| {
        let snap = s.snapshot();
        let batch = RpDbscan::new(params)
            .unwrap()
            .run_local(&s.dataset())
            .unwrap();
        let ri = rand_index(&snap.labels, &batch.clustering, NoisePolicy::SingleCluster);
        assert_eq!(ri, 1.0, "epoch {}", snap.epoch);
        snap.labels.num_clusters()
    };
    assert_eq!(check(&s), 2, "separated blocks are two clusters");

    let bridge_ids = s.insert_batch(&bridge).unwrap();
    assert_eq!(check(&s), 1, "the bridge merges the blocks");

    s.remove_batch(&bridge_ids).unwrap();
    assert_eq!(check(&s), 2, "removing the bridge splits the cluster");

    s.insert_batch(&bridge).unwrap();
    assert_eq!(check(&s), 1, "re-inserting the bridge merges again");
}

/// Draining the stream completely and refilling it must work: slot reuse,
/// dictionary compaction, and component rebuilds all get exercised.
#[test]
fn drain_and_refill() {
    let params = RpDbscanParams::new(1.0, 4);
    let data = blobs(SynthConfig::new(120).with_seed(9), 2, 0.8, 20.0);
    let mut s = StreamingRpDbscan::new(2, params).unwrap();
    let ids = s.insert_batch(data.flat()).unwrap();
    s.remove_batch(&ids).unwrap();
    assert!(s.is_empty());
    assert_eq!(s.snapshot().labels.len(), 0);
    let ids2 = s.insert_batch(data.flat()).unwrap();
    assert_eq!(ids2.len(), data.len());
    let batch = RpDbscan::new(params)
        .unwrap()
        .run_local(&s.dataset())
        .unwrap();
    let ri = rand_index(
        &s.snapshot().labels,
        &batch.clustering,
        NoisePolicy::SingleCluster,
    );
    assert_eq!(ri, 1.0);
}

/// Input validation: malformed batches are rejected without mutating the
/// stream.
#[test]
fn invalid_batches_are_rejected() {
    use rpdbscan_stream::StreamError;
    let mut s = StreamingRpDbscan::new(2, RpDbscanParams::new(1.0, 4)).unwrap();
    // Ragged flat buffer.
    assert!(matches!(
        s.insert_batch(&[1.0, 2.0, 3.0]),
        Err(StreamError::DimensionMismatch { .. })
    ));
    // Non-finite coordinate.
    assert!(matches!(
        s.insert_batch(&[0.0, f64::NAN]),
        Err(StreamError::NonFinite { index: 0 })
    ));
    // Unknown and repeated removals.
    let ids = s.insert_batch(&[0.0, 0.0, 1.0, 1.0]).unwrap();
    assert!(matches!(
        s.remove_batch(&[StreamPointId(99)]),
        Err(StreamError::UnknownPoint(99))
    ));
    assert!(matches!(
        s.remove_batch(&[ids[0], ids[0]]),
        Err(StreamError::UnknownPoint(_))
    ));
    // Failed validation left the points alone.
    assert_eq!(s.len(), 2);
    // min_pts = 0 rejected at construction.
    assert!(matches!(
        StreamingRpDbscan::new(2, RpDbscanParams::new(1.0, 0)),
        Err(StreamError::InvalidMinPts(0))
    ));
}

/// A dense clump (12 points in one cell, side 1/√2 ≈ 0.707) and a sparse
/// run (5 points), each followed by a second batch landing in the same
/// cell: both streams equal a batch run over their points after every
/// batch.
#[test]
fn dense_clump_and_sparse_streams_match_batch() {
    let params = RpDbscanParams::new(1.0, 3);
    for n in [12, 5] {
        let mut s = StreamingRpDbscan::new(2, params).unwrap();
        let first: Vec<f64> = (0..n).flat_map(|i| [i as f64 * 0.05, 0.0]).collect();
        for batch in [first, vec![0.02, 0.01]] {
            s.insert_batch(&batch).unwrap();
            let want = RpDbscan::new(params)
                .unwrap()
                .run_local(&s.dataset())
                .unwrap();
            let ri = rand_index(
                &s.snapshot().labels,
                &want.clustering,
                NoisePolicy::SingleCluster,
            );
            assert_eq!(ri, 1.0, "{n}-point stream diverged from batch");
        }
    }
}

//! Bit-exactness of the serving read path.
//!
//! `classify(coords)` on an indexed point must return exactly the label
//! the Phase III pipeline stored for it — across ρ ∈ {1.0, 0.1},
//! dimensions 1–3, shard counts, and both index sources (batch run and
//! streaming snapshot).

use std::f64::consts::TAU;

use rpdbscan_core::{RpDbscan, RpDbscanParams};
use rpdbscan_geom::{Dataset, PointId};
use rpdbscan_serve::{ServeError, ServingIndex};
use rpdbscan_stream::StreamingRpDbscan;

/// Deterministic golden-angle blob around `center`.
fn blob(dim: usize, center: &[f64], n: usize, spread: f64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let a = i as f64 * 0.618_033_988_75 * TAU;
            let r = spread * ((i % 10) as f64 / 10.0);
            (0..dim)
                .map(|d| {
                    center[d]
                        + match d {
                            0 => r * a.cos(),
                            1 => r * a.sin(),
                            _ => 0.3 * r * (a * d as f64).sin(),
                        }
                })
                .collect()
        })
        .collect()
}

/// Two blobs, a border point, and two far outliers.
fn test_rows(dim: usize) -> Vec<Vec<f64>> {
    let c1 = vec![0.0; dim];
    let mut c2 = vec![3.0; dim];
    c2[0] = 9.0;
    let mut rows = blob(dim, &c1, 60, 0.4);
    rows.extend(blob(dim, &c2, 60, 0.4));
    let mut border = vec![0.0; dim];
    border[0] = 0.9; // within eps=1.0 of blob 1's rim, too sparse to be core
    rows.push(border);
    rows.push(vec![50.0; dim]);
    rows.push(vec![-40.0; dim]);
    rows
}

#[test]
fn classify_matches_batch_labels_exactly() {
    for dim in 1..=3usize {
        for rho in [1.0, 0.1] {
            let rows = test_rows(dim);
            let data = Dataset::from_rows(dim, &rows).unwrap();
            let params = RpDbscanParams::new(1.0, 5).with_rho(rho);
            let out = RpDbscan::new(params).unwrap().run_local(&data).unwrap();
            assert!(out.clustering.num_clusters() >= 1, "dim={dim} rho={rho}");
            for shards in [0usize, 1, 4] {
                let index = ServingIndex::from_batch(&data, &out, shards, 7).unwrap();
                // Zero shards are served as one.
                assert_eq!(index.num_shards(), shards.max(1));
                assert_eq!(index.num_points(), data.len());
                for i in 0..data.len() {
                    let stored = out.clustering.labels()[i];
                    let q = data.point(PointId(i as u32));
                    let c = index.classify(q).unwrap();
                    assert_eq!(
                        c.label, stored,
                        "dim={dim} rho={rho} shards={shards} point={i}"
                    );
                    assert!(c.density >= 1, "an indexed point sees itself");
                    assert_eq!(index.label_of(i as u32), Some(stored));
                }
                // Unknown ids are distinguishable from noise labels.
                assert_eq!(index.label_of(data.len() as u32 + 10), None);
            }
        }
    }
}

#[test]
fn classify_matches_streaming_snapshot_exactly() {
    for dim in [2usize, 3] {
        for rho in [1.0, 0.1] {
            let rows = test_rows(dim);
            let params = RpDbscanParams::new(1.0, 5).with_rho(rho);
            let mut s = StreamingRpDbscan::new(dim, params).unwrap();
            // Three micro-batches, so the index reflects epoch 3.
            for chunk in rows.chunks(rows.len().div_ceil(3)) {
                s.insert_rows(chunk).unwrap();
            }
            let snap = s.snapshot();
            let data = s.dataset();
            let index = ServingIndex::from_stream(&s, 4);
            assert_eq!(index.generation(), snap.epoch());
            assert_eq!(index.num_points(), snap.ids.len());
            for (row, (id, &stored)) in snap.ids.iter().zip(snap.labels.labels().iter()).enumerate()
            {
                let q = data.point(PointId(row as u32));
                let c = index.classify(q).unwrap();
                assert_eq!(c.label, stored, "dim={dim} rho={rho} id={}", id.0);
                assert_eq!(index.label_of(id.0), Some(stored));
            }
        }
    }
}

#[test]
fn planned_classify_matches_scalar_oracle_bit_for_bit() {
    // The planned path (Phase II's plan built from the lattice window +
    // chunked kernel) must reproduce the scalar reference *exactly* —
    // label and density — on indexed points, perturbed probes, probes
    // exactly on lattice corners and cell faces, probes in unoccupied
    // cells next to a blob, and far empty space. Dim 4 sends the window
    // through its table-scan branch.
    for dim in 1..=4usize {
        for rho in [1.0, 0.1, 0.01] {
            let rows = test_rows(dim);
            let data = Dataset::from_rows(dim, &rows).unwrap();
            let params = RpDbscanParams::new(1.0, 5).with_rho(rho);
            let out = RpDbscan::new(params).unwrap().run_local(&data).unwrap();
            let mut probes: Vec<Vec<f64>> = rows.clone();
            probes.extend(rows.iter().map(|r| {
                let mut p = r.clone();
                p[0] += 0.37; // off-lattice: exercises partial containment
                p
            }));
            probes.push(vec![1.3; dim]); // unoccupied cell near blob 1
            probes.push(vec![123.4; dim]); // far empty space
            for shards in [1usize, 4] {
                let index = ServingIndex::from_batch(&data, &out, shards, 1).unwrap();
                let spec = index.spec().clone();
                let side = spec.side();
                let occupied: std::collections::HashSet<_> =
                    rows.iter().map(|r| spec.cell_of(r)).collect();
                let mut probes = probes.clone();
                // Around both blob centres: every lattice corner (an
                // integer multiple of `side` per axis), a point on a face
                // of each cell, and the centre of each unoccupied cell.
                let mut c2 = vec![3.0; dim];
                c2[0] = 9.0;
                for centre in [vec![0.0; dim], c2] {
                    let home = spec.cell_of(&centre);
                    let lo: Vec<i64> = home.coords().iter().map(|&c| c - 2).collect();
                    let hi: Vec<i64> = home.coords().iter().map(|&c| c + 2).collect();
                    rpdbscan_grid::for_each_in_box(&lo, &hi, |k| {
                        let corner: Vec<f64> = k.iter().map(|&c| c as f64 * side).collect();
                        let mut face = corner.clone();
                        for v in face.iter_mut().skip(1) {
                            *v += 0.37 * side;
                        }
                        probes.push(corner);
                        probes.push(face);
                        if !occupied.contains(&rpdbscan_grid::CellCoord::new(k.iter().copied())) {
                            probes.push(k.iter().map(|&c| (c as f64 + 0.5) * side).collect());
                        }
                    });
                }
                for q in &probes {
                    let planned = index.classify(q).unwrap();
                    let oracle = index.classify_oracle(q).unwrap();
                    assert_eq!(
                        planned, oracle,
                        "dim={dim} rho={rho} shards={shards} q={q:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn unoccupied_cells_resolve_against_nearby_core_cells() {
    // dim 1: cell side = eps, so x=1.3 sits in an unoccupied cell while
    // still within eps of blob 1's rim (the dense rim point at x=0.9).
    let rows = test_rows(1);
    let data = Dataset::from_rows(1, &rows).unwrap();
    let params = RpDbscanParams::new(1.0, 5);
    let out = RpDbscan::new(params).unwrap().run_local(&data).unwrap();
    let index = ServingIndex::from_batch(&data, &out, 4, 1).unwrap();
    let near = index.classify(&[1.3]).unwrap();
    assert_eq!(near.label, out.clustering.labels()[0], "joins blob 1");
    // Far away: no label, zero density.
    let far = index.classify(&[1234.5]).unwrap();
    assert_eq!(far.label, None);
    assert_eq!(far.density, 0);
}

#[test]
fn query_validation_rejects_bad_coordinates() {
    let rows = test_rows(2);
    let data = Dataset::from_rows(2, &rows).unwrap();
    let params = RpDbscanParams::new(1.0, 5);
    let out = RpDbscan::new(params).unwrap().run_local(&data).unwrap();
    let index = ServingIndex::from_batch(&data, &out, 2, 1).unwrap();
    assert!(matches!(
        index.classify(&[1.0]),
        Err(rpdbscan_serve::ServeError::DimensionMismatch {
            expected: 2,
            got: 1
        })
    ));
    assert!(matches!(
        index.classify(&[f64::NAN, 0.0]),
        Err(rpdbscan_serve::ServeError::NonFinite)
    ));
}

#[test]
fn cluster_stats_are_consistent_with_labels() {
    let rows = test_rows(2);
    let data = Dataset::from_rows(2, &rows).unwrap();
    let params = RpDbscanParams::new(1.0, 5);
    let out = RpDbscan::new(params).unwrap().run_local(&data).unwrap();
    let index = ServingIndex::from_batch(&data, &out, 4, 1).unwrap();
    assert_eq!(index.num_clusters(), out.clustering.num_clusters());
    let mut labeled = 0usize;
    for c in 0..index.num_clusters() as u32 {
        let cs = index.cluster_stats(c).expect("dense cluster ids");
        assert_eq!(cs.cluster, c);
        assert!(cs.points >= 1);
        assert!(cs.core_cells >= 1);
        assert!(cs.core_points >= 1);
        assert!(
            cs.core_points <= cs.points,
            "core points are labeled points"
        );
        let by_count = out
            .clustering
            .labels()
            .iter()
            .filter(|&&l| l == Some(c))
            .count();
        assert_eq!(cs.points, by_count);
        labeled += cs.points;
    }
    assert_eq!(labeled + out.clustering.noise_count(), data.len());
    assert!(index.cluster_stats(index.num_clusters() as u32).is_none());
}

/// Every read a patched generation can answer must be bit-identical to
/// a fresh `from_stream` build of the same epoch: labels, classify
/// results, stats, and the shard-generation invariant — across dims,
/// shard counts, and a churn mix of inserts and removes (so the
/// incremental label path sees removals, border moves, and slot reuse).
/// A fresh build is itself a patch (of an empty generation), so labels
/// are also pinned to the stream's own snapshot and classify to the
/// scalar oracle, neither of which shares the patch code.
#[test]
fn patched_generations_read_bit_identical_to_fresh_builds() {
    for dim in [1usize, 3] {
        for shards in [1usize, 3, 4] {
            let params = RpDbscanParams::new(1.0, 4);
            let mut s = StreamingRpDbscan::new(dim, params).unwrap();
            let rows = test_rows(dim);
            let third = rows.len().div_ceil(3);
            let first = s.insert_rows(&rows[..third]).unwrap();
            let mut prev = std::sync::Arc::new(ServingIndex::from_stream(&s, shards));

            // Epoch chain: grow, churn (remove every third survivor of
            // the first batch — enough to empty cells and move borders),
            // grow again, then shrink hard.
            let removals: Vec<_> = first.iter().step_by(3).copied().collect();
            s.insert_rows(&rows[third..2 * third]).unwrap();
            s.remove_batch(&removals).unwrap();
            s.insert_rows(&rows[2 * third..]).unwrap();
            let late = s.insert_rows(&rows[..third]).unwrap();
            for step in [1usize, 2] {
                // Two patch steps per case: the second spans the epochs
                // the first already consumed.
                if step == 2 {
                    s.remove_batch(&late).unwrap();
                }
                let patched = ServingIndex::patch_from_stream(&prev, &s).unwrap();
                let fresh = ServingIndex::from_stream(&s, shards);
                let ctx = format!("dim={dim} shards={shards} step={step}");
                assert!(patched.patch_summary().is_some(), "{ctx}");
                assert!(fresh.patch_summary().is_none(), "{ctx}");
                assert_eq!(patched.generation(), fresh.generation(), "{ctx}");
                assert_eq!(patched.verify_shards(), Some(patched.generation()), "{ctx}");
                assert_eq!(patched.num_points(), fresh.num_points(), "{ctx}");
                assert_eq!(patched.num_cells(), fresh.num_cells(), "{ctx}");
                assert_eq!(patched.num_clusters(), fresh.num_clusters(), "{ctx}");
                for c in 0..fresh.num_clusters() as u32 {
                    assert_eq!(
                        patched.cluster_stats(c),
                        fresh.cluster_stats(c),
                        "{ctx} c={c}"
                    );
                }
                let snap = s.snapshot();
                for (id, &label) in snap.ids.iter().zip(snap.labels.labels()) {
                    assert_eq!(
                        patched.label_of(id.0),
                        fresh.label_of(id.0),
                        "{ctx} id={}",
                        id.0
                    );
                    assert_eq!(patched.label_of(id.0), Some(label), "{ctx} id={}", id.0);
                }
                // Dead slots answer None on both sides.
                for id in &removals {
                    assert_eq!(
                        patched.label_of(id.0),
                        fresh.label_of(id.0),
                        "{ctx} dead {}",
                        id.0
                    );
                }
                let data = s.dataset();
                for row in 0..data.len() {
                    let q = data.point(PointId(row as u32));
                    let c = patched.classify(q).unwrap();
                    assert_eq!(c, fresh.classify(q).unwrap(), "{ctx} row={row}");
                    assert_eq!(c, patched.classify_oracle(q).unwrap(), "{ctx} row={row}");
                }
                let probe = vec![1.3; dim];
                let c = patched.classify(&probe).unwrap();
                assert_eq!(c, fresh.classify(&probe).unwrap(), "{ctx} unoccupied probe");
                assert_eq!(
                    c,
                    patched.classify_oracle(&probe).unwrap(),
                    "{ctx} unoccupied probe"
                );
                prev = std::sync::Arc::new(patched);
            }
        }
    }
}

/// Concurrent readers across a chain of delta publishes must never see
/// a torn generation — even though every patched generation `Arc`-shares
/// untouched shards with its base, so an (incorrect) in-place shard
/// mutation would be visible through a reader's pinned `Arc`.
#[test]
fn delta_publishes_never_tear_with_arc_shared_shards() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let params = RpDbscanParams::new(1.0, 4);
    let mut s = StreamingRpDbscan::new(2, params).unwrap();
    let rows = test_rows(2);
    s.insert_rows(&rows[..rows.len() / 2]).unwrap();
    let slot = Arc::new(rpdbscan_serve::IndexSlot::new(Arc::new(
        ServingIndex::from_stream(&s, 4),
    )));
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let slot = Arc::clone(&slot);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut loads = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let index = slot.load();
                    // The pinned Arc must stay internally consistent no
                    // matter how many generations publish after it.
                    assert_eq!(index.verify_shards(), Some(index.generation()));
                    assert!(index.num_points() > 0);
                    loads += 1;
                }
                loads
            })
        })
        .collect();
    let mut inserted = s.insert_rows(&rows[rows.len() / 2..]).unwrap();
    for epoch in 0..6 {
        // Churn: drop a slice of the latest arrivals, add a fresh blob.
        let cut = inserted.len() / 3;
        s.remove_batch(&inserted[..cut]).unwrap();
        inserted = s
            .insert_rows(&blob(2, &[epoch as f64, -3.0], 30, 0.4))
            .unwrap();
        let prev = slot.load();
        let patched = ServingIndex::patch_from_stream(&prev, &s).unwrap();
        assert!(patched.patch_summary().is_some());
        slot.publish(Arc::new(patched));
    }
    stop.store(true, Ordering::Release);
    for r in readers {
        let loads = r.join().expect("reader saw a torn generation");
        assert!(loads > 0, "reader never observed a published index");
    }
}

#[test]
fn torn_generation_detector_holds_on_any_built_index() {
    let rows = test_rows(2);
    let data = Dataset::from_rows(2, &rows).unwrap();
    let params = RpDbscanParams::new(1.0, 5);
    let out = RpDbscan::new(params).unwrap().run_local(&data).unwrap();
    for g in [0u64, 1, 42, u64::MAX] {
        let index = ServingIndex::from_batch(&data, &out, 3, g).unwrap();
        assert_eq!(index.verify_generation(), Some(g));
        assert_eq!(index.generation(), g);
    }
}

#[test]
fn batch_source_rejects_a_dataset_of_the_wrong_length() {
    let rows = test_rows(2);
    let data = Dataset::from_rows(2, &rows).unwrap();
    let out = RpDbscan::new(RpDbscanParams::new(1.0, 5))
        .unwrap()
        .run_local(&data)
        .unwrap();
    let short = Dataset::from_rows(2, &rows[1..]).unwrap();
    let err = ServingIndex::from_batch(&short, &out, 4, 1).unwrap_err();
    assert!(
        matches!(err, ServeError::LabelMismatch { points, labels }
            if points == rows.len() - 1 && labels == rows.len()),
        "{err}"
    );
}

#[test]
fn batch_source_rejects_a_dataset_of_the_wrong_dimension() {
    let rows = test_rows(2);
    let data = Dataset::from_rows(2, &rows).unwrap();
    let out = RpDbscan::new(RpDbscanParams::new(1.0, 5))
        .unwrap()
        .run_local(&data)
        .unwrap();
    // Same number of points, one more coordinate each: core point ids
    // would index valid rows of the wrong shape.
    let wide: Vec<Vec<f64>> = rows.iter().map(|r| vec![r[0], r[1], 0.0]).collect();
    let wide = Dataset::from_rows(3, &wide).unwrap();
    let err = ServingIndex::from_batch(&wide, &out, 4, 1).unwrap_err();
    assert!(
        matches!(
            err,
            ServeError::DimensionMismatch {
                expected: 2,
                got: 3
            }
        ),
        "{err}"
    );
}

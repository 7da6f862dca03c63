//! Snapshot versioning: `Snapshot::epoch()` is a stable version marker
//! that only moves when a batch is applied, so hot-swap publishers can
//! skip republishing unchanged epochs.

use rpdbscan_core::{DensityBackendKind, RpDbscanParams};
use rpdbscan_stream::{StreamError, StreamPointId, StreamingRpDbscan};

fn grid_batch(n: usize) -> Vec<f64> {
    let mut flat = Vec::with_capacity(n * 2);
    for i in 0..n {
        flat.extend([(i % 8) as f64 * 0.3, (i / 8) as f64 * 0.3]);
    }
    flat
}

#[test]
fn repeated_snapshots_share_a_version() {
    let params = RpDbscanParams::new(1.0, 4);
    let mut s = StreamingRpDbscan::new(2, params).unwrap();
    let ids = s.insert_batch(&grid_batch(32)).unwrap();

    let a = s.snapshot();
    let b = s.snapshot();
    assert_eq!(a.epoch(), b.epoch(), "no batch ran between snapshots");
    assert_eq!(a.epoch, a.epoch(), "accessor mirrors the public field");
    assert_eq!(a.ids, b.ids);
    assert_eq!(a.labels.labels(), b.labels.labels());

    // Each applied batch advances the version by exactly one — inserts
    // and removals alike.
    let after_insert = {
        s.insert_batch(&[10.0, 10.0]).unwrap();
        s.snapshot().epoch()
    };
    assert_eq!(after_insert, a.epoch() + 1);

    let removed: Vec<StreamPointId> = ids[..4].to_vec();
    s.remove_batch(&removed).unwrap();
    let after_remove = s.snapshot().epoch();
    assert_eq!(after_remove, after_insert + 1);

    // And again: quiescent snapshots stay on the new version.
    assert_eq!(s.snapshot().epoch(), after_remove);
}

#[test]
fn export_cells_is_sorted_and_covers_every_occupied_cell() {
    let params = RpDbscanParams::new(1.0, 4);
    let mut s = StreamingRpDbscan::new(2, params).unwrap();
    s.insert_batch(&grid_batch(40)).unwrap();
    // A lone far-away point: a non-core occupied cell with no preds.
    s.insert_batch(&[100.0, 100.0]).unwrap();

    let cells = s.export_cells();
    assert!(!cells.is_empty());
    for w in cells.windows(2) {
        assert!(w[0].coord < w[1].coord, "exports sorted by coordinate");
    }
    let n_core_pts: usize = cells.iter().map(|c| c.core_coords.len() / 2).sum();
    assert!(n_core_pts > 0, "the dense grid has core points");
    for c in &cells {
        if c.cluster.is_some() {
            assert!(c.preds.is_empty(), "core cells carry no preds");
            assert!(!c.core_coords.is_empty());
        } else {
            assert!(
                c.core_coords.is_empty(),
                "non-core cells have no core points"
            );
            for w in c.preds.windows(2) {
                assert!(w[0] < w[1], "preds sorted by coordinate");
            }
        }
    }
}

#[test]
fn approximate_backends_are_rejected_at_construction() {
    for kind in [
        DensityBackendKind::MutualKnn { k: 10 },
        DensityBackendKind::SampledCore { sample_frac: 0.2 },
    ] {
        let params = RpDbscanParams::new(1.0, 4).with_density_backend(kind);
        let err = StreamingRpDbscan::new(2, params).unwrap_err();
        assert_eq!(err, StreamError::UnsupportedBackend(kind.name()));
        assert!(err.to_string().contains("exact density backend"), "{err}");
    }
}

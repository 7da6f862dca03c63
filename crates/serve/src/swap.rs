//! Epoch hot-swap: atomic publication of new index generations.
//!
//! Readers and the publisher share one [`IndexSlot`]. A reader clones
//! the current `Arc<ServingIndex>` out of the slot and then works
//! against an immutable object — a concurrent publication can never
//! mutate what the reader holds, only replace what the *next* reader
//! will get. The slot therefore gives each request a consistent epoch
//! for its whole lifetime, and
//! [`ServingIndex::verify_generation`] lets the hot-swap bench prove
//! the absence of torn reads outright.

use crate::index::ServingIndex;
use std::sync::{Arc, RwLock};

/// A shared slot holding the currently served index generation.
#[derive(Debug)]
pub struct IndexSlot {
    inner: RwLock<Arc<ServingIndex>>,
}

impl IndexSlot {
    /// A slot initially serving `index`.
    pub fn new(index: Arc<ServingIndex>) -> Self {
        Self {
            inner: RwLock::new(index),
        }
    }

    /// The currently published index. The returned `Arc` pins that
    /// generation for as long as the caller holds it, regardless of
    /// later publications.
    pub fn load(&self) -> Arc<ServingIndex> {
        Arc::clone(&self.inner.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// Publishes a new generation unconditionally and returns its
    /// generation number. In-flight readers keep the generation they
    /// already loaded.
    pub fn publish(&self, index: Arc<ServingIndex>) -> u64 {
        let generation = index.generation();
        *self.inner.write().unwrap_or_else(|p| p.into_inner()) = index;
        generation
    }

    /// Publishes `index` only if its generation is strictly newer than
    /// the published one; returns whether the swap happened. This is the
    /// streaming publisher's idempotence guard: snapshots of an
    /// unchanged epoch carry the same version
    /// ([`Snapshot::epoch`](rpdbscan_stream::Snapshot::epoch)), so
    /// republishing them is skipped.
    pub fn publish_if_newer(&self, index: Arc<ServingIndex>) -> bool {
        let mut slot = self.inner.write().unwrap_or_else(|p| p.into_inner());
        if index.generation() > slot.generation() {
            *slot = index;
            true
        } else {
            false
        }
    }

    /// Generation of the currently published index.
    pub fn generation(&self) -> u64 {
        self.load().generation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpdbscan_core::{RpDbscan, RpDbscanParams};
    use rpdbscan_geom::Dataset;
    use std::thread;

    /// Smallest index that exercises the real `ServingIndex` layout:
    /// one dense 1-D run, two shards. Kept tiny so the nightly Miri
    /// smoke over this module stays tractable.
    fn tiny_index(generation: u64) -> Arc<ServingIndex> {
        let rows: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64 * 0.1]).collect();
        let data = Dataset::from_rows(1, &rows).unwrap();
        let params = RpDbscanParams::new(1.0, 3);
        let out = RpDbscan::new(params).unwrap().run_local(&data).unwrap();
        Arc::new(ServingIndex::from_batch(&data, &out, 2, generation).unwrap())
    }

    #[test]
    fn load_pins_the_generation_across_publishes() {
        let slot = IndexSlot::new(tiny_index(1));
        let pinned = slot.load();
        assert_eq!(slot.publish(tiny_index(2)), 2);
        // The in-flight reader keeps its epoch; new loads see the swap.
        assert_eq!(pinned.generation(), 1);
        assert_eq!(pinned.verify_generation(), Some(1));
        assert_eq!(slot.load().generation(), 2);
        assert_eq!(slot.generation(), 2);
    }

    #[test]
    fn publish_if_newer_rejects_stale_and_equal_generations() {
        let slot = IndexSlot::new(tiny_index(5));
        assert!(!slot.publish_if_newer(tiny_index(4)));
        assert!(!slot.publish_if_newer(tiny_index(5)));
        assert_eq!(slot.generation(), 5);
        assert!(slot.publish_if_newer(tiny_index(6)));
        assert_eq!(slot.generation(), 6);
    }

    #[test]
    fn patched_chain_publishes_cleanly_through_the_slot() {
        // A delta-publish chain: epoch 1 is a full build, every later
        // epoch is patched on top of its predecessor and published
        // through the slot. Readers of any pinned generation must see
        // coherent head/tail *and* per-shard build stamps
        // (`verify_shards`), even though later generations Arc-share
        // shards with the one they hold.
        use rpdbscan_stream::StreamingRpDbscan;

        let mut stream = StreamingRpDbscan::new(1, RpDbscanParams::new(1.0, 3)).unwrap();
        let flat: Vec<f64> = (0..12).map(|i| i as f64 * 0.1).collect();
        stream.insert_batch(&flat).unwrap();
        let slot = IndexSlot::new(Arc::new(ServingIndex::from_stream(&stream, 2)));
        let pinned = slot.load();
        for step in 0..3 {
            let far: Vec<f64> = (0..4)
                .map(|i| 100.0 + step as f64 + i as f64 * 0.1)
                .collect();
            stream.insert_batch(&far).unwrap();
            let prev = slot.load();
            let next = Arc::new(ServingIndex::patch_from_stream(&prev, &stream).unwrap());
            assert!(next.patch_summary().is_some());
            assert_eq!(next.verify_shards(), Some(stream.epoch()));
            assert!(slot.publish_if_newer(next));
        }
        // The first generation's reader still verifies, untouched by the
        // three patched publishes layered above it.
        assert_eq!(pinned.verify_shards(), Some(pinned.generation()));
        assert_eq!(slot.load().generation(), stream.epoch());
    }

    #[test]
    fn concurrent_readers_never_observe_a_torn_generation() {
        // The live analogue of the `model::slot` sweep: readers verify
        // head/tail agreement while a publisher swaps epochs underneath.
        let slot = Arc::new(IndexSlot::new(tiny_index(1)));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&slot);
                thread::spawn(move || {
                    for _ in 0..20 {
                        let idx = s.load();
                        let g = idx.verify_generation().expect("torn generation observed");
                        assert_eq!(g, idx.generation());
                    }
                })
            })
            .collect();
        let publisher = {
            let s = Arc::clone(&slot);
            thread::spawn(move || {
                for g in 2..=4 {
                    assert!(s.publish_if_newer(tiny_index(g)));
                }
            })
        };
        for r in readers {
            r.join().unwrap();
        }
        publisher.join().unwrap();
        assert_eq!(slot.generation(), 4);
        assert_eq!(slot.load().verify_generation(), Some(4));
    }
}

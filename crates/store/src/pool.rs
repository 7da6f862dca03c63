//! A byte-budgeted page cache with pinned-page handles.
//!
//! [`BufferPool::pin`] returns an [`Arc`]-backed [`PageRef`]; while any
//! handle to a page is alive the page cannot be evicted (pin = an extra
//! strong count). Eviction is clock / second-chance: each cached page
//! carries a referenced bit, set when the page is read in and on every
//! hit. When tracked bytes exceed the budget the clock hand sweeps the
//! ring oldest first, clearing referenced bits on the first pass and
//! evicting unpinned, unreferenced pages on the second. A page just read
//! is about to be used again (a gather walks a page's rows cell by
//! cell), so it starts with its second chance and joins the ring behind
//! every older page. A scan in store order therefore reads each page
//! once. If every page is pinned the pool overshoots its budget
//! honestly — `peak_tracked_bytes` records it — rather than deadlocking,
//! so the budget floor for an `n`-worker run is `n + 1` pages.
//!
//! The miss path drops the pool lock around the file read: concurrent
//! misses on different pages read in parallel, and a lost race simply
//! adopts the winner's buffer.

use crate::reader::ColumnStore;
use crate::StoreError;
use rpdbscan_grid::FxHashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Address of one page: column index (coordinate columns `0..dim`, the
/// permutation column at `dim`) and page index within the column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageKey {
    /// Column index.
    pub col: u32,
    /// Page index within the column.
    pub page: u32,
}

/// A pinned page: holding this keeps the bytes cached and immovable.
#[derive(Debug, Clone)]
pub struct PageRef {
    data: Arc<Vec<u8>>,
}

impl PageRef {
    /// The page's raw bytes (little-endian column values).
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }
}

/// Pool counters. `tracked_bytes` is the live cache size;
/// `peak_tracked_bytes` is the high-water mark the scale bench asserts
/// against the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Byte budget the pool evicts towards.
    pub budget_bytes: u64,
    /// Pins answered from cache.
    pub hits: u64,
    /// Pins that read from disk.
    pub misses: u64,
    /// Pages evicted.
    pub evictions: u64,
    /// Bytes currently cached.
    pub tracked_bytes: u64,
    /// High-water mark of `tracked_bytes`.
    pub peak_tracked_bytes: u64,
}

impl PoolStats {
    /// Hit fraction in `[0, 1]` (1.0 when no pin has happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 1.0;
        }
        self.hits as f64 / total as f64
    }
}

struct Slot {
    data: Arc<Vec<u8>>,
    referenced: bool,
}

struct PoolInner {
    pages: FxHashMap<PageKey, Slot>,
    /// Clock ring of cached keys, oldest first; the hand is the front. A
    /// page the hand spares moves to the back, as does a page read in.
    /// Eviction must keep this order: filling the victim's slot with the
    /// newest key (as `swap_remove` would) puts the page just read under
    /// the hand, and the next miss evicts it.
    ring: VecDeque<PageKey>,
    stats: PoolStats,
}

/// The bounded page cache over one [`ColumnStore`].
pub struct BufferPool {
    store: Arc<ColumnStore>,
    inner: Mutex<PoolInner>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("stats", &self.stats())
            .finish()
    }
}

impl BufferPool {
    /// A pool over `store` evicting towards `budget_bytes`.
    pub fn new(store: Arc<ColumnStore>, budget_bytes: u64) -> BufferPool {
        BufferPool {
            store,
            inner: Mutex::new(PoolInner {
                pages: FxHashMap::default(),
                ring: VecDeque::new(),
                stats: PoolStats {
                    budget_bytes,
                    ..PoolStats::default()
                },
            }),
        }
    }

    /// The store this pool reads from.
    pub fn store(&self) -> &Arc<ColumnStore> {
        &self.store
    }

    /// Current counters (snapshot).
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).stats
    }

    /// Pins a page: returns a handle whose bytes stay valid and cached
    /// for the handle's lifetime. Cache hits are lock-only; misses read
    /// the page outside the lock, verify its checksum, then insert and
    /// evict towards the budget.
    // lint:hot
    pub fn pin(&self, key: PageKey) -> Result<PageRef, StoreError> {
        {
            let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(slot) = inner.pages.get_mut(&key) {
                slot.referenced = true;
                let data = slot.data.clone();
                inner.stats.hits += 1;
                return Ok(PageRef { data });
            }
            inner.stats.misses += 1;
        }
        // Read outside the lock so concurrent misses overlap their IO.
        let len = self.store.page_bytes(key.col, key.page) as usize;
        let mut buf: Vec<u8> = Vec::with_capacity(len);
        self.store.read_page(key.col, key.page, &mut buf)?;
        let data = Arc::new(buf);

        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(slot) = inner.pages.get_mut(&key) {
            // Lost a race with another miss on the same page: adopt the
            // cached buffer and drop ours.
            slot.referenced = true;
            let data = slot.data.clone();
            return Ok(PageRef { data });
        }
        let bytes = data.len() as u64;
        inner.pages.insert(
            key,
            Slot {
                data: data.clone(),
                referenced: true,
            },
        );
        inner.ring.push_back(key);
        inner.stats.tracked_bytes += bytes;
        if inner.stats.tracked_bytes > inner.stats.peak_tracked_bytes {
            inner.stats.peak_tracked_bytes = inner.stats.tracked_bytes;
        }
        evict_to_budget(&mut inner);
        Ok(PageRef { data })
    }
}

/// Clock sweep from the oldest page: clear referenced bits on first
/// touch, evict unpinned unreferenced pages, stop when under budget or
/// when a full double sweep finds nothing evictable (everything pinned).
fn evict_to_budget(inner: &mut PoolInner) {
    let mut fruitless = 0usize;
    while inner.stats.tracked_bytes > inner.stats.budget_bytes && fruitless <= 2 * inner.ring.len()
    {
        let Some(key) = inner.ring.pop_front() else {
            break;
        };
        let evict = match inner.pages.get_mut(&key) {
            Some(slot) => {
                if slot.referenced {
                    slot.referenced = false;
                    false
                } else {
                    // Strong count 1 = only the pool holds it; >1 = pinned.
                    Arc::strong_count(&slot.data) == 1
                }
            }
            // Ring/map disagreement cannot happen (both mutate under the
            // same lock); treat a stale key as evictable bookkeeping.
            None => true,
        };
        if evict {
            if let Some(slot) = inner.pages.remove(&key) {
                inner.stats.tracked_bytes -= slot.data.len() as u64;
                inner.stats.evictions += 1;
            }
            fruitless = 0;
        } else {
            inner.ring.push_back(key);
            fruitless += 1;
        }
    }
}

//! The memory-budgeted canvas/result cache.
//!
//! The paper's interactive setting re-evaluates the *same* plan over
//! and over: every pan/zoom step resubmits the selection or heatmap
//! plan, and returning to a recently-visited viewport re-asks an
//! already-answered question. SPADE (the served follow-up engine)
//! answers those from a result cache; this module is that cache for
//! the canvas algebra.
//!
//! Entries are keyed `(plan fingerprint, viewport)` — the fingerprint
//! captures *what* is asked (normalized plan structure, see
//! `canvas_core::algebra::fingerprint`), the viewport *where*. Values
//! are immutable shared [`QueryResult`]s — canvases for the rendering
//! classes, small derived payloads (id lists, flow matrices, hull
//! rings) for the promoted Sections 4.4–4.6 classes — so a hit costs
//! one reference bump and is bit-identical to the evaluation that
//! produced it, by construction. Every payload kind is byte-accounted
//! against the same LRU budget ([`QueryResult::size_bytes`]); the
//! non-canvas slice is broken out in [`CacheStats::result_bytes`].
//!
//! ## One keyspace, two entry classes
//!
//! Since subplan sharing, the cache holds two kinds of entries in
//! **one** keyspace:
//!
//! * **root** entries — whole-plan results, inserted by the engine
//!   after an evaluation ([`CanvasCache::insert`]);
//! * **shared** entries — rendered *intermediates* published at
//!   subplan cut points ([`CanvasCache::insert_shared`]), e.g. the
//!   density canvas a selection and a heatmap both need. This class is
//!   the whole of cross-query subplan sharing: a query that misses an
//!   interior renders it and publishes it here, and two queries that
//!   miss the same interior at once both render it — the later insert
//!   replaces the earlier, so the key stays resident once.
//!
//! The keyspace is deliberately unified: a subplan fingerprint of the
//! whole plan *is* the whole-plan fingerprint, so a root result can
//! satisfy a subplan probe (a heatmap whose interior equals an earlier
//! selection's whole plan reuses that result) and vice versa. The
//! class only affects **eviction priority** and byte accounting.
//!
//! Eviction is least-recently-used under a **byte budget** (canvases
//! are large; entry counts are meaningless), with one twist: victims
//! are drawn from the *root* class first, and shared interiors go only
//! when no root remains. A shared interior can serve every plan shape
//! containing that subplan — evicting a hot one forces re-renders
//! across many distinct queries, while an evicted root is recomputed
//! cheaply *from* the surviving interiors. An entry larger than the
//! whole budget is never admitted. All traffic is counted in
//! [`CacheStats`] — the serving bench's cache fields read them; root
//! and shared probes are tallied separately so the root hit rate stays
//! comparable across PRs.

use crate::result::QueryResult;
use canvas_core::algebra::Fingerprint;
use canvas_core::Canvas;
use canvas_raster::Viewport;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// A type-erased keep-alive handle. Fingerprints identify big datasets
/// by `Arc` address, so every cache entry pins the dataset handles its
/// key hashed: as long as the entry is resident the address cannot be
/// freed and reused by a *different* dataset (which would alias a stale
/// canvas onto a new question).
pub type DataPin = Arc<dyn std::any::Any + Send + Sync>;

/// Hashable identity of a [`Viewport`] (bit-exact world box + grid).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ViewportKey {
    min: (u64, u64),
    max: (u64, u64),
    dims: (u32, u32),
}

impl From<&Viewport> for ViewportKey {
    fn from(vp: &Viewport) -> Self {
        let w = vp.world();
        ViewportKey {
            min: (w.min.x.to_bits(), w.min.y.to_bits()),
            max: (w.max.x.to_bits(), w.max.y.to_bits()),
            dims: (vp.width(), vp.height()),
        }
    }
}

/// Cache key: what is asked × where it is asked.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    pub fingerprint: Fingerprint,
    pub viewport: ViewportKey,
}

impl CacheKey {
    pub fn new(fingerprint: Fingerprint, vp: &Viewport) -> Self {
        CacheKey {
            fingerprint,
            viewport: ViewportKey::from(vp),
        }
    }
}

/// Eviction/accounting class of a cache entry (see module docs: one
/// keyspace, two classes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryClass {
    /// A whole-plan result.
    Root,
    /// A subplan intermediate published for cross-query sharing.
    Shared,
}

/// Traffic counters of a [`CanvasCache`]. Root probes
/// ([`CanvasCache::get`]) and shared subplan probes
/// ([`CanvasCache::get_shared`]) are tallied separately; byte/entry
/// gauges cover both classes, with the shared slice broken out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Root (whole-plan) probe hits.
    pub hits: u64,
    /// Root (whole-plan) probe misses.
    pub misses: u64,
    /// Shared (subplan) probe hits.
    pub shared_hits: u64,
    /// Shared (subplan) probe misses.
    pub shared_misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    /// Insertions refused because the entry alone exceeds the budget.
    pub rejected_oversize: u64,
    /// Bytes currently resident (both classes).
    pub bytes: usize,
    /// High-water mark of resident bytes, taken after each insert's
    /// evictions (so never above the budget).
    pub peak_bytes: usize,
    /// Entries currently resident (both classes).
    pub entries: usize,
    /// Bytes currently held by [`EntryClass::Shared`] intermediates.
    pub shared_bytes: usize,
    /// Entries currently held by [`EntryClass::Shared`] intermediates.
    pub shared_entries: usize,
    /// Bytes currently held by non-canvas [`QueryResult`] payloads
    /// (id lists, flow matrices, series, hull rings).
    pub result_bytes: usize,
    /// Entries currently holding non-canvas [`QueryResult`] payloads.
    pub result_entries: usize,
}

impl CacheStats {
    /// Root hits over root probes (0 when never probed).
    pub fn hit_rate(&self) -> f64 {
        let probes = self.hits + self.misses;
        if probes == 0 {
            0.0
        } else {
            self.hits as f64 / probes as f64
        }
    }

    /// Shared-subplan hits over shared probes (0 when never probed).
    pub fn shared_hit_rate(&self) -> f64 {
        let probes = self.shared_hits + self.shared_misses;
        if probes == 0 {
            0.0
        } else {
            self.shared_hits as f64 / probes as f64
        }
    }
}

struct Entry {
    value: QueryResult,
    /// Keeps the by-address-fingerprinted datasets alive (see [`DataPin`]).
    _pins: Vec<DataPin>,
    bytes: usize,
    /// Recency stamp; also the entry's key in its class's order map.
    tick: u64,
    class: EntryClass,
}

struct Inner {
    budget: usize,
    tick: u64,
    map: HashMap<CacheKey, Entry>,
    /// Per-class recency indexes: ascending tick = least recently used
    /// first. Split so eviction can drain roots before touching shared
    /// interiors (module docs).
    root_order: BTreeMap<u64, CacheKey>,
    shared_order: BTreeMap<u64, CacheKey>,
    stats: CacheStats,
}

impl Inner {
    fn order_mut(&mut self, class: EntryClass) -> &mut BTreeMap<u64, CacheKey> {
        match class {
            EntryClass::Root => &mut self.root_order,
            EntryClass::Shared => &mut self.shared_order,
        }
    }

    /// Unlinks an entry from the map, its order index, and the byte
    /// gauges (shared slice included). Does not count an eviction.
    fn unlink(&mut self, key: &CacheKey) -> Option<Entry> {
        let entry = self.map.remove(key)?;
        self.order_mut(entry.class).remove(&entry.tick);
        self.stats.bytes -= entry.bytes;
        self.stats.entries -= 1;
        if entry.class == EntryClass::Shared {
            self.stats.shared_bytes -= entry.bytes;
            self.stats.shared_entries -= 1;
        }
        if entry.value.as_canvas().is_none() {
            self.stats.result_bytes -= entry.bytes;
            self.stats.result_entries -= 1;
        }
        Some(entry)
    }
}

/// A thread-safe budgeted LRU canvas cache (see module docs).
///
/// # Examples
///
/// ```
/// use canvas_core::algebra::Fingerprint;
/// use canvas_core::Canvas;
/// use canvas_engine::{CacheKey, CanvasCache};
/// use canvas_geom::{BBox, Point};
/// use canvas_raster::Viewport;
/// use std::sync::Arc;
///
/// let cache = CanvasCache::new(1 << 20); // 1 MiB byte budget
/// let vp = Viewport::new(
///     BBox::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)),
///     8,
///     8,
/// );
/// let key = CacheKey::new(Fingerprint(42), &vp);
/// assert!(cache.get(&key).is_none());
///
/// let canvas = Arc::new(Canvas::empty(vp));
/// cache.insert(key, Arc::clone(&canvas), Vec::new());
/// // A hit returns the same shared payload — bit-identity for free.
/// assert!(Arc::ptr_eq(cache.get(&key).unwrap().canvas(), &canvas));
/// assert_eq!(cache.stats().hits, 1);
/// ```
pub struct CanvasCache {
    inner: Mutex<Inner>,
}

impl CanvasCache {
    /// A cache holding at most `budget_bytes` of canvas planes
    /// (`Canvas::size_bytes`). A budget of 0 disables caching — every
    /// probe misses, every insert is rejected.
    pub fn new(budget_bytes: usize) -> Self {
        CanvasCache {
            inner: Mutex::new(Inner {
                budget: budget_bytes,
                tick: 0,
                map: HashMap::new(),
                root_order: BTreeMap::new(),
                shared_order: BTreeMap::new(),
                stats: CacheStats::default(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Probes the cache as **root** traffic, refreshing the entry's
    /// recency on a hit. Either entry class can satisfy the probe (one
    /// keyspace — module docs).
    pub fn get(&self, key: &CacheKey) -> Option<QueryResult> {
        self.probe(key, EntryClass::Root)
    }

    /// Probes the cache as **shared subplan** traffic (counted in
    /// `shared_hits`/`shared_misses`, so interior probes never skew
    /// the root hit rate). Either entry class can satisfy the probe.
    ///
    /// Subplan intermediates are always canvases; the fingerprint
    /// domains of the non-canvas query classes are disjoint from plan
    /// fingerprints, so a shared probe can never land on a derived
    /// payload — the canvas filter below is belt-and-braces.
    pub fn get_shared(&self, key: &CacheKey) -> Option<Arc<Canvas>> {
        self.probe(key, EntryClass::Shared)
            .and_then(|v| v.as_canvas().cloned())
    }

    fn probe(&self, key: &CacheKey, traffic: EntryClass) -> Option<QueryResult> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                let old = std::mem::replace(&mut entry.tick, tick);
                let class = entry.class;
                let value = entry.value.clone();
                inner.order_mut(class).remove(&old);
                inner.order_mut(class).insert(tick, *key);
                match traffic {
                    EntryClass::Root => inner.stats.hits += 1,
                    EntryClass::Shared => inner.stats.shared_hits += 1,
                }
                Some(value)
            }
            None => {
                match traffic {
                    EntryClass::Root => inner.stats.misses += 1,
                    EntryClass::Shared => inner.stats.shared_misses += 1,
                }
                None
            }
        }
    }

    /// Inserts (or refreshes) a **root** (whole-plan) entry, then
    /// evicts until the budget holds. `pins` are the dataset handles
    /// the key's fingerprint identified by address (see [`DataPin`]).
    /// Accepts any [`QueryResult`] payload (an `Arc<Canvas>` converts
    /// implicitly). Returns the number of evictions this insert caused.
    pub fn insert(&self, key: CacheKey, value: impl Into<QueryResult>, pins: Vec<DataPin>) -> u64 {
        self.insert_classed(key, value.into(), pins, EntryClass::Root)
    }

    /// Inserts a **shared subplan** intermediate (always a canvas) —
    /// lower eviction priority than roots, bytes broken out in
    /// [`CacheStats::shared_bytes`]. Returns the evictions caused.
    pub fn insert_shared(&self, key: CacheKey, canvas: Arc<Canvas>, pins: Vec<DataPin>) -> u64 {
        self.insert_classed(key, QueryResult::Canvas(canvas), pins, EntryClass::Shared)
    }

    fn insert_classed(
        &self,
        key: CacheKey,
        value: QueryResult,
        pins: Vec<DataPin>,
        class: EntryClass,
    ) -> u64 {
        let bytes = value.size_bytes();
        let mut inner = self.lock();
        if bytes > inner.budget {
            inner.stats.rejected_oversize += 1;
            return 0;
        }
        inner.tick += 1;
        let tick = inner.tick;
        // Re-insert of a live key (e.g. two leaders raced, two queries
        // rendered the same subplan concurrently, or a subplan publish
        // lands on an existing root result): replace; the new insert's
        // class wins.
        inner.unlink(&key);
        inner.order_mut(class).insert(tick, key);
        let non_canvas = value.as_canvas().is_none();
        inner.map.insert(
            key,
            Entry {
                value,
                _pins: pins,
                bytes,
                tick,
                class,
            },
        );
        inner.stats.bytes += bytes;
        inner.stats.entries += 1;
        if class == EntryClass::Shared {
            inner.stats.shared_bytes += bytes;
            inner.stats.shared_entries += 1;
        }
        if non_canvas {
            inner.stats.result_bytes += bytes;
            inner.stats.result_entries += 1;
        }
        inner.stats.insertions += 1;

        let mut evicted = 0;
        while inner.stats.bytes > inner.budget {
            // Victims come from the root class first; shared interiors
            // only once no other root remains (module docs). The
            // just-inserted entry (recency stamp `tick`) is never its
            // own victim — and once it is the lone survivor the budget
            // holds by the oversize check, so the loop terminates.
            let victim = inner
                .root_order
                .iter()
                .find(|(&t, _)| t != tick)
                .or_else(|| inner.shared_order.iter().find(|(&t, _)| t != tick))
                .map(|(_, &k)| k);
            let Some(lru_key) = victim else {
                debug_assert!(inner.map.len() == 1, "only the newcomer may remain");
                break;
            };
            inner.unlink(&lru_key).expect("order/map in sync");
            inner.stats.evictions += 1;
            evicted += 1;
        }
        // After eviction: the mark records what stayed resident, so it
        // never exceeds the budget.
        inner.stats.peak_bytes = inner.stats.peak_bytes.max(inner.stats.bytes);
        evicted
    }

    /// Removes one entry outright (not counted as an eviction — the
    /// caller is retiring a superseded result, e.g. a predecessor
    /// generation's canvas after an incremental refresh published its
    /// successor). Returns whether the key was live.
    pub fn remove(&self, key: &CacheKey) -> bool {
        self.lock().unlink(key).is_some()
    }

    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Configured byte budget.
    pub fn budget(&self) -> usize {
        self.lock().budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canvas_geom::{BBox, Point};

    fn vp(n: u32) -> Viewport {
        Viewport::new(
            BBox::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
            n,
            n,
        )
    }

    fn key(fp: u128, vp: &Viewport) -> CacheKey {
        CacheKey::new(Fingerprint(fp), vp)
    }

    fn canvas(n: u32) -> Arc<Canvas> {
        Arc::new(Canvas::empty(vp(n)))
    }

    #[test]
    fn hit_returns_same_arc_and_counts() {
        let cache = CanvasCache::new(1 << 20);
        let c = canvas(8);
        let k = key(1, &vp(8));
        assert!(cache.get(&k).is_none());
        cache.insert(k, Arc::clone(&c), Vec::new());
        let hit = cache.get(&k).expect("hit");
        assert!(Arc::ptr_eq(hit.canvas(), &c));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert!((0.49..0.51).contains(&s.hit_rate()));
    }

    #[test]
    fn distinct_viewports_are_distinct_entries() {
        let cache = CanvasCache::new(1 << 20);
        let k8 = key(1, &vp(8));
        let k16 = key(1, &vp(16));
        assert_ne!(k8, k16);
        cache.insert(k8, canvas(8), Vec::new());
        assert!(cache.get(&k16).is_none());
        assert!(cache.get(&k8).is_some());
    }

    #[test]
    fn lru_eviction_under_tiny_budget() {
        let one = canvas(16).size_bytes();
        // Room for two entries, not three.
        let cache = CanvasCache::new(2 * one + one / 2);
        let keys: Vec<CacheKey> = (0..3).map(|i| key(i, &vp(16))).collect();
        cache.insert(keys[0], canvas(16), Vec::new());
        cache.insert(keys[1], canvas(16), Vec::new());
        // Touch 0 so 1 is the LRU.
        assert!(cache.get(&keys[0]).is_some());
        let evicted = cache.insert(keys[2], canvas(16), Vec::new());
        assert_eq!(evicted, 1);
        assert!(cache.get(&keys[1]).is_none(), "LRU entry evicted");
        assert!(cache.get(&keys[0]).is_some());
        assert!(cache.get(&keys[2]).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert!(s.bytes <= 2 * one + one / 2);
        assert!(s.peak_bytes >= s.bytes);
    }

    #[test]
    fn peak_bytes_never_exceeds_the_budget() {
        let payload = || QueryResult::Ids(Arc::new(vec![0; 4]));
        assert_eq!(payload().size_bytes(), 40);
        let cache = CanvasCache::new(100);
        for fp in 0..3 {
            cache.insert(key(fp, &vp(8)), payload(), Vec::new());
        }
        let s = cache.stats();
        assert_eq!((s.evictions, s.bytes), (1, 80));
        assert!(s.peak_bytes <= 100, "peak {} over budget", s.peak_bytes);
    }

    #[test]
    fn one_keyspace_across_classes() {
        // A root result satisfies a shared probe and vice versa, with
        // traffic tallied per probe kind.
        let cache = CanvasCache::new(1 << 20);
        let k = key(5, &vp(8));
        cache.insert(k, canvas(8), Vec::new());
        assert!(cache.get_shared(&k).is_some());
        let k2 = key(6, &vp(8));
        cache.insert_shared(k2, canvas(8), Vec::new());
        assert!(cache.get(&k2).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 0));
        assert_eq!((s.shared_hits, s.shared_misses), (1, 0));
        assert_eq!(s.shared_entries, 1);
        assert!(s.shared_bytes > 0 && s.shared_bytes < s.bytes);
        assert!((0.99..=1.0).contains(&s.shared_hit_rate()));
    }

    #[test]
    fn eviction_prefers_roots_over_shared_interiors() {
        let one = canvas(16).size_bytes();
        // Room for two entries, not three.
        let cache = CanvasCache::new(2 * one + one / 2);
        let shared_k = key(100, &vp(16));
        cache.insert_shared(shared_k, canvas(16), Vec::new());
        cache.insert(key(1, &vp(16)), canvas(16), Vec::new());
        // The shared interior is the LRU, but the *root* must go.
        let evicted = cache.insert(key(2, &vp(16)), canvas(16), Vec::new());
        assert_eq!(evicted, 1);
        assert!(cache.get(&key(1, &vp(16))).is_none(), "LRU root evicted");
        assert!(
            cache.get_shared(&shared_k).is_some(),
            "shared interior survived despite being least recently used"
        );
        assert!(cache.get(&key(2, &vp(16))).is_some());
    }

    #[test]
    fn shared_interiors_evict_lru_once_no_root_remains() {
        let one = canvas(16).size_bytes();
        let cache = CanvasCache::new(2 * one + one / 2);
        let keys: Vec<CacheKey> = (0..3).map(|i| key(i, &vp(16))).collect();
        cache.insert_shared(keys[0], canvas(16), Vec::new());
        cache.insert_shared(keys[1], canvas(16), Vec::new());
        assert!(cache.get_shared(&keys[0]).is_some()); // 1 becomes LRU
        let evicted = cache.insert_shared(keys[2], canvas(16), Vec::new());
        assert_eq!(evicted, 1);
        assert!(cache.get_shared(&keys[1]).is_none(), "LRU shared evicted");
        assert!(cache.get_shared(&keys[0]).is_some());
        assert!(cache.get_shared(&keys[2]).is_some());
        let s = cache.stats();
        assert_eq!(s.shared_entries, 2);
        assert_eq!(s.shared_bytes, s.bytes);
    }

    #[test]
    fn newcomer_root_survives_a_shared_full_cache() {
        // Shared interiors fill the budget; inserting a root evicts
        // shared LRU entries, never the just-inserted root itself.
        let one = canvas(16).size_bytes();
        let cache = CanvasCache::new(2 * one + one / 2);
        cache.insert_shared(key(10, &vp(16)), canvas(16), Vec::new());
        cache.insert_shared(key(11, &vp(16)), canvas(16), Vec::new());
        let evicted = cache.insert(key(1, &vp(16)), canvas(16), Vec::new());
        assert_eq!(evicted, 1);
        assert!(cache.get(&key(1, &vp(16))).is_some(), "newcomer resident");
        assert!(cache.get_shared(&key(10, &vp(16))).is_none());
        assert!(cache.get_shared(&key(11, &vp(16))).is_some());
    }

    #[test]
    fn reinsert_across_classes_keeps_accounting_consistent() {
        let cache = CanvasCache::new(1 << 20);
        let k = key(3, &vp(16));
        let bytes = canvas(16).size_bytes();
        cache.insert_shared(k, canvas(16), Vec::new());
        assert_eq!(cache.stats().shared_bytes, bytes);
        // Same key re-published as a root: class flips, bytes counted once.
        cache.insert(k, canvas(16), Vec::new());
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, bytes);
        assert_eq!(s.shared_bytes, 0);
        assert_eq!(s.shared_entries, 0);
    }

    #[test]
    fn non_canvas_payloads_ride_the_same_budget() {
        let cache = CanvasCache::new(1 << 20);
        let k = key(7, &vp(8));
        let ids = QueryResult::Ids(Arc::new(vec![1, 2, 3]));
        let bytes = ids.size_bytes();
        cache.insert(k, ids.clone(), Vec::new());
        let hit = cache.get(&k).expect("hit");
        assert!(hit.ptr_eq(&ids), "hit is the same shared allocation");
        let s = cache.stats();
        assert_eq!((s.result_entries, s.result_bytes), (1, bytes));
        assert_eq!((s.entries, s.bytes), (1, bytes));
        // A shared probe never yields a derived payload.
        assert!(cache.get_shared(&k).is_none());
        // Replacing with a canvas clears the non-canvas slice.
        cache.insert(k, canvas(8), Vec::new());
        let s = cache.stats();
        assert_eq!((s.result_entries, s.result_bytes), (0, 0));
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn oversize_and_zero_budget_reject() {
        let cache = CanvasCache::new(0);
        let k = key(9, &vp(8));
        assert_eq!(cache.insert(k, canvas(8), Vec::new()), 0);
        assert!(cache.get(&k).is_none());
        let s = cache.stats();
        assert_eq!(s.rejected_oversize, 1);
        assert_eq!(s.entries, 0);
    }
}

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
//! [`CacheStats`] — the repo benchmark's `engine.*` cache metrics read
//! them; root and shared probes are tallied separately so the root hit
//! rate stays comparable across changes.
//!
//! ## Entries live with their viewport
//!
//! The budget alone keeps canvases nobody reads again: an exploration
//! walk never revisits a viewport, yet its interiors and first-touch
//! roots sat in the cache until the budget pushed them out. So the
//! cache also tracks a **viewport window** — the K most recently
//! *computed-at* viewports ([`CanvasCache::new`]). An insert of
//! either class and a shared probe (both happen only while a query
//! evaluates at that viewport) move their viewport to the front; a
//! root probe never does, so a repeat question answered from the cache
//! does no window work. A viewport in the window, or held by a running
//! evaluation (below), is **warm**; one that fell out is **cold**.
//! Entries that leave for coldness **retire** ([`CacheStats::retired`],
//! not `evictions`: the budget did not force them out).
//!
//! * Every **shared interior** retires as soon as its viewport is cold:
//!   an interior serves the sibling views rendered at its viewport, and
//!   those evaluations are over once the viewport is cold.
//! * **Roots** must earn their place, as in 2Q (Johnson & Shasha, VLDB
//!   1994). A root enters **on probation**. A root-traffic hit
//!   **protects** it ([`CacheStats::promoted`]); a protected root never
//!   retires and leaves only under budget pressure. Roots on probation
//!   may hold a quarter of the budget (2Q's `Kin`); past that, the
//!   probationary roots **of cold viewports** retire, a viewport at a
//!   time and least recently used first, until probation fits again.
//!   A root at a warm viewport never retires, so "compute, then re-ask
//!   at the same viewport" always hits.
//!
//! A root that retires leaves its key in a bounded FIFO **ghost set**
//! (the last 1,024 such keys), and a later insert of a ghost key enters
//! protected: a client that cycles more roots than probation holds gets
//! its working set in on the second visit. A root the engine can patch
//! forward (an incremental refresh finds its predecessor generation by
//! key) enters protected too, or every append would re-render in full.
//!
//! Probation is bounded in bytes rather than by the window so that what
//! stays resident does not hang on how concurrent clients interleave.
//! Two clients replaying a working set that fits probation compute each
//! root once, whichever of them moves the window when; had probationary
//! roots retired with their viewport, a root would survive to its
//! second ask or not depending on the other client's timing, and the
//! recomputations (and memory) would vary from run to run.
//!
//! An evaluation **holds** its viewport from admission until its root
//! is published (`CanvasCache::hold`): a held viewport that falls out
//! of the window keeps its entries, and they retire when the last hold
//! on it is released (unless the viewport is back in the window by
//! then). So another client moving the window on never takes the
//! interiors out from under an evaluation that is still running.
//!
//! Between two evaluations nothing is held, and the window is a
//! recency heuristic. The engine sets K to its admission permit count
//! (`EngineConfig::max_concurrent`) on the argument that each running
//! evaluation sits at one viewport, so K clients that each stay at one
//! viewport for a step's sibling views keep every interior they share.
//! A client whose next sibling view arrives only after others have
//! computed at K other viewports recomputes what it would have read.
//! That concurrent argument is **unverified by the repo benchmark**:
//! every benchmark workload that computes has a single client, and the
//! one two-client workload (`dashboard_revisit`) computes nothing in
//! its timed laps. Only the engine test
//! `engine_stress.rs::two_clients_panning_in_step_share_as_much_as_a_wide_window`
//! runs two clients, and in lockstep. K is derived, not a knob. A
//! window twice as wide keeps a whole extra step of interiors (a 512²
//! step publishes ~55 MiB of them). Budget eviction is unchanged:
//! roots LRU first, interiors only once no root remains.
//!
//! Measured on a 2-vCPU host with the repo benchmark (`--seed 7`,
//! K = 2, the default 256 MiB budget, `--seconds 20` medians against
//! the budget-only cache); every result digest and work counter
//! unchanged:
//!
//! | workload | `peak_rss_mb` | `engine.cache_peak_mb` | budget evictions |
//! |---|---|---|---|
//! | `analytics_batch` | 339 → 124 | 237 → 74 | 0 → 0 |
//! | `explore_cold` | 372 → 245 | 252 → 168 | 299 → 0 |
//! | `dashboard_revisit` | 207 → 128 (quartiles 2.2 MiB apart over 10 runs) | 126 → 73.5 | 0 → 0 |
//! | `live_ingest` | 121 → 121 | 7.9 → 7.9 | 0 → 0 |
//!
//! Retiring a viewport's interiors or probationary roots scans the map
//! for them (tens of entries, at most once per viewport change); the
//! unlinked values are dropped after the cache lock is released.

use crate::result::QueryResult;
use canvas_core::algebra::Fingerprint;
use canvas_core::Canvas;
use canvas_raster::Viewport;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex};

/// How many retired probationary root keys the ghost set remembers.
const GHOST_CAPACITY: usize = 1024;

/// Probationary roots may hold at most this share of the byte budget
/// (2Q's `Kin`: a quarter of the cache).
const PROBATION_DIVISOR: usize = 4;

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
///
/// Every accepted insert leaves the cache exactly once, so
/// `insertions == entries + evictions + retired + removed + replaced`
/// holds at every snapshot.
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
    /// Accepted inserts (both classes).
    pub insertions: u64,
    /// Entries pushed out by the byte budget.
    pub evictions: u64,
    /// Entries unlinked because their viewport left the window (shared
    /// interiors and unprotected roots; module docs).
    pub retired: u64,
    /// Entries taken out by [`CanvasCache::remove`].
    pub removed: u64,
    /// Entries superseded by a later insert of the same key.
    pub replaced: u64,
    /// Probationary roots protected by a root-traffic hit.
    pub promoted: u64,
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
    /// A root that earned its place (module docs); never retires.
    protected: bool,
}

impl Entry {
    /// Whether the entry leaves when its viewport leaves the window.
    fn retires(&self) -> bool {
        self.class == EntryClass::Shared
    }

    /// Whether the entry is a root still on probation.
    fn on_probation(&self) -> bool {
        self.class == EntryClass::Root && !self.protected
    }
}

/// The K most recently computed-at viewports, oldest first.
struct Window {
    len: usize,
    recent: VecDeque<ViewportKey>,
}

impl Window {
    /// Makes `vp` the most recent viewport; returns the one that fell
    /// out of the window, if any.
    fn advance(&mut self, vp: ViewportKey) -> Option<ViewportKey> {
        if self.recent.back() == Some(&vp) {
            return None;
        }
        if let Some(i) = self.recent.iter().position(|&v| v == vp) {
            self.recent.remove(i);
        }
        self.recent.push_back(vp);
        if self.recent.len() > self.len {
            self.recent.pop_front()
        } else {
            None
        }
    }
}

/// Bounded FIFO of retired probationary root keys.
#[derive(Default)]
struct Ghosts {
    fifo: VecDeque<CacheKey>,
    keys: HashSet<CacheKey>,
}

impl Ghosts {
    fn remember(&mut self, key: CacheKey) {
        if !self.keys.insert(key) {
            return;
        }
        self.fifo.push_back(key);
        if self.fifo.len() > GHOST_CAPACITY {
            let oldest = self.fifo.pop_front().expect("over capacity");
            self.keys.remove(&oldest);
        }
    }
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
    window: Window,
    /// Viewports with a running evaluation ([`Hold`]), by hold count.
    /// Their entries do not retire until the last hold is released.
    held: HashMap<ViewportKey, usize>,
    /// Bytes of the roots on probation; kept at or below
    /// `budget / PROBATION_DIVISOR` by retiring the oldest.
    probation_bytes: usize,
    ghosts: Ghosts,
    stats: CacheStats,
}

impl Inner {
    fn order_mut(&mut self, class: EntryClass) -> &mut BTreeMap<u64, CacheKey> {
        match class {
            EntryClass::Root => &mut self.root_order,
            EntryClass::Shared => &mut self.shared_order,
        }
    }

    /// Links a new entry into the map, its order index and the byte
    /// gauges. The key must not be live.
    fn link(&mut self, key: CacheKey, entry: Entry) {
        self.order_mut(entry.class).insert(entry.tick, key);
        if entry.on_probation() {
            self.probation_bytes += entry.bytes;
        }
        self.stats.bytes += entry.bytes;
        self.stats.entries += 1;
        if entry.class == EntryClass::Shared {
            self.stats.shared_bytes += entry.bytes;
            self.stats.shared_entries += 1;
        }
        if entry.value.as_canvas().is_none() {
            self.stats.result_bytes += entry.bytes;
            self.stats.result_entries += 1;
        }
        self.map.insert(key, entry);
    }

    /// Unlinks an entry from the map, its order index and the byte
    /// gauges (shared slice included). Counts nothing else: the caller
    /// says why the entry left.
    fn unlink(&mut self, key: &CacheKey) -> Option<Entry> {
        let entry = self.map.remove(key)?;
        self.order_mut(entry.class).remove(&entry.tick);
        if entry.on_probation() {
            self.probation_bytes -= entry.bytes;
        }
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

    /// Moves `vp` to the front of the window and retires the viewport
    /// that fell out, unless an evaluation still holds it.
    fn advance(&mut self, vp: ViewportKey, dropped: &mut Vec<Entry>) {
        match self.window.advance(vp) {
            Some(cold) if !self.held.contains_key(&cold) => self.retire(cold, dropped),
            _ => {}
        }
        self.trim_probation(dropped);
    }

    /// Whether `vp` is in the window or held by a running evaluation.
    fn warm(&self, vp: &ViewportKey) -> bool {
        self.window.recent.contains(vp) || self.held.contains_key(vp)
    }

    /// Unlinks the entries at `vp` that retire with it, into `dropped`.
    fn retire(&mut self, vp: ViewportKey, dropped: &mut Vec<Entry>) {
        let cold: Vec<CacheKey> = self
            .map
            .iter()
            .filter(|(k, e)| k.viewport == vp && e.retires())
            .map(|(k, _)| *k)
            .collect();
        for key in cold {
            dropped.push(self.unlink(&key).expect("key taken from the map"));
            self.stats.retired += 1;
        }
    }

    /// Retires the roots on probation at cold viewports, a viewport at
    /// a time and the one holding the least recently used such root
    /// first, until probation fits its share of the budget (or only
    /// warm ones remain); their keys go to the ghost set.
    fn trim_probation(&mut self, dropped: &mut Vec<Entry>) {
        let cap = self.budget / PROBATION_DIVISOR;
        while self.probation_bytes > cap {
            let Some(cold) = self
                .root_order
                .values()
                .find(|k| self.map[k].on_probation() && !self.warm(&k.viewport))
                .map(|k| k.viewport)
            else {
                break;
            };
            let keys: Vec<CacheKey> = self
                .map
                .iter()
                .filter(|(k, e)| k.viewport == cold && e.on_probation())
                .map(|(k, _)| *k)
                .collect();
            for key in keys {
                dropped.push(self.unlink(&key).expect("key taken from the map"));
                self.ghosts.remember(key);
                self.stats.retired += 1;
            }
        }
    }
}

/// Keeps one viewport's entries from retiring while an evaluation runs
/// there ([`CanvasCache::hold`]). Dropping it releases the viewport:
/// the last release of a viewport that left the window retires its
/// entries then.
pub(crate) struct Hold<'c> {
    cache: &'c CanvasCache,
    vp: ViewportKey,
}

impl Drop for Hold<'_> {
    fn drop(&mut self) {
        let mut dropped = Vec::new();
        let mut inner = self.cache.lock();
        let count = inner.held.get_mut(&self.vp).expect("a hold is counted");
        *count -= 1;
        if *count == 0 {
            inner.held.remove(&self.vp);
            if !inner.window.recent.contains(&self.vp) {
                inner.retire(self.vp, &mut dropped);
                inner.trim_probation(&mut dropped);
            }
        }
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
/// // A 1 MiB byte budget; entries live with the last 2 viewports.
/// let cache = CanvasCache::new(1 << 20, 2);
/// let vp = Viewport::new(
///     BBox::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)),
///     8,
///     8,
/// );
/// let key = CacheKey::new(Fingerprint(42), &vp);
/// assert!(cache.get(&key).is_none());
///
/// let canvas = Arc::new(Canvas::empty(vp));
/// cache.insert(key, Arc::clone(&canvas), Vec::new(), false);
/// // A hit returns the same shared payload — bit-identity for free.
/// assert!(Arc::ptr_eq(cache.get(&key).unwrap().canvas(), &canvas));
/// assert_eq!(cache.stats().hits, 1);
/// ```
pub struct CanvasCache {
    inner: Mutex<Inner>,
}

impl CanvasCache {
    /// A cache holding at most `budget_bytes` of canvas planes
    /// (`Canvas::size_bytes`), whose shared interiors live with the
    /// `viewports` (at least 1) most recently computed-at viewports and
    /// whose roots on probation may hold a quarter of it (module docs). The engine passes its admission permit count. A
    /// budget of 0 disables caching — every probe misses, every insert
    /// is rejected.
    pub fn new(budget_bytes: usize, viewports: usize) -> Self {
        CanvasCache {
            inner: Mutex::new(Inner {
                budget: budget_bytes,
                tick: 0,
                map: HashMap::new(),
                root_order: BTreeMap::new(),
                shared_order: BTreeMap::new(),
                window: Window {
                    len: viewports.max(1),
                    recent: VecDeque::new(),
                },
                held: HashMap::new(),
                probation_bytes: 0,
                ghosts: Ghosts::default(),
                stats: CacheStats::default(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Marks an evaluation running at `vp` until the returned guard is
    /// dropped: while any hold on `vp` is live, leaving the window does
    /// not retire its entries (module docs). Holds do not move the
    /// window.
    pub(crate) fn hold(&self, vp: ViewportKey) -> Hold<'_> {
        *self.lock().held.entry(vp).or_default() += 1;
        Hold { cache: self, vp }
    }

    /// Probes the cache as **root** traffic, refreshing the entry's
    /// recency on a hit. Either entry class can satisfy the probe (one
    /// keyspace — module docs). A hit protects a probationary root; the
    /// probe never advances the viewport window.
    pub fn get(&self, key: &CacheKey) -> Option<QueryResult> {
        self.probe(key, EntryClass::Root)
    }

    /// Probes the cache as **shared subplan** traffic (counted in
    /// `shared_hits`/`shared_misses`, so interior probes never skew
    /// the root hit rate), and advances the viewport window to the
    /// key's viewport. Either entry class can satisfy the probe.
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
        let mut dropped = Vec::new();
        let mut inner = self.lock();
        if traffic == EntryClass::Shared {
            inner.advance(key.viewport, &mut dropped);
        }
        inner.tick += 1;
        let tick = inner.tick;
        let Some(entry) = inner.map.get_mut(key) else {
            match traffic {
                EntryClass::Root => inner.stats.misses += 1,
                EntryClass::Shared => inner.stats.shared_misses += 1,
            }
            return None;
        };
        let old = std::mem::replace(&mut entry.tick, tick);
        let class = entry.class;
        let value = entry.value.clone();
        let promote = traffic == EntryClass::Root && entry.on_probation();
        entry.protected |= promote;
        let bytes = entry.bytes;
        if promote {
            inner.probation_bytes -= bytes;
        }
        inner.order_mut(class).remove(&old);
        inner.order_mut(class).insert(tick, *key);
        match traffic {
            EntryClass::Root => inner.stats.hits += 1,
            EntryClass::Shared => inner.stats.shared_hits += 1,
        }
        inner.stats.promoted += u64::from(promote);
        Some(value)
    }

    /// Inserts (or refreshes) a **root** (whole-plan) entry, then
    /// evicts until the budget holds. `pins` are the dataset handles
    /// the key's fingerprint identified by address (see [`DataPin`]).
    /// Accepts any [`QueryResult`] payload (an `Arc<Canvas>` converts
    /// implicitly). A `patchable` result — one a later generation is
    /// patched forward from — enters protected; so does a key the ghost
    /// set remembers; any other root enters on probation (module docs).
    /// Returns the number of evictions this insert caused.
    pub fn insert(
        &self,
        key: CacheKey,
        value: impl Into<QueryResult>,
        pins: Vec<DataPin>,
        patchable: bool,
    ) -> u64 {
        self.insert_classed(key, value.into(), pins, EntryClass::Root, patchable)
    }

    /// Inserts a **shared subplan** intermediate (always a canvas) —
    /// lower eviction priority than roots, bytes broken out in
    /// [`CacheStats::shared_bytes`]. Returns the evictions caused.
    pub fn insert_shared(&self, key: CacheKey, canvas: Arc<Canvas>, pins: Vec<DataPin>) -> u64 {
        self.insert_classed(
            key,
            QueryResult::Canvas(canvas),
            pins,
            EntryClass::Shared,
            false,
        )
    }

    fn insert_classed(
        &self,
        key: CacheKey,
        value: QueryResult,
        pins: Vec<DataPin>,
        class: EntryClass,
        patchable: bool,
    ) -> u64 {
        let bytes = value.size_bytes();
        // Unlinked entries are dropped after the guard below: freeing
        // canvas planes is not the cache lock's work.
        let mut dropped = Vec::new();
        let mut inner = self.lock();
        if bytes > inner.budget {
            inner.stats.rejected_oversize += 1;
            return 0;
        }
        inner.tick += 1;
        let tick = inner.tick;
        let protected =
            class == EntryClass::Root && (patchable || inner.ghosts.keys.contains(&key));
        // Re-insert of a live key (e.g. two leaders raced, two queries
        // rendered the same subplan concurrently, or a subplan publish
        // lands on an existing root result): replace; the new insert's
        // class and protection win.
        if let Some(old) = inner.unlink(&key) {
            inner.stats.replaced += 1;
            dropped.push(old);
        }
        inner.link(
            key,
            Entry {
                value,
                _pins: pins,
                bytes,
                tick,
                class,
                protected,
            },
        );
        inner.stats.insertions += 1;
        inner.advance(key.viewport, &mut dropped);

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
            dropped.push(inner.unlink(&lru_key).expect("order/map in sync"));
            inner.stats.evictions += 1;
            evicted += 1;
        }
        // After eviction: the mark records what stayed resident, so it
        // never exceeds the budget.
        inner.stats.peak_bytes = inner.stats.peak_bytes.max(inner.stats.bytes);
        evicted
    }

    /// Removes one entry outright (counted in [`CacheStats::removed`],
    /// not as an eviction — the caller is retiring a superseded result,
    /// e.g. a predecessor generation's canvas after an incremental
    /// refresh published its successor). Returns whether the key was
    /// live.
    pub fn remove(&self, key: &CacheKey) -> bool {
        let entry = {
            let mut inner = self.lock();
            let entry = inner.unlink(key);
            inner.stats.removed += u64::from(entry.is_some());
            entry
        };
        entry.is_some()
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
        let cache = CanvasCache::new(1 << 20, 1);
        let c = canvas(8);
        let k = key(1, &vp(8));
        assert!(cache.get(&k).is_none());
        cache.insert(k, Arc::clone(&c), Vec::new(), false);
        let hit = cache.get(&k).expect("hit");
        assert!(Arc::ptr_eq(hit.canvas(), &c));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert!((0.49..0.51).contains(&s.hit_rate()));
    }

    #[test]
    fn distinct_viewports_are_distinct_entries() {
        let cache = CanvasCache::new(1 << 20, 1);
        let k8 = key(1, &vp(8));
        let k16 = key(1, &vp(16));
        assert_ne!(k8, k16);
        cache.insert(k8, canvas(8), Vec::new(), false);
        assert!(cache.get(&k16).is_none());
        assert!(cache.get(&k8).is_some());
    }

    #[test]
    fn lru_eviction_under_tiny_budget() {
        let one = canvas(16).size_bytes();
        // Room for two entries, not three.
        let cache = CanvasCache::new(2 * one + one / 2, 1);
        let keys: Vec<CacheKey> = (0..3).map(|i| key(i, &vp(16))).collect();
        cache.insert(keys[0], canvas(16), Vec::new(), false);
        cache.insert(keys[1], canvas(16), Vec::new(), false);
        // Touch 0 so 1 is the LRU.
        assert!(cache.get(&keys[0]).is_some());
        let evicted = cache.insert(keys[2], canvas(16), Vec::new(), false);
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
        let cache = CanvasCache::new(100, 1);
        for fp in 0..3 {
            cache.insert(key(fp, &vp(8)), payload(), Vec::new(), false);
        }
        let s = cache.stats();
        assert_eq!((s.evictions, s.bytes), (1, 80));
        assert!(s.peak_bytes <= 100, "peak {} over budget", s.peak_bytes);
    }

    #[test]
    fn one_keyspace_across_classes() {
        // A root result satisfies a shared probe and vice versa, with
        // traffic tallied per probe kind.
        let cache = CanvasCache::new(1 << 20, 1);
        let k = key(5, &vp(8));
        cache.insert(k, canvas(8), Vec::new(), false);
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
        let cache = CanvasCache::new(2 * one + one / 2, 1);
        let shared_k = key(100, &vp(16));
        cache.insert_shared(shared_k, canvas(16), Vec::new());
        cache.insert(key(1, &vp(16)), canvas(16), Vec::new(), false);
        // The shared interior is the LRU, but the *root* must go.
        let evicted = cache.insert(key(2, &vp(16)), canvas(16), Vec::new(), false);
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
        let cache = CanvasCache::new(2 * one + one / 2, 1);
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
        let cache = CanvasCache::new(2 * one + one / 2, 1);
        cache.insert_shared(key(10, &vp(16)), canvas(16), Vec::new());
        cache.insert_shared(key(11, &vp(16)), canvas(16), Vec::new());
        let evicted = cache.insert(key(1, &vp(16)), canvas(16), Vec::new(), false);
        assert_eq!(evicted, 1);
        assert!(cache.get(&key(1, &vp(16))).is_some(), "newcomer resident");
        assert!(cache.get_shared(&key(10, &vp(16))).is_none());
        assert!(cache.get_shared(&key(11, &vp(16))).is_some());
    }

    #[test]
    fn reinsert_across_classes_keeps_accounting_consistent() {
        let cache = CanvasCache::new(1 << 20, 1);
        let k = key(3, &vp(16));
        let bytes = canvas(16).size_bytes();
        cache.insert_shared(k, canvas(16), Vec::new());
        assert_eq!(cache.stats().shared_bytes, bytes);
        // Same key re-published as a root: class flips, bytes counted once.
        cache.insert(k, canvas(16), Vec::new(), false);
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, bytes);
        assert_eq!(s.shared_bytes, 0);
        assert_eq!(s.shared_entries, 0);
    }

    #[test]
    fn non_canvas_payloads_ride_the_same_budget() {
        let cache = CanvasCache::new(1 << 20, 1);
        let k = key(7, &vp(8));
        let ids = QueryResult::Ids(Arc::new(vec![1, 2, 3]));
        let bytes = ids.size_bytes();
        cache.insert(k, ids.clone(), Vec::new(), false);
        let hit = cache.get(&k).expect("hit");
        assert!(hit.ptr_eq(&ids), "hit is the same shared allocation");
        let s = cache.stats();
        assert_eq!((s.result_entries, s.result_bytes), (1, bytes));
        assert_eq!((s.entries, s.bytes), (1, bytes));
        // A shared probe never yields a derived payload.
        assert!(cache.get_shared(&k).is_none());
        // Replacing with a canvas clears the non-canvas slice.
        cache.insert(k, canvas(8), Vec::new(), false);
        let s = cache.stats();
        assert_eq!((s.result_entries, s.result_bytes), (0, 0));
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn resident_bytes_identity_holds_through_a_random_mix() {
        // A seeded mix of root (probationary and patchable), shared and
        // non-canvas inserts, hits (which promote), removes, viewport
        // holds and releases, and oversize rejections over four
        // viewports, at a budget of a few entries and a window of two
        // viewports (so entries also retire). After every step the
        // gauges equal what is actually resident, every accepted insert
        // is accounted for, interiors sit only at the window's
        // viewports or at held ones, and probation fits its share of
        // the budget unless only warm roots are left on it.
        let budget = 3 * canvas(16).size_bytes();
        let cache = CanvasCache::new(budget, 2);
        let mut holds = Vec::new();
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let mut rejected = 0;
        for step in 0..4_000 {
            let k = key(u128::from(next(12)), &at(next(4) as u32));
            let side = 8 + 4 * next(3) as u32;
            match next(7) {
                0 => {
                    cache.insert(k, canvas(side), Vec::new(), next(8) == 0);
                }
                1 => {
                    cache.insert_shared(k, canvas(side), Vec::new());
                }
                2 => {
                    let ids = QueryResult::Ids(Arc::new(vec![0; next(4_000) as usize]));
                    cache.insert(k, ids, Vec::new(), false);
                }
                3 => {
                    cache.get(&k);
                    cache.get_shared(&k);
                }
                4 => {
                    cache.remove(&k);
                }
                5 => {
                    if next(2) == 0 {
                        holds.push(cache.hold(k.viewport));
                    } else if !holds.is_empty() {
                        holds.swap_remove(next(holds.len() as u64) as usize);
                    }
                }
                _ => {
                    rejected += 1;
                    cache.insert(k, canvas(64), Vec::new(), false);
                }
            }
            let inner = cache.lock();
            let s = inner.stats;
            let resident = |keep: &dyn Fn(&Entry) -> bool| {
                let kept = inner.map.values().filter(|e| keep(e));
                kept.fold((0, 0), |(n, b), e| (n + 1, b + e.value.size_bytes()))
            };
            assert_eq!((s.entries, s.bytes), resident(&|_| true), "step {step}");
            assert!(s.bytes <= budget, "step {step}: {} over {budget}", s.bytes);
            let shared = resident(&|e| e.class == EntryClass::Shared);
            assert_eq!((s.shared_entries, s.shared_bytes), shared, "step {step}");
            let results = resident(&|e| e.value.as_canvas().is_none());
            assert_eq!((s.result_entries, s.result_bytes), results, "step {step}");
            assert_eq!(s.rejected_oversize, rejected, "step {step}");
            assert!(conserved(&s), "step {step}: {s:?}");
            for (k, e) in &inner.map {
                let warm = inner.warm(&k.viewport);
                assert!(warm || !e.retires(), "step {step}: cold entry");
            }
            let probation = resident(&Entry::on_probation);
            assert_eq!(inner.probation_bytes, probation.1, "step {step}");
            let cold = inner
                .map
                .iter()
                .any(|(k, e)| e.on_probation() && !inner.warm(&k.viewport));
            let cap = budget / PROBATION_DIVISOR;
            assert!(probation.1 <= cap || !cold, "step {step}: cold probation");
            let held: usize = inner.held.values().sum();
            assert_eq!(held, holds.len(), "step {step}");
            assert!(inner.ghosts.fifo.len() <= GHOST_CAPACITY);
            assert_eq!(inner.ghosts.fifo.len(), inner.ghosts.keys.len());
        }
        // The mix reached every path it is meant to cover.
        let s = cache.stats();
        assert!(s.evictions > 0 && s.hits > 0 && s.shared_hits > 0, "{s:?}");
        assert!(s.retired > 0 && s.promoted > 0, "{s:?}");
        assert!(s.removed > 0 && s.replaced > 0, "{s:?}");
        assert!(!cache.lock().ghosts.fifo.is_empty(), "probation trimmed");
        assert!(rejected > 0 && s.insertions > s.evictions, "{s:?}");
        drop(holds);
        assert!(cache.lock().held.is_empty());
    }

    fn conserved(s: &CacheStats) -> bool {
        s.insertions == s.entries as u64 + s.evictions + s.retired + s.removed + s.replaced
    }

    /// Distinct viewports of one grid size: the `i`-th world box.
    fn at(i: u32) -> Viewport {
        let x = f64::from(i) * 10.0;
        Viewport::new(
            BBox::new(Point::new(x, 0.0), Point::new(x + 10.0, 10.0)),
            8,
            8,
        )
    }

    #[test]
    fn a_window_of_one_retires_the_previous_viewport() {
        let cache = CanvasCache::new(1 << 20, 1);
        let (a, b) = (at(0), at(1));
        let resident = |k: CacheKey| cache.lock().map.contains_key(&k);
        cache.insert(key(1, &a), canvas(8), Vec::new(), false);
        cache.insert_shared(key(2, &a), canvas(8), Vec::new());
        // The re-ask at a warm viewport still hits (and promotes).
        cache.insert(key(3, &a), canvas(8), Vec::new(), false);
        assert!(cache.get(&key(1, &a)).is_some());
        cache.insert(key(1, &b), canvas(8), Vec::new(), false);
        // `a` went cold: its interior retired. Both roots stayed: one
        // is protected, the other on probation far below its share of
        // the budget.
        assert!(!resident(key(2, &a)));
        assert!(resident(key(1, &a)) && resident(key(3, &a)));
        let s = cache.stats();
        assert_eq!((s.retired, s.evictions, s.promoted), (1, 0, 1));
        assert_eq!(s.entries, 3);
        assert!(conserved(&s), "{s:?}");
    }

    #[test]
    fn cold_probationary_roots_retire_past_their_share_of_the_budget() {
        let one = canvas(8).size_bytes();
        // Probation gets a quarter of the budget: room for one root.
        let cache = CanvasCache::new(4 * one, 2);
        let (a, b, c) = (at(0), at(1), at(2));
        let resident = |k: CacheKey| cache.lock().map.contains_key(&k);
        cache.insert(key(1, &a), canvas(8), Vec::new(), false);
        cache.insert(key(2, &a), canvas(8), Vec::new(), false);
        cache.insert(key(1, &b), canvas(8), Vec::new(), false);
        // Probation is over its share, but every root on it is warm:
        // a re-ask at a window viewport still hits.
        assert_eq!(cache.stats().retired, 0);
        cache.insert(key(1, &c), canvas(8), Vec::new(), false);
        // `a` went cold: its roots retire together; the warm `b` and
        // `c` stay although probation is still over its share.
        assert!(!resident(key(1, &a)) && !resident(key(2, &a)));
        assert!(resident(key(1, &b)) && resident(key(1, &c)));
        let s = cache.stats();
        assert_eq!((s.retired, s.evictions, s.entries), (2, 0, 2));
        assert!(conserved(&s), "{s:?}");
        let ghosts = &cache.lock().ghosts.keys;
        assert_eq!(ghosts, &HashSet::from([key(1, &a), key(2, &a)]));
    }

    #[test]
    fn a_window_of_two_keeps_the_last_two_viewports() {
        let cache = CanvasCache::new(1 << 20, 2);
        let vps: Vec<Viewport> = (0..4).map(at).collect();
        for vp in &vps[..3] {
            cache.insert_shared(key(1, vp), canvas(8), Vec::new());
        }
        // The third viewport pushed the first out; the second stays.
        // (Root probes check: they never move the window, and a root
        // hit does not protect an interior.)
        assert!(cache.get(&key(1, &vps[0])).is_none());
        assert!(cache.get(&key(1, &vps[1])).is_some());
        // A shared probe makes `vps[1]` the most recent, so the fourth
        // viewport retires `vps[2]`.
        assert!(cache.get_shared(&key(1, &vps[1])).is_some());
        cache.insert_shared(key(1, &vps[3]), canvas(8), Vec::new());
        assert!(cache.get(&key(1, &vps[2])).is_none());
        assert!(cache.get(&key(1, &vps[1])).is_some());
        assert!(cache.get(&key(1, &vps[3])).is_some());
        let s = cache.stats();
        assert_eq!((s.retired, s.entries, s.shared_bytes), (2, 2, s.bytes));
        assert!(conserved(&s), "{s:?}");
    }

    #[test]
    fn a_root_hit_promotes_once() {
        let one = canvas(8).size_bytes();
        let cache = CanvasCache::new(4 * one, 1);
        let k = key(1, &at(0));
        cache.insert(k, canvas(8), Vec::new(), false);
        assert!(cache.get(&k).is_some());
        assert!(cache.get(&k).is_some());
        assert_eq!(cache.stats().promoted, 1);
        // A root hit on a shared interior does not protect it.
        let shared = key(2, &at(0));
        cache.insert_shared(shared, canvas(8), Vec::new());
        assert!(cache.get(&shared).is_some());
        // Two roots at later viewports overflow probation; the first
        // goes once its viewport is cold, the protected one stays.
        cache.insert(key(1, &at(1)), canvas(8), Vec::new(), false);
        cache.insert(key(1, &at(2)), canvas(8), Vec::new(), false);
        assert!(
            cache.get(&k).is_some(),
            "protected root outlives its viewport"
        );
        assert!(cache.get(&shared).is_none(), "interior retired");
        assert!(cache.get(&key(1, &at(1))).is_none(), "probation trimmed");
        let s = cache.stats();
        assert_eq!((s.promoted, s.retired), (1, 2));
    }

    #[test]
    fn a_ghost_key_is_readmitted_protected() {
        let one = canvas(8).size_bytes();
        // Probation gets a quarter of the budget: room for one root.
        let cache = CanvasCache::new(4 * one, 1);
        let (a, b, c) = (at(0), at(1), at(2));
        let resident = |k: CacheKey| cache.lock().map.contains_key(&k);
        let k = key(1, &a);
        cache.insert(k, canvas(8), Vec::new(), false);
        cache.insert(key(1, &b), canvas(8), Vec::new(), false);
        assert!(!resident(k), "first visit retired");
        // Second visit: the recomputed root enters protected, so it
        // survives the walk moving on again while `b`'s root goes.
        cache.insert(k, canvas(8), Vec::new(), false);
        cache.insert(key(1, &c), canvas(8), Vec::new(), false);
        assert!(resident(k));
        assert!(!resident(key(1, &b)));
        // Nothing was promoted by a hit.
        let s = cache.stats();
        assert_eq!((s.retired, s.promoted, s.replaced), (2, 0, 0));
        assert!(conserved(&s), "{s:?}");
    }

    #[test]
    fn a_patchable_root_enters_protected() {
        let one = canvas(8).size_bytes();
        // Probation gets a quarter of the budget: room for one root.
        let cache = CanvasCache::new(4 * one, 1);
        let k = key(1, &at(0));
        cache.insert(k, canvas(8), Vec::new(), true);
        for i in 1..4 {
            cache.insert(key(1, &at(i)), canvas(8), Vec::new(), false);
        }
        assert!(cache.get(&k).is_some(), "patch base outlived its viewport");
        // Removing the patched predecessor is still an explicit remove.
        assert!(cache.remove(&k));
        let s = cache.stats();
        assert_eq!((s.retired, s.removed, s.promoted), (2, 1, 0));
        assert!(conserved(&s), "{s:?}");
    }

    #[test]
    fn shared_probes_advance_the_window_and_root_probes_do_not() {
        let cache = CanvasCache::new(1 << 20, 2);
        let vps: Vec<Viewport> = (0..5).map(at).collect();
        cache.insert_shared(key(1, &vps[0]), canvas(8), Vec::new());
        cache.insert_shared(key(1, &vps[1]), canvas(8), Vec::new());
        // A root hit at `vps[0]` and a root miss at `vps[4]` leave the
        // window as it was: `vps[0]` is still the oldest.
        assert!(cache.get(&key(1, &vps[0])).is_some());
        assert!(cache.get(&key(1, &vps[4])).is_none());
        assert_eq!(cache.stats().retired, 0);
        cache.insert_shared(key(1, &vps[2]), canvas(8), Vec::new());
        assert_eq!(cache.stats().retired, 1);
        assert!(cache.get(&key(1, &vps[0])).is_none());
        // A shared probe, even a miss, refreshes `vps[1]`, so the next
        // viewport retires `vps[2]` instead.
        assert!(cache.get_shared(&key(9, &vps[1])).is_none());
        cache.insert_shared(key(1, &vps[3]), canvas(8), Vec::new());
        assert!(cache.get(&key(1, &vps[1])).is_some());
        assert!(cache.get(&key(1, &vps[2])).is_none());
        let s = cache.stats();
        assert_eq!((s.retired, s.promoted), (2, 0));
        assert!(conserved(&s), "{s:?}");
    }

    #[test]
    fn a_held_viewport_retires_once_its_last_hold_is_released() {
        let cache = CanvasCache::new(1 << 20, 1);
        let (a, b, c) = (at(0), at(1), at(2));
        let resident = |k: CacheKey| cache.lock().map.contains_key(&k);
        let first = cache.hold(ViewportKey::from(&a));
        let second = cache.hold(ViewportKey::from(&a));
        cache.insert_shared(key(1, &a), canvas(8), Vec::new());
        cache.insert(key(2, &a), canvas(8), Vec::new(), false);
        // Other evaluations move the window past `a` while `a`'s runs:
        // `a` keeps its entries, the unheld `b` retires as usual.
        cache.insert_shared(key(1, &b), canvas(8), Vec::new());
        cache.insert_shared(key(1, &c), canvas(8), Vec::new());
        assert!(resident(key(1, &a)) && resident(key(2, &a)));
        assert!(!resident(key(1, &b)));
        drop(first);
        assert!(resident(key(1, &a)), "one evaluation still runs at `a`");
        drop(second);
        // The interior retires; the root on probation stays, far below
        // probation's share of the budget.
        assert!(!resident(key(1, &a)) && resident(key(2, &a)));
        // Releasing a viewport inside the window retires nothing.
        drop(cache.hold(ViewportKey::from(&c)));
        assert!(resident(key(1, &c)));
        let s = cache.stats();
        assert_eq!((s.retired, s.entries), (2, 2));
        assert!(conserved(&s), "{s:?}");
        assert!(cache.lock().held.is_empty());
    }

    #[test]
    fn a_rejected_insert_does_not_move_the_window() {
        let cache = CanvasCache::new(canvas(8).size_bytes(), 1);
        let k = key(1, &at(0));
        cache.insert_shared(k, canvas(8), Vec::new());
        cache.insert_shared(key(1, &at(1)), canvas(64), Vec::new());
        let s = cache.stats();
        assert_eq!((s.rejected_oversize, s.retired), (1, 0));
        assert!(cache.get(&k).is_some());
    }

    #[test]
    fn oversize_and_zero_budget_reject() {
        let cache = CanvasCache::new(0, 1);
        let k = key(9, &vp(8));
        assert_eq!(cache.insert(k, canvas(8), Vec::new(), false), 0);
        assert!(cache.get(&k).is_none());
        let s = cache.stats();
        assert_eq!(s.rejected_oversize, 1);
        assert_eq!(s.entries, 0);
    }
}

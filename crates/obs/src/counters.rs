//! Lock-free cumulative counters for caches and buffer pools.
//!
//! Hot paths (the SIMT plan cache, the warp-context arena) need
//! process-lifetime hit/miss accounting that costs one relaxed atomic
//! increment per event and can be snapshotted at any time without
//! stopping the world. Two shapes cover both users:
//!
//! * [`CacheCounters`] — hit/miss pairs for keyed caches (decode-plan
//!   cache, verifier verdict cache);
//! * [`PoolCounters`] — acquire/reuse/allocate triples for object pools,
//!   where `allocated == 0` over a window proves the steady state is
//!   allocation-free.
//!
//! Counters are observational, like the [`crate::Recorder`] trait: reading
//! them never perturbs the measured system.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative hit/miss counters for a keyed cache.
///
/// # Example
///
/// ```
/// use rhythm_obs::CacheCounters;
///
/// static COUNTERS: CacheCounters = CacheCounters::new();
/// COUNTERS.record_miss();
/// COUNTERS.record_hit();
/// COUNTERS.record_hit();
/// let snap = COUNTERS.snapshot();
/// assert_eq!((snap.hits, snap.misses), (2, 1));
/// assert!((snap.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Default)]
pub struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A point-in-time copy of a [`CacheCounters`].
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct CacheSnapshot {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build/compute the entry.
    pub misses: u64,
}

impl CacheSnapshot {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter deltas since an earlier snapshot.
    pub fn since(&self, earlier: &CacheSnapshot) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        }
    }
}

impl CacheCounters {
    /// Fresh counters at zero (usable in `static` position).
    pub const fn new() -> Self {
        CacheCounters {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Record one cache hit.
    #[inline]
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one cache miss.
    #[inline]
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Consistent-enough copy of the counters (each counter is read
    /// atomically; the pair is not a single atomic snapshot).
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// Cumulative counters for an object pool / arena.
///
/// Every checkout is an *acquire*; it is also either a *reuse* (served
/// from the free list) or an *allocate* (a fresh heap object was built).
/// `acquired == reused + allocated` always holds, so a window where
/// `allocated` did not move proves the pool ran allocation-free.
///
/// # Example
///
/// ```
/// use rhythm_obs::PoolCounters;
///
/// static POOL: PoolCounters = PoolCounters::new();
/// POOL.record_allocated();
/// POOL.record_reused();
/// let snap = POOL.snapshot();
/// assert_eq!(snap.acquired, 2);
/// assert_eq!(snap.reused, 1);
/// assert_eq!(snap.allocated, 1);
/// ```
#[derive(Debug, Default)]
pub struct PoolCounters {
    reused: AtomicU64,
    allocated: AtomicU64,
}

/// A point-in-time copy of a [`PoolCounters`].
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct PoolSnapshot {
    /// Total checkouts (`reused + allocated`).
    pub acquired: u64,
    /// Checkouts served by recycling a pooled object.
    pub reused: u64,
    /// Checkouts that had to heap-allocate a fresh object.
    pub allocated: u64,
}

impl PoolSnapshot {
    /// Counter deltas since an earlier snapshot.
    pub fn since(&self, earlier: &PoolSnapshot) -> PoolSnapshot {
        PoolSnapshot {
            acquired: self.acquired - earlier.acquired,
            reused: self.reused - earlier.reused,
            allocated: self.allocated - earlier.allocated,
        }
    }

    /// Fraction of checkouts served without allocating (0.0 when idle).
    pub fn reuse_rate(&self) -> f64 {
        if self.acquired == 0 {
            0.0
        } else {
            self.reused as f64 / self.acquired as f64
        }
    }
}

impl PoolCounters {
    /// Fresh counters at zero (usable in `static` position).
    pub const fn new() -> Self {
        PoolCounters {
            reused: AtomicU64::new(0),
            allocated: AtomicU64::new(0),
        }
    }

    /// Record a checkout served from the free list.
    #[inline]
    pub fn record_reused(&self) {
        self.reused.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a checkout that allocated a fresh object.
    #[inline]
    pub fn record_allocated(&self) {
        self.allocated.fetch_add(1, Ordering::Relaxed);
    }

    /// Consistent-enough copy of the counters.
    pub fn snapshot(&self) -> PoolSnapshot {
        let reused = self.reused.load(Ordering::Relaxed);
        let allocated = self.allocated.load(Ordering::Relaxed);
        PoolSnapshot {
            acquired: reused + allocated,
            reused,
            allocated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_counters_accumulate_and_delta() {
        let c = CacheCounters::new();
        assert_eq!(c.snapshot(), CacheSnapshot::default());
        assert_eq!(c.snapshot().hit_rate(), 0.0);
        c.record_miss();
        let before = c.snapshot();
        c.record_hit();
        c.record_hit();
        let after = c.snapshot();
        assert_eq!(after.hits, 2);
        assert_eq!(after.misses, 1);
        assert_eq!(after.lookups(), 3);
        let delta = after.since(&before);
        assert_eq!(delta, CacheSnapshot { hits: 2, misses: 0 });
        assert!((delta.hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pool_counters_acquired_is_sum() {
        let p = PoolCounters::new();
        p.record_allocated();
        p.record_reused();
        p.record_reused();
        let s = p.snapshot();
        assert_eq!(s.acquired, 3);
        assert_eq!(s.reused, 2);
        assert_eq!(s.allocated, 1);
        assert!((s.reuse_rate() - 2.0 / 3.0).abs() < 1e-12);
        let quiet = p.snapshot().since(&s);
        assert_eq!(quiet, PoolSnapshot::default());
        assert_eq!(quiet.reuse_rate(), 0.0);
    }

    #[test]
    fn counters_are_thread_safe() {
        let c = CacheCounters::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.record_hit();
                    }
                });
            }
        });
        assert_eq!(c.snapshot().hits, 4000);
    }
}

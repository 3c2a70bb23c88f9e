//! Service-level counters (atomic, lock-free, shared by reference).

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters describing engine activity since start, plus the
/// serving-tier gauges (`connections_active` is the only non-monotonic
/// field: the front end increments it on accept and decrements it on
/// connection close).
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    sessions_opened: AtomicU64,
    sessions_closed: AtomicU64,
    sessions_evicted: AtomicU64,
    next_calls: AtomicU64,
    matches_served: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    errors: AtomicU64,
    connections_active: AtomicU64,
    queue_depth_max: AtomicU64,
    shed_total: AtomicU64,
    graph_updates: AtomicU64,
    plans_invalidated: AtomicU64,
    prefix_entries_invalidated: AtomicU64,
}

/// A point-in-time copy of [`ServiceMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Sessions created via `open`.
    pub sessions_opened: u64,
    /// Sessions ended via `close`.
    pub sessions_closed: u64,
    /// Sessions reclaimed by TTL eviction.
    pub sessions_evicted: u64,
    /// `next` batches executed.
    pub next_calls: u64,
    /// Total matches returned to clients.
    pub matches_served: u64,
    /// Sessions opened against a cached result prefix.
    pub cache_hits: u64,
    /// Sessions that had to start a live enumerator.
    pub cache_misses: u64,
    /// Sessions opened onto an already-cached query plan (shared
    /// setup: zero candidate-discovery work).
    pub plan_hits: u64,
    /// Sessions whose open registered a fresh query plan.
    pub plan_misses: u64,
    /// Requests that failed (bad query, unknown session, a panic, ...).
    pub errors: u64,
    /// Client connections currently held by the front end.
    pub connections_active: u64,
    /// High-water mark of any connection's pending-request queue (the
    /// pipelining depth clients actually reached; 0 when nothing went
    /// through the front end).
    pub queue_depth_max: u64,
    /// Requests refused with `ERR overloaded`: pipeline queue or write
    /// buffer full.
    pub shed_total: u64,
    /// Graph deltas successfully applied (`UPDATE` requests or
    /// `apply_delta` calls; rejected deltas count as `errors`).
    pub graph_updates: u64,
    /// Cached query plans dropped by delta invalidation (plans whose
    /// closure tables a delta touched; unaffected plans survive with a
    /// version re-stamp and are *not* counted).
    pub plans_invalidated: u64,
    /// Result-cache prefix entries dropped by delta invalidation.
    pub prefix_entries_invalidated: u64,
}

macro_rules! bump {
    ($($fn_name:ident => $field:ident),* $(,)?) => {$(
        #[doc = concat!("Increments `", stringify!($field), "`.")]
        pub fn $fn_name(&self) {
            self.$field.fetch_add(1, Ordering::Relaxed);
        }
    )*};
}

impl ServiceMetrics {
    bump! {
        session_opened => sessions_opened,
        session_closed => sessions_closed,
        next_call => next_calls,
        cache_hit => cache_hits,
        cache_miss => cache_misses,
        plan_hit => plan_hits,
        plan_miss => plan_misses,
        error => errors,
        shed => shed_total,
        graph_update => graph_updates,
    }

    /// Adds `n` delta-invalidated plans.
    pub fn plans_invalidated(&self, n: u64) {
        self.plans_invalidated.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` delta-invalidated result-cache entries.
    pub fn prefix_entries_invalidated(&self, n: u64) {
        self.prefix_entries_invalidated
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` evicted sessions.
    pub fn sessions_evicted(&self, n: u64) {
        self.sessions_evicted.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` served matches.
    pub fn matches_served(&self, n: u64) {
        self.matches_served.fetch_add(n, Ordering::Relaxed);
    }

    /// A front end accepted a connection (raises the gauge).
    pub fn connection_opened(&self) {
        self.connections_active.fetch_add(1, Ordering::Relaxed);
    }

    /// A front end released a connection (lowers the gauge).
    pub fn connection_closed(&self) {
        self.connections_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records an observed per-connection pending-queue depth; only the
    /// maximum ever seen is kept.
    pub fn queue_depth_observed(&self, depth: u64) {
        self.queue_depth_max.fetch_max(depth, Ordering::Relaxed);
    }

    /// Reads all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_closed: self.sessions_closed.load(Ordering::Relaxed),
            sessions_evicted: self.sessions_evicted.load(Ordering::Relaxed),
            next_calls: self.next_calls.load(Ordering::Relaxed),
            matches_served: self.matches_served.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.plan_misses.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            connections_active: self.connections_active.load(Ordering::Relaxed),
            queue_depth_max: self.queue_depth_max.load(Ordering::Relaxed),
            shed_total: self.shed_total.load(Ordering::Relaxed),
            graph_updates: self.graph_updates.load(Ordering::Relaxed),
            plans_invalidated: self.plans_invalidated.load(Ordering::Relaxed),
            prefix_entries_invalidated: self.prefix_entries_invalidated.load(Ordering::Relaxed),
        }
    }
}

impl MetricsSnapshot {
    /// Renders as the `STATS` wire line payload (`key=value` pairs).
    pub fn to_wire(&self) -> String {
        format!(
            "sessions_opened={} sessions_closed={} sessions_evicted={} next_calls={} \
             matches_served={} cache_hits={} cache_misses={} plan_hits={} plan_misses={} \
             errors={} connections_active={} queue_depth_max={} shed_total={} \
             graph_updates={} plans_invalidated={} prefix_entries_invalidated={}",
            self.sessions_opened,
            self.sessions_closed,
            self.sessions_evicted,
            self.next_calls,
            self.matches_served,
            self.cache_hits,
            self.cache_misses,
            self.plan_hits,
            self.plan_misses,
            self.errors,
            self.connections_active,
            self.queue_depth_max,
            self.shed_total,
            self.graph_updates,
            self.plans_invalidated,
            self.prefix_entries_invalidated,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = ServiceMetrics::default();
        m.session_opened();
        m.session_opened();
        m.session_closed();
        m.sessions_evicted(3);
        m.next_call();
        m.matches_served(10);
        m.cache_hit();
        m.cache_miss();
        m.plan_hit();
        m.plan_hit();
        m.plan_miss();
        m.error();
        m.connection_opened();
        m.connection_opened();
        m.connection_closed();
        m.queue_depth_observed(3);
        m.queue_depth_observed(9);
        m.queue_depth_observed(5); // max is sticky
        m.shed();
        m.shed();
        m.graph_update();
        m.plans_invalidated(4);
        m.prefix_entries_invalidated(6);
        let s = m.snapshot();
        assert_eq!(s.sessions_opened, 2);
        assert_eq!(s.sessions_closed, 1);
        assert_eq!(s.sessions_evicted, 3);
        assert_eq!(s.next_calls, 1);
        assert_eq!(s.matches_served, 10);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.plan_hits, 2);
        assert_eq!(s.plan_misses, 1);
        assert_eq!(s.errors, 1);
        assert_eq!(s.connections_active, 1, "gauge: 2 opened - 1 closed");
        assert_eq!(s.queue_depth_max, 9, "high-water mark, not last value");
        assert_eq!(s.shed_total, 2);
        assert!(s.to_wire().contains("matches_served=10"));
        assert!(s.to_wire().contains("plan_hits=2 plan_misses=1"));
        assert_eq!(s.graph_updates, 1);
        assert_eq!(s.plans_invalidated, 4);
        assert_eq!(s.prefix_entries_invalidated, 6);
        assert!(s
            .to_wire()
            .contains("connections_active=1 queue_depth_max=9 shed_total=2"));
        assert!(s
            .to_wire()
            .contains("graph_updates=1 plans_invalidated=4 prefix_entries_invalidated=6"));
    }
}

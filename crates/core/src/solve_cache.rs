//! Cross-round solve cache: the pipeline's warm-start layer.
//!
//! RASA runs as a *periodic* re-allocation service; consecutive rounds see
//! nearly identical clusters. A [`SolveCache`] handed to
//! [`RasaPipeline::optimize_with_cache`](crate::RasaPipeline::optimize_with_cache)
//! carries three kinds of reuse across rounds:
//!
//! * **Subproblem solves** — keyed by the full partition fingerprint
//!   (`Subproblem::fingerprint`): a subproblem identical to one solved
//!   last round replays its cached sub-placement verbatim, skipping the
//!   solver entirely.
//! * **Column pools** — an embedded [`ColumnCache`] keyed by the
//!   service-set fingerprint seeds column generation's restricted master
//!   for *dirty* subproblems whose service set survived (machine-side
//!   perturbations don't invalidate the pool).
//! * **Simplex bases** — inside each CG run, the master LP warm-starts
//!   round-over-round from its previous basis (`rasa-lp`'s [`Basis`]
//!   support); this needs no cross-round state and comes for free once the
//!   two caches above route a re-solve into CG.
//!
//! Entries not touched in a round are evicted at the end of that round
//! (the partition changed shape), reported as *invalidations* in
//! [`CacheRoundStats`] and the `cache.invalidations` obs counter.
//!
//! The cache is `Sync`; one instance may serve concurrent pipelines, and
//! the pipeline's parallel solve path shares it across worker threads.
//!
//! [`Basis`]: rasa_lp::Basis

use parking_lot::Mutex;
use rasa_model::Placement;
use rasa_select::PoolAlgorithm;
use rasa_solver::ColumnCache;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A cached subproblem solve: everything needed to replay the result
/// without re-running a solver.
#[derive(Clone, Debug)]
pub struct CachedSubSolve {
    /// The sub-local placement the solver produced.
    pub placement: Placement,
    /// Which pool algorithm produced it.
    pub algorithm: PoolAlgorithm,
    /// Whether that solve ran to completion within its deadline.
    pub completed: bool,
    /// The gained-affinity objective the solver reported for this
    /// placement. Replays cross-check it against a recomputed value
    /// (Gate 2), so an entry mutated after being stored is caught
    /// instead of replayed.
    pub gained_affinity: f64,
}

/// Hit/miss/invalidation tallies for one pipeline round, reported on
/// [`RasaRun::cache`](crate::RasaRun::cache).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheRoundStats {
    /// Subproblems replayed from cache.
    pub hits: usize,
    /// Subproblems that had to be solved.
    pub misses: usize,
    /// Cache entries evicted because no current subproblem matched them.
    pub invalidations: usize,
}

/// Cross-round warm-start state for [`RasaPipeline`](crate::RasaPipeline).
///
/// Create one per logical problem stream and pass it to every
/// `optimize_with_cache` call; the pipeline fills and invalidates it.
#[derive(Debug, Default)]
pub struct SolveCache {
    subs: Mutex<HashMap<u64, CachedSubSolve>>,
    columns: Arc<ColumnCache>,
}

impl SolveCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The embedded cross-round column-pool cache (shared handle).
    pub fn columns(&self) -> Arc<ColumnCache> {
        Arc::clone(&self.columns)
    }

    /// The cached solve for a full subproblem fingerprint, if any.
    pub fn lookup(&self, fingerprint: u64) -> Option<CachedSubSolve> {
        self.subs.lock().get(&fingerprint).cloned()
    }

    /// Store (or replace) the solve cached under `fingerprint`.
    pub fn store(&self, fingerprint: u64, entry: CachedSubSolve) {
        self.subs.lock().insert(fingerprint, entry);
    }

    /// Evict every entry not referenced by the current round: subproblem
    /// solves whose full fingerprint is not in `live_subs`, and column
    /// pools whose service-set fingerprint is not in `live_columns`.
    /// Returns the total number of evictions.
    pub fn retain(&self, live_subs: &HashSet<u64>, live_columns: &HashSet<u64>) -> usize {
        let mut subs = self.subs.lock();
        let before = subs.len();
        subs.retain(|k, _| live_subs.contains(k));
        let evicted_subs = before - subs.len();
        drop(subs);
        evicted_subs + self.columns.retain_keys(live_columns)
    }

    /// Fingerprints of every cached subproblem solve, in no particular
    /// order. Introspection for tests and chaos campaigns that need to
    /// target (e.g. poison) specific entries through `lookup`/`store`.
    pub fn fingerprints(&self) -> Vec<u64> {
        self.subs.lock().keys().copied().collect()
    }

    /// Number of cached subproblem solves.
    pub fn len(&self) -> usize {
        self.subs.lock().len()
    }

    /// `true` when no subproblem solve is cached.
    pub fn is_empty(&self) -> bool {
        self.subs.lock().is_empty()
    }

    /// Drop all cached state (subproblem solves and column pools).
    pub fn clear(&self) {
        self.subs.lock().clear();
        self.columns.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> CachedSubSolve {
        CachedSubSolve {
            placement: Placement::empty(0),
            algorithm: PoolAlgorithm::Mip,
            completed: true,
            gained_affinity: 0.0,
        }
    }

    #[test]
    fn store_lookup_round_trip() {
        let cache = SolveCache::new();
        assert!(cache.is_empty());
        assert!(cache.lookup(5).is_none());
        cache.store(5, entry());
        let hit = cache.lookup(5).expect("hit");
        assert_eq!(hit.algorithm, PoolAlgorithm::Mip);
        assert!(hit.completed);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn retain_evicts_both_layers_and_counts() {
        let cache = SolveCache::new();
        cache.store(1, entry());
        cache.store(2, entry());
        cache
            .columns()
            .put(10, vec![vec![(rasa_model::ServiceId(0), 1)]]);
        cache
            .columns()
            .put(11, vec![vec![(rasa_model::ServiceId(1), 1)]]);

        let live_subs: HashSet<u64> = [1].into_iter().collect();
        let live_cols: HashSet<u64> = [11].into_iter().collect();
        assert_eq!(cache.retain(&live_subs, &live_cols), 2);
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(1).is_some());
        assert!(cache.columns().get(10).is_none());
        assert!(cache.columns().get(11).is_some());
    }

    #[test]
    fn fingerprints_lists_cached_keys() {
        let cache = SolveCache::new();
        cache.store(3, entry());
        cache.store(9, entry());
        let mut fps = cache.fingerprints();
        fps.sort_unstable();
        assert_eq!(fps, vec![3, 9]);
    }

    #[test]
    fn clear_drops_everything() {
        let cache = SolveCache::new();
        cache.store(1, entry());
        cache
            .columns()
            .put(10, vec![vec![(rasa_model::ServiceId(0), 1)]]);
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.columns().is_empty());
    }
}

//! The session cache: one built [`PlacementSession`] per `(program
//! contents, device, scope)`, evicting the least-reused idle session.
//!
//! # One record per session
//!
//! Each cache entry is the single record of its session: the program and
//! its [`SessionKey`], the solver state a worker checks out, the memo, the
//! eviction statistics and the jobs queued on it.  Whether a session is in
//! use is read from the entry alone — it has queued jobs, or a worker holds
//! its state — so no count of queued jobs is kept beside it.
//!
//! # Keying and collision safety
//!
//! Entries carry a [`SessionKey`] — a 64-bit content fingerprint of the
//! program plus the device key and placement scope.  The fingerprint is
//! **not trusted**: a lookup scans the live entries (at most `capacity`
//! idle ones plus those in use) and, on a key match, still compares the
//! full program (cheap `Arc` pointer check first, deep equality second)
//! before declaring a hit, so two distinct programs whose fingerprints
//! collide coexist as separate entries under the same key.  The
//! `cache_correctness` integration tests force this path with a constant
//! fingerprint function.
//!
//! Because the key covers the program *contents* (not its registered name),
//! re-registering a name with different contents can never serve a stale
//! placement: the new contents miss the old entry by deep comparison and
//! build their own session.
//!
//! # Eviction invariants
//!
//! At most `capacity` entries are kept idle — no queued job and no worker
//! holding the state.  Entries in use do not count and are **never**
//! evicted, so a burst of distinct requests grows the cache past its
//! capacity rather than blocking (admission backpressure is the server's
//! job, not the cache's).
//!
//! The victim is the idle entry with the fewest reuses (lookups that found
//! it), least recently used among equals.  An insert into a full cache
//! evicts only entries that were never reused: when every idle entry has
//! been, the newcomer runs over capacity, and when a worker releases it
//! the least-reused idle entry goes — the newcomer itself, unless it was
//! reused meanwhile.  Each such release-time eviction halves all reuse
//! counts, so sessions that stop being reused age out and a new working
//! set moves in after a few misses.  Evicting the least recently used
//! entry on every insert would let each one-off `(program, device)` pair
//! push out a hot session that then misses on its next request: once the
//! working set outgrows the cache, every rare request would cost two
//! misses.

use std::collections::HashMap;
use std::sync::Arc;

use flashram_core::{PlacementScope, PlacementSession, SweepPoint};
use flashram_ir::MachineProgram;

use crate::request::{Outcome, QueryKey};

/// The cache key: program content fingerprint + device + scope.
///
/// The fingerprint is advisory (see the module docs); the device key is a
/// `&'static str` from the device database, so key equality is exact on
/// the other two coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionKey {
    /// Content fingerprint of the program (see
    /// [`MachineProgram::content_fingerprint`]); collisions are tolerated.
    pub fingerprint: u64,
    /// Device database key the session's board was built from.
    pub device: &'static str,
    /// The placement scope the session's model was extracted under.
    pub scope: PlacementScope,
}

/// A memoized answer for one exact query against one session.
///
/// Only deterministic outcomes are memoized ([`Outcome::Exact`] and
/// [`Outcome::Heuristic`]); a [`Outcome::Timeout`] answer depends on
/// wall-clock timing and is recomputed on every submission.
#[derive(Debug, Clone)]
pub(crate) struct MemoEntry {
    pub outcome: Outcome,
    pub points: Vec<SweepPoint>,
}

/// The per-entry solver state a worker checks out while solving.
#[derive(Debug, Default)]
pub(crate) struct EntryState {
    /// The built session; `None` until the first claiming worker builds it
    /// (building the ILP is too slow to do under the server lock).
    pub session: Option<PlacementSession>,
    /// Memoized deterministic answers, keyed by canonical query.
    pub memo: HashMap<QueryKey, MemoEntry>,
}

struct CacheEntry<J> {
    key: SessionKey,
    program: Arc<MachineProgram>,
    /// `None` while a worker has the state checked out.
    state: Option<EntryState>,
    /// Jobs queued on this entry, in arrival order; a claim drains them.
    jobs: Vec<J>,
    /// LRU clock value of the last lookup or claim.
    last_used: u64,
    /// Lookups that found this entry, halved on every release-time
    /// eviction (module docs).
    reuses: u64,
}

impl<J> CacheEntry<J> {
    /// No queued job and not claimed: the only entries eviction may touch.
    fn is_idle(&self) -> bool {
        self.jobs.is_empty() && self.state.is_some()
    }

    /// Jobs queued and nobody holding the state: a worker may claim it.
    fn is_waiting(&self) -> bool {
        !self.jobs.is_empty() && self.state.is_some()
    }
}

/// Counters describing the cache's behavior so far (monotone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an existing session entry for the same program
    /// contents.
    pub hits: u64,
    /// Lookups that had to create a new entry.
    pub misses: u64,
    /// Entries evicted to keep at most `capacity` entries idle.
    pub evictions: u64,
    /// Misses on which some live entry had the same [`SessionKey`] but a
    /// *different* program — a fingerprint collision caught by the deep
    /// comparison.
    pub collisions: u64,
    /// Entries torn down by fault containment: a worker panicked (or was
    /// presumed wedged by the watchdog) while holding the entry's session,
    /// so the possibly half-mutated state was discarded instead of
    /// released.  Queued jobs move to a freshly built entry for the same
    /// key; sessions are pure functions of `(program, device, scope)`, so
    /// the rebuild answers identically.
    pub quarantined: u64,
}

/// Opaque handle to a cache entry.  Handles stay valid for as long as the
/// entry has queued jobs or is claimed; ids are never reused, so a handle
/// to an evicted entry names nothing rather than a newer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct EntryId(u64);

/// The session cache over queued jobs of type `J` (see the module docs for
/// the invariants).
pub(crate) struct SessionCache<J> {
    capacity: usize,
    clock: u64,
    next_id: u64,
    entries: HashMap<EntryId, CacheEntry<J>>,
    stats: CacheStats,
}

impl<J> SessionCache<J> {
    /// A cache keeping at most `capacity` idle sessions (entries in use
    /// come on top; see the module docs).
    pub(crate) fn new(capacity: usize) -> SessionCache<J> {
        SessionCache {
            capacity: capacity.max(1),
            clock: 0,
            next_id: 0,
            entries: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// The monotone behavior counters.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Find the entry for `(key, program)` or create one, returning the
    /// handle and whether it was a hit.  The deep program comparison makes
    /// this collision- and staleness-safe (module docs).
    pub(crate) fn lookup_or_insert(
        &mut self,
        key: SessionKey,
        program: &Arc<MachineProgram>,
    ) -> (EntryId, bool) {
        let tick = self.tick();
        let mut collided = false;
        for (&id, entry) in &mut self.entries {
            if entry.key != key {
                continue;
            }
            if Arc::ptr_eq(&entry.program, program) || entry.program == *program {
                self.stats.hits += 1;
                entry.last_used = tick;
                entry.reuses += 1;
                return (id, true);
            }
            collided = true;
        }
        if collided {
            self.stats.collisions += 1;
        }
        self.stats.misses += 1;
        self.evict_to_fit();
        let id = EntryId(self.next_id);
        self.next_id += 1;
        self.entries.insert(
            id,
            CacheEntry {
                key,
                program: Arc::clone(program),
                state: Some(EntryState::default()),
                jobs: Vec::new(),
                last_used: tick,
                reuses: 0,
            },
        );
        (id, false)
    }

    /// Queue `jobs` on the live entry `id`; queued jobs keep it from
    /// eviction until a claim or quarantine takes them.
    pub(crate) fn queue(&mut self, id: EntryId, jobs: impl IntoIterator<Item = J>) {
        self.entries
            .get_mut(&id)
            .expect("jobs are queued on a live entry")
            .jobs
            .extend(jobs);
    }

    /// Make room for an insert by evicting never-reused idle entries while
    /// the cache is full; reused ones are left to
    /// [`SessionCache::release`].
    fn evict_to_fit(&mut self) {
        while self.entries.len() >= self.capacity {
            match self.idle_victim() {
                Some(id) if self.entries[&id].reuses == 0 => {
                    self.entries.remove(&id);
                    self.stats.evictions += 1;
                }
                _ => return,
            }
        }
    }

    /// Evict idle entries, least reused first, until at most `capacity`
    /// are idle, halving every reuse count per eviction.
    fn shrink_to_capacity(&mut self) {
        while self.entries.values().filter(|e| e.is_idle()).count() > self.capacity {
            let id = self.idle_victim().expect("an idle entry exists");
            self.entries.remove(&id);
            self.stats.evictions += 1;
            for entry in self.entries.values_mut() {
                entry.reuses /= 2;
            }
        }
    }

    /// The idle entry with the fewest reuses, least recently used among
    /// equals.
    fn idle_victim(&self) -> Option<EntryId> {
        self.entries
            .iter()
            .filter(|(_, e)| e.is_idle())
            .min_by_key(|(_, e)| (e.reuses, e.last_used))
            .map(|(&id, _)| id)
    }

    /// Force-evict the next idle victim regardless of occupancy pressure —
    /// the fault-injection eviction-race failpoint, simulating an eviction
    /// racing the next admission for the same key.  No-op (returning
    /// `false`) when every entry is in use.
    #[cfg(feature = "fault-injection")]
    pub(crate) fn evict_one_idle(&mut self) -> bool {
        let Some(id) = self.idle_victim() else {
            return false;
        };
        self.entries.remove(&id);
        self.stats.evictions += 1;
        true
    }

    /// Tear down a (possibly claimed, possibly queued-on) entry whose
    /// session can no longer be trusted — a panic or watchdog kill
    /// interrupted the worker holding it mid-mutation.  Returns the key,
    /// the program and the queued jobs so the caller can rebuild a fresh
    /// entry and re-home them.
    pub(crate) fn quarantine(
        &mut self,
        id: EntryId,
    ) -> Option<(SessionKey, Arc<MachineProgram>, Vec<J>)> {
        let entry = self.entries.remove(&id)?;
        self.stats.quarantined += 1;
        Some((entry.key, entry.program, entry.jobs))
    }

    /// Check a waiting entry out for a worker: its program, key, solver
    /// state and every queued job, in arrival order.  Returns `None` unless
    /// the entry is live, unclaimed and has jobs (the server's ready queue
    /// holds only such entries).
    pub(crate) fn claim(
        &mut self,
        id: EntryId,
    ) -> Option<(Arc<MachineProgram>, SessionKey, EntryState, Vec<J>)> {
        let tick = self.tick();
        let entry = self.entries.get_mut(&id).filter(|e| e.is_waiting())?;
        let state = entry.state.take()?;
        entry.last_used = tick;
        let jobs = std::mem::take(&mut entry.jobs);
        Some((Arc::clone(&entry.program), entry.key, state, jobs))
    }

    /// Return a claimed entry's state after solving, then evict idle
    /// entries while the cache is over capacity (possibly `id` itself, if
    /// no job is queued on it).  Tolerates an entry that was quarantined
    /// while the worker held the state (the stale state is simply dropped —
    /// the rebuilt entry must never see it).
    pub(crate) fn release(&mut self, id: EntryId, state: EntryState) {
        let Some(entry) = self.entries.get_mut(&id) else {
            return;
        };
        debug_assert!(entry.state.is_none(), "release without claim");
        entry.state = Some(state);
        self.shrink_to_capacity();
    }

    /// Whether `id` is live, unclaimed and has queued jobs.
    pub(crate) fn is_waiting(&self, id: EntryId) -> bool {
        self.entries.get(&id).is_some_and(CacheEntry::is_waiting)
    }

    /// Every entry that is live, unclaimed and has queued jobs.
    pub(crate) fn waiting(&self) -> impl Iterator<Item = EntryId> + '_ {
        self.entries
            .iter()
            .filter(|(_, e)| e.is_waiting())
            .map(|(&id, _)| id)
    }

    /// Jobs queued across all entries.
    pub(crate) fn queued_jobs(&self) -> usize {
        self.entries.values().map(|e| e.jobs.len()).sum()
    }

    /// Take every queued job, leaving the entries themselves in place —
    /// the server's drain fails them all.
    pub(crate) fn drain_jobs(&mut self) -> Vec<J> {
        self.entries
            .values_mut()
            .flat_map(|e| std::mem::take(&mut e.jobs))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashram_minicc::{compile_program, OptLevel, SourceUnit};

    fn program(ret: i32) -> Arc<MachineProgram> {
        let src = format!("int main() {{ return {ret}; }}");
        Arc::new(compile_program(&[SourceUnit::application(&src)], OptLevel::O1).unwrap())
    }

    fn key(fingerprint: u64) -> SessionKey {
        SessionKey {
            fingerprint,
            device: "stm32f100",
            scope: PlacementScope::default(),
        }
    }

    /// The cache as the unit tests drive it: jobs are plain labels.
    type Cache = SessionCache<&'static str>;

    fn contains(cache: &Cache, id: EntryId) -> bool {
        cache.entries.contains_key(&id)
    }

    #[test]
    fn lookup_hits_only_on_identical_contents() {
        let mut cache = Cache::new(4);
        let a = program(1);
        let b = program(2);
        let (ia, hit_a) = cache.lookup_or_insert(key(7), &a);
        assert!(!hit_a);
        // Same fingerprint, different program: a collision, not a hit.
        let (ib, hit_b) = cache.lookup_or_insert(key(7), &b);
        assert!(!hit_b);
        assert_ne!(ia, ib);
        assert_eq!(cache.stats().collisions, 1);
        // A clone of the same contents (different Arc) still hits.
        let a2 = Arc::new((*a).clone());
        let (ia2, hit_a2) = cache.lookup_or_insert(key(7), &a2);
        assert!(hit_a2);
        assert_eq!(ia, ia2);
        assert_eq!(cache.stats().hits, 1);
    }

    /// Admit one job for `k` and serve it, as the server does.
    fn serve(cache: &mut Cache, k: u64) -> EntryId {
        let (id, _) = cache.lookup_or_insert(key(k), &program(k as i32));
        cache.queue(id, ["job"]);
        let (_, _, state, jobs) = cache.claim(id).expect("claimable");
        assert_eq!(jobs, ["job"]);
        cache.release(id, state);
        id
    }

    #[test]
    fn the_least_reused_idle_entry_is_evicted() {
        let mut cache = Cache::new(2);
        let i1 = serve(&mut cache, 1);
        let i2 = serve(&mut cache, 2);
        serve(&mut cache, 1);
        let i3 = serve(&mut cache, 3);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.entries.len(), 2);
        assert!(contains(&cache, i1), "the reused entry survives");
        assert!(!contains(&cache, i2), "the older never-reused entry goes");
        assert!(contains(&cache, i3));
    }

    #[test]
    fn a_newcomer_does_not_displace_reused_sessions() {
        let mut cache = Cache::new(2);
        let i1 = serve(&mut cache, 1);
        let i2 = serve(&mut cache, 2);
        serve(&mut cache, 1);
        serve(&mut cache, 2);
        // Both residents were reused: the newcomer is the one evicted.
        let i3 = serve(&mut cache, 3);
        assert!(!contains(&cache, i3));
        assert!(contains(&cache, i1) && contains(&cache, i2));
        // The eviction halved the residents' reuses to zero, so the next
        // newcomer displaces the least recently used of them.
        let i4 = serve(&mut cache, 4);
        assert!(!contains(&cache, i1), "aged-out resident evicted");
        assert!(contains(&cache, i2) && contains(&cache, i4));
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn pinned_and_claimed_entries_are_never_evicted() {
        let mut cache = Cache::new(1);
        let (i1, _) = cache.lookup_or_insert(key(1), &program(1));
        cache.queue(i1, ["queued"]);
        let (i2, _) = cache.lookup_or_insert(key(2), &program(2));
        cache.queue(i2, ["claimed"]);
        let (_, _, state2, _) = cache.claim(i2).expect("claimable");
        // Nothing is idle, so a third entry grows the cache past capacity.
        let i3 = serve(&mut cache, 3);
        assert_eq!(cache.stats().evictions, 0, "in-use entries survive");
        assert_eq!(cache.entries.len(), 3, "cache grows past capacity instead");
        assert!(cache.claim(i2).is_none(), "double claim is refused");
        // i1 goes idle while i2 stays claimed: the next release keeps one
        // idle entry, the newest, and never touches the claimed i2.
        assert_eq!(cache.drain_jobs(), ["queued"]);
        let i4 = serve(&mut cache, 4);
        assert!(!contains(&cache, i1) && !contains(&cache, i3));
        assert!(contains(&cache, i2) && contains(&cache, i4));
        assert_eq!(cache.stats().evictions, 2);
        cache.release(i2, state2);
        assert_eq!(
            cache.entries.len(),
            1,
            "back within capacity once i2 is idle"
        );
    }

    #[test]
    fn quarantine_removes_even_claimed_pinned_entries_and_stays_coherent() {
        let mut cache = Cache::new(4);
        let prog = program(1);
        let (id, _) = cache.lookup_or_insert(key(7), &prog);
        cache.queue(id, ["solving"]);
        let (_, _, state, _) = cache.claim(id).expect("claimable");
        // A job admitted while the worker holds the state.
        cache.queue(id, ["late"]);
        assert!(!cache.is_waiting(id), "a claimed entry is not waiting");
        let (k, p, jobs) = cache.quarantine(id).expect("quarantined");
        assert_eq!(k, key(7));
        assert_eq!(*p, *prog);
        assert_eq!(jobs, ["late"], "the queued job goes back to the caller");
        assert_eq!(cache.stats().quarantined, 1);
        assert!(!contains(&cache, id));
        assert!(cache.quarantine(id).is_none(), "idempotent on dead ids");
        // A release racing the quarantine drops the stale state silently.
        cache.release(id, state);
        assert!(!contains(&cache, id));
        // The rebuild gets a fresh entry under the same key.
        let (id2, hit) = cache.lookup_or_insert(k, &p);
        assert!(!hit, "the quarantined session is gone for good");
        assert_ne!(id, id2);
        cache.queue(id2, jobs);
        assert!(cache.is_waiting(id2));
        assert_eq!(cache.waiting().collect::<Vec<_>>(), [id2]);
        assert_eq!(cache.queued_jobs(), 1);
    }
}

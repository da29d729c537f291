//! The session cache: one built [`PlacementSession`] per `(program
//! contents, device, scope)`, evicting the least-used idle session.
//!
//! # Keying and collision safety
//!
//! Entries are indexed by [`SessionKey`] — a 64-bit content fingerprint of
//! the program plus the device key and placement scope.  The fingerprint is
//! **not trusted**: a lookup that lands on a key match still compares the
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
//! At most `capacity` entries are kept idle; entries in use — pinned
//! (queued jobs reference them) or claimed (a worker is solving on them) —
//! do not count and are **never** evicted, so a burst of distinct requests
//! grows the cache past its capacity rather than blocking (admission
//! backpressure is the server's job, not the cache's).
//!
//! The victim is the idle entry with the fewest reuses (lookups that found
//! it), least recently used among equals.  An insert into a full cache
//! evicts only entries that were never reused: when every idle entry has
//! been, the newcomer runs over capacity, and when a worker releases it
//! the least-reused idle entry goes — the newcomer itself, unless it was
//! reused meanwhile.  Each such release-time eviction halves all reuse
//! counts, so sessions that stop being reused age out and a new working
//! set moves in after a few misses.  Evicting the least recently used entry on every insert would
//! let each one-off `(program, device)` pair push out a hot session that
//! then misses on its next request: once the working set outgrows the
//! cache, every rare request would cost two misses.

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

#[derive(Debug)]
struct CacheEntry {
    key: SessionKey,
    program: Arc<MachineProgram>,
    /// `None` while a worker has the state checked out.
    state: Option<EntryState>,
    /// Queued jobs referencing this entry; pinned entries are never evicted.
    pins: usize,
    /// LRU clock value of the last lookup or claim.
    last_used: u64,
    /// Lookups that found this entry, halved on every release-time
    /// eviction (module docs).
    reuses: u64,
}

impl CacheEntry {
    /// Neither pinned nor claimed: the only entries eviction may touch.
    fn is_idle(&self) -> bool {
        self.pins == 0 && self.state.is_some()
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
    /// Lookups whose [`SessionKey`] matched an entry holding a *different*
    /// program — a fingerprint collision caught by the deep comparison.
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
/// entry is pinned or claimed; the server's job bookkeeping guarantees it
/// never holds a handle to an evictable entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct EntryId(u64);

/// The session cache (see the module docs for the invariants).
#[derive(Debug)]
pub struct SessionCache {
    capacity: usize,
    clock: u64,
    next_id: u64,
    entries: HashMap<EntryId, CacheEntry>,
    /// Key → entries carrying that key (more than one only under
    /// fingerprint collisions).
    index: HashMap<SessionKey, Vec<EntryId>>,
    stats: CacheStats,
}

impl SessionCache {
    /// A cache keeping at most `capacity` idle sessions (entries in use
    /// come on top; see the module docs).
    pub fn new(capacity: usize) -> SessionCache {
        SessionCache {
            capacity: capacity.max(1),
            clock: 0,
            next_id: 0,
            entries: HashMap::new(),
            index: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The monotone behavior counters.
    pub fn stats(&self) -> CacheStats {
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
        if let Some(ids) = self.index.get(&key) {
            let mut collided = false;
            let mut found = None;
            for &id in ids {
                let entry = &self.entries[&id];
                if Arc::ptr_eq(&entry.program, program) || entry.program == *program {
                    found = Some(id);
                    break;
                }
                collided = true;
            }
            if collided {
                self.stats.collisions += 1;
            }
            if let Some(id) = found {
                self.stats.hits += 1;
                let entry = self.entries.get_mut(&id).expect("indexed entry");
                entry.last_used = tick;
                entry.reuses += 1;
                return (id, true);
            }
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
                pins: 0,
                last_used: tick,
                reuses: 0,
            },
        );
        self.index.entry(key).or_default().push(id);
        (id, false)
    }

    /// Make room for an insert by evicting never-reused idle entries while
    /// the cache is full; reused ones are left to
    /// [`SessionCache::release`].
    fn evict_to_fit(&mut self) {
        while self.entries.len() >= self.capacity {
            match self.idle_victim() {
                Some(id) if self.entries[&id].reuses == 0 => {
                    self.remove_entry(id);
                    self.stats.evictions += 1;
                }
                _ => return,
            }
        }
    }

    /// Evict idle entries, least reused first, until at most `capacity`
    /// are idle, halving every reuse count per eviction.
    fn shrink_to_capacity(&mut self) {
        while self.idle_count() > self.capacity {
            let id = self.idle_victim().expect("an idle entry exists");
            self.remove_entry(id);
            self.stats.evictions += 1;
            for entry in self.entries.values_mut() {
                entry.reuses /= 2;
            }
        }
    }

    fn idle_count(&self) -> usize {
        self.entries.values().filter(|e| e.is_idle()).count()
    }

    /// The entry neither pinned nor claimed with the fewest reuses, least
    /// recently used among equals.
    fn idle_victim(&self) -> Option<EntryId> {
        self.entries
            .iter()
            .filter(|(_, e)| e.is_idle())
            .min_by_key(|(_, e)| (e.reuses, e.last_used))
            .map(|(&id, _)| id)
    }

    /// Remove `id` and fix the key index.  Panics if absent.
    fn remove_entry(&mut self, id: EntryId) -> CacheEntry {
        let entry = self.entries.remove(&id).expect("removed entry exists");
        let ids = self
            .index
            .get_mut(&entry.key)
            .expect("removed entry indexed");
        ids.retain(|&i| i != id);
        if ids.is_empty() {
            self.index.remove(&entry.key);
        }
        entry
    }

    /// Force-evict the next idle victim regardless of occupancy pressure —
    /// the fault-injection eviction-race failpoint, simulating an eviction
    /// racing the next admission for the same key.  No-op (returning
    /// `false`) when every entry is pinned or claimed.
    #[cfg(feature = "fault-injection")]
    pub(crate) fn evict_one_idle(&mut self) -> bool {
        let Some(id) = self.idle_victim() else {
            return false;
        };
        self.remove_entry(id);
        self.stats.evictions += 1;
        true
    }

    /// Tear down a (possibly claimed, possibly pinned) entry whose session
    /// can no longer be trusted — a panic or watchdog kill interrupted the
    /// worker holding it mid-mutation.  Returns the key and program so the
    /// caller can rebuild a fresh entry and re-home the queued jobs.
    pub(crate) fn quarantine(&mut self, id: EntryId) -> Option<(SessionKey, Arc<MachineProgram>)> {
        if !self.entries.contains_key(&id) {
            return None;
        }
        let entry = self.remove_entry(id);
        self.stats.quarantined += 1;
        Some((entry.key, entry.program))
    }

    /// Keep `id` alive: one pin per queued job referencing the entry.
    pub(crate) fn pin(&mut self, id: EntryId) {
        self.entries.get_mut(&id).expect("pinned entry exists").pins += 1;
    }

    /// Drop `count` pins from `id` (its jobs were drained for solving).
    pub(crate) fn unpin(&mut self, id: EntryId, count: usize) {
        let entry = self.entries.get_mut(&id).expect("unpinned entry exists");
        entry.pins = entry.pins.checked_sub(count).expect("pin underflow");
    }

    /// Check the entry's solver state out for a worker.  Returns `None`
    /// when another worker already holds it (the server's ready-queue
    /// bookkeeping should make that impossible).
    pub(crate) fn claim(&mut self, id: EntryId) -> Option<(Arc<MachineProgram>, EntryState)> {
        let tick = self.tick();
        let entry = self.entries.get_mut(&id)?;
        let state = entry.state.take()?;
        entry.last_used = tick;
        Some((Arc::clone(&entry.program), state))
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

    /// The session key of a live entry (used by workers to rebuild the
    /// board for lazy session construction).
    pub(crate) fn key_of(&self, id: EntryId) -> SessionKey {
        self.entries[&id].key
    }

    /// Whether `id` names a live entry.
    pub(crate) fn contains(&self, id: EntryId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Whether a worker currently holds the entry's state.
    pub(crate) fn is_claimed(&self, id: EntryId) -> bool {
        self.entries[&id].state.is_none()
    }

    /// Drop every pin.  Only for the server's drain/shutdown sweeps, after
    /// all queued jobs have been failed — the pin counts they backed are
    /// meaningless at that point.
    pub(crate) fn clear_pins(&mut self) {
        for entry in self.entries.values_mut() {
            entry.pins = 0;
        }
    }

    /// Structural consistency check: the entry map and the key index
    /// describe the same set of entries, with matching keys and no
    /// dangling or duplicated ids.  The chaos harness runs this after a
    /// fault-heavy soak to assert the cache stayed coherent through
    /// quarantines, forced evictions and worker restarts.
    pub fn validate(&self) -> Result<(), String> {
        for (id, entry) in &self.entries {
            match self.index.get(&entry.key) {
                None => return Err(format!("entry {id:?} missing from the key index")),
                Some(ids) if !ids.contains(id) => {
                    return Err(format!("entry {id:?} not listed under its key"));
                }
                Some(_) => {}
            }
        }
        let mut indexed = 0usize;
        for (key, ids) in &self.index {
            if ids.is_empty() {
                return Err(format!("empty index bucket for {key:?}"));
            }
            for id in ids {
                indexed += 1;
                match self.entries.get(id) {
                    None => return Err(format!("index lists dead entry {id:?}")),
                    Some(entry) if entry.key != *key => {
                        return Err(format!("entry {id:?} indexed under the wrong key"));
                    }
                    Some(_) => {}
                }
            }
        }
        if indexed != self.entries.len() {
            return Err(format!(
                "index covers {indexed} entries, map holds {}",
                self.entries.len()
            ));
        }
        Ok(())
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

    #[test]
    fn lookup_hits_only_on_identical_contents() {
        let mut cache = SessionCache::new(4);
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
    fn serve(cache: &mut SessionCache, k: u64) -> EntryId {
        let (id, _) = cache.lookup_or_insert(key(k), &program(k as i32));
        cache.pin(id);
        let (_, state) = cache.claim(id).expect("claimable");
        cache.unpin(id, 1);
        cache.release(id, state);
        id
    }

    #[test]
    fn the_least_reused_idle_entry_is_evicted() {
        let mut cache = SessionCache::new(2);
        let i1 = serve(&mut cache, 1);
        let i2 = serve(&mut cache, 2);
        serve(&mut cache, 1);
        let i3 = serve(&mut cache, 3);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(i1), "the reused entry survives");
        assert!(!cache.contains(i2), "the older never-reused entry goes");
        assert!(cache.contains(i3));
    }

    #[test]
    fn a_newcomer_does_not_displace_reused_sessions() {
        let mut cache = SessionCache::new(2);
        let i1 = serve(&mut cache, 1);
        let i2 = serve(&mut cache, 2);
        serve(&mut cache, 1);
        serve(&mut cache, 2);
        // Both residents were reused: the newcomer is the one evicted.
        let i3 = serve(&mut cache, 3);
        assert!(!cache.contains(i3));
        assert!(cache.contains(i1) && cache.contains(i2));
        // The eviction halved the residents' reuses to zero, so the next
        // newcomer displaces the least recently used of them.
        let i4 = serve(&mut cache, 4);
        assert!(!cache.contains(i1), "aged-out resident evicted");
        assert!(cache.contains(i2) && cache.contains(i4));
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn pinned_and_claimed_entries_are_never_evicted() {
        let mut cache = SessionCache::new(1);
        let (i1, _) = cache.lookup_or_insert(key(1), &program(1));
        cache.pin(i1);
        let (i2, _) = cache.lookup_or_insert(key(2), &program(2));
        cache.pin(i2);
        let (_, state2) = cache.claim(i2).expect("claimable");
        cache.unpin(i2, 1);
        // Nothing is idle, so a third entry grows the cache past capacity.
        let i3 = serve(&mut cache, 3);
        assert_eq!(cache.stats().evictions, 0, "in-use entries survive");
        assert_eq!(cache.len(), 3, "cache grows past capacity instead");
        assert!(cache.claim(i2).is_none(), "double claim is refused");
        // i1 goes idle while i2 stays claimed: the next release keeps one
        // idle entry, the newest, and never touches the claimed i2.
        cache.unpin(i1, 1);
        let i4 = serve(&mut cache, 4);
        assert!(!cache.contains(i1) && !cache.contains(i3));
        assert!(cache.contains(i2) && cache.contains(i4));
        assert_eq!(cache.stats().evictions, 2);
        cache.release(i2, state2);
        assert_eq!(cache.len(), 1, "back within capacity once i2 is idle");
    }

    #[test]
    fn quarantine_removes_even_claimed_pinned_entries_and_stays_coherent() {
        let mut cache = SessionCache::new(4);
        let prog = program(1);
        let (id, _) = cache.lookup_or_insert(key(7), &prog);
        cache.pin(id);
        let (_, state) = cache.claim(id).expect("claimable");
        let (k, p) = cache.quarantine(id).expect("quarantined");
        assert_eq!(k, key(7));
        assert_eq!(*p, *prog);
        assert_eq!(cache.stats().quarantined, 1);
        assert!(!cache.contains(id));
        assert!(cache.quarantine(id).is_none(), "idempotent on dead ids");
        // A release racing the quarantine drops the stale state silently.
        cache.release(id, state);
        assert!(!cache.contains(id));
        // The rebuild gets a fresh entry under the same key.
        let (id2, hit) = cache.lookup_or_insert(k, &p);
        assert!(!hit, "the quarantined session is gone for good");
        assert_ne!(id, id2);
        cache
            .validate()
            .expect("coherent after quarantine + rebuild");
    }

    #[test]
    fn validate_catches_index_corruption() {
        let mut cache = SessionCache::new(4);
        let (id, _) = cache.lookup_or_insert(key(1), &program(1));
        cache.validate().expect("fresh cache is coherent");
        cache.index.clear();
        assert!(cache.validate().is_err(), "dangling entry detected");
        cache.entries.remove(&id);
        cache.validate().expect("empty cache is coherent again");
    }
}

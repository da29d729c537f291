//! The concurrent placement server.
//!
//! # Architecture
//!
//! ```text
//! clients ──submit──▶ admission queue ──▶ per-session job lists ──▶ workers
//!                     (bounded, blocks      (coalesced batches)      (claim a
//!                      or Overloaded)                                session,
//!                                                                    drain its
//!                                                                    batch)
//! ```
//!
//! A request is validated and queued on its session-cache entry (see the
//! [`cache`](crate::cache) module) at admission; a worker claims the entry
//! and with it the whole batch of queued jobs, so repeat traffic against
//! one program shares a single model build and memo table.  Independent
//! entries are claimed by whichever worker is free — the ready queue is
//! the work-stealing point, so a long solve on one session never blocks
//! traffic for the others (the uneven 0.1 ms–1.3 s per-point costs in
//! `BENCH_solver.json` are exactly why).
//!
//! # Why results stay deterministic
//!
//! Warm-started chained solves are only tolerance-equal (≤ 1e-6) to cold
//! ones, so sharing chain state across requests would make answers depend
//! on arrival order.  The server instead makes every response a **pure
//! function of the request** (program contents, device, scope, query):
//!
//! * every query solves from a reset chain
//!   ([`PlacementSession::reset_chain`]) — point queries get a cold root;
//!   multi-point queries (sweeps, frontiers) chain **internally**, in the
//!   order the request defines, exactly as a sequential caller would;
//! * what *is* shared across requests — the built model and the memo
//!   table — cannot change answers: the model is immutable per entry, and
//!   the memo only replays a previously computed answer for a bit-identical
//!   query key ([`f64::to_bits`] on the time bound);
//! * answers that depend on wall-clock timing (deadline expiry,
//!   [`Outcome::Timeout`]) are **never** memoized.
//!
//! The `equivalence` integration test drives N client threads against the
//! server under seeded schedule jitter and asserts bit-identical objectives
//! and placements versus a sequential [`PlacementSession`].
//!
//! # Degradation
//!
//! Per-request deadlines are measured from admission.  The remaining
//! budget is handed to the branch-and-bound as a wall-clock limit
//! ([`time_limit`](flashram_ilp::BranchBound::time_limit)); when it
//! expires the solver surfaces its best incumbent, or — if no integer
//! solution was found — the server falls back to [`GreedySolver`] via
//! [`PlacementSession::solve_point_degraded`], tagging the response
//! [`Outcome::Timeout`].  Node-budget exhaustion degrades the same way but
//! deterministically, and is tagged [`Outcome::Heuristic`].  In every case
//! the response's [`SweepPoint::stats`] report the *actual* ILP effort
//! spent (the failed attempt's stats for a greedy fallback), never zeros.
//!
//! # Fault containment
//!
//! A production server earns its throughput numbers under failure, so
//! every failure domain here is contained to the request batch it hit:
//!
//! * **Panic isolation.**  Each batch's session build and each job's solve
//!   run under `catch_unwind`; a panic becomes
//!   [`ServeError::SolverPanicked`] for the panicking job and the rest of
//!   its coalesced batch, never process death.  The cache entry the batch
//!   held is **quarantined** — a half-mutated [`PlacementSession`] must
//!   never be reused — and its queued jobs move to a freshly built entry
//!   for the same key.  Sessions are pure functions of `(program, device,
//!   scope)`, so the rebuild answers bit-identically; re-submitting a
//!   panicked request yields the exact answer.
//! * **Poison recovery.**  Locks are never `expect`ed.  A poisoned state
//!   mutex is cleared and the state checked for structural consistency
//!   (the queue count against the queued jobs, the ready queue against the
//!   entries that wait for a worker): a consistent state (the panic struck
//!   outside a bookkeeping mutation) simply continues; an inconsistent one transitions the server to a
//!   terminal **draining** state that fails every pending ticket with
//!   [`ServeError::Shutdown`] — zero leaked tickets either way.
//! * **Watchdog.**  With [`ServerConfig::watchdog`] set, a monitor thread
//!   checks each worker's heartbeat (stamped at batch start and before
//!   every job).  A worker busy past the deadline is presumed wedged: its
//!   in-flight jobs are failed with [`ServeError::SolverPanicked`], its
//!   entry quarantined, the batch marked abandoned (so a late finish by
//!   the old thread cannot double-count), and a replacement worker thread
//!   spawned — [`ServerStats::worker_restarts`] counts these.
//!
//! The deterministic fault-injection failpoints that exercise all of this
//! live behind the `fault-injection` cargo feature (see
//! `flashram_ilp::fault` when enabled); release builds carry none of it.
//!
//! [`GreedySolver`]: flashram_ilp::GreedySolver
//! [`PlacementSession`]: flashram_core::PlacementSession
//! [`PlacementSession::reset_chain`]: flashram_core::PlacementSession::reset_chain
//! [`PlacementSession::solve_point_degraded`]: flashram_core::PlacementSession::solve_point_degraded
//! [`SweepPoint::stats`]: flashram_core::SweepPoint

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flashram_core::{
    OptimizeError, OptimizerConfig, PlacementSession, PointResolution, SweepPoint,
};
use flashram_device::DEVICE_DB;
#[cfg(feature = "fault-injection")]
use flashram_ilp::fault::{self, FaultPlan, FaultSite};
use flashram_ilp::SolveError;
use flashram_ir::MachineProgram;
use flashram_mcu::Board;

use crate::cache::{CacheStats, EntryId, EntryState, MemoEntry, SessionCache, SessionKey};
use crate::request::{Outcome, Query, Request, Response, ServeError};

/// Configuration for [`PlacementServer::new`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads solving placements.
    pub workers: usize,
    /// Admission-queue bound: at most this many jobs queued (not yet
    /// claimed by a worker).  [`PlacementServer::submit`] blocks while
    /// full; [`PlacementServer::try_submit`] returns
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Maximum *idle* cached sessions — no queued job, no worker solving
    /// on them.  Sessions in use come on top and are never evicted (see
    /// the [`cache`](crate::cache) module).
    pub cache_capacity: usize,
    /// Branch-and-bound node budget per point; exhausting it degrades the
    /// response to [`Outcome::Heuristic`] deterministically.  `None` uses
    /// the solver default.
    pub max_ilp_nodes: Option<usize>,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Program content fingerprint for [`SessionKey`]s.  Pluggable so
    /// tests can force collisions; collisions are always survivable (the
    /// cache compares full contents), only slower.
    pub fingerprint: fn(&MachineProgram) -> u64,
    /// When set, each worker sleeps a seeded pseudo-random few hundred
    /// microseconds before claiming work, perturbing the schedule
    /// reproducibly.  The concurrency-equivalence tests sweep this seed to
    /// exercise many interleavings.
    pub worker_jitter_seed: Option<u64>,
    /// When set, a monitor thread watches each worker's heartbeat and
    /// treats a worker that has been busy on one batch without progress
    /// for longer than this deadline as wedged: its in-flight jobs are
    /// failed, its cache entry quarantined, and the worker respawned (see
    /// the module docs).  `None` (the default) runs no monitor thread.
    /// Pick a deadline comfortably above the slowest expected single
    /// solve — heartbeats are stamped per job, not per simplex pivot.
    pub watchdog: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(1),
            queue_capacity: 64,
            cache_capacity: 8,
            max_ilp_nodes: None,
            default_deadline: None,
            fingerprint: MachineProgram::content_fingerprint,
            worker_jitter_seed: None,
            watchdog: None,
        }
    }
}

/// Monotone server counters (a snapshot; see [`PlacementServer::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Responses delivered (successes and errors alike).
    pub completed: u64,
    /// Responses that were errors ([`ServeError`]).
    pub errors: u64,
    /// Responses tagged [`Outcome::Exact`].
    pub exact: u64,
    /// Responses tagged [`Outcome::Heuristic`].
    pub heuristic: u64,
    /// Responses tagged [`Outcome::Timeout`].
    pub timeout: u64,
    /// Admissions that found their session already cached.
    pub session_hits: u64,
    /// Admissions that created a new session entry.
    pub session_misses: u64,
    /// Responses answered from a session's memo table without solving.
    pub memo_hits: u64,
    /// Panics contained by the per-batch isolation, plus any worker thread
    /// found dead at join time (a panic that escaped containment).
    pub worker_panics: u64,
    /// Worker threads the watchdog presumed wedged and respawned.
    pub worker_restarts: u64,
    /// The session cache's own counters.
    pub cache: CacheStats,
    /// Jobs currently queued (admitted, not yet drained by a worker).
    pub queued: usize,
    /// Whether the server fell into the terminal draining state after an
    /// unrecoverable internal inconsistency (see the module docs).  All
    /// pending tickets were failed with [`ServeError::Shutdown`] and new
    /// admissions are refused.
    pub draining: bool,
}

struct Job {
    query: Query,
    deadline: Option<Instant>,
    enqueued: Instant,
    session_hit: bool,
    tx: mpsc::Sender<Result<Response, ServeError>>,
}

/// The senders of a batch a worker is currently solving, kept so the
/// watchdog (or a drain) can fail the jobs without the worker's help.  A
/// send on a channel whose job the worker later also answers is harmless:
/// the ticket takes the first message.
struct InflightBatch {
    entry: EntryId,
    senders: Vec<mpsc::Sender<Result<Response, ServeError>>>,
}

struct State {
    /// The sessions, each holding its own queued jobs.
    cache: SessionCache<Job>,
    registry: HashMap<String, (Arc<MachineProgram>, u64)>,
    /// Entries a worker may claim, in the order they began waiting.  An id
    /// is here exactly when its entry is live, unclaimed and has jobs.
    ready: VecDeque<EntryId>,
    /// Jobs admitted and not yet claimed, for the admission bound.
    queued: usize,
    shutdown: bool,
    /// Terminal: the server hit an unrecoverable internal inconsistency,
    /// failed everything pending, and refuses new work (module docs).
    draining: bool,
    /// Batches currently being solved, keyed by batch id.
    inflight: HashMap<u64, InflightBatch>,
    /// Batch ids whose jobs were already failed by the watchdog or a
    /// drain; the (possibly still running) worker must not tally or
    /// release them on completion.
    abandoned: HashSet<u64>,
    /// Next batch id (starts at 1 — 0 means "idle" in a worker slot).
    next_batch: u64,
    /// The monotone counters; `cache`, `queued` and `draining` are filled
    /// in by [`PlacementServer::stats`] from their owners above.
    counters: ServerStats,
}

/// One worker incarnation's liveness record.  The watchdog replaces the
/// whole slot on respawn, so a retired thread can never stamp the
/// replacement's heartbeat.
struct WorkerSlot {
    index: usize,
    /// Set by the watchdog; the thread exits at the next loop top (or
    /// right after discovering its batch was abandoned).
    retired: AtomicBool,
    /// The batch id being solved, 0 while idle.
    busy_batch: AtomicU64,
    /// Last heartbeat, in milliseconds since [`Shared::epoch`].
    beat_ms: AtomicU64,
}

impl WorkerSlot {
    fn new(index: usize) -> WorkerSlot {
        WorkerSlot {
            index,
            retired: AtomicBool::new(false),
            busy_batch: AtomicU64::new(0),
            beat_ms: AtomicU64::new(0),
        }
    }
}

struct Shared {
    cfg: ServerConfig,
    state: Mutex<State>,
    /// Signaled when `ready` gains an entry or shutdown begins.
    work: Condvar,
    /// Signaled when queue slots free up.
    space: Condvar,
    /// Zero point of every heartbeat timestamp.
    epoch: Instant,
    /// One slot per worker index, swapped on watchdog respawn.
    slots: Mutex<Vec<Arc<WorkerSlot>>>,
    /// Join handles by worker index; a respawn drops the wedged thread's
    /// handle (detaching it — joining a wedged thread would hang
    /// shutdown).
    handles: Mutex<Vec<Option<JoinHandle<()>>>>,
    #[cfg(feature = "fault-injection")]
    fault: Option<FaultPlan>,
}

/// Lock a bookkeeping-only mutex (slots, handles).  These are held for
/// pure reads/writes of plain data — a poisoning panic cannot leave them
/// inconsistent, so recovery is just taking the guard.
fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Lock the server state with poison recovery (see
    /// [`Shared::recover`]).
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.recover(self.state.lock())
    }

    /// Take the state guard from a lock or a condvar wait with poison
    /// recovery (module docs): a poisoned guard is cleared and the state
    /// either continues (still structurally consistent) or drains (fails
    /// everything pending and goes terminal).  Never panics.
    fn recover<'a>(&'a self, locked: LockResult<MutexGuard<'a, State>>) -> MutexGuard<'a, State> {
        locked.unwrap_or_else(|poisoned| {
            self.state.clear_poison();
            let mut st = poisoned.into_inner();
            if check_state(&st).is_err() {
                drain_state(&mut st);
                self.work.notify_all();
                self.space.notify_all();
            }
            st
        })
    }

    /// Offer `id` to the workers if it waits for one (live, unclaimed,
    /// jobs queued) and is not offered yet — the one place that keeps the
    /// ready-queue invariant of [`State::ready`].
    fn offer(&self, st: &mut State, id: EntryId) {
        if st.cache.is_waiting(id) && !st.ready.contains(&id) {
            st.ready.push_back(id);
            self.work.notify_one();
        }
    }
}

/// The bookkeeping invariants: the queue count matches the queued jobs,
/// and the ready queue holds each waiting entry exactly once and nothing
/// else.  They hold whenever the lock is free; poison recovery relies on
/// them to tell a panic outside any state mutation from one inside.
fn check_state(st: &State) -> Result<(), String> {
    let jobs = st.cache.queued_jobs();
    if st.queued != jobs {
        return Err(format!("queue count {} but {jobs} queued jobs", st.queued));
    }
    let mut offered = HashSet::new();
    for &id in &st.ready {
        if !offered.insert(id) {
            return Err(format!("entry {id:?} is in the ready queue twice"));
        }
        if !st.cache.is_waiting(id) {
            return Err(format!(
                "ready entry {id:?} is dead, claimed or has no queued jobs"
            ));
        }
    }
    match st.cache.waiting().find(|id| !offered.contains(id)) {
        Some(id) => Err(format!("entry {id:?} has queued jobs but is not ready")),
        None => Ok(()),
    }
}

/// The terminal transition: fail every pending ticket and every in-flight
/// batch with [`ServeError::Shutdown`], zero the queue, and refuse new
/// work.  Counters stay exact (`completed` covers everything failed here),
/// so the zero-leak guarantee `completed == submitted` holds even on this
/// path.
fn drain_state(st: &mut State) {
    st.shutdown = true;
    st.draining = true;
    for job in st.cache.drain_jobs() {
        st.counters.completed += 1;
        st.counters.errors += 1;
        let _ = job.tx.send(Err(ServeError::Shutdown));
    }
    for (batch_id, batch) in std::mem::take(&mut st.inflight) {
        st.abandoned.insert(batch_id);
        for tx in batch.senders {
            st.counters.completed += 1;
            st.counters.errors += 1;
            let _ = tx.send(Err(ServeError::Shutdown));
        }
    }
    st.queued = 0;
    st.ready.clear();
}

/// A pending response: returned by [`PlacementServer::submit`], redeemed
/// with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Response, ServeError>>,
}

impl Ticket {
    /// Block until the server answers.  A ticket whose channel died
    /// without an answer (a worker dropped it mid-shutdown) resolves to
    /// [`ServeError::Shutdown`] — tickets never hang and never leak.
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Shutdown))
    }
}

/// The long-running placement service (see the module docs).
///
/// Dropping the server shuts it down gracefully: no new admissions, every
/// already-admitted job is still solved and answered, workers joined.
/// [`PlacementServer::shutdown`] does the same and returns the final
/// counters; both routes share one idempotent teardown.
pub struct PlacementServer {
    shared: Arc<Shared>,
    monitor: Option<JoinHandle<()>>,
    finished: bool,
}

impl std::fmt::Debug for PlacementServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlacementServer")
            .field("workers", &self.shared.cfg.workers.max(1))
            .finish_non_exhaustive()
    }
}

impl PlacementServer {
    /// Start the server: spawns `config.workers` solver threads (plus the
    /// watchdog monitor when [`ServerConfig::watchdog`] is set).
    pub fn new(config: ServerConfig) -> PlacementServer {
        PlacementServer::launch(
            config,
            #[cfg(feature = "fault-injection")]
            None,
        )
    }

    /// Start the server with a fault plan: worker threads install it
    /// thread-locally, so every failpoint they reach (across serve, core
    /// and ilp) consults this plan.  Threads outside the server — the
    /// chaos harness's sequential oracle in particular — see no faults.
    #[cfg(feature = "fault-injection")]
    pub fn with_fault_plan(config: ServerConfig, plan: FaultPlan) -> PlacementServer {
        PlacementServer::launch(config, Some(plan))
    }

    fn launch(
        config: ServerConfig,
        #[cfg(feature = "fault-injection")] plan: Option<FaultPlan>,
    ) -> PlacementServer {
        let shared = Arc::new(Shared {
            cfg: config,
            state: Mutex::new(State {
                cache: SessionCache::new(config.cache_capacity),
                registry: HashMap::new(),
                ready: VecDeque::new(),
                queued: 0,
                shutdown: false,
                draining: false,
                inflight: HashMap::new(),
                abandoned: HashSet::new(),
                next_batch: 1,
                counters: ServerStats::default(),
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            epoch: Instant::now(),
            slots: Mutex::new(Vec::new()),
            handles: Mutex::new(Vec::new()),
            #[cfg(feature = "fault-injection")]
            fault: plan,
        });
        for index in 0..config.workers.max(1) {
            spawn_worker(&shared, Arc::new(WorkerSlot::new(index)));
        }
        let monitor = config.watchdog.map(|deadline| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("placement-watchdog".to_string())
                .spawn(move || monitor_loop(&shared, deadline))
                .expect("spawning the watchdog thread")
        });
        PlacementServer {
            shared,
            monitor,
            finished: false,
        }
    }

    /// Register (or re-register) `name`.  Re-registering with different
    /// contents changes the content fingerprint, so cached sessions of the
    /// old contents can never answer for the new ones (and vice versa —
    /// requests already admitted against the old contents still resolve
    /// against them).
    pub fn register_program(&self, name: &str, program: Arc<MachineProgram>) {
        let fp = (self.shared.cfg.fingerprint)(&program);
        let mut st = self.shared.lock_state();
        st.registry.insert(name.to_string(), (program, fp));
    }

    /// Admit a request, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownProgram`] / [`ServeError::UnknownDevice`] for
    /// unresolvable names, [`ServeError::Shutdown`] after shutdown.
    pub fn submit(&self, req: Request) -> Result<Ticket, ServeError> {
        self.enqueue(req, true)
    }

    /// Admit a request without blocking.
    ///
    /// # Errors
    ///
    /// As [`PlacementServer::submit`], plus [`ServeError::Overloaded`]
    /// when the queue is full (the backpressure signal).
    pub fn try_submit(&self, req: Request) -> Result<Ticket, ServeError> {
        self.enqueue(req, false)
    }

    /// Submit and wait: the synchronous convenience wrapper.
    ///
    /// # Errors
    ///
    /// Everything [`PlacementServer::submit`] and the solve itself can
    /// produce.
    pub fn solve(&self, req: Request) -> Result<Response, ServeError> {
        self.submit(req)?.wait()
    }

    /// A snapshot of the server counters.
    pub fn stats(&self) -> ServerStats {
        let st = self.shared.lock_state();
        ServerStats {
            cache: st.cache.stats(),
            queued: st.queued,
            draining: st.draining,
            ..st.counters
        }
    }

    /// Structural consistency check of the session cache and the queue
    /// under the server lock — the check poison recovery makes.  The
    /// chaos harness calls this after a fault-heavy soak to assert the
    /// cache stayed coherent through quarantines, forced evictions and
    /// worker restarts.
    ///
    /// # Errors
    ///
    /// A description of the first inconsistency found.
    pub fn verify_cache(&self) -> Result<(), String> {
        check_state(&self.shared.lock_state())
    }

    /// Stop admitting, drain every queued job, join the workers, and
    /// return the final counters.  Zero-leak guarantee: on return,
    /// `stats.completed == stats.submitted`.
    pub fn shutdown(mut self) -> ServerStats {
        self.shutdown_impl();
        self.stats()
    }

    /// The idempotent teardown shared by [`PlacementServer::shutdown`] and
    /// `Drop`.  Worker panics discovered at join time are recorded in
    /// [`ServerStats::worker_panics`], never swallowed; a final sweep
    /// fails anything a dead worker left behind so `completed ==
    /// submitted` holds on every path.
    fn shutdown_impl(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.begin_shutdown();
        // The monitor first: once it exits no further respawn can race the
        // handle drain below.
        if let Some(monitor) = self.monitor.take() {
            let _ = monitor.join();
        }
        let handles: Vec<JoinHandle<()>> =
            relock(&self.shared.handles).drain(..).flatten().collect();
        let mut panicked_workers = 0u64;
        for handle in handles {
            if handle.join().is_err() {
                panicked_workers += 1;
            }
        }
        let mut st = self.shared.lock_state();
        st.counters.worker_panics += panicked_workers;
        // Final sweep: a worker that died outside containment may have
        // left queued or in-flight jobs behind.  Fail them all — their
        // tickets resolve to Shutdown (some already did, via their dropped
        // senders) — and reconcile the counters so the zero-leak guarantee
        // holds even after an uncontained death.
        if st.cache.queued_jobs() > 0 || !st.inflight.is_empty() {
            drain_state(&mut st);
        }
        if st.counters.completed < st.counters.submitted {
            let lost = st.counters.submitted - st.counters.completed;
            st.counters.completed += lost;
            st.counters.errors += lost;
        }
    }

    fn begin_shutdown(&self) {
        let mut st = self.shared.lock_state();
        st.shutdown = true;
        self.shared.work.notify_all();
        self.shared.space.notify_all();
    }

    fn enqueue(&self, req: Request, block: bool) -> Result<Ticket, ServeError> {
        let device = DEVICE_DB
            .get(&req.device)
            .ok_or_else(|| ServeError::UnknownDevice(req.device.clone()))?;
        let mut st = self.shared.lock_state();
        loop {
            if st.shutdown {
                return Err(ServeError::Shutdown);
            }
            if st.queued < self.shared.cfg.queue_capacity {
                break;
            }
            if !block {
                return Err(ServeError::Overloaded);
            }
            st = self.shared.recover(self.shared.space.wait(st));
        }
        let (program, fingerprint) = st
            .registry
            .get(&req.program)
            .cloned()
            .ok_or_else(|| ServeError::UnknownProgram(req.program.clone()))?;
        let key = SessionKey {
            fingerprint,
            device: device.key,
            scope: req.scope,
        };
        let (id, session_hit) = st.cache.lookup_or_insert(key, &program);
        if session_hit {
            st.counters.session_hits += 1;
        } else {
            st.counters.session_misses += 1;
        }
        let now = Instant::now();
        let deadline = req
            .deadline
            .or(self.shared.cfg.default_deadline)
            .map(|d| now + d);
        let (tx, rx) = mpsc::channel();
        let job = Job {
            query: req.query,
            deadline,
            enqueued: now,
            session_hit,
            tx,
        };
        st.cache.queue(id, [job]);
        st.queued += 1;
        st.counters.submitted += 1;
        self.shared.offer(&mut st, id);
        Ok(Ticket { rx })
    }
}

impl Drop for PlacementServer {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Register a worker thread for `slot.index`, replacing any previous
/// incarnation's slot and handle (the replaced handle is dropped, i.e. the
/// old thread is detached — joining a wedged thread would hang).
fn spawn_worker(shared: &Arc<Shared>, slot: Arc<WorkerSlot>) {
    let index = slot.index;
    let handle = {
        let shared = Arc::clone(shared);
        let slot = Arc::clone(&slot);
        std::thread::Builder::new()
            .name(format!("placement-worker-{index}"))
            .spawn(move || worker_loop(&shared, &slot))
            .expect("spawning a worker thread")
    };
    let mut slots = relock(&shared.slots);
    let mut handles = relock(&shared.handles);
    if index < slots.len() {
        slots[index] = slot;
        handles[index] = Some(handle);
    } else {
        slots.push(slot);
        handles.push(Some(handle));
    }
}

/// The watchdog: poll worker heartbeats; presume a worker wedged once it
/// has been busy on one batch past `deadline` without a heartbeat, fail
/// its in-flight jobs, quarantine its entry, and respawn it.
fn monitor_loop(shared: &Arc<Shared>, deadline: Duration) {
    let poll = (deadline / 4).clamp(Duration::from_millis(5), Duration::from_secs(1));
    let deadline_ms = deadline.as_millis().max(1) as u64;
    loop {
        std::thread::sleep(poll);
        if shared.lock_state().shutdown {
            return;
        }
        let slots: Vec<Arc<WorkerSlot>> = relock(&shared.slots).clone();
        for slot in slots {
            let batch = slot.busy_batch.load(Ordering::Acquire);
            if batch == 0
                || shared
                    .now_ms()
                    .saturating_sub(slot.beat_ms.load(Ordering::Acquire))
                    <= deadline_ms
            {
                continue;
            }
            let mut st = shared.lock_state();
            // Re-verify under the lock: the worker may have finished (or
            // progressed) between the unlocked read and here.
            if slot.busy_batch.load(Ordering::Acquire) != batch
                || shared
                    .now_ms()
                    .saturating_sub(slot.beat_ms.load(Ordering::Acquire))
                    <= deadline_ms
            {
                continue;
            }
            let Some(wedged) = st.inflight.remove(&batch) else {
                continue;
            };
            let message = format!(
                "worker {} made no progress for {deadline_ms}ms mid-batch; presumed wedged, \
                 its in-flight jobs failed and the worker respawned",
                slot.index
            );
            for tx in &wedged.senders {
                st.counters.completed += 1;
                st.counters.errors += 1;
                let _ = tx.send(Err(ServeError::SolverPanicked {
                    message: message.clone(),
                }));
            }
            st.abandoned.insert(batch);
            quarantine_and_rehome(shared, &mut st, wedged.entry);
            st.counters.worker_restarts += 1;
            slot.retired.store(true, Ordering::Release);
            drop(st);
            spawn_worker(shared, Arc::new(WorkerSlot::new(slot.index)));
            shared.work.notify_all();
        }
    }
}

/// Quarantine `id` (its session can no longer be trusted) and move its
/// queued jobs to a freshly built entry for the same key.  Purity makes
/// this invisible to correctness: the rebuilt session answers the moved
/// jobs bit-identically.
fn quarantine_and_rehome(shared: &Shared, st: &mut State, id: EntryId) {
    let Some((key, program, jobs)) = st.cache.quarantine(id) else {
        return;
    };
    st.ready.retain(|&r| r != id);
    if !jobs.is_empty() {
        let (new_id, _) = st.cache.lookup_or_insert(key, &program);
        st.cache.queue(new_id, jobs);
        shared.offer(st, new_id);
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn worker_loop(shared: &Shared, slot: &WorkerSlot) {
    #[cfg(feature = "fault-injection")]
    let _fault_guard = shared.fault.clone().map(fault::install);
    let mut jitter = shared
        .cfg
        .worker_jitter_seed
        .map(|seed| seed ^ (slot.index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    loop {
        if slot.retired.load(Ordering::Acquire) {
            return;
        }
        if let Some(state) = jitter.as_mut() {
            std::thread::sleep(Duration::from_micros(xorshift(state) % 300));
        }
        let mut st = shared.lock_state();
        let id = loop {
            if slot.retired.load(Ordering::Acquire) {
                return;
            }
            if let Some(id) = st.ready.pop_front() {
                break id;
            }
            if st.shutdown {
                return;
            }
            st = shared.recover(shared.work.wait(st));
        };
        let Some((program, key, mut state, jobs)) = st.cache.claim(id) else {
            // The ready queue holds only waiting entries (`check_state`),
            // so a refused claim means nothing to do.
            continue;
        };
        st.queued = st.queued.saturating_sub(jobs.len());
        let batch_id = st.next_batch;
        st.next_batch += 1;
        st.inflight.insert(
            batch_id,
            InflightBatch {
                entry: id,
                senders: jobs.iter().map(|job| job.tx.clone()).collect(),
            },
        );
        shared.space.notify_all();
        drop(st);

        slot.beat_ms.store(shared.now_ms(), Ordering::Release);
        slot.busy_batch.store(batch_id, Ordering::Release);
        #[cfg(feature = "fault-injection")]
        if fault::should_fire(FaultSite::ServeCoalesceDelay) {
            if let Some(delay) = fault::injected_delay() {
                std::thread::sleep(delay);
            }
        }
        let batch = solve_batch(&shared.cfg, key, &program, &mut state, jobs, &|| {
            slot.beat_ms.store(shared.now_ms(), Ordering::Release);
        });
        slot.busy_batch.store(0, Ordering::Release);

        let mut st = shared.lock_state();
        st.inflight.remove(&batch_id);
        if st.abandoned.remove(&batch_id) {
            // The watchdog (or a drain) already failed these jobs and
            // quarantined the entry; dropping `state` here is the point —
            // the half-trusted session must not rejoin the cache, and the
            // tallies were already accounted.
            continue;
        }
        st.counters.completed += batch.completed;
        st.counters.errors += batch.errors;
        st.counters.exact += batch.exact;
        st.counters.heuristic += batch.heuristic;
        st.counters.timeout += batch.timeout;
        st.counters.memo_hits += batch.memo_hits;
        if batch.panicked.is_some() {
            st.counters.worker_panics += 1;
            quarantine_and_rehome(shared, &mut st, id);
        } else {
            st.cache.release(id, state);
            shared.offer(&mut st, id);
        }
        #[cfg(feature = "fault-injection")]
        if fault::should_fire(FaultSite::ServeEvictRace) {
            st.cache.evict_one_idle();
        }
    }
}

#[derive(Default)]
struct BatchTally {
    completed: u64,
    errors: u64,
    exact: u64,
    heuristic: u64,
    timeout: u64,
    memo_hits: u64,
    /// The panic message, when a panic escaped the session build or a
    /// job's solve.  The batch was aborted: the remaining jobs were failed
    /// with [`ServeError::SolverPanicked`] and the caller must quarantine
    /// the entry instead of releasing the (half-mutated) state.
    panicked: Option<String>,
}

/// Extract a human-readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f` with panics contained: `Err(message)` instead of unwinding.
/// `AssertUnwindSafe` is sound here because every caller discards the
/// state `f` may have half-mutated (the entry is quarantined, never
/// released).
fn contain<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(panic_message)
}

/// Fail every remaining job of an aborted batch with
/// [`ServeError::SolverPanicked`].
fn abort_batch(tally: &mut BatchTally, jobs: impl Iterator<Item = Job>, message: &str) {
    for job in jobs {
        tally.completed += 1;
        tally.errors += 1;
        let _ = job.tx.send(Err(ServeError::SolverPanicked {
            message: message.to_string(),
        }));
    }
}

/// Solve one coalesced batch of jobs against one session, sending each
/// job's response as it completes.  `beat` is stamped before every job —
/// the worker's heartbeat for the watchdog.  Panics in the session build
/// or any job's solve are contained (see [`BatchTally::panicked`]).
fn solve_batch(
    cfg: &ServerConfig,
    key: SessionKey,
    program: &Arc<MachineProgram>,
    state: &mut EntryState,
    jobs: Vec<Job>,
    beat: &dyn Fn(),
) -> BatchTally {
    let mut tally = BatchTally::default();
    let mut jobs = jobs.into_iter();
    let mut build_ms = 0.0;
    let setup = contain(|| {
        #[cfg(feature = "fault-injection")]
        if fault::should_fire(FaultSite::ServeClaimPanic) {
            panic!("{} worker panic at batch claim", fault::INJECTED_MARKER);
        }
        if state.session.is_none() {
            let started = Instant::now();
            let built = build_session(cfg, key, program, state);
            build_ms = started.elapsed().as_secs_f64() * 1e3;
            built
        } else {
            Ok(())
        }
    });
    match setup {
        Err(message) => {
            abort_batch(&mut tally, jobs, &message);
            tally.panicked = Some(message);
            return tally;
        }
        Ok(Err(e)) => {
            for job in jobs {
                tally.completed += 1;
                tally.errors += 1;
                let _ = job.tx.send(Err(e.clone()));
            }
            return tally;
        }
        Ok(Ok(())) => {}
    }
    while let Some(job) = jobs.next() {
        beat();
        let started = Instant::now();
        let queue_ms = started.duration_since(job.enqueued).as_secs_f64() * 1e3;
        tally.completed += 1;
        let memo_key = job.query.memo_key();
        if let Some(memo) = state.memo.get(&memo_key) {
            tally.memo_hits += 1;
            tally_outcome(&mut tally, memo.outcome);
            let _ = job.tx.send(Ok(Response {
                outcome: memo.outcome,
                points: memo.points.clone(),
                session_hit: job.session_hit,
                memo_hit: true,
                queue_ms,
                build_ms,
                solve_ms: 0.0,
                injected: false,
            }));
            continue;
        }
        let session = state.session.as_mut().expect("session built above");
        let solved = contain(|| solve_query(session, &job.query, job.deadline));
        let solve_ms = started.elapsed().as_secs_f64() * 1e3;
        match solved {
            Err(message) => {
                tally.errors += 1;
                let _ = job.tx.send(Err(ServeError::SolverPanicked {
                    message: message.clone(),
                }));
                abort_batch(&mut tally, jobs, &message);
                tally.panicked = Some(message);
                return tally;
            }
            Ok(Ok((outcome, points))) => {
                // An injected-fault-degraded answer is not the pure
                // function of the request the memo contract requires.
                let injected = points.iter().any(|p| p.stats.injected);
                if outcome != Outcome::Timeout && !injected {
                    state.memo.insert(
                        memo_key,
                        MemoEntry {
                            outcome,
                            points: points.clone(),
                        },
                    );
                }
                tally_outcome(&mut tally, outcome);
                let _ = job.tx.send(Ok(Response {
                    outcome,
                    points,
                    session_hit: job.session_hit,
                    memo_hit: false,
                    queue_ms,
                    build_ms,
                    solve_ms,
                    injected,
                }));
            }
            Ok(Err(e)) => {
                tally.errors += 1;
                let _ = job.tx.send(Err(e));
            }
        }
    }
    tally
}

fn tally_outcome(tally: &mut BatchTally, outcome: Outcome) {
    match outcome {
        Outcome::Exact => tally.exact += 1,
        Outcome::Heuristic => tally.heuristic += 1,
        Outcome::Timeout => tally.timeout += 1,
    }
}

fn build_session(
    cfg: &ServerConfig,
    key: SessionKey,
    program: &Arc<MachineProgram>,
    state: &mut EntryState,
) -> Result<(), ServeError> {
    let desc = DEVICE_DB.get(key.device).expect("validated at admission");
    let board = Board::new(desc);
    let config = OptimizerConfig {
        scope: key.scope,
        max_ilp_nodes: cfg.max_ilp_nodes,
        ..OptimizerConfig::default()
    };
    match PlacementSession::new(program, &board, &config) {
        Ok(session) => {
            state.session = Some(session);
            Ok(())
        }
        Err(OptimizeError::DoesNotFit(why)) => Err(ServeError::DoesNotFit(why)),
        Err(OptimizeError::Solver(e)) => Err(ServeError::Solver(e)),
    }
}

/// The remaining wall-clock budget; `Some(ZERO)` once expired, which the
/// branch-and-bound treats as "degrade immediately".
fn remaining(deadline: Option<Instant>) -> Option<Duration> {
    deadline.map(|d| d.saturating_duration_since(Instant::now()))
}

fn point_outcome(resolution: PointResolution, timed_out: bool) -> Outcome {
    match resolution {
        PointResolution::Exact => Outcome::Exact,
        _ if timed_out => Outcome::Timeout,
        _ => Outcome::Heuristic,
    }
}

pub(crate) fn solve_query(
    session: &mut PlacementSession,
    query: &Query,
    deadline: Option<Instant>,
) -> Result<(Outcome, Vec<SweepPoint>), ServeError> {
    // Purity: every query starts from a reset chain, so the answer cannot
    // depend on what this session solved before (module docs).
    session.reset_chain();
    let result = match query {
        Query::Point { r_spare, x_limit } => {
            session.solver.time_limit = remaining(deadline);
            let solved = session.solve_point_degraded(*r_spare, *x_limit)?;
            let outcome = point_outcome(solved.resolution, solved.point.stats.time_limit_hit);
            Ok((outcome, vec![solved.point]))
        }
        Query::Sweep { budgets, x_limit } => {
            // The coalesced sweep: one chained solve_chained run in request
            // order (solve_point_degraded chains across these calls because
            // the chain is only reset once, above).
            let mut outcome = Outcome::Exact;
            let mut points = Vec::with_capacity(budgets.len());
            for &budget in budgets {
                session.solver.time_limit = remaining(deadline);
                let solved = session.solve_point_degraded(budget, *x_limit)?;
                let this = point_outcome(solved.resolution, solved.point.stats.time_limit_hit);
                outcome = worst_outcome(outcome, this);
                points.push(solved.point);
            }
            Ok((outcome, points))
        }
        Query::Frontier {
            x_limit,
            max_budget,
        } => {
            session.solver.time_limit = remaining(deadline);
            match session.enumerate_frontier(*x_limit, *max_budget) {
                Ok(frontier) => {
                    let timed = frontier.points.iter().any(|p| p.stats.time_limit_hit);
                    let outcome = if timed {
                        Outcome::Timeout
                    } else if frontier.exact {
                        Outcome::Exact
                    } else {
                        Outcome::Heuristic
                    };
                    Ok((outcome, frontier.points))
                }
                Err(SolveError::BudgetExhausted(why)) => {
                    // The enumeration ran out of nodes or time with no
                    // incumbent at some step: collapse to the best-effort
                    // single point at the full budget.
                    session.reset_chain();
                    session.solver.time_limit = remaining(deadline);
                    let mut solved = session.solve_point_degraded(*max_budget, *x_limit)?;
                    // A frontier collapsed by an *injected* exhaustion
                    // must carry the taint even when the fallback point
                    // itself solved cleanly.
                    if cfg!(feature = "fault-injection") && why.contains("injected fault") {
                        solved.point.stats.injected = true;
                    }
                    let timed = solved.point.stats.time_limit_hit
                        || remaining(deadline).is_some_and(|r| r.is_zero());
                    let outcome = match solved.resolution {
                        PointResolution::Exact if !timed => Outcome::Heuristic,
                        resolution => point_outcome(resolution, timed),
                    };
                    Ok((outcome, vec![solved.point]))
                }
                Err(e) => Err(ServeError::Solver(e)),
            }
        }
    };
    session.solver.time_limit = None;
    result
}

fn worst_outcome(a: Outcome, b: Outcome) -> Outcome {
    use Outcome::*;
    match (a, b) {
        (Timeout, _) | (_, Timeout) => Timeout,
        (Heuristic, _) | (_, Heuristic) => Heuristic,
        _ => Exact,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashram_minicc::{compile_program, OptLevel, SourceUnit};

    fn tiny_program() -> Arc<MachineProgram> {
        let src =
            "int work(int n) { int s = 0; for (int i = 0; i < n; i++) s += i * i; return s; }\n\
                   int main() { return work(10); }";
        Arc::new(compile_program(&[SourceUnit::application(src)], OptLevel::O1).unwrap())
    }

    fn small_server() -> PlacementServer {
        let server = PlacementServer::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        server.register_program("tiny", tiny_program());
        server
    }

    /// Poison the state mutex by panicking while holding it, optionally
    /// corrupting the bookkeeping first.
    fn poison_state(server: &PlacementServer, corrupt: bool) {
        let shared = Arc::clone(&server.shared);
        let _ = std::thread::spawn(move || {
            let mut st = shared.state.lock().unwrap();
            if corrupt {
                st.queued += 7;
            }
            panic!("poisoning the server state for the recovery test");
        })
        .join();
        assert!(server.shared.state.is_poisoned());
    }

    #[test]
    fn consistent_poison_is_repaired_and_the_server_keeps_serving() {
        let server = small_server();
        poison_state(&server, false);
        // The next lock clears the poison and, the state being consistent,
        // the server continues: a full solve round-trip still works.
        let response = server
            .solve(Request::point("tiny", "stm32f100", 64, 2.0))
            .expect("server survived the poisoned lock");
        assert!(!response.points.is_empty());
        let stats = server.shutdown();
        assert!(!stats.draining);
        assert_eq!(stats.completed, stats.submitted);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn corrupted_poison_drains_terminally_without_leaking() {
        let server = small_server();
        poison_state(&server, true);
        // The corrupted bookkeeping (a queue count above the queued jobs)
        // forces the terminal drain: new admissions are refused...
        let err = server
            .solve(Request::point("tiny", "stm32f100", 64, 2.0))
            .expect_err("a draining server refuses work");
        assert_eq!(err, ServeError::Shutdown);
        let stats = server.stats();
        assert!(stats.draining);
        assert_eq!(stats.queued, 0);
        // ...and the zero-leak guarantee still holds at shutdown.
        let stats = server.shutdown();
        assert_eq!(stats.completed, stats.submitted);
    }

    #[test]
    fn shutdown_and_drop_share_one_idempotent_teardown() {
        let server = small_server();
        let response = server.solve(Request::point("tiny", "stm32f100", 48, 2.0));
        assert!(response.is_ok());
        // `shutdown` consumes the server; `Drop` runs right after and must
        // be a no-op (no double join, no double drain, no panic).
        let stats = server.shutdown();
        assert_eq!(stats.completed, stats.submitted);
        assert_eq!(stats.worker_panics, 0);
        assert_eq!(stats.worker_restarts, 0);
    }

    /// The `try_submit`/shutdown race, with the flag flip genuinely
    /// concurrent with the admission hammering: every admission either
    /// yields a ticket that resolves (answer or `Shutdown`) or is refused
    /// with `Shutdown`/`Overloaded` — nothing hangs, nothing leaks.
    #[test]
    fn tickets_admitted_concurrently_with_shutdown_resolve_without_leaks() {
        let server = small_server();
        let tickets = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for client in 0..3u32 {
                let server = &server;
                let tickets = &tickets;
                scope.spawn(move || {
                    for i in 0..40u32 {
                        let budget = [0u32, 32, 96][((client + i) % 3) as usize];
                        match server.try_submit(Request::point("tiny", "stm32f100", budget, 2.0)) {
                            Ok(ticket) => relock(tickets).push(ticket),
                            Err(ServeError::Shutdown) => return,
                            Err(ServeError::Overloaded) => std::thread::yield_now(),
                            Err(e) => panic!("unexpected admission error: {e}"),
                        }
                    }
                });
            }
            // Flip the flag mid-hammering: admissions racing it land on
            // either side, and both sides must stay leak-free.
            std::thread::sleep(Duration::from_millis(2));
            server.begin_shutdown();
        });
        for ticket in relock(&tickets).drain(..) {
            match ticket.wait() {
                Ok(_) | Err(ServeError::Shutdown) => {}
                Err(e) => panic!("a racing ticket resolved to {e}"),
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, stats.submitted, "zero leaked tickets");
        assert_eq!(stats.queued, 0);
    }

    #[test]
    fn build_ms_is_paid_by_the_building_batch_only() {
        let server = small_server();
        let first = server
            .solve(Request::point("tiny", "stm32f100", 64, 2.0))
            .expect("first solve");
        assert!(!first.session_hit);
        assert!(first.build_ms > 0.0, "the first batch builds the session");
        assert!(
            first.queue_ms >= first.build_ms,
            "queue_ms includes the build"
        );
        let repeat = server
            .solve(Request::point("tiny", "stm32f100", 32, 2.0))
            .expect("repeat solve");
        assert!(repeat.session_hit);
        assert_eq!(repeat.build_ms, 0.0, "the session was already built");
    }

    #[test]
    fn contain_reports_panic_messages() {
        assert_eq!(contain(|| 3).unwrap(), 3);
        let msg = contain(|| -> () { panic!("boom {}", 7) }).unwrap_err();
        assert_eq!(msg, "boom 7");
        let msg = contain(|| -> () { std::panic::panic_any(42i32) }).unwrap_err();
        assert_eq!(msg, "non-string panic payload");
    }
}

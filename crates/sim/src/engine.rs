//! The virtual-time engine.
//!
//! Every simulated process (an MPI rank, in this repository) runs as its own
//! suspendable execution context, but **exactly one** of {engine, processes}
//! executes at any real instant: a token is passed between the engine and
//! the process with the smallest virtual clock. Hardware activity (NIC
//! processing, wire flight, DMA, connection handshakes) is represented by
//! events in a global queue; events due at or before the next process resume
//! time are applied first.
//!
//! ## Execution backends (`VIAMPI_ENGINE=threads|sm`)
//!
//! The *substrate* carrying a suspended process is selectable
//! ([`Backend`], [`Engine::set_backend`], `VIAMPI_ENGINE`):
//!
//! * `threads` (default) — one OS thread per process, parked on a gate
//!   condvar while it does not hold the token. Simple and portable, but a
//!   token pass costs a futex round trip and an np-rank world costs np
//!   thread stacks plus np kernel tasks, which caps worlds around a few
//!   hundred ranks.
//! * `sm` — every process runs as a pollable state machine: a stackful
//!   coroutine (fiber, [`crate::fiber`]) multiplexed onto the single thread
//!   that called [`Engine::run`]. The park/resume points are *exactly* the
//!   former gate sites, the scheduling decision ([`decide`]) is the same
//!   code, and the tie-break/recency rules are untouched, so virtual-time
//!   results are byte-identical with the thread backend. Token passes
//!   become user-space context switches and rank memory becomes one lazily
//!   committed fiber stack (`VIAMPI_SM_STACK` bytes reserved, only touched
//!   pages resident), which is what lets np = 1024–4096 worlds run.
//!
//! The result is a *deterministic* simulation: given the same world, the same
//! spawned closures and the same seeds, every run produces identical virtual
//! timestamps, identical message interleavings, and identical statistics.
//!
//! Blocking is cooperative. A process that would spin-poll a completion queue
//! instead parks in [`ProcCtx::block_on`]; whoever makes the awaited state
//! change (an event handler or another process) calls [`Api::wake`], and the
//! engine resumes the sleeper *at the virtual time of the wake*. Wait-policy
//! costs (poll-detect vs interrupt wake-up) are charged by the caller on top.
//!
//! ## The self-resume fast path
//!
//! The token pass costs two OS context switches (process → engine → process).
//! When the calling process would be handed the token right back — it is the
//! unique earliest runnable process and no event is due at or before its
//! clock — the scheduling decision is already forced, so
//! [`ProcCtx::advance`] and [`ProcCtx::yield_now`] skip the round trip and
//! continue on the same OS thread, stamping `last_run` exactly as the engine
//! would have. Virtual timestamps, event order and round-robin fairness are
//! bit-identical with the fast path on or off; set `VIAMPI_NO_FASTPATH=1` to
//! disable it (used to measure the win).
//!
//! ## Compute coalescing
//!
//! MPI kernels charge compute as streams of small [`ProcCtx::advance`] calls.
//! Each one used to take the engine lock and run a scheduling decision, which
//! dominated the wall clock of compute-heavy workloads. `advance` is now
//! *lazy* by default: the duration accumulates into a per-process deferred
//! counter (two relaxed atomic adds, no lock) and is flushed as a single
//! authoritative advance at the next world interaction —
//! [`ProcCtx::with_world`], [`ProcCtx::block_on`], [`ProcCtx::yield_now`], or
//! the end of the process body. [`ProcCtx::now`] reads through the deferred
//! component, so timestamps taken mid-stretch stay exact. A stretch of N
//! lazy advances is semantically one `advance` of the sum: the intermediate
//! clock values are unobservable (the process touches no shared state in
//! between), events still fire at their own due times before the flushed
//! process resumes, and woken peers still resume at the wake time. Set
//! `VIAMPI_NO_COALESCE=1` (or [`Engine::set_coalesce`]) to charge eagerly;
//! results are bit-identical either way because the equal-clock tie-break
//! never looks at compute-parked grants (see below).
//!
//! ## Direct handoff
//!
//! Returning the token to the engine thread just so it can wake the next
//! process costs two OS context switches per handoff. Instead, a yielding
//! process now runs the scheduling decision *inline* while it still holds
//! the lock: it applies due events, pops the next ready process and opens
//! its gate directly (one switch), or — when event processing makes itself
//! the next runnable process — simply keeps going (zero switches). The
//! engine thread remains the coordinator for startup, termination, deadlock
//! and teardown, and `VIAMPI_NO_FASTPATH=1` restores the fully conservative
//! everything-through-the-engine reference path.
//!
//! ## Equal-clock ties and recency stamps
//!
//! The unseeded tie-break orders equal-clock processes least-recently-run
//! first. "Run" counts *voluntary* scheduling points only — `yield_now`,
//! `block_on` wake-ups and the initial grant — never compute-parked grants
//! (`advance`). This makes the tie-break independent of how a compute
//! stretch is segmented, which is exactly the invariant that keeps lazy and
//! eager compute charging bit-identical.
//!
//! ## One scheduling path
//!
//! Scheduling is serial under both backends: one global event queue, one
//! ready heap, one decision function ([`decide`]), and at most one process
//! executing at any instant. The modes above change only how much host
//! work a token pass costs, never which process runs next. Wall-clock
//! parallelism comes from running independent simulations side by side
//! (the bench harness's `--jobs` fan-out), not from splitting one run.

use crate::error::{BlockedProc, SimError};
use crate::fiber::{FiberSet, FiberStats};
use crate::queue::EventQueue;
use crate::rng::SplitMix64;
use crate::sync::{Condvar, Mutex, MutexGuard};
use crate::time::{SimDuration, SimTime};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of a spawned simulated process (dense, starting at 0 in spawn
/// order — MPI layers use it directly as the rank).
pub type ProcId = usize;

/// Execution substrate carrying suspended simulated processes (see the
/// module docs). Selected by [`Engine::set_backend`] or `VIAMPI_ENGINE`;
/// virtual-time results are byte-identical across backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// One OS thread per process (the reference substrate; the default).
    #[default]
    Threads,
    /// Proc-state-machine mode: stackful fibers multiplexed onto the
    /// driving thread. O(1) OS threads, O(touched-pages) rank memory.
    Sm,
}

impl Backend {
    /// Resolve the `VIAMPI_ENGINE` environment override (`threads` | `sm`);
    /// `None` when unset or empty. Unknown values panic — a typo silently
    /// falling back to the default would invalidate an A/B measurement.
    pub fn from_env() -> Option<Backend> {
        match std::env::var("VIAMPI_ENGINE") {
            Ok(s) => match s.trim() {
                "" => None,
                "threads" => Some(Backend::Threads),
                "sm" => Some(Backend::Sm),
                other => panic!("VIAMPI_ENGINE must be `threads` or `sm`, got {other:?}"),
            },
            Err(_) => None,
        }
    }
}

/// Fiber stack reservation for the `sm` backend: `VIAMPI_SM_STACK` bytes,
/// default 1 MiB. Stacks are lazily committed, so the default costs only
/// address space until a rank actually recurses into it.
fn sm_stack_size() -> usize {
    parse_sm_stack(std::env::var("VIAMPI_SM_STACK").ok().as_deref())
}

/// Parse a `VIAMPI_SM_STACK` value: unset or empty gives the 1 MiB default,
/// a byte count is used as given. Anything else panics, like an unknown
/// `VIAMPI_ENGINE` — a silent fallback would invalidate an A/B measurement.
fn parse_sm_stack(raw: Option<&str>) -> usize {
    match raw.map(str::trim) {
        None | Some("") => 1 << 20,
        Some(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("VIAMPI_SM_STACK must be a byte count, got {s:?}")),
    }
}

/// The simulated hardware/world state shared by all processes.
///
/// The world owns everything "below" the process boundary: NIC state,
/// in-flight messages, connection matchmaking. Processes mutate it through
/// [`ProcCtx::with_world`]; deferred activity is expressed as typed events
/// which the engine feeds back through [`World::handle_event`].
pub trait World: Sized + Send + 'static {
    /// Deferred-activity payload (message arrival, DMA completion, ...).
    type Event: Send + 'static;

    /// Apply `event` at its due time. May schedule follow-up events and wake
    /// blocked processes through `api`.
    fn handle_event(&mut self, event: Self::Event, api: &mut Api<'_, Self::Event>);
}

/// Scheduling capabilities handed to event handlers and world accessors.
pub struct Api<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    wakes: &'a mut Vec<ProcId>,
}

impl<'a, E> Api<'a, E> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire `after` from now.
    #[inline]
    pub fn schedule(&mut self, after: SimDuration, event: E) {
        self.queue.push(self.now + after, event);
    }

    /// Schedule `event` at an absolute time (clamped to now if in the past).
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.queue.push(at.max(self.now), event);
    }

    /// Mark a blocked process runnable at the current virtual time. Waking a
    /// process that is not blocked is a harmless no-op (the "wakeup" races
    /// are resolved by re-checking predicates in [`ProcCtx::block_on`]).
    #[inline]
    pub fn wake(&mut self, pid: ProcId) {
        self.wakes.push(pid);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    /// Runnable at `clock` (present in the ready heap).
    Ready,
    /// Currently holding the execution token.
    Running,
    /// Parked in `block_on` waiting for a wake.
    Blocked,
    /// Body returned normally.
    Finished,
    /// Body panicked (or was poisoned during teardown).
    Panicked,
}

/// Why a process last left the Running state (what kind of ready-heap entry
/// it owns). Voluntary parks stamp scheduling recency; compute parks do
/// not — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParkSite {
    /// Parked by `advance` (a pure-compute yield). Its grant does not
    /// update `last_run`.
    Compute,
    /// Parked by `yield_now`, `block_on`, or not yet run at all. Its grant
    /// stamps `last_run` so equal-clock processes round-robin.
    Voluntary,
}

struct ProcSlot {
    name: String,
    clock: SimTime,
    state: ProcState,
    /// Engine pass on which this slot was last *voluntarily* scheduled
    /// (`yield_now` / `block_on` / initial grant); breaks clock ties
    /// least-recently-run-first so equal-time processes round-robin.
    /// Compute-parked grants do not stamp it, which keeps the tie-break —
    /// and therefore every result — independent of how compute stretches
    /// are segmented (lazy vs eager charging).
    last_run: u64,
    /// Kind of the ready-heap entry this slot currently owns (valid while
    /// `state == Ready`).
    site: ParkSite,
}

/// Index min-heap over the Ready processes, keyed `(clock, last_run, pid)`.
///
/// Every transition into `ProcState::Ready` pushes exactly one entry; the
/// scheduler pops the minimum. `(clock, last_run)` are immutable while a
/// process is Ready (wakes only touch Blocked processes), so entries are
/// never stale — no lazy-deletion bookkeeping is needed.
struct ReadyHeap {
    heap: Vec<(SimTime, u64, ProcId)>,
    peak: usize,
}

/// Second component of the ready-heap key for a process at `clock`.
///
/// Without a schedule seed this is `last_run`, so equal-clock processes
/// round-robin least-recently-run-first. With a seed it is a *stateless*
/// hash of `(seed, pid, clock)`: equal-clock ties then resolve in a
/// seed-dependent order, which is what the `simcheck` harness uses to
/// explore different interleavings. The hash must be stateless (not a
/// shared RNG stream) so the self-resume fast path — which skips Ready
/// transitions entirely — computes the identical key and the schedule
/// stays bit-identical with the fast path on or off.
#[inline]
fn sched_key(sched_seed: Option<u64>, last_run: u64, pid: ProcId, clock: SimTime) -> u64 {
    match sched_seed {
        None => last_run,
        Some(seed) => SplitMix64::new(
            seed ^ (pid as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ clock.0.wrapping_mul(0xD1B5_4A32_D192_ED03),
        )
        .next_u64(),
    }
}

impl ReadyHeap {
    fn with_capacity(cap: usize) -> Self {
        ReadyHeap {
            heap: Vec::with_capacity(cap),
            peak: 0,
        }
    }

    #[inline]
    fn peek(&self) -> Option<(SimTime, u64, ProcId)> {
        self.heap.first().copied()
    }

    fn push(&mut self, clock: SimTime, last_run: u64, pid: ProcId) {
        self.heap.push((clock, last_run, pid));
        if self.heap.len() > self.peak {
            self.peak = self.heap.len();
        }
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i] >= self.heap[parent] {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    fn pop(&mut self) -> Option<(SimTime, u64, ProcId)> {
        if self.heap.is_empty() {
            return None;
        }
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let e = self.heap.pop().expect("non-empty");
        let n = self.heap.len();
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let mut smallest = l;
            if r < n && self.heap[r] < self.heap[l] {
                smallest = r;
            }
            if self.heap[smallest] >= self.heap[i] {
                break;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
        Some(e)
    }
}

struct Inner<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    procs: Vec<ProcSlot>,
    /// Ready processes, ordered as the scheduler will pick them.
    ready: ReadyHeap,
    /// Process currently holding the token, if any.
    running: Option<ProcId>,
    /// First process panic observed (poisons the simulation).
    poisoned: Option<(String, String)>,
    /// Monotone counter stamped into `ProcSlot::last_run`.
    pass: u64,
    /// Events applied so far.
    events_processed: u64,
    /// Token passes short-circuited by the self-resume fast path.
    fast_resumes: u64,
    /// Token grants performed inline by a yielding process (direct handoff).
    direct_handoffs: u64,
    /// Inline scheduling decisions that handed the token straight back to
    /// the yielding process after event processing (zero context switches).
    direct_self: u64,
    /// Reusable wake buffer so `with_world`/`block_on`/event dispatch do not
    /// allocate a fresh `Vec` per call.
    wake_scratch: Vec<ProcId>,
    /// Schedule-exploration seed (see [`sched_key`]). Immutable after init.
    sched_seed: Option<u64>,
    /// Scheduling decisions taken by the sm backend (driver loop plus
    /// inline direct-handoff decisions). Always 0 under the thread backend.
    sm_polls: u64,
}

impl<W: World> Inner<W> {
    /// True when the scheduler, run right now, would hand the token straight
    /// back to `pid` (whose clock is `clock` and which is still Running):
    /// no event due at or before `clock`, and no Ready process ordered
    /// before it. The comparison mirrors the scheduler exactly — events win
    /// ties against processes, and processes order by `(clock, last_run,
    /// pid)`.
    #[inline]
    fn can_self_resume(&self, pid: ProcId, clock: SimTime) -> bool {
        if self.poisoned.is_some() {
            return false;
        }
        if self.queue.peek_time().is_some_and(|te| te <= clock) {
            return false;
        }
        let key = sched_key(self.sched_seed, self.procs[pid].last_run, pid, clock);
        match self.ready.peek() {
            Some(head) => (clock, key, pid) < head,
            None => true,
        }
    }

    /// Grant `pid` a new pass exactly as the scheduler would, without moving
    /// the token. `voluntary` grants stamp scheduling recency; compute
    /// grants do not (see [`ParkSite`]).
    #[inline]
    fn grant_self(&mut self, pid: ProcId, voluntary: bool) {
        self.pass += 1;
        if voluntary {
            self.procs[pid].last_run = self.pass;
        }
        self.fast_resumes += 1;
    }
}

/// Outcome of one scheduling decision (see [`decide`]).
enum Decision {
    /// `pid` was stamped Running and `running` was set; the caller must open
    /// its gate (unless the caller *is* `pid`).
    Run(ProcId),
    /// Nothing runnable: every process finished, the simulation deadlocked,
    /// or it is poisoned — the engine thread sorts out which.
    Idle,
}

/// One scheduling step, shared verbatim by the engine thread and the
/// direct-handoff path: apply every event due at or before the next ready
/// process's clock (events win ties), then grant the token to the head of
/// the ready heap.
fn decide<W: World>(g: &mut Inner<W>, shared: &Shared<W>) -> Decision {
    loop {
        if g.poisoned.is_some() {
            return Decision::Idle;
        }
        let limit = g.ready.peek().map_or(SimTime(u64::MAX), |(tp, _, _)| tp);
        if let Some((t, ev)) = g.queue.pop_due(limit) {
            g.events_processed += 1;
            let mut wakes = std::mem::take(&mut g.wake_scratch);
            {
                let mut api = Api {
                    now: t,
                    queue: &mut g.queue,
                    wakes: &mut wakes,
                };
                g.world.handle_event(ev, &mut api);
            }
            apply_wakes(g, &shared.clocks, t, &wakes);
            wakes.clear();
            g.wake_scratch = wakes;
            continue;
        }
        let Some((_, _, pid)) = g.ready.pop() else {
            return Decision::Idle;
        };
        debug_assert_eq!(g.procs[pid].state, ProcState::Ready);
        g.pass += 1;
        let slot = &mut g.procs[pid];
        slot.state = ProcState::Running;
        if slot.site == ParkSite::Voluntary {
            slot.last_run = g.pass;
        }
        g.running = Some(pid);
        return Decision::Run(pid);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GateCmd {
    Hold,
    Run,
    Poison,
}

struct Gate {
    m: Mutex<GateCmd>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Self {
        Gate {
            m: Mutex::new(GateCmd::Hold),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) -> GateCmd {
        let mut g = self.m.lock();
        while *g == GateCmd::Hold {
            self.cv.wait(&mut g);
        }
        let cmd = *g;
        *g = GateCmd::Hold;
        cmd
    }

    fn open(&self, cmd: GateCmd) {
        let mut g = self.m.lock();
        *g = cmd;
        self.cv.notify_one();
    }
}

struct Shared<W: World> {
    inner: Mutex<Inner<W>>,
    /// Signalled whenever a process returns the token to the engine.
    engine_cv: Condvar,
    gates: Vec<Arc<Gate>>,
    /// Per-process clock mirrors for lock-free [`ProcCtx::now`]. Written by
    /// the token holder (or by the engine/waker while the owner is parked,
    /// synchronized through the gate); read by the owner.
    clocks: Vec<AtomicU64>,
    /// Self-resume fast path + direct handoff enabled (default;
    /// `VIAMPI_NO_FASTPATH=1` disables both for A/B measurements, restoring
    /// the everything-through-the-engine reference path).
    fastpath: bool,
    /// Compute coalescing enabled (default; `VIAMPI_NO_COALESCE=1` or
    /// [`Engine::set_coalesce`] disables it).
    coalesce: bool,
    /// Per-process deferred compute time (nanoseconds) not yet applied to
    /// the authoritative clock. Written only by the owning process
    /// (relaxed: no other thread reads it meaningfully mid-stretch).
    deferred: Vec<AtomicU64>,
    /// `advance` calls absorbed into deferred clocks (whole run).
    coalesce_advances: AtomicU64,
    /// Deferred stretches flushed as one authoritative advance (whole run).
    coalesce_flushes: AtomicU64,
    /// Fiber set hosting every process under the `sm` backend (`None`
    /// under the thread backend). All fiber operations happen on the one
    /// thread that called [`Engine::run`].
    sm: Option<FiberSet>,
    /// sm-backend poison flags: set by teardown before resuming a fiber so
    /// the fiber unwinds at its park site (the gate-command analogue).
    sm_poison: Vec<AtomicBool>,
}

/// Panic payload used to unwind simulated processes during teardown.
struct SimPoison;

/// Handle passed to each simulated process body.
///
/// Cheap to clone; all methods may only be called from the owning process's
/// thread while it holds the execution token (which is the case whenever the
/// body is executing).
pub struct ProcCtx<W: World> {
    shared: Arc<Shared<W>>,
    pid: ProcId,
    /// Cached process count — immutable after spawn, so reads never touch
    /// shared state.
    nprocs: usize,
}

impl<W: World> Clone for ProcCtx<W> {
    fn clone(&self) -> Self {
        ProcCtx {
            shared: self.shared.clone(),
            pid: self.pid,
            nprocs: self.nprocs,
        }
    }
}

impl<W: World> ProcCtx<W> {
    /// This process's identifier (its spawn index).
    #[inline]
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// Number of processes spawned into the simulation. Cached in the
    /// context (the value is immutable), so this is a plain field read —
    /// safe to call in the hottest loops.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Current virtual time of this process.
    ///
    /// Lock-free: reads a per-process atomic mirror of the authoritative
    /// clock plus this process's deferred compute component, so hot kernels
    /// that timestamp every iteration never serialize on the scheduler and
    /// still see exact mid-stretch times. The mirror is only written by the
    /// token holder or (while this process is parked) by the engine, with
    /// the gate providing the ordering; the deferred component is owned by
    /// this process.
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime(
            self.shared.clocks[self.pid]
                .load(Ordering::Acquire)
                .wrapping_add(self.shared.deferred[self.pid].load(Ordering::Relaxed)),
        )
    }

    /// Charge `d` of virtual compute time to this process.
    ///
    /// By default (compute coalescing) the duration accumulates into this
    /// process's deferred clock — no lock, no scheduler round trip — and is
    /// applied as one authoritative advance at the next world interaction.
    /// With coalescing disabled the charge is applied eagerly and the
    /// process yields so that any events or other processes due earlier run
    /// first (self-resume fast path permitting). Results are bit-identical
    /// either way.
    pub fn advance(&self, d: SimDuration) {
        if d == SimDuration::ZERO {
            return;
        }
        if self.shared.coalesce {
            self.shared.deferred[self.pid].fetch_add(d.as_nanos(), Ordering::Relaxed);
            self.shared
                .coalesce_advances
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.sync();
        self.advance_sync(d);
    }

    /// Flush any deferred compute time as a single authoritative advance
    /// before a lock-protected operation. Every public world-touching entry
    /// point calls this first.
    fn sync(&self) {
        let d = self.shared.deferred[self.pid].swap(0, Ordering::Relaxed);
        if d != 0 {
            self.shared.coalesce_flushes.fetch_add(1, Ordering::Relaxed);
            self.advance_sync(SimDuration::nanos(d));
        }
    }

    /// Apply `d` to the authoritative clock and yield to anything due
    /// earlier. Must be called as the token holder with no deferred time.
    fn advance_sync(&self, d: SimDuration) {
        let mut g = self.shared.inner.lock();
        let clock = g.procs[self.pid].clock + d;
        g.procs[self.pid].clock = clock;
        self.shared.clocks[self.pid].store(clock.0, Ordering::Release);
        if self.shared.fastpath && g.can_self_resume(self.pid, clock) {
            g.grant_self(self.pid, false);
            return;
        }
        let key = sched_key(g.sched_seed, g.procs[self.pid].last_run, self.pid, clock);
        g.procs[self.pid].state = ProcState::Ready;
        g.procs[self.pid].site = ParkSite::Compute;
        g.ready.push(clock, key, self.pid);
        self.relinquish(g);
    }

    /// Yield the token without advancing time. Equal-clock processes are
    /// scheduled least-recently-run-first, so this round-robins fairly
    /// (unless a schedule-exploration seed is set, in which case ties
    /// resolve in a seed-dependent order). When this process is the only
    /// runnable entity (no equal-or-earlier Ready process, no due event),
    /// the fast path returns immediately.
    pub fn yield_now(&self) {
        self.sync();
        let mut g = self.shared.inner.lock();
        let clock = g.procs[self.pid].clock;
        if self.shared.fastpath && g.can_self_resume(self.pid, clock) {
            g.grant_self(self.pid, true);
            return;
        }
        let key = sched_key(g.sched_seed, g.procs[self.pid].last_run, self.pid, clock);
        g.procs[self.pid].state = ProcState::Ready;
        g.procs[self.pid].site = ParkSite::Voluntary;
        g.ready.push(clock, key, self.pid);
        self.relinquish(g);
    }

    /// Run `f` against the world at the current instant (zero virtual time).
    /// `f` may schedule events and wake blocked processes.
    pub fn with_world<R>(&self, f: impl FnOnce(&mut W, &mut Api<'_, W::Event>) -> R) -> R {
        self.sync();
        let mut g = self.shared.inner.lock();
        let now = g.procs[self.pid].clock;
        let inner = &mut *g;
        let mut wakes = std::mem::take(&mut inner.wake_scratch);
        let r = {
            let mut api = Api {
                now,
                queue: &mut inner.queue,
                wakes: &mut wakes,
            };
            f(&mut inner.world, &mut api)
        };
        apply_wakes(inner, &self.shared.clocks, now, &wakes);
        wakes.clear();
        inner.wake_scratch = wakes;
        r
    }

    /// Park until `f` yields `Some`. `f` is evaluated under the world lock;
    /// if it returns `None` the process blocks and is re-evaluated after each
    /// [`Api::wake`] targeting it. Returns the produced value together with
    /// the virtual time at which it was produced.
    pub fn block_on<R>(&self, mut f: impl FnMut(&mut W, &mut Api<'_, W::Event>) -> Option<R>) -> R {
        loop {
            self.sync();
            let mut g = self.shared.inner.lock();
            let now = g.procs[self.pid].clock;
            let inner = &mut *g;
            let mut wakes = std::mem::take(&mut inner.wake_scratch);
            let out = {
                let mut api = Api {
                    now,
                    queue: &mut inner.queue,
                    wakes: &mut wakes,
                };
                f(&mut inner.world, &mut api)
            };
            apply_wakes(inner, &self.shared.clocks, now, &wakes);
            wakes.clear();
            inner.wake_scratch = wakes;
            if let Some(r) = out {
                return r;
            }
            inner.procs[self.pid].state = ProcState::Blocked;
            inner.procs[self.pid].site = ParkSite::Voluntary;
            self.relinquish(g);
        }
    }

    /// Give up the token and block until re-granted. With the fast path
    /// enabled the scheduling decision runs inline on this thread (direct
    /// handoff — one context switch instead of two, or zero when event
    /// processing makes this process the next runnable one); otherwise the
    /// engine thread is woken to decide.
    fn relinquish(&self, mut g: MutexGuard<'_, Inner<W>>) {
        g.running = None;
        if self.shared.fastpath {
            if self.shared.sm.is_some() {
                g.sm_polls += 1;
            }
            match decide(&mut g, &self.shared) {
                Decision::Run(next) if next == self.pid => {
                    g.direct_self += 1;
                    return;
                }
                Decision::Run(next) => {
                    g.direct_handoffs += 1;
                    drop(g);
                    if let Some(fs) = &self.shared.sm {
                        // Fiber-to-fiber direct handoff: switch straight to
                        // `next` (starting it if this is its first grant);
                        // control comes back when something resumes us.
                        fs.resume(next);
                        self.sm_check_poison();
                    } else {
                        self.shared.gates[next].open(GateCmd::Run);
                        self.park();
                    }
                    return;
                }
                Decision::Idle => {}
            }
        }
        drop(g);
        if let Some(fs) = &self.shared.sm {
            fs.yield_to_driver();
            self.sm_check_poison();
        } else {
            self.shared.engine_cv.notify_one();
            self.park();
        }
    }

    /// Flush any deferred compute time, so the process finishes with an
    /// authoritative clock. Called once when the body returns.
    fn retire(&self) {
        self.sync();
    }

    /// sm-backend analogue of the gate's `Poison` command, checked right
    /// after a fiber is resumed at a park site: unwind if teardown marked
    /// this process for poisoning before resuming it.
    fn sm_check_poison(&self) {
        if self.shared.sm_poison[self.pid].swap(false, Ordering::Relaxed) {
            panic::panic_any(SimPoison);
        }
    }

    fn park(&self) {
        match self.shared.gates[self.pid].wait() {
            GateCmd::Run => {}
            GateCmd::Poison => panic::panic_any(SimPoison),
            GateCmd::Hold => unreachable!(),
        }
    }
}

fn apply_wakes<W: World>(
    inner: &mut Inner<W>,
    clocks: &[AtomicU64],
    now: SimTime,
    wakes: &[ProcId],
) {
    for &pid in wakes {
        let slot = &mut inner.procs[pid];
        if slot.state == ProcState::Blocked {
            slot.state = ProcState::Ready;
            slot.clock = slot.clock.max(now);
            clocks[pid].store(slot.clock.0, Ordering::Release);
            let key = sched_key(inner.sched_seed, slot.last_run, pid, slot.clock);
            inner.ready.push(slot.clock, key, pid);
        }
    }
}

// Cumulative totals over every `Engine::run` in the process. Monotone
// write-only counters from the scheduler's perspective — they are never
// read back by scheduling decisions, so they cannot affect results. The
// bench harness snapshots them around an experiment to report aggregate
// events/sec across worker threads.
static TOTAL_RUNS: AtomicU64 = AtomicU64::new(0);
static TOTAL_EVENTS: AtomicU64 = AtomicU64::new(0);
static TOTAL_FAST_RESUMES: AtomicU64 = AtomicU64::new(0);
static TOTAL_COALESCED_ADVANCES: AtomicU64 = AtomicU64::new(0);
static TOTAL_COMPUTE_FLUSHES: AtomicU64 = AtomicU64::new(0);

/// Process-wide cumulative totals over every completed [`Engine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineTotals {
    /// Simulations completed successfully.
    pub runs: u64,
    /// Events applied, summed over those runs.
    pub events: u64,
    /// Fast-path self-resumes, summed over those runs.
    pub fast_resumes: u64,
    /// `advance` calls absorbed into deferred compute clocks.
    pub coalesced_advances: u64,
    /// Deferred compute stretches flushed as one authoritative advance
    /// (the scheduler-visible compute events).
    pub compute_flushes: u64,
}

/// Snapshot the process-wide cumulative engine counters.
pub fn engine_totals() -> EngineTotals {
    EngineTotals {
        runs: TOTAL_RUNS.load(Ordering::Relaxed),
        events: TOTAL_EVENTS.load(Ordering::Relaxed),
        fast_resumes: TOTAL_FAST_RESUMES.load(Ordering::Relaxed),
        coalesced_advances: TOTAL_COALESCED_ADVANCES.load(Ordering::Relaxed),
        compute_flushes: TOTAL_COMPUTE_FLUSHES.load(Ordering::Relaxed),
    }
}

/// Summary of a completed simulation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Virtual finish time of each process, in spawn order.
    pub proc_finish: Vec<SimTime>,
    /// Latest process finish time (makespan).
    pub end_time: SimTime,
    /// Number of events the engine applied.
    pub events_processed: u64,
    /// Scheduler round trips avoided by the self-resume fast path. Purely
    /// a wall-clock statistic: it never affects virtual-time results.
    pub fast_resumes: u64,
    /// The engine's metric set ([`crate::metrics::engine`]), published once
    /// at the end of the run: handoffs, events, fast resumes, scheduled
    /// events, and the ready-heap / event-queue high-water marks. Built
    /// outside the scheduling hot path, so observability costs nothing
    /// while the simulation runs.
    pub metrics: crate::metrics::MetricsSnapshot,
}

type ProcBody<W> = Box<dyn FnOnce(ProcCtx<W>) + Send + 'static>;

/// A configured simulation: a world plus a set of process bodies.
pub struct Engine<W: World> {
    world: Option<W>,
    bodies: Vec<(String, ProcBody<W>)>,
    sched_seed: Option<u64>,
    coalesce: Option<bool>,
    backend: Option<Backend>,
}

impl<W: World> Engine<W> {
    /// Create an engine around an initial world state.
    pub fn new(world: W) -> Self {
        Engine {
            world: Some(world),
            bodies: Vec::new(),
            sched_seed: None,
            coalesce: None,
            backend: None,
        }
    }

    /// Select the execution substrate. `None` (the default) falls back to
    /// the `VIAMPI_ENGINE` environment variable, then to
    /// [`Backend::Threads`]. Virtual-time results are byte-identical
    /// across backends; only wall clock and memory footprint differ.
    pub fn set_backend(&mut self, backend: Option<Backend>) {
        self.backend = backend;
    }

    /// Enable/disable compute coalescing explicitly. `None` (the default)
    /// falls back to the environment: on unless `VIAMPI_NO_COALESCE=1`.
    /// Results are byte-identical either way.
    pub fn set_coalesce(&mut self, coalesce: Option<bool>) {
        self.coalesce = coalesce;
    }

    /// Install a schedule-exploration seed. When set, equal-clock scheduling
    /// ties are broken by a deterministic hash of `(seed, pid, clock)`
    /// instead of least-recently-run order: each seed yields one fixed,
    /// replayable interleaving, and different seeds explore different
    /// interleavings. `None` (the default) keeps the exact round-robin
    /// behaviour. Results remain bit-identical with the self-resume fast
    /// path on or off for any fixed seed.
    pub fn set_sched_seed(&mut self, seed: Option<u64>) {
        self.sched_seed = seed;
    }

    /// Register a simulated process. Returns its [`ProcId`] (spawn index).
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(ProcCtx<W>) + Send + 'static,
    ) -> ProcId {
        self.bodies.push((name.into(), Box::new(body)));
        self.bodies.len() - 1
    }

    /// Run the simulation to completion. Returns the final world (for
    /// statistics extraction) and an [`Outcome`], or a [`SimError`] if the
    /// simulated program deadlocked or panicked.
    pub fn run(mut self) -> Result<(W, Outcome), SimError> {
        let world = self.world.take().expect("engine already run");
        let n = self.bodies.len();
        let backend = self.backend.or_else(Backend::from_env).unwrap_or_default();
        if backend == Backend::Sm && !crate::fiber::SUPPORTED {
            panic!(
                "the sm engine backend has no context-switch support on this architecture; \
                 use VIAMPI_ENGINE=threads"
            );
        }
        let mut ready = ReadyHeap::with_capacity(n);
        for pid in 0..n {
            let key = sched_key(self.sched_seed, 0, pid, SimTime::ZERO);
            ready.push(SimTime::ZERO, key, pid);
        }
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                world,
                queue: EventQueue::with_capacity(64),
                procs: self
                    .bodies
                    .iter()
                    .map(|(name, _)| ProcSlot {
                        name: name.clone(),
                        clock: SimTime::ZERO,
                        state: ProcState::Ready,
                        last_run: 0,
                        site: ParkSite::Voluntary,
                    })
                    .collect(),
                ready,
                running: None,
                poisoned: None,
                pass: 0,
                events_processed: 0,
                fast_resumes: 0,
                direct_handoffs: 0,
                direct_self: 0,
                wake_scratch: Vec::with_capacity(8),
                sched_seed: self.sched_seed,
                sm_polls: 0,
            }),
            engine_cv: Condvar::new(),
            gates: (0..n).map(|_| Arc::new(Gate::new())).collect(),
            clocks: (0..n).map(|_| AtomicU64::new(0)).collect(),
            fastpath: std::env::var_os("VIAMPI_NO_FASTPATH").is_none(),
            coalesce: self
                .coalesce
                .unwrap_or_else(|| std::env::var_os("VIAMPI_NO_COALESCE").is_none()),
            deferred: (0..n).map(|_| AtomicU64::new(0)).collect(),
            coalesce_advances: AtomicU64::new(0),
            coalesce_flushes: AtomicU64::new(0),
            sm: (backend == Backend::Sm).then(|| FiberSet::new(n, sm_stack_size())),
            sm_poison: (0..n).map(|_| AtomicBool::new(false)).collect(),
        });

        let error = if backend == Backend::Sm {
            // Proc-state-machine mode: every process is a fiber on *this*
            // thread. The body closure is byte-for-byte the thread
            // backend's epilogue (run under catch_unwind, then publish the
            // final state under the lock); only the initial-grant plumbing
            // differs — a fiber's first resume simply starts executing the
            // body, so there is no gate wait at the top.
            let fs = shared.sm.as_ref().expect("sm backend has a fiber set");
            for (pid, (_name, body)) in self.bodies.drain(..).enumerate() {
                let ctx = ProcCtx {
                    shared: shared.clone(),
                    pid,
                    nprocs: n,
                };
                let shared2 = shared.clone();
                fs.set_body(
                    pid,
                    Box::new(move || {
                        let epilogue = ctx.clone();
                        let result = panic::catch_unwind(AssertUnwindSafe(|| {
                            body(ctx);
                            epilogue.retire();
                        }));
                        let mut g = shared2.inner.lock();
                        match result {
                            Ok(()) => g.procs[pid].state = ProcState::Finished,
                            Err(payload) => {
                                g.procs[pid].state = ProcState::Panicked;
                                if payload.downcast_ref::<SimPoison>().is_none()
                                    && g.poisoned.is_none()
                                {
                                    let msg = panic_message(payload.as_ref());
                                    let name = g.procs[pid].name.clone();
                                    g.poisoned = Some((name, msg));
                                }
                            }
                        }
                        g.running = None;
                        // Returning hands control to the driver context.
                    }),
                );
            }
            let error = Self::schedule_loop_sm(&shared);
            // Nothing may outlive the run holding a ProcCtx: drop any body
            // never started (its closure captured one).
            fs.clear();
            error
        } else {
            let mut handles = Vec::with_capacity(n);
            for (pid, (name, body)) in self.bodies.drain(..).enumerate() {
                let ctx = ProcCtx {
                    shared: shared.clone(),
                    pid,
                    nprocs: n,
                };
                let shared2 = shared.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("sim-{name}"))
                    .spawn(move || {
                        // Wait to be scheduled the first time.
                        match shared2.gates[pid].wait() {
                            GateCmd::Poison => {
                                let mut g = shared2.inner.lock();
                                g.procs[pid].state = ProcState::Panicked;
                                g.running = None;
                                drop(g);
                                shared2.engine_cv.notify_one();
                                return;
                            }
                            GateCmd::Run => {}
                            GateCmd::Hold => unreachable!(),
                        }
                        let epilogue = ctx.clone();
                        let result = panic::catch_unwind(AssertUnwindSafe(|| {
                            body(ctx);
                            // Flush deferred compute so the finish time is
                            // authoritative.
                            epilogue.retire();
                        }));
                        let mut g = shared2.inner.lock();
                        match result {
                            Ok(()) => g.procs[pid].state = ProcState::Finished,
                            Err(payload) => {
                                g.procs[pid].state = ProcState::Panicked;
                                if payload.downcast_ref::<SimPoison>().is_none()
                                    && g.poisoned.is_none()
                                {
                                    let msg = panic_message(payload.as_ref());
                                    let name = g.procs[pid].name.clone();
                                    g.poisoned = Some((name, msg));
                                }
                            }
                        }
                        g.running = None;
                        drop(g);
                        shared2.engine_cv.notify_one();
                    })
                    .expect("spawn simulated process thread");
                handles.push(handle);
            }

            let error = Self::schedule_loop(&shared);

            for h in handles {
                let _ = h.join();
            }
            error
        };

        let shared = Arc::try_unwrap(shared)
            .unwrap_or_else(|_| panic!("simulation threads leaked a ProcCtx"));
        let coalesce_advances = shared.coalesce_advances.load(Ordering::Relaxed);
        let coalesce_flushes = shared.coalesce_flushes.load(Ordering::Relaxed);
        let sm_stats: FiberStats = shared.sm.as_ref().map(|fs| fs.stats()).unwrap_or_default();
        let inner = shared.inner.into_inner();

        if let Some(err) = error {
            return Err(err);
        }
        let proc_finish: Vec<SimTime> = inner.procs.iter().map(|p| p.clock).collect();
        let end_time = proc_finish.iter().copied().max().unwrap_or(SimTime::ZERO);
        TOTAL_RUNS.fetch_add(1, Ordering::Relaxed);
        TOTAL_EVENTS.fetch_add(inner.events_processed, Ordering::Relaxed);
        TOTAL_FAST_RESUMES.fetch_add(inner.fast_resumes, Ordering::Relaxed);
        TOTAL_COALESCED_ADVANCES.fetch_add(coalesce_advances, Ordering::Relaxed);
        TOTAL_COMPUTE_FLUSHES.fetch_add(coalesce_flushes, Ordering::Relaxed);
        let metrics = {
            use crate::metrics::engine as em;
            let mut reg = em::registry();
            reg.add(em::HANDOFFS, inner.pass);
            reg.add(em::EVENTS, inner.events_processed);
            reg.add(em::FAST_RESUMES, inner.fast_resumes);
            reg.add(em::EVENTS_SCHEDULED, inner.queue.scheduled_total());
            reg.add(em::COALESCE_ADVANCES, coalesce_advances);
            reg.add(em::COALESCE_FLUSHES, coalesce_flushes);
            reg.add(em::DIRECT_HANDOFFS, inner.direct_handoffs);
            reg.add(em::DIRECT_SELF, inner.direct_self);
            reg.add(em::SM_POLLS, inner.sm_polls);
            reg.add(em::SM_PARKS, sm_stats.parks);
            reg.add(em::SM_RESUMES, sm_stats.starts + sm_stats.resumes);
            let ws = inner.queue.wheel_stats();
            reg.add(em::WHEEL_DUE, ws.push_due);
            reg.add(em::WHEEL_L0, ws.push_l0);
            reg.add(em::WHEEL_L1, ws.push_l1);
            reg.add(em::WHEEL_OVERFLOW, ws.push_overflow);
            reg.add(em::WHEEL_CASCADES, ws.cascades);
            reg.gauge_max(em::READY_PEAK, inner.ready.peak as u64);
            reg.gauge_max(em::QUEUE_PEAK, inner.queue.peak() as u64);
            reg.gauge_max(em::SM_RANK_MEM_PEAK, sm_stats.stack_bytes_peak);
            reg.snapshot()
        };
        Ok((
            inner.world,
            Outcome {
                proc_finish,
                end_time,
                events_processed: inner.events_processed,
                fast_resumes: inner.fast_resumes,
                metrics,
            },
        ))
    }

    /// Coordinator loop. With direct handoff active, processes pass the
    /// token among themselves and this thread sleeps; it is woken only for
    /// startup, termination, deadlock, and poison (and performs every
    /// decision itself when `VIAMPI_NO_FASTPATH=1` disables direct
    /// handoff). Returns `Some(error)` if the simulation was torn down
    /// abnormally (after poisoning every live process).
    fn schedule_loop(shared: &Arc<Shared<W>>) -> Option<SimError> {
        let mut g = shared.inner.lock();
        loop {
            if let Some((name, message)) = g.poisoned.clone() {
                Self::teardown(shared, &mut g);
                return Some(SimError::ProcPanic { name, message });
            }
            if g.running.is_some() {
                shared.engine_cv.wait(&mut g);
                continue;
            }
            match decide(&mut g, shared) {
                Decision::Run(pid) => {
                    drop(g);
                    shared.gates[pid].open(GateCmd::Run);
                    g = shared.inner.lock();
                }
                Decision::Idle => {
                    if g.poisoned.is_some() {
                        continue;
                    }
                    // No due events, no ready processes: every process
                    // finished, or the survivors are blocked forever.
                    let blocked: Vec<BlockedProc> = g
                        .procs
                        .iter()
                        .filter(|p| p.state == ProcState::Blocked)
                        .map(|p| BlockedProc {
                            name: p.name.clone(),
                            blocked_at: p.clock,
                        })
                        .collect();
                    if blocked.is_empty() {
                        return None; // all processes finished
                    }
                    let at = g
                        .procs
                        .iter()
                        .map(|p| p.clock)
                        .max()
                        .unwrap_or(SimTime::ZERO);
                    Self::teardown(shared, &mut g);
                    return Some(SimError::Deadlock { at, blocked });
                }
            }
        }
    }

    /// sm-backend coordinator: the same loop shape as [`Self::schedule_loop`]
    /// run on the calling thread, with fiber switches in place of gate
    /// opens. Whenever this loop executes, no process is mid-step (a fiber
    /// hands control back only after clearing `running`), so the
    /// `running.is_some()` wait of the thread backend has no analogue.
    fn schedule_loop_sm(shared: &Arc<Shared<W>>) -> Option<SimError> {
        let fs = shared.sm.as_ref().expect("sm backend has a fiber set");
        let mut g = shared.inner.lock();
        loop {
            if let Some((name, message)) = g.poisoned.clone() {
                Self::teardown_sm(shared, &mut g);
                return Some(SimError::ProcPanic { name, message });
            }
            debug_assert!(
                g.running.is_none(),
                "driver resumed with a process mid-step"
            );
            g.sm_polls += 1;
            match decide(&mut g, shared) {
                Decision::Run(pid) => {
                    // Mirror the thread backend's drop-before-open: the
                    // resumed fiber re-takes the lock itself.
                    MutexGuard::unlocked(&mut g, || fs.resume(pid));
                }
                Decision::Idle => {
                    if g.poisoned.is_some() {
                        continue;
                    }
                    let blocked: Vec<BlockedProc> = g
                        .procs
                        .iter()
                        .filter(|p| p.state == ProcState::Blocked)
                        .map(|p| BlockedProc {
                            name: p.name.clone(),
                            blocked_at: p.clock,
                        })
                        .collect();
                    if blocked.is_empty() {
                        return None; // all processes finished
                    }
                    let at = g
                        .procs
                        .iter()
                        .map(|p| p.clock)
                        .max()
                        .unwrap_or(SimTime::ZERO);
                    Self::teardown_sm(shared, &mut g);
                    return Some(SimError::Deadlock { at, blocked });
                }
            }
        }
    }

    /// sm-backend teardown: unwind every parked fiber (resume it with the
    /// poison flag set, so it raises [`SimPoison`] at its park site), and
    /// drop never-started processes without giving them a stack — the
    /// analogue of the thread backend's initial-grant poison handler.
    fn teardown_sm(shared: &Arc<Shared<W>>, g: &mut MutexGuard<'_, Inner<W>>) {
        let fs = shared.sm.as_ref().expect("sm backend has a fiber set");
        loop {
            let victim = g
                .procs
                .iter()
                .position(|p| matches!(p.state, ProcState::Ready | ProcState::Blocked));
            let Some(pid) = victim else { break };
            if fs.not_started(pid) {
                g.procs[pid].state = ProcState::Panicked;
                fs.abandon(pid);
                continue;
            }
            g.procs[pid].state = ProcState::Running;
            g.running = Some(pid);
            shared.sm_poison[pid].store(true, Ordering::Relaxed);
            // The resume returns only once the fiber has fully unwound and
            // handed control back (its body epilogue clears `running`).
            MutexGuard::unlocked(g, || fs.resume(pid));
            debug_assert!(g.running.is_none(), "poisoned fiber did not unwind");
        }
    }

    /// Poison every process that is still parked so its thread unwinds.
    fn teardown(shared: &Arc<Shared<W>>, g: &mut MutexGuard<'_, Inner<W>>) {
        loop {
            let victim = g
                .procs
                .iter()
                .position(|p| matches!(p.state, ProcState::Ready | ProcState::Blocked));
            let Some(pid) = victim else { break };
            g.procs[pid].state = ProcState::Running;
            g.running = Some(pid);
            MutexGuard::unlocked(g, || {
                shared.gates[pid].open(GateCmd::Poison);
            });
            while g.running.is_some() {
                shared.engine_cv.wait(g);
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Minimal mailbox world used by the engine unit tests.
    struct MailWorld {
        boxes: Vec<VecDeque<(u64, SimTime)>>,
        waiters: Vec<Option<ProcId>>,
        log: Vec<String>,
    }

    enum MailEvent {
        Deliver { to: usize, value: u64 },
    }

    impl World for MailWorld {
        type Event = MailEvent;
        fn handle_event(&mut self, ev: MailEvent, api: &mut Api<'_, MailEvent>) {
            match ev {
                MailEvent::Deliver { to, value } => {
                    self.boxes[to].push_back((value, api.now()));
                    if let Some(pid) = self.waiters[to].take() {
                        api.wake(pid);
                    }
                }
            }
        }
    }

    impl MailWorld {
        fn new(n: usize) -> Self {
            MailWorld {
                boxes: (0..n).map(|_| VecDeque::new()).collect(),
                waiters: vec![None; n],
                log: Vec::new(),
            }
        }
    }

    fn send(ctx: &ProcCtx<MailWorld>, to: usize, value: u64, latency: SimDuration) {
        ctx.with_world(|_, api| api.schedule(latency, MailEvent::Deliver { to, value }));
    }

    fn recv(ctx: &ProcCtx<MailWorld>) -> (u64, SimTime) {
        let pid = ctx.pid();
        ctx.block_on(move |w, _| {
            if let Some(v) = w.boxes[pid].pop_front() {
                Some(v)
            } else {
                w.waiters[pid] = Some(pid);
                None
            }
        })
    }

    #[test]
    fn advance_accumulates_virtual_time() {
        let mut eng = Engine::new(MailWorld::new(1));
        eng.spawn("p0", |ctx| {
            assert_eq!(ctx.now(), SimTime::ZERO);
            ctx.advance(SimDuration::micros(3));
            ctx.advance(SimDuration::micros(4));
            assert_eq!(ctx.now(), SimTime(7_000));
        });
        let (_, out) = eng.run().unwrap();
        assert_eq!(out.end_time, SimTime(7_000));
        assert_eq!(out.proc_finish, vec![SimTime(7_000)]);
    }

    #[test]
    fn message_latency_is_respected() {
        let mut eng = Engine::new(MailWorld::new(2));
        eng.spawn("sender", |ctx| {
            ctx.advance(SimDuration::micros(10));
            send(&ctx, 1, 42, SimDuration::micros(5));
        });
        eng.spawn("receiver", |ctx| {
            let (v, at) = recv(&ctx);
            assert_eq!(v, 42);
            assert_eq!(at, SimTime(15_000));
            assert_eq!(ctx.now(), SimTime(15_000), "woken at delivery time");
        });
        let (_, out) = eng.run().unwrap();
        assert_eq!(out.end_time, SimTime(15_000));
    }

    #[test]
    fn receiver_already_past_delivery_keeps_its_clock() {
        let mut eng = Engine::new(MailWorld::new(2));
        eng.spawn("sender", |ctx| {
            send(&ctx, 1, 7, SimDuration::micros(1));
        });
        eng.spawn("receiver", |ctx| {
            ctx.advance(SimDuration::micros(100));
            let (v, _) = recv(&ctx);
            assert_eq!(v, 7);
            // Message arrived long ago; the receiver's clock must not go back.
            assert_eq!(ctx.now(), SimTime(100_000));
        });
        eng.run().unwrap();
    }

    #[test]
    fn events_fire_before_equal_or_later_procs() {
        // An event at t=5 must be applied before a proc resumes at t=5.
        struct ProbeWorld {
            fired: bool,
        }
        enum E {
            Fire,
        }
        impl World for ProbeWorld {
            type Event = E;
            fn handle_event(&mut self, _: E, _: &mut Api<'_, E>) {
                self.fired = true;
            }
        }
        let mut eng = Engine::new(ProbeWorld { fired: false });
        eng.spawn("p", |ctx| {
            ctx.with_world(|_, api| api.schedule(SimDuration::micros(5), E::Fire));
            ctx.advance(SimDuration::micros(5));
            assert!(ctx.with_world(|w, _| w.fired));
        });
        eng.run().unwrap();
    }

    #[test]
    fn deadlock_is_detected_and_reported() {
        let mut eng = Engine::new(MailWorld::new(2));
        eng.spawn("a", |ctx| {
            recv(&ctx); // nobody ever sends
        });
        eng.spawn("b", |ctx| {
            ctx.advance(SimDuration::micros(1));
        });
        match eng.run() {
            Err(SimError::Deadlock { blocked, .. }) => {
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].name, "a");
            }
            other => panic!("expected deadlock, got {:?}", other.map(|(_, o)| o)),
        }
    }

    #[test]
    fn proc_panic_is_captured_and_teardown_completes() {
        let mut eng = Engine::new(MailWorld::new(3));
        eng.spawn("victim", |ctx| {
            ctx.advance(SimDuration::micros(1));
            panic!("boom in rank");
        });
        eng.spawn("waiter", |ctx| {
            recv(&ctx);
        });
        eng.spawn("sleeper", |ctx| {
            ctx.advance(SimDuration::millis(1000));
        });
        match eng.run() {
            Err(SimError::ProcPanic { name, message }) => {
                assert_eq!(name, "victim");
                assert!(message.contains("boom in rank"), "got message: {message:?}");
            }
            other => panic!("expected panic error, got {:?}", other.map(|(_, o)| o)),
        }
    }

    #[test]
    fn equal_clock_processes_round_robin() {
        let mut eng = Engine::new(MailWorld::new(2));
        for pid in 0..2 {
            eng.spawn(format!("p{pid}"), move |ctx| {
                for i in 0..3 {
                    ctx.with_world(move |w, _| {
                        w.log.push(format!("p{pid}:{i}"));
                    });
                    ctx.yield_now();
                }
            });
        }
        let (w, _) = eng.run().unwrap();
        assert_eq!(
            w.log,
            vec!["p0:0", "p1:0", "p0:1", "p1:1", "p0:2", "p1:2"],
            "yield_now round-robins between equal-clock processes"
        );
    }

    #[test]
    fn deterministic_event_ordering_across_runs() {
        let run = || {
            let mut eng = Engine::new(MailWorld::new(4));
            for s in 0..3usize {
                eng.spawn(format!("s{s}"), move |ctx| {
                    for i in 0..10u64 {
                        ctx.advance(SimDuration::nanos(100 * (s as u64 + 1)));
                        send(&ctx, 3, (s as u64) * 100 + i, SimDuration::micros(2));
                    }
                });
            }
            eng.spawn("sink", |ctx| {
                let mut got = Vec::new();
                for _ in 0..30 {
                    got.push(recv(&ctx).0);
                }
                ctx.with_world(move |w, _| {
                    w.log = got.iter().map(|v| v.to_string()).collect();
                });
            });
            let (w, out) = eng.run().unwrap();
            (w.log, out.end_time, out.events_processed)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "simulation must be bitwise deterministic");
        assert_eq!(a.2, 30);
    }

    #[test]
    fn with_world_is_zero_time() {
        let mut eng = Engine::new(MailWorld::new(1));
        eng.spawn("p", |ctx| {
            let t0 = ctx.now();
            for _ in 0..100 {
                ctx.with_world(|_, _| {});
            }
            assert_eq!(ctx.now(), t0);
        });
        eng.run().unwrap();
    }

    #[test]
    fn many_processes_interleave_by_clock() {
        let mut eng = Engine::new(MailWorld::new(8));
        for pid in 0..8usize {
            eng.spawn(format!("p{pid}"), move |ctx| {
                // Each process advances by a different stride; the engine must
                // always run the smallest-clock process next.
                for _ in 0..50 {
                    ctx.advance(SimDuration::nanos((pid as u64 + 1) * 10));
                    let now = ctx.now();
                    ctx.with_world(move |w, _| w.log.push(format!("{}", now.as_nanos())));
                }
            });
        }
        let (w, _) = eng.run().unwrap();
        let times: Vec<u64> = w.log.iter().map(|s| s.parse().unwrap()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "global observation order is time order");
    }

    #[test]
    fn outcome_metrics_mirror_the_run() {
        let run = || {
            let mut eng = Engine::new(MailWorld::new(2));
            for pid in 0..2usize {
                eng.spawn(format!("p{pid}"), move |ctx| {
                    for _ in 0..10 {
                        ctx.with_world(|_, api| {
                            api.schedule(
                                SimDuration::nanos(5),
                                MailEvent::Deliver { to: 0, value: 1 },
                            );
                        });
                        ctx.advance(SimDuration::nanos(10));
                    }
                });
            }
            eng.run().unwrap().1
        };
        let out = run();
        assert_eq!(out.metrics.get("sim.events"), Some(out.events_processed));
        assert_eq!(out.metrics.get("sim.fast_resumes"), Some(out.fast_resumes));
        assert_eq!(out.metrics.get("sim.events_scheduled"), Some(20));
        assert!(out.metrics.get("sim.handoffs").unwrap() >= out.fast_resumes);
        assert!(out.metrics.get("sim.ready_peak").unwrap() >= 2);
        assert!(out.metrics.get("sim.queue_peak").unwrap() >= 1);
        // Virtual-time determinism extends to the snapshot.
        assert_eq!(out.metrics, run().metrics);
    }

    // ------------------------------------------------------------------
    // Self-resume fast-path correctness
    // ------------------------------------------------------------------

    #[test]
    fn lone_process_fast_resumes() {
        let mut eng = Engine::new(MailWorld::new(1));
        eng.spawn("p", |ctx| {
            for _ in 0..100 {
                ctx.advance(SimDuration::nanos(10));
            }
            for _ in 0..50 {
                ctx.yield_now();
            }
        });
        let (_, out) = eng.run().unwrap();
        assert_eq!(out.end_time, SimTime(1_000));
        if std::env::var_os("VIAMPI_NO_FASTPATH").is_none() {
            if std::env::var_os("VIAMPI_NO_COALESCE").is_none() {
                // 100 advances coalesce into one flush at the first yield,
                // then each of the 50 yields self-resumes.
                assert_eq!(
                    out.fast_resumes, 51,
                    "one flushed advance + every yield takes the fast path"
                );
                assert_eq!(out.metrics.get("sim.coalesce.advances"), Some(100));
                assert_eq!(out.metrics.get("sim.coalesce.flushes"), Some(1));
            } else {
                assert_eq!(
                    out.fast_resumes, 150,
                    "every advance/yield of a lone process takes the fast path"
                );
            }
        }
    }

    #[test]
    fn fast_path_never_skips_a_pending_event() {
        // A process advancing *past* (not just onto) a pending event must
        // still go through the engine so the event is applied at its own
        // time, before the process resumes.
        struct ProbeWorld {
            fired_at: Option<SimTime>,
        }
        enum E {
            Fire,
        }
        impl World for ProbeWorld {
            type Event = E;
            fn handle_event(&mut self, _: E, api: &mut Api<'_, E>) {
                self.fired_at = Some(api.now());
            }
        }
        let mut eng = Engine::new(ProbeWorld { fired_at: None });
        eng.spawn("p", |ctx| {
            ctx.with_world(|_, api| api.schedule(SimDuration::micros(5), E::Fire));
            // Fast path allowed: 3 < 5.
            ctx.advance(SimDuration::micros(3));
            assert_eq!(ctx.with_world(|w, _| w.fired_at), None);
            // Crosses the event: must yield to the engine.
            ctx.advance(SimDuration::micros(4));
            assert_eq!(
                ctx.with_world(|w, _| w.fired_at),
                Some(SimTime(5_000)),
                "event fired at its own time while the proc moved 3us -> 7us"
            );
        });
        eng.run().unwrap();
    }

    #[test]
    fn fast_path_yields_to_just_woken_equal_clock_peer() {
        // p0 wakes p1 at p0's own clock, then advances. p1 (equal clock,
        // older last_run) must run before p0 continues — the fast path may
        // not starve the round-robin tie-break.
        let mut eng = Engine::new(MailWorld::new(2));
        eng.spawn("p0", |ctx| {
            ctx.advance(SimDuration::micros(1));
            // Deliver instantly: the event is due at p0's clock, so the
            // next advance may not fast-path over it.
            send(&ctx, 1, 9, SimDuration::ZERO);
            ctx.advance(SimDuration::nanos(1));
            let seen = ctx.with_world(|w, _| w.log.clone());
            assert_eq!(
                seen,
                vec!["p1:got9".to_string()],
                "woken equal-clock peer ran before p0's next step"
            );
        });
        eng.spawn("p1", |ctx| {
            let (v, _) = recv(&ctx);
            ctx.with_world(move |w, _| w.log.push(format!("p1:got{v}")));
        });
        eng.run().unwrap();
    }

    #[test]
    fn fast_path_respects_earlier_ready_process() {
        // Two processes with different strides: the faster-advancing one
        // must never overtake the slower one in observation order even
        // though both mostly self-resume when alone at the frontier.
        let mut eng = Engine::new(MailWorld::new(2));
        for pid in 0..2usize {
            eng.spawn(format!("p{pid}"), move |ctx| {
                for _ in 0..100 {
                    ctx.advance(SimDuration::nanos((pid as u64 + 1) * 7));
                    let now = ctx.now();
                    ctx.with_world(move |w, _| {
                        w.log.push(format!("{}", now.as_nanos()));
                    });
                }
            });
        }
        let (w, _) = eng.run().unwrap();
        let times: Vec<u64> = w.log.iter().map(|s| s.parse().unwrap()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "time order preserved under fast path");
    }

    // ------------------------------------------------------------------
    // Schedule-exploration seed
    // ------------------------------------------------------------------

    /// Equal-clock tie workload: 3 processes advancing in lockstep, each
    /// logging its pid at every step. Unseeded this round-robins; seeded,
    /// the per-step order depends on the seed.
    fn tie_log(seed: Option<u64>) -> Vec<String> {
        let mut eng = Engine::new(MailWorld::new(3));
        eng.set_sched_seed(seed);
        for pid in 0..3usize {
            eng.spawn(format!("p{pid}"), move |ctx| {
                for _ in 0..6 {
                    ctx.advance(SimDuration::nanos(10));
                    ctx.with_world(move |w, _| w.log.push(format!("p{pid}")));
                }
            });
        }
        let (w, _) = eng.run().unwrap();
        w.log
    }

    #[test]
    fn sched_seed_is_replayable() {
        assert_eq!(tie_log(Some(42)), tie_log(Some(42)));
        assert_eq!(tie_log(Some(7)), tie_log(Some(7)));
    }

    #[test]
    fn sched_seeds_explore_distinct_interleavings() {
        let orders: std::collections::HashSet<Vec<String>> =
            (0..8u64).map(|s| tie_log(Some(s))).collect();
        assert!(
            orders.len() > 1,
            "different seeds should produce different equal-clock orders"
        );
    }

    #[test]
    fn no_sched_seed_keeps_round_robin() {
        let expected: Vec<String> = (0..6)
            .flat_map(|_| ["p0", "p1", "p2"])
            .map(str::to_string)
            .collect();
        assert_eq!(tie_log(None), expected);
    }

    // ------------------------------------------------------------------
    // Compute coalescing
    // ------------------------------------------------------------------

    /// A mixed compute/communication workload, run under an explicit
    /// engine configuration; returns every virtual-time observable.
    fn modes_workload(
        backend: Option<Backend>,
        coalesce: Option<bool>,
    ) -> (Vec<String>, SimTime, u64, Vec<SimTime>) {
        let mut eng = Engine::new(MailWorld::new(5));
        eng.set_backend(backend);
        eng.set_coalesce(coalesce);
        for s in 0..4usize {
            eng.spawn(format!("s{s}"), move |ctx| {
                for i in 0..12u64 {
                    // Fragmented compute stretch: coalescing folds it.
                    for _ in 0..8 {
                        ctx.advance(SimDuration::nanos(25 * (s as u64 + 1)));
                    }
                    send(&ctx, 4, (s as u64) * 100 + i, SimDuration::micros(1));
                    if i % 3 == 0 {
                        ctx.yield_now();
                    }
                }
            });
        }
        eng.spawn("sink", |ctx| {
            let mut got = Vec::new();
            for _ in 0..48 {
                got.push(recv(&ctx).0);
            }
            ctx.with_world(move |w, _| {
                w.log = got.iter().map(|v| v.to_string()).collect();
            });
        });
        let (w, out) = eng.run().unwrap();
        (w.log, out.end_time, out.events_processed, out.proc_finish)
    }

    #[test]
    fn coalescing_on_and_off_are_bit_identical() {
        let lazy = modes_workload(None, Some(true));
        let eager = modes_workload(None, Some(false));
        assert_eq!(lazy, eager, "lazy vs eager compute charging must agree");
    }

    #[test]
    fn deferred_now_is_exact_mid_stretch() {
        let mut eng = Engine::new(MailWorld::new(1));
        eng.spawn("p", |ctx| {
            let mut expect = 0u64;
            for i in 1..=64u64 {
                ctx.advance(SimDuration::nanos(i));
                expect += i;
                assert_eq!(
                    ctx.now(),
                    SimTime(expect),
                    "now() reads through the deferred clock"
                );
            }
        });
        let (_, out) = eng.run().unwrap();
        assert_eq!(out.end_time, SimTime((1..=64u64).sum()));
    }

    #[test]
    fn outcome_identical_with_and_without_fast_resumes() {
        // The deterministic-ordering workload again, but checked against
        // the exact values the pre-fast-path engine produced (committed
        // here as constants) — fast_resumes only changes wall clock.
        let mut eng = Engine::new(MailWorld::new(4));
        for s in 0..3usize {
            eng.spawn(format!("s{s}"), move |ctx| {
                for i in 0..10u64 {
                    ctx.advance(SimDuration::nanos(100 * (s as u64 + 1)));
                    send(&ctx, 3, (s as u64) * 100 + i, SimDuration::micros(2));
                }
            });
        }
        eng.spawn("sink", |ctx| {
            for _ in 0..30 {
                recv(&ctx);
            }
        });
        let (_, out) = eng.run().unwrap();
        assert_eq!(out.events_processed, 30);
        assert_eq!(out.end_time, SimTime(5_000), "sink wakes at last delivery");
    }

    // ------------------------------------------------------------------
    // Proc-state-machine (sm) backend
    // ------------------------------------------------------------------

    #[test]
    fn sm_stack_parse_defaults_and_uses_byte_counts() {
        assert_eq!(parse_sm_stack(None), 1 << 20);
        assert_eq!(parse_sm_stack(Some("")), 1 << 20);
        assert_eq!(parse_sm_stack(Some("  ")), 1 << 20);
        assert_eq!(parse_sm_stack(Some("65536")), 65536);
        assert_eq!(parse_sm_stack(Some(" 262144\n")), 262144);
    }

    #[test]
    #[should_panic(expected = "VIAMPI_SM_STACK must be a byte count, got \"1M\"")]
    fn sm_stack_parse_rejects_garbage() {
        parse_sm_stack(Some("1M"));
    }

    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    mod sm_backend {
        use super::*;

        #[test]
        fn matches_threads_bit_for_bit() {
            let threads = modes_workload(Some(Backend::Threads), None);
            let sm = modes_workload(Some(Backend::Sm), None);
            assert_eq!(sm, threads, "sm backend must be byte-identical");
        }

        #[test]
        fn matches_threads_with_coalescing_off() {
            let threads = modes_workload(Some(Backend::Threads), Some(false));
            let sm = modes_workload(Some(Backend::Sm), Some(false));
            assert_eq!(sm, threads, "sm × eager compute must be byte-identical");
        }

        #[test]
        fn sm_counters_populate_and_thread_counters_stay_zero() {
            let run = |backend| {
                let mut eng = Engine::new(MailWorld::new(3));
                eng.set_backend(Some(backend));
                eng.spawn("sender", |ctx| {
                    for i in 0..20u64 {
                        ctx.advance(SimDuration::nanos(50));
                        send(&ctx, 1, i, SimDuration::micros(1));
                    }
                });
                eng.spawn("receiver", |ctx| {
                    for _ in 0..20 {
                        recv(&ctx);
                    }
                });
                eng.spawn("bystander", |ctx| {
                    ctx.advance(SimDuration::micros(3));
                    ctx.yield_now();
                });
                let (_, out) = eng.run().unwrap();
                out
            };
            let sm = run(Backend::Sm);
            assert!(sm.metrics.get("sim.sm.polls").unwrap_or(0) > 0);
            assert!(sm.metrics.get("sim.sm.parks").unwrap_or(0) > 0);
            assert!(sm.metrics.get("sim.sm.resumes").unwrap_or(0) > 0);
            assert!(
                sm.metrics.get("sim.sm.rank_mem_peak").unwrap_or(0) > 0,
                "fibers ran, so some stack depth was observed"
            );
            let th = run(Backend::Threads);
            assert_eq!(th.metrics.get("sim.sm.polls"), Some(0));
            assert_eq!(th.metrics.get("sim.sm.parks"), Some(0));
            assert_eq!(th.metrics.get("sim.sm.resumes"), Some(0));
            assert_eq!(th.metrics.get("sim.sm.rank_mem_peak"), Some(0));
            // The scheduler-proper counters are substrate-independent.
            assert_eq!(
                sm.metrics.get("sim.handoffs"),
                th.metrics.get("sim.handoffs")
            );
            assert_eq!(sm.metrics.get("sim.events"), th.metrics.get("sim.events"));
            assert_eq!(
                sm.metrics.get("sim.fast_resumes"),
                th.metrics.get("sim.fast_resumes")
            );
            assert_eq!(
                sm.metrics.get("sim.direct.handoffs"),
                th.metrics.get("sim.direct.handoffs")
            );
        }

        #[test]
        fn deadlock_is_detected_and_torn_down() {
            let mut eng = Engine::new(MailWorld::new(2));
            eng.set_backend(Some(Backend::Sm));
            eng.spawn("a", |ctx| {
                recv(&ctx); // nobody ever sends
            });
            eng.spawn("b", |ctx| {
                ctx.advance(SimDuration::micros(1));
            });
            match eng.run() {
                Err(SimError::Deadlock { blocked, .. }) => {
                    assert_eq!(blocked.len(), 1);
                    assert_eq!(blocked[0].name, "a");
                }
                other => panic!("expected deadlock, got {:?}", other.map(|(_, o)| o)),
            }
        }

        #[test]
        fn proc_panic_unwinds_every_fiber_including_never_started() {
            let mut eng = Engine::new(MailWorld::new(3));
            eng.set_backend(Some(Backend::Sm));
            eng.spawn("victim", |ctx| {
                let _ = &ctx;
                panic!("boom in fiber");
            });
            eng.spawn("waiter", |ctx| {
                recv(&ctx);
            });
            eng.spawn("late", |ctx| {
                // Never scheduled: the victim panics on the very first
                // grant, so this body must be dropped unstarted.
                ctx.advance(SimDuration::millis(1000));
            });
            match eng.run() {
                Err(SimError::ProcPanic { name, message }) => {
                    assert_eq!(name, "victim");
                    assert!(message.contains("boom in fiber"), "got {message:?}");
                }
                other => panic!("expected panic error, got {:?}", other.map(|(_, o)| o)),
            }
        }

        #[test]
        fn large_world_runs_in_one_thread() {
            // A np=512 ring of yields: far beyond what the thread backend
            // is asked to do in unit tests, trivial for fibers.
            let n = 512usize;
            let mut eng = Engine::new(MailWorld::new(n));
            eng.set_backend(Some(Backend::Sm));
            for pid in 0..n {
                eng.spawn(format!("r{pid}"), move |ctx| {
                    let next = (pid + 1) % ctx.nprocs();
                    ctx.advance(SimDuration::nanos(10 * (pid as u64 % 7 + 1)));
                    send(&ctx, next, pid as u64, SimDuration::micros(1));
                    let (v, _) = recv(&ctx);
                    assert_eq!(v as usize, (pid + ctx.nprocs() - 1) % ctx.nprocs());
                });
            }
            let (_, out) = eng.run().unwrap();
            assert_eq!(out.proc_finish.len(), n);
            assert!(out.metrics.get("sim.sm.resumes").unwrap_or(0) > 0);
        }
    }
}

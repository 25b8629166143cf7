//! The work-stealing executor: OS threads over the verified runqueues.
//!
//! Everything below this crate schedules *abstract task words*; this module
//! finally makes them real.  An [`Executor`] spawns one OS worker thread
//! per CPU of a [`MachineTopology`], each owning a lock-free
//! [`DequeRq`] (a Chase–Lev ring plus an injector that takes the ring's
//! overflow and submissions from other threads), and runs
//! submitted jobs through exactly the machinery the rest of the repository
//! verifies: wakeup placement via [`sched_core::ChoicePolicy::place_wakeup`],
//! batched CAS stealing via [`DequeRq::try_steal_recorded`] with the same
//! [`StealRecorder`] program point the `stats == fold(trace)` parity proofs
//! rely on, and per-decision tracing through [`sched_trace`].  A steal
//! decision claims half the imbalance it observed: [`Executor::start`] sets
//! the policy's step 3 to [`StealRule::HalfImbalance`] whatever the policy
//! named (so [`Executor::policy`]'s `describe()` ends in `steal_half`), and
//! [`StealRule::plan`] — the sizing the model, the simulator and the
//! runqueues run, and `sched-verify` proves non-inverting — sizes each claim.
//!
//! A job is a closure, and that is the only kind there is.  What a caller
//! wants measured about its jobs — [`crate::openloop`]'s per-request
//! latency, say — it measures itself, inside the closures it submits; the
//! executor keeps counts and the decision trace, no timings.
//!
//! # The worker loop
//!
//! ```text
//!          ┌──────────────────────────────────────────────────────┐
//!          ▼                                                      │
//!   run own core ──empty──▶ search (searching++) ──work──────▶────┤
//!   (current/ring/          look, yield, look … ≤ window          │
//!    injector)                      │   (stole: wake victim,      │
//!          ▲                       dry          next thief)       │
//!          │                        ▼                             │
//!          │              register on idle stack                  │
//!          │                        │                             │
//!          │              re-check every queue ──work──▶──────────┘
//!          │                        │
//!          │                      empty
//!          │                        ▼
//!          └──token/timeout──  park (blocked)
//! ```
//!
//! # The submit → run → complete path shares nothing
//!
//! The paper's optimistic scheduler is fast because its common path
//! touches per-core state only; the path around it has to keep that
//! property or it costs more than the work it schedules.  When nobody is
//! parked, nobody drains and nobody joins, a task makes no system call and
//! writes only lines that belong to the worker that submitted it and the
//! worker that ran it:
//!
//! * **The clock moves only when something reads it.**  The machine's
//!   logical clock has two readers: a trace sink, which stamps its events
//!   with it, and a decayed load tracker, which folds at its readings.
//!   With neither, [`Executor::start`] leaves it at 0 for good and a task
//!   reads no wall clock; with either, each executed task advances it with
//!   one `fetch_max`.
//! * **A spawn is one allocation.**  The closure and the cell its result
//!   goes to share one `Arc`: the slab holds it as a job, the
//!   [`JoinHandle`] as a typed view of the same cell.  The worker that runs
//!   it drops its reference as it completes, so the joiner, which holds the
//!   last one, frees it — as a rule on the thread that allocated it, not on
//!   the worker's.
//! * **The payload rides in a slab, its slot in the task word.**  Runqueues
//!   carry task *words*; the job waits in a `JobSlab` with one shard per
//!   submitting worker plus one for threads outside the executor.  A task
//!   id is `(generation << 24 | slot) * shards + shard`: the claiming
//!   worker decodes shard and slot, no hashing, and takes the job under
//!   the slot's own lock, which nobody else holds by then.  Slots live in
//!   doubling segments that never move, so a taker reaches its slot
//!   without the lock submitters take; it hands the vacated slot back
//!   through a push-only stack the submitter swaps out whole when its free
//!   list runs dry.  A slot's generation is bumped every time it is
//!   vacated, so ids are **unique for the run** although slots are
//!   recycled, and a slot whose generation space is spent is retired, so
//!   ids stay below the `2^55` the runqueue word can pack.  Shards grow on
//!   demand; nothing is pre-sized.
//! * **Counters are per worker.**  Each worker owns one cache-line-padded
//!   cell holding what it `submitted`, `completed` and saw `panicked`;
//!   threads outside the executor share one more.  The number of jobs in
//!   flight is `Σ submitted − Σ completed`, summed only by whoever needs it
//!   (`drain`, `shutdown`, an exiting worker) and read **completed first**:
//!   a job's submission is counted before it is enqueued, so every
//!   completion a reader has seen brings its submission with it and the
//!   difference cannot read 0 while a job is in flight.
//! * **A spawn knows where it came from.**  Worker threads carry their
//!   executor's id and their own index in a thread-local.  A spawn made
//!   from a worker uses that worker's slab shard and counter cell, passes
//!   its core as `prev` to `place_wakeup` (the paper's previous-core rule)
//!   and does not read the clock — its worker advanced it when the last
//!   task completed.  Workers read the wall clock once per executed task,
//!   if the clock has a reader.  A spawn from outside passes the core the
//!   last outside spawn was placed on: a producer's run of submissions
//!   stays with one worker for as long
//!   as that worker keeps up, and moves on when the policy finds it busy.
//!   Spreading the hint over the workers would wake each of them in turn:
//!   a producer of tiny jobs then keeps every worker thread busy and runs
//!   at whatever pace the operating system's placement of them leaves it —
//!   twice as slow when it shares its CPU with a worker it keeps waking.
//! * **A foreign submission writes nothing its worker writes.**  Every
//!   submission whose target is not the submitting worker's own core —
//!   every spawn from outside, and a worker's spawn placed on another core
//!   — goes through [`DequeRq::inject`]: one CAS claims the target core if
//!   it is idle, and otherwise the task waits in the core's injector, on
//!   lines of its own.  So each core's ring bottom, owner mutex and
//!   ring count have one writer, its worker, which moves the injector's
//!   residents into its ring before each pop, oldest first: it still runs
//!   the newest waiting task first, and thieves still take the oldest.  A
//!   worker's spawn onto its own core takes the owner path.
//! * **Placement reads no busy neighbour and allocates nothing.**  A busy
//!   core's load lives on lines its worker writes for every task, so a
//!   snapshot of it costs both sides a coherence miss.  While nobody is
//!   parked, a worker's spawn offers the policy its own core only — the
//!   child stays where its parent ran and stealing evens out the rest.
//!   With a worker parked, or from outside the executor, the policy sees
//!   every core, as it always did.  Snapshots are collected into a
//!   thread-local buffer, for placements and steal decisions alike.
//! * **A result wakes only a joiner that is waiting.**  [`JoinHandle::join`]
//!   registers under the result cell's lock before it blocks; a completion
//!   notifies the condition variable only for a registered joiner and
//!   skips the cell altogether when the handle was dropped.
//!
//! # Parking protocol
//!
//! Idle workers park on a per-worker token [`Parker`] and register on a
//! shared [`IdleStack`] (last parked, first woken).  Whoever makes a queue
//! *overloaded* — seats work on it that its worker may not know of — owes
//! two wakes, and there are three such edges:
//!
//! 1. **A submission** wakes the *specific* worker whose runqueue just
//!    received the task if it is parked; otherwise, if no worker is
//!    currently searching for work (the global `searching` counter), it
//!    pops one parked worker to go steal.
//! 2. **A thief that hands losers back.**  A steal decision claims a batch
//!    — half the imbalance — and what the delivery's re-check will not let
//!    the thief keep goes back to the *victim's* injector.  The victim's
//!    worker may have run dry and parked while the thief held those words:
//!    the thief wakes it, directed, exactly as a submission to that queue
//!    would.  Without this edge the losers wait for the sleeper's backstop.
//! 3. **A thief that seats a batch.**  Two tasks or more on the thief's own
//!    queue make *it* the overloaded core.  No submission follows a steal,
//!    so the thief itself pops one parked worker, under the same
//!    `searching == 0` bound, and that one — stealing half of a half — the
//!    next.  Without this edge a third and a fourth worker learn of a batch
//!    from their backstops.
//!
//! Bounding undirected wakeups by `searching == 0` is what prevents wakeup
//! storms: one submission, or one successful steal decision, wakes at most
//! one thief.  A short timed backstop on the park makes even a missed edge
//! self-heal — and [`ExecReport::backstop_rescues`] and
//! [`ExecReport::backstop_steals`] count how often it had to.
//!
//! **A dry worker searches before it parks.**  The paper's idle core keeps
//! running its three steps until work turns up; a worker that parks as
//! soon as one steal decision finds nothing makes whoever seats the next
//! task pay a park → unpark round trip for it — a system call on the
//! producer's own critical path, every few dozen tiny tasks.  So a worker
//! whose own sources ran dry first *searches*: it looks — own sources,
//! then one [`Policy::select`] over fresh snapshots — yields its CPU, and
//! looks again, for `SEARCH_WINDOW`, about as long as blocking would cost
//! (two-phase waiting: Ousterhout, ICDCS 1982; polling for one blocking
//! cost is 2-competitive, Karlin et al., SOSP 1991).  It yields rather
//! than spins: on a machine with fewer CPUs than threads a spinning worker
//! takes the producer's CPU.  The search counts in `searching` for its
//! whole length, so a producer that finds a searcher makes no undirected
//! wake, and a worker woken for work that was gone before it arrived sits
//! the next wakes out while it searches.  A look that finds no victim
//! records nothing — the recorder is reached only for a chosen victim —
//! and the search ends at once on shutdown.
//!
//! Two ordering arguments keep the lock-free fast paths from losing a
//! wakeup; both are the same store → fence → load pair on each side.
//!
//! 1. **Whoever seats work vs the parking worker.**  The worker leaves
//!    `searching`, registers, *then* re-checks **every** queue — its own
//!    ring, running slot and injector, and every queue the policy would
//!    let it steal from; the producer seats the task, *then* reads the
//!    published count of registered workers and takes the idle stack's
//!    lock only when it is non-zero.  `SeqCst` fences between the two
//!    steps on both sides guarantee that the worker sees the task or the
//!    producer sees the registration — and, since the worker left
//!    `searching` before its fence, the producer's read of `searching` no
//!    longer counts it (spelled out in [`crate::parker`]).  A foreign
//!    producer's store is the CAS that claims an idle core or the
//!    injector push, whose resident count is published inside the push;
//!    the worker's re-check reads the running slot and that count through
//!    its own snapshot and `injected_len()`, and any other queue's through
//!    the snapshots the policy selects from.  So a task injected onto a
//!    core whose worker has just finished its running task and found its
//!    ring empty is not lost: either the worker's re-check sees it in the
//!    injector and the worker runs it, or the producer sees the
//!    registration and wakes it.  An own-core spawn's store is the ring
//!    push, made by the worker itself, which runs its own queue before it
//!    looks anywhere else.  Edges 2 and 3 are the same pair
//!    with the thief as the producer (`Shared::notify_after_steal`): its
//!    stores are the injector push that returns the losers and the
//!    owner-side push that seats its share, both before its fence; the
//!    victim's re-check reads the injector's length after its own.  For
//!    the directed wakes (edge 1's first half, edge 2) that is a
//!    guarantee: a worker never sleeps on its own work.  For the
//!    undirected ones it is one too, by induction on the searchers: a
//!    producer that skipped its wake because `searching` was non-zero
//!    counted a searcher that had not yet fenced its registration, and
//!    that searcher's re-check sees the task; the last searcher to park
//!    re-checks every queue.  What is left to the backstop is a verdict
//!    that changes with no store to announce it: a queue the filter
//!    refused at the re-check and accepts once decayed loads have moved.
//! 2. **Completer vs `drain` / `shutdown`.**  The waiter raises its flag,
//!    *then* sums the counters and blocks if jobs are in flight; a
//!    completer bumps its `completed` count, *then* reads the flags and,
//!    if one is up and the sum is zero, wakes the waiter.  The flag
//!    accesses and the `completed` accesses are all `SeqCst`, so in their
//!    single total order either the waiter's sum includes the last
//!    completion or the last completer sees the flag; and of two racing
//!    completers, the later one sees the earlier one's count.  That
//!    `SeqCst` increment of a worker's own line is the only
//!    read-modify-write the counters cost; with no flag up a completion
//!    reads two flags nobody is writing.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use sched_core::{CoreId, CoreSnapshot, Policy, StealOutcome, StealRule, TaskId};
use sched_rq::steal::StealRecorder;
use sched_rq::{BalanceStats, DequeRq, RqBackend, RqTask};
use sched_topology::MachineTopology;
use sched_trace::{TraceEvent, TraceSink};

use crate::parker::{IdleStack, Parker};

/// Fallback park duration: a parked worker (or drainer) re-checks the world
/// this often even if no token arrives.  Purely a backstop — the token
/// protocol is what wakes them — but it turns any missed edge (or a
/// descheduled producer on an oversubscribed machine) into bounded latency
/// instead of a hang.
const PARK_BACKSTOP: Duration = Duration::from_millis(2);

/// How long a worker whose own sources ran dry keeps looking for work
/// before it parks: about one park → unpark round trip, the cost that
/// blocking would put on whoever wakes it again.  Polling for one blocking
/// cost and then blocking is 2-competitive with the best offline choice
/// (Karlin et al., SOSP 1991).  The benchmark's `exec.parker_handoff_ns`
/// probe reads 8–9 µs on a 2-vCPU KVM guest (Xeon, Sapphire Rapids);
/// there, windows of 2, 5, 10, 20 and 50 µs all ran `burst_tiny` within 5%
/// of each other and about a quarter faster than a single look before the
/// park (see "A dry worker searches before it parks" in the module docs).
const SEARCH_WINDOW: Duration = Duration::from_micros(10);

/// Low bits of a slab shard's job word that hold the slot index; the bits
/// above hold the slot's generation.  A shard therefore holds at most 2^24
/// jobs in flight from one submitter.
const SLOT_BITS: u32 = 24;

/// Task ids must stay below this to fit the runqueue's packed word.
const ID_LIMIT: u64 = 1 << 55;

/// How the executor is built: machine shape, policy, and knobs.
#[derive(Debug)]
pub struct ExecConfig {
    /// One worker (and one runqueue) per CPU of this machine.
    pub topo: Arc<MachineTopology>,
    /// The balancing policy: its filter/choice drive stealing, its
    /// [`sched_core::ChoicePolicy::place_wakeup`] drives submission placement, and its
    /// tracker maintains the loads both read.  Its step 3 is replaced by
    /// [`StealRule::HalfImbalance`] when the executor starts.
    pub policy: Policy,
    /// Capacity of each worker's ring (overflow spills to the shared
    /// injector, so this bounds memory, not admission).
    pub ring_capacity: usize,
    /// Decision trace sink; keep a clone to drain it after shutdown.
    pub trace: TraceSink,
}

impl ExecConfig {
    /// A configuration with the default ring capacity and no tracing.  (A
    /// steal moves half the imbalance whatever step 3 `policy` names —
    /// [`Executor::start`] sets it to [`StealRule::HalfImbalance`], and the
    /// policy's `describe()` says so; that is not a knob.)
    pub fn new(topo: Arc<MachineTopology>, policy: Policy) -> Self {
        ExecConfig { topo, policy, ring_capacity: 1024, trace: TraceSink::disabled() }
    }

    /// Attaches a decision trace sink.
    pub fn with_trace(mut self, trace: TraceSink) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the per-worker ring capacity.
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }
}

/// Gives `T` a cache-line pair of its own, so that one thread writing it
/// never invalidates what another thread keeps next to it.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Padded<T>(T);

impl<T> std::ops::Deref for Padded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// A submitted task's payload as the slab holds it: the spawn's one
/// allocation, shared with the [`JoinHandle`] (see [`JoinCell`]).
type Job = Arc<dyn Run>;

/// The slab's view of a spawned job.
trait Run: Send + Sync {
    /// Runs the closure, hands its outcome to the join handle and returns
    /// whether it panicked.
    fn run(self: Arc<Self>) -> bool;
}

/// Slots in a shard's first segment, as a power of two; segment `k` holds
/// `2^(FIRST_SEGMENT_BITS + k)` slots.
const FIRST_SEGMENT_BITS: u32 = 6;

/// Segments enough for `2^SLOT_BITS` slots: the first `n` hold
/// `2^FIRST_SEGMENT_BITS · (2^n − 1)`.
const SEGMENTS: usize = (SLOT_BITS - FIRST_SEGMENT_BITS + 1) as usize;

/// Where slot `slot` of a shard lives: its segment and its index there.
fn segment_of(slot: usize) -> (usize, usize) {
    let segment = ((slot >> FIRST_SEGMENT_BITS) + 1).ilog2() as usize;
    (segment, slot - (((1 << segment) - 1) << FIRST_SEGMENT_BITS))
}

/// What a slab slot holds: the waiting job and how often the slot has been
/// vacated.
#[derive(Default)]
struct Held {
    generation: u64,
    job: Option<Job>,
}

/// One slab slot.  Its lock is taken only by the slot's current holder:
/// the submitter while it stores a job, then the worker that claimed the
/// job's id, which the submitter enqueued after unlocking.
#[derive(Default)]
struct Slot {
    held: Mutex<Held>,
    /// The next slot down the shard's vacated stack, plus one (0: none).
    next_vacated: AtomicU32,
}

/// The submitters' side of a shard: recycled slots and how many slots the
/// shard has handed out.
#[derive(Default)]
struct FreeSlots {
    free: Vec<u32>,
    grown: u32,
}

/// One submitter's slots.  They live in doubling segments that never move,
/// so a taker reaches its slot without the submitters' lock; takers hand
/// vacated slots back through a push-only stack that the submitter swaps
/// out whole when its free list runs dry.  A stack that is only ever pushed
/// onto or emptied whole has no ABA problem.
///
/// The submitters' lock and the takers' stack top sit on lines of their
/// own: a taker pushes for every task it runs, a submitter locks for every
/// task it inserts.
struct SlabShard {
    segments: [OnceLock<Box<[Slot]>>; SEGMENTS],
    /// Taken by submitters only: contended only among outside threads,
    /// which share one shard.
    free: Padded<Mutex<FreeSlots>>,
    /// Top of the stack of slots takers vacated, plus one (0: empty).
    vacated: Padded<AtomicU32>,
}

impl Default for SlabShard {
    fn default() -> Self {
        SlabShard {
            segments: std::array::from_fn(|_| OnceLock::new()),
            free: Padded::default(),
            vacated: Padded::default(),
        }
    }
}

impl SlabShard {
    /// Slot `slot`, if its segment exists.
    fn slot(&self, slot: usize) -> Option<&Slot> {
        let (segment, at) = segment_of(slot);
        self.segments.get(segment)?.get()?.get(at)
    }

    /// A vacant slot for a submitter: a recycled one if there is any, else
    /// the next new one.
    fn claim(&self) -> usize {
        let mut slots = self.free.lock().expect("job slab poisoned");
        if slots.free.is_empty() {
            // Everything the takers vacated since the last swap, in one
            // exchange: the acquire pairs with each push's release, which
            // published its link.
            let mut top = self.vacated.swap(0, Ordering::Acquire);
            while let Some(slot) = top.checked_sub(1) {
                slots.free.push(slot);
                let vacated = self.slot(slot as usize).expect("a vacated slot exists");
                top = vacated.next_vacated.load(Ordering::Relaxed);
            }
        }
        if let Some(slot) = slots.free.pop() {
            return slot as usize;
        }
        let slot = slots.grown as usize;
        assert!(slot < 1 << SLOT_BITS, "more than 2^{SLOT_BITS} jobs in flight from one submitter");
        slots.grown += 1;
        let (segment, _) = segment_of(slot);
        self.segments[segment].get_or_init(|| {
            (0..1 << (FIRST_SEGMENT_BITS as usize + segment)).map(|_| Slot::default()).collect()
        });
        slot
    }

    /// Puts `slot`, which the caller has just vacated, on the stack the
    /// next [`SlabShard::claim`] swaps out.
    fn vacate(&self, slot: usize, entry: &Slot) {
        let mut top = self.vacated.load(Ordering::Relaxed);
        loop {
            entry.next_vacated.store(top, Ordering::Relaxed);
            match self.vacated.compare_exchange_weak(
                top,
                slot as u32 + 1,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => top = now,
            }
        }
    }
}

/// The id → job side table (see the module docs for the id layout).  A job
/// is inserted before its id is enqueued, so a worker that claims the id
/// always finds it.
struct JobSlab {
    shards: Vec<Padded<SlabShard>>,
    /// Generations a slot may hand out before its ids would reach
    /// [`ID_LIMIT`]; a slot that has used them all is not recycled.
    generations: u64,
}

impl JobSlab {
    fn new(nr_shards: usize) -> Self {
        JobSlab {
            shards: (0..nr_shards).map(|_| Padded::default()).collect(),
            generations: (ID_LIMIT / nr_shards as u64) >> SLOT_BITS,
        }
    }

    /// Stores `job` in `shard` and returns the id that resolves to it.
    fn insert(&self, shard: usize, job: Job) -> TaskId {
        let slab = &self.shards[shard].0;
        let slot = slab.claim();
        let entry = slab.slot(slot).expect("a claimed slot's segment exists");
        let mut held = entry.held.lock().expect("job slab poisoned");
        held.job = Some(job);
        let word = held.generation << SLOT_BITS | slot as u64;
        TaskId(word * self.shards.len() as u64 + shard as u64)
    }

    /// Removes and returns the job `id` resolves to; `None` for an id that
    /// was never handed out or has been taken already.  Takes no lock but
    /// the slot's own.
    fn take(&self, id: TaskId) -> Option<Job> {
        let nr_shards = self.shards.len() as u64;
        let (word, shard) = (id.0 / nr_shards, (id.0 % nr_shards) as usize);
        let (generation, slot) = (word >> SLOT_BITS, (word & ((1 << SLOT_BITS) - 1)) as usize);
        let slab = &self.shards[shard].0;
        let entry = slab.slot(slot)?;
        let mut held = entry.held.lock().expect("job slab poisoned");
        if held.generation != generation {
            return None;
        }
        let job = held.job.take()?;
        held.generation += 1;
        let retired = held.generation >= self.generations;
        drop(held);
        if !retired {
            slab.vacate(slot, entry);
        }
        Some(job)
    }
}

/// One submitter's share of the executor's counters.  A worker's cell is
/// written by that worker alone (`submitted` as a producer, the others as
/// the runner), the last cell by every thread outside the executor.
#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    panicked: AtomicU64,
    /// Parks of this worker that only the backstop ended, with work on its
    /// own queue ([`ExecReport::backstop_rescues`]) …
    backstop_rescues: AtomicU64,
    /// … or with work to steal ([`ExecReport::backstop_steals`]).
    backstop_steals: AtomicU64,
}

/// `counter += 1` for a counter only the calling thread writes: a load and
/// a store, no read-modify-write.  Readers need no more than `Relaxed`
/// here because every such count is published by a later release — the
/// enqueue for `submitted`, the `completed` increment for `panicked`.
fn bump_own(counter: &AtomicU64) {
    counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// What a spawned job's cell holds.
struct JoinState<F, T> {
    /// The closure, until a worker takes it to run it.
    closure: Option<F>,
    /// The closure's return value, or the payload it panicked with.
    result: Option<std::thread::Result<T>>,
    /// Set by [`JoinHandle::join`] before it blocks; a completion notifies
    /// the condition variable only when it finds this set.
    waiting: bool,
}

/// One spawned job: its closure until it runs, then its result.  It is the
/// one allocation a spawn makes — the slab holds it as a [`Job`], the
/// [`JoinHandle`] as an [`Outcome`] — and whoever drops the last reference
/// frees it: the joiner, unless it took the result before the worker
/// dropped its own.
struct JoinCell<F, T> {
    state: Mutex<JoinState<F, T>>,
    done: Condvar,
}

impl<F, T> JoinCell<F, T> {
    fn new(closure: F) -> Self {
        JoinCell {
            state: Mutex::new(JoinState { closure: Some(closure), result: None, waiting: false }),
            done: Condvar::new(),
        }
    }

    /// Hands the job's outcome to whoever holds the [`JoinHandle`] and
    /// returns whether that took a condition-variable wake.  It does only
    /// for a joiner that is already waiting: one that arrives later finds
    /// the result under the lock and never blocks, and a dropped handle
    /// (the handle is not `Clone`, so a reference count of one — the
    /// caller's — means it is gone for good) gets no store at all.
    fn complete(self: &Arc<Self>, result: std::thread::Result<T>) -> bool {
        if Arc::strong_count(self) == 1 {
            return false;
        }
        let mut state = self.state.lock().expect("join cell poisoned");
        state.result = Some(result);
        let waiting = state.waiting;
        drop(state);
        if waiting {
            self.done.notify_one();
        }
        waiting
    }
}

impl<F, T> Run for JoinCell<F, T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    fn run(self: Arc<Self>) -> bool {
        let closure = self.state.lock().expect("join cell poisoned").closure.take();
        let closure = closure.expect("the slab hands a job out once");
        let result = catch_unwind(AssertUnwindSafe(closure));
        let panicked = result.is_err();
        self.complete(result);
        panicked
    }
}

/// A [`JoinHandle`]'s view of a spawned job.
trait Outcome<T>: Send + Sync {
    /// Blocks until the job has run and takes its outcome.
    fn wait(&self) -> std::thread::Result<T>;
}

impl<F: Send, T: Send> Outcome<T> for JoinCell<F, T> {
    fn wait(&self) -> std::thread::Result<T> {
        let mut state = self.state.lock().expect("join cell poisoned");
        loop {
            if let Some(result) = state.result.take() {
                return result;
            }
            state.waiting = true;
            state = self.done.wait(state).expect("join cell poisoned");
        }
    }
}

/// Waits for one spawned closure's result.
pub struct JoinHandle<T> {
    cell: Arc<dyn Outcome<T>>,
}

impl<T> JoinHandle<T> {
    /// Blocks until the job has run and returns its result.
    ///
    /// # Panics
    ///
    /// If the job panicked, the panic resumes here, with the job's payload.
    pub fn join(self) -> T {
        self.cell.wait().unwrap_or_else(|payload| resume_unwind(payload))
    }
}

/// Which executor's worker the current thread is, and which one.
#[derive(Debug, Clone, Copy)]
struct WorkerTag {
    executor: u64,
    index: usize,
}

thread_local! {
    /// Set once by each worker thread; `None` on every other thread.
    static WORKER: Cell<Option<WorkerTag>> = const { Cell::new(None) };
    /// The per-core snapshots of the last placement or steal decision this
    /// thread made, kept for their allocation.
    static SNAPSHOTS: Cell<Vec<CoreSnapshot>> = const { Cell::new(Vec::new()) };
}

/// Source of [`Shared::id`].
static NEXT_EXECUTOR: AtomicU64 = AtomicU64::new(0);

/// Everything the worker threads share.  Every field but the padded ones
/// is written only at start-up, at `drain` or at shutdown.
struct Shared {
    /// Distinguishes this executor's workers from another's (see
    /// [`WorkerTag`]).
    id: u64,
    /// One runqueue per worker, each on lines of its own: a worker writes
    /// its queue's counters for every task.
    cores: Vec<Padded<DequeRq>>,
    policy: Policy,
    topo: Arc<MachineTopology>,
    /// Logical machine clock in nanoseconds since `start`; workers and
    /// outside producers advance it with `fetch_max` so it never goes
    /// backwards — if `clocked`.
    clock: Arc<AtomicU64>,
    /// Whether anything reads `clock`: a trace sink stamps its events with
    /// it, and a decayed load tracker folds at its readings.  Without
    /// either it stays at 0 and no task pays for moving it.
    clocked: bool,
    start: Instant,
    stats: BalanceStats,
    trace: TraceSink,
    jobs: JobSlab,
    /// One cell per worker, then one for threads outside the executor.
    counters: Vec<Padded<Counters>>,
    parkers: Vec<Parker>,
    idle: IdleStack,
    /// Workers currently searching for work; producers skip the undirected
    /// wakeup while this is nonzero (storm bound).
    searching: Padded<AtomicUsize>,
    /// Previous-core hint for submissions from outside the executor: the
    /// core the last one was placed on.  Written only when that changes.
    outside_prev: Padded<AtomicUsize>,
    shutdown: AtomicBool,
    /// Up while a thread is blocked in [`Executor::drain`] on `drainer`.
    draining: AtomicBool,
    drainer: Parker,
    /// Held for the whole of a `drain`, so `drainer` has one user.
    drain_gate: Mutex<()>,
}

impl Shared {
    /// Wall time in nanoseconds since `start`.  The logical clock stands
    /// still while nothing runs; what must expire on its own reads this.
    fn wall_ns(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    /// Advances the logical clock to wall time and publishes it to the
    /// trace, so events across workers are stamped on one timeline, and
    /// returns the reading.  With nobody to read it (`clocked` is down) it
    /// reads no wall clock, writes nothing and returns 0.
    fn advance_clock(&self) -> u64 {
        if !self.clocked {
            return 0;
        }
        let now = self.wall_ns();
        self.clock.fetch_max(now, Ordering::AcqRel);
        self.trace.set_now(now);
        now
    }

    fn now_ns(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }

    /// The calling thread's worker index, if it is one of this executor's
    /// workers.
    fn local_worker(&self) -> Option<usize> {
        WORKER.get().filter(|tag| tag.executor == self.id).map(|tag| tag.index)
    }

    fn completed(&self) -> u64 {
        self.counters.iter().map(|c| c.0.completed.load(Ordering::SeqCst)).sum()
    }

    /// Jobs submitted and not yet completed.  Completions are summed
    /// first: each one read brings its job's submission with it (counted
    /// before the enqueue the completion followed), so the difference is
    /// never negative and never 0 while a job is in flight.
    fn pending(&self) -> u64 {
        let completed = self.completed();
        let submitted: u64 =
            self.counters.iter().map(|c| c.0.submitted.load(Ordering::Relaxed)).sum();
        submitted - completed
    }

    fn should_exit(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) && self.pending() == 0
    }

    fn wake_every_worker(&self) {
        for worker in self.idle.drain() {
            self.parkers[worker].unpark();
        }
    }

    /// Wakes whoever should handle a task just seated on `target`'s queue:
    /// the target's own worker if it is parked, else — when nobody is
    /// already out stealing — the most recently parked worker to go steal.
    /// Call it *after* the enqueue: with nobody registered it is one fence
    /// and one load, and that is only safe in this order (ordering
    /// argument 1 of the module docs).
    fn notify(&self, target: usize) {
        fence(Ordering::SeqCst);
        if !self.idle.any_parked() {
            return;
        }
        if self.idle.pop_specific(target) {
            self.parkers[target].unpark();
            return;
        }
        if self.searching.0.load(Ordering::Acquire) == 0 {
            self.wake_a_thief();
        }
    }

    /// The undirected wake: the most recently parked worker.  Callers have
    /// found `searching == 0`.
    fn wake_a_thief(&self) {
        if let Some(worker) = self.idle.pop_any() {
            self.parkers[worker].unpark();
        }
    }

    /// The two wake edges a successful steal owes (edges 2 and 3 of the
    /// module docs' parking protocol), called by the thief once its
    /// `searching` count is down again.  A batch can leave *two* queues
    /// with more than their workers know of: the victim's, when the
    /// delivery handed losers back to its injector after its worker ran dry
    /// and parked, and the thief's own, which now holds `seated` tasks for
    /// one worker.  The first gets the directed wake a submission would,
    /// the second — from two tasks up — the one undirected wake a
    /// submission would, under the same `searching == 0` storm bound.  Like
    /// [`Shared::notify`] it runs *after* the stores it announces and costs
    /// one fence and one load while nobody is parked.
    fn notify_after_steal(&self, victim: usize, seated: usize) {
        fence(Ordering::SeqCst);
        if !self.idle.any_parked() {
            return;
        }
        if self.cores[victim].injected_len() > 0 && self.idle.pop_specific(victim) {
            self.parkers[victim].unpark();
        }
        if seated >= 2 && self.searching.0.load(Ordering::Acquire) == 0 {
            self.wake_a_thief();
        }
    }

    /// Seats `job` on a runqueue: slab, counter, placement, enqueue (own
    /// core) or injection (any other), wake.
    fn submit(&self, job: Job) -> TaskId {
        let nr_workers = self.cores.len();
        let local = self.local_worker();
        // A worker's own shard and cell; the shared last ones otherwise.
        let lane = local.unwrap_or(nr_workers);
        let id = self.jobs.insert(lane, job);
        let submitted = &self.counters[lane].0.submitted;
        let (prev, candidates) = match local {
            // A spawn from a worker continues that worker's task: its core
            // is the previous core.  It is also the only core whose load
            // this thread can read for free — a busy neighbour's lives on
            // lines that neighbour writes for every task, and reading them
            // costs both sides a coherence miss per submission.  So while
            // nobody is parked the policy is offered this core alone: the
            // child stays where its parent ran, and stealing evens out
            // what that leaves uneven.
            Some(me) => {
                bump_own(submitted);
                let alone = !self.idle.any_parked();
                (CoreId(me), if alone { me..me + 1 } else { 0..nr_workers })
            }
            // A submission from outside continues the last one: its
            // previous core is where that was placed, so a producer stays
            // with one worker while that worker keeps up and wakes another
            // only when the policy finds the first busy (nothing herds: a
            // busy `prev` loses to any idle core).  Every core is equally
            // foreign to an outside thread, so the policy sees them all.
            // Nobody else may be awake to move the clock; a worker's spawn
            // goes by the reading its worker took as it picked the running
            // task.
            None => {
                submitted.fetch_add(1, Ordering::Relaxed);
                self.advance_clock();
                (CoreId(self.outside_prev.0.load(Ordering::Relaxed)), 0..nr_workers)
            }
        };
        // Place the wakeup: the policy reads the same lock-less snapshots
        // the stealing side does, collected into this thread's reusable
        // buffer.
        let mut snapshots = SNAPSHOTS.take();
        snapshots.clear();
        snapshots.extend(self.cores[candidates].iter().map(|core| core.snapshot()));
        let target = self.policy.choice.place_wakeup(prev, &snapshots).unwrap_or(prev);
        SNAPSHOTS.set(snapshots);
        if local.is_none() && target != prev {
            self.outside_prev.0.store(target.0, Ordering::Relaxed);
        }
        if self.trace.is_enabled() {
            let now = self.now_ns();
            self.trace.record(target, now, &TraceEvent::TaskWake { task: id });
            self.trace.record(target, now, &TraceEvent::PlaceDecision { task: id, core: target });
        }
        // Only a worker's spawn onto its own core takes the owner path; any
        // other goes to the target's injector, so each ring's bottom, owner
        // mutex and queue length keep one writer, its worker.
        let task = RqTask::new(id);
        match local {
            Some(me) if me == target.0 => self.cores[me].enqueue(task),
            _ => self.cores[target.0].inject(task),
        }
        self.notify(target.0);
        id
    }

    /// Worker `me`'s own snapshot, or `None` when its own sources hold
    /// work: the seated task, the ring or the injector.
    fn dry_snapshot(&self, me: usize) -> Option<CoreSnapshot> {
        let rq = &self.cores[me];
        let own = rq.snapshot();
        (own.is_idle() && rq.injected_len() == 0).then_some(own)
    }

    /// The victim the policy would let `thief` steal from, if any:
    /// [`Policy::select`] — the one the model, the runqueues and the
    /// simulator run — over fresh lock-less snapshots, its candidates
    /// collected into this thread's reusable buffer (no allocation on the
    /// steal path).
    fn select_victim(&self, thief: &CoreSnapshot) -> Option<CoreSnapshot> {
        let mut candidates = SNAPSHOTS.take();
        let victim = self.policy.select(
            thief,
            self.cores.iter().map(|core| core.snapshot()),
            &mut candidates,
        );
        SNAPSHOTS.set(candidates);
        victim
    }

    /// One look for work by worker `me`: its own sources, then one
    /// three-step balancing operation.  A look that finds no victim records
    /// nothing; a steal from a chosen victim is counted and traced through
    /// the shared [`StealRecorder`] program point, which is what keeps
    /// `stats == fold(trace)` exact for this substrate too.
    fn look(&self, me: usize) -> Found {
        let Some(own) = self.dry_snapshot(me) else {
            return Found::Own;
        };
        let Some(victim) = self.select_victim(&own) else {
            return Found::Nothing;
        };
        let thief = CoreId(me);
        let recorder =
            StealRecorder::new(&self.stats, Some(self.topo.steal_level(thief, victim.id)))
                .with_trace(&self.trace, thief, &self.clock);
        match DequeRq::try_steal_recorded(
            &self.cores[me],
            &self.cores[victim.id.0],
            self.policy.filter.as_ref(),
            self.policy.steal.plan(&self.policy, &own, &victim, 1).count,
            Some(recorder),
        ) {
            StealOutcome::Stole { victim, tasks } => {
                Found::Stole { victim: victim.0, seated: tasks.len() }
            }
            _ => Found::Nothing,
        }
    }

    /// A dry worker's search (see "A dry worker searches before it parks"
    /// in the module docs): looks until one finds work, [`SEARCH_WINDOW`]
    /// has passed or shutdown has begun, yielding the CPU between looks.
    /// The worker counts in `searching` for the whole of it.  Returns what
    /// it found and whether the first look found it — work that was there
    /// when the search began.
    fn search(&self, me: usize) -> (Found, bool) {
        self.searching.0.fetch_add(1, Ordering::AcqRel);
        let began = Instant::now();
        let mut first = true;
        let found = loop {
            let found = self.look(me);
            if !matches!(found, Found::Nothing)
                || began.elapsed() >= SEARCH_WINDOW
                || self.shutdown.load(Ordering::Relaxed)
            {
                break found;
            }
            first = false;
            std::thread::yield_now();
        };
        self.searching.0.fetch_sub(1, Ordering::AcqRel);
        (found, first)
    }

    /// The re-check after registering as parked: work on `me`'s own queue,
    /// or on any queue the policy would let it steal from.
    fn has_work(&self, me: usize) -> bool {
        self.dry_snapshot(me).is_none_or(|own| self.select_victim(&own).is_some())
    }

    /// Runs one claimed task to completion on worker `me`.
    fn execute(&self, task: TaskId, me: usize) {
        let job = self.jobs.take(task);
        // Jobs are inserted before their id is enqueued, so a claimed id
        // always resolves; tolerate a miss anyway rather than poisoning
        // the worker.
        debug_assert!(job.is_some(), "task {task:?} has no job");
        let panicked = job.is_some_and(Run::run);
        // The one wall-clock read per task, taken only for a clock that
        // has a reader: it stamps this task's completion and is the
        // reading the next task's spawns go by.
        let now = self.advance_clock();
        if self.trace.is_enabled() {
            self.trace.record(CoreId(me), now, &TraceEvent::TaskDone { task });
        }
        let removed = self.cores[me].complete_current();
        debug_assert_eq!(removed.as_ref().map(|t| t.id), Some(task));

        let mine = &self.counters[me].0;
        if panicked {
            bump_own(&mine.panicked);
        }
        // Ordering argument 2 of the module docs: count, then look for a
        // waiter, all `SeqCst`.
        mine.completed.fetch_add(1, Ordering::SeqCst);
        let draining = self.draining.load(Ordering::SeqCst);
        let shutdown = self.shutdown.load(Ordering::SeqCst);
        if (draining || shutdown) && self.pending() == 0 {
            if draining {
                self.drainer.unpark();
            }
            if shutdown {
                // Last job out during shutdown: wake everyone so they
                // observe `should_exit` and leave.
                self.wake_every_worker();
            }
        }
    }

    /// The body of one worker thread.
    fn worker_loop(&self, me: usize) {
        WORKER.set(Some(WorkerTag { executor: self.id, index: me }));
        let rq = &self.cores[me];
        self.advance_clock();
        // Whether the last park ended on its backstop, with no wake edge
        // having reached this worker and its own queue empty.
        let mut by_backstop = false;
        loop {
            rq.refresh();
            // Run everything reachable from the own core: the seated task
            // (a wakeup may have claimed the idle core directly), then
            // ring and injector via `pick_next`.  Each task advances the
            // clock as it completes.
            while let Some(task) = rq.current_task().or_else(|| rq.pick_next()) {
                self.execute(task, me);
            }
            // Own sources empty: search.  Producers that find a searcher
            // trust it to find their work.
            let (found, at_first_look) = self.search(me);
            if let Found::Stole { victim, seated } = found {
                if by_backstop && at_first_look {
                    bump_own(&self.counters[me].0.backstop_steals);
                }
                self.notify_after_steal(victim, seated);
            }
            by_backstop = false;
            if !matches!(found, Found::Nothing) {
                continue;
            }
            if self.should_exit() {
                break;
            }
            // Register → re-check every queue → block.  A producer that
            // enqueued after the re-check sees the registration; one that
            // skipped its wake for a searcher is seen by the searcher's
            // re-check (ordering argument 1 of the module docs).
            self.idle.push(me);
            if self.has_work(me) || self.should_exit() {
                if !self.idle.remove(me) {
                    // A producer popped us concurrently and deposited a
                    // token; consume it so it cannot ghost-wake a later
                    // park.
                    self.parkers[me].park_timeout(Duration::ZERO);
                }
                continue;
            }
            self.trace.record(CoreId(me), self.now_ns(), &TraceEvent::Park);
            let by_token = self.parkers[me].park_timeout(PARK_BACKSTOP);
            // Work on the own queue of a worker that is still registered
            // and holds no token: whoever seated it is yet to pop this
            // worker — a matter of nanoseconds — or never will.
            let sat_on_work = !by_token && self.dry_snapshot(me).is_none();
            // Leave the stack whatever ended the park.  A token does not
            // prove a producer popped us: shutdown unparks every worker
            // without touching the stack, and a token can land after the
            // zero-length park that was meant to eat it.
            let registered = self.idle.remove(me);
            if !registered && !by_token {
                // Timed out, but a producer popped us in the window before
                // the deregistration — its token is deposited; eat it.
                self.parkers[me].park_timeout(Duration::ZERO);
            }
            if registered && sat_on_work {
                bump_own(&self.counters[me].0.backstop_rescues);
            }
            by_backstop = registered && !by_token && !sat_on_work;
            let now = self.advance_clock();
            self.trace.record(CoreId(me), now, &TraceEvent::Unpark);
        }
    }
}

/// What a dry worker's search turned up.
#[derive(Debug)]
enum Found {
    /// Work on its own sources: a wakeup seated it there.
    Own,
    /// A steal decision that moved `seated` tasks from `victim`'s queue.
    Stole { victim: usize, seated: usize },
    /// Nothing, for the whole window (or until shutdown began).
    Nothing,
}

/// Everything a finished run measured, returned by [`Executor::shutdown`].
#[derive(Debug)]
pub struct ExecReport {
    /// Jobs completed over the executor's lifetime, panicked ones included.
    pub completed: u64,
    /// Jobs whose closure panicked.  Each one still completed: its worker
    /// carried on, and the panic resumed in [`JoinHandle::join`] if the
    /// handle was kept.
    pub panicked: u64,
    /// The balancing counters of the run (steals, failures, migrations,
    /// per-level attribution); their `tally()` equals the drained trace's
    /// [`sched_trace::FoldedStats::from_trace`].
    pub stats: BalanceStats,
    /// Lost directed wakes, healed by the backstop: parks that ran into
    /// the 2 ms park backstop with the worker still registered — nobody had
    /// popped it — although work sat **on its own queue**.  Every path
    /// that seats work on a queue wakes that queue's worker if it sleeps
    /// (a submission, a thief handing losers back), so this stays at zero
    /// but for a timeout that lands in the nanoseconds between a seat and
    /// its wake.
    pub backstop_rescues: u64,
    /// Parks only the backstop ended, with the own queue empty, whose
    /// first look then moved tasks: another queue was overloaded and no
    /// wake had reached this worker for it.  (Work the search that follows
    /// finds later turned up while this worker was awake.)  Undirected wakes are
    /// bounded on purpose (one per submission or per seated batch, none
    /// while a thief is out searching), so this is not zero on a busy
    /// machine with more workers than it needs; it is how often the
    /// backstop, not an edge, ended a core's idling next to an overloaded
    /// one.
    pub backstop_steals: u64,
}

/// The work-stealing executor (see the module docs).
pub struct Executor {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// Builds the runqueues and spawns one worker thread per CPU of the
    /// configured topology.  Step 3 of the configured policy becomes
    /// [`StealRule::HalfImbalance`]: a decision claims half the imbalance
    /// it observed, whatever the policy named.
    pub fn start(config: ExecConfig) -> Self {
        let ExecConfig { topo, policy, ring_capacity, trace } = config;
        let policy = policy.with_steal(StealRule::HalfImbalance);
        let clock = Arc::new(AtomicU64::new(0));
        let clocked = trace.is_enabled() || policy.tracker.is_decayed();
        let cores: Vec<Padded<DequeRq>> = topo
            .cpus()
            .iter()
            .map(|c| {
                let mut rq = DequeRq::with_queue_capacity(
                    c.id,
                    c.node,
                    Arc::clone(&policy.tracker),
                    Arc::clone(&clock),
                    ring_capacity,
                );
                rq.attach_trace(trace.clone());
                Padded(rq)
            })
            .collect();
        let nr_workers = cores.len();
        let shared = Arc::new(Shared {
            id: NEXT_EXECUTOR.fetch_add(1, Ordering::Relaxed),
            cores,
            policy,
            topo,
            clock,
            clocked,
            start: Instant::now(),
            stats: BalanceStats::new(),
            trace,
            jobs: JobSlab::new(nr_workers + 1),
            counters: (0..=nr_workers).map(|_| Padded::default()).collect(),
            parkers: (0..nr_workers).map(|_| Parker::new()).collect(),
            idle: IdleStack::new(),
            searching: Padded::default(),
            outside_prev: Padded::default(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            drainer: Parker::new(),
            drain_gate: Mutex::new(()),
        });
        let workers = (0..nr_workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sched-exec-{me}"))
                    .spawn(move || shared.worker_loop(me))
                    .expect("spawning a worker thread")
            })
            .collect();
        Executor { shared, workers }
    }

    /// Number of worker threads (= CPUs of the configured topology).
    pub fn nr_workers(&self) -> usize {
        self.shared.cores.len()
    }

    /// The policy the workers run — the configured one with step 3 set to
    /// [`StealRule::HalfImbalance`], as its `describe()` shows.
    pub fn policy(&self) -> &Policy {
        &self.shared.policy
    }

    /// Submits a closure and returns a handle to its result.
    ///
    /// The closure becomes a task word on a real runqueue: it is placed by
    /// the policy's [`sched_core::ChoicePolicy::place_wakeup`], may be stolen between
    /// cores before it runs, and executes on whichever worker claims it.
    ///
    /// A closure that panics does not take its worker down: the job counts
    /// as completed (and in [`ExecReport::panicked`]) and the panic resumes
    /// in [`JoinHandle::join`].
    pub fn spawn<F, T>(&self, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let cell = Arc::new(JoinCell::new(f));
        self.shared.submit(Arc::clone(&cell) as Job);
        JoinHandle { cell }
    }

    /// Blocks until every submitted job has completed.  Open-loop runs
    /// call this after the generator finishes so that every request of the
    /// schedule, the backlog included, has written its latency.
    pub fn drain(&self) {
        let shared = &self.shared;
        let _one_drainer = shared.drain_gate.lock().expect("drain gate poisoned");
        // Ordering argument 2 of the module docs: flag, then sum; the
        // completer that brings the sum to zero wakes us.
        shared.draining.store(true, Ordering::SeqCst);
        while shared.pending() != 0 {
            shared.drainer.park_timeout(PARK_BACKSTOP);
        }
        shared.draining.store(false, Ordering::SeqCst);
    }

    /// Jobs completed so far.
    pub fn completed(&self) -> u64 {
        self.shared.completed()
    }

    /// The run's balancing counters (live; also returned by value in the
    /// final [`ExecReport`]).
    pub fn stats(&self) -> &BalanceStats {
        &self.shared.stats
    }

    /// Lock-less snapshots of every worker's runqueue, in id order.
    pub fn snapshots(&self) -> Vec<CoreSnapshot> {
        self.shared.cores.iter().map(|core| core.snapshot()).collect()
    }

    /// Waits for the queues to empty, stops and joins all workers (the
    /// [`Drop`] sequence), and returns what the run measured.
    pub fn shutdown(self) -> ExecReport {
        let shared = Arc::clone(&self.shared);
        drop(self);
        let stats = BalanceStats::new();
        stats.add(&shared.stats.tally());
        let sum = |counter: fn(&Counters) -> &AtomicU64| {
            shared.counters.iter().map(|c| counter(&c.0).load(Ordering::Relaxed)).sum()
        };
        ExecReport {
            completed: shared.completed(),
            panicked: sum(|c| &c.panicked),
            stats,
            backstop_rescues: sum(|c| &c.backstop_rescues),
            backstop_steals: sum(|c| &c.backstop_steals),
        }
    }
}

/// Dropping the executor is shutting it down without asking for the report:
/// every job submitted so far still runs, then the workers exit and are
/// joined.
impl Drop for Executor {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_every_worker();
        // Belt and braces: a worker may have been between the drain and
        // its own park registration.
        for parker in &self.shared.parkers {
            parker.unpark();
        }
        // A job that drops the last handle runs this on a worker, itself
        // still in flight: the workers cannot exit before it returns, so it
        // must not wait for them.  They leave on their own once it has.
        if self.shared.local_worker().is_some() {
            return;
        }
        for handle in self.workers.drain(..) {
            // A job's panic is caught where it runs; a worker's own is a bug
            // in this module and is passed on, except into another unwind.
            if let Err(panic) = handle.join() {
                if !std::thread::panicking() {
                    resume_unwind(panic);
                }
            }
        }
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers.len())
            .field("pending", &self.shared.pending())
            .field("completed", &self.shared.completed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::openloop::{drive, spin_for, OpenLoopSpec, ServiceMix};
    use sched_core::policy::{DeltaFilter, TopologyAwareChoice};
    use sched_core::LoadMetric;
    use sched_core::{ChoicePolicy, FilterPolicy};
    use sched_topology::TopologyBuilder;
    use sched_trace::sanity::{SanityChecker, SanityKind};
    use sched_trace::{FoldedStats, Trace};
    use std::collections::HashSet;
    use std::sync::mpsc;

    fn small_topo() -> Arc<MachineTopology> {
        Arc::new(TopologyBuilder::new().sockets(1).cores_per_socket(4).llcs_per_socket(1).build())
    }

    fn exec_policy(topo: &Arc<MachineTopology>) -> Policy {
        Policy::simple().with_choice(Box::new(TopologyAwareChoice::new(
            Arc::clone(topo),
            LoadMetric::NrThreads,
        )))
    }

    fn start(trace: TraceSink) -> Executor {
        let topo = small_topo();
        let policy = exec_policy(&topo);
        Executor::start(ExecConfig::new(topo, policy).with_trace(trace))
    }

    /// Shuts down an executor its jobs shared (to spawn from inside).
    fn shutdown_shared(exec: Arc<Executor>) -> ExecReport {
        Arc::into_inner(exec).expect("every job has dropped its executor").shutdown()
    }

    #[test]
    fn spawned_closures_run_and_join() {
        let exec = start(TraceSink::disabled());
        let handles: Vec<JoinHandle<u64>> = (0..64u64).map(|i| exec.spawn(move || i * 2)).collect();
        let sum: u64 = handles.into_iter().map(JoinHandle::join).sum();
        assert_eq!(sum, (0..64u64).map(|i| i * 2).sum());
        let report = exec.shutdown();
        assert_eq!(report.completed, 64);
    }

    #[test]
    fn the_workers_steal_half_whatever_step_3_the_policy_names() {
        let exec = start(TraceSink::disabled());
        assert_eq!(exec_policy(&small_topo()).steal, StealRule::One);
        assert_eq!(exec.policy().steal, StealRule::HalfImbalance);
        assert_eq!(exec.policy().describe(), "delta_filter/topology_aware/steal_half");
        exec.shutdown();
    }

    /// The order an open loop's median latency rests on, end to end:
    /// submissions from outside queue behind a running job in its worker's
    /// injector and run newest first once it completes.
    #[test]
    fn foreign_submissions_queue_behind_a_gated_job_and_run_newest_first() {
        let topo = Arc::new(TopologyBuilder::new().sockets(1).cores_per_socket(1).build());
        let exec = Executor::start(ExecConfig::new(topo, Policy::simple()));
        let (release, held) = mpsc::channel::<()>();
        let (running, gate_runs) = mpsc::channel::<()>();
        let gate = exec.spawn(move || {
            running.send(()).expect("the test waits for the gate");
            held.recv().expect("the test releases the gate")
        });
        gate_runs.recv().expect("the gate job starts");
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<JoinHandle<()>> = (0..4)
            .map(|i| {
                let order = Arc::clone(&order);
                exec.spawn(move || order.lock().expect("order poisoned").push(i))
            })
            .collect();
        assert_eq!(exec.shared.cores[0].injected_len(), 4, "they wait in the injector");
        release.send(()).expect("the gate job is waiting");
        gate.join();
        handles.into_iter().for_each(JoinHandle::join);
        assert_eq!(*order.lock().expect("order poisoned"), [3, 2, 1, 0]);
        exec.shutdown();
    }

    #[test]
    fn requests_measure_end_to_end_latency() {
        let exec = start(TraceSink::disabled());
        let spec = OpenLoopSpec {
            rate_hz: 4_000,
            duration_ms: 10,
            service: ServiceMix::Fixed { ns: 5_000 },
            seed: 5,
        };
        let driven = drive(&exec, spec);
        assert!(driven.submitted > 0);
        exec.drain();
        let latency = driven.latency_us();
        let report = exec.shutdown();
        assert_eq!(report.completed, driven.submitted);
        assert_eq!(latency.count(), driven.submitted);
        // 5 µs of service: every measured latency is at least that, minus
        // the µs-truncation of sub-microsecond parts.
        assert!(latency.min() >= Some(4));
    }

    #[test]
    fn an_open_loop_run_completes_its_schedule() {
        let exec = start(TraceSink::disabled());
        let spec = OpenLoopSpec {
            rate_hz: 4_000,
            duration_ms: 50,
            service: ServiceMix::Fixed { ns: 2_000 },
            seed: 7,
        };
        let driven = drive(&exec, spec);
        assert!(driven.submitted > 0);
        assert_eq!(driven.submitted, spec.arrivals().count() as u64);
        exec.drain();
        // Drained, the driver's histogram holds every request, and the
        // executor counted exactly those jobs.
        let latency = driven.latency_us();
        let summary = exec.shutdown();
        assert_eq!(latency.count(), driven.submitted);
        assert_eq!(summary.completed, driven.submitted);
    }

    /// Coordinated omission: a request's clock starts at its *scheduled*
    /// arrival.  The schedule packs its arrivals into one millisecond,
    /// which the submit loop cannot keep up with, so it runs ever later;
    /// the workers are held until the loop is done, so every completion
    /// follows `wall_ns` and each request — the last one, whose bound is
    /// the smallest, included — waited at least from its arrival until
    /// then.  A stamp taken at submission would hide the generator's lag:
    /// the requests run first after the release were submitted last and
    /// would read as having waited next to nothing.
    #[test]
    fn a_request_is_timed_from_its_scheduled_arrival_not_from_its_submission() {
        let exec = start(TraceSink::disabled());
        let held = Arc::new(std::sync::Barrier::new(exec.nr_workers() + 1));
        let gates: Vec<JoinHandle<()>> = (0..exec.nr_workers())
            .map(|_| {
                let held = Arc::clone(&held);
                exec.spawn(move || {
                    held.wait();
                    held.wait();
                })
            })
            .collect();
        held.wait();
        let spec = OpenLoopSpec {
            rate_hz: 10_000_000,
            duration_ms: 1,
            service: ServiceMix::Fixed { ns: 0 },
            seed: 13,
        };
        let driven = drive(&exec, spec);
        held.wait();
        gates.into_iter().for_each(JoinHandle::join);
        exec.drain();

        let last = spec.arrivals().last().expect("the schedule is not empty");
        let lag_ns = driven.wall_ns - last.at_ns;
        assert!(
            lag_ns > 1_000_000,
            "the loop must fall behind for the lag to show: {} requests in {} ns",
            driven.submitted,
            driven.wall_ns
        );
        let latency = driven.latency_us();
        assert_eq!(latency.count(), driven.submitted);
        assert!(
            latency.min() >= Some(lag_ns / 1_000),
            "a request read {:?} us although the generator ran {} us late",
            latency.min(),
            lag_ns / 1_000
        );
        exec.shutdown();
    }

    /// Every steal decision the workers make is recorded through the same
    /// `StealRecorder` program point the counters move through, so folding
    /// the drained trace reproduces the stats exactly — on real OS threads,
    /// not a simulator.
    fn assert_stats_equal_folded_trace(report: &ExecReport, trace: &Trace) {
        assert_eq!(trace.dropped, 0, "size the rings so the parity check sees everything");
        assert_eq!(report.stats.tally(), FoldedStats::from_trace(trace));
    }

    #[test]
    fn stats_equal_folded_trace() {
        // The executor parity leg, on an open loop whose steals move a task
        // or two…
        let sink = TraceSink::with_capacity(4, 1 << 16);
        let exec = start(sink.clone());
        let spec = OpenLoopSpec {
            rate_hz: 3_000,
            duration_ms: 60,
            service: ServiceMix::Exp { mean_ns: 4_000 },
            seed: 11,
        };
        drive(&exec, spec);
        exec.drain();
        let report = exec.shutdown();
        assert_stats_equal_folded_trace(&report, &sink.drain());

        // …and on pinned bursts, where they move batches: every burst is
        // queued up before anybody touches it and overflows core 0's ring,
        // so the thief claims from the ring and from the injector; and it
        // dawdles over each claim while the victim runs its closures, so
        // what it observed is stale when it claims and some of it goes back.
        // Batches, trims and injector claims all pass the one program point
        // (`check` compares the counters, the per-level counts and the
        // injector population with the trace).
        let shape = PinnedBursts {
            workers: 2,
            bursts: 6,
            burst: 1500,
            service_ns: 3_000,
            held: true,
            dawdling: true,
        };
        let run = shape.run();
        run.check();
        let seen =
            |wanted: fn(&TraceEvent) -> bool| run.trace.events.iter().any(|e| wanted(&e.event));
        assert!(seen(|e| matches!(e, TraceEvent::BatchTrim { .. })), "no delivery was trimmed");
        assert!(
            seen(|e| matches!(e, TraceEvent::InjectorDrain { .. })),
            "nothing left an injector"
        );
        assert!(run.batch_size() > 4.0, "the batches were batches: {:?}", run.report.stats);
    }

    /// Spawns `n` empty closures and joins them all.
    fn run_empty_closures(exec: &Executor, n: usize) {
        let handles: Vec<JoinHandle<()>> = (0..n).map(|_| exec.spawn(|| {})).collect();
        handles.into_iter().for_each(JoinHandle::join);
    }

    /// The logical clock has two readers, a trace sink and a decayed
    /// tracker.  Without either nobody moves it: it reads 0 after a
    /// thousand tasks.
    #[test]
    fn an_untraced_instantaneous_executor_leaves_the_clock_at_0() {
        let exec = start(TraceSink::disabled());
        assert!(!exec.policy().tracker.is_decayed());
        run_empty_closures(&exec, 1000);
        assert_eq!(exec.shared.clock.load(Ordering::Acquire), 0);
        assert_eq!(exec.shutdown().completed, 1000);
    }

    #[test]
    fn a_traced_executor_advances_the_clock() {
        let exec = start(TraceSink::with_capacity(4, 1 << 12));
        run_empty_closures(&exec, 100);
        assert!(exec.shared.clock.load(Ordering::Acquire) > 0);
        exec.shutdown();
    }

    /// A decayed tracker folds at the clock's readings, so an untraced
    /// executor under one still moves the clock — and a core that went
    /// idle sees its tracked load decay, folded by its worker's ticks.
    #[test]
    fn a_decayed_tracker_advances_the_clock_and_an_idle_core_decays() {
        let topo = small_topo();
        let exec = Executor::start(ExecConfig::new(topo, Policy::pelt(1_000_000)));
        // Hold every worker, so the next tasks wait and raise some core's
        // tracked load, folded when they are seated.
        let held = Arc::new(std::sync::Barrier::new(exec.nr_workers() + 1));
        let gates: Vec<JoinHandle<()>> = (0..exec.nr_workers())
            .map(|_| {
                let held = Arc::clone(&held);
                exec.spawn(move || {
                    held.wait();
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(5));
        let waiting: Vec<JoinHandle<()>> = (0..8).map(|_| exec.spawn(|| {})).collect();
        let tracked = |exec: &Executor| exec.snapshots().iter().map(|s| s.tracked_scaled).max();
        assert!(tracked(&exec) > Some(0), "waiting tasks raised no tracked load");
        held.wait();
        gates.into_iter().chain(waiting).for_each(JoinHandle::join);
        exec.drain();
        assert!(exec.shared.clock.load(Ordering::Acquire) > 0);
        // Idle, each worker folds on its backstop's tick; a 1 ms half-life
        // takes any load to 0 within a few dozen of those.
        let deadline = Instant::now() + Duration::from_secs(10);
        while tracked(&exec) != Some(0) {
            assert!(Instant::now() < deadline, "tracked loads stuck at {:?}", exec.snapshots());
            std::thread::sleep(Duration::from_millis(2));
        }
        exec.shutdown();
    }

    #[test]
    fn an_idle_executor_shuts_down_promptly() {
        let exec = start(TraceSink::disabled());
        std::thread::sleep(Duration::from_millis(10));
        let report = exec.shutdown();
        assert_eq!(report.completed, 0);
    }

    /// Dropping is shutting down: running and queued closures all run, each
    /// once, and every worker thread is gone when `drop` returns (the
    /// workers hold the last references to `Shared`).
    #[test]
    fn dropping_the_executor_runs_what_was_submitted_and_joins_the_workers() {
        let exec = start(TraceSink::disabled());
        let shared = Arc::downgrade(&exec.shared);
        let runs: Arc<Vec<AtomicU64>> = Arc::new((0..200).map(|_| AtomicU64::new(0)).collect());
        let started = Arc::new(std::sync::Barrier::new(exec.nr_workers() + 1));
        for i in 0..runs.len() {
            let (runs, started) = (Arc::clone(&runs), Arc::clone(&started));
            drop(exec.spawn(move || {
                // The first four hold every worker until the rest is queued.
                if i < 4 {
                    started.wait();
                }
                spin_for(20_000);
                runs[i].fetch_add(1, Ordering::Relaxed);
            }));
        }
        started.wait();
        drop(exec);
        assert!(shared.upgrade().is_none(), "a worker thread outlived the drop");
        assert!(runs.iter().all(|n| n.load(Ordering::Relaxed) == 1), "{runs:?}");
    }

    /// A job may hold the last handle.  Dropping it there cannot wait for
    /// the workers — they wait for the job — but they still finish what is
    /// queued and leave.
    #[test]
    fn the_last_handle_may_be_dropped_by_a_job() {
        let exec = Arc::new(start(TraceSink::disabled()));
        let shared = Arc::downgrade(&exec.shared);
        let ran = Arc::new(AtomicU64::new(0));
        let (handed_over, last_handle) = mpsc::channel::<Arc<Executor>>();
        drop(exec.spawn(move || drop(last_handle.recv().expect("the test sends its handle"))));
        for _ in 0..50 {
            let ran = Arc::clone(&ran);
            drop(exec.spawn(move || ran.fetch_add(1, Ordering::Relaxed)));
        }
        handed_over.send(exec).expect("the job is waiting for the handle");
        let deadline = Instant::now() + Duration::from_secs(60);
        while shared.upgrade().is_some() {
            assert!(Instant::now() < deadline, "the workers never left");
            std::thread::yield_now();
        }
        assert_eq!(ran.load(Ordering::Relaxed), 50);
    }

    // ---- the job slab ----

    /// A job whose handle nobody keeps.
    fn job(f: impl FnOnce() + Send + 'static) -> Job {
        Arc::new(JoinCell::new(f))
    }

    /// A job that leaves `tag` in `ran` when it runs.
    fn tagged(tag: u64, ran: &Arc<AtomicU64>) -> Job {
        let ran = Arc::clone(ran);
        job(move || ran.store(tag, Ordering::Relaxed))
    }

    #[test]
    fn slab_ids_resolve_exactly_once_and_stay_unique_across_slot_reuse() {
        let slab = JobSlab::new(3);
        let ran = Arc::new(AtomicU64::new(u64::MAX));
        let mut seen = HashSet::new();
        for round in 0..50u64 {
            // Two in flight per shard, vacated every round: the free list
            // hands the same two slots out again with a new generation.
            let ids: Vec<TaskId> =
                (0..6).map(|i| slab.insert(i % 3, tagged(round * 6 + i as u64, &ran))).collect();
            for (i, id) in ids.iter().enumerate() {
                assert!(seen.insert(id.0), "id {id:?} handed out twice");
                assert!(id.0 < ID_LIMIT);
                assert_eq!(id.0 % 3, i as u64 % 3, "the shard rides in the id");
                let job = slab.take(*id).unwrap_or_else(|| panic!("id {id:?} did not resolve"));
                assert!(!job.run(), "the job did not panic");
                assert_eq!(
                    ran.load(Ordering::Relaxed),
                    round * 6 + i as u64,
                    "an id resolves to its own job"
                );
                assert!(slab.take(*id).is_none(), "an id resolves once");
            }
        }
        for shard in &slab.shards {
            assert_eq!(shard.free.lock().unwrap().grown, 2, "slots were recycled, not grown");
        }
        assert!(
            slab.take(TaskId(ID_LIMIT - 1)).is_none(),
            "an id never handed out resolves to nothing"
        );
    }

    #[test]
    fn a_slot_with_its_generations_spent_is_retired_and_ids_stay_below_the_limit() {
        let mut slab = JobSlab::new(5);
        // The largest id the layout can produce: last generation, last
        // slot, last shard.
        let largest = ((slab.generations - 1) << SLOT_BITS | ((1 << SLOT_BITS) - 1)) * 5 + 4;
        assert!(largest < ID_LIMIT);
        assert!(slab.generations > 1 << 20, "retirement is not an everyday event");

        slab.generations = 3;
        let slot_of = |id: TaskId| (id.0 / 5) & ((1 << SLOT_BITS) - 1);
        let generation_of = |id: TaskId| (id.0 / 5) >> SLOT_BITS;
        for generation in 0..3 {
            let id = slab.insert(1, job(|| ()));
            assert_eq!((slot_of(id), generation_of(id)), (0, generation));
            assert!(slab.take(id).is_some());
        }
        let id = slab.insert(1, job(|| ()));
        assert_eq!((slot_of(id), generation_of(id)), (1, 0), "slot 0 is out of generations");
    }

    /// Takers on other threads resolve ids while the submitter grows the
    /// shard across segment boundaries and recycles what they vacate: each
    /// burst is inserted while the takers still work through the last one.
    /// Every id resolves once, to its own job, and a slot whose generations
    /// are spent is never handed out again.
    #[test]
    fn takers_resolve_ids_while_the_submitter_grows_the_shard_across_segments() {
        let mut slab = JobSlab::new(2);
        slab.generations = 3;
        let slab = slab;
        let bursts = [50, 200, 700, 2500, 3000, 3000];
        let total: usize = bursts.iter().sum();
        let ran: Arc<Vec<AtomicU64>> = Arc::new((0..total).map(|_| AtomicU64::new(0)).collect());
        let mut caught_up = 0;
        let ids = std::thread::scope(|scope| {
            let takers: Vec<mpsc::Sender<Vec<TaskId>>> = (0..2)
                .map(|_| {
                    let (ids, burst) = mpsc::channel::<Vec<TaskId>>();
                    let slab = &slab;
                    scope.spawn(move || {
                        for id in burst.into_iter().flatten() {
                            let job =
                                slab.take(id).unwrap_or_else(|| panic!("{id:?} did not resolve"));
                            assert!(!job.run(), "the job did not panic");
                            assert!(slab.take(id).is_none(), "an id resolves once");
                        }
                    });
                    ids
                })
                .collect();
            let grown = || slab.shards[1].free.lock().unwrap().grown as usize;
            let mut all = Vec::with_capacity(total);
            for (n, burst) in bursts.into_iter().enumerate() {
                if n == 4 {
                    // Let the takers catch up once, so that the next burst
                    // finds every slot vacated but the retired ones.
                    while ran.iter().map(|n| n.load(Ordering::Relaxed)).sum::<u64>()
                        < all.len() as u64
                    {
                        std::thread::yield_now();
                    }
                    caught_up = grown();
                }
                if n == 5 {
                    assert!(
                        grown() < caught_up + bursts[4],
                        "the burst after the catch-up reused vacated slots"
                    );
                }
                let ids: Vec<TaskId> = (all.len()..all.len() + burst)
                    .map(|i| {
                        let ran = Arc::clone(&ran);
                        slab.insert(
                            1,
                            job(move || {
                                ran[i].fetch_add(1, Ordering::Relaxed);
                            }),
                        )
                    })
                    .collect();
                all.extend_from_slice(&ids);
                let (left, right) = ids.split_at(ids.len() / 2);
                takers[0].send(left.to_vec()).expect("taker 0 is running");
                takers[1].send(right.to_vec()).expect("taker 1 is running");
            }
            all
        });
        assert!(
            ran.iter().all(|n| n.load(Ordering::Relaxed) == 1),
            "a job did not run exactly once"
        );
        let grown = slab.shards[1].free.lock().unwrap().grown as usize;
        // Five segments hold 64 + 128 + 256 + 512 + 1024 slots.
        assert!(
            grown > 1984,
            "{grown} slots: the 2500 burst grew the shard past its fifth segment"
        );
        let mut seen = HashSet::new();
        let mut per_slot: std::collections::HashMap<u64, Vec<u64>> = Default::default();
        for id in &ids {
            assert!(seen.insert(id.0), "id {id:?} handed out twice");
            assert_eq!(id.0 % 2, 1, "the shard rides in the id");
            let word = id.0 / 2;
            let (generation, slot) = (word >> SLOT_BITS, word & ((1 << SLOT_BITS) - 1));
            assert!(generation < slab.generations, "{id:?} uses a retired generation");
            per_slot.entry(slot).or_default().push(generation);
        }
        assert_eq!(per_slot.len(), grown, "every slot the shard grew was handed out");
        for (slot, generations) in per_slot {
            let in_order: Vec<u64> = (0..generations.len() as u64).collect();
            assert_eq!(generations, in_order, "slot {slot} skipped or repeated a generation");
        }
    }

    /// Satellite (a): submitters inside and outside the executor race the
    /// workers over the slab while waves of drains force every slot to be
    /// reused.  Read back from the trace alone: every id was handed out
    /// once, fits the runqueue word, completed once, and the sanity
    /// checker's task conservation is clean.
    fn slab_conserves_tasks(submitters: usize, waves: usize, per_wave: usize, children: usize) {
        let sink = TraceSink::with_capacity(4, 1 << 16);
        let exec = Arc::new(start(sink.clone()));
        for _ in 0..waves {
            std::thread::scope(|scope| {
                for _ in 0..submitters {
                    scope.spawn(|| {
                        for _ in 0..per_wave {
                            let inner = Arc::clone(&exec);
                            drop(exec.spawn(move || {
                                for _ in 0..children {
                                    drop(inner.spawn(|| ()));
                                }
                            }));
                        }
                    });
                }
            });
            exec.drain();
        }
        let total = (submitters * waves * per_wave * (1 + children)) as u64;
        let report = shutdown_shared(exec);
        assert_eq!(report.completed, total);

        let trace = sink.drain();
        assert_eq!(trace.dropped, 0);
        let ids_of = |wanted: fn(&TraceEvent) -> Option<TaskId>| -> Vec<u64> {
            trace.events.iter().filter_map(|e| wanted(&e.event)).map(|id| id.0).collect()
        };
        let woken = ids_of(|e| match e {
            TraceEvent::TaskWake { task } => Some(*task),
            _ => None,
        });
        let done = ids_of(|e| match e {
            TraceEvent::TaskDone { task } => Some(*task),
            _ => None,
        });
        let unique: HashSet<u64> = woken.iter().copied().collect();
        assert_eq!(woken.len() as u64, total);
        assert_eq!(unique.len(), woken.len(), "an id was handed out twice");
        assert!(unique.iter().all(|&id| id < ID_LIMIT));
        assert_eq!(done.len(), woken.len());
        assert_eq!(done.into_iter().collect::<HashSet<u64>>(), unique, "each id completed once");
        if waves > 1 {
            assert!(
                unique.iter().any(|&id| (id / 5) >> SLOT_BITS > 0),
                "later waves must have reused the slots the earlier ones vacated"
            );
        }
        // Conservation only: racing placements can land on a thief between
        // its steal decision and the migration's record, which the checker
        // reads as an inversion — optimism at work, not a lost task.
        let lost_or_duplicated: Vec<_> = SanityChecker::check_trace(&trace, false, Some(&[0; 4]))
            .into_iter()
            .filter(|v| matches!(v.kind, SanityKind::TaskLost | SanityKind::TaskDuplicated))
            .collect();
        assert!(lost_or_duplicated.is_empty(), "{lost_or_duplicated:?}");
    }

    mod properties {
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn the_slab_conserves_tasks_under_concurrent_submit_and_execute(
                submitters in 1usize..4,
                waves in 2usize..5,
                per_wave in 1usize..24,
                children in 0usize..3,
            ) {
                super::slab_conserves_tasks(submitters, waves, per_wave, children);
            }
        }
    }

    // ---- counters, drain, panics ----

    /// Satellite (b): while one job is held in flight, submitters inside
    /// and outside the executor churn the counters and a monitor sums them
    /// the whole time.  The held job alone makes the true value at least
    /// one; a sum that read `submitted` before `completed` would pair old
    /// submissions with new completions and dip to zero or wrap below it.
    fn pending_never_reads_zero_with_a_job_in_flight(externals: usize, jobs: usize) {
        let exec = Arc::new(start(TraceSink::disabled()));
        let total = (externals * jobs * 3) as u64 + 1;
        let (release, held) = mpsc::channel::<()>();
        let gate = exec.spawn(move || held.recv().expect("the test releases the gate"));
        let churning = AtomicBool::new(true);
        let reads = std::thread::scope(|scope| {
            let monitor = scope.spawn(|| {
                let mut reads = 0u64;
                while churning.load(Ordering::Acquire) {
                    let pending = exec.shared.pending();
                    assert!((1..=total).contains(&pending), "read {reads} saw {pending} in flight");
                    reads += 1;
                }
                reads
            });
            let submitters: Vec<_> = (0..externals)
                .map(|_| {
                    scope.spawn(|| {
                        for _ in 0..jobs {
                            let inner = Arc::clone(&exec);
                            // One submission from outside, two from its
                            // worker; joined, so that few jobs are in
                            // flight and a wrong sum has nowhere to hide.
                            let parent = exec.spawn(move || {
                                drop(inner.spawn(|| ()));
                                drop(inner.spawn(|| ()));
                            });
                            parent.join();
                        }
                    })
                })
                .collect();
            for submitter in submitters {
                submitter.join().expect("submitter panicked");
            }
            churning.store(false, Ordering::Release);
            monitor.join().expect("the monitor found a zero")
        });
        assert!(reads > 0);
        release.send(()).expect("the gate job is waiting");
        gate.join();
        exec.drain();
        assert_eq!(exec.shared.pending(), 0);
        let report = shutdown_shared(exec);
        assert_eq!(report.completed, total);
    }

    #[test]
    fn the_pending_sum_keeps_a_held_job_visible() {
        pending_never_reads_zero_with_a_job_in_flight(2, 200);
    }

    #[test]
    fn a_panicking_job_completes_and_resumes_in_its_joiner() {
        let exec = start(TraceSink::disabled());
        let handles: Vec<JoinHandle<u64>> = (0..1000u64)
            .map(|i| {
                exec.spawn(move || {
                    assert_ne!(i, 417, "job 417 panics on purpose");
                    i
                })
            })
            .collect();
        exec.drain();
        let mut sum = 0;
        for (i, handle) in handles.into_iter().enumerate() {
            if i == 417 {
                let payload = catch_unwind(AssertUnwindSafe(|| handle.join()))
                    .expect_err("the job's panic resumes in join");
                let message = payload.downcast_ref::<String>().expect("a formatted panic message");
                assert!(message.contains("job 417 panics on purpose"), "{message}");
            } else {
                sum += handle.join();
            }
        }
        assert_eq!(sum, (0..1000u64).sum::<u64>() - 417);
        let report = exec.shutdown();
        assert_eq!(report.completed, 1000);
        assert_eq!(report.panicked, 1);
    }

    #[test]
    fn concurrent_drains_all_return() {
        let exec = start(TraceSink::disabled());
        for _ in 0..64 {
            drop(exec.spawn(|| spin_for(20_000)));
        }
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| exec.drain());
            }
        });
        assert_eq!(exec.completed(), 64);
        exec.shutdown();
    }

    #[test]
    fn a_token_nobody_popped_for_does_not_register_a_worker_twice() {
        let exec = start(TraceSink::disabled());
        let all_parked = || {
            while exec.shared.idle.len() < exec.nr_workers() {
                std::thread::yield_now();
            }
        };
        for _ in 0..20 {
            // Tokens without a pop — what shutdown's unpark-everyone does,
            // and what a token that missed its zero-length park looks like.
            // Each worker wakes still registered, finds nothing and parks
            // again; it must have left the stack in between.
            all_parked();
            for parker in &exec.shared.parkers {
                parker.unpark();
            }
        }
        all_parked();
        assert_eq!(exec.spawn(|| 7).join(), 7);
        exec.shutdown();
    }

    // ---- satellite (c): who pays for a completion's wake ----

    #[test]
    fn a_dropped_handle_gets_no_store_and_no_wake() {
        let cell = Arc::new(JoinCell::new(|| 7));
        drop(JoinHandle::<i32> { cell: Arc::clone(&cell) as Arc<dyn Outcome<i32>> });
        assert!(!cell.complete(Ok(7)));
        assert!(cell.state.lock().unwrap().result.is_none(), "nobody can read it: not stored");
    }

    #[test]
    fn a_joiner_that_has_not_arrived_gets_the_result_without_a_wake() {
        let cell = Arc::new(JoinCell::new(|| 7));
        let handle = JoinHandle::<i32> { cell: Arc::clone(&cell) as Arc<dyn Outcome<i32>> };
        assert!(!cell.state.lock().unwrap().waiting);
        assert!(!cell.complete(Ok(7)), "no registered waiter, no condvar wake");
        assert!(cell.state.lock().unwrap().result.is_some(), "the result is stored");
        assert_eq!(handle.join(), 7, "the late joiner finds the result and never blocks");
    }

    #[test]
    fn a_waiting_joiner_is_woken() {
        let cell = Arc::new(JoinCell::new(|| 7));
        let handle = JoinHandle::<i32> { cell: Arc::clone(&cell) as Arc<dyn Outcome<i32>> };
        let joiner = std::thread::spawn(move || handle.join());
        // `waiting` is set under the lock the wait releases, so once it
        // reads true the joiner is blocked (or about to find the result).
        while !cell.state.lock().unwrap().waiting {
            std::thread::yield_now();
        }
        assert!(cell.complete(Ok(7)), "a registered waiter takes the wake");
        assert_eq!(joiner.join().expect("joiner panicked"), 7);
    }

    // ---- satellite (d): the previous core of a spawn ----

    /// One `place_wakeup` call as the policy saw it.
    #[derive(Debug)]
    struct Placement {
        prev: CoreId,
        offered: Vec<CoreId>,
        chosen: CoreId,
    }

    /// Delegates to `TopologyAwareChoice` and writes down every placement
    /// the executor asks for.
    struct RecordingChoice {
        inner: TopologyAwareChoice,
        calls: Arc<Mutex<Vec<Placement>>>,
    }

    impl ChoicePolicy for RecordingChoice {
        fn choose(&self, thief: &CoreSnapshot, candidates: &[CoreSnapshot]) -> Option<CoreId> {
            self.inner.choose(thief, candidates)
        }

        fn place_wakeup(&self, prev: CoreId, candidates: &[CoreSnapshot]) -> Option<CoreId> {
            let chosen = self.inner.place_wakeup(prev, candidates);
            self.calls.lock().unwrap().push(Placement {
                prev,
                offered: candidates.iter().map(|c| c.id).collect(),
                chosen: chosen.unwrap_or(prev),
            });
            chosen
        }

        fn name(&self) -> &'static str {
            "recording"
        }
    }

    #[test]
    fn a_spawn_from_a_worker_passes_its_core_as_prev_and_an_outside_one_the_last_outside_placement()
    {
        let topo = small_topo();
        let calls = Arc::new(Mutex::new(Vec::new()));
        let policy = Policy::simple().with_choice(Box::new(RecordingChoice {
            inner: TopologyAwareChoice::new(Arc::clone(&topo), LoadMetric::NrThreads),
            calls: Arc::clone(&calls),
        }));
        let exec = Arc::new(Executor::start(ExecConfig::new(topo, policy)));
        let take_calls = || std::mem::take(&mut *calls.lock().unwrap());
        let everyone = [0, 1, 2, 3].map(CoreId);

        // From outside: each spawn continues on the core the last one was
        // placed on, and none lands on a core that a running job holds.
        let (started, running_on) = mpsc::channel::<usize>();
        let (release, held) = mpsc::channel::<()>();
        let gate = exec.spawn(move || {
            let me = WORKER.get().expect("jobs run on worker threads").index;
            started.send(me).expect("the test waits for the gate job");
            held.recv().expect("the test releases the gate");
        });
        let held_core = CoreId(running_on.recv().expect("the gate job starts"));
        for _ in 0..6 {
            exec.spawn(|| ()).join();
        }
        release.send(()).expect("the gate job is waiting");
        gate.join();
        let outside = take_calls();
        assert_eq!(outside.len(), 7);
        assert_eq!(outside[0].prev, CoreId(0), "the first outside spawn starts at core 0");
        assert_eq!(outside[0].chosen, CoreId(0), "and stays there: every core is idle");
        for pair in outside.windows(2) {
            assert_eq!(pair[1].prev, pair[0].chosen, "an outside spawn continues the last one");
            assert_eq!(pair[1].offered, everyone, "an outside spawn offers every core");
            assert_ne!(pair[1].chosen, held_core, "the gate job holds its core");
        }
        let mut last_outside = outside[6].chosen;

        for _ in 0..16 {
            let inner = Arc::clone(&exec);
            let (me, child) = exec
                .spawn(move || {
                    // Spawn once the other three workers are parked.
                    while inner.shared.idle.len() < 3 {
                        std::thread::yield_now();
                    }
                    let me = WORKER.get().expect("jobs run on worker threads").index;
                    (me, inner.spawn(|| ()))
                })
                .join();
            child.join();
            let seen = take_calls();
            assert_eq!(seen.len(), 2, "the outside spawn, then the worker's");
            assert_eq!(
                seen[0].prev, last_outside,
                "a worker's spawn leaves the outside hint alone"
            );
            assert_eq!(seen[1].prev, CoreId(me), "a worker's spawn continues on its own core");
            assert_eq!(seen[0].offered, everyone, "an outside spawn offers every core");
            assert_eq!(seen[1].offered, everyone, "so does a worker's while others are parked");
            last_outside = seen[0].chosen;
        }

        // Four jobs that meet at a barrier hold all four workers until each
        // has spawned, so nobody is parked when they do: each offers its
        // own core and nothing else.
        let meet = Arc::new(std::sync::Barrier::new(4));
        let parents: Vec<_> = (0..4)
            .map(|_| {
                let (inner, meet) = (Arc::clone(&exec), Arc::clone(&meet));
                exec.spawn(move || {
                    meet.wait();
                    let me = WORKER.get().expect("jobs run on worker threads").index;
                    let child = inner.spawn(|| ());
                    meet.wait();
                    (me, child)
                })
            })
            .collect();
        let mut held: Vec<usize> = parents
            .into_iter()
            .map(|parent| {
                let (me, child) = parent.join();
                child.join();
                me
            })
            .collect();
        held.sort_unstable();
        assert_eq!(held, [0, 1, 2, 3], "the barrier needed every worker");
        let placed = take_calls();
        let mut alone: Vec<CoreId> = placed
            .iter()
            .filter(|call| call.offered.len() == 1)
            .map(|call| call.offered[0])
            .collect();
        alone.sort_unstable_by_key(|core| core.0);
        assert_eq!(alone, everyone, "each worker's spawn offered exactly its own core");
        let last_outside = placed
            .iter()
            .rfind(|call| call.offered.len() == 4)
            .expect("the four parents came from outside")
            .chosen;

        // A worker of *another* executor is an outside thread to this one.
        let other = Arc::new(start(TraceSink::disabled()));
        let inner = Arc::clone(&exec);
        other.spawn(move || inner.spawn(|| ()).join()).join();
        let foreign = take_calls();
        assert_eq!(foreign.len(), 1);
        assert_eq!(foreign[0].prev, last_outside, "it continues the outside spawns before it");
        shutdown_shared(other);
        exec.drain();
        shutdown_shared(exec);
    }

    // ---- batched steals and their wake edges ----

    /// `TopologyAwareChoice` for stealing, but every wakeup placed on core
    /// 0 — the paper's overloaded core: the other workers get work only by
    /// stealing it.
    struct PinnedToCore0(TopologyAwareChoice);

    impl ChoicePolicy for PinnedToCore0 {
        fn choose(&self, thief: &CoreSnapshot, candidates: &[CoreSnapshot]) -> Option<CoreId> {
            self.0.choose(thief, candidates)
        }

        fn place_wakeup(&self, _prev: CoreId, _candidates: &[CoreSnapshot]) -> Option<CoreId> {
            Some(CoreId(0))
        }

        fn name(&self) -> &'static str {
            "pinned-to-core-0"
        }
    }

    /// Closures a pinned-burst run has submitted and completed, and the
    /// completion count a dawdling thief waits for (0 while none waits).
    #[derive(Default)]
    struct Progress {
        submitted: AtomicU64,
        completed: AtomicU64,
        awaited: AtomicU64,
    }

    impl Progress {
        /// Counts one completed closure.  A completion at or past the count
        /// a dawdling thief waits for holds its worker until the thief has
        /// left the filter, so the thief claims from a queue that has moved
        /// on since its observation but has not run dry.
        fn complete(&self) {
            let done = self.completed.fetch_add(1, Ordering::SeqCst) + 1;
            while (1..=done).contains(&self.awaited.load(Ordering::SeqCst)) {
                std::thread::yield_now();
            }
        }
    }

    /// Listing 1's filter behind a switch — while it is closed nobody steals
    /// — and, asked to, a thief's bad luck: the filter runs between a
    /// thief's reading of the counters and its claim, and a dawdling one
    /// sits on every approval until four more closures have completed, or
    /// every submitted one has if fewer are left.  What the thief observed
    /// is stale by the time it claims, on any box and in any build.
    ///
    /// The wait is a handshake, not a timeout.  Only a thief of core 0
    /// dawdles: every closure is placed there, so with two workers, and the
    /// thief dry when it looks, every closure not yet completed is core 0's
    /// worker's to run, and it runs them however long the OS keeps either
    /// thread off a CPU; and it holds still at the awaited completion
    /// ([`Progress::complete`]) until the thief is back from the filter,
    /// however long the thief was away.  (Core 0's worker asking about
    /// core 1 must not dawdle: losers trimmed back into its own injector
    /// would be closures only it runs.)  Closing the switch ends the wait
    /// and refuses the steal.
    struct GatedFilter {
        open: Arc<AtomicBool>,
        dawdle_over: Option<Arc<Progress>>,
        inner: DeltaFilter,
    }

    impl FilterPolicy for GatedFilter {
        fn can_steal(&self, thief: &CoreSnapshot, victim: &CoreSnapshot) -> bool {
            if !self.open.load(Ordering::Acquire) || !self.inner.can_steal(thief, victim) {
                return false;
            }
            let Some(progress) = self.dawdle_over.as_ref().filter(|_| victim.id == CoreId(0))
            else {
                return true;
            };
            let owed = (progress.completed.load(Ordering::SeqCst) + 4)
                .min(progress.submitted.load(Ordering::SeqCst));
            if progress
                .awaited
                .compare_exchange(0, owed, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                return true; // another thief is dawdling
            }
            while progress.completed.load(Ordering::SeqCst) < owed
                && self.open.load(Ordering::Acquire)
            {
                std::thread::yield_now();
            }
            progress.awaited.store(0, Ordering::SeqCst);
            self.open.load(Ordering::Acquire)
        }

        fn name(&self) -> &'static str {
            "gated"
        }
    }

    /// An executor of `workers` whose every submission lands on core 0.
    fn start_pinned(
        workers: usize,
        ring: usize,
        trace: TraceSink,
        open: Arc<AtomicBool>,
        dawdle_over: Option<Arc<Progress>>,
    ) -> Executor {
        let topo = Arc::new(TopologyBuilder::new().sockets(1).cores_per_socket(workers).build());
        let mut policy = Policy::simple().with_choice(Box::new(PinnedToCore0(
            TopologyAwareChoice::new(Arc::clone(&topo), LoadMetric::NrThreads),
        )));
        policy.filter = Box::new(GatedFilter { open, dawdle_over, inner: DeltaFilter::listing1() });
        Executor::start(ExecConfig::new(topo, policy).with_ring_capacity(ring).with_trace(trace))
    }

    /// Spins until `workers` of `exec`'s workers are registered as parked.
    fn wait_until_parked(exec: &Executor, workers: usize) {
        while exec.shared.idle.len() < workers {
            std::thread::yield_now();
        }
    }

    /// A closed loop of bursts, all of them placed on core 0 and joined
    /// before the next one starts: thieves empty core 0's queue in batches
    /// while its worker runs on.
    #[derive(Debug, Clone, Copy)]
    struct PinnedBursts {
        workers: usize,
        bursts: usize,
        burst: usize,
        service_ns: u64,
        /// Queue each burst up before anybody runs or steals it: core 0's
        /// worker is held and stealing is closed while all but the last
        /// closure are submitted, so the other workers are parked when the
        /// last submission wakes one of them, to a full queue.
        held: bool,
        /// Thieves dawdle between observing and claiming (see
        /// [`GatedFilter`]).
        dawdling: bool,
    }

    /// What one [`PinnedBursts`] run left behind.
    struct PinnedRun {
        shape: PinnedBursts,
        report: ExecReport,
        trace: Trace,
        /// The trace clock as each burst started, then `u64::MAX`.
        started: Vec<u64>,
    }

    impl PinnedBursts {
        fn tasks(&self) -> u64 {
            (self.bursts * self.burst) as u64
        }

        fn run(self) -> PinnedRun {
            // Wake, placement, overflow, injector exit, migration, done: a
            // task leaves at most six events on one ring.
            let sink = TraceSink::with_capacity(
                self.workers,
                (8 * self.tasks() as usize).next_power_of_two().max(1 << 12),
            );
            let open = Arc::new(AtomicBool::new(true));
            let progress = Arc::new(Progress::default());
            let exec = Arc::new(start_pinned(
                self.workers,
                1024,
                sink.clone(),
                Arc::clone(&open),
                self.dawdling.then(|| Arc::clone(&progress)),
            ));
            let ran: Arc<Vec<AtomicU64>> =
                Arc::new((0..self.burst).map(|_| AtomicU64::new(0)).collect());
            let submit = {
                let (exec, ran) = (Arc::downgrade(&exec), Arc::clone(&ran));
                move |i: usize| {
                    let (ran, progress) = (Arc::clone(&ran), Arc::clone(&progress));
                    progress.submitted.fetch_add(1, Ordering::SeqCst);
                    exec.upgrade().expect("the run holds its executor").spawn(move || {
                        if self.service_ns > 0 {
                            spin_for(self.service_ns);
                        }
                        ran[i].fetch_add(1, Ordering::Relaxed);
                        progress.complete();
                    })
                }
            };
            // The bursts' start stamps are clock readings: the traced run
            // keeps the clock moving.
            assert!(exec.shared.clocked, "an untraced run's clock stands at 0");
            let mut started = Vec::new();
            for _ in 0..self.bursts {
                exec.drain();
                started.push(exec.shared.advance_clock());
                if !self.held {
                    let handles: Vec<JoinHandle<()>> = (0..self.burst).map(&submit).collect();
                    handles.into_iter().for_each(JoinHandle::join);
                    continue;
                }
                open.store(false, Ordering::Release);
                // The job that holds core 0's worker also ends the hold, on
                // that worker: it opens the filter, makes the last
                // submission — the one that wakes a thief — and returns
                // into the queue.  Nothing then waits for this thread,
                // which the woken thief may well have pushed off its CPU.
                let (release, held) = mpsc::channel::<()>();
                let gate = exec.spawn({
                    let (open, submit) = (Arc::clone(&open), submit.clone());
                    move || {
                        held.recv().expect("the run releases the gate");
                        open.store(true, Ordering::Release);
                        submit(0)
                    }
                });
                let handles: Vec<JoinHandle<()>> = (1..self.burst).map(&submit).collect();
                // Whoever a submission woke was refused and went back to
                // sleep.
                wait_until_parked(&exec, self.workers - 1);
                release.send(()).expect("the gate job is waiting");
                gate.join().join();
                handles.into_iter().for_each(JoinHandle::join);
            }
            started.push(u64::MAX);
            drop(submit);
            let report = shutdown_shared(exec);
            let bursts = self.bursts as u64;
            assert!(
                ran.iter().all(|n| n.load(Ordering::Relaxed) == bursts),
                "a closure did not run exactly once per burst: {ran:?}"
            );
            PinnedRun { shape: self, report, trace: sink.drain(), started }
        }
    }

    impl PinnedRun {
        /// What holds of every pinned-burst run, read from its report and
        /// its trace.
        fn check(&self) {
            let (trace, workers) = (&self.trace, self.shape.workers);
            let gates = if self.shape.held { self.shape.bursts as u64 } else { 0 };
            assert_eq!(self.report.completed, self.shape.tasks() + gates);
            assert_stats_equal_folded_trace(&self.report, trace);
            assert_eq!(self.report.backstop_rescues, 0, "a worker slept on its own work");

            // Every injector's population, from the trace alone: what
            // overflowed into it or was trimmed back into it left it again.
            for core in 0..workers {
                let resident: i64 = trace
                    .for_core(CoreId(core))
                    .map(|e| match e.event {
                        TraceEvent::InjectorPush { .. } => 1,
                        TraceEvent::BatchTrim { returned } => returned as i64,
                        TraceEvent::InjectorDrain { moved } => -(moved as i64),
                        _ => 0,
                    })
                    .sum();
                assert_eq!(resident, 0, "core {core}'s injector, as the trace tells it");
            }

            // Conservation only, for the reason `slab_conserves_tasks` gives.
            let lost_or_duplicated: Vec<_> =
                SanityChecker::check_trace(trace, false, Some(&vec![0; workers]))
                    .into_iter()
                    .filter(|v| matches!(v.kind, SanityKind::TaskLost | SanityKind::TaskDuplicated))
                    .collect();
            assert!(lost_or_duplicated.is_empty(), "{lost_or_duplicated:?}");

            // The hole batches open (wake edge 2): a thief holds the words
            // it claimed, their owner runs dry and parks, and the losers
            // come back to the sleeper's injector.  Whoever trimmed them
            // back wakes it, so its `Unpark` follows well inside the
            // backstop — on a loaded box now and then late, but by the
            // backstop it would be late every other time.
            let mut lags = Vec::new();
            for core in 0..workers {
                let (mut parked, mut trimmed_at) = (false, None);
                for e in trace.for_core(CoreId(core)) {
                    match e.event {
                        TraceEvent::Park => parked = true,
                        TraceEvent::BatchTrim { .. } if parked => {
                            trimmed_at.get_or_insert(e.ts);
                        }
                        TraceEvent::Unpark => {
                            parked = false;
                            lags.extend(trimmed_at.take().map(|at| e.ts.saturating_sub(at)));
                        }
                        _ => {}
                    }
                }
                assert_eq!(trimmed_at, None, "core {core} slept on with losers in its injector");
            }
            let late = lags.iter().filter(|&&lag| u128::from(lag) * 2 >= PARK_BACKSTOP.as_nanos());
            assert!(late.count() <= 1 + lags.len() / 4, "sleeping victims woke late: {lags:?} ns");
        }

        /// Tasks moved per successful steal decision.
        fn batch_size(&self) -> f64 {
            self.report.stats.migrations() as f64 / self.report.stats.successes().max(1) as f64
        }
    }

    /// Satellite 1, as the benchmark's warm-up meets it: bursts of 250
    /// empty closures on core 0, run as they arrive.  A thief that trims
    /// losers back to a victim gone to sleep must wake it (`check` reads
    /// that off the trace and the rescue counter).
    #[test]
    fn a_trimmed_loser_parked_in_a_sleeping_victims_injector_runs_without_the_backstop() {
        let shape = PinnedBursts {
            workers: 4,
            bursts: 40,
            burst: 250,
            service_ns: 0,
            held: false,
            dawdling: false,
        };
        shape.run().check();
    }

    /// The same hole, built by hand so that it opens every round: core 0's
    /// worker is asleep, and words arrive on its queue and in its injector
    /// that no submission announced — what a trimmed batch leaves behind.
    /// The thief's directed wake must start the sleeper; without it every
    /// round ends on the backstop.
    #[test]
    fn a_thief_that_hands_losers_back_wakes_the_sleeping_victim() {
        let rounds = 40;
        let exec =
            start_pinned(2, 1, TraceSink::disabled(), Arc::new(AtomicBool::new(false)), None);
        let shared = &exec.shared;
        let ran = Arc::new(AtomicU64::new(0));
        for _ in 0..rounds {
            wait_until_parked(&exec, 2);
            // One word runs, one waits in the ring, one in the injector.
            for _ in 0..3 {
                let ran = Arc::clone(&ran);
                let id = shared.jobs.insert(
                    2,
                    job(move || {
                        ran.fetch_add(1, Ordering::Relaxed);
                    }),
                );
                shared.counters[2].0.submitted.fetch_add(1, Ordering::Relaxed);
                shared.cores[0].enqueue(RqTask::new(id));
            }
            assert_eq!(shared.cores[0].injected_len(), 1);
            shared.notify_after_steal(0, 1);
            exec.drain();
        }
        let report = exec.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 3 * rounds);
        // The sleeper's backstop may fire just before the wake does.
        assert!(
            report.backstop_rescues <= 2,
            "{} of {rounds} rounds ended on the backstop",
            report.backstop_rescues
        );
    }

    /// Satellite 3, wake edge 3: 2048 × 20 µs closures queue on core 0
    /// with the other three workers parked.  The thief the last submission
    /// wakes seats a thousand tasks on its own queue and no submission
    /// follows: it has to wake the next thief itself, and that one the
    /// third.
    #[test]
    fn a_thief_that_seats_a_batch_wakes_the_next_thief() {
        let shape = PinnedBursts {
            workers: 4,
            bursts: 8,
            burst: 2048,
            service_ns: 20_000,
            held: true,
            dawdling: false,
        };
        let run = shape.run();
        run.check();
        let (trace, rounds) = (&run.trace, shape.bursts as u64);

        // From the trace: once the first task has migrated, every core runs
        // tasks within one backstop (one round may have a hiccup) — where
        // every thread has a CPU.  With fewer, the operating system decides
        // when a woken worker runs, and takes its time.
        let on_time = run
            .started
            .windows(2)
            .filter(|round| {
                let mut events =
                    trace.events.iter().filter(|e| (round[0]..round[1]).contains(&e.ts)).peekable();
                while events.next_if(|e| !matches!(e.event, TraceEvent::Migration { .. })).is_some()
                {
                }
                let first_migration = events.peek().expect("every round migrates tasks").ts;
                let mut first_done = [None; 4];
                for e in events {
                    if matches!(e.event, TraceEvent::TaskDone { .. }) {
                        first_done[e.core.0].get_or_insert(e.ts);
                    }
                }
                // The merge keeps each core's record order, so a completion
                // stamped just before the migration can follow it.
                first_done.iter().all(|done| {
                    done.is_some_and(|at| {
                        u128::from(at.saturating_sub(first_migration)) <= PARK_BACKSTOP.as_nanos()
                    })
                })
            })
            .count() as u64;
        if std::thread::available_parallelism().is_ok_and(|cpus| cpus.get() > shape.workers) {
            assert!(
                on_time + 1 >= rounds,
                "four cores ran within the backstop in {on_time} rounds"
            );
        }

        // Without the thief's wake the second and the third thief of every
        // round come by their backstops — two such parks a round.  With it
        // there is what a busy box leaves: a worker with a queue that is
        // off its CPU for a backstop's time gets robbed by a sleeper.
        let by_backstop = run.report.backstop_steals;
        assert!(
            4 * by_backstop <= 5 * rounds,
            "{by_backstop} parks in {rounds} rounds ended on the backstop with work to steal"
        );

        // And the paper's invariant, as the checker reads it off the trace:
        // no core idles next to an overloaded one for longer than that.
        for window in SanityChecker::check_trace(trace, false, Some(&[0; 4]))
            .iter()
            .filter(|v| v.kind == SanityKind::IdleWhileOverloaded)
        {
            let lasted = trace.events[window.last_event].ts - trace.events[window.first_event].ts;
            assert!(u128::from(lasted) <= PARK_BACKSTOP.as_nanos(), "{window}");
        }
    }

    /// The producer of tiny jobs must not pay for a thief's every visit.
    /// Core 0's worker is held and nobody may steal, so every wake of
    /// another worker is futile.  A woken worker searches before it parks
    /// again, and submissions make no undirected wake while anyone
    /// searches, so the producer pays for a wake in at most one submission
    /// of four — read off the trace's `Unpark`s on the three thieves, their
    /// backstops included.  Without the search a futile visit is one look,
    /// and the producer pays for a wake every second or third submission.
    #[test]
    fn a_worker_whose_undirected_wake_found_nothing_sits_the_next_ones_out() {
        let submissions = 3000;
        let open = Arc::new(AtomicBool::new(false));
        let sink = TraceSink::with_capacity(4, 1 << 14);
        let exec = start_pinned(4, 4096, sink.clone(), Arc::clone(&open), None);
        wait_until_parked(&exec, 4);
        let (release, held) = mpsc::channel::<()>();
        let (running, gate_runs) = mpsc::channel::<()>();
        let gate = exec.spawn(move || {
            running.send(()).expect("the test waits for the gate");
            held.recv().expect("the test releases the gate")
        });
        gate_runs.recv().expect("the gate job starts");
        let from = exec.shared.advance_clock();
        let handles: Vec<JoinHandle<()>> = (0..submissions).map(|_| exec.spawn(|| ())).collect();
        // Whoever is up on a visit finishes it.
        wait_until_parked(&exec, 3);
        let to = exec.shared.advance_clock();
        open.store(true, Ordering::Release);
        release.send(()).expect("the gate job is waiting");
        gate.join();
        handles.into_iter().for_each(JoinHandle::join);
        exec.shutdown();

        let trace = sink.drain();
        assert_eq!(trace.dropped, 0);
        let wakes = trace
            .events
            .iter()
            .filter(|e| e.core != CoreId(0) && e.event == TraceEvent::Unpark)
            .filter(|e| (from..=to).contains(&e.ts))
            .count();
        assert!(wakes >= 1, "the first submission onto the busy core wakes a thief");
        assert!(
            4 * wakes <= submissions,
            "{wakes} futile wakes in {submissions} submissions onto a busy core"
        );
    }

    mod batches {
        use proptest::prelude::*;

        proptest! {
            /// Whatever the burst, the service time and the machine: each
            /// closure runs once, the counters are the trace's, and a steal
            /// moves a batch — fewer than one acquisition per four migrated
            /// tasks.
            #[test]
            fn pinned_bursts_run_every_closure_once_and_move_them_in_batches(
                workers in 2usize..5,
                burst in 512usize..1024,
                service_us in 5u64..40,
            ) {
                let shape = super::PinnedBursts {
                    workers,
                    bursts: 2,
                    burst,
                    service_ns: service_us * 1_000,
                    held: true,
                    dawdling: false,
                };
                let run = shape.run();
                run.check();
                prop_assert!(run.batch_size() > 4.0, "{:?}", run.report.stats);
            }
        }
    }

    // ---- stress legs (CI `exec-stress` job; `--ignored`) ----

    /// Park/unpark race hammer: repeated idle → burst → drain cycles drive
    /// every worker through the register/re-check/park edge while
    /// submissions race the registrations.  A lost wakeup shows up as a
    /// drain that takes the park backstop instead of the token path —
    /// or, if the protocol is truly broken, as a hang.
    #[test]
    #[ignore]
    fn park_unpark_races_never_strand_work() {
        let exec = start(TraceSink::disabled());
        for round in 0..200 {
            // Let everyone park.
            std::thread::sleep(Duration::from_millis(1));
            let handles: Vec<JoinHandle<usize>> = (0..16).map(|i| exec.spawn(move || i)).collect();
            let sum: usize = handles.into_iter().map(JoinHandle::join).sum();
            assert_eq!(sum, (0..16).sum::<usize>(), "round {round} lost a job");
        }
        exec.drain();
        let report = exec.shutdown();
        assert_eq!(report.completed, 200 * 16);
        assert_eq!(report.backstop_rescues, 0, "a worker slept on its own work");
    }

    /// Concurrent submitters race the parking protocol from multiple
    /// threads at once (the single-producer case above cannot exercise
    /// producer/producer interleavings of the idle stack).
    #[test]
    #[ignore]
    fn concurrent_submitters_race_the_idle_stack() {
        let exec = Arc::new(start(TraceSink::disabled()));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let exec = Arc::clone(&exec);
                scope.spawn(move || {
                    for _ in 0..500 {
                        drop(exec.spawn(|| spin_for(1_000)));
                        std::thread::sleep(Duration::from_micros(50));
                    }
                });
            }
        });
        exec.drain();
        let report = Arc::into_inner(exec).expect("all submitters joined").shutdown();
        assert_eq!(report.completed, 4 * 500);
    }

    /// A short open-loop soak at a saturating rate: the executor must
    /// neither lose requests nor deadlock when the offered load exceeds
    /// the machine.
    #[test]
    #[ignore]
    fn open_loop_soak_survives_saturation() {
        let exec = start(TraceSink::disabled());
        let spec = OpenLoopSpec {
            rate_hz: 20_000,
            duration_ms: 500,
            service: ServiceMix::Bimodal { short_ns: 2_000, long_ns: 50_000, long_pct: 5 },
            seed: 3,
        };
        let driven = drive(&exec, spec);
        exec.drain();
        let latency = driven.latency_us();
        let summary = exec.shutdown();
        assert_eq!(summary.completed, driven.submitted);
        assert_eq!(latency.count(), driven.submitted);
        // A timeout can land in the nanoseconds between a seat and its wake.
        assert!(
            summary.backstop_rescues * 10_000 <= driven.submitted,
            "{} workers slept on their own work",
            summary.backstop_rescues
        );
    }

    /// The pinned-burst hammer: both of a batch's wake edges, at strength.
    /// Empty closures as they arrive (thieves trim losers back to a victim
    /// that runs dry under them), then queued-up bursts of real work (each
    /// thief seats a batch and has to wake the next), over and over, each
    /// run checked from its trace.  A run that fails leaves its timeline in
    /// `target/exec-stress/`, where CI's failure leg picks it up.
    #[test]
    #[ignore]
    fn pinned_bursts_hammer_both_wake_edges() {
        let as_they_arrive = PinnedBursts {
            workers: 4,
            bursts: 80,
            burst: 250,
            service_ns: 0,
            held: false,
            dawdling: false,
        };
        let queued_up = PinnedBursts {
            bursts: 8,
            burst: 2048,
            service_ns: 5_000,
            held: true,
            ..as_they_arrive
        };
        let trimmed = PinnedBursts { workers: 2, burst: 1500, dawdling: true, ..queued_up };
        for round in 0..30 {
            for shape in [as_they_arrive, queued_up, trimmed] {
                let run = shape.run();
                if let Err(failure) = catch_unwind(AssertUnwindSafe(|| run.check())) {
                    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                        .join("../../target/exec-stress");
                    std::fs::create_dir_all(&dir).expect("creating target/exec-stress");
                    let file = dir.join("pinned-bursts.trace.json");
                    std::fs::write(&file, sched_trace::to_chrome_json(&run.trace))
                        .expect("writing the failed run's trace");
                    eprintln!("round {round}, {shape:?}: trace exported to {}", file.display());
                    resume_unwind(failure);
                }
            }
        }
    }

    /// Satellite (b), at strength: more submitters, for longer.
    #[test]
    #[ignore]
    fn the_pending_sum_never_reads_zero_under_a_long_hammer() {
        pending_never_reads_zero_with_a_job_in_flight(3, 20_000);
    }
}

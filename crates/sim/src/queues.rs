//! Per-core runqueues as seen by the simulator.
//!
//! [`CoreQueues`] is the only writer of a core's `current` and `ready` (a
//! core is handed out by shared reference only), so its dense count array
//! stays equal to every core's [`SimCore::nr_threads`].  Beside the counts
//! it keeps, for every count, the set of cores holding it as a bitmap, a
//! lower bound of the least count held and an upper bound of the highest.
//! Wakeup placement ([`CoreQueues::idlest`]) reads the first core of the
//! least count's set, ⌈cores / 64⌉ words, instead of scanning every core's
//! count twice; an indexed balancing round reads the first core of the
//! highest count's set ([`CoreQueues::busiest`]) instead of calling the
//! filter on every pair of cores.
//!
//! The two moves the machine makes most keep a core's count, so they touch
//! neither the counts nor the sets: a preemption is one
//! [`CoreQueues::rotate`] (the running thread to the tail, the head to
//! current) and an election one [`CoreQueues::promote`] (the head to
//! current).

use std::cell::Cell;
use std::collections::VecDeque;

use sched_core::tracker::{LoadTracker, TrackedLoad};
use sched_core::{CoreId, CoreSnapshot, LoadMetric};
use sched_topology::{MachineTopology, NodeId};

use crate::thread::{SimThread, SimThreadId};

/// One simulated core: the running thread plus a FIFO runqueue of waiting
/// thread ids.
#[derive(Debug, Clone)]
pub struct SimCore {
    /// Identity of the core.
    pub id: CoreId,
    /// NUMA node of the core.
    pub node: NodeId,
    /// The thread currently running, if any (written through
    /// [`CoreQueues::set_current`]).
    pub current: Option<SimThreadId>,
    /// Threads waiting to run, oldest first.
    pub ready: VecDeque<SimThreadId>,
    /// The tracker-maintained load average, updated by the engine on every
    /// run/sleep/wakeup event.
    pub tracked: TrackedLoad,
}

impl SimCore {
    /// Number of threads on the core (running plus waiting).
    pub fn nr_threads(&self) -> u64 {
        self.ready.len() as u64 + u64::from(self.current.is_some())
    }

    /// Returns `true` if the core has no work.
    pub fn is_idle(&self) -> bool {
        self.current.is_none() && self.ready.is_empty()
    }

    /// Returns `true` if the core has two or more threads.
    pub fn is_overloaded(&self) -> bool {
        self.nr_threads() >= 2
    }
}

/// The runqueues of every simulated core.
#[derive(Debug, Clone)]
pub struct CoreQueues {
    cores: Vec<SimCore>,
    /// `nr_threads()` of every core, kept by every mutation.
    counts: Vec<u32>,
    /// For each count `n`, the bitmap of the cores holding `n` threads:
    /// `words` words from `n * words`.  Grows with the largest count held.
    by_count: Vec<u64>,
    /// Words per bitmap in `by_count`: ⌈cores / 64⌉.
    words: usize,
    /// A lower bound of the least count any core holds, raised to it by
    /// [`CoreQueues::idlest`].
    least: Cell<u32>,
    /// An upper bound of the highest count any core holds, lowered to it
    /// by [`CoreQueues::busiest`].
    most: Cell<u32>,
    /// When enabled, records every core whose runqueue a mutation touched.
    /// The event engine wraps `balance_round` in it so only cores the
    /// scheduler actually moved work between need settling afterwards.
    mutation_log: Option<Vec<CoreId>>,
}

impl CoreQueues {
    /// Creates `nr_cores` idle cores on node 0.
    pub fn new(nr_cores: usize) -> Self {
        Self::idle((0..nr_cores).map(|i| (CoreId(i), NodeId(0))))
    }

    /// Creates one idle core per CPU of `topo`, with matching nodes.
    pub fn with_topology(topo: &MachineTopology) -> Self {
        Self::idle(topo.cpus().iter().map(|c| (c.id, c.node)))
    }

    fn idle(cores: impl Iterator<Item = (CoreId, NodeId)>) -> Self {
        let cores: Vec<SimCore> = cores
            .map(|(id, node)| SimCore {
                id,
                node,
                current: None,
                ready: VecDeque::new(),
                tracked: TrackedLoad::default(),
            })
            .collect();
        let nr_cores = cores.len();
        let words = nr_cores.div_ceil(64);
        // Every core holds 0 threads.
        let mut by_count = vec![0u64; words];
        for core in 0..nr_cores {
            by_count[core / 64] |= 1 << (core % 64);
        }
        CoreQueues {
            cores,
            counts: vec![0; nr_cores],
            by_count,
            words,
            least: Cell::new(0),
            most: Cell::new(0),
            mutation_log: None,
        }
    }

    /// The bitmap of the cores holding `count` threads.
    fn holding(&self, count: u32) -> &[u64] {
        &self.by_count[count as usize * self.words..][..self.words]
    }

    /// Moves `core` from its count to `count` in `counts` and `by_count`,
    /// lowers `least` to `count` if it is below and raises `most` to it if
    /// it is above.
    fn recount(&mut self, core: usize, count: u32) {
        let from = std::mem::replace(&mut self.counts[core], count);
        let (word, bit) = (core / 64, 1u64 << (core % 64));
        self.by_count[from as usize * self.words + word] &= !bit;
        let at = count as usize * self.words + word;
        if at >= self.by_count.len() {
            self.by_count.resize((count as usize + 1) * self.words, 0);
        }
        self.by_count[at] |= bit;
        self.least.set(self.least.get().min(count));
        self.most.set(self.most.get().max(count));
    }

    /// Starts recording the cores mutated by subsequent queue operations.
    pub fn enable_mutation_log(&mut self) {
        self.mutation_log = Some(Vec::new());
    }

    /// Stops recording and returns the mutated cores, deduplicated, in id
    /// order.
    pub fn drain_mutation_log(&mut self) -> Vec<CoreId> {
        let mut log = self.mutation_log.take().unwrap_or_default();
        log.sort_unstable_by_key(|c| c.0);
        log.dedup();
        log
    }

    fn log_mutation(&mut self, core: CoreId) {
        if let Some(log) = &mut self.mutation_log {
            log.push(core);
        }
    }

    /// Number of cores.
    pub fn nr_cores(&self) -> usize {
        self.cores.len()
    }

    /// Immutable access to one core.
    pub fn core(&self, id: CoreId) -> &SimCore {
        &self.cores[id.0]
    }

    /// Puts `tid` on `core` as its running thread, or clears it.
    pub fn set_current(&mut self, core: CoreId, tid: Option<SimThreadId>) {
        let current = &mut self.cores[core.0].current;
        let count = self.counts[core.0] + u32::from(tid.is_some()) - u32::from(current.is_some());
        *current = tid;
        self.recount(core.0, count);
    }

    /// All cores in id order.
    pub fn cores(&self) -> &[SimCore] {
        &self.cores
    }

    /// The least loaded core, the lowest id among equals: the first idle
    /// core when there is one.
    ///
    /// Reads the set of the cores at the least count, raising the kept
    /// bound past counts no core holds any more: O(1) amortised, as every
    /// step up was an earlier mutation's step.
    ///
    /// # Panics
    ///
    /// Panics if there are no cores.
    pub fn idlest(&self) -> CoreId {
        assert!(!self.cores.is_empty(), "a machine has cores");
        loop {
            let least = self.least.get();
            if let Some((word, bits)) =
                self.holding(least).iter().enumerate().find(|(_, &bits)| bits != 0)
            {
                return self.cores[word * 64 + bits.trailing_zeros() as usize].id;
            }
            self.least.set(least + 1);
        }
    }

    /// The most loaded core, the lowest id among equals, and its thread
    /// count.
    ///
    /// Reads the set of the cores at the highest count, lowering the kept
    /// bound past counts no core holds any more: O(1) amortised, as for
    /// [`CoreQueues::idlest`].
    ///
    /// # Panics
    ///
    /// Panics if there are no cores.
    pub fn busiest(&self) -> (CoreId, u64) {
        assert!(!self.cores.is_empty(), "a machine has cores");
        loop {
            let most = self.most.get();
            if let Some((word, bits)) =
                self.holding(most).iter().enumerate().find(|(_, &bits)| bits != 0)
            {
                return (self.cores[word * 64 + bits.trailing_zeros() as usize].id, most.into());
            }
            self.most.set(most - 1);
        }
    }

    /// Per-core thread counts.
    pub fn loads(&self) -> Vec<u64> {
        self.cores.iter().map(SimCore::nr_threads).collect()
    }

    /// Returns `true` if any core is overloaded.
    pub fn any_overloaded(&self) -> bool {
        self.cores.iter().any(SimCore::is_overloaded)
    }

    /// Returns `true` if no core is idle while another is overloaded
    /// ([`sched_core::is_work_conserving`]).
    pub fn is_work_conserving(&self) -> bool {
        sched_core::is_work_conserving(self.cores.iter().map(SimCore::nr_threads))
    }

    /// Appends `tid` to `core`'s runqueue (it does not start running; the
    /// engine elects runnable threads explicitly).
    pub fn enqueue(&mut self, core: CoreId, tid: SimThreadId) {
        self.cores[core.0].ready.push_back(tid);
        self.recount(core.0, self.counts[core.0] + 1);
        self.log_mutation(core);
    }

    /// Preempts `core`: its running thread goes to the tail of its
    /// runqueue and the oldest waiting thread becomes current, which is
    /// returned.  The count does not change.  `None`, and nothing moves,
    /// unless a thread runs and another waits.
    pub fn rotate(&mut self, core: CoreId) -> Option<SimThreadId> {
        let c = &mut self.cores[core.0];
        let running = c.current?;
        let next = c.ready.pop_front()?;
        c.ready.push_back(running);
        c.current = Some(next);
        self.log_mutation(core);
        Some(next)
    }

    /// Elects on an idle `core`: its oldest waiting thread becomes current,
    /// and is returned.  The count does not change.  `None`, and nothing
    /// moves, if a thread runs already or none waits.
    pub fn promote(&mut self, core: CoreId) -> Option<SimThreadId> {
        let c = &mut self.cores[core.0];
        if c.current.is_some() {
            return None;
        }
        let next = c.ready.pop_front()?;
        c.current = Some(next);
        self.log_mutation(core);
        Some(next)
    }

    /// Steals the most recently queued waiting thread of `from` and appends
    /// it to `to`'s runqueue, returning its id.
    pub fn migrate_newest(&mut self, from: CoreId, to: CoreId) -> Option<SimThreadId> {
        let newest = self.cores[from.0].ready.len().checked_sub(1)?;
        let tid = self.cores[from.0].ready[newest];
        self.migrate_picks(from, to, &[newest]);
        Some(tid)
    }

    /// Moves the waiting threads of `from` at `picks` to the tail of `to`'s
    /// runqueue, in the order given, in one pass over `from`'s runqueue from
    /// the oldest pick on — so taking the newest threads costs nothing per
    /// thread left behind.  `picks` are distinct positions in `from`'s
    /// runqueue (oldest first) as it was before the first move.
    pub fn migrate_picks(&mut self, from: CoreId, to: CoreId, picks: &[usize]) {
        assert_ne!(from, to, "a core cannot steal from itself");
        if picks.is_empty() {
            return;
        }
        for &i in picks {
            let tid = self.cores[from.0].ready[i];
            self.cores[to.0].ready.push_back(tid);
        }
        let mut gone = picks.to_vec();
        gone.sort_unstable();
        // Close the gaps from the oldest pick on; nothing before it moves.
        let ready = &mut self.cores[from.0].ready;
        let oldest = gone[0];
        let (mut gone, mut kept) = (gone.into_iter().peekable(), oldest);
        for position in oldest..ready.len() {
            if gone.next_if_eq(&position).is_none() {
                ready[kept] = ready[position];
                kept += 1;
            }
        }
        ready.truncate(kept);
        let taken = picks.len() as u32;
        self.recount(from.0, self.counts[from.0] - taken);
        self.recount(to.0, self.counts[to.0] + taken);
        self.log_mutation(from);
        self.log_mutation(to);
    }

    /// Weighted load of one core, with weights taken from the thread table.
    pub fn weighted_load(&self, core: CoreId, threads: &[SimThread]) -> u64 {
        let core = &self.cores[core.0];
        let cur = core.current.map_or(0, |tid| threads[tid.0].weight().raw());
        cur + core.ready.iter().map(|&tid| threads[tid.0].weight().raw()).sum::<u64>()
    }

    /// One core's instantaneous load under `base`, a tracker's
    /// [`LoadTracker::base`].
    fn instantaneous(&self, core: CoreId, base: LoadMetric, threads: &[SimThread]) -> u64 {
        match base {
            LoadMetric::Weighted => self.weighted_load(core, threads),
            _ => self.cores[core.0].nr_threads(),
        }
    }

    /// Folds one core's instantaneous load under `base`, which must be
    /// `tracker`'s [`LoadTracker::base`] (a constant the caller reads
    /// once), into its tracked average, as observed at `now_ns`.
    pub fn touch(
        &mut self,
        core: CoreId,
        now_ns: u64,
        tracker: &dyn LoadTracker,
        base: LoadMetric,
        threads: &[SimThread],
    ) {
        let inst = self.instantaneous(core, base, threads);
        tracker.update(&mut self.cores[core.0].tracked, now_ns, inst);
    }

    /// [`CoreQueues::touch`] for every core — the pre-balance tick that
    /// decays every tracked load to the current time.
    pub fn touch_all(
        &mut self,
        now_ns: u64,
        tracker: &dyn LoadTracker,
        base: LoadMetric,
        threads: &[SimThread],
    ) {
        for core in 0..self.cores.len() {
            self.touch(CoreId(core), now_ns, tracker, base, threads);
        }
    }

    /// Replays the balance-grid folds a core missed while it was off the
    /// calendar, up to and including a grid point at `now_ns` itself (the
    /// machine-wide balance fold fires before same-time wakeups).
    ///
    /// Decay is linearly interpolated within a half-life, so folds do not
    /// compose: one update over `k` periods is not `k` updates over one
    /// period.  The tick engine folds every core at every balance tick
    /// (`touch_all`); a lazily maintained core must therefore replay those
    /// folds one grid point at a time — with the pre-mutation instantaneous
    /// load, so call this *before* mutating the core at `now_ns`.  Once a
    /// fold stops changing the tracked value the remaining folds are
    /// identical, so the replay jumps straight to the last grid point.
    ///
    /// Only a decayed tracker ([`LoadTracker::is_decayed`]) needs this: for
    /// an elapsed-insensitive one, the caller's one fold at `now_ns` is
    /// identical to folding at every grid point, so the caller skips it.
    /// `base` is `tracker`'s [`LoadTracker::base`], as for
    /// [`CoreQueues::touch`].
    pub fn catch_up(
        &mut self,
        core: CoreId,
        now_ns: u64,
        balance_period_ns: u64,
        tracker: &dyn LoadTracker,
        base: LoadMetric,
        threads: &[SimThread],
    ) {
        let inst = self.instantaneous(core, base, threads);
        let last = self.cores[core.0].tracked.last_update_ns;
        let mut grid = (last / balance_period_ns + 1) * balance_period_ns;
        while grid <= now_ns {
            let before = self.cores[core.0].tracked.scaled;
            tracker.update(&mut self.cores[core.0].tracked, grid, inst);
            if self.cores[core.0].tracked.scaled == before {
                // Fixed point: every remaining period-sized fold leaves the
                // value unchanged; only the timestamp advances.
                let final_grid = now_ns / balance_period_ns * balance_period_ns;
                if final_grid > grid {
                    self.cores[core.0].tracked.last_update_ns = final_grid;
                }
                break;
            }
            grid += balance_period_ns;
        }
    }

    /// Read-only load snapshot of one core, with weights taken from the
    /// thread table.
    pub fn snapshot(&self, core: CoreId, threads: &[SimThread]) -> CoreSnapshot {
        let core = &self.cores[core.0];
        let mut weighted = 0u64;
        let mut lightest: Option<u64> = None;
        if let Some(cur) = core.current {
            weighted += threads[cur.0].weight().raw();
        }
        for &tid in &core.ready {
            let w = threads[tid.0].weight().raw();
            weighted += w;
            lightest = Some(lightest.map_or(w, |l: u64| l.min(w)));
        }
        CoreSnapshot {
            id: core.id,
            node: core.node,
            nr_threads: core.nr_threads(),
            weighted_load: weighted,
            lightest_ready_weight: lightest,
            tracked_scaled: core.tracked.scaled,
            injected: 0,
        }
    }

    /// Total number of threads on all runqueues (running plus waiting).
    pub fn total_threads(&self) -> u64 {
        self.cores.iter().map(SimCore::nr_threads).sum()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use sched_core::Weight;

    fn threads(n: usize) -> Vec<SimThread> {
        (0..n).map(|i| SimThread::new(SimThreadId(i), Weight::NICE_0)).collect()
    }

    #[test]
    fn enqueue_and_migrate() {
        let mut q = CoreQueues::new(2);
        q.enqueue(CoreId(0), SimThreadId(0));
        q.enqueue(CoreId(0), SimThreadId(1));
        assert_eq!(q.core(CoreId(0)).nr_threads(), 2);
        let moved = q.migrate_newest(CoreId(0), CoreId(1)).unwrap();
        assert_eq!(moved, SimThreadId(1));
        assert_eq!(q.loads(), vec![1, 1]);
        assert_eq!(q.total_threads(), 2);
    }

    #[test]
    fn work_conservation_predicate() {
        let mut q = CoreQueues::new(2);
        assert!(q.is_work_conserving());
        q.enqueue(CoreId(1), SimThreadId(0));
        q.enqueue(CoreId(1), SimThreadId(1));
        assert!(!q.is_work_conserving());
        q.set_current(CoreId(0), Some(SimThreadId(2)));
        assert!(q.is_work_conserving());
    }

    #[test]
    fn idlest_is_the_first_idle_core_else_the_first_least_loaded() {
        let mut q = CoreQueues::new(3);
        q.set_current(CoreId(0), Some(SimThreadId(0)));
        assert_eq!(q.idlest(), CoreId(1), "the lowest-numbered idle core");
        q.set_current(CoreId(1), Some(SimThreadId(1)));
        q.enqueue(CoreId(1), SimThreadId(2));
        q.set_current(CoreId(2), Some(SimThreadId(3)));
        assert_eq!(q.idlest(), CoreId(0), "no idle core: the first of the least loaded");
        q.enqueue(CoreId(0), SimThreadId(4));
        q.enqueue(CoreId(0), SimThreadId(5));
        assert_eq!(q.idlest(), CoreId(2));
    }

    /// The placement scan the count sets replaced: the least count, then
    /// the first core holding it, read off the cores' own structs.
    fn oracle_idlest(q: &CoreQueues) -> CoreId {
        let counts: Vec<u64> = q.cores().iter().map(SimCore::nr_threads).collect();
        let least = counts.iter().copied().min().expect("a machine has cores");
        q.cores()[counts.iter().position(|&n| n == least).expect("the minimum is present")].id
    }

    /// The scan `busiest` replaced: the highest count, then the first core
    /// holding it.
    fn oracle_busiest(q: &CoreQueues) -> (CoreId, u64) {
        let counts: Vec<u64> = q.cores().iter().map(SimCore::nr_threads).collect();
        let most = counts.iter().copied().max().expect("a machine has cores");
        (
            q.cores()[counts.iter().position(|&n| n == most).expect("the maximum is present")].id,
            most,
        )
    }

    /// The cores the ops below act on on machines of more than 8 cores:
    /// the ends of every bitmap word of up to 130 cores, so that the least
    /// count moves on machines of 64 and 130 cores too.  Smaller machines
    /// take ops on every core.
    const EDGES: [usize; 8] = [0, 1, 63, 64, 65, 127, 128, 129];

    /// Each count's set holds exactly the cores at that count, no bit past
    /// the last core, and `least` is no more than the least count.
    fn assert_count_sets(q: &CoreQueues) {
        let levels = q.by_count.len() / q.words;
        assert_eq!(q.by_count.len(), levels * q.words);
        for level in 0..levels {
            let mut expected = vec![0u64; q.words];
            for (core, &count) in q.counts.iter().enumerate() {
                assert!((count as usize) < levels, "core {core}'s count {count} has no set");
                if count as usize == level {
                    expected[core / 64] |= 1 << (core % 64);
                }
            }
            assert_eq!(q.holding(level as u32), &expected[..], "the set of count {level}");
        }
        assert!(q.least.get() <= *q.counts.iter().min().expect("a machine has cores"));
        assert!(q.most.get() >= *q.counts.iter().max().expect("a machine has cores"));
    }

    proptest! {
        #[test]
        fn the_count_array_follows_every_mutation(
            size in 0usize..6,
            fill in 0usize..3,
            ops in prop::collection::vec((0usize..6, 0usize..8, 0usize..8, 0usize..6), 1..120),
        ) {
            let nr_cores = [1, 2, 3, 5, 64, 130][size];
            let on = |k: usize| CoreId(if nr_cores <= EDGES.len() { k } else { EDGES[k] } % nr_cores);
            let mut q = CoreQueues::new(nr_cores);
            let mut fresh = (0..).map(SimThreadId);
            for core in 0..nr_cores {
                for _ in 0..fill {
                    q.enqueue(CoreId(core), fresh.next().unwrap());
                }
            }
            assert_count_sets(&q);
            prop_assert_eq!(q.idlest(), oracle_idlest(&q));
            prop_assert_eq!(q.busiest(), oracle_busiest(&q));
            for (op, a, b, i) in ops {
                let (a, b) = (on(a), on(b));
                match op {
                    0 => q.enqueue(a, fresh.next().unwrap()),
                    1 => {
                        if a != b {
                            let len = q.core(a).ready.len();
                            let picks: Vec<usize> = (0..len).rev().step_by(1 + i % 3).collect();
                            q.migrate_picks(a, b, &picks);
                        }
                    }
                    2 => {
                        if a != b && i < q.core(a).ready.len() {
                            q.migrate_picks(a, b, &[i]);
                        } else if a != b {
                            q.migrate_newest(a, b);
                        }
                    }
                    3 => q.set_current(a, (i % 3 != 0).then(|| fresh.next().unwrap())),
                    4 => {
                        q.rotate(a);
                    }
                    _ => {
                        q.promote(a);
                    }
                }
                for core in q.cores() {
                    prop_assert_eq!(u64::from(q.counts[core.id.0]), core.nr_threads());
                }
                assert_count_sets(&q);
                prop_assert_eq!(q.idlest(), oracle_idlest(&q));
                prop_assert_eq!(q.busiest(), oracle_busiest(&q));
                assert_count_sets(&q);
            }
        }
    }

    #[test]
    fn snapshots_reflect_weights() {
        let mut q = CoreQueues::new(2);
        let table = threads(3);
        q.set_current(CoreId(0), Some(SimThreadId(0)));
        q.enqueue(CoreId(0), SimThreadId(1));
        let busy = q.snapshot(CoreId(0), &table);
        assert_eq!(busy.nr_threads, 2);
        assert_eq!(busy.weighted_load, 2048);
        assert_eq!(busy.lightest_ready_weight, Some(1024));
        assert!(q.snapshot(CoreId(1), &table).is_idle());
    }

    #[test]
    fn promote_takes_the_oldest_first() {
        let mut q = CoreQueues::new(2);
        q.enqueue(CoreId(0), SimThreadId(0));
        q.enqueue(CoreId(0), SimThreadId(1));
        assert_eq!(q.promote(CoreId(0)), Some(SimThreadId(0)));
        assert_eq!(q.promote(CoreId(0)), None, "a thread runs already");
        assert_eq!(q.core(CoreId(0)).ready, [SimThreadId(1)]);
        assert_eq!(q.promote(CoreId(1)), None, "nothing waits");
        assert_eq!(q.loads(), vec![2, 0], "an election keeps the count");
    }

    #[test]
    fn rotate_queues_the_preempted_thread_last() {
        let mut q = CoreQueues::new(1);
        for tid in 0..3 {
            q.enqueue(CoreId(0), SimThreadId(tid));
        }
        assert_eq!(q.rotate(CoreId(0)), None, "nothing runs yet");
        q.promote(CoreId(0));
        assert_eq!(q.rotate(CoreId(0)), Some(SimThreadId(1)));
        let core = q.core(CoreId(0));
        assert_eq!(core.current, Some(SimThreadId(1)));
        assert_eq!(core.ready, [SimThreadId(2), SimThreadId(0)]);
        assert_eq!(q.loads(), vec![3], "a preemption keeps the count");
    }

    #[test]
    fn migrate_picks_moves_the_positions_it_is_given_in_order() {
        let mut q = CoreQueues::new(2);
        for tid in 0..5 {
            q.enqueue(CoreId(0), SimThreadId(tid));
        }
        q.migrate_picks(CoreId(0), CoreId(1), &[3, 0, 4, 1]);
        assert_eq!(q.core(CoreId(0)).ready, [SimThreadId(2)]);
        assert_eq!(q.core(CoreId(1)).ready, [3, 0, 4, 1].map(SimThreadId));
    }

    #[test]
    fn mutation_log_records_touched_cores_in_order() {
        let mut q = CoreQueues::new(3);
        q.enqueue(CoreId(2), SimThreadId(0));
        q.enqueue(CoreId(2), SimThreadId(1));
        q.enable_mutation_log();
        assert!(q.migrate_newest(CoreId(2), CoreId(0)).is_some());
        assert!(q.promote(CoreId(0)).is_some());
        assert_eq!(q.drain_mutation_log(), vec![CoreId(0), CoreId(2)]);
        // Draining disables the log again.
        q.enqueue(CoreId(1), SimThreadId(2));
        assert_eq!(q.drain_mutation_log(), Vec::<CoreId>::new());
    }

    #[test]
    fn lazy_catch_up_matches_eager_per_grid_folds() {
        use sched_core::tracker::PeltTracker;
        use sched_core::LoadMetric;

        let tracker = PeltTracker::new(LoadMetric::NrThreads, 8_000_000);
        let period = 4_000_000u64;
        let table = threads(3);
        // One wakeup off-grid, one exactly on a balance tick.
        for wakeup in [30 * period + 1_234_567, 30 * period] {
            let mut eager = CoreQueues::new(1);
            // Seed a non-zero tracked value, then let the queue sit idle.
            eager.set_current(CoreId(0), Some(SimThreadId(0)));
            let base = LoadMetric::NrThreads;
            eager.touch(CoreId(0), 1_000_000, &tracker, base, &table);
            eager.set_current(CoreId(0), None);
            eager.touch(CoreId(0), 1_500_000, &tracker, base, &table);
            let mut lazy = eager.clone();

            // The tick engine folds at every balance tick (including one
            // landing exactly at the wakeup); the lazy replica must
            // reproduce those folds exactly.
            let mut t = period;
            while t <= wakeup {
                eager.touch(CoreId(0), t, &tracker, base, &table);
                t += period;
            }
            eager.touch(CoreId(0), wakeup, &tracker, base, &table);

            lazy.catch_up(CoreId(0), wakeup, period, &tracker, base, &table);
            lazy.touch(CoreId(0), wakeup, &tracker, base, &table);
            assert_eq!(lazy.core(CoreId(0)).tracked, eager.core(CoreId(0)).tracked);
        }
    }

    #[test]
    fn topology_construction_assigns_nodes() {
        let topo = sched_topology::TopologyBuilder::new().sockets(2).cores_per_socket(2).build();
        let q = CoreQueues::with_topology(&topo);
        assert_eq!(q.nr_cores(), 4);
        assert_ne!(q.core(CoreId(0)).node, q.core(CoreId(3)).node);
    }
}

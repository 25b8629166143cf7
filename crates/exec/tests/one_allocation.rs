//! A spawn makes one allocation: the closure and its result cell share it,
//! and nothing else on the submit → run → complete → join path allocates
//! once the executor is warm.  Counted by a global allocator that tallies
//! every allocation in the process while the count is switched on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use sched_core::policy::TopologyAwareChoice;
use sched_core::{LoadMetric, Policy};
use sched_exec::{ExecConfig, Executor, JoinHandle};
use sched_topology::TopologyBuilder;

/// The system allocator, counting allocations while `COUNTING` is up.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is an atomic that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `alloc`'s contract; it is passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `work` makes, on every thread of the process.
fn allocations_during(work: impl FnOnce()) -> u64 {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    work();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn a_spawn_and_its_join_make_one_allocation_in_steady_state() {
    let topo = Arc::new(TopologyBuilder::new().sockets(1).cores_per_socket(2).build());
    let choice = TopologyAwareChoice::new(Arc::clone(&topo), LoadMetric::NrThreads);
    let exec =
        Executor::start(ExecConfig::new(topo, Policy::simple().with_choice(Box::new(choice))));
    // Warm up: slab slots, free lists, idle stack and snapshot buffers
    // reach the sizes the measured loop needs.
    for _ in 0..20 {
        let handles: Vec<JoinHandle<u64>> = (0..64).map(|i| exec.spawn(move || i)).collect();
        assert_eq!(handles.into_iter().map(JoinHandle::join).sum::<u64>(), 63 * 32);
    }
    for i in 0..200u64 {
        assert_eq!(exec.spawn(move || i).join(), i);
    }

    let spawns = 1000u64;
    let stolen_before = exec.stats().successes();
    let allocations = allocations_during(|| {
        for i in 0..spawns {
            assert_eq!(exec.spawn(move || i).join(), i);
        }
    });
    // A task can queue behind its predecessor's completion and be stolen;
    // a successful steal's outcome lists the ids it moved, in a vector.
    // And a worker that steals for the first time grows the reusable
    // buffers of its thread once.
    let steals = exec.stats().successes() - stolen_before;
    exec.shutdown();
    let one_each = spawns + steals;
    assert!(
        (one_each..=one_each + 8).contains(&allocations),
        "{allocations} allocations for {spawns} spawns and joins and {steals} steals"
    );
}

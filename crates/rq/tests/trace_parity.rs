//! The `stats == fold(trace)` parity contract on the runqueue substrate:
//! a drained decision trace, folded back into a tally, must equal the
//! tally the same run's `BalanceStats` recorded — whole struct, on both the
//! mutex and the lock-free backend, under single-threaded and genuinely
//! concurrent rounds.  Parity is what certifies the trace as a *complete*
//! record of the round's decisions rather than a lossy echo of them.

use std::sync::Arc;

use sched_core::policy::TopologyAwareChoice;
use sched_core::{CoreId, LoadMetric, Policy, StealRule};
use sched_rq::{DequeRq, MultiQueue, RqBackend};
use sched_trace::{FoldedStats, SanityChecker, TraceSink};

type DequeMq = MultiQueue<DequeRq>;

#[test]
fn mutex_backend_stats_equal_the_folded_trace() {
    let mut mq: MultiQueue = MultiQueue::new(8);
    mq.set_trace_sink(TraceSink::recording(8));
    for _ in 0..16 {
        mq.spawn_on(CoreId(7));
    }
    let policy = Policy::simple();
    let (rounds, stats) = mq.converge(&policy, 64);
    assert!(rounds.is_some(), "optimistic balancing must converge");
    let trace = mq.trace_sink().drain();
    assert_eq!(trace.dropped, 0, "this run fits the default rings");
    assert!(stats.successes() >= 7, "the trace has real content to fold");
    assert_eq!(stats.tally(), FoldedStats::from_trace(&trace));
}

#[test]
fn deque_backend_stats_equal_the_folded_trace() {
    let mut mq: DequeMq = MultiQueue::new(8);
    mq.set_trace_sink(TraceSink::recording(8));
    for _ in 0..24 {
        mq.spawn_on(CoreId(3));
    }
    let policy = Policy::simple();
    let mut total = FoldedStats::default();
    let mut rounds = 0;
    while !mq.is_work_conserving() && rounds < 64 {
        // Batched rounds exercise the multi-claim path, whose partial
        // deliveries and trims are exactly where a lossy trace would
        // diverge from the counters.
        total.merge(&mq.concurrent_round_batched(&policy, StealRule::HalfImbalance).tally());
        rounds += 1;
    }
    assert!(mq.is_work_conserving());
    let trace = mq.trace_sink().drain();
    assert_eq!(trace.dropped, 0);
    assert!(total.successes >= 1);
    assert_eq!(total, FoldedStats::from_trace(&trace));
}

#[test]
fn topology_aware_rounds_keep_parity_with_level_attribution() {
    let topo = sched_topology::TopologyBuilder::new().sockets(2).cores_per_socket(2).smt(2).build();
    let mut mq: DequeMq = MultiQueue::with_topology(&topo);
    mq.set_trace_sink(TraceSink::recording(mq.nr_cores()));
    for _ in 0..16 {
        mq.spawn_on(CoreId(0));
    }
    let choice = TopologyAwareChoice::new(Arc::new(topo), LoadMetric::NrThreads);
    let policy = Policy::simple().with_choice(Box::new(choice));
    let (rounds, stats) = mq.converge(&policy, 64);
    assert!(rounds.is_some(), "topology-aware balancing must converge");
    let fold = FoldedStats::from_trace(&mq.trace_sink().drain());
    assert_eq!(stats.tally(), fold);
    assert!(
        fold.level_migrations.iter().sum::<u64>() >= 1,
        "level attribution must survive the trace round-trip"
    );
}

#[test]
fn a_converged_injector_run_traces_sanity_clean() {
    // The online checker's baseline: a work-conserving converged machine
    // under the shared-injector discipline must produce zero violations in
    // strict mode, with conservation cross-checked against the final
    // per-core loads.
    let mut mq: DequeMq = MultiQueue::new(4);
    mq.set_trace_sink(TraceSink::recording(4));
    for _ in 0..12 {
        mq.spawn_on(CoreId(1));
    }
    let policy = Policy::simple();
    let mut rounds = 0;
    while !mq.is_work_conserving() && rounds < 64 {
        // Advance the logical clock between rounds: the trace's merge
        // order is causal only up to timestamp ties, so a traced run
        // ticks like a real machine would.
        rounds += 1;
        mq.tick(rounds * 1_000_000);
        let _ = mq.concurrent_round(&policy);
    }
    assert!(mq.is_work_conserving());
    let trace = mq.trace_sink().drain();
    let final_loads: Vec<u64> = (0..4).map(|c| mq.core(CoreId(c)).snapshot().nr_threads).collect();
    let violations = SanityChecker::check_trace(&trace, false, Some(&final_loads));
    assert!(violations.is_empty(), "clean run flagged: {violations:?}");
}

#[test]
fn injector_resident_count_equals_the_trace_derived_count() {
    use sched_trace::TraceEvent;

    // The injector's dropped-element accounting, pinned end to end: an
    // overflow storm on tiny rings pushes tasks through every injector
    // transit — owner overflow pushes (InjectorPush), thief batch claims
    // and owner pops and tick aging (InjectorDrain), batch-trim loop-backs
    // (BatchTrim) — and at quiescence each core's *live* resident count
    // must equal what the decision trace alone says it should be.  A
    // missed narration, a double decrement, or a partial batch failure
    // counted twice would all break the equality.
    let mut mq: MultiQueue<sched_rq::TinyDequeRq> = MultiQueue::new(8);
    mq.set_trace_sink(TraceSink::recording(8));
    let policy = Policy::simple();
    for epoch in 0..4u64 {
        for _ in 0..48 {
            mq.spawn_on(CoreId(0));
        }
        // Batched rounds drive the multi-claim injector path, trims
        // included; the tick drives the aging drain; completes drive the
        // owner's pop-from-injector promotion.
        let _ = mq.concurrent_round_batched(&policy, StealRule::Fixed(4));
        mq.tick((epoch + 1) * 1_000_000);
        for core in 0..8 {
            let _ = mq.core(CoreId(core)).complete_current();
        }
    }
    let trace = mq.trace_sink().drain();
    assert_eq!(trace.dropped, 0, "the storm must fit the rings for an exact count");
    let mut narrated_pushes = 0u64;
    for core in 0..8 {
        let mut derived: i64 = 0;
        for recorded in trace.for_core(CoreId(core)) {
            match recorded.event {
                TraceEvent::InjectorPush { .. } => {
                    derived += 1;
                    narrated_pushes += 1;
                }
                TraceEvent::BatchTrim { returned } => derived += returned as i64,
                TraceEvent::InjectorDrain { moved } => derived -= moved as i64,
                _ => {}
            }
        }
        assert_eq!(
            mq.core(CoreId(core)).inner().injected_len() as i64,
            derived,
            "core{core}: the trace must account for every injector transit"
        );
    }
    assert!(narrated_pushes > 0, "the storm must actually overflow for the pin to mean anything");
}

#[test]
fn backend_internal_events_reach_the_attached_sink() {
    use sched_core::tracker::NrThreadsTracker;
    use sched_trace::TraceEvent;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    // A tiny ring forces overflow through the injector; the attached sink
    // must see the InjectorPush for each overflowed task and the tick's
    // InjectorDrain.
    let clock = Arc::new(AtomicU64::new(0));
    let mut rq = DequeRq::with_queue_capacity(
        CoreId(0),
        sched_topology::NodeId(0),
        Arc::new(NrThreadsTracker),
        clock,
        4,
    );
    let sink = TraceSink::recording(1);
    rq.attach_trace(sink.clone());
    for i in 0..8 {
        rq.enqueue(sched_rq::RqTask::new(sched_core::TaskId(i)));
    }
    // 1 running + 4 ring + 3 injector.
    let trace = sink.drain();
    let pushes =
        trace.events.iter().filter(|e| matches!(e.event, TraceEvent::InjectorPush { .. })).count();
    assert_eq!(pushes, 3, "every overflowed task is narrated: {:?}", trace.events);
    rq.complete_current();
    rq.refresh();
    let trace = sink.drain();
    assert!(
        trace
            .events
            .iter()
            .any(|e| matches!(e.event, TraceEvent::InjectorDrain { moved } if moved >= 1)),
        "the tick's aging drain is narrated: {:?}",
        trace.events
    );
}

//! Single- and two-thread probes of each layer under the executor, through
//! the layers' public API.  Every timing is the median of equal trials.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sched_core::{ChoicePolicy, CoreId, CoreSnapshot, Policy, TaskId, TRACK_SCALE};
use sched_deque::{deque, Injector, Steal};
use sched_exec::Parker;
use sched_metrics::Histogram;
use sched_rq::{DequeRq, MultiQueue, RqBackend, RqTask, StealBatch};
use sched_topology::NodeId;
use sched_trace::{TraceEvent, TraceSink};

use crate::harness::{self, flat, policy, Placement};
use crate::pacer::{Clock, Epoch};
use crate::stats::{median, percentile_of};

/// Trials per timing probe.
const TRIALS: usize = 7;
/// Ring capacity the executor uses by default.
const RING: usize = 1024;

/// `(metric name, value)` pairs, in the order measured.
pub type Values = Vec<(&'static str, f64)>;

/// Median over [`TRIALS`] of `trial()`'s timed section, per `per` items.
fn median_ns(per: u64, mut trial: impl FnMut() -> Duration) -> f64 {
    let samples: Vec<f64> = (0..TRIALS).map(|_| trial().as_nanos() as f64 / per as f64).collect();
    median(&samples)
}

/// Runs every probe.  `workers` sizes the multi-queue fan-out and the wake
/// probe like the measured executor.
pub fn all(workers: usize) -> Values {
    let mut out = Values::new();
    deque_probes(&mut out);
    rq_probes(&mut out, workers);
    core_probes(&mut out);
    exec_probes(&mut out, workers);
    trace_probes(&mut out);
    out.push(("metrics.histogram_record_ns", {
        let mut h = Histogram::new();
        median_ns(1 << 20, || {
            let t = Instant::now();
            for i in 0..1u64 << 20 {
                h.record(black_box(i.wrapping_mul(37) % 100_000));
            }
            t.elapsed()
        })
    }));
    out
}

fn deque_probes(out: &mut Values) {
    let (mut worker, stealer) = deque(RING);
    let n = RING as u64;
    out.push((
        "deque.push_pop_ns",
        median_ns(n * 64, || {
            let t = Instant::now();
            for _ in 0..64 {
                for i in 0..n {
                    worker.push(black_box(i)).expect("ring has room");
                }
                while let Some(v) = worker.pop() {
                    black_box(v);
                }
            }
            t.elapsed()
        }),
    ));
    let fill = |worker: &mut sched_deque::Worker| {
        for i in 0..n {
            worker.push(i).expect("ring has room");
        }
    };
    out.push((
        "deque.steal_ns",
        median_ns(n * 16, || {
            let mut timed = Duration::ZERO;
            for _ in 0..16 {
                fill(&mut worker);
                let t = Instant::now();
                while let Steal::Stolen(v) = stealer.steal() {
                    black_box(v);
                }
                timed += t.elapsed();
            }
            timed
        }),
    ));
    out.push((
        "deque.steal_many8_ns_per_task",
        median_ns(n * 16, || {
            let mut timed = Duration::ZERO;
            for _ in 0..16 {
                fill(&mut worker);
                let t = Instant::now();
                while stealer.steal_many(8).count() > 0 {}
                timed += t.elapsed();
            }
            timed
        }),
    ));

    // One thief against an owner that keeps pushing and popping: the share
    // of the thief's claims that win their CAS.
    let stop = AtomicBool::new(false);
    let (stolen, lost) = std::thread::scope(|scope| {
        let thief = scope.spawn(|| {
            let (mut stolen, mut lost) = (0u64, 0u64);
            while !stop.load(Ordering::Acquire) {
                match stealer.steal() {
                    Steal::Stolen(_) => stolen += 1,
                    Steal::Retry => lost += 1,
                    Steal::Empty => std::hint::spin_loop(),
                }
            }
            (stolen, lost)
        });
        for _ in 0..200_000 {
            for i in 0..4 {
                worker.push(i).expect("ring has room");
            }
            while worker.pop().is_some() {}
        }
        stop.store(true, Ordering::Release);
        thief.join().expect("thief panicked")
    });
    out.push((
        "deque.steal_contended_success_ratio",
        stolen as f64 / (stolen + lost).max(1) as f64,
    ));

    let injector = Injector::new();
    let batch = 1u64 << 14;
    let mut push_ns = Vec::new();
    let mut steal_ns = Vec::new();
    for _ in 0..TRIALS {
        let t = Instant::now();
        for i in 0..batch {
            injector.push(black_box(i));
        }
        push_ns.push(t.elapsed().as_nanos() as f64 / batch as f64);
        let t = Instant::now();
        let mut claimed = 0;
        while claimed < batch as usize {
            claimed += injector.steal_batch(8, |v| {
                black_box(v);
            });
        }
        steal_ns.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    out.push(("deque.injector_push_ns", median(&push_ns)));
    out.push(("deque.injector_steal_batch_ns_per_task", median(&steal_ns)));
}

fn new_rq(id: usize, policy: &Policy) -> DequeRq {
    DequeRq::with_queue_capacity(
        CoreId(id),
        NodeId(0),
        Arc::clone(&policy.tracker),
        Arc::new(AtomicU64::new(0)),
        RING,
    )
}

fn rq_probes(out: &mut Values, workers: usize) {
    let policy = Policy::simple();
    let rq = new_rq(0, &policy);
    let mut next = 0u64;
    out.push((
        "rq.enqueue_pick_complete_ns",
        median_ns(512 * 32, || {
            let t = Instant::now();
            for _ in 0..32 {
                for _ in 0..512 {
                    rq.enqueue(RqTask::new(TaskId(next)));
                    next += 1;
                }
                // The executor's worker loop: the seated task, else elect.
                while let Some(task) = rq.current_task().or_else(|| rq.pick_next()) {
                    black_box(task);
                    rq.complete_current();
                }
            }
            t.elapsed()
        }),
    ));
    for i in 0..8 {
        rq.enqueue(RqTask::new(TaskId(i)));
    }
    out.push((
        "rq.snapshot_ns",
        median_ns(1 << 18, || {
            let t = Instant::now();
            for _ in 0..1 << 18 {
                black_box(black_box(&rq).snapshot());
            }
            t.elapsed()
        }),
    ));
    out.push((
        "rq.try_steal_ns",
        median_ns(400, || {
            let (thief, victim) = (new_rq(0, &policy), new_rq(1, &policy));
            for i in 0..1000 {
                victim.enqueue(RqTask::new(TaskId(i)));
            }
            let t = Instant::now();
            for _ in 0..400 {
                let outcome =
                    DequeRq::try_steal_recorded(&thief, &victim, policy.filter.as_ref(), 1, None);
                assert!(outcome.is_success(), "an uncontended steal from a loaded victim failed");
            }
            t.elapsed()
        }),
    ));

    // All tasks on core 0, every core balancing concurrently until a round
    // moves nothing.
    let topo = flat(workers);
    let fan_policy = harness::policy(&topo, Placement::Policy);
    let mut rates = Vec::new();
    let (mut successes, mut attempts) = (0u64, 0u64);
    for _ in 0..3 {
        let mq: MultiQueue<DequeRq> = MultiQueue::with_topology(&topo);
        for _ in 0..4096 {
            mq.spawn_on(CoreId(0));
        }
        let t = Instant::now();
        let mut migrations = 0;
        loop {
            let round = mq.concurrent_round_batched(&fan_policy, StealBatch::HalfImbalance);
            successes += round.successes();
            attempts += round.attempts();
            migrations += round.migrations();
            if round.successes() == 0 {
                break;
            }
        }
        rates.push(migrations as f64 / t.elapsed().as_secs_f64());
    }
    out.push(("rq.fanout_migrations_per_s", median(&rates)));
    out.push(("rq.fanout_steal_success_ratio", successes as f64 / attempts.max(1) as f64));
}

/// A saturated machine: every core busy, loads 1–3, so `place_wakeup`
/// scans everything and `choose` sees a full candidate list.
fn busy_snapshots(cores: usize) -> Vec<CoreSnapshot> {
    (0..cores)
        .map(|i| {
            let nr_threads = 2 + (i as u64 * 7) % 3;
            CoreSnapshot {
                id: CoreId(i),
                node: NodeId(0),
                nr_threads,
                weighted_load: nr_threads * 1024,
                lightest_ready_weight: Some(1024),
                tracked_scaled: nr_threads * TRACK_SCALE,
                injected: 0,
            }
        })
        .collect()
}

fn core_probes(out: &mut Values) {
    for (name, cores) in [("core.place_wakeup_ns_c4", 4), ("core.place_wakeup_ns_c64", 64)] {
        let choice = policy(&flat(cores), Placement::Policy).choice;
        let snapshots = busy_snapshots(cores);
        out.push((
            name,
            median_ns(1 << 16, || {
                let t = Instant::now();
                for i in 0..1usize << 16 {
                    black_box(choice.place_wakeup(CoreId(i % cores), black_box(&snapshots)));
                }
                t.elapsed()
            }),
        ));
    }
    let choice: Box<dyn ChoicePolicy> = policy(&flat(64), Placement::Policy).choice;
    let mut snapshots = busy_snapshots(64);
    let mut thief = snapshots.remove(0);
    thief.nr_threads = 0;
    out.push((
        "core.choose_ns_c64",
        median_ns(1 << 14, || {
            let t = Instant::now();
            for _ in 0..1 << 14 {
                black_box(choice.choose(black_box(&thief), black_box(&snapshots)));
            }
            t.elapsed()
        }),
    ));
}

fn exec_probes(out: &mut Values, workers: usize) {
    // Ping an executor whose workers have all parked.
    let exec = harness::start(workers, Placement::Policy, TraceSink::disabled());
    let epoch = Epoch::start();
    let mut wake_ns: Vec<u64> = (0..150)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(3));
            let sent = epoch.now_ns();
            exec.spawn(move || epoch.now_ns()).join().saturating_sub(sent)
        })
        .collect();
    Arc::into_inner(exec).expect("no closure outlives its join").shutdown();
    out.push(("exec.wake_us_p50", percentile_of(&mut wake_ns, 0.5) as f64 / 1e3));

    // Two threads handing a token back and forth through two parkers.
    let (ping, pong) = (Parker::new(), Parker::new());
    let rounds = 4000u64;
    let long = Duration::from_secs(5);
    let per_handoff = median_ns(rounds * 2, || {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..rounds {
                    assert!(ping.park_timeout(long), "ping token never arrived");
                    pong.unpark();
                }
            });
            let t = Instant::now();
            for _ in 0..rounds {
                ping.unpark();
                assert!(pong.park_timeout(long), "pong token never arrived");
            }
            t.elapsed()
        })
    });
    out.push(("exec.parker_handoff_ns", per_handoff));
}

fn trace_probes(out: &mut Values) {
    let event = TraceEvent::TaskDone { task: TaskId(7) };
    for (name, sink) in [
        ("trace.record_disabled_ns", TraceSink::disabled()),
        ("trace.record_enabled_ns", TraceSink::with_capacity(1, 1 << 12)),
    ] {
        out.push((
            name,
            median_ns(1 << 18, || {
                let t = Instant::now();
                for ts in 0..1u64 << 18 {
                    black_box(&sink).record(CoreId(0), ts, black_box(&event));
                }
                t.elapsed()
            }),
        ));
    }
}

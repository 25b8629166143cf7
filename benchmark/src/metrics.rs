//! The benchmark's dictionary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric and
//! workload each is expected to move.  `BENCHMARK.json` must agree with
//! these tables (a test checks it).

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `b` is than `a`, as a share of `a` (negative when
    /// `b` is better).
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        match self {
            Better::Lower => (b - a) / a,
            Better::Higher => (a - b) / a,
        }
    }
}

/// A workload and why it exists.
#[derive(Debug)]
pub struct WorkloadDef {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line: what it stresses and what it bypasses.
    pub why: &'static str,
}

/// A metric a user of the system would see.
#[derive(Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A metric of one layer (the prefix before the dot is the crate).
#[derive(Debug)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

/// The six workloads.
pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "steady_mix",
        why: "open loop, Poisson at rho 0.6, 200us/2ms bimodal: workers park between arrivals, so wake path, placement and stealing sit on the latency path",
    },
    WorkloadDef {
        name: "steady_mix_hi",
        why: "same open loop at rho 0.8, approaching the knee: capacity lost to overhead is amplified by 1/(1-rho)",
    },
    WorkloadDef {
        name: "burst_tiny",
        why: "closed loop, one producer, bursts of 512 zero-work closures: spawn's per-call cost is the critical path, almost no steals",
    },
    WorkloadDef {
        name: "skew_steal",
        why: "closed loop, bursts of 2048 x 20us closures all placed on worker 0: the paper's overloaded core, every other task must be stolen; bypasses place_wakeup",
    },
    WorkloadDef {
        name: "fanout_tree",
        why: "closed loop, a depth-14 binary tree whose nodes spawn their children: many in-worker producers contend on the submit path, almost no steals",
    },
    WorkloadDef {
        name: "sim_oltp",
        why: "event-driven simulator, 1024 OLTP threads on 64 simulated cores: bypasses exec, rq and deque entirely and loads sim and core policy code",
    },
];

/// The end-to-end (gated) metrics; every workload reports every one.  A bound
/// belongs to the metric, not to a workload, so the noisiest workload sets
/// it: `burst_tiny` and `sim_oltp` are pure overhead and run as fast as the
/// shared machine's CPU happens to be that minute (their run-to-run spread
/// reached 12-25% in noisy periods), while the workloads that spin for a
/// fixed wall time spread 1-6%.  README.md has the per-workload spreads a
/// tighter, per-workload comparison can use.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "latency_p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "throughput_tasks_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

const STEAL: &str = "throughput_tasks_per_s on skew_steal; latency_p95_us on steady_mix*";
const SUBMIT: &str = "throughput_tasks_per_s on burst_tiny, fanout_tree";
const WAKE: &str = "latency_p50_us on steady_mix, less on steady_mix_hi; none on closed loops";
const TRACE_OFF: &str = "none with tracing off";
const SIM: &str = "throughput_tasks_per_s, latency_p50_us on sim_oltp only";

/// The per-layer metrics; every traced run reports every one.
pub const PER_LAYER: [PerLayer; 43] = [
    layer("deque.push_pop_ns", "ns", Better::Lower, SUBMIT),
    layer("deque.steal_ns", "ns", Better::Lower, STEAL),
    layer("deque.steal_many8_ns_per_task", "ns", Better::Lower, STEAL),
    layer("deque.steal_contended_success_ratio", "ratio", Better::Higher, STEAL),
    layer("deque.injector_push_ns", "ns", Better::Lower, STEAL),
    layer("deque.injector_steal_batch_ns_per_task", "ns", Better::Lower, STEAL),
    layer("rq.enqueue_pick_complete_ns", "ns", Better::Lower, SUBMIT),
    layer("rq.snapshot_ns", "ns", Better::Lower, SUBMIT),
    layer("rq.try_steal_ns", "ns", Better::Lower, "throughput_tasks_per_s on skew_steal"),
    layer(
        "rq.fanout_migrations_per_s",
        "1/s",
        Better::Higher,
        "throughput_tasks_per_s on skew_steal",
    ),
    layer(
        "rq.fanout_steal_success_ratio",
        "ratio",
        Better::Higher,
        "throughput_tasks_per_s on skew_steal",
    ),
    layer(
        "core.place_wakeup_ns_c4",
        "ns",
        Better::Lower,
        "throughput_tasks_per_s on burst_tiny, fanout_tree (not skew_steal, which pins)",
    ),
    layer(
        "core.place_wakeup_ns_c64",
        "ns",
        Better::Lower,
        "throughput_tasks_per_s on burst_tiny, fanout_tree (not skew_steal, which pins)",
    ),
    layer(
        "core.choose_ns_c64",
        "ns",
        Better::Lower,
        "throughput_tasks_per_s on sim_oltp, slightly skew_steal",
    ),
    layer("exec.spawn_call_ns_p50", "ns", Better::Lower, SUBMIT),
    layer("exec.spawn_call_ns_p99", "ns", Better::Lower, SUBMIT),
    layer("exec.queued_us_p50", "us", Better::Lower, WAKE),
    layer("exec.queued_us_p95", "us", Better::Lower, WAKE),
    layer("exec.run_us_p50", "us", Better::Lower, "none (the closure's own work)"),
    layer("exec.join_ns_p50", "ns", Better::Lower, "throughput_tasks_per_s on burst_tiny"),
    layer("exec.latency_p99_us", "us", Better::Lower, "not gated: spreads more than p95 does"),
    layer(
        "exec.gen_lag_us_p99",
        "us",
        Better::Lower,
        "validity of the open-loop rows, not a target",
    ),
    layer("exec.busy_frac", "ratio", Better::Higher, STEAL),
    layer(
        "exec.backlog_tail_ms",
        "ms",
        Better::Lower,
        "near zero unless the open-loop backlog grows",
    ),
    layer(
        "exec.achieved_over_offered",
        "ratio",
        Better::Higher,
        "validity of the open-loop rows, not a target",
    ),
    layer("exec.steals_per_task", "ratio", Better::Lower, STEAL),
    layer("exec.steal_success_ratio", "ratio", Better::Higher, STEAL),
    layer("exec.parks_per_task", "ratio", Better::Lower, WAKE),
    layer("exec.wake_us_p50", "us", Better::Lower, WAKE),
    layer("exec.parker_handoff_ns", "ns", Better::Lower, WAKE),
    layer("trace.record_disabled_ns", "ns", Better::Lower, TRACE_OFF),
    layer("trace.record_enabled_ns", "ns", Better::Lower, TRACE_OFF),
    layer("trace.events_per_task", "count", Better::Lower, TRACE_OFF),
    layer("trace.dropped", "count", Better::Lower, TRACE_OFF),
    layer("trace.overhead_pct", "%", Better::Lower, TRACE_OFF),
    layer(
        "metrics.histogram_record_ns",
        "ns",
        Better::Lower,
        "no workload today (the closure path records nothing)",
    ),
    layer("sim.events_processed", "count", Better::Lower, SIM),
    layer("sim_events_per_s", "1/s", Better::Higher, SIM),
    layer("sim.ns_per_event", "ns", Better::Lower, SIM),
    layer("sim.balance_successes", "count", Better::Higher, SIM),
    layer("sim.workload_gen_s", "s", Better::Lower, "setup_s on sim_oltp only"),
    layer(
        "latency_p95_us",
        "us",
        Better::Lower,
        "not gated: spread reached 23% between runs of identical code on steady_mix_hi",
    ),
    layer("failed_frac", "ratio", Better::Lower, "must stay 0 on every workload"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(unit.len() <= 16 && !unit.is_empty());
            assert!(
                unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    /// `BENCHMARK.json` at the repo root lists exactly these tables.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = sched_json::read::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rows = |key: &str| doc.get(key).and_then(|v| v.as_array()).unwrap().to_vec();
        let text = |row: &sched_json::read::Json, key: &str| {
            row.get(key).and_then(|v| v.as_str()).unwrap().to_string()
        };

        let workloads = rows("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (row, def) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!((text(row, "name"), text(row, "why")), (def.name.into(), def.why.into()));
        }
        let end_to_end = rows("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (row, def) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(text(row, "name"), def.name);
            assert_eq!(text(row, "unit"), def.unit);
            assert_eq!(text(row, "better"), def.better.word());
            assert_eq!(row.get("bound").and_then(|v| v.as_f64()), Some(def.bound));
        }
        let per_layer = rows("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (row, def) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(text(row, "name"), def.name);
            assert_eq!(text(row, "unit"), def.unit);
            assert_eq!(text(row, "better"), def.better.word());
        }
    }
}

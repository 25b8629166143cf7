//! The traced run's spans: recorded by the benchmark around each call into
//! the executor, held in memory, written as JSON lines when the run ends.
//!
//! Per task there are three spans — `submit` (the `spawn` call), `queued`
//! (spawn returned → closure started) and `run` (the closure) — under the
//! span that caused them: the `request` (open loop, starting at the
//! intended arrival) or the `burst` / `tree` (closed loops), which also
//! parents the `join` / `latch` wait.  A span's self time is its duration
//! minus what its children cover.  Nothing here runs when tracing is off:
//! [`Tracer::spawn`] is then a plain `Executor::spawn`.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sched_exec::{Executor, JoinHandle};

use crate::pacer::{Clock, Epoch};

/// Roughly how many tasks' spans are written out (closed loops write whole
/// units); the metrics use all of them.
pub const WRITTEN_TASKS: usize = 5_000;

/// Four timestamps per task, nanoseconds since the run's epoch (0 = never
/// stamped).  Atomics because `run_*` are written by workers and, in the
/// tree workload, so are `submit_*`.
#[derive(Debug)]
pub struct Stamps {
    epoch: Epoch,
    submit_start: Vec<AtomicU64>,
    submit_end: Vec<AtomicU64>,
    run_start: Vec<AtomicU64>,
    run_end: Vec<AtomicU64>,
}

fn zeroed(n: usize) -> Vec<AtomicU64> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

impl Stamps {
    fn stamp(&self, column: &[AtomicU64], task: usize) {
        column[task].store(self.epoch.now_ns().max(1), Ordering::Relaxed);
    }
}

/// Wraps `Executor::spawn` with span stamps when tracing is on.
#[derive(Debug, Clone)]
pub struct Tracer(Option<Arc<Stamps>>);

impl Tracer {
    /// Tracing off: `spawn` adds nothing.
    pub fn off() -> Self {
        Tracer(None)
    }

    /// Tracing on for tasks `0..tasks`, stamping against `epoch`.
    pub fn on(epoch: Epoch, tasks: usize) -> Self {
        Tracer(Some(Arc::new(Stamps {
            epoch,
            submit_start: zeroed(tasks),
            submit_end: zeroed(tasks),
            run_start: zeroed(tasks),
            run_end: zeroed(tasks),
        })))
    }

    /// Submits `f` as task number `task`.
    pub fn spawn<F, T>(&self, exec: &Executor, task: usize, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let Some(stamps) = &self.0 else {
            return exec.spawn(f);
        };
        let inner = Arc::clone(stamps);
        stamps.stamp(&stamps.submit_start, task);
        let handle = exec.spawn(move || {
            inner.stamp(&inner.run_start, task);
            let out = f();
            inner.stamp(&inner.run_end, task);
            out
        });
        stamps.stamp(&stamps.submit_end, task);
        handle
    }
}

/// One burst or tree: the span that caused its tasks' spans.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// First `spawn` call began.
    pub start_ns: u64,
    /// The generator began waiting (first `join`, or the latch).
    pub wait_start_ns: u64,
    /// Every task had completed and the wait returned.
    pub end_ns: u64,
    /// Index of the unit's first task.
    pub first_task: usize,
    /// Number of tasks in the unit.
    pub nr_tasks: usize,
}

/// Everything a traced run recorded besides the stamps.
#[derive(Debug)]
pub struct SpanLog {
    /// The stamping tracer (owns the per-task columns).
    pub tracer: Tracer,
    /// Tasks actually submitted (≤ the tracer's capacity).
    pub tasks: usize,
    /// Name of the span that parents a task's spans (`request`, `burst`,
    /// `tree`).
    pub unit_name: &'static str,
    /// Name of the wait spans (`join`, `latch`, `drain`).
    pub wait_name: &'static str,
    /// Closed loops: one per burst/tree.  Empty for open loops.
    pub units: Vec<Unit>,
    /// Open loops: intended arrival per task.  Empty for closed loops.
    pub due_ns: Vec<u64>,
    /// Open loops: the final `drain()` call, `(start, end)`.
    pub drain_ns: Option<(u64, u64)>,
    /// Duration of every blocking wait (`join` per handle, latch per tree,
    /// the one `drain`).
    pub wait_ns: Vec<u64>,
    /// How late the generator was: release − due (open loop), or the gap
    /// between one `spawn` returning and the next starting (closed loops).
    pub gen_lag_ns: Vec<u64>,
}

/// Per-task durations derived from the stamps.
#[derive(Debug, Default)]
pub struct TaskTimes {
    /// The `spawn` call.
    pub submit_ns: Vec<u64>,
    /// `spawn` returned → closure started (0 if it started before).
    pub queued_ns: Vec<u64>,
    /// The closure.
    pub run_ns: Vec<u64>,
    /// Origin (intended arrival, or `spawn` start) → closure end.
    pub latency_ns: Vec<u64>,
    /// Tasks with a stamp missing (never ran, or never returned).
    pub unstamped: u64,
}

impl SpanLog {
    fn stamps(&self) -> &Stamps {
        self.tracer.0.as_ref().expect("a span log exists only for a traced run")
    }

    fn task(&self, task: usize) -> Option<[u64; 4]> {
        let s = self.stamps();
        let at = |column: &[AtomicU64]| column[task].load(Ordering::Relaxed);
        let t = [at(&s.submit_start), at(&s.submit_end), at(&s.run_start), at(&s.run_end)];
        t.iter().all(|&x| x != 0).then_some(t)
    }

    /// Folds the stamps into per-task durations.
    pub fn task_times(&self) -> TaskTimes {
        let mut out = TaskTimes::default();
        for task in 0..self.tasks {
            let Some([s0, s1, r0, r1]) = self.task(task) else {
                out.unstamped += 1;
                continue;
            };
            let origin = self.due_ns.get(task).copied().unwrap_or(s0);
            out.submit_ns.push(s1.saturating_sub(s0));
            out.queued_ns.push(r0.saturating_sub(s1));
            out.run_ns.push(r1.saturating_sub(r0));
            out.latency_ns.push(r1.saturating_sub(origin));
        }
        out
    }

    /// Time from the last `spawn` returning to the system being empty, per
    /// unit (closed loops) or once (open loop: last arrival → `drain()`
    /// returned).
    pub fn tail_ns(&self) -> Vec<u64> {
        if let Some((_, drained)) = self.drain_ns {
            let last_due = self.due_ns.last().copied().unwrap_or(0);
            return vec![drained.saturating_sub(last_due)];
        }
        self.units.iter().map(|u| u.end_ns.saturating_sub(u.wait_start_ns)).collect()
    }

    /// The three spans of `task`, under `parent`.
    fn push_task(&self, rows: &mut Vec<Row>, parent: usize, task: usize) {
        if let Some([s0, s1, r0, r1]) = self.task(task) {
            push(rows, Some(parent), "submit", (s0, s1), Some(task));
            push(rows, Some(parent), "queued", (s1, r0.max(s1)), Some(task));
            push(rows, Some(parent), "run", (r0, r1), Some(task));
        }
    }

    /// The spans of roughly the first [`WRITTEN_TASKS`] tasks (whole units
    /// only); a row's id is its index.
    fn rows(&self) -> Vec<Row> {
        let mut rows = Vec::new();
        if self.units.is_empty() {
            for task in 0..self.tasks.min(WRITTEN_TASKS) {
                if let Some([_, _, _, r1]) = self.task(task) {
                    let span = (self.due_ns[task], r1);
                    let root = push(&mut rows, None, self.unit_name, span, Some(task));
                    self.push_task(&mut rows, root, task);
                }
            }
            if let Some(drain) = self.drain_ns {
                push(&mut rows, None, self.wait_name, drain, None);
            }
        } else {
            for unit in self.units.iter().take_while(|u| u.first_task < WRITTEN_TASKS) {
                let span = (unit.start_ns, unit.end_ns);
                let root = push(&mut rows, None, self.unit_name, span, None);
                for task in unit.first_task..unit.first_task + unit.nr_tasks {
                    self.push_task(&mut rows, root, task);
                }
                let wait = (unit.wait_start_ns, unit.end_ns);
                push(&mut rows, Some(root), self.wait_name, wait, None);
            }
        }
        rows
    }

    /// Writes the spans as JSON lines: a `meta` line, then one `{id,
    /// parent, name, start_ns, end_ns, request_id}` object per span.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let rows = self.rows();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"meta\": {{\"workload\": \"{workload}\", \"tasks\": {}, \"spans_written\": {}, \
             \"clock\": \"ns since the run's epoch\"}}}}",
            self.tasks,
            rows.len()
        )?;
        let or_null = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, row) in rows.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\": {id}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"request_id\": {}}}",
                or_null(row.parent),
                row.name,
                row.start_ns,
                row.end_ns,
                or_null(row.request)
            )?;
        }
        w.flush()
    }
}

/// One written span.
#[derive(Debug)]
struct Row {
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    request: Option<usize>,
}

fn push(
    rows: &mut Vec<Row>,
    parent: Option<usize>,
    name: &'static str,
    (start_ns, end_ns): (u64, u64),
    request: Option<usize>,
) -> usize {
    rows.push(Row { parent, name, start_ns, end_ns, request });
    rows.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(units: Vec<Unit>, due_ns: Vec<u64>, stamps: &[[u64; 4]]) -> SpanLog {
        let tracer = Tracer::on(Epoch::start(), stamps.len());
        let s = tracer.0.as_ref().unwrap();
        for (task, [s0, s1, r0, r1]) in stamps.iter().enumerate() {
            s.submit_start[task].store(*s0, Ordering::Relaxed);
            s.submit_end[task].store(*s1, Ordering::Relaxed);
            s.run_start[task].store(*r0, Ordering::Relaxed);
            s.run_end[task].store(*r1, Ordering::Relaxed);
        }
        SpanLog {
            tracer,
            tasks: stamps.len(),
            unit_name: if units.is_empty() { "request" } else { "burst" },
            wait_name: if units.is_empty() { "drain" } else { "join" },
            drain_ns: units.is_empty().then_some((90, 100)),
            units,
            due_ns,
            wait_ns: vec![],
            gen_lag_ns: vec![],
        }
    }

    #[test]
    fn open_loop_latency_runs_from_the_intended_arrival() {
        // Due at 10, submitted late at 14..16, ran 20..50.
        let log = log_with(vec![], vec![10], &[[14, 16, 20, 50]]);
        let t = log.task_times();
        assert_eq!((t.submit_ns[0], t.queued_ns[0], t.run_ns[0], t.latency_ns[0]), (2, 4, 30, 40));
        assert_eq!(log.tail_ns(), vec![100 - 10]);
        let rows = log.rows();
        let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        assert_eq!(names, ["request", "submit", "queued", "run", "drain"]);
        assert_eq!((rows[0].start_ns, rows[0].end_ns), (10, 50));
        assert!(rows[1..4].iter().all(|r| r.parent == Some(0) && r.request == Some(0)));
        // Self time of the request: 40 minus children 2 + 4 + 30 = the 4 ns
        // the generator was late.
        let children: u64 = rows[1..4].iter().map(|r| r.end_ns - r.start_ns).sum();
        assert_eq!(rows[0].end_ns - rows[0].start_ns - children, 4);
    }

    #[test]
    fn closed_loop_spans_hang_under_their_unit() {
        let unit = Unit { start_ns: 1, wait_start_ns: 9, end_ns: 30, first_task: 0, nr_tasks: 2 };
        // The second task started before its `spawn` returned: queued is 0.
        let log = log_with(vec![unit], vec![], &[[1, 4, 5, 6], [4, 8, 7, 20]]);
        let t = log.task_times();
        assert_eq!(t.queued_ns, vec![1, 0]);
        assert_eq!(t.latency_ns, vec![5, 16]);
        assert_eq!(log.tail_ns(), vec![21]);
        let rows = log.rows();
        assert_eq!(rows.len(), 1 + 3 * 2 + 1);
        assert_eq!((rows[0].name, rows[0].parent), ("burst", None));
        assert!(rows[1..].iter().all(|r| r.parent == Some(0)));
        assert_eq!(rows.last().unwrap().name, "join");
    }

    #[test]
    fn an_unstamped_task_is_counted_not_invented() {
        let log = log_with(vec![], vec![0, 0], &[[1, 2, 3, 4], [1, 2, 0, 0]]);
        assert_eq!(log.task_times().unstamped, 1);
        assert_eq!(log.rows().iter().filter(|r| r.name == "request").count(), 1);
    }
}

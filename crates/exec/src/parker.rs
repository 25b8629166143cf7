//! Worker parking: a token parker per worker plus the shared idle stack.
//!
//! The executor's idle protocol has two halves.  Each worker owns a
//! [`Parker`] — a one-shot token it blocks on when it runs out of work —
//! and the executor keeps an [`IdleStack`] of the workers currently
//! parked, in park order.  Producers wake workers through the stack:
//!
//! * a wakeup aimed at a specific core unparks *that* core's worker if it
//!   is on the stack (the task was seated on its runqueue, nobody else
//!   will run it);
//! * an undirected "work exists somewhere" nudge pops the **top** of the
//!   stack — last parked, first woken — so the most recently active
//!   worker (warmest cache, least likely to have been descheduled) takes
//!   the hit and long-idle workers stay asleep.  A worker may register
//!   as *resting* until some instant: nudges pass it over until then (a
//!   wakeup aimed at it does not).
//!
//! The token makes the classic publish/re-check race benign: a worker
//! *registers* on the idle stack, *re-checks* its sources, and only then
//! blocks.  A producer that enqueues after the re-check necessarily sees
//! the registration and deposits the token, so the park returns
//! immediately instead of sleeping through the wakeup.
//!
//! # Producers do not take the lock when nobody is parked
//!
//! The stack publishes its length in an atomic ([`IdleStack::any_parked`])
//! so that a producer whose enqueue finds every worker awake — every
//! submission of a saturated closed loop — pays one fence and one load of
//! a line nobody is writing, not a lock round-trip on a line everybody
//! is.  The register → re-check → block argument survives as a Dekker
//! pair of `SeqCst` fences:
//!
//! ```text
//!   worker                          producer
//!   W1  push: len = parked (store)  P1  enqueue (writes the runqueue)
//!   W2  fence(SeqCst)               P2  fence(SeqCst)
//!   W3  re-check the runqueue       P3  any_parked (load)
//! ```
//!
//! The two fences are totally ordered.  If P2 comes first, everything
//! before it — the enqueue — is visible to everything after W2, so the
//! re-check W3 finds the task and the worker does not block.  If W2 comes
//! first, the registration W1 is visible to P3, so the producer takes the
//! lock and wakes a worker exactly as it always did.  Either way the task
//! is not stranded.  W2 is the fence at the end of [`IdleStack::push`];
//! P2 is the producer's own, issued after its enqueue.

use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// A one-shot wakeup token one worker blocks on.
///
/// `unpark` deposits the token; `park_timeout` consumes it, blocking until
/// it is present or the timeout lapses.  Tokens do not accumulate: any
/// number of `unpark`s between two parks release exactly one park, which
/// is the right semantics for "there may be work, go look".
#[derive(Debug, Default)]
pub struct Parker {
    token: Mutex<bool>,
    cv: Condvar,
}

impl Parker {
    /// Creates a parker with no token deposited.
    pub fn new() -> Self {
        Parker::default()
    }

    /// Blocks until a token is deposited or `timeout` lapses, consuming
    /// the token if present.  Returns `true` if it was woken by a token,
    /// `false` on timeout.  Never blocks when the token is already there.
    pub fn park_timeout(&self, timeout: Duration) -> bool {
        let mut token = self.token.lock().expect("parker lock poisoned");
        if !*token {
            let deadline = std::time::Instant::now() + timeout;
            while !*token {
                let now = std::time::Instant::now();
                let Some(left) = deadline.checked_duration_since(now).filter(|d| !d.is_zero())
                else {
                    break;
                };
                let (guard, _) = self.cv.wait_timeout(token, left).expect("parker lock poisoned");
                token = guard;
            }
        }
        let woken = *token;
        *token = false;
        woken
    }

    /// Deposits the wakeup token and wakes the parked worker, if any.  The
    /// notification follows the unlock, so the woken worker does not wake
    /// straight into a lock its waker still holds; a park consumes the
    /// token under the lock and waits in a loop, so no wake is lost and a
    /// late notification only makes a later park look again.
    pub fn unpark(&self) {
        *self.token.lock().expect("parker lock poisoned") = true;
        self.cv.notify_one();
    }
}

/// The shared registry of parked workers, in park order (a stack): each
/// with the instant — on whatever clock the callers share — until which
/// undirected wakeups pass it over.
#[derive(Debug, Default)]
pub struct IdleStack {
    parked: Mutex<Vec<(usize, u64)>>,
    /// `parked.len()`, stored under the lock after every change and read
    /// without it by [`IdleStack::any_parked`].
    len: AtomicUsize,
}

impl IdleStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        IdleStack::default()
    }

    /// Runs `change` on the stack under the lock and republishes its length.
    fn with_parked<R>(&self, change: impl FnOnce(&mut Vec<(usize, u64)>) -> R) -> R {
        let mut parked = self.parked.lock().expect("idle stack poisoned");
        let out = change(&mut parked);
        // Relaxed: the lock orders the writers, and the one lock-free reader
        // is ordered by the fence pair (see the module docs).
        self.len.store(parked.len(), Ordering::Relaxed);
        out
    }

    /// Registers `worker` as parked (pushes it on top), resting until
    /// `rests_until` (0: not at all).  Must be called *before* the worker's
    /// final re-check of its work sources: the fence that ends this call is
    /// W2 of the module docs' ordering argument.
    pub fn push(&self, worker: usize, rests_until: u64) {
        self.with_parked(|parked| {
            debug_assert!(parked.iter().all(|&(w, _)| w != worker), "worker parked twice");
            parked.push((worker, rests_until));
        });
        fence(Ordering::SeqCst);
    }

    /// `true` if some worker is registered, read without the lock.  A
    /// producer that skips the wake path on `false` must have issued a
    /// `SeqCst` fence between its enqueue and this call (P2 of the module
    /// docs' ordering argument); without one the answer is only a hint.
    pub fn any_parked(&self) -> bool {
        !self.is_empty()
    }

    /// Deregisters `worker` wherever it sits on the stack.  Returns `true`
    /// if it was still registered — `false` means a producer already popped
    /// it (and deposited a token the worker's next park will consume).
    pub fn remove(&self, worker: usize) -> bool {
        self.with_parked(|parked| match parked.iter().position(|&(w, _)| w == worker) {
            Some(at) => {
                parked.remove(at);
                true
            }
            None => false,
        })
    }

    /// Pops the most recently parked worker that is not resting at `now`
    /// (last parked, first woken).
    pub fn pop_any(&self, now: u64) -> Option<usize> {
        self.with_parked(|parked| {
            let at = parked.iter().rposition(|&(_, rests_until)| rests_until <= now)?;
            Some(parked.remove(at).0)
        })
    }

    /// Pops `worker` specifically, if it is registered.
    pub fn pop_specific(&self, worker: usize) -> bool {
        self.remove(worker)
    }

    /// Number of currently registered workers (the published length: exact
    /// between operations, read without the lock).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// `true` when no worker is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains the whole stack, top first (shutdown wakes everyone).
    pub fn drain(&self) -> Vec<usize> {
        self.with_parked(std::mem::take).into_iter().rev().map(|(worker, _)| worker).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn a_deposited_token_makes_park_immediate() {
        let p = Parker::new();
        p.unpark();
        let start = Instant::now();
        assert!(p.park_timeout(Duration::from_secs(5)), "token was waiting");
        assert!(start.elapsed() < Duration::from_secs(1), "must not block");
        // The token was consumed: the next park times out.
        assert!(!p.park_timeout(Duration::from_millis(1)));
    }

    #[test]
    fn tokens_do_not_accumulate() {
        let p = Parker::new();
        p.unpark();
        p.unpark();
        assert!(p.park_timeout(Duration::from_millis(1)));
        assert!(!p.park_timeout(Duration::from_millis(1)), "one token, one wake");
    }

    #[test]
    fn unpark_wakes_a_blocked_parker() {
        let p = Arc::new(Parker::new());
        let p2 = Arc::clone(&p);
        let t = std::thread::spawn(move || p2.park_timeout(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        p.unpark();
        assert!(t.join().unwrap(), "woken by token, not timeout");
    }

    #[test]
    fn the_stack_wakes_last_parked_first() {
        let s = IdleStack::new();
        s.push(0, 0);
        s.push(1, 0);
        s.push(2, 0);
        assert_eq!(s.pop_any(0), Some(2));
        assert_eq!(s.pop_any(0), Some(1));
        assert!(s.pop_specific(0));
        assert!(!s.pop_specific(0), "already popped");
        assert!(s.is_empty());
    }

    #[test]
    fn undirected_wakes_pass_a_resting_worker_over_and_directed_ones_do_not() {
        let s = IdleStack::new();
        s.push(0, 0);
        s.push(1, 500);
        s.push(2, 900);
        assert_eq!(s.pop_any(100), Some(0), "the two on top are resting");
        assert_eq!(s.pop_any(100), None);
        assert!(s.any_parked(), "resting workers are parked workers");
        assert_eq!(s.pop_any(500), Some(1), "rested");
        assert!(s.pop_specific(2), "a wakeup aimed at a worker does not wait for its rest");
        assert!(s.is_empty());
    }

    #[test]
    fn the_published_length_follows_every_change() {
        let s = IdleStack::new();
        assert!(!s.any_parked());
        s.push(4, 0);
        s.push(5, 0);
        assert!(s.any_parked());
        assert!(s.remove(4));
        assert!(s.any_parked(), "5 is still registered");
        assert_eq!(s.pop_any(0), Some(5));
        assert!(!s.any_parked());
        s.push(6, 0);
        assert_eq!(s.drain(), vec![6]);
        assert!(!s.any_parked());
    }

    #[test]
    fn drain_empties_top_first() {
        let s = IdleStack::new();
        s.push(3, 0);
        s.push(7, 9);
        assert_eq!(s.drain(), vec![7, 3]);
        assert!(s.is_empty());
    }
}

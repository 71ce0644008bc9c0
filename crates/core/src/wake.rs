//! The one wake primitive every cross-thread hand-off blocks on.
//!
//! A [`Wake`] is an *eventcount*: a counter (the epoch) under a mutex
//! plus a condition variable. A consumer reads the epoch, checks its
//! sources (a queue, a flag, a log length), and only if they hold no work
//! waits until the epoch moves past what it read. A producer changes a
//! source, then calls [`Wake::notify`], which bumps the epoch and signals
//! the condition variable only if someone is parked.
//!
//! Reading the epoch *before* checking the sources is what makes the
//! pattern lose no wakeup: a notify that lands between the check and the
//! wait has already moved the epoch, so the wait returns at once. One
//! `Wake` may cover several sources (a worker's inbox, its patch queue
//! and its read completions) and be waited on by several threads; every
//! notify wakes every parked waiter, which re-checks and parks again if
//! the work was not for it.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// An eventcount: see the module documentation.
#[derive(Debug, Default)]
pub struct Wake {
    state: Mutex<State>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct State {
    /// Bumped by every notify.
    epoch: u64,
    /// Threads currently blocked in [`Wake::wait`].
    parked: usize,
}

impl Wake {
    /// A wake at epoch 0 with nobody parked.
    pub fn new() -> Wake {
        Wake::default()
    }

    /// The state is two counters that every critical section leaves
    /// consistent, so a lock poisoned by a panic elsewhere is still
    /// sound to use — and a notify from a drop guard during unwinding
    /// must not panic again.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current epoch. Read it before checking the sources a later
    /// [`Wake::wait`] covers.
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Bumps the epoch and wakes every parked waiter. The signal is sent
    /// after the lock is released, and only when a waiter is parked.
    pub fn notify(&self) {
        let parked = {
            let mut st = self.lock();
            st.epoch = st.epoch.wrapping_add(1);
            st.parked
        };
        if parked > 0 {
            self.cv.notify_all();
        }
    }

    /// Blocks until the epoch moves past `seen` or `deadline` (if any)
    /// passes. Returns at once when the epoch has already moved. Returns
    /// whether it moved: `false` means the deadline passed first.
    pub fn wait(&self, seen: u64, deadline: Option<Instant>) -> bool {
        let mut st = self.lock();
        st.parked += 1;
        while st.epoch == seen {
            st = match deadline {
                None => self.cv.wait(st).unwrap_or_else(PoisonError::into_inner),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        break;
                    }
                    self.cv
                        .wait_timeout(st, d - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
        st.parked -= 1;
        st.epoch != seen
    }

    /// Blocks until `ready` holds or `deadline` (if any) passes, checking
    /// `ready` after every notify. Returns whether `ready` held; `false`
    /// means the deadline passed first. `ready` reads the sources this
    /// wake covers; the epoch is read before each check, so no notify is
    /// lost between a failed check and the wait.
    pub fn wait_for(&self, deadline: Option<Instant>, mut ready: impl FnMut() -> bool) -> bool {
        loop {
            let seen = self.epoch();
            if ready() {
                return true;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return false;
            }
            self.wait(seen, deadline);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn notify_before_wait_returns_at_once() {
        let w = Wake::new();
        let seen = w.epoch();
        w.notify();
        // Without a deadline a lost notify would hang the test; the
        // epoch already moved, so the wait must not block at all.
        assert!(w.wait(seen, None));
        assert_eq!(w.epoch(), seen + 1);
    }

    #[test]
    fn deadline_returns_without_a_notify() {
        let w = Wake::new();
        let seen = w.epoch();
        let deadline = Instant::now() + Duration::from_millis(5);
        assert!(!w.wait(seen, Some(deadline)), "nobody notified");
        assert!(Instant::now() >= deadline);
        // A deadline already past returns at once, too.
        assert!(!w.wait(seen, Some(Instant::now())));
    }

    #[test]
    fn wait_for_rechecks_until_ready_or_deadline() {
        let w = Arc::new(Wake::new());
        let flag = Arc::new(AtomicBool::new(false));
        let setter = {
            let (w, flag) = (Arc::clone(&w), Arc::clone(&flag));
            std::thread::spawn(move || {
                // A notify with nothing ready first: the waiter re-checks
                // and parks again.
                w.notify();
                flag.store(true, Ordering::SeqCst);
                w.notify();
            })
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        assert!(w.wait_for(Some(deadline), || flag.load(Ordering::SeqCst)));
        setter.join().unwrap();
        let soon = Instant::now() + Duration::from_millis(5);
        assert!(!w.wait_for(Some(soon), || false), "never ready");
    }

    #[test]
    fn producer_consumer_stress_loses_no_wakeup() {
        const ITEMS: u64 = 100_000;
        let wake = Arc::new(Wake::new());
        let queue: Arc<Mutex<VecDeque<u64>>> = Arc::default();
        let producer = {
            let (wake, queue) = (Arc::clone(&wake), Arc::clone(&queue));
            std::thread::spawn(move || {
                for i in 0..ITEMS {
                    queue.lock().unwrap().push_back(i);
                    wake.notify();
                }
            })
        };
        // The deadline only bounds a failing run: a lost wakeup parks
        // the consumer with items still queued, and the wait then times
        // out instead of returning because the epoch moved.
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut next = 0;
        while next < ITEMS {
            let seen = wake.epoch();
            while let Some(i) = queue.lock().unwrap().pop_front() {
                assert_eq!(i, next, "items arrive in order");
                next += 1;
            }
            if next < ITEMS {
                assert!(
                    wake.wait(seen, Some(deadline)),
                    "lost wakeup: parked with {next}/{ITEMS} consumed"
                );
            }
        }
        producer.join().unwrap();
        assert_eq!(wake.lock().parked, 0);
    }
}

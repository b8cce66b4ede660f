//! In-tree synchronization primitives with `parking_lot`-style APIs.
//!
//! The workspace builds fully offline, so instead of depending on
//! `parking_lot` we wrap [`std::sync`] primitives with the same ergonomic
//! surface the rest of the codebase relies on:
//!
//! * locking never returns a `Result` — a poisoned lock (a panic while the
//!   lock was held) is recovered rather than propagated, since every
//!   protected structure here is either repaired by its owner or torn down
//!   with the test that panicked;
//! * [`Condvar`] takes `&mut MutexGuard` instead of consuming the guard;
//! * [`MutexGuard::unlocked`] temporarily releases a held lock around a
//!   closure — the pattern the network fabric uses to deliver messages
//!   without holding its queue lock.

use std::sync::{self, PoisonError};
use std::time::{Duration, Instant};

/// A mutual-exclusion primitive. Non-poisoning: `lock` always succeeds.
///
/// # Examples
///
/// ```
/// use repdir_core::sync::Mutex;
///
/// let m = Mutex::new(5);
/// *m.lock() += 1;
/// assert_eq!(*m.lock(), 6);
/// ```
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available. Never fails: a poisoned
    /// lock is recovered.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            mutex: &self.inner,
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }
}

/// RAII guard for [`Mutex`]; the lock is released on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a sync::Mutex<T>,
    /// Always `Some` except transiently inside [`MutexGuard::unlocked`] and
    /// [`Condvar`] waits, which hand the std guard back and forth.
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<'a, T: ?Sized> MutexGuard<'a, T> {
    /// Temporarily unlocks the mutex, runs `f`, then re-locks.
    ///
    /// This mirrors `parking_lot::MutexGuard::unlocked`: useful when a
    /// computation must not run under the lock (e.g. delivering a message
    /// that may re-enter the lock).
    pub fn unlocked<U>(guard: &mut MutexGuard<'a, T>, f: impl FnOnce() -> U) -> U {
        guard.inner = None;
        let result = f();
        guard.inner = Some(guard.mutex.lock().unwrap_or_else(PoisonError::into_inner));
        result
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard holds the lock")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard holds the lock")
    }
}

/// Whether a [`Condvar`] wait ended by timeout rather than notification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// `true` if the wait ended because the deadline passed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable operating on [`MutexGuard`]s by mutable reference.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Blocks until notified. Spurious wakeups are possible, as with any
    /// condition variable: re-check the predicate.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard holds the lock");
        guard.inner = Some(
            self.inner
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner),
        );
    }

    /// Blocks until notified or `deadline` passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let timeout = deadline.saturating_duration_since(Instant::now());
        self.wait_for(guard, timeout)
    }

    /// Blocks until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.inner.take().expect("guard holds the lock");
        let (inner, result) = match self.inner.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(p) => {
                let (g, r) = p.into_inner();
                (g, r)
            }
        };
        guard.inner = Some(inner);
        WaitTimeoutResult {
            timed_out: result.timed_out(),
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_basic_exclusion() {
        let m = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = Arc::clone(&m);
            handles.push(thread::spawn(move || {
                for _ in 0..1000 {
                    *m.lock() += 1;
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 8000);
    }

    #[test]
    fn mutex_survives_panic_while_held() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        // Non-poisoning: the value is still reachable.
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn guard_unlocked_releases_and_reacquires() {
        let m = Arc::new(Mutex::new(0));
        let mut guard = m.lock();
        let m2 = Arc::clone(&m);
        MutexGuard::unlocked(&mut guard, move || {
            // The lock must be free here: this would deadlock otherwise.
            *m2.lock() = 5;
        });
        assert_eq!(*guard, 5);
        *guard = 6;
        drop(guard);
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn condvar_wakeup() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let h = thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut ready = lock.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
            42
        });
        thread::sleep(Duration::from_millis(20));
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_one();
        }
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn condvar_wait_until_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(10));
        assert!(res.timed_out());
        // A deadline in the past times out immediately.
        let res = cv.wait_until(&mut g, Instant::now() - Duration::from_secs(1));
        assert!(res.timed_out());
    }

    #[test]
    fn condvar_wait_for_delivery_beats_timeout() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let h = thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut done = lock.lock();
            let mut timed_out = false;
            while !*done {
                timed_out = cv.wait_for(&mut done, Duration::from_secs(5)).timed_out();
                if timed_out {
                    break;
                }
            }
            timed_out
        });
        thread::sleep(Duration::from_millis(20));
        let (lock, cv) = &*pair;
        *lock.lock() = true;
        cv.notify_all();
        assert!(!h.join().unwrap(), "notified well before the 5s deadline");
    }
}

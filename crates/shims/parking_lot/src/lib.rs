//! Offline, API-compatible subset of `parking_lot`, backed by `std::sync`.
//!
//! Provides the panic-free-guard flavour of `Mutex`/`RwLock` (locking never
//! returns a `Result`; a poisoned std lock is recovered transparently, which
//! matches `parking_lot`'s behaviour of not having poisoning at all) plus the
//! `Condvar` API the serving runtime's batch former uses.

#![forbid(unsafe_code)]

use std::sync::{self, PoisonError};
use std::time::Duration;

/// A mutual exclusion primitive whose `lock` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// RAII guard for [`Mutex`]. Wraps the std guard in an `Option` so
/// [`Condvar::wait`] can temporarily take ownership the way std requires.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Self {
        Self(sync::Mutex::new(value))
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(MutexGuard(Some(guard))),
            Err(sync::TryLockError::Poisoned(poison)) => {
                Some(MutexGuard(Some(poison.into_inner())))
            }
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.0.as_deref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_deref_mut().expect("guard present outside wait")
    }
}

/// A reader–writer lock whose guards are returned directly.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Create a new lock.
    pub const fn new(value: T) -> Self {
        Self(sync::RwLock::new(value))
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard.
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire an exclusive write guard.
    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Result of a timed [`Condvar::wait_for`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed.
    #[must_use]
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable usable with this crate's [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Self(sync::Condvar::new())
    }

    /// Block until notified, releasing the guard while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard present before wait");
        let inner = self.0.wait(inner).unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(inner);
    }

    /// Block until notified or until `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.0.take().expect("guard present before wait");
        let (inner, result) = self
            .0
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(inner);
        WaitTimeoutResult(result.timed_out())
    }

    /// Wake one waiter.
    #[allow(
        clippy::disallowed_methods,
        reason = "the wrapper is not a call site: the rule applies to its callers"
    )]
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_roundtrip() {
        let l = RwLock::new(5);
        assert_eq!(*l.read(), 5);
        *l.write() = 6;
        assert_eq!(l.into_inner(), 6);
    }

    #[test]
    #[allow(clippy::disallowed_methods, reason = "one waiter on one predicate")]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let handle = std::thread::spawn(move || {
            let (lock, cvar) = &*pair2;
            let mut started = lock.lock();
            while !*started {
                cvar.wait(&mut started);
            }
        });
        {
            let (lock, cvar) = &*pair;
            *lock.lock() = true;
            cvar.notify_one();
        }
        handle.join().unwrap();
    }

    #[test]
    fn condvar_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut guard = m.lock();
        let start = Instant::now();
        let result = cv.wait_for(&mut guard, Duration::from_millis(10));
        assert!(result.timed_out());
        assert!(start.elapsed() >= Duration::from_millis(5));
    }
}

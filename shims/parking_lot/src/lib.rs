//! Minimal, API-compatible stand-in for the `parking_lot` crate.
//!
//! The build container has no access to crates.io, so this shim provides the
//! subset of the `parking_lot` API the workspace actually uses — `Mutex` and
//! `Condvar` with non-poisoning, infallible operations — backed by
//! `std::sync`.  Poisoning is translated into the `parking_lot` behaviour
//! of simply handing out the guard (a panic while holding one of these locks
//! only ever happens after the protected data is back in a consistent state
//! in this codebase).
//!
//! Replace the `parking_lot` entry in the workspace `Cargo.toml` with the real
//! crates.io dependency to drop this shim; no source changes are needed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Deref, DerefMut};
use std::sync;

/// A mutual-exclusion lock with `parking_lot`'s infallible API.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// The guard returned by [`Mutex::lock`].
///
/// Wraps the `std` guard in an `Option` so [`Condvar::wait`] can briefly take
/// ownership of it through a `&mut` reference, matching `parking_lot`'s
/// `wait(&mut guard)` signature.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_deref().expect("guard vacated only inside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_deref_mut().expect("guard vacated only inside Condvar::wait")
    }
}

impl<T> Mutex<T> {
    /// Create a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Consume the mutex and return the protected value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(sync::PoisonError::into_inner)))
    }
}

/// A condition variable with `parking_lot`'s `wait(&mut guard)` API.
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Atomically release the guarded lock and block until notified; the lock
    /// is re-acquired (into the same guard) before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard vacated only inside Condvar::wait");
        let reacquired = self.0.wait(inner).unwrap_or_else(sync::PoisonError::into_inner);
        guard.0 = Some(reacquired);
    }

    /// Wake one waiting thread.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wake all waiting threads.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn condvar_hands_the_lock_back_to_the_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let waiter = std::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut ready = lock.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
            *ready
        });
        std::thread::sleep(Duration::from_millis(20));
        let (lock, cv) = &*pair;
        *lock.lock() = true;
        cv.notify_all();
        assert!(waiter.join().unwrap());
    }
}

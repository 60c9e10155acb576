//! The one poison rule for every lock in the workspace.
//!
//! A `std` lock is poisoned when a thread panics while holding it. Panicking
//! on poison would turn that one panicked call into a panic for every later
//! caller, so every `Mutex`, `RwLock` and `Condvar` call goes through here
//! (`clippy.toml` rejects the `std` methods elsewhere), and each lock's doc
//! comment states its class:
//!
//! - **valid at every unwind point**: its sections make single collection
//!   operations and call no user code mid-update, so [`lock`], [`read`],
//!   [`write()`], [`wait`] and [`wait_timeout`] take a poisoned guard as is;
//! - **soft state** (a cache, a policy, idle connections): data a restart
//!   would rebuild. [`lock_or_reset`] resets it once and clears the poison.
#![allow(clippy::disallowed_methods)]

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::sync::{RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult};
use std::time::Duration;

/// Locks `m`, taking a poisoned guard as is.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `l`, taking a poisoned guard as is.
pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `l`, taking a poisoned guard as is.
pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cv`, taking the guard back as is.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cv` for at most `dur`, taking the guard back as is.
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    cv.wait_timeout(guard, dur)
        .unwrap_or_else(PoisonError::into_inner)
}

/// Locks soft state: on poison, `reset` (which must not panic) puts the
/// data back as a restart would have it, and the poison is cleared.
pub fn lock_or_reset<T: ?Sized>(m: &Mutex<T>, reset: impl FnOnce(&mut T)) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        let mut guard = poisoned.into_inner();
        reset(&mut guard);
        m.clear_poison();
        guard
    })
}

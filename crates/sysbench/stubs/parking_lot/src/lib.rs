//! Std-only stand-in for the subset of `parking_lot` the product crates use:
//! `Mutex`, `Condvar` and a reader-preferring `RwLock` with `read_recursive`.
//!
//! Locks never poison, as in the published crate. The `RwLock` admits a
//! reader whenever no writer *holds* the lock, so a thread may re-enter
//! `read_recursive` while a writer waits — the engine relies on that.

use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};

fn unpoison<G>(r: Result<G, PoisonError<G>>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// Holds `None` only while `Condvar::wait` has handed the std guard over.
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(unpoison(self.0.lock())))
    }

    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.0.get_mut())
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0
            .as_ref()
            .expect("guard is only empty inside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0
            .as_mut()
            .expect("guard is only empty inside Condvar::wait")
    }
}

#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let held = guard
            .0
            .take()
            .expect("guard is only empty inside Condvar::wait");
        guard.0 = Some(unpoison(self.0.wait(held)));
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// Who is inside the lock. The std `RwLock` behind it holds the data and is
/// only entered once this gate has admitted the caller, so it never blocks
/// and its own writer preference never comes into play.
#[derive(Debug, Default)]
struct Gate {
    state: sync::Mutex<GateState>,
    freed: sync::Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    readers: usize,
    writer: bool,
}

impl Gate {
    fn enter_read(&self) {
        let mut st = unpoison(self.state.lock());
        while st.writer {
            st = unpoison(self.freed.wait(st));
        }
        st.readers += 1;
    }

    fn enter_write(&self) {
        let mut st = unpoison(self.state.lock());
        while st.writer || st.readers > 0 {
            st = unpoison(self.freed.wait(st));
        }
        st.writer = true;
    }
}

struct ReadPass<'a>(&'a Gate);

impl Drop for ReadPass<'_> {
    fn drop(&mut self) {
        let mut st = unpoison(self.0.state.lock());
        st.readers -= 1;
        if st.readers == 0 {
            self.0.freed.notify_all();
        }
    }
}

struct WritePass<'a>(&'a Gate);

impl Drop for WritePass<'_> {
    fn drop(&mut self) {
        unpoison(self.0.state.lock()).writer = false;
        self.0.freed.notify_all();
    }
}

#[derive(Debug, Default)]
pub struct RwLock<T> {
    gate: Gate,
    data: sync::RwLock<T>,
}

// Field order matters in both guards: the std guard is released before the
// gate lets the next thread in.
pub struct RwLockReadGuard<'a, T> {
    data: sync::RwLockReadGuard<'a, T>,
    _pass: ReadPass<'a>,
}

pub struct RwLockWriteGuard<'a, T> {
    data: sync::RwLockWriteGuard<'a, T>,
    _pass: WritePass<'a>,
}

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        RwLock {
            gate: Gate::default(),
            data: sync::RwLock::new(value),
        }
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.gate.enter_read();
        RwLockReadGuard {
            data: unpoison(self.data.read()),
            _pass: ReadPass(&self.gate),
        }
    }

    /// Same as `read`: this lock never makes a reader queue behind a waiting writer.
    pub fn read_recursive(&self) -> RwLockReadGuard<'_, T> {
        self.read()
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.gate.enter_write();
        RwLockWriteGuard {
            data: unpoison(self.data.write()),
            _pass: WritePass(&self.gate),
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        unpoison(self.data.get_mut())
    }
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.data
    }
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.data
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.data
    }
}

//! Minimal SIGTERM/SIGINT latch, so an operator `kill` (or Ctrl-C) takes
//! the orderly shutdown path: drain, seal the WAL segment, emit the final
//! [`RunReport`](strip_core::report::RunReport). `kill -9` stays the only
//! lossy way to stop `stripd` — and even that loses nothing the ack
//! barrier has confirmed.
//!
//! No `libc` crate: the two `signal(2)` registrations are raw FFI, and the
//! handler body does the only thing that is async-signal-safe — store a
//! relaxed atomic flag. A watcher (the `stripd` main thread) polls the
//! flag and triggers the same shutdown path a wire shutdown frame takes.

#![expect(
    unsafe_code,
    reason = "the two raw signal(2) registrations; the handler only stores an atomic flag"
)]

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the handler when SIGTERM or SIGINT has been delivered.
static TERMINATED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" {
    // POSIX signal(2). Takes and returns a handler address (or SIG_ERR =
    // usize::MAX); the kernel only ever calls the address we pass in.
    fn signal(signum: i32, handler: usize) -> usize;
}

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    // Async-signal-safe: one relaxed atomic store, nothing else. The
    // watcher thread owns every consequence.
    TERMINATED.store(true, Ordering::Relaxed);
}

/// Installs the SIGTERM/SIGINT latch. Idempotent; returns `false` when
/// the OS refused a registration (the process still runs, signals just
/// keep their default disposition). On non-Unix targets this is a no-op
/// returning `false`.
pub fn install() -> bool {
    #[cfg(unix)]
    {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        const SIG_ERR: usize = usize::MAX;
        // SAFETY: `on_signal` is an `extern "C" fn(i32)` whose body is a
        // single relaxed store to a static AtomicBool — async-signal-safe
        // per POSIX. The handler address stays valid for the life of the
        // process (it is a function item, not a closure), and signal(2)
        // itself has no memory-safety preconditions beyond that.
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        // SAFETY: see above — the handler is async-signal-safe and its
        // address outlives the process.
        let a = unsafe { signal(SIGTERM, handler) };
        // SAFETY: as above.
        let b = unsafe { signal(SIGINT, handler) };
        a != SIG_ERR && b != SIG_ERR
    }
    #[cfg(not(unix))]
    {
        false
    }
}

/// Whether SIGTERM or SIGINT has been delivered since [`install`].
#[must_use]
pub fn terminated() -> bool {
    TERMINATED.load(Ordering::Relaxed)
}

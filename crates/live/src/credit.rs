//! Credit-window accounting for the update path, extracted from the
//! per-connection server state so the grant arithmetic is a pure,
//! separately testable value type: `tests/loom_spsc.rs` drives this
//! exact code (not a copy) against real SPSC rings under the model
//! checker, and `server.rs` wires it to sockets.
//!
//! Protocol recap (DESIGN.md §7): a client sends `CreditRequest`, the
//! server grants window in `Credit` frames, and the client may have at
//! most `granted - received` updates in flight. An update past the window
//! is refused. The server computes grants from *ring occupancy* — the
//! ring's capacity minus the updates in it ([`InFlight`]) and minus the
//! still-unspent window — so an update inside the window always finds a
//! free ring slot. Credit counts updates while a slot holds a frame's
//! block of them; a block holds at least one, so a ring with room for
//! `capacity` updates has room for their blocks.

use std::collections::VecDeque;

/// Cumulative counters of one connection's credit window. Both counters
/// are monotonic and `received <= granted` always holds; the type is
/// deliberately clock- and I/O-free.
#[derive(Debug, Default)]
pub struct CreditWindow {
    /// Updates this connection has spent window on.
    received: u64,
    /// Cumulative credit granted; 0 until the first `CreditRequest`.
    granted: u64,
}

impl CreditWindow {
    /// A fresh window: nothing received, nothing granted.
    #[must_use]
    pub fn new() -> CreditWindow {
        CreditWindow::default()
    }

    /// Spends one unit of window on an arriving update. Returns false, and
    /// records nothing, when every granted unit is already spent — a
    /// session that never asked for credit has none to spend.
    #[must_use]
    pub fn on_update(&mut self) -> bool {
        if self.received == self.granted {
            return false;
        }
        self.received += 1;
        true
    }

    /// True when every granted unit is spent: the client's stream would
    /// stall until the next grant.
    #[must_use]
    pub fn starved(&self) -> bool {
        self.received == self.granted
    }

    /// Window the server can grant right now given the ring's free slots,
    /// without risking a ring overrun: `granted - received` is what the
    /// client may still send, and a new grant on top of it must fit in
    /// `free`.
    #[must_use]
    pub fn grantable(&self, free: u64) -> u64 {
        free.saturating_sub(self.granted - self.received)
    }

    /// Records a grant sent to the client.
    pub fn record_grant(&mut self, grant: u64) {
        self.granted += grant;
    }
}

/// Updates in a session's ring, counted from its producer side: the
/// lengths of the blocks pushed, retired against the ring's consumer
/// cursor (`Producer::consumed`, blocks popped). Adds no shared state.
#[derive(Debug, Default)]
pub struct InFlight {
    /// Lengths of the pushed blocks not yet known to be popped, oldest
    /// first.
    lengths: VecDeque<u64>,
    /// Blocks known to be popped.
    retired_blocks: u64,
    /// Updates ever pushed.
    pushed: u64,
    /// Updates in the blocks known to be popped.
    retired: u64,
}

impl InFlight {
    /// Nothing pushed.
    #[must_use]
    pub fn new() -> InFlight {
        InFlight::default()
    }

    /// Records a block of `len` updates pushed into the ring.
    pub fn on_push(&mut self, len: u64) {
        self.lengths.push_back(len);
        self.pushed += len;
    }

    /// Updates pushed and not yet popped, given the ring's count of
    /// blocks popped. A stale count under-estimates the pops, so the
    /// result can only be too high, never too low.
    pub fn updates(&mut self, blocks_popped: u64) -> u64 {
        while self.retired_blocks < blocks_popped {
            let Some(len) = self.lengths.pop_front() else {
                break;
            };
            self.retired_blocks += 1;
            self.retired += len;
        }
        self.pushed - self.retired
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn a_window_never_granted_refuses_every_update() {
        let mut w = CreditWindow::new();
        assert!(w.starved(), "zero granted, zero spent");
        assert!(!w.on_update());
        assert!(w.starved(), "a refused update spends nothing");
        assert_eq!(w.grantable(64), 64);
        assert_eq!(w.grantable(0), 0);
    }

    #[test]
    fn unspent_window_reduces_the_grant() {
        let mut w = CreditWindow::new();
        w.record_grant(8);
        // 8 granted, 0 spent: 8 in-flight rights; only 12 - 8 = 4 more fit.
        assert_eq!(w.grantable(12), 4);
        for _ in 0..8 {
            assert!(w.on_update());
        }
        // All spent (occupying 8 slots, reflected in `free` by the
        // caller): grantable is whatever the rings still have free, and
        // a ninth update is refused.
        assert!(w.starved());
        assert!(!w.on_update());
        assert_eq!(w.grantable(4), 4);
    }

    #[test]
    fn in_flight_retires_whole_blocks_in_push_order() {
        let mut f = InFlight::new();
        assert_eq!(f.updates(0), 0);
        for len in [3, 1, 2] {
            f.on_push(len);
        }
        assert_eq!(f.updates(0), 6);
        assert_eq!(f.updates(1), 3, "the first block held three");
        assert_eq!(f.updates(1), 3, "a repeated count retires nothing");
        assert_eq!(f.updates(3), 0);
        f.on_push(4);
        assert_eq!(f.updates(3), 4);
        assert_eq!(f.updates(4), 0);
    }

    #[test]
    fn grant_spend_cycles_never_exceed_capacity() {
        let cap = 16u64;
        let mut w = CreditWindow::new();
        let mut occupied = 0u64; // slots held by in-flight updates
        for _ in 0..100 {
            let grant = w.grantable(cap - occupied);
            w.record_grant(grant);
            // Client spends the whole grant.
            for _ in 0..grant {
                assert!(w.on_update());
                occupied += 1;
                assert!(occupied <= cap, "grant overran the ring");
            }
            // Consumer drains half.
            occupied -= occupied / 2;
        }
    }
}

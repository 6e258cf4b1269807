//! Credit-window accounting for the batched ingest path, extracted from
//! the per-connection server state so the grant arithmetic is a pure,
//! separately testable value type: `tests/loom_spsc.rs` drives this
//! exact code (not a copy) against real SPSC rings under the model
//! checker, and `server.rs` wires it to sockets.
//!
//! Protocol recap (DESIGN.md §13): a client that sends `CreditRequest`
//! opts into flow control; the server grants window in `Credit` frames
//! and the client may have at most `granted - spent` updates in flight.
//! The server computes grants from *ring occupancy* — the ring's free
//! slots minus the still-unspent window — so a credited
//! client can never push into a full ring, even when uncredited updates
//! (pushed before the opt-in) still occupy slots.

/// Cumulative counters of one connection's credit window. All counters
/// are monotonic; the type is deliberately clock- and I/O-free.
#[derive(Debug, Default)]
pub struct CreditWindow {
    /// Updates this connection has pushed into the rings.
    received: u64,
    /// Cumulative credit granted; stays 0 until the client opts in.
    granted: u64,
    /// `received` at the instant the client opted into flow control:
    /// updates pushed before that never consumed credit and must not
    /// count as spent window.
    pre_credit: u64,
    /// Whether the client opted into credit-based flow control.
    credited: bool,
}

impl CreditWindow {
    /// A fresh window: nothing received, nothing granted, not opted in.
    #[must_use]
    pub fn new() -> CreditWindow {
        CreditWindow::default()
    }

    /// Records one update pushed into a ring.
    pub fn on_update(&mut self) {
        self.received += 1;
    }

    /// Opts the client into flow control. Updates already pushed are
    /// fenced out of the spent-credit arithmetic — they drew no credit.
    pub fn opt_in(&mut self) {
        self.credited = true;
        self.pre_credit = self.received;
    }

    /// Whether the client opted into flow control.
    #[must_use]
    pub fn is_credited(&self) -> bool {
        self.credited
    }

    /// Total updates pushed through this connection.
    #[must_use]
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Credit actually used since the opt-in.
    #[must_use]
    pub fn spent(&self) -> u64 {
        debug_assert!(
            self.pre_credit <= self.received,
            "credit window opted in ahead of the updates it excludes \
             (pre_credit {} > received {})",
            self.pre_credit,
            self.received
        );
        self.received.saturating_sub(self.pre_credit)
    }

    /// True when every granted unit is spent: the client's stream would
    /// stall until the next grant.
    #[must_use]
    pub fn starved(&self) -> bool {
        self.granted == self.spent()
    }

    /// Window the server can grant right now given the ring's free slots,
    /// without risking a ring overrun.
    ///
    /// `granted - spent` is what the client may still use; a new grant
    /// on top of it must fit in `free`, so the grant is `free - unspent`. Both invariants are debug-asserted; release
    /// builds clamp instead of masking drift with wrapping subtraction.
    #[must_use]
    pub fn grantable(&self, free: u64) -> u64 {
        let spent = self.spent();
        debug_assert!(
            spent <= self.granted || !self.credited,
            "client overran its credit window: spent {spent}, granted {}",
            self.granted
        );
        let unspent = self.granted.saturating_sub(spent);
        free.saturating_sub(unspent)
    }

    /// Records a grant sent to the client.
    pub fn record_grant(&mut self, grant: u64) {
        self.granted += grant;
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn uncredited_window_grants_whatever_is_free() {
        let w = CreditWindow::new();
        assert!(!w.is_credited());
        assert_eq!(w.grantable(64), 64);
        assert_eq!(w.grantable(0), 0);
    }

    #[test]
    fn pre_credit_fences_out_early_pushes() {
        let mut w = CreditWindow::new();
        for _ in 0..10 {
            w.on_update();
        }
        w.opt_in();
        // Nothing spent yet: the 10 early pushes drew no credit.
        assert_eq!(w.spent(), 0);
        assert!(w.starved(), "zero granted, zero spent");
        // A full ring (0 free) grants nothing regardless.
        assert_eq!(w.grantable(0), 0);
    }

    #[test]
    fn unspent_window_reduces_the_grant() {
        let mut w = CreditWindow::new();
        w.opt_in();
        w.record_grant(8);
        // 8 granted, 0 spent: 8 in-flight rights; only 12 - 8 = 4 more fit.
        assert_eq!(w.grantable(12), 4);
        for _ in 0..8 {
            w.on_update();
        }
        // All spent (occupying 8 slots, reflected in min_free by the
        // caller): grantable is whatever the rings still have free.
        assert_eq!(w.spent(), 8);
        assert!(w.starved());
        assert_eq!(w.grantable(4), 4);
    }

    #[test]
    fn grant_spend_cycles_never_exceed_capacity() {
        let cap = 16u64;
        let mut w = CreditWindow::new();
        w.opt_in();
        let mut occupied = 0u64; // slots held by in-flight updates
        for _ in 0..100 {
            let grant = w.grantable(cap - occupied);
            w.record_grant(grant);
            // Client spends the whole grant.
            for _ in 0..grant {
                w.on_update();
                occupied += 1;
                assert!(occupied <= cap, "grant overran the ring");
            }
            // Consumer drains half.
            occupied -= occupied / 2;
        }
    }
}

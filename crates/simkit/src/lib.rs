//! `strip-sim` — a small, deterministic discrete-event simulation kernel.
//!
//! This crate replaces the DeNet simulation language used in the original
//! SIGMOD 1995 study "Applying Update Streams in a Soft Real-Time Database
//! System". It provides exactly the facilities a detailed event-driven
//! performance model needs and nothing else:
//!
//! * [`time::SimTime`] — a totally ordered simulated clock.
//! * [`event::EventQueue`] — a stable (FIFO tie-breaking) future-event list.
//!   The run loop is the model's own: `strip-core`'s `Controller` pops
//!   its calendar and handles each event.
//! * [`rng`] — self-contained, cross-platform deterministic generators
//!   (SplitMix64 seeding, xoshiro256++ sampling, named sub-streams).
//! * [`dist`] — the distributions the paper's workload model requires.
//! * [`stats`] — exact time-weighted integrals (for staleness fractions)
//!   and one-pass mean/variance.
//!
//! # Example
//!
//! A run loop over the calendar: each ping schedules the next one a
//! second later, and the loop stops at the horizon.
//!
//! ```
//! use strip_sim::event::EventQueue;
//! use strip_sim::time::SimTime;
//!
//! let horizon = SimTime::from_secs(10.0);
//! let mut calendar = EventQueue::new();
//! calendar.schedule(SimTime::ZERO, "ping");
//! let mut pings = 0;
//! while let Some((now, event)) = calendar.pop() {
//!     if now > horizon {
//!         break;
//!     }
//!     pings += 1;
//!     calendar.schedule(now + 1.0, event);
//! }
//! assert_eq!(pings, 11); // t = 0, 1, ..., 10
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod dist;
pub mod event;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::{ClampedNormal, Distribution, Exponential, Normal, Uniform, Zipf};
pub use event::EventQueue;
pub use rng::{SplitMix64, Xoshiro256pp};
pub use stats::{TimeWeighted, Welford};
pub use time::SimTime;

//! # daos-sim — deterministic discrete-event simulation kernel
//!
//! A single-threaded async executor driven by a *virtual* clock. Simulated
//! components are written as ordinary `async` functions that await timers
//! (`Sim::sleep`), resources ([`Pipe`], [`Semaphore`]) and messages
//! ([`ReplySlots`], [`Mailbox`]); the executor advances virtual time from one
//! scheduled event to the next, so a simulation of hours of I/O runs in
//! milliseconds of host time and is *bit-for-bit deterministic* for a given
//! seed.
//!
//! The kernel is intentionally small: everything domain-specific (storage
//! media, fabrics, servers) lives in higher crates and is expressed with the
//! primitives here.
//!
//! ```
//! use daos_sim::{Sim, SimTime};
//!
//! let mut sim = Sim::new(42);
//! let out = sim.block_on(|sim| async move {
//!     sim.sleep_us(5).await;
//!     sim.now()
//! });
//! assert_eq!(out, SimTime::from_us(5));
//! ```

// The kernel is the one sanctioned entry point for `unsafe` (every other
// workspace crate carries `forbid`): relaxing this to a local `allow`
// requires a per-block `// SAFETY:` comment, which the `simlint` D05 gate
// enforces. DESIGN.md lists the sites.
#![deny(unsafe_code)]

pub mod executor;
pub mod fault;
pub mod join;
pub mod pipe;
pub mod stats;
pub mod sync;
pub mod time;
mod timers;
pub mod units;

pub use executor::{JoinHandle, Sim};
pub use fault::{select2, timeout, Either, FaultAction, FaultInjector, FaultPlan};
pub use join::join_inline;
pub use pipe::{Pipe, SharedPipe};
pub use stats::PercentileSketch;
pub use sync::{Mailbox, ReplySlots, Semaphore, SemaphorePermit};
pub use time::{SimDuration, SimTime};

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
// workspace crate carries `forbid`): a local `allow` states its reason, and
// each `unsafe` block needs its own `// SAFETY:` comment (D05). DESIGN.md
// lists the sites.
#![deny(unsafe_code, clippy::undocumented_unsafe_blocks)]
// P01: nothing on a simulated path panics. A site that cannot fail says
// why in `#[expect(clippy::…, reason = "INVARIANT: …")]`; tests may panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

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

//! # daos-raft — the consensus substrate of the DAOS pool service
//!
//! DAOS's control plane ("a RAFT-based consensus algorithm for distributed,
//! transactional indexing" — paper §I) replicates pool and container
//! metadata across engine ranks. This crate is a complete, self-contained
//! RAFT implementation:
//!
//! * leader election with randomised timeouts,
//! * log replication with conflict back-off,
//! * commit-index advancement restricted to the current term (figure 8 of
//!   the RAFT paper),
//! * log compaction and snapshot installation for lagging followers.
//!
//! The design follows the tick/step style of production libraries: the node
//! is a *pure state machine*. [`Raft::tick`] advances logical time,
//! [`Raft::step`] consumes one message; both return the messages to send.
//! Nothing here does I/O, which makes the implementation deterministic and
//! property-testable ([`testing`] provides a simulated lossy network), and
//! lets `daos-core` drive replicas inside the discrete-event simulation.
//!
//! Membership is fixed at construction (the DAOS pool-service replica set
//! is chosen at pool format time; reconfiguration is an administrative
//! operation outside our scope).

// No `unsafe` may enter the workspace outside the audited kernel
// crate (`daos-sim`, which denies `clippy::undocumented_unsafe_blocks`).
#![forbid(unsafe_code)]
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

mod log;
mod node;
pub mod testing;

pub use crate::log::{Entry, Log, Snapshot};
pub use node::{Apply, Config, Envelope, Message, NotLeader, Raft, Role};

/// Identifier of a RAFT replica (an engine rank in DAOS).
pub type NodeId = u64;
/// Election term.
pub type Term = u64;
/// Log position (1-based; 0 means "nothing").
pub type Index = u64;

//! # daos-core — the DAOS engine, pool service and client library
//!
//! This crate is the simulated equivalent of `daos_engine` + `libdaos`:
//!
//! * [`engine`] — a DAOS server process: per-target service streams
//!   (xstreams) executing VOS operations against storage media, fed by an
//!   OFI-style RPC endpoint.
//! * [`pool`] — the pool service: pool/container metadata replicated with
//!   RAFT across a replica set of engines (the paper's "RAFT-based
//!   consensus algorithm for distributed, transactional indexing").
//!   Control-plane operations (connect, container create/open/destroy) are
//!   proposed to the leader and acknowledged only once committed.
//! * [`client`] — `libdaos` for applications: pool/container handles and
//!   object APIs (key-value and byte-array) that compute placement
//!   client-side and talk straight to the engines holding each shard.
//! * [`cluster`] — a testbed builder wiring fabric, engines, media and the
//!   pool service together (defaults model NEXTGenIO: 8 dual-engine
//!   servers, Optane DCPMM, 100 Gb/s fabric).
//!
//! Everything above the fabric is real protocol logic; only hardware time
//! is simulated.

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

pub mod client;
pub mod cluster;
pub mod engine;
pub mod pool;
pub mod proto;
pub mod qos;
pub mod rebuild;

pub use client::{
    ArrayHandle, ContainerHandle, DampStats, DaosClient, KvHandle, ObjectHandle, PoolHandle,
    RetryPolicy,
};
pub use cluster::{Cluster, ClusterConfig, CorruptionStats};
pub use engine::{AdmissionStats, Engine, EngineConfig, TenantStats};
pub use pool::{HeartbeatConfig, PoolOp, PoolState};
pub use proto::{DaosError, Request, Response, TargetRun};
pub use qos::{QosClass, QosParams, BG_TENANT};
pub use rebuild::{CorruptionReport, RebuildStats};

/// Container id within a pool.
pub type ContId = u64;

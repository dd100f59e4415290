//! Workspace-level integration tests live in `tests/tests/`; this crate
//! has no library code of its own.

// No `unsafe` may enter the workspace outside the audited kernel
// crate (`daos-sim`, which denies `clippy::undocumented_unsafe_blocks`).
#![forbid(unsafe_code)]

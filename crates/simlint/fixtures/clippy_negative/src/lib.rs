//! One planted violation per rule that clippy enforces. Each item breaks
//! exactly one rule; the comment names the lint that must fire.

// the deny sets of the workspace crate roots: D05 as in `daos-sim`, P01 as
// in every simulation-visible crate
#![deny(clippy::undocumented_unsafe_blocks)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::cell::RefCell;
use std::future::Future;

/// D01 — `clippy::disallowed_types`
pub fn d01() -> usize {
    std::collections::HashMap::<u32, u32>::new().len()
}

/// D02 — `clippy::disallowed_methods`
pub fn d02() -> std::time::Instant {
    std::time::Instant::now()
}

/// D04 — `clippy::disallowed_methods`
pub fn d04() {
    std::thread::spawn(|| ());
}

/// D05 — `clippy::undocumented_unsafe_blocks`
pub fn d05(x: &u8) -> u8 {
    let p: *const u8 = x;
    unsafe { *p }
}

/// P01 — `clippy::unwrap_used`
pub fn p01(x: Option<u8>) -> u8 {
    x.unwrap()
}

/// A01 — `clippy::await_holding_refcell_ref`
pub async fn a01(c: &RefCell<u8>, step: impl Future<Output = ()>) {
    let guard = c.borrow_mut();
    step.await;
    drop(guard);
}

/// D00, a stale waiver — `unfulfilled_lint_expectations`
#[expect(clippy::unwrap_used, reason = "there is no unwrap here")]
pub fn d00_stale(x: Option<u8>) -> u8 {
    x.unwrap_or(0)
}

/// D00, a waiver with no reason — `clippy::allow_attributes_without_reason`
#[allow(dead_code)]
fn d00_reasonless() {}

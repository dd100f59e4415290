//! Names no dependency: the one `[dependencies]` entry of this crate is
//! unused.

/// Something for the crate to hold.
pub fn answer() -> u32 {
    42
}

//! Byte-size and bandwidth units shared across the stack.
//!
//! Besides the raw constants and [`Bandwidth`], this module is the
//! *blessed conversion boundary* for the U01 unit-safety rule (the one
//! determinism-contract rule `simlint` checks rather than clippy):
//! the [`Bytes`] / [`Nanos`] / [`Gibps`] newtypes carry their unit in
//! the type, and every cross-unit cast in the workspace is supposed to
//! route through here. The typed entry points delegate to the exact
//! same float operations as their raw twins ([`Bandwidth::ns_for`],
//! [`Bandwidth::as_gib_per_sec`]), so converting a call site is
//! bit-identical — the committed bench baselines prove it.

use crate::time::SimDuration;

/// 1 KiB in bytes.
pub const KIB: u64 = 1 << 10;
/// 1 MiB in bytes.
pub const MIB: u64 = 1 << 20;
/// 1 GiB in bytes.
pub const GIB: u64 = 1 << 30;
/// 1 TiB in bytes.
pub const TIB: u64 = 1 << 40;

/// A transfer rate in bytes per (simulated) second.
///
/// Stored as a float rate; conversions to per-byte costs round *up* so a
/// finite bandwidth never yields a free transfer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bandwidth(pub f64);

impl Bandwidth {
    #[inline]
    pub fn bytes_per_sec(b: f64) -> Self {
        assert!(b > 0.0, "bandwidth must be positive");
        Bandwidth(b)
    }
    #[inline]
    pub fn mib_per_sec(m: f64) -> Self {
        Self::bytes_per_sec(m * MIB as f64)
    }
    #[inline]
    pub fn gib_per_sec(g: f64) -> Self {
        Self::bytes_per_sec(g * GIB as f64)
    }
    /// Gigabits per second (network convention), e.g. `Bandwidth::gbit_per_sec(100.0)`.
    #[inline]
    pub fn gbit_per_sec(g: f64) -> Self {
        Self::bytes_per_sec(g * 1e9 / 8.0)
    }
    /// Nanoseconds to move `bytes` at this rate, rounded up.
    #[inline]
    pub fn ns_for(self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        (bytes as f64 * 1e9 / self.0).ceil() as u64
    }
    #[inline]
    pub fn as_gib_per_sec(self) -> f64 {
        self.0 / GIB as f64
    }
    /// Typed twin of [`Bandwidth::ns_for`]: time to move `bytes` at
    /// this rate. Same arithmetic, units carried in the types.
    #[inline]
    pub fn ns_for_bytes(self, bytes: Bytes) -> Nanos {
        Nanos(self.ns_for(bytes.0))
    }
    /// This rate as a typed GiB/s scalar.
    #[inline]
    pub fn as_gibps(self) -> Gibps {
        Gibps(self.as_gib_per_sec())
    }
}

/// A byte count whose unit is carried by the type.
///
/// Thin wrapper over `u64` — construction and extraction are free, and
/// arithmetic goes through the wrapped integer, so routing a call site
/// through [`Bytes`] cannot change its value.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes(pub u64);

impl Bytes {
    /// The raw byte count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&fmt_bytes(self.0))
    }
}

/// A span of simulated nanoseconds whose unit is carried by the type.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Nanos(pub u64);

impl Nanos {
    /// The raw nanosecond count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }
    /// As a [`SimDuration`] for sleeping / deadline arithmetic.
    #[inline]
    pub fn dur(self) -> SimDuration {
        SimDuration::from_ns(self.0)
    }
}

/// A rate in GiB per second whose unit is carried by the type.
///
/// [`Gibps::bandwidth`] and [`Gibps::from_bytes_per_sec`] delegate to
/// the same operations as the raw [`Bandwidth`] constructors, so the
/// typed route is bit-identical to the cast it replaces.
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
pub struct Gibps(pub f64);

impl Gibps {
    /// Into a [`Bandwidth`] (bytes/sec) for the pipe model.
    #[inline]
    pub fn bandwidth(self) -> Bandwidth {
        Bandwidth::gib_per_sec(self.0)
    }
    /// Typed twin of `bps / GIB as f64` — no positivity assert, so a
    /// zero offered load renders as `0.0` rather than panicking.
    #[inline]
    pub fn from_bytes_per_sec(bps: f64) -> Gibps {
        Gibps(bps / GIB as f64)
    }
}

impl From<Bandwidth> for Gibps {
    fn from(bw: Bandwidth) -> Gibps {
        bw.as_gibps()
    }
}

/// Render a byte count with a binary-unit suffix (`4.0KiB`, `1.5GiB`, ...).
pub fn fmt_bytes(b: u64) -> String {
    if b >= TIB {
        format!("{:.1}TiB", b as f64 / TIB as f64)
    } else if b >= GIB {
        format!("{:.1}GiB", b as f64 / GIB as f64)
    } else if b >= MIB {
        format!("{:.1}MiB", b as f64 / MIB as f64)
    } else if b >= KIB {
        format!("{:.1}KiB", b as f64 / KIB as f64)
    } else {
        format!("{b}B")
    }
}

/// Bandwidth from a byte count and elapsed seconds, in GiB/s.
#[inline]
pub fn gib_per_sec(bytes: u64, secs: f64) -> f64 {
    if secs <= 0.0 {
        return 0.0;
    }
    bytes as f64 / GIB as f64 / secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_conversions() {
        let bw = Bandwidth::gib_per_sec(1.0);
        assert_eq!(bw.ns_for(GIB), 1_000_000_000);
        assert_eq!(bw.ns_for(0), 0);
        // rounds up: 1 byte at 1 GiB/s is < 1ns but must cost 1ns
        assert_eq!(bw.ns_for(1), 1);
        let net = Bandwidth::gbit_per_sec(100.0);
        // 100 Gb/s = 12.5 GB/s -> 1 GiB takes ~85.9 ms
        let ns = net.ns_for(GIB);
        assert!((85_000_000..87_000_000).contains(&ns), "{ns}");
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(4 * KIB), "4.0KiB");
        assert_eq!(fmt_bytes(3 * MIB / 2), "1.5MiB");
        assert_eq!(fmt_bytes(GIB), "1.0GiB");
        assert_eq!(fmt_bytes(2 * TIB), "2.0TiB");
    }

    #[test]
    fn gib_per_sec_guard() {
        assert_eq!(gib_per_sec(GIB, 0.0), 0.0);
        assert!((gib_per_sec(2 * GIB, 2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn typed_routes_are_bit_identical_to_raw_casts() {
        // the newtype path must produce the exact bits of the raw path
        for g in [0.0625, 1.0, 3.2, 9.0, 20.0, 30.0, 80.0] {
            assert_eq!(
                Gibps(g).bandwidth().0.to_bits(),
                Bandwidth::bytes_per_sec(g * GIB as f64).0.to_bits()
            );
        }
        let bw = Bandwidth::gbit_per_sec(100.0);
        for b in [0u64, 1, 4096, GIB, 7 * GIB + 13] {
            assert_eq!(bw.ns_for_bytes(Bytes(b)).get(), bw.ns_for(b));
        }
        for bps in [0.0, 1.5e9, 80.0 * GIB as f64] {
            assert_eq!(
                Gibps::from_bytes_per_sec(bps).0.to_bits(),
                (bps / GIB as f64).to_bits()
            );
        }
        assert_eq!(Gibps::from(bw).0.to_bits(), bw.as_gib_per_sec().to_bits());
        assert_eq!(Nanos(1234).dur(), SimDuration::from_ns(1234));
        assert_eq!(format!("{}", Bytes(4 * KIB)), "4.0KiB");
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_rejected() {
        let _ = Bandwidth::bytes_per_sec(0.0);
    }
}

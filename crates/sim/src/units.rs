//! Byte-size and bandwidth units shared across the stack: the raw
//! constants, [`Bandwidth`] and its conversions. A transfer time is
//! [`Bandwidth::ns_for`] and a rate in GiB/s is `bps / GIB as f64`; the
//! committed bench baselines, compared byte for byte, hold every call site
//! to those exact float operations.

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
    #[should_panic]
    fn zero_bandwidth_rejected() {
        let _ = Bandwidth::bytes_per_sec(0.0);
    }
}

//! Virtual-time units.
//!
//! All simulation time is expressed in nanoseconds as a plain `u64`
//! ([`Nanos`]). A `u64` of nanoseconds covers ~584 years of virtual time,
//! far beyond any experiment, and keeps arithmetic in hot paths trivial.

/// Virtual time / duration in nanoseconds.
pub type Nanos = u64;

/// Nanoseconds per microsecond.
pub const NANOS_PER_MICRO: Nanos = 1_000;

/// Nanoseconds per millisecond.
pub const NANOS_PER_MILLI: Nanos = 1_000_000;

/// Nanoseconds per second.
pub const NANOS_PER_SEC: Nanos = 1_000_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert_eq!(NANOS_PER_SEC, 1_000 * NANOS_PER_MILLI);
        assert_eq!(NANOS_PER_MILLI, 1_000 * NANOS_PER_MICRO);
    }
}

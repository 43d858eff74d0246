//! IPv4 CIDR names for the dense prefix slots.
//!
//! Everything in the workspace keys routes by the dense slot index
//! [`Prefix`](crate::Prefix) — a `u32` into prefix-indexed `Vec` rows (the
//! compact RIBs of DESIGN.md §12). [`IpPrefix`] is how a slot is shown to
//! people: the network names slot `s` as the /32 at address
//! `10.0.0.0 + s` (`Network::ip_of_prefix` in the `bgpsim` crate), and the
//! full-table example writes that name beside each withdrawn slot.

use std::fmt;

/// A canonical IPv4 CIDR prefix: `bits` with everything below
/// `32 - len` masked to zero.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct IpPrefix {
    bits: u32,
    len: u8,
}

impl IpPrefix {
    /// Creates a prefix, masking any host bits (`10.0.0.7/8` becomes
    /// `10.0.0.0/8`).
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn new(bits: u32, len: u8) -> IpPrefix {
        assert!(len <= 32, "prefix length {len} > 32");
        let mask = u32::MAX.checked_shl(32 - u32::from(len)).unwrap_or(0);
        IpPrefix {
            bits: bits & mask,
            len,
        }
    }

    /// The (masked) network bits.
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// The prefix length. This is a mask width, not a container size, so
    /// there is no `is_empty` (a /0 is the default route).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> u8 {
        self.len
    }
}

impl fmt::Display for IpPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.bits.to_be_bytes();
        write!(f, "{a}.{b}.{c}.{d}/{}", self.len)
    }
}

impl fmt::Debug for IpPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IpPrefix({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_dotted_quad_and_masks_host_bits() {
        let ten = u32::from_be_bytes([10, 0, 0, 7]);
        assert_eq!(IpPrefix::new(ten, 32).to_string(), "10.0.0.7/32");
        assert_eq!(IpPrefix::new(ten, 8).to_string(), "10.0.0.0/8");
        assert_eq!(IpPrefix::new(ten, 0).to_string(), "0.0.0.0/0");
        let p = IpPrefix::new(u32::from_be_bytes([192, 168, 4, 200]), 25);
        assert_eq!(p.to_string(), "192.168.4.128/25");
        assert_eq!((p.bits(), p.len()), (0xC0A8_0480, 25));
    }
}

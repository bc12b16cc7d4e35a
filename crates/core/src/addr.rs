//! Physical addresses and bit-field manipulation.
//!
//! The paper models a 1 GB GDDR5 memory with a 30-bit physical address space
//! (Figure 4). Addresses are carried as [`PhysAddr`], a thin newtype over
//! `u64` so that raw integers and mapped/unmapped addresses are not confused
//! by accident.

use std::fmt;

/// A physical memory address.
///
/// The paper's address space is 30 bits (1 GB); we store addresses in a
/// `u64` so the same type also serves the 3D-stacked configuration and
/// synthetic workloads with headroom. Bits above the configured address
/// width are ignored by the mapping machinery.
///
/// # Examples
///
/// ```
/// use valley_core::PhysAddr;
///
/// let a = PhysAddr::new(0x1234_5678);
/// assert_eq!(a.raw(), 0x1234_5678);
/// assert!(a.bit(3));
/// assert!(!a.bit(0));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Creates an address from its raw integer value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        PhysAddr(raw)
    }

    /// Returns the raw integer value of the address.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the value of bit `bit` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 64`.
    #[inline]
    pub const fn bit(self, bit: u8) -> bool {
        assert!(bit < 64);
        (self.0 >> bit) & 1 == 1
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PhysAddr({:#x})", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl From<u64> for PhysAddr {
    fn from(raw: u64) -> Self {
        PhysAddr(raw)
    }
}

impl From<PhysAddr> for u64 {
    fn from(a: PhysAddr) -> Self {
        a.0
    }
}

/// A contiguous range of address bits (`width` bits starting at `lsb`).
///
/// Address maps (Figure 4) are described as a sequence of named bit fields;
/// `BitField` provides extraction and insertion for one such field.
///
/// # Examples
///
/// ```
/// use valley_core::BitField;
///
/// // The paper's BASE channel field: bits 9..=8.
/// let ch = BitField::new(8, 2);
/// assert_eq!(ch.extract(0b11_0000_0000), 0b11);
/// assert_eq!(ch.insert(0, 0b10), 0b10_0000_0000);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BitField {
    lsb: u8,
    width: u8,
}

impl BitField {
    /// Creates a field of `width` bits whose least-significant bit is `lsb`.
    ///
    /// # Panics
    ///
    /// Panics if the field does not fit in 64 bits or has zero width.
    pub const fn new(lsb: u8, width: u8) -> Self {
        assert!(width > 0, "bit field must have non-zero width");
        assert!(lsb as u32 + width as u32 <= 64, "bit field exceeds 64 bits");
        BitField { lsb, width }
    }

    /// The position of the least-significant bit of the field.
    #[inline]
    pub const fn lsb(self) -> u8 {
        self.lsb
    }

    /// The position of the most-significant bit of the field.
    #[inline]
    pub const fn msb(self) -> u8 {
        self.lsb + self.width - 1
    }

    /// The number of bits in the field.
    #[inline]
    pub const fn width(self) -> u8 {
        self.width
    }

    /// The number of distinct values the field can take (`2^width`).
    #[inline]
    pub const fn cardinality(self) -> u64 {
        1u64 << self.width
    }

    /// A mask with ones in the field's bit positions.
    #[inline]
    pub const fn mask(self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            ((1u64 << self.width) - 1) << self.lsb
        }
    }

    /// Extracts the field's value from `raw`, right-justified.
    #[inline]
    pub const fn extract(self, raw: u64) -> u64 {
        (raw & self.mask()) >> self.lsb
    }

    /// Returns `raw` with the field replaced by `value` (low `width` bits).
    #[inline]
    pub const fn insert(self, raw: u64, value: u64) -> u64 {
        (raw & !self.mask()) | ((value << self.lsb) & self.mask())
    }

    /// Iterates over the absolute bit positions of the field, LSB first.
    pub fn bits(self) -> impl Iterator<Item = u8> {
        self.lsb..=self.msb()
    }

    /// Returns `true` if `bit` lies within this field.
    #[inline]
    pub const fn contains(self, bit: u8) -> bool {
        bit >= self.lsb && bit <= self.msb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phys_addr_roundtrip() {
        let a = PhysAddr::new(0xdead_beef);
        assert_eq!(u64::from(a), 0xdead_beef);
        assert_eq!(PhysAddr::from(42u64).raw(), 42);
    }

    #[test]
    fn phys_addr_bit_ops() {
        let a = PhysAddr::new(0b1010);
        assert!(a.bit(1));
        assert!(!a.bit(0));
    }

    #[test]
    fn bitfield_extract_insert_roundtrip() {
        let f = BitField::new(10, 4);
        for v in 0..16u64 {
            let raw = f.insert(0xffff_ffff, v);
            assert_eq!(f.extract(raw), v);
            // Bits outside the field are untouched.
            assert_eq!(raw & !f.mask(), 0xffff_ffff & !f.mask());
        }
    }

    #[test]
    fn bitfield_geometry() {
        let f = BitField::new(8, 2);
        assert_eq!(f.lsb(), 8);
        assert_eq!(f.msb(), 9);
        assert_eq!(f.width(), 2);
        assert_eq!(f.cardinality(), 4);
        assert_eq!(f.mask(), 0b11_0000_0000);
        assert_eq!(f.bits().collect::<Vec<_>>(), vec![8, 9]);
        assert!(f.contains(8) && f.contains(9));
        assert!(!f.contains(7) && !f.contains(10));
    }

    #[test]
    fn bitfield_insert_truncates_value() {
        let f = BitField::new(0, 2);
        assert_eq!(f.insert(0, 0b111), 0b11);
    }

    #[test]
    fn bitfield_full_width_mask() {
        let f = BitField::new(0, 64);
        assert_eq!(f.mask(), u64::MAX);
    }
}

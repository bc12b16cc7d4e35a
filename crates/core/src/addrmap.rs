//! DRAM address maps: how a flat physical address selects channel, bank,
//! row and column in the memory system.
//!
//! One type, [`DramMap`], holds both organizations the paper evaluates as
//! data: each index is read from at most two bit ranges of the address.
//!
//! * [`DramMap::baseline`] — the paper's baseline 1 GB Hynix GDDR5 layout
//!   (Figure 4): 4 channels, 16 banks/channel, 4 K rows/bank, 64
//!   columns/row and a 64 B DRAM block. The exact figure in the paper
//!   source is typographically garbled; the layout is reconstructed from
//!   the paper's explicit textual constraints: the entropy valley sits on
//!   channel bits 8–9 and bank bit 10, and RMP remaps six bank+channel
//!   bits.
//! * [`DramMap::stacked`] — the 3D-stacked configuration of Section VI-D:
//!   4 stacks × 16 vaults × 16 banks, where the mapping schemes randomize
//!   2 stack + 4 vault + 4 bank bits.

use crate::addr::{BitField, PhysAddr};

/// One DRAM index, read from at most two bit ranges of the address: `lo`
/// gives the index's low bits, `hi` (if any) the bits above them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Field {
    lo: BitField,
    hi: Option<BitField>,
}

impl Field {
    /// The index held in `width` address bits from `lsb` up.
    const fn one(lsb: u8, width: u8) -> Self {
        Field {
            lo: BitField::new(lsb, width),
            hi: None,
        }
    }

    /// The index whose low bits are the range `lo` and whose high bits
    /// are the range `hi`, each `(lsb, width)`.
    const fn two(lo: (u8, u8), hi: (u8, u8)) -> Self {
        Field {
            lo: BitField::new(lo.0, lo.1),
            hi: Some(BitField::new(hi.0, hi.1)),
        }
    }

    #[inline]
    fn extract(self, raw: u64) -> usize {
        let hi = match self.hi {
            Some(hi) => hi.extract(raw) << self.lo.width(),
            None => 0,
        };
        (hi | self.lo.extract(raw)) as usize
    }

    const fn cardinality(self) -> usize {
        let hi = match self.hi {
            Some(hi) => hi.width(),
            None => 0,
        };
        1 << (self.lo.width() + hi)
    }

    /// The field's address bits, ascending.
    fn bits(self) -> Vec<u8> {
        let mut bits: Vec<u8> = self.lo.bits().collect();
        bits.extend(self.hi.into_iter().flat_map(BitField::bits));
        bits.sort_unstable();
        bits
    }
}

/// A DRAM address map: where the controller, bank, row and column indices
/// sit in the address, above a block offset. The *controller* is the unit
/// of fully independent request streams (a GDDR5 channel or a vault); the
/// paper's mapping schemes rewrite the controller and bank bits
/// ([`DramMap::target_field_bits`]).
///
/// The baseline GDDR5 layout (LSB → MSB), its column split in two:
///
/// ```text
/// | block[5:0] | col_lo[7:6] | channel[9:8] | bank[13:10] | col_hi[17:14] | row[29:18] |
/// ```
///
/// The 3D-stacked layout, whose controller is the global vault index
/// `vault | stack << 4` (stack-major, so consecutive stacks interleave at
/// the coarser granularity):
///
/// ```text
/// | block[5:0] | stack[7:6] | vault[11:8] | bank[15:12] | col[19:16] | row[29:20] |
/// ```
///
/// # Examples
///
/// ```
/// use valley_core::{DramMap, PhysAddr};
///
/// let map = DramMap::baseline();
/// let a = PhysAddr::new(0b01_0000_0000); // bit 8 set
/// assert_eq!(map.controller_of(a), 1);
/// assert_eq!(map.bank_of(a), 0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramMap {
    addr_bits: u8,
    block_bits: u8,
    controller: Field,
    bank: Field,
    row: Field,
    column: Field,
}

impl DramMap {
    /// The 1 GB baseline configuration used throughout the paper's
    /// evaluation (Table I): 4 channels, 16 banks, 4 K rows, 64 columns.
    pub const fn baseline() -> Self {
        DramMap {
            addr_bits: 30,
            block_bits: 6,
            controller: Field::one(8, 2),
            bank: Field::one(10, 4),
            row: Field::one(18, 12),
            column: Field::two((6, 2), (14, 4)),
        }
    }

    /// The 4-stack configuration used in Figure 18 (rightmost bars):
    /// 64 vaults (4 stacks × 16) of 16 banks, 1 K rows, 16 columns.
    pub const fn stacked() -> Self {
        DramMap {
            addr_bits: 30,
            block_bits: 6,
            controller: Field::two((8, 4), (6, 2)),
            bank: Field::one(12, 4),
            row: Field::one(20, 10),
            column: Field::one(16, 4),
        }
    }

    /// Total number of physical address bits (30 for the 1 GB baseline).
    pub const fn addr_bits(&self) -> u8 {
        self.addr_bits
    }

    /// Number of low-order block-offset bits that never participate in
    /// mapping (6 in the paper: offsets within a DRAM page segment).
    pub const fn block_bits(&self) -> u8 {
        self.block_bits
    }

    /// Total capacity in bytes implied by the address width.
    pub const fn capacity_bytes(&self) -> u64 {
        1u64 << self.addr_bits
    }

    /// Number of independent controllers: GDDR5 channels, or vaults in
    /// the 3D-stacked organization.
    pub const fn num_controllers(&self) -> usize {
        self.controller.cardinality()
    }

    /// Number of banks per controller.
    pub const fn banks_per_controller(&self) -> usize {
        self.bank.cardinality()
    }

    /// Number of rows per bank.
    pub const fn rows_per_bank(&self) -> usize {
        self.row.cardinality()
    }

    /// Number of columns per row.
    pub const fn columns_per_row(&self) -> usize {
        self.column.cardinality()
    }

    /// The controller (channel/vault) index selected by `addr`.
    #[inline]
    pub fn controller_of(&self, addr: PhysAddr) -> usize {
        self.controller.extract(addr.raw())
    }

    /// The bank index *within its controller* selected by `addr`.
    #[inline]
    pub fn bank_of(&self, addr: PhysAddr) -> usize {
        self.bank.extract(addr.raw())
    }

    /// The DRAM row selected by `addr`.
    #[inline]
    pub fn row_of(&self, addr: PhysAddr) -> usize {
        self.row.extract(addr.raw())
    }

    /// The column within the row selected by `addr`.
    pub fn column_of(&self, addr: PhysAddr) -> usize {
        self.column.extract(addr.raw())
    }

    /// Absolute bit positions of the controller-selection field(s), LSB first.
    pub fn controller_bits(&self) -> Vec<u8> {
        self.controller.bits()
    }

    /// Absolute bit positions of the bank-selection field(s), LSB first.
    pub fn bank_bits(&self) -> Vec<u8> {
        self.bank.bits()
    }

    /// Absolute bit positions of the row field, LSB first.
    pub fn row_bits(&self) -> Vec<u8> {
        self.row.bits()
    }

    /// Absolute bit positions of the column field(s), LSB first.
    pub fn column_bits(&self) -> Vec<u8> {
        self.column.bits()
    }

    /// The output bits rewritten by the paper's mapping schemes:
    /// controller + bank selection bits, LSB first.
    pub fn target_field_bits(&self) -> Vec<u8> {
        let mut bits = self.controller_bits();
        bits.extend(self.bank_bits());
        bits.sort_unstable();
        bits
    }

    /// The DRAM *page address* bits (row + bank + controller), the input set
    /// of the PAE scheme, LSB first.
    pub fn page_address_bits(&self) -> Vec<u8> {
        let mut bits = self.target_field_bits();
        bits.extend(self.row_bits());
        bits.sort_unstable();
        bits
    }

    /// All non-block address bits (the input set of FAE and ALL), LSB first.
    pub fn non_block_bits(&self) -> Vec<u8> {
        (self.block_bits..self.addr_bits).collect()
    }
}

/// The old name of [`DramMap`]. Kept because the frozen benchmark's
/// probes name `GddrMap::baseline()`.
#[doc(hidden)]
pub type GddrMap = DramMap;

/// Another name of [`DramMap`]. Kept because the frozen benchmark's
/// probes import it.
#[doc(hidden)]
pub type DramAddressMap = DramMap;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn baseline_geometry_matches_table1() {
        let m = DramMap::baseline();
        assert_eq!(m.num_controllers(), 4);
        assert_eq!(m.banks_per_controller(), 16);
        assert_eq!(m.rows_per_bank(), 4096);
        assert_eq!(m.columns_per_row(), 64);
        assert_eq!(m.capacity_bytes(), 1 << 30); // 1 GB
    }

    #[test]
    fn baseline_bit_positions_match_paper_text() {
        let m = DramMap::baseline();
        // "entropy valley for channel bits 8-9 and bank bit 10"
        assert_eq!(m.controller_bits(), vec![8, 9]);
        assert_eq!(m.bank_bits(), vec![10, 11, 12, 13]);
        assert_eq!(m.target_field_bits(), vec![8, 9, 10, 11, 12, 13]);
        assert_eq!(m.row_bits(), (18..30).collect::<Vec<u8>>());
    }

    #[test]
    fn field_extraction_is_consistent_with_bits() {
        let m = DramMap::baseline();
        // Walking each bank bit changes the bank index by the right power
        // of two.
        for (i, bit) in m.bank_bits().into_iter().enumerate() {
            let a = PhysAddr::new(1u64 << bit);
            assert_eq!(m.bank_of(a), 1 << i);
            assert_eq!(m.controller_of(a), 0);
            assert_eq!(m.row_of(a), 0);
        }
    }

    #[test]
    fn column_is_split_across_two_fields() {
        let m = DramMap::baseline();
        // col_lo at bits 7..6, col_hi at 17..14.
        let a = PhysAddr::new((0b11 << 6) | (0b1010 << 14));
        assert_eq!(m.column_of(a), (0b1010 << 2) | 0b11);
        assert_eq!(m.column_bits(), vec![6, 7, 14, 15, 16, 17]);
    }

    #[test]
    fn page_bits_are_row_bank_channel() {
        let m = DramMap::baseline();
        let mut expect: Vec<u8> = (8..14).chain(18..30).collect();
        expect.sort_unstable();
        assert_eq!(m.page_address_bits(), expect);
        assert_eq!(m.non_block_bits(), (6..30).collect::<Vec<u8>>());
    }

    #[test]
    fn stacked_geometry() {
        let m = DramMap::stacked();
        assert_eq!(m.num_controllers(), 64); // 4 stacks x 16 vaults
        assert_eq!(m.banks_per_controller(), 16);
        assert_eq!(m.rows_per_bank(), 1024);
        assert_eq!(m.columns_per_row(), 16);
        assert_eq!(m.controller_bits(), (6..12).collect::<Vec<u8>>());
        assert_eq!(m.target_field_bits(), (6..16).collect::<Vec<u8>>());
        assert_eq!(m.capacity_bytes(), 1 << 30);
    }

    #[test]
    fn stacked_controller_is_stack_major() {
        let m = DramMap::stacked();
        let a = PhysAddr::new(1 << 6); // stack 1, vault 0
        assert_eq!(m.controller_of(a), 16);
        let b = PhysAddr::new(1 << 8); // stack 0, vault 1
        assert_eq!(m.controller_of(b), 1);
    }

    /// The (block offset, column, controller, bank, row) of `raw`.
    fn coordinates(m: &DramMap, raw: u64) -> [usize; 5] {
        let a = PhysAddr::new(raw);
        [
            (raw & ((1 << m.block_bits()) - 1)) as usize,
            m.column_of(a),
            m.controller_of(a),
            m.bank_of(a),
            m.row_of(a),
        ]
    }

    /// Both layouts tile the address: the index ranges multiply out to
    /// the capacity, every address bit belongs to exactly one index, and
    /// every decoded index is in range.
    #[test]
    fn both_layouts_tile_the_address() {
        let mut rng = StdRng::seed_from_u64(46);
        for m in [DramMap::baseline(), DramMap::stacked()] {
            let sizes = [
                1 << m.block_bits(),
                m.columns_per_row(),
                m.num_controllers(),
                m.banks_per_controller(),
                m.rows_per_bank(),
            ];
            assert_eq!(
                sizes.iter().product::<usize>() as u64,
                m.capacity_bytes(),
                "{m:?}"
            );
            for _ in 0..64 {
                let raw = rng.random::<u64>() & (m.capacity_bytes() - 1);
                let at = coordinates(&m, raw);
                for (index, size) in at.iter().zip(sizes) {
                    assert!(*index < size, "{m:?}: {raw:#x} decodes to {at:?}");
                }
                for bit in 0..m.addr_bits() {
                    let flipped = coordinates(&m, raw ^ (1 << bit));
                    let moved = at.iter().zip(&flipped).filter(|(a, b)| a != b).count();
                    assert_eq!(
                        moved, 1,
                        "{m:?}: bit {bit} of {raw:#x} moves {moved} indices"
                    );
                }
            }
        }
    }
}

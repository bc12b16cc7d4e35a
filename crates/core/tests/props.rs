//! Property-based tests for the BIM algebra, mapping schemes and the
//! window-based entropy metric.

use proptest::prelude::*;
use valley_core::entropy::{window_entropy, window_entropy_naive, Bvr, TbBitStats};
use valley_core::{AddressMapper, Bim, DramAddressMap, DramMap, PhysAddr, SchemeKind};

const ADDR_MASK: u64 = (1 << 30) - 1;

proptest! {
    /// Any scheme, any seed, either shipped map (GDDR5 for Figures
    /// 11–17, 3D-stacked for Figure 18): the constructed BIM is
    /// invertible and map∘unmap is the identity on arbitrary addresses.
    #[test]
    fn schemes_are_bijections(seed in 0u64..1_000, stacked in any::<bool>(), raw in any::<u64>()) {
        let map = if stacked { DramMap::stacked() } else { DramMap::baseline() };
        let a = PhysAddr::new(raw & ((1 << map.addr_bits()) - 1));
        for kind in SchemeKind::ALL_SCHEMES {
            let m = AddressMapper::build(kind, &map, seed);
            prop_assert!(m.bim().is_invertible());
            prop_assert_eq!(m.unmap(m.map(a)), a);
        }
    }

    /// Block-offset bits are never altered by any scheme.
    #[test]
    fn block_bits_preserved(seed in 0u64..16, raw in 0u64..=ADDR_MASK) {
        let map = DramMap::baseline();
        for kind in SchemeKind::ALL_SCHEMES {
            let m = AddressMapper::build(kind, &map, seed);
            let mapped = m.map(PhysAddr::new(raw));
            prop_assert_eq!(mapped.raw() & 0x3f, raw & 0x3f);
        }
    }

    /// PAE never changes column bits: addresses differing only in column
    /// bits keep their relative difference (same-row groups move as one —
    /// the row-locality preservation behind Figure 15).
    #[test]
    fn pae_moves_same_row_groups_together(seed in 0u64..16, raw in 0u64..=ADDR_MASK) {
        let map = DramMap::baseline();
        let m = AddressMapper::build(SchemeKind::Pae, &map, seed);
        // Flip a column bit (6,7,14..17): the mapped pair must differ in
        // exactly that bit.
        for col_bit in [6u8, 7, 14, 15, 16, 17] {
            let a = PhysAddr::new(raw);
            let b = PhysAddr::new(raw ^ (1 << col_bit));
            let delta = m.map(a).raw() ^ m.map(b).raw();
            prop_assert_eq!(delta, 1u64 << col_bit);
        }
    }

    /// Mapped addresses stay within the 30-bit physical space.
    #[test]
    fn mapping_stays_in_address_space(seed in 0u64..16, raw in 0u64..=ADDR_MASK) {
        for kind in SchemeKind::ALL_SCHEMES {
            let gddr = DramMap::baseline();
            let m = AddressMapper::build(kind, &gddr, seed);
            prop_assert!(m.map(PhysAddr::new(raw)).raw() <= ADDR_MASK);
            let stacked = DramMap::stacked();
            let m = AddressMapper::build(kind, &stacked, seed);
            prop_assert!(m.map(PhysAddr::new(raw)).raw() <= ADDR_MASK);
        }
    }

    /// A random invertible matrix composed with its inverse is identity.
    #[test]
    fn inverse_composition_is_identity(rows in proptest::collection::vec(0u64..(1 << 12), 12)) {
        if let Ok(bim) = Bim::from_rows(rows) {
            if let Some(inv) = bim.inverse() {
                prop_assert!(bim.compose(&inv).is_identity());
                prop_assert!(inv.compose(&bim).is_identity());
                // rank is full exactly when inverse exists
                prop_assert_eq!(bim.rank(), 12);
            } else {
                prop_assert!(bim.rank() < 12);
            }
        }
    }

    /// apply() distributes over XOR: BIMs are linear maps over GF(2).
    #[test]
    fn bim_is_linear(a in 0u64..(1 << 20), b in 0u64..(1 << 20), seed in 0u64..16) {
        let map = DramMap::baseline();
        let m = AddressMapper::build(SchemeKind::Fae, &map, seed);
        let f = |x: u64| m.bim().apply(x);
        prop_assert_eq!(f(a ^ b), f(a) ^ f(b));
        prop_assert_eq!(f(0), 0);
    }

    /// `TbBitStats::from_addrs` counts by transposed 64-address tiles;
    /// per-address `record` is the reference. Equal for every bit width
    /// and stream length: empty, ragged tail only, whole tiles, both.
    #[test]
    fn tile_counting_matches_per_address_record(
        addrs in proptest::collection::vec(any::<u64>(), 0..300),
        bits in 1u8..=64,
    ) {
        let mut reference = TbBitStats::new(7, bits);
        for &a in &addrs {
            reference.record(a);
        }
        prop_assert_eq!(TbBitStats::from_addrs(7, bits, addrs.iter().copied()), reference);
    }

    /// Window-based entropy is always within [0, 1], and so is the naive
    /// reference.
    #[test]
    fn entropy_is_normalized(
        ones in proptest::collection::vec(0u64..=8, 1..40),
        window in 1usize..16,
    ) {
        let bvrs: Vec<Bvr> = ones.iter().map(|&o| Bvr::new(o, 8)).collect();
        for h in [window_entropy(&bvrs, window), window_entropy_naive(&bvrs, window)] {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&h), "{h}");
        }
    }

    /// The O(n) prefix-sum window entropy matches the naive O(n·w)
    /// reference on arbitrary BVR slices and window sizes (including
    /// windows larger than the slice).
    #[test]
    fn rolling_entropy_matches_naive(
        pairs in proptest::collection::vec((0u64..=12, 1u64..=12), 1..120),
        window in 1usize..40,
    ) {
        let bvrs: Vec<Bvr> = pairs
            .iter()
            .map(|&(ones, total)| Bvr::new(ones.min(total), total))
            .collect();
        let rolling = window_entropy(&bvrs, window);
        let naive = window_entropy_naive(&bvrs, window);
        prop_assert!(
            (rolling - naive).abs() < 1e-12,
            "w={window}: rolling {rolling} vs naive {naive}"
        );
    }

    /// Entropy is invariant under reversing the TB order (windows slide
    /// symmetrically over the same multiset of windows).
    #[test]
    fn entropy_reversal_invariance(
        ones in proptest::collection::vec(0u64..=4, 2..30),
        window in 1usize..8,
    ) {
        let bvrs: Vec<Bvr> = ones.iter().map(|&o| Bvr::new(o, 4)).collect();
        let mut rev = bvrs.clone();
        rev.reverse();
        let a = window_entropy(&bvrs, window);
        let b = window_entropy(&rev, window);
        prop_assert!((a - b).abs() < 1e-12);
    }

    /// Constant bit streams always yield zero entropy.
    #[test]
    fn constant_bits_have_zero_entropy(n in 1usize..50, window in 1usize..16, one in any::<bool>()) {
        let v = if one { Bvr::new(1, 1) } else { Bvr::new(0, 1) };
        let bvrs = vec![v; n];
        prop_assert_eq!(window_entropy(&bvrs, window), 0.0);
        prop_assert_eq!(window_entropy_naive(&bvrs, window), 0.0);
    }

    /// DRAM decode stays within the geometry for arbitrary addresses,
    /// for both address maps.
    #[test]
    fn decode_in_range(raw in 0u64..=ADDR_MASK) {
        let a = PhysAddr::new(raw);
        for m in [DramMap::baseline(), DramMap::stacked()] {
            prop_assert!(m.controller_of(a) < m.num_controllers());
            prop_assert!(m.bank_of(a) < m.banks_per_controller());
            prop_assert!(m.row_of(a) < m.rows_per_bank());
            prop_assert!(m.column_of(a) < m.columns_per_row());
        }
    }

    /// Two distinct addresses never collide after mapping (spot-check of
    /// bijectivity on pairs).
    #[test]
    fn no_pairwise_collisions(x in 0u64..=ADDR_MASK, y in 0u64..=ADDR_MASK, seed in 0u64..8) {
        prop_assume!(x != y);
        let map = DramMap::baseline();
        for kind in [SchemeKind::Pae, SchemeKind::Fae, SchemeKind::All] {
            let m = AddressMapper::build(kind, &map, seed);
            prop_assert_ne!(m.map(PhysAddr::new(x)), m.map(PhysAddr::new(y)));
        }
    }
}

//! Property-based tests for the BIM algebra, mapping schemes and the
//! window-based entropy metric.

use proptest::prelude::*;
use valley_core::entropy::{shannon_entropy, window_entropy, Bvr};
use valley_core::{AddressMapper, Bim, DramMap, PhysAddr, SchemeKind};

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

    /// Window-based entropy is always within [0, 1].
    #[test]
    fn entropy_is_normalized(
        ones in proptest::collection::vec(0u64..=8, 1..40),
        window in 1usize..16,
    ) {
        let bvrs: Vec<Bvr> = ones.iter().map(|&o| Bvr::new(o, 8)).collect();
        let h = window_entropy(&bvrs, window);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&h), "{h}");
    }

    /// On BVRs of exactly 0 or 1, `window_entropy` is Equation 1
    /// averaged over the windows: the Shannon entropy of each window's
    /// value frequencies (`ones/w`, `zeros/w`), base 2. That path shares
    /// no code with the binary entropy of the window's mean BVR.
    #[test]
    fn window_entropy_is_equation_1_on_binary_bvrs(
        bits in proptest::collection::vec(any::<bool>(), 1..120),
        window in 1usize..40,
    ) {
        let bvrs: Vec<Bvr> = bits.iter().map(|&b| Bvr::new(u64::from(b), 1)).collect();
        let w = window.min(bits.len());
        let per_window: Vec<f64> = bits
            .windows(w)
            .map(|win| {
                let ones = win.iter().filter(|&&b| b).count() as f64;
                shannon_entropy(&[ones / w as f64, (w as f64 - ones) / w as f64])
            })
            .collect();
        let equation_1 = per_window.iter().sum::<f64>() / per_window.len() as f64;
        let h = window_entropy(&bvrs, window);
        prop_assert!((h - equation_1).abs() < 1e-12, "w={window}: {h} vs {equation_1}");
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

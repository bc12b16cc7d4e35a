//! Criterion bench: the address-mapping unit's software cost — one
//! `Bim::apply` per coalesced transaction. The hardware analogue is a
//! single-cycle XOR tree (Figure 7); this bench confirms the software
//! model is cheap enough to run inside the simulator's hot loop.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use valley_core::{AddressMapper, GddrMap, SchemeKind};

fn bim_throughput(c: &mut Criterion) {
    let map = GddrMap::baseline();
    let mut group = c.benchmark_group("bim_apply");
    for kind in SchemeKind::ALL_SCHEMES {
        let mapper = AddressMapper::build(kind, &map, 1);
        group.bench_function(kind.label(), |b| {
            let mut addr = 0x1234_5678u64 & 0x3fff_ffff;
            b.iter(|| {
                addr = (addr.wrapping_mul(0x9e37_79b9) ^ addr) & 0x3fff_ffff;
                black_box(mapper.map(valley_core::PhysAddr::new(black_box(addr))))
            })
        });
    }
    group.finish();

    // Decode direction (the inverse BIM).
    c.bench_function("bim_unmap_pae", |b| {
        let mapper = AddressMapper::build(SchemeKind::Pae, &map, 1);
        b.iter(|| {
            black_box(mapper.unmap(valley_core::PhysAddr::new(black_box(
                0x2bad_f00d & 0x3fff_ffff,
            ))))
        })
    });

    // Scheme construction (rejection sampling until invertible).
    c.bench_function("build_pae_mapper", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(AddressMapper::build(SchemeKind::Pae, &map, seed))
        })
    });
}

criterion_group!(benches, bim_throughput);
criterion_main!(benches);

//! Label symmetry: the machine does not care what a DRAM row or bank is
//! called, so neither may the model. [`Relabeled`] renames every row
//! (`row ^ c`) or every bank (`bank ^ c`) of the baseline GDDR5 map and
//! reports the baseline's bit lists, so every scheme builds the same BIM.
//! A bank constant is even, so each line keeps its LLC slice (a channel's
//! two slices split on the low bank bit). Each renaming must leave
//! `results_json()` bit-identical — an oracle that shares no code with
//! the model it checks.

use valley::core::{AddressMapper, DramAddressMap, DramMap, PhysAddr, SchemeKind};
use valley::sim::{GpuConfig, GpuSim};
use valley::workloads::{Benchmark, Scale};

/// Which DRAM index is renamed, and the constant it is XORed with.
#[derive(Clone, Copy, Debug)]
enum Relabel {
    Row(usize),
    Bank(usize),
}

/// `inner` with one DRAM index renamed; every bit list is the inner map's.
#[derive(Clone, Copy, Debug)]
struct Relabeled<M> {
    inner: M,
    relabel: Relabel,
}

impl<M: DramAddressMap> DramAddressMap for Relabeled<M> {
    fn addr_bits(&self) -> u8 {
        self.inner.addr_bits()
    }
    fn block_bits(&self) -> u8 {
        self.inner.block_bits()
    }
    fn controller_of(&self, addr: PhysAddr) -> usize {
        self.inner.controller_of(addr)
    }
    fn bank_of(&self, addr: PhysAddr) -> usize {
        match self.relabel {
            Relabel::Bank(c) => self.inner.bank_of(addr) ^ c,
            Relabel::Row(_) => self.inner.bank_of(addr),
        }
    }
    fn row_of(&self, addr: PhysAddr) -> usize {
        match self.relabel {
            Relabel::Row(c) => self.inner.row_of(addr) ^ c,
            Relabel::Bank(_) => self.inner.row_of(addr),
        }
    }
    fn num_controllers(&self) -> usize {
        self.inner.num_controllers()
    }
    fn banks_per_controller(&self) -> usize {
        self.inner.banks_per_controller()
    }
    fn rows_per_bank(&self) -> usize {
        self.inner.rows_per_bank()
    }
    fn controller_bits(&self) -> Vec<u8> {
        self.inner.controller_bits()
    }
    fn bank_bits(&self) -> Vec<u8> {
        self.inner.bank_bits()
    }
    fn row_bits(&self) -> Vec<u8> {
        self.inner.row_bits()
    }
}

/// Row constants: any value below the 4,096 rows of a bank.
const ROWS: [usize; 4] = [0xA5A, 0x001, 0xFFF, 0x3C3];
/// Bank constants: even values below the 16 banks of a channel.
const BANKS: [usize; 4] = [0b1010, 0b0010, 0b1110, 0b0100];

fn results<M>(map: M, bench: Benchmark, scheme: SchemeKind, scale: Scale) -> String
where
    M: DramAddressMap + Send + Sync + 'static,
{
    let mapper = AddressMapper::build(scheme, &map, 1);
    let workload = Box::new(bench.workload(scale));
    GpuSim::new(GpuConfig::table1(), mapper, map, workload)
        .run()
        .results_json()
}

/// Runs `bench` under `scheme` on the baseline map and under each
/// renaming, and asserts every run's results equal the baseline's.
fn assert_symmetric(bench: Benchmark, scheme: SchemeKind, scale: Scale, relabels: &[Relabel]) {
    let inner = DramMap::baseline();
    let want = results(inner, bench, scheme, scale);
    for &relabel in relabels {
        let got = results(Relabeled { inner, relabel }, bench, scheme, scale);
        assert_eq!(got, want, "{bench}/{scheme} under {relabel:?}");
    }
}

/// Benches that reach every channel and slice, under the baseline
/// mapping and PAE. Each bench draws its own bank constant, and the row
/// constants cycle over the eight runs.
#[test]
fn renaming_rows_or_banks_moves_no_result() {
    let pairs = [
        Benchmark::Mt,
        Benchmark::Lps,
        Benchmark::Srad2,
        Benchmark::Sc,
    ]
    .into_iter()
    .flat_map(|bench| [SchemeKind::Base, SchemeKind::Pae].map(|scheme| (bench, scheme)));
    for (i, (bench, scheme)) in pairs.enumerate() {
        let relabels = [
            Relabel::Row(ROWS[i % ROWS.len()]),
            Relabel::Bank(BANKS[i / 2]),
        ];
        assert_symmetric(bench, scheme, Scale::Test, &relabels);
    }
}

/// The same relations at ref scale, where queues are deep and DRAM
/// back-pressure is common: the valley's deepest case and the one with
/// the most transactions in flight. About 2 s in release; CI runs it
/// with `--ignored`.
#[test]
#[ignore = "ref scale: run in release with --ignored"]
fn renaming_rows_or_banks_moves_no_result_at_ref_scale() {
    let relabels = [Relabel::Row(0xA5A), Relabel::Bank(0b1010)];
    assert_symmetric(Benchmark::Mt, SchemeKind::Base, Scale::Ref, &relabels);
    assert_symmetric(Benchmark::Srad2, SchemeKind::Pae, Scale::Ref, &relabels);
}

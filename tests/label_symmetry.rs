//! Label symmetry: the machine does not care what a DRAM row or bank is
//! called, so neither may the model. Every scheme is a BIM, linear over
//! GF(2), so `map(a ^ c) = map(a) ^ map(c)`: XORing every lane address
//! with `c = unmap(d)` renames each mapped line by `d`, its row and bank
//! by `d`'s row and bank fields, and its L1 and LLC sets and tags by a
//! constant. Where `c` keeps every lane in its 128-B line and `d` moves
//! neither a line's controller nor its LLC slice, the renamed run must
//! report bit-identical `results_json()`. The oracle rewrites the model's
//! input and shares no code with the model it checks.

use valley::core::{AddressMapper, DramMap, PhysAddr, SchemeKind};
use valley::sim::{
    GpuConfig, GpuSim, Instruction, KernelSource, LaneAddrs, WarpProgram, WorkloadSource,
};
use valley::workloads::{Benchmark, Scale};

/// A workload, kernel or warp program whose every lane address is XORed
/// with `c`.
struct Xored<T> {
    inner: T,
    c: u64,
}

impl<W: WorkloadSource> WorkloadSource for Xored<W> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn num_kernels(&self) -> usize {
        self.inner.num_kernels()
    }
    fn kernel(&self, index: usize) -> Box<dyn KernelSource> {
        let inner = self.inner.kernel(index);
        Box::new(Xored { inner, c: self.c })
    }
}

impl KernelSource for Xored<Box<dyn KernelSource>> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn num_thread_blocks(&self) -> u64 {
        self.inner.num_thread_blocks()
    }
    fn warps_per_block(&self) -> usize {
        self.inner.warps_per_block()
    }
    fn warp_program(&self, tb: u64, warp: usize) -> Box<dyn WarpProgram> {
        let inner = self.inner.warp_program(tb, warp);
        Box::new(Xored { inner, c: self.c })
    }
}

impl WarpProgram for Xored<Box<dyn WarpProgram>> {
    fn next_instruction(&mut self) -> Option<Instruction> {
        let xor = |a: LaneAddrs| LaneAddrs::Explicit(a.iter().map(|l| l ^ self.c).collect());
        Some(match self.inner.next_instruction()? {
            Instruction::Load(a) => Instruction::Load(xor(a)),
            Instruction::Store(a) => Instruction::Store(xor(a)),
            compute => compute,
        })
    }
}

/// One machine: its configuration and DRAM map.
type Machine = (GpuConfig, DramMap);

fn table1() -> Machine {
    (GpuConfig::table1(), DramMap::baseline())
}

/// Table I cut at core cycle `max_cycles`.
fn table1_cut_at(max_cycles: u64) -> Machine {
    let cfg = GpuConfig {
        max_cycles,
        ..GpuConfig::table1()
    };
    (cfg, DramMap::baseline())
}

/// `value`'s low bits placed on the address bits `bits`, LSB first.
fn spread(bits: &[u8], value: u64) -> u64 {
    let set = bits
        .iter()
        .enumerate()
        .filter(|&(i, _)| value >> i & 1 == 1);
    set.fold(0, |d, (_, &bit)| d | 1 << bit)
}

/// Mapped-space flips of `map`: two row constants (a pattern and the top
/// row bit) and two even bank constants (the high bank bits).
fn flips(map: &DramMap) -> [u64; 4] {
    let (rows, banks) = (map.row_bits(), map.bank_bits());
    [
        spread(&rows, 0xA5A),
        spread(&rows, 1 << (rows.len() - 1)),
        spread(&banks, 0b0010),
        spread(&banks, 0b1010),
    ]
}

/// Whether the mapped-space flip `d`, reached by XORing each lane with
/// `c`, must leave a run on `machine` bit-identical: `c` moves no lane out
/// of its line, and `d` keeps every line's controller and LLC slice (the
/// slices of one controller split on its low bank bits).
fn is_exact((cfg, map): &Machine, c: u64, d: u64) -> bool {
    let d = PhysAddr::new(d);
    let slices_per_controller = (cfg.llc_slices / map.num_controllers()).max(1);
    c.is_multiple_of(cfg.line_bytes)
        && map.controller_of(d) == 0
        && map.bank_of(d).is_multiple_of(slices_per_controller)
}

fn results(machine: &Machine, mapper: &AddressMapper, workload: Box<dyn WorkloadSource>) -> String {
    let (cfg, map) = machine;
    GpuSim::new(cfg.clone(), mapper.clone(), *map, workload)
        .run()
        .results_json()
}

/// Runs `bench` under `scheme` on `machine`, then once per flip `d` with
/// every lane XORed with `c = unmap(d)`, and asserts that each exact
/// case reports what the plain run does. Returns the number of exact
/// cases.
fn assert_symmetric(
    machine: &Machine,
    bench: Benchmark,
    scheme: SchemeKind,
    scale: Scale,
    flips: &[u64],
) -> usize {
    let mapper = AddressMapper::build(scheme, &machine.1, 1);
    let want = results(machine, &mapper, Box::new(bench.workload(scale)));
    let mut exact = 0;
    for &d in flips {
        let c = mapper.unmap(PhysAddr::new(d)).raw();
        if !is_exact(machine, c, d) {
            continue;
        }
        let inner = bench.workload(scale);
        let got = results(machine, &mapper, Box::new(Xored { inner, c }));
        assert_eq!(got, want, "{bench}/{scheme} under d = {d:#x}, c = {c:#x}");
        exact += 1;
    }
    exact
}

/// Every scheme on the baseline map, each on a bench of its own, under
/// two row and two bank flips. Only ALL carries a flip into the line
/// offset (bit 6 of `c`), for two of the four.
#[test]
fn renaming_rows_or_banks_moves_no_result() {
    let machine = table1();
    let flips = flips(&machine.1);
    let runs = [
        (Benchmark::Mt, SchemeKind::Base),
        (Benchmark::Lps, SchemeKind::Pm),
        (Benchmark::Srad2, SchemeKind::Rmp),
        (Benchmark::Sc, SchemeKind::Pae),
        (Benchmark::Nw, SchemeKind::Fae),
        (Benchmark::Mt, SchemeKind::All),
    ];
    let mut total = 0;
    for (bench, scheme) in runs {
        let exact = assert_symmetric(&machine, bench, scheme, Scale::Test, &flips);
        assert!(exact >= 2, "{bench}/{scheme}: only {exact} exact flips");
        total += exact;
    }
    assert_eq!(total, 22, "exact cases over the six schemes");
}

/// The 64-vault stacked machine, whose 8 slices each take every eighth
/// vault. Its controller starts at bit 6, inside the line, so a BIM that
/// rewrites controller bits often puts bit 6 or 7 into `c`: under FAE,
/// the high bank flip does.
#[test]
fn renaming_rows_or_banks_moves_no_result_on_the_stacked_machine() {
    let machine = (GpuConfig::stacked(), DramMap::stacked());
    let flips = flips(&machine.1);
    let exact = assert_symmetric(
        &machine,
        Benchmark::Mt,
        SchemeKind::Fae,
        Scale::Test,
        &flips,
    );
    assert_eq!(exact, 3);
}

/// The wrapper itself changes nothing: XORing with 0 only turns every
/// access into `LaneAddrs::Explicit`.
#[test]
fn xoring_every_lane_with_zero_moves_no_result() {
    let machine = table1();
    for (bench, scheme) in [
        (Benchmark::Mt, SchemeKind::Pae),
        (Benchmark::Mum, SchemeKind::Fae),
    ] {
        let mapper = AddressMapper::build(scheme, &machine.1, 1);
        let want = results(&machine, &mapper, Box::new(bench.workload(Scale::Test)));
        let inner = bench.workload(Scale::Test);
        let got = results(&machine, &mapper, Box::new(Xored { inner, c: 0 }));
        assert_eq!(got, want, "{bench}/{scheme}");
    }
}

/// Ref workloads cut at core cycle 20,000, where DRAM queues are already
/// full and a freed slot has several takers, which test scale never
/// reaches.
#[test]
fn renaming_rows_or_banks_moves_no_result_on_ref_prefixes() {
    let machine = table1_cut_at(20_000);
    let [row, _, bank, _] = flips(&machine.1);
    for bench in [Benchmark::Mt, Benchmark::Sc] {
        let exact = assert_symmetric(&machine, bench, SchemeKind::Base, Scale::Ref, &[row, bank]);
        assert_eq!(exact, 2, "{bench}");
    }
}

/// Whole ref runs, where queues are deep and DRAM back-pressure is
/// common: the valley's deepest case, the one with the most transactions
/// in flight, and ALL, whose BIM touches every non-block bit. About 2 s
/// in release; CI runs it with `--ignored`.
#[test]
#[ignore = "ref scale: run in release with --ignored"]
fn renaming_rows_or_banks_moves_no_result_at_ref_scale() {
    let machine = table1();
    let [row, _, _, bank] = flips(&machine.1);
    for (bench, scheme) in [
        (Benchmark::Mt, SchemeKind::Base),
        (Benchmark::Srad2, SchemeKind::Pae),
    ] {
        let exact = assert_symmetric(&machine, bench, scheme, Scale::Ref, &[row, bank]);
        assert_eq!(exact, 2, "{bench}/{scheme}");
    }
    let flips = flips(&machine.1);
    let exact = assert_symmetric(
        &machine,
        Benchmark::Srad2,
        SchemeKind::All,
        Scale::Ref,
        &flips,
    );
    assert!(exact >= 1, "SRAD2/ALL: no exact flip");
}

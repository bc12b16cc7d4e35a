//! The bit-sliced CPU backend.
//!
//! Tile pipeline for a full [`TILE`]-address chunk of `bim_apply_batch`:
//!
//! 1. copy the 64 addresses into the scratch tile and [`transpose64`] it
//!    — word `j` now holds input bit-plane `j` (bit `t` = bit `j` of
//!    address `t`);
//! 2. for every input plane with any bits set, XOR it into the output
//!    planes that read it (the *column masks* of the matrix, built once
//!    per batch): parity over a row mask becomes plane XORs, 64
//!    addresses wide;
//! 3. transpose back and copy out.
//!
//! Sparse matrices — the mapping schemes rewrite only a handful of rows,
//! BASE none at all — stay on the scalar [`Bim::apply`] fast path, whose
//! identity-mask copy is already one AND per address; bit-slicing only
//! pays for itself once the XOR-tree work dominates the two transposes.
//! The cutoff is a backend parameter so benches can force either path.
//!
//! `bvr_sweep` reuses step 1 only: one transpose turns 64 per-address
//! bit-counter updates into one `count_ones` per plane.

// no-panic-tick (docs/lint.md): this code runs every simulated cycle.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::bitslice::{transpose64, TILE};
use crate::{BvrTable, ComputeBackend, ComputeScratch};
use valley_core::entropy::{window_entropy_with_scratch, EntropyMethod};
use valley_core::{alloc_audit, Bim};

/// Below this many non-identity rows the scalar per-address path wins:
/// the two 64-word transposes cost ~2×380 shift/XOR ops per tile, so the
/// bit-sliced path needs enough XOR-tree work to amortize them. Measured
/// on the 1-CPU container: the mapping schemes (≤ 24 special rows of 2–7
/// taps) stay scalar, dense matrices go bit-sliced.
const SPARSE_CUTOFF: usize = 24;

/// The bit-sliced CPU implementation of [`ComputeBackend`].
#[derive(Clone, Copy, Debug)]
pub struct CpuBackend {
    sparse_cutoff: usize,
}

impl CpuBackend {
    /// The default backend: scalar fast path for sparse matrices, tiles
    /// for dense ones.
    pub const fn new() -> Self {
        CpuBackend {
            sparse_cutoff: SPARSE_CUTOFF,
        }
    }

    /// A backend with an explicit sparse/bit-sliced cutoff (number of
    /// non-identity rows at or below which the scalar path is used).
    /// `usize::MAX` forces the scalar path, `0` forces bit-slicing for
    /// every full tile — benches and the property batteries use both to
    /// pit the paths against each other.
    pub const fn with_sparse_cutoff(sparse_cutoff: usize) -> Self {
        CpuBackend { sparse_cutoff }
    }
}

impl Default for CpuBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl ComputeBackend for CpuBackend {
    fn name(&self) -> &'static str {
        "cpu-bitsliced"
    }

    fn tile_width(&self) -> usize {
        TILE
    }

    fn bim_apply_batch(
        &self,
        bim: &Bim,
        addrs: &[u64],
        out: &mut Vec<u64>,
        scratch: &mut ComputeScratch,
    ) {
        out.clear();
        if out.capacity() < addrs.len() {
            // Buffer growth is warmup, not steady-state kernel work.
            let _g = alloc_audit::pause();
            out.reserve(addrs.len());
        }
        if bim.special_rows().len() <= self.sparse_cutoff || addrs.len() < TILE {
            for &a in addrs {
                out.push(bim.apply(a));
            }
            return;
        }
        // Column masks: columns[j] = the output bits whose row reads input
        // bit j. Built once per batch, shared by every tile. Identity rows
        // participate like any other single-tap row.
        let n = bim.n() as usize;
        scratch.columns.fill(0);
        for i in 0..n {
            let mut row = bim.row(i as u8);
            while row != 0 {
                let j = row.trailing_zeros() as usize;
                scratch.columns[j] |= 1u64 << i;
                row &= row - 1;
            }
        }
        let mut chunks = addrs.chunks_exact(TILE);
        for chunk in &mut chunks {
            scratch.tile_in.copy_from_slice(chunk);
            transpose64(&mut scratch.tile_in);
            scratch.tile_out.fill(0);
            for j in 0..n {
                let plane = scratch.tile_in[j];
                if plane == 0 {
                    continue;
                }
                let mut col = scratch.columns[j];
                while col != 0 {
                    let i = col.trailing_zeros() as usize;
                    scratch.tile_out[i] ^= plane;
                    col &= col - 1;
                }
            }
            transpose64(&mut scratch.tile_out);
            out.extend_from_slice(&scratch.tile_out);
        }
        for &a in chunks.remainder() {
            out.push(bim.apply(a));
        }
    }

    fn bvr_sweep(&self, addrs: &[u64], ones: &mut [u64], scratch: &mut ComputeScratch) {
        assert!(ones.len() <= TILE, "at most 64 address bits per sweep");
        let nbits = ones.len();
        let mut chunks = addrs.chunks_exact(TILE);
        for chunk in &mut chunks {
            scratch.tile_in.copy_from_slice(chunk);
            transpose64(&mut scratch.tile_in);
            for (count, plane) in ones.iter_mut().zip(&scratch.tile_in[..nbits]) {
                *count += u64::from(plane.count_ones());
            }
        }
        for &a in chunks.remainder() {
            for (b, count) in ones.iter_mut().enumerate() {
                *count += (a >> b) & 1;
            }
        }
    }

    fn window_entropy_sweep(
        &self,
        table: &BvrTable,
        window: usize,
        method: EntropyMethod,
        out: &mut Vec<f64>,
        scratch: &mut ComputeScratch,
    ) {
        out.clear();
        if out.capacity() < table.bits() {
            let _g = alloc_audit::pause();
            out.reserve(table.bits());
        }
        for b in 0..table.bits() {
            out.push(window_entropy_with_scratch(
                table.bit_row(b),
                window,
                method,
                &mut scratch.entropy,
            ));
        }
    }
}

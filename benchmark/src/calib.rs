//! A machine-speed probe, so timings from a noisy shared host can be
//! compared across runs. README.md ("Machine speed") has the measurements
//! behind it and what it costs; in short:
//!
//! The build box is a 2-vCPU slice of a large shared socket. The same
//! `valley sweep` takes 4.0 s or 7.6 s there depending on what the
//! neighbours are doing: user CPU time inflates, a pure dependent-ALU
//! loop does not move, dependent loads and throughput-bound code do. The
//! state changes every half second and its level drifts over minutes —
//! two ten-run sets of the same code read medians 23 % apart as clocked,
//! more than a regression bound may be.
//!
//! So the end-to-end run confines itself and its children to one CPU
//! ([`crate::proc::pin_to_current_cpu`]) and chases pointers through
//! three buffers sized like the simulator's own footprint (L2-resident,
//! L2-spilling, LLC-resident) right before and after every timed
//! interval; the interval's time is divided by the probe's slowdown
//! against a fixed nominal. It does not remove the noise — one reading on
//! either side of a round is itself a sample of that fast-changing state
//! — so the bounds in `BENCHMARK.json` are set to what is left, and the
//! clocked values are printed and kept in `out/results.jsonl` next to
//! the normalized ones.
//!
//! The probe shares no code with the repo, so a change to the simulator
//! cannot speed the probe up and hide in the ratio.
//!
//! It runs in a helper process of its own (`valley-benchmark probe`),
//! one measurement per line read on stdin. A child's `ru_maxrss` is never
//! reported below its parent's own resident size at spawn time (exec
//! folds the old address space's high-water mark into the new one), so
//! the process that spawns `valley` must stay smaller than `valley`
//! itself, and the probe's 21 MiB of buffers would not let it.

use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Buffer sizes in `u32` entries (1, 4 and 16 MiB) and the dependent
/// loads taken through each per measurement.
const BUFFERS: [(usize, usize); 3] = [(1 << 18, 600_000), (1 << 20, 300_000), (1 << 22, 150_000)];

/// What one measurement takes on the build box in its usual phase. Only
/// fixes the unit of the normalized times (seconds at this speed); any
/// constant would compare the same.
const NOMINAL_S: f64 = 0.050;

/// The pointer-chase buffers.
pub struct Calibrator {
    rings: Vec<(Vec<u32>, usize)>,
}

impl Calibrator {
    pub fn new() -> Self {
        let rings = BUFFERS
            .iter()
            .map(|&(len, steps)| (single_cycle_permutation(len), steps))
            .collect();
        Calibrator { rings }
    }

    /// One measurement: how much slower than nominal the machine is
    /// right now (1.0 = nominal, 1.5 = everything memory-bound takes
    /// half again as long).
    pub fn slowdown(&self) -> f64 {
        let start = Instant::now();
        for (ring, steps) in &self.rings {
            let mut i = 0u32;
            for _ in 0..black_box(*steps) {
                i = ring[i as usize];
            }
            black_box(i);
        }
        start.elapsed().as_secs_f64() / NOMINAL_S
    }
}

/// The helper's main loop: one measurement per input line, until EOF.
pub fn serve_probe() {
    let probe = Calibrator::new();
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    for _ in stdin.lock().lines() {
        if writeln!(stdout, "{:?}", probe.slowdown())
            .and_then(|()| stdout.flush())
            .is_err()
        {
            break;
        }
    }
}

/// The benchmark's handle on its probe helper process.
pub struct Probe {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Probe {
    /// Starts the helper (this same executable in `probe` mode).
    pub fn start() -> std::io::Result<Probe> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("probe")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(Probe {
            child,
            stdin,
            stdout,
        })
    }

    /// One measurement (see [`Calibrator::slowdown`]).
    ///
    /// # Panics
    ///
    /// Panics if the helper died: without it no time can be reported.
    pub fn slowdown(&mut self) -> f64 {
        let stdin = self.stdin.as_mut().expect("probe stdin open until drop");
        let mut line = String::new();
        stdin
            .write_all(b"\n")
            .and_then(|()| stdin.flush())
            .and_then(|()| self.stdout.read_line(&mut line))
            .expect("probe helper pipe");
        line.trim().parse().expect("probe helper printed a number")
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        // Closing stdin ends the helper's loop; reap it.
        self.stdin = None;
        let _ = self.child.wait();
    }
}

/// A permutation of `0..len` that is one single cycle (Sattolo's
/// algorithm over a fixed xorshift stream), so a chase visits every
/// entry before repeating and no prefetcher can follow it.
fn single_cycle_permutation(len: usize) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..len as u32).collect();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..len).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        perm.swap(i, (state % i as u64) as usize);
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_one_cycle() {
        let perm = single_cycle_permutation(1 << 10);
        let mut seen = vec![false; perm.len()];
        let mut i = 0usize;
        for _ in 0..perm.len() {
            assert!(!seen[i], "revisited {i} before covering the ring");
            seen[i] = true;
            i = perm[i] as usize;
        }
        assert_eq!(i, 0, "the chase returns to its start after len steps");
        assert!(seen.iter().all(|&s| s));
    }
}

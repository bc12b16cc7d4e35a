//! The four benchmark workloads: what each sweeps, how one timed round
//! drives the released `valley` CLI, and how the round's outputs are
//! checked.
//!
//! All four are closed loops with one client: a round starts the next
//! `valley` process only after the previous one exited. The workload
//! seed reaches the program only as `--seeds`.

use crate::io_plane::IoPlane;
use crate::proc::{self, Usage};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use valley_core::SchemeKind;
use valley_harness::{JobSpec, ResultStore, SweepSpec};
use valley_workloads::{Benchmark, Scale};

/// Identifies a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ValleySeq,
    NonvalleySeq,
    MultiseedBatched,
    IoPlane,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ValleySeq,
        Kind::NonvalleySeq,
        Kind::MultiseedBatched,
        Kind::IoPlane,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ValleySeq => "valley_seq",
            Kind::NonvalleySeq => "nonvalley_seq",
            Kind::MultiseedBatched => "multiseed_batched",
            Kind::IoPlane => "io_plane",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Where a run finds the program and keeps its files.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// The released `valley` binary.
    pub valley: PathBuf,
    /// This run's scratch directory under `benchmark/out/`.
    pub dir: PathBuf,
    /// The workload seed.
    pub seed: u64,
}

/// A job grid and the batch width it is swept with (0 = unbatched).
#[derive(Clone, Debug)]
pub struct Grid {
    pub spec: SweepSpec,
    pub batch: usize,
}

impl Grid {
    /// The grid as `valley sweep` / `serve` / `fetch` flags.
    pub fn flags(&self) -> Vec<String> {
        let join = |items: Vec<String>| items.join(",");
        vec![
            "--scale".into(),
            self.spec.scale.name().into(),
            "--benches".into(),
            join(
                self.spec
                    .benches
                    .iter()
                    .map(|b| b.label().to_string())
                    .collect(),
            ),
            "--schemes".into(),
            join(
                self.spec
                    .schemes
                    .iter()
                    .map(|s| s.label().to_string())
                    .collect(),
            ),
            "--seeds".into(),
            join(self.spec.seeds.iter().map(u64::to_string).collect()),
        ]
    }

    /// The complete `valley sweep` command line for this grid into `store`.
    pub fn sweep_args(&self, store: &Path) -> Vec<String> {
        let mut args = vec!["sweep".to_string()];
        args.extend(self.flags());
        if self.batch > 0 {
            args.extend(["--batch".into(), self.batch.to_string()]);
        }
        args.extend([
            "--workers".into(),
            "1".into(),
            "--quiet".into(),
            "--results".into(),
            store.display().to_string(),
        ]);
        args
    }
}

/// The job grid of a workload. The three simulation workloads sweep the
/// paper's grids at `ref` scale: only there do the valley and non-valley
/// grids differ in what they load (README.md, "Why `ref` scale").
/// `io_plane`'s grid is the one its fabric phase distributes.
pub fn grid(kind: Kind, seed: u64) -> Grid {
    let all = SchemeKind::ALL_SCHEMES;
    let (benches, schemes, seeds, scale, batch): (Vec<Benchmark>, Vec<SchemeKind>, Vec<u64>, _, _) =
        match kind {
            Kind::ValleySeq => (
                Benchmark::VALLEY.to_vec(),
                all.to_vec(),
                vec![seed],
                Scale::Ref,
                0,
            ),
            Kind::NonvalleySeq => (
                Benchmark::NON_VALLEY.to_vec(),
                all.to_vec(),
                vec![seed],
                Scale::Ref,
                0,
            ),
            Kind::MultiseedBatched => (
                vec![Benchmark::Mt, Benchmark::Sp, Benchmark::Mum, Benchmark::Bfs],
                vec![SchemeKind::Base, SchemeKind::Pae, SchemeKind::Fae],
                vec![seed, seed + 1, seed + 2],
                Scale::Ref,
                9,
            ),
            Kind::IoPlane => (
                Benchmark::ALL.to_vec(),
                all.to_vec(),
                vec![seed],
                Scale::Test,
                0,
            ),
        };
    Grid {
        spec: SweepSpec::new(&benches, &schemes, scale).with_seeds(&seeds),
        batch,
    }
}

/// The stored results of a set of jobs: `results_json()` per job.
pub type Digest = HashMap<JobSpec, String>;

/// Reads the results of `jobs` out of the store at `dir` through the
/// harness's own loader. Jobs the store does not hold are absent from
/// the digest; a store that fails to open yields an empty one.
pub fn digest_store(dir: &Path, jobs: &[JobSpec]) -> Digest {
    let Ok(store) = ResultStore::open(dir) else {
        return Digest::new();
    };
    jobs.iter()
        .filter_map(|job| Some((*job, store.get(job)?.report.results_json())))
        .collect()
}

/// How many of `jobs` are missing from `got` or differ from `reference`.
pub fn mismatches(jobs: &[JobSpec], got: &Digest, reference: &Digest) -> u64 {
    jobs.iter()
        .filter(|job| match (got.get(job), reference.get(job)) {
            (Some(a), Some(b)) => a != b,
            _ => true,
        })
        .count() as u64
}

/// What one round cost and whether its outputs were right.
#[derive(Clone, Debug, Default)]
pub struct Round {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub rss_kb: u64,
    /// Operations attempted: one per job, or per CLI phase plus each
    /// record it must serve.
    pub ops: u64,
    pub failed: u64,
    /// Wall milliseconds of each CLI phase (`io_plane` only).
    pub phases: Vec<(&'static str, f64)>,
}

/// One workload, set up and ready to run rounds.
pub struct Workload {
    pub kind: Kind,
    pub ctx: Ctx,
    pub grid: Grid,
    pub jobs: Vec<JobSpec>,
    /// The results every round must reproduce.
    reference: Digest,
    io: Option<IoPlane>,
}

impl Workload {
    pub fn new(kind: Kind, ctx: Ctx) -> Self {
        let grid = grid(kind, ctx.seed);
        let jobs = grid.spec.expand();
        Workload {
            kind,
            ctx,
            grid,
            jobs,
            reference: Digest::new(),
            io: None,
        }
    }

    /// Sweeps `grid` into a fresh store under this run's directory.
    /// Returns the child's usage, the wall seconds, and the store path.
    pub fn sweep(&self, grid: &Grid, tag: &str) -> (Usage, f64, PathBuf) {
        let dir = self.ctx.dir.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create round directory");
        let store = dir.join("store");
        let (usage, wall_s, _) = proc::run(
            &self.ctx.valley,
            &grid.sweep_args(&store),
            &dir.join("stdout"),
        );
        (usage, wall_s, store)
    }

    /// Everything that happens before the timed rounds: the reference
    /// results the rounds are checked against (for `multiseed_batched`,
    /// the same jobs run sequentially; for `io_plane`, the pre-populated
    /// store and a local sweep of the fabric grid) and one untimed
    /// warm-up round.
    ///
    /// Nothing a `valley` process does outlives it except what the
    /// operating system caches (the executable, directory entries), so
    /// the simulation workloads warm up with their own sweep at `small`
    /// scale: it touches everything a `ref` round touches in a twelfth
    /// of the time, and a run can afford to repeat its set-up.
    ///
    /// Returns the operations attempted and failed on the way (a broken
    /// set-up fails the run, it is not silently retried).
    pub fn setup(&mut self) -> (u64, u64) {
        let jobs = self.jobs.len() as u64;
        self.reference.clear();
        match self.kind {
            Kind::IoPlane => {
                let (io, reference, failed) = IoPlane::setup(&self.ctx, &self.grid);
                self.reference = reference;
                let warm_up = self.io.insert(io).round(&self.ctx, &self.reference);
                (2 + jobs + warm_up.ops, failed + warm_up.failed)
            }
            Kind::MultiseedBatched => {
                let sequential = Grid {
                    batch: 0,
                    ..self.grid.clone()
                };
                let (usage, _, store) = self.sweep(&sequential, "reference");
                self.reference = digest_store(&store, &self.jobs);
                let missing = jobs - self.reference.len() as u64;
                let (ops, failed) = self.warm_up();
                (1 + jobs + ops, u64::from(!usage.ok) + missing + failed)
            }
            Kind::ValleySeq | Kind::NonvalleySeq => self.warm_up(),
        }
    }

    /// The workload's sweep at `small` scale; every job must be stored.
    fn warm_up(&self) -> (u64, u64) {
        let mut small = self.grid.clone();
        small.spec.scale = Scale::Small;
        let jobs = small.spec.expand();
        let (usage, _, store) = self.sweep(&small, "warm-up");
        let stored = digest_store(&store, &jobs).len();
        let failed = if usage.ok {
            jobs.len() - stored
        } else {
            jobs.len()
        };
        (jobs.len() as u64, failed as u64)
    }

    /// One timed round. The clock covers the `valley` processes only;
    /// reading the store back and comparing results happens after it
    /// stops.
    pub fn round(&mut self) -> Round {
        match &mut self.io {
            Some(io) => io.round(&self.ctx, &self.reference),
            None => self.sweep_round(),
        }
    }

    /// The store the last `sweep_round` wrote.
    pub fn round_store(&self) -> PathBuf {
        self.ctx.dir.join("round").join("store")
    }

    /// Sweeps the workload's grid through the CLI into an empty store
    /// and checks every job's stored result against the reference. For
    /// the three simulation workloads this is the round.
    pub fn sweep_round(&mut self) -> Round {
        let (usage, wall_s, store) = self.sweep(&self.grid, "round");
        let got = digest_store(&store, &self.jobs);
        if self.reference.is_empty() {
            // First round of a sequential workload: it defines what the
            // later rounds must reproduce bit for bit.
            self.reference = got.clone();
        }
        let ops = self.jobs.len() as u64;
        let failed = if usage.ok { self.wrong(&got) } else { ops };
        Round {
            wall_s,
            cpu_s: usage.cpu_s,
            rss_kb: usage.rss_kb,
            ops,
            failed,
            phases: Vec::new(),
        }
    }

    /// How many of the workload's jobs are missing from `got` or differ
    /// from the reference results.
    pub fn wrong(&self, got: &Digest) -> u64 {
        mismatches(&self.jobs, got, &self.reference)
    }

    /// The pre-populated store state of `io_plane`.
    pub fn io(&self) -> Option<&IoPlane> {
        self.io.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(bench: Benchmark, seed: u64) -> JobSpec {
        JobSpec {
            bench,
            scheme: SchemeKind::Pae,
            seed,
            scale: Scale::Test,
            config: valley_harness::ConfigId::Table1,
        }
    }

    #[test]
    fn digest_comparison_counts_missing_and_different_jobs() {
        let jobs = [
            job(Benchmark::Mt, 1),
            job(Benchmark::Sp, 1),
            job(Benchmark::Lu, 1),
        ];
        let reference: Digest = jobs
            .iter()
            .map(|j| (*j, format!("r-{}", j.bench)))
            .collect();
        assert_eq!(mismatches(&jobs, &reference, &reference), 0);

        let mut got = reference.clone();
        got.insert(jobs[1], "different".into());
        assert_eq!(mismatches(&jobs, &got, &reference), 1);
        got.remove(&jobs[2]);
        assert_eq!(mismatches(&jobs, &got, &reference), 2);
        // A job the reference never produced cannot be vouched for.
        assert_eq!(mismatches(&jobs, &reference, &Digest::new()), 3);
    }

    #[test]
    fn grids_match_the_documented_shapes() {
        assert_eq!(grid(Kind::ValleySeq, 7).spec.expand().len(), 60);
        assert_eq!(grid(Kind::NonvalleySeq, 7).spec.expand().len(), 36);
        let multi = grid(Kind::MultiseedBatched, 7);
        assert_eq!(multi.spec.expand().len(), 36);
        assert_eq!(multi.spec.seeds, vec![7, 8, 9]);
        assert_eq!(grid(Kind::IoPlane, 7).spec.expand().len(), 96);
    }

    #[test]
    fn sweep_flags_carry_the_seed_only_as_seeds() {
        let args = grid(Kind::MultiseedBatched, 41).sweep_args(Path::new("s"));
        let line = args.join(" ");
        assert_eq!(
            line,
            "sweep --scale ref --benches MT,SP,MUM,BFS --schemes BASE,PAE,FAE \
             --seeds 41,42,43 --batch 9 --workers 1 --quiet --results s"
        );
    }

    #[test]
    fn names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}

//! The `io_plane` workload: no `small`/`ref` simulation, only what sits
//! around it. Against a 288-record store built in set-up it resumes a
//! sweep, reads status, a query and the figure tables, compacts the
//! store, then distributes a 96-job test-scale grid through the TCP
//! fabric on loopback and fetches the stored grid back over the wire.
//! Store load/append/gc, the JSON codec, wire frames and lease round
//! trips do nearly all the work; reads sit beside writes.

use crate::proc::{self, Usage, PHASE_TIMEOUT};
use crate::workloads::{digest_store, mismatches, Ctx, Digest, Grid, Round};
use std::path::{Path, PathBuf};
use std::time::Instant;
use valley_core::SchemeKind;
use valley_harness::{JobSpec, SweepSpec};
use valley_workloads::{Benchmark, Scale};

/// Seeds of the pre-populated store: 3 × 96 test-scale jobs.
const STORE_SEEDS: [u64; 3] = [1, 2, 3];

/// State built once in set-up and reused by every round.
pub struct IoPlane {
    /// The pre-populated store the local and fetch phases read.
    store: PathBuf,
    store_grid: Grid,
    /// The grid the fabric phase distributes, and its jobs.
    fabric_grid: Grid,
    fabric_jobs: Vec<JobSpec>,
    /// The figure tables of the populated store, as first rendered.
    tables: Option<String>,
    /// Wall seconds of the local reference sweep of the fabric grid.
    pub local_sweep_s: f64,
}

/// One CLI phase of a round: its cost and whether its output was right.
struct Phase {
    name: &'static str,
    wall_s: f64,
    usage: Usage,
    /// Records the phase had to serve.
    records: u64,
    /// Records (or the phase itself) that came back wrong.
    failed: u64,
}

impl IoPlane {
    /// Populates the store and sweeps the fabric grid locally. Returns
    /// the state, the local sweep's results (what a fabric-written store
    /// must equal, wall fields aside), and how many set-up operations
    /// failed.
    pub fn setup(ctx: &Ctx, fabric_grid: &Grid) -> (IoPlane, Digest, u64) {
        let store_grid = Grid {
            spec: SweepSpec::new(&Benchmark::ALL, &SchemeKind::ALL_SCHEMES, Scale::Test)
                .with_seeds(&STORE_SEEDS),
            batch: 0,
        };
        let dir = ctx.dir.join("populated");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create store directory");
        let store = dir.join("store");
        let (populate, _, _) = proc::run(
            &ctx.valley,
            &store_grid.sweep_args(&store),
            &dir.join("stdout"),
        );

        let local = ctx.dir.join("local");
        let _ = std::fs::remove_dir_all(&local);
        std::fs::create_dir_all(&local).expect("create reference directory");
        let local_store = local.join("store");
        let (reference_run, local_sweep_s, _) = proc::run(
            &ctx.valley,
            &fabric_grid.sweep_args(&local_store),
            &local.join("stdout"),
        );
        let fabric_jobs = fabric_grid.spec.expand();
        let reference = digest_store(&local_store, &fabric_jobs);
        let setup_failed = u64::from(!populate.ok)
            + u64::from(!reference_run.ok)
            + (fabric_jobs.len() - reference.len()) as u64;
        let io = IoPlane {
            store,
            store_grid,
            fabric_grid: fabric_grid.clone(),
            fabric_jobs,
            tables: None,
            local_sweep_s,
        };
        (io, reference, setup_failed)
    }

    /// Number of records in the pre-populated store.
    pub fn store_records(&self) -> u64 {
        self.store_grid.spec.expand().len() as u64
    }

    /// Number of jobs the fabric phase distributes.
    pub fn fabric_jobs(&self) -> u64 {
        self.fabric_jobs.len() as u64
    }

    /// The pre-populated store's directory.
    pub fn store_dir(&self) -> &Path {
        &self.store
    }

    pub fn round(&mut self, ctx: &Ctx, reference: &Digest) -> Round {
        let dir = ctx.dir.join("round");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create round directory");
        let store_flag = |extra: &[&str]| -> Vec<String> {
            let mut args: Vec<String> = extra.iter().map(|s| s.to_string()).collect();
            args.extend(["--results".into(), self.store.display().to_string()]);
            args
        };
        let records = self.store_records();
        let per_seed = records / STORE_SEEDS.len() as u64;
        let start = Instant::now();

        let mut resume_args = self.store_grid.sweep_args(&self.store);
        resume_args.extend(["--expect-cached".into(), "100".into()]);
        let resume = local_phase(ctx, &dir, "cli.resume_ms", &resume_args, records, |out| {
            out.contains(&format!("{records} cache hit(s), 0 executed"))
        });
        let status = local_phase(
            ctx,
            &dir,
            "cli.status_ms",
            &store_flag(&["status"]),
            records,
            |out| out.contains(&format!("({records} result(s))")),
        );
        let mt = (SchemeKind::ALL_SCHEMES.len() * STORE_SEEDS.len()) as u64;
        let query = local_phase(
            ctx,
            &dir,
            "cli.query_ms",
            &store_flag(&["query", "--bench", "MT"]),
            mt,
            |out| out.trim_end().ends_with(&format!("\n{mt} result(s)")),
        );
        let mut rendered = None;
        let figures = local_phase(
            ctx,
            &dir,
            "cli.figures_ms",
            &store_flag(&["figures", "--scale", "test", "--seed", "1", "--set", "all"]),
            per_seed,
            |out| {
                rendered = tables_of(out);
                rendered.is_some()
            },
        );
        let gc = local_phase(
            ctx,
            &dir,
            "cli.gc_ms",
            &store_flag(&["gc", "--expect-clean"]),
            records,
            |out| out.contains(&format!("gc: {records} kept, 0 removed")),
        );
        let sweep = self.fabric_sweep(ctx, &dir, reference);
        let fetch = self.fabric_fetch(ctx, &dir, per_seed, rendered.as_deref());
        let wall_s = start.elapsed().as_secs_f64();

        // The tables are a pure function of the store: every rendering,
        // local or fetched, must equal the first one.
        let mut phases = vec![resume, status, query, figures, gc, sweep, fetch];
        match (&self.tables, rendered) {
            (None, Some(t)) => self.tables = Some(t),
            (Some(first), Some(t)) if *first == t => {}
            _ => phases[3].failed = phases[3].records + 1,
        }

        let mut usage = Usage::none();
        let (mut ops, mut failed) = (0, 0);
        for p in &phases {
            usage.merge(p.usage);
            ops += 1 + p.records;
            failed += if p.usage.ok { p.failed } else { 1 + p.records };
        }
        if failed > 0 {
            eprintln!("io_plane round: {failed} of {ops} operation(s) failed");
        }
        Round {
            wall_s,
            cpu_s: usage.cpu_s,
            rss_kb: usage.rss_kb,
            ops,
            failed,
            phases: phases.iter().map(|p| (p.name, p.wall_s * 1e3)).collect(),
        }
    }

    /// `serve` on an empty store plus one `work` process draining it.
    fn fabric_sweep(&self, ctx: &Ctx, dir: &Path, reference: &Digest) -> Phase {
        let name = "fabric.sweep_ms";
        let records = self.fabric_jobs();
        let fab_store = dir.join("fabric-store");
        let mut serve_args = self.fabric_grid.flags();
        serve_args.extend([
            "--results".into(),
            fab_store.display().to_string(),
            "--quiet".into(),
        ]);
        let start = Instant::now();
        let Ok(serving) = proc::spawn_serve(&ctx.valley, &serve_args) else {
            return Phase::broken(name, start, records);
        };
        let work_args = vec![
            "work".to_string(),
            "--addr".into(),
            serving.addr.clone(),
            "--quiet".into(),
        ];
        let (work, _, _) = proc::run(&ctx.valley, &work_args, &dir.join("work.out"));
        // A failed worker leaves the coordinator waiting for leases that
        // never complete; do not sit out the full timeout for it.
        let mut usage = serving.wait(if work.ok {
            PHASE_TIMEOUT
        } else {
            std::time::Duration::ZERO
        });
        let wall_s = start.elapsed().as_secs_f64();
        usage.merge(work);
        let got = digest_store(&fab_store, &self.fabric_jobs);
        Phase {
            name,
            wall_s,
            usage,
            records,
            failed: mismatches(&self.fabric_jobs, &got, reference),
        }
    }

    /// `serve --linger` on the populated store plus one `fetch` that
    /// reads a seed's grid, renders its tables, and shuts it down.
    fn fabric_fetch(
        &self,
        ctx: &Ctx,
        dir: &Path,
        records: u64,
        local_tables: Option<&str>,
    ) -> Phase {
        let name = "fabric.fetch_ms";
        let grid_flags: Vec<String> = ["--scale", "test", "--seeds", "1"]
            .map(String::from)
            .to_vec();
        let mut serve_args = grid_flags.clone();
        serve_args.extend([
            "--results".into(),
            self.store.display().to_string(),
            "--linger".into(),
            "--quiet".into(),
        ]);
        let start = Instant::now();
        let Ok(serving) = proc::spawn_serve(&ctx.valley, &serve_args) else {
            return Phase::broken(name, start, records);
        };
        let mut fetch_args = vec!["fetch".to_string(), "--addr".into(), serving.addr.clone()];
        fetch_args.extend(grid_flags);
        fetch_args.extend(
            [
                "--figures",
                "--expect-cached",
                "100",
                "--shutdown",
                "--quiet",
            ]
            .map(String::from),
        );
        let (fetch, _, out) = proc::run(&ctx.valley, &fetch_args, &dir.join("fetch.out"));
        let mut usage = serving.wait(if fetch.ok {
            PHASE_TIMEOUT
        } else {
            std::time::Duration::ZERO
        });
        let wall_s = start.elapsed().as_secs_f64();
        usage.merge(fetch);
        let served = out.contains(&format!("fetch: {records}/{records} of the requested grid"));
        let same_tables = local_tables.is_some() && tables_of(&out).as_deref() == local_tables;
        Phase {
            name,
            wall_s,
            usage,
            records,
            failed: if served && same_tables {
                0
            } else {
                records + 1
            },
        }
    }
}

impl Phase {
    /// A phase whose first process could not even be started.
    fn broken(name: &'static str, start: Instant, records: u64) -> Phase {
        Phase {
            name,
            wall_s: start.elapsed().as_secs_f64(),
            usage: Usage::default(),
            records,
            failed: records + 1,
        }
    }
}

/// Runs one local CLI phase and checks its stdout with `check`.
fn local_phase(
    ctx: &Ctx,
    dir: &Path,
    name: &'static str,
    args: &[String],
    records: u64,
    check: impl FnOnce(&str) -> bool,
) -> Phase {
    let (usage, wall_s, out) = proc::run(&ctx.valley, args, &dir.join(format!("{name}.out")));
    Phase {
        name,
        wall_s,
        usage,
        records,
        failed: if check(&out) { 0 } else { records + 1 },
    }
}

/// The figure tables in a `figures` / `fetch --figures` transcript:
/// everything after the `figures …` header line (which names the store
/// or the coordinator and so differs between the two).
fn tables_of(out: &str) -> Option<String> {
    let header = out.lines().position(|l| l.starts_with("figures "))?;
    let tables: Vec<&str> = out
        .lines()
        .skip(header + 1)
        .take_while(|l| !l.starts_with("fetch: "))
        .collect();
    (!tables.is_empty()).then(|| tables.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_cut_after_the_header() {
        let local =
            "figures from store /x (scale test, seed 1; pure cache read)\n\nSpeedup\nMT 1.0\n";
        let fetched = "fetch: 96/96 of the requested grid served\ncache check passed\n\
                       figures fetched from 127.0.0.1:1 (scale test, seed 1; pure cache read)\n\nSpeedup\nMT 1.0\n\
                       fetch: coordinator acknowledged shutdown\n";
        assert_eq!(tables_of(local).as_deref(), Some("\nSpeedup\nMT 1.0"));
        assert_eq!(tables_of(local), tables_of(fetched));
        assert_eq!(tables_of("error: 3 of 96 results missing"), None);
    }
}

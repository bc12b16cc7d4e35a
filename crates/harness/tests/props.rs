//! Property tests for the sweep layer's two shared rules: the
//! [`Committer`] (the store always holds the settled prefix's fresh
//! results, in expansion order) and [`take_unit`] (one simulation: the
//! unit behind pool units and fabric leases).

use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::OnceLock;
use valley_core::SchemeKind;
use valley_harness::{
    execute_job, scan, take_unit, Committer, ConfigId, FailureKind, JobSpec, ResultStore,
    StoredResult, SweepSpec, WallKind,
};
use valley_sim::SimReport;
use valley_workloads::{Benchmark, Scale};

/// A fresh store directory that cleans itself up.
struct TempStore(std::path::PathBuf);

impl TempStore {
    fn new(tag: &str) -> TempStore {
        let dir =
            std::env::temp_dir().join(format!("valley-harness-props-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TempStore(dir)
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// An `n`-job grid (one job per seed) and a result for each. The
/// committer never looks inside a report, so one simulation serves all.
fn grid(n: usize) -> Vec<StoredResult> {
    static REPORT: OnceLock<SimReport> = OnceLock::new();
    let seeds: Vec<u64> = (0..n as u64).collect();
    SweepSpec::new(&[Benchmark::Sp], &[SchemeKind::Base], Scale::Test)
        .with_seeds(&seeds)
        .expand()
        .into_iter()
        .map(|spec| StoredResult {
            spec,
            report: REPORT.get_or_init(|| execute_job(&spec)).clone(),
            wall_ms: 1.0,
            wall: WallKind::Measured,
        })
        .collect()
}

/// What happens to one grid slot: already stored before the run, dead
/// mid-run, or completed with a fresh result.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fate {
    Stored,
    Dies,
    Completes,
}

/// Slot fates and the order the run settles them in (by `turn`, ties by
/// grid position).
fn fates(slots: &[(u8, u32)]) -> (Vec<Fate>, Vec<usize>) {
    let fates: Vec<Fate> = slots
        .iter()
        .map(|&(kind, _)| {
            [Fate::Stored, Fate::Dies, Fate::Completes, Fate::Completes][kind as usize]
        })
        .collect();
    let mut order: Vec<usize> = (0..slots.len())
        .filter(|&i| fates[i] != Fate::Stored)
        .collect();
    order.sort_by_key(|&i| slots[i].1);
    (fates, order)
}

proptest! {
    /// After every call the file is exactly the settled prefix's fresh
    /// results in expansion order: nothing is written early, and nothing
    /// waits once everything before it is settled.
    #[test]
    fn committer_keeps_the_settled_prefix_on_disk(
        slots in proptest::collection::vec((0u8..4, any::<u32>()), 1..12),
    ) {
        let tmp = TempStore::new("prefix");
        let store = ResultStore::open(&tmp.0).unwrap();
        let results = grid(slots.len());
        let (fates, order) = fates(&slots);
        let mut committer = Committer::new(&store, slots.len());
        let mut settled = vec![false; slots.len()];
        let check = |committer: &Committer<'_>, settled: &[bool]| {
            let prefix = settled.iter().position(|s| !s).unwrap_or(settled.len());
            let want: Vec<JobSpec> = (0..prefix)
                .filter(|&i| fates[i] == Fate::Completes)
                .map(|i| results[i].spec)
                .collect();
            let filed: Vec<JobSpec> = scan(&tmp.0).unwrap().records.iter().map(|r| r.spec).collect();
            prop_assert_eq!(filed, want);
            prop_assert_eq!(committer.committed(), prefix);
            Ok(())
        };
        for i in (0..slots.len()).filter(|&i| fates[i] == Fate::Stored) {
            prop_assert!(committer.skip(i).is_empty());
            settled[i] = true;
            check(&committer, &settled)?;
        }
        for i in order {
            let unwritten = match fates[i] {
                Fate::Completes => committer.complete(i, results[i].clone()),
                _ => committer.skip(i),
            };
            prop_assert!(unwritten.is_empty());
            settled[i] = true;
            check(&committer, &settled)?;
        }
        prop_assert_eq!(store.len(), fates.iter().filter(|&&f| f == Fate::Completes).count());
    }

    /// A store whose directory was removed under it turns each flushed
    /// record into that job's store-write failure, and the jobs behind
    /// it still get their turn.
    #[test]
    fn a_failed_write_gives_up_its_turn(
        slots in proptest::collection::vec((0u8..4, any::<u32>()), 1..12),
    ) {
        let tmp = TempStore::new("doomed");
        let store = ResultStore::open(&tmp.0).unwrap();
        std::fs::remove_dir_all(&tmp.0).unwrap();
        let results = grid(slots.len());
        let (fates, order) = fates(&slots);
        let mut committer = Committer::new(&store, slots.len());
        let mut unwritten = Vec::new();
        for i in (0..slots.len()).filter(|&i| fates[i] == Fate::Stored) {
            unwritten.extend(committer.skip(i));
        }
        for i in order {
            unwritten.extend(match fates[i] {
                Fate::Completes => committer.complete(i, results[i].clone()),
                _ => committer.skip(i),
            });
        }
        prop_assert_eq!(committer.committed(), slots.len());
        prop_assert!(unwritten.iter().all(|f| f.kind == FailureKind::StoreWrite));
        let failed: Vec<JobSpec> = unwritten.iter().map(|f| f.spec).collect();
        let fresh: Vec<JobSpec> = (0..slots.len())
            .filter(|&i| fates[i] == Fate::Completes)
            .map(|i| results[i].spec)
            .collect();
        prop_assert_eq!(failed, fresh);
        prop_assert!(store.is_empty());
    }

    /// Draining `pending` through `take_unit` yields the maximal runs
    /// of one simulation over the live jobs: a dead index neither joins
    /// nor splits a run, BASE's seeds share a unit, and each seed of a
    /// randomized scheme is a unit of its own.
    #[test]
    fn units_are_maximal_runs_of_one_simulation(
        lanes in proptest::collection::vec(
            (0usize..2, 0usize..2, 0u64..3, any::<bool>()),
            0..40,
        ),
    ) {
        let configs = [ConfigId::Table1, ConfigId::Stacked];
        let schemes = [SchemeKind::Base, SchemeKind::Pae];
        let jobs: Vec<JobSpec> = lanes
            .iter()
            .map(|&(config, scheme, seed, _)| JobSpec {
                bench: Benchmark::Sp,
                scheme: schemes[scheme],
                seed,
                scale: Scale::Test,
                config: configs[config],
            })
            .collect();
        let live = |i: usize| lanes[i].3;

        // Two live jobs run once together iff they agree on everything
        // but a seed BASE never reads.
        let same_run = |a: usize, b: usize| {
            let (ca, sa, seed_a, _) = lanes[a];
            let (cb, sb, seed_b, _) = lanes[b];
            ca == cb && sa == sb && (schemes[sa] == SchemeKind::Base || seed_a == seed_b)
        };
        let mut want: Vec<Vec<usize>> = Vec::new();
        for i in (0..jobs.len()).filter(|&i| live(i)) {
            match want.last_mut() {
                Some(unit) if same_run(unit[0], i) => unit.push(i),
                _ => want.push(vec![i]),
            }
        }

        let mut pending: VecDeque<usize> = (0..jobs.len()).collect();
        let mut got: Vec<Vec<usize>> = Vec::new();
        loop {
            let unit = take_unit(&mut pending, &jobs, live);
            if unit.is_empty() {
                break;
            }
            got.push(unit);
        }
        prop_assert!(pending.is_empty());
        prop_assert_eq!(got, want);
    }
}

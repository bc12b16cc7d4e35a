//! Property tests for the sweep layer's two shared rules: the
//! [`Committer`] (the store always holds the settled prefix's fresh
//! results, in expansion order) and [`take_unit`] (the one grouping rule
//! behind pool units and fabric leases).

use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};
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

    /// Draining `pending` through `take_unit` yields the units of an
    /// order-preserving group-by on the machine, each group chunked to
    /// `width`, over the live jobs only.
    #[test]
    fn take_unit_is_the_chunked_group_by(
        lanes in proptest::collection::vec((0usize..2, 0usize..3, any::<bool>()), 0..40),
        width in 0usize..6,
    ) {
        let configs = [ConfigId::Table1, ConfigId::Stacked];
        let jobs: Vec<JobSpec> = lanes
            .iter()
            .enumerate()
            .map(|(i, &(config, scheme, _))| JobSpec {
                bench: Benchmark::Sp,
                scheme: SchemeKind::ALL_SCHEMES[scheme],
                seed: i as u64,
                scale: Scale::Test,
                config: configs[config],
            })
            .collect();
        let live = |i: usize| lanes[i].2;

        let mut want: Vec<Vec<usize>> = Vec::new();
        let mut open: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        for i in (0..jobs.len()).filter(|&i| live(i)) {
            let key = (lanes[i].0, lanes[i].1);
            match open.get(&key) {
                Some(&u) if want[u].len() < width.max(1) => want[u].push(i),
                _ => {
                    open.insert(key, want.len());
                    want.push(vec![i]);
                }
            }
        }

        let mut pending: VecDeque<usize> = (0..jobs.len()).collect();
        let mut got: Vec<Vec<usize>> = Vec::new();
        loop {
            let unit = take_unit(&mut pending, width, &jobs, live);
            if unit.is_empty() {
                break;
            }
            got.push(unit);
        }
        prop_assert!(pending.is_empty());
        prop_assert_eq!(got, want);
    }
}

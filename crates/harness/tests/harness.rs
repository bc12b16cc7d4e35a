//! Integration tests for the sweep engine: resume semantics, store
//! persistence across processes-worth of reopens, determinism across
//! worker counts, and loud failure on schema drift.

use valley_core::SchemeKind;
use valley_harness::{
    execute_batch_timed, execute_job, run_sweep, ConfigId, JobSpec, ResultStore, StoredResult,
    SweepOptions, SweepSpec, WallKind, DEFAULT_SEED, STORE_FILE,
};
use valley_workloads::{Benchmark, Scale};

/// A fresh store directory that cleans itself up.
struct TempStore(std::path::PathBuf);

impl TempStore {
    fn new(tag: &str) -> TempStore {
        let dir =
            std::env::temp_dir().join(format!("valley-harness-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        TempStore(dir)
    }

    fn open(&self) -> ResultStore {
        ResultStore::open(&self.0).expect("store opens")
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Every job of `spec` as `store` holds it, in grid order: a sweep
/// hands back counts, and the results live in the store.
fn stored(spec: &SweepSpec, store: &ResultStore) -> Vec<StoredResult> {
    spec.expand()
        .iter()
        .map(|job| store.get(job).expect("a finished sweep stored every job"))
        .collect()
}

fn small_spec() -> SweepSpec {
    SweepSpec::new(
        &[Benchmark::Sp, Benchmark::Mt],
        &[SchemeKind::Base, SchemeKind::Pae],
        Scale::Test,
    )
}

#[test]
fn second_sweep_is_all_cache_hits_with_identical_results() {
    let tmp = TempStore::new("resume");
    let store = tmp.open();
    let spec = small_spec();

    let first = run_sweep(&spec, &store, &SweepOptions::default()).unwrap();
    assert_eq!(first.jobs, 4);
    assert_eq!(first.cache_hits, 0);
    assert_eq!(first.executed, 4);
    let fresh = stored(&spec, &store);

    let second = run_sweep(&spec, &store, &SweepOptions::default()).unwrap();
    assert_eq!(second.cache_hits, 4);
    assert_eq!(second.executed, 0);
    // What a later process reads back is what the first sweep ran.
    for (a, b) in fresh.iter().zip(stored(&spec, &tmp.open())) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.report, b.report, "{}: cached result differs", a.spec);
        assert_eq!(
            a.report.results_json(),
            execute_job(&a.spec).results_json(),
            "{}: stored result differs from a solo run",
            a.spec
        );
    }
}

#[test]
fn store_survives_reopen_and_serves_across_sweep_shapes() {
    let tmp = TempStore::new("reopen");
    {
        let store = tmp.open();
        run_sweep(&small_spec(), &store, &SweepOptions::default()).unwrap();
    }
    // A different sweep over a superset reuses the overlapping jobs.
    let store = tmp.open();
    assert_eq!(store.len(), 4);
    let bigger = SweepSpec::new(
        &[Benchmark::Sp, Benchmark::Mt, Benchmark::Lu],
        &[SchemeKind::Base, SchemeKind::Pae],
        Scale::Test,
    );
    let out = run_sweep(&bigger, &store, &SweepOptions::default()).unwrap();
    assert_eq!(out.jobs, 6);
    assert_eq!(out.cache_hits, 4);
    assert_eq!(out.executed, 2);
}

#[test]
fn results_are_deterministic_across_worker_counts() {
    let tmp1 = TempStore::new("det1");
    let tmp8 = TempStore::new("det8");
    let spec = small_spec();
    let swept = |tmp: &TempStore, workers| {
        let store = tmp.open();
        let opts = SweepOptions {
            workers: Some(workers),
            ..Default::default()
        };
        run_sweep(&spec, &store, &opts).unwrap();
        stored(&spec, &store)
    };
    let (serial, parallel) = (swept(&tmp1, 1), swept(&tmp8, 8));
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.spec, b.spec, "job order depends on worker count");
        assert_eq!(
            a.report, b.report,
            "{}: report depends on worker count",
            a.spec
        );
    }
}

#[test]
fn a_default_sweep_runs_each_distinct_simulation_once() {
    // BASE never reads the seed, so its three seeds per (bench, config)
    // are one simulation; PAE's are three. Two configs, so a BASE unit
    // must never swallow the other machine's lanes.
    let tmp = TempStore::new("dedupe");
    let spec = SweepSpec::new(
        &[Benchmark::Sp, Benchmark::Mt, Benchmark::Mum],
        &[SchemeKind::Base, SchemeKind::Pae],
        Scale::Test,
    )
    .with_seeds(&[1, 2, 3])
    .with_configs(&[ConfigId::Table1, ConfigId::Stacked]);
    let store = tmp.open();
    let swept = run_sweep(&spec, &store, &SweepOptions::default()).unwrap();
    assert_eq!((swept.executed, swept.jobs), (36, 36));
    let distinct: valley_core::hash::FastSet<JobSpec> =
        spec.expand().iter().map(JobSpec::simulation).collect();
    assert_eq!(distinct.len(), 2 * 3 + 2 * 3 * 3);
    let stored = stored(&spec, &store);
    let measured = stored.iter().filter(|j| j.wall == WallKind::Measured);
    assert_eq!(measured.count(), distinct.len());
    for j in &stored {
        assert_eq!(
            j.report.results_json(),
            execute_job(&j.spec).results_json(),
            "{}: swept report differs from its solo run",
            j.spec
        );
        if j.wall == WallKind::Cloned {
            assert_eq!(j.wall_ms, 0.0, "{}: a clone costs nothing", j.spec);
        }
    }
}

#[test]
fn mixed_config_batch_runs_each_lane_on_its_own_machine() {
    // A batch is whatever slice it is handed (a fabric lease arrives
    // unchecked): lanes on different machines, and seeds that dedupe
    // under BASE but not under PAE, must each equal their own solo run.
    let specs: Vec<JobSpec> = SweepSpec::new(
        &[Benchmark::Sp],
        &[SchemeKind::Base, SchemeKind::Pae],
        Scale::Test,
    )
    .with_seeds(&[1, 2])
    .with_configs(&[ConfigId::Table1, ConfigId::Stacked])
    .expand();
    let lanes = execute_batch_timed(&specs);
    assert_eq!(lanes.len(), specs.len());
    for (spec, lane) in specs.iter().zip(&lanes) {
        assert_eq!(
            lane.report.results_json(),
            execute_job(spec).results_json(),
            "{spec}: batched lane differs from its solo run"
        );
    }
    let cloned = lanes.iter().filter(|l| l.wall == WallKind::Cloned).count();
    assert_eq!(cloned, 2, "one BASE seed-2 clone per machine");
}

#[test]
fn executed_lanes_are_measured_and_an_unknown_wall_kind_is_refused() {
    let tmp = TempStore::new("wall-kinds");
    let spec = SweepSpec::new(
        &[Benchmark::Sp, Benchmark::Mt, Benchmark::Mum],
        &[SchemeKind::Base, SchemeKind::Pae],
        Scale::Test,
    )
    .with_seeds(&[1, 2, 3]);
    let store = tmp.open();
    let swept = run_sweep(&spec, &store, &SweepOptions::default()).unwrap();
    let stored = stored(&spec, &store);
    // BASE never reads the seed: two of its three seeds per bench clone.
    let cloned = stored.iter().filter(|j| j.wall == WallKind::Cloned);
    assert_eq!(cloned.count(), 6);
    let measured_ms: f64 = stored.iter().map(|j| j.wall_ms).sum();
    assert!(
        (swept.simulated_ms - measured_ms).abs() <= 1e-9 * measured_ms,
        "the sweep simulated for {} ms, its records say {measured_ms}",
        swept.simulated_ms
    );
    for j in stored.iter().filter(|j| j.wall != WallKind::Cloned) {
        assert_eq!(
            j.wall,
            WallKind::Measured,
            "{}: executed lane not measured",
            j.spec
        );
        assert!(j.wall_ms > 0.0, "{}: executed lane has no wall", j.spec);
    }

    // No store this code could write says anything else: a wall kind
    // it does not know fails loudly instead of loading as something.
    let path = tmp.0.join(STORE_FILE);
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(
        &path,
        text.replace("\"wall\":\"measured\"", "\"wall\":\"averaged\""),
    )
    .unwrap();
    let err = ResultStore::open(&tmp.0).expect_err("an unknown wall kind loads");
    assert!(
        err.to_string()
            .contains("line 1: StoredResult field 'wall': unknown WallKind"),
        "{err}"
    );
}

#[test]
fn scales_do_not_shadow_each_other_in_the_store() {
    let tmp = TempStore::new("scales");
    let store = tmp.open();
    let job = |scale| JobSpec {
        bench: Benchmark::Sp,
        scheme: SchemeKind::Base,
        seed: DEFAULT_SEED,
        scale,
        config: ConfigId::Table1,
    };
    let spec = SweepSpec::new(&[Benchmark::Sp], &[SchemeKind::Base], Scale::Test);
    run_sweep(&spec, &store, &SweepOptions::default()).unwrap();
    assert!(store.get(&job(Scale::Test)).is_some());
    assert!(store.get(&job(Scale::Small)).is_none());
    assert!(store.get(&job(Scale::Ref)).is_none());
    // The clone-free presence check and the filtered listing agree.
    for scale in [Scale::Test, Scale::Small, Scale::Ref] {
        assert_eq!(
            store.contains(&job(scale)),
            store.get(&job(scale)).is_some()
        );
        let listed = store.entries_where(|r| r.spec.scale == scale);
        assert_eq!(listed.len(), usize::from(scale == Scale::Test));
    }
}

#[test]
fn force_reexecutes_but_preserves_determinism() {
    let tmp = TempStore::new("force");
    let store = tmp.open();
    let spec = SweepSpec::new(&[Benchmark::Sp], &[SchemeKind::Pae], Scale::Test);
    run_sweep(&spec, &store, &SweepOptions::default()).unwrap();
    let first = stored(&spec, &store);
    let forced = run_sweep(
        &spec,
        &store,
        &SweepOptions {
            force: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(forced.cache_hits, 0);
    assert_eq!(stored(&spec, &store)[0].report, first[0].report);
}

#[test]
fn unknown_store_version_fails_loudly() {
    let tmp = TempStore::new("version");
    {
        let store = tmp.open();
        run_sweep(
            &SweepSpec::new(&[Benchmark::Sp], &[SchemeKind::Base], Scale::Test),
            &store,
            &SweepOptions::default(),
        )
        .unwrap();
    }
    // Rewrite the record to claim a future version.
    let file = tmp.0.join(STORE_FILE);
    let text = std::fs::read_to_string(&file).unwrap();
    std::fs::write(&file, text.replacen("{\"v\":2,", "{\"v\":99,", 1)).unwrap();
    let err = ResultStore::open(&tmp.0).unwrap_err();
    assert!(err.to_string().contains("version 99"), "wrong error: {err}");
}

#[test]
fn truncated_final_line_is_dropped_not_fatal() {
    let tmp = TempStore::new("truncated");
    {
        let store = tmp.open();
        run_sweep(
            &SweepSpec::new(&[Benchmark::Sp], &[SchemeKind::Base], Scale::Test),
            &store,
            &SweepOptions::default(),
        )
        .unwrap();
    }
    let file = tmp.0.join(STORE_FILE);
    let text = std::fs::read_to_string(&file).unwrap();
    // Simulate a crash mid-append: keep half of the (only) record.
    std::fs::write(&file, &text[..text.len() / 2]).unwrap();
    let store = ResultStore::open(&tmp.0).unwrap();
    assert_eq!(store.len(), 0, "truncated record must not be served");
    // And the sweep simply re-runs the job.
    let out = run_sweep(
        &SweepSpec::new(&[Benchmark::Sp], &[SchemeKind::Base], Scale::Test),
        &store,
        &SweepOptions::default(),
    )
    .unwrap();
    assert_eq!(out.executed, 1);
}

#[test]
fn corrupt_interior_line_is_fatal() {
    let tmp = TempStore::new("corrupt");
    {
        let store = tmp.open();
        // The garbage line goes *before* a valid record.
        run_sweep(
            &SweepSpec::new(&[Benchmark::Sp], &[SchemeKind::Base], Scale::Test),
            &store,
            &SweepOptions::default(),
        )
        .unwrap();
    }
    let file = tmp.0.join(STORE_FILE);
    let text = std::fs::read_to_string(&file).unwrap();
    std::fs::write(&file, format!("this is not json\n{text}")).unwrap();
    let err = ResultStore::open(&tmp.0).unwrap_err();
    assert!(err.to_string().contains("line 1"), "wrong error: {err}");
}

#[test]
fn interior_truncated_line_is_fatal() {
    // A line truncated by a crash is only tolerable as the *final*
    // unterminated line; the same fragment in the interior of the file
    // (i.e. followed by more records) is real corruption and must fail
    // the open loudly, naming the line.
    let tmp = TempStore::new("interior-trunc");
    {
        let store = tmp.open();
        run_sweep(
            &SweepSpec::new(&[Benchmark::Sp], &[SchemeKind::Base], Scale::Test),
            &store,
            &SweepOptions::default(),
        )
        .unwrap();
    }
    let file = tmp.0.join(STORE_FILE);
    let text = std::fs::read_to_string(&file).unwrap();
    let record = text.trim_end();
    let half = &record[..record.len() / 2];
    // File layout: [truncated fragment]\n[valid record]\n — terminated.
    std::fs::write(&file, format!("{half}\n{record}\n")).unwrap();
    let err = ResultStore::open(&tmp.0).unwrap_err();
    assert!(err.to_string().contains("line 1"), "wrong error: {err}");

    // The same fragment as the final line but *newline-terminated* is
    // interior-equivalent (the append that wrote the newline finished),
    // so it must also be fatal.
    std::fs::write(&file, format!("{record}\n{half}\n")).unwrap();
    let err = ResultStore::open(&tmp.0).unwrap_err();
    assert!(err.to_string().contains("line 2"), "wrong error: {err}");
}

#[test]
fn truncated_tail_is_cut_so_later_appends_cannot_weld() {
    // Regression: `open` used to drop a truncated final line from the
    // index but leave it in the file. The next append then concatenated
    // a fresh record onto the fragment — one permanently corrupt
    // interior line that failed every later open.
    let tmp = TempStore::new("weld");
    let spec = SweepSpec::new(&[Benchmark::Sp], &[SchemeKind::Base], Scale::Test);
    {
        let store = tmp.open();
        run_sweep(&spec, &store, &SweepOptions::default()).unwrap();
    }
    let file = tmp.0.join(STORE_FILE);
    let text = std::fs::read_to_string(&file).unwrap();
    std::fs::write(&file, &text[..text.len() / 2]).unwrap();

    // Open drops the fragment from the file itself...
    {
        let store = tmp.open();
        assert_eq!(store.len(), 0);
        assert_eq!(
            std::fs::metadata(&file).unwrap().len(),
            0,
            "the partial line must be truncated from disk"
        );
        // ...so the re-run's append starts on a fresh line.
        run_sweep(&spec, &store, &SweepOptions::default()).unwrap();
    }
    // And the store keeps opening cleanly afterwards.
    let store = tmp.open();
    assert_eq!(store.len(), 1);
}

/// A store file cut anywhere inside its last line — a crash mid-append,
/// or a record that lost only its newline — must open, serve only whole
/// records and end on a line boundary, so the next append neither welds
/// onto the cut line nor is lost: every cut of a 3-record store, then one
/// more `put`, reopens with every record.
#[test]
fn a_cut_anywhere_in_the_last_line_leaves_a_store_that_appends_cleanly() {
    let tmp = TempStore::new("cut-last-line");
    let job = |seed| JobSpec {
        bench: Benchmark::Sp,
        scheme: SchemeKind::Pae,
        seed,
        scale: Scale::Test,
        config: ConfigId::Table1,
    };
    let report = execute_job(&job(1));
    {
        let store = tmp.open();
        for seed in 1..=3 {
            store
                .put(&job(seed), &report, 1.0, WallKind::Measured)
                .unwrap();
        }
    }
    let file = tmp.0.join(STORE_FILE);
    let full = std::fs::read_to_string(&file).unwrap();
    let last = full[..full.len() - 1].rfind('\n').unwrap() + 1;
    for cut in last..full.len() {
        std::fs::write(&file, &full[..cut]).unwrap();
        let whole = if cut == full.len() - 1 { 3 } else { 2 };
        let store = tmp.open();
        assert_eq!(store.len(), whole, "cut at byte {cut}");
        assert!((1..=whole as u64).all(|seed| store.contains(&job(seed))));
        store
            .put(&job(4), &report, 1.0, WallKind::Measured)
            .unwrap();
        drop(store);
        let reopened = ResultStore::open(&tmp.0)
            .unwrap_or_else(|e| panic!("cut at byte {cut}: the append welded: {e}"));
        assert_eq!(reopened.len(), whole + 1, "cut at byte {cut}");
        assert_eq!(reopened.get(&job(4)).unwrap().report, report);
    }
}

#[test]
fn gc_compacts_force_duplicates() {
    let tmp = TempStore::new("gc-dups");
    let spec = SweepSpec::new(
        &[Benchmark::Sp, Benchmark::Mt],
        &[SchemeKind::Base],
        Scale::Test,
    );
    let store = tmp.open();
    run_sweep(&spec, &store, &SweepOptions::default()).unwrap();
    let forced = SweepOptions {
        force: true,
        ..Default::default()
    };
    run_sweep(&spec, &store, &forced).unwrap();
    run_sweep(&spec, &store, &forced).unwrap();
    drop(store);

    let scan = valley_harness::scan(&tmp.0).unwrap();
    assert_eq!(scan.records.len(), 2);
    assert_eq!(scan.duplicates, 4, "two forced re-runs leave two dups each");

    let report = valley_harness::gc(&tmp.0).unwrap();
    assert_eq!(report.kept, 2);
    assert_eq!(report.duplicates_removed, 4);
    assert_eq!(report.orphans_removed, 0);
    assert!(report.bytes_after < report.bytes_before);

    // The compacted store serves the same (newest) results.
    let store = tmp.open();
    assert_eq!(store.len(), 2);
    let again = run_sweep(&spec, &store, &SweepOptions::default()).unwrap();
    assert_eq!(again.cache_hits, 2);

    // A second gc is a no-op.
    let report = valley_harness::gc(&tmp.0).unwrap();
    assert_eq!(report.removed(), 0);
    assert_eq!(report.bytes_after, report.bytes_before);
}

#[test]
fn gc_drops_orphaned_schema_records_and_truncated_tails() {
    let tmp = TempStore::new("gc-orphans");
    let spec = SweepSpec::new(&[Benchmark::Sp], &[SchemeKind::Base], Scale::Test);
    {
        let store = tmp.open();
        run_sweep(&spec, &store, &SweepOptions::default()).unwrap();
    }
    // Forge an orphan (a well-formed record whose stored hash no longer
    // matches its coordinates — the signature of a schema change) and a
    // truncated tail in the file.
    let file = tmp.0.join(STORE_FILE);
    let text = std::fs::read_to_string(&file).unwrap();
    let record = text.trim_end();
    let orphan = record.replacen("\"hash\":\"", "\"hash\":\"feed", 1);
    let half = &record[..record.len() / 2];
    std::fs::write(&file, format!("{orphan}\n{record}\n{half}")).unwrap();

    // Strict open refuses the orphan; the lenient scan counts it.
    assert!(ResultStore::open(&tmp.0).is_err());
    let scan = valley_harness::scan(&tmp.0).unwrap();
    assert_eq!(
        (scan.records.len(), scan.orphans, scan.truncated),
        (1, 1, 1)
    );

    let report = valley_harness::gc(&tmp.0).unwrap();
    assert_eq!(report.kept, 1);
    assert_eq!(report.orphans_removed, 1);
    assert_eq!(report.truncated_removed, 1);

    // After compaction the strict open works again and the surviving
    // record is served.
    let store = tmp.open();
    assert_eq!(store.len(), 1);
    let out = run_sweep(&spec, &store, &SweepOptions::default()).unwrap();
    assert_eq!(out.cache_hits, 1);
}

/// Store lines as older builds wrote them (MT/BASE at test scale), each
/// with the report version it carries:
/// - before the lookup-counting change: job-key schema 2, report schema
///   2 with its `epoch_hist` member, and miss counters that grew by one
///   per stalled cycle;
/// - before the unread DRAM counters left: job-key and report schema 3,
///   with `precharges`, `busy_cycles`, `data_bus_cycles`, `total_cycles`
///   and `total_latency` in its `dram` object;
/// - before the clocks were integers: job-key and report schema 4, with
///   `core_clock_ghz`.
///
/// Strict readers refuse each by file, line and versions; `valley status`
/// counts it; `valley gc` drops it.
#[test]
fn a_v2_store_line_is_refused_by_open_counted_by_scan_and_dropped_by_gc() {
    const V2_LINE: &str = r#"{"v":2,"hash":"a57e9c069c65b681","bench":"MT","scheme":"BASE","seed":1,"scale":"test","config":"table1","wall_ms":2.152987,"wall":"measured","report":{"v":2,"benchmark":"MT","scheme":"BASE","cycles":41137,"truncated":false,"warp_instructions":512,"thread_instructions":16384,"memory_transactions":4224,"l1":{"hits":0,"misses":128,"evictions":64},"llc":{"hits":0,"misses":4224,"evictions":96},"noc_latency":13866.435661764706,"llc_parallelism":1.2830188679245282,"channel_parallelism":1.0471743993774925,"bank_parallelism":3.0889838380085455,"dram":{"activates":681,"precharges":676,"reads":128,"writes":4096,"row_hits":3543,"row_empties":5,"row_conflicts":676,"busy_cycles":28420,"data_bus_cycles":28414,"total_cycles":108600,"total_latency":281843},"kernels":2,"dram_cycles":27150,"dram_channels":4,"core_clock_ghz":1.4,"dram_clock_ghz":0.924,"num_sms":12,"sm_busy_fraction":0.1890714766106749,"epoch_hist":{"lengths":[0,0,0,0,0,0,0,0],"in_flight_multi":0}}}"#;
    const V3_LINE: &str = r#"{"v":2,"hash":"61c7b3f4ab8f7b1c","bench":"MT","scheme":"BASE","seed":1,"scale":"test","config":"table1","wall_ms":2.937795,"wall":"measured","report":{"v":3,"benchmark":"MT","scheme":"BASE","cycles":41137,"truncated":false,"warp_instructions":512,"thread_instructions":16384,"memory_transactions":4224,"l1":{"hits":0,"misses":128,"evictions":64},"llc":{"hits":0,"misses":4224,"evictions":96},"noc_latency":13866.435661764706,"llc_parallelism":1.2830188679245282,"channel_parallelism":1.0471743993774925,"bank_parallelism":3.0889838380085455,"dram":{"activates":681,"precharges":676,"reads":128,"writes":4096,"row_hits":3543,"row_empties":5,"row_conflicts":676,"busy_cycles":28420,"data_bus_cycles":28414,"total_cycles":108600,"total_latency":281843},"kernels":2,"dram_cycles":27150,"dram_channels":4,"core_clock_ghz":1.4,"dram_clock_ghz":0.924,"num_sms":12,"sm_busy_fraction":0.1890714766106749}}"#;
    const V4_LINE: &str = r#"{"v":2,"hash":"61c94af680905f7b","bench":"MT","scheme":"BASE","seed":1,"scale":"test","config":"table1","wall_ms":2.343556,"wall":"measured","report":{"v":4,"benchmark":"MT","scheme":"BASE","cycles":41137,"truncated":false,"warp_instructions":512,"thread_instructions":16384,"memory_transactions":4224,"l1":{"hits":0,"misses":128,"evictions":64},"llc":{"hits":0,"misses":4224,"evictions":96},"noc_latency":13866.435661764706,"llc_parallelism":1.2830188679245282,"channel_parallelism":1.0471743993774925,"bank_parallelism":3.0889838380085455,"dram":{"activates":681,"reads":128,"writes":4096,"row_hits":3543,"row_empties":5,"row_conflicts":676},"kernels":2,"dram_cycles":27150,"dram_channels":4,"core_clock_ghz":1.4,"dram_clock_ghz":0.924,"num_sms":12,"sm_busy_fraction":0.1890714766106749}}"#;
    let spec = SweepSpec::new(&[Benchmark::Mt], &[SchemeKind::Base], Scale::Test);
    for (name, line, version) in [
        ("v2-line", V2_LINE, 2),
        ("v3-line", V3_LINE, 3),
        ("v4-line", V4_LINE, 4),
    ] {
        let tmp = TempStore::new(name);
        {
            let store = tmp.open();
            run_sweep(&spec, &store, &SweepOptions::default()).unwrap();
        }
        let file = tmp.0.join(STORE_FILE);
        let current = std::fs::read_to_string(&file).unwrap();
        std::fs::write(&file, format!("{current}{line}\n")).unwrap();

        let err = ResultStore::open(&tmp.0).unwrap_err().to_string();
        assert!(err.contains("results.jsonl line 2: "), "{err}");
        assert!(
            err.contains(&format!(
                "SimReport schema version {version} is not the supported 5"
            )),
            "{err}"
        );
        let scan = valley_harness::scan(&tmp.0).unwrap();
        assert_eq!((scan.records.len(), scan.orphans), (1, 1), "{name}");
        let report = valley_harness::gc(&tmp.0).unwrap();
        assert_eq!((report.kept, report.orphans_removed), (1, 1), "{name}");
        assert_eq!(std::fs::read_to_string(&file).unwrap(), current);
        assert_eq!(tmp.open().len(), 1);
    }
}

#[test]
fn mixed_debris_in_one_file_is_counted_alike_by_scan_gc_and_open() {
    // A `--force` duplicate, an orphan and a torn tail share the file:
    // the lenient scan (`valley status`), gc and the strict open after
    // gc each read it with their own policy and must agree on the counts.
    let tmp = TempStore::new("mixed-debris");
    let spec = SweepSpec::new(&[Benchmark::Sp], &[SchemeKind::Base], Scale::Test);
    {
        let store = tmp.open();
        run_sweep(&spec, &store, &SweepOptions::default()).unwrap();
        let forced = SweepOptions {
            force: true,
            ..Default::default()
        };
        run_sweep(&spec, &store, &forced).unwrap();
    }
    let file = tmp.0.join(STORE_FILE);
    let text = std::fs::read_to_string(&file).unwrap();
    let newest = text.lines().last().unwrap();
    let orphan = newest.replacen("\"hash\":\"", "\"hash\":\"feed", 1);
    let half = &newest[..newest.len() / 2];
    std::fs::write(&file, format!("{text}{orphan}\n{half}")).unwrap();

    assert!(
        ResultStore::open(&tmp.0).is_err(),
        "open stays strict about the orphan"
    );
    let scan = valley_harness::scan(&tmp.0).unwrap();
    assert_eq!(
        (
            scan.records.len(),
            scan.duplicates,
            scan.orphans,
            scan.truncated
        ),
        (1, 1, 1, 1)
    );
    let report = valley_harness::gc(&tmp.0).unwrap();
    assert_eq!(
        (
            report.kept,
            report.duplicates_removed,
            report.orphans_removed,
            report.truncated_removed
        ),
        (1, 1, 1, 1)
    );
    // The survivor is the forced re-run's line: the last occurrence wins.
    assert_eq!(
        std::fs::read_to_string(&file).unwrap(),
        format!("{newest}\n")
    );
    assert_eq!(tmp.open().len(), 1);
    let scan = valley_harness::scan(&tmp.0).unwrap();
    assert_eq!(
        (
            scan.records.len(),
            scan.duplicates,
            scan.orphans,
            scan.truncated
        ),
        (1, 0, 0, 0)
    );
}

/// A directory written by the 16-shard layout is refused by every
/// reader with the migration command, not read as empty (and silently
/// re-simulated); after the migration it opens and is clean.
#[test]
fn sharded_layout_is_refused_with_the_migration_line() {
    let tmp = TempStore::new("sharded");
    let spec = small_spec();
    run_sweep(&spec, &tmp.open(), &SweepOptions::default()).unwrap();
    // Deal the records out the way the old layout kept them.
    let file = tmp.0.join(STORE_FILE);
    let text = std::fs::read_to_string(&file).unwrap();
    std::fs::remove_file(&file).unwrap();
    for (i, line) in text.lines().enumerate() {
        let shard = tmp.0.join(format!("shard-{:02}.jsonl", 3 * i));
        std::fs::write(shard, format!("{line}\n")).unwrap();
    }
    let migration = format!("cat shard-*.jsonl > {STORE_FILE} && rm shard-*.jsonl");
    for refusal in [
        ResultStore::open(&tmp.0).unwrap_err(),
        valley_harness::scan(&tmp.0).unwrap_err(),
        valley_harness::gc(&tmp.0).unwrap_err(),
    ] {
        let msg = refusal.to_string();
        assert!(msg.contains(&migration), "no migration line: {msg}");
    }
    assert!(!file.exists(), "a refusal must not touch the directory");

    let status = std::process::Command::new("sh")
        .arg("-c")
        .arg(&migration)
        .current_dir(&tmp.0)
        .status()
        .unwrap();
    assert!(status.success());
    assert_eq!(valley_harness::gc(&tmp.0).unwrap().removed(), 0);
    let again = run_sweep(&spec, &tmp.open(), &SweepOptions::default()).unwrap();
    assert_eq!((again.cache_hits, again.executed), (4, 0));
}

/// A cold sweep's file is the grid in expansion order, whatever the
/// worker count.
#[test]
fn cold_sweep_file_is_the_grid_in_expansion_order() {
    let spec = SweepSpec::new(
        &[Benchmark::Sp, Benchmark::Mt],
        &[SchemeKind::Base, SchemeKind::Pae],
        Scale::Test,
    )
    .with_seeds(&[1, 2]);
    for workers in [1, 2, 3] {
        let tmp = TempStore::new(&format!("order-{workers}"));
        let opts = SweepOptions {
            workers: Some(workers),
            ..Default::default()
        };
        run_sweep(&spec, &tmp.open(), &opts).unwrap();
        let scan = valley_harness::scan(&tmp.0).unwrap();
        let filed: Vec<JobSpec> = scan.records.iter().map(|r| r.spec).collect();
        assert_eq!(filed, spec.expand(), "workers {workers}");
    }
}

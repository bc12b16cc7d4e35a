//! The persistent, content-addressed result store.
//!
//! Results live under a directory (by default `results/`) in one
//! append-only JSON-lines file, [`STORE_FILE`]. Each line is one
//! self-describing record — store version, content hash, then
//! [`StoredResult`]'s declared members with the job's coordinates
//! flattened in (see `record_line`):
//!
//! ```json
//! {"v":2,"hash":"9f3c…","bench":"MT","scheme":"PAE","seed":1,
//!  "scale":"ref","config":"table1","wall_ms":139.4,"wall":"measured",
//!  "report":{"v":5,…}}
//! ```
//!
//! One mutex covers the index and the file, so an append is atomic. A
//! sweep's records are appended by its one committer
//! ([`crate::sweep::Committer`]) in grid order as jobs finish: a cold
//! sweep's file *is* `SweepSpec::expand()` order, and a killed sweep
//! keeps the prefix it finished. On open the file is read into an
//! in-memory index of each job's last record, keyed by the [`JobSpec`]
//! itself; a re-run sweep then skips every job already present
//! (*resume*), and figure regeneration is a pure cache read.
//!
//! Failure policy — **loud**: a record with an unknown store version, a
//! report with a mismatched schema version, a hash that does not match
//! its own coordinates (the canonical key format changed), or corrupt
//! JSON anywhere but the final line all fail `open` with a precise
//! message. The one tolerated defect is a truncated *final* line, the
//! signature of a run killed mid-append; it is dropped with a warning —
//! and **physically truncated from the file**, so a later append cannot
//! weld a fresh record onto the partial line and corrupt both
//! permanently — and the job simply re-runs. A final record that lost
//! only its newline is whole: `open` **writes the newline back** and
//! serves it, so the next append starts on a fresh line. A directory
//! still holding the `shard-NN.jsonl` files of the earlier 16-shard
//! layout is refused with the one-line migration (the records are
//! unchanged) instead of being read as empty and silently re-simulated.
//!
//! Two append-only defects accumulate instead of failing: `--force`
//! re-runs append duplicate records for the same [`JobKey`] (only the
//! last wins on load), and a [`crate::job::SCHEMA_VERSION`] bump orphans
//! every stored record. [`scan`] reports both leniently and [`gc`]
//! compacts them away; `valley status` / `valley gc` expose them.

use crate::job::{JobSpec, WallKind};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use valley_core::hash::FastMap;
use valley_sim::json::{self, Json};
use valley_sim::record::{check_version, description, Field, Members, Record};
use valley_sim::SimReport;

/// Version of the store record layout (independent of the report schema
/// nested inside it). v2 added the `wall` attribution field (see
/// [`WallKind`]): v1 records silently mixed measured walls with batch
/// averages, so they are orphaned rather than reinterpreted.
pub const STORE_VERSION: u32 = 2;

/// Name of the one append-only JSON-lines file under the store directory.
pub const STORE_FILE: &str = "results.jsonl";

/// One stored result: the job's coordinates, its report, and how long
/// the simulation took when it actually ran.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredResult {
    /// The job this result answers.
    pub spec: JobSpec,
    /// The simulation report.
    pub report: SimReport,
    /// Wall time of the original execution, in milliseconds.
    pub wall_ms: f64,
    /// How `wall_ms` was obtained (measured, or 0 for a cloned duplicate
    /// lane).
    pub wall: WallKind,
}

// The wire shape; a store line is derived from it (see `record_line`).
valley_sim::record!(StoredResult {
    spec: JobSpec = "job",
    wall_ms: f64 = "wall_ms",
    wall: WallKind = "wall",
    report: SimReport = "report",
});

/// Errors from opening or writing the store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file contains an invalid record; the message names the file,
    /// line and cause.
    Corrupt(String),
    /// The directory holds the `shard-NN.jsonl` files of the earlier
    /// 16-shard layout.
    Sharded(PathBuf),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "result store I/O error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "result store is corrupt: {msg}"),
            StoreError::Sharded(dir) => write!(
                f,
                "result store {} holds shard-NN.jsonl files of the 16-shard layout; migrate it \
                 (the records are unchanged) with `cd {} && cat shard-*.jsonl > {STORE_FILE} && \
                 rm shard-*.jsonl`",
                dir.display(),
                dir.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// The content-addressed result store. Cheap to share by reference
/// across sweep workers; all methods take `&self`.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    /// Each job's last record. Guards the file as well: an append
    /// happens under it.
    index: Mutex<FastMap<JobSpec, StoredResult>>,
}

impl ResultStore {
    /// Opens (creating if needed) the store at `dir` and loads its index.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ResultStore, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(STORE_FILE);
        let text = read_store(&dir)?;
        let mut index = FastMap::default();
        let mut torn = false;
        for (n, class) in classify(&text) {
            match class {
                Line::Record(stored) => {
                    index.insert(stored.spec, stored);
                }
                Line::Blank => {}
                // Dropped: the job simply re-runs.
                Line::TornTail(cause) => {
                    eprintln!(
                        "warning: dropping truncated final record in {} ({cause})",
                        path.display()
                    );
                    torn = true;
                }
                // Strict: schema drift is as fatal here as corruption.
                Line::Orphan(cause) | Line::Garbage(cause) => {
                    return Err(corrupt(&path, n, &cause))
                }
            }
        }
        if !text.is_empty() && !text.ends_with('\n') {
            // The file ends mid-line and the store appends, so leaving it
            // would weld the next record onto that line — one permanently
            // corrupt interior line that fails every later open. A torn
            // tail is cut off; a whole record that lost only its newline
            // gets it back. On a read-only store the repair is impossible
            // but the weld hazard is moot (appends would fail too), so
            // warn and go on.
            let keep = text.rfind('\n').map_or(0, |i| i + 1) as u64;
            let repaired = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .and_then(|mut f| {
                    if torn {
                        f.set_len(keep)
                    } else {
                        f.write_all(b"\n")
                    }
                });
            if let Err(e) = repaired {
                eprintln!(
                    "warning: could not end {} on a whole line ({e}); \
                     run `valley gc` before the next append",
                    path.display()
                );
            }
        }
        Ok(ResultStore {
            dir,
            index: Mutex::new(index),
        })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of stored results.
    pub fn len(&self) -> usize {
        self.index.lock().expect("store index poisoned").len()
    }

    /// Whether the store holds no results.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up the result of a job, if present.
    pub fn get(&self, spec: &JobSpec) -> Option<StoredResult> {
        let index = self.index.lock().expect("store index poisoned");
        index.get(spec).cloned()
    }

    /// Whether the result of a job is present: [`get`](Self::get)'s
    /// answer without cloning the report.
    pub fn contains(&self, spec: &JobSpec) -> bool {
        let index = self.index.lock().expect("store index poisoned");
        index.contains_key(spec)
    }

    /// Appends one result and updates the index. The file is opened and
    /// closed per record: a handle held across [`gc`]'s rename would
    /// write to the unlinked file.
    pub fn put(
        &self,
        spec: &JobSpec,
        report: &SimReport,
        wall_ms: f64,
        wall: WallKind,
    ) -> Result<(), StoreError> {
        let stored = StoredResult {
            spec: *spec,
            report: report.clone(),
            wall_ms,
            wall,
        };
        let mut line = record_line(&stored).to_json_string();
        line.push('\n');
        let mut index = self.index.lock().expect("store index poisoned");
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(STORE_FILE))?
            .write_all(line.as_bytes())?;
        index.insert(*spec, stored);
        Ok(())
    }

    /// All stored results, sorted by canonical key (stable across runs
    /// and insertion orders).
    pub fn entries(&self) -> Vec<StoredResult> {
        self.entries_where(|_| true)
    }

    /// The stored results `keep` accepts, in [`entries`](Self::entries)
    /// order. Only those are cloned under the index lock, and they are
    /// sorted after it is released.
    pub fn entries_where(&self, keep: impl Fn(&StoredResult) -> bool) -> Vec<StoredResult> {
        #[expect(
            clippy::disallowed_methods,
            reason = "entries_where() clones the kept values and sorts them by canonical job key before returning"
        )]
        let mut kept: Vec<StoredResult> = {
            let index = self.index.lock().expect("store index poisoned");
            index.values().filter(|r| keep(r)).cloned().collect()
        };
        kept.sort_by_cached_key(|r| r.spec.key().canonical().to_string());
        kept
    }

    /// (file name, size in bytes) of the on-disk store: one entry. Kept
    /// only because the frozen `harness.store.*` benchmark probe calls it.
    #[doc(hidden)]
    pub fn shard_sizes(&self) -> Vec<(String, u64)> {
        let bytes = std::fs::metadata(self.dir.join(STORE_FILE)).map_or(0, |m| m.len());
        vec![(STORE_FILE.to_string(), bytes)]
    }
}

/// The two members a store line carries ahead of the record, and the
/// member the record nests its job under on the wire.
const VERSION_KEY: &str = "v";
const HASH_KEY: &str = "hash";
const JOB_KEY: &str = StoredResult::KEYS[0];
const LINE: &str = "store record";

/// One store line: store version, content hash, then the record's
/// declared members with the job's coordinates flattened in place.
fn record_line(stored: &StoredResult) -> Json {
    let mut wire = Members::new();
    stored.put_fields(&mut wire);
    let mut line = Members::with_capacity(2 + JobSpec::KEYS.len() + wire.len());
    STORE_VERSION.put(VERSION_KEY, &mut line);
    stored.spec.key().hash_hex().put(HASH_KEY, &mut line);
    for (key, value) in wire {
        match value {
            Json::Obj(job) if key == JOB_KEY => line.extend(job),
            value => line.push((key, value)),
        }
    }
    Json::Obj(line)
}

/// What `record_line` writes, for the schema fingerprint: it moves
/// with the line's own members and with [`StoredResult`]'s table.
pub fn store_line_description() -> String {
    format!(
        "#{VERSION_KEY},{HASH_KEY}:String,flat({JOB_KEY}),{}",
        description::<StoredResult>()
    )
}

/// The text of `dir`'s store file (empty if it was never written). A
/// directory of the 16-shard layout is refused: read as empty, it would
/// be silently re-simulated.
fn read_store(dir: &Path) -> Result<String, StoreError> {
    let sharded = std::fs::read_dir(dir).is_ok_and(|entries| {
        entries.flatten().any(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("shard-") && name.ends_with(".jsonl")
        })
    });
    if sharded {
        return Err(StoreError::Sharded(dir.to_path_buf()));
    }
    match std::fs::read_to_string(dir.join(STORE_FILE)) {
        Ok(text) => Ok(text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(String::new()),
        Err(e) => Err(e.into()),
    }
}

/// What one line of the store file is. The three readers — strict
/// [`ResultStore::open`], lenient [`scan`], compacting [`gc`] — differ
/// only in what they do with a class. The defects carry the cause.
#[expect(
    clippy::large_enum_variant,
    reason = "one value exists at a time and nearly every line is a record; boxing it would allocate per line"
)]
enum Line {
    /// A valid record.
    Record(StoredResult),
    /// Whitespace only.
    Blank,
    /// An invalid final line without its newline: the signature of a run
    /// killed mid-append.
    TornTail(String),
    /// Well-formed JSON that is not a valid record — the debris of a
    /// schema change (key format, names, store or report version).
    Orphan(String),
    /// Anything else: real corruption, which no reader papers over.
    Garbage(String),
}

/// Classifies every line of the store file's text, yielding `(line number,
/// class)` with lines numbered from 1.
fn classify(text: &str) -> impl Iterator<Item = (usize, Line)> + '_ {
    let mut lines = text.lines().zip(1..).peekable();
    std::iter::from_fn(move || {
        let (line, n) = lines.next()?;
        let class = if line.trim().is_empty() {
            Line::Blank
        } else {
            match parse_record(line) {
                Ok(stored) => Line::Record(stored),
                Err(cause) if lines.peek().is_none() && !text.ends_with('\n') => {
                    Line::TornTail(cause)
                }
                Err(cause) if json::parse(line).is_ok() => Line::Orphan(cause),
                Err(cause) => Line::Garbage(cause),
            }
        };
        Some((n, class))
    })
}

fn corrupt(path: &Path, n: usize, cause: &str) -> StoreError {
    StoreError::Corrupt(format!("{} line {n}: {cause}", path.display()))
}

/// What a lenient pass over a store directory found. Unlike
/// [`ResultStore::open`], the scan does not fail on records orphaned by
/// a schema change — it counts them, so `valley status` can report a
/// store that needs [`gc`] instead of erroring out.
#[derive(Clone, Debug, Default)]
pub struct StoreScan {
    /// Unique valid records (last write wins, like the in-memory index)
    /// in file order: what [`gc`] would leave.
    pub records: Vec<StoredResult>,
    /// Valid records superseded by a later record with the same key
    /// (`sweep --force` re-runs append; they accumulate until `gc`).
    pub duplicates: usize,
    /// Well-formed JSON lines that are no longer valid records — the
    /// debris of a schema change (job-key format, benchmark/scheme/scale
    /// names, store or report version).
    pub orphans: usize,
    /// Truncated final lines (crash mid-append): 0 or 1.
    pub truncated: usize,
    /// On-disk size of the store file in bytes (missing file = 0).
    pub bytes: u64,
}

/// Scans the store file of `dir` leniently. Interior non-JSON garbage is
/// still a hard error — it is not schema drift, and silently dropping it
/// would paper over real corruption.
pub fn scan(dir: &Path) -> Result<StoreScan, StoreError> {
    let text = read_store(dir)?;
    Ok(tally(&text, &dir.join(STORE_FILE))?.0)
}

/// The pass [`scan`] and [`gc`] share over the store text read from
/// `path`: the scan, with the line number of each record it keeps.
fn tally(text: &str, path: &Path) -> Result<(StoreScan, Vec<usize>), StoreError> {
    let mut out = StoreScan {
        bytes: text.len() as u64,
        ..StoreScan::default()
    };
    // Line number of each job's last record.
    let mut last_of: FastMap<JobSpec, usize> = FastMap::default();
    let mut found: Vec<(usize, StoredResult)> = Vec::new();
    for (n, class) in classify(text) {
        match class {
            Line::Record(stored) => {
                out.duplicates += usize::from(last_of.insert(stored.spec, n).is_some());
                found.push((n, stored));
            }
            Line::Blank => {}
            Line::TornTail(_) => out.truncated += 1,
            Line::Orphan(_) => out.orphans += 1,
            Line::Garbage(cause) => return Err(corrupt(path, n, &cause)),
        }
    }
    let (kept, records) = found
        .into_iter()
        .filter(|(n, stored)| last_of[&stored.spec] == *n)
        .unzip();
    out.records = records;
    Ok((out, kept))
}

/// The result of one [`gc`] compaction pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Records kept.
    pub kept: usize,
    /// Superseded duplicate records removed (`--force` debris).
    pub duplicates_removed: usize,
    /// Orphaned-schema records removed.
    pub orphans_removed: usize,
    /// Truncated final lines removed: 0 or 1.
    pub truncated_removed: usize,
    /// On-disk size before and after, in bytes.
    pub bytes_before: u64,
    /// See `bytes_before`.
    pub bytes_after: u64,
}

impl GcReport {
    /// Total records dropped by the pass.
    pub fn removed(&self) -> usize {
        self.duplicates_removed + self.orphans_removed + self.truncated_removed
    }
}

/// Compacts the store at `dir`: if the file contains duplicate keys
/// (the newest record of each is kept), orphaned-schema records, blank
/// lines or a truncated final line, it is rewritten without them. Record
/// order is otherwise preserved, and the whole file is replaced
/// atomically (write to a temporary file, then rename), so a crash
/// mid-gc leaves either the old or the new file. A clean file is not
/// touched. Interior non-JSON corruption still fails loudly, exactly as
/// [`ResultStore::open`] would.
pub fn gc(dir: &Path) -> Result<GcReport, StoreError> {
    let path = dir.join(STORE_FILE);
    let text = read_store(dir)?;
    let (found, kept) = tally(&text, &path)?;
    let lines: Vec<&str> = text.lines().collect();
    let mut compact = String::with_capacity(text.len());
    for &n in &kept {
        compact.push_str(lines[n - 1]);
        compact.push('\n');
    }
    if compact != text {
        let tmp = path.with_extension("jsonl.tmp");
        std::fs::write(&tmp, &compact)?;
        std::fs::rename(&tmp, &path)?;
    }
    Ok(GcReport {
        kept: kept.len(),
        duplicates_removed: found.duplicates,
        orphans_removed: found.orphans,
        truncated_removed: found.truncated,
        bytes_before: found.bytes,
        bytes_after: compact.len() as u64,
    })
}

/// Parses one stored record line.
fn parse_record(line: &str) -> Result<StoredResult, String> {
    let Json::Obj(members) = json::parse(line).map_err(|e| e.to_string())? else {
        return Err(format!("{LINE} is not an object"));
    };
    // Nest the flattened coordinates back under the job member.
    let (job, mut rest): (Members, Members) = members
        .into_iter()
        .partition(|(key, _)| JobSpec::KEYS.contains(&key.as_str()));
    rest.push((JOB_KEY.to_string(), Json::Obj(job)));
    let line = Json::Obj(rest);
    check_version(LINE, &line, VERSION_KEY, STORE_VERSION)?;
    let stored = StoredResult::from_obj(&line)?;
    // Recompute the content hash from the coordinates: if it disagrees
    // with the stored one, the canonical key format changed under this
    // record and serving it would be silently wrong.
    let key = stored.spec.key();
    let stored_hash = String::take(&line, HASH_KEY, LINE)?;
    if stored_hash != key.hash_hex() {
        return Err(format!(
            "stored hash {stored_hash} does not match recomputed {} for '{}' — \
             the job-key schema changed; delete the store directory to regenerate",
            key.hash_hex(),
            key.canonical()
        ));
    }
    Ok(stored)
}

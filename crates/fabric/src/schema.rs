//! The schema contract of this build: the four shapes that cross a
//! process or filesystem boundary, each with the version constant that
//! gates it and the fingerprint of its declared table.
//!
//! `crates/fabric/schema.manifest` pins one line per shape, and
//! `tests/schema_manifest.rs` compares it with [`pins`] through
//! [`check`], so a shape cannot change under an unchanged version
//! (readers would misparse old data instead of rejecting it), and a
//! legitimate change is: edit the table, bump the constant, run the
//! test, paste the line it prints.
//!
//! The manifest's `records` lines pin what the records *say* rather than
//! their shape: one per `SCHEMA_VERSION`, the digest of CI's ref fill
//! under it ([`records`] reads them; [`check`] skips them).

use crate::proto::{Msg, PROTOCOL_VERSION};
use valley_core::SchemeKind;
use valley_harness::{store_line_description, ConfigId, JobSpec, SCHEMA_VERSION, STORE_VERSION};
use valley_sim::record::{description, fingerprint, Codec};
use valley_sim::{SimReport, REPORT_SCHEMA_VERSION};
use valley_workloads::{Benchmark, Scale};

/// One pinned shape as this build declares it.
#[derive(Debug)]
pub struct Pin {
    /// Manifest key.
    pub name: &'static str,
    /// The constant to bump when the shape changes.
    pub version_const: &'static str,
    /// That constant's value.
    pub version: u32,
    /// Fingerprint of the declared table (for `job_key`, of the
    /// canonical key of a fixed job).
    pub fingerprint: u64,
}

impl Pin {
    /// The manifest line that pins this shape.
    pub fn line(&self) -> String {
        format!(
            "{} v{} fp={:016x}",
            self.name, self.version, self.fingerprint
        )
    }
}

/// The shapes of this build, in manifest order.
pub fn pins() -> [Pin; 4] {
    let job = JobSpec {
        bench: Benchmark::Mt,
        scheme: SchemeKind::Pae,
        seed: 1,
        scale: Scale::Ref,
        config: ConfigId::Sms24,
    };
    let mut msgs = String::new();
    Msg::kind(&mut msgs);
    let pin = |name, version_const, version, description: &str| Pin {
        name,
        version_const,
        version,
        fingerprint: fingerprint(description),
    };
    [
        pin(
            "sim_report",
            "REPORT_SCHEMA_VERSION",
            REPORT_SCHEMA_VERSION,
            &description::<SimReport>(),
        ),
        pin(
            "job_key",
            "SCHEMA_VERSION",
            SCHEMA_VERSION,
            job.key().canonical(),
        ),
        pin(
            "store_record",
            "STORE_VERSION",
            STORE_VERSION,
            &store_line_description(),
        ),
        pin("fabric_msgs", "PROTOCOL_VERSION", PROTOCOL_VERSION, &msgs),
    ]
}

/// One number for the whole contract — the `schema:` line `valley
/// status` prints. It changes whenever a shape or a version does.
pub fn identity() -> u64 {
    let lines: Vec<String> = pins().iter().map(Pin::line).collect();
    fingerprint(&lines.join("\n"))
}

/// What starts a `records` line of the manifest.
const RECORDS: &str = "records ";

/// The `records v<version> fp=<digest>` lines of the manifest text, in
/// file order: the job-key version each one pins and the digest of the
/// ref records CI fills under it.
///
/// # Errors
///
/// The first `records` line that does not read `records v<u32>
/// fp=<64 hex digits>`.
pub fn records(manifest: &str) -> Result<Vec<(u32, &str)>, String> {
    manifest
        .lines()
        .filter(|line| line.starts_with(RECORDS))
        .map(|line| {
            let mut words = line.split_whitespace().skip(1);
            let version = words.next().and_then(|v| v.strip_prefix('v')?.parse().ok());
            let digest = words.next().and_then(|fp| fp.strip_prefix("fp="));
            match (version, digest, words.next()) {
                (Some(version), Some(digest), None)
                    if digest.len() == 64 && digest.bytes().all(|b| b.is_ascii_hexdigit()) =>
                {
                    Ok((version, digest))
                }
                _ => Err(format!(
                    "malformed manifest line `{line}`: want `records v<version> fp=<sha256>`"
                )),
            }
        })
        .collect()
}

/// Compares `pins` with the manifest text (`name v<version>
/// fp=<16 hex digits>` lines; `#` starts a comment). `records` lines are
/// not shapes, and are skipped.
///
/// # Errors
///
/// One line per shape that disagrees, saying what to do: bump the
/// constant when the shape moved under an unchanged version, revert the
/// bump when only the version moved, and otherwise the exact manifest
/// line to commit.
pub fn check(pins: &[Pin], manifest: &str) -> Result<(), String> {
    let mut problems = Vec::new();
    for pin in pins {
        let mut shapes = manifest.lines().filter(|line| !line.starts_with(RECORDS));
        let pinned = shapes.find_map(|line| {
            let mut words = line.split_whitespace();
            let version = words
                .next()
                .filter(|&name| name == pin.name)
                .and(words.next())?;
            let fp = words.next()?.strip_prefix("fp=")?;
            Some((
                version.strip_prefix('v')?.parse::<u32>().ok()?,
                u64::from_str_radix(fp, 16).ok()?,
            ))
        });
        let commit = format!("commit this line to schema.manifest:\n{}", pin.line());
        match pinned {
            Some((version, fp)) if version == pin.version && fp == pin.fingerprint => {}
            Some((version, _)) if version == pin.version => problems.push(format!(
                "the shape of `{}` changed but `{}` is still {version}: bump `{}`, then run \
                 this test again for the line to commit",
                pin.name, pin.version_const, pin.version_const
            )),
            Some((version, fp)) if fp == pin.fingerprint => problems.push(format!(
                "`{}` went {version} -> {} but the shape of `{}` did not change: revert the bump",
                pin.version_const, pin.version, pin.name
            )),
            Some(_) => problems.push(format!(
                "`{}` changed and `{}` was bumped; {commit}",
                pin.name, pin.version_const
            )),
            None => problems.push(format!("`{}` is not pinned; {commit}", pin.name)),
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

//! Shared by the fabric's integration suites.

use valley_harness::{JobSpec, STORE_FILE};

/// Replaces the `wall_ms` value and its `wall` attribution — the only
/// fields of a stored record that depend on how (and how fast) the job
/// was executed rather than on what it computed — with placeholders.
fn normalize_wall(line: &str) -> String {
    let mut out = line.to_string();
    for (field, placeholder) in [("\"wall_ms\":", "0"), ("\"wall\":", "\"x\"")] {
        let start = out.find(field).expect("record has wall fields") + field.len();
        let end = start + out[start..].find(',').expect("wall field is not last");
        out = format!("{}{placeholder}{}", &out[..start], &out[end..]);
    }
    out
}

/// The store file of `dir`, line by line, wall-normalized.
pub fn normalized_store(dir: &std::path::Path) -> Vec<String> {
    let text = std::fs::read_to_string(dir.join(STORE_FILE)).expect("store file reads");
    text.lines().map(normalize_wall).collect()
}

/// The jobs of the records in `dir`'s store file, in file order.
pub fn filed_jobs(dir: &std::path::Path) -> Vec<JobSpec> {
    let scan = valley_harness::scan(dir).expect("store scans");
    scan.records.iter().map(|r| r.spec).collect()
}

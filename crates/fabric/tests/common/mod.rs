//! Shared by the fabric's integration suites.

use valley_harness::{JobSpec, STORE_FILE};

/// Replaces the value of each of `fields` in a stored record with a
/// placeholder.
fn normalize(line: &str, fields: &[(&str, &str)]) -> String {
    let mut out = line.to_string();
    for (field, placeholder) in fields {
        let start = out.find(field).expect("record has wall fields") + field.len();
        let end = start + out[start..].find(',').expect("wall field is not last");
        out = format!("{}{placeholder}{}", &out[..start], &out[end..]);
    }
    out
}

fn store_lines(dir: &std::path::Path, fields: &[(&str, &str)]) -> Vec<String> {
    let text = std::fs::read_to_string(dir.join(STORE_FILE)).expect("store file reads");
    text.lines().map(|line| normalize(line, fields)).collect()
}

/// The store file of `dir`, line by line, with the `wall_ms` value and
/// its `wall` attribution — the only fields of a stored record that
/// depend on how (and how fast) the job was executed rather than on
/// what it computed — replaced by placeholders.
pub fn normalized_store(dir: &std::path::Path) -> Vec<String> {
    store_lines(dir, &[("\"wall_ms\":", "0"), ("\"wall\":", "\"x\"")])
}

/// The store file of `dir`, line by line, with only the measured
/// `wall_ms` value replaced: which lanes ran and which were cloned is
/// a property of the grid, not of the executor.
pub fn without_wall_ms(dir: &std::path::Path) -> Vec<String> {
    store_lines(dir, &[("\"wall_ms\":", "0")])
}

/// The jobs of the records in `dir`'s store file, in file order.
pub fn filed_jobs(dir: &std::path::Path) -> Vec<JobSpec> {
    let scan = valley_harness::scan(dir).expect("store scans");
    scan.records.iter().map(|r| r.spec).collect()
}

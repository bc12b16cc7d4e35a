//! The invariant gate (docs/lint.md) is `[workspace.lints]` in the root
//! manifest, and cargo applies that table only to packages that ask for
//! it. A new crate that forgets `[lints] workspace = true` would build,
//! test and pass clippy with every rule off — so the opt-in is checked
//! here, where the tier-1 suite sees it. So is the rule that nothing in
//! the workspace depends on the `valley-compute` shell.

use std::path::{Path, PathBuf};

/// Whether the manifest has a `[lints]` table that says `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    manifest.split("\n[").any(|table| {
        let mut lines = table.lines();
        lines.next().is_some_and(|header| header.trim() == "lints]")
            && lines.any(|l| l.split_whitespace().collect::<String>() == "workspace=true")
    })
}

/// The directory of every package: each crate under `crates/`, then the
/// root facade.
fn packages(root: &Path) -> Vec<PathBuf> {
    let mut packages: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ lists")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .collect();
    packages.push(root.to_path_buf());
    packages.sort();
    packages
}

/// `crates/compute` is a shell over `valley-core` that only the frozen
/// repo benchmark links (ROADMAP item one deletes both together); a
/// workspace crate that needs the paper's math calls `valley-core`.
#[test]
fn no_package_depends_on_the_compute_shell() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dependents: Vec<PathBuf> = packages(root)
        .into_iter()
        .filter(|dir| !dir.ends_with("crates/compute"))
        .filter(|dir| {
            let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("manifest reads");
            manifest.lines().any(|l| {
                let code = l.split('#').next().unwrap_or_default();
                code.contains("valley-compute")
            })
        })
        .collect();
    assert!(
        dependents.is_empty(),
        "`valley-compute` is named in the Cargo.toml of: {dependents:?} — use `valley-core`"
    );
}

#[test]
fn every_package_inherits_the_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let packages = packages(root);

    let unbound: Vec<&PathBuf> = packages
        .iter()
        .filter(|dir| {
            let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("manifest reads");
            !inherits_workspace_lints(&manifest)
        })
        .collect();
    assert!(
        unbound.is_empty(),
        "outside the invariant gate — add `[lints]` / `workspace = true` to the Cargo.toml of: \
         {unbound:?}"
    );

    // A nearer clippy.toml replaces the root one, banned lists and all.
    let shadowing: Vec<PathBuf> = packages
        .iter()
        .filter(|dir| dir.as_path() != root)
        .flat_map(|dir| [dir.join("clippy.toml"), dir.join(".clippy.toml")])
        .filter(|config| config.exists())
        .collect();
    assert!(
        shadowing.is_empty(),
        "per-crate clippy configuration shadows the root clippy.toml: {shadowing:?}"
    );
}

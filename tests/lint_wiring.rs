//! The invariant gate (docs/lint.md) is `[workspace.lints]` in the root
//! manifest, and cargo applies that table only to packages that ask for
//! it. A new crate that forgets `[lints] workspace = true` would build,
//! test and pass clippy with every rule off — so the opt-in is checked
//! here, where the tier-1 suite sees it. So is the rule that nothing in
//! the workspace depends on the `valley-compute` shell, that every
//! hidden item is a listed shim kept for the frozen benchmark, and that
//! no such shim outlives its last call.

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

/// Every `#[doc(hidden)]` item the workspace keeps only because the
/// frozen benchmark (`benchmark/src`) calls it, with the text of that
/// call. Once the benchmark stops naming one, the shim has no caller:
/// delete it, and its line here, in the same change.
const BENCHMARK_SHIMS: [(&str, &str); 9] = [
    ("Crossbar::tick_evented", "xbar.tick_evented("),
    ("Crossbar::flush_deferred", "xbar.flush_deferred("),
    ("DramSystem::tick_evented", "sys.tick_evented("),
    ("DramSystem::flush_deferred", "sys.flush_deferred("),
    ("GpuSim::run_sharded", ".run_sharded("),
    ("ResultStore::shard_sizes", ".shard_sizes("),
    ("EntropyMethod", "EntropyMethod"),
    ("GddrMap", "GddrMap"),
    ("DramAddressMap", "DramAddressMap"),
];

/// The name of the item a line declares (`pub fn tick_evented(..` is
/// `tick_evented`), past its visibility and qualifiers.
fn declared_name(line: &str) -> Option<&str> {
    const KINDS: [&str; 8] = [
        "fn", "type", "struct", "enum", "trait", "mod", "static", "const",
    ];
    let mut words = line.split_whitespace().skip_while(|w| {
        w.starts_with("pub") || matches!(*w, "const" | "unsafe" | "async" | "extern")
    });
    let kind = words.next()?;
    let name = words.next()?;
    let end = name
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(name.len());
    KINDS.contains(&kind).then_some(&name[..end])
}

/// The type an `impl` header line names: `impl Crossbar {` and
/// `impl<T> Trait for Crossbar<T> {` are both `Crossbar`.
fn impl_type(header: &str) -> &str {
    let ty = header.trim_end().trim_end_matches('{').trim_end();
    let ty = ty.rsplit(' ').next().unwrap_or(ty);
    ty.split('<').next().unwrap_or(ty)
}

/// Every `.rs` file under `dir`, at any depth.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).expect("source dir lists") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files
}

/// Every `#[doc(hidden)]` item of `crates/*/src` outside the compute
/// shell, named as [`BENCHMARK_SHIMS`] names it: `Type::item` inside an
/// `impl Type` block, `item` at the top level.
fn hidden_items(root: &Path) -> Vec<String> {
    let mut items = Vec::new();
    for package in packages(root) {
        if package == root || package.ends_with("crates/compute") {
            continue;
        }
        for file in rust_files(&package.join("src")) {
            let text = std::fs::read_to_string(&file).expect("source reads");
            let lines: Vec<&str> = text.lines().collect();
            for i in (0..lines.len()).filter(|&i| lines[i].trim() == "#[doc(hidden)]") {
                let decl = lines[i + 1..]
                    .iter()
                    .find(|l| {
                        !l.trim_start().starts_with("#[") && !l.trim_start().starts_with("///")
                    })
                    .unwrap_or_else(|| panic!("{}:{}: nothing is hidden", file.display(), i + 1));
                let name = declared_name(decl).unwrap_or_else(|| {
                    panic!(
                        "{}:{}: cannot name the hidden item `{decl}`",
                        file.display(),
                        i + 2
                    )
                });
                let item = match lines[..i].iter().rev().find(|l| l.starts_with("impl")) {
                    Some(header) if decl.starts_with(char::is_whitespace) => {
                        format!("{}::{name}", impl_type(header))
                    }
                    _ => name.to_string(),
                };
                items.push(item);
            }
        }
    }
    items.sort();
    items
}

/// A `#[doc(hidden)]` item is a shim the frozen benchmark keeps alive,
/// and ROADMAP item one deletes them all: the list may shrink with it,
/// never grow. So every hidden item in the product crates (the compute
/// shell aside, which goes whole) is a [`BENCHMARK_SHIMS`] entry, and
/// every entry is still a hidden item.
#[test]
fn every_hidden_item_is_a_listed_benchmark_shim() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let hidden = hidden_items(root);
    let unlisted: Vec<&String> = hidden
        .iter()
        .filter(|item| !BENCHMARK_SHIMS.iter().any(|(shim, _)| shim == item))
        .collect();
    assert!(
        unlisted.is_empty(),
        "{unlisted:?} are #[doc(hidden)] but no benchmark shim: document them, or name the \
         benchmark call that keeps each in BENCHMARK_SHIMS"
    );
    let unhidden: Vec<&str> = BENCHMARK_SHIMS
        .iter()
        .map(|(shim, _)| *shim)
        .filter(|shim| !hidden.iter().any(|item| item == shim))
        .collect();
    assert!(
        unhidden.is_empty(),
        "BENCHMARK_SHIMS lists {unhidden:?}, which are no #[doc(hidden)] item in crates/*/src"
    );
}

#[test]
fn every_benchmark_shim_still_has_a_caller() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("benchmark/src");
    let mut text = String::new();
    for entry in std::fs::read_dir(&src).expect("benchmark/src lists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|ext| ext == "rs") {
            text += &std::fs::read_to_string(&path).expect("benchmark source reads");
        }
    }
    let orphans: Vec<&str> = BENCHMARK_SHIMS
        .iter()
        .filter(|(_, call)| !text.contains(call))
        .map(|(item, _)| *item)
        .collect();
    assert!(
        orphans.is_empty(),
        "benchmark/src no longer calls {orphans:?}: delete each hidden shim with its last call"
    );
}

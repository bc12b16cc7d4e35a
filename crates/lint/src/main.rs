//! CLI entry point: `cargo run -p valley-lint -- [--expect-clean]
//! [--root <dir>]`.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut expect_clean = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--expect-clean" => expect_clean = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root requires a path"),
            },
            "--version" => {
                println!("valley-lint {}", valley_lint::LINT_VERSION);
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match valley_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "valley-lint: no workspace root found above {}",
                        cwd.display()
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    match valley_lint::run(&root) {
        Ok(outcome) => {
            for d in &outcome.diagnostics {
                println!("{}", d.render());
            }
            let verdict = if outcome.clean() { "clean" } else { "FAILED" };
            println!(
                "valley-lint {}: {} — {} files, {} diagnostics, {} suppressed by lint.toml",
                valley_lint::LINT_VERSION,
                verdict,
                outcome.files,
                outcome.diagnostics.len(),
                outcome.suppressed
            );
            if outcome.clean() {
                ExitCode::SUCCESS
            } else {
                if expect_clean {
                    eprintln!("valley-lint: --expect-clean failed");
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("valley-lint: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("valley-lint: {err}");
    }
    eprintln!(
        "usage: valley-lint [--expect-clean] [--root <dir>] [--version]\n\
         \n\
         Lints every .rs file in the workspace for determinism and hygiene\n\
         invariants. Suppressions live in lint.toml at the workspace root.\n\
         See docs/lint.md for the rule catalog."
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Binary driver:
//! `cargo run -p lint [--root <dir>] [--report] [--diff] [--fix [--check]]`.
//!
//! Walks the workspace, prints every invariant violation as
//! `path:line: [rule] message`, and exits non-zero when any are found.
//!
//! * `--report` — (re)write the committed `LINT_REPORT.json` artifact at
//!   the workspace root from the current scan.
//! * `--diff` — compare the current scan against the committed
//!   `LINT_REPORT.json` snapshot; exit non-zero on fatal regressions
//!   (a previously-clean function gaining a property, or any rule's
//!   violation count increasing, or a budgeted call depth growing).
//! * `--fix` — delete dead `lint: allow(...)` names and normalize
//!   directive grammar in place, then analyze the fixed tree. The
//!   rewrite is idempotent: a second `--fix` run changes nothing.
//! * `--check` (with `--fix`) — report the files `--fix` would rewrite
//!   without touching them, and exit non-zero if there are any.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    let mut write_report = false;
    let mut diff_mode = false;
    let mut fix_mode = false;
    let mut check_mode = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--report" => write_report = true,
            "--diff" => diff_mode = true,
            "--fix" => fix_mode = true,
            "--check" => check_mode = true,
            "--help" | "-h" => {
                println!(
                    "usage: lint [--root <workspace-dir>] [--report] [--diff] [--fix [--check]]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("lint: unknown argument `{other}` (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }
    // `cargo run -p lint` runs from the workspace root; fall back to the
    // manifest's grandparent so the binary also works when invoked directly.
    let root = root.unwrap_or_else(|| {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        if cwd.join("Cargo.toml").exists() && cwd.join("crates").is_dir() {
            cwd
        } else {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .canonicalize()
                .unwrap_or(cwd)
        }
    });

    if check_mode && !fix_mode {
        eprintln!("lint: --check requires --fix");
        return ExitCode::FAILURE;
    }
    if fix_mode {
        match lint::fix_root(&root, check_mode) {
            Ok(changed) if changed.is_empty() => {
                println!("lint: fix: nothing to do");
            }
            Ok(changed) => {
                for rel in &changed {
                    println!(
                        "lint: fix: {} {rel}",
                        if check_mode {
                            "would rewrite"
                        } else {
                            "rewrote"
                        }
                    );
                }
                if check_mode {
                    eprintln!(
                        "lint: fix: {} file(s) need `cargo run -p lint -- --fix`",
                        changed.len()
                    );
                    return ExitCode::FAILURE;
                }
            }
            Err(err) => {
                eprintln!("lint: fix: io error: {err}");
                return ExitCode::FAILURE;
            }
        }
    }

    let analysis = match lint::analyze_root(&root) {
        Ok(analysis) => analysis,
        Err(err) => {
            eprintln!("lint: io error: {err}");
            return ExitCode::FAILURE;
        }
    };

    let mut failed = false;

    if write_report {
        let json = match serde_json::to_string_pretty(&analysis.report) {
            Ok(json) => json,
            Err(err) => {
                eprintln!("lint: report serialization failed: {err}");
                return ExitCode::FAILURE;
            }
        };
        let path = root.join(lint::REPORT_FILE);
        if let Err(err) = std::fs::write(&path, json + "\n") {
            eprintln!("lint: cannot write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
        println!("lint: wrote {}", path.display());
    }

    if diff_mode {
        let path = root.join(lint::REPORT_FILE);
        let prev = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!(
                    "lint: cannot read committed snapshot {}: {err}\n\
                     lint: run `cargo run -p lint -- --report` and commit the result",
                    path.display()
                );
                return ExitCode::FAILURE;
            }
        };
        let prev: lint::LintReport = match serde_json::from_str(&prev) {
            Ok(report) => report,
            Err(err) => {
                eprintln!("lint: committed snapshot is not valid: {err}");
                return ExitCode::FAILURE;
            }
        };
        let diff = lint::diff_reports(&prev, &analysis.report);
        print!("{}", lint::render_diff(&diff));
        if !diff.fatal.is_empty() {
            failed = true;
        }
    }

    if analysis.violations.is_empty() {
        if !diff_mode {
            println!(
                "lint: workspace clean ({} rules enforced)",
                lint::RULES.len()
            );
        }
    } else {
        for v in &analysis.violations {
            eprintln!("{v}");
        }
        eprintln!("lint: {} violation(s)", analysis.violations.len());
        failed = true;
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

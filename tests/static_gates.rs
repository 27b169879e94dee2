//! The two static checks no built-in lint expresses; everything else
//! is held by `cargo clippy --workspace --all-targets -- -D warnings`
//! through the attributes at the crate roots (DESIGN.md §10).

use std::fs;
use std::path::Path;

/// The decision-hot-path modules and the serve daemon: clippy rejects
/// an index, a slice or an integer division in them — as long as the
/// attribute that says so is still there.
const PANIC_FREE_FILES: [&str; 10] = [
    "crates/core/src/agent.rs",
    "crates/core/src/hier.rs",
    "crates/core/src/lspi.rs",
    "crates/core/src/policy.rs",
    "crates/linalg/src/dok.rs",
    "crates/linalg/src/sherman.rs",
    "crates/linalg/src/sparse_vec.rs",
    "crates/sim/src/step.rs",
    "crates/trace/src/source.rs",
    "crates/serve/src/daemon.rs",
];

/// Spelt without whitespace: rustfmt wraps the attribute over four lines.
const PANIC_FREE_ATTR: &str = "#![cfg_attr(not(test),deny(clippy::indexing_slicing,clippy::integer_division_remainder_used))]";

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn hot_path_files_keep_the_indexing_and_division_gate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for file in PANIC_FREE_FILES {
        let mut source = read(&root.join(file));
        source.retain(|c| !c.is_whitespace());
        assert!(
            source.contains(PANIC_FREE_ATTR),
            "{file} lost {PANIC_FREE_ATTR}"
        );
    }
}

/// A `partial_cmp(..).unwrap()` comparator panics on NaN; orderings go
/// through `total_cmp` / `megh_baselines::total_f64`. `#[derive(PartialOrd)]`
/// expands to a `partial_cmp` call, so `clippy::disallowed_methods` cannot
/// hold this one.
#[test]
fn float_orderings_are_total() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut paths = ["core", "sim", "linalg", "baselines", "bench"]
        .map(|krate| root.join(krate).join("src"))
        .to_vec();
    while let Some(path) = paths.pop() {
        if path.is_dir() {
            let entries = fs::read_dir(&path).expect("source directory is readable");
            paths.extend(entries.map(|e| e.expect("directory entry is readable").path()));
        } else if path.extension().is_some_and(|e| e == "rs") {
            for (n, line) in read(&path).lines().enumerate() {
                let code = line.split("//").next().unwrap_or(line);
                assert!(
                    !code.contains(".partial_cmp("),
                    "{}:{}: `.partial_cmp(` — use `total_cmp`",
                    path.display(),
                    n + 1
                );
            }
        }
    }
}

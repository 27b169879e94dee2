//! Result persistence: the `results/` directory, CSV and JSON writers.

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Error writing experiment results.
#[derive(Debug)]
pub enum ResultsError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// JSON serialisation failure.
    Json(serde_json::Error),
}

impl fmt::Display for ResultsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Json(e) => write!(f, "json error: {e}"),
        }
    }
}

impl std::error::Error for ResultsError {}

impl From<std::io::Error> for ResultsError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<serde_json::Error> for ResultsError {
    fn from(e: serde_json::Error) -> Self {
        Self::Json(e)
    }
}

/// Creates (if needed) and returns the `results/` directory.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn ensure_results_dir() -> Result<PathBuf, ResultsError> {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Writes a CSV file with a header row and numeric rows.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_csv(
    path: impl AsRef<Path>,
    headers: &[&str],
    rows: impl IntoIterator<Item = Vec<f64>>,
) -> Result<(), ResultsError> {
    let mut f = fs::File::create(path)?;
    writeln!(f, "{}", headers.join(","))?;
    for row in rows {
        let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        writeln!(f, "{}", cells.join(","))?;
    }
    Ok(())
}

/// Writes any serialisable value as pretty JSON.
///
/// # Errors
///
/// Returns I/O or serialisation errors.
pub fn write_json<T: serde::Serialize>(
    path: impl AsRef<Path>,
    value: &T,
) -> Result<(), ResultsError> {
    let json = serde_json::to_string_pretty(value)?;
    fs::write(path, json)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip_layout() {
        let dir = std::env::temp_dir().join(format!("megh-bench-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.csv");
        write_csv(&path, &["a", "b"], vec![vec![1.0, 2.0], vec![3.5, 4.5]]).unwrap();
        let content = fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 3);
        assert!(content.starts_with("a,b\n1,2\n"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_writer_produces_valid_json() {
        let dir = std::env::temp_dir().join(format!("megh-bench-json-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.json");
        write_json(&path, &vec!["X".to_string()]).unwrap();
        let content = fs::read_to_string(&path).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&content).unwrap();
        assert_eq!(parsed[0], "X");
        fs::remove_dir_all(&dir).ok();
    }
}

//! A streaming reader for the *real* PlanetLab trace format, for users
//! who have the data.
//!
//! The synthetic generators in this crate reproduce the published
//! statistics, but anyone holding the original dataset can feed it in
//! directly. The **CloudSim PlanetLab format** is a directory per day,
//! one file per VM, each file containing one integer utilization
//! percentage per line (288 lines = 24 h at 5-minute sampling). This is
//! the format shipped in CloudSim's `examples/workload/planetlab`.

use std::fs::{self, File};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};

use crate::source::{TraceHeader, TraceSource};
use crate::{TraceCsvError, STEP_SECONDS};

/// A buffered streaming [`TraceSource`] over a CloudSim PlanetLab-format
/// directory (one file per VM, one value per line).
///
/// [`open`](Self::open) lists files lexicographically and pre-scans each
/// once to find the longest series (`n_steps`) without retaining any
/// samples; `fill_chunk` then advances one buffered reader per VM in
/// lockstep, zero-padding VMs whose file ends early. Peak memory is one
/// `BufReader` per VM regardless of trace length.
///
/// A malformed line stops the stream: `fill_chunk` returns the steps
/// completed before it and `0` afterwards, with the cause available via
/// [`error`](Self::error) / [`take_error`](Self::take_error).
pub struct PlanetLabDirSource {
    paths: Vec<PathBuf>,
    header: TraceHeader,
    readers: Option<Vec<BufReader<File>>>,
    line_nos: Vec<usize>,
    emitted: usize,
    buf: String,
    error: Option<TraceCsvError>,
}

impl PlanetLabDirSource {
    /// Opens a PlanetLab-format directory for streaming, pre-scanning
    /// line counts to learn the step horizon.
    ///
    /// # Errors
    ///
    /// Returns [`TraceCsvError`] on I/O failure.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, TraceCsvError> {
        let mut paths: Vec<_> = fs::read_dir(dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_file())
            .collect();
        paths.sort();
        let mut n_steps = 0usize;
        for path in &paths {
            let mut count = 0usize;
            for line in BufReader::new(File::open(path)?).lines() {
                if !line?.trim().is_empty() {
                    count += 1;
                }
            }
            n_steps = n_steps.max(count);
        }
        let mut source = Self {
            header: TraceHeader {
                n_vms: paths.len(),
                n_steps,
                step_seconds: STEP_SECONDS,
            },
            line_nos: vec![0; paths.len()],
            paths,
            readers: None,
            emitted: 0,
            buf: String::new(),
            error: None,
        };
        source.reopen()?;
        Ok(source)
    }

    /// The error that stopped the stream, if any.
    pub fn error(&self) -> Option<&TraceCsvError> {
        self.error.as_ref()
    }

    /// Takes the error that stopped the stream, if any.
    pub fn take_error(&mut self) -> Option<TraceCsvError> {
        self.error.take()
    }

    fn reopen(&mut self) -> Result<(), TraceCsvError> {
        let mut readers = Vec::with_capacity(self.paths.len());
        for path in &self.paths {
            readers.push(BufReader::new(File::open(path)?));
        }
        self.readers = Some(readers);
        self.line_nos.iter_mut().for_each(|l| *l = 0);
        self.emitted = 0;
        self.error = None;
        Ok(())
    }
}

/// Reads the next non-blank value from one VM file; `Ok(None)` is end
/// of file (the VM finished early and pads with idle).
fn next_planetlab_value(
    reader: &mut BufReader<File>,
    line_no: &mut usize,
    path: &Path,
    buf: &mut String,
) -> Result<Option<f64>, TraceCsvError> {
    loop {
        buf.clear();
        if reader.read_line(buf)? == 0 {
            return Ok(None);
        }
        *line_no += 1;
        let line = buf.trim();
        if line.is_empty() {
            continue;
        }
        // One file per VM, so an error names both the file and the line.
        let value: f64 = line.parse().map_err(|_| {
            TraceCsvError::Format(format!(
                "cannot parse {line:?} as a number on line {line_no} of {}",
                path.display()
            ))
        })?;
        if !(0.0..=100.0).contains(&value) || !value.is_finite() {
            return Err(TraceCsvError::Format(format!(
                "utilization {value} outside [0, 100] on line {line_no} of {}",
                path.display()
            )));
        }
        return Ok(Some(value));
    }
}

impl TraceSource for PlanetLabDirSource {
    fn header(&self) -> TraceHeader {
        self.header
    }

    fn fill_chunk(&mut self, out: &mut [f64]) -> usize {
        let n = self.header.n_vms;
        if n == 0 || self.error.is_some() {
            return 0;
        }
        let want = (out.len() / n).min(self.header.n_steps - self.emitted);
        let Self {
            paths,
            readers,
            line_nos,
            buf,
            error,
            ..
        } = self;
        let Some(readers) = readers.as_mut() else {
            return 0;
        };
        let mut got = 0usize;
        'steps: for s in 0..want {
            for vm in 0..n {
                match next_planetlab_value(&mut readers[vm], &mut line_nos[vm], &paths[vm], buf) {
                    Ok(Some(v)) => out[s * n + vm] = v,
                    Ok(None) => out[s * n + vm] = 0.0,
                    Err(e) => {
                        *error = Some(e);
                        break 'steps;
                    }
                }
            }
            got += 1;
        }
        if self.error.is_some() {
            self.readers = None;
        }
        self.emitted += got;
        got
    }

    fn reset(&mut self) {
        if let Err(e) = self.reopen() {
            self.readers = None;
            self.error = Some(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadTrace;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("megh-files-{}-{name}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Streams the whole directory into memory, surfacing the error that
    /// stopped the stream, if any.
    fn read_all(dir: &Path) -> Result<WorkloadTrace, TraceCsvError> {
        let mut source = PlanetLabDirSource::open(dir)?;
        let n_steps = source.header().n_steps;
        let trace = (&mut source).take_steps(n_steps);
        source.take_error().map_or(Ok(trace), Err)
    }

    #[test]
    fn planetlab_dir_roundtrip() {
        let dir = tmp_dir("pl");
        fs::write(dir.join("vm_a"), "10\n20\n30\n").unwrap();
        fs::write(dir.join("vm_b"), "5\n15\n").unwrap(); // short → padded
        let trace = read_all(&dir).unwrap();
        fs::remove_dir_all(&dir).ok();
        assert_eq!(trace.n_vms(), 2);
        assert_eq!(trace.n_steps(), 3);
        assert_eq!(trace.utilization(0, 1), 20.0);
        assert_eq!(trace.utilization(1, 2), 0.0, "short file padded with idle");
    }

    #[test]
    fn planetlab_rejects_out_of_range() {
        let dir = tmp_dir("pl-bad");
        fs::write(dir.join("vm_a"), "10\n120\n").unwrap();
        let err = read_all(&dir).unwrap_err();
        fs::remove_dir_all(&dir).ok();
        assert!(matches!(err, TraceCsvError::Format(_)));
        let msg = err.to_string();
        assert!(msg.contains("line 2 of") && msg.contains("vm_a"), "{msg}");
    }

    #[test]
    fn planetlab_rejects_garbage_line() {
        let dir = tmp_dir("pl-garbage");
        fs::write(dir.join("vm_a"), "10\nxyz\n").unwrap();
        let err = read_all(&dir).unwrap_err();
        fs::remove_dir_all(&dir).ok();
        let msg = err.to_string();
        assert!(msg.contains("\"xyz\""), "{msg}");
        assert!(msg.contains("line 2 of") && msg.contains("vm_a"), "{msg}");
    }

    #[test]
    fn planetlab_dir_source_streams_identically_to_take_steps() {
        let dir = tmp_dir("pl-stream");
        fs::write(dir.join("vm_a"), "10\n20\n30\n").unwrap();
        fs::write(dir.join("vm_b"), "5\n15\n").unwrap();
        let loaded = read_all(&dir).unwrap();
        let mut source = PlanetLabDirSource::open(&dir).unwrap();
        assert_eq!(source.header().n_vms, 2);
        assert_eq!(source.header().n_steps, 3);
        let mut col = vec![0.0; 2];
        let mut steps = 0usize;
        while source.fill_chunk(&mut col) == 1 {
            for (vm, &v) in col.iter().enumerate() {
                assert_eq!(v, loaded.utilization(vm, steps));
            }
            steps += 1;
        }
        assert_eq!(steps, 3);
        assert!(source.error().is_none());
        // Reset replays the directory from step 0.
        source.reset();
        let replay = source.take_steps(3);
        fs::remove_dir_all(&dir).ok();
        assert_eq!(replay, loaded);
    }
}

//! The in-memory workload trace representation.

use serde::{Deserialize, Serialize};

/// A per-VM CPU-utilization time series sampled at a fixed interval.
///
/// Utilization is a percentage of the VM's requested CPU capacity, in
/// `[0, 100]`. All VMs share the same number of steps; this mirrors the
/// CloudSim `UtilizationModel` driven by PlanetLab/Google trace files.
///
/// # Examples
///
/// ```
/// use megh_trace::WorkloadTrace;
///
/// let trace = WorkloadTrace::from_rows(300, vec![vec![10.0, 20.0], vec![0.0, 50.0]]).unwrap();
/// assert_eq!(trace.n_vms(), 2);
/// assert_eq!(trace.n_steps(), 2);
/// assert_eq!(trace.utilization(1, 1), 50.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadTrace {
    step_seconds: u64,
    /// `rows[vm][step]` = utilization percent of VM `vm` at step `step`.
    rows: Vec<Vec<f64>>,
}

impl WorkloadTrace {
    /// Builds a trace from per-VM rows.
    ///
    /// # Errors
    ///
    /// Returns `None` when rows have unequal lengths, any utilization is
    /// outside `[0, 100]` or non-finite, or `step_seconds == 0`.
    pub fn from_rows(step_seconds: u64, rows: Vec<Vec<f64>>) -> Option<Self> {
        if step_seconds == 0 {
            return None;
        }
        if let Some(first) = rows.first() {
            let len = first.len();
            for row in &rows {
                if row.len() != len {
                    return None;
                }
                if row
                    .iter()
                    .any(|&u| !u.is_finite() || !(0.0..=100.0).contains(&u))
                {
                    return None;
                }
            }
        }
        Some(Self { step_seconds, rows })
    }

    /// Number of VMs in the trace.
    pub fn n_vms(&self) -> usize {
        self.rows.len()
    }

    /// Number of observation steps (0 when the trace has no VMs).
    pub fn n_steps(&self) -> usize {
        self.rows.first().map_or(0, Vec::len)
    }

    /// Sampling interval in seconds.
    pub fn step_seconds(&self) -> u64 {
        self.step_seconds
    }

    /// Utilization percent of `vm` at `step`.
    ///
    /// # Panics
    ///
    /// Panics if `vm` or `step` is out of range.
    pub fn utilization(&self, vm: usize, step: usize) -> f64 {
        self.rows[vm][step]
    }

    /// The full utilization row for one VM.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    pub fn vm_row(&self, vm: usize) -> &[f64] {
        &self.rows[vm]
    }

    /// Utilizations of every VM at one step.
    ///
    /// # Panics
    ///
    /// Panics if `step >= n_steps()`.
    pub fn step_column(&self, step: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.n_vms()];
        self.step_column_into(step, &mut out);
        out
    }

    /// Writes the utilizations of every VM at one step into `out`,
    /// without allocating. The streaming counterpart of
    /// [`step_column`](Self::step_column) used on the simulation hot
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if `step >= n_steps()` or `out.len() != n_vms()`.
    pub fn step_column_into(&self, step: usize, out: &mut [f64]) {
        assert!(step < self.n_steps(), "step {step} out of range");
        assert_eq!(
            out.len(),
            self.n_vms(),
            "output buffer must hold one value per VM"
        );
        for (slot, row) in out.iter_mut().zip(&self.rows) {
            *slot = row[step];
        }
    }

    /// Returns a trace containing only the first `steps` steps.
    ///
    /// Truncating to more steps than available returns a clone.
    pub fn truncated(&self, steps: usize) -> Self {
        Self {
            step_seconds: self.step_seconds,
            rows: self
                .rows
                .iter()
                .map(|row| row[..steps.min(row.len())].to_vec())
                .collect(),
        }
    }

    /// Mean utilization over all VMs and steps.
    pub fn overall_mean(&self) -> f64 {
        let n = self.n_vms() * self.n_steps();
        if n == 0 {
            return 0.0;
        }
        self.rows.iter().flatten().sum::<f64>() / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> WorkloadTrace {
        WorkloadTrace::from_rows(
            300,
            vec![
                vec![10.0, 20.0, 30.0],
                vec![0.0, 50.0, 100.0],
                vec![5.0, 5.0, 5.0],
            ],
        )
        .unwrap()
    }

    #[test]
    fn dimensions_and_access() {
        let t = toy();
        assert_eq!(t.n_vms(), 3);
        assert_eq!(t.n_steps(), 3);
        assert_eq!(t.step_seconds(), 300);
        assert_eq!(t.utilization(1, 2), 100.0);
        assert_eq!(t.vm_row(2), &[5.0, 5.0, 5.0]);
        assert_eq!(t.step_column(1), vec![20.0, 50.0, 5.0]);
    }

    #[test]
    fn rejects_ragged_rows() {
        assert!(WorkloadTrace::from_rows(300, vec![vec![1.0], vec![1.0, 2.0]]).is_none());
    }

    #[test]
    fn rejects_out_of_range_utilization() {
        assert!(WorkloadTrace::from_rows(300, vec![vec![101.0]]).is_none());
        assert!(WorkloadTrace::from_rows(300, vec![vec![-0.1]]).is_none());
        assert!(WorkloadTrace::from_rows(300, vec![vec![f64::NAN]]).is_none());
    }

    #[test]
    fn rejects_zero_interval() {
        assert!(WorkloadTrace::from_rows(0, vec![vec![1.0]]).is_none());
    }

    #[test]
    fn empty_trace_is_valid() {
        let t = WorkloadTrace::from_rows(300, vec![]).unwrap();
        assert_eq!(t.n_vms(), 0);
        assert_eq!(t.n_steps(), 0);
        assert_eq!(t.overall_mean(), 0.0);
    }

    #[test]
    fn truncation() {
        let t = toy().truncated(2);
        assert_eq!(t.n_steps(), 2);
        assert_eq!(t.n_vms(), 3);
        // Truncating beyond length is a no-op.
        assert_eq!(toy().truncated(10).n_steps(), 3);
    }

    #[test]
    fn overall_mean_matches_hand_computation() {
        let t = toy();
        let want = (10.0 + 20.0 + 30.0 + 0.0 + 50.0 + 100.0 + 5.0 + 5.0 + 5.0) / 9.0;
        assert!((t.overall_mean() - want).abs() < 1e-12);
    }
}

//! Reducing the repeated passes of a run to one set of timings.
//!
//! Every pass of a run replays the same operations on the same inputs,
//! so operation `i` is the same computation in each of them, and what a
//! neighbour on the shared machine adds to it is never negative. The
//! run's estimate of an operation is therefore its **fastest
//! observation among the passes** — the floor — and the end-to-end
//! timings are built from floors: throughput from the floors of short
//! fixed segments of the pass, latency percentiles from the floors of
//! the single requests. On the 2-core VM this was written on,
//! interference comes in bursts of seconds: in one `serve_cycle` run the
//! three passes as a whole made 85.2, 61.5 and 60.7 cycles/s, and the
//! floor said 90.2, as did the runs before and after it. What no
//! estimator within a run can remove is the machine slowing down for
//! minutes under sustained load; the bounds allow for that.

use crate::stats::{percentile_sorted, supported_percentile};

/// Element-wise minima over the passes folded in so far.
#[derive(Default)]
pub struct Floor {
    /// Wall time of each fixed segment of a pass, seconds.
    segments_s: Vec<f64>,
    /// Latency of each `decide` of a pass, µs, in request order.
    decide_us: Vec<f64>,
    passes: usize,
}

fn fold_min(floor: &mut Vec<f64>, sample: &[f64], what: &str) -> Result<(), String> {
    if floor.is_empty() {
        floor.extend_from_slice(sample);
    } else if floor.len() != sample.len() {
        return Err(format!(
            "a pass measured {} {what}, an earlier one {}",
            sample.len(),
            floor.len()
        ));
    } else {
        for (f, &s) in floor.iter_mut().zip(sample) {
            *f = f.min(s);
        }
    }
    Ok(())
}

impl Floor {
    /// Folds one pass in.
    ///
    /// # Errors
    ///
    /// When the pass has another number of segments or decides than
    /// the passes before it: they were not the same operations.
    pub fn fold(&mut self, segments_s: &[f64], decide_us: &[f64]) -> Result<(), String> {
        fold_min(&mut self.segments_s, segments_s, "segments")?;
        fold_min(&mut self.decide_us, decide_us, "decides")?;
        self.passes += 1;
        Ok(())
    }

    pub fn passes(&self) -> usize {
        self.passes
    }

    pub fn decides(&self) -> usize {
        self.decide_us.len()
    }

    /// Wall time of an undisturbed pass: the segment floors, summed.
    pub fn wall_s(&self) -> f64 {
        self.segments_s.iter().sum()
    }

    /// Median of the decide floors.
    pub fn decide_p50_us(&self) -> f64 {
        let mut sorted = self.decide_us.clone();
        sorted.sort_by(f64::total_cmp);
        percentile_sorted(&sorted, 50.0).unwrap_or(0.0)
    }

    /// Percentile `p` of the decide floors, when ten samples lie beyond.
    pub fn decide_percentile_us(&self, p: f64) -> Option<f64> {
        supported_percentile(&mut self.decide_us.clone(), p)
    }
}

/// Segment wall times from their boundaries: `marks[k]..marks[k + 1]`.
pub fn segments_s(marks: &[std::time::Instant]) -> Vec<f64> {
    marks
        .windows(2)
        .map(|w| w[1].duration_since(w[0]).as_secs_f64())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_takes_each_elements_fastest_observation() {
        let mut floor = Floor::default();
        floor.fold(&[1.0, 5.0, 2.0], &[10.0, 40.0]).unwrap();
        floor.fold(&[3.0, 2.0, 2.5], &[30.0, 20.0]).unwrap();
        assert_eq!(floor.passes(), 2);
        assert_eq!(floor.wall_s(), 1.0 + 2.0 + 2.0);
        assert_eq!(floor.decide_p50_us(), 15.0);
        assert_eq!(floor.decides(), 2);
        assert_eq!(floor.decide_percentile_us(90.0), None);
    }

    #[test]
    fn a_pass_of_another_shape_is_refused() {
        let mut floor = Floor::default();
        floor.fold(&[1.0, 2.0], &[1.0]).unwrap();
        assert!(floor.fold(&[1.0], &[1.0]).is_err());
        assert!(floor.fold(&[1.0, 2.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn segments_are_the_gaps_between_marks() {
        let t0 = std::time::Instant::now();
        let marks = [
            t0,
            t0 + std::time::Duration::from_millis(5),
            t0 + std::time::Duration::from_millis(12),
        ];
        let s = segments_s(&marks);
        assert!((s[0] - 0.005).abs() < 1e-9 && (s[1] - 0.007).abs() < 1e-9);
    }
}

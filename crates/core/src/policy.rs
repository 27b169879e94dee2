//! Boltzmann exploration with decaying temperature (Algorithm 2).

// This module is on the Megh decision hot path: `sample` and `greedy`
// allocate nothing, held at 0 over 1 000 calls each on a warmed state
// by `tests/no_alloc.rs`.
#![cfg_attr(
    not(test),
    deny(clippy::indexing_slicing, clippy::integer_division_remainder_used)
)]

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::SparseLspi;

/// The `PolicyCalculator` of Algorithm 2.
///
/// Each action `a` receives weight `exp[(−Q(s,a) + min_a Q)/Temp]`; the
/// temperature decays by `e^{−ε}` every step, so the policy anneals from
/// near-uniform exploration to greedy selection of the minimum-cost
/// action. Because all unexplored actions share `Q = 0` exactly, they
/// form a single "zero class" that is sampled in `O(1)` — the full
/// distribution over `d = N × M` actions is never materialised, which is
/// what keeps Megh's decisions at millisecond scale (§5.2, Figures 4(d)
/// and 5(d)).
///
/// # Examples
///
/// ```
/// use megh_core::{BoltzmannPolicy, SparseLspi};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let lspi = SparseLspi::new(10, 10.0, 0.5);
/// let mut policy = BoltzmannPolicy::new(3.0, 0.01);
/// let mut rng = StdRng::seed_from_u64(1);
/// let action = policy.sample(&lspi, &mut rng).unwrap();
/// assert!(action < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoltzmannPolicy {
    temp: f64,
    epsilon: f64,
}

/// Temperature floor: below this the policy is effectively greedy and
/// further decay would only cause float underflow.
const MIN_TEMP: f64 = 1e-8;

impl BoltzmannPolicy {
    /// Creates a policy with initial temperature `temp0` and per-step
    /// decay exponent `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if `temp0 <= 0` or `epsilon < 0`.
    pub fn new(temp0: f64, epsilon: f64) -> Self {
        assert!(temp0 > 0.0, "temp0 must be positive");
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        Self {
            temp: temp0,
            epsilon,
        }
    }

    /// Recreates a policy mid-decay (checkpoint restoration).
    ///
    /// # Panics
    ///
    /// Panics if `temp <= 0` or `epsilon < 0`.
    pub fn with_temperature(temp: f64, epsilon: f64) -> Self {
        Self::new(temp, epsilon)
    }

    /// Current temperature.
    pub fn temperature(&self) -> f64 {
        self.temp
    }

    /// Applies one decay step: `Temp ← Temp·e^{−ε}` (floored).
    pub fn decay(&mut self) {
        self.temp = (self.temp * (-self.epsilon).exp()).max(MIN_TEMP);
    }

    /// Samples an action from the Boltzmann distribution restricted to
    /// actions the `allowed` predicate admits, by rejection from the
    /// full distribution (up to a bounded number of tries). When
    /// rejection fails — the distribution concentrates nearly all mass
    /// on disallowed actions, e.g. an effectively greedy policy whose
    /// minimum is masked out — it falls back to the minimum-Q *allowed*
    /// action rather than dropping the request. Returns `None` only when
    /// the space is empty or no action is allowed at all.
    pub fn sample_masked<R: Rng>(
        &self,
        lspi: &SparseLspi,
        rng: &mut R,
        allowed: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        for _ in 0..64 {
            match self.sample(lspi, rng) {
                Some(a) if allowed(a) => return Some(a),
                Some(_) => continue,
                None => return None,
            }
        }
        self.greedy_masked(lspi, &allowed)
    }

    /// The minimum-Q action among those the predicate admits, by full
    /// scan — the deterministic fallback when rejection sampling cannot
    /// surface an allowed action.
    fn greedy_masked(&self, lspi: &SparseLspi, allowed: &impl Fn(usize) -> bool) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for a in 0..lspi.dim() {
            if !allowed(a) {
                continue;
            }
            let q = lspi.q(a);
            if best.is_none_or(|(_, bq)| q < bq) {
                best = Some((a, q));
            }
        }
        best.map(|(a, _)| a)
    }

    /// Samples an action from the Boltzmann distribution over all `d`
    /// actions. Returns `None` when the action space is empty.
    ///
    /// Weights: explicit `θ` entries get `exp[(−Q + minQ)/Temp]`; the
    /// `d − nnz(θ)` zero-Q actions share the weight `exp[minQ/Temp]`
    /// and one of them is drawn uniformly when the zero class wins.
    ///
    /// Streams over `θ`'s entries in two passes (mass, then lookup)
    /// instead of materialising the weight table — the steady-state call
    /// performs zero heap allocations.
    pub fn sample<R: Rng>(&self, lspi: &SparseLspi, rng: &mut R) -> Option<usize> {
        let d = lspi.dim();
        if d == 0 {
            return None;
        }
        let min_q = lspi.min_q();
        let inv_t = 1.0 / self.temp;

        // Pass 1: total mass.
        let mut explicit_total = 0.0;
        let mut explicit_count = 0usize;
        let mut last_explicit = None;
        for (a, q) in lspi.theta_entries() {
            explicit_total += ((-q + min_q) * inv_t).exp();
            explicit_count += 1;
            last_explicit = Some(a);
        }
        let zero_count = d - explicit_count;
        let zero_weight = (min_q * inv_t).exp();
        let total = explicit_total + zero_weight * zero_count as f64;
        if !total.is_finite() || total <= 0.0 {
            // Degenerate weights (extreme Q spread at tiny temperature):
            // fall back to the greedy minimum.
            return Some(self.greedy(lspi, rng));
        }

        // Pass 2: locate the drawn action. The weights are recomputed
        // with the same expression, so the passes agree bit-for-bit.
        let mut r = rng.gen_range(0.0..total);
        for (a, q) in lspi.theta_entries() {
            let w = ((-q + min_q) * inv_t).exp();
            if r < w {
                return Some(a);
            }
            r -= w;
        }
        // Zero class: uniform over zero-Q actions, found by rejection
        // sampling (nnz ≪ d in every real configuration).
        if zero_count > 0 {
            // When most actions carry explicit entries, rejection could
            // stall; bound the attempts and then scan.
            for _ in 0..64 {
                let a = rng.gen_range(0..d);
                if lspi.q(a) == 0.0 {
                    return Some(a);
                }
            }
            for a in 0..d {
                if lspi.q(a) == 0.0 {
                    return Some(a);
                }
            }
        }
        // All actions explicit and rounding pushed us past the end.
        last_explicit
    }

    /// The greedy minimum-Q action (ties broken toward the zero class,
    /// drawn uniformly).
    ///
    /// Uses [`SparseLspi::min_theta_entry`]'s cached minimum — no scan
    /// and no allocation on the happy path.
    ///
    /// # Panics
    ///
    /// Panics if the action space is empty.
    pub fn greedy<R: Rng>(&self, lspi: &SparseLspi, rng: &mut R) -> usize {
        let d = lspi.dim();
        assert!(d > 0, "empty action space");
        let explicit_min = lspi.min_theta_entry();
        let zero_count = d - lspi.theta_nnz();
        match explicit_min {
            Some((a, q)) if q < 0.0 || zero_count == 0 => a,
            _ => {
                // Zero is the minimum: pick a zero-Q action.
                for _ in 0..64 {
                    let a = rng.gen_range(0..d);
                    if lspi.q(a) == 0.0 {
                        return a;
                    }
                }
                // Totality: `zero_count > 0` in this arm guarantees the
                // scan finds a zero-Q action; 0 is in range since d > 0.
                (0..d)
                    .find(|&a| lspi.q(a) == 0.0)
                    .or(explicit_min.map(|(a, _)| a))
                    .unwrap_or(0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn temperature_decays_exponentially() {
        let mut p = BoltzmannPolicy::new(3.0, 0.01);
        p.decay();
        assert!((p.temperature() - 3.0 * (-0.01f64).exp()).abs() < 1e-12);
        for _ in 0..100_000 {
            p.decay();
        }
        assert!(p.temperature() >= MIN_TEMP);
    }

    #[test]
    fn fresh_state_samples_uniformly() {
        let lspi = SparseLspi::new(50, 50.0, 0.5);
        let p = BoltzmannPolicy::new(3.0, 0.01);
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..300 {
            seen.insert(p.sample(&lspi, &mut rng).unwrap());
        }
        // With 300 draws over 50 actions, essentially all get hit.
        assert!(seen.len() > 40, "only {} distinct actions", seen.len());
    }

    #[test]
    fn costly_actions_are_sampled_less() {
        let mut lspi = SparseLspi::new(4, 4.0, 0.5);
        // Make action 0 very expensive several times over.
        for _ in 0..20 {
            lspi.update(0, 0, 100.0);
        }
        assert!(lspi.q(0) > 1.0);
        let p = BoltzmannPolicy::new(0.5, 0.0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut count0 = 0;
        let n = 2000;
        for _ in 0..n {
            if p.sample(&lspi, &mut rng).unwrap() == 0 {
                count0 += 1;
            }
        }
        // Uniform would give ~500; the expensive action must be rare.
        assert!(count0 < 100, "expensive action drawn {count0}/{n} times");
    }

    #[test]
    fn greedy_prefers_negative_q() {
        let mut lspi = SparseLspi::new(3, 3.0, 0.5);
        // Engineer a negative Q by feeding a negative cost.
        lspi.update(1, 1, -5.0);
        assert!(lspi.q(1) < 0.0);
        let p = BoltzmannPolicy::new(1.0, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(p.greedy(&lspi, &mut rng), 1);
    }

    #[test]
    fn greedy_picks_unexplored_when_all_costs_positive() {
        let mut lspi = SparseLspi::new(5, 5.0, 0.5);
        lspi.update(0, 0, 3.0);
        let p = BoltzmannPolicy::new(1.0, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let a = p.greedy(&lspi, &mut rng);
            assert_ne!(a, 0, "greedy must avoid the costly explored action");
        }
    }

    #[test]
    fn empty_space_returns_none() {
        let lspi = SparseLspi::new(0, 1.0, 0.5);
        let p = BoltzmannPolicy::new(1.0, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(p.sample(&lspi, &mut rng).is_none());
    }

    #[test]
    fn tiny_temperature_is_effectively_greedy() {
        let mut lspi = SparseLspi::new(3, 3.0, 0.5);
        lspi.update(0, 0, 10.0);
        lspi.update(1, 1, 10.0);
        lspi.update(2, 2, -1.0); // negative cost → negative Q, the minimum
        let mut p = BoltzmannPolicy::new(3.0, 5.0); // brutal decay
        for _ in 0..20 {
            p.decay();
        }
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            assert_eq!(p.sample(&lspi, &mut rng).unwrap(), 2);
        }
    }

    #[test]
    fn masked_sampling_finds_a_rare_allowed_action() {
        // Regression: a near-greedy policy over a large action space
        // with a 1-action mask. Action 7 is expensive, so the Boltzmann
        // distribution puts essentially zero mass on it; 64 rejection
        // draws from the unmasked distribution will practically never
        // surface it. The fallback must still return it instead of None.
        let mut lspi = SparseLspi::new(1000, 1000.0, 0.5);
        for _ in 0..30 {
            lspi.update(7, 7, 50.0);
        }
        assert!(lspi.q(7) > 0.0);
        let mut p = BoltzmannPolicy::new(3.0, 5.0); // brutal decay
        for _ in 0..20 {
            p.decay();
        }
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            assert_eq!(
                p.sample_masked(&lspi, &mut rng, |a| a == 7),
                Some(7),
                "the only allowed action must be chosen, not dropped"
            );
        }
    }

    #[test]
    fn masked_sampling_returns_none_when_nothing_allowed() {
        let lspi = SparseLspi::new(16, 16.0, 0.5);
        let p = BoltzmannPolicy::new(1.0, 0.0);
        let mut rng = StdRng::seed_from_u64(13);
        assert_eq!(p.sample_masked(&lspi, &mut rng, |_| false), None);
    }

    #[test]
    fn masked_sampling_returns_none_on_empty_space() {
        let lspi = SparseLspi::new(0, 1.0, 0.5);
        let p = BoltzmannPolicy::new(1.0, 0.0);
        let mut rng = StdRng::seed_from_u64(17);
        assert_eq!(p.sample_masked(&lspi, &mut rng, |_| true), None);
    }

    #[test]
    fn cancelled_theta_entry_rejoins_the_zero_class() {
        // Zero-class membership is "Q reads exactly 0", not "never
        // explored": an explored action whose first observed cost was 0
        // has no explicit θ entry and must be sampleable as part of the
        // zero class without skewing the distribution.
        let mut lspi = SparseLspi::new(4, 4.0, 0.5);
        lspi.update(2, 2, 0.0); // explored, θ[2] == 0 exactly
        assert!(!lspi.is_unexplored(2));
        let p = BoltzmannPolicy::new(1.0, 0.0);
        let mut rng = StdRng::seed_from_u64(19);
        let mut hit2 = 0;
        for _ in 0..400 {
            if p.sample(&lspi, &mut rng).unwrap() == 2 {
                hit2 += 1;
            }
        }
        // Uniform over 4 zero-Q actions → ~100 expected hits.
        assert!((50..200).contains(&hit2), "action 2 drawn {hit2}/400 times");
    }

    #[test]
    #[should_panic(expected = "temp0 must be positive")]
    fn rejects_nonpositive_temperature() {
        let _ = BoltzmannPolicy::new(0.0, 0.1);
    }
}

//! Boltzmann exploration with decaying temperature (Algorithm 2).

// This module is on the Megh decision hot path: `sample` and `greedy`
// allocate nothing, held at 0 over 1 000 calls each on a warmed state
// by `tests/no_alloc.rs`.
#![cfg_attr(
    not(test),
    deny(clippy::indexing_slicing, clippy::integer_division_remainder_used)
)]

use megh_linalg::SparseVec;
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
    /// performs zero heap allocations. A caller that draws many times
    /// from one unchanging state builds a [`BoltzmannTable`] once
    /// instead; its draws are this method's, draw for draw.
    pub fn sample<R: Rng>(&self, lspi: &SparseLspi, rng: &mut R) -> Option<usize> {
        if lspi.dim() == 0 {
            return None;
        }
        let min_q = lspi.min_q();
        let inv_t = 1.0 / self.temp;

        // Pass 1: total mass.
        let (total, last_explicit) = mass(lspi, min_q, inv_t, |_, _| {});
        if !total.is_finite() || total <= 0.0 {
            return Some(self.greedy(lspi, rng));
        }

        // Pass 2: locate the drawn action. The weights are recomputed
        // with the same expression, so the passes agree bit-for-bit.
        let r = rng.gen_range(0.0..total);
        let weights = lspi
            .theta_entries()
            .map(|(a, q)| (a, weight(q, min_q, inv_t)));
        locate(r, weights)
            .or_else(|| zero_class(lspi.theta(), rng))
            .or(last_explicit)
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
        assert!(lspi.dim() > 0, "empty action space");
        greedy_action(lspi.theta(), lspi.min_theta_entry(), rng)
    }
}

/// The frozen Boltzmann distribution of one learned state at one
/// temperature: the weight table [`BoltzmannPolicy::sample`] streams
/// through twice per call, built once.
///
/// Holds `θ` (for the zero-class test `q(a) == 0.0`) with its cached
/// minimum, the total mass summed in the order `sample`'s first pass
/// sums it, and the `(action, weight)` pairs whose weight is not `0.0`,
/// in `θ` order. Dropping zero weights is exact: the draw `r` starts
/// at `≥ 0` and stays there, and against a weight of `0.0` the test
/// `r < w` fails and `r -= w` leaves `r` unchanged. So
/// [`BoltzmannTable::sample`] returns the action
/// [`BoltzmannPolicy::sample`] returns on the same state, consuming the
/// same random numbers, while reading only the weights that can win —
/// at a low temperature, a handful.
///
/// # Examples
///
/// ```
/// use megh_core::{BoltzmannPolicy, BoltzmannTable, SparseLspi};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut lspi = SparseLspi::new(10, 10.0, 0.5);
/// lspi.update(3, 4, 2.0);
/// let policy = BoltzmannPolicy::new(0.5, 0.01);
/// let table = BoltzmannTable::new(&lspi, &policy);
/// let (mut a, mut b) = (StdRng::seed_from_u64(1), StdRng::seed_from_u64(1));
/// assert_eq!(table.sample(&mut a), policy.sample(&lspi, &mut b));
/// ```
#[derive(Debug, Clone)]
pub struct BoltzmannTable {
    theta: SparseVec,
    min_entry: Option<(usize, f64)>,
    total: f64,
    last_explicit: Option<usize>,
    weights: Vec<(usize, f64)>,
}

impl BoltzmannTable {
    /// Builds `policy`'s distribution over `lspi` at its current
    /// temperature, in one pass over `θ`.
    pub fn new(lspi: &SparseLspi, policy: &BoltzmannPolicy) -> Self {
        let mut weights = Vec::new();
        let (total, last_explicit) = mass(lspi, lspi.min_q(), 1.0 / policy.temp, |a, w| {
            if w != 0.0 {
                weights.push((a, w));
            }
        });
        Self {
            theta: lspi.theta().clone(),
            min_entry: lspi.min_theta_entry(),
            total,
            last_explicit,
            weights,
        }
    }

    /// Draws an action — the one [`BoltzmannPolicy::sample`] draws from
    /// the state this table was built from, with the same `rng` calls.
    /// Returns `None` when the action space is empty. Allocates nothing.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Option<usize> {
        if self.theta.dim() == 0 {
            return None;
        }
        if !self.total.is_finite() || self.total <= 0.0 {
            return Some(greedy_action(&self.theta, self.min_entry, rng));
        }
        let r = rng.gen_range(0.0..self.total);
        locate(r, self.weights.iter().copied())
            .or_else(|| zero_class(&self.theta, rng))
            .or(self.last_explicit)
    }
}

/// The Boltzmann weight `exp[(−q + minQ)/Temp]` of an explicit entry.
#[inline]
fn weight(q: f64, min_q: f64, inv_t: f64) -> f64 {
    ((-q + min_q) * inv_t).exp()
}

/// Pass 1 of a draw: the total mass over all `d` actions and the last
/// explicit action, handing each explicit entry's weight to `visit` in
/// `θ` order. The zero class's mass is added last, after every
/// explicit weight.
#[inline]
fn mass(
    lspi: &SparseLspi,
    min_q: f64,
    inv_t: f64,
    mut visit: impl FnMut(usize, f64),
) -> (f64, Option<usize>) {
    let mut explicit_total = 0.0;
    let mut explicit_count = 0usize;
    let mut last_explicit = None;
    for (a, q) in lspi.theta_entries() {
        let w = weight(q, min_q, inv_t);
        explicit_total += w;
        explicit_count += 1;
        last_explicit = Some(a);
        visit(a, w);
    }
    let zero_count = lspi.dim() - explicit_count;
    let zero_weight = (min_q * inv_t).exp();
    (
        explicit_total + zero_weight * zero_count as f64,
        last_explicit,
    )
}

/// Pass 2 of a draw: the explicit action whose cumulative weight first
/// exceeds `r`, or `None` when `r` falls past the explicit mass.
#[inline]
fn locate(mut r: f64, weights: impl Iterator<Item = (usize, f64)>) -> Option<usize> {
    for (a, w) in weights {
        if r < w {
            return Some(a);
        }
        r -= w;
    }
    None
}

/// A uniform draw from the zero class — the actions whose `Q` reads
/// exactly 0 — by rejection sampling (nnz ≪ d in every real
/// configuration), with a bounded number of attempts and then a scan
/// so a nearly saturated `θ` cannot stall it. `None` when the class is
/// empty; no random number is consumed then.
#[inline]
fn zero_class<R: Rng>(theta: &SparseVec, rng: &mut R) -> Option<usize> {
    let d = theta.dim();
    if theta.nnz() >= d {
        return None;
    }
    for _ in 0..64 {
        let a = rng.gen_range(0..d);
        if theta.get(a) == 0.0 {
            return Some(a);
        }
    }
    (0..d).find(|&a| theta.get(a) == 0.0)
}

/// The greedy minimum-Q action over a non-empty space, from `θ` and its
/// cached minimum entry: the explicit minimum when it is negative or no
/// zero-Q action exists, otherwise a uniform zero-class draw. It is
/// also the fallback when the Boltzmann weights degenerate (extreme Q
/// spread at a tiny temperature makes the total non-finite or 0).
fn greedy_action<R: Rng>(
    theta: &SparseVec,
    explicit_min: Option<(usize, f64)>,
    rng: &mut R,
) -> usize {
    match explicit_min {
        Some((a, q)) if q < 0.0 || theta.nnz() == theta.dim() => a,
        // Totality: this arm has a zero-Q action whenever d > 0.
        _ => zero_class(theta, rng)
            .or(explicit_min.map(|(a, _)| a))
            .unwrap_or(0),
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
    fn table_keeps_exactly_the_nonzero_weights_and_pass_one_total() {
        // At this temperature some weights underflow to 0.0 and some are
        // tiny but positive: the table must drop exactly the former, and
        // its total must be pass 1's, bit for bit.
        let mut lspi = SparseLspi::new(40, 40.0, 0.5);
        for t in 0..30 {
            lspi.update((t * 7) % 40, (t * 11 + 3) % 40, (t % 9) as f64 * 0.4 - 1.0);
        }
        let policy = BoltzmannPolicy::new(1e-4, 0.0);
        let table = BoltzmannTable::new(&lspi, &policy);
        let min_q = lspi.min_q();
        let inv_t = 1.0 / policy.temperature();
        let all: Vec<(usize, f64)> = lspi
            .theta_entries()
            .map(|(a, q)| (a, ((-q + min_q) * inv_t).exp()))
            .collect();
        assert!(
            all.iter().any(|&(_, w)| w == 0.0),
            "some weight must underflow"
        );
        assert!(
            all.iter().any(|&(_, w)| w > 0.0 && w < 1e-3),
            "some weight must be tiny"
        );
        let kept: Vec<(usize, f64)> = all.iter().copied().filter(|&(_, w)| w != 0.0).collect();
        assert_eq!(table.weights, kept);
        let explicit: f64 = all.iter().fold(0.0, |sum, &(_, w)| sum + w);
        let zeros = (lspi.dim() - all.len()) as f64;
        let total = explicit + (min_q * inv_t).exp() * zeros;
        assert_eq!(table.total.to_bits(), total.to_bits());
        assert_eq!(table.last_explicit, all.last().map(|&(a, _)| a));
    }

    #[test]
    #[should_panic(expected = "temp0 must be positive")]
    fn rejects_nonpositive_temperature() {
        let _ = BoltzmannPolicy::new(0.0, 0.1);
    }
}

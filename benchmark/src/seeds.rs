//! Every input that varies between runs derives from the one `--seed`;
//! the program under test sees only the inputs generated here. The
//! learning history of a workload is fixed instead (see
//! `sim::Spliced`) and derives from [`LEARNING_SEED`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SplitMix64 finalizer.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of every workload's fixed learning history.
pub const LEARNING_SEED: u64 = 1;

/// Independent input streams of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Seed of a trace generator.
    Trace = 1,
    /// `MeghConfig::seed` (exploration); only ever derived from
    /// [`LEARNING_SEED`].
    Agent = 2,
    /// Seeds of the `decide` requests.
    Decide = 3,
    /// The observed `(action, cost)` sequence.
    Observe = 4,
    /// Inputs of the in-process layer probes.
    Probe = 5,
}

/// The seed of `stream` under the run's `--seed`.
pub fn derive(seed: u64, stream: Stream) -> u64 {
    mix(seed ^ mix(stream as u64))
}

/// Seed of the `i`-th decide request.
pub fn decide_seed(seed: u64, i: u64) -> u64 {
    mix(derive(seed, Stream::Decide).wrapping_add(i))
}

/// The observed `(action, cost)` sequence a client reports: actions
/// uniform over the action space, costs uniform within ±50 % of
/// `mean_cost` (the trained agent's mean per-step cost, so the learned
/// values stay in the range training left them in).
pub struct ObserveStream {
    rng: StdRng,
    dim: usize,
    mean_cost: f64,
}

impl ObserveStream {
    pub fn new(seed: u64, dim: usize, mean_cost: f64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(derive(seed, Stream::Observe)),
            dim,
            mean_cost,
        }
    }
}

impl Iterator for ObserveStream {
    type Item = (usize, f64);

    fn next(&mut self) -> Option<(usize, f64)> {
        let action = self.rng.gen_range(0..self.dim);
        let cost = self.mean_cost * self.rng.gen_range(0.5..1.5);
        Some((action, cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_request_stream() {
        let a: Vec<u64> = (0..64).map(|i| decide_seed(7, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| decide_seed(7, i)).collect();
        assert_eq!(a, b);
        let oa: Vec<(usize, f64)> = ObserveStream::new(7, 15_000, 0.2).take(64).collect();
        let ob: Vec<(usize, f64)> = ObserveStream::new(7, 15_000, 0.2).take(64).collect();
        assert_eq!(oa, ob);
        assert!(oa
            .iter()
            .all(|&(a, c)| a < 15_000 && (0.1..0.3).contains(&c)));
    }

    #[test]
    fn another_seed_or_stream_gives_another_stream() {
        assert_ne!(decide_seed(1, 0), decide_seed(2, 0));
        assert_ne!(decide_seed(1, 0), decide_seed(1, 1));
        assert_ne!(derive(1, Stream::Trace), derive(1, Stream::Agent));
        let a: Vec<(usize, f64)> = ObserveStream::new(1, 100, 1.0).take(8).collect();
        let b: Vec<(usize, f64)> = ObserveStream::new(2, 100, 1.0).take(8).collect();
        assert_ne!(a, b);
    }
}

//! What the decision hot path allocates in the steady state, counted
//! by a counting global allocator: sampling (streamed, and from a built
//! `BoltzmannTable`), greedy reads, learning on seen actions, `observe`
//! and the generator sources' `fill_chunk` are held at 0; `decide` returns a `Vec` and grows the Q-table while it
//! learns, and is held under a pinned ceiling.
//!
//! This lives in its own integration-test binary because the
//! `#[global_allocator]` attribute — and so the counter — is
//! process-wide. The binary is built without the libtest harness
//! (`harness = false` in `Cargo.toml`) and runs the checks one after
//! another on the main thread: under the harness, other tests' warm-ups
//! and the harness's own bookkeeping allocate on parallel threads
//! inside a check's counted section.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use megh_core::{BoltzmannPolicy, BoltzmannTable, HierMegh, MeghAgent, MeghConfig, SparseLspi};
use megh_sim::{
    run_streamed, DataCenterConfig, DataCenterView, MigrationRequest, Scheduler, SimOptions,
    StepFeedback,
};
use megh_trace::{GoogleConfig, PlanetLabConfig, TraceSource, STEPS_PER_DAY};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The system allocator, counting heap acquisitions (`alloc`,
/// `alloc_zeroed` and `realloc` each count one) — the one number these
/// checks read.
struct CountingAllocator(AtomicU64);

impl CountingAllocator {
    fn allocations(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counter
// only observes and never touches the memory it hands out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.0.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.0.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.0.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator(AtomicU64::new(0));

/// A learned state representative of a warmed-up run: 50 VMs × 66
/// hosts (the paper's small PlanetLab shape), with a spread of
/// explored actions at mixed costs.
fn warmed_lspi() -> SparseLspi {
    let d = 50 * 66;
    let mut lspi = SparseLspi::new(d, d as f64, 0.5);
    for t in 0..200 {
        let a = (t * 131) % d;
        let a2 = (t * 137 + 71) % d;
        let cost = ((t % 7) as f64) - 2.0;
        lspi.update(a, a2, cost);
    }
    lspi
}

fn steady_state_sample_is_allocation_free() {
    let lspi = warmed_lspi();
    let policy = BoltzmannPolicy::new(1.5, 0.0);
    let mut rng = StdRng::seed_from_u64(7);

    // Warm-up: first calls may lazily touch anything that caches.
    for _ in 0..10 {
        let _ = policy.sample(&lspi, &mut rng);
    }

    let before = ALLOC.allocations();
    let mut acc = 0usize;
    for _ in 0..1_000 {
        acc += policy.sample(&lspi, &mut rng).expect("non-empty space");
    }
    let after = ALLOC.allocations();
    assert!(acc > 0, "keep the sampled actions observable");
    assert_eq!(
        after - before,
        0,
        "BoltzmannPolicy::sample allocated {} times over 1000 calls",
        after - before
    );
}

/// The daemon's decide: a draw from the table a publish built.
fn table_sample_is_allocation_free() {
    let lspi = warmed_lspi();
    let table = BoltzmannTable::new(&lspi, &BoltzmannPolicy::new(1.5, 0.0));
    let mut rng = StdRng::seed_from_u64(7);
    let before = ALLOC.allocations();
    let mut acc = 0usize;
    for _ in 0..1_000 {
        acc += table.sample(&mut rng).expect("non-empty space");
    }
    let after = ALLOC.allocations();
    assert!(acc > 0, "keep the sampled actions observable");
    assert_eq!(
        after - before,
        0,
        "BoltzmannTable::sample allocated {} times over 1000 calls",
        after - before
    );
}

fn steady_state_greedy_is_allocation_free() {
    let lspi = warmed_lspi();
    let policy = BoltzmannPolicy::new(1.5, 0.0);
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..10 {
        let _ = policy.greedy(&lspi, &mut rng);
    }
    let before = ALLOC.allocations();
    let mut acc = 0usize;
    for _ in 0..1_000 {
        acc += policy.greedy(&lspi, &mut rng);
    }
    assert!(acc < usize::MAX);
    assert_eq!(ALLOC.allocations() - before, 0, "greedy hit the heap");
}

fn steady_state_update_on_seen_actions_is_allocation_free() {
    // Learning on previously seen action pairs reuses every buffer:
    // the scratch vectors, θ's entry list, and Δ's adjacency rows all
    // have their capacity from the warm-up.
    let mut lspi = warmed_lspi();
    for _ in 0..10 {
        lspi.update(131, 137 + 71, 1.0);
    }
    let before = ALLOC.allocations();
    for t in 0..100 {
        lspi.update(131, 137 + 71, (t % 3) as f64);
    }
    assert_eq!(
        ALLOC.allocations() - before,
        0,
        "update on a previously seen action pair hit the heap"
    );
}

/// Days 1–2 of the simulated run train the agent; counting starts with
/// day 3.
const TRAIN_STEPS: usize = 2 * STEPS_PER_DAY;

#[derive(Debug, Default)]
struct Counts {
    decides: usize,
    non_empty: usize,
    decide_allocs: u64,
    max_per_decide: u64,
    allocs_on_empty: u64,
    observe_allocs: u64,
}

/// Counts heap allocations inside the wrapped scheduler's `decide` and
/// `observe` calls only — the engine allocates around them — over the
/// steady state: days 3–4 less the first `warm_up` decides.
struct Counted<S> {
    inner: S,
    /// Called once, before the first decide of day 3.
    after_training: fn(&mut S),
    warm_up: usize,
    seen: usize,
    counts: Counts,
}

impl<S: Scheduler> Scheduler for Counted<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, view: &DataCenterView) -> Vec<MigrationRequest> {
        if self.seen == TRAIN_STEPS {
            (self.after_training)(&mut self.inner);
        }
        self.seen += 1;
        let before = ALLOC.allocations();
        let requests = self.inner.decide(view);
        let allocs = ALLOC.allocations() - before;
        if self.seen > TRAIN_STEPS + self.warm_up {
            let c = &mut self.counts;
            c.decides += 1;
            c.decide_allocs += allocs;
            c.max_per_decide = c.max_per_decide.max(allocs);
            if requests.is_empty() {
                c.allocs_on_empty += allocs;
            } else {
                c.non_empty += 1;
            }
        }
        requests
    }

    fn observe(&mut self, feedback: &StepFeedback) {
        let before = ALLOC.allocations();
        self.inner.observe(feedback);
        if self.seen > TRAIN_STEPS + self.warm_up {
            self.counts.observe_allocs += ALLOC.allocations() - before;
        }
    }
}

const HOSTS: usize = 50;
const VMS: usize = 66;

/// Runs `scheduler` over a 4-day 50 × 66 PlanetLab stream (seed 7) and
/// returns what it allocated in the steady state.
fn steady_state_counts<S: Scheduler>(
    label: &str,
    scheduler: S,
    after_training: fn(&mut S),
    warm_up: usize,
) -> Counts {
    let mut counted = Counted {
        inner: scheduler,
        after_training,
        warm_up,
        seen: 0,
        counts: Counts::default(),
    };
    run_streamed(
        &DataCenterConfig::paper_planetlab(HOSTS, VMS),
        PlanetLabConfig::new(VMS, 7).source(4 * STEPS_PER_DAY),
        &mut counted,
        SimOptions::default(),
    )
    .expect("valid setup");
    println!("no_alloc: {label}: {:?}", counted.counts);
    counted.counts
}

/// While it learns, `decide` pays for the `Vec` it returns and for the
/// growth of the Q-table it folds the last cost into (Δ's adjacency
/// rows, θ, z and the product scratch); `observe` only stores the cost.
fn learning_decide_stays_under_its_ceiling<S: Scheduler>(label: &str, scheduler: S, ceiling: u64) {
    let c = steady_state_counts(label, scheduler, |_| {}, 0);
    assert_eq!(
        c.observe_allocs, 0,
        "{label}: observe allocated {} times over {} steps",
        c.observe_allocs, c.decides
    );
    assert!(
        c.max_per_decide <= ceiling,
        "{label}: a learning decide allocated {} times (pinned ceiling {ceiling}: the returned \
         Vec plus Q-table growth); {} allocations over {} decides, {} of them non-empty",
        c.max_per_decide,
        c.decide_allocs,
        c.decides,
        c.non_empty
    );
}

/// With learning paused at the end of day 2 the Q-table stops growing
/// and what is left is the returned `Vec`: one allocation when it
/// carries a migration (98 % of steps), none when it is empty.
fn frozen_decide_allocates_only_the_returned_vec() {
    let agent = MeghAgent::new(MeghConfig::paper_defaults(VMS, HOSTS));
    let c = steady_state_counts("MeghAgent, frozen", agent, MeghAgent::freeze, 10);
    assert!(c.non_empty > 0, "the run must exercise migrating steps");
    // A second allocation in one call is `scratch_bu` / `scratch_vb`
    // doubling inside `preview_update`: the previewed action's column or
    // row of Δ has more entries than any product taken before it. Δ is
    // fixed while frozen, so that happens at most log2(densest column)
    // times per phase, at any point in it; about half of agent seeds
    // show one or two over these two days, the seed pinned here none.
    assert!(
        c.max_per_decide <= 1 && c.allocs_on_empty == 0,
        "frozen decide: at most {} allocations in one call (expected 1, the returned Vec), {} on \
         empty results (expected 0); {} allocations over {} decides, {} of them non-empty",
        c.max_per_decide,
        c.allocs_on_empty,
        c.decide_allocs,
        c.decides,
        c.non_empty
    );
    assert_eq!(c.observe_allocs, 0, "frozen observe hit the heap");
}

/// A generator source sizes its per-VM state at construction; filling
/// a chunk after the first only advances it.
fn fill_chunk_is_allocation_free<T: TraceSource>(label: &str, mut source: T) {
    let mut buf = vec![0.0f64; 12 * VMS];
    assert_eq!(source.fill_chunk(&mut buf), 12, "first chunk is full");
    let before = ALLOC.allocations();
    let mut steps = 0usize;
    loop {
        let got = source.fill_chunk(&mut buf);
        if got == 0 {
            break;
        }
        steps += got;
    }
    let allocs = ALLOC.allocations() - before;
    println!("no_alloc: {label}::fill_chunk: {allocs} allocations over {steps} steps");
    assert!(steps > 0, "keep the counted section non-empty");
    assert_eq!(allocs, 0, "{label}::fill_chunk hit the heap");
}

fn main() {
    steady_state_sample_is_allocation_free();
    table_sample_is_allocation_free();
    steady_state_greedy_is_allocation_free();
    steady_state_update_on_seen_actions_is_allocation_free();

    let config = MeghConfig::paper_defaults(VMS, HOSTS);
    learning_decide_stays_under_its_ceiling("MeghAgent", MeghAgent::new(config.clone()), 6);
    learning_decide_stays_under_its_ceiling("HierMegh, 2 shards", HierMegh::sharded(config, 2), 8);
    frozen_decide_allocates_only_the_returned_vec();

    let steps = STEPS_PER_DAY;
    fill_chunk_is_allocation_free(
        "PlanetLabSource",
        PlanetLabConfig::new(VMS, 7).source(steps),
    );
    fill_chunk_is_allocation_free("GoogleSource", GoogleConfig::new(VMS, 7).source(steps));
}

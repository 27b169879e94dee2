//! The learned state is `O(nnz)`: nothing in `SparseLspi` or its
//! `DokMatrix` is sized by the action-space dimension `d = N·M`. These
//! tests run at a `d` no per-action allocation could survive, so an
//! `O(d)` structure coming back aborts the test binary instead of
//! passing slowly.

use megh_core::{fnv1a64, from_versioned_json, CheckpointError, MeghAgent, MeghConfig, SparseLspi};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 100 000 hosts × 132 000 VMs: `d = 1.32·10¹⁰`, 48 B of empty lists per
/// action would be 634 GB.
const FLEET_DIM: usize = 100_000 * 132_000;

/// 2⁴⁰: a dimension whose per-action flags alone would need 1 TB.
const HOSTILE_DIM: usize = 1 << 40;

#[test]
fn fleet_scale_lspi_is_built_updated_cloned_and_round_tripped() {
    let mut lspi = SparseLspi::new(FLEET_DIM, FLEET_DIM as f64, 0.5);
    let mut rng = StdRng::seed_from_u64(17);
    // A few hundred hot actions revisited among fresh ones, as a
    // learning agent's trajectory does.
    let hot: Vec<usize> = (0..256).map(|_| rng.gen_range(0..FLEET_DIM)).collect();
    let action = |rng: &mut StdRng| {
        if rng.gen_bool(0.5) {
            hot[rng.gen_range(0..hot.len())]
        } else {
            rng.gen_range(0..FLEET_DIM)
        }
    };
    for _ in 0..1_000 {
        let (a, a_next) = (action(&mut rng), action(&mut rng));
        assert!(lspi.update(a, a_next, rng.gen_range(0.05..0.5)));
    }
    assert_eq!(lspi.updates(), 1_000);
    assert!(lspi.explored_count() > 256 && lspi.explicit_nnz() > 1_000);

    let copy = lspi.clone();
    let json = serde_json::to_string(&copy).unwrap();
    let back: SparseLspi = serde_json::from_str(&json).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
    assert_eq!(back.dim(), FLEET_DIM);
    assert_eq!(back.explored_count(), lspi.explored_count());
    assert_eq!(back.min_theta_entry(), lspi.min_theta_entry());
    for (a, q) in lspi.theta_entries() {
        assert_eq!(back.q(a).to_bits(), q.to_bits());
        assert!(!back.is_unexplored(a));
    }
}

/// §5.2's complexity claim as a counted fact: an update touches only
/// what its two actions reach, so the same 2 000 updates leave the same
/// learned state at d = 15 000 (100 hosts × 150 VMs) and at the paper
/// fleet's d = 841 600 (800 × 1 052). Both use one δ: the paper's δ = d
/// would differ between them.
#[test]
fn lspi_state_after_the_same_updates_does_not_depend_on_d() {
    const SMALL: usize = 100 * 150;
    const PAPER: usize = 800 * 1_052;
    let mut rng = StdRng::seed_from_u64(52);
    let updates: Vec<(usize, usize, f64)> = (0..2_000)
        .map(|_| {
            (
                rng.gen_range(0..SMALL),
                rng.gen_range(0..SMALL),
                rng.gen_range(0.05..0.5),
            )
        })
        .collect();
    let replay = |dim| {
        let mut lspi = SparseLspi::new(dim, SMALL as f64, 0.5);
        for &(a, a_next, cost) in &updates {
            assert!(lspi.update(a, a_next, cost));
        }
        lspi
    };
    let (small, paper) = (replay(SMALL), replay(PAPER));
    assert_eq!(small.updates(), 2_000);
    assert_eq!(paper.updates(), small.updates());
    assert_eq!(paper.explicit_nnz(), small.explicit_nnz());
    assert_eq!(paper.theta_nnz(), small.theta_nnz());
    for &(a, a_next, _) in &updates {
        for action in [a, a_next] {
            assert_eq!(
                paper.q(action).to_bits(),
                small.q(action).to_bits(),
                "θ[{action}]"
            );
        }
    }
}

/// A fresh 6 × 3 agent's checkpoint with the state's dimension (and
/// Δ's order, and z's and θ's) rewritten to 2⁴⁰, as bare legacy JSON.
fn hostile_legacy_checkpoint() -> String {
    let cp = MeghAgent::new(MeghConfig::paper_defaults(6, 3)).checkpoint();
    let json = serde_json::to_string(&cp).unwrap();
    let huge = json
        .replace("\"dim\":18,", &format!("\"dim\":{HOSTILE_DIM},"))
        .replace("\"order\":18,", &format!("\"order\":{HOSTILE_DIM},"));
    assert_eq!(
        huge.matches(&HOSTILE_DIM.to_string()).count(),
        4,
        "lspi.dim, Δ's order, z.dim and θ.dim must all be rewritten: {huge}"
    );
    huge
}

#[test]
fn checkpoint_claiming_a_huge_dimension_is_rejected_not_allocated() {
    let legacy = hostile_legacy_checkpoint();
    // The same data in a checksummed envelope, so only the final check
    // of the state against its configuration can stop it.
    let payload =
        serde_json::to_string(&serde_json::from_str::<serde_json::Value>(&legacy).unwrap())
            .unwrap();
    let envelope = format!(
        "{{\"version\":\"1.0.0\",\"checksum\":\"{:016x}\",\"data\":{payload}}}",
        fnv1a64(payload.as_bytes())
    );
    for (label, json) in [("legacy", legacy), ("envelope", envelope)] {
        match from_versioned_json(&json) {
            Err(CheckpointError::InvalidConfig(msg)) => {
                assert!(msg.contains("lspi dimension"), "{label}: {msg}");
            }
            other => panic!("{label}: expected an invalid-config error, got {other:?}"),
        }
    }
}

//! Checkpoint format compatibility: the committed v0 fixture (the bare
//! `MeghCheckpoint` JSON earlier revisions wrote, no envelope) must load
//! through the migration chain forever.
//!
//! The fixture at `tests/fixtures/checkpoint_v0.json` was generated by
//! the `#[ignore]`d `regenerate_v0_fixture` test below from the same
//! deterministic warm-up this file replays, so the loaded state can be
//! compared field-for-field against a freshly built expectation.
//! `tests/fixtures/checkpoint_v1.json` holds the same warm-up in the
//! current `{version, checksum, data}` envelope and pins the bytes
//! today's writer emits.

use megh_core::{
    from_versioned_json, load_checkpoint, to_versioned_json, Config, MeghCheckpoint, MeghConfig,
    SparseLspi, CHECKPOINT_VERSION,
};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/checkpoint_v0.json"
);

const FIXTURE_V1: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/checkpoint_v1.json"
);

/// Deterministically warmed state matching the committed fixture.
fn warmed_checkpoint() -> MeghCheckpoint {
    let config = MeghConfig::paper_defaults(5, 3);
    let dim = config.n_vms * config.n_hosts;
    let mut lspi = SparseLspi::new(dim, config.delta, config.gamma);
    let mut temperature = config.temp0;
    let steps = 25;
    for i in 0..steps {
        lspi.update(i % dim, (i * 7 + 3) % dim, 0.04 + (i % 6) as f64 * 0.015);
        temperature *= (-config.epsilon).exp();
    }
    MeghCheckpoint {
        config,
        lspi,
        temperature,
        steps,
    }
}

/// Rewrites the fixture in the legacy bare-JSON format. Run explicitly
/// (`cargo test -p megh-core --test migration -- --ignored`) only when
/// the warm-up recipe above changes.
#[test]
#[ignore = "fixture generator, not a check"]
fn regenerate_v0_fixture() {
    let json = serde_json::to_string(&warmed_checkpoint()).unwrap();
    std::fs::write(FIXTURE, json).unwrap();
}

#[test]
fn v0_fixture_is_bare_legacy_json() {
    let raw = std::fs::read_to_string(FIXTURE).unwrap();
    assert!(
        !raw.contains("\"version\""),
        "fixture must stay in the unversioned legacy format"
    );
    assert!(raw.starts_with('{') && raw.contains("\"lspi\""), "{raw}");
}

/// The fixture was written by an earlier revision's serializer from the
/// same warm-up, so this pins the saved bytes across any change to how
/// the learned state is stored in memory.
#[test]
fn warmup_serializes_to_the_fixture_bytes() {
    let raw = std::fs::read_to_string(FIXTURE).unwrap();
    assert_eq!(serde_json::to_string(&warmed_checkpoint()).unwrap(), raw);
}

/// Rewrites the v1 envelope fixture. Run explicitly (`cargo test -p
/// megh-core --test migration -- --ignored`) only when the warm-up
/// recipe or the envelope format deliberately changes.
#[test]
#[ignore = "fixture generator, not a check"]
fn regenerate_v1_fixture() {
    let json = to_versioned_json(&warmed_checkpoint()).unwrap();
    std::fs::write(FIXTURE_V1, json).unwrap();
}

/// The envelope writer reproduces the committed v1 file byte for byte,
/// so a rewrite of how the envelope is assembled cannot change what
/// lands on disk.
#[test]
fn warmup_envelope_serializes_to_the_v1_fixture_bytes() {
    let raw = std::fs::read_to_string(FIXTURE_V1).unwrap();
    assert!(raw.starts_with(&format!("{{\"version\":\"{CHECKPOINT_VERSION}\"")));
    assert_eq!(to_versioned_json(&warmed_checkpoint()).unwrap(), raw);
    let loaded = from_versioned_json(&raw).unwrap();
    assert_eq!(loaded.steps, warmed_checkpoint().steps);
}

#[test]
fn v0_fixture_migrates_and_matches_the_warmup() {
    let raw = std::fs::read_to_string(FIXTURE).unwrap();
    let loaded = from_versioned_json(&raw).expect("v0 fixture loads via migration chain");
    let expected = warmed_checkpoint();

    assert_eq!(loaded.steps, expected.steps);
    assert_eq!(loaded.temperature.to_bits(), expected.temperature.to_bits());
    assert_eq!(
        Config::checksum(&loaded.config),
        Config::checksum(&expected.config)
    );
    assert_eq!(loaded.lspi.dim(), expected.lspi.dim());
    assert_eq!(loaded.lspi.explicit_nnz(), expected.lspi.explicit_nnz());
    for a in 0..expected.lspi.dim() {
        assert_eq!(
            loaded.lspi.q(a).to_bits(),
            expected.lspi.q(a).to_bits(),
            "Q({a}) diverged through migration"
        );
    }
}

#[test]
fn migrated_fixture_round_trips_at_the_current_version() {
    let raw = std::fs::read_to_string(FIXTURE).unwrap();
    let loaded = from_versioned_json(&raw).unwrap();

    // Re-saving produces the current envelope, and that envelope loads
    // back to the same state without touching the migration chain.
    let envelope = to_versioned_json(&loaded).unwrap();
    assert!(envelope.contains(&format!("\"version\":\"{CHECKPOINT_VERSION}\"")));
    let reloaded = from_versioned_json(&envelope).unwrap();
    assert_eq!(reloaded.steps, loaded.steps);
    for a in 0..loaded.lspi.dim() {
        assert_eq!(reloaded.lspi.q(a).to_bits(), loaded.lspi.q(a).to_bits());
    }
}

#[test]
fn load_checkpoint_accepts_legacy_files_on_disk() {
    let dir = std::env::temp_dir().join(format!("megh-migration-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("legacy.json");
    std::fs::copy(FIXTURE, &path).unwrap();

    let loaded = load_checkpoint(&path).expect("legacy on-disk checkpoint loads");
    assert_eq!(loaded.steps, warmed_checkpoint().steps);
    let _ = std::fs::remove_dir_all(&dir);
}

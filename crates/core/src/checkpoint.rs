//! Versioned, checksummed checkpoint persistence.
//!
//! A long-running `megh serve` daemon checkpoints its learned state and
//! must be able to reload it across releases. The bare
//! [`MeghCheckpoint`] JSON that earlier revisions wrote
//! (`serde_json::to_string(&agent.checkpoint())`) carried no format
//! marker, so this module defines a versioned envelope around it and a
//! migration chain that upgrades any older format on load:
//!
//! ```json
//! {"version": "1.0.0", "checksum": "<fnv1a64 hex>", "data": { ... }}
//! ```
//!
//! - `version` is a semantic version of the *data* schema. Loading
//!   walks the [`Migration`] chain from the file's version to
//!   [`CHECKPOINT_VERSION`], one hop at a time, so every format ever
//!   written stays loadable. A JSON object without a `version` key is
//!   the legacy v0 format and enters the chain at `0.0.0`.
//! - `checksum` is FNV-1a over the serialized `data` subtree, verified
//!   before anything is interpreted — a truncated write (the crash
//!   window the daemon's atomic rename protects against) fails loudly
//!   here instead of restoring silently corrupt learned state.
//! - after migration the embedded configuration is checked via
//!   [`Config::validate`], so a checkpoint that parses but encodes an
//!   invalid agent is rejected with an error, not a panic.
//!
//! Writes go through [`save_checkpoint`], which writes a sibling
//! temporary file, syncs it to disk and renames it into place (then
//! syncs the directory): on any crash or power cut the previous
//! checkpoint file is either fully intact or fully replaced.

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::Path;

use serde::value::{self, Value};

use crate::{MeghCheckpoint, MeghConfig};

/// The schema version this build writes.
pub const CHECKPOINT_VERSION: SemVer = SemVer::new(1, 0, 0);

/// Configuration objects that can be persisted safely: a deterministic
/// fingerprint for compatibility checks plus self-validation.
pub trait Config {
    /// Why validation failed.
    type Error;

    /// A deterministic fingerprint of the configuration. Two configs
    /// with equal checksums are interchangeable for serving decisions;
    /// a daemon uses this to detect that a checkpoint on disk was
    /// produced under different tunables than the ones it was started
    /// with.
    fn checksum(&self) -> u64;

    /// Checks the configuration's internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    fn validate(&self) -> Result<(), Self::Error>;
}

impl Config for MeghConfig {
    type Error = &'static str;

    fn checksum(&self) -> u64 {
        // The derived serializer emits fields in declaration order, so
        // the canonical JSON text is a stable fingerprint. Serialization
        // of a plain field struct cannot fail; an empty string (never a
        // real serialization) is the defensive fallback.
        let json = serde_json::to_string(self).unwrap_or_default();
        fnv1a64(json.as_bytes())
    }

    fn validate(&self) -> Result<(), &'static str> {
        MeghConfig::validate(self)
    }
}

/// 64-bit FNV-1a over a byte slice — tiny, dependency-free, and stable
/// across platforms, which is all a corruption check needs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A semantic version (`major.minor.patch`), ordered field-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SemVer {
    /// Incompatible schema change.
    pub major: u32,
    /// Backward-compatible addition.
    pub minor: u32,
    /// Backward-compatible fix.
    pub patch: u32,
}

impl SemVer {
    /// Builds a version from its three components.
    pub const fn new(major: u32, minor: u32, patch: u32) -> Self {
        Self {
            major,
            minor,
            patch,
        }
    }

    /// Parses `"major.minor.patch"`; `None` on any malformed input.
    pub fn parse(s: &str) -> Option<Self> {
        let mut parts = s.split('.');
        let major = parts.next()?.parse().ok()?;
        let minor = parts.next()?.parse().ok()?;
        let patch = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        Some(Self::new(major, minor, patch))
    }
}

impl fmt::Display for SemVer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}", self.major, self.minor, self.patch)
    }
}

/// One hop of the checkpoint schema's upgrade chain.
///
/// Migrations transform the raw `data` subtree as a [`Value`] tree —
/// they run *before* the current types ever see the bytes, which is
/// what lets today's structs drop fields old formats still carry.
pub struct Migration {
    /// Schema version this migration consumes.
    pub from: SemVer,
    /// Schema version it produces (must be greater than `from`).
    pub to: SemVer,
    /// The transformation itself.
    pub apply: fn(Value) -> Result<Value, String>,
}

/// The full upgrade chain, oldest first.
fn migrations() -> Vec<Migration> {
    vec![Migration {
        from: SemVer::new(0, 0, 0),
        to: SemVer::new(1, 0, 0),
        apply: migrate_v0_to_v1,
    }]
}

/// v0 → v1: the legacy format *is* the v1 `data` subtree — v1 only
/// wrapped it in the `{version, checksum, data}` envelope. The hop
/// still validates the shape so a corrupt legacy file fails here with
/// a version-aware message instead of deep in field decoding.
fn migrate_v0_to_v1(data: Value) -> Result<Value, String> {
    let Value::Object(ref pairs) = data else {
        return Err("legacy checkpoint must be a JSON object".to_string());
    };
    for field in ["config", "lspi", "temperature", "steps"] {
        if !pairs.iter().any(|(k, _)| k == field) {
            return Err(format!("legacy checkpoint is missing `{field}`"));
        }
    }
    Ok(data)
}

/// Everything that can go wrong loading a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io(String),
    /// The bytes are not the JSON shape the envelope requires.
    Parse(String),
    /// The stored checksum does not match the stored data.
    ChecksumMismatch {
        /// Checksum recorded in the envelope.
        stored: String,
        /// Checksum recomputed from the data subtree.
        computed: String,
    },
    /// No migration chain reaches this version (or it is newer than
    /// this build writes).
    UnsupportedVersion(String),
    /// A migration hop rejected the data.
    Migration(String),
    /// The checkpoint decoded but its configuration is invalid, or the
    /// learned state does not fit it.
    InvalidConfig(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Parse(e) => write!(f, "malformed checkpoint: {e}"),
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored}, computed {computed}"
            ),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::Migration(e) => write!(f, "checkpoint migration failed: {e}"),
            CheckpointError::InvalidConfig(e) => {
                write!(f, "checkpoint carries an invalid configuration: {e}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Serializes a checkpoint in the current envelope format.
///
/// # Errors
///
/// Returns [`CheckpointError::Parse`] if the checkpoint fails to
/// serialize (not reachable for well-formed agent state).
///
/// # Examples
///
/// ```
/// use megh_core::{from_versioned_json, to_versioned_json, MeghAgent, MeghConfig};
///
/// let agent = MeghAgent::new(MeghConfig::paper_defaults(6, 3));
/// let json = to_versioned_json(&agent.checkpoint()).unwrap();
/// assert!(json.starts_with("{\"version\":\"1.0.0\""));
/// let back = from_versioned_json(&json).unwrap();
/// assert_eq!(back.steps, 0);
/// ```
pub fn to_versioned_json(checkpoint: &MeghCheckpoint) -> Result<String, CheckpointError> {
    // The payload is serialized once and the envelope is formatted
    // around it: the same compact bytes as serializing an envelope
    // tree, without building one (`tests/migration.rs` pins them).
    let payload =
        serde_json::to_string(checkpoint).map_err(|e| CheckpointError::Parse(e.to_string()))?;
    let checksum = fnv1a64(payload.as_bytes());
    Ok(format!(
        "{{\"version\":\"{CHECKPOINT_VERSION}\",\"checksum\":\"{checksum:016x}\",\"data\":{payload}}}"
    ))
}

/// Loads a checkpoint from any format version ever written.
///
/// Versioned envelopes are checksum-verified and then migrated hop by
/// hop to [`CHECKPOINT_VERSION`]; a bare object without a `version`
/// key is the legacy v0 format and enters the chain at `0.0.0`. Before
/// the checkpoint is returned the embedded configuration is validated,
/// and so is the state's fit to it (`lspi.dim() == n_vms · n_hosts`, a
/// positive temperature) — what [`MeghAgent::restore`](crate::MeghAgent::restore)
/// and the daemon would otherwise panic on.
///
/// # Errors
///
/// See [`CheckpointError`] — every failure mode is an error, never a
/// panic, because this runs at daemon startup on operator-supplied
/// files.
pub fn from_versioned_json(json: &str) -> Result<MeghCheckpoint, CheckpointError> {
    let root: Value =
        serde_json::from_str(json).map_err(|e| CheckpointError::Parse(e.to_string()))?;
    let Value::Object(mut pairs) = root else {
        return Err(CheckpointError::Parse(
            "checkpoint root must be a JSON object".to_string(),
        ));
    };

    let versioned = pairs.iter().any(|(k, _)| k == "version");
    let (mut version, mut data) = if versioned {
        let version_field = value::take_field(&mut pairs, "version");
        let Some(version) = version_field.as_str().and_then(SemVer::parse) else {
            return Err(CheckpointError::Parse(
                "`version` must be a \"major.minor.patch\" string".to_string(),
            ));
        };
        let Some(stored) = value::take_field(&mut pairs, "checksum")
            .as_str()
            .map(str::to_string)
        else {
            return Err(CheckpointError::Parse(
                "`checksum` must be a hex string".to_string(),
            ));
        };
        let data = value::take_field(&mut pairs, "data");
        if data.is_null() {
            return Err(CheckpointError::Parse(
                "envelope has no `data` subtree".to_string(),
            ));
        }
        let payload =
            serde_json::to_string(&data).map_err(|e| CheckpointError::Parse(e.to_string()))?;
        let computed = format!("{:016x}", fnv1a64(payload.as_bytes()));
        if stored != computed {
            return Err(CheckpointError::ChecksumMismatch { stored, computed });
        }
        (version, data)
    } else {
        // Legacy v0: the whole object is the data.
        (SemVer::new(0, 0, 0), Value::Object(pairs))
    };

    while version < CHECKPOINT_VERSION {
        let chain = migrations();
        let Some(hop) = chain.iter().find(|m| m.from == version) else {
            return Err(CheckpointError::UnsupportedVersion(version.to_string()));
        };
        if hop.to <= version {
            // A non-advancing hop would loop forever; reject it.
            return Err(CheckpointError::UnsupportedVersion(version.to_string()));
        }
        data = (hop.apply)(data).map_err(CheckpointError::Migration)?;
        version = hop.to;
    }
    if version > CHECKPOINT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version.to_string()));
    }

    let checkpoint: MeghCheckpoint =
        value::from_value(data).map_err(|e| CheckpointError::Parse(e.to_string()))?;
    Config::validate(&checkpoint.config).map_err(CheckpointError::InvalidConfig)?;
    let (config, lspi) = (&checkpoint.config, &checkpoint.lspi);
    if config.n_vms.checked_mul(config.n_hosts) != Some(lspi.dim()) {
        return Err(CheckpointError::InvalidConfig(
            "lspi dimension must equal n_vms * n_hosts",
        ));
    }
    if checkpoint.temperature <= 0.0 || checkpoint.temperature.is_nan() {
        return Err(CheckpointError::InvalidConfig(
            "temperature must be positive",
        ));
    }
    Ok(checkpoint)
}

/// Atomically writes a checkpoint: the envelope is written to a
/// sibling `<name>.tmp` file, synced to disk and renamed over `path`,
/// and on Unix the directory holding the rename is synced too, so a
/// crash or power cut at any instant leaves either the previous
/// checkpoint or the new one — never a torn file.
///
/// # Errors
///
/// [`CheckpointError::Io`] on filesystem failures,
/// [`CheckpointError::Parse`] if serialization fails.
pub fn save_checkpoint(path: &Path, checkpoint: &MeghCheckpoint) -> Result<(), CheckpointError> {
    let json = to_versioned_json(checkpoint)?;
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return Err(CheckpointError::Io(format!(
            "checkpoint path {} has no file name",
            path.display()
        )));
    };
    let io = |e: std::io::Error| CheckpointError::Io(e.to_string());
    let tmp = path.with_file_name(format!("{name}.tmp"));
    let mut file = fs::File::create(&tmp).map_err(io)?;
    file.write_all(json.as_bytes()).map_err(io)?;
    // On disk before it is renamed into place, so a power cut cannot
    // leave `path` naming blocks that were never written.
    file.sync_all().map_err(io)?;
    drop(file);
    fs::rename(&tmp, path).map_err(io)?;
    // The rename lives in the directory; sync that too.
    #[cfg(unix)]
    {
        let dir = path
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .unwrap_or(Path::new("."));
        fs::File::open(dir).and_then(|d| d.sync_all()).map_err(io)?;
    }
    Ok(())
}

/// Reads and migrates a checkpoint file written by any release.
///
/// # Errors
///
/// [`CheckpointError::Io`] if the file cannot be read; otherwise the
/// failure modes of [`from_versioned_json`].
pub fn load_checkpoint(path: &Path) -> Result<MeghCheckpoint, CheckpointError> {
    let json = fs::read_to_string(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
    from_versioned_json(&json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MeghAgent;

    fn sample_checkpoint() -> MeghCheckpoint {
        MeghAgent::new(MeghConfig::paper_defaults(6, 3)).checkpoint()
    }

    #[test]
    fn semver_parses_and_orders() {
        assert_eq!(SemVer::parse("1.2.3"), Some(SemVer::new(1, 2, 3)));
        assert_eq!(SemVer::parse("1.2"), None);
        assert_eq!(SemVer::parse("1.2.3.4"), None);
        assert_eq!(SemVer::parse("a.b.c"), None);
        assert!(SemVer::new(0, 9, 9) < SemVer::new(1, 0, 0));
        assert!(SemVer::new(1, 0, 1) < SemVer::new(1, 1, 0));
        assert_eq!(SemVer::new(2, 0, 0).to_string(), "2.0.0");
    }

    #[test]
    fn envelope_round_trips() {
        let cp = sample_checkpoint();
        let json = to_versioned_json(&cp).unwrap();
        assert!(json.contains("\"version\":\"1.0.0\""));
        let back = from_versioned_json(&json).unwrap();
        assert_eq!(back.config, cp.config);
        assert_eq!(back.steps, cp.steps);
    }

    #[test]
    fn legacy_v0_checkpoint_loads_through_the_migration_chain() {
        let cp = sample_checkpoint();
        // Exactly what pre-envelope code wrote.
        let legacy = serde_json::to_string(&cp).unwrap();
        let back = from_versioned_json(&legacy).unwrap();
        assert_eq!(back.config, cp.config);
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let json = to_versioned_json(&sample_checkpoint()).unwrap();
        let tampered = json.replace("\"temperature\":3.0", "\"temperature\":9.0");
        assert_ne!(tampered, json, "fixture must actually tamper");
        match from_versioned_json(&tampered) {
            Err(CheckpointError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn future_version_is_rejected_not_misread() {
        let json = to_versioned_json(&sample_checkpoint()).unwrap();
        let future = json.replace("\"version\":\"1.0.0\"", "\"version\":\"9.0.0\"");
        match from_versioned_json(&future) {
            Err(CheckpointError::UnsupportedVersion(v)) => assert_eq!(v, "9.0.0"),
            other => panic!("expected unsupported version, got {other:?}"),
        }
    }

    #[test]
    fn truncated_file_is_a_parse_error() {
        let json = to_versioned_json(&sample_checkpoint()).unwrap();
        let truncated = &json[..json.len() / 2];
        assert!(matches!(
            from_versioned_json(truncated),
            Err(CheckpointError::Parse(_))
        ));
    }

    #[test]
    fn invalid_config_inside_a_valid_envelope_is_rejected() {
        let mut cp = sample_checkpoint();
        cp.config.gamma = 7.0;
        let json = to_versioned_json(&cp).unwrap();
        assert!(matches!(
            from_versioned_json(&json),
            Err(CheckpointError::InvalidConfig(_))
        ));
    }

    #[test]
    fn state_that_does_not_fit_its_config_is_rejected() {
        // Each tampered checkpoint goes through `to_versioned_json`, so
        // its checksum is valid and only the final validation can stop it.
        let mut wrong_dim = sample_checkpoint();
        wrong_dim.config.n_vms += 1;
        let mut cold = sample_checkpoint();
        cold.temperature = 0.0;
        for (cp, want) in [(wrong_dim, "lspi dimension"), (cold, "temperature")] {
            let json = to_versioned_json(&cp).unwrap();
            match from_versioned_json(&json) {
                Err(CheckpointError::InvalidConfig(msg)) => assert!(msg.contains(want), "{msg}"),
                other => panic!("expected an invalid-config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn state_naming_an_action_outside_its_space_is_rejected() {
        // A θ entry past `dim` used to load and then panic the first
        // decide that sampled it.
        let legacy = serde_json::to_string(&sample_checkpoint()).unwrap();
        let hostile = legacy.replace(
            "\"theta\":{\"dim\":18,\"entries\":[]}",
            "\"theta\":{\"dim\":18,\"entries\":[[999,-0.5]]}",
        );
        assert_ne!(legacy, hostile, "fixture must contain an empty θ");
        match from_versioned_json(&hostile) {
            Err(CheckpointError::Parse(msg)) => assert!(msg.contains("outside dim"), "{msg}"),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn legacy_object_missing_fields_fails_in_the_migration_hop() {
        assert!(matches!(
            from_versioned_json(r#"{"config":{},"lspi":{}}"#),
            Err(CheckpointError::Migration(_))
        ));
    }

    #[test]
    fn config_checksum_is_stable_and_sensitive() {
        let a = MeghConfig::paper_defaults(6, 3);
        let b = MeghConfig::paper_defaults(6, 3);
        let mut c = MeghConfig::paper_defaults(6, 3);
        c.temp0 = 4.0;
        assert_eq!(Config::checksum(&a), Config::checksum(&b));
        assert_ne!(Config::checksum(&a), Config::checksum(&c));
    }

    #[test]
    fn save_and_load_round_trip_atomically() {
        let dir = std::env::temp_dir().join(format!("megh-cp-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.json");
        let cp = sample_checkpoint();
        save_checkpoint(&path, &cp).unwrap();
        // The temp file must not linger after the rename.
        assert!(!dir.join("checkpoint.json.tmp").exists());
        let back = load_checkpoint(&path).unwrap();
        assert_eq!(back.config, cp.config);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

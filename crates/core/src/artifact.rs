//! Versioned, checksummed model artifacts.
//!
//! [`DomainSpecificModel::from_json`] trusts arbitrary JSON — fine for a
//! unit test, unacceptable for a model that a *governor* loads at run time
//! and then uses to set hardware clocks. An [`ModelArtifact`] wraps the
//! serialized model in an envelope carrying everything a loader needs to
//! refuse bad input with a typed error instead of predicting garbage:
//!
//! * a **schema version** — artifacts written in any other format are
//!   rejected as [`ArtifactError::Version`], mirroring the campaign
//!   journal's `ConfigMismatch` behaviour. Schema 3 persists each forest
//!   as its arena, the form it grows into and serves from, with each arena
//!   array stored as base64 of its little-endian bytes (`ml::flat`);
//!   schema-2 payloads (the same arrays as decimal numbers) and schema-1
//!   payloads (pointer trees) are refused, so there is one reader;
//! * a **content digest** (FNV-1a over the payload bytes) — bit rot,
//!   truncation, or a hand-edited payload is [`ArtifactError::Digest`];
//! * a **training fingerprint** — a caller-supplied digest of the training
//!   conditions (device, frequency set, seed). A loader that knows what it
//!   expects can reject a stale or foreign model as
//!   [`ArtifactError::Fingerprint`] even though the file itself is intact.
//!
//! A payload that verifies is parsed by [`DomainSpecificModel::from_json`],
//! which checks every arena before the model can serve; a refused payload
//! is [`ArtifactError::Malformed`].
//!
//! Artifacts are written through [`crate::persist::atomic_write`], so a
//! reader never observes a torn envelope: either the old artifact or the
//! new one, never half of each.

// Artifact handling must degrade with typed errors, never panic: a
// corrupt registry entry is an expected runtime condition.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::ds_model::DomainSpecificModel;
use crate::persist::{atomic_write_str, PersistError};

/// The artifact schema this build writes and accepts: 3, whose payload
/// holds each forest as its arena, each array as base64 of its
/// little-endian bytes.
pub const ARTIFACT_SCHEMA_VERSION: u32 = 3;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over raw bytes — the digest used for artifact payloads and
/// training fingerprints. Not cryptographic; the threat model is bit rot
/// and operator error, not an adversary.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Digest of the conditions a model was trained under: device name,
/// default clock, the exact frequency set, and the training seed. Folding
/// the frequency bits in means a model trained on a thinned sweep cannot
/// silently serve a loader that expects the full-resolution one.
pub fn training_fingerprint(device: &str, default_mhz: f64, freqs: &[f64], seed: u64) -> u64 {
    let mut h = fnv1a_64(device.as_bytes());
    h = (h ^ default_mhz.to_bits()).wrapping_mul(FNV_PRIME);
    h = (h ^ freqs.len() as u64).wrapping_mul(FNV_PRIME);
    for f in freqs {
        h = (h ^ f.to_bits()).wrapping_mul(FNV_PRIME);
    }
    (h ^ seed).wrapping_mul(FNV_PRIME)
}

/// A typed artifact failure. Every variant names what was expected and
/// what was found — the loader's decision (refuse, fall back, re-train)
/// depends on which it is.
#[derive(Debug)]
pub enum ArtifactError {
    /// The envelope declares a schema this build does not speak.
    Version {
        /// Version found in the envelope.
        found: u32,
        /// Version this build writes and accepts.
        expected: u32,
    },
    /// The payload does not hash to the digest the envelope committed to.
    Digest {
        /// Digest recorded in the envelope.
        recorded: u64,
        /// Digest of the payload as read.
        computed: u64,
    },
    /// The artifact is intact but was trained under different conditions
    /// than the loader expects.
    Fingerprint {
        /// Fingerprint the loader expects.
        expected: u64,
        /// Fingerprint recorded in the envelope.
        found: u64,
    },
    /// The file (or its payload) is not a parseable artifact at all.
    Malformed(String),
    /// The underlying read/write failed.
    Persist(PersistError),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Version { found, expected } => {
                write!(
                    f,
                    "artifact schema v{found}, this build accepts v{expected}"
                )
            }
            ArtifactError::Digest { recorded, computed } => write!(
                f,
                "artifact payload digest {computed:#018x} does not match recorded {recorded:#018x}"
            ),
            ArtifactError::Fingerprint { expected, found } => write!(
                f,
                "artifact training fingerprint {found:#018x}, loader expects {expected:#018x}"
            ),
            ArtifactError::Malformed(msg) => write!(f, "malformed artifact: {msg}"),
            ArtifactError::Persist(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PersistError> for ArtifactError {
    fn from(e: PersistError) -> Self {
        ArtifactError::Persist(e)
    }
}

/// The on-disk envelope around one serialized [`DomainSpecificModel`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelArtifact {
    /// Envelope schema version ([`ARTIFACT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The model's name in the registry (e.g. `"ligen"`).
    pub name: String,
    /// FNV-1a digest of `payload`'s bytes.
    pub content_digest: u64,
    /// Caller-supplied digest of the training conditions
    /// ([`training_fingerprint`]).
    pub training_fingerprint: u64,
    /// The serialized model ([`DomainSpecificModel::to_json`]).
    pub payload: String,
}

impl ModelArtifact {
    /// Seals a trained model into an envelope.
    pub fn seal(name: &str, model: &DomainSpecificModel, training_fingerprint: u64) -> Self {
        let payload = model.to_json();
        ModelArtifact {
            schema_version: ARTIFACT_SCHEMA_VERSION,
            name: name.to_string(),
            content_digest: fnv1a_64(payload.as_bytes()),
            training_fingerprint,
            payload,
        }
    }

    /// Verifies the envelope and deserializes the model: schema version,
    /// then content digest, then payload parse and arena checks. Does
    /// *not* check the training fingerprint — use
    /// [`ModelArtifact::open_expecting`] when the loader knows what it was
    /// trained for.
    pub fn open(&self) -> Result<DomainSpecificModel, ArtifactError> {
        if self.schema_version != ARTIFACT_SCHEMA_VERSION {
            return Err(ArtifactError::Version {
                found: self.schema_version,
                expected: ARTIFACT_SCHEMA_VERSION,
            });
        }
        let computed = fnv1a_64(self.payload.as_bytes());
        if computed != self.content_digest {
            return Err(ArtifactError::Digest {
                recorded: self.content_digest,
                computed,
            });
        }
        DomainSpecificModel::from_json(&self.payload)
            .map_err(|e| ArtifactError::Malformed(format!("payload: {e}")))
    }

    /// [`ModelArtifact::open`] plus a training-fingerprint check: a model
    /// trained under other conditions is rejected as
    /// [`ArtifactError::Fingerprint`] before its payload is even parsed.
    pub fn open_expecting(&self, fingerprint: u64) -> Result<DomainSpecificModel, ArtifactError> {
        if self.schema_version == ARTIFACT_SCHEMA_VERSION
            && self.training_fingerprint != fingerprint
        {
            return Err(ArtifactError::Fingerprint {
                expected: fingerprint,
                found: self.training_fingerprint,
            });
        }
        self.open()
    }

    /// Writes the envelope atomically (temp + fsync + rename).
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| ArtifactError::Malformed(format!("unserializable envelope: {e}")))?;
        atomic_write_str(path, &json)?;
        Ok(())
    }

    /// Reads an envelope back. Parse failures are
    /// [`ArtifactError::Malformed`]; verification happens in
    /// [`ModelArtifact::open`], not here, so a caller can still inspect a
    /// quarantined envelope's metadata.
    pub fn load(path: &Path) -> Result<Self, ArtifactError> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            ArtifactError::Persist(PersistError::Io {
                path: path.to_path_buf(),
                source: e,
            })
        })?;
        serde_json::from_str(&text).map_err(|e| ArtifactError::Malformed(e.to_string()))
    }
}

impl DomainSpecificModel {
    /// Seals this model into an envelope and writes it atomically — the
    /// safe counterpart of persisting [`DomainSpecificModel::to_json`]
    /// yourself.
    pub fn save_artifact(
        &self,
        path: &Path,
        name: &str,
        training_fingerprint: u64,
    ) -> Result<ModelArtifact, ArtifactError> {
        let artifact = ModelArtifact::seal(name, self, training_fingerprint);
        artifact.save(path)?;
        Ok(artifact)
    }

    /// Loads a model from an artifact file, verifying schema version,
    /// content digest and forest arenas — the safe counterpart of
    /// [`DomainSpecificModel::from_json`] on untrusted bytes.
    pub fn load_artifact(path: &Path) -> Result<(Self, ModelArtifact), ArtifactError> {
        let artifact = ModelArtifact::load(path)?;
        let model = artifact.open()?;
        Ok((model, artifact))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::ds_model::DsSample;
    use crate::persist::tests::ScratchDir;
    use std::sync::Arc;

    fn scratch(name: &str) -> ScratchDir {
        ScratchDir::new(&format!("energy-model-artifact-{name}"))
    }

    fn tiny_model() -> DomainSpecificModel {
        let freqs: Vec<f64> = (0..8).map(|i| 600.0 + i as f64 * 100.0).collect();
        let mut samples = Vec::new();
        for &(a, b) in &[(2.0, 3.0), (4.0, 5.0), (8.0, 2.0)] {
            for &f in &freqs {
                let t = a * b * 1e3 / f + 1e-4;
                samples.push(DsSample {
                    features: Arc::new(vec![a, b]),
                    freq_mhz: f,
                    time_s: t,
                    energy_j: t * (40.0 + 0.1 * f),
                });
            }
        }
        DomainSpecificModel::train(&samples, 1000.0, 7)
    }

    #[test]
    fn seal_open_round_trip_is_lossless() {
        let model = tiny_model();
        let art = ModelArtifact::seal("toy", &model, 42);
        let back = art.open().unwrap();
        for f in [600.0, 900.0, 1300.0] {
            assert_eq!(
                model.predict_time_energy(&[4.0, 5.0], f),
                back.predict_time_energy(&[4.0, 5.0], f),
                "predictions must round-trip bit-exactly"
            );
        }
    }

    #[test]
    fn save_load_round_trip_through_disk() {
        let dir = scratch("roundtrip");
        let path = dir.join("toy.json");
        let model = tiny_model();
        let sealed = model.save_artifact(&path, "toy", 99).unwrap();
        let (back, envelope) = DomainSpecificModel::load_artifact(&path).unwrap();
        assert_eq!(envelope, sealed);
        assert_eq!(
            model.predict_time_energy(&[2.0, 3.0], 800.0),
            back.predict_time_energy(&[2.0, 3.0], 800.0)
        );
    }

    #[test]
    fn saved_artifact_bytes_are_pinned() {
        // The exact file a save writes: any change to how the payload or
        // the pretty envelope is rendered (float format, escaping,
        // layout) moves these numbers, and with them every published
        // digest.
        let dir = scratch("golden");
        let path = dir.join("toy.json");
        let art = ModelArtifact::seal("toy", &tiny_model(), 42);
        art.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 67_329);
        assert_eq!(fnv1a_64(&bytes), 0x84c3_bd43_8e81_fbaa);
        assert_eq!(art.content_digest, 0x0f89_3a03_24d4_fa0f);
    }

    /// FNV-1a over the little-endian bits of the flat-path predictions on a
    /// fixed grid — a stable fingerprint of model behaviour.
    fn prediction_fingerprint(model: &DomainSpecificModel) -> u64 {
        let mut bytes = Vec::new();
        for &(a, b) in &[(2.0, 3.0), (4.0, 5.0), (8.0, 2.0), (5.0, 5.0)] {
            for f in [600.0, 750.0, 900.0, 1100.0, 1300.0] {
                let (t, e) = model.predict_time_energy(&[a, b], f);
                bytes.extend_from_slice(&t.to_bits().to_le_bytes());
                bytes.extend_from_slice(&e.to_bits().to_le_bytes());
            }
        }
        fnv1a_64(&bytes)
    }

    #[test]
    fn tiny_model_predictions_are_pinned() {
        assert_eq!(prediction_fingerprint(&tiny_model()), 0x02e6_054b_ff31_e439);
    }

    #[test]
    fn flatten_round_trip_is_fingerprint_stable() {
        // save → load must reproduce the exact prediction fingerprint: the
        // persisted arena serves the same bits as the arena grown at
        // training time, across repeated round trips.
        let dir = scratch("flat-fingerprint");
        let model = tiny_model();
        let original = prediction_fingerprint(&model);

        let path = dir.join("toy.json");
        model.save_artifact(&path, "toy", 7).unwrap();
        let (back, _) = DomainSpecificModel::load_artifact(&path).unwrap();
        assert_eq!(prediction_fingerprint(&back), original);

        // Second generation: re-seal the reloaded model and load again.
        let path2 = dir.join("toy2.json");
        back.save_artifact(&path2, "toy", 7).unwrap();
        let (back2, _) = DomainSpecificModel::load_artifact(&path2).unwrap();
        assert_eq!(prediction_fingerprint(&back2), original);
    }

    #[test]
    fn version_skew_is_a_typed_error() {
        // A future schema, and schema 2 (arena arrays as decimal numbers).
        let sealed = ModelArtifact::seal("toy", &tiny_model(), 0);
        for version in [ARTIFACT_SCHEMA_VERSION + 1, ARTIFACT_SCHEMA_VERSION - 1] {
            let mut art = sealed.clone();
            art.schema_version = version;
            match art.open() {
                Err(ArtifactError::Version { found, expected }) => {
                    assert_eq!(found, version);
                    assert_eq!(expected, ARTIFACT_SCHEMA_VERSION);
                }
                other => panic!("expected Version error, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupted_payload_is_a_digest_error() {
        let mut art = ModelArtifact::seal("toy", &tiny_model(), 0);
        art.payload.push(' '); // one flipped byte of "bit rot"
        match art.open() {
            Err(ArtifactError::Digest { recorded, computed }) => {
                assert_ne!(recorded, computed);
            }
            other => panic!("expected Digest error, got {other:?}"),
        }
    }

    #[test]
    fn other_configuration_width_is_malformed() {
        // A digest-valid envelope over a three-column model payload: the
        // load refuses it instead of handing serving a model it cannot
        // evaluate.
        let mut art = ModelArtifact::seal("toy", &tiny_model(), 0);
        assert!(art.payload.contains("\"config_cols\":1"));
        art.payload = art
            .payload
            .replace("\"config_cols\":1", "\"config_cols\":3");
        art.content_digest = fnv1a_64(art.payload.as_bytes());
        match art.open() {
            Err(ArtifactError::Malformed(msg)) => {
                assert!(msg.contains("3 configuration columns"), "{msg}");
            }
            other => panic!(
                "expected Malformed error, got {:?}",
                other.map(|_| "a loaded model")
            ),
        }
    }

    /// Points slot 1 of the payload's first arena back at itself: decodes
    /// the first 12 base64 characters of its `child` array (bytes 0–8:
    /// slots 0 and 1 and a byte of slot 2), sets slot 1 to 1 and encodes
    /// them again.
    fn loop_slot_one(payload: &mut String) {
        const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
        let head = "\"child\":\"";
        let at = payload.find(head).unwrap() + head.len();
        let bits = payload.as_bytes()[at..at + 12]
            .iter()
            .fold(0u128, |acc, c| {
                acc << 6 | ALPHABET.iter().position(|a| a == c).unwrap() as u128
            });
        // The 9 decoded bytes are the last 9 of the 16.
        let mut bytes = bits.to_be_bytes();
        bytes[11..15].copy_from_slice(&1u32.to_le_bytes());
        let bits = u128::from_be_bytes(bytes);
        let encoded: String = (0..12)
            .rev()
            .map(|i| char::from(ALPHABET[(bits >> (6 * i)) as usize & 63]))
            .collect();
        payload.replace_range(at..at + 12, &encoded);
    }

    #[test]
    fn a_looping_arena_is_malformed() {
        // A digest-valid envelope whose first arena points slot 1 back at
        // itself: a descent through it would never end, so it never loads.
        let mut art = ModelArtifact::seal("toy", &tiny_model(), 0);
        loop_slot_one(&mut art.payload);
        art.content_digest = fnv1a_64(art.payload.as_bytes());
        match art.open() {
            Err(ArtifactError::Malformed(msg)) => {
                assert!(msg.contains("split 1 points back"), "{msg}");
            }
            other => panic!(
                "expected Malformed error, got {:?}",
                other.map(|_| "a loaded model")
            ),
        }
    }

    #[test]
    fn stale_fingerprint_is_rejected_before_parse() {
        let art = ModelArtifact::seal("toy", &tiny_model(), 0xAB);
        assert!(art.open_expecting(0xAB).is_ok());
        match art.open_expecting(0xCD) {
            Err(ArtifactError::Fingerprint { expected, found }) => {
                assert_eq!(expected, 0xCD);
                assert_eq!(found, 0xAB);
            }
            other => panic!("expected Fingerprint error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_file_is_a_typed_error_not_a_panic() {
        let dir = scratch("malformed");
        let path = dir.join("bad.json");
        std::fs::write(&path, "{definitely not an artifact").unwrap();
        assert!(matches!(
            ModelArtifact::load(&path),
            Err(ArtifactError::Malformed(_))
        ));
    }

    #[test]
    fn missing_file_is_a_persist_error() {
        let dir = scratch("missing");
        assert!(matches!(
            ModelArtifact::load(&dir.join("nope.json")),
            Err(ArtifactError::Persist(PersistError::Io { .. }))
        ));
    }

    #[test]
    fn fingerprint_tracks_every_training_condition() {
        let freqs = [600.0, 800.0, 1000.0];
        let base = training_fingerprint("V100", 1312.0, &freqs, 1);
        assert_ne!(base, training_fingerprint("MI100", 1312.0, &freqs, 1));
        assert_ne!(base, training_fingerprint("V100", 1450.0, &freqs, 1));
        assert_ne!(base, training_fingerprint("V100", 1312.0, &freqs[..2], 1));
        assert_ne!(base, training_fingerprint("V100", 1312.0, &freqs, 2));
        assert_eq!(base, training_fingerprint("V100", 1312.0, &freqs, 1));
    }
}

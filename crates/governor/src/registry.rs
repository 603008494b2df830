//! The versioned on-disk model registry.
//!
//! Layout: one directory per model name under the registry root, one
//! artifact file per published version:
//!
//! ```text
//! registry/
//!   cronos/v0001.json
//!   cronos/v0002.json
//!   ligen/v0001.json
//! ```
//!
//! Every file is a [`ModelArtifact`] envelope written through the atomic
//! persist path (temp + fsync + rename), so a concurrent or crashed
//! publish can never leave a half-written version behind — a version file
//! either exists completely or not at all. Versions are immutable once
//! published; [`ModelRegistry::publish`] always allocates the next number.
//!
//! Loading verifies the envelope (schema version, content digest, and —
//! for [`ModelRegistry::load_expecting`] — the training fingerprint),
//! then the payload's forest arenas, and surfaces every failure as a
//! typed [`RegistryError`], never a panic:
//! a corrupt registry entry is an expected runtime condition that the
//! governor degrades around.
//!
//! # Channels
//!
//! Each model directory optionally carries a `canary.json` pointer naming
//! one *active* version as the canary channel. The **stable** channel is
//! the highest active version that is not the canary; the canary rides
//! alongside until it is promoted (pointer removed — the canary version,
//! being the highest, becomes the new stable latest) or rolled back (its
//! version file is renamed to `vNNNN.retired.json` and the pointer
//! removed; the incumbent is untouched). Retired files still reserve
//! their version numbers — [`ModelRegistry::publish`] allocates past
//! them — so version numbering stays monotone and immutable even across
//! rollbacks. A pointer naming a missing or retired version (a crash
//! between the two rollback steps) is *dangling* and reads as "no
//! canary": the registry self-heals on the next canary operation.
//!
//! [`ModelRegistry::load_latest_healthy`] is the hardened serving path:
//! it reports a dangling canary pointer as
//! [`RegistryEvent::DanglingCanary`], then walks the stable channel
//! newest→oldest, skipping (and reporting as
//! [`RegistryEvent::CorruptSkipped`]) versions that fail digest or parse
//! verification, and silently skipping versions from a different
//! training generation, so neither one corrupt file nor one
//! crash-orphaned retrain artifact can brick or hijack serving.

// The registry is runtime-load infrastructure: typed errors only.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use energy_model::artifact::{ArtifactError, ModelArtifact};
use energy_model::ds_model::DomainSpecificModel;
use energy_model::persist::atomic_write_str;
use serde::{Deserialize, Serialize};

/// A typed registry failure.
#[derive(Debug)]
pub enum RegistryError {
    /// The model name is not a safe directory name.
    InvalidName(String),
    /// No published version of the model exists.
    NotFound {
        /// The model name looked up.
        name: String,
    },
    /// The requested version does not exist (but the model does).
    VersionNotFound {
        /// The model name looked up.
        name: String,
        /// The missing version.
        version: u32,
    },
    /// The stored artifact failed verification or parsing.
    Artifact {
        /// The model name involved.
        name: String,
        /// The version involved.
        version: u32,
        /// What the envelope verification found.
        source: ArtifactError,
    },
    /// A filesystem operation failed.
    Io {
        /// The path the operation was acting on.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A canary operation named a version that is not the current canary.
    CanaryMismatch {
        /// The model name involved.
        name: String,
        /// The version the operation expected to be the canary.
        version: u32,
        /// The version the pointer actually names (if any).
        canary: Option<u32>,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::InvalidName(name) => {
                write!(f, "invalid model name {name:?}: expected [a-z0-9_-]+")
            }
            RegistryError::NotFound { name } => {
                write!(f, "model {name:?} has no published versions")
            }
            RegistryError::VersionNotFound { name, version } => {
                write!(f, "model {name:?} has no version {version}")
            }
            RegistryError::Artifact {
                name,
                version,
                source,
            } => {
                write!(f, "artifact {name:?} v{version}: {source}")
            }
            RegistryError::Io { path, source } => {
                write!(f, "registry io error at {}: {source}", path.display())
            }
            RegistryError::CanaryMismatch {
                name,
                version,
                canary,
            } => match canary {
                Some(c) => write!(f, "model {name:?}: expected canary v{version}, found v{c}"),
                None => write!(f, "model {name:?}: expected canary v{version}, none is set"),
            },
        }
    }
}

/// An observation a hardened registry walk makes while degrading around
/// damage. These are facts about the registry's state, surfaced so a
/// caller can journal them; the walk itself already routed around the
/// problem.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegistryEvent {
    /// A published version failed envelope verification (digest, schema,
    /// or parse) and was skipped in favor of an older healthy one.
    CorruptSkipped {
        /// The model whose version was skipped.
        name: String,
        /// The version skipped.
        version: u32,
        /// The verification failure, rendered.
        reason: String,
    },
    /// The canary pointer named a missing or retired version (a crash
    /// between rollback's two steps) and was treated as "no canary".
    DanglingCanary {
        /// The model whose pointer dangled.
        name: String,
        /// The version the stale pointer named.
        version: u32,
    },
}

/// The on-disk `canary.json` pointer payload.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct CanaryPointer {
    version: u32,
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Artifact { source, .. } => Some(source),
            RegistryError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A handle on a registry root directory. Opening performs no I/O; the
/// directory is created lazily on first publish.
#[derive(Debug, Clone)]
pub struct ModelRegistry {
    root: PathBuf,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_')
}

fn version_file(version: u32) -> String {
    format!("v{version:04}.json")
}

fn retired_file(version: u32) -> String {
    format!("v{version:04}.retired.json")
}

/// The per-model canary pointer file name.
const CANARY_FILE: &str = "canary.json";

impl ModelRegistry {
    /// Opens (without touching) the registry rooted at `root`.
    pub fn open(root: &Path) -> Self {
        ModelRegistry {
            root: root.to_path_buf(),
        }
    }

    /// The registry root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn model_dir(&self, name: &str) -> Result<PathBuf, RegistryError> {
        if !valid_name(name) {
            return Err(RegistryError::InvalidName(name.to_string()));
        }
        Ok(self.root.join(name))
    }

    /// Scans the model directory once, returning (active, retired)
    /// version lists, each ascending.
    fn scan_versions(&self, name: &str) -> Result<(Vec<u32>, Vec<u32>), RegistryError> {
        let dir = self.model_dir(name)?;
        let entries = match fs::read_dir(&dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), Vec::new())),
            Err(e) => {
                return Err(RegistryError::Io {
                    path: dir,
                    source: e,
                })
            }
        };
        let mut active = Vec::new();
        let mut retired = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| RegistryError::Io {
                path: dir.clone(),
                source: e,
            })?;
            let file = entry.file_name();
            let file = file.to_string_lossy();
            // Only `vNNNN.json` / `vNNNN.retired.json` files are
            // versions; temp siblings and foreign files are ignored.
            let Some(rest) = file
                .strip_prefix('v')
                .and_then(|rest| rest.strip_suffix(".json"))
            else {
                continue;
            };
            if let Some(num) = rest.strip_suffix(".retired") {
                if let Ok(v) = num.parse::<u32>() {
                    retired.push(v);
                }
            } else if let Ok(v) = rest.parse::<u32>() {
                active.push(v);
            }
        }
        active.sort_unstable();
        retired.sort_unstable();
        Ok((active, retired))
    }

    /// Published (active) versions of `name`, ascending. A model that was
    /// never published has no versions (empty vec, not an error).
    /// Rolled-back versions are excluded — see
    /// [`ModelRegistry::retired_versions`].
    pub fn versions(&self, name: &str) -> Result<Vec<u32>, RegistryError> {
        Ok(self.scan_versions(name)?.0)
    }

    /// Versions retired by a canary rollback, ascending. They still
    /// reserve their numbers (publish allocates past them) but never
    /// serve.
    pub fn retired_versions(&self, name: &str) -> Result<Vec<u32>, RegistryError> {
        Ok(self.scan_versions(name)?.1)
    }

    /// The version the next publish will allocate: one past the highest
    /// number ever used, active or retired — a rollback must not free its
    /// number for reuse.
    pub fn next_version(&self, name: &str) -> Result<u32, RegistryError> {
        let (active, retired) = self.scan_versions(name)?;
        let max = active
            .last()
            .copied()
            .max(retired.last().copied())
            .unwrap_or(0);
        Ok(max + 1)
    }

    /// The latest published version of `name`.
    pub fn latest(&self, name: &str) -> Result<u32, RegistryError> {
        self.versions(name)?
            .last()
            .copied()
            .ok_or_else(|| RegistryError::NotFound {
                name: name.to_string(),
            })
    }

    /// Publishes a model as the next version of `name`, sealing it into a
    /// checksummed artifact and writing it atomically. Returns the
    /// allocated version number.
    pub fn publish(
        &self,
        name: &str,
        model: &DomainSpecificModel,
        training_fingerprint: u64,
    ) -> Result<u32, RegistryError> {
        let version = self.next_version(name)?;
        self.publish_at(name, version, model, training_fingerprint)?;
        Ok(version)
    }

    /// Publishes a model at an explicit version number. The write is
    /// atomic and idempotent (re-writing the same deterministic model at
    /// the same version replaces the file with identical bytes), which is
    /// what a journaled publisher needs to redo a publish after a crash.
    pub fn publish_at(
        &self,
        name: &str,
        version: u32,
        model: &DomainSpecificModel,
        training_fingerprint: u64,
    ) -> Result<(), RegistryError> {
        let dir = self.model_dir(name)?;
        let path = dir.join(version_file(version));
        model
            .save_artifact(&path, name, training_fingerprint)
            .map_err(|source| RegistryError::Artifact {
                name: name.to_string(),
                version,
                source,
            })?;
        Ok(())
    }

    fn artifact_at(&self, name: &str, version: u32) -> Result<ModelArtifact, RegistryError> {
        let path = self.model_dir(name)?.join(version_file(version));
        ModelArtifact::load(&path).map_err(|source| match &source {
            ArtifactError::Persist(energy_model::persist::PersistError::Io {
                source: e, ..
            }) if e.kind() == io::ErrorKind::NotFound => RegistryError::VersionNotFound {
                name: name.to_string(),
                version,
            },
            _ => RegistryError::Artifact {
                name: name.to_string(),
                version,
                source,
            },
        })
    }

    /// Loads a model (the latest version when `version` is `None`),
    /// verifying schema version and content digest. Returns the model,
    /// its envelope, and the resolved version.
    pub fn load(
        &self,
        name: &str,
        version: Option<u32>,
    ) -> Result<(DomainSpecificModel, ModelArtifact, u32), RegistryError> {
        let version = match version {
            Some(v) => v,
            None => self.latest(name)?,
        };
        let artifact = self.artifact_at(name, version)?;
        let model = artifact.open().map_err(|source| RegistryError::Artifact {
            name: name.to_string(),
            version,
            source,
        })?;
        Ok((model, artifact, version))
    }

    /// [`ModelRegistry::load`] plus a training-fingerprint check: a model
    /// trained under different conditions than the caller expects is
    /// rejected as a typed [`ArtifactError::Fingerprint`] — the
    /// stale-model guard the governor leans on.
    pub fn load_expecting(
        &self,
        name: &str,
        version: Option<u32>,
        fingerprint: u64,
    ) -> Result<(DomainSpecificModel, ModelArtifact, u32), RegistryError> {
        let version = match version {
            Some(v) => v,
            None => self.latest(name)?,
        };
        let artifact = self.artifact_at(name, version)?;
        let model =
            artifact
                .open_expecting(fingerprint)
                .map_err(|source| RegistryError::Artifact {
                    name: name.to_string(),
                    version,
                    source,
                })?;
        Ok((model, artifact, version))
    }

    fn canary_path(&self, name: &str) -> Result<PathBuf, RegistryError> {
        Ok(self.model_dir(name)?.join(CANARY_FILE))
    }

    /// The raw canary pointer, if the file exists — no validation against
    /// the active version set.
    fn canary_pointer(&self, name: &str) -> Result<Option<u32>, RegistryError> {
        let path = self.canary_path(name)?;
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(RegistryError::Io { path, source: e }),
        };
        let pointer: CanaryPointer =
            serde_json::from_str(&text).map_err(|e| RegistryError::Io {
                path,
                source: io::Error::new(io::ErrorKind::InvalidData, e.to_string()),
            })?;
        Ok(Some(pointer.version))
    }

    /// The current canary version, with a self-healing read: a pointer
    /// naming a missing or retired version (a crash between rollback's
    /// retire and pointer removal) is *dangling* and reads as no canary,
    /// reported as the second tuple element so callers can journal it.
    pub fn canary(
        &self,
        name: &str,
    ) -> Result<(Option<u32>, Option<RegistryEvent>), RegistryError> {
        let Some(version) = self.canary_pointer(name)? else {
            return Ok((None, None));
        };
        let (active, _) = self.scan_versions(name)?;
        if active.binary_search(&version).is_ok() {
            Ok((Some(version), None))
        } else {
            Ok((
                None,
                Some(RegistryEvent::DanglingCanary {
                    name: name.to_string(),
                    version,
                }),
            ))
        }
    }

    /// Points the canary channel at an active version. Atomic and
    /// idempotent.
    pub fn set_canary(&self, name: &str, version: u32) -> Result<(), RegistryError> {
        let (active, _) = self.scan_versions(name)?;
        if active.binary_search(&version).is_err() {
            return Err(RegistryError::VersionNotFound {
                name: name.to_string(),
                version,
            });
        }
        let path = self.canary_path(name)?;
        let text = match serde_json::to_string(&CanaryPointer { version }) {
            Ok(t) => t,
            Err(e) => {
                return Err(RegistryError::Io {
                    path,
                    source: io::Error::new(io::ErrorKind::InvalidData, e.to_string()),
                })
            }
        };
        atomic_write_str(&path, &text).map_err(|e| RegistryError::Io {
            path,
            source: io::Error::other(e.to_string()),
        })
    }

    /// Removes the canary pointer if present. Idempotent.
    fn clear_canary(&self, name: &str) -> Result<(), RegistryError> {
        let path = self.canary_path(name)?;
        match fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(RegistryError::Io { path, source: e }),
        }
    }

    /// The latest *stable* version: the highest active version that is
    /// not the current canary. This is what serving loads while a canary
    /// is in flight.
    pub fn stable_latest(&self, name: &str) -> Result<u32, RegistryError> {
        let (canary, _) = self.canary(name)?;
        self.versions(name)?
            .into_iter()
            .rfind(|v| Some(*v) != canary)
            .ok_or_else(|| RegistryError::NotFound {
                name: name.to_string(),
            })
    }

    /// Promotes the canary `version` to stable: the pointer is removed,
    /// and the version — being the highest active — becomes the stable
    /// latest. Idempotent: promoting an already-promoted version (no
    /// pointer, version active) is a no-op, which is what a journaled
    /// publisher needs to redo a promote after a crash. Promoting while
    /// the pointer names a *different* version is a typed error.
    pub fn promote_version(&self, name: &str, version: u32) -> Result<(), RegistryError> {
        match self.canary_pointer(name)? {
            Some(c) if c == version => self.clear_canary(name),
            Some(c) => Err(RegistryError::CanaryMismatch {
                name: name.to_string(),
                version,
                canary: Some(c),
            }),
            None => {
                // Already promoted iff the version is still active.
                let (active, _) = self.scan_versions(name)?;
                if active.binary_search(&version).is_ok() {
                    Ok(())
                } else {
                    Err(RegistryError::CanaryMismatch {
                        name: name.to_string(),
                        version,
                        canary: None,
                    })
                }
            }
        }
    }

    /// Rolls the canary `version` back: its file is renamed to
    /// `vNNNN.retired.json` (reserving the number forever), then the
    /// pointer is removed. The incumbent stable version is untouched.
    /// Idempotent at every step — a crash between the two leaves a
    /// dangling pointer that [`ModelRegistry::canary`] already reads as
    /// "no canary", and redoing the rollback converges.
    pub fn rollback_version(&self, name: &str, version: u32) -> Result<(), RegistryError> {
        let dir = self.model_dir(name)?;
        let active_path = dir.join(version_file(version));
        let retired_path = dir.join(retired_file(version));
        match fs::rename(&active_path, &retired_path) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound && retired_path.exists() => {
                // Already retired by a previous (crashed) attempt.
            }
            Err(e) => {
                return Err(RegistryError::Io {
                    path: active_path,
                    source: e,
                })
            }
        }
        match self.canary_pointer(name)? {
            Some(c) if c == version => self.clear_canary(name),
            _ => Ok(()),
        }
    }

    /// The hardened serving load: walks the stable channel newest→oldest
    /// and returns the first version that verifies, skipping corrupt ones
    /// and reporting each skip as a [`RegistryEvent::CorruptSkipped`],
    /// after a [`RegistryEvent::DanglingCanary`] when the canary pointer
    /// dangles. Versions whose training fingerprint does not match
    /// `expected_fingerprint` are skipped *silently*: they belong to a
    /// different training generation (for example a retrain artifact
    /// orphaned by a crash mid-publish), and the serving generation lives
    /// further back. Fails with the newest version's error only when no
    /// stable version fits.
    #[allow(clippy::type_complexity)]
    pub fn load_latest_healthy(
        &self,
        name: &str,
        expected_fingerprint: Option<u64>,
    ) -> Result<(DomainSpecificModel, ModelArtifact, u32, Vec<RegistryEvent>), RegistryError> {
        let (canary, dangling) = self.canary(name)?;
        let stable: Vec<u32> = self
            .versions(name)?
            .into_iter()
            .filter(|v| Some(*v) != canary)
            .collect();
        if stable.is_empty() {
            return Err(RegistryError::NotFound {
                name: name.to_string(),
            });
        }
        let mut events: Vec<RegistryEvent> = dangling.into_iter().collect();
        let mut first_err = None;
        for &version in stable.iter().rev() {
            let result = match expected_fingerprint {
                Some(fp) => self.load_expecting(name, Some(version), fp),
                None => self.load(name, Some(version)),
            };
            match result {
                Ok((model, artifact, v)) => return Ok((model, artifact, v, events)),
                Err(
                    e @ RegistryError::Artifact {
                        source: ArtifactError::Fingerprint { .. },
                        ..
                    },
                ) => {
                    // A different training generation, not corruption:
                    // walk back silently to the serving generation. A
                    // crash-orphaned retrain artifact must never hijack
                    // the stable channel on resume.
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
                Err(e) => {
                    events.push(RegistryEvent::CorruptSkipped {
                        name: name.to_string(),
                        version,
                        reason: e.to_string(),
                    });
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        Err(first_err.unwrap_or(RegistryError::NotFound {
            name: name.to_string(),
        }))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use energy_model::fnv1a_64;

    use super::*;
    use crate::serving::tests::tiny_model;

    const FINGERPRINT: u64 = 0x5EED;

    /// An empty registry in a directory of its own. Dropping it removes
    /// the directory unless the thread is panicking: a passing test leaves
    /// nothing behind, a failing one its files.
    struct Scratch(ModelRegistry);

    impl std::ops::Deref for Scratch {
        type Target = ModelRegistry;

        fn deref(&self) -> &ModelRegistry {
            &self.0
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            if !std::thread::panicking() {
                let _ = fs::remove_dir_all(self.0.root());
            }
        }
    }

    fn scratch(name: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("governor-registry-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Scratch(ModelRegistry::open(&dir))
    }

    #[test]
    fn the_hardened_load_reports_a_dangling_canary_first() {
        // v1 healthy, v2 rotted, and a canary pointer naming v99 (a crash
        // between rollback's retire and pointer removal).
        let registry = scratch("dangling");
        let model = tiny_model();
        assert_eq!(registry.publish("toy", &model, FINGERPRINT).unwrap(), 1);
        assert_eq!(registry.publish("toy", &model, FINGERPRINT).unwrap(), 2);
        let v2 = registry.root().join("toy").join(version_file(2));
        let text = fs::read_to_string(&v2).unwrap();
        fs::write(&v2, text.replacen("algorithm", "algoXithm", 1)).unwrap();
        fs::write(
            registry.root().join("toy").join(CANARY_FILE),
            "{\"version\": 99}",
        )
        .unwrap();

        let (_, _, version, events) = registry
            .load_latest_healthy("toy", Some(FINGERPRINT))
            .unwrap();
        assert_eq!(version, 1);
        assert!(
            matches!(
                &events[..],
                [
                    RegistryEvent::DanglingCanary { name, version: 99 },
                    RegistryEvent::CorruptSkipped { version: 2, .. },
                ] if name == "toy"
            ),
            "{events:?}"
        );
    }

    /// The payload with the first arena string of `array` replaced by
    /// `forge` of it.
    fn forge_array(payload: &str, array: &str, forge: impl FnOnce(&str) -> String) -> String {
        let head = format!("\"{array}\":\"");
        let start = payload.find(&head).unwrap() + head.len();
        let end = start + payload[start..].find('"').unwrap();
        format!(
            "{}{}{}",
            &payload[..start],
            forge(&payload[start..end]),
            &payload[end..]
        )
    }

    #[test]
    fn malformed_arena_encodings_are_typed_refusals() {
        // Each forgery is sealed into a digest-valid envelope: opening it
        // is `Malformed`, and the hardened load skips it as corrupt and
        // serves the healthy v1.
        let registry = scratch("encodings");
        let model = tiny_model();
        assert_eq!(registry.publish("toy", &model, FINGERPRINT).unwrap(), 1);
        let sealed = ModelArtifact::seal("toy", &model, FINGERPRINT);
        let payload = sealed.payload.as_str();
        let cases: [(&str, String, &str); 11] = [
            (
                "a character outside the alphabet",
                forge_array(payload, "child", |s| format!("-{}", &s[1..])),
                "byte 0x2d at offset 0 is not base64",
            ),
            (
                "a non-ASCII character",
                forge_array(payload, "threshold", |s| format!("\u{e9}{}", &s[2..])),
                "byte 0xc3 at offset 0 is not base64",
            ),
            (
                "a length that is not a multiple of 4",
                forge_array(payload, "roots", |s| s[..s.len() - 1].to_string()),
                "is not a multiple of 4",
            ),
            (
                "padding before the end",
                forge_array(payload, "roots", |s| format!("AA=={s}")),
                "padding `=` before the end, at offset 2",
            ),
            (
                "three `=`",
                forge_array(payload, "roots", |_| "AAAAA===".to_string()),
                "padding `=` before the end, at offset 5",
            ),
            (
                "non-zero trailing bits after `==`",
                forge_array(payload, "roots", |_| "AAAAAB==".to_string()),
                "non-zero trailing bits",
            ),
            (
                "non-zero trailing bits after `=`",
                forge_array(payload, "feature", |_| "AAB=".to_string()),
                "non-zero trailing bits",
            ),
            (
                "a partial element",
                forge_array(payload, "roots", |_| "AAAAAAA=".to_string()),
                "5 bytes are not a whole number of 4-byte elements",
            ),
            (
                "a missing array",
                {
                    let forged = forge_array(payload, "child", |_| "@".to_string());
                    forged.replacen(",\"child\":\"@\"", "", 1)
                },
                "missing field `child` in FlatForest",
            ),
            (
                "an array of decimal numbers",
                payload.replacen("\"roots\":\"", "\"roots\":[0],\"was\":\"", 1),
                "expected string, got Seq",
            ),
            (
                "whitespace inside the string",
                forge_array(payload, "child", |s| format!("{} {}", &s[..4], &s[5..])),
                "byte 0x20 at offset 4 is not base64",
            ),
        ];
        for (label, forged, expected) in cases {
            assert_ne!(forged, payload, "{label}: nothing was forged");
            let mut artifact = sealed.clone();
            artifact.payload = forged;
            artifact.content_digest = fnv1a_64(artifact.payload.as_bytes());
            match artifact.open() {
                Err(ArtifactError::Malformed(msg)) => {
                    assert!(msg.contains(expected), "{label}: {msg}")
                }
                other => panic!(
                    "{label}: expected Malformed, got {:?}",
                    other.map(|_| "a loaded model")
                ),
            }
            artifact
                .save(&registry.root().join("toy").join(version_file(2)))
                .unwrap();
            let (_, _, version, events) = registry
                .load_latest_healthy("toy", Some(FINGERPRINT))
                .unwrap();
            assert_eq!(version, 1, "{label}");
            assert!(
                matches!(
                    &events[..],
                    [RegistryEvent::CorruptSkipped { version: 2, reason, .. }]
                        if reason.contains(expected)
                ),
                "{label}: {events:?}"
            );
        }
    }
}

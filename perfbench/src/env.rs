//! Hermetic scratch space: every registry, campaign journal and lifecycle
//! directory a pass writes lives in a fresh directory under the build
//! directory (same disk as the checkout, so fsyncs are real) and is
//! removed when its guard drops.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory removed (recursively) when dropped.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `path` (which must not exist yet).
    pub fn create(path: PathBuf) -> Result<Self, String> {
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("create scratch dir {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is harmless and gitignored.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Per-process benchmark environment: the seed and the scratch root.
#[derive(Debug)]
pub struct Env {
    /// Workload seed; derives the stream, noise and forest seeds.
    pub seed: u64,
    root: TempDir,
    next: AtomicU64,
}

impl Env {
    /// An environment with a scratch root of its own.
    pub fn new(seed: u64) -> Result<Self, String> {
        static ENVS: AtomicU64 = AtomicU64::new(0);
        let n = ENVS.fetch_add(1, Ordering::Relaxed);
        let root = scratch_base().join(format!("perfbench-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        Ok(Env {
            seed,
            root: TempDir::create(root)?,
            next: AtomicU64::new(0),
        })
    }

    /// A fresh, empty scratch directory.
    pub fn fresh_dir(&self, label: &str) -> Result<TempDir, String> {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        TempDir::create(self.root.path().join(format!("{label}-{n}")))
    }

    /// Where run artifacts (trace exports) go: next to the scratch root.
    pub fn artifact_dir() -> PathBuf {
        scratch_base().join("perfbench-out")
    }
}

/// The build directory: `CARGO_TARGET_DIR` when set (relative paths
/// resolve against the checkout root the benchmark runs from), else this
/// package's `target/`.
fn scratch_base() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"))
}

/// Copies the regular files of `from` (recursively) into `to`.
pub fn copy_tree(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", from.display()))?;
        let src = entry.path();
        let dst = to.join(entry.file_name());
        if src.is_dir() {
            copy_tree(&src, &dst)?;
        } else {
            std::fs::copy(&src, &dst).map_err(|e| format!("copy {}: {e}", src.display()))?;
        }
    }
    Ok(())
}

/// Total size (bytes) of the regular files under `dir`.
pub fn dir_size(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| {
            let path = entry.path();
            if path.is_dir() {
                dir_size(&path)
            } else {
                entry.metadata().map_or(0, |m| m.len())
            }
        })
        .sum()
}

/// Total size (bytes) and committed records (newlines) of the `*.jsonl`
/// journals under `dir`.
pub fn journal_stats(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    let mut bytes = 0;
    let mut records = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let (b, r) = journal_stats(&path);
            bytes += b;
            records += r;
        } else if path.extension().is_some_and(|e| e == "jsonl") {
            if let Ok(data) = std::fs::read(&path) {
                bytes += data.len() as u64;
                records += data.iter().filter(|&&b| b == b'\n').count() as u64;
            }
        }
    }
    (bytes, records)
}

//! Scratch directories for the integration tests. Each is named by its
//! label and the process id, and removed when its owner drops it unless
//! the thread is panicking: a passing test leaves nothing in the temp
//! dir, and a failing one keeps its files for inspection.

// Each test binary uses a part of this module.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use governor::ModelRegistry;

/// A directory under the temp dir, removed on drop unless panicking.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// `<temp dir>/<label>-<process id>`, emptied of what an earlier test
    /// left there. The directory itself is not made.
    pub fn new(label: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }

    /// As [`ScratchDir::new`], and made, empty.
    pub fn create(label: &str) -> Self {
        let dir = Self::new(label);
        std::fs::create_dir_all(&dir.0).expect("create scratch dir");
        dir
    }

    /// As [`ScratchDir::new`], with a number no other call in this
    /// process got: a copy of a fixture for each of the tests sharing it.
    pub fn numbered(label: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        Self::new(&format!("{label}-{}", NEXT.fetch_add(1, Ordering::Relaxed)))
    }
}

impl Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// Every file under `root`, by its path below `root`, with its bytes.
pub fn tree_bytes(root: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("read scratch dir") {
            let path = entry.expect("scratch dir entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                let bytes = std::fs::read(&path).expect("read scratch file");
                let name = path.strip_prefix(root).expect("under the root");
                files.insert(name.to_path_buf(), bytes);
            }
        }
    }
    files
}

/// A registry fixture held in memory: trained once per test binary, then
/// written into a scratch directory of each test's own, so no fixture
/// directory outlives the tests.
pub struct Template(BTreeMap<PathBuf, Vec<u8>>);

impl Template {
    /// Runs `publish` on a registry in `dir`, keeps the files it wrote
    /// and removes `dir`.
    pub fn publish(dir: ScratchDir, publish: impl FnOnce(&ModelRegistry)) -> Self {
        publish(&ModelRegistry::open(&dir));
        Template(tree_bytes(&dir))
    }

    /// A registry over a copy of the template in `dir`.
    pub fn copy_to(&self, dir: ScratchDir) -> ScratchRegistry {
        for (name, bytes) in &self.0 {
            let path = dir.join(name);
            let parent = path.parent().expect("a file has a parent");
            std::fs::create_dir_all(parent).expect("create registry copy dir");
            std::fs::write(&path, bytes).expect("write registry copy");
        }
        ScratchRegistry::open(dir)
    }
}

/// A model registry in a scratch directory it owns.
pub struct ScratchRegistry {
    registry: ModelRegistry,
    _dir: ScratchDir,
}

impl ScratchRegistry {
    /// The registry in `dir`, which goes when the registry drops.
    pub fn open(dir: ScratchDir) -> Self {
        ScratchRegistry {
            registry: ModelRegistry::open(&dir),
            _dir: dir,
        }
    }
}

impl Deref for ScratchRegistry {
    type Target = ModelRegistry;

    fn deref(&self) -> &ModelRegistry {
        &self.registry
    }
}

//! Crash-consistent persistence primitives.
//!
//! Two building blocks, shared by the campaign journal and every
//! `results/` writer in the workspace:
//!
//! * [`atomic_write`] — full-file replacement via write-temp + fsync +
//!   rename. A reader (or a resumed process) sees either the old complete
//!   file or the new complete file, never a torn intermediate.
//! * [`Journal`] / [`read_journal`] — an append-only JSONL log where each
//!   record is one line of JSON, fsynced before `append` returns. A crash
//!   can tear at most the *trailing* line (an append that never committed);
//!   [`read_journal`] drops such a tail and reports it, while a malformed
//!   line anywhere else is surfaced as corruption instead of being
//!   silently skipped. A record only counts as committed once its
//!   trailing newline is durable — a final line without one is an
//!   uncommitted tail even when it happens to parse. A writer resuming a
//!   journal first cuts such a tail off with [`heal_torn_tail`].
//!
//! The serde/serde_json shims round-trip `f64` bit-exactly (shortest
//! `Display` form, exact re-parse), which is what lets a resumed campaign
//! reproduce an uninterrupted run bit for bit from its journal.

// Persistence code must degrade with typed errors, never panic: a full
// disk or read-only results directory is an expected condition here.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

/// A persistence failure, with the path it happened on.
#[derive(Debug)]
pub enum PersistError {
    /// An I/O operation failed.
    Io {
        /// File the operation was acting on.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A committed record failed to parse — the file is damaged beyond the
    /// tolerated torn tail, or was written by something else entirely.
    Corrupt {
        /// File the record was read from.
        path: PathBuf,
        /// 1-based line number of the offending record.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { path, source } => {
                write!(f, "{}: {}", path.display(), source)
            }
            PersistError::Corrupt {
                path,
                line,
                message,
            } => write!(
                f,
                "{}:{}: corrupt record: {}",
                path.display(),
                line,
                message
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            PersistError::Corrupt { .. } => None,
        }
    }
}

fn io_err(path: &Path, source: io::Error) -> PersistError {
    PersistError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// The sibling temp path a pending [`atomic_write`] stages into.
fn temp_sibling(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Flushes the rename itself: fsync the directory entry so the swap
/// survives power loss, best-effort (directory fsync is not portable).
fn sync_parent_dir(path: &Path) {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

/// Replaces `path` atomically with `bytes`: write a temp sibling, fsync
/// it, rename over the target. Creates missing parent directories. No
/// reader can ever observe a partially written file, and a crash leaves
/// either the old content or the new — at worst plus a stale `.tmp`
/// sibling the next write overwrites.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    }
    let tmp = temp_sibling(path);
    {
        let mut f = File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        f.write_all(bytes).map_err(|e| io_err(&tmp, e))?;
        f.sync_all().map_err(|e| io_err(&tmp, e))?;
    }
    fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    sync_parent_dir(path);
    Ok(())
}

/// [`atomic_write`] of UTF-8 text.
pub fn atomic_write_str(path: &Path, text: &str) -> Result<(), PersistError> {
    atomic_write(path, text.as_bytes())
}

/// An append-only JSONL log open for writing. Each [`Journal::append`]
/// serializes one record onto its own line and fsyncs before returning:
/// once `append` comes back `Ok`, the record survives any subsequent
/// crash. Records must be re-read with [`read_journal`], which tolerates
/// a torn (uncommitted) trailing line.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
}

impl Journal {
    /// Opens `path` for appending, creating the file (and missing parent
    /// directories) if needed. Existing records are untouched.
    pub fn open(path: &Path) -> Result<Journal, PersistError> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        Ok(Journal {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Appends one record as a single JSON line and fsyncs it durable.
    /// The record and its terminating newline go down in one `write_all`:
    /// the newline is the commit mark, so it must never be able to land
    /// in a later syscall than the record it commits.
    pub fn append<T: Serialize>(&mut self, record: &T) -> Result<(), PersistError> {
        let mut line = serde_json::to_string(record).map_err(|e| PersistError::Corrupt {
            path: self.path.clone(),
            line: 0,
            message: format!("unserializable record: {e}"),
        })?;
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.sync_data())
            .map_err(|e| io_err(&self.path, e))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Truncates an uncommitted torn trailing line in place, so appends keep
/// starting on a fresh line. Committed records are untouched: this only
/// moves the file end back to the last committed newline (the newline is
/// the commit mark, see [`Journal::append`]).
pub fn heal_torn_tail(path: &Path) -> Result<(), PersistError> {
    let io = |e| io_err(path, e);
    let bytes = fs::read(path).map_err(io)?;
    let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1) as u64;
    let f = OpenOptions::new().write(true).open(path).map_err(io)?;
    f.set_len(keep).map_err(io)?;
    f.sync_all().map_err(io)?;
    Ok(())
}

/// What [`read_journal`] found.
#[derive(Debug)]
pub struct JournalContents<T> {
    /// Every committed record, in append order.
    pub records: Vec<T>,
    /// True when the file ended in a torn line — an append a crash cut
    /// short of its newline. The torn bytes are not in `records`, even
    /// when they happen to form complete JSON.
    pub torn_tail: bool,
}

/// Reads every committed record of a JSONL journal. A missing file is an
/// empty journal. *Any* final line without a trailing newline is the
/// remnant of an uncommitted append — [`Journal::append`] only returns
/// once the newline is durable, so a newline-less tail was never acked,
/// even if it parses (a crash can tear between writeback of the record
/// bytes and the newline). Such a tail is dropped and reported via
/// [`JournalContents::torn_tail`]; an unparsable committed line means
/// the journal is damaged and is returned as [`PersistError::Corrupt`].
pub fn read_journal<T: Deserialize>(path: &Path) -> Result<JournalContents<T>, PersistError> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(JournalContents {
                records: Vec::new(),
                torn_tail: false,
            })
        }
        Err(e) => return Err(io_err(path, e)),
    };
    let mut lines: Vec<&str> = text.lines().collect();
    let torn_tail = if text.ends_with('\n') {
        false
    } else {
        lines.pop().is_some()
    };
    let mut records = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<T>(line) {
            Ok(r) => records.push(r),
            Err(e) => {
                return Err(PersistError::Corrupt {
                    path: path.to_path_buf(),
                    line: i + 1,
                    message: e.to_string(),
                });
            }
        }
    }
    Ok(JournalContents { records, torn_tail })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "energy-model-persist-{}-{}",
            std::process::id(),
            name
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Rec {
        seq: u64,
        value: f64,
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let dir = scratch("atomic");
        let path = dir.join("out.txt");
        atomic_write_str(&path, "first").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "first");
        atomic_write_str(&path, "second").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second");
        assert!(!temp_sibling(&path).exists(), "temp sibling must be gone");
    }

    #[test]
    fn atomic_write_creates_parent_directories() {
        let dir = scratch("mkdirs");
        let path = dir.join("a/b/c.txt");
        atomic_write_str(&path, "deep").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "deep");
    }

    #[test]
    fn journal_round_trips_records_bit_exactly() {
        let dir = scratch("roundtrip");
        let path = dir.join("j.jsonl");
        let recs: Vec<Rec> = (0..5)
            .map(|i| Rec {
                seq: i,
                value: 0.1 + i as f64 * 1.000000000003,
            })
            .collect();
        {
            let mut j = Journal::open(&path).unwrap();
            for r in &recs {
                j.append(r).unwrap();
            }
        }
        let got = read_journal::<Rec>(&path).unwrap();
        assert!(!got.torn_tail);
        assert_eq!(got.records, recs);
        // f64 payloads must survive bit-for-bit.
        for (a, b) in got.records.iter().zip(&recs) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }

    #[test]
    fn missing_journal_reads_empty() {
        let dir = scratch("missing");
        let got = read_journal::<Rec>(&dir.join("nope.jsonl")).unwrap();
        assert!(got.records.is_empty());
        assert!(!got.torn_tail);
    }

    #[test]
    fn torn_trailing_line_is_dropped_and_reported() {
        let dir = scratch("torn");
        let path = dir.join("j.jsonl");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(&Rec { seq: 0, value: 1.0 }).unwrap();
            j.append(&Rec { seq: 1, value: 2.0 }).unwrap();
        }
        // Simulate a crash mid-append: half a record, no newline.
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(br#"{"seq":2,"va"#);
        fs::write(&path, &bytes).unwrap();

        let got = read_journal::<Rec>(&path).unwrap();
        assert!(got.torn_tail);
        assert_eq!(got.records.len(), 2);
        assert_eq!(got.records[1].seq, 1);
    }

    #[test]
    fn parseable_final_line_without_newline_is_still_a_torn_tail() {
        let dir = scratch("torn-parseable");
        let path = dir.join("j.jsonl");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(&Rec { seq: 0, value: 1.0 }).unwrap();
            j.append(&Rec { seq: 1, value: 2.0 }).unwrap();
        }
        // A crash (or partial writeback) can persist the record bytes but
        // not the newline that commits them: the JSON is complete, yet the
        // append was never acked. It must be dropped, not trusted — a
        // later append would otherwise land on the same line.
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(br#"{"seq":2,"value":3.0}"#);
        fs::write(&path, &bytes).unwrap();

        let got = read_journal::<Rec>(&path).unwrap();
        assert!(got.torn_tail, "newline-less tail was never committed");
        assert_eq!(got.records.len(), 2);
        assert_eq!(got.records[1].seq, 1);
    }

    #[test]
    fn mid_file_damage_is_corruption_not_a_torn_tail() {
        let dir = scratch("corrupt");
        let path = dir.join("j.jsonl");
        fs::write(&path, "{\"broken\n{\"seq\":1,\"value\":2.0}\n").unwrap();
        let err = read_journal::<Rec>(&path).expect_err("damage is not skippable");
        match err {
            PersistError::Corrupt { line, .. } => assert_eq!(line, 1),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn reopened_journal_appends_after_existing_records() {
        let dir = scratch("reopen");
        let path = dir.join("j.jsonl");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(&Rec { seq: 0, value: 1.0 }).unwrap();
        }
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(&Rec { seq: 1, value: 2.0 }).unwrap();
        }
        let got = read_journal::<Rec>(&path).unwrap();
        assert_eq!(got.records.len(), 2);
        assert_eq!(got.records[0].seq, 0);
        assert_eq!(got.records[1].seq, 1);
    }
}

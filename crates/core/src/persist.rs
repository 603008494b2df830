//! Crash-consistent persistence primitives.
//!
//! Two building blocks, shared by the crash-resumable subsystems (the
//! characterization campaign and the governor's model lifecycle) and
//! every `results/` writer in the workspace:
//!
//! * [`atomic_write`] — full-file replacement via write-temp + fsync +
//!   rename. A reader (or a resumed process) sees either the old complete
//!   file or the new complete file, never a torn intermediate.
//! * [`ReplayJournal`] — the write-ahead journal of a deterministic run:
//!   an append-only JSONL log, one record per line, durable at the
//!   caller's sync points ([`ReplayJournal::sync`] and
//!   [`ReplayJournal::finish`]). A resumed run re-derives its records in
//!   order; while records of an earlier process remain, each commit must
//!   equal the next one and consumes it without a write, and after that
//!   commits append. Each append is one write of the record and its
//!   newline, so a process crash loses nothing that was appended; a power
//!   loss can lose what was appended after the last sync point, and a
//!   resumed run re-derives it. [`read_journal`] drops such a lost or
//!   torn *tail* and reports it, while a malformed line anywhere else is
//!   surfaced as corruption instead of being silently skipped. A record
//!   only counts as committed once its trailing newline is written — a
//!   final line without one is an uncommitted tail even when it happens
//!   to parse. Opening a journal to resume it cuts such a tail off.
//!
//! The serde/serde_json shims round-trip `f64` bit-exactly (shortest
//! `Display` form, exact re-parse), which is what lets a resumed run
//! reproduce an uninterrupted one bit for bit from its journal.

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
/// writes one record onto its own line, and [`Journal::sync`] makes every
/// append so far durable. Records must be re-read with [`read_journal`],
/// which tolerates a torn or lost tail.
#[derive(Debug)]
struct Journal {
    path: PathBuf,
    file: File,
    /// Whether a record was appended since the last sync.
    unsynced: bool,
}

impl Journal {
    /// Opens `path` for appending, creating the file (and missing parent
    /// directories) if needed. Existing records are untouched. A sync of
    /// the file does not cover its directory entry, so the directory of a
    /// created file is synced at once, and the parent of each created
    /// directory too.
    fn open(path: &Path) -> Result<Journal, PersistError> {
        // The directories `create_dir_all` makes, deepest first.
        let new_dirs: Vec<&Path> = path
            .ancestors()
            .skip(1)
            .take_while(|d| !d.as_os_str().is_empty() && !d.exists())
            .collect();
        if let Some(dir) = new_dirs.first() {
            fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        }
        let created = !path.exists();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        if created {
            sync_parent_dir(path);
        }
        for dir in new_dirs {
            sync_parent_dir(dir);
        }
        Ok(Journal {
            path: path.to_path_buf(),
            file,
            // An existing file may hold appends its writer never synced.
            unsynced: !created,
        })
    }

    /// Appends one record as a single JSON line, durable at the next
    /// [`Journal::sync`]. The record and its terminating newline go down
    /// in one `write_all`: the newline is the commit mark, so it must
    /// never be able to land in a later syscall than the record it
    /// commits.
    fn append<T: Serialize>(&mut self, record: &T) -> Result<(), PersistError> {
        let mut line = serde_json::to_string(record).map_err(|e| PersistError::Corrupt {
            path: self.path.clone(),
            line: 0,
            message: format!("unserializable record: {e}"),
        })?;
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| io_err(&self.path, e))?;
        self.unsynced = true;
        Ok(())
    }

    /// Makes every append so far durable with one `fdatasync`, or none
    /// when nothing was appended since the last sync.
    fn sync(&mut self) -> Result<(), PersistError> {
        if self.unsynced {
            self.file.sync_data().map_err(|e| io_err(&self.path, e))?;
            self.unsynced = false;
        }
        Ok(())
    }
}

/// How many leading bytes of a journal file are committed records: up to
/// the last newline before the first NUL byte, or before the end of the
/// file when it holds none. What follows is the torn tail
/// [`read_journal`] drops.
fn committed_len(bytes: &[u8]) -> usize {
    let end = bytes.iter().position(|&b| b == 0).unwrap_or(bytes.len());
    bytes[..end]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |p| p + 1)
}

/// Cuts the torn tail off in place, so appends keep starting on a fresh
/// line after the committed records, which are untouched.
fn heal_torn_tail(path: &Path, committed: usize) -> Result<(), PersistError> {
    let io = |e| io_err(path, e);
    let f = OpenOptions::new().write(true).open(path).map_err(io)?;
    f.set_len(committed as u64).map_err(io)?;
    f.sync_all().map_err(io)?;
    Ok(())
}

/// What [`read_journal`] found.
#[derive(Debug)]
pub struct JournalContents<T> {
    /// Every committed record, in append order.
    pub records: Vec<T>,
    /// True when the file ended in a torn tail — an append a crash cut
    /// short of its newline, or a suffix a power loss lost. The torn
    /// bytes are not in `records`, even when they happen to form complete
    /// JSON.
    pub torn_tail: bool,
}

/// Reads every committed record of a JSONL journal. A missing file is an
/// empty journal. The file may end in a torn tail, which is dropped and
/// reported via [`JournalContents::torn_tail`]:
///
/// * A final line without its newline is the remnant of an append a
///   crash cut short (a crash can tear between writeback of the record
///   bytes and the newline). The newline is the commit mark, so such a
///   line never counts, even when it parses.
/// * The first line holding a NUL byte begins the suffix a power loss
///   lost after the last sync point: blocks the disk never wrote can read
///   back zero-filled while later blocks survive. That line and every
///   byte after it are the tail. The JSON writer escapes every control
///   character, so no appended record holds a NUL.
///
/// The file is read as bytes, since a torn tail may end inside a
/// multi-byte character. Any other unparsable line, or one that is not
/// UTF-8, means the journal is damaged and is returned as
/// [`PersistError::Corrupt`].
pub fn read_journal<T: Deserialize>(path: &Path) -> Result<JournalContents<T>, PersistError> {
    read_committed(path).map(|(contents, _)| contents)
}

/// [`read_journal`], plus the length of the committed prefix in bytes.
fn read_committed<T: Deserialize>(
    path: &Path,
) -> Result<(JournalContents<T>, usize), PersistError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err(path, e)),
    };
    let committed = committed_len(&bytes);
    let mut records = Vec::new();
    for (i, line) in bytes[..committed].split(|&b| b == b'\n').enumerate() {
        let corrupt = |message: String| PersistError::Corrupt {
            path: path.to_path_buf(),
            line: i + 1,
            message,
        };
        let line = std::str::from_utf8(line).map_err(|e| corrupt(e.to_string()))?;
        if line.trim().is_empty() {
            continue;
        }
        records.push(serde_json::from_str::<T>(line).map_err(|e| corrupt(e.to_string()))?);
    }
    let contents = JournalContents {
        records,
        torn_tail: committed < bytes.len(),
    };
    Ok((contents, committed))
}

/// Why a [`ReplayJournal`] refused to open, commit or finish.
#[derive(Debug)]
pub enum ReplayError {
    /// The journal could not be read or written.
    Persist(PersistError),
    /// A journal already exists and the run does not resume it.
    Exists {
        /// The existing journal.
        path: PathBuf,
    },
    /// The committed records disagree with the run: one differs from the
    /// record the run derived at its index, or some remain after the run
    /// ended.
    Corrupt {
        /// The journal.
        path: PathBuf,
        /// What diverged.
        message: String,
    },
    /// The crash hook fired right after this process's Nth append.
    InjectedCrash {
        /// Appends this process committed.
        appends: u64,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Persist(e) => write!(f, "{e}"),
            ReplayError::Exists { path } => write!(f, "{} already exists", path.display()),
            ReplayError::Corrupt { path, message } => write!(f, "{}: {message}", path.display()),
            ReplayError::InjectedCrash { appends } => {
                write!(f, "injected crash after {appends} journal append(s)")
            }
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PersistError> for ReplayError {
    fn from(e: PersistError) -> Self {
        ReplayError::Persist(e)
    }
}

/// The write-ahead journal of a deterministic, crash-resumable run. The
/// run commits every record it derives, in order. While records an
/// earlier process committed remain, each commit must equal the next of
/// them and consumes it without a write; after that, each commit appends
/// one line. An appended record survives a process crash at once, and a
/// power loss once the caller has synced it: each caller names its own
/// sync points with [`ReplayJournal::sync`], and
/// [`ReplayJournal::finish`] syncs too. A run that ends with prior
/// records left over is refused by [`ReplayJournal::finish`].
#[derive(Debug)]
pub struct ReplayJournal<T> {
    file: Journal,
    /// Every committed record: the earlier processes', then this one's.
    records: Vec<T>,
    /// How many of `records` earlier processes committed.
    prior: usize,
    /// How many of `records` this run has committed so far.
    cursor: usize,
    crash_after_appends: Option<u64>,
}

impl<T: Serialize + Deserialize + PartialEq + fmt::Debug> ReplayJournal<T> {
    /// Opens the journal at `path`, creating it (and missing parent
    /// directories) if needed. Without `resume` an existing file is
    /// refused; with it, its committed records are loaded for replay and
    /// a torn tail is cut off. `crash_after_appends` is a chaos hook:
    /// the commit that makes this process's Nth append returns
    /// [`ReplayError::InjectedCrash`] right after writing the record,
    /// before any sync point covers it.
    pub fn open(
        path: &Path,
        resume: bool,
        crash_after_appends: Option<u64>,
    ) -> Result<Self, ReplayError> {
        if !resume && path.exists() {
            return Err(ReplayError::Exists {
                path: path.to_path_buf(),
            });
        }
        let (contents, committed) = read_committed::<T>(path)?;
        if contents.torn_tail {
            heal_torn_tail(path, committed)?;
        }
        let mut file = Journal::open(path)?;
        // The prior records become durable before the run acts on them.
        file.sync()?;
        Ok(ReplayJournal {
            file,
            prior: contents.records.len(),
            records: contents.records,
            cursor: 0,
            crash_after_appends,
        })
    }

    /// The records earlier processes committed.
    pub fn prior(&self) -> &[T] {
        &self.records[..self.prior]
    }

    /// The prior record the next commit must equal, while one remains.
    pub fn next_prior(&self) -> Option<&T> {
        self.records.get(self.cursor)
    }

    /// Every record this run has committed, replayed or appended.
    pub fn committed(&self) -> &[T] {
        &self.records[..self.cursor]
    }

    /// Commits the run's next record: consumes the equal prior record,
    /// or appends it once none remains. An appended record is durable at
    /// the next [`ReplayJournal::sync`].
    pub fn commit(&mut self, record: T) -> Result<(), ReplayError> {
        if let Some(prior) = self.records.get(self.cursor) {
            if *prior != record {
                return Err(self.corrupt(format!(
                    "record {} diverges: on disk {prior:?}, replay produced {record:?}",
                    self.cursor
                )));
            }
            self.cursor += 1;
            return Ok(());
        }
        self.file.append(&record)?;
        self.records.push(record);
        self.cursor += 1;
        let appends = (self.records.len() - self.prior) as u64;
        if self.crash_after_appends == Some(appends) {
            return Err(ReplayError::InjectedCrash { appends });
        }
        Ok(())
    }

    /// A sync point: every record this process has appended becomes
    /// durable. Free when nothing was appended since the last one.
    pub fn sync(&mut self) -> Result<(), ReplayError> {
        Ok(self.file.sync()?)
    }

    /// Ends the run: syncs, then checks that every prior record was
    /// committed again.
    pub fn finish(&mut self) -> Result<(), ReplayError> {
        self.sync()?;
        match self.next_prior() {
            Some(first) => Err(self.corrupt(format!(
                "journal holds {} records the replay never produced (first: {first:?})",
                self.records.len() - self.cursor
            ))),
            None => Ok(()),
        }
    }

    fn corrupt(&self, message: String) -> ReplayError {
        ReplayError::Corrupt {
            path: self.file.path.clone(),
            message,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
pub(crate) mod tests {
    use super::*;

    /// An empty directory under the temp dir, named by its label and the
    /// process id. Dropping it removes it unless the thread is panicking:
    /// a passing test leaves nothing behind, a failing one its files.
    pub(crate) struct ScratchDir(PathBuf);

    impl ScratchDir {
        pub(crate) fn new(label: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("{label}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            ScratchDir(dir)
        }
    }

    impl std::ops::Deref for ScratchDir {
        type Target = Path;

        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            if !std::thread::panicking() {
                let _ = fs::remove_dir_all(&self.0);
            }
        }
    }

    fn scratch(name: &str) -> ScratchDir {
        ScratchDir::new(&format!("energy-model-persist-{name}"))
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

    /// A journal of records `0..n`, then `tail` as raw bytes.
    fn journal_with_tail(name: &str, n: u64, tail: &[u8]) -> (ScratchDir, PathBuf, Vec<u8>) {
        let (dir, path) = prior_journal(name, n);
        let committed = fs::read(&path).unwrap();
        let mut bytes = committed.clone();
        bytes.extend_from_slice(tail);
        fs::write(&path, &bytes).unwrap();
        (dir, path, committed)
    }

    /// Reads `path` expecting records `0..n` and a torn tail, then opens
    /// it to resume: the tail is cut back to `committed`, and appends
    /// continue on a fresh line.
    fn assert_tail_dropped_and_cut(path: &Path, n: u64, committed: &[u8]) {
        let got = read_journal::<Rec>(path).unwrap();
        assert!(got.torn_tail);
        assert_eq!(got.records, (0..n).map(rec).collect::<Vec<_>>());
        let mut j = ReplayJournal::open(path, true, None).unwrap();
        assert_eq!(fs::read(path).unwrap(), committed, "tail cut on open");
        for i in 0..=n {
            j.commit(rec(i)).unwrap();
        }
        j.finish().unwrap();
        let got = read_journal::<Rec>(path).unwrap();
        assert!(!got.torn_tail);
        assert_eq!(got.records, (0..=n).map(rec).collect::<Vec<_>>());
    }

    #[test]
    fn a_nul_run_without_a_newline_is_a_torn_tail() {
        // A power loss after the last sync: the file kept its length, but
        // the block past the synced records came back zero-filled.
        let (_dir, path, committed) = journal_with_tail("nul-run", 2, &[0; 4096]);
        assert_tail_dropped_and_cut(&path, 2, &committed);
    }

    #[test]
    fn records_after_a_nul_run_belong_to_the_torn_tail() {
        // Part of a record, zeros, then a block that did reach the disk:
        // a complete record and a torn one. The line holding the first
        // NUL and everything after it are the lost suffix, the complete
        // record included.
        let mut tail = br#"{"seq":2,"val"#.to_vec();
        tail.extend_from_slice(&[0; 4096]);
        tail.extend_from_slice(b"{\"seq\":3,\"value\":1.5}\n{\"seq\":4,\"va");
        let (_dir, path, committed) = journal_with_tail("nul-then-record", 2, &tail);
        assert_tail_dropped_and_cut(&path, 2, &committed);
    }

    #[test]
    fn a_tail_cut_inside_a_multibyte_character_is_torn_not_an_io_error() {
        #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
        struct Note {
            reason: String,
        }
        let note = Note {
            reason: "campaign: /data/résumé → disk full".into(),
        };
        let dir = scratch("torn-utf8");
        let path = dir.join("j.jsonl");
        {
            let mut j = Journal::open(&path).unwrap();
            j.append(&note).unwrap();
            j.append(&note).unwrap();
        }
        let bytes = fs::read(&path).unwrap();
        let first_line = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        // Cut the second record between the two bytes of its `é`.
        let e_acute = first_line + bytes[first_line..].iter().position(|&b| b == 0xc3).unwrap();
        fs::write(&path, &bytes[..=e_acute]).unwrap();

        let got = read_journal::<Note>(&path).unwrap();
        assert!(got.torn_tail);
        assert_eq!(got.records, vec![note]);
    }

    #[test]
    fn a_committed_line_that_is_not_utf8_is_corruption() {
        let dir = scratch("not-utf8");
        let path = dir.join("j.jsonl");
        fs::write(&path, b"{\"seq\":0,\"value\":0.0}\n{\"seq\":1,\xff}\n").unwrap();
        match read_journal::<Rec>(&path).expect_err("invalid UTF-8 is not skippable") {
            PersistError::Corrupt { line, .. } => assert_eq!(line, 2),
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

    fn rec(seq: u64) -> Rec {
        Rec {
            seq,
            value: seq as f64 * 0.5,
        }
    }

    /// A journal of `n` records committed by an earlier process, and the
    /// directory holding it.
    fn prior_journal(name: &str, n: u64) -> (ScratchDir, PathBuf) {
        let dir = scratch(name);
        let path = dir.join("j.jsonl");
        let mut j = ReplayJournal::open(&path, false, None).unwrap();
        for i in 0..n {
            j.commit(rec(i)).unwrap();
        }
        j.finish().unwrap();
        (dir, path)
    }

    #[test]
    fn a_replayed_commit_writes_nothing() {
        let (_dir, path) = prior_journal("replay-silent", 3);
        let before = fs::read(&path).unwrap();
        let mut j = ReplayJournal::open(&path, true, Some(1)).unwrap();
        assert_eq!(j.prior(), &[rec(0), rec(1), rec(2)]);
        for i in 0..3 {
            j.commit(rec(i)).unwrap();
        }
        j.finish().unwrap();
        assert_eq!(j.committed(), &[rec(0), rec(1), rec(2)]);
        assert_eq!(fs::read(&path).unwrap(), before, "replay must not write");
    }

    #[test]
    fn a_commit_past_the_prefix_appends() {
        let (_dir, path) = prior_journal("replay-append", 2);
        let mut j = ReplayJournal::open(&path, true, None).unwrap();
        for i in 0..4 {
            assert_eq!(j.next_prior().is_some(), i < 2);
            j.commit(rec(i)).unwrap();
        }
        j.finish().unwrap();
        assert_eq!(j.committed().len(), 4);
        let got = read_journal::<Rec>(&path).unwrap();
        assert_eq!(got.records, (0..4).map(rec).collect::<Vec<_>>());
    }

    #[test]
    fn a_diverging_commit_names_the_record_index() {
        let (_dir, path) = prior_journal("replay-diverge", 3);
        let mut j = ReplayJournal::open(&path, true, None).unwrap();
        j.commit(rec(0)).unwrap();
        match j.commit(rec(7)) {
            Err(ReplayError::Corrupt { path: p, message }) => {
                assert_eq!(p, path);
                assert!(message.starts_with("record 1 diverges"), "{message}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn leftover_prior_records_fail_at_the_end() {
        let (_dir, path) = prior_journal("replay-leftover", 3);
        let mut j = ReplayJournal::open(&path, true, None).unwrap();
        j.commit(rec(0)).unwrap();
        match j.finish() {
            Err(ReplayError::Corrupt { message, .. }) => {
                assert!(message.contains("2 records"), "{message}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn the_crash_hook_counts_only_this_process_appends() {
        let (_dir, path) = prior_journal("replay-crash", 2);
        let mut j = ReplayJournal::open(&path, true, Some(2)).unwrap();
        for i in 0..3 {
            j.commit(rec(i)).unwrap();
        }
        match j.commit(rec(3)) {
            Err(ReplayError::InjectedCrash { appends }) => assert_eq!(appends, 2),
            other => panic!("expected InjectedCrash, got {other:?}"),
        }
        // The crashing append is written, so a process crash keeps it;
        // no sync point has covered it yet.
        assert_eq!(read_journal::<Rec>(&path).unwrap().records.len(), 4);
    }

    #[test]
    fn opening_creates_missing_directories() {
        let dir = scratch("replay-mkdirs");
        let path = dir.join("a/b/j.jsonl");
        let mut j = ReplayJournal::open(&path, false, None).unwrap();
        j.commit(rec(0)).unwrap();
        j.finish().unwrap();
        assert_eq!(read_journal::<Rec>(&path).unwrap().records, vec![rec(0)]);
    }

    #[test]
    fn opening_without_resume_refuses_an_existing_file() {
        let (_dir, path) = prior_journal("replay-exists", 1);
        match ReplayJournal::<Rec>::open(&path, false, None) {
            Err(ReplayError::Exists { path: p }) => assert_eq!(p, path),
            other => panic!("expected Exists, got {other:?}"),
        }
    }

    #[test]
    fn a_torn_tail_is_cut_on_open() {
        let (_dir, path) = prior_journal("replay-torn", 2);
        let committed = fs::read(&path).unwrap();
        let mut bytes = committed.clone();
        bytes.extend_from_slice(br#"{"seq":2,"value":1.0}"#);
        fs::write(&path, &bytes).unwrap();

        let mut j = ReplayJournal::open(&path, true, None).unwrap();
        assert_eq!(j.prior().len(), 2);
        assert_eq!(fs::read(&path).unwrap(), committed, "tail cut on open");
        for i in 0..3 {
            j.commit(rec(i)).unwrap();
        }
        let got = read_journal::<Rec>(&path).unwrap();
        assert!(!got.torn_tail);
        assert_eq!(got.records, (0..3).map(rec).collect::<Vec<_>>());
    }
}

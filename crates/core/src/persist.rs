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
//!   an append-only JSONL log, one record per line, each fsynced before
//!   its commit returns. A resumed run re-derives its records in order;
//!   while records of an earlier process remain, each commit must equal
//!   the next one and consumes it without a write, and after that
//!   commits append. A crash can tear at most the *trailing* line (an
//!   append that never committed); [`read_journal`] drops such a tail and
//!   reports it, while a malformed line anywhere else is surfaced as
//!   corruption instead of being silently skipped. A record only counts
//!   as committed once its trailing newline is durable — a final line
//!   without one is an uncommitted tail even when it happens to parse.
//!   Opening a journal to resume it cuts such a tail off.
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
/// serializes one record onto its own line and fsyncs before returning:
/// once `append` comes back `Ok`, the record survives any subsequent
/// crash. Records must be re-read with [`read_journal`], which tolerates
/// a torn (uncommitted) trailing line.
#[derive(Debug)]
struct Journal {
    path: PathBuf,
    file: File,
}

impl Journal {
    /// Opens `path` for appending, creating the file (and missing parent
    /// directories) if needed. Existing records are untouched.
    fn open(path: &Path) -> Result<Journal, PersistError> {
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
    fn append<T: Serialize>(&mut self, record: &T) -> Result<(), PersistError> {
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
}

/// Truncates an uncommitted torn trailing line in place, so appends keep
/// starting on a fresh line. Committed records are untouched: this only
/// moves the file end back to the last committed newline (the newline is
/// the commit mark, see [`Journal::append`]).
fn heal_torn_tail(path: &Path) -> Result<(), PersistError> {
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
/// remnant of an uncommitted append — [`ReplayJournal::commit`] only
/// returns once the newline is durable, so a newline-less tail was never acked,
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
/// one line and fsyncs it. A run that ends with prior records left over
/// is refused by [`ReplayJournal::finish`].
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
    /// [`ReplayError::InjectedCrash`], with the record durable.
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
        let contents = read_journal::<T>(path)?;
        if contents.torn_tail {
            heal_torn_tail(path)?;
        }
        Ok(ReplayJournal {
            file: Journal::open(path)?,
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
    /// or appends it durably once none remains.
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

    /// Ends the run: every prior record must have been committed again.
    pub fn finish(&self) -> Result<(), ReplayError> {
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

    fn rec(seq: u64) -> Rec {
        Rec {
            seq,
            value: seq as f64 * 0.5,
        }
    }

    /// A journal of `n` records committed by an earlier process.
    fn prior_journal(name: &str, n: u64) -> PathBuf {
        let path = scratch(name).join("j.jsonl");
        let mut j = ReplayJournal::open(&path, false, None).unwrap();
        for i in 0..n {
            j.commit(rec(i)).unwrap();
        }
        j.finish().unwrap();
        path
    }

    #[test]
    fn a_replayed_commit_writes_nothing() {
        let path = prior_journal("replay-silent", 3);
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
        let path = prior_journal("replay-append", 2);
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
        let path = prior_journal("replay-diverge", 3);
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
        let path = prior_journal("replay-leftover", 3);
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
        let path = prior_journal("replay-crash", 2);
        let mut j = ReplayJournal::open(&path, true, Some(2)).unwrap();
        for i in 0..3 {
            j.commit(rec(i)).unwrap();
        }
        match j.commit(rec(3)) {
            Err(ReplayError::InjectedCrash { appends }) => assert_eq!(appends, 2),
            other => panic!("expected InjectedCrash, got {other:?}"),
        }
        // The crashing append is durable.
        assert_eq!(read_journal::<Rec>(&path).unwrap().records.len(), 4);
    }

    #[test]
    fn opening_without_resume_refuses_an_existing_file() {
        let path = prior_journal("replay-exists", 1);
        match ReplayJournal::<Rec>::open(&path, false, None) {
            Err(ReplayError::Exists { path: p }) => assert_eq!(p, path),
            other => panic!("expected Exists, got {other:?}"),
        }
    }

    #[test]
    fn a_torn_tail_is_cut_on_open() {
        let path = prior_journal("replay-torn", 2);
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

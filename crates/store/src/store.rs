//! The on-disk artifact store: content-addressed keys, atomic publish,
//! quarantine, and streaming replay.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/<workload>-<scale>-v<fmt>-<digest>.dtrc   published artifacts
//! <root>/tmp/                                       in-flight writes
//! <root>/quarantine/                                corrupt files, kept
//! ```
//!
//! Publishing is write-to-temp + rename: readers never observe a
//! half-written artifact, and a crash leaves at worst an orphan under
//! `tmp/` (collected by [`Store::gc`]). Reads are fail-closed: any
//! corruption moves the file into `quarantine/` (preserving it for
//! inspection) and returns [`StoreError::Corrupt`]; the record/replay
//! entry point [`Store::get_or_record`] then transparently falls back to
//! re-tracing, so a damaged store degrades to the store-less behavior
//! instead of failing the experiment.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dee_vm::{Trace, TraceReader, TraceRecord, TRACE_FORMAT_VERSION};

use crate::checksum::checksum64;
use crate::container::{read_info, ContainerInfo, ContainerReader, ContainerWriter};

/// File extension of published trace artifacts.
pub const ARTIFACT_EXT: &str = "dtrc";

/// File extension of published snapshot artifacts (`DEESNAP1`).
pub const SNAPSHOT_EXT: &str = "dsnp";

/// Leading magic of a snapshot artifact. The store verifies snapshots
/// generically — magic prefix plus trailing [`checksum64`] over the rest
/// of the file — so it never needs to understand the snapshot payload
/// (that lives in `dee-snap`, which depends on this crate).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"DEESNAP1";

/// Verifies a snapshot artifact's framing: the `DEESNAP1` magic and the
/// trailing little-endian [`checksum64`] over every preceding byte.
///
/// # Errors
///
/// A human-readable description of the first problem found.
pub fn verify_snapshot_bytes(bytes: &[u8]) -> Result<(), String> {
    if bytes.len() < SNAPSHOT_MAGIC.len() + 8 {
        return Err(format!("snapshot too short ({} bytes)", bytes.len()));
    }
    if &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err("bad snapshot magic".to_string());
    }
    let body_end = bytes.len() - 8;
    let mut declared = [0u8; 8];
    declared.copy_from_slice(&bytes[body_end..]);
    let declared = u64::from_le_bytes(declared);
    let actual = checksum64(&bytes[..body_end]);
    if declared != actual {
        return Err(format!(
            "snapshot checksum mismatch: stored {declared:016x}, computed {actual:016x}"
        ));
    }
    Ok(())
}

/// FNV-1a 64-bit hash — the same stable, dependency-free digest the serve
/// cache uses, duplicated here so `dee-store` stays foundation-level (it
/// must not depend on `dee-serve`).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a over a word slice (little-endian), for input-memory images.
#[must_use]
pub fn fnv1a_words(words: &[i32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &w in words {
        for b in w.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Maps a label to the filename-safe alphabet `[a-z0-9_-]` (uppercase is
/// folded; anything else becomes `-`).
fn sanitize(label: &str) -> String {
    let mut out: String = label
        .chars()
        .map(|c| match c {
            'a'..='z' | '0'..='9' | '_' | '-' => c,
            'A'..='Z' => c.to_ascii_lowercase(),
            _ => '-',
        })
        .collect();
    if out.is_empty() {
        out.push('-');
    }
    out
}

/// A content-addressed artifact key: *what* was traced (workload, scale)
/// plus a digest of the exact program listing, input memory image, and
/// trace-format version. Two builds of the "same" workload that differ in
/// any input byte get different keys, so a stale artifact can never be
/// replayed for the wrong content.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ArtifactKey {
    /// Human-readable workload tag (sanitized into the filename).
    pub workload: String,
    /// Human-readable scale/variant tag (sanitized into the filename).
    pub scale: String,
    /// FNV-1a digest over listing bytes, memory words, and
    /// [`TRACE_FORMAT_VERSION`].
    pub digest: u64,
}

impl ArtifactKey {
    /// Derives a key from the program listing and input memory image.
    #[must_use]
    pub fn new(workload: &str, scale: &str, program_listing: &str, memory: &[i32]) -> Self {
        let mut digest = fnv1a(program_listing.as_bytes());
        digest ^= fnv1a_words(memory).rotate_left(17);
        digest ^= u64::from(TRACE_FORMAT_VERSION).rotate_left(43);
        ArtifactKey {
            workload: sanitize(workload),
            scale: sanitize(scale),
            digest,
        }
    }

    /// The artifact's filename inside the store root.
    #[must_use]
    pub fn filename(&self) -> String {
        format!(
            "{}-{}-v{}-{:016x}.{ARTIFACT_EXT}",
            self.workload, self.scale, TRACE_FORMAT_VERSION, self.digest
        )
    }
}

impl fmt::Display for ArtifactKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} [{:016x}]", self.workload, self.scale, self.digest)
    }
}

/// Where [`Store::get_or_record`] got the trace from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StoreSource {
    /// Replayed from a published artifact.
    Disk,
    /// Re-traced on the VM (and, best-effort, published).
    Vm,
}

/// Typed store failure.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O failure that is not a corruption verdict (permissions, disk
    /// full, ...).
    Io(io::Error),
    /// The artifact failed verification and was moved to `quarantine/`.
    Corrupt {
        /// The artifact's original path.
        path: PathBuf,
        /// What the verifier tripped on.
        detail: String,
        /// Where the file was moved (None if even the move failed).
        quarantined: Option<PathBuf>,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Corrupt {
                path,
                detail,
                quarantined,
            } => {
                write!(f, "corrupt artifact {}: {detail}", path.display())?;
                match quarantined {
                    Some(q) => write!(f, " (quarantined to {})", q.display()),
                    None => write!(f, " (quarantine move failed)"),
                }
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Lock-free store counters, rendered both as Prometheus metrics
/// (`dee-serve`'s `/metrics`) and as the one-line stderr timing summary
/// the bench binaries print.
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Artifacts replayed from disk.
    pub disk_hits: AtomicU64,
    /// Lookups that found no artifact.
    pub misses: AtomicU64,
    /// Artifacts published.
    pub writes: AtomicU64,
    /// Publishes that failed (best-effort; the trace is still served).
    pub write_errors: AtomicU64,
    /// Artifacts quarantined as corrupt.
    pub quarantined: AtomicU64,
    /// Total bytes written to published artifacts.
    pub bytes_written: AtomicU64,
    /// Nanoseconds spent replaying artifacts from disk.
    pub replay_nanos: AtomicU64,
    /// Nanoseconds spent re-tracing on the VM (inside `get_or_record`,
    /// and in `dee-serve`'s disk tier on a store miss).
    pub trace_nanos: AtomicU64,
}

impl StoreStats {
    /// Renders Prometheus text-format metrics, all prefixed `dee_store_`.
    #[must_use]
    pub fn render_metrics(&self) -> String {
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP dee_store_{name} {help}\n# TYPE dee_store_{name} counter\ndee_store_{name} {value}\n"
            ));
        };
        counter(
            "disk_hits_total",
            "Traces replayed from the on-disk artifact store.",
            self.disk_hits.load(Ordering::Relaxed),
        );
        counter(
            "misses_total",
            "Store lookups that found no artifact.",
            self.misses.load(Ordering::Relaxed),
        );
        counter(
            "writes_total",
            "Artifacts published to the store.",
            self.writes.load(Ordering::Relaxed),
        );
        counter(
            "write_errors_total",
            "Best-effort artifact publishes that failed.",
            self.write_errors.load(Ordering::Relaxed),
        );
        counter(
            "quarantined_total",
            "Corrupt artifacts moved to quarantine.",
            self.quarantined.load(Ordering::Relaxed),
        );
        counter(
            "bytes_written_total",
            "Bytes written to published artifacts.",
            self.bytes_written.load(Ordering::Relaxed),
        );
        counter(
            "replay_nanos_total",
            "Nanoseconds spent replaying traces from disk.",
            self.replay_nanos.load(Ordering::Relaxed),
        );
        counter(
            "trace_nanos_total",
            "Nanoseconds spent re-tracing on the VM.",
            self.trace_nanos.load(Ordering::Relaxed),
        );
        out
    }
}

/// One published artifact, as listed by [`Store::list`].
#[derive(Clone, Debug)]
pub struct StoreEntry {
    /// Filename inside the store root.
    pub name: String,
    /// File size in bytes.
    pub bytes: u64,
}

/// Whether `name` is an acceptable snapshot filename, checked before
/// [`Store::put_snapshot`] or [`Store::load_snapshot`] touches the
/// filesystem: the sanitized alphabet the store itself publishes
/// (`[a-z0-9._-]`), the `.dsnp` extension, and no way to escape the
/// store root.
#[must_use]
pub fn valid_artifact_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 255
        && name.ends_with(&format!(".{SNAPSHOT_EXT}"))
        && !name.starts_with('.')
        && !name.contains("..")
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "-_.".contains(c))
}

/// What [`Store::gc`] removed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Orphaned in-flight files removed from `tmp/`.
    pub tmp_removed: usize,
    /// Quarantined files removed.
    pub quarantine_removed: usize,
}

/// The artifact store rooted at one directory. Cheap to open; all state
/// is on disk plus the in-memory [`StoreStats`].
pub struct Store {
    root: PathBuf,
    stats: StoreStats,
    tmp_counter: AtomicU64,
}

impl Store {
    /// Opens (creating if needed) a store at `root`, with its `tmp/` and
    /// `quarantine/` subdirectories.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        let root = root.into();
        fs::create_dir_all(root.join("tmp"))?;
        fs::create_dir_all(root.join("quarantine"))?;
        Ok(Store {
            root,
            stats: StoreStats::default(),
            tmp_counter: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The store's counters.
    #[must_use]
    pub fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Where `key`'s artifact lives (whether or not it exists yet).
    #[must_use]
    pub fn path_for(&self, key: &ArtifactKey) -> PathBuf {
        self.root.join(key.filename())
    }

    /// Whether `key`'s artifact is published (no verification).
    #[must_use]
    pub fn contains(&self, key: &ArtifactKey) -> bool {
        self.path_for(key).is_file()
    }

    /// Publishes `trace` under `key`: the container is written to
    /// `tmp/`, fsynced, and renamed into place. Concurrent publishers of
    /// the same key race benignly — the content is deterministic, so
    /// last-rename-wins installs identical bytes.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; nothing is published on error.
    pub fn put(&self, key: &ArtifactKey, trace: &Trace) -> Result<PathBuf, StoreError> {
        let unique = format!(
            "{}.{}.{}.tmp",
            key.filename(),
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        );
        let tmp_path = self.root.join("tmp").join(unique);
        let publish = |tmp_path: &Path| -> io::Result<u64> {
            let file = File::create(tmp_path)?;
            let mut container = ContainerWriter::new(BufWriter::new(file), TRACE_FORMAT_VERSION)?;
            trace.write_to(&mut container)?;
            let writer = container.finish()?;
            let file = writer.into_inner().map_err(io::Error::from)?;
            file.sync_all()?;
            Ok(file.metadata()?.len())
        };
        match publish(&tmp_path) {
            Ok(bytes) => {
                let final_path = self.path_for(key);
                fs::rename(&tmp_path, &final_path)?;
                self.stats.writes.fetch_add(1, Ordering::Relaxed);
                self.stats.bytes_written.fetch_add(bytes, Ordering::Relaxed);
                Ok(final_path)
            }
            Err(e) => {
                fs::remove_file(&tmp_path).ok();
                Err(StoreError::Io(e))
            }
        }
    }

    /// Quarantines `key`'s published artifact (best-effort), for callers
    /// whose own validation rejected an otherwise-intact artifact — e.g.
    /// a replayed trace that disagrees with a workload's reference
    /// output. Returns the quarantine path when the move succeeded.
    pub fn quarantine_key(&self, key: &ArtifactKey) -> Option<PathBuf> {
        self.quarantine(&self.path_for(key))
    }

    /// Moves a corrupt artifact into `quarantine/` (best-effort).
    fn quarantine(&self, path: &Path) -> Option<PathBuf> {
        let name = path.file_name()?;
        let dest = self.root.join("quarantine").join(name);
        fs::rename(path, &dest).ok()?;
        self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
        Some(dest)
    }

    fn corrupt(&self, path: PathBuf, detail: String) -> StoreError {
        let quarantined = self.quarantine(&path);
        StoreError::Corrupt {
            path,
            detail,
            quarantined,
        }
    }

    /// Opens a streaming reader over `key`'s artifact. `Ok(None)` when
    /// absent; a malformed header quarantines immediately. Corruption in
    /// the body surfaces as `InvalidData` from the reader's methods —
    /// callers that need quarantine-on-body-corruption use
    /// [`Store::load`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on a bad header, [`StoreError::Io`] on
    /// other failures.
    pub fn open_reader(&self, key: &ArtifactKey) -> Result<Option<StoreReader>, StoreError> {
        let path = self.path_for(key);
        let file = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(e)),
        };
        match StoreReader::from_file(file, &path) {
            Ok(reader) => Ok(Some(reader)),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                Err(self.corrupt(path, e.to_string()))
            }
            Err(e) => Err(StoreError::Io(e)),
        }
    }

    /// Loads and fully verifies `key`'s artifact. `Ok(None)` when absent.
    /// Any corruption — bad checksum, truncation, trailing bytes, a
    /// trace-format version mismatch — quarantines the file and returns
    /// [`StoreError::Corrupt`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] or [`StoreError::Io`] as above.
    pub fn load(&self, key: &ArtifactKey) -> Result<Option<Trace>, StoreError> {
        let mut reader = match self.open_reader(key)? {
            Some(reader) => reader,
            None => return Ok(None),
        };
        let path = self.path_for(key);
        let mut records = Vec::new();
        let collect =
            |reader: &mut StoreReader, records: &mut Vec<TraceRecord>| -> io::Result<Vec<i32>> {
                while let Some(record) = reader.next_record()? {
                    records.push(record);
                }
                let output = reader.read_output()?;
                reader.finish()?;
                Ok(output)
            };
        match collect(&mut reader, &mut records) {
            Ok(output) => Ok(Some(Trace::from_parts(records, output))),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                Err(self.corrupt(path, e.to_string()))
            }
            Err(e) => Err(StoreError::Io(e)),
        }
    }

    /// The record/replay entry point: replay `key`'s artifact if
    /// published and intact, else produce the trace with `produce` (a VM
    /// run) and publish it best-effort. A corrupt artifact is
    /// quarantined and silently falls back to `produce` — the caller
    /// sees the same `(Trace, StoreSource::Vm)` as a plain miss, with
    /// the quarantine visible in [`StoreStats`].
    ///
    /// # Errors
    ///
    /// Only `produce`'s error propagates (stringified).
    pub fn get_or_record<E: fmt::Display>(
        &self,
        key: &ArtifactKey,
        produce: impl FnOnce() -> Result<Trace, E>,
    ) -> Result<(Trace, StoreSource), String> {
        let replay_start = Instant::now();
        match self.load(key) {
            Ok(Some(trace)) => {
                self.stats.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .replay_nanos
                    .fetch_add(replay_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                return Ok((trace, StoreSource::Disk));
            }
            Ok(None) => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                // Quarantined (or unreadable): degrade to re-tracing.
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        let trace_start = Instant::now();
        let trace = produce().map_err(|e| e.to_string())?;
        self.stats
            .trace_nanos
            .fetch_add(trace_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if self.put(key, &trace).is_err() {
            self.stats.write_errors.fetch_add(1, Ordering::Relaxed);
        }
        Ok((trace, StoreSource::Vm))
    }

    /// Lists published trace artifacts, sorted by name.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures.
    pub fn list(&self) -> io::Result<Vec<StoreEntry>> {
        self.list_with_ext(ARTIFACT_EXT)
    }

    /// Lists published snapshot artifacts, sorted by name.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures.
    pub fn list_snapshots(&self) -> io::Result<Vec<StoreEntry>> {
        self.list_with_ext(SNAPSHOT_EXT)
    }

    fn list_with_ext(&self, ext: &str) -> io::Result<Vec<StoreEntry>> {
        let mut entries = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let path = entry.path();
            if !path.is_file() {
                continue;
            }
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if !name.ends_with(&format!(".{ext}")) {
                continue;
            }
            entries.push(StoreEntry {
                name: name.to_string(),
                bytes: entry.metadata()?.len(),
            });
        }
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(entries)
    }

    /// Publishes snapshot bytes under `name` (a `.dsnp` filename built by
    /// `dee-snap`), atomically: write to `tmp/`, verify the generic
    /// snapshot framing, fsync, rename. Snapshot content is deterministic
    /// for a given (artifact, record index), so overwriting an existing
    /// name installs identical bytes.
    ///
    /// # Errors
    ///
    /// `Io(InvalidInput)` on a name outside the published alphabet,
    /// [`StoreError::Corrupt`] when the bytes fail framing verification
    /// (nothing is published), [`StoreError::Io`] on I/O failures.
    pub fn put_snapshot(&self, name: &str, bytes: &[u8]) -> Result<PathBuf, StoreError> {
        if !valid_artifact_name(name) {
            return Err(StoreError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("invalid snapshot name `{name}`"),
            )));
        }
        let final_path = self.root.join(name);
        if let Err(detail) = verify_snapshot_bytes(bytes) {
            return Err(StoreError::Corrupt {
                path: final_path,
                detail,
                quarantined: None,
            });
        }
        let unique = format!(
            "{name}.{}.{}.tmp",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        );
        let tmp_path = self.root.join("tmp").join(unique);
        let stage = |tmp_path: &Path| -> io::Result<()> {
            fs::write(tmp_path, bytes)?;
            File::open(tmp_path)?.sync_all()?;
            Ok(())
        };
        if let Err(e) = stage(&tmp_path) {
            fs::remove_file(&tmp_path).ok();
            return Err(StoreError::Io(e));
        }
        fs::rename(&tmp_path, &final_path)?;
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(final_path)
    }

    /// Loads and frame-verifies a published snapshot. `Ok(None)` when
    /// absent. A snapshot that fails verification is quarantined and
    /// reported as [`StoreError::Corrupt`] — exactly the `DEESTOR1`
    /// fail-closed semantics, so a flipped byte can never warm-start a
    /// simulation from bad state.
    ///
    /// # Errors
    ///
    /// `Io(InvalidInput)` on an invalid name, [`StoreError::Corrupt`] on
    /// verification failure, [`StoreError::Io`] otherwise.
    pub fn load_snapshot(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        if !valid_artifact_name(name) {
            return Err(StoreError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("invalid snapshot name `{name}`"),
            )));
        }
        let path = self.root.join(name);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreError::Io(e)),
        };
        match verify_snapshot_bytes(&bytes) {
            Ok(()) => Ok(Some(bytes)),
            Err(detail) => Err(self.corrupt(path, detail)),
        }
    }

    /// Removes in-flight orphans (`tmp/`) and quarantined files.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures; individual removals are
    /// best-effort.
    pub fn gc(&self) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        for (dir, counter) in [
            ("tmp", &mut report.tmp_removed),
            ("quarantine", &mut report.quarantine_removed),
        ] {
            for entry in fs::read_dir(self.root.join(dir))? {
                let entry = entry?;
                if entry.path().is_file() && fs::remove_file(entry.path()).is_ok() {
                    *counter += 1;
                }
            }
        }
        Ok(report)
    }
}

/// Streams `TraceRecord`s out of a published artifact one at a time: at
/// no point is more than one decompressed container chunk plus one record
/// resident, so a 100 M-instruction trace replays in constant memory.
/// Draining [`next_record`](Self::next_record), then
/// [`read_output`](Self::read_output) and [`finish`](Self::finish),
/// verifies the whole file.
pub struct StoreReader {
    inner: TraceReader<ContainerReader<BufReader<File>>>,
}

impl StoreReader {
    /// Opens an artifact file directly (the store-level entry point is
    /// [`Store::open_reader`]).
    ///
    /// # Errors
    ///
    /// `InvalidData` on a malformed container header, a trace-format
    /// version mismatch, or a bad trace magic.
    pub fn from_file(file: File, path: &Path) -> io::Result<StoreReader> {
        let container = ContainerReader::new(BufReader::new(file))?;
        let version = container.header().trace_format_version;
        if version != TRACE_FORMAT_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: trace format v{version} (this build reads v{TRACE_FORMAT_VERSION})",
                    path.display()
                ),
            ));
        }
        let inner = TraceReader::new(container)?;
        Ok(StoreReader { inner })
    }

    /// The record count the artifact declares.
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.inner.record_count()
    }

    /// Yields the next record, or `None` after the last.
    ///
    /// # Errors
    ///
    /// `InvalidData` on any corruption (chunk checksum, record layout).
    pub fn next_record(&mut self) -> io::Result<Option<TraceRecord>> {
        self.inner.next_record()
    }

    /// Reads the output stream (consuming any remaining records first).
    ///
    /// # Errors
    ///
    /// As [`next_record`](Self::next_record).
    pub fn read_output(&mut self) -> io::Result<Vec<i32>> {
        self.inner.read_output()
    }

    /// Verifies the container footer and end-of-file. Reading to the end
    /// via [`read_output`](Self::read_output) + `finish` constitutes a
    /// full-file verification.
    ///
    /// # Errors
    ///
    /// `InvalidData` on trailing bytes or a footer mismatch.
    pub fn finish(&mut self) -> io::Result<()> {
        // TraceReader::expect_end consumes self; emulate it here so the
        // caller can keep the reader in a struct. Ok(0) from the
        // container reader implies the footer verified.
        if !self.inner.output_consumed() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "output stream not consumed before end check",
            ));
        }
        let mut probe = [0u8; 1];
        loop {
            match std::io::Read::read(self.inner_mut(), &mut probe) {
                Ok(0) => return Ok(()),
                Ok(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "trailing payload after trace output stream",
                    ))
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn inner_mut(&mut self) -> &mut ContainerReader<BufReader<File>> {
        // Safe split: TraceReader exposes its transport for framing
        // checks once the logical stream is consumed.
        self.inner.transport_mut()
    }
}

/// Verifies one artifact file end-to-end (used by `dee trace verify`):
/// every chunk checksum, the record layout, the footer, and EOF.
///
/// # Errors
///
/// A human-readable description of the first problem found.
pub fn verify_file(path: &Path) -> Result<VerifyReport, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut reader =
        StoreReader::from_file(file, path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut records = 0u64;
    while let Some(_record) = reader
        .next_record()
        .map_err(|e| format!("{}: record {records}: {e}", path.display()))?
    {
        records += 1;
    }
    let output = reader
        .read_output()
        .map_err(|e| format!("{}: output stream: {e}", path.display()))?;
    reader
        .finish()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(VerifyReport {
        records,
        output_words: output.len() as u64,
        output_checksum: dee_vm::output_checksum(&output),
    })
}

/// Reads an artifact's footer metadata without scanning the payload
/// (used by `dee trace info`).
///
/// # Errors
///
/// A human-readable description of why the footer is unreadable.
pub fn info_file(path: &Path) -> Result<ContainerInfo, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    read_info(file).map_err(|e| format!("{}: {e}", path.display()))
}

/// What [`verify_file`] established.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyReport {
    /// Records streamed and validated.
    pub records: u64,
    /// Output words read.
    pub output_words: u64,
    /// FNV-1a checksum of the output stream.
    pub output_checksum: u64,
}

//! `dee-snap` — serializable VM snapshots (`DEESNAP1`) for warm-start
//! replay, range simulation, and time travel.
//!
//! A snapshot captures the *complete* simulation state at a record index
//! `k` of a published trace artifact: the machine's architectural state
//! (registers, pc, call depth, output so far, and the data-memory image
//! delta-compressed against the program's initial image), plus the
//! serialized state of every branch predictor that has consumed the
//! branch outcomes of records `[0, k)`. The convention threaded through
//! every producer and consumer:
//!
//! > **State at record `k`** means the machine is about to execute the
//! > instruction of record `k`, and each predictor has performed its
//! > `predict` + `resolve` pair for every conditional branch in records
//! > `[0, k)` — and nothing else.
//!
//! With that convention, restoring a snapshot at `k` and replaying
//! records `[k, n)` is byte-identical to replaying `[0, n)` from
//! scratch: same machine trajectory, same predictions, same
//! mispredict flags, same output.
//!
//! # On-disk format (`DEESNAP1`)
//!
//! Little-endian throughout:
//!
//! ```text
//! "DEESNAP1"               8-byte magic
//! u32  snap version        (1)
//! u32  trace format version
//! u64  parent digest       ArtifactKey digest of the parent trace
//! u64  record index        k
//! u32  reg count           then reg count × i32 registers
//! u32  pc   u8 halted   u32 depth   u64 executed
//! u32  output len          then output len × i32 words
//! u32  mem words
//! u32  dirty count         words that differ from the initial image
//! u32  encoded len         then the LZ stream of the sparse delta:
//!                          dirty count × (u32 index, i32 word ⊕ base),
//!                          indexes strictly increasing
//! u32  predictor count     then per predictor:
//!      u8 name len, name bytes, u32 blob len, blob bytes
//! u32  prng stream count   then the same layout per named stream
//! u64  checksum64 over every preceding byte
//! ```
//!
//! The magic-plus-trailing-checksum framing is exactly what
//! [`dee_store::verify_snapshot_bytes`] checks, so the store can verify
//! and quarantine snapshots without understanding this payload.
//! Snapshots are deterministic — no timestamps, no absolute paths — so
//! cutting a snapshot at the same record of the same artifact always
//! publishes a byte-identical file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dee_predict::{AlwaysTaken, BranchPredictor, Gshare, PapAdaptive, TwoBitCounter};
use dee_store::{
    checksum64, compress, decompress, verify_snapshot_bytes, ArtifactKey, Store, SNAPSHOT_EXT,
    SNAPSHOT_MAGIC,
};
use dee_vm::{MachineState, DEFAULT_MEM_WORDS};

/// Version of the `DEESNAP1` payload layout.
pub const SNAP_VERSION: u32 = 1;

/// Upper bound on any declared count/length field, as a corruption
/// backstop: no legitimate snapshot section exceeds this many entries
/// or bytes (memory is ≤ 4 MiB of words, predictor tables are smaller).
const MAX_SECTION: usize = 1 << 28;

/// A decoded snapshot: complete simulation state at one record index of
/// a parent trace artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Trace-format version of the parent artifact.
    pub trace_format_version: u32,
    /// The parent trace's [`ArtifactKey`] digest — a snapshot can never
    /// warm-start a different program/input than it was cut from.
    pub parent_digest: u64,
    /// The record index `k` this state corresponds to.
    pub record_index: u64,
    /// Machine architectural state (about to execute record `k`).
    pub machine: MachineState,
    /// Serialized predictor states, keyed by predictor name, each having
    /// consumed exactly the branches of records `[0, k)`.
    pub predictors: Vec<(String, Vec<u8>)>,
    /// Named PRNG stream states (empty for deterministic workloads; the
    /// section exists so stochastic drivers can checkpoint their streams
    /// alongside the machine).
    pub prng_streams: Vec<(String, Vec<u8>)>,
}

/// Header-level facts about a snapshot, readable without the parent's
/// initial memory image (used by `dee snap ls`/`info`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Trace-format version of the parent artifact.
    pub trace_format_version: u32,
    /// The parent trace's key digest.
    pub parent_digest: u64,
    /// The record index the snapshot was cut at.
    pub record_index: u64,
    /// The machine's data-memory size in words.
    pub mem_words: u32,
    /// Dynamic instructions executed at the cut.
    pub executed: u64,
    /// Output words produced at the cut.
    pub output_words: u32,
    /// Whether the machine had already halted.
    pub halted: bool,
    /// Predictor names carried by the snapshot.
    pub predictors: Vec<String>,
}

/// The filename a snapshot of `key` at `record_index` publishes under:
/// the parent artifact's stem plus `-r<index>.dsnp`.
#[must_use]
pub fn snapshot_filename(key: &ArtifactKey, record_index: u64) -> String {
    let base = key.filename();
    let stem = base
        .strip_suffix(&format!(".{}", dee_store::ARTIFACT_EXT))
        .unwrap_or(&base);
    format!("{stem}-r{record_index}.{SNAPSHOT_EXT}")
}

/// Parses the record index out of a snapshot filename belonging to
/// `key`; `None` when the name is not one of `key`'s snapshots.
#[must_use]
pub fn parse_record_index(name: &str, key: &ArtifactKey) -> Option<u64> {
    let base = key.filename();
    let stem = base
        .strip_suffix(&format!(".{}", dee_store::ARTIFACT_EXT))
        .unwrap_or(&base);
    let rest = name.strip_prefix(&format!("{stem}-r"))?;
    let digits = rest.strip_suffix(&format!(".{SNAPSHOT_EXT}"))?;
    digits.parse().ok()
}

/// Finds the published snapshot of `key` with the largest record index
/// `≤ at` and loads it. Corrupt candidates are quarantined by the store
/// and the next-nearest is tried, so one flipped byte degrades the
/// warm start instead of failing it. Returns the winning record index
/// and raw bytes; `None` when no intact snapshot qualifies.
#[must_use]
pub fn nearest_snapshot(store: &Store, key: &ArtifactKey, at: u64) -> Option<(u64, Vec<u8>)> {
    let mut candidates: Vec<(u64, String)> = store
        .list_snapshots()
        .ok()?
        .into_iter()
        .filter_map(|entry| {
            let index = parse_record_index(&entry.name, key)?;
            (index <= at).then_some((index, entry.name))
        })
        .collect();
    candidates.sort_by_key(|&(index, _)| std::cmp::Reverse(index));
    for (index, name) in candidates {
        match store.load_snapshot(&name) {
            Ok(Some(bytes)) => return Some((index, bytes)),
            // Absent (raced) or quarantined-corrupt: try the next older.
            Ok(None) | Err(_) => continue,
        }
    }
    None
}

/// A constructor in the [`PREDICTORS`] roster.
pub type NewPredictor = fn() -> Box<dyn BranchPredictor>;

/// The request predictor roster: each name a `/simulate`,
/// `/simulate_range` or `/batch` request may give as `"predictor"`, with
/// the constructor the serve tier builds it with. Snapshots are cut with
/// the same constructors ([`standard_predictors`]), so every blob a
/// snapshot carries restores into the predictor a request names; a
/// geometry that differed between the two would turn each warm start
/// into a from-zero replay.
pub const PREDICTORS: [(&str, NewPredictor); 4] = [
    ("twobit", || Box::new(TwoBitCounter::new())),
    ("gshare", || Box::new(Gshare::new(12, 8))),
    ("pap", || Box::new(PapAdaptive::new())),
    ("taken", || Box::new(AlwaysTaken::new())),
];

/// The standard snapshot predictor roster: one fresh instance of each
/// [`PREDICTORS`] entry, in table order.
#[must_use]
pub fn standard_predictors() -> Vec<Box<dyn BranchPredictor>> {
    PREDICTORS.iter().map(|(_, new)| new()).collect()
}

/// Steps a fresh machine through `program`, cutting a snapshot every
/// `stride` records (at records `stride`, `2·stride`, … while the
/// machine is still running) and publishing each alongside the parent
/// artifact under [`snapshot_filename`]. The [`standard_predictors`]
/// roster is replayed in lockstep — the same `predict` + `resolve`
/// sequence trace preparation issues — so a snapshot at `k` carries each
/// predictor's exact state after records `[0, k)`. Snapshots are
/// deterministic, so republishing over an existing one is byte-identical
/// and idempotent. Returns how many snapshots were published.
///
/// # Errors
///
/// Propagates VM faults and store write failures.
pub fn publish_checkpoints(
    store: &Store,
    key: &ArtifactKey,
    program: &dee_isa::Program,
    initial_memory: &[i32],
    stride: u64,
) -> Result<usize, String> {
    let stride = stride.max(1);
    let mut machine = dee_vm::Machine::new();
    machine
        .try_load_memory(initial_memory)
        .map_err(|e| e.to_string())?;
    let mut predictors = standard_predictors();
    let mut published = 0usize;
    'run: loop {
        for _ in 0..stride {
            if machine.is_halted() {
                break 'run;
            }
            let (_, record) = machine.step(program).map_err(|e| e.to_string())?;
            if let Some(outcome) = record.branch {
                for p in &mut predictors {
                    let _ = p.predict(record.pc);
                    p.resolve(record.pc, outcome.taken);
                }
            }
        }
        if machine.is_halted() {
            break;
        }
        let at = machine.executed();
        let snapshot = Snapshot {
            trace_format_version: dee_vm::TRACE_FORMAT_VERSION,
            parent_digest: key.digest,
            record_index: at,
            machine: machine.snapshot_state(),
            predictors: predictors
                .iter()
                .map(|p| (p.name().to_string(), p.save_state()))
                .collect(),
            prng_streams: Vec::new(),
        };
        store
            .put_snapshot(
                &snapshot_filename(key, at),
                &snapshot.encode(initial_memory),
            )
            .map_err(|e| e.to_string())?;
        published += 1;
    }
    Ok(published)
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_section(out: &mut Vec<u8>, entries: &[(String, Vec<u8>)]) {
    put_u32(out, entries.len() as u32);
    for (name, blob) in entries {
        debug_assert!(name.len() <= u8::MAX as usize, "section name too long");
        out.push(name.len() as u8);
        out.extend_from_slice(name.as_bytes());
        put_u32(out, blob.len() as u32);
        out.extend_from_slice(blob);
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| "snapshot truncated".to_string())?;
        let run = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(run)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn i32(&mut self) -> Result<i32, String> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn counted(&mut self, what: &str) -> Result<usize, String> {
        let n = self.u32()? as usize;
        if n > MAX_SECTION {
            return Err(format!("snapshot {what} count {n} implausibly large"));
        }
        Ok(n)
    }

    fn section(&mut self, what: &str) -> Result<Vec<(String, Vec<u8>)>, String> {
        let count = self.counted(what)?;
        let mut entries = Vec::with_capacity(count.min(64));
        for _ in 0..count {
            let name_len = self.u8()? as usize;
            let name = String::from_utf8(self.take(name_len)?.to_vec())
                .map_err(|_| format!("snapshot {what} name not utf-8"))?;
            let blob_len = self.counted(what)?;
            entries.push((name, self.take(blob_len)?.to_vec()));
        }
        Ok(entries)
    }
}

impl Snapshot {
    /// Serializes the snapshot, delta-compressing the memory image
    /// against `initial_memory` (the image the parent trace started
    /// from, zero-extended to the machine's memory size).
    #[must_use]
    pub fn encode(&self, initial_memory: &[i32]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(SNAPSHOT_MAGIC);
        put_u32(&mut out, SNAP_VERSION);
        put_u32(&mut out, self.trace_format_version);
        put_u64(&mut out, self.parent_digest);
        put_u64(&mut out, self.record_index);
        let m = &self.machine;
        put_u32(&mut out, m.regs.len() as u32);
        for &r in &m.regs {
            out.extend_from_slice(&r.to_le_bytes());
        }
        put_u32(&mut out, m.pc);
        out.push(u8::from(m.halted));
        put_u32(&mut out, m.depth);
        put_u64(&mut out, m.executed);
        put_u32(&mut out, m.output.len() as u32);
        for &w in &m.output {
            out.extend_from_slice(&w.to_le_bytes());
        }
        put_u32(&mut out, m.mem.len() as u32);
        let mut dirty = 0u32;
        let mut delta = Vec::new();
        for (i, &word) in m.mem.iter().enumerate() {
            let base = initial_memory.get(i).copied().unwrap_or(0);
            if word != base {
                dirty += 1;
                delta.extend_from_slice(&(i as u32).to_le_bytes());
                delta.extend_from_slice(&(word ^ base).to_le_bytes());
            }
        }
        put_u32(&mut out, dirty);
        let encoded = compress(&delta);
        put_u32(&mut out, encoded.len() as u32);
        out.extend_from_slice(&encoded);
        put_section(&mut out, &self.predictors);
        put_section(&mut out, &self.prng_streams);
        let sum = checksum64(&out);
        put_u64(&mut out, sum);
        out
    }

    /// Decodes and fully validates a snapshot, reconstructing the memory
    /// image against the same `initial_memory` it was encoded with.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first framing or layout
    /// problem; callers treat any error as corruption (quarantine).
    pub fn decode(bytes: &[u8], initial_memory: &[i32]) -> Result<Snapshot, String> {
        verify_snapshot_bytes(bytes)?;
        let body = &bytes[SNAPSHOT_MAGIC.len()..bytes.len() - 8];
        let mut cur = Cursor::new(body);
        let version = cur.u32()?;
        if version != SNAP_VERSION {
            return Err(format!(
                "snapshot version {version} (this build reads v{SNAP_VERSION})"
            ));
        }
        let trace_format_version = cur.u32()?;
        let parent_digest = cur.u64()?;
        let record_index = cur.u64()?;
        let reg_count = cur.counted("register")?;
        let mut reg_values = Vec::with_capacity(reg_count);
        for _ in 0..reg_count {
            reg_values.push(cur.i32()?);
        }
        let regs = <[i32; dee_vm::MachineState::REG_COUNT]>::try_from(reg_values)
            .map_err(|v: Vec<i32>| format!("snapshot has {} registers", v.len()))?;
        let pc = cur.u32()?;
        let halted = match cur.u8()? {
            0 => false,
            1 => true,
            other => return Err(format!("bad halted flag {other}")),
        };
        let depth = cur.u32()?;
        let executed = cur.u64()?;
        let output_len = cur.counted("output")?;
        // Each output word takes 4 bytes, so a count the body cannot hold
        // is refused before it sizes an allocation.
        if output_len > cur.remaining() / 4 {
            return Err(format!(
                "snapshot output count {output_len} exceeds its {} remaining bytes",
                cur.remaining()
            ));
        }
        let mut output = Vec::with_capacity(output_len);
        for _ in 0..output_len {
            output.push(cur.i32()?);
        }
        let mem_words = cur.counted("memory")?;
        // Every snapshot is cut from a `Machine::new()`, so a larger image
        // is corrupt, and refusing it bounds the image built below.
        if mem_words > DEFAULT_MEM_WORDS {
            return Err(format!(
                "snapshot memory of {mem_words} words exceeds the machine's {DEFAULT_MEM_WORDS}"
            ));
        }
        let dirty = cur.counted("memory-dirty")?;
        if dirty > mem_words {
            return Err(format!(
                "snapshot has {dirty} dirty words in a {mem_words}-word memory"
            ));
        }
        let enc_len = cur.counted("memory-delta")?;
        let encoded = cur.take(enc_len)?;
        let delta = decompress(encoded, dirty * 8)?;
        if delta.len() != dirty * 8 {
            return Err(format!(
                "memory delta decompressed to {} bytes, want {}",
                delta.len(),
                dirty * 8
            ));
        }
        let mut mem: Vec<i32> = (0..mem_words)
            .map(|i| initial_memory.get(i).copied().unwrap_or(0))
            .collect();
        let mut last_index: Option<usize> = None;
        for pair in delta.chunks_exact(8) {
            let index = u32::from_le_bytes(pair[..4].try_into().expect("4 bytes")) as usize;
            let xor = i32::from_le_bytes(pair[4..].try_into().expect("4 bytes"));
            if index >= mem_words {
                return Err(format!("dirty word index {index} out of range"));
            }
            if last_index.is_some_and(|prev| index <= prev) {
                return Err("dirty word indexes not strictly increasing".to_string());
            }
            last_index = Some(index);
            mem[index] ^= xor;
        }
        let predictors = cur.section("predictor")?;
        let prng_streams = cur.section("prng")?;
        if cur.pos != body.len() {
            return Err(format!(
                "snapshot has {} trailing payload bytes",
                body.len() - cur.pos
            ));
        }
        Ok(Snapshot {
            trace_format_version,
            parent_digest,
            record_index,
            machine: MachineState {
                regs,
                mem,
                pc,
                halted,
                depth,
                executed,
                output,
            },
            predictors,
            prng_streams,
        })
    }

    /// Reads header-level facts without reconstructing the memory image
    /// (no initial-memory needed) — the `dee snap info` path.
    ///
    /// # Errors
    ///
    /// As [`Snapshot::decode`].
    pub fn info(bytes: &[u8]) -> Result<SnapshotInfo, String> {
        verify_snapshot_bytes(bytes)?;
        let body = &bytes[SNAPSHOT_MAGIC.len()..bytes.len() - 8];
        let mut cur = Cursor::new(body);
        let version = cur.u32()?;
        if version != SNAP_VERSION {
            return Err(format!(
                "snapshot version {version} (this build reads v{SNAP_VERSION})"
            ));
        }
        let trace_format_version = cur.u32()?;
        let parent_digest = cur.u64()?;
        let record_index = cur.u64()?;
        let reg_count = cur.counted("register")?;
        cur.take(reg_count * 4)?;
        let _pc = cur.u32()?;
        let halted = cur.u8()? != 0;
        let _depth = cur.u32()?;
        let executed = cur.u64()?;
        let output_words = cur.counted("output")? as u32;
        cur.take(output_words as usize * 4)?;
        let mem_words = cur.counted("memory")? as u32;
        let _dirty = cur.counted("memory-dirty")?;
        let enc_len = cur.counted("memory-delta")?;
        cur.take(enc_len)?;
        let predictors = cur
            .section("predictor")?
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        Ok(SnapshotInfo {
            trace_format_version,
            parent_digest,
            record_index,
            mem_words,
            executed,
            output_words,
            halted,
            predictors,
        })
    }

    /// The predictor blob for `name`, when carried.
    #[must_use]
    pub fn predictor_state(&self, name: &str) -> Option<&[u8]> {
        self.predictors
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, blob)| blob.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dee_isa::{Assembler, Reg};
    use dee_vm::Machine;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dee_snap_unit_{}_{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn looped(n: i32) -> dee_isa::Program {
        let mut asm = Assembler::new();
        let r1 = Reg::new(1);
        asm.li(r1, n);
        asm.label("top");
        asm.sw(r1, Reg::ZERO, 128);
        asm.out(r1);
        asm.addi(r1, r1, -1);
        asm.bgt_label(r1, Reg::ZERO, "top");
        asm.halt();
        asm.assemble().unwrap()
    }

    fn mid_run_snapshot(initial_memory: &[i32]) -> Snapshot {
        let program = looped(50);
        let mut machine = Machine::new();
        machine.try_load_memory(initial_memory).unwrap();
        let mut predictor = TwoBitCounter::new();
        for _ in 0..120 {
            let (_, record) = machine.step(&program).unwrap();
            if let Some(outcome) = record.branch {
                predictor.predict(record.pc);
                predictor.resolve(record.pc, outcome.taken);
            }
        }
        Snapshot {
            trace_format_version: dee_vm::TRACE_FORMAT_VERSION,
            parent_digest: 0xdead_beef_0123_4567,
            record_index: 120,
            machine: machine.snapshot_state(),
            predictors: vec![("2bc".to_string(), predictor.save_state())],
            prng_streams: vec![("loadgen".to_string(), vec![9, 9, 9, 9])],
        }
    }

    #[test]
    fn encode_decode_round_trip_is_lossless_and_deterministic() {
        let initial = vec![3, 1, 4, 1, 5];
        let snap = mid_run_snapshot(&initial);
        let bytes = snap.encode(&initial);
        assert_eq!(bytes, snap.encode(&initial), "encoding is deterministic");
        verify_snapshot_bytes(&bytes).expect("store-level framing verifies");
        let decoded = Snapshot::decode(&bytes, &initial).expect("decodes");
        assert_eq!(decoded, snap);
        let info = Snapshot::info(&bytes).expect("info reads");
        assert_eq!(info.record_index, 120);
        assert_eq!(info.parent_digest, snap.parent_digest);
        assert_eq!(info.mem_words, snap.machine.mem.len() as u32);
        assert_eq!(info.predictors, vec!["2bc".to_string()]);
        assert!(!info.halted);
    }

    #[test]
    fn memory_delta_stays_small() {
        // 4 MiB of machine memory with a handful of dirty words must
        // compress to well under a kilobyte — that is the point of
        // delta-compressing against the initial image.
        let initial = vec![7; 4096];
        let snap = mid_run_snapshot(&initial);
        let bytes = snap.encode(&initial);
        assert!(
            bytes.len() < 4096,
            "snapshot is {} bytes; delta compression regressed",
            bytes.len()
        );
    }

    #[test]
    fn restored_machine_resumes_bit_identically() {
        let program = looped(30);
        let initial = vec![11, 22, 33];
        // Oracle: run to completion in one go.
        let mut oracle = Machine::new();
        oracle.try_load_memory(&initial).unwrap();
        let mut oracle_records = Vec::new();
        loop {
            let (outcome, record) = oracle.step(&program).unwrap();
            oracle_records.push(record);
            if outcome == dee_vm::StepOutcome::Halted {
                break;
            }
        }
        // Cut a snapshot mid-run, round-trip it through bytes, restore
        // into a fresh machine, and replay the tail.
        let cut = 37usize;
        let mut machine = Machine::new();
        machine.try_load_memory(&initial).unwrap();
        let mut records = Vec::new();
        for _ in 0..cut {
            let (_, record) = machine.step(&program).unwrap();
            records.push(record);
        }
        let snap = Snapshot {
            trace_format_version: dee_vm::TRACE_FORMAT_VERSION,
            parent_digest: 1,
            record_index: cut as u64,
            machine: machine.snapshot_state(),
            predictors: vec![],
            prng_streams: vec![],
        };
        let decoded = Snapshot::decode(&snap.encode(&initial), &initial).expect("decodes");
        let mut resumed = Machine::new();
        resumed.restore_state(&decoded.machine);
        loop {
            let (outcome, record) = resumed.step(&program).unwrap();
            records.push(record);
            if outcome == dee_vm::StepOutcome::Halted {
                break;
            }
        }
        assert_eq!(records, oracle_records, "warm tail diverged from oracle");
        assert_eq!(resumed.output(), oracle.output());
    }

    #[test]
    fn predictor_blobs_resume_all_three_predictors() {
        // Drive all three stateful predictors over a prefix, snapshot,
        // restore, and check the suffix behaves identically.
        let outcomes: Vec<(u32, bool)> = (0..500u32).map(|i| (i % 19, i % 3 != 1)).collect();
        let (prefix, suffix) = outcomes.split_at(310);
        let mut originals: Vec<Box<dyn BranchPredictor>> = vec![
            Box::new(TwoBitCounter::new()),
            Box::new(Gshare::new(12, 8)),
            Box::new(PapAdaptive::new()),
        ];
        for p in &mut originals {
            for &(pc, taken) in prefix {
                p.predict(pc);
                p.resolve(pc, taken);
            }
        }
        let snap = Snapshot {
            trace_format_version: 1,
            parent_digest: 2,
            record_index: prefix.len() as u64,
            machine: Machine::new().snapshot_state(),
            predictors: originals
                .iter()
                .map(|p| (p.name().to_string(), p.save_state()))
                .collect(),
            prng_streams: vec![],
        };
        let initial: Vec<i32> = vec![];
        let decoded = Snapshot::decode(&snap.encode(&initial), &initial).expect("decodes");
        let mut restored: Vec<Box<dyn BranchPredictor>> = vec![
            Box::new(TwoBitCounter::new()),
            Box::new(Gshare::new(12, 8)),
            Box::new(PapAdaptive::new()),
        ];
        for r in &mut restored {
            let blob = decoded.predictor_state(r.name()).expect("blob carried");
            r.load_state(blob).expect("loads");
        }
        for (p, r) in originals.iter_mut().zip(&mut restored) {
            for &(pc, taken) in suffix {
                assert_eq!(p.predict(pc), r.predict(pc), "{} diverged", p.name());
                p.resolve(pc, taken);
                r.resolve(pc, taken);
            }
        }
    }

    #[test]
    fn corruption_anywhere_is_detected() {
        let initial = vec![1, 2, 3];
        let snap = mid_run_snapshot(&initial);
        let bytes = snap.encode(&initial);
        // Flip one byte at a spread of offsets: every flip must fail
        // decode (almost always at the checksum; interior flips that
        // also break layout must never panic).
        for offset in (0..bytes.len()).step_by(bytes.len() / 23 + 1) {
            let mut bad = bytes.clone();
            bad[offset] ^= 0x10;
            assert!(
                Snapshot::decode(&bad, &initial).is_err(),
                "flip at {offset} went undetected"
            );
        }
        // Truncations too.
        for cut in [0, 7, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(Snapshot::decode(&bytes[..cut], &initial).is_err());
        }
    }

    #[test]
    fn resealed_counts_are_refused_before_they_size_an_allocation() {
        let initial = vec![1, 2, 3];
        let snap = mid_run_snapshot(&initial);
        let bytes = snap.encode(&initial);
        // Header, then regs, pc, halted, depth and executed, then the
        // output count; the memory and dirty counts follow the output.
        let output_at = SNAPSHOT_MAGIC.len() + 24 + 4 + 4 * MachineState::REG_COUNT + 17;
        let memory_at = output_at + 4 + 4 * snap.machine.output.len();
        let count = |bytes: &[u8], at: usize| {
            u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
        };
        assert_eq!(count(&bytes, output_at), snap.machine.output.len());
        assert_eq!(count(&bytes, memory_at), snap.machine.mem.len());
        let dirty = snap.machine.mem.len() as u32 + 1;
        for (at, value, named) in [
            (memory_at, 1u32 << 28, "memory"),
            (output_at, 1 << 28, "output"),
            (memory_at + 4, dirty, "dirty"),
        ] {
            // Patch the count and reseal: the checksum passes, so only the
            // field decoder stands between the count and an allocation.
            let mut bad = bytes.clone();
            bad[at..at + 4].copy_from_slice(&value.to_le_bytes());
            let end = bad.len() - 8;
            let sum = checksum64(&bad[..end]);
            bad[end..].copy_from_slice(&sum.to_le_bytes());
            assert!(verify_snapshot_bytes(&bad).is_ok(), "{named}: not resealed");
            match Snapshot::decode(&bad, &initial) {
                Ok(_) => panic!("{named}: a resealed count of {value} decoded"),
                Err(err) => assert!(err.contains(named), "{named}: {err}"),
            }
        }
    }

    #[test]
    fn filenames_round_trip_and_nearest_picks_the_floor() {
        let key = ArtifactKey::new("fig5", "small", "listing", &[1, 2, 3]);
        let name = snapshot_filename(&key, 8192);
        assert!(name.ends_with("-r8192.dsnp"), "{name}");
        assert!(dee_store::valid_artifact_name(&name), "{name}");
        assert_eq!(parse_record_index(&name, &key), Some(8192));
        let other = ArtifactKey::new("fig5", "tiny", "listing", &[1, 2, 3]);
        assert_eq!(parse_record_index(&name, &other), None);

        let dir = scratch("nearest");
        let store = Store::open(&dir).unwrap();
        let initial = vec![1, 2, 3];
        for index in [0u64, 4096, 8192, 12288] {
            let mut snap = mid_run_snapshot(&initial);
            snap.record_index = index;
            store
                .put_snapshot(&snapshot_filename(&key, index), &snap.encode(&initial))
                .unwrap();
        }
        assert_eq!(
            nearest_snapshot(&store, &key, 9000).map(|(i, _)| i),
            Some(8192)
        );
        assert_eq!(
            nearest_snapshot(&store, &key, 4096).map(|(i, _)| i),
            Some(4096)
        );
        assert_eq!(
            nearest_snapshot(&store, &key, u64::MAX).map(|(i, _)| i),
            Some(12288)
        );
        // Corrupt the nearest candidate on disk: it is quarantined and
        // the next older snapshot wins.
        let victim = dir.join(snapshot_filename(&key, 8192));
        let mut bad = std::fs::read(&victim).unwrap();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xFF;
        std::fs::write(&victim, &bad).unwrap();
        assert_eq!(
            nearest_snapshot(&store, &key, 9000).map(|(i, _)| i),
            Some(4096)
        );
        assert!(!victim.exists(), "corrupt snapshot quarantined");
        // At record 0 only the r0 snapshot qualifies.
        assert_eq!(nearest_snapshot(&store, &key, 0).map(|(i, _)| i), Some(0));
        std::fs::remove_dir_all(dir).ok();
    }
}

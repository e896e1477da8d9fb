//! `dee-store` — a persistent, checksummed trace-artifact store with
//! streaming replay.
//!
//! The paper's evaluation re-simulates the *same* dynamic traces (up to
//! 100 M instructions per benchmark) under dozens of resource/predictor
//! configurations. Tracing is the expensive, pure-function step; this
//! crate makes it a **record-once / replay-many** artifact:
//!
//! * [`container`] — the `DEESTOR1` chunked container format: per-chunk
//!   hand-rolled 64-bit checksums ([`checksum64`]), hand-rolled
//!   byte-oriented LZ/RLE compression ([`compress`]/[`decompress`]), and
//!   a seekable footer index, wrapping the existing `DEETRC1` trace
//!   layout;
//! * [`Store`] — content-addressed artifacts
//!   (`workload`-`scale`-`v<fmt>`-`digest`) published atomically
//!   (write-to-temp + rename) and read fail-closed: corruption is
//!   quarantined with a typed error, never a panic, and
//!   [`Store::get_or_record`] transparently falls back to re-tracing;
//! * [`StoreReader`] — yields one `TraceRecord` at a time
//!   ([`StoreReader::next_record`]), so replay runs in constant memory
//!   regardless of trace length; `dee-serve`'s disk tier feeds it straight
//!   into trace preparation.
//!
//! The invariant threaded through everything: **replay is byte-identical
//! to re-tracing**. Consumers (`Suite::from_workloads` in dee-bench,
//! `dee-serve`'s disk cache tier, the `dee trace` CLI) verify replayed output against the
//! workload reference and quarantine on any disagreement, so a store can
//! speed experiments up but can never silently change a result.
//!
//! See DESIGN.md §9 for the on-disk layout and the failure-mode table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checksum;
mod compress;
pub mod container;
mod store;

pub use checksum::checksum64;
pub use compress::{compress, decompress};
pub use container::{ContainerInfo, ContainerReader, ContainerWriter, DEFAULT_CHUNK_SIZE};
pub use dee_vm::{fnv1a, fnv1a_words};
pub use store::{
    info_file, valid_artifact_name, verify_file, verify_snapshot_bytes, ArtifactKey, GcReport,
    Store, StoreEntry, StoreError, StoreReader, StoreSource, StoreStats, VerifyReport,
    ARTIFACT_EXT, SNAPSHOT_EXT, SNAPSHOT_MAGIC,
};

#[cfg(test)]
mod tests {
    use super::*;
    use dee_isa::{Assembler, Reg};
    use dee_vm::{trace_program, Trace};
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dee_store_unit_{}_{tag}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
        }
        dir
    }

    fn sample_trace(n: i32) -> (Trace, ArtifactKey) {
        let mut asm = Assembler::new();
        let r1 = Reg::new(1);
        asm.li(r1, n);
        asm.label("top");
        asm.sw(r1, Reg::ZERO, 32);
        asm.addi(r1, r1, -1);
        asm.bgt_label(r1, Reg::ZERO, "top");
        asm.out(r1);
        asm.halt();
        let program = asm.assemble().unwrap();
        let trace = trace_program(&program, &[], 100_000).unwrap();
        let key = ArtifactKey::new("unit", &format!("n{n}"), &program.to_listing(), &[]);
        (trace, key)
    }

    #[test]
    fn put_load_round_trip() {
        let dir = scratch("round_trip");
        let store = Store::open(&dir).unwrap();
        let (trace, key) = sample_trace(40);
        assert!(!store.contains(&key));
        assert!(store.load(&key).unwrap().is_none());
        store.put(&key, &trace).unwrap();
        assert!(store.contains(&key));
        let loaded = store.load(&key).unwrap().expect("published");
        assert_eq!(loaded, trace);
        assert_eq!(loaded.output_checksum(), trace.output_checksum());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn artifact_bytes_are_deterministic() {
        let dir = scratch("determinism");
        let store = Store::open(&dir).unwrap();
        let (trace, key) = sample_trace(25);
        let first = store.put(&key, &trace).unwrap();
        let bytes_a = std::fs::read(&first).unwrap();
        let second = store.put(&key, &trace).unwrap();
        assert_eq!(first, second, "same key, same path");
        assert_eq!(bytes_a, std::fs::read(&second).unwrap(), "same content");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn get_or_record_records_once_then_replays() {
        let dir = scratch("record_replay");
        let store = Store::open(&dir).unwrap();
        let (trace, key) = sample_trace(12);
        let expected = trace.clone();
        let (first, source) = store
            .get_or_record(&key, || Ok::<_, String>(trace))
            .unwrap();
        assert_eq!(source, StoreSource::Vm);
        let (second, source) = store
            .get_or_record(&key, || Err::<Trace, _>("must not re-trace".to_string()))
            .unwrap();
        assert_eq!(source, StoreSource::Disk);
        assert_eq!(second, expected);
        assert_eq!(second.output(), first.output());
        assert_eq!(
            store
                .stats()
                .disk_hits
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        assert_eq!(
            store
                .stats()
                .writes
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corruption_quarantines_and_falls_back() {
        let dir = scratch("quarantine");
        let store = Store::open(&dir).unwrap();
        let (trace, key) = sample_trace(33);
        let path = store.put(&key, &trace).unwrap();
        // Flip one byte in the middle of the file.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = store.load(&key).expect_err("must detect corruption");
        match &err {
            StoreError::Corrupt { quarantined, .. } => {
                let q = quarantined.as_ref().expect("moved to quarantine");
                assert!(q.exists(), "quarantined file kept for inspection");
            }
            StoreError::Io(e) => panic!("expected Corrupt, got Io: {e}"),
        }
        assert!(!store.contains(&key), "corrupt file no longer published");
        // get_or_record degrades to re-tracing and re-publishes.
        let (replayed, source) = store
            .get_or_record(&key, || Ok::<_, String>(trace.clone()))
            .unwrap();
        assert_eq!(source, StoreSource::Vm);
        assert_eq!(replayed.output(), trace.output());
        assert!(store.contains(&key), "republished after fallback");
        assert_eq!(
            store
                .stats()
                .quarantined
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn streaming_reader_matches_eager_load() {
        let dir = scratch("streaming");
        let store = Store::open(&dir).unwrap();
        let (trace, key) = sample_trace(60);
        store.put(&key, &trace).unwrap();
        let mut reader = store.open_reader(&key).unwrap().expect("published");
        assert_eq!(reader.record_count(), trace.len() as u64);
        let mut streamed = Vec::new();
        while let Some(record) = reader.next_record().unwrap() {
            streamed.push(record);
        }
        assert!(streamed.into_iter().eq(trace.records()));
        assert_eq!(reader.read_output().unwrap(), trace.output());
        reader.finish().unwrap();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn list_gc_and_verify() {
        let dir = scratch("list_gc");
        let store = Store::open(&dir).unwrap();
        let (trace_a, key_a) = sample_trace(5);
        let (trace_b, key_b) = sample_trace(6);
        let path_a = store.put(&key_a, &trace_a).unwrap();
        store.put(&key_b, &trace_b).unwrap();
        let listed = store.list().unwrap();
        assert_eq!(listed.len(), 2);
        assert!(listed.windows(2).all(|w| w[0].name <= w[1].name));
        let report = verify_file(&path_a).expect("intact artifact verifies");
        assert_eq!(report.records, trace_a.len() as u64);
        assert_eq!(report.output_checksum, trace_a.output_checksum());
        let info = info_file(&path_a).expect("footer readable");
        assert!(info.total_raw > 0);
        // Corrupt key_a, trip quarantine, then gc clears it.
        let mut bytes = std::fs::read(&path_a).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        std::fs::write(&path_a, &bytes).unwrap();
        assert!(store.load(&key_a).is_err());
        let report = store.gc().unwrap();
        assert_eq!(report.quarantine_removed, 1);
        assert_eq!(store.gc().unwrap(), GcReport::default(), "gc is idempotent");
        std::fs::remove_dir_all(dir).ok();
    }

    fn sample_snapshot(payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SNAPSHOT_MAGIC);
        bytes.extend_from_slice(payload);
        let sum = checksum64(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn snapshot_put_load_round_trip_and_quarantine() {
        let dir = scratch("snapshot");
        let store = Store::open(&dir).unwrap();
        let name = "unit-tiny-v1-00000000000000aa-r4096.dsnp";
        let bytes = sample_snapshot(b"snapshot-payload");
        assert!(store.load_snapshot(name).unwrap().is_none());
        store.put_snapshot(name, &bytes).unwrap();
        assert_eq!(store.load_snapshot(name).unwrap().unwrap(), bytes);
        assert_eq!(store.list_snapshots().unwrap().len(), 1);
        assert!(store.list().unwrap().is_empty(), "dsnp not a trace");
        // Bad framing is refused at publish time.
        let mut bad = bytes.clone();
        bad[10] ^= 0x40;
        assert!(matches!(
            store.put_snapshot(name, &bad),
            Err(StoreError::Corrupt { .. })
        ));
        // On-disk corruption quarantines at load time.
        let path = dir.join(name);
        std::fs::write(&path, &bad).unwrap();
        match store.load_snapshot(name) {
            Err(StoreError::Corrupt { quarantined, .. }) => {
                assert!(quarantined.expect("moved").exists());
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert!(store.load_snapshot(name).unwrap().is_none());
        // Hostile names never touch the filesystem.
        for bad_name in ["../x.dsnp", "x.dtrc.dsnp.other", "UPPER.dsnp", "x"] {
            assert!(store.put_snapshot(bad_name, &bytes).is_err(), "{bad_name}");
            assert!(store.load_snapshot(bad_name).is_err(), "{bad_name}");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn verify_snapshot_bytes_rejects_bad_framing() {
        assert!(verify_snapshot_bytes(&sample_snapshot(b"ok")).is_ok());
        assert!(verify_snapshot_bytes(b"short").is_err());
        assert!(verify_snapshot_bytes(b"NOTSNAP_0123456789abcdef").is_err());
        let mut flipped = sample_snapshot(b"payload");
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert!(verify_snapshot_bytes(&flipped).is_err());
    }

    #[test]
    fn keys_separate_content_and_are_filename_safe() {
        let a = ArtifactKey::new("xlisp", "tiny", "listing-a", &[1, 2]);
        let b = ArtifactKey::new("xlisp", "tiny", "listing-b", &[1, 2]);
        let c = ArtifactKey::new("xlisp", "tiny", "listing-a", &[2, 1]);
        assert_ne!(a.digest, b.digest, "program content keyed");
        assert_ne!(a.digest, c.digest, "memory content keyed");
        let weird = ArtifactKey::new("Prog/RAM: 1", "A D-HOC", "l", &[]);
        for name in [a.filename(), weird.filename()] {
            assert!(
                name.chars()
                    .all(|ch| ch.is_ascii_lowercase() || ch.is_ascii_digit() || "-_.".contains(ch)),
                "{name}"
            );
            assert!(!name.contains(".."), "{name}");
            assert!(name.ends_with(".dtrc"), "{name}");
        }
        // Snapshot names are checked before any filesystem access: hostile
        // ones, and any other extension, are refused.
        assert!(valid_artifact_name("xlisp-tiny-r4096.dsnp"));
        for name in [
            "../escape.dsnp",
            "UPPER.dsnp",
            "x/y.dsnp",
            "",
            "plain",
            &a.filename(),
        ] {
            assert!(!valid_artifact_name(name), "{name}");
        }
    }

    #[test]
    fn version_mismatch_is_corruption() {
        let dir = scratch("version");
        let store = Store::open(&dir).unwrap();
        let (trace, key) = sample_trace(9);
        let path = store.put(&key, &trace).unwrap();
        // Bump the trace-format version field in the header (offset 12).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[12] ^= 0x02;
        std::fs::write(&path, &bytes).unwrap();
        match store.load(&key) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert!(detail.contains("trace format"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(dir).ok();
    }
}

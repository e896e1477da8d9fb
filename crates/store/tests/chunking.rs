//! Frame-alignment fuzz for the streaming replay path.
//!
//! `dee-serve`'s disk tier drains a `StoreReader` record by record
//! ([`StoreReader::next_record`], then `read_output` and `finish`) straight
//! into trace preparation, so its byte-identical guarantee rests on that
//! drain yielding *exactly* the record stream of a whole-trace read,
//! wherever records and the output stream land on `DEESTOR1` chunk
//! frames. This test publishes seeded random trace lengths (the last
//! reaches past the first 256 KiB frame) plus the degenerate empty trace,
//! and checks that a drained reader verifies the footer.
//!
//! [`StoreReader::next_record`]: dee_store::StoreReader::next_record

use std::io;
use std::path::PathBuf;

use dee_isa::{Assembler, Reg};
use dee_store::{ArtifactKey, Store, StoreReader};
use dee_vm::{Trace, TraceRecord};

fn scratch_store(tag: &str) -> (Store, PathBuf) {
    let dir = std::env::temp_dir().join(format!("dee_store_chunk_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    (Store::open(&dir).expect("open scratch store"), dir)
}

/// splitmix64 — the same mixer the store's checksum uses, here as a
/// deterministic fuzz PRNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A loop whose trace length scales with `n`, with a store/load pair so
/// records carry memory traffic across frame boundaries too.
fn looped_trace(n: i32) -> (Trace, ArtifactKey) {
    let mut asm = Assembler::new();
    let r1 = Reg::new(1);
    let r2 = Reg::new(2);
    asm.li(r1, n);
    asm.label("top");
    asm.sw(r1, Reg::ZERO, 64);
    asm.lw(r2, Reg::ZERO, 64);
    asm.addi(r1, r1, -1);
    asm.bgt_label(r1, Reg::ZERO, "top");
    asm.out(r2);
    asm.halt();
    let program = asm.assemble().expect("assembles");
    let trace = dee_vm::trace_program(&program, &[], 10_000_000).expect("runs");
    let key = ArtifactKey::new("chunkfuzz", &format!("n{n}"), &program.to_listing(), &[]);
    (trace, key)
}

/// Drains `reader` the way the disk tier does: every record, then the
/// output stream, then the footer and end-of-file check.
fn drain(reader: &mut StoreReader) -> io::Result<(Vec<TraceRecord>, Vec<i32>)> {
    let mut records = Vec::new();
    while let Some(record) = reader.next_record()? {
        records.push(record);
    }
    let output = reader.read_output()?;
    reader.finish()?;
    Ok((records, output))
}

fn open(store: &Store, key: &ArtifactKey) -> StoreReader {
    store
        .open_reader(key)
        .expect("open reader")
        .expect("published")
}

#[test]
fn replay_is_byte_identical_at_every_frame_alignment() {
    let (store, dir) = scratch_store("fuzz");
    let mut rng = Rng(0xdee5_eed5);
    // Seeded lengths put the last record and the output stream at varied
    // offsets within a frame; 4093 trips (16 375 records, 327 500 bytes)
    // cross the first 256 KiB frame boundary.
    let mut lengths: Vec<i32> = (0..6).map(|_| 1 + (rng.next() % 2_500) as i32).collect();
    lengths.push(4093);
    for n in lengths {
        let (trace, key) = looped_trace(n);
        store.put(&key, &trace).expect("publish");
        let mut reader = open(&store, &key);
        assert_eq!(reader.record_count(), trace.len() as u64);
        let (records, output) = drain(&mut reader).expect("drains");
        assert_eq!(
            records.as_slice(),
            trace.records(),
            "n={n}: records drifted"
        );
        assert_eq!(output.as_slice(), trace.output(), "n={n}: output drifted");
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn empty_trace_replays_cleanly() {
    let (store, dir) = scratch_store("empty");
    let trace = Trace::from_parts(vec![], vec![7, 8]);
    let key = ArtifactKey::new("chunkfuzz", "empty", "listing", &[]);
    store.put(&key, &trace).expect("publish empty trace");
    let mut reader = open(&store, &key);
    assert_eq!(reader.record_count(), 0);
    let (records, output) = drain(&mut reader).expect("drains");
    assert!(records.is_empty());
    assert_eq!(output, vec![7, 8]);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn finish_verifies_the_footer() {
    // A drained reader's `finish` includes the footer/EOF check, so
    // trailing garbage after the output stream is a replay error, not a
    // silent pass.
    let (store, dir) = scratch_store("footer");
    let (trace, key) = looped_trace(20);
    let path = store.put(&key, &trace).expect("publish");
    let mut bytes = std::fs::read(&path).expect("read");
    bytes.extend_from_slice(b"JUNKJUNK");
    std::fs::write(&path, &bytes).expect("rewrite");
    let err = drain(&mut open(&store, &key)).expect_err("trailing bytes must fail the stream");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    std::fs::remove_dir_all(dir).ok();
}

//! Record → publish → replay round trips over the real workload suite.
//!
//! The invariant the entire store rests on: a trace replayed from a
//! published artifact is *byte-identical* to a fresh VM run of the same
//! workload — same records, same output stream, same checksum, and the
//! same serialized bytes. Checked both through the eager `Store::load`
//! path and the constant-memory `StoreReader` streaming path.

use std::path::PathBuf;

use dee_store::{ArtifactKey, Store};
use dee_vm::{output_checksum, Trace};
use dee_workloads::{all_workloads, Scale, Workload};

fn scratch_store(tag: &str) -> (Store, PathBuf) {
    let dir = std::env::temp_dir().join(format!("dee_store_rt_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    (Store::open(&dir).expect("open scratch store"), dir)
}

fn key_for(workload: &Workload) -> ArtifactKey {
    ArtifactKey::new(
        &workload.name,
        "tiny",
        &workload.program.to_listing(),
        &workload.initial_memory,
    )
}

fn serialized(trace: &Trace) -> Vec<u8> {
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).expect("serialize trace");
    bytes
}

#[test]
fn every_workload_replays_byte_identical_through_both_read_paths() {
    let (store, dir) = scratch_store("suite");
    for workload in all_workloads(Scale::Tiny) {
        let fresh = workload.validate().expect("workload traces cleanly");
        let key = key_for(&workload);
        store.put(&key, &fresh).expect("publish artifact");

        // Eager path: the whole trace back in one call.
        let loaded = store
            .load(&key)
            .expect("read artifact")
            .expect("artifact exists");
        assert_eq!(loaded, fresh, "{key}: records drifted");
        assert_eq!(loaded.output(), fresh.output(), "{key}: output drifted");
        assert_eq!(
            output_checksum(loaded.output()),
            output_checksum(fresh.output()),
            "{key}: checksum drifted"
        );
        assert_eq!(
            serialized(&loaded),
            serialized(&fresh),
            "{key}: serialized bytes drifted"
        );

        // Streaming path: record-by-record, then output, then the
        // footer/EOF check.
        let mut reader = store
            .open_reader(&key)
            .expect("open reader")
            .expect("artifact exists");
        assert_eq!(reader.record_count(), fresh.len() as u64);
        let mut streamed = Vec::with_capacity(fresh.len());
        while let Some(record) = reader.next_record().expect("stream record") {
            streamed.push(record);
        }
        assert!(
            streamed.into_iter().eq(fresh.records()),
            "{key}: streamed records drift"
        );
        let output = reader.read_output().expect("stream output");
        assert_eq!(output, fresh.output(), "{key}: streamed output drifted");
        reader.finish().expect("footer verifies at EOF");

        // And the replay output still matches the workload's reference.
        assert_eq!(
            loaded.output(),
            workload.expected_output,
            "{key}: replay disagrees with the reference output"
        );
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn republish_is_idempotent_and_keys_separate_scales() {
    let (store, dir) = scratch_store("idempotent");
    let workload = dee_workloads::xlisp::build(Scale::Tiny);
    let trace = workload.validate().expect("trace");
    let key = key_for(&workload);
    let first = store.put(&key, &trace).expect("publish");
    let first_bytes = std::fs::read(&first).expect("read artifact");
    // Publishing the same content again lands on the same path with the
    // same bytes (last-rename-wins of identical files).
    let second = store.put(&key, &trace).expect("republish");
    assert_eq!(first, second);
    assert_eq!(std::fs::read(&second).expect("read artifact"), first_bytes);

    // A different scale is a different key — both coexist.
    let small = dee_workloads::xlisp::build(Scale::Small);
    let small_key = ArtifactKey::new(
        &small.name,
        "small",
        &small.program.to_listing(),
        &small.initial_memory,
    );
    assert_ne!(key.filename(), small_key.filename());
    store
        .put(&small_key, &small.validate().expect("trace"))
        .expect("publish small");
    assert!(store.contains(&key) && store.contains(&small_key));
    assert_eq!(store.list().expect("list").len(), 2);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn published_container_bytes_are_pinned() {
    // Pinned: the `DEESTOR1` file `Store::put` writes for compress and
    // cc1 at tiny. Its length and checksum cover the container framing,
    // the LZ token stream and the `DEETRC1` layout at once, so any change
    // to the bytes on disk fails here and must bump a format version.
    // compress makes no call; cc1 changes call depth at 2,068 of its
    // 25,852 records, so its pin also covers the depth field.
    let (store, dir) = scratch_store("pinned");
    for (workload, len, checksum) in [
        (
            dee_workloads::compress::build(Scale::Tiny),
            13_211,
            0x37f4_3756_c76f_e474,
        ),
        (
            dee_workloads::cc1::build(Scale::Tiny),
            90_859,
            0x29ca_6cd5_6522_ac5c,
        ),
    ] {
        let trace = workload.validate().expect("trace");
        let path = store.put(&key_for(&workload), &trace).expect("publish");
        let bytes = std::fs::read(&path).expect("read artifact");
        assert_eq!(bytes.len(), len, "{}", workload.name);
        assert_eq!(dee_store::checksum64(&bytes), checksum, "{}", workload.name);
    }
    std::fs::remove_dir_all(dir).ok();
}

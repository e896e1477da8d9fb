//! The static/dynamic cross-check through the persistent store: record
//! each workload's trace to disk, replay it, and verify the replayed
//! records against the static branch census. Corruption at either level —
//! a flipped byte in the on-disk container, or a mutated record in memory
//! — must surface as a *typed* error, never a panic.

use std::io::{Read, Seek, SeekFrom, Write};

use dee_analyze::{BranchCensus, CrossCheckError};
use dee_store::{ArtifactKey, Store, StoreError};
use dee_vm::{BranchOutcome, Trace};
use dee_workloads::{all_workloads, Scale, Workload};

fn temp_store(tag: &str) -> Store {
    let dir = std::env::temp_dir().join(format!("dee-crosscheck-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Store::open(&dir).expect("store opens")
}

fn key_for(w: &Workload) -> ArtifactKey {
    ArtifactKey::new(&w.name, "tiny", &w.program.to_listing(), &w.initial_memory)
}

#[test]
fn recorded_workload_traces_verify_against_the_census() {
    let store = temp_store("verify");
    for w in all_workloads(Scale::Tiny) {
        let key = key_for(&w);
        let trace = w.capture_trace().expect("workload traces");
        store.put(&key, &trace).expect("publish");
        // Round-trip through the container, then verify the *replayed*
        // records — this is the path `Suite::from_workloads` trusts.
        let replayed = store.load(&key).expect("load").expect("present");
        let census = BranchCensus::build(&w.program);
        let check = census
            .verify_trace(&replayed)
            .unwrap_or_else(|e| panic!("{}: replayed trace fails cross-check: {e}", w.name));
        assert_eq!(check.records, replayed.len() as u64, "{}", w.name);
        assert!(check.records > 0, "{}", w.name);
    }
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn flipped_byte_on_disk_is_a_typed_store_error() {
    let store = temp_store("byteflip");
    let w = dee_workloads::compress::build(Scale::Tiny);
    let key = key_for(&w);
    let trace = w.capture_trace().expect("traces");
    let path = store.put(&key, &trace).expect("publish");

    // Flip one byte in the middle of the record payload.
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .expect("open artifact");
    let len = file.metadata().expect("metadata").len();
    let offset = len / 2;
    file.seek(SeekFrom::Start(offset)).unwrap();
    let mut byte = [0u8; 1];
    file.read_exact(&mut byte).unwrap();
    file.seek(SeekFrom::Start(offset)).unwrap();
    file.write_all(&[byte[0] ^ 0xFF]).unwrap();
    drop(file);

    // The load must fail with a typed error (and quarantine), not panic
    // and not hand back a silently wrong trace.
    match store.load(&key) {
        Err(StoreError::Corrupt { .. }) | Err(StoreError::Io(_)) => {}
        Ok(Some(_)) => panic!("corrupt artifact loaded as if intact"),
        Ok(None) => {} // detected at open time and quarantined
    }
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn mutated_records_are_typed_cross_check_errors() {
    let w = dee_workloads::xlisp::build(Scale::Tiny);
    let census = BranchCensus::build(&w.program);
    let trace = w.capture_trace().expect("traces");
    let base: Vec<_> = trace.records().collect();
    let output = trace.output().to_vec();
    let branch_at = base
        .iter()
        .position(|r| r.is_cond_branch())
        .expect("xlisp has dynamic branches");

    // A pc past the end of the program.
    let mut records = base.clone();
    records[0].pc = w.program.len() as u32 + 7;
    let err = census
        .verify_trace(&Trace::from_parts(records, output.clone()))
        .unwrap_err();
    assert!(matches!(err, CrossCheckError::PcOutOfRange { .. }), "{err}");

    // A branch outcome on a non-branch instruction.
    let mut records = base.clone();
    let non_branch = base
        .iter()
        .position(|r| !r.is_cond_branch())
        .expect("non-branch record");
    records[non_branch].branch = Some(BranchOutcome {
        taken: true,
        target: 0,
    });
    let err = census
        .verify_trace(&Trace::from_parts(records, output.clone()))
        .unwrap_err();
    assert!(matches!(err, CrossCheckError::NotABranch { .. }), "{err}");

    // A taken-target that disagrees with the static instruction.
    let mut records = base.clone();
    let outcome = records[branch_at].branch.as_mut().unwrap();
    outcome.target = outcome.target.wrapping_add(1);
    let err = census
        .verify_trace(&Trace::from_parts(records, output.clone()))
        .unwrap_err();
    assert!(
        matches!(err, CrossCheckError::TargetMismatch { .. }),
        "{err}"
    );

    // A register operand that disagrees with the static def/uses.
    let mut records = base.clone();
    let with_dst = base
        .iter()
        .position(|r| r.dst.is_some())
        .expect("record with a destination");
    records[with_dst].dst = None;
    let err = census
        .verify_trace(&Trace::from_parts(records, output.clone()))
        .unwrap_err();
    assert!(
        matches!(err, CrossCheckError::OperandMismatch { .. }),
        "{err}"
    );

    // The intact trace still verifies — the mutations above were the only
    // thing standing between it and a pass.
    census
        .verify_trace(&Trace::from_parts(base, output))
        .expect("unmutated records verify");
}

//! Compact binary serialization for captured traces.
//!
//! Large evaluations (the paper ran up to 100 M instructions per
//! benchmark) want to capture a trace once and re-simulate it many times.
//! [`Trace::write_to`] / [`Trace::read_from`] store records in a fixed
//! 20-byte little-endian layout plus the output stream:
//!
//! ```text
//! magic "DEETRC1\0" | u64 record count
//! per record: u32 pc | u8 src0 | u8 src1 | u8 dst | u8 flags
//!             | u32 mem addr | u32 branch target | u16 depth
//! u64 output count | i32 output words
//! ```
//!
//! Register fields use `0xFF` for "none"; `flags` bits: 0 = mem read,
//! 1 = mem write, 2 = conditional branch, 3 = branch taken.
//!
//! [`TraceReader`] exposes the same stream incrementally — one record at
//! a time — so consumers like `dee-store` can verify or replay a
//! 100 M-instruction trace without materializing the record vector.
//! [`Trace::read_from`] is built on top of it and additionally rejects
//! trailing garbage: a valid stream ends exactly at the last output word.

use std::io::{self, Read, Write};

use dee_isa::Reg;

use crate::machine::DEFAULT_MEM_WORDS;
use crate::trace::{BranchOutcome, Trace, TraceBuilder, TraceRecord};

const MAGIC: &[u8; 8] = b"DEETRC1\0";
const NO_REG: u8 = 0xFF;

/// Version of the `DEETRC1` record layout. Artifact stores bake this into
/// their content-addressed keys so a future layout change can never be
/// misread as the old one.
pub const TRACE_FORMAT_VERSION: u32 = 1;

/// Serialized size of one [`TraceRecord`].
pub const RECORD_BYTES: usize = 20;

/// Cap on the *up-front* `Vec` reservation while deserializing. Hostile
/// headers can claim 2^64 records; real ones prove their claim by
/// actually delivering bytes, so we pre-reserve at most this many
/// entries and let the vector grow normally past it.
const MAX_PREALLOC_ENTRIES: usize = 1 << 16;

const FLAG_MEM_READ: u8 = 1 << 0;
const FLAG_MEM_WRITE: u8 = 1 << 1;
const FLAG_BRANCH: u8 = 1 << 2;
const FLAG_TAKEN: u8 = 1 << 3;
/// Bits 4..8 are reserved and must be zero on disk.
const FLAG_KNOWN: u8 = FLAG_MEM_READ | FLAG_MEM_WRITE | FLAG_BRANCH | FLAG_TAKEN;

fn reg_byte(reg: Option<Reg>) -> u8 {
    reg.map_or(NO_REG, |r| r.index() as u8)
}

fn byte_reg(byte: u8, what: &str) -> io::Result<Option<Reg>> {
    if byte == NO_REG {
        return Ok(None);
    }
    Reg::try_new(byte).map(Some).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad {what} register {byte}"),
        )
    })
}

/// Decodes one 20-byte record. Shared by the eager and streaming readers.
///
/// A memory access at or past [`DEFAULT_MEM_WORDS`] is refused: every
/// machine that captures a trace has that memory, and the simulators size
/// their memory tables by the largest address, so a resealed address
/// near `u32::MAX` would otherwise cost gigabytes.
fn decode_record(buffer: &[u8; RECORD_BYTES]) -> io::Result<TraceRecord> {
    let flags = buffer[7];
    if flags & !FLAG_KNOWN != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad record flags {flags:#04x}"),
        ));
    }
    let mem = u32::from_le_bytes(buffer[8..12].try_into().expect("4 bytes"));
    if flags & (FLAG_MEM_READ | FLAG_MEM_WRITE) != 0 && mem as usize >= DEFAULT_MEM_WORDS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("memory address {mem} past the machine's {DEFAULT_MEM_WORDS} words"),
        ));
    }
    let branch = if flags & FLAG_BRANCH != 0 {
        Some(BranchOutcome {
            taken: flags & FLAG_TAKEN != 0,
            target: u32::from_le_bytes(buffer[12..16].try_into().expect("4 bytes")),
        })
    } else {
        None
    };
    Ok(TraceRecord {
        pc: u32::from_le_bytes(buffer[0..4].try_into().expect("4 bytes")),
        srcs: [byte_reg(buffer[4], "src0")?, byte_reg(buffer[5], "src1")?],
        dst: byte_reg(buffer[6], "dst")?,
        mem_read: (flags & FLAG_MEM_READ != 0).then_some(mem),
        mem_write: (flags & FLAG_MEM_WRITE != 0).then_some(mem),
        branch,
        depth: u32::from(u16::from_le_bytes(
            buffer[16..18].try_into().expect("2 bytes"),
        )),
    })
}

/// An incremental reader for the `DEETRC1` stream: records first, then
/// the output words, then (optionally) an end-of-stream check.
///
/// ```no_run
/// # use dee_vm::TraceReader;
/// let file = std::fs::File::open("trace.bin").unwrap();
/// let mut reader = TraceReader::new(std::io::BufReader::new(file)).unwrap();
/// while let Some(record) = reader.next_record().unwrap() {
///     let _ = record.pc; // stream without holding every record
/// }
/// let output = reader.read_output().unwrap();
/// reader.expect_end().unwrap();
/// # let _ = output;
/// ```
pub struct TraceReader<R> {
    reader: R,
    total_records: u64,
    remaining_records: u64,
    output_read: bool,
}

impl<R: Read> TraceReader<R> {
    /// Reads and validates the magic and record count.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a bad magic, or any transport error.
    pub fn new(mut reader: R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad trace magic",
            ));
        }
        let mut len8 = [0u8; 8];
        reader.read_exact(&mut len8)?;
        let total_records = u64::from_le_bytes(len8);
        Ok(TraceReader {
            reader,
            total_records,
            remaining_records: total_records,
            output_read: false,
        })
    }

    /// The record count the header claims (trust it only as far as the
    /// stream delivers).
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.total_records
    }

    /// Records not yet consumed.
    #[must_use]
    pub fn records_remaining(&self) -> u64 {
        self.remaining_records
    }

    /// Yields the next record, or `None` once all records are consumed.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a malformed record, `UnexpectedEof` on
    /// truncation, or any transport error.
    pub fn next_record(&mut self) -> io::Result<Option<TraceRecord>> {
        if self.remaining_records == 0 {
            return Ok(None);
        }
        let mut buffer = [0u8; RECORD_BYTES];
        self.reader.read_exact(&mut buffer)?;
        self.remaining_records -= 1;
        decode_record(&buffer).map(Some)
    }

    /// Reads the output stream. Any records not yet consumed are read
    /// through (and validated) first, so this may be called at any point.
    ///
    /// # Errors
    ///
    /// Propagates record/transport errors, or `InvalidData` if called
    /// twice.
    pub fn read_output(&mut self) -> io::Result<Vec<i32>> {
        if self.output_read {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "output stream already consumed",
            ));
        }
        while self.next_record()?.is_some() {}
        self.output_read = true;
        let mut len8 = [0u8; 8];
        self.reader.read_exact(&mut len8)?;
        let out_count = u64::from_le_bytes(len8);
        let prealloc = usize::try_from(out_count)
            .unwrap_or(usize::MAX)
            .min(MAX_PREALLOC_ENTRIES);
        let mut output = Vec::with_capacity(prealloc);
        let mut word = [0u8; 4];
        for _ in 0..out_count {
            self.reader.read_exact(&mut word)?;
            output.push(i32::from_le_bytes(word));
        }
        Ok(output)
    }

    /// Asserts the stream ends here — exactly one trace, nothing after.
    ///
    /// # Errors
    ///
    /// `InvalidData` when trailing bytes remain (or the output stream was
    /// never consumed), or any transport error.
    pub fn expect_end(mut self) -> io::Result<()> {
        if !self.output_read {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "output stream not consumed before end check",
            ));
        }
        let mut probe = [0u8; 1];
        match self.reader.read(&mut probe) {
            Ok(0) => Ok(()),
            Ok(_) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "trailing garbage after trace output stream",
            )),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => self.expect_end_slow(),
            Err(e) => Err(e),
        }
    }

    /// Retry loop for the (rare) `Interrupted` case of `expect_end`.
    fn expect_end_slow(mut self) -> io::Result<()> {
        let mut probe = [0u8; 1];
        loop {
            match self.reader.read(&mut probe) {
                Ok(0) => return Ok(()),
                Ok(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "trailing garbage after trace output stream",
                    ))
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Whether [`read_output`](Self::read_output) has been called.
    #[must_use]
    pub fn output_consumed(&self) -> bool {
        self.output_read
    }

    /// Borrows the underlying transport (for callers that run their own
    /// framing checks once the logical stream is consumed).
    pub fn transport_mut(&mut self) -> &mut R {
        &mut self.reader
    }

    /// Unwraps the underlying reader (for callers that frame the trace
    /// themselves and expect more data after it).
    pub fn into_inner(self) -> R {
        self.reader
    }
}

impl Trace {
    /// Serializes the trace.
    ///
    /// # Errors
    ///
    /// Propagates writer errors. A record with call depth above
    /// `u16::MAX`, or one that reads one address and writes another (the
    /// format holds one address a record), is rejected as
    /// unrepresentable with `InvalidInput`.
    pub fn write_to<W: Write>(&self, mut writer: W) -> io::Result<()> {
        writer.write_all(MAGIC)?;
        writer.write_all(&(self.len() as u64).to_le_bytes())?;
        let mut buffer = [0u8; RECORD_BYTES];
        for record in self.records() {
            let depth = u16::try_from(record.depth).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidInput, "call depth exceeds u16")
            })?;
            if let (Some(read), Some(write)) = (record.mem_read, record.mem_write) {
                if read != write {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        "record reads and writes different addresses",
                    ));
                }
            }
            let mut flags = 0u8;
            let mut mem = 0u32;
            if let Some(addr) = record.mem_read {
                flags |= FLAG_MEM_READ;
                mem = addr;
            }
            if let Some(addr) = record.mem_write {
                flags |= FLAG_MEM_WRITE;
                mem = addr;
            }
            let mut target = 0u32;
            if let Some(branch) = record.branch {
                flags |= FLAG_BRANCH;
                if branch.taken {
                    flags |= FLAG_TAKEN;
                }
                target = branch.target;
            }
            buffer[0..4].copy_from_slice(&record.pc.to_le_bytes());
            buffer[4] = reg_byte(record.srcs[0]);
            buffer[5] = reg_byte(record.srcs[1]);
            buffer[6] = reg_byte(record.dst);
            buffer[7] = flags;
            buffer[8..12].copy_from_slice(&mem.to_le_bytes());
            buffer[12..16].copy_from_slice(&target.to_le_bytes());
            buffer[16..18].copy_from_slice(&depth.to_le_bytes());
            buffer[18] = 0;
            buffer[19] = 0;
            writer.write_all(&buffer)?;
        }
        writer.write_all(&(self.output().len() as u64).to_le_bytes())?;
        for &word in self.output() {
            writer.write_all(&word.to_le_bytes())?;
        }
        Ok(())
    }

    /// Deserializes a trace written by [`write_to`](Trace::write_to).
    ///
    /// The stream must contain exactly one trace: trailing bytes after
    /// the output stream are rejected, and the up-front `record count` /
    /// `output count` claims are never trusted for allocation (a hostile
    /// header cannot force a huge reservation — the stream has to deliver
    /// the bytes).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a bad magic, malformed record, trailing
    /// garbage, or truncation.
    pub fn read_from<R: Read>(reader: R) -> io::Result<Trace> {
        let mut stream = TraceReader::new(reader)?;
        let prealloc = usize::try_from(stream.record_count())
            .unwrap_or(usize::MAX)
            .min(MAX_PREALLOC_ENTRIES);
        let mut builder = TraceBuilder::new();
        builder.reserve(prealloc);
        while let Some(record) = stream.next_record()? {
            builder.push(&record);
        }
        let output = stream.read_output()?;
        stream.expect_end()?;
        Ok(builder.finish(output))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_program;
    use dee_isa::Assembler;

    fn branchy_trace() -> Trace {
        let mut asm = Assembler::new();
        let (r1, r2) = (Reg::new(1), Reg::new(2));
        asm.li(r1, 5);
        asm.li(r2, 0);
        asm.label("top");
        asm.sw(r1, Reg::ZERO, 64);
        asm.lw(r2, Reg::ZERO, 64);
        asm.call_label("bump");
        asm.bgt_label(r1, Reg::ZERO, "top");
        asm.out(r2);
        asm.halt();
        asm.label("bump");
        asm.addi(r1, r1, -1);
        asm.ret();
        let p = asm.assemble().unwrap();
        trace_program(&p, &[], 10_000).unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let trace = branchy_trace();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        let restored = Trace::read_from(bytes.as_slice()).unwrap();
        assert_eq!(restored, trace);
        assert_eq!(restored.output_checksum(), trace.output_checksum());
    }

    #[test]
    fn record_size_is_fixed() {
        let trace = branchy_trace();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        assert_eq!(
            bytes.len(),
            8 + 8 + RECORD_BYTES * trace.len() + 8 + 4 * trace.output().len()
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let err = Trace::read_from(&b"NOTATRACE........."[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncation_rejected() {
        let trace = branchy_trace();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        bytes.truncate(bytes.len() / 2);
        assert!(Trace::read_from(bytes.as_slice()).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let trace = branchy_trace();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        bytes.push(0);
        let err = Trace::read_from(bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("trailing"), "{err}");
        // Even a whole second trace counts as garbage: the format is one
        // trace per stream.
        let mut doubled = Vec::new();
        trace.write_to(&mut doubled).unwrap();
        trace.write_to(&mut doubled).unwrap();
        assert!(Trace::read_from(doubled.as_slice()).is_err());
    }

    #[test]
    fn hostile_record_count_does_not_preallocate() {
        // Claims u64::MAX records but delivers none: must fail with a
        // clean truncation error, not an OOM from Vec::with_capacity.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = Trace::read_from(bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn hostile_output_count_does_not_preallocate() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&(u64::MAX / 2).to_le_bytes());
        let err = Trace::read_from(bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn reserved_flag_bits_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&1u64.to_le_bytes());
        let mut record = [0u8; RECORD_BYTES];
        record[4] = NO_REG;
        record[5] = NO_REG;
        record[6] = NO_REG;
        record[7] = 0x80; // reserved bit set
        bytes.extend_from_slice(&record);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        let err = Trace::read_from(bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("flags"), "{err}");
    }

    #[test]
    fn bad_register_byte_rejected() {
        // Hand-build a stream with one record whose src0 byte is an
        // out-of-range (but non-sentinel) register.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&1u64.to_le_bytes());
        let mut record = [0u8; RECORD_BYTES];
        record[4] = 0x40; // register 64: invalid
        record[5] = NO_REG;
        record[6] = NO_REG;
        bytes.extend_from_slice(&record);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        let err = Trace::read_from(bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("src0"));
    }

    #[test]
    fn memory_address_past_the_machine_rejected() {
        // A one-record stream whose memory word is `addr` under `flags`:
        // only an access the flags declare is bounded.
        let stream = |addr: u32, flags: u8| {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(MAGIC);
            bytes.extend_from_slice(&1u64.to_le_bytes());
            let mut record = [0u8; RECORD_BYTES];
            record[4] = NO_REG;
            record[5] = NO_REG;
            record[6] = NO_REG;
            record[7] = flags;
            record[8..12].copy_from_slice(&addr.to_le_bytes());
            bytes.extend_from_slice(&record);
            bytes.extend_from_slice(&0u64.to_le_bytes());
            Trace::read_from(bytes.as_slice())
        };
        let top = DEFAULT_MEM_WORDS as u32;
        for flags in [FLAG_MEM_READ, FLAG_MEM_WRITE] {
            for addr in [top, 0xFFFF_FFF0] {
                let err = stream(addr, flags).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                assert!(err.to_string().contains("memory address"), "{err}");
            }
            let last = stream(top - 1, flags).unwrap().records().next().unwrap();
            assert_eq!(last.mem_read.or(last.mem_write), Some(top - 1));
        }
        assert!(stream(0xFFFF_FFF0, 0).is_ok(), "no access, no bound");
    }

    #[test]
    fn a_record_with_two_addresses_is_refused() {
        let record = TraceRecord {
            pc: 0,
            srcs: [None, None],
            dst: None,
            mem_read: Some(3),
            mem_write: Some(4),
            branch: None,
            depth: 0,
        };
        let mut bytes = Vec::new();
        let err = Trace::from_parts(vec![record], vec![])
            .write_to(&mut bytes)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("different addresses"), "{err}");
        // One address for both fields is what the format holds.
        let same = TraceRecord {
            mem_write: Some(3),
            ..record
        };
        let trace = Trace::from_parts(vec![same], vec![]);
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        assert_eq!(Trace::read_from(bytes.as_slice()).unwrap(), trace);
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = Trace::from_parts(vec![], vec![7, 8]);
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        let restored = Trace::read_from(bytes.as_slice()).unwrap();
        assert!(restored.is_empty());
        assert_eq!(restored.output(), &[7, 8]);
    }

    #[test]
    fn streaming_reader_yields_identical_records() {
        let trace = branchy_trace();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        let mut stream = TraceReader::new(bytes.as_slice()).unwrap();
        assert_eq!(stream.record_count(), trace.len() as u64);
        let mut streamed = Vec::new();
        while let Some(record) = stream.next_record().unwrap() {
            streamed.push(record);
        }
        assert!(streamed.into_iter().eq(trace.records()));
        assert_eq!(stream.read_output().unwrap(), trace.output());
        stream.expect_end().unwrap();
    }

    #[test]
    fn streaming_reader_can_skip_to_output() {
        let trace = branchy_trace();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        let mut stream = TraceReader::new(bytes.as_slice()).unwrap();
        // Consume only one record, then jump to the output: the reader
        // validates the skipped records on the way.
        let first = stream.next_record().unwrap().unwrap();
        assert_eq!(Some(first), trace.records().next());
        assert_eq!(stream.read_output().unwrap(), trace.output());
    }

    #[test]
    fn streaming_reader_guards_misuse() {
        let trace = Trace::from_parts(vec![], vec![1]);
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        let mut stream = TraceReader::new(bytes.as_slice()).unwrap();
        let _ = stream.read_output().unwrap();
        assert!(stream.read_output().is_err(), "double output read");
        let mut bytes2 = Vec::new();
        trace.write_to(&mut bytes2).unwrap();
        let stream = TraceReader::new(bytes2.as_slice()).unwrap();
        assert!(stream.expect_end().is_err(), "end before output");
    }
}

//! Little-endian read/write helpers shared by the predictor state blobs.
//!
//! Kept deliberately tiny: fixed-width integers and length-prefixed byte
//! runs, with a cursor-style reader that fails closed on truncation so a
//! corrupted snapshot can never half-load a predictor.

/// Appends a `u32` in little-endian order.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A failing-closed cursor over a state blob.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wraps a blob.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        let b = self
            .bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "predictor state truncated".to_string())?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        let end = self
            .pos
            .checked_add(4)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| "predictor state truncated".to_string())?;
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&self.bytes[self.pos..end]);
        self.pos = end;
        Ok(u32::from_le_bytes(raw))
    }

    /// Reads exactly `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| "predictor state truncated".to_string())?;
        let run = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(run)
    }

    /// Bytes not yet read: the bound for any count read from the blob
    /// before it sizes an allocation.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Fails unless every byte has been consumed.
    pub fn finish(self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!(
                "predictor state has {} trailing bytes",
                self.bytes.len() - self.pos
            ))
        }
    }
}

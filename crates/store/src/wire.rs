//! Little-endian framed byte encoding with checksummed sections.
//!
//! The snapshot format's primitive layer: a [`ByteWriter`] appends
//! fixed-width little-endian scalars and raw `u64` plane words; a
//! [`ByteReader`] reads them back with explicit truncation errors
//! instead of panics. [`Section::frame`] wraps a payload in the
//! `magic | version | payload-length | payload | FNV-1a64` envelope
//! every on-disk artifact uses, and [`Section::open`] verifies the
//! envelope *before* any field of the payload is interpreted — a
//! corrupt file fails fast with
//! [`crate::StoreError::ChecksumMismatch`],
//! never with a half-loaded model.

use crate::error::StoreError;

/// FNV-1a 64-bit hash — the snapshot checksum. Not cryptographic (the
/// threat model here is bit rot and truncated writes, not forgery; key
/// *secrecy* is the vault's job), but strong enough that a corrupt
/// plane word cannot slip through unnoticed.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(0xcbf2_9ce4_8422_2325, bytes)
}

/// Incremental FNV-1a 64: folds `bytes` into a running hash state, so
/// checksums can be computed over streamed data (chunked snapshot
/// transfers) without buffering the whole artifact. Seed the state with
/// the FNV offset basis — [`fnv1a64`] is exactly
/// `fnv1a64_update(0xcbf2_9ce4_8422_2325, bytes)`.
#[must_use]
pub fn fnv1a64_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as its raw bit pattern (no text round-trip, so
    /// reload is bit-identical).
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends raw bytes verbatim (strings and opaque payloads).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a row of `u16` values verbatim (the serving wire
    /// protocol's packed quantized-level rows).
    pub fn put_u16s(&mut self, values: &[u16]) {
        for &v in values {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends packed plane words verbatim.
    pub fn put_words(&mut self, words: &[u64]) {
        for &w in words {
            self.put_u64(w);
        }
    }

    /// Appends a row of `i32` values verbatim.
    pub fn put_i32s(&mut self, values: &[i32]) {
        for &v in values {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Cursor-based little-endian decoder over a borrowed byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] when the input is exhausted.
    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] when the input is exhausted.
    pub fn get_u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] when the input is exhausted.
    pub fn get_u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] when the input is exhausted.
    pub fn get_u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads an `i64`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] when the input is exhausted.
    pub fn get_i64(&mut self) -> Result<i64, StoreError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads an `f32` from its raw bit pattern.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] when the input is exhausted.
    pub fn get_f32(&mut self) -> Result<f32, StoreError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads a `u64` and converts to `usize`, rejecting values that do
    /// not fit (or are absurd for a count field).
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] / [`StoreError::Malformed`].
    pub fn get_usize(&mut self) -> Result<usize, StoreError> {
        let v = self.get_u64()?;
        usize::try_from(v)
            .map_err(|_| StoreError::Malformed(format!("count {v} does not fit in usize")))
    }

    /// Reads an element count (as [`ByteReader::get_usize`]) and checks
    /// that `count` elements of at least `min_elem_bytes` each still fit
    /// in the unread input, so a count taken from the input can never
    /// size an allocation larger than the input itself.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] / [`StoreError::Malformed`].
    pub fn get_count(&mut self, min_elem_bytes: usize) -> Result<usize, StoreError> {
        let count = self.get_usize()?;
        if count > self.remaining() / min_elem_bytes.max(1) {
            return Err(StoreError::Malformed(format!(
                "count {count} of {min_elem_bytes}-byte elements exceeds the {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// Reads `n` raw bytes (strings and opaque payloads).
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] when the input is exhausted.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        self.take(n)
    }

    /// Reads `n` `u16` values (packed quantized-level rows).
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] when the input is exhausted.
    pub fn get_u16s(&mut self, n: usize) -> Result<Vec<u16>, StoreError> {
        let raw = self.take(
            n.checked_mul(2)
                .ok_or(StoreError::Malformed("value count overflows".to_owned()))?,
        )?;
        Ok(raw
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes(c.try_into().expect("len 2")))
            .collect())
    }

    /// Reads `n` packed plane words.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] when the input is exhausted.
    pub fn get_words(&mut self, n: usize) -> Result<Vec<u64>, StoreError> {
        let raw = self.take(
            n.checked_mul(8)
                .ok_or(StoreError::Malformed("word count overflows".to_owned()))?,
        )?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("len 8")))
            .collect())
    }

    /// Reads `n` `i32` values.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] when the input is exhausted.
    pub fn get_i32s(&mut self, n: usize) -> Result<Vec<i32>, StoreError> {
        let raw = self.take(
            n.checked_mul(4)
                .ok_or(StoreError::Malformed("value count overflows".to_owned()))?,
        )?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().expect("len 4")))
            .collect())
    }
}

/// The shared on-disk envelope: `magic (4) | version (u16) |
/// reserved (u16) | payload_len (u64) | payload | fnv1a64 (u64)`, with
/// the checksum taken over everything before it (header included, so a
/// spliced header cannot go unnoticed either).
#[derive(Debug, Clone, Copy)]
pub struct Section {
    /// Four-byte artifact magic.
    pub magic: [u8; 4],
    /// Newest version this build writes/reads.
    pub version: u16,
}

impl Section {
    /// Wraps `payload` in the checksummed envelope.
    #[must_use]
    pub fn frame(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(payload.len() + 24);
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Verifies the envelope and returns `(payload, checksum)`. The
    /// checksum is compared before any payload byte is interpreted.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadMagic`], [`StoreError::UnsupportedVersion`],
    /// [`StoreError::Truncated`] or [`StoreError::ChecksumMismatch`].
    pub fn open<'a>(&self, bytes: &'a [u8]) -> Result<(&'a [u8], u64), StoreError> {
        let mut r = ByteReader::new(bytes);
        let magic: [u8; 4] = r.take(4)?.try_into().expect("len 4");
        if magic != self.magic {
            return Err(StoreError::BadMagic {
                expected: self.magic,
                found: magic,
            });
        }
        let version = r.get_u16()?;
        if version > self.version {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: self.version,
            });
        }
        let _reserved = r.get_u16()?;
        let payload_len = r.get_usize()?;
        let payload = r.take(payload_len)?;
        let recorded = r.get_u64()?;
        let actual = fnv1a64(&bytes[..bytes.len() - r.remaining() - 8]);
        if recorded != actual {
            return Err(StoreError::ChecksumMismatch {
                expected: recorded,
                found: actual,
            });
        }
        if r.remaining() != 0 {
            return Err(StoreError::Malformed(format!(
                "{} trailing bytes after checksum",
                r.remaining()
            )));
        }
        Ok((payload, recorded))
    }
}

/// Atomically writes `bytes` to `path`: the data lands in a sibling
/// temporary file first and is `rename`d into place, so a crash mid-save
/// leaves either the old snapshot or the new one — never a torn file.
///
/// # Errors
///
/// Propagates file I/O errors (the temporary file is cleaned up on
/// failure where possible).
pub fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> Result<(), StoreError> {
    // The suffix appends to the full file name (never replaces the
    // extension), so `v1.hdsn` and `v1.hdky` in one directory get
    // distinct temporaries instead of colliding on `v1.tmp-write`.
    let mut tmp_name = path
        .file_name()
        .ok_or_else(|| StoreError::Malformed(format!("{} has no file name", path.display())))?
        .to_os_string();
    tmp_name.push(".tmp-write");
    let tmp = path.with_file_name(tmp_name);
    let result = (|| -> std::io::Result<()> {
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result.map_err(StoreError::Io)
}

/// Reads a snapshot or key file whole, refusing anything but a
/// regular file of at most `cap` bytes. Reload paths can be named by a
/// client, so `/dev/zero`, a FIFO or an oversized file must be an
/// error, not an unbounded read.
///
/// # Errors
///
/// [`StoreError::Malformed`] for a non-regular file or one over `cap`;
/// [`StoreError::Io`] when the file cannot be opened or read.
pub(crate) fn read_capped(path: &std::path::Path, cap: u64) -> Result<Vec<u8>, StoreError> {
    use std::io::Read as _;
    let meta = std::fs::metadata(path)?;
    if !meta.is_file() {
        return Err(StoreError::Malformed(format!(
            "{} is not a regular file",
            path.display()
        )));
    }
    let mut bytes = Vec::with_capacity(usize::try_from(meta.len().min(cap)).unwrap_or(0));
    std::fs::File::open(path)?
        .take(cap.saturating_add(1))
        .read_to_end(&mut bytes)?;
    if bytes.len() as u64 > cap {
        return Err(StoreError::Malformed(format!(
            "{} exceeds the {cap} byte artifact cap",
            path.display()
        )));
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: Section = Section {
        magic: *b"TEST",
        version: 3,
    };

    #[test]
    fn scalars_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(65_000);
        w.put_u32(4_000_000_000);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-42);
        w.put_f32(-0.0);
        w.put_usize(12345);
        w.put_bytes(b"raw");
        w.put_u16s(&[0, u16::MAX, 7]);
        w.put_words(&[1, u64::MAX]);
        w.put_i32s(&[-1, i32::MIN]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 65_000);
        assert_eq!(r.get_u32().unwrap(), 4_000_000_000);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.get_usize().unwrap(), 12345);
        assert_eq!(r.get_bytes(3).unwrap(), b"raw");
        assert_eq!(r.get_u16s(3).unwrap(), vec![0, u16::MAX, 7]);
        assert_eq!(r.get_words(2).unwrap(), vec![1, u64::MAX]);
        assert_eq!(r.get_i32s(2).unwrap(), vec![-1, i32::MIN]);
        assert_eq!(r.remaining(), 0);
        assert!(matches!(r.get_u8(), Err(StoreError::Truncated { .. })));
    }

    #[test]
    fn frame_open_roundtrip() {
        let framed = SEC.frame(b"hello planes");
        let (payload, checksum) = SEC.open(&framed).unwrap();
        assert_eq!(payload, b"hello planes");
        assert_ne!(checksum, 0);
    }

    #[test]
    fn single_bit_flip_is_detected() {
        let mut framed = SEC.frame(&[0u8; 64]);
        for i in 0..framed.len() - 8 {
            framed[i] ^= 0x10;
            let err = SEC.open(&framed).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::ChecksumMismatch { .. }
                        | StoreError::BadMagic { .. }
                        | StoreError::UnsupportedVersion { .. }
                        | StoreError::Truncated { .. }
                        | StoreError::Malformed(_)
                ),
                "byte {i}: {err}"
            );
            framed[i] ^= 0x10;
        }
        // pristine again
        assert!(SEC.open(&framed).is_ok());
    }

    #[test]
    fn truncation_is_detected() {
        let framed = SEC.frame(&[9u8; 32]);
        for cut in 0..framed.len() {
            assert!(SEC.open(&framed[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn newer_version_is_rejected() {
        let newer = Section {
            magic: *b"TEST",
            version: 4,
        };
        let framed = newer.frame(b"x");
        assert!(matches!(
            SEC.open(&framed),
            Err(StoreError::UnsupportedVersion {
                found: 4,
                supported: 3
            })
        ));
    }

    #[test]
    fn fnv_vectors() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn read_capped_refuses_directories_and_oversized_files() {
        let dir = std::env::temp_dir().join("hdc_store_wire_read_capped");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("art.bin");
        std::fs::write(&path, [7u8; 17]).unwrap();
        assert_eq!(read_capped(&path, 17).unwrap(), vec![7u8; 17]);
        assert!(matches!(
            read_capped(&path, 16),
            Err(StoreError::Malformed(_))
        ));
        assert!(matches!(
            read_capped(&dir, 1 << 20),
            Err(StoreError::Malformed(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_replaces_content() {
        let dir = std::env::temp_dir().join("hdc_store_wire_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        atomic_write(&path, b"one").unwrap();
        atomic_write(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        assert!(!dir.join("snap.bin.tmp-write").exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn atomic_write_temporaries_do_not_collide_across_extensions() {
        // `v1.hdsn` and `v1.hdky` share a stem; their temp files must
        // not (with_extension-style naming would map both to one path).
        let dir = std::env::temp_dir().join("hdc_store_wire_tmp_collision");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("v1.hdsn");
        let key = dir.join("v1.hdky");
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..50 {
                    atomic_write(&snap, b"snapshot-bytes").unwrap();
                }
            });
            s.spawn(|| {
                for _ in 0..50 {
                    atomic_write(&key, b"key-bytes").unwrap();
                }
            });
        });
        assert_eq!(std::fs::read(&snap).unwrap(), b"snapshot-bytes");
        assert_eq!(std::fs::read(&key).unwrap(), b"key-bytes");
        let _ = std::fs::remove_file(&snap);
        let _ = std::fs::remove_file(&key);
    }
}

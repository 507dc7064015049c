//! Framing: header layout, CRC32 integrity, incremental decoding.
//!
//! A frame on the wire is:
//!
//! ```text
//! offset  size  field
//! 0       2     magic  0x46 0x43  ("FC")
//! 2       1     protocol version  (PROTOCOL_VERSION)
//! 3       1     frame type tag    (Frame::tag)
//! 4       4     payload length, u32 LE  (<= MAX_FRAME_LEN)
//! 8       4     CRC32 (IEEE) of the payload, u32 LE
//! 12      len   payload
//! ```
//!
//! Decode errors split into **recoverable** (the frame header was sound,
//! so the decoder skips exactly that frame and can keep going — bad
//! checksum, malformed payload, unknown tag) and **fatal** (framing
//! itself is untrustworthy — wrong magic, wrong version, oversized
//! length; the decoder poisons and the connection must be dropped).
//! The recoverable class is what the corruption experiments count: a
//! payload byte flip always lands there via the CRC.

use crate::frame::Frame;

/// Bytes in a frame header.
pub const HEADER_LEN: usize = 12;

/// Maximum payload length. Frames above this are rejected on both
/// sides; 1 MiB comfortably fits the largest bounded message
/// (a max-size `SampleBatch` is ~500 KiB).
pub const MAX_FRAME_LEN: usize = 1 << 20;

const MAGIC: [u8; 2] = [0x46, 0x43];

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3), braided, tables built at compile time.
// ---------------------------------------------------------------------------

/// Independent CRC chains in a braided block (DESIGN §9.1).
const BRAID_LANES: usize = 4;

/// Bytes in a braided block: one little-endian `u64` word per lane.
const BRAID_BLOCK: usize = BRAID_LANES * 8;

/// `CRC_TABLES[0]` is the classic reflected byte table; `CRC_TABLES[j]`
/// advances a byte past `j` further zero bytes
/// (`t[j][i] = t[0][t[j-1][i] & 0xff] ^ (t[j-1][i] >> 8)`), so eight
/// input bytes fold in eight independent lookups instead of a chain of
/// eight dependent ones. 8 KiB.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        j += 1;
    }
    tables
}

/// `CRC_BRAID[j]` is `CRC_TABLES[j]` advanced past the other
/// `BRAID_LANES - 1` words of a block: byte `k` of a lane's word ends
/// up `(7 - k) + (BRAID_LANES - 1) * 8` bytes before that lane's next
/// word, so [`fold_word`] over these tables yields the lane's CRC
/// already positioned there. 8 KiB.
const fn build_braid_tables(t: &[[u32; 256]; 8]) -> [[u32; 256]; 8] {
    let mut braid = *t;
    let mut j = 0;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let mut w = 1;
            while w < BRAID_LANES {
                // A zero word: the slicing step with no data.
                braid[j][i] = fold_word(t, braid[j][i] as u64);
                w += 1;
            }
            i += 1;
        }
        j += 1;
    }
    braid
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();
static CRC_BRAID: [[u32; 256]; 8] = build_braid_tables(&CRC_TABLES);

/// Folds the eight bytes of `x` (little-endian) through `t`: byte `k`
/// reads `t[7 - k]`, the table that advances it past the `7 - k` bytes
/// after it.
#[inline(always)]
const fn fold_word(t: &[[u32; 256]; 8], x: u64) -> u32 {
    t[7][x as u8 as usize]
        ^ t[6][(x >> 8) as u8 as usize]
        ^ t[5][(x >> 16) as u8 as usize]
        ^ t[4][(x >> 24) as u8 as usize]
        ^ t[3][(x >> 32) as u8 as usize]
        ^ t[2][(x >> 40) as u8 as usize]
        ^ t[1][(x >> 48) as u8 as usize]
        ^ t[0][(x >> 56) as usize]
}

/// An eight-byte chunk as a little-endian word.
#[inline(always)]
fn le_word(w: &[u8]) -> u64 {
    u64::from_le_bytes(w.try_into().expect("an eight-byte chunk"))
}

/// CRC32 (IEEE) of `data`. From two 32-byte blocks on, four lanes
/// each take one eight-byte word of every block and run their own CRC
/// chain through the braid tables; the chains share no data, so their
/// table loads overlap. The last block folds the lanes into one CRC a
/// word at a time, and what is left (and every shorter input) goes
/// eight bytes per step, then the last `len % 8` one at a time. Same
/// polynomial, reflection, init and final XOR as the bytewise loop it
/// replaced, so frames and snapshot trailers are bit-compatible across
/// builds.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut rest = data;
    if data.len() >= 2 * BRAID_BLOCK {
        let mut blocks = data.chunks_exact(BRAID_BLOCK);
        rest = blocks.remainder();
        let last = blocks.next_back().expect("at least two blocks");
        // CRC is linear: the init value starts lane 0's chain, and the
        // other lanes' contributions are XORed in when they fold.
        let mut lanes = [0u32; BRAID_LANES];
        lanes[0] = c;
        for block in blocks {
            for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane = fold_word(&CRC_BRAID, le_word(w) ^ *lane as u64);
            }
        }
        c = 0;
        for (lane, w) in lanes.iter().zip(last.chunks_exact(8)) {
            c = fold_word(t, le_word(w) ^ (c ^ lane) as u64);
        }
    }
    let mut words = rest.chunks_exact(8);
    for w in &mut words {
        c = fold_word(t, le_word(w) ^ c as u64);
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a frame could not be encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The serialized payload exceeds [`MAX_FRAME_LEN`].
    Oversize {
        /// The payload length that was produced.
        len: usize,
    },
    /// A variable-length field exceeds its protocol cap.
    TooManyElements {
        /// Which field.
        what: &'static str,
        /// The offending length.
        len: usize,
        /// The cap.
        max: usize,
    },
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::Oversize { len } => {
                write!(
                    f,
                    "payload of {len} bytes exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}"
                )
            }
            EncodeError::TooManyElements { what, len, max } => {
                write!(f, "{what}: {len} exceeds protocol cap {max}")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// A malformed payload, with detail. Internal to decoding; surfaces as
/// [`DecodeError::BadPayload`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PayloadError(String);

impl PayloadError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        PayloadError(msg.into())
    }
}

/// Why a frame could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Recoverable: payload bytes do not match the header CRC.
    BadChecksum {
        /// CRC the header promised.
        expected: u32,
        /// CRC of the bytes that arrived.
        got: u32,
    },
    /// Recoverable: the payload did not parse for its tag (including an
    /// unknown tag — a newer peer's message skips cleanly).
    BadPayload(String),
    /// Fatal: the stream does not start with the protocol magic.
    BadMagic {
        /// The two bytes found where the magic should be.
        got: [u8; 2],
    },
    /// Fatal: the peer speaks a different protocol version.
    BadVersion {
        /// The version byte found.
        got: u8,
    },
    /// Fatal: the header announces a payload longer than
    /// [`MAX_FRAME_LEN`]; the length field cannot be trusted, so the
    /// stream cannot be resynchronized.
    Oversize {
        /// The announced payload length.
        len: u32,
    },
}

impl DecodeError {
    /// Fatal errors poison the decoder; the connection should be closed.
    /// Recoverable errors consumed exactly one frame — decoding may
    /// continue with the next one.
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            DecodeError::BadMagic { .. }
                | DecodeError::BadVersion { .. }
                | DecodeError::Oversize { .. }
        )
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadChecksum { expected, got } => {
                write!(f, "payload checksum {got:#010x} != header {expected:#010x}")
            }
            DecodeError::BadPayload(msg) => write!(f, "bad payload: {msg}"),
            DecodeError::BadMagic { got } => {
                write!(f, "bad magic {:#04x} {:#04x}", got[0], got[1])
            }
            DecodeError::BadVersion { got } => {
                write!(f, "unsupported protocol version {got}")
            }
            DecodeError::Oversize { len } => {
                write!(
                    f,
                    "announced payload of {len} bytes exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<PayloadError> for DecodeError {
    fn from(e: PayloadError) -> Self {
        DecodeError::BadPayload(e.0)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Serializes a frame: header + payload, ready to write to a socket.
pub fn encode(frame: &Frame) -> Result<Vec<u8>, EncodeError> {
    let mut buf = Vec::with_capacity(HEADER_LEN + 64);
    encode_into(frame, &mut buf)?;
    Ok(buf)
}

/// Serializes a frame into a caller-owned buffer, clearing it first.
/// The buffer's capacity is reused across calls — the readiness-loop
/// backend encodes every reply through one scratch buffer so steady
/// state allocates nothing per frame. On error the buffer contents are
/// unspecified (but safe to reuse).
pub fn encode_into(frame: &Frame, buf: &mut Vec<u8>) -> Result<(), EncodeError> {
    buf.clear();
    buf.resize(HEADER_LEN, 0);
    frame.encode_payload(buf)?;
    let payload_len = buf.len() - HEADER_LEN;
    if payload_len > MAX_FRAME_LEN {
        return Err(EncodeError::Oversize { len: payload_len });
    }
    let crc = crc32(&buf[HEADER_LEN..]);
    buf[0] = MAGIC[0];
    buf[1] = MAGIC[1];
    buf[2] = crate::frame::PROTOCOL_VERSION;
    buf[3] = frame.tag();
    buf[4..8].copy_from_slice(&(payload_len as u32).to_le_bytes());
    buf[8..12].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

impl Frame {
    /// Serializes this frame; see [`encode`].
    pub fn encode(&self) -> Result<Vec<u8>, EncodeError> {
        encode(self)
    }
}

// ---------------------------------------------------------------------------
// Incremental decoding
// ---------------------------------------------------------------------------

/// Incremental frame decoder. Feed bytes in with [`Decoder::push`] in
/// arbitrary chunks (as they arrive from a socket), pull frames out with
/// [`Decoder::next_frame`]. Never panics on garbage input.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    pos: usize,
    poisoned: Option<DecodeError>,
}

impl Decoder {
    /// A fresh decoder with an empty buffer.
    pub fn new() -> Self {
        Decoder::default()
    }

    /// Appends received bytes to the internal buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily so long sessions don't grow the buffer forever.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > MAX_FRAME_LEN) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by [`Decoder::next_frame`].
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Tries to decode the next complete frame.
    ///
    /// * `Ok(Some(frame))` — a frame was decoded and consumed.
    /// * `Ok(None)` — not enough bytes yet; push more.
    /// * `Err(e)` with `!e.is_fatal()` — the offending frame was
    ///   consumed; calling again continues with the next frame.
    /// * `Err(e)` with `e.is_fatal()` — the decoder is poisoned and will
    ///   return the same error forever; drop the connection.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, DecodeError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        let avail = &self.buf[self.pos..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        if avail[0] != MAGIC[0] || avail[1] != MAGIC[1] {
            return Err(self.poison(DecodeError::BadMagic {
                got: [avail[0], avail[1]],
            }));
        }
        if avail[2] != crate::frame::PROTOCOL_VERSION {
            return Err(self.poison(DecodeError::BadVersion { got: avail[2] }));
        }
        let tag = avail[3];
        let len = u32::from_le_bytes([avail[4], avail[5], avail[6], avail[7]]);
        if len as usize > MAX_FRAME_LEN {
            return Err(self.poison(DecodeError::Oversize { len }));
        }
        let expected_crc = u32::from_le_bytes([avail[8], avail[9], avail[10], avail[11]]);
        let total = HEADER_LEN + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let payload = &avail[HEADER_LEN..total];
        // Recoverable failures below consume the frame either way: the
        // header was sound, so the stream stays in sync.
        self.pos += total;
        let got_crc = crc32(payload);
        if got_crc != expected_crc {
            return Err(DecodeError::BadChecksum {
                expected: expected_crc,
                got: got_crc,
            });
        }
        match Frame::decode_payload(tag, payload) {
            Ok(frame) => Ok(Some(frame)),
            Err(e) => Err(e.into()),
        }
    }

    fn poison(&mut self, e: DecodeError) -> DecodeError {
        self.poisoned = Some(e.clone());
        e
    }
}

/// Decodes exactly one frame from a complete buffer. Convenience for
/// tests and single-request paths.
pub fn decode_one(bytes: &[u8]) -> Result<Frame, DecodeError> {
    let mut d = Decoder::new();
    d.push(bytes);
    match d.next_frame()? {
        Some(f) => Ok(f),
        None => Err(DecodeError::BadPayload("truncated frame".into())),
    }
}

// ---------------------------------------------------------------------------
// Payload byte reader
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over a payload slice.
pub(crate) struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], PayloadError> {
        if self.data.len() - self.pos < n {
            return Err(PayloadError::new(format!(
                "payload truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.data.len() - self.pos
            )));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The bytes not consumed yet.
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.data[self.pos..]
    }

    /// Bytes consumed so far.
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    /// The bytes consumed since `start`, a past [`Self::position`].
    pub(crate) fn since(&self, start: usize) -> &'a [u8] {
        &self.data[start..self.pos]
    }

    pub(crate) fn u8(&mut self) -> Result<u8, PayloadError> {
        Ok(self.bytes(1)?[0])
    }

    /// A strict boolean: 0 or 1, anything else is malformed.
    pub(crate) fn flag(&mut self) -> Result<bool, PayloadError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(PayloadError::new(format!(
                "flag byte {b} is neither 0 nor 1"
            ))),
        }
    }

    pub(crate) fn u32(&mut self) -> Result<u32, PayloadError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, PayloadError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, PayloadError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Asserts the payload was fully consumed.
    pub(crate) fn finish(self) -> Result<(), PayloadError> {
        if self.pos != self.data.len() {
            return Err(PayloadError::new(format!(
                "{} trailing bytes after payload",
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::ErrorCode;
    use proptest::prelude::*;

    /// The byte-at-a-time loop `crc32` replaced, kept verbatim as the
    /// oracle: every old peer and every snapshot on disk was written
    /// with it.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        !c
    }

    /// A fixed pseudo-random buffer.
    fn scrambled(len: usize) -> Vec<u8> {
        let mut rng = proptest::test_runner::TestRng::new(0x0123_4567_89ab_cdef);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check values; "123456789" is the canonical one.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xe8b7_be43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
        assert_eq!(crc32(&[0x00; 32]), 0x190a_55ad);
        assert_eq!(crc32(&[0xff; 32]), 0xff6c_ab0b);
        let ramp: Vec<u8> = (0..32).collect();
        assert_eq!(crc32(&ramp), 0x9126_7e8a);
    }

    #[test]
    fn crc32_equals_the_bytewise_oracle_at_every_length_and_offset() {
        // Up to eight braided blocks plus every tail length: each block
        // count (none, then the braid from two) meets every count of
        // leftover words and bytes. Offsets 0..8 cover every alignment
        // of the slice start.
        let max_len = 8 * BRAID_BLOCK + 7;
        let buf = scrambled(max_len + 8);
        for offset in 0..8 {
            for len in 0..=max_len {
                let s = &buf[offset..offset + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {offset}, len {len}");
            }
        }
    }

    #[test]
    fn braid_tables_advance_each_byte_past_the_rest_of_its_block() {
        // Byte k of a lane's word is followed by 7 - k bytes of its own
        // word and the other lanes' words before the lane's next word.
        for k in 0..8 {
            for b in 0..256 {
                let mut c = CRC_TABLES[0][b];
                for _ in 0..(7 - k) + (BRAID_LANES - 1) * 8 {
                    c = CRC_TABLES[0][(c & 0xff) as usize] ^ (c >> 8);
                }
                assert_eq!(CRC_BRAID[7 - k][b], c, "byte {k}, value {b}");
            }
        }
    }

    #[test]
    fn crc32_equals_the_bytewise_oracle_at_max_frame_len() {
        let buf = scrambled(MAX_FRAME_LEN);
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn crc32_equals_the_bytewise_oracle_on_random_buffers(
            buf in prop::collection::vec(any::<u8>(), 0..(64 * 1024 + 1)),
            skip in 0usize..8,
        ) {
            let s = &buf[skip.min(buf.len())..];
            prop_assert_eq!(crc32(s), crc32_bytewise(s));
        }
    }

    #[test]
    fn encode_into_reuses_the_buffer_and_matches_encode() {
        let frames = vec![
            Frame::Ack { seq: 17 },
            Frame::Error {
                code: ErrorCode::Internal,
                detail: "a somewhat longer detail string".into(),
            },
            Frame::Ack { seq: 18 },
        ];
        let mut buf = Vec::new();
        for f in &frames {
            encode_into(f, &mut buf).unwrap();
            assert_eq!(buf, encode(f).unwrap(), "same bytes as the Vec path");
            assert_eq!(decode_one(&buf).unwrap(), *f);
        }
        // The shrink back to a small frame must not leave stale bytes.
        assert_eq!(buf.len(), encode(&frames[2]).unwrap().len());
    }

    #[test]
    fn round_trip_simple_frame() {
        let f = Frame::QueryAvail {
            machine: 7,
            horizon: 1800,
        };
        let bytes = f.encode().unwrap();
        assert_eq!(&bytes[..2], &MAGIC);
        assert_eq!(decode_one(&bytes).unwrap(), f);
    }

    #[test]
    fn chunked_push_yields_same_frames() {
        let frames = vec![
            Frame::Ack { seq: 1 },
            Frame::Error {
                code: ErrorCode::Internal,
                detail: "boom".into(),
            },
            Frame::Place { job_len: 3600 },
        ];
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode().unwrap());
        }
        // Feed one byte at a time — worst-case fragmentation.
        let mut d = Decoder::new();
        let mut out = Vec::new();
        for b in stream {
            d.push(&[b]);
            while let Some(f) = d.next_frame().unwrap() {
                out.push(f);
            }
        }
        assert_eq!(out, frames);
    }

    #[test]
    fn payload_flip_is_recoverable_and_stream_continues() {
        let bad = Frame::Ack { seq: 42 };
        let good = Frame::Busy { shed_batches: 9 };
        let mut bytes = bad.encode().unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xa5; // flip a payload byte
        bytes.extend_from_slice(&good.encode().unwrap());
        let mut d = Decoder::new();
        d.push(&bytes);
        match d.next_frame() {
            Err(e @ DecodeError::BadChecksum { .. }) => assert!(!e.is_fatal()),
            other => panic!("expected checksum error, got {other:?}"),
        }
        assert_eq!(d.next_frame().unwrap(), Some(good));
    }

    #[test]
    fn bad_magic_poisons_the_decoder() {
        let mut bytes = Frame::Ack { seq: 1 }.encode().unwrap();
        bytes[0] = 0x00;
        let mut d = Decoder::new();
        d.push(&bytes);
        let e = d.next_frame().unwrap_err();
        assert!(e.is_fatal());
        assert_eq!(d.next_frame().unwrap_err(), e);
    }

    #[test]
    fn oversize_header_is_fatal() {
        let mut bytes = Frame::Ack { seq: 1 }.encode().unwrap();
        bytes[4..8].copy_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        let mut d = Decoder::new();
        d.push(&bytes);
        assert!(d.next_frame().unwrap_err().is_fatal());
    }

    #[test]
    fn unknown_tag_is_recoverable() {
        let mut bytes = Frame::Ack { seq: 1 }.encode().unwrap();
        bytes[3] = 200;
        let mut d = Decoder::new();
        d.push(&bytes);
        match d.next_frame() {
            Err(e @ DecodeError::BadPayload(_)) => assert!(!e.is_fatal()),
            other => panic!("expected payload error, got {other:?}"),
        }
        // Frame was consumed; the decoder is still usable.
        let f = Frame::Ack { seq: 2 };
        d.push(&f.encode().unwrap());
        assert_eq!(d.next_frame().unwrap(), Some(f));
    }
}

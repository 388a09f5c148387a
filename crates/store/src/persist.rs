//! Durability: a versioned, checksummed snapshot + write-ahead-log format
//! over a pluggable [`StorageBackend`], and the recovery path that rebuilds
//! an [`InvariantStore`] from it.
//!
//! # Format
//!
//! Everything on disk is built from one framing primitive:
//!
//! ```text
//! record := [payload_len: u32 LE] [payload] [crc32(payload): u32 LE]
//! ```
//!
//! The **WAL** is a plain concatenation of records, one per mutating
//! operation, appended *inside* the store's table-lock critical section so
//! WAL order is exactly id-assignment order. Payloads are tagged, and each
//! tag carries the format version in its high nibble and the record kind in
//! its low one:
//!
//! ```text
//! ingest := 0x21, seq: u64, id: u64, class: u64, code_hash: u64,
//!           new_class: u8, [invariant (only when new_class = 1)]
//! update := 0x23, then the ingest fields
//! remove := 0x22, seq: u64, id: u64
//! ```
//!
//! An update re-points live instance `id` at `class`, collecting its old
//! class if that empties; an update to the current class is a logged no-op.
//!
//! The **snapshot** is a magic + version header (`"TSNP"`, version: u32 LE)
//! followed by a single framed record holding the full live state:
//!
//! ```text
//! body := seq: u64, class_slots: u64, instance_slots: u64,
//!         live_classes: u64, (class: u64, code_hash: u64, invariant)*,
//!         live_instances: u64, (id: u64, class: u64)*
//! ```
//!
//! `seq` is the next WAL sequence number; the slot counts keep dead ids dead
//! after recovery. Each class carries its already-computed [`CodeHash`] —
//! **recovery never re-canonicalises**.
//!
//! Record and snapshot headers are fixed-width; the invariant body is
//! compact. It lists the fields of [`topo_invariant::InvariantParts`] in
//! order (encoded from the borrowed [`topo_invariant::InvariantPartsRef`]
//! view, decoded back into parts), every count and index an unsigned LEB128
//! varint `v` (seven bits per byte, low group first, the high bit set on
//! every byte but the last):
//!
//! ```text
//! invariant := regions: v, (name_len: v, name: UTF-8)*,
//!              vertices: v, vertex*, edges: v, edge*,
//!              faces: v, face_regions: set*, exterior_face: v
//! vertex    := slots: v, (edge << 1 | end: v)*, (sector face: v)*,
//!              isolated face + 1 (0 for none): v, regions: set, boundary: set
//! edge      := first end + 1 (0 for a closed curve): v, [second end: v],
//!              left face: v, right face: v, regions: set, boundary: set
//! set       := one v per started block of 64 regions: the set's bit word
//! ```
//!
//! A vertex has one sector per slot, so the sector count is not stored. The
//! decoder refuses a varint that is longer than it needs to be or exceeds
//! `u64`, an index past `u32`, a count larger than the bytes left (before
//! allocating for it), and a region bit at or past the schema's size.
//!
//! Bytes of another format version are refused as
//! [`PersistError::UnsupportedVersion`]: a snapshot by its header, a WAL
//! record by its tag (format 1 tags are `0x01`–`0x03`). No older version is
//! read.
//!
//! # Recovery contract
//!
//! [`InvariantStore::open`] loads the snapshot (a corrupt snapshot is a hard
//! [`PersistError::Corrupt`] — it is the base state, there is nothing to
//! fall back to), then replays WAL records in order, skipping records whose
//! `seq` predates the snapshot (they are already folded in, which makes a
//! crash *between* snapshot write and WAL reset harmless). A WAL tail that
//! is torn (incomplete frame) or fails its checksum is **truncated, never
//! trusted**: replay stops there and the event is counted in
//! [`StoreStats::wal_truncations`](crate::StoreStats::wal_truncations).
//! Because every record was appended under the store's table lock, any
//! surviving prefix of the WAL is a prefix of real operation history — which
//! is exactly the property the fault-injection suite checks recovered
//! stores against.
//!
//! Above pool size 1 the WAL replays in windows of frames: a sequential
//! pass splits a window off by frame lengths alone; when the window holds
//! 8 KiB or more, the global pool ([`topo_parallel::Pool`]) checks each
//! frame's checksum and decodes it, one record per task (a smaller window
//! is decoded on the calling thread); and the window's records are then
//! applied strictly in log order before the next window is split. Decoding
//! is pure, so the outcome is the sequential loop's at every pool size: the
//! first frame that is torn or fails its checksum ends the replay (records
//! decoded after it are dropped, never applied), and the first record in
//! log order that does not decode or apply is the error. At pool size 1 the
//! WAL replays one frame at a time on the calling thread.
//!
//! Both decoders apply what they read through the checked transitions the
//! live operations use (`tables.rs`), so checksum-valid bytes that no
//! operation history writes are a [`PersistError::Corrupt`], never a panic:
//!
//! * ascending ids: the snapshot lists classes, then instances, in strictly
//!   ascending id order below their slot counts (an unallocatable count is
//!   refused), and every live class it lists has a member;
//! * next id only: only the next class id may be opened and only the next
//!   instance id ingested; updates and removals name a live instance;
//! * no re-created class: an opened class id, live or collected, is never
//!   opened again, and every instance joins a live class.
//!
//! # Durability vs. availability
//!
//! A WAL append that fails at the backend does **not** fail the in-memory
//! operation: the store keeps serving and counts the miss in
//! [`StoreStats::wal_errors`](crate::StoreStats::wal_errors). Callers that
//! need hard durability watch that counter (or checkpoint and verify). This
//! is a deliberate availability-over-durability stance; the fault suite
//! pins down what is and is not guaranteed after such a failure.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use topo_invariant::{CodeHash, InvariantParts, TopologicalInvariant};
use topo_parallel::Pool;
use topo_spatial::Schema;

use crate::tables::{Attach, Refused, Tables};
use crate::{read_recover, ClassId, Counters, InstanceId, InvariantStore, StoreConfig};

/// Magic bytes opening a snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"TSNP";
/// Current snapshot/WAL format version.
pub const FORMAT_VERSION: u32 = 2;

/// A replay window whose frames hold fewer bytes than this decodes on the
/// calling thread; a larger one decodes across the pool. Bytes stand in for
/// decode work: a record that opens a class costs about 20 µs per KiB on
/// one core, a dedup or removal record under 1 µs, and a pool spawn tens of
/// µs. Timed on a 2-thread VM at pool 2 against pool 1 (sequential),
/// medians of 101 opens, on logs of grid 4–8 maps that each open a class:
/// a 4.9 KiB log (3 records) opened at 1.0–1.2× the sequential time with
/// every window decoded on the pool, an 8.5 KiB log (6 records) at 0.73–0.82×
/// and a 48 KiB log at 0.57–0.68×. On a dedup-heavy log of grid-3 records
/// (32 frames ≈ 1.3 KiB) pool windows cost 1.7× at 4 KiB and 5× at 16 KiB,
/// while gating each window at 8 KiB kept that log at 0.86–0.96×.
const PARALLEL_REPLAY_MIN_BYTES: usize = 8 * 1024;

/// Frames per pool thread in one replay window. A window is decoded and
/// applied before the next is split off, so at most one window of decoded
/// records is held beside the tables. With one frame per thread the spawns
/// per window cost more than the decode saves.
const REPLAY_FRAMES_PER_THREAD: usize = 16;

/// A WAL record tag: [`FORMAT_VERSION`] in the high nibble, the record
/// kind (1 to 3) in the low one. Format 1 tags had a zero high nibble.
const fn wal_tag(kind: u8) -> u8 {
    assert!(FORMAT_VERSION < 16 && kind < 16);
    (FORMAT_VERSION as u8) << 4 | kind
}

pub(crate) const TAG_INGEST: u8 = wal_tag(1);
const TAG_REMOVE: u8 = wal_tag(2);
pub(crate) const TAG_UPDATE: u8 = wal_tag(3);

// ---------------------------------------------------------------------------
// checksum

/// CRC-32 (IEEE 802.3 polynomial, reflected) lookup tables for
/// slicing-by-8, built at compile time. `CRC_TABLES[0]` is the classic
/// bytewise table; `CRC_TABLES[k][i]` is the CRC of byte `i` followed by `k`
/// zero bytes, so one step folds eight input bytes with eight lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 checksum of a byte slice (IEEE polynomial), eight bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// errors

/// Failure of a persistence operation.
#[derive(Debug)]
pub enum PersistError {
    /// The storage backend failed.
    Io(io::Error),
    /// Stored bytes exist but do not decode: bad magic, checksum mismatch
    /// on the snapshot, or an impossible record (e.g. a WAL record
    /// referencing a class that was never created).
    Corrupt(String),
    /// A snapshot header or WAL record tag names a format version this
    /// build does not read.
    UnsupportedVersion {
        /// The version the bytes were written in.
        found: u32,
        /// [`FORMAT_VERSION`], the only version this build reads.
        expected: u32,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "storage backend error: {e}"),
            PersistError::Corrupt(why) => write!(f, "corrupt persistent state: {why}"),
            PersistError::UnsupportedVersion { found, expected } => {
                write!(f, "unsupported format version {found} (this build reads {expected})")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<Refused> for PersistError {
    fn from(refused: Refused) -> Self {
        PersistError::Corrupt(refused.0)
    }
}

// ---------------------------------------------------------------------------
// storage backends

/// The five operations the persistence layer needs from storage. Small on
/// purpose: a backend stores two byte streams (one snapshot, one
/// append-only log) and promises nothing about partial-write atomicity —
/// the framing layer's checksums own torn-write detection.
pub trait StorageBackend: Send + Sync {
    /// The current snapshot, or `None` if none was ever written.
    fn read_snapshot(&self) -> io::Result<Option<Vec<u8>>>;
    /// Atomically replaces the snapshot (all-or-nothing per call).
    fn write_snapshot(&self, bytes: &[u8]) -> io::Result<()>;
    /// The entire WAL contents (empty if none).
    fn read_wal(&self) -> io::Result<Vec<u8>>;
    /// Appends bytes to the WAL.
    fn append_wal(&self, bytes: &[u8]) -> io::Result<()>;
    /// Empties the WAL (after its effects were folded into a snapshot).
    fn reset_wal(&self) -> io::Result<()>;
}

/// An in-memory [`StorageBackend`]: two mutex-guarded byte buffers. Shared
/// by `Arc` between a store and the test that later "recovers" from it —
/// the durable medium that survives a simulated crash.
#[derive(Default)]
pub struct MemoryBackend {
    snapshot: Mutex<Option<Vec<u8>>>,
    wal: Mutex<Vec<u8>>,
}

impl MemoryBackend {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Test hook: the raw WAL bytes as currently stored.
    pub fn wal_bytes(&self) -> Vec<u8> {
        self.wal.lock().expect("wal buffer lock").clone()
    }

    /// Test hook: overwrite the raw WAL bytes (to hand-craft corruption).
    pub fn set_wal_bytes(&self, bytes: Vec<u8>) {
        *self.wal.lock().expect("wal buffer lock") = bytes;
    }

    /// Test hook: the raw snapshot bytes, if any.
    pub fn snapshot_bytes(&self) -> Option<Vec<u8>> {
        self.snapshot.lock().expect("snapshot buffer lock").clone()
    }

    /// Test hook: overwrite the raw snapshot bytes.
    pub fn set_snapshot_bytes(&self, bytes: Option<Vec<u8>>) {
        *self.snapshot.lock().expect("snapshot buffer lock") = bytes;
    }
}

impl StorageBackend for MemoryBackend {
    fn read_snapshot(&self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.snapshot.lock().expect("snapshot buffer lock").clone())
    }

    fn write_snapshot(&self, bytes: &[u8]) -> io::Result<()> {
        *self.snapshot.lock().expect("snapshot buffer lock") = Some(bytes.to_vec());
        Ok(())
    }

    fn read_wal(&self) -> io::Result<Vec<u8>> {
        Ok(self.wal.lock().expect("wal buffer lock").clone())
    }

    fn append_wal(&self, bytes: &[u8]) -> io::Result<()> {
        self.wal.lock().expect("wal buffer lock").extend_from_slice(bytes);
        Ok(())
    }

    fn reset_wal(&self) -> io::Result<()> {
        self.wal.lock().expect("wal buffer lock").clear();
        Ok(())
    }
}

/// A real-file [`StorageBackend`]: `snapshot.bin` and `wal.bin` inside one
/// directory. Snapshot replacement is write-to-temp + rename (atomic on
/// POSIX); WAL appends open the file in append mode per call, which keeps
/// the backend stateless and crash-simple at the cost of an open per
/// record — fine for this workload, and the bench stage measures it.
pub struct FileBackend {
    snapshot_path: PathBuf,
    snapshot_tmp: PathBuf,
    wal_path: PathBuf,
}

impl FileBackend {
    /// Opens (creating if needed) a storage directory.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(FileBackend {
            snapshot_path: dir.join("snapshot.bin"),
            snapshot_tmp: dir.join("snapshot.tmp"),
            wal_path: dir.join("wal.bin"),
        })
    }
}

impl StorageBackend for FileBackend {
    fn read_snapshot(&self) -> io::Result<Option<Vec<u8>>> {
        match fs::read(&self.snapshot_path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn write_snapshot(&self, bytes: &[u8]) -> io::Result<()> {
        {
            let mut tmp = fs::File::create(&self.snapshot_tmp)?;
            tmp.write_all(bytes)?;
            tmp.sync_all()?;
        }
        fs::rename(&self.snapshot_tmp, &self.snapshot_path)
    }

    fn read_wal(&self) -> io::Result<Vec<u8>> {
        match fs::read(&self.wal_path) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    fn append_wal(&self, bytes: &[u8]) -> io::Result<()> {
        let mut file = fs::OpenOptions::new().create(true).append(true).open(&self.wal_path)?;
        file.write_all(bytes)
    }

    fn reset_wal(&self) -> io::Result<()> {
        fs::write(&self.wal_path, [])
    }
}

// ---------------------------------------------------------------------------
// encoding primitives

pub(crate) struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An unsigned LEB128 varint: seven bits per byte, low group first, the
    /// high bit set on every byte but the last.
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// A cell or region index, count or length, as a varint of at most
    /// `u32::MAX`.
    fn index(&mut self, v: usize) {
        self.varint(u64::from(u32::try_from(v).expect("cell/region index exceeds u32 range")));
    }

    /// An optional index as `index + 1`, `0` for `None`.
    fn opt_index(&mut self, v: Option<usize>) {
        match v {
            None => self.varint(0),
            Some(x) => {
                self.varint(u64::from(u32::try_from(x).expect("cell index exceeds u32 range")) + 1)
            }
        }
    }

    /// A region set as its first `words` bit words.
    fn region_set(&mut self, set: &topo_invariant::RegionSet, words: usize) {
        for word in set.words().take(words) {
            self.varint(word);
        }
    }

    /// Appends one framed record, `[len][payload][crc32]`: `payload` writes
    /// straight into the buffer after a length placeholder, which is patched
    /// once the payload's size is known.
    fn frame(&mut self, payload: impl FnOnce(&mut Enc)) {
        let start = self.buf.len();
        self.u32(0);
        payload(self);
        let body = &self.buf[start + 4..];
        let len = u32::try_from(body.len()).expect("frame payload exceeds u32 range");
        let crc = crc32(body);
        self.buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
        self.u32(crc);
    }
}

pub(crate) struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    fn corrupt(what: &str) -> PersistError {
        PersistError::Corrupt(format!("truncated or invalid field: {what}"))
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).ok_or_else(|| Self::corrupt(what))?;
        if end > self.bytes.len() {
            return Err(Self::corrupt(what));
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, PersistError> {
        Ok(self.take(1, what)?[0])
    }

    fn u64(&mut self, what: &str) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// An unsigned LEB128 varint. One that is longer than its value needs,
    /// or exceeds `u64`, is corrupt, so every value has one encoding. One-
    /// and two-byte varints (every index below 16 384) decode inline.
    #[inline(always)]
    fn varint(&mut self) -> Result<u64, BodyError> {
        match self.bytes[self.pos..] {
            [b0, ..] if b0 < 0x80 => {
                self.pos += 1;
                Ok(u64::from(b0))
            }
            [b0, b1, ..] if b1 < 0x80 && b1 != 0 => {
                self.pos += 2;
                Ok(u64::from(b0 & 0x7F) | u64::from(b1) << 7)
            }
            _ => self.long_varint(),
        }
    }

    #[inline(never)]
    fn long_varint(&mut self) -> Result<u64, BodyError> {
        let mut value = 0u64;
        let mut shift = 0;
        loop {
            let Some(&byte) = self.bytes.get(self.pos) else { return Err(BodyError::Truncated) };
            self.pos += 1;
            value |= u64::from(byte & 0x7F) << shift;
            if byte < 0x80 {
                if (byte == 0 && shift > 0) || (shift == 63 && byte > 1) {
                    return Err(BodyError::OverlongVarint);
                }
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(BodyError::OverlongVarint);
            }
        }
    }

    /// A cell or region index: a varint of at most `u32::MAX`, the bound
    /// the encoder keeps.
    #[inline(always)]
    fn index(&mut self) -> Result<usize, BodyError> {
        within_u32(self.varint()?)
    }

    /// An optional index stored as `index + 1`, `0` for `None`.
    #[inline(always)]
    fn opt_index(&mut self) -> Result<Option<usize>, BodyError> {
        match self.varint()? {
            0 => Ok(None),
            v => within_u32(v - 1).map(Some),
        }
    }

    /// An element count. Every counted element takes at least one byte, so
    /// a count past the bytes left is corrupt: a hostile count never sizes
    /// an allocation beyond the input.
    fn count(&mut self) -> Result<usize, BodyError> {
        let n = self.index()?;
        if n > self.bytes.len() - self.pos {
            return Err(BodyError::CountPastBytesLeft);
        }
        Ok(n)
    }

    /// A region set over `region_count` regions, as its bit words. A bit at
    /// or past `region_count` is corrupt.
    #[inline(always)]
    fn region_set(&mut self, region_count: usize) -> Result<topo_invariant::RegionSet, BodyError> {
        let mut set = topo_invariant::RegionSet::new(region_count);
        let words = region_count.div_ceil(64);
        for (w, word) in set.words_mut().take(words).enumerate() {
            let bits = self.varint()?;
            let width = region_count - 64 * w;
            if width < 64 && bits >> width != 0 {
                return Err(BodyError::RegionBitBeyondSchema);
            }
            *word = bits;
        }
        Ok(set)
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Why an invariant body does not decode. Small and `Copy`, so the body
/// decoder's per-field results stay in registers; [`decode_invariant`]
/// reports it with the byte offset where decoding stopped.
#[derive(Clone, Copy, Debug)]
enum BodyError {
    Truncated,
    OverlongVarint,
    PastU32,
    CountPastBytesLeft,
    RegionBitBeyondSchema,
    NameNotUtf8,
}

impl fmt::Display for BodyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BodyError::Truncated => "truncated",
            BodyError::OverlongVarint => "overlong varint",
            BodyError::PastU32 => "index exceeds u32 range",
            BodyError::CountPastBytesLeft => "count exceeds the bytes left",
            BodyError::RegionBitBeyondSchema => "region bit beyond the schema",
            BodyError::NameNotUtf8 => "region name is not UTF-8",
        })
    }
}

#[inline(always)]
fn within_u32(v: u64) -> Result<usize, BodyError> {
    u32::try_from(v).map(|v| v as usize).map_err(|_| BodyError::PastU32)
}

/// Result of pulling one frame off a byte stream.
enum Frame<'a> {
    /// A complete frame plus the remaining stream: from [`next_frame`] the
    /// checksum-valid payload, from [`split_frame`] the payload with its
    /// four checksum bytes, not yet compared.
    Ok(&'a [u8], &'a [u8]),
    /// The stream is exhausted.
    End,
    /// The tail is torn or corrupt (incomplete frame, or from
    /// [`next_frame`] a bad checksum).
    Torn,
}

/// Splits one frame off `stream` by its length field alone, leaving the
/// checksum to [`checked_payload`].
fn split_frame(stream: &[u8]) -> Frame<'_> {
    if stream.is_empty() {
        return Frame::End;
    }
    if stream.len() < 4 {
        return Frame::Torn;
    }
    let len = u32::from_le_bytes(stream[..4].try_into().unwrap()) as usize;
    let Some(total) = len.checked_add(8) else { return Frame::Torn };
    if stream.len() < total {
        return Frame::Torn;
    }
    Frame::Ok(&stream[4..total], &stream[total..])
}

/// The payload of a frame [`split_frame`] split off, if it matches the
/// checksum stored after it.
fn checked_payload(frame: &[u8]) -> Option<&[u8]> {
    let (payload, stored) = frame.split_at(frame.len() - 4);
    (crc32(payload) == u32::from_le_bytes(stored.try_into().unwrap())).then_some(payload)
}

fn next_frame(stream: &[u8]) -> Frame<'_> {
    match split_frame(stream) {
        Frame::Ok(frame, rest) => match checked_payload(frame) {
            Some(payload) => Frame::Ok(payload, rest),
            None => Frame::Torn,
        },
        end_or_torn => end_or_torn,
    }
}

// ---------------------------------------------------------------------------
// invariant (de)serialisation

/// Serialises an invariant through its borrowed
/// [`InvariantPartsRef`](topo_invariant::InvariantPartsRef) view, in the
/// compact layout of the [module docs](self).
pub(crate) fn encode_invariant(enc: &mut Enc, invariant: &TopologicalInvariant) {
    let parts = invariant.parts_ref();
    let words = parts.schema.len().div_ceil(64);
    enc.index(parts.schema.len());
    for (_, name) in parts.schema.iter() {
        enc.index(name.len());
        enc.buf.extend_from_slice(name.as_bytes());
    }
    enc.index(parts.vertex_slots.len());
    for v in 0..parts.vertex_slots.len() {
        let slots = &parts.vertex_slots[v];
        debug_assert_eq!(parts.vertex_sectors[v].len(), slots.len(), "one sector per slot");
        enc.index(slots.len());
        for &(edge, end) in slots {
            debug_assert!(end <= 1, "an edge has two ends");
            let edge = u32::try_from(edge).expect("cell index exceeds u32 range");
            enc.varint(u64::from(edge) << 1 | u64::from(end));
        }
        for &face in &parts.vertex_sectors[v] {
            enc.index(face);
        }
        enc.opt_index(parts.vertex_isolated_face[v]);
        enc.region_set(&parts.vertex_regions[v], words);
        enc.region_set(&parts.vertex_boundary[v], words);
    }
    enc.index(parts.edge_ends.len());
    for e in 0..parts.edge_ends.len() {
        let ends = parts.edge_ends[e];
        enc.opt_index(ends.map(|(a, _)| a));
        if let Some((_, b)) = ends {
            enc.index(b);
        }
        let (left, right) = parts.edge_sides[e];
        enc.index(left);
        enc.index(right);
        enc.region_set(&parts.edge_regions[e], words);
        enc.region_set(&parts.edge_boundary[e], words);
    }
    enc.index(parts.face_regions.len());
    for face in parts.face_regions {
        enc.region_set(face, words);
    }
    enc.index(parts.exterior_face);
}

/// Deserialises an invariant. [`TopologicalInvariant::from_parts`] checks
/// that every vector has the right length and every cross-reference is in
/// bounds, so bytes that pass the checksum cannot index out of range. It
/// does not check topological consistency (rotation system, faces, Euler
/// characteristic, region labels): such bytes can still build an invariant
/// that no instance has (ROADMAP.md, item 7).
pub(crate) fn decode_invariant(dec: &mut Dec<'_>) -> Result<TopologicalInvariant, PersistError> {
    let parts = decode_parts(dec).map_err(|why| {
        PersistError::Corrupt(format!("invariant body at byte {}: {why}", dec.pos))
    })?;
    TopologicalInvariant::from_parts(parts).map_err(PersistError::Corrupt)
}

fn decode_parts(dec: &mut Dec<'_>) -> Result<InvariantParts, BodyError> {
    let region_count = dec.count()?;
    let mut names = Vec::with_capacity(region_count);
    for _ in 0..region_count {
        let len = dec.count()?;
        let raw = &dec.bytes[dec.pos..dec.pos + len];
        dec.pos += len;
        names.push(std::str::from_utf8(raw).map_err(|_| BodyError::NameNotUtf8)?.to_owned());
    }
    let schema = Schema::from_names(names);

    let nv = dec.count()?;
    let mut vertex_slots = Vec::with_capacity(nv);
    let mut vertex_sectors = Vec::with_capacity(nv);
    let mut vertex_isolated_face = Vec::with_capacity(nv);
    let mut vertex_regions = Vec::with_capacity(nv);
    let mut vertex_boundary = Vec::with_capacity(nv);
    for _ in 0..nv {
        let slots = dec.count()?;
        let mut vslots = Vec::with_capacity(slots);
        for _ in 0..slots {
            let slot = dec.varint()?;
            vslots.push((within_u32(slot >> 1)?, (slot & 1) as u8));
        }
        vertex_slots.push(vslots);
        let mut vsectors = Vec::with_capacity(slots);
        for _ in 0..slots {
            vsectors.push(dec.index()?);
        }
        vertex_sectors.push(vsectors);
        vertex_isolated_face.push(dec.opt_index()?);
        vertex_regions.push(dec.region_set(region_count)?);
        vertex_boundary.push(dec.region_set(region_count)?);
    }

    let ne = dec.count()?;
    let mut edge_ends = Vec::with_capacity(ne);
    let mut edge_sides = Vec::with_capacity(ne);
    let mut edge_regions = Vec::with_capacity(ne);
    let mut edge_boundary = Vec::with_capacity(ne);
    for _ in 0..ne {
        edge_ends.push(match dec.opt_index()? {
            None => None,
            Some(a) => Some((a, dec.index()?)),
        });
        edge_sides.push((dec.index()?, dec.index()?));
        edge_regions.push(dec.region_set(region_count)?);
        edge_boundary.push(dec.region_set(region_count)?);
    }

    let nf = dec.count()?;
    let mut face_regions = Vec::with_capacity(nf);
    for _ in 0..nf {
        face_regions.push(dec.region_set(region_count)?);
    }
    let exterior_face = dec.index()?;

    Ok(InvariantParts {
        schema,
        vertex_slots,
        vertex_sectors,
        vertex_isolated_face,
        vertex_regions,
        vertex_boundary,
        edge_ends,
        edge_sides,
        edge_regions,
        edge_boundary,
        face_regions,
        exterior_face,
    })
}

// ---------------------------------------------------------------------------
// persistence state + store integration

/// The store's handle on its durable medium: the backend, the WAL sequence
/// counter (next seq to assign), and the sticky broken flag.
pub(crate) struct Persistence {
    pub(crate) backend: Arc<dyn StorageBackend>,
    pub(crate) seq: AtomicU64,
    /// Set on the first failed WAL append and never cleared: once a record
    /// is lost the log stops growing entirely, so the durable WAL is always
    /// a *prefix* of operation history — a gap would make every later
    /// record unreplayable. Each skipped append still counts in
    /// [`StoreStats::wal_errors`](crate::StoreStats::wal_errors), and a
    /// successful [`InvariantStore::checkpoint`] re-arms the log (the
    /// snapshot captures everything the WAL missed).
    pub(crate) broken: std::sync::atomic::AtomicBool,
}

impl InvariantStore {
    /// Opens (or recovers) a persistent store over a backend: loads the
    /// snapshot if one exists, replays the surviving WAL prefix, and keeps
    /// logging subsequent mutations to the same backend.
    ///
    /// See the [module docs](crate::persist) for the exact recovery
    /// contract (seq skipping, torn-tail truncation, corrupt-snapshot
    /// failure).
    pub fn open(
        config: StoreConfig,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self, PersistError> {
        let mut store = Self::try_new(config)
            .map_err(|e| PersistError::Corrupt(format!("invalid StoreConfig: {e}")))?;

        let (mut next_seq, mut tables) = match backend.read_snapshot()? {
            Some(snapshot) => decode_snapshot(&snapshot)?,
            None => (0, Tables::default()),
        };
        let snapshot_seq = next_seq;

        let wal = backend.read_wal()?;
        replay_wal(&wal, snapshot_seq, &mut next_seq, &mut tables, &store.counters)?;

        store.tables = std::sync::RwLock::new(tables);
        store.persistence = Some(Persistence {
            backend,
            seq: AtomicU64::new(next_seq),
            broken: std::sync::atomic::AtomicBool::new(false),
        });
        Ok(store)
    }

    /// Writes a snapshot of the current live state and resets the WAL. Safe
    /// against a crash at any point: the snapshot replaces its predecessor
    /// atomically, and WAL records older than the snapshot's seq are
    /// skipped on replay even if the reset never happened.
    ///
    /// No-op `Ok` on a store that was not opened over a backend.
    pub fn checkpoint(&self) -> Result<(), PersistError> {
        let Some(persistence) = &self.persistence else { return Ok(()) };
        // Read-locking the tables blocks every mutator, so the state and
        // `seq` are a consistent cut.
        let tables = read_recover(&self.tables, &self.counters);
        let seq = persistence.seq.load(Ordering::SeqCst);
        let snapshot = encode_snapshot(seq, &tables);
        persistence.backend.write_snapshot(&snapshot)?;
        persistence.backend.reset_wal()?;
        // The snapshot captured everything — including operations a broken
        // WAL had missed — so logging can safely resume.
        persistence.broken.store(false, Ordering::SeqCst);
        self.counters.snapshots.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// True iff the store logs to a storage backend.
    pub fn is_persistent(&self) -> bool {
        self.persistence.is_some()
    }

    /// Appends a batch of ingest ([`TAG_INGEST`]) or update
    /// ([`TAG_UPDATE`]) records in **one** backend write; called with the
    /// table write lock held so seq order equals operation order. Each
    /// record is framed individually — recovery and torn-tail truncation see
    /// exactly the record stream per-record appends would have produced —
    /// but the frames are concatenated and handed to the backend as a single
    /// append, amortising its per-call cost across the batch. Backend
    /// failure is counted once per record, not propagated.
    pub(crate) fn wal_class_records(&self, tag: u8, records: &[ClassRecord<'_>]) {
        let Some(persistence) = &self.persistence else { return };
        if records.is_empty() {
            return;
        }
        if persistence.broken.load(Ordering::SeqCst) {
            self.counters.wal_errors.fetch_add(records.len() as u64, Ordering::Relaxed);
            return;
        }
        let mut enc = Enc::new();
        for &(id, class, hash, opened) in records {
            let seq = persistence.seq.fetch_add(1, Ordering::SeqCst);
            enc.frame(|enc| {
                enc.u8(tag);
                enc.u64(seq);
                enc.u64(id as u64);
                enc.u64(class as u64);
                enc.u64(hash.as_u64());
                enc.u8(opened.is_some() as u8);
                if let Some(rep) = opened {
                    encode_invariant(enc, rep);
                }
            });
        }
        self.append_records(persistence, &enc.buf, records.len());
    }

    /// Appends a removal record; called with the table write lock held.
    pub(crate) fn wal_remove(&self, id: InstanceId) {
        let Some(persistence) = &self.persistence else { return };
        let seq = persistence.seq.fetch_add(1, Ordering::SeqCst);
        let mut enc = Enc::new();
        enc.frame(|enc| {
            enc.u8(TAG_REMOVE);
            enc.u64(seq);
            enc.u64(id as u64);
        });
        self.append_records(persistence, &enc.buf, 1);
    }

    /// Hands `records` framed records to the backend in one append, unless
    /// the log is broken; counts them as appended or as errors.
    fn append_records(&self, persistence: &Persistence, framed: &[u8], records: usize) {
        let records = records as u64;
        if persistence.broken.load(Ordering::SeqCst) {
            self.counters.wal_errors.fetch_add(records, Ordering::Relaxed);
            return;
        }
        match persistence.backend.append_wal(framed) {
            Ok(()) => {
                self.counters.wal_appends.fetch_add(records, Ordering::Relaxed);
            }
            Err(_) => {
                persistence.broken.store(true, Ordering::SeqCst);
                self.counters.wal_errors.fetch_add(records, Ordering::Relaxed);
            }
        }
    }
}

/// One ingest or update to log: instance `id` now sits in `class`, whose
/// content hash is `hash`; the representative rides along when the
/// operation opened the class.
pub(crate) type ClassRecord<'a> = (InstanceId, ClassId, CodeHash, Option<&'a TopologicalInvariant>);

fn encode_snapshot(seq: u64, tables: &Tables) -> Vec<u8> {
    let mut out = Enc::new();
    out.buf.extend_from_slice(&SNAPSHOT_MAGIC);
    out.u32(FORMAT_VERSION);
    out.frame(|body| {
        body.u64(seq);
        body.u64(tables.next_class() as u64);
        body.u64(tables.next_instance() as u64);
        body.u64(tables.live_classes() as u64);
        for (class, hash, rep) in tables.live_class_entries() {
            body.u64(class as u64);
            body.u64(hash.as_u64());
            encode_invariant(body, rep);
        }
        body.u64(tables.live_instances() as u64);
        for (id, class) in tables.live_instance_entries() {
            body.u64(id as u64);
            body.u64(class as u64);
        }
    });
    out.buf
}

/// Decodes a snapshot into its WAL seq and tables, reading ids in the
/// ascending order [`encode_snapshot`] writes and padding the dead slots.
fn decode_snapshot(bytes: &[u8]) -> Result<(u64, Tables), PersistError> {
    if bytes.len() < 8 || bytes[..4] != SNAPSHOT_MAGIC {
        return Err(PersistError::Corrupt("snapshot magic mismatch".into()));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion { found: version, expected: FORMAT_VERSION });
    }
    let Frame::Ok(body, rest) = next_frame(&bytes[8..]) else {
        return Err(PersistError::Corrupt("snapshot body torn or checksum mismatch".into()));
    };
    if !rest.is_empty() {
        return Err(PersistError::Corrupt("trailing bytes after snapshot body".into()));
    }

    let mut dec = Dec::new(body);
    let seq = dec.u64("snapshot seq")?;
    let class_slots = dec.u64("class slot count")? as usize;
    let instance_slots = dec.u64("instance slot count")? as usize;
    let mut tables = Tables::with_capacity(class_slots, instance_slots)?;

    for _ in 0..dec.u64("live class count")? {
        let class = dec.u64("class id")? as usize;
        if class >= class_slots {
            return Err(PersistError::Corrupt(format!("class id {class} out of range")));
        }
        let hash = CodeHash::from_u64(dec.u64("class code hash")?);
        let invariant = decode_invariant(&mut dec)?;
        tables.pad(class, 0)?;
        tables.open_class(class, hash, Arc::new(invariant))?;
    }

    for _ in 0..dec.u64("live instance count")? {
        let id = dec.u64("instance id")? as usize;
        let class = dec.u64("instance class")? as usize;
        if id >= instance_slots {
            return Err(PersistError::Corrupt(format!("instance id {id} out of range")));
        }
        tables.pad(class_slots, id)?;
        tables.attach(Attach::New, id, class)?;
    }
    tables.pad(class_slots, instance_slots)?;
    tables.check_classes_inhabited()?;
    if !dec.done() {
        return Err(PersistError::Corrupt("trailing bytes inside snapshot body".into()));
    }
    Ok((seq, tables))
}

/// One decoded WAL payload. An ingest ([`Attach::New`]) or update
/// ([`Attach::Move`]) puts `id` in `class`, opening it when it carries one.
enum WalRecord {
    Class {
        how: Attach,
        id: InstanceId,
        class: ClassId,
        hash: CodeHash,
        opened: Option<Arc<TopologicalInvariant>>,
    },
    Remove(InstanceId),
}

fn unknown_tag(tag: u8) -> PersistError {
    PersistError::Corrupt(format!("unknown wal record tag {tag:#x}"))
}

/// The refusal of a tag from another format version: format 1's tags are
/// the bare kinds 1 to 3, later formats carry their version in the high
/// nibble.
fn foreign_tag(tag: u8) -> PersistError {
    let found = match tag >> 4 {
        0 if (1..=3).contains(&tag) => 1,
        0 => return unknown_tag(tag),
        v => u32::from(v),
    };
    PersistError::UnsupportedVersion { found, expected: FORMAT_VERSION }
}

/// Decodes one checksum-valid WAL payload into its seq and record.
fn decode_wal_record(payload: &[u8]) -> Result<(u64, WalRecord), PersistError> {
    let mut dec = Dec::new(payload);
    let tag = dec.u8("wal record tag")?;
    if u32::from(tag >> 4) != FORMAT_VERSION {
        return Err(foreign_tag(tag));
    }
    let seq = dec.u64("wal record seq")?;
    let record = match tag {
        TAG_INGEST | TAG_UPDATE => {
            let how = if tag == TAG_INGEST { Attach::New } else { Attach::Move };
            let id = dec.u64("wal record id")? as usize;
            let class = dec.u64("wal record class")? as usize;
            let hash = CodeHash::from_u64(dec.u64("wal record hash")?);
            let opened = match dec.u8("wal new-class flag")? {
                0 => None,
                1 => Some(Arc::new(decode_invariant(&mut dec)?)),
                other => {
                    return Err(PersistError::Corrupt(format!("bad new-class flag {other}")));
                }
            };
            WalRecord::Class { how, id, class, hash, opened }
        }
        TAG_REMOVE => WalRecord::Remove(dec.u64("wal remove id")? as usize),
        other => return Err(unknown_tag(other)),
    };
    if !dec.done() {
        return Err(PersistError::Corrupt("trailing bytes inside wal record".into()));
    }
    Ok((seq, record))
}

/// Replays a WAL onto the recovering tables one window of frames at a time:
/// a sequential pass splits the window off by frame lengths, its frames are
/// checked and decoded (one per pool task when the window holds at least
/// [`PARALLEL_REPLAY_MIN_BYTES`]), and the records are applied in log
/// order. The first frame that is incomplete or fails its checksum
/// is a torn tail: replay stops there, and nothing after it is applied. The
/// first record in log order that does not decode or apply is the error.
fn replay_wal(
    wal: &[u8],
    snapshot_seq: u64,
    next_seq: &mut u64,
    tables: &mut Tables,
    counters: &Counters,
) -> Result<(), PersistError> {
    let pool = Pool::global();
    let window = if pool.threads() > 1 { REPLAY_FRAMES_PER_THREAD * pool.threads() } else { 1 };
    let mut stream = wal;
    let mut frames = Vec::with_capacity(window);
    loop {
        frames.clear();
        let (mut bytes, mut torn) = (0, false);
        while frames.len() < window {
            match split_frame(stream) {
                Frame::Ok(frame, rest) => {
                    frames.push(frame);
                    bytes += frame.len();
                    stream = rest;
                }
                Frame::End => break,
                Frame::Torn => {
                    torn = true;
                    break;
                }
            }
        }
        let decode = |frame: &&[u8]| checked_payload(frame).map(decode_wal_record);
        let decoded: Vec<_> = if bytes >= PARALLEL_REPLAY_MIN_BYTES {
            pool.par_map_collect(&frames, decode)
        } else {
            frames.iter().map(decode).collect()
        };
        for record in decoded {
            let Some(record) = record else {
                torn = true;
                break;
            };
            let (seq, record) = record?;
            apply_wal_record(seq, record, snapshot_seq, next_seq, tables, counters)?;
        }
        if torn {
            counters.wal_truncations.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        if stream.is_empty() {
            return Ok(());
        }
    }
}

/// Applies one decoded WAL record to the recovering tables; records
/// predating the snapshot seq are skipped (a crash landed between snapshot
/// write and WAL reset, so they are already folded in).
fn apply_wal_record(
    seq: u64,
    record: WalRecord,
    snapshot_seq: u64,
    next_seq: &mut u64,
    tables: &mut Tables,
    counters: &Counters,
) -> Result<(), PersistError> {
    if seq < snapshot_seq {
        return Ok(());
    }
    let collected = match record {
        WalRecord::Class { how, id, class, hash, opened } => {
            if let Some(rep) = opened {
                tables.open_class(class, hash, rep)?;
            }
            let collected = tables.attach(how, id, class)?.is_some();
            if how == Attach::Move {
                counters.updates.fetch_add(1, Ordering::Relaxed);
            }
            collected
        }
        WalRecord::Remove(id) => {
            let (_, collected) = tables.detach(id).ok_or_else(|| {
                PersistError::Corrupt(format!("wal removes unknown or removed instance {id}"))
            })?;
            counters.removals.fetch_add(1, Ordering::Relaxed);
            collected
        }
    };
    if collected {
        counters.gc_classes.fetch_add(1, Ordering::Relaxed);
    }
    counters.replayed_records.fetch_add(1, Ordering::Relaxed);
    let after =
        seq.checked_add(1).ok_or_else(|| PersistError::Corrupt("wal seq overflows".into()))?;
    *next_seq = (*next_seq).max(after);
    Ok(())
}

#[cfg(test)]
mod persist_tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
    }

    /// The definition the tables are derived from: the reflected IEEE
    /// polynomial applied one bit at a time, one byte after another.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        !crc
    }

    /// Slicing-by-8 against the reference on seeded random bytes: every
    /// length up to 72 (all remainders, around one and several 8-byte
    /// steps), seeded lengths up to 4096 and 4096 itself, each starting at
    /// all eight alignments of the buffer.
    #[test]
    fn crc32_slicing_by_8_matches_the_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let buffer: Vec<u8> = (0..4096 + 8).map(|_| next() as u8).collect();
        let lengths: Vec<usize> =
            (0..=72).chain((0..160).map(|_| (next() % 4097) as usize)).chain([4096]).collect();
        for len in lengths {
            for start in 0..8 {
                let bytes = &buffer[start..start + len];
                assert_eq!(crc32(bytes), crc32_reference(bytes), "len {len} at offset {start}");
            }
        }
    }

    /// Every seeded workload's invariant decodes back to the parts it was
    /// encoded from, field for field, with the same `code_hash`; and the
    /// decoded invariant encodes to the same bytes.
    #[test]
    fn decoded_parts_equal_the_encoded_parts_on_every_seeded_workload() {
        use topo_datagen::{
            figure1, ign_city, nested_rings, scattered_islands, sequoia_hydro, sequoia_landcover,
            star, Scale,
        };
        let mut instances = vec![figure1(), nested_rings(4, 3), scattered_islands(8), star(16)];
        for grid in [4, 12, 16] {
            for seed in [1, 7919] {
                let scale = Scale { grid };
                instances.push(sequoia_landcover(scale, seed));
                instances.push(sequoia_hydro(scale, seed));
                instances.push(ign_city(scale, seed));
            }
        }
        for (i, instance) in instances.iter().enumerate() {
            let invariant = topo_invariant::top(instance);
            let mut enc = Enc::new();
            encode_invariant(&mut enc, &invariant);
            let mut dec = Dec::new(&enc.buf);
            let decoded = decode_invariant(&mut dec).expect("encoded bytes decode");
            assert!(dec.done(), "instance {i}: bytes left after the invariant");
            assert_eq!(fields(&decoded), fields(&invariant), "instance {i}: parts");
            assert_eq!(decoded.code_hash(), invariant.code_hash(), "instance {i}: code hash");
            let mut again = Enc::new();
            encode_invariant(&mut again, &decoded);
            assert!(again.buf == enc.buf, "instance {i}: re-encoding moved a byte");
        }
    }

    /// Every stored field of an invariant, printed (the schema by its names
    /// in order: its name index is a hash map).
    fn fields(invariant: &TopologicalInvariant) -> String {
        let p = invariant.parts_ref();
        let names: Vec<_> = p.schema.iter().collect();
        format!(
            "{:?}",
            (
                names,
                p.vertex_slots,
                p.vertex_sectors,
                p.vertex_isolated_face,
                p.vertex_regions,
                p.vertex_boundary,
                p.edge_ends,
                p.edge_sides,
                p.edge_regions,
                p.edge_boundary,
                p.face_regions,
                p.exterior_face,
            )
        )
    }

    /// Varints: each value has one encoding, and longer or wider ones are
    /// refused.
    #[test]
    fn varints_roundtrip_and_refuse_overlong_encodings() {
        for v in [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX - 1, u64::MAX] {
            let mut enc = Enc::new();
            enc.varint(v);
            assert_eq!(enc.buf.len(), (64 - v.leading_zeros() as usize).div_ceil(7).max(1));
            let mut dec = Dec::new(&enc.buf);
            assert_eq!(dec.varint().unwrap(), v);
            assert!(dec.done());
        }
        let refused: [&[u8]; 4] = [
            &[0x80, 0x00],                                                 // 0 in two bytes
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02], // past u64
            &[0x80; 11],                                                   // eleven bytes
            &[0x80],                                                       // cut short
        ];
        for bytes in refused {
            assert!(Dec::new(bytes).varint().is_err(), "{bytes:?}");
        }
        let past_u32 = [0x80, 0x80, 0x80, 0x80, 0x10];
        assert!(Dec::new(&past_u32).index().is_err());
        assert_eq!(Dec::new(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]).index().unwrap(), u32::MAX as usize);
    }

    #[test]
    fn frame_roundtrip_and_torn_detection() {
        let mut enc = Enc::new();
        enc.frame(|enc| enc.buf.extend_from_slice(b"hello"));
        let framed = enc.buf;
        match next_frame(&framed) {
            Frame::Ok(payload, rest) => {
                assert_eq!(payload, b"hello");
                assert!(rest.is_empty());
            }
            _ => panic!("expected a clean frame"),
        }
        // A torn tail (half a record) is detected, not decoded.
        assert!(matches!(next_frame(&framed[..framed.len() - 3]), Frame::Torn));
        // A flipped payload bit fails the checksum; splitting by length
        // alone still finds the frame's end.
        let mut bad = framed.clone();
        bad[5] ^= 0x40;
        assert!(matches!(next_frame(&bad), Frame::Torn));
        let Frame::Ok(frame, rest) = split_frame(&bad) else { panic!("expected a split frame") };
        assert!(checked_payload(frame).is_none() && rest.is_empty());
        assert!(matches!(next_frame(&[]), Frame::End));
    }
}

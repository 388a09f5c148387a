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
//! WAL order is exactly id-assignment order. Payloads are tagged:
//!
//! ```text
//! ingest := 0x01, seq: u64, id: u64, class: u64, code_hash: u64,
//!           new_class: u8, [invariant (only when new_class = 1)]
//! update := 0x03, then the ingest fields
//! remove := 0x02, seq: u64, id: u64
//! ```
//!
//! An update re-points live instance `id` at `class`, collecting its old
//! class if that empties; an update to the current class is a logged no-op.
//!
//! The **snapshot** is a magic + version header (`"TSNP"`, version 1)
//! followed by a single framed record holding the full live state:
//!
//! ```text
//! body := seq: u64, class_slots: u64, instance_slots: u64,
//!         live_classes: u64, (class: u64, code_hash: u64, invariant)*,
//!         live_instances: u64, (id: u64, class: u64)*
//! ```
//!
//! `seq` is the next WAL sequence number; the slot counts keep dead ids dead
//! after recovery. Invariants are serialised field by field as
//! [`topo_invariant::InvariantParts`] lists them (encoded from the borrowed
//! [`topo_invariant::InvariantPartsRef`] view, decoded back into parts), and
//! each class carries its already-computed [`CodeHash`] — **recovery never
//! re-canonicalises**.
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
//! A WAL of 64 KiB or more replays in windows of frames: a sequential pass
//! splits a window off by frame lengths alone, the global pool
//! ([`topo_parallel::Pool`]) checks each frame's checksum and decodes it,
//! one record per task, and the window's records are then applied strictly
//! in log order before the next window is split. Decoding is pure, so the
//! outcome is the sequential loop's at every pool size: the first frame
//! that is torn or fails its checksum ends the replay (records decoded
//! after it are dropped, never applied), and the first record in log order
//! that does not decode or apply is the error. Shorter logs, and every log
//! at pool size 1, replay one frame at a time on the calling thread.
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
pub const FORMAT_VERSION: u32 = 1;

/// WALs shorter than this replay one frame at a time on the calling thread,
/// as does every WAL at pool size 1. Replay costs about 6 µs per KiB of log
/// on one core; forced onto a pool of 2 on a 2-thread VM, a 22 KiB log
/// opened in 182 µs against 156 µs sequentially, a 51 KiB log in 311
/// against 352 µs, and a 103 KiB log in 556 against 844 µs.
const PARALLEL_REPLAY_MIN_BYTES: usize = 64 * 1024;

/// Frames per pool thread in one replay window of a longer WAL. A window is
/// decoded across the pool and applied before the next is split off, so at
/// most one window of decoded records is held beside the tables. With one
/// frame per thread the spawns per window cost more than the decode saves.
const REPLAY_FRAMES_PER_THREAD: usize = 16;

pub(crate) const TAG_INGEST: u8 = 0x01;
const TAG_REMOVE: u8 = 0x02;
pub(crate) const TAG_UPDATE: u8 = 0x03;

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
    /// Stored bytes exist but do not decode: bad magic, unsupported
    /// version, checksum mismatch on the snapshot, or an impossible record
    /// (e.g. a WAL record referencing a class that was never created).
    Corrupt(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "storage backend error: {e}"),
            PersistError::Corrupt(why) => write!(f, "corrupt persistent state: {why}"),
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

    fn usize32(&mut self, v: usize) {
        self.u32(u32::try_from(v).expect("cell/region index exceeds u32 range"));
    }

    fn bytes(&mut self, v: &[u8]) {
        self.usize32(v.len());
        self.buf.extend_from_slice(v);
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

    fn u32(&mut self, what: &str) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn usize32(&mut self, what: &str) -> Result<usize, PersistError> {
        Ok(self.u32(what)? as usize)
    }

    fn bytes(&mut self, what: &str) -> Result<&'a [u8], PersistError> {
        let len = self.usize32(what)?;
        self.take(len, what)
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
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

fn encode_region_set(enc: &mut Enc, set: &topo_invariant::RegionSet) {
    enc.usize32(set.len());
    for m in set.iter() {
        enc.usize32(m);
    }
}

fn decode_region_set(
    dec: &mut Dec<'_>,
    region_count: usize,
) -> Result<topo_invariant::RegionSet, PersistError> {
    let mut set = topo_invariant::RegionSet::new(region_count);
    let n = dec.usize32("region set size")?;
    for _ in 0..n {
        let region = dec.usize32("region id")?;
        if region >= region_count {
            return Err(PersistError::Corrupt(format!(
                "region id {region} out of range (schema has {region_count})"
            )));
        }
        set.insert(region);
    }
    Ok(set)
}

fn encode_opt_usize(enc: &mut Enc, v: Option<usize>) {
    match v {
        None => enc.u8(0),
        Some(x) => {
            enc.u8(1);
            enc.usize32(x);
        }
    }
}

fn decode_opt_usize(dec: &mut Dec<'_>, what: &str) -> Result<Option<usize>, PersistError> {
    match dec.u8(what)? {
        0 => Ok(None),
        1 => Ok(Some(dec.usize32(what)?)),
        other => Err(PersistError::Corrupt(format!("bad option tag {other} in {what}"))),
    }
}

/// Serialises an invariant through its borrowed
/// [`InvariantPartsRef`](topo_invariant::InvariantPartsRef) view.
pub(crate) fn encode_invariant(enc: &mut Enc, invariant: &TopologicalInvariant) {
    let parts = invariant.parts_ref();
    enc.usize32(parts.schema.len());
    for (_, name) in parts.schema.iter() {
        enc.bytes(name.as_bytes());
    }
    enc.usize32(parts.vertex_slots.len());
    for v in 0..parts.vertex_slots.len() {
        enc.usize32(parts.vertex_slots[v].len());
        for &(edge, end) in &parts.vertex_slots[v] {
            enc.usize32(edge);
            enc.u8(end);
        }
        enc.usize32(parts.vertex_sectors[v].len());
        for &face in &parts.vertex_sectors[v] {
            enc.usize32(face);
        }
        encode_opt_usize(enc, parts.vertex_isolated_face[v]);
        encode_region_set(enc, &parts.vertex_regions[v]);
        encode_region_set(enc, &parts.vertex_boundary[v]);
    }
    enc.usize32(parts.edge_ends.len());
    for e in 0..parts.edge_ends.len() {
        match parts.edge_ends[e] {
            None => enc.u8(0),
            Some((a, b)) => {
                enc.u8(1);
                enc.usize32(a);
                enc.usize32(b);
            }
        }
        let (left, right) = parts.edge_sides[e];
        enc.usize32(left);
        enc.usize32(right);
        encode_region_set(enc, &parts.edge_regions[e]);
        encode_region_set(enc, &parts.edge_boundary[e]);
    }
    enc.usize32(parts.face_regions.len());
    for face in parts.face_regions {
        encode_region_set(enc, face);
    }
    enc.usize32(parts.exterior_face);
}

/// Deserialises an invariant. [`TopologicalInvariant::from_parts`] checks
/// that every vector has the right length and every cross-reference is in
/// bounds, so bytes that pass the checksum cannot index out of range. It
/// does not check topological consistency (rotation system, faces, Euler
/// characteristic, region labels): such bytes can still build an invariant
/// that no instance has (ROADMAP.md, item 5).
pub(crate) fn decode_invariant(dec: &mut Dec<'_>) -> Result<TopologicalInvariant, PersistError> {
    let region_count = dec.usize32("schema size")?;
    let mut names = Vec::with_capacity(region_count.min(1024));
    for _ in 0..region_count {
        let raw = dec.bytes("region name")?;
        let name = std::str::from_utf8(raw)
            .map_err(|_| PersistError::Corrupt("region name is not UTF-8".into()))?;
        names.push(name.to_owned());
    }
    let schema = Schema::from_names(names);

    let nv = dec.usize32("vertex count")?;
    let mut vertex_slots = Vec::with_capacity(nv.min(65_536));
    let mut vertex_sectors = Vec::with_capacity(nv.min(65_536));
    let mut vertex_isolated_face = Vec::with_capacity(nv.min(65_536));
    let mut vertex_regions = Vec::with_capacity(nv.min(65_536));
    let mut vertex_boundary = Vec::with_capacity(nv.min(65_536));
    for _ in 0..nv {
        let slots = dec.usize32("vertex slot count")?;
        let mut vslots = Vec::with_capacity(slots.min(65_536));
        for _ in 0..slots {
            let edge = dec.usize32("slot edge")?;
            let end = dec.u8("slot end")?;
            vslots.push((edge, end));
        }
        vertex_slots.push(vslots);
        let sectors = dec.usize32("vertex sector count")?;
        let mut vsectors = Vec::with_capacity(sectors.min(65_536));
        for _ in 0..sectors {
            vsectors.push(dec.usize32("sector face")?);
        }
        vertex_sectors.push(vsectors);
        vertex_isolated_face.push(decode_opt_usize(dec, "isolated face")?);
        vertex_regions.push(decode_region_set(dec, region_count)?);
        vertex_boundary.push(decode_region_set(dec, region_count)?);
    }

    let ne = dec.usize32("edge count")?;
    let mut edge_ends = Vec::with_capacity(ne.min(65_536));
    let mut edge_sides = Vec::with_capacity(ne.min(65_536));
    let mut edge_regions = Vec::with_capacity(ne.min(65_536));
    let mut edge_boundary = Vec::with_capacity(ne.min(65_536));
    for _ in 0..ne {
        edge_ends.push(match dec.u8("edge ends tag")? {
            0 => None,
            1 => Some((dec.usize32("edge end a")?, dec.usize32("edge end b")?)),
            other => {
                return Err(PersistError::Corrupt(format!("bad edge-ends tag {other}")));
            }
        });
        edge_sides.push((dec.usize32("edge left face")?, dec.usize32("edge right face")?));
        edge_regions.push(decode_region_set(dec, region_count)?);
        edge_boundary.push(decode_region_set(dec, region_count)?);
    }

    let nf = dec.usize32("face count")?;
    let mut face_regions = Vec::with_capacity(nf.min(65_536));
    for _ in 0..nf {
        face_regions.push(decode_region_set(dec, region_count)?);
    }
    let exterior_face = dec.usize32("exterior face")?;

    TopologicalInvariant::from_parts(InvariantParts {
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
    .map_err(PersistError::Corrupt)
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
        return Err(PersistError::Corrupt(format!(
            "unsupported snapshot version {version} (expected {FORMAT_VERSION})"
        )));
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

/// Decodes one checksum-valid WAL payload into its seq and record.
fn decode_wal_record(payload: &[u8]) -> Result<(u64, WalRecord), PersistError> {
    let mut dec = Dec::new(payload);
    let tag = dec.u8("wal record tag")?;
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
        other => {
            return Err(PersistError::Corrupt(format!("unknown wal record tag {other:#x}")));
        }
    };
    if !dec.done() {
        return Err(PersistError::Corrupt("trailing bytes inside wal record".into()));
    }
    Ok((seq, record))
}

/// Replays a WAL onto the recovering tables one window of frames at a time:
/// a sequential pass splits the window off by frame lengths, the pool
/// checks and decodes its frames one per task, and the records are applied
/// in log order. The first frame that is incomplete or fails its checksum
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
    let window = if pool.threads() > 1 && wal.len() >= PARALLEL_REPLAY_MIN_BYTES {
        REPLAY_FRAMES_PER_THREAD * pool.threads()
    } else {
        1
    };
    let mut stream = wal;
    let mut frames = Vec::with_capacity(window);
    loop {
        frames.clear();
        let mut torn = false;
        while frames.len() < window {
            match split_frame(stream) {
                Frame::Ok(frame, rest) => {
                    frames.push(frame);
                    stream = rest;
                }
                Frame::End => break,
                Frame::Torn => {
                    torn = true;
                    break;
                }
            }
        }
        let decoded =
            pool.par_map_collect(&frames, |frame| checked_payload(frame).map(decode_wal_record));
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

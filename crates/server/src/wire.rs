//! The `pddl-server` wire protocol: compact NBD-flavoured binary
//! frames over TCP.
//!
//! All integers are big-endian. A request frame is a fixed 30-byte
//! header followed by an optional payload (writes only):
//!
//! ```text
//! magic      u32   0x7064_6c51  ("pdlQ")
//! id         u64   caller-chosen request id, echoed in the response
//! op         u8    1=READ 2=WRITE 3=FLUSH 4=TRIM 5=INFO 6=FAIL_DISK 7=REBUILD
//!                  8=REBUILD_STATUS 9=STATS 10=TRACE_DUMP 11=VOLUME_CREATE
//!                  12=VOLUME_DELETE 13=VOLUME_RESIZE 14=VOLUME_LIST
//!                  15=POOL_INFO
//! flags      u8    volume id for volume-scoped ops (READ/WRITE/TRIM/INFO/
//!                  VOLUME_DELETE/VOLUME_RESIZE); reserved, must be zero,
//!                  for every other op
//! offset     u64   first logical stripe unit (disk index for FAIL_DISK/
//!                  REBUILD, new capacity for VOLUME_RESIZE)
//! length     u32   stripe units touched (0 for non-I/O ops)
//! payload    u32   payload bytes that follow (length × unit size for WRITE,
//!                  an encoded [`VolumeSpec`] for VOLUME_CREATE)
//! ```
//!
//! Volume addressing reuses the former reserved flags byte, so a
//! pre-volume client that always sent zero flags transparently
//! addresses the default volume 0 — full backward compatibility with
//! no frame-format change.
//!
//! A response frame is a fixed 17-byte header plus payload:
//!
//! ```text
//! magic      u32   0x7064_6c52  ("pdlR")
//! id         u64   echoed request id
//! status     u8    0=OK, 11=ACCEPTED, otherwise an error code (see [`Status`])
//! payload    u32   payload bytes that follow (READ data, INFO block,
//!                  REBUILD_STATUS block)
//! ```
//!
//! `REBUILD` is asynchronous: the server validates the request, starts a
//! background incremental rebuild, and answers `ACCEPTED` immediately.
//! Clients poll `REBUILD_STATUS` (a [`RebuildStatus`] payload) for
//! progress instead of blocking the connection for the whole
//! reconstruction.

use std::fmt;
use std::io::{self, Read, Write};

use crate::runtime::MAX_PIPELINE;

/// Request-frame magic, `"pdlQ"` as a big-endian u32.
pub const REQUEST_MAGIC: u32 = 0x7064_6c51;
/// Response-frame magic, `"pdlR"` as a big-endian u32.
pub const RESPONSE_MAGIC: u32 = 0x7064_6c52;

/// Hard cap on any frame payload; a hostile length field must not make
/// the peer allocate unbounded memory.
pub const MAX_PAYLOAD: u32 = 32 << 20;

/// Request operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read `length` units from `offset`.
    Read,
    /// Write the payload (`length` units) at `offset`.
    Write,
    /// Commit point; writes are synchronous, so this is an ordering
    /// barrier that succeeds once every prior op on the connection has
    /// been executed.
    Flush,
    /// Discard `length` units at `offset` (served as a zero-fill write,
    /// keeping parity consistent).
    Trim,
    /// Query volume geometry and failure state.
    Info,
    /// Management: inject a failure of disk `offset`.
    FailDisk,
    /// Management: start an incremental background rebuild of failed
    /// disk `offset` into distributed spare space; responds with
    /// [`Status::Accepted`] immediately.
    Rebuild,
    /// Management: query rebuild progress; responds with a
    /// [`RebuildStatus`] payload.
    RebuildStatus,
    /// Telemetry: scrape a versioned metrics snapshot; responds with an
    /// [`encode_stats`] payload decodable via [`decode_stats`].
    Stats,
    /// Telemetry: dump the flight recorder's recent/slow op spans;
    /// responds with an [`encode_spans`] payload decodable via
    /// [`decode_spans`].
    TraceDump,
    /// Management: create a volume from the [`encode_volume_spec`]
    /// payload; responds with the assigned volume id (one byte).
    VolumeCreate,
    /// Management: delete the volume named by the flags byte, returning
    /// its capacity to the array.
    VolumeDelete,
    /// Management: resize the volume named by the flags byte to
    /// `offset` capacity units.
    VolumeResize,
    /// Management: list the volume table; responds with an
    /// [`encode_volume_list`] payload.
    VolumeList,
    /// Query the array's geometry, free space and failure state;
    /// responds with a [`PoolInfo`] payload. INFO stays volume-scoped.
    PoolInfo,
}

impl Op {
    /// Wire code.
    pub fn code(self) -> u8 {
        match self {
            Op::Read => 1,
            Op::Write => 2,
            Op::Flush => 3,
            Op::Trim => 4,
            Op::Info => 5,
            Op::FailDisk => 6,
            Op::Rebuild => 7,
            Op::RebuildStatus => 8,
            Op::Stats => 9,
            Op::TraceDump => 10,
            Op::VolumeCreate => 11,
            Op::VolumeDelete => 12,
            Op::VolumeResize => 13,
            Op::VolumeList => 14,
            Op::PoolInfo => 15,
        }
    }

    /// Decode a wire code.
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            1 => Op::Read,
            2 => Op::Write,
            3 => Op::Flush,
            4 => Op::Trim,
            5 => Op::Info,
            6 => Op::FailDisk,
            7 => Op::Rebuild,
            8 => Op::RebuildStatus,
            9 => Op::Stats,
            10 => Op::TraceDump,
            11 => Op::VolumeCreate,
            12 => Op::VolumeDelete,
            13 => Op::VolumeResize,
            14 => Op::VolumeList,
            15 => Op::PoolInfo,
            _ => return None,
        })
    }

    /// Whether the frame's flags byte carries a volume id for this op.
    /// For every other op the byte stays reserved-must-be-zero, so
    /// pre-volume peers interoperate unchanged.
    pub fn takes_volume(self) -> bool {
        matches!(
            self,
            Op::Read | Op::Write | Op::Trim | Op::Info | Op::VolumeDelete | Op::VolumeResize
        )
    }
}

/// Response status codes. `Ok` carries the op's payload; every other
/// status maps an [`pddl_array::ArrayError`] or protocol failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Success.
    Ok,
    /// Address or length outside the volume.
    BadAddress,
    /// Too many failed disks for the stripe's check units.
    Unrecoverable,
    /// The layout has no spare space.
    NoSpareSpace,
    /// The needed spare cell is on a failed disk.
    SpareUnavailable,
    /// Disk not in the state the op requires.
    WrongDiskState,
    /// A device-level error leaked through.
    DiskError,
    /// An erasure-coding error.
    CodecError,
    /// Malformed request (bad op, non-zero flags, payload mismatch).
    BadRequest,
    /// The server is shutting down.
    Shutdown,
    /// Unexpected internal failure.
    Internal,
    /// The request was validated and queued; completion is asynchronous
    /// (REBUILD — poll [`Op::RebuildStatus`] for progress).
    Accepted,
    /// A single-unit media error; the rest of the device (and volume)
    /// stays serviceable, so the client may retry or repair.
    MediaError,
    /// The addressed volume does not exist.
    VolumeNotFound,
    /// The array cannot satisfy the requested capacity (create/resize),
    /// or the volume id space is exhausted.
    NoCapacity,
}

impl Status {
    /// Wire code.
    pub fn code(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::BadAddress => 1,
            Status::Unrecoverable => 2,
            Status::NoSpareSpace => 3,
            Status::SpareUnavailable => 4,
            Status::WrongDiskState => 5,
            Status::DiskError => 6,
            Status::CodecError => 7,
            Status::BadRequest => 8,
            Status::Shutdown => 9,
            Status::Internal => 10,
            Status::Accepted => 11,
            Status::MediaError => 12,
            Status::VolumeNotFound => 13,
            Status::NoCapacity => 14,
        }
    }

    /// Decode a wire code.
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => Status::Ok,
            1 => Status::BadAddress,
            2 => Status::Unrecoverable,
            3 => Status::NoSpareSpace,
            4 => Status::SpareUnavailable,
            5 => Status::WrongDiskState,
            6 => Status::DiskError,
            7 => Status::CodecError,
            8 => Status::BadRequest,
            9 => Status::Shutdown,
            10 => Status::Internal,
            11 => Status::Accepted,
            12 => Status::MediaError,
            13 => Status::VolumeNotFound,
            14 => Status::NoCapacity,
            _ => return None,
        })
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Status::Ok => "ok",
            Status::BadAddress => "address outside volume",
            Status::Unrecoverable => "stripe unrecoverable",
            Status::NoSpareSpace => "no spare space",
            Status::SpareUnavailable => "spare cell unavailable",
            Status::WrongDiskState => "wrong disk state",
            Status::DiskError => "disk error",
            Status::CodecError => "codec error",
            Status::BadRequest => "malformed request",
            Status::Shutdown => "server shutting down",
            Status::Internal => "internal server error",
            Status::Accepted => "accepted",
            Status::MediaError => "media error",
            Status::VolumeNotFound => "volume not found",
            Status::NoCapacity => "insufficient array capacity",
        };
        write!(f, "{s}")
    }
}

/// One decoded request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Caller-chosen id echoed in the response.
    pub id: u64,
    /// The operation.
    pub op: Op,
    /// Target volume for ops where [`Op::takes_volume`]; must be zero
    /// otherwise. Travels in the frame's flags byte.
    pub volume: u8,
    /// First logical unit (disk index for management ops, new capacity
    /// for VOLUME_RESIZE).
    pub offset: u64,
    /// Units touched.
    pub length: u32,
    /// Write payload / VOLUME_CREATE spec (empty for other ops).
    pub payload: Vec<u8>,
}

/// One decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Echoed request id.
    pub id: u64,
    /// Outcome.
    pub status: Status,
    /// Read data / INFO block / rebuild count.
    pub payload: Vec<u8>,
}

/// Frame-level failures.
#[derive(Debug)]
pub enum WireError {
    /// The stream did not start with the expected magic — protocol
    /// desync; the connection must be dropped.
    BadMagic(u32),
    /// Unknown op code.
    UnknownOp(u8),
    /// Unknown status code.
    UnknownStatus(u8),
    /// Reserved flags byte was non-zero.
    NonZeroFlags(u8),
    /// Declared payload exceeds [`MAX_PAYLOAD`].
    PayloadTooLarge(u32),
    /// Underlying transport error (including mid-frame EOF).
    Io(io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::UnknownOp(c) => write!(f, "unknown op code {c}"),
            WireError::UnknownStatus(c) => write!(f, "unknown status code {c}"),
            WireError::NonZeroFlags(b) => write!(f, "reserved flags byte is {b:#04x}"),
            WireError::PayloadTooLarge(n) => {
                write!(f, "payload {n} bytes exceeds cap {MAX_PAYLOAD}")
            }
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

fn read_exact_or<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<()> {
    r.read_exact(buf)
}

/// Read the 4-byte magic. Distinguishes a clean EOF *before* the frame
/// (returns `Ok(None)`) from a truncated frame (an error).
fn read_magic<R: Read>(r: &mut R) -> Result<Option<u32>, WireError> {
    let mut buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(WireError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame magic",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(Some(u32::from_be_bytes(buf)))
}

fn read_payload<R: Read>(r: &mut R, len: u32) -> Result<Vec<u8>, WireError> {
    if len > MAX_PAYLOAD {
        return Err(WireError::PayloadTooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_or(r, &mut payload)?;
    Ok(payload)
}

/// Encode and send one request frame.
///
/// # Errors
///
/// [`WireError::PayloadTooLarge`] or [`WireError::NonZeroFlags`] (a
/// volume set on an op that takes none) before writing anything;
/// transport errors as [`WireError::Io`].
pub fn write_request<W: Write>(w: &mut W, req: &Request) -> Result<(), WireError> {
    if req.payload.len() as u64 > MAX_PAYLOAD as u64 {
        return Err(WireError::PayloadTooLarge(req.payload.len() as u32));
    }
    if req.volume != 0 && !req.op.takes_volume() {
        return Err(WireError::NonZeroFlags(req.volume));
    }
    let mut frame = Vec::with_capacity(30 + req.payload.len());
    frame.extend_from_slice(&REQUEST_MAGIC.to_be_bytes());
    frame.extend_from_slice(&req.id.to_be_bytes());
    frame.push(req.op.code());
    frame.push(req.volume); // flags byte doubles as the volume id
    frame.extend_from_slice(&req.offset.to_be_bytes());
    frame.extend_from_slice(&req.length.to_be_bytes());
    frame.extend_from_slice(&(req.payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&req.payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one request frame; `Ok(None)` on clean EOF at a frame boundary.
///
/// # Errors
///
/// [`WireError`] on malformed frames or transport failures.
pub fn read_request<R: Read>(r: &mut R) -> Result<Option<Request>, WireError> {
    let Some(magic) = read_magic(r)? else {
        return Ok(None);
    };
    if magic != REQUEST_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let mut head = [0u8; 26];
    read_exact_or(r, &mut head)?;
    let id = u64::from_be_bytes(head[0..8].try_into().expect("8 bytes"));
    let op = Op::from_code(head[8]).ok_or(WireError::UnknownOp(head[8]))?;
    if head[9] != 0 && !op.takes_volume() {
        return Err(WireError::NonZeroFlags(head[9]));
    }
    let offset = u64::from_be_bytes(head[10..18].try_into().expect("8 bytes"));
    let length = u32::from_be_bytes(head[18..22].try_into().expect("4 bytes"));
    let payload_len = u32::from_be_bytes(head[22..26].try_into().expect("4 bytes"));
    let payload = read_payload(r, payload_len)?;
    Ok(Some(Request {
        id,
        op,
        volume: head[9],
        offset,
        length,
        payload,
    }))
}

/// Fixed request-frame header size (magic through payload length).
const REQUEST_HEADER: usize = 30;

/// Size of a [`RequestReader`]'s window, the most one `read` into it
/// may fill. A frame larger than this is the reader's *large frame*:
/// its payload is read into its own buffer instead (see
/// [`LargePayloads`]).
pub const READ_WINDOW: usize = 64 << 10;

/// Incremental request-frame reader for non-blocking / timeout-driven
/// sockets.
///
/// [`read_request`] discards its partial buffer when a read times out,
/// so a stall in the middle of a frame desyncs the stream. This reader
/// instead keeps received bytes across calls: when the underlying read
/// fails with `WouldBlock`/`TimedOut`, [`poll`] returns that error and
/// the next call resumes exactly where the stream blocked, no matter
/// where inside a frame the stall happened.
///
/// It reads into a fixed 64 KiB window ([`READ_WINDOW`]), so one `read`
/// can bring in many pipelined frames, and [`poll`] hands out the
/// buffered ones without touching the source. Their payloads are copied
/// into buffers given back through [`recycle`], so a connection whose
/// WRITEs are answered and recycled stops allocating for payloads.
///
/// A frame larger than the window never passes through it whole. Once
/// its header is in, the payload bytes already in the window are copied
/// once into a payload buffer, and the rest of the payload is read
/// straight into that buffer, never past its end: one copy, and the
/// window neither grows nor shrinks. [`poll_with`] takes that buffer
/// from a [`LargePayloads`] pool, [`poll`] allocates it.
///
/// [`poll`]: RequestReader::poll
/// [`poll_with`]: RequestReader::poll_with
/// [`recycle`]: RequestReader::recycle
pub struct RequestReader {
    /// The window: `buf[start..end]` is received and not yet handed
    /// out. Its length is [`READ_WINDOW`] once the first read happened.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// The large frame being received: its header's fields, with its
    /// whole payload buffer, of which `large_filled` bytes are in. The
    /// window is empty meanwhile: it held nothing past this frame.
    large: Option<Request>,
    large_filled: usize,
    /// Emptied payload buffers, reused for the next payloads: none
    /// larger than the window, and at most one per frame a connection
    /// may have in flight.
    recycled: Vec<Vec<u8>>,
}

impl Default for RequestReader {
    fn default() -> Self {
        Self::new()
    }
}

impl RequestReader {
    /// A reader positioned at a frame boundary. It allocates nothing
    /// until its first read.
    pub fn new() -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            end: 0,
            large: None,
            large_filled: 0,
            recycled: Vec::new(),
        }
    }

    /// Bytes received and not yet handed out as frames, a large frame's
    /// received header and payload bytes included (0 at a frame boundary
    /// with nothing more buffered). Callers can watch this to
    /// distinguish a genuinely idle connection from one slowly trickling
    /// a frame in.
    pub fn buffered(&self) -> usize {
        let large = self
            .large
            .as_ref()
            .map_or(0, |_| REQUEST_HEADER + self.large_filled);
        self.end - self.start + large
    }

    /// Give back a payload [`poll`](RequestReader::poll) handed out, once
    /// it is no longer needed: the next payload is copied into it instead
    /// of a fresh allocation. A buffer larger than the read window, or
    /// one past the pipeline depth's worth already kept, is dropped
    /// (a large payload belongs in a [`LargePayloads`] pool).
    pub fn recycle(&mut self, mut payload: Vec<u8>) {
        let cap = payload.capacity();
        if cap > 0 && cap <= READ_WINDOW && self.recycled.len() < MAX_PIPELINE as usize {
            payload.clear();
            self.recycled.push(payload);
        }
    }

    /// Pull bytes from `r` until a complete frame is buffered, as
    /// [`poll_with`](RequestReader::poll_with) with an empty pool: a
    /// large frame's payload buffer is a fresh allocation.
    ///
    /// # Errors
    ///
    /// As [`poll_with`](RequestReader::poll_with).
    pub fn poll<R: Read>(&mut self, r: &mut R) -> Result<Option<Request>, WireError> {
        self.poll_with(r, &mut LargePayloads::new())
    }

    /// Pull bytes from `r` until a complete frame is buffered, taking a
    /// large frame's payload buffer from `large`.
    ///
    /// Returns `Ok(Some(req))` for a complete frame, `Ok(None)` on a
    /// clean EOF at a frame boundary. A `WouldBlock`/`TimedOut`
    /// transport error surfaces as [`WireError::Io`] with the partial
    /// frame retained — call again to resume.
    ///
    /// # Errors
    ///
    /// [`WireError`] on malformed frames or transport failures.
    pub fn poll_with<R: Read>(
        &mut self,
        r: &mut R,
        large: &mut LargePayloads,
    ) -> Result<Option<Request>, WireError> {
        loop {
            // Invariant: `poll` never reports `WouldBlock` while a
            // complete frame is buffered — each branch below returns a
            // complete frame before the source is touched. An
            // edge-triggered caller stops polling on `WouldBlock` until
            // new bytes arrive, so a frame left behind would be stranded.
            let dst = match &mut self.large {
                Some(req) if self.large_filled == req.payload.len() => {
                    self.large_filled = 0;
                    return Ok(self.large.take());
                }
                Some(req) => &mut req.payload[self.large_filled..],
                None => {
                    let need = self.head_frame_len()?;
                    if self.buffered() >= need {
                        return Ok(Some(self.take_frame(need)));
                    }
                    if need > READ_WINDOW {
                        self.start_large(need, large);
                        continue;
                    }
                    self.make_room();
                    &mut self.buf[self.end..]
                }
            };
            match r.read(dst) {
                Ok(0) if self.buffered() == 0 => return Ok(None),
                Ok(0) => {
                    return Err(WireError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "EOF inside request frame",
                    )))
                }
                Ok(n) if self.large.is_some() => self.large_filled += n,
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(WireError::Io(e)),
            }
        }
    }

    /// Bytes the frame at the head of the window spans: the header's
    /// size until the header is in, then header plus payload. The magic
    /// is checked the moment its 4 bytes are in — a desynced stream is
    /// rejected immediately, not after a full header's worth of garbage
    /// — and op, flags and payload length once the header is, as
    /// [`read_request`] does.
    fn head_frame_len(&self) -> Result<usize, WireError> {
        let head = &self.buf[self.start..self.end];
        if head.len() >= 4 {
            let magic = u32::from_be_bytes(head[0..4].try_into().expect("4 bytes"));
            if magic != REQUEST_MAGIC {
                return Err(WireError::BadMagic(magic));
            }
        }
        if head.len() < REQUEST_HEADER {
            return Ok(REQUEST_HEADER);
        }
        let op = Op::from_code(head[12]).ok_or(WireError::UnknownOp(head[12]))?;
        if head[13] != 0 && !op.takes_volume() {
            return Err(WireError::NonZeroFlags(head[13]));
        }
        let payload_len = u32::from_be_bytes(head[26..30].try_into().expect("4 bytes"));
        if payload_len > MAX_PAYLOAD {
            return Err(WireError::PayloadTooLarge(payload_len));
        }
        Ok(REQUEST_HEADER + payload_len as usize)
    }

    /// Make room to read toward a head frame that fits the window: move
    /// the unread bytes to the front and size the window.
    fn make_room(&mut self) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < READ_WINDOW {
            self.buf.resize(READ_WINDOW, 0);
        }
    }

    /// Start receiving the validated `need`-byte head frame, larger than
    /// the window, as the large frame: copy its payload bytes already in
    /// the window into a payload buffer from `large`, once, and empty
    /// the window. The frame is not complete, so the window holds
    /// nothing past it.
    fn start_large(&mut self, need: usize, large: &mut LargePayloads) {
        let mut payload = large.take(need - REQUEST_HEADER);
        let head = &self.buf[self.start..self.end];
        let have = head.len() - REQUEST_HEADER;
        payload[..have].copy_from_slice(&head[REQUEST_HEADER..]);
        self.large = Some(decode_header(head, payload));
        self.large_filled = have;
        self.start = 0;
        self.end = 0;
    }

    /// Hand out the validated `len`-byte frame at the head of the window.
    fn take_frame(&mut self, len: usize) -> Request {
        let frame = &self.buf[self.start..self.start + len];
        let payload = if len > REQUEST_HEADER {
            let mut payload = self.recycled.pop().unwrap_or_default();
            payload.extend_from_slice(&frame[REQUEST_HEADER..]);
            payload
        } else {
            Vec::new()
        };
        let req = decode_header(frame, payload);
        self.start += len;
        req
    }
}

/// The request a validated frame header (the first [`REQUEST_HEADER`]
/// bytes of `frame`) describes, carrying `payload`.
fn decode_header(frame: &[u8], payload: Vec<u8>) -> Request {
    Request {
        id: u64::from_be_bytes(frame[4..12].try_into().expect("8 bytes")),
        op: Op::from_code(frame[12]).expect("validated with the header"),
        volume: frame[13],
        offset: u64::from_be_bytes(frame[14..22].try_into().expect("8 bytes")),
        length: u32::from_be_bytes(frame[22..26].try_into().expect("4 bytes")),
        payload,
    }
}

/// Payload buffers of frames larger than the read window, kept for the
/// next large frames of every [`RequestReader`] that polls with this
/// pool — a served shard keeps one for all its connections, so an idle
/// connection pins none of it. It keeps at most 2 × [`MAX_PAYLOAD`]
/// bytes of capacity, the most one connection may pin in WRITE
/// payloads and READ responses at once, and drops what would exceed
/// that.
///
/// A kept buffer keeps its length: those bytes are initialized, so a
/// payload no longer than it reuses it without zero-filling, and a
/// longer one zero-fills only the growth before the socket's bytes land
/// in it.
#[derive(Debug, Default)]
pub struct LargePayloads {
    bufs: Vec<Vec<u8>>,
    /// Capacity of `bufs`, summed.
    bytes: usize,
}

impl LargePayloads {
    /// An empty pool; it allocates nothing until a buffer is kept.
    pub fn new() -> Self {
        Self::default()
    }

    /// Keep a large frame's payload buffer once its request is done. A
    /// buffer no larger than the read window, or one that would take
    /// the pool past its cap, is dropped.
    pub fn give(&mut self, payload: Vec<u8>) {
        let cap = payload.capacity();
        if cap > READ_WINDOW && self.bytes + cap <= 2 * MAX_PAYLOAD as usize {
            self.bytes += cap;
            self.bufs.push(payload);
        }
    }

    /// A `len`-byte buffer: the shortest kept one already initialized
    /// that far, else the longest kept one grown (zero-filling the
    /// growth), else a fresh zeroed one.
    fn take(&mut self, len: usize) -> Vec<u8> {
        let fits = (0..self.bufs.len())
            .filter(|&i| self.bufs[i].len() >= len)
            .min_by_key(|&i| self.bufs[i].len());
        let pick = fits.or_else(|| (0..self.bufs.len()).max_by_key(|&i| self.bufs[i].len()));
        let Some(i) = pick else {
            return vec![0; len];
        };
        let mut buf = self.bufs.swap_remove(i);
        self.bytes -= buf.capacity();
        buf.resize(len, 0);
        buf
    }
}

/// Encode and send one response frame.
///
/// # Errors
///
/// As [`write_request`].
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> Result<(), WireError> {
    let mut frame = Vec::new();
    response_frame_into(&mut frame, resp.id, resp.status, resp.payload.len())?;
    frame[RESPONSE_HEADER_LEN..].copy_from_slice(&resp.payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Byte length of a response frame header
/// (magic u32 + id u64 + status u8 + payload length u32).
pub const RESPONSE_HEADER_LEN: usize = 17;

/// Shape a caller-owned buffer into a response frame: resize to
/// `RESPONSE_HEADER_LEN + payload_len` and write the header. Reusing
/// one buffer across responses keeps a long-lived connection's read
/// path allocation-free once the buffer has grown to its steady-state
/// size. The payload region's contents are **unspecified** (stale bytes
/// from a previous response survive a reuse); the caller must overwrite
/// all of `frame[RESPONSE_HEADER_LEN..]` before sending — this is how
/// the zero-copy read paths land array data directly in the outgoing
/// frame instead of going through an intermediate payload `Vec`.
///
/// # Errors
///
/// [`WireError::PayloadTooLarge`] when `payload_len` exceeds
/// [`MAX_PAYLOAD`]; the buffer is left untouched.
pub fn response_frame_into(
    frame: &mut Vec<u8>,
    id: u64,
    status: Status,
    payload_len: usize,
) -> Result<(), WireError> {
    if payload_len as u64 > MAX_PAYLOAD as u64 {
        return Err(WireError::PayloadTooLarge(
            u32::try_from(payload_len).unwrap_or(u32::MAX),
        ));
    }
    frame.resize(RESPONSE_HEADER_LEN + payload_len, 0);
    frame[0..4].copy_from_slice(&RESPONSE_MAGIC.to_be_bytes());
    frame[4..12].copy_from_slice(&id.to_be_bytes());
    frame[12] = status.code();
    frame[13..17].copy_from_slice(&(payload_len as u32).to_be_bytes());
    Ok(())
}

/// Rewrite a frame built by [`response_frame_into`] into a payload-less
/// answer with `status` for the same request id: truncate to the header
/// and patch the status and length fields. Used when a zero-copy read
/// fails after the frame was already sized for the data.
pub fn demote_frame(frame: &mut Vec<u8>, status: Status) {
    frame.truncate(RESPONSE_HEADER_LEN);
    frame[12] = status.code();
    frame[13..17].copy_from_slice(&0u32.to_be_bytes());
}

/// Read one response frame; `Ok(None)` on clean EOF at a frame boundary.
///
/// # Errors
///
/// [`WireError`] on malformed frames or transport failures.
pub fn read_response<R: Read>(r: &mut R) -> Result<Option<Response>, WireError> {
    let Some(magic) = read_magic(r)? else {
        return Ok(None);
    };
    if magic != RESPONSE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let mut head = [0u8; 13];
    read_exact_or(r, &mut head)?;
    let id = u64::from_be_bytes(head[0..8].try_into().expect("8 bytes"));
    let status = Status::from_code(head[8]).ok_or(WireError::UnknownStatus(head[8]))?;
    let payload_len = u32::from_be_bytes(head[9..13].try_into().expect("4 bytes"));
    let payload = read_payload(r, payload_len)?;
    Ok(Some(Response {
        id,
        status,
        payload,
    }))
}

/// Volume geometry and failure state, the INFO response payload.
///
/// Encoding: `unit_bytes u32 · capacity_units u64 · disks u32 · mode u8
/// · failed_count u32 · failed disk indices (u32 each)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolumeInfo {
    /// Bytes per stripe unit.
    pub unit_bytes: u32,
    /// Client capacity in stripe units.
    pub capacity_units: u64,
    /// Disks in the array.
    pub disks: u32,
    /// 0 = fault-free, 1 = degraded, 2 = post-reconstruction.
    pub mode: u8,
    /// Currently failed disks.
    pub failed: Vec<u32>,
}

impl VolumeInfo {
    /// Serialize as the INFO payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(21 + 4 * self.failed.len());
        out.extend_from_slice(&self.unit_bytes.to_be_bytes());
        out.extend_from_slice(&self.capacity_units.to_be_bytes());
        out.extend_from_slice(&self.disks.to_be_bytes());
        out.push(self.mode);
        out.extend_from_slice(&(self.failed.len() as u32).to_be_bytes());
        for d in &self.failed {
            out.extend_from_slice(&d.to_be_bytes());
        }
        out
    }

    /// Parse an INFO payload.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() < 21 {
            return None;
        }
        let unit_bytes = u32::from_be_bytes(buf[0..4].try_into().ok()?);
        let capacity_units = u64::from_be_bytes(buf[4..12].try_into().ok()?);
        let disks = u32::from_be_bytes(buf[12..16].try_into().ok()?);
        let mode = buf[16];
        let n = u32::from_be_bytes(buf[17..21].try_into().ok()?) as usize;
        // Checked: `21 + 4 * n` with an attacker-controlled u32 count
        // wraps usize on 32-bit targets, defeating the length check.
        let expected = n.checked_mul(4).and_then(|b| b.checked_add(21))?;
        if buf.len() != expected {
            return None;
        }
        let failed = (0..n)
            .map(|i| u32::from_be_bytes(buf[21 + 4 * i..25 + 4 * i].try_into().unwrap()))
            .collect();
        Some(Self {
            unit_bytes,
            capacity_units,
            disks,
            mode,
            failed,
        })
    }
}

/// Rebuild lifecycle state reported by `REBUILD_STATUS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildState {
    /// No rebuild has been started since the server came up.
    None,
    /// A background rebuild is in progress.
    Running,
    /// The last rebuild completed; the disk is spared.
    Done,
    /// The last rebuild halted on an error; partial progress is kept
    /// and a new REBUILD resumes where it left off.
    Failed,
    /// The last rebuild was stopped (server shutdown) before finishing.
    Paused,
}

impl RebuildState {
    /// Wire code.
    pub fn code(self) -> u8 {
        match self {
            RebuildState::None => 0,
            RebuildState::Running => 1,
            RebuildState::Done => 2,
            RebuildState::Failed => 3,
            RebuildState::Paused => 4,
        }
    }

    /// Decode a wire code.
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => RebuildState::None,
            1 => RebuildState::Running,
            2 => RebuildState::Done,
            3 => RebuildState::Failed,
            4 => RebuildState::Paused,
            _ => return None,
        })
    }
}

/// Rebuild progress, the REBUILD_STATUS response payload.
///
/// Encoding: `disk u32 · state u8 · repaired u64 · total u64`
/// (21 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildStatus {
    /// Disk the rebuild targets (0 when state is `None`).
    pub disk: u32,
    /// Lifecycle state.
    pub state: RebuildState,
    /// Stripe units repaired so far.
    pub repaired: u64,
    /// Total stripe units the rebuild set out to repair.
    pub total: u64,
}

impl RebuildStatus {
    /// Serialize as the REBUILD_STATUS payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(21);
        out.extend_from_slice(&self.disk.to_be_bytes());
        out.push(self.state.code());
        out.extend_from_slice(&self.repaired.to_be_bytes());
        out.extend_from_slice(&self.total.to_be_bytes());
        out
    }

    /// Parse a REBUILD_STATUS payload.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() != 21 {
            return None;
        }
        Some(Self {
            disk: u32::from_be_bytes(buf[0..4].try_into().ok()?),
            state: RebuildState::from_code(buf[4])?,
            repaired: u64::from_be_bytes(buf[5..13].try_into().ok()?),
            total: u64::from_be_bytes(buf[13..21].try_into().ok()?),
        })
    }
}

/// Serialize a [`pddl_volume::VolumeSpec`] as the VOLUME_CREATE
/// request payload.
///
/// Encoding: `name_len u16 · name (UTF-8) · capacity_units u64 ·
/// tenant u32 · weight u16 · ops_per_sec u64 · bytes_per_sec u64`.
pub fn encode_volume_spec(spec: &pddl_volume::VolumeSpec) -> Vec<u8> {
    let name = spec.name.as_bytes();
    let len = name.len().min(u16::MAX as usize);
    let mut out = Vec::with_capacity(32 + len);
    out.extend_from_slice(&(len as u16).to_be_bytes());
    out.extend_from_slice(&name[..len]);
    out.extend_from_slice(&spec.capacity_units.to_be_bytes());
    out.extend_from_slice(&spec.tenant.to_be_bytes());
    out.extend_from_slice(&spec.weight.to_be_bytes());
    out.extend_from_slice(&spec.ops_per_sec.to_be_bytes());
    out.extend_from_slice(&spec.bytes_per_sec.to_be_bytes());
    out
}

/// Parse a VOLUME_CREATE payload. Returns `None` on truncation,
/// trailing bytes, non-UTF-8 names, or a name longer than the volume
/// layer accepts ([`pddl_volume::manager::MAX_NAME`]) — a hostile
/// length is bounds-checked before any allocation.
pub fn decode_volume_spec(buf: &[u8]) -> Option<pddl_volume::VolumeSpec> {
    let mut c = Cursor { buf, pos: 0 };
    let len = c.u16()? as usize;
    if len > pddl_volume::manager::MAX_NAME {
        return None;
    }
    let name = String::from_utf8(c.take(len)?.to_vec()).ok()?;
    let spec = pddl_volume::VolumeSpec {
        name,
        capacity_units: c.u64()?,
        tenant: c.u32()?,
        weight: c.u16()?,
        ops_per_sec: c.u64()?,
        bytes_per_sec: c.u64()?,
    };
    if !c.done() {
        return None;
    }
    Some(spec)
}

/// Minimum encoded size of one VOLUME_LIST row (empty name).
const VOLUME_ROW_FLOOR: usize = 33;

/// Serialize the volume table as the VOLUME_LIST response payload.
///
/// Encoding: `count u16`, then per row `id u8 · name_len u16 · name ·
/// capacity_units u64 · tenant u32 · weight u16 · ops_per_sec u64 ·
/// bytes_per_sec u64`.
pub fn encode_volume_list(rows: &[pddl_volume::VolumeMeta]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + rows.len() * 48);
    out.extend_from_slice(&(rows.len().min(u16::MAX as usize) as u16).to_be_bytes());
    for row in rows.iter().take(u16::MAX as usize) {
        out.push(row.id);
        let name = row.name.as_bytes();
        let len = name.len().min(u16::MAX as usize);
        out.extend_from_slice(&(len as u16).to_be_bytes());
        out.extend_from_slice(&name[..len]);
        out.extend_from_slice(&row.capacity_units.to_be_bytes());
        out.extend_from_slice(&row.tenant.to_be_bytes());
        out.extend_from_slice(&row.weight.to_be_bytes());
        out.extend_from_slice(&row.ops_per_sec.to_be_bytes());
        out.extend_from_slice(&row.bytes_per_sec.to_be_bytes());
    }
    out
}

/// Parse a VOLUME_LIST payload. Returns `None` on truncation, trailing
/// bytes, non-UTF-8 or oversized names, or a row count that cannot fit
/// the remaining buffer — checked before any per-row allocation.
pub fn decode_volume_list(buf: &[u8]) -> Option<Vec<pddl_volume::VolumeMeta>> {
    let mut c = Cursor { buf, pos: 0 };
    let count = c.u16()? as usize;
    // Cheapest lower bound per row rejects hostile counts up front.
    if count.checked_mul(VOLUME_ROW_FLOOR)? > buf.len().saturating_sub(c.pos) {
        return None;
    }
    let mut rows = Vec::with_capacity(count);
    for _ in 0..count {
        let id = c.u8()?;
        let len = c.u16()? as usize;
        if len > pddl_volume::manager::MAX_NAME {
            return None;
        }
        let name = String::from_utf8(c.take(len)?.to_vec()).ok()?;
        rows.push(pddl_volume::VolumeMeta {
            id,
            name,
            capacity_units: c.u64()?,
            tenant: c.u32()?,
            weight: c.u16()?,
            ops_per_sec: c.u64()?,
            bytes_per_sec: c.u64()?,
        });
    }
    if !c.done() {
        return None;
    }
    Some(rows)
}

/// The array's row of a [`PoolInfo`] report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolArrayInfo {
    /// Disks in the array.
    pub disks: u32,
    /// Total capacity in stripe units.
    pub capacity_units: u64,
    /// Units not allocated to any volume.
    pub free_units: u64,
    /// 0 = fault-free, 1 = degraded, 2 = post-reconstruction.
    pub mode: u8,
    /// Currently failed disks.
    pub failed: Vec<u32>,
}

/// Array geometry and failure state, the POOL_INFO response payload.
/// INFO answers for one volume; this answers for the array. The server
/// exports one array, so its payload has exactly one row; the row count
/// stays on the wire, and a decoder accepts any count.
///
/// Encoding: `unit_bytes u32 · volumes u16 · rows u8`, then per row
/// `disks u32 · capacity_units u64 · free_units u64 · mode u8 ·
/// failed_count u32 · failed indices (u32 each)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolInfo {
    /// Bytes per stripe unit.
    pub unit_bytes: u32,
    /// Live volume count.
    pub volumes: u16,
    /// One row per array: the server sends exactly one.
    pub arrays: Vec<PoolArrayInfo>,
}

impl PoolInfo {
    /// Serialize as the POOL_INFO payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(7 + self.arrays.len() * 25);
        out.extend_from_slice(&self.unit_bytes.to_be_bytes());
        out.extend_from_slice(&self.volumes.to_be_bytes());
        out.push(self.arrays.len().min(u8::MAX as usize) as u8);
        for a in self.arrays.iter().take(u8::MAX as usize) {
            out.extend_from_slice(&a.disks.to_be_bytes());
            out.extend_from_slice(&a.capacity_units.to_be_bytes());
            out.extend_from_slice(&a.free_units.to_be_bytes());
            out.push(a.mode);
            out.extend_from_slice(&(a.failed.len() as u32).to_be_bytes());
            for d in &a.failed {
                out.extend_from_slice(&d.to_be_bytes());
            }
        }
        out
    }

    /// Parse a POOL_INFO payload. Returns `None` on truncation,
    /// trailing bytes, or hostile counts — all length math is checked
    /// against the remaining buffer before anything is allocated.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        let mut c = Cursor { buf, pos: 0 };
        let unit_bytes = c.u32()?;
        let volumes = c.u16()?;
        let rows = c.u8()? as usize;
        let mut arrays = Vec::with_capacity(rows);
        for _ in 0..rows {
            let disks = c.u32()?;
            let capacity_units = c.u64()?;
            let free_units = c.u64()?;
            let mode = c.u8()?;
            let failed_count = c.u32()? as usize;
            // 4 bytes per failed index; reject counts the buffer
            // cannot hold before reserving anything.
            if failed_count.checked_mul(4)? > buf.len().saturating_sub(c.pos) {
                return None;
            }
            let mut failed = Vec::with_capacity(failed_count);
            for _ in 0..failed_count {
                failed.push(c.u32()?);
            }
            arrays.push(PoolArrayInfo {
                disks,
                capacity_units,
                free_units,
                mode,
                failed,
            });
        }
        if !c.done() {
            return None;
        }
        Some(Self {
            unit_bytes,
            volumes,
            arrays,
        })
    }
}

/// Version tag leading every STATS payload.
pub const STATS_VERSION: u16 = pddl_obs::TelemetrySnapshot::VERSION;
/// Version tag leading every TRACE_DUMP payload.
pub const TRACE_VERSION: u16 = 1;

/// Fixed size of one encoded [`OpSpan`] record in a TRACE_DUMP payload.
const SPAN_RECORD_LEN: usize = 57;

/// Serialize a [`pddl_obs::TelemetrySnapshot`] as the STATS payload.
///
/// Encoding (big-endian): `version u16 · counter_count u32 · gauge_count
/// u32 · hist_count u32`, then counters as `name_len u16 · name · value
/// u64`, gauges as `name_len u16 · name · f64 bits u64`, histograms as
/// `name_len u16 · name · sum u128 · min u64 · max u64 · nonzero u16 ·
/// (bucket u8 · count u64)*` — histograms are sparse (only non-empty
/// buckets travel), and all three sections are sorted by name.
pub fn encode_stats(snap: &pddl_obs::TelemetrySnapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(&STATS_VERSION.to_be_bytes());
    out.extend_from_slice(&(snap.counters.len() as u32).to_be_bytes());
    out.extend_from_slice(&(snap.gauges.len() as u32).to_be_bytes());
    out.extend_from_slice(&(snap.hists.len() as u32).to_be_bytes());
    let push_name = |out: &mut Vec<u8>, name: &str| {
        let bytes = name.as_bytes();
        let len = bytes.len().min(u16::MAX as usize);
        out.extend_from_slice(&(len as u16).to_be_bytes());
        out.extend_from_slice(&bytes[..len]);
    };
    for (name, v) in &snap.counters {
        push_name(&mut out, name);
        out.extend_from_slice(&v.to_be_bytes());
    }
    for (name, v) in &snap.gauges {
        push_name(&mut out, name);
        out.extend_from_slice(&v.to_bits().to_be_bytes());
    }
    for (name, h) in &snap.hists {
        push_name(&mut out, name);
        out.extend_from_slice(&h.sum().to_be_bytes());
        out.extend_from_slice(&h.min().to_be_bytes());
        out.extend_from_slice(&h.max().to_be_bytes());
        let nonzero: Vec<(usize, u64)> = h
            .bucket_counts()
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect();
        out.extend_from_slice(&(nonzero.len() as u16).to_be_bytes());
        for (i, c) in nonzero {
            out.push(i as u8);
            out.extend_from_slice(&c.to_be_bytes());
        }
    }
    out
}

/// Bounds-checked sequential reader over an untrusted payload. Every
/// accessor advances the cursor and fails (never panics, never reads
/// out of bounds) on truncation — the decoder analogue of the checked
/// arithmetic in [`VolumeInfo::decode`].
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_be_bytes(self.take(2)?.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_be_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_be_bytes(self.take(8)?.try_into().ok()?))
    }

    fn u128(&mut self) -> Option<u128> {
        Some(u128::from_be_bytes(self.take(16)?.try_into().ok()?))
    }

    fn name(&mut self) -> Option<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Parse a STATS payload. Returns `None` on any malformed input: bad
/// version, truncation, non-UTF-8 names, out-of-range bucket indices,
/// or trailing bytes. Hostile section counts cannot over-allocate —
/// every element is length-checked against the remaining buffer before
/// anything is reserved.
pub fn decode_stats(buf: &[u8]) -> Option<pddl_obs::TelemetrySnapshot> {
    let mut c = Cursor { buf, pos: 0 };
    if c.u16()? != STATS_VERSION {
        return None;
    }
    let counters = c.u32()? as usize;
    let gauges = c.u32()? as usize;
    let hists = c.u32()? as usize;
    // Cheapest possible lower bound (2 bytes per element) — rejects
    // hostile counts before any per-element work or allocation.
    let floor = counters
        .checked_add(gauges)?
        .checked_add(hists)?
        .checked_mul(2)?;
    if floor > buf.len().saturating_sub(c.pos) {
        return None;
    }
    let mut snap = pddl_obs::TelemetrySnapshot::default();
    for _ in 0..counters {
        let name = c.name()?;
        snap.counters.push((name, c.u64()?));
    }
    for _ in 0..gauges {
        let name = c.name()?;
        snap.gauges.push((name, f64::from_bits(c.u64()?)));
    }
    for _ in 0..hists {
        let name = c.name()?;
        let sum = c.u128()?;
        let min = c.u64()?;
        let max = c.u64()?;
        let nonzero = c.u16()? as usize;
        let mut counts = [0u64; 129];
        for _ in 0..nonzero {
            let i = c.u8()? as usize;
            let count = c.u64()?;
            if i >= counts.len() || counts[i] != 0 {
                return None;
            }
            counts[i] = count;
        }
        snap.hists.push((
            name,
            pddl_obs::LogHistogram::from_parts(counts, sum, min, max),
        ));
    }
    if !c.done() {
        return None;
    }
    Some(snap)
}

/// Serialize flight-recorder spans as the TRACE_DUMP payload.
///
/// Encoding (big-endian): `version u16 · count u32`, then one fixed
/// 57-byte record per span: `worker u16 · flags u8 (bit 0 = slow) · op
/// u8 · status u8 · len u32 · id u64 · offset u64 · start_ns u64 ·
/// queue_ns u64 · array_ns u64 · total_ns u64`.
pub fn encode_spans(spans: &[pddl_obs::OpSpan]) -> Vec<u8> {
    let mut out = Vec::with_capacity(6 + spans.len() * SPAN_RECORD_LEN);
    out.extend_from_slice(&TRACE_VERSION.to_be_bytes());
    out.extend_from_slice(&(spans.len() as u32).to_be_bytes());
    for s in spans {
        out.extend_from_slice(&s.worker.to_be_bytes());
        out.push(u8::from(s.slow));
        out.push(s.op.index() as u8);
        out.push(s.status);
        out.extend_from_slice(&s.len.to_be_bytes());
        out.extend_from_slice(&s.id.to_be_bytes());
        out.extend_from_slice(&s.offset.to_be_bytes());
        out.extend_from_slice(&s.start_ns.to_be_bytes());
        out.extend_from_slice(&s.queue_ns.to_be_bytes());
        out.extend_from_slice(&s.array_ns.to_be_bytes());
        out.extend_from_slice(&s.total_ns.to_be_bytes());
    }
    out
}

/// Parse a TRACE_DUMP payload. Returns `None` on bad version, unknown
/// op/flag bits, a count that disagrees with the payload size (checked
/// arithmetic — a hostile u32 count cannot wrap the expected length),
/// or trailing bytes.
pub fn decode_spans(buf: &[u8]) -> Option<Vec<pddl_obs::OpSpan>> {
    let mut c = Cursor { buf, pos: 0 };
    if c.u16()? != TRACE_VERSION {
        return None;
    }
    let count = c.u32()? as usize;
    let expected = count.checked_mul(SPAN_RECORD_LEN)?.checked_add(6)?;
    if buf.len() != expected {
        return None;
    }
    let mut spans = Vec::with_capacity(count);
    for _ in 0..count {
        let worker = c.u16()?;
        let flags = c.u8()?;
        if flags & !1 != 0 {
            return None;
        }
        let op = pddl_obs::OpKind::from_index(c.u8()? as usize)?;
        let status = c.u8()?;
        let len = c.u32()?;
        spans.push(pddl_obs::OpSpan {
            worker,
            slow: flags & 1 == 1,
            id: c.u64()?,
            op,
            status,
            offset: c.u64()?,
            len,
            start_ns: c.u64()?,
            queue_ns: c.u64()?,
            array_ns: c.u64()?,
            total_ns: c.u64()?,
        });
    }
    if !c.done() {
        return None;
    }
    Some(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_frames_round_trip() {
        let cases = vec![
            Request {
                id: 1,
                op: Op::Read,
                volume: 0,
                offset: 42,
                length: 3,
                payload: vec![],
            },
            Request {
                id: u64::MAX,
                op: Op::Write,
                volume: 7,
                offset: 0,
                length: 2,
                payload: vec![7u8; 64],
            },
            Request {
                id: 9,
                op: Op::FailDisk,
                volume: 0,
                offset: 5,
                length: 0,
                payload: vec![],
            },
            Request {
                id: 10,
                op: Op::VolumeResize,
                volume: 255,
                offset: 4096,
                length: 0,
                payload: vec![],
            },
        ];
        for req in cases {
            let mut buf = Vec::new();
            write_request(&mut buf, &req).unwrap();
            let got = read_request(&mut buf.as_slice()).unwrap().unwrap();
            assert_eq!(got, req);
        }
    }

    #[test]
    fn response_frames_round_trip() {
        for status in [Status::Ok, Status::BadAddress, Status::Shutdown] {
            let resp = Response {
                id: 77,
                status,
                payload: vec![1, 2, 3],
            };
            let mut buf = Vec::new();
            write_response(&mut buf, &resp).unwrap();
            let got = read_response(&mut buf.as_slice()).unwrap().unwrap();
            assert_eq!(got, resp);
        }
    }

    #[test]
    fn clean_eof_is_none_and_truncation_is_an_error() {
        assert!(read_request(&mut [].as_slice()).unwrap().is_none());
        assert!(read_response(&mut [].as_slice()).unwrap().is_none());
        // A frame cut mid-header is a hard error, not a quiet None.
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            &Request {
                id: 1,
                op: Op::Read,
                volume: 0,
                offset: 0,
                length: 1,
                payload: vec![],
            },
        )
        .unwrap();
        let truncated = &buf[..10];
        assert!(matches!(
            read_request(&mut &truncated[..]),
            Err(WireError::Io(_))
        ));
    }

    #[test]
    fn malformed_frames_are_rejected() {
        // Wrong magic.
        let mut buf = RESPONSE_MAGIC.to_be_bytes().to_vec();
        buf.resize(30, 0);
        assert!(matches!(
            read_request(&mut buf.as_slice()),
            Err(WireError::BadMagic(m)) if m == RESPONSE_MAGIC
        ));
        // Unknown op.
        let mut buf = Vec::new();
        buf.extend_from_slice(&REQUEST_MAGIC.to_be_bytes());
        buf.extend_from_slice(&1u64.to_be_bytes());
        buf.push(99); // op
        buf.push(0); // flags
        buf.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            read_request(&mut buf.as_slice()),
            Err(WireError::UnknownOp(99))
        ));
        // Non-zero reserved flags on an op that takes no volume.
        let mut buf = Vec::new();
        buf.extend_from_slice(&REQUEST_MAGIC.to_be_bytes());
        buf.extend_from_slice(&1u64.to_be_bytes());
        buf.push(9); // op = stats, flags stay reserved
        buf.push(0xff); // flags
        buf.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            read_request(&mut buf.as_slice()),
            Err(WireError::NonZeroFlags(0xff))
        ));
        // The same byte on a volume-scoped op is a volume id, not an
        // error — backward-compatible reuse of the reserved byte.
        let mut buf = Vec::new();
        buf.extend_from_slice(&REQUEST_MAGIC.to_be_bytes());
        buf.extend_from_slice(&1u64.to_be_bytes());
        buf.push(1); // op = read
        buf.push(0xff); // volume 255
        buf.extend_from_slice(&[0u8; 16]);
        let req = read_request(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!((req.op, req.volume), (Op::Read, 0xff));
        // The writer refuses a volume on a non-volume op before any
        // bytes hit the wire.
        assert!(matches!(
            write_request(
                &mut Vec::new(),
                &Request {
                    id: 1,
                    op: Op::Flush,
                    volume: 3,
                    offset: 0,
                    length: 0,
                    payload: vec![],
                }
            ),
            Err(WireError::NonZeroFlags(3))
        ));
        // Oversized declared payload.
        let mut buf = Vec::new();
        buf.extend_from_slice(&REQUEST_MAGIC.to_be_bytes());
        buf.extend_from_slice(&1u64.to_be_bytes());
        buf.push(2); // op = write
        buf.push(0);
        buf.extend_from_slice(&0u64.to_be_bytes());
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            read_request(&mut buf.as_slice()),
            Err(WireError::PayloadTooLarge(_))
        ));
    }

    /// Yields the scripted chunks one at a time, interleaving a
    /// `WouldBlock` error after each — the shape of a socket with a
    /// short `SO_RCVTIMEO` receiving a frame in dribbles.
    struct Dribble {
        chunks: Vec<Vec<u8>>,
        next: usize,
        ready: bool,
    }

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"));
            }
            self.ready = false;
            let Some(chunk) = self.chunks.get(self.next) else {
                return Ok(0);
            };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            if n == chunk.len() {
                self.next += 1;
            } else {
                self.chunks[self.next].drain(..n);
            }
            Ok(n)
        }
    }

    #[test]
    fn request_reader_resumes_across_would_block_ticks() {
        let req = Request {
            id: 42,
            op: Op::Write,
            volume: 5,
            offset: 7,
            length: 2,
            payload: vec![0xa5u8; 64],
        };
        let mut frame = Vec::new();
        write_request(&mut frame, &req).unwrap();
        // Split mid-header and mid-payload: both stalls must survive.
        let chunks = vec![
            frame[..9].to_vec(),
            frame[9..40].to_vec(),
            frame[40..].to_vec(),
        ];
        let mut src = Dribble {
            chunks,
            next: 0,
            ready: false,
        };
        let mut reader = RequestReader::new();
        let mut ticks = 0;
        let got = loop {
            match reader.poll(&mut src) {
                Ok(Some(r)) => break r,
                Ok(None) => panic!("EOF before the frame completed"),
                Err(WireError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => ticks += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        };
        assert_eq!(got, req);
        assert!(
            ticks >= 3,
            "expected repeated WouldBlock ticks, saw {ticks}"
        );
        assert_eq!(reader.buffered(), 0, "reader should reset at the boundary");
        // Clean EOF at the boundary is still None.
        src.ready = true;
        assert!(reader.poll(&mut src).unwrap().is_none());
    }

    /// Serves `data` at most `k` bytes per `read`, with a `WouldBlock`
    /// before every read — a non-blocking socket fed in `k`-byte
    /// segments.
    struct Segmented<'a> {
        data: &'a [u8],
        k: usize,
        ready: bool,
    }

    impl Read for Segmented<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"));
            }
            self.ready = false;
            let n = self.data.len().min(self.k).min(buf.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// How a decode stopped: clean EOF, or the error, comparably.
    fn ending(e: Option<WireError>) -> String {
        match e {
            None => "eof".into(),
            Some(WireError::Io(e)) => format!("io {:?}", e.kind()),
            Some(e) => e.to_string(),
        }
    }

    /// Every request [`read_request`] decodes from `bytes`, then how
    /// it stopped.
    fn decode_blocking(mut bytes: &[u8]) -> (Vec<Request>, String) {
        let mut got = Vec::new();
        loop {
            match read_request(&mut bytes) {
                Ok(Some(req)) => got.push(req),
                Ok(None) => return (got, ending(None)),
                Err(e) => return (got, ending(Some(e))),
            }
        }
    }

    /// The same through a [`RequestReader`] fed `k` bytes per read,
    /// checking at every `WouldBlock` that the next of the `expected`
    /// frames is not already buffered (the reader's invariant) and that
    /// `buffered()` counts every byte read and not handed out, a large
    /// frame's included; and after every poll that the window stayed
    /// within [`READ_WINDOW`].
    fn decode_streaming(bytes: &[u8], k: usize, expected: &[Request]) -> (Vec<Request>, String) {
        let mut src = Segmented {
            data: bytes,
            k,
            ready: false,
        };
        let mut reader = RequestReader::new();
        let mut got = Vec::new();
        let mut handed_out = 0;
        loop {
            let polled = reader.poll(&mut src);
            assert!(
                reader.buf.capacity() <= READ_WINDOW,
                "window grew to {}",
                reader.buf.capacity()
            );
            match polled {
                Ok(Some(req)) => {
                    handed_out += REQUEST_HEADER + req.payload.len();
                    got.push(req);
                }
                Ok(None) => return (got, ending(None)),
                Err(WireError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => {
                    let read = bytes.len() - src.data.len();
                    assert_eq!(reader.buffered(), read - handed_out, "buffered() miscounts");
                    if let Some(next) = expected.get(got.len()) {
                        let len = REQUEST_HEADER + next.payload.len();
                        assert!(reader.buffered() < len, "WouldBlock with a whole frame in");
                    }
                }
                Err(e) => return (got, ending(Some(e))),
            }
        }
    }

    /// 200 frames cycling through every op, each with a 0–3-unit
    /// payload of 64-byte units, plus one frame larger than the read
    /// window in the middle.
    fn mixed_frames() -> Vec<Vec<u8>> {
        let mut rng = pddl_core::rng::Xoshiro256pp::seed_from_u64(26);
        (0..200u8)
            .map(|i| {
                let op = Op::from_code(1 + i % 15).expect("codes 1..=15");
                let units = rng.below(4);
                let bytes = if i == 100 {
                    READ_WINDOW + 100
                } else {
                    units * 64
                };
                let req = Request {
                    id: rng.next_u64(),
                    op,
                    volume: if op.takes_volume() { i } else { 0 },
                    offset: rng.next_u64() >> rng.below(64),
                    length: units as u32,
                    payload: vec![i; bytes],
                };
                let mut frame = Vec::new();
                write_request(&mut frame, &req).unwrap();
                frame
            })
            .collect()
    }

    #[test]
    fn request_reader_decodes_exactly_what_read_request_does() {
        let frames = mixed_frames();
        let valid = frames.concat();
        // One malformed frame at position `at`, valid frames after it.
        type Mangle = fn(&mut Vec<u8>);
        let corrupt: [(&str, Mangle); 5] = [
            ("bad magic", |f| f[0] ^= 0xff),
            ("unknown op", |f| f[12] = 99),
            ("non-zero flags", |f| {
                f[12] = Op::Stats.code();
                f[13] = 0x5a;
            }),
            ("oversize payload", |f| {
                f[26..30].copy_from_slice(&(MAX_PAYLOAD + 1).to_be_bytes())
            }),
            ("EOF inside the frame", |f| {
                let cut = [1, 3, 4, 17, 29, 30, f.len() - 1][f[4] as usize % 7];
                f.truncate(cut.min(f.len() - 1));
            }),
        ];
        let mut streams = vec![("valid".to_string(), valid, frames.len())];
        for (what, mangle) in corrupt {
            for at in [0usize, 1, 120, 199] {
                let mut bad = frames[at].clone();
                mangle(&mut bad);
                let mut bytes = frames[..at].concat();
                bytes.extend_from_slice(&bad);
                if what != "EOF inside the frame" {
                    bytes.extend_from_slice(&frames[at + 1..].concat());
                }
                streams.push((format!("{what} at frame {at}"), bytes, at));
            }
        }
        // Payloads around and well past the window: the frame that fills
        // it exactly, the first that does not fit, and the served large
        // accesses (240 KiB is 30 units of 8 KiB). Each is followed by a
        // small frame, which must come out of the window after it, and is
        // also cut short: in its header, just after it, at the window's
        // edge and one byte before its end.
        for payload in [
            READ_WINDOW - REQUEST_HEADER,
            READ_WINDOW - REQUEST_HEADER + 1,
            READ_WINDOW + 1,
            240 << 10,
            1 << 20,
        ] {
            let frames: Vec<Vec<u8>> = [
                (1, Op::Write, payload),
                (2, Op::Write, 64),
                (3, Op::Read, 0),
            ]
            .into_iter()
            .map(|(id, op, len)| {
                let req = Request {
                    id,
                    op,
                    volume: 3,
                    offset: id * 1000,
                    length: 30,
                    payload: (0..len).map(|i| (i % 251) as u8).collect(),
                };
                let mut frame = Vec::new();
                write_request(&mut frame, &req).unwrap();
                frame
            })
            .collect();
            let bytes = frames.concat();
            let big = frames[0].len();
            for cut in [REQUEST_HEADER - 1, REQUEST_HEADER + 1, READ_WINDOW, big - 1] {
                let what = format!("{payload}-byte payload, EOF at byte {cut}");
                streams.push((what, bytes[..cut].to_vec(), usize::from(cut == big)));
            }
            streams.push((format!("{payload}-byte payload"), bytes, frames.len()));
        }
        for (what, bytes, good) in &streams {
            let want = decode_blocking(bytes);
            assert_eq!(
                want.0.len(),
                *good,
                "{what}: reference decoded {}",
                want.0.len()
            );
            for k in [1, 7, 29, 30, 31, 8192, 65536, 65537] {
                let got = decode_streaming(bytes, k, &want.0);
                assert_eq!(got.1, want.1, "{what}, {k}-byte reads: ending");
                assert!(got.0 == want.0, "{what}, {k}-byte reads: frames differ");
            }
        }
    }

    /// Counts the `read` calls made on a byte slice.
    struct CountingRead<'a> {
        data: &'a [u8],
        reads: usize,
    }

    impl Read for CountingRead<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            self.data.read(buf)
        }
    }

    #[test]
    fn request_reader_takes_many_frames_per_read() {
        let mut bytes = Vec::new();
        for i in 0..16u64 {
            let req = Request {
                id: i,
                op: Op::Write,
                volume: 0,
                offset: i,
                length: 1,
                payload: vec![i as u8; 8192],
            };
            write_request(&mut bytes, &req).unwrap();
        }
        let mut src = CountingRead {
            data: &bytes,
            reads: 0,
        };
        let mut reader = RequestReader::new();
        for i in 0..16u64 {
            let req = reader.poll(&mut src).unwrap().expect("a frame");
            assert_eq!((req.id, req.payload.len()), (i, 8192));
        }
        // 16 × 8222 bytes through 64 KiB windows: three reads, where
        // reading header and payload separately takes 32.
        assert!(src.reads <= 3, "{} reads for 16 frames", src.reads);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn request_reader_releases_a_large_frame_and_caps_recycling() {
        let large = |id: u64, fill: u8| Request {
            id,
            op: Op::Write,
            volume: 0,
            offset: 0,
            length: 512,
            payload: vec![fill; 4 << 20],
        };
        let small = Request {
            id: 9,
            op: Op::Write,
            volume: 0,
            offset: 9,
            length: 1,
            payload: vec![9; 8192],
        };
        let mut bytes = Vec::new();
        for req in [large(1, 7), large(2, 8), small.clone()] {
            write_request(&mut bytes, &req).unwrap();
        }
        let mut src = bytes.as_slice();
        let mut reader = RequestReader::new();
        let mut pool = LargePayloads::new();

        // A large frame is received into its own buffer: the window
        // never grows, and once the frame is out the reader holds
        // nothing of it.
        let got = reader
            .poll_with(&mut src, &mut pool)
            .unwrap()
            .expect("a frame");
        assert!(got == large(1, 7));
        assert!(reader.buf.capacity() <= READ_WINDOW);
        assert!(reader.large.is_none() && reader.buffered() == 0);
        // The reader does not keep a large payload; the pool does.
        let at = got.payload.as_ptr();
        reader.recycle(got.payload.clone());
        assert!(reader.recycled.is_empty());
        pool.give(got.payload);
        assert_eq!(pool.bytes, 4 << 20);
        // The next large frame reuses it, overwritten by its own bytes.
        let got = reader
            .poll_with(&mut src, &mut pool)
            .unwrap()
            .expect("a frame");
        assert!(got == large(2, 8));
        assert_eq!(got.payload.as_ptr(), at, "the kept buffer was not reused");
        assert_eq!(pool.bytes, 0);
        assert_eq!(reader.poll_with(&mut src, &mut pool).unwrap(), Some(small));
        assert!(reader.buf.capacity() <= READ_WINDOW);

        // The pool keeps at most 2 × MAX_PAYLOAD bytes, and no buffer
        // that fits the window.
        pool.give(vec![0; READ_WINDOW]);
        assert_eq!(pool.bytes, 0);
        for _ in 0..3 {
            pool.give(Vec::with_capacity(MAX_PAYLOAD as usize));
        }
        assert_eq!(pool.bytes, 2 * MAX_PAYLOAD as usize);
        // A payload no longer than a kept buffer's initialized bytes
        // reuses the shortest such buffer without growing it.
        let mut pool = LargePayloads::new();
        pool.give(vec![1; 300 << 10]);
        pool.give(vec![2; 200 << 10]);
        let buf = pool.take(100 << 10);
        assert_eq!(
            (buf.len(), buf.capacity(), buf[0]),
            (100 << 10, 200 << 10, 2)
        );
        // A longer one grows the longest kept buffer.
        let buf = pool.take(400 << 10);
        assert_eq!((buf.len(), buf[0], buf[(400 << 10) - 1]), (400 << 10, 1, 0));
        assert_eq!(pool.bytes, 0);

        // An idle reader keeps at most one recycled payload per frame in
        // flight.
        for _ in 0..2 * MAX_PIPELINE {
            reader.recycle(vec![0; 64]);
        }
        assert_eq!(reader.recycled.len(), MAX_PIPELINE as usize);
        assert_eq!(reader.poll(&mut src).unwrap(), None);
    }

    #[test]
    fn request_reader_rejects_malformed_headers() {
        let mut reader = RequestReader::new();
        let mut bad_magic = 0xdead_beefu32.to_be_bytes().to_vec();
        bad_magic.resize(REQUEST_HEADER, 0);
        assert!(matches!(
            reader.poll(&mut bad_magic.as_slice()),
            Err(WireError::BadMagic(0xdead_beef))
        ));

        let mut reader = RequestReader::new();
        let mut frame = Vec::new();
        frame.extend_from_slice(&REQUEST_MAGIC.to_be_bytes());
        frame.extend_from_slice(&1u64.to_be_bytes());
        frame.push(2); // op = write
        frame.push(0);
        frame.extend_from_slice(&0u64.to_be_bytes());
        frame.extend_from_slice(&1u32.to_be_bytes());
        frame.extend_from_slice(&u32::MAX.to_be_bytes()); // oversized payload
        assert!(matches!(
            reader.poll(&mut frame.as_slice()),
            Err(WireError::PayloadTooLarge(_))
        ));

        // Non-zero flags on a reserved-flags op is rejected at the
        // header, same as the blocking reader.
        let mut reader = RequestReader::new();
        let mut frame = Vec::new();
        frame.extend_from_slice(&REQUEST_MAGIC.to_be_bytes());
        frame.extend_from_slice(&1u64.to_be_bytes());
        frame.push(9); // op = stats
        frame.push(0x5a);
        frame.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            reader.poll(&mut frame.as_slice()),
            Err(WireError::NonZeroFlags(0x5a))
        ));
    }

    #[test]
    fn op_and_status_codes_round_trip() {
        for op in [
            Op::Read,
            Op::Write,
            Op::Flush,
            Op::Trim,
            Op::Info,
            Op::FailDisk,
            Op::Rebuild,
            Op::RebuildStatus,
            Op::Stats,
            Op::TraceDump,
            Op::VolumeCreate,
            Op::VolumeDelete,
            Op::VolumeResize,
            Op::VolumeList,
            Op::PoolInfo,
        ] {
            assert_eq!(Op::from_code(op.code()), Some(op));
        }
        assert_eq!(Op::from_code(0), None);
        assert_eq!(Op::from_code(16), None);
        for code in 0..=14u8 {
            let s = Status::from_code(code).unwrap();
            assert_eq!(s.code(), code);
            assert!(!s.to_string().is_empty());
        }
        assert_eq!(Status::from_code(15), None);
        // The volume-scoped set is exactly the ops whose flags byte is
        // repurposed; everything else keeps reserved-zero semantics.
        for op in [
            Op::Read,
            Op::Write,
            Op::Trim,
            Op::Info,
            Op::VolumeDelete,
            Op::VolumeResize,
        ] {
            assert!(op.takes_volume(), "{op:?}");
        }
        for op in [
            Op::Flush,
            Op::FailDisk,
            Op::Rebuild,
            Op::RebuildStatus,
            Op::Stats,
            Op::TraceDump,
            Op::VolumeCreate,
            Op::VolumeList,
            Op::PoolInfo,
        ] {
            assert!(!op.takes_volume(), "{op:?}");
        }
    }

    #[test]
    fn volume_info_round_trips() {
        let info = VolumeInfo {
            unit_bytes: 512,
            capacity_units: 4096,
            disks: 13,
            mode: 1,
            failed: vec![3, 9],
        };
        assert_eq!(VolumeInfo::decode(&info.encode()), Some(info));
        assert_eq!(VolumeInfo::decode(&[1, 2, 3]), None);
        // No failed disks round-trips too.
        let clean = VolumeInfo {
            unit_bytes: 64,
            capacity_units: 10,
            disks: 7,
            mode: 0,
            failed: vec![],
        };
        assert_eq!(VolumeInfo::decode(&clean.encode()), Some(clean));
    }

    #[test]
    fn volume_info_rejects_truncation_and_hostile_counts() {
        let info = VolumeInfo {
            unit_bytes: 512,
            capacity_units: 4096,
            disks: 13,
            mode: 1,
            failed: vec![3, 9, 11],
        };
        let frame = info.encode();
        // Any truncation or padding must fail, never read out of bounds.
        for cut in 0..frame.len() {
            assert_eq!(VolumeInfo::decode(&frame[..cut]), None, "cut={cut}");
        }
        let mut padded = frame.clone();
        padded.push(0);
        assert_eq!(VolumeInfo::decode(&padded), None);
        // Hostile count: `n = u32::MAX` makes the unchecked `21 + 4 * n`
        // wrap to a small value on 32-bit targets and pass the length
        // check; the checked arithmetic must reject it on every target.
        let mut hostile = frame[..17].to_vec();
        hostile.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(VolumeInfo::decode(&hostile), None);
        // The exact wrap shape: 21 + 4*n ≡ buf.len() (mod 2^32).
        let n = (u32::MAX / 4) - 4; // 4*n wraps to -37 mod 2^32
        let mut wrap = frame[..17].to_vec();
        wrap.extend_from_slice(&n.to_be_bytes());
        assert_eq!(VolumeInfo::decode(&wrap), None);
    }

    fn sample_snapshot() -> pddl_obs::TelemetrySnapshot {
        let t = pddl_obs::Telemetry::new(2);
        for total in [1_000u64, 4_096, 1_000_000, 30_000_000] {
            t.record(&pddl_obs::OpRecord {
                id: total,
                op: pddl_obs::OpKind::Read,
                status: 0,
                ok: total != 4_096,
                offset: 7,
                len: 2,
                bytes_read: 1_024,
                bytes_written: 0,
                start_ns: total,
                queue_ns: total / 10,
                array_ns: total - total / 10,
                total_ns: total,
            });
        }
        t.set_gauge_source("queue.depth", Box::new(|| 2.5));
        t.snapshot()
    }

    #[test]
    fn stats_payload_round_trips() {
        let snap = sample_snapshot();
        let buf = encode_stats(&snap);
        assert_eq!(decode_stats(&buf), Some(snap.clone()));
        // An empty snapshot round-trips too.
        let empty = pddl_obs::TelemetrySnapshot::default();
        assert_eq!(decode_stats(&encode_stats(&empty)), Some(empty));
        // Spot-check the decoded content survived sparsely.
        let got = decode_stats(&buf).unwrap();
        assert_eq!(got.counter("op.read.count"), Some(4));
        assert_eq!(got.counter("op.read.errors"), Some(1));
        assert_eq!(got.gauge("queue.depth"), Some(2.5));
        let h = got.hist("latency.read_ns").unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 1_000);
        assert_eq!(h.max(), 30_000_000);
    }

    #[test]
    fn stats_decoder_rejects_hostile_payloads() {
        let buf = encode_stats(&sample_snapshot());
        // Any truncation or padding fails, never panics.
        for cut in 0..buf.len() {
            assert_eq!(decode_stats(&buf[..cut]), None, "cut={cut}");
        }
        let mut padded = buf.clone();
        padded.push(0);
        assert_eq!(decode_stats(&padded), None);
        // Wrong version.
        let mut wrong = buf.clone();
        wrong[0] = 0xff;
        assert_eq!(decode_stats(&wrong), None);
        // Hostile section counts cannot cause huge allocation: claim
        // u32::MAX counters in a tiny buffer.
        let mut hostile = STATS_VERSION.to_be_bytes().to_vec();
        hostile.extend_from_slice(&u32::MAX.to_be_bytes());
        hostile.extend_from_slice(&0u32.to_be_bytes());
        hostile.extend_from_slice(&0u32.to_be_bytes());
        assert_eq!(decode_stats(&hostile), None);
        // Out-of-range bucket index.
        let t = pddl_obs::Telemetry::new(1);
        t.record(&pddl_obs::OpRecord {
            id: 1,
            op: pddl_obs::OpKind::Write,
            status: 0,
            ok: true,
            offset: 0,
            len: 1,
            bytes_read: 0,
            bytes_written: 512,
            start_ns: 0,
            queue_ns: 0,
            array_ns: 9,
            total_ns: 9,
        });
        let mut enc = encode_stats(&t.snapshot());
        // The last sparse bucket entry is (idx u8, count u64): poison it.
        let idx_pos = enc.len() - 9;
        enc[idx_pos] = 200;
        assert_eq!(decode_stats(&enc), None);
    }

    #[test]
    fn trace_payload_round_trips_and_rejects_hostile_input() {
        let spans = vec![
            pddl_obs::OpSpan {
                worker: 0,
                slow: false,
                id: 1,
                op: pddl_obs::OpKind::Read,
                status: 0,
                offset: 64,
                len: 8,
                start_ns: 1_000,
                queue_ns: 100,
                array_ns: 900,
                total_ns: 1_000,
            },
            pddl_obs::OpSpan {
                worker: 3,
                slow: true,
                id: 2,
                op: pddl_obs::OpKind::Write,
                status: 12,
                offset: 0,
                len: 1,
                start_ns: 2_000,
                queue_ns: 0,
                array_ns: 15_000_000,
                total_ns: 15_000_000,
            },
        ];
        let buf = encode_spans(&spans);
        assert_eq!(decode_spans(&buf), Some(spans.clone()));
        assert_eq!(decode_spans(&encode_spans(&[])), Some(vec![]));
        for cut in 0..buf.len() {
            assert_eq!(decode_spans(&buf[..cut]), None, "cut={cut}");
        }
        let mut padded = buf.clone();
        padded.push(0);
        assert_eq!(decode_spans(&padded), None);
        // Hostile count: u32::MAX records in a short buffer — the
        // checked size math must reject it without allocating.
        let mut hostile = TRACE_VERSION.to_be_bytes().to_vec();
        hostile.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(decode_spans(&hostile), None);
        // Unknown op index and reserved flag bits are rejected.
        let mut bad_op = buf.clone();
        bad_op[6 + 3] = 99;
        assert_eq!(decode_spans(&bad_op), None);
        let mut bad_flags = buf.clone();
        bad_flags[6 + 2] = 0x80;
        assert_eq!(decode_spans(&bad_flags), None);
    }

    #[test]
    fn rebuild_status_round_trips() {
        for state in [
            RebuildState::None,
            RebuildState::Running,
            RebuildState::Done,
            RebuildState::Failed,
            RebuildState::Paused,
        ] {
            assert_eq!(RebuildState::from_code(state.code()), Some(state));
            let status = RebuildStatus {
                disk: 3,
                state,
                repaired: 17,
                total: 42,
            };
            let buf = status.encode();
            assert_eq!(buf.len(), 21);
            assert_eq!(RebuildStatus::decode(&buf), Some(status));
        }
        assert_eq!(RebuildState::from_code(5), None);
        // Wrong size or unknown state byte is rejected.
        assert_eq!(RebuildStatus::decode(&[0u8; 20]), None);
        assert_eq!(RebuildStatus::decode(&[0u8; 22]), None);
        let mut bad = [0u8; 21];
        bad[4] = 9;
        assert_eq!(RebuildStatus::decode(&bad), None);
    }

    #[test]
    fn volume_spec_round_trips_and_rejects_hostile_input() {
        let spec = pddl_volume::VolumeSpec {
            name: "tenant-a".to_string(),
            capacity_units: 4096,
            tenant: 17,
            weight: 4,
            ops_per_sec: 1_000,
            bytes_per_sec: 8 << 20,
        };
        let buf = encode_volume_spec(&spec);
        assert_eq!(decode_volume_spec(&buf), Some(spec.clone()));
        // Empty name round-trips too.
        let bare = pddl_volume::VolumeSpec::new("", 1);
        assert_eq!(decode_volume_spec(&encode_volume_spec(&bare)), Some(bare));
        // Any truncation or padding fails, never panics.
        for cut in 0..buf.len() {
            assert_eq!(decode_volume_spec(&buf[..cut]), None, "cut={cut}");
        }
        let mut padded = buf.clone();
        padded.push(0);
        assert_eq!(decode_volume_spec(&padded), None);
        // A hostile name length cannot force a large allocation or
        // out-of-bounds read: anything past MAX_NAME is rejected.
        let mut hostile = (u16::MAX).to_be_bytes().to_vec();
        hostile.extend_from_slice(&[0u8; 8]);
        assert_eq!(decode_volume_spec(&hostile), None);
        // Non-UTF-8 names are rejected.
        let mut bad = encode_volume_spec(&spec);
        bad[2] = 0xff;
        assert_eq!(decode_volume_spec(&bad), None);
    }

    #[test]
    fn volume_list_round_trips_and_rejects_hostile_input() {
        let rows = vec![
            pddl_volume::VolumeMeta {
                id: 0,
                name: "default".to_string(),
                capacity_units: 1 << 20,
                tenant: 0,
                weight: 1,
                ops_per_sec: 0,
                bytes_per_sec: 0,
            },
            pddl_volume::VolumeMeta {
                id: 9,
                name: "scratch".to_string(),
                capacity_units: 64,
                tenant: 3,
                weight: 8,
                ops_per_sec: 500,
                bytes_per_sec: 1 << 20,
            },
        ];
        let buf = encode_volume_list(&rows);
        assert_eq!(decode_volume_list(&buf), Some(rows.clone()));
        assert_eq!(decode_volume_list(&encode_volume_list(&[])), Some(vec![]));
        for cut in 0..buf.len() {
            assert_eq!(decode_volume_list(&buf[..cut]), None, "cut={cut}");
        }
        let mut padded = buf.clone();
        padded.push(0);
        assert_eq!(decode_volume_list(&padded), None);
        // Hostile row count in a tiny buffer cannot over-allocate.
        let hostile = (u16::MAX).to_be_bytes().to_vec();
        assert_eq!(decode_volume_list(&hostile), None);
    }

    #[test]
    fn pool_info_round_trips_and_rejects_hostile_input() {
        let info = PoolInfo {
            unit_bytes: 512,
            volumes: 3,
            arrays: vec![
                PoolArrayInfo {
                    disks: 7,
                    capacity_units: 4096,
                    free_units: 100,
                    mode: 1,
                    failed: vec![2],
                },
                PoolArrayInfo {
                    disks: 13,
                    capacity_units: 8192,
                    free_units: 8192,
                    mode: 0,
                    failed: vec![],
                },
            ],
        };
        let buf = info.encode();
        assert_eq!(PoolInfo::decode(&buf), Some(info.clone()));
        let empty = PoolInfo {
            unit_bytes: 64,
            volumes: 1,
            arrays: vec![],
        };
        assert_eq!(PoolInfo::decode(&empty.encode()), Some(empty));
        for cut in 0..buf.len() {
            assert_eq!(PoolInfo::decode(&buf[..cut]), None, "cut={cut}");
        }
        let mut padded = buf.clone();
        padded.push(0);
        assert_eq!(PoolInfo::decode(&padded), None);
        // Hostile failed-disk count cannot over-allocate: claim
        // u32::MAX failed disks in a short buffer.
        let mut hostile = buf[..7 + 21].to_vec();
        hostile.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(PoolInfo::decode(&hostile), None);
    }
}

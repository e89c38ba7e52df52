//! A blocking client for the `pddl-server` wire protocol — one request
//! in flight per connection, used by the loopback tests, the chaos
//! harness, and the `pddl` telemetry and volume commands.

use std::fmt;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use pddl_volume::{VolumeMeta, VolumeSpec};

use crate::wire::{
    self, Op, PoolInfo, RebuildState, RebuildStatus, Request, Status, VolumeInfo, WireError,
};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Wire(WireError),
    /// The server answered with a non-OK status.
    Server(Status),
    /// The server's reply violated the protocol (wrong id, bad payload).
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server(s) => write!(f, "server error: {s}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Wire(WireError::Io(e))
    }
}

/// A synchronous connection to a `pddl-server` volume.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    /// Volume addressed by data ops (the wire flags byte); 0 (the
    /// default volume) until [`Client::set_volume`].
    volume: u8,
    /// Unit size from the first INFO, so writes need not refetch it.
    cached_unit: Option<usize>,
}

impl Client {
    /// Connect to a serving address.
    ///
    /// # Errors
    ///
    /// Connection failures as [`ClientError::Wire`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            stream,
            next_id: 0,
            volume: 0,
            cached_unit: None,
        })
    }

    /// Address subsequent data ops (READ/WRITE/TRIM/INFO) at `volume`.
    /// The unit size is pool-wide, so the cached value survives.
    pub fn set_volume(&mut self, volume: u8) {
        self.volume = volume;
    }

    /// The volume data ops currently address.
    pub fn volume(&self) -> u8 {
        self.volume
    }

    /// Bound how long any single call may block on the socket.
    ///
    /// # Errors
    ///
    /// Propagates the setsockopt failure.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)?;
        Ok(())
    }

    fn call(
        &mut self,
        op: Op,
        offset: u64,
        length: u32,
        payload: Vec<u8>,
    ) -> Result<Vec<u8>, ClientError> {
        let (status, payload) = self.call_raw(op, offset, length, payload)?;
        if status != Status::Ok {
            return Err(ClientError::Server(status));
        }
        Ok(payload)
    }

    /// One round trip, returning the status verbatim — for ops like
    /// REBUILD where more than one status means success. Volume-scoped
    /// ops carry the client's current volume; others send zero flags.
    fn call_raw(
        &mut self,
        op: Op,
        offset: u64,
        length: u32,
        payload: Vec<u8>,
    ) -> Result<(Status, Vec<u8>), ClientError> {
        let volume = if op.takes_volume() { self.volume } else { 0 };
        self.call_raw_on(volume, op, offset, length, payload)
    }

    fn call_raw_on(
        &mut self,
        volume: u8,
        op: Op,
        offset: u64,
        length: u32,
        payload: Vec<u8>,
    ) -> Result<(Status, Vec<u8>), ClientError> {
        self.next_id += 1;
        let id = self.next_id;
        wire::write_request(
            &mut self.stream,
            &Request {
                id,
                op,
                volume,
                offset,
                length,
                payload,
            },
        )?;
        let resp = wire::read_response(&mut self.stream)?
            .ok_or_else(|| ClientError::Protocol("server closed the connection".into()))?;
        if resp.id != id {
            return Err(ClientError::Protocol(format!(
                "response id {} does not match request id {id}",
                resp.id
            )));
        }
        Ok((resp.status, resp.payload))
    }

    /// One raw round trip: send the op, return `(status, payload)`
    /// verbatim instead of mapping non-OK statuses to errors. This is
    /// the harness-facing API — a chaos checker needs the exact status
    /// a fault produced (e.g. [`Status::MediaError`]), not a lossy
    /// "it failed". The response id is still validated against the
    /// request id (a mismatch is a protocol violation).
    ///
    /// # Errors
    ///
    /// Transport failures and protocol violations only; server-side
    /// statuses come back in the `Ok` tuple.
    pub fn request(
        &mut self,
        op: Op,
        offset: u64,
        length: u32,
        payload: Vec<u8>,
    ) -> Result<(Status, Vec<u8>), ClientError> {
        self.call_raw(op, offset, length, payload)
    }

    /// [`Client::request`] with an explicit volume id in the flags
    /// byte, regardless of [`Client::set_volume`] — the harness uses
    /// this to probe dead volumes without disturbing client state.
    ///
    /// # Errors
    ///
    /// As [`Client::request`].
    pub fn request_on(
        &mut self,
        volume: u8,
        op: Op,
        offset: u64,
        length: u32,
        payload: Vec<u8>,
    ) -> Result<(Status, Vec<u8>), ClientError> {
        self.call_raw_on(volume, op, offset, length, payload)
    }

    /// Read `units` stripe units starting at logical unit `offset`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] mirrors the array's error taxonomy.
    pub fn read_units(&mut self, offset: u64, units: u32) -> Result<Vec<u8>, ClientError> {
        self.call(Op::Read, offset, units, Vec::new())
    }

    /// Write whole stripe units starting at logical unit `offset`;
    /// `data` must be a multiple of the volume's unit size.
    ///
    /// # Errors
    ///
    /// As [`Client::read_units`].
    pub fn write_units(&mut self, offset: u64, data: &[u8]) -> Result<(), ClientError> {
        // The protocol carries an explicit unit count, so the unit size
        // is needed client-side; fetched via INFO once and cached.
        let unit = self.unit_bytes()?;
        if unit == 0 || !data.len().is_multiple_of(unit) {
            return Err(ClientError::Protocol(format!(
                "payload {} bytes is not a multiple of the {unit}-byte unit",
                data.len()
            )));
        }
        let units = (data.len() / unit) as u32;
        self.call(Op::Write, offset, units, data.to_vec())?;
        Ok(())
    }

    /// Discard `units` stripe units at `offset` (server zero-fills).
    ///
    /// # Errors
    ///
    /// As [`Client::read_units`].
    pub fn trim(&mut self, offset: u64, units: u32) -> Result<(), ClientError> {
        self.call(Op::Trim, offset, units, Vec::new())?;
        Ok(())
    }

    /// Ordering barrier: returns once all prior ops on this connection
    /// have executed.
    ///
    /// # Errors
    ///
    /// As [`Client::read_units`].
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.call(Op::Flush, 0, 0, Vec::new())?;
        Ok(())
    }

    /// Volume geometry and failure state.
    ///
    /// # Errors
    ///
    /// As [`Client::read_units`], plus a protocol error on an
    /// undecodable INFO payload.
    pub fn info(&mut self) -> Result<VolumeInfo, ClientError> {
        let payload = self.call(Op::Info, 0, 0, Vec::new())?;
        VolumeInfo::decode(&payload)
            .ok_or_else(|| ClientError::Protocol("undecodable INFO payload".into()))
    }

    /// Management: inject a failure of `disk`.
    ///
    /// # Errors
    ///
    /// As [`Client::read_units`].
    pub fn fail_disk(&mut self, disk: u32) -> Result<(), ClientError> {
        self.call(Op::FailDisk, disk as u64, 0, Vec::new())?;
        Ok(())
    }

    /// Management: start rebuilding failed `disk` into distributed
    /// spare space. The server validates synchronously but reconstructs
    /// in the background — this returns as soon as the rebuild is
    /// accepted; poll [`Client::rebuild_status`] (or use
    /// [`Client::wait_rebuild`]) for progress and completion.
    ///
    /// # Errors
    ///
    /// As [`Client::read_units`]; validation errors (wrong disk state,
    /// no sparing) come back immediately.
    pub fn rebuild(&mut self, disk: u32) -> Result<(), ClientError> {
        let (status, _) = self.call_raw(Op::Rebuild, disk as u64, 0, Vec::new())?;
        match status {
            Status::Accepted | Status::Ok => Ok(()),
            other => Err(ClientError::Server(other)),
        }
    }

    /// Progress of the current (or most recent) rebuild.
    ///
    /// # Errors
    ///
    /// As [`Client::read_units`], plus a protocol error on an
    /// undecodable payload.
    pub fn rebuild_status(&mut self) -> Result<RebuildStatus, ClientError> {
        let payload = self.call(Op::RebuildStatus, 0, 0, Vec::new())?;
        RebuildStatus::decode(&payload)
            .ok_or_else(|| ClientError::Protocol("undecodable REBUILD_STATUS payload".into()))
    }

    /// Poll [`Client::rebuild_status`] every `poll` until the rebuild
    /// leaves [`RebuildState::Running`], returning the terminal status
    /// (the caller inspects `state` for `Done` vs `Failed`/`Paused`).
    ///
    /// # Errors
    ///
    /// As [`Client::rebuild_status`], plus a protocol error once
    /// `timeout` elapses with the rebuild still running.
    pub fn wait_rebuild(
        &mut self,
        poll: Duration,
        timeout: Duration,
    ) -> Result<RebuildStatus, ClientError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let status = self.rebuild_status()?;
            if status.state != RebuildState::Running {
                return Ok(status);
            }
            if std::time::Instant::now() >= deadline {
                return Err(ClientError::Protocol(format!(
                    "rebuild still running after {timeout:?} ({}/{} stripes)",
                    status.repaired, status.total
                )));
            }
            std::thread::sleep(poll);
        }
    }

    /// Telemetry: a merged, sorted snapshot of the server's live
    /// counters, gauges, and latency histograms (the STATS op).
    ///
    /// # Errors
    ///
    /// As [`Client::read_units`], plus a protocol error on an
    /// undecodable STATS payload.
    pub fn stats(&mut self) -> Result<pddl_obs::TelemetrySnapshot, ClientError> {
        let payload = self.call(Op::Stats, 0, 0, Vec::new())?;
        wire::decode_stats(&payload)
            .ok_or_else(|| ClientError::Protocol("undecodable STATS payload".into()))
    }

    /// Telemetry: the server's flight recorder — recent and slow op
    /// spans (the TRACE_DUMP op), oldest first. Feed the result to
    /// [`pddl_obs::spans_chrome_json`] for a chrome://tracing view.
    ///
    /// # Errors
    ///
    /// As [`Client::read_units`], plus a protocol error on an
    /// undecodable TRACE_DUMP payload.
    pub fn trace_dump(&mut self) -> Result<Vec<pddl_obs::OpSpan>, ClientError> {
        let payload = self.call(Op::TraceDump, 0, 0, Vec::new())?;
        wire::decode_spans(&payload)
            .ok_or_else(|| ClientError::Protocol("undecodable TRACE_DUMP payload".into()))
    }

    /// Management: create a volume per `spec`; returns the assigned id.
    ///
    /// # Errors
    ///
    /// As [`Client::read_units`] (`NoCapacity`, `BadRequest`, …), plus
    /// a protocol error on a malformed id payload.
    pub fn volume_create(&mut self, spec: &VolumeSpec) -> Result<u8, ClientError> {
        let payload = self.call(Op::VolumeCreate, 0, 0, wire::encode_volume_spec(spec))?;
        match payload.as_slice() {
            [id] => Ok(*id),
            _ => Err(ClientError::Protocol(
                "VOLUME_CREATE reply is not a one-byte id".into(),
            )),
        }
    }

    /// Management: delete `volume`, returning its space to the pool.
    ///
    /// # Errors
    ///
    /// As [`Client::read_units`] (`VolumeNotFound`, `BadRequest` for
    /// volume 0).
    pub fn volume_delete(&mut self, volume: u8) -> Result<(), ClientError> {
        self.call_raw_on(volume, Op::VolumeDelete, 0, 0, Vec::new())
            .and_then(|(status, _)| match status {
                Status::Ok => Ok(()),
                other => Err(ClientError::Server(other)),
            })
    }

    /// Management: grow or shrink `volume` to `capacity_units`.
    ///
    /// # Errors
    ///
    /// As [`Client::read_units`] (`VolumeNotFound`, `NoCapacity`).
    pub fn volume_resize(&mut self, volume: u8, capacity_units: u64) -> Result<(), ClientError> {
        self.call_raw_on(volume, Op::VolumeResize, capacity_units, 0, Vec::new())
            .and_then(|(status, _)| match status {
                Status::Ok => Ok(()),
                other => Err(ClientError::Server(other)),
            })
    }

    /// Management: the volume table, sorted by id.
    ///
    /// # Errors
    ///
    /// As [`Client::read_units`], plus a protocol error on an
    /// undecodable payload.
    pub fn volume_list(&mut self) -> Result<Vec<VolumeMeta>, ClientError> {
        let payload = self.call(Op::VolumeList, 0, 0, Vec::new())?;
        wire::decode_volume_list(&payload)
            .ok_or_else(|| ClientError::Protocol("undecodable VOLUME_LIST payload".into()))
    }

    /// Pool-level geometry: per-array capacity, free space, health.
    ///
    /// # Errors
    ///
    /// As [`Client::read_units`], plus a protocol error on an
    /// undecodable payload.
    pub fn pool_info(&mut self) -> Result<PoolInfo, ClientError> {
        let payload = self.call(Op::PoolInfo, 0, 0, Vec::new())?;
        PoolInfo::decode(&payload)
            .ok_or_else(|| ClientError::Protocol("undecodable POOL_INFO payload".into()))
    }

    fn unit_bytes(&mut self) -> Result<usize, ClientError> {
        match self.cached_unit {
            Some(u) => Ok(u),
            None => {
                let u = self.info()?.unit_bytes as usize;
                self.cached_unit = Some(u);
                Ok(u)
            }
        }
    }
}

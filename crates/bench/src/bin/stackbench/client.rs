//! The benchmark's own wire client: a raw `TcpStream`, requests encoded
//! by `wire::write_request`, responses decoded by `wire::read_response`
//! and matched to their request by id, so any number may be in flight.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use pddl_server::wire::{self, Op, Request, Response, WireError};

/// Longest a client waits for one response (or for one request to be
/// accepted by the socket) before the op counts as failed. A hung
/// server therefore costs failures, never a hung benchmark.
pub const OP_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Conn> {
        let writer = TcpStream::connect_timeout(&addr, timeout)?;
        writer.set_nodelay(true)?;
        writer.set_write_timeout(Some(timeout))?;
        writer.set_read_timeout(Some(timeout))?;
        let reader = BufReader::with_capacity(16 << 10, writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    pub fn send(&mut self, req: &Request) -> Result<(), WireError> {
        wire::write_request(&mut self.writer, req)
    }

    /// The next response frame; a server that closes the connection is
    /// an error here, because a closed loop always expects an answer.
    pub fn recv(&mut self) -> Result<Response, WireError> {
        wire::read_response(&mut self.reader)?.ok_or_else(|| {
            WireError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })
    }

    /// One request, one response: the control connections' depth-1 call.
    pub fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        self.send(req)?;
        let resp = self.recv()?;
        if resp.id != req.id {
            return Err(WireError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response id {} for request {}", resp.id, req.id),
            )));
        }
        Ok(resp)
    }
}

/// A payload-less request (READ, management and telemetry ops).
pub fn request(id: u64, op: Op, offset: u64, length: u32) -> Request {
    Request {
        id,
        op,
        volume: 0,
        offset,
        length,
        payload: Vec::new(),
    }
}

/// What the caller gets back when one in-flight request completes.
pub struct Completion<T> {
    pub response: Response,
    pub sent: Instant,
    pub received: Instant,
    pub tag: T,
}

/// Up to `depth` requests in flight on one connection. Request ids are
/// `id_base + sequence number`; `id_base` keeps ids of different
/// connections apart, so a server-side span names its client op.
pub struct Pipeline<T> {
    conn: Conn,
    slots: Vec<Option<(u64, Instant, T)>>,
    id_base: u64,
    seq: u64,
}

impl<T> Pipeline<T> {
    pub fn new(conn: Conn, depth: usize, id_base: u64) -> Self {
        Pipeline {
            conn,
            slots: (0..depth).map(|_| None).collect(),
            id_base,
            seq: 0,
        }
    }

    pub fn outstanding(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    pub fn has_room(&self) -> bool {
        self.slots.iter().any(Option::is_none)
    }

    /// The id the next [`Pipeline::submit`] will stamp on its request.
    fn next_id(&self) -> u64 {
        self.id_base + self.seq
    }

    /// Send `req` (its id is overwritten) and remember `tag` for its
    /// completion. The clock starts before the frame is encoded.
    pub fn submit(&mut self, req: &mut Request, tag: T) -> Result<(), WireError> {
        let slot = self
            .slots
            .iter()
            .position(Option::is_none)
            .expect("submit called with a free slot");
        req.id = self.next_id();
        self.seq += 1;
        let sent = Instant::now();
        self.slots[slot] = Some((req.id, sent, tag));
        self.conn.send(req)
    }

    /// Register an op that was never sent, so [`Pipeline::complete`]
    /// waits for an answer that cannot come (the timeout sabotage).
    pub fn submit_phantom(&mut self, tag: T) {
        let slot = self.slots.iter().position(Option::is_none).expect("slot");
        self.slots[slot] = Some((self.next_id(), Instant::now(), tag));
        self.seq += 1;
    }

    /// Block for the next response, whichever request it answers.
    pub fn complete(&mut self) -> Result<Completion<T>, WireError> {
        let response = self.conn.recv()?;
        let received = Instant::now();
        let slot = self
            .slots
            .iter()
            .position(|s| matches!(s, Some((id, _, _)) if *id == response.id))
            .ok_or_else(|| {
                WireError::Io(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("response for unknown request id {}", response.id),
                ))
            })?;
        let (_, sent, tag) = self.slots[slot].take().expect("matched slot");
        Ok(Completion {
            response,
            sent,
            received,
            tag,
        })
    }

    /// Give up on everything in flight (after a transport error).
    pub fn abandon(&mut self) -> Vec<T> {
        self.slots
            .iter_mut()
            .filter_map(Option::take)
            .map(|(_, _, tag)| tag)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pddl_server::wire::Status;
    use std::net::TcpListener;

    #[test]
    fn pipeline_matches_out_of_order_response_ids() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // A server that reads four requests and answers them last first.
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reqs = Vec::new();
            for _ in 0..4 {
                reqs.push(wire::read_request(&mut stream).unwrap().unwrap());
            }
            for req in reqs.iter().rev() {
                let resp = Response {
                    id: req.id,
                    status: Status::Ok,
                    payload: req.offset.to_be_bytes().to_vec(),
                };
                wire::write_response(&mut stream, &resp).unwrap();
            }
            // And one answer nobody asked for.
            let stray = Response {
                id: 999,
                status: Status::Ok,
                payload: Vec::new(),
            };
            wire::write_response(&mut stream, &stray).unwrap();
        });
        let conn = Conn::connect(addr, Duration::from_secs(5)).unwrap();
        let mut pipe = Pipeline::new(conn, 4, 1 << 40);
        for offset in 0..4u64 {
            pipe.submit(&mut request(0, Op::Read, offset, 1), offset)
                .unwrap();
        }
        assert!(!pipe.has_room());
        let mut seen = Vec::new();
        for _ in 0..4 {
            let done = pipe.complete().unwrap();
            assert_eq!(done.response.payload, done.tag.to_be_bytes());
            assert_eq!(done.response.id, (1 << 40) + done.tag);
            assert!(done.received >= done.sent);
            seen.push(done.tag);
        }
        assert_eq!(seen, [3, 2, 1, 0]);
        assert_eq!(pipe.outstanding(), 0);
        pipe.submit_phantom(7);
        assert!(pipe.complete().is_err(), "a stray id is a protocol error");
        assert_eq!(pipe.abandon(), [7]);
        server.join().unwrap();
    }
}

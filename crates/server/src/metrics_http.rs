//! A minimal `/metrics` exposition endpoint: just enough HTTP/1.0 to
//! satisfy a Prometheus scraper, with zero dependencies and zero
//! interference with the block data path.
//!
//! Design constraints, in order:
//!
//! 1. **Never perturb serving.** Scrapes run on one dedicated thread
//!    (serial accept loop — a scraper arrives every few seconds, not
//!    thousands per second) and read only the lock-free telemetry
//!    snapshot; they take no lock a worker ever holds.
//! 2. **Hostile input is fine.** The request parser reads at most
//!    `MAX_REQUEST_BYTES` (8 KiB), enforces a read timeout, and answers 404 /
//!    400 to anything that is not `GET /metrics`. A stuck client can
//!    stall only its own scrape, never the next one past the timeout.
//! 3. **No HTTP library.** The response is HTTP/1.0 with
//!    `Connection: close`, so no keep-alive or chunking is needed;
//!    Prometheus' text format 0.0.4 is plain ASCII.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::engine::Engine;

/// Reject request heads larger than this (a GET line plus a few headers
/// is a few hundred bytes; 8 KiB is generous).
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Per-connection socket timeout: a scraper that stalls mid-request is
/// cut off so the single accept thread moves on.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(2);

/// A running metrics endpoint; call [`MetricsServer::shutdown`] to stop
/// it (dropping the handle does not).
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join its thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Bind `addr` (port 0 for ephemeral) and serve
/// `engine.stats_snapshot().to_prometheus()` at `GET /metrics`.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve_metrics(engine: Arc<Engine>, addr: &str) -> io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("pddl-metrics".into())
        .spawn(move || accept_loop(&listener, &engine, &stop2))?;
    Ok(MetricsServer {
        addr: local,
        stop,
        thread: Some(thread),
    })
}

fn accept_loop(listener: &TcpListener, engine: &Arc<Engine>, stop: &AtomicBool) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if stop.load(Ordering::SeqCst) {
            return; // the wake-up connection, or a raced late scraper
        }
        // Errors answering one scrape are that scrape's problem only.
        let _ = handle_scrape(stream, engine);
    }
}

fn handle_scrape(mut stream: TcpStream, engine: &Arc<Engine>) -> io::Result<()> {
    stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    match read_request_path(&mut stream)? {
        Some(path) if path == "/metrics" => {
            let body = engine.stats_snapshot().to_prometheus();
            write_response(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        Some(_) => write_response(&mut stream, "404 Not Found", "text/plain", "not found\n"),
        None => write_response(
            &mut stream,
            "400 Bad Request",
            "text/plain",
            "bad request\n",
        ),
    }
}

/// Read the request head (through the blank line) and return the path
/// of a well-formed GET, `None` otherwise. Bounded by
/// [`MAX_REQUEST_BYTES`] and the socket timeout.
fn read_request_path(stream: &mut TcpStream) -> io::Result<Option<String>> {
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() >= MAX_REQUEST_BYTES {
            return Ok(None);
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break; // peer closed before finishing the head
        }
        head.extend_from_slice(&buf[..n]);
    }
    // "GET /metrics HTTP/1.x" — method, path, version.
    let line_end = head
        .windows(2)
        .position(|w| w == b"\r\n")
        .unwrap_or(head.len());
    let Ok(line) = std::str::from_utf8(&head[..line_end]) else {
        return Ok(None);
    };
    let mut parts = line.split_ascii_whitespace();
    match (parts.next(), parts.next(), parts.next()) {
        (Some("GET"), Some(path), Some(version)) if version.starts_with("HTTP/") => {
            // Ignore any query string: `/metrics?foo=1` still scrapes.
            let path = path.split('?').next().unwrap_or(path);
            Ok(Some(path.to_string()))
        }
        _ => Ok(None),
    }
}

fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pddl_array::DeclusteredArray;
    use pddl_core::Pddl;

    fn engine() -> Arc<Engine> {
        let layout = Pddl::new(7, 3).unwrap();
        let array = DeclusteredArray::new(Box::new(layout), 16, 4).unwrap();
        Arc::new(Engine::new(array))
    }

    fn get(addr: SocketAddr, request: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(request.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn scrape_round_trip_and_error_paths() {
        let m = serve_metrics(engine(), "127.0.0.1:0").unwrap();
        let addr = m.local_addr();

        let ok = get(addr, "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n");
        assert!(ok.starts_with("HTTP/1.0 200 OK\r\n"), "{ok}");
        assert!(ok.contains("pddl_op_read_count 0"), "{ok}");
        assert!(ok.contains("pddl_rebuild_state 0"), "{ok}");

        // Content-Length matches the body exactly.
        let (head, body) = ok.split_once("\r\n\r\n").unwrap();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(len, body.len());

        let missing = get(addr, "GET /nope HTTP/1.1\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");

        let bad = get(addr, "BREW /metrics HTCPCP/1.0\r\n\r\n");
        assert!(bad.starts_with("HTTP/1.0 400"), "{bad}");

        let query = get(addr, "GET /metrics?debug=1 HTTP/1.1\r\n\r\n");
        assert!(query.starts_with("HTTP/1.0 200"), "{query}");

        m.shutdown();
    }

    #[test]
    fn shutdown_is_prompt() {
        let m = serve_metrics(engine(), "127.0.0.1:0").unwrap();
        let t = std::time::Instant::now();
        m.shutdown();
        assert!(t.elapsed() < Duration::from_secs(5));
    }
}

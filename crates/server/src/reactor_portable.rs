//! The portable stand-in for the epoll reactor (`reactor.rs`): same
//! names, std only, no `unsafe` — compiled as `crate::reactor` wherever
//! the raw-syscall reactor is not (any other target with `std::os::fd`).
//!
//! It never asks the OS about readiness: [`Epoll::wait`] sleeps for the
//! timeout, capped at [`POLL_TICK`], then reports *every* registered
//! token ready. The runtime tolerates that by construction — readiness
//! is a hint, sockets are read until `WouldBlock`, pending response
//! bytes are retried every tick. The price is one spurious `read` per
//! idle connection per tick and up to a tick of latency per hop.
//! Nothing here can fail; the `io::Result`s mirror the epoll reactor.

use std::cell::RefCell;
use std::io;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicI32, AtomicU64, Ordering};
use std::time::Duration;

// The epoll reactor's event bits, so registrations read the same.
pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;
pub const EPOLLET: u32 = 1 << 31;

/// Longest one [`Epoll::wait`] sleeps before reporting.
const POLL_TICK: Duration = Duration::from_micros(500);

/// The epoll reactor raises the listener's backlog with a `listen` of
/// its own; this stand-in keeps std's backlog of 128.
pub fn raise_backlog(_fd: RawFd) -> io::Result<()> {
    Ok(())
}

/// One readiness record: always readable + writable, for `token`.
#[derive(Clone, Copy)]
pub struct EpollEvent {
    token: u64,
}

impl EpollEvent {
    pub fn empty() -> Self {
        Self { token: 0 }
    }
    pub fn events(&self) -> u32 {
        EPOLLIN | EPOLLOUT
    }
    pub fn token(&self) -> u64 {
        self.token
    }
}

/// The registration table: `(fd, token)` pairs. Used by its owning
/// shard thread only, like the epoll instance it stands in for.
pub struct Epoll {
    regs: RefCell<Vec<(RawFd, u64)>>,
}

impl Epoll {
    pub fn new() -> io::Result<Self> {
        Ok(Self {
            regs: RefCell::new(Vec::new()),
        })
    }

    /// Register `fd` under `token`; the interest set is ignored.
    pub fn add(&self, fd: RawFd, _events: u32, token: u64) -> io::Result<()> {
        self.regs.borrow_mut().push((fd, token));
        Ok(())
    }

    /// Interest sets are ignored, so there is nothing to change.
    pub fn modify(&self, _fd: RawFd, _events: u32, _token: u64) -> io::Result<()> {
        Ok(())
    }

    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.regs.borrow_mut().retain(|&(f, _)| f != fd);
        Ok(())
    }

    /// Sleep `timeout_ms` (negative = forever), capped at [`POLL_TICK`],
    /// then report as many registered tokens as fit in `events`.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let asked = u64::try_from(timeout_ms).map_or(POLL_TICK, Duration::from_millis);
        std::thread::sleep(asked.min(POLL_TICK));
        let regs = self.regs.borrow();
        for (ev, &(_, token)) in events.iter_mut().zip(regs.iter()) {
            *ev = EpollEvent { token };
        }
        Ok(regs.len().min(events.len()))
    }
}

/// The cross-thread doorbell: a counter. [`Epoll::wait`] reports every
/// token anyway, so a signal is seen within one [`POLL_TICK`].
pub struct EventFd {
    count: AtomicU64,
    key: RawFd,
}

impl EventFd {
    pub fn new() -> io::Result<Self> {
        // Registration keys no real descriptor can have: negative.
        static NEXT_KEY: AtomicI32 = AtomicI32::new(-2);
        Ok(Self {
            count: AtomicU64::new(0),
            key: NEXT_KEY.fetch_sub(1, Ordering::Relaxed),
        })
    }

    /// The key to register with [`Epoll::add`].
    pub fn raw_fd(&self) -> RawFd {
        self.key
    }

    /// `Release`, pairing with [`drain`](Self::drain)'s `Acquire`, like
    /// the eventfd write/read it mimics; the work a signal announces is
    /// published by the inbox channel's own ordering, not by this counter.
    pub fn signal(&self) {
        self.count.fetch_add(1, Ordering::Release);
    }

    /// Consume all pending signals; returns how many were pending.
    pub fn drain(&self) -> u64 {
        self.count.swap(0, Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_tokens_are_reported_until_deleted() {
        let ep = Epoll::new().unwrap();
        let mut events = [EpollEvent::empty(); 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        ep.add(10, EPOLLIN | EPOLLET, 7).unwrap();
        ep.add(11, EPOLLIN | EPOLLET, 8).unwrap();
        ep.modify(11, EPOLLIN | EPOLLOUT | EPOLLET, 8).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 2);
        assert_eq!((events[0].token(), events[1].token()), (7, 8));
        assert!(events[0].events() & EPOLLIN != 0);
        ep.delete(10).unwrap();
        assert_eq!(ep.wait(&mut events, -1).unwrap(), 1);
        assert_eq!(events[0].token(), 8);
        // More registrations than buffer: report what fits.
        ep.add(12, EPOLLIN, 9).unwrap();
        assert_eq!(ep.wait(&mut events[..1], 1).unwrap(), 1);
    }

    #[test]
    fn a_signal_is_observed_by_the_next_wait_and_drain_resets() {
        let ep = Epoll::new().unwrap();
        let bell = std::sync::Arc::new(EventFd::new().unwrap());
        assert!(bell.raw_fd() < 0 && bell.raw_fd() != EventFd::new().unwrap().raw_fd());
        ep.add(bell.raw_fd(), EPOLLIN | EPOLLET, u64::MAX).unwrap();
        let remote = std::sync::Arc::clone(&bell);
        std::thread::spawn(move || {
            remote.signal();
            remote.signal();
        })
        .join()
        .unwrap();
        let mut events = [EpollEvent::empty(); 2];
        let started = std::time::Instant::now();
        assert_eq!(ep.wait(&mut events, 5000).unwrap(), 1);
        assert!(started.elapsed() < Duration::from_secs(1), "wait is capped");
        assert_eq!(events[0].token(), u64::MAX);
        assert_eq!(bell.drain(), 2);
        assert_eq!(bell.drain(), 0);
    }
}

//! A tiny epoll reactor — the readiness engine under the
//! thread-per-core runtime ([`crate::runtime`]).
//!
//! The repo's zero-dependency rule holds all the way down: no `libc`,
//! no `mio`. The four kernel entry points a readiness loop needs
//! (`epoll_create1`, `epoll_ctl`, `epoll_pwait`, `eventfd2`), plus the
//! `listen` that raises the listener's backlog, are invoked as raw
//! Linux syscalls via inline assembly, on the only two
//! architectures CI and production use (x86_64, aarch64 — elsewhere
//! `reactor_portable.rs` is compiled in this module's place, with the
//! same names, and the runtime above is unchanged). File descriptors
//! are held as [`std::os::fd::OwnedFd`] so closing stays std's
//! responsibility.
//!
//! Everything is edge-triggered: the runtime drains a socket to
//! `WouldBlock` on every readable event and tracks residual readiness
//! itself, so one wakeup processes a batch of frames instead of one.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

// Event bits (uapi/linux/eventpoll.h).
pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;
pub const EPOLLET: u32 = 1 << 31;

const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CTL_MOD: usize = 3;
const EPOLL_CLOEXEC: usize = 0x8_0000;
const EFD_CLOEXEC: usize = 0x8_0000;
const EFD_NONBLOCK: usize = 0x800;
/// The accept-queue length [`raise_backlog`] asks for; the kernel caps
/// it at `net.core.somaxconn`.
const LISTEN_BACKLOG: usize = 4096;

#[cfg(target_arch = "x86_64")]
mod nr {
    pub const READ: usize = 0;
    pub const WRITE: usize = 1;
    pub const LISTEN: usize = 50;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
    pub const EVENTFD2: usize = 290;
    pub const EPOLL_CREATE1: usize = 291;
}

#[cfg(target_arch = "aarch64")]
mod nr {
    pub const READ: usize = 63;
    pub const WRITE: usize = 64;
    pub const LISTEN: usize = 201;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const EVENTFD2: usize = 19;
    pub const EPOLL_CREATE1: usize = 20;
}

/// One readiness record, ABI-compatible with the kernel's
/// `struct epoll_event`. x86_64 packs it to 12 bytes; every other
/// architecture uses natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    events: u32,
    data: u64,
}

impl EpollEvent {
    /// Zeroed record for the wait buffer.
    pub fn empty() -> Self {
        Self { events: 0, data: 0 }
    }

    /// Readiness bits reported by the kernel.
    pub fn events(&self) -> u32 {
        self.events
    }

    /// The registration's token.
    pub fn token(&self) -> u64 {
        self.data
    }
}

/// Raw syscall, 6 arguments, returning the kernel's raw result
/// (negative errno on failure).
///
/// # Safety
///
/// `n` and the arguments must form a valid Linux syscall; pointer
/// arguments must point at memory valid for the call's duration.
#[cfg(target_arch = "x86_64")]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    // SAFETY: caller contract; `syscall` clobbers rcx/r11 only.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

/// Raw syscall, 6 arguments (aarch64 `svc 0` convention).
///
/// # Safety
///
/// As the x86_64 variant.
#[cfg(target_arch = "aarch64")]
unsafe fn syscall6(n: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
    let ret: isize;
    // SAFETY: caller contract.
    unsafe {
        core::arch::asm!(
            "svc 0",
            in("x8") n,
            inlateout("x0") a => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            options(nostack),
        );
    }
    ret
}

/// Convert a raw syscall result into `io::Result<usize>`.
fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

/// Listen again on the already-listening socket `fd` with a backlog of
/// `LISTEN_BACKLOG` (4096). std's `TcpListener::bind` listens with 128,
/// so a larger `connect()` burst overflows the accept queue whenever
/// the acceptor is not scheduled in time, and Linux retransmits a
/// dropped SYN only after 1 s.
///
/// # Errors
///
/// The kernel's (`EBADF`, `ENOTSOCK`, ...).
pub fn raise_backlog(fd: RawFd) -> io::Result<()> {
    // SAFETY: listen(fd, backlog) takes no pointers and changes only the
    // socket's queue length; a bad fd comes back as an errno.
    check(unsafe { syscall6(nr::LISTEN, fd as usize, LISTEN_BACKLOG, 0, 0, 0, 0) }).map(drop)
}

/// An epoll instance.
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    ///
    /// # Errors
    ///
    /// The kernel's, typically `EMFILE`.
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes one flags argument; extra
        // registers are ignored.
        let fd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
        // SAFETY: the kernel just handed us exclusive ownership of `fd`.
        Ok(Self {
            fd: unsafe { OwnedFd::from_raw_fd(fd as RawFd) },
        })
    }

    fn ctl(&self, op: usize, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` lives across the call; DEL ignores the pointer.
        check(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                self.fd.as_raw_fd() as usize,
                op,
                fd as usize,
                core::ptr::from_ref(&ev) as usize,
                0,
                0,
            )
        })
        .map(drop)
    }

    /// Register `fd` for `events`, tagged with `token`.
    ///
    /// # Errors
    ///
    /// The kernel's (`EEXIST`, `EBADF`, ...).
    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Change an existing registration.
    ///
    /// # Errors
    ///
    /// The kernel's (`ENOENT`, ...).
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Drop a registration (closing the fd also drops it).
    ///
    /// # Errors
    ///
    /// The kernel's (`ENOENT`, ...).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait up to `timeout_ms` (−1 = forever) for readiness; fills
    /// `events` from the front and returns how many are valid. `EINTR`
    /// is treated as a zero-event wakeup rather than an error.
    ///
    /// # Errors
    ///
    /// The kernel's, excluding `EINTR`.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        if events.is_empty() {
            return Ok(0);
        }
        // SAFETY: `events` is valid for `events.len()` records for the
        // duration of the call; null sigmask means "don't touch".
        let ret = unsafe {
            syscall6(
                nr::EPOLL_PWAIT,
                self.fd.as_raw_fd() as usize,
                events.as_mut_ptr() as usize,
                events.len(),
                timeout_ms as usize,
                0,
                8, // sigsetsize, ignored with a null mask
            )
        };
        match check(ret) {
            Ok(n) => Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }
}

/// A nonblocking `eventfd`, the cross-thread wakeup doorbell: any
/// thread may [`signal`](EventFd::signal) it; the owning shard
/// registers it in its epoll set and [`drain`](EventFd::drain)s it on
/// wakeup.
pub struct EventFd {
    fd: OwnedFd,
}

impl EventFd {
    /// `eventfd2(0, EFD_CLOEXEC | EFD_NONBLOCK)`.
    ///
    /// # Errors
    ///
    /// The kernel's, typically `EMFILE`.
    pub fn new() -> io::Result<Self> {
        // SAFETY: eventfd2(initval, flags).
        let fd =
            check(unsafe { syscall6(nr::EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0) })?;
        // SAFETY: exclusive ownership of the new fd.
        Ok(Self {
            fd: unsafe { OwnedFd::from_raw_fd(fd as RawFd) },
        })
    }

    /// The fd to register with [`Epoll::add`].
    pub fn raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }

    /// Ring the doorbell (add 1 to the counter). Never blocks: if the
    /// counter is saturated the receiver is already hopelessly behind
    /// on wakeups and one more is redundant.
    pub fn signal(&self) {
        let one: u64 = 1;
        // SAFETY: write(fd, &one, 8); the buffer outlives the call.
        let _ = unsafe {
            syscall6(
                nr::WRITE,
                self.fd.as_raw_fd() as usize,
                core::ptr::from_ref(&one) as usize,
                8,
                0,
                0,
                0,
            )
        };
    }

    /// Consume all pending signals; returns how many were pending.
    pub fn drain(&self) -> u64 {
        let mut count: u64 = 0;
        // SAFETY: read(fd, &mut count, 8); the buffer outlives the call.
        let ret = unsafe {
            syscall6(
                nr::READ,
                self.fd.as_raw_fd() as usize,
                core::ptr::from_mut(&mut count) as usize,
                8,
                0,
                0,
                0,
            )
        };
        if ret == 8 {
            count
        } else {
            0 // EAGAIN: nothing pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn eventfd_signals_wake_epoll_and_drain_counts() {
        let ep = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        ep.add(efd.raw_fd(), EPOLLIN | EPOLLET, 7).unwrap();

        let mut events = [EpollEvent::empty(); 8];
        // Nothing signaled: a zero timeout returns immediately empty.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        efd.signal();
        efd.signal();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 7);
        assert!(events[0].events() & EPOLLIN != 0);
        assert_eq!(efd.drain(), 2);
        // Edge-triggered and drained: no further events.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn cross_thread_signal_wakes_a_parked_wait() {
        let ep = Epoll::new().unwrap();
        let efd = std::sync::Arc::new(EventFd::new().unwrap());
        ep.add(efd.raw_fd(), EPOLLIN | EPOLLET, 1).unwrap();
        let remote = std::sync::Arc::clone(&efd);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            remote.signal();
        });
        let start = Instant::now();
        let mut events = [EpollEvent::empty(); 4];
        let n = ep.wait(&mut events, 5000).unwrap();
        t.join().unwrap();
        assert_eq!(n, 1);
        assert!(
            start.elapsed().as_millis() < 4000,
            "signal did not wake the wait"
        );
        assert!(efd.drain() >= 1);
    }

    #[test]
    fn socket_readiness_is_edge_triggered() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(rx.as_raw_fd(), EPOLLIN | EPOLLRDHUP | EPOLLET, 42)
            .unwrap();

        tx.write_all(b"ping").unwrap();
        let mut events = [EpollEvent::empty(); 4];
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 42);

        // Drain to WouldBlock — the edge-triggered contract — then the
        // next zero-timeout wait reports nothing.
        let mut buf = [0u8; 16];
        let mut got = 0;
        let mut rx_ref = &rx;
        loop {
            match rx_ref.read(&mut buf) {
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(got, 4);
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        // Peer close surfaces as a new edge (RDHUP/IN).
        drop(tx);
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert!(events[0].events() & (EPOLLRDHUP | EPOLLIN | EPOLLHUP) != 0);
        ep.delete(rx.as_raw_fd()).unwrap();
    }
}

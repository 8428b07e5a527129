//! Minimal nonblocking readiness poller — the reactor's only OS surface.
//!
//! Same vendoring discipline as the rest of the gateway: no `libc` crate,
//! no async runtime. On Linux this wraps epoll (edge-triggered) plus an
//! `eventfd` waker; on other unixes it falls back to `poll(2)` plus a
//! self-pipe. Both backends present the identical `Poller` API, so the
//! reactor in `server.rs` is platform-agnostic.
//!
//! Edge-triggered contract: after a `PollEvent` reports an fd readable or
//! writable, the owner must read/write/accept **until `WouldBlock`** before
//! the next readiness edge will be reported. The `poll(2)` fallback is
//! level-triggered underneath, which only means spurious extra events — the
//! drain-until-`WouldBlock` discipline is correct under both.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Token reserved for the internal waker; never hand this to `register`.
pub(crate) const WAKE_TOKEN: u64 = u64::MAX;

/// One readiness notification.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollEvent {
    /// The token passed at registration ([`WAKE_TOKEN`] for waker pokes).
    pub(crate) token: u64,
    /// Reading will make progress (data, EOF, or a pending accept).
    pub(crate) readable: bool,
    /// Writing will make progress.
    pub(crate) writable: bool,
    /// Peer closed or the fd errored; the connection should be torn down
    /// after draining whatever is still readable.
    pub(crate) hangup: bool,
}

/// A cloneable, thread-safe handle that interrupts a blocked
/// [`Poller::wait`]. The fd behind it stays valid until the `Poller` is
/// dropped — the gateway keeps the reactor thread (and thus the poller)
/// alive until after the last `wake()` during shutdown.
#[derive(Debug, Clone)]
pub(crate) struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Wake the poller. Best-effort: an already-pending wake is fine, and a
    /// full pipe/counter just means a wake is already queued.
    pub(crate) fn wake(&self) {
        sys::waker_signal(self.fd);
    }
}

/// Readiness poller over a set of registered fds. Single-owner: lives on
/// the reactor thread; only [`Waker`] handles escape it.
#[derive(Debug)]
pub(crate) struct Poller {
    inner: sys::Backend,
    registered: usize,
}

impl Poller {
    /// Build a poller plus its internal waker fd.
    pub(crate) fn new() -> io::Result<Poller> {
        Ok(Poller {
            inner: sys::Backend::new()?,
            registered: 0,
        })
    }

    /// Register `fd` under `token` with read+write interest, edge-triggered.
    /// The fd must already be nonblocking.
    pub(crate) fn register(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
        assert!(token != WAKE_TOKEN, "WAKE_TOKEN is reserved");
        self.inner.register(fd, token)?;
        self.registered += 1;
        Ok(())
    }

    /// Remove `fd` from the interest set. Must be called before the fd is
    /// closed (closing first is usually benign with epoll but leaks slots
    /// in the poll fallback).
    pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.inner.deregister(fd)?;
        self.registered = self.registered.saturating_sub(1);
        Ok(())
    }

    /// Count of currently registered fds (excluding the waker).
    pub(crate) fn registered(&self) -> usize {
        self.registered
    }

    /// Handle for waking a blocked `wait` from another thread.
    pub(crate) fn waker(&self) -> Waker {
        Waker {
            fd: self.inner.waker_fd(),
        }
    }

    /// Block until readiness or timeout, filling `out` (cleared first).
    /// `None` blocks indefinitely; `Some(0)` polls without blocking.
    /// Waker pokes surface as events with [`WAKE_TOKEN`] and are already
    /// drained. EINTR retries internally.
    pub(crate) fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        let ms: i32 = match timeout {
            None => -1,
            Some(d) if d.is_zero() => 0,
            // Round up so a sub-millisecond timeout still sleeps.
            Some(d) => d
                .as_millis()
                .saturating_add(1)
                .min(i32::MAX as u128) as i32,
        };
        self.inner.wait(out, ms)
    }
}

/// Shrink a socket's kernel buffers (Linux only; no-op elsewhere). Used by
/// tests that need a slow reader to exert real backpressure without
/// hundreds of kilobytes of kernel buffering absorbing the stream. The
/// kernel doubles the value it is given and enforces a floor, so the
/// effective size is "small", not exact.
pub fn shrink_socket_buffers(fd: RawFd, sndbuf: Option<u32>, rcvbuf: Option<u32>) -> io::Result<()> {
    sys::shrink_socket_buffers(fd, sndbuf, rcvbuf)
}

/// Deepen the accept backlog of an already-listening socket.
///
/// `std::net::TcpListener::bind` hardcodes a backlog of 128, which a swarm
/// connecting at thousands of sockets per second overflows in ~100 ms if
/// the reactor is mid-way through a long simulation step. On Linux,
/// calling `listen(2)` again on a listening socket updates the backlog in
/// place (the kernel clamps to `net.core.somaxconn`). Best-effort on other
/// unixes, where re-listen may be a no-op.
pub(crate) fn widen_listen_backlog(fd: RawFd, backlog: u32) -> io::Result<()> {
    extern "C" {
        fn listen(fd: i32, backlog: i32) -> i32;
    }
    // SAFETY: `listen(2)` takes only integers; the kernel rejects an fd that is not a socket with
    // -1, which is checked below.
    let ret = unsafe { listen(fd, backlog.min(i32::MAX as u32) as i32) };
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(())
    }
}

/// Builds `n` nonblocking listeners bound to the same address via
/// `SO_REUSEPORT`, so the kernel shards incoming connections across them
/// by 4-tuple hash — one listener per I/O reactor, zero user-space accept
/// locking. The option must be set **before** `bind(2)`, which
/// `std::net::TcpListener` gives no hook for, hence the raw
/// `socket`/`setsockopt`/`bind`/`listen` FFI (same no-`libc` discipline as
/// the epoll backend above).
///
/// Port 0 is resolved once: the first listener binds ephemeral, and the
/// remaining `n - 1` join its group on the concrete port returned by
/// `getsockname(2)`. Every listener starts with the kernel-default backlog;
/// callers widen each one via [`widen_listen_backlog`].
///
/// Returns the listeners plus the resolved local address. With `n == 1`
/// on non-Linux unixes this falls back to a plain `TcpListener::bind`;
/// `n > 1` requires Linux.
pub(crate) fn reuseport_listener_group(
    addr: SocketAddr,
    n: usize,
) -> io::Result<(Vec<TcpListener>, SocketAddr)> {
    assert!(n >= 1, "listener group needs at least one member");
    sys::reuseport_listener_group(addr, n)
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{PollEvent, WAKE_TOKEN};
    use std::io;
    use std::net::{SocketAddr, TcpListener};
    use std::os::unix::io::{FromRawFd, RawFd};

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLET: u32 = 1 << 31;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    const EFD_NONBLOCK: i32 = 0o4000;
    const EFD_CLOEXEC: i32 = 0o2000000;

    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;
    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;
    const SO_REUSEPORT: i32 = 15;

    const AF_INET: i32 = 2;
    const AF_INET6: i32 = 10;
    const SOCK_STREAM: i32 = 1;
    const SOCK_NONBLOCK: i32 = 0o4000;
    const SOCK_CLOEXEC: i32 = 0o2000000;

    /// Kernel epoll_event. Packed on x86 so the 64-bit payload sits at
    /// offset 4, matching the kernel ABI; naturally aligned elsewhere.
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const u8, optlen: u32) -> i32;
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn bind(fd: i32, addr: *const u8, addrlen: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn getsockname(fd: i32, addr: *mut u8, addrlen: *mut u32) -> i32;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    #[derive(Debug)]
    pub(crate) struct Backend {
        epfd: RawFd,
        efd: RawFd,
    }

    impl Backend {
        pub(crate) fn new() -> io::Result<Backend> {
            // SAFETY: `epoll_create1` takes only a flags integer and returns a new fd or -1, which
            // `cvt` turns into an error.
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            // SAFETY: `eventfd` takes only integers and returns a new fd or -1.
            let efd = match cvt(unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) }) {
                Ok(fd) => fd,
                Err(e) => {
                    // SAFETY: `epfd` was just created above and nothing else owns it; this error
                    // path closes it exactly once.
                    unsafe { close(epfd) };
                    return Err(e);
                }
            };
            let b = Backend { epfd, efd };
            let mut ev = EpollEvent {
                events: EPOLLIN | EPOLLET,
                data: WAKE_TOKEN,
            };
            // SAFETY: both fds are live (created above) and `ev` is an initialized `EpollEvent`
            // that outlives the call; the kernel copies it and keeps no pointer.
            cvt(unsafe { epoll_ctl(b.epfd, EPOLL_CTL_ADD, b.efd, &mut ev) })?;
            Ok(b)
        }

        pub(crate) fn register(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET,
                data: token,
            };
            // SAFETY: `epfd` stays open for `self`'s lifetime and `ev` is an initialized
            // `EpollEvent` the kernel only reads during the call; a bad `fd` is an error return,
            // not UB.
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) })?;
            Ok(())
        }

        pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: as in `register`; `EPOLL_CTL_DEL` ignores the event, but old kernels require
            // a non-null pointer, so a live one is passed.
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) })?;
            Ok(())
        }

        pub(crate) fn waker_fd(&self) -> RawFd {
            self.efd
        }

        fn drain_waker(&self) {
            let mut buf = [0u8; 8];
            loop {
                // SAFETY: `buf` is a live 8-byte buffer and the count is 8, so the kernel writes
                // only inside it; `efd` is owned by `self`.
                let n = unsafe { read(self.efd, buf.as_mut_ptr(), 8) };
                if n <= 0 {
                    break;
                }
            }
        }

        pub(crate) fn wait(&mut self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
            const CAP: usize = 1024;
            let mut buf = [EpollEvent { events: 0, data: 0 }; CAP];
            loop {
                // SAFETY: `buf` holds `CAP` entries and `maxevents` is `CAP`, so the kernel writes
                // at most `CAP` events into it; `epfd` is owned by `self`.
                let n = unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), CAP as i32, timeout_ms) };
                if n < 0 {
                    let e = io::Error::last_os_error();
                    if e.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    return Err(e);
                }
                for ev in buf.iter().take(n as usize) {
                    // Copy out of the (possibly packed) struct first.
                    let events = ev.events;
                    let token = ev.data;
                    if token == WAKE_TOKEN {
                        self.drain_waker();
                    }
                    out.push(PollEvent {
                        token,
                        readable: events & (EPOLLIN | EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0,
                        writable: events & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0,
                        hangup: events & (EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0,
                    });
                }
                return Ok(());
            }
        }
    }

    impl Drop for Backend {
        fn drop(&mut self) {
            // SAFETY: both fds were created in `Backend::new`, are owned only by this backend, and
            // are closed exactly once, here.
            unsafe {
                close(self.efd);
                close(self.epfd);
            }
        }
    }

    pub(crate) fn waker_signal(fd: RawFd) {
        let one: u64 = 1;
        // SAFETY: the pointer is to a live 8-byte `u64` and the count is 8, the write size eventfd
        // requires. The gateway keeps the poller (and so `fd`) alive until after the last wake; a
        // failed write only means a wake is already pending.
        unsafe { write(fd, &one as *const u64 as *const u8, 8) };
    }

    pub(crate) fn shrink_socket_buffers(
        fd: RawFd,
        sndbuf: Option<u32>,
        rcvbuf: Option<u32>,
    ) -> io::Result<()> {
        for (opt, val) in [(SO_SNDBUF, sndbuf), (SO_RCVBUF, rcvbuf)] {
            if let Some(v) = val {
                let v = v as i32;
                // SAFETY: `optval` points to a live `i32` and `optlen` is its size; the kernel
                // only reads it during the call.
                cvt(unsafe {
                    setsockopt(
                        fd,
                        SOL_SOCKET,
                        opt,
                        &v as *const i32 as *const u8,
                        std::mem::size_of::<i32>() as u32,
                    )
                })?;
            }
        }
        Ok(())
    }

    /// Linux `sockaddr_in` / `sockaddr_in6` wire layout, built by hand.
    /// Returns (bytes, length).
    fn encode_sockaddr(addr: SocketAddr) -> ([u8; 28], u32) {
        let mut buf = [0u8; 28];
        match addr {
            SocketAddr::V4(v4) => {
                buf[0..2].copy_from_slice(&(AF_INET as u16).to_ne_bytes());
                buf[2..4].copy_from_slice(&v4.port().to_be_bytes());
                buf[4..8].copy_from_slice(&v4.ip().octets());
                (buf, 16)
            }
            SocketAddr::V6(v6) => {
                buf[0..2].copy_from_slice(&(AF_INET6 as u16).to_ne_bytes());
                buf[2..4].copy_from_slice(&v6.port().to_be_bytes());
                buf[4..8].copy_from_slice(&v6.flowinfo().to_ne_bytes());
                buf[8..24].copy_from_slice(&v6.ip().octets());
                buf[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                (buf, 28)
            }
        }
    }

    /// Reads the bound port back out of `getsockname(2)`.
    fn bound_port(fd: RawFd) -> io::Result<u16> {
        let mut buf = [0u8; 28];
        let mut len = buf.len() as u32;
        // SAFETY: `buf` is 28 bytes, enough for `sockaddr_in6`, and `len` says so; the kernel
        // writes at most `len` bytes and updates `len`.
        cvt(unsafe { getsockname(fd, buf.as_mut_ptr(), &mut len) })?;
        // Port sits at the same offset (2) in sockaddr_in and sockaddr_in6.
        Ok(u16::from_be_bytes([buf[2], buf[3]]))
    }

    fn set_opt_one(fd: RawFd, level: i32, opt: i32) -> io::Result<()> {
        let one: i32 = 1;
        // SAFETY: `optval` points to a live `i32` and `optlen` is its size; the kernel only reads
        // it during the call.
        cvt(unsafe {
            setsockopt(
                fd,
                level,
                opt,
                &one as *const i32 as *const u8,
                std::mem::size_of::<i32>() as u32,
            )
        })?;
        Ok(())
    }

    pub(crate) fn reuseport_listener_group(
        addr: SocketAddr,
        n: usize,
    ) -> io::Result<(Vec<TcpListener>, SocketAddr)> {
        let family = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
        let mut listeners = Vec::with_capacity(n);
        let mut bound = addr;
        for _ in 0..n {
            // SAFETY: `socket(2)` takes only integers and returns a new fd or -1.
            let fd = cvt(unsafe {
                socket(family, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0)
            })?;
            // From-raw before anything fallible so the fd is owned (closed
            // on error drop) from here on.
            // SAFETY: `fd` was just returned by `socket(2)` and nothing else owns it; the listener
            // takes sole ownership and closes it on drop.
            let listener = unsafe { TcpListener::from_raw_fd(fd) };
            set_opt_one(fd, SOL_SOCKET, SO_REUSEADDR)?;
            set_opt_one(fd, SOL_SOCKET, SO_REUSEPORT)?;
            let (sa, sa_len) = encode_sockaddr(bound);
            // SAFETY: `sa` holds an encoded sockaddr of `sa_len` bytes; the kernel only reads it
            // during the call.
            cvt(unsafe { bind(fd, sa.as_ptr(), sa_len) })?;
            // SAFETY: `listen(2)` takes only integers; `fd` is the live socket `listener` owns.
            cvt(unsafe { listen(fd, 128) })?;
            if bound.port() == 0 {
                // First member resolved the ephemeral port; the rest join
                // its group on the concrete port.
                bound.set_port(bound_port(fd)?);
            }
            listeners.push(listener);
        }
        Ok((listeners, bound))
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    use super::{PollEvent, WAKE_TOKEN};
    use std::io;
    use std::os::unix::io::RawFd;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    const F_SETFL: i32 = 4;
    // BSD/macOS O_NONBLOCK (this module never compiles on Linux).
    const O_NONBLOCK: i32 = 0x0004;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u32, timeout: i32) -> i32;
        fn pipe(fds: *mut i32) -> i32;
        fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    #[derive(Debug)]
    pub(crate) struct Backend {
        /// (fd, token) interest set; the waker pipe read end is entry 0.
        slots: Vec<(RawFd, u64)>,
        pipe_r: RawFd,
        pipe_w: RawFd,
    }

    impl Backend {
        pub(crate) fn new() -> io::Result<Backend> {
            let mut fds = [0i32; 2];
            // SAFETY: `fds` is a live `[i32; 2]`, exactly what `pipe(2)` writes.
            if unsafe { pipe(fds.as_mut_ptr()) } < 0 {
                return Err(io::Error::last_os_error());
            }
            for fd in fds {
                // SAFETY: `fcntl(F_SETFL)` takes only integers; `fd` was just created by
                // `pipe(2)`.
                if unsafe { fcntl(fd, F_SETFL, O_NONBLOCK) } < 0 {
                    let e = io::Error::last_os_error();
                    // SAFETY: both pipe fds were just created and nothing else owns them; this
                    // error path closes each exactly once.
                    unsafe {
                        close(fds[0]);
                        close(fds[1]);
                    }
                    return Err(e);
                }
            }
            Ok(Backend {
                slots: vec![(fds[0], WAKE_TOKEN)],
                pipe_r: fds[0],
                pipe_w: fds[1],
            })
        }

        pub(crate) fn register(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
            self.slots.push((fd, token));
            Ok(())
        }

        pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            match self.slots.iter().rposition(|&(f, _)| f == fd) {
                Some(i) if i > 0 => {
                    self.slots.swap_remove(i);
                    Ok(())
                }
                _ => Err(io::Error::from(io::ErrorKind::NotFound)),
            }
        }

        pub(crate) fn waker_fd(&self) -> RawFd {
            self.pipe_w
        }

        fn drain_waker(&self) {
            let mut buf = [0u8; 64];
            loop {
                // SAFETY: `buf` is a live 64-byte buffer and the count is its length; `pipe_r` is
                // owned by `self`.
                let n = unsafe { read(self.pipe_r, buf.as_mut_ptr(), buf.len()) };
                if n <= 0 {
                    break;
                }
            }
        }

        pub(crate) fn wait(&mut self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
            let mut fds: Vec<PollFd> = self
                .slots
                .iter()
                .map(|&(fd, token)| PollFd {
                    fd,
                    events: if token == WAKE_TOKEN {
                        POLLIN
                    } else {
                        POLLIN | POLLOUT
                    },
                    revents: 0,
                })
                .collect();
            loop {
                // SAFETY: `fds` is a live `Vec` of `fds.len()` `repr(C)` entries; the kernel
                // writes only their `revents` fields.
                let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u32, timeout_ms) };
                if n < 0 {
                    let e = io::Error::last_os_error();
                    if e.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    return Err(e);
                }
                for (pfd, &(_, token)) in fds.iter().zip(self.slots.iter()) {
                    let r = pfd.revents;
                    if r == 0 {
                        continue;
                    }
                    if token == WAKE_TOKEN {
                        self.drain_waker();
                    }
                    out.push(PollEvent {
                        token,
                        readable: r & (POLLIN | POLLHUP | POLLERR) != 0,
                        writable: r & (POLLOUT | POLLHUP | POLLERR) != 0,
                        hangup: r & (POLLHUP | POLLERR) != 0,
                    });
                }
                return Ok(());
            }
        }
    }

    impl Drop for Backend {
        fn drop(&mut self) {
            // SAFETY: both pipe fds were created in `Backend::new`, are owned only by this
            // backend, and are closed exactly once, here.
            unsafe {
                close(self.pipe_r);
                close(self.pipe_w);
            }
        }
    }

    pub(crate) fn waker_signal(fd: RawFd) {
        let one = [1u8];
        // SAFETY: `one` is a live one-byte buffer and the count is 1. The gateway keeps the poller
        // (and so `fd`) alive until after the last wake; a full pipe only means a wake is already
        // pending.
        unsafe { write(fd, one.as_ptr(), 1) };
    }

    pub(crate) fn shrink_socket_buffers(
        _fd: RawFd,
        _sndbuf: Option<u32>,
        _rcvbuf: Option<u32>,
    ) -> io::Result<()> {
        Ok(())
    }

    pub(crate) fn reuseport_listener_group(
        addr: std::net::SocketAddr,
        n: usize,
    ) -> io::Result<(Vec<std::net::TcpListener>, std::net::SocketAddr)> {
        if n > 1 {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "SO_REUSEPORT listener groups require Linux",
            ));
        }
        let l = std::net::TcpListener::bind(addr)?;
        l.set_nonblocking(true)?;
        let bound = l.local_addr()?;
        Ok((vec![l], bound))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::Instant;

    #[test]
    fn listener_accept_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(listener.as_raw_fd(), 7).unwrap();

        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.iter().all(|e| !e.readable || e.token != 7));

        let _client = TcpStream::connect(addr).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        let (s, _) = listener.accept().unwrap();
        drop(s);
    }

    #[test]
    fn edge_triggered_write_then_read() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller.register(client.as_raw_fd(), 1).unwrap();

        // Fresh socket: writable edge reported.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));

        // Data arrives: readable edge reported.
        server.write_all(b"ping").unwrap();
        server.flush().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut saw_read = false;
        while Instant::now() < deadline && !saw_read {
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            saw_read = events.iter().any(|e| e.token == 1 && e.readable);
        }
        assert!(saw_read);
        let mut buf = [0u8; 4];
        let mut c = &client;
        c.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");

        poller.deregister(client.as_raw_fd()).unwrap();
        assert_eq!(poller.registered(), 0);
    }

    #[test]
    fn waker_interrupts_blocked_wait() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let mut events = Vec::new();
        let start = Instant::now();
        poller.wait(&mut events, Some(Duration::from_secs(30))).unwrap();
        assert!(start.elapsed() < Duration::from_secs(10));
        assert!(events.iter().any(|e| e.token == WAKE_TOKEN));
        t.join().unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn reuseport_group_shares_one_port_and_accepts() {
        let (listeners, addr) =
            reuseport_listener_group("127.0.0.1:0".parse().unwrap(), 4).unwrap();
        assert_eq!(listeners.len(), 4);
        for l in &listeners {
            assert_eq!(l.local_addr().unwrap().port(), addr.port());
        }
        // Every connection lands on exactly one group member.
        let clients: Vec<TcpStream> =
            (0..32).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut accepted = 0;
        while accepted < clients.len() && Instant::now() < deadline {
            let mut progressed = false;
            for l in &listeners {
                match l.accept() {
                    Ok((s, _)) => {
                        drop(s);
                        accepted += 1;
                        progressed = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => panic!("accept failed: {e}"),
                }
            }
            if !progressed {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        assert_eq!(accepted, clients.len());
    }

    /// Effective accept backlog of a listening socket, read back from the
    /// kernel with `getsockopt(IPPROTO_TCP, TCP_INFO)`: for a socket in
    /// `LISTEN` state the kernel reports `sk_max_ack_backlog` in the
    /// `tcpi_sacked` field, which is exactly the (somaxconn-clamped) value
    /// the last `listen(2)` installed.
    #[cfg(target_os = "linux")]
    fn listen_backlog(fd: RawFd) -> u32 {
        extern "C" {
            fn getsockopt(
                fd: i32,
                level: i32,
                optname: i32,
                optval: *mut u8,
                optlen: *mut u32,
            ) -> i32;
        }
        const IPPROTO_TCP: i32 = 6;
        const TCP_INFO: i32 = 11;
        // struct tcp_info: 8 one-byte fields, then u32 rto/ato/snd_mss/
        // rcv_mss, then tcpi_unacked @24 and tcpi_sacked @28. For LISTEN
        // sockets the kernel fills unacked = current queue depth and
        // sacked = max backlog (sk_max_ack_backlog).
        let mut info = [0u8; 128];
        let mut len = info.len() as u32;
        // SAFETY: `info` is a 128-byte buffer and `len` says so; the kernel writes at most `len`
        // bytes and updates `len`.
        let ret = unsafe { getsockopt(fd, IPPROTO_TCP, TCP_INFO, info.as_mut_ptr(), &mut len) };
        assert_eq!(ret, 0, "getsockopt(TCP_INFO): {}", io::Error::last_os_error());
        assert!(len >= 32, "tcp_info too short for tcpi_sacked");
        u32::from_ne_bytes([info[28], info[29], info[30], info[31]])
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn widened_backlog_is_observable_via_getsockopt() {
        let somaxconn: u32 = std::fs::read_to_string("/proc/sys/net/core/somaxconn")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(4096);
        let (listeners, _addr) =
            reuseport_listener_group("127.0.0.1:0".parse().unwrap(), 2).unwrap();
        for l in &listeners {
            let want = 1024.min(somaxconn);
            widen_listen_backlog(l.as_raw_fd(), 1024).unwrap();
            let got = listen_backlog(l.as_raw_fd());
            assert_eq!(
                got, want,
                "listen(2) backlog did not take effect (somaxconn={somaxconn})"
            );
            // Widen again to prove re-listen updates in place.
            let want2 = 2048.min(somaxconn);
            widen_listen_backlog(l.as_raw_fd(), 2048).unwrap();
            assert_eq!(listen_backlog(l.as_raw_fd()), want2);
        }
    }

    #[test]
    fn zero_timeout_polls_without_blocking() {
        let mut poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let start = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert!(start.elapsed() < Duration::from_secs(1));
        assert!(events.is_empty());
    }
}

//! Minimal raw bindings to the Linux syscalls the transport needs beyond
//! `std`. `std` already links libc, so plain `extern "C"` declarations
//! reach these symbols without adding any crate dependency.
//!
//! Only what is used is declared: `epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `eventfd`, and `close`/`write` for the eventfd
//! itself, for [`crate::reactor`]; `recv` for the client's idle-peer
//! check (socket fds are owned by `TcpStream`s and never closed through
//! here). Everything is wrapped in safe helpers that translate `-1` into
//! `io::Error::last_os_error()` and retry `EINTR` where the caller cannot.

#![allow(non_camel_case_types)]

use std::io;
use std::os::fd::RawFd;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;
pub const EPOLLONESHOT: u32 = 1 << 30;

pub const EPOLL_CTL_ADD: i32 = 1;
pub const EPOLL_CTL_DEL: i32 = 2;
pub const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0x80000;
const EFD_CLOEXEC: i32 = 0x80000;
const EFD_NONBLOCK: i32 = 0x800;

const MSG_PEEK: i32 = 0x2;
const MSG_DONTWAIT: i32 = 0x40;

const EINTR: i32 = 4;

/// One readiness record. The kernel ABI packs this struct on x86-64 (and
/// only there), so the layout attribute must match libc's.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct epoll_event {
    pub events: u32,
    /// Caller-chosen cookie; the reactor stores its connection token here.
    pub u64: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut epoll_event) -> i32;
    fn epoll_wait(epfd: i32, events: *mut epoll_event, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance; closes its fd on drop. Registered interest
/// sets are updated through [`epoll_ctl_op`] with this instance's fd —
/// concurrent MOD calls from serving threads are kernel-serialized, the
/// wrapper only owns the lifetime.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: no pointers involved; the flag is a valid constant.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    pub fn fd(&self) -> RawFd {
        self.fd
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: we own this fd; nothing else closes it.
        let _ = unsafe { close(self.fd) };
    }
}

/// `epoll_ctl` with an interest set and cookie (ADD/MOD); pass `op =
/// EPOLL_CTL_DEL` with any events/token to deregister.
pub fn epoll_ctl_op(epfd: RawFd, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    let mut ev = epoll_event { events, u64: token };
    // SAFETY: `ev` outlives the call; the kernel copies it out before
    // returning (DEL ignores it entirely).
    cvt(unsafe { epoll_ctl(epfd, op, fd, &mut ev) }).map(|_| ())
}

/// Blocking `epoll_wait` into `events`, retrying `EINTR`. Returns how many
/// entries were filled. `timeout_ms < 0` blocks indefinitely.
pub fn epoll_wait_events(
    epfd: RawFd,
    events: &mut [epoll_event],
    timeout_ms: i32,
) -> io::Result<usize> {
    loop {
        // SAFETY: the pointer/length pair comes from a live slice and the
        // kernel writes at most `len` entries.
        let n = unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms) };
        match cvt(n) {
            Ok(n) => return Ok(n as usize),
            Err(e) if e.raw_os_error() == Some(EINTR) => continue,
            Err(e) => return Err(e),
        }
    }
}

/// A nonblocking `eventfd` used to wake the serving threads from another
/// thread. Closes its fd on drop.
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: plain syscall, valid flag constants.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Add 1 to the eventfd counter, making it readable. Never blocks
    /// meaningfully: the counter saturates far beyond any wake rate, and a
    /// full counter already means a wakeup is pending.
    pub fn notify(&self) {
        let one: u64 = 1;
        // SAFETY: writes exactly 8 bytes from a live stack value.
        let _ = unsafe { write(self.fd, one.to_ne_bytes().as_ptr(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: we own this fd; nothing else closes it.
        let _ = unsafe { close(self.fd) };
    }
}

/// Peek at one byte of a socket without blocking or consuming it: `Ok(0)`
/// means the peer closed its end, `Ok(1)` that data is waiting, and an
/// `io::ErrorKind::WouldBlock` error that the socket is open but quiet.
pub fn peek_nonblocking(fd: RawFd) -> io::Result<usize> {
    let mut byte = 0u8;
    loop {
        // SAFETY: reads at most 1 byte into a live stack value; MSG_PEEK
        // leaves it in the socket and MSG_DONTWAIT keeps the call from
        // blocking whatever mode the fd is in.
        let n = unsafe { recv(fd, &mut byte, 1, MSG_PEEK | MSG_DONTWAIT) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let e = io::Error::last_os_error();
        if e.raw_os_error() != Some(EINTR) {
            return Err(e);
        }
    }
}

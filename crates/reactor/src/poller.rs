//! OS readiness notification behind one small API: `epoll` on Linux,
//! POSIX `poll(2)` elsewhere on unix, and an always-failing stub on other
//! platforms (serving is unix-only: binding a server there fails).
//!
//! No `libc` crate is available in this workspace, so the two or three
//! syscalls each backend needs are declared directly via `extern "C"` —
//! std already links the C library, the symbols are there.

use std::io;

/// Which readiness classes a registration subscribes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the idle state of every session.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

/// One readiness event. `hangup` folds POLLERR/POLLHUP/EPOLLRDHUP
/// together: the next read on the socket tells the session precisely how
/// it died.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::time::Duration;

    // On x86-64 the kernel ABI packs the struct; on other architectures
    // it is naturally aligned.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// Level-triggered epoll instance. Level-triggering is deliberate:
    /// a session that leaves bytes unread (paused) simply drops `readable`
    /// from its interest set instead of needing edge-rearm bookkeeping.
    pub struct Poller {
        ep: OwnedFd,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: `epoll_create1` takes a flags word and touches no
            // memory of ours; a negative return is handled below.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                // SAFETY: `fd` was just returned, non-negative, by
                // `epoll_create1`, and nothing else owns or closes it.
                ep: unsafe { OwnedFd::from_raw_fd(fd) },
                buf: vec![EpollEvent { events: 0, data: 0 }; 512],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            // SAFETY: `self.ep` is an open epoll fd, and `ev` a live
            // `epoll_event` in the kernel's layout that it only reads.
            let rc = unsafe { epoll_ctl(self.ep.as_raw_fd(), op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::default())
        }

        pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            events.clear();
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            // SAFETY: the kernel writes at most `self.buf.len()` events into
            // `self.buf`, borrowed for the call; `n` bounds what is read.
            let n = unsafe {
                epoll_wait(
                    self.ep.as_raw_fd(),
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    ms,
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for ev in &self.buf[..n as usize] {
                // Packed struct: copy the fields out before use.
                let bits = ev.events;
                let token = ev.data;
                events.push(Event {
                    token,
                    readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.readable {
            m |= EPOLLIN;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Pollfd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut Pollfd, nfds: u64, timeout: i32) -> i32;
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    /// `poll(2)` backend: the registration list is rebuilt into a pollfd
    /// array per wait. O(n) per tick, which is fine at the connection
    /// counts non-Linux dev machines see.
    pub struct Poller {
        fds: Vec<Pollfd>,
        tokens: Vec<u64>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                fds: Vec::new(),
                tokens: Vec::new(),
            })
        }

        fn find(&self, fd: RawFd) -> Option<usize> {
            self.fds.iter().position(|p| p.fd == fd)
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.fds.push(Pollfd {
                fd,
                events: mask(interest),
                revents: 0,
            });
            self.tokens.push(token);
            Ok(())
        }

        pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let i = self
                .find(fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            self.fds[i].events = mask(interest);
            self.tokens[i] = token;
            Ok(())
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let i = self
                .find(fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
            Ok(())
        }

        pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            events.clear();
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            // SAFETY: `self.fds` holds `self.fds.len()` C-layout `pollfd`s,
            // borrowed for the call; the kernel writes only their `revents`.
            let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as u64, ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for (p, &token) in self.fds.iter().zip(&self.tokens) {
                if p.revents == 0 {
                    continue;
                }
                events.push(Event {
                    token,
                    readable: p.revents & POLLIN != 0,
                    writable: p.revents & POLLOUT != 0,
                    hangup: p.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    fn mask(interest: Interest) -> i16 {
        let mut m = 0;
        if interest.readable {
            m |= POLLIN;
        }
        if interest.writable {
            m |= POLLOUT;
        }
        m
    }
}

#[cfg(not(unix))]
mod sys {
    use super::{Event, Interest};
    use std::io;
    use std::time::Duration;

    /// Stub: readiness polling is unix-only here. `new` fails, and the
    /// serving layer's `bind` returns that error on other platforms.
    pub struct Poller;

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "readiness polling is only implemented on unix",
            ))
        }

        pub fn register(&mut self, _fd: i32, _token: u64, _interest: Interest) -> io::Result<()> {
            unreachable!("stub poller cannot be constructed")
        }

        pub fn reregister(&mut self, _fd: i32, _token: u64, _interest: Interest) -> io::Result<()> {
            unreachable!("stub poller cannot be constructed")
        }

        pub fn deregister(&mut self, _fd: i32) -> io::Result<()> {
            unreachable!("stub poller cannot be constructed")
        }

        pub fn wait(&mut self, _events: &mut Vec<Event>, _timeout: Duration) -> io::Result<()> {
            unreachable!("stub poller cannot be constructed")
        }
    }
}

pub use sys::Poller;

/// The wake side of the reactor's self-notification channel. Worker
/// threads call [`Waker::wake`] after pushing a completion so the event
/// loop's `wait` returns immediately instead of at the next poll tick.
#[derive(Clone)]
pub struct Waker {
    #[cfg(unix)]
    tx: std::sync::Arc<std::os::unix::net::UnixStream>,
}

impl Waker {
    /// Nudges the event loop. Best-effort: a full pipe already guarantees
    /// a pending wakeup, and a closed one means the loop is gone — both
    /// are fine to ignore.
    pub fn wake(&self) {
        #[cfg(unix)]
        {
            use std::io::Write;
            let _ = (&*self.tx).write(&[1u8]);
        }
    }
}

/// The read side, owned by the event loop.
pub struct WakeReader {
    #[cfg(unix)]
    rx: std::os::unix::net::UnixStream,
}

impl WakeReader {
    /// Discards every pending wake byte.
    pub fn drain(&mut self) {
        #[cfg(unix)]
        {
            use std::io::Read;
            let mut buf = [0u8; 64];
            while matches!(self.rx.read(&mut buf), Ok(n) if n > 0) {}
        }
    }

    #[cfg(unix)]
    pub fn raw_fd(&self) -> std::os::fd::RawFd {
        use std::os::fd::AsRawFd;
        self.rx.as_raw_fd()
    }
}

/// Builds the wake channel: a nonblocking socketpair, all std, no
/// syscall declarations needed.
pub fn wake_pipe() -> io::Result<(Waker, WakeReader)> {
    #[cfg(unix)]
    {
        let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((
            Waker {
                tx: std::sync::Arc::new(tx),
            },
            WakeReader { rx },
        ))
    }
    #[cfg(not(unix))]
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "wake pipe is only implemented on unix",
    ))
}

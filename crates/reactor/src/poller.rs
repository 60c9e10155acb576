//! OS readiness notification behind one small API: POSIX `poll(2)` on
//! every unix, and an always-failing stub on other platforms (serving is
//! unix-only: binding a server there fails).
//!
//! With no `libc` crate, `poll` is declared by hand: std links the C library.

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

/// One readiness event. `hangup` folds POLLERR and POLLHUP together: the
/// next read on the socket tells the session precisely how it died. A
/// peer's half-close arrives as `readable`, and that read returns 0 bytes.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    pub hangup: bool,
}

#[cfg(unix)]
mod sys {
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    /// `nfds_t`: `unsigned long` on Linux, `unsigned int` on other unixes.
    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Pollfd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut Pollfd, nfds: Nfds, timeout: i32) -> i32;
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    /// Level-triggered `poll(2)`: the pollfd array is the registration list,
    /// kept across waits and edited in place (a paused session just drops
    /// `readable`). A wait scans every entry, as the reactor's sweep visits
    /// every session: at most the connection cap, the listener and the wake
    /// pipe. An edit finds its entry through `slots`, without a scan.
    #[derive(Default)]
    pub struct Poller {
        fds: Vec<Pollfd>,
        tokens: Vec<u64>,
        /// Each fd's index in `fds`, keyed by fd: stale once it deregisters.
        slots: Vec<usize>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller::default())
        }

        fn find(&self, fd: RawFd) -> io::Result<usize> {
            match usize::try_from(fd).ok().and_then(|f| self.slots.get(f)) {
                Some(&i) if self.fds.get(i).is_some_and(|p| p.fd == fd) => Ok(i),
                _ => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let slot = usize::try_from(fd).map_err(|_| io::ErrorKind::InvalidInput)?;
            self.slots
                .resize(self.slots.len().max(slot + 1), usize::MAX);
            self.slots[slot] = self.fds.len();
            self.fds.push(Pollfd {
                fd,
                events: mask(interest),
                revents: 0,
            });
            self.tokens.push(token);
            Ok(())
        }

        pub fn reregister(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let i = self.find(fd)?;
            self.fds[i].events = mask(interest);
            self.tokens[i] = token;
            Ok(())
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let i = self.find(fd)?;
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
            if let Some(moved) = self.fds.get(i) {
                self.slots[moved.fd as usize] = i;
            }
            Ok(())
        }

        pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Duration) -> io::Result<()> {
            events.clear();
            let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
            // SAFETY: `self.fds` holds `self.fds.len()` C-layout `pollfd`s,
            // borrowed for the call; the kernel writes only their `revents`.
            let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as Nfds, ms) };
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
        (i16::from(interest.readable) * POLLIN) | (i16::from(interest.writable) * POLLOUT)
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

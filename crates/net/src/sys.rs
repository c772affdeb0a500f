//! The reactor's three kernel objects — a readiness set (`epoll`), a
//! cross-thread wake (`eventfd`) and a one-shot deadline timer
//! (`timerfd`) — and the only `unsafe` in the crate. Linux-only: these
//! are glibc's wrappers of the Linux system calls, which `std` already
//! links.
//!
//! Everything the service loop knows about *waiting* goes through
//! [`Poller`], [`Waker`] and [`Timer`]; a virtual-time transport replaces
//! this module and nothing else.

use std::ffi::{c_int, c_long, c_uint};
use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;
const TFD_CLOEXEC: c_int = 0o2000000;
const TFD_NONBLOCK: c_int = 0o4000;
const CLOCK_MONOTONIC: c_int = 1;

/// `struct epoll_event`: packed on x86-64 (the kernel ABI there), natural
/// layout everywhere else.
#[derive(Clone, Copy, Debug)]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
struct EpollEvent {
    events: u32,
    token: u64,
}

/// `struct timespec` with glibc's field types (`time_t` and `long` are
/// both `long` on the Linux targets this builds for).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `struct itimerspec`.
#[repr(C)]
struct Itimerspec {
    it_interval: Timespec,
    it_value: Timespec,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn timerfd_create(clockid: c_int, flags: c_int) -> c_int;
    fn timerfd_settime(
        fd: c_int,
        flags: c_int,
        new_value: *const Itimerspec,
        old_value: *mut Itimerspec,
    ) -> c_int;
}

/// Turn a `-1` return into the thread's `errno`.
fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Take ownership of a descriptor a creating call just returned.
fn owned(ret: c_int) -> io::Result<OwnedFd> {
    let fd = cvt(ret)?;
    // SAFETY: `fd` was returned non-negative by a call that creates a new
    // descriptor, and nothing else holds it: this is its only owner.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// What a registered descriptor should be reported for. Errors and
/// hang-ups are reported whatever is asked.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Interest {
    pub(crate) readable: bool,
    pub(crate) writable: bool,
}

impl Interest {
    pub(crate) const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    fn bits(self) -> u32 {
        (if self.readable { EPOLLIN } else { 0 }) | (if self.writable { EPOLLOUT } else { 0 })
    }
}

/// One readiness report: the token the descriptor was registered under
/// and what it is ready for. (Writability is reported by the token alone:
/// a reactor writes whatever it has queued for a reported descriptor.)
#[derive(Clone, Copy, Debug)]
pub(crate) struct Ready {
    pub(crate) token: u64,
    pub(crate) readable: bool,
    /// Error or hang-up: both directions are finished.
    pub(crate) hangup: bool,
}

/// A level-triggered readiness set. Closing a registered descriptor
/// removes it from the set, so there is no `remove`.
#[derive(Debug)]
pub(crate) struct Poller {
    epfd: OwnedFd,
    events: Vec<EpollEvent>,
}

impl Poller {
    /// Most reports taken per wait; level-triggering reports the rest on
    /// the next one.
    const BATCH: usize = 256;

    pub(crate) fn new() -> io::Result<Self> {
        // SAFETY: no pointer arguments.
        let epfd = owned(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller {
            epfd,
            events: vec![
                EpollEvent {
                    events: 0,
                    token: 0
                };
                Self::BATCH
            ],
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut event = EpollEvent {
            events: interest.bits(),
            token,
        };
        // SAFETY: `event` is a live `epoll_event` for the whole call, which
        // only reads it; bad descriptors come back as an error.
        cvt(unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut event) }).map(drop)
    }

    /// Start reporting `fd` under `token`.
    pub(crate) fn add(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd.as_raw_fd(), token, interest)
    }

    /// Change what a registered `fd` is reported for.
    pub(crate) fn modify(
        &self,
        fd: &impl AsRawFd,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd.as_raw_fd(), token, interest)
    }

    /// Wait for readiness: forever with `None`, not at all with
    /// `Some(ZERO)`; the timeout is rounded up to whole milliseconds. A
    /// signal ends the wait early with no reports.
    pub(crate) fn wait(
        &mut self,
        timeout: Option<Duration>,
    ) -> io::Result<impl Iterator<Item = Ready> + '_> {
        let ms = match timeout {
            None => -1,
            Some(d) => c_int::try_from(d.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX),
        };
        // SAFETY: `events` is a live buffer of `BATCH` events the kernel
        // may write for the whole call, and it writes at most `BATCH`.
        let ret = unsafe {
            epoll_wait(
                self.epfd.as_raw_fd(),
                self.events.as_mut_ptr(),
                Self::BATCH as c_int,
                ms,
            )
        };
        let n = match cvt(ret) {
            Ok(n) => n as usize,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        Ok(self.events[..n].iter().map(|e| {
            let bits = e.events;
            Ready {
                token: e.token,
                readable: bits & EPOLLIN != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
            }
        }))
    }
}

/// A counter another thread bumps to end this reactor's wait.
#[derive(Debug)]
pub(crate) struct Waker(File);

impl Waker {
    pub(crate) fn new() -> io::Result<Self> {
        // SAFETY: no pointer arguments.
        let fd = owned(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(Waker(File::from(fd)))
    }

    /// Make the descriptor readable. Failure means the counter is at its
    /// ceiling, which is readable too.
    pub(crate) fn wake(&self) {
        let _ = (&self.0).write(&1u64.to_ne_bytes());
    }

    /// Consume every wake so far (the descriptor stops being readable).
    pub(crate) fn drain(&self) {
        let _ = (&self.0).read(&mut [0u8; 8]);
    }
}

impl AsRawFd for Waker {
    fn as_raw_fd(&self) -> RawFd {
        self.0.as_raw_fd()
    }
}

/// A one-shot monotonic timer that reports readable once it has fired.
#[derive(Debug)]
pub(crate) struct Timer(File);

impl Timer {
    pub(crate) fn new() -> io::Result<Self> {
        // SAFETY: no pointer arguments.
        let fd = owned(unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK) })?;
        Ok(Timer(File::from(fd)))
    }

    /// Fire once, `after` from now, replacing any earlier arming (and
    /// forgetting an unacknowledged firing).
    pub(crate) fn arm(&self, after: Duration) -> io::Result<()> {
        // An all-zero value would disarm the timer instead.
        let after = after.max(Duration::from_nanos(1));
        let value = Itimerspec {
            it_interval: Timespec {
                tv_sec: 0,
                tv_nsec: 0,
            },
            it_value: Timespec {
                tv_sec: c_long::try_from(after.as_secs()).unwrap_or(c_long::MAX),
                tv_nsec: c_long::from(after.subsec_nanos() as i32),
            },
        };
        // SAFETY: `value` is a live `itimerspec` the call only reads, and
        // the old value is not asked for.
        cvt(unsafe { timerfd_settime(self.0.as_raw_fd(), 0, &value, std::ptr::null_mut()) })
            .map(drop)
    }

    /// Acknowledge a firing (the descriptor stops being readable).
    pub(crate) fn acknowledge(&self) {
        let _ = (&self.0).read(&mut [0u8; 8]);
    }
}

impl AsRawFd for Timer {
    fn as_raw_fd(&self) -> RawFd {
        self.0.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn wake_ends_a_blocking_wait_and_drain_clears_it() {
        let mut poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.add(&*waker, 7, Interest::READ).unwrap();
        assert_eq!(poller.wait(Some(Duration::ZERO)).unwrap().count(), 0);

        let remote = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || remote.wake());
        let got: Vec<Ready> = poller.wait(None).unwrap().collect();
        t.join().unwrap();
        assert_eq!(got.len(), 1);
        assert!(got[0].token == 7 && got[0].readable && !got[0].hangup);

        // Level-triggered: still reported until drained.
        assert_eq!(poller.wait(Some(Duration::ZERO)).unwrap().count(), 1);
        waker.drain();
        assert_eq!(poller.wait(Some(Duration::ZERO)).unwrap().count(), 0);
    }

    #[test]
    fn timer_fires_once_and_rearming_forgets_the_firing() {
        let mut poller = Poller::new().unwrap();
        let timer = Timer::new().unwrap();
        poller.add(&timer, 9, Interest::READ).unwrap();
        let t0 = Instant::now();
        timer.arm(Duration::from_millis(20)).unwrap();
        let got: Vec<Ready> = poller.wait(None).unwrap().collect();
        assert!(t0.elapsed() >= Duration::from_millis(20), "never early");
        assert_eq!((got.len(), got[0].token), (1, 9));

        // Arming again clears the unacknowledged firing.
        timer.arm(Duration::from_secs(60)).unwrap();
        assert_eq!(poller.wait(Some(Duration::ZERO)).unwrap().count(), 0);

        timer.arm(Duration::ZERO).unwrap();
        assert_eq!(poller.wait(None).unwrap().count(), 1, "zero still fires");
        timer.acknowledge();
        assert_eq!(poller.wait(Some(Duration::ZERO)).unwrap().count(), 0);
    }
}

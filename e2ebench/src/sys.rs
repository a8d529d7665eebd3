//! The few operating-system facts the benchmark needs that `std` does not
//! expose: process CPU time at microsecond resolution, peak resident set
//! size, a non-blocking receive, a nanosecond-timeout `ppoll`, and the
//! thread's timer slack (which otherwise rounds every sleep up by 50 µs).

use std::ffi::c_void;
use std::io;
use std::time::Duration;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct PollFd {
    pub fd: i32,
    pub events: i16,
    pub revents: i16,
}

/// Readable (or peer closed).
pub const POLLIN: i16 = 0x1;
/// Writable.
pub const POLLOUT: i16 = 0x4;

const RUSAGE_SELF: i32 = 0;
const MSG_DONTWAIT: i32 = 0x40;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn recv(fd: i32, buf: *mut c_void, len: usize, flags: i32) -> isize;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const c_void) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// User plus system CPU time of the whole process.
pub fn process_cpu() -> Duration {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `u` is a writable, correctly laid out `struct rusage` for
    // x86-64 and aarch64 Linux (two timevals followed by 14 longs).
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let us = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(us(&u.utime) + us(&u.stime))
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Receive without blocking. `Ok(0)` is end of stream; `WouldBlock`
/// means nothing is pending.
pub fn recv_nonblocking(fd: i32, buf: &mut [u8]) -> io::Result<usize> {
    // SAFETY: `buf` is a valid writable region of `buf.len()` bytes for the
    // duration of the call; `fd` is an open socket owned by the caller.
    let n = unsafe { recv(fd, buf.as_mut_ptr().cast(), buf.len(), MSG_DONTWAIT) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// Wait until one of `fds` is ready or `timeout` passes. Returns the
/// number of ready descriptors (0 on timeout; interrupted waits count as
/// a timeout and the caller simply loops).
pub fn poll(fds: &mut [PollFd], timeout: Duration) -> usize {
    let ts = Timespec {
        sec: timeout.as_secs() as i64,
        nsec: timeout.subsec_nanos() as i64,
    };
    // SAFETY: `fds` is a valid array of `fds.len()` pollfd structs, `ts`
    // outlives the call, and a null sigmask leaves the mask unchanged.
    let n = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    n.max(0) as usize
}

/// Make this thread's timed waits wake within a nanosecond of their
/// deadline instead of the default 50 µs slack: the open-loop sender
/// sleeps until each frame's due time.
pub fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and only
    // affects the calling thread.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// Return freed heap memory to the operating system. Every round spawns
/// fresh threads, and glibc gives each its own arena; without a trim
/// between rounds, memory freed in earlier rounds' arenas stays resident
/// and the peak RSS would depend on which arenas a round's threads drew.
pub fn release_freed_memory() {
    // SAFETY: `malloc_trim` only releases free pages of the allocator's
    // arenas; it is safe to call at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
}

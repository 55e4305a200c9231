//! The workspace's one `poll(2)` binding, declared through `extern "C"`
//! the way `tc_trace::clock` declares `clock_gettime` (no `libc`
//! dependency). The socket fabric's I/O thread and `tc-serve`'s front
//! door both wait here.

use std::io;
use std::time::Duration;

/// Readable (or a hang-up to read).
pub const POLLIN: i16 = 0x1;
/// Writable without blocking.
pub const POLLOUT: i16 = 0x4;

/// `struct pollfd`: a descriptor (skipped when negative), the events
/// to wait for, and the events that happened (hang-ups and errors
/// included even when not asked for).
#[repr(C)]
#[allow(missing_docs)]
pub struct PollFd {
    pub fd: i32,
    pub events: i16,
    pub revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
}

/// Waits until some record of `fds` is ready or `timeout` passes
/// (`None`: no limit); a signal ends the wait early.
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    let ms = timeout.map_or(-1, |t| t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32);
    // SAFETY: `fds` is an exclusively borrowed, initialised array of
    // `fds.len()` records laid out as C's `struct pollfd`; `poll` only
    // writes their `revents` and keeps no pointer past the call.
    if unsafe { poll(fds.as_mut_ptr(), fds.len() as _, ms) } >= 0 {
        return Ok(());
    }
    let e = io::Error::last_os_error();
    if e.kind() == io::ErrorKind::Interrupted {
        return Ok(());
    }
    Err(e)
}

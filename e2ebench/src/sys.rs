//! The few Linux facilities std does not wrap — `ppoll` (precise
//! open-loop wake-ups), `kill` (SIGINT for a graceful drain), `prctl`
//! (server dies with the bench; tight timer slack) — and `/proc`
//! readers for CPU, memory and host provenance.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const POLLIN: i16 = 0x1;
pub const SIGINT: i32 = 2;
const SIGKILL: u64 = 9;
const PR_SET_PDEATHSIG: i32 = 1;
const PR_SET_TIMERSLACK: i32 = 29;

/// Waits until one of `fds` is readable or `timeout` passes; returns
/// which are readable.
pub fn wait_readable(fds: &[RawFd], timeout: Duration) -> io::Result<Vec<bool>> {
    let mut pfds: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfds` is a live, exclusively borrowed array of `pfds.len()`
    // pollfd structs laid out as the kernel expects (`repr(C)`); `ts` is
    // a valid timespec that outlives the call; a null sigmask leaves the
    // signal mask unchanged.
    let rc = unsafe { ppoll(pfds.as_mut_ptr(), pfds.len() as u64, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() == io::ErrorKind::Interrupted {
            return Ok(vec![false; fds.len()]);
        }
        return Err(e);
    }
    Ok(pfds.iter().map(|p| p.revents != 0).collect())
}

/// Sends `sig` to process `pid`.
pub fn signal(pid: u32, sig: i32) -> io::Result<()> {
    // SAFETY: kill(2) takes plain integers and touches no memory of ours.
    if unsafe { kill(pid as i32, sig) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// In a freshly forked child: ask the kernel to SIGKILL it when the
/// spawning thread dies, so a killed or crashed bench leaves no server.
pub fn die_with_parent() -> io::Result<()> {
    // SAFETY: prctl(PR_SET_PDEATHSIG, sig) reads only its integer
    // arguments; it is async-signal-safe, so it may run between fork
    // and exec.
    if unsafe { prctl(PR_SET_PDEATHSIG, SIGKILL) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Shrinks the calling thread's timer slack to 1 ns so timed waits wake
/// on schedule rather than up to 50 µs late.
pub fn tight_timer_slack() {
    // SAFETY: prctl(PR_SET_TIMERSLACK, ns) reads only its integer
    // arguments and changes only this thread's scheduling attribute.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// CPU seconds consumed so far by process `pid` ("self" for this
/// process): the sum of its threads' on-CPU time from
/// `/proc/<pid>/task/*/schedstat` (nanosecond resolution).
pub fn cpu_seconds(pid: &str) -> io::Result<f64> {
    let mut ns = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = task?.path().join("schedstat");
        // A thread may exit between listing and reading.
        let Ok(stat) = std::fs::read_to_string(path) else {
            continue;
        };
        ns += stat
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad schedstat"))?;
    }
    Ok(ns as f64 / 1e9)
}

/// Peak resident set of process `pid`, in MB (VmHWM).
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM"))
}

/// Host-wide (total, steal) jiffies from `/proc/stat`.
pub fn host_jiffies() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = stat.lines().next() else {
        return (0, 0);
    };
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user).
    let total = v.iter().take(8).sum();
    (total, v.get(7).copied().unwrap_or(0))
}

/// Steal share of host CPU time between two [`host_jiffies`] readings.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.0.saturating_sub(before.0);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.1.saturating_sub(before.1) as f64 / total as f64
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

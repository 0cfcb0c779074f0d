//! Running product processes and measuring what their users wait for.

use std::io::{self, Read};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// One finished product process.
pub struct Finished {
    pub wall_s: f64,
    /// From spawn until the first stdout line arrived (`wall_s` if
    /// none did). Rust's stdout is line-buffered, pipe or not.
    pub first_line_s: f64,
    /// User plus system CPU time of the process.
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Exit code; `None` if a signal ended the process.
    pub code: Option<i32>,
    pub stdout: Vec<u8>,
}

impl Finished {
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }
}

/// Run `exe args`, timed from spawn until it has exited, with its
/// stdout collected.
pub fn run(exe: &Path, args: &[&str]) -> io::Result<Finished> {
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let mut pipe = child.stdout.take().expect("stdout is piped");
    let mut stdout = Vec::new();
    let mut first_line = None;
    let mut buf = [0u8; 1 << 16];
    let read = loop {
        match pipe.read(&mut buf) {
            Ok(0) => break Ok(()),
            Ok(n) => {
                if first_line.is_none() && buf[..n].contains(&b'\n') {
                    first_line = Some(start.elapsed().as_secs_f64());
                }
                stdout.extend_from_slice(&buf[..n]);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => break Err(e),
        }
    };
    // Reap even when reading failed, so no zombie outlives the run.
    let (code, usage) = reap(child.id())?;
    let wall_s = start.elapsed().as_secs_f64();
    read?;
    Ok(Finished {
        wall_s,
        first_line_s: first_line.unwrap_or(wall_s),
        cpu_s: usage.cpu_s,
        peak_rss_mb: usage.maxrss_kb as f64 / 1024.0,
        code,
        stdout,
    })
}

/// What `wait4` reports about one child.
pub struct Usage {
    pub cpu_s: f64,
    pub maxrss_kb: i64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

impl Timeval {
    fn secs(&self) -> f64 {
        self.sec as f64 + self.usec as f64 * 1e-6
    }
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

const _: () = assert!(std::mem::size_of::<Rusage>() == 144);

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Wait for child `pid` and return its exit code, its CPU time and
/// its own peak resident set in KiB. `getrusage(RUSAGE_CHILDREN)`
/// would fold every earlier child in, and `/proc` is gone once the
/// child has exited, so only `wait4` reports one child's peak. Linux counts the
/// spawning process's peak into the child's at `exec`, so the
/// benchmark process must stay small while it spawns the products
/// it measures.
pub fn reap(pid: u32) -> io::Result<(Option<i32>, Usage)> {
    let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `ru` are live, writable and laid out as
        // the C types `wait4` fills (size checked above); `pid` names a
        // child this process spawned and has not reaped.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    let usage = Usage {
        cpu_s: ru.utime.secs() + ru.stime.secs(),
        maxrss_kb: ru.maxrss,
    };
    Ok((code, usage))
}

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// User plus system CPU time of a live process so far, in seconds.
pub fn cpu_s(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name may hold spaces; the fields after it do not.
    // utime and stime are fields 14 and 15, the 12th and 13th after
    // the name's closing parenthesis.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let ticks: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse::<f64>())
        .collect::<Result<_, _>>()
        .map_err(io::Error::other)?;
    // SAFETY: sysconf only reads a configuration value.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if ticks.len() != 2 || hz <= 0 {
        return Err(io::Error::other("no utime/stime in /proc stat"));
    }
    Ok((ticks[0] + ticks[1]) / hz as f64)
}

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn vm_hwm_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM line"))
}

/// FNV-1a-64 of `bytes`, the digest the pinned outputs are kept as.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

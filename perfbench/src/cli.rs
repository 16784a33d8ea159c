//! Runs one child process, an `asyncmap` CLI subcommand as a user would
//! run it or a block of the benchmark's own in-process work, and
//! measures its wall time and peak resident memory.
//!
//! The child is reaped with `wait4(2)`, whose resource usage is that one
//! child's, so the peak memory of each child is exact and is not mixed
//! with the cargo builds or the other children.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The outcome of one CLI invocation.
#[derive(Debug)]
pub struct Run {
    pub wall: Duration,
    pub peak_rss_kb: u64,
    /// Exit code, or `None` when the child was killed by a signal.
    pub code: Option<i32>,
    pub stdout: String,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Runs `cli args...` with standard error inherited and standard output
/// captured, and waits for it to end.
pub fn run(cli: &str, args: &[&str]) -> Result<Run, String> {
    let start = Instant::now();
    let mut child = Command::new(cli)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("{cli}: {e}"))?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let pid = i32::try_from(child.id()).expect("pid fits in pid_t");
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    let reaped = loop {
        // SAFETY: `pid` is our own unreaped child (std has not waited on
        // it), and both out-pointers refer to live, writable locals of
        // the types wait4 expects.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r != -1 || std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            break r;
        }
    };
    let wall = start.elapsed();
    if reaped != pid {
        return Err(format!(
            "{cli}: wait4 failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    read.map_err(|e| format!("{cli}: reading stdout: {e}"))?;
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Run {
        wall,
        peak_rss_kb: u64::try_from(usage.maxrss).unwrap_or(0),
        code,
        stdout,
    })
}

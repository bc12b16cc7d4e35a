//! Child-process plumbing for the end-to-end rounds: spawn one `valley`
//! process with the engine knobs cleared, wait for it under a timeout,
//! and collect its wall time, CPU time and peak RSS.
//!
//! Linux only: resource usage comes from `wait4(2)`, which std does not
//! expose, so the two libc calls it takes are declared here.

use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Environment knobs that change how `valley` runs a job; cleared before
/// every spawn so the workload's own flags are the only configuration.
const CLEARED_ENV: [&str; 3] = [
    "VALLEY_SIM_THREADS",
    "VALLEY_SIM_BATCH",
    "VALLEY_RESULTS_DIR",
];

/// A phase that has not finished after this long is killed and counted
/// as failed (the slowest healthy phase takes a few seconds).
pub const PHASE_TIMEOUT: Duration = Duration::from_secs(60);

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs, of
/// which only `ru_maxrss` (the first) is read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines this process, and every child it spawns from now on, to the
/// CPU it is running on. The end-to-end workloads run one worker, so a
/// second CPU buys them nothing, and on a shared host each core has its
/// own noisy neighbours: with everything on one core the machine-speed
/// probe (see [`crate::calib`]) measures the core the work ran on.
/// Returns whether the pin took (a host that refuses it just runs
/// unpinned).
pub fn pin_to_current_cpu() -> bool {
    // SAFETY: no pointers involved.
    let cpu = unsafe { sched_getcpu() };
    if !(0..64).contains(&cpu) {
        return false;
    }
    let mask = 1u64 << cpu;
    // SAFETY: `mask` is a valid 8-byte CPU set for the whole call.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

const SIGKILL: i32 = 9;

/// What one finished child cost.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Usage {
    /// Exited with status 0 (not killed, not timed out).
    pub ok: bool,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set size in KiB.
    pub rss_kb: u64,
}

impl Usage {
    /// Folds another child of the same round in: all must succeed, CPU
    /// adds up, RSS is the largest child's.
    pub fn merge(&mut self, other: Usage) {
        self.ok &= other.ok;
        self.cpu_s += other.cpu_s;
        self.rss_kb = self.rss_kb.max(other.rss_kb);
    }

    /// The neutral element of [`Usage::merge`].
    pub fn none() -> Usage {
        Usage {
            ok: true,
            cpu_s: 0.0,
            rss_kb: 0,
        }
    }
}

/// A spawned `valley` process.
pub struct Running {
    child: Child,
}

/// Spawns `valley <args>` with stdout redirected to `stdout_file` (stderr
/// is dropped: every workload passes `--quiet`, and failures are detected
/// from exit codes and store contents, not messages).
pub fn spawn(valley: &Path, args: &[String], stdout_file: &Path) -> std::io::Result<Running> {
    let out = File::create(stdout_file)?;
    spawn_with(valley, args, Stdio::from(out))
}

fn spawn_with(valley: &Path, args: &[String], stdout: Stdio) -> std::io::Result<Running> {
    let mut cmd = Command::new(valley);
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(Stdio::null());
    for key in CLEARED_ENV {
        cmd.env_remove(key);
    }
    Ok(Running {
        child: cmd.spawn()?,
    })
}

/// A spawned `valley serve`, after it reported the address it bound.
pub struct Serving {
    pub running: Running,
    /// The `HOST:PORT` the coordinator listens on.
    pub addr: String,
    rest: std::thread::JoinHandle<()>,
}

/// Spawns `valley serve --addr 127.0.0.1:0 <args>` and waits for its
/// "listening on" line, so the loopback port is a free one the kernel
/// picked and clients never race the bind.
pub fn spawn_serve(valley: &Path, args: &[String]) -> std::io::Result<Serving> {
    let mut full = vec!["serve".to_string(), "--addr".into(), "127.0.0.1:0".into()];
    full.extend_from_slice(args);
    let mut running = spawn_with(valley, &full, Stdio::piped())?;
    let stdout = running.child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel();
    // The reader keeps draining after the first line so the coordinator
    // can never block on a full pipe.
    let rest = std::thread::spawn(move || {
        let mut reader = BufReader::new(stdout);
        let mut first = String::new();
        let _ = reader.read_line(&mut first);
        let _ = tx.send(first);
        let _ = reader.read_to_end(&mut Vec::new());
    });
    let addr = rx
        .recv_timeout(PHASE_TIMEOUT)
        .ok()
        .and_then(|line| parse_listen_addr(&line));
    match addr {
        Some(addr) => Ok(Serving {
            running,
            addr,
            rest,
        }),
        None => {
            running.wait(Duration::ZERO);
            let _ = rest.join();
            Err(std::io::Error::other(
                "valley serve did not report a listening address",
            ))
        }
    }
}

impl Serving {
    /// Waits for the coordinator to exit (see [`Running::wait`]).
    pub fn wait(self, timeout: Duration) -> Usage {
        let usage = self.running.wait(timeout);
        let _ = self.rest.join();
        usage
    }
}

/// Extracts `HOST:PORT` from `serve: listening on HOST:PORT — ...`.
fn parse_listen_addr(line: &str) -> Option<String> {
    let rest = line.split("listening on ").nth(1)?;
    let addr = rest.split_whitespace().next()?;
    addr.contains(':').then(|| addr.to_string())
}

impl Running {
    /// Blocks until the child exits and returns what it cost. A child
    /// still running after `timeout` is killed and reported as failed.
    pub fn wait(self, timeout: Duration) -> Usage {
        let pid = self.child.id() as i32;
        let (tx, rx) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            // The watchdog may only signal while the child is unreaped;
            // it stops as soon as the waiter reports the reap. (A pid
            // recycled inside that hand-off window would need the
            // timeout to expire in the same microsecond.)
            scope.spawn(move || {
                if rx.recv_timeout(timeout) == Err(RecvTimeoutError::Timeout) {
                    // SAFETY: plain syscall on a pid this process spawned.
                    unsafe { kill(pid, SIGKILL) };
                }
            });
            let mut status = 0i32;
            let mut ru = Rusage {
                utime: Timeval { sec: 0, usec: 0 },
                stime: Timeval { sec: 0, usec: 0 },
                maxrss_kb: 0,
                rest: [0; 13],
            };
            // SAFETY: `status` and `ru` are valid for writes for the
            // whole call, `ru` has the kernel's `struct rusage` layout,
            // and `pid` is an unreaped child of this process (std never
            // waits on it: `self.child` is dropped without a wait).
            let reaped = unsafe { wait4(pid, &mut status, 0, &mut ru) };
            let _ = tx.send(());
            let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
            Usage {
                ok: reaped == pid && status == 0,
                cpu_s: secs(&ru.utime) + secs(&ru.stime),
                rss_kb: ru.maxrss_kb.max(0) as u64,
            }
        })
    }
}

/// Runs `valley <args>` to completion: its usage, wall seconds, and
/// captured stdout.
pub fn run(valley: &Path, args: &[String], stdout_file: &Path) -> (Usage, f64, String) {
    let start = Instant::now();
    let usage = match spawn(valley, args, stdout_file) {
        Ok(running) => running.wait(PHASE_TIMEOUT),
        Err(_) => Usage::default(),
    };
    let wall_s = start.elapsed().as_secs_f64();
    let stdout = std::fs::read_to_string(stdout_file).unwrap_or_default();
    (usage, wall_s, stdout)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_line_parses() {
        assert_eq!(
            parse_listen_addr("serve: listening on 127.0.0.1:40123 — 96 job(s) at scale test\n"),
            Some("127.0.0.1:40123".to_string())
        );
        assert_eq!(parse_listen_addr("error: cannot bind"), None);
        assert_eq!(parse_listen_addr(""), None);
    }

    #[test]
    fn usage_merges_as_sum_and_max() {
        let mut u = Usage::none();
        u.merge(Usage {
            ok: true,
            cpu_s: 0.5,
            rss_kb: 100,
        });
        u.merge(Usage {
            ok: true,
            cpu_s: 0.25,
            rss_kb: 300,
        });
        assert_eq!(
            u,
            Usage {
                ok: true,
                cpu_s: 0.75,
                rss_kb: 300
            }
        );
        u.merge(Usage::default());
        assert!(!u.ok);
    }

    #[test]
    fn child_usage_and_timeout() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-proc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("out");
        let sh = Path::new("/bin/sh");
        let (ok, _, text) = run(sh, &["-c".into(), "echo hi".into()], &out);
        assert!(ok.ok && ok.rss_kb > 0);
        assert_eq!(text, "hi\n");
        let (fail, _, _) = run(sh, &["-c".into(), "exit 3".into()], &out);
        assert!(!fail.ok);
        let stuck = spawn(sh, &["-c".into(), "sleep 30".into()], &out).unwrap();
        let start = Instant::now();
        assert!(!stuck.wait(Duration::from_millis(50)).ok);
        assert!(start.elapsed() < Duration::from_secs(10));
        std::fs::remove_dir_all(&dir).ok();
    }
}

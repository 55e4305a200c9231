//! Launching `tricount` processes: own process group per child, wall
//! time from spawn to exit, peak resident set from the kernel's
//! `rusage`, a hard timeout that kills the group, and stderr kept in a
//! file for the run artefact. A launch can never hang the benchmark.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// Declared inline (as `tc_mps::cputime` does for `clock_gettime`) so the
// driver needs no dependency. `rusage` on 64-bit Linux is two
// `timeval`s (four longs) followed by fourteen longs, `ru_maxrss`
// (KiB) first among them.
extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut [i64; 18]) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
}
const RU_MAXRSS: usize = 4;
const SIGKILL: i32 = 9;

/// The kernel's CPU set, sized for 1024 CPUs; this harness only ever
/// looks at and sets the first 64 (bit `i` of a `u64` = CPU `i`).
type CpuMask = [u64; 16];

/// The CPUs the calling thread may run on; 0 if the kernel will not say.
pub fn allowed_cpus() -> u64 {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: the out-pointer is valid for the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) };
    if rc == 0 {
        mask[0]
    } else {
        0
    }
}

/// Restricts the calling thread, and every thread or process it starts
/// from now on, to `cpus`. An empty set changes nothing.
pub fn pin_current_thread(cpus: u64) {
    if cpus != 0 {
        let mut mask: CpuMask = [0; 16];
        mask[0] = cpus;
        // SAFETY: the pointer is valid for the size passed; a refusal
        // (the set holds no CPU this thread may use) leaves the thread
        // where it was, which is harmless.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), &mask) };
    }
}

/// How one process ended.
#[derive(Debug, Clone)]
pub struct Exit {
    /// Exited by itself with status 0.
    pub ok: bool,
    /// Killed by the harness at the timeout.
    pub timed_out: bool,
    /// First spawn of the group → this process reaped.
    pub wall: Duration,
    /// First spawn of the group → this process printed its result line.
    pub result_at: Option<Duration>,
    pub peak_rss_kib: u64,
    pub stdout: Vec<String>,
    pub stderr_path: PathBuf,
}

impl Exit {
    /// The value after `key` on the stdout line that starts with it
    /// (`triangles     : 42` → `42`).
    pub fn stdout_field(&self, key: &str) -> Option<&str> {
        self.stdout
            .iter()
            .find_map(|l| l.strip_prefix(key).and_then(|rest| rest.trim_start().strip_prefix(':')))
            .map(str::trim)
    }

    /// The end of what the process wrote to stderr, for the artefact.
    pub fn stderr_tail(&self) -> String {
        let text = std::fs::read_to_string(&self.stderr_path).unwrap_or_default();
        let start = text.len().saturating_sub(2000);
        let start = (start..text.len()).find(|&i| text.is_char_boundary(i)).unwrap_or(text.len());
        text[start..].to_string()
    }
}

struct Running {
    pid: i32,
    reaped: bool,
    reader: Option<JoinHandle<(Vec<String>, Option<Instant>)>>,
    waiter: Option<JoinHandle<()>>,
    stderr_path: PathBuf,
}

/// Processes started together and timed from the first spawn: one
/// `tricount count`, the four ranks of a socket run, or a serve fleet.
pub struct Group {
    t0: Instant,
    procs: Vec<Running>,
    exits: mpsc::Receiver<(usize, i32, u64, Instant)>,
}

impl Group {
    /// Spawns `bin` once per argument list, restricted to `cpus` (see
    /// [`pin_current_thread`]). `result_key` is the stdout line prefix
    /// whose arrival time is recorded (`"triangles"`). stderr of
    /// process `i` goes to `<log_stem>-<i>.stderr`.
    pub fn spawn(
        bin: &Path,
        arg_lists: &[Vec<String>],
        log_stem: &Path,
        result_key: &'static str,
        cpus: u64,
    ) -> std::io::Result<Group> {
        let (tx, exits) = mpsc::channel();
        let t0 = Instant::now();
        let mut group = Group { t0, procs: Vec::new(), exits };
        for (i, args) in arg_lists.iter().enumerate() {
            let stderr_path = PathBuf::from(format!("{}-{i}.stderr", log_stem.display()));
            // On error the `Group` drops here and takes down the
            // processes already started.
            let mut command = Command::new(bin);
            command
                .args(args)
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(File::create(&stderr_path)?)
                .process_group(0);
            // SAFETY: the closure runs in the forked child before exec
            // and makes one plain system call; it allocates nothing and
            // takes no lock.
            unsafe {
                command.pre_exec(move || {
                    pin_current_thread(cpus);
                    Ok(())
                })
            };
            let mut child = command.spawn()?;
            let pid = child.id() as i32;
            let stdout = child.stdout.take().expect("stdout was piped");
            let reader = std::thread::spawn(move || {
                let mut lines = Vec::new();
                let mut result_at = None;
                for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                    if result_at.is_none() && line.starts_with(result_key) {
                        result_at = Some(Instant::now());
                    }
                    lines.push(line);
                }
                (lines, result_at)
            });
            let tx = tx.clone();
            let waiter = std::thread::spawn(move || {
                let mut status = 0i32;
                let mut usage = [0i64; 18];
                // SAFETY: `pid` is an unreaped child of this process and
                // both out-pointers are valid for the call; this is the
                // only reaper of `pid` (the `Child` is never waited on).
                let got = unsafe { wait4(pid, &mut status, 0, &mut usage) };
                let status = if got == pid { status } else { -1 };
                let _ = tx.send((i, status, usage[RU_MAXRSS].max(0) as u64, Instant::now()));
            });
            group.procs.push(Running {
                pid,
                reaped: false,
                reader: Some(reader),
                waiter: Some(waiter),
                stderr_path,
            });
        }
        Ok(group)
    }

    pub fn started(&self) -> Instant {
        self.t0
    }

    fn kill_unreaped(&self) {
        for p in self.procs.iter().filter(|p| !p.reaped) {
            // SAFETY: plain syscall; the negative pid addresses the
            // child's own process group, which only it populates, and
            // the child is not reaped yet, so the id cannot be reused.
            unsafe { kill(-p.pid, SIGKILL) };
        }
    }

    /// Waits for every process; at `deadline` the survivors' process
    /// groups are killed and reported as timed out.
    pub fn wait(mut self, deadline: Instant) -> Vec<Exit> {
        let mut raw: Vec<Option<(i32, u64, Instant)>> = vec![None; self.procs.len()];
        let mut timed_out = vec![false; self.procs.len()];
        while raw.iter().any(Option::is_none) {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.exits.recv_timeout(left.max(Duration::from_millis(1))) {
                Ok((i, status, rss, at)) => {
                    self.procs[i].reaped = true;
                    raw[i] = Some((status, rss, at));
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    for (i, p) in self.procs.iter().enumerate() {
                        timed_out[i] |= !p.reaped;
                    }
                    self.kill_unreaped();
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    unreachable!("every waiter thread sends exactly once")
                }
            }
        }
        let t0 = self.t0;
        let procs = std::mem::take(&mut self.procs);
        procs
            .into_iter()
            .zip(raw)
            .zip(timed_out)
            .map(|((mut p, raw), timed_out)| {
                let (status, peak_rss_kib, at) = raw.expect("loop ends when all are reaped");
                p.waiter.take().expect("joined once").join().expect("waiter thread panicked");
                let (stdout, result_at) =
                    p.reader.take().expect("joined once").join().expect("reader thread panicked");
                Exit {
                    ok: status == 0 && !timed_out,
                    timed_out,
                    wall: at - t0,
                    result_at: result_at.map(|t| t - t0),
                    peak_rss_kib,
                    stdout,
                    stderr_path: p.stderr_path,
                }
            })
            .collect()
    }
}

impl Drop for Group {
    /// A group abandoned on an error path still leaves no process
    /// behind: kill what runs, then reap it.
    fn drop(&mut self) {
        self.kill_unreaped();
        for p in &mut self.procs {
            if let Some(w) = p.waiter.take() {
                let _ = w.join();
            }
            if let Some(r) = p.reader.take() {
                let _ = r.join();
            }
        }
    }
}

/// Runs one short command to completion (`tricount generate`, `help`,
/// `info`): wall time and success.
pub fn run_once(
    bin: &Path,
    args: &[String],
    log_stem: &Path,
    timeout: Duration,
    cpus: u64,
) -> Exit {
    let deadline = Instant::now() + timeout;
    match Group::spawn(bin, &[args.to_vec()], log_stem, "\u{0}", cpus) {
        Ok(group) => group.wait(deadline).remove(0),
        Err(e) => {
            let stderr_path = PathBuf::from(format!("{}-spawn.stderr", log_stem.display()));
            let _ = std::fs::write(&stderr_path, format!("cannot spawn {}: {e}\n", bin.display()));
            Exit {
                ok: false,
                timed_out: false,
                wall: Duration::ZERO,
                result_at: None,
                peak_rss_kib: 0,
                stdout: Vec::new(),
                stderr_path,
            }
        }
    }
}

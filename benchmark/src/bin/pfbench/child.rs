//! Child processes timed from outside: spawn, timestamp every stdout
//! line as it arrives, reap with `wait4` for the peak resident set, and
//! kill on timeout.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("pfbench declares wait4/rusage by hand for 64-bit Linux only");

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen longs
/// of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

fn timeval([secs, micros]: [i64; 2]) -> Duration {
    Duration::from_secs(secs.max(0) as u64) + Duration::from_micros(micros.max(0) as u64)
}

/// How a child ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    Code(i32),
    Signal(i32),
    TimedOut,
}

impl Exit {
    pub fn success(self) -> bool {
        self == Exit::Code(0)
    }
}

/// A finished child, as seen from outside.
#[derive(Debug)]
pub struct Finished {
    pub exit: Exit,
    /// Spawn call to `wait4` return.
    pub wall: Duration,
    /// Stdout lines with their arrival time since the spawn call.
    pub lines: Vec<(Duration, String)>,
    pub stderr: String,
    pub max_rss_kib: u64,
    /// User plus system CPU time of the child and the children it reaped.
    pub cpu: Duration,
}

/// A running child whose stdout lines are being timestamped.
pub struct Running {
    child: Child,
    spawned: Instant,
    lines: mpsc::Receiver<(Duration, String)>,
    seen: Vec<(Duration, String)>,
    stderr: JoinHandle<String>,
}

/// Starts `program` with `args` in `cwd`. The clock starts just before
/// the spawn call, so process creation is part of what is measured.
pub fn spawn(program: &Path, args: &[String], cwd: &Path) -> std::io::Result<Running> {
    let spawned = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let out = child.stdout.take().expect("stdout was piped");
    let mut err = child.stderr.take().expect("stderr was piped");
    let (line_tx, lines) = mpsc::channel();
    // Ends at end of file; a send fails only once `Running` is gone.
    thread::spawn(move || {
        for line in BufReader::new(out).lines().map_while(Result::ok) {
            if line_tx.send((spawned.elapsed(), line)).is_err() {
                break;
            }
        }
    });
    let stderr = thread::spawn(move || {
        let mut text = String::new();
        let _ = err.read_to_string(&mut text);
        text
    });
    Ok(Running {
        child,
        spawned,
        lines,
        seen: Vec::new(),
        stderr,
    })
}

impl Running {
    /// Blocks until a stdout line containing `needle` arrives and returns
    /// it, leaving the child running (the daemon's `listening on` line).
    /// `None` if the child closes stdout or `timeout` passes first.
    pub fn wait_for_line(&mut self, needle: &str, timeout: Duration) -> Option<String> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let (at, line) = self.lines.recv_timeout(left).ok()?;
            let hit = line.contains(needle);
            self.seen.push((at, line.clone()));
            if hit {
                return Some(line);
            }
        }
    }

    /// Waits for the child to end, killing it after `timeout`.
    pub fn finish(self, timeout: Duration) -> Finished {
        let pid = self.child.id() as i32;
        // The watchdog sleeps on the channel: a message (or the sender
        // dropping) means the child was reaped in time.
        let (reaped, watchdog_rx) = mpsc::channel::<()>();
        let watchdog = thread::spawn(move || {
            let expired = matches!(
                watchdog_rx.recv_timeout(timeout),
                Err(mpsc::RecvTimeoutError::Timeout)
            );
            if expired {
                // SAFETY: plain syscall on a pid this process spawned and
                // has not reaped yet (the reaper signals before returning).
                unsafe { kill(pid, SIGKILL) };
            }
            expired
        });
        let mut status = 0i32;
        let mut usage = Rusage::default();
        // SAFETY: both pointers refer to live, writable locals of the
        // types the syscall fills in; `pid` is our own unreaped child.
        let reaped_pid = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        let wall = self.spawned.elapsed();
        let _ = reaped.send(());
        let timed_out = watchdog.join().unwrap_or(false);
        // `Child` must not reap again; dropping it neither waits nor kills.
        drop(self.child);
        let exit = if reaped_pid != pid {
            Exit::Signal(0)
        } else if timed_out {
            Exit::TimedOut
        } else if status & 0x7f == 0 {
            Exit::Code((status >> 8) & 0xff)
        } else {
            Exit::Signal(status & 0x7f)
        };
        let mut lines = self.seen;
        let stderr = if timed_out {
            // A killed child may leave a grandchild holding the pipes
            // open; take what has arrived and let the readers end when
            // the pipes do.
            lines.extend(self.lines.try_iter());
            String::new()
        } else {
            // The child is gone, so the readers are at end of file (or
            // about to be): `iter` ends when the sender is dropped.
            lines.extend(self.lines.iter());
            self.stderr.join().unwrap_or_default()
        };
        Finished {
            exit,
            wall,
            lines,
            stderr,
            max_rss_kib: usage.ru_maxrss.max(0) as u64,
            cpu: timeval(usage.ru_utime) + timeval(usage.ru_stime),
        }
    }
}

/// Runs a child to completion.
pub fn run(
    program: &Path,
    args: &[String],
    cwd: &Path,
    timeout: Duration,
) -> std::io::Result<Finished> {
    Ok(spawn(program, args, cwd)?.finish(timeout))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str, timeout: Duration) -> Finished {
        let args = ["-c".to_string(), script.to_string()];
        run(Path::new("/bin/sh"), &args, Path::new("/"), timeout).expect("sh spawns")
    }

    #[test]
    fn lines_are_timestamped_in_order_and_the_exit_code_is_kept() {
        let done = sh(
            "echo one; sleep 0.05; echo two; echo err >&2; exit 3",
            Duration::from_secs(10),
        );
        assert_eq!(done.exit, Exit::Code(3));
        assert!(!done.exit.success());
        let lines: Vec<&str> = done.lines.iter().map(|(_, l)| l.as_str()).collect();
        assert_eq!(lines, ["one", "two"]);
        assert!(done.lines[1].0 >= done.lines[0].0 + Duration::from_millis(40));
        assert!(done.wall >= done.lines[1].0);
        assert_eq!(done.stderr, "err\n");
        assert!(done.max_rss_kib > 0, "wait4 filled in the rusage");
    }

    #[test]
    fn a_child_past_its_timeout_is_killed_and_reaped() {
        let done = sh("sleep 30", Duration::from_millis(100));
        assert_eq!(done.exit, Exit::TimedOut);
        assert!(done.wall < Duration::from_secs(10));
    }

    #[test]
    fn a_line_can_be_awaited_while_the_child_keeps_running() {
        let args = [
            "-c".to_string(),
            "echo listening on 127.0.0.1:9; sleep 0.2; echo bye".to_string(),
        ];
        let mut running = spawn(Path::new("/bin/sh"), &args, Path::new("/")).expect("sh spawns");
        let line = running.wait_for_line("listening on ", Duration::from_secs(10));
        assert_eq!(line.as_deref(), Some("listening on 127.0.0.1:9"));
        assert_eq!(
            running.wait_for_line("never", Duration::from_millis(10)),
            None
        );
        let done = running.finish(Duration::from_secs(10));
        assert!(done.exit.success());
        assert_eq!(
            done.lines.len(),
            2,
            "the awaited line is kept with the rest"
        );
    }
}

//! Booting, probing and stopping the real `car serve` / `car shard`
//! processes.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::http::Conn;

/// Every server process this run started and has not yet seen end, so
/// the watchdog can stop them all.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn track(pids: &[u32]) {
    LIVE.lock().unwrap_or_else(|e| e.into_inner()).extend_from_slice(pids);
}

fn untrack(pid: u32) {
    LIVE.lock().unwrap_or_else(|e| e.into_inner()).retain(|&p| p != pid);
}

/// SIGKILLs every server process still running; used when a run must be
/// abandoned.
pub fn kill_registered() {
    let pids = std::mem::take(&mut *LIVE.lock().unwrap_or_else(|e| e.into_inner()));
    for pid in pids {
        if alive(pid) {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        }
    }
}

const BOOT_TIMEOUT: Duration = Duration::from_secs(60);
const STOP_TIMEOUT: Duration = Duration::from_secs(20);

/// A running server: one `car serve`, or a `car shard` router with the
/// workers it spawned.
pub struct Daemon {
    child: Option<Child>,
    /// Address clients talk to (the router on a cluster).
    pub addr: String,
    /// Worker addresses in shard order (cluster only).
    pub workers: Vec<String>,
    worker_pids: Vec<u32>,
}

fn banner_addr<'a>(line: &'a str, prefix: &str) -> Option<&'a str> {
    line.trim().strip_prefix(prefix).map(str::trim)
}

impl Daemon {
    /// Starts `car <args>`, with stdout and stderr in `log_dir`, and waits
    /// for its banner. `shards` is the number of worker banners to expect
    /// before the router's.
    pub fn spawn(
        car: &Path,
        args: &[String],
        log_dir: &Path,
        name: &str,
        shards: usize,
    ) -> Result<Daemon, String> {
        std::fs::create_dir_all(log_dir).map_err(|e| format!("log dir: {e}"))?;
        let out_path = log_dir.join(format!("{name}.out"));
        let out = File::create(&out_path).map_err(|e| format!("log file: {e}"))?;
        let err = File::create(log_dir.join(format!("{name}.err")))
            .map_err(|e| format!("log file: {e}"))?;
        let child = Command::new(car)
            .args(args)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", car.display()))?;
        track(&[child.id()]);
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
            workers: Vec::new(),
            worker_pids: Vec::new(),
        };
        let prefix = if shards > 0 {
            "car-shard router listening on http://"
        } else {
            "car-serve listening on http://"
        };
        let started = Instant::now();
        loop {
            let text = std::fs::read_to_string(&out_path).unwrap_or_default();
            daemon.workers = text
                .lines()
                .filter_map(|l| {
                    l.trim()
                        .strip_prefix("shard ")
                        .and_then(|r| r.split_once(" worker on http://"))
                })
                .map(|(_, addr)| addr.trim().to_string())
                .collect();
            if let Some(addr) = text.lines().find_map(|l| banner_addr(l, prefix)) {
                daemon.addr = addr.to_string();
                break;
            }
            if daemon.exited() {
                return Err(format!("`car {}` exited before its banner", args.join(" ")));
            }
            if started.elapsed() > BOOT_TIMEOUT {
                return Err(format!("`car {}` printed no banner", args.join(" ")));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        if daemon.workers.len() != shards {
            return Err(format!(
                "expected {shards} worker banners, saw {}",
                daemon.workers.len()
            ));
        }
        if shards > 0 {
            daemon.worker_pids = children_of(daemon.pid());
            track(&daemon.worker_pids);
            if daemon.worker_pids.len() != shards {
                return Err(format!(
                    "expected {shards} worker processes, found {}",
                    daemon.worker_pids.len()
                ));
            }
        }
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    fn exited(&mut self) -> bool {
        self.child.as_mut().is_none_or(|c| !matches!(c.try_wait(), Ok(None)))
    }

    /// Polls `/v1/health` until it answers `"ready":true`.
    pub fn wait_ready(&mut self) -> Result<(), String> {
        let started = Instant::now();
        let mut conn = Conn::new(&self.addr);
        loop {
            if let Ok(resp) = conn.request("GET", "/v1/health", b"") {
                if resp.body.windows(12).any(|w| w == b"\"ready\":true") {
                    return Ok(());
                }
            }
            if self.exited() {
                return Err("server exited while starting".into());
            }
            if started.elapsed() > BOOT_TIMEOUT {
                return Err("server never became ready".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Peak resident set (VmHWM) of the server processes, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        std::iter::once(self.pid())
            .chain(self.worker_pids.iter().copied())
            .filter_map(|pid| vm_hwm_kb(&format!("/proc/{pid}/status")))
            .sum::<f64>()
            / 1024.0
    }

    /// Graceful stop: `POST /v1/shutdown` (a router cascades it to its
    /// workers), then waits; kills whatever is left after the timeout.
    pub fn stop(mut self) {
        let _ = Conn::new(&self.addr).request("POST", "/v1/shutdown", b"");
        let started = Instant::now();
        while started.elapsed() < STOP_TIMEOUT {
            if self.exited() && self.worker_pids.iter().all(|&p| !alive(p)) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.kill_all();
    }

    /// SIGKILL, as a crash would; waits until the processes are gone.
    pub fn kill(mut self) {
        self.kill_all();
    }

    fn kill_all(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            untrack(child.id());
        }
        for pid in std::mem::take(&mut self.worker_pids) {
            if alive(pid) {
                let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            }
            let started = Instant::now();
            while alive(pid) && started.elapsed() < STOP_TIMEOUT {
                std::thread::sleep(Duration::from_millis(5));
            }
            untrack(pid);
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill_all();
    }
}

fn vm_hwm_kb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process, in MB.
pub fn own_peak_rss_mb() -> f64 {
    vm_hwm_kb("/proc/self/status").unwrap_or(0.0) / 1024.0
}

/// Resets this process's VmHWM to its current RSS (Linux `clear_refs`
/// value 5); a no-op where unsupported.
pub fn reset_own_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `(state, ppid)` from `/proc/<pid>/stat`.
fn stat(pid: u32) -> Option<(char, u32)> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let state = fields.next()?.chars().next()?;
    let ppid = fields.next()?.parse().ok()?;
    Some((state, ppid))
}

fn alive(pid: u32) -> bool {
    matches!(stat(pid), Some((state, _)) if state != 'Z' && state != 'X')
}

fn children_of(parent: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else { return Vec::new() };
    let mut pids: Vec<u32> = entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| matches!(stat(pid), Some((_, ppid)) if ppid == parent))
        .collect();
    pids.sort_unstable();
    pids
}

/// A fresh, empty scratch directory.
pub fn fresh_dir(path: PathBuf) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

//! The `cuckood` under test: built from the checkout's source, run as
//! its own process (so its CPU and memory are its own), reaped on every
//! exit path.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::spec::ServerSpec;
use crate::sys;

/// How long a server may take to start, drain or answer before the run
/// is abandoned.
pub const PATIENCE: Duration = Duration::from_secs(30);

/// Builds the `cuckood` binary from the checkout at `root` (into
/// `$CARGO_TARGET_DIR`, default `target`) and returns its path.
pub fn build(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "cuckood",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building cuckood failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |d| root.join(d));
    let bin = target.join("release").join("cuckood");
    if !bin.is_file() {
        return Err(format!("{} missing after build", bin.display()));
    }
    Ok(bin)
}

/// The command-line flags for `spec`, with `data_dir` when durable.
pub fn flags(spec: &ServerSpec, workers: usize, data_dir: Option<&Path>) -> Vec<String> {
    let mut f: Vec<String> = vec!["-p".into(), "0".into(), "-t".into(), workers.to_string()];
    if let Some(c) = spec.capacity {
        f.extend(["-c".into(), c.to_string()]);
    }
    if spec.no_evict {
        f.push("--no-evict".into());
    }
    if let (Some((fsync_ms, snap_s)), Some(dir)) = (spec.durable, data_dir) {
        f.extend([
            "--data-dir".into(),
            dir.display().to_string(),
            "--fsync-interval-ms".into(),
            fsync_ms.to_string(),
            "--snapshot-interval-secs".into(),
            snap_s.to_string(),
        ]);
    }
    f
}

/// A running server. Dropping it SIGKILLs and reaps the process.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `bin` with `flags`, logging to `log`, and waits until it
    /// answers `version`. Returns the server and the start-to-ready time.
    pub fn start(bin: &Path, flags: &[String], log: &Path) -> Result<(Server, Duration), String> {
        let t0 = Instant::now();
        let err = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut cmd = Command::new(bin);
        cmd.args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err);
        // SAFETY: the hook only calls prctl(2), which is
        // async-signal-safe, and allocates nothing.
        unsafe {
            cmd.pre_exec(sys::die_with_parent);
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        // The listening banner carries the ephemeral port.
        loop {
            if let Some(status) = server.child.try_wait().map_err(|e| e.to_string())? {
                let text = std::fs::read_to_string(log).unwrap_or_default();
                return Err(format!(
                    "cuckood exited during start ({status}): {}",
                    text.trim()
                ));
            }
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(addr) = text
                .lines()
                .find_map(|l| l.strip_prefix("cuckood listening on "))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|a| a.parse().ok())
            {
                server.addr = addr;
                break;
            }
            if t0.elapsed() > PATIENCE {
                return Err("cuckood did not print its listening address".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        let mut c = TcpStream::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
        c.set_read_timeout(Some(PATIENCE))
            .map_err(|e| e.to_string())?;
        c.write_all(b"version\r\n").map_err(|e| e.to_string())?;
        let mut line = String::new();
        BufReader::new(&mut c)
            .read_line(&mut line)
            .map_err(|e| format!("version: {e}"))?;
        if !line.starts_with("VERSION ") {
            return Err(format!("unexpected reply to version: {line:?}"));
        }
        Ok((server, t0.elapsed()))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGINT (graceful drain, clean-shutdown marker) and wait for exit.
    pub fn stop(mut self) -> Result<(), String> {
        sys::signal(self.child.id(), sys::SIGINT).map_err(|e| format!("SIGINT: {e}"))?;
        let t0 = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("cuckood exited with {status}"))
                };
            }
            if t0.elapsed() > PATIENCE {
                return Err("cuckood did not drain within the time limit".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// `stats` and `stats cuckoo` merged into one name → value map (the
    /// numeric lines only).
    pub fn scrape(&self) -> Result<HashMap<String, u64>, String> {
        let mut c = TcpStream::connect(self.addr).map_err(|e| format!("stats connect: {e}"))?;
        c.set_read_timeout(Some(PATIENCE))
            .map_err(|e| e.to_string())?;
        c.write_all(b"stats\r\nstats cuckoo\r\n")
            .map_err(|e| e.to_string())?;
        let mut out = HashMap::new();
        let mut buf = Vec::new();
        let mut ends = 0;
        let mut chunk = [0u8; 65536];
        while ends < 2 {
            let n = c.read(&mut chunk).map_err(|e| format!("stats read: {e}"))?;
            if n == 0 {
                return Err("server closed the stats connection".into());
            }
            buf.extend_from_slice(&chunk[..n]);
            ends = buf
                .split(|&b| b == b'\n')
                .filter(|l| *l == b"END\r")
                .count();
        }
        for line in String::from_utf8_lossy(&buf).lines() {
            let mut f = line.split_whitespace();
            if let (Some("STAT"), Some(name), Some(v)) = (f.next(), f.next(), f.next()) {
                if let Ok(v) = v.parse() {
                    out.insert(name.to_string(), v);
                }
            }
        }
        Ok(out)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Counter deltas between two scrapes (missing names read as 0).
pub struct Delta<'a> {
    pub before: &'a HashMap<String, u64>,
    pub after: &'a HashMap<String, u64>,
}

impl Delta<'_> {
    pub fn get(&self, name: &str) -> f64 {
        let a = self.after.get(name).copied().unwrap_or(0);
        let b = self.before.get(name).copied().unwrap_or(0);
        a.saturating_sub(b) as f64
    }

    /// `num / den` over the window, 0 when nothing happened.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        ratio(self.get(num), self.get(den))
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Total bytes of the files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

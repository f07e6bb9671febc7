//! The daemon under test runs in a child process (this same executable in
//! its `daemon` mode, calling `cg_server::spawn`), so its peak resident
//! memory is its own and not the client's inputs.  The child serves until
//! its stdin closes, which also stops it if the benchmark dies.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::Duration;

use cg_server::ServerConfig;
use cg_trace::ResourceLimits;

/// How the child daemon is configured.
#[derive(Debug, Clone, Copy)]
pub struct DaemonConfig {
    pub workers: usize,
    /// The default tenant budget's `shards` grant.  Every upload is large
    /// enough for the sharded route, so the grant alone picks the route.
    pub shards: u64,
}

/// A running child daemon.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: String,
}

impl Daemon {
    /// Starts the child with its cache directory under `dir` and waits
    /// for its listen address.
    pub fn start(config: DaemonConfig, dir: &Path) -> Daemon {
        let log = std::fs::File::create(dir.join("daemon.log")).expect("create daemon log");
        let mut child = Command::new(std::env::current_exe().expect("own executable path"))
            .arg("daemon")
            .arg(dir.join("cgtd"))
            .arg(config.workers.to_string())
            .arg(config.shards.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .expect("start the daemon process");
        let stdin = child.stdin.take();
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut line)
            .expect("read the daemon address");
        let addr = line.trim().to_string();
        assert!(!addr.is_empty(), "the daemon exited before listening");
        Daemon { child, stdin, addr }
    }

    /// Peak resident memory of the daemon process so far, in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .expect("read the daemon's /proc status");
        let kib: f64 = status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            .expect("VmHWM in /proc status");
        kib / 1024.0
    }

    /// Closes the child's stdin and waits for it to drain and exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        drop(self.stdin.take());
        match self.child.wait() {
            Ok(status) if !status.success() => eprintln!("daemon exited with {status}"),
            Ok(_) => {}
            Err(e) => eprintln!("waiting for the daemon: {e}"),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            let _ = self.child.kill();
            self.shutdown();
        }
    }
}

/// The child's side: `daemon <cache_dir> <workers> <shards>`.
pub fn serve(args: &[String]) {
    let [cache_dir, workers, shards] = args else {
        panic!("daemon mode takes <cache_dir> <workers> <shards>");
    };
    let number = |s: &str| -> u64 { s.parse().expect("numeric daemon argument") };
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: number(workers) as usize,
        default_limits: ResourceLimits {
            max_shards: Some(number(shards)),
            ..ResourceLimits::untrusted()
        },
        shard_min_bytes: 1,
        idle_timeout: Duration::from_secs(60),
        cache_dir: Some(cache_dir.into()),
        ..ServerConfig::default()
    };
    let (handle, join) = cg_server::spawn(config).expect("bind the daemon");
    {
        let mut out = std::io::stdout().lock();
        writeln!(out, "{}", handle.addr()).expect("report the address");
        out.flush().expect("flush the address");
    }
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    handle.shutdown();
    join.join().expect("the acceptor thread does not panic");
}

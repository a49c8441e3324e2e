//! `serve` child processes: spawn, wait for `listening on`, SIGKILL.

use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

pub struct Server {
    child: Child,
    pub addr: String,
    pub args: Vec<String>,
    // Held open so the server never sees stdin EOF (its quit signal) or
    // a closed stdout while it runs.
    _stdin: ChildStdin,
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Start `bin args` and block until it prints its listening address.
    pub fn spawn(bin: &Path, args: Vec<String>) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(&args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let read = stdout.read_line(&mut line);
            if !matches!(read, Ok(n) if n > 0) {
                let _ = child.kill();
                let status = child.wait().map(|s| s.to_string()).unwrap_or_default();
                return Err(format!(
                    "serve {} exited before listening ({status})",
                    args.join(" ")
                ));
            }
            if let Some(rest) = line.strip_prefix("listening on ") {
                break rest
                    .split_ascii_whitespace()
                    .next()
                    .unwrap_or("")
                    .to_string();
            }
        };
        Ok(Server {
            child,
            addr,
            args,
            _stdin: stdin,
            _stdout: stdout,
        })
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// SIGKILL the process and reap it.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// A loopback port that was free a moment ago, for cluster members that
/// must know every peer's address before any of them starts.
pub fn free_port() -> Result<u16, String> {
    TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map(|a| a.port())
        .map_err(|e| format!("no free port: {e}"))
}

/// Build the `serve` binary from the repository this benchmark sits in,
/// into the benchmark's own target directory, and return its path.
pub fn build_serve() -> Result<PathBuf, String> {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("benchmark has no parent directory")?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("benchmark binary is not in <target>/<profile>/")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--offline"])
        .args(["-p", "clipcache-serve", "--bin", "serve"])
        .arg("--manifest-path")
        .arg(repo.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building serve failed ({status})"));
    }
    Ok(target.join("release").join("serve"))
}

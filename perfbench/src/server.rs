//! The `vliw-served` child process and the synchronous helpers the serve
//! workloads use around their timed phases: start until ready, pipelined
//! closed-loop exchanges, `stats` snapshots and their per-phase deltas,
//! and shutdown.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use vliw_serve::hist::{merge_sparse, NBUCKETS};
use vliw_serve::{parse_json, Json};

/// Requests each connection keeps in flight during closed-loop exchanges.
const WINDOW: usize = 16;

/// Request bytes each connection keeps in flight, so unread requests always
/// fit the socket buffers and a blocking write can never deadlock against
/// an unread reply (one request is always allowed).
const WINDOW_BYTES: usize = 64 * 1024;

/// The loadgen's connections: at most `nproc` (2) for the whole run.
pub const N_CONNS: usize = 2;

pub struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub pid: u32,
    pub conns: Vec<TcpStream>,
    readers: Vec<BufReader<TcpStream>>,
}

impl ServerProc {
    /// Start `vliw-served` (reactor core, one worker, memory and disk tiers
    /// under `cache_dir`) and connect. Returns once the server has printed
    /// its listening line and both connections are up.
    pub fn start(bin: &Path, cache_dir: &Path) -> Result<ServerProc, String> {
        let mut cmd = Command::new(bin);
        // SAFETY: the hook only makes an async-signal-safe prctl call: the
        // server is killed if this process dies without stopping it.
        unsafe {
            cmd.pre_exec(|| {
                const PR_SET_PDEATHSIG: i32 = 1;
                const SIGKILL: u64 = 9;
                crate::util::prctl1(PR_SET_PDEATHSIG, SIGKILL);
                Ok(())
            });
        }
        let mut child = cmd
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--core",
                "reactor",
            ])
            .arg("--cache-dir")
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let pid = child.id();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("vliw-served exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("vliw-served listening on ") {
                break addr.to_string();
            }
        };
        let mut proc = ServerProc {
            child,
            stdout,
            pid,
            conns: Vec::new(),
            readers: Vec::new(),
        };
        for _ in 0..N_CONNS {
            let s = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            s.set_read_timeout(Some(Duration::from_secs(60)))
                .map_err(|e| e.to_string())?;
            proc.readers
                .push(BufReader::new(s.try_clone().map_err(|e| e.to_string())?));
            proc.conns.push(s);
        }
        Ok(proc)
    }

    /// One request/response round trip on connection 0.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.conns[0]
            .write_all(line.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        read_reply(&mut self.readers[0])
    }

    /// The server's `stats` object.
    pub fn stats(&mut self) -> Result<Json, String> {
        let reply = self.call("{\"op\":\"stats\"}\n")?;
        let doc = parse_json(reply.trim()).map_err(|e| e.to_string())?;
        doc.get("stats")
            .cloned()
            .ok_or_else(|| format!("stats reply without `stats`: {reply}"))
    }

    /// Send every line (each ending in `\n`) pipelined over both
    /// connections, [`WINDOW`] in flight per connection, and return the
    /// replies in request order. A closed loop: used for the saturation
    /// phase.
    pub fn exchange_all(&mut self, lines: &[&str]) -> Result<Vec<String>, String> {
        let mut replies = vec![String::new(); lines.len()];
        let mut next_send = [0usize; N_CONNS];
        let mut next_recv = [0usize; N_CONNS];
        let mut in_flight = [0usize; N_CONNS];
        // Request i travels on connection i % N_CONNS.
        let count = |c: usize| (lines.len() + N_CONNS - 1 - c) / N_CONNS;
        loop {
            let mut progressed = false;
            for c in 0..N_CONNS {
                while next_send[c] < count(c) && next_send[c] - next_recv[c] < WINDOW {
                    let line = lines[next_send[c] * N_CONNS + c];
                    if in_flight[c] > 0 && in_flight[c] + line.len() > WINDOW_BYTES {
                        break;
                    }
                    self.conns[c]
                        .write_all(line.as_bytes())
                        .map_err(|e| format!("write: {e}"))?;
                    in_flight[c] += line.len();
                    next_send[c] += 1;
                    progressed = true;
                }
                if next_recv[c] < next_send[c] {
                    let i = next_recv[c] * N_CONNS + c;
                    replies[i] = read_reply(&mut self.readers[c])?;
                    in_flight[c] -= lines[i].len();
                    next_recv[c] += 1;
                    progressed = true;
                }
            }
            if !progressed {
                return Ok(replies);
            }
        }
    }

    /// `VmHWM` of the server process, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::util::proc_status_mb(self.pid, "VmHWM").unwrap_or(0.0)
    }

    /// Graceful stop: the `shutdown` op drains in-flight work and flushes
    /// the write-behind disk queue before the process exits.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.call("{\"op\":\"shutdown\"}\n")?;
        self.conns.clear();
        self.readers.clear();
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("vliw-served exited with {status}")),
                None if Instant::now() > deadline => {
                    return Err("vliw-served did not exit after shutdown".into())
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut reply = String::new();
    match reader.read_line(&mut reply) {
        Ok(0) => Err("server closed the connection".into()),
        Ok(_) => Ok(reply),
        Err(e) => Err(format!("read: {e}")),
    }
}

/// A fresh, empty directory for one server's disk tier.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Counter difference `after - before` of one `stats` field.
pub fn delta(before: &Json, after: &Json, field: &str) -> f64 {
    let get = |j: &Json| j.get(field).and_then(Json::as_f64).unwrap_or(0.0);
    get(after) - get(before)
}

/// The histogram recorded between two `stats` snapshots (`latency_hist`
/// or `queue_hist`), as dense bucket counts.
pub fn hist_delta(before: &Json, after: &Json, field: &str) -> Vec<u64> {
    let dense = |j: &Json| {
        let mut acc = [0u64; NBUCKETS];
        let sparse: Vec<(u32, u64)> = j
            .get(field)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|pair| {
                let p = pair.as_arr()?;
                Some((p.first()?.as_f64()? as u32, p.get(1)?.as_f64()? as u64))
            })
            .collect();
        merge_sparse(&mut acc, &sparse);
        acc
    };
    let (a, b) = (dense(before), dense(after));
    b.iter()
        .zip(a.iter())
        .map(|(x, y)| x.saturating_sub(*y))
        .collect()
}

/// The `compile` wire line for `req`, newline-terminated.
pub fn compile_line(req: &vliw_serve::CompileRequest) -> String {
    let mut line = Json::obj([
        ("op", Json::Str("compile".into())),
        ("request", req.to_json()),
    ])
    .render();
    line.push('\n');
    line
}

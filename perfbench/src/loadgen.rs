//! Open-loop load generator: one thread of the benchmark process, the
//! server's two connections, and pipelined JSON lines sent on a fixed
//! schedule whatever the server's progress. Each request is timed from
//! when it was *due*, so a stall charges every request queued behind it;
//! how late the generator wrote it is reported as lag.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use vliw_serve::sys::{Interest, Poller};

use crate::server::N_CONNS;
use crate::util::{percentile, Timer};

/// One scheduled request: when it is due (µs after the phase starts) and
/// which line it sends.
#[derive(Clone, Copy)]
pub struct Planned {
    pub due_us: u64,
    pub line: usize,
}

/// What happened to one scheduled request.
pub struct Outcome {
    /// How late the generator wrote it, µs after its due time.
    pub lag_us: f64,
    /// Due time to reply, µs; `None` when no reply arrived in time.
    pub latency_us: Option<f64>,
    pub reply: String,
}

/// `n` due times at `rate` per second, evenly spaced from 0.
pub fn fixed_schedule(rate: f64, seconds: f64) -> Vec<u64> {
    let n = (rate * seconds).round().max(1.0) as usize;
    (0..n).map(|i| (i as f64 * 1e6 / rate) as u64).collect()
}

/// The rate ladder every `max_rps_at_slo` search walks: geometric, 5%
/// steps, from `lo` to at least `hi` per second.
pub fn ladder(lo: f64, hi: f64) -> Vec<f64> {
    let mut v = vec![lo];
    while *v.last().expect("non-empty") < hi {
        let next = (v.last().expect("non-empty") * 1.05).round();
        v.push(next);
    }
    v
}

/// Length of the rounds [`calm_half`] cuts a phase into, µs of due time.
pub const ROUND_US: u64 = 500_000;

/// Indices (in plan order) of the requests in the better-running half of a
/// phase. The phase is cut into rounds of [`ROUND_US`] by due time, and
/// the rounds are ranked by how late the generator wrote their requests (lag
/// p99, then lag max). The first half of that ranking is kept, rounded up.
/// The lag is the load generator's own lateness, so the ranking drops the
/// stretches in which the host held this process back, whatever the
/// server did. See NOTES.md, "Rounds and the better-running half".
pub fn calm_half(plan: &[Planned], outcomes: &[Outcome]) -> Vec<usize> {
    let mut rounds: Vec<Vec<usize>> = Vec::new();
    for (i, p) in plan.iter().enumerate() {
        let r = (p.due_us / ROUND_US) as usize;
        if rounds.len() <= r {
            rounds.resize(r + 1, Vec::new());
        }
        rounds[r].push(i);
    }
    rounds.retain(|r| !r.is_empty());
    let lateness = |r: &Vec<usize>| {
        let lags: Vec<f64> = r.iter().map(|&i| outcomes[i].lag_us).collect();
        let max = lags.iter().copied().fold(0.0, f64::max);
        (percentile(&lags, 0.99), max)
    };
    let mut ranked: Vec<((f64, f64), Vec<usize>)> =
        rounds.into_iter().map(|r| (lateness(&r), r)).collect();
    ranked.sort_by(|a, b| a.0 .0.total_cmp(&b.0 .0).then(a.0 .1.total_cmp(&b.0 .1)));
    let keep = ranked.len().div_ceil(2);
    let mut kept: Vec<usize> = ranked.into_iter().take(keep).flat_map(|r| r.1).collect();
    kept.sort_unstable();
    kept
}

/// How long after a phase's drain window the generator keeps consuming
/// late replies, so the next phase starts on connections with nothing in
/// flight.
const STALE_LIMIT: Duration = Duration::from_secs(60);

/// Poller token of the due-time timer; connection `c` uses token `c`.
const TIMER_TOKEN: u64 = N_CONNS as u64;

/// Run `plan` (sorted by due time) against the server over `conns`:
/// request `i` travels on connection `i % N_CONNS`, replies come back in
/// order per connection. Replies arriving more than `drain` after the last
/// due time count as timed out; they are still read, and the phase fails
/// if any is missing [`STALE_LIMIT`] later.
///
/// One thread does everything: it waits on the connections and a timer
/// armed for the next due time, writes each request when it falls due
/// (queueing what the socket will not take yet) and stamps each reply as
/// it is read.
pub fn open_loop(
    conns: &[TcpStream],
    lines: &[String],
    plan: &[Planned],
    drain: Duration,
) -> Result<Vec<Outcome>, String> {
    assert_eq!(conns.len(), N_CONNS);
    let mut streams: Vec<TcpStream> = Vec::with_capacity(N_CONNS);
    for c in conns {
        let s = c.try_clone().map_err(|e| e.to_string())?;
        s.set_nonblocking(true).map_err(|e| e.to_string())?;
        streams.push(s);
    }
    let result = run_open_loop(&mut streams, lines, plan, drain);
    // The clones share the sockets' flags with `conns`, which the
    // closed-loop helpers use blocking.
    for s in &streams {
        s.set_nonblocking(false).map_err(|e| e.to_string())?;
    }
    result
}

fn run_open_loop(
    streams: &mut [TcpStream],
    lines: &[String],
    plan: &[Planned],
    drain: Duration,
) -> Result<Vec<Outcome>, String> {
    let io = |e: std::io::Error| e.to_string();
    let n = plan.len();
    let timer = Timer::new()?;
    let mut poller = Poller::new().map_err(io)?;
    for (c, s) in streams.iter().enumerate() {
        poller
            .register(s.as_raw_fd(), c as u64, Interest::READ)
            .map_err(io)?;
    }
    poller
        .register(timer.fd(), TIMER_TOKEN, Interest::READ)
        .map_err(io)?;

    let last_due = plan.last().map_or(0, |p| p.due_us);
    let t0 = Instant::now();
    let deadline_us = last_due + drain.as_micros() as u64;
    let give_up = t0 + Duration::from_micros(deadline_us) + STALE_LIMIT;

    let mut lags = vec![0.0; n];
    let mut recv_us: Vec<Option<u64>> = vec![None; n];
    let mut replies = vec![String::new(); n];
    let mut outq: Vec<Vec<u8>> = vec![Vec::new(); N_CONNS];
    let mut writing = [false; N_CONNS];
    let mut pending: Vec<Vec<u8>> = vec![Vec::new(); N_CONNS];
    let mut next_reply = [0usize; N_CONNS];
    let (mut next_send, mut done) = (0usize, 0usize);
    let mut events = Vec::new();
    let mut buf = vec![0u8; 256 * 1024];
    while done < n {
        let now_us = t0.elapsed().as_micros() as u64;
        while next_send < n && plan[next_send].due_us <= now_us {
            let p = plan[next_send];
            lags[next_send] = now_us as f64 - p.due_us as f64;
            outq[next_send % N_CONNS].extend_from_slice(lines[p.line].as_bytes());
            next_send += 1;
        }
        for c in 0..N_CONNS {
            flush(&mut streams[c], &mut outq[c])?;
            let want = !outq[c].is_empty();
            if want != writing[c] {
                let interest = if want { Interest::BOTH } else { Interest::READ };
                poller
                    .reregister(streams[c].as_raw_fd(), c as u64, interest)
                    .map_err(io)?;
                writing[c] = want;
            }
        }
        let now = Instant::now();
        if now >= give_up {
            return Err(format!(
                "replies still missing {}s after the phase ended",
                (drain + STALE_LIMIT).as_secs()
            ));
        }
        if next_send < n {
            let due = t0 + Duration::from_micros(plan[next_send].due_us);
            timer.arm(due.saturating_duration_since(now))?;
        }
        poller.wait(&mut events, Some(give_up - now)).map_err(io)?;
        for ev in &events {
            if ev.token == TIMER_TOKEN {
                timer.clear();
                continue;
            }
            let c = ev.token as usize;
            loop {
                let got = match streams[c].read(&mut buf) {
                    Ok(0) => return Err("server closed the connection".into()),
                    Ok(k) => k,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(format!("read: {e}")),
                };
                let at = t0.elapsed().as_micros() as u64;
                pending[c].extend_from_slice(&buf[..got]);
                let mut start = 0;
                while let Some(pos) = pending[c][start..].iter().position(|&b| b == b'\n') {
                    let i = next_reply[c] * N_CONNS + c;
                    if i < n {
                        recv_us[i] = Some(at);
                        replies[i] =
                            String::from_utf8_lossy(&pending[c][start..start + pos]).into();
                        done += 1;
                    }
                    next_reply[c] += 1;
                    start += pos + 1;
                }
                pending[c].drain(..start);
            }
        }
    }
    Ok(plan
        .iter()
        .zip(lags)
        .zip(recv_us.into_iter().zip(replies))
        .map(|((p, lag_us), (recv, reply))| Outcome {
            lag_us,
            latency_us: recv
                .filter(|&r| r <= deadline_us)
                .map(|r| r as f64 - p.due_us as f64),
            reply,
        })
        .collect())
}

/// Write as much of `queue` as the non-blocking socket takes.
fn flush(stream: &mut TcpStream, queue: &mut Vec<u8>) -> Result<(), String> {
    let mut sent = 0;
    while sent < queue.len() {
        match stream.write(&queue[sent..]) {
            Ok(k) => sent += k,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("write: {e}")),
        }
    }
    queue.drain(..sent);
    Ok(())
}

/// Summary of one open-loop phase.
pub struct PhaseStats {
    pub lag_p99_us: f64,
    /// Most requests due but not yet answered at any due time.
    pub backlog_max: usize,
    /// Requests due but unanswered at the last due time.
    pub backlog_end: usize,
}

pub fn phase_stats(plan: &[Planned], outcomes: &[Outcome]) -> PhaseStats {
    let lags: Vec<f64> = outcomes.iter().map(|o| o.lag_us).collect();
    let mut answers: Vec<f64> = plan
        .iter()
        .zip(outcomes)
        .map(|(p, o)| o.latency_us.map_or(f64::INFINITY, |l| p.due_us as f64 + l))
        .collect();
    answers.sort_by(f64::total_cmp);
    let mut backlog_max = 0;
    let mut backlog_end = 0;
    let mut answered = 0usize;
    for (k, p) in plan.iter().enumerate() {
        while answered < answers.len() && answers[answered] <= p.due_us as f64 {
            answered += 1;
        }
        let outstanding = (k + 1).saturating_sub(answered);
        backlog_max = backlog_max.max(outstanding);
        backlog_end = outstanding;
    }
    PhaseStats {
        lag_p99_us: percentile(&lags, 0.99),
        backlog_max,
        backlog_end,
    }
}

/// Walk `rungs` upward and return the highest rate that passes. The rung
/// at `start` is assumed to pass (it is the reference rate, checked by the
/// caller); the walk jumps eight rungs at a time until one fails, then
/// bisects. A failing rung is run again before it counts as failed, so one
/// disturbed stretch of the host does not end the search.
pub fn max_passing_rate(rungs: &[f64], start: usize, mut passes: impl FnMut(f64) -> bool) -> f64 {
    let mut check = |rate: f64| passes(rate) || passes(rate);
    let mut lo = start;
    let mut hi = None;
    while hi.is_none() {
        let probe = (lo + 8).min(rungs.len() - 1);
        if probe == lo {
            return rungs[lo];
        }
        if check(rungs[probe]) {
            lo = probe;
        } else {
            hi = Some(probe);
        }
    }
    let mut hi = hi.expect("set above");
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if check(rungs[mid]) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    rungs[lo]
}

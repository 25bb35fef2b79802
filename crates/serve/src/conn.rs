//! Per-connection protocol state machine.
//!
//! A [`Conn`] owns a connection's buffered wire bytes and pending response
//! bytes but never touches a socket or the compile engine: the reactor
//! feeds it raw bytes ([`Conn::push_bytes`]), asks it to make progress
//! ([`Conn::advance`]), and gets back [`Action`]s describing work to
//! dispatch. That split keeps every protocol edge case — partial lines,
//! pipelined requests, streamed batches, oversized lines — unit-testable
//! without sockets or threads.
//!
//! The interesting state is the **streamed batch**. A canonical
//! `compile_batch` line (`op` first, `requests` last) is recognised from
//! its first bytes; the control fields are parsed as they arrive, and each
//! entry of `requests` is handed to the compile workers the moment its
//! closing brace lands — entry `k` compiles while entry `k+1` is still on
//! the wire. Entry dispatch stops while `inflight == cap`, which (via
//! [`Conn::wants_read`]) pauses read interest and lets TCP back-pressure
//! throttle a fast client. Results come back out of order and are
//! reassembled into request-order slots; the aggregate response renders
//! once the wire side is fully parsed and every slot is filled.
//!
//! Every other line is accumulated whole. A complete line that turns out
//! to be a `compile_batch` in another field order is then split the same
//! way: its control fields are read in any order, and its `requests` array
//! is handed to the streaming parser as if it had just arrived, so there
//! is one batch implementation and every entry of every batch reaches the
//! workers as its own [`Action::Entry`]. Any other line is a stand-alone
//! request ([`Action::Line`]).

use crate::json::{self as js, Json, Scan};
use crate::server::error_response;
use crate::stats::StatsRegistry;
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// The exact first bytes of a canonical batch line, the only lines that
/// stream before they are complete.
const BATCH_PREFIX: &[u8] = b"{\"op\":\"compile_batch\"";

/// Per-connection parsing limits and dispatch knobs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConnLimits {
    /// Cap on one batch's in-flight entries.
    pub batch_parallelism: usize,
    /// Longest tolerated request line / unconsumed residue, in bytes.
    pub max_line_bytes: usize,
}

/// Batch-level defaults shared by every entry job of one batch.
#[derive(Debug, Default)]
pub(crate) struct BatchDefaults {
    /// `defaults.machine`, spliced into entries that omit `machine`.
    pub machine: Option<String>,
    /// `defaults.config`, spliced into entries that omit `config`.
    pub config: Option<String>,
}

/// Work the state machine hands back to the reactor.
#[derive(Debug)]
pub(crate) enum Action {
    /// A complete stand-alone request line (trimmed, non-empty). At most
    /// one per [`Conn::advance`] call: the reactor either answers it inline
    /// or marks the connection busy and dispatches it to a worker.
    Line(String),
    /// One complete batch entry to compile into result slot `idx` of batch
    /// generation `gen` (stale generations are dropped on completion).
    Entry {
        /// Batch generation the entry belongs to.
        gen: u64,
        /// Result slot index, in request order.
        idx: usize,
        /// The entry's raw JSON text.
        text: String,
        /// Batch-level `timeout_ms`, if the client sent one.
        timeout_ms: Option<u64>,
        /// Batch-level defaults for entries omitting machine/config.
        defaults: Arc<BatchDefaults>,
    },
    /// A fatal guard tripped (oversized line); the typed error response is
    /// already queued — flush it, then close the connection.
    CloseAfterFlush,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Accumulating a line; still deciding whether it streams as a batch.
    Line,
    /// The current line cannot stream; wait for its newline, then decide.
    WholeLine,
    /// Streaming a canonical batch body (state in `Conn::batch`).
    Batch,
    /// A batch aborted mid-line: the error response is queued; discard wire
    /// bytes until the terminating newline, then resume `Line`.
    DrainLine,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Inside `requests`, expecting an entry value or `]`.
    Entry,
    /// After an entry, expecting `,` or `]`.
    Separator,
    /// After `]`, expecting `}` and the line's newline.
    Tail,
    /// Wire side fully parsed; waiting for outstanding entry results.
    Await,
}

#[derive(Debug)]
struct BatchState {
    phase: Phase,
    timeout_ms: Option<u64>,
    /// In-flight entry cap: `min(parallelism, batch_parallelism)`. The cap
    /// deliberately exceeds the worker count so the queue stays non-empty
    /// and a worker can start the next entry without waiting for the
    /// reactor to observe the previous completion first.
    cap: usize,
    defaults: Arc<BatchDefaults>,
    next_idx: usize,
    /// Request-ordered result slots; `None` while the entry is compiling.
    results: Vec<Option<Arc<str>>>,
    done: usize,
    inflight: usize,
    /// Entry count, known once `]` is parsed.
    total: Option<usize>,
}

/// A fresh batch positioned at its first entry, configured by its control
/// fields in line order (unknown ones are ignored), or the typed error for
/// a bad control value.
fn batch_state(
    controls: Vec<(Cow<'static, str>, Json)>,
    limits: &ConnLimits,
) -> Result<BatchState, Json> {
    let mut timeout_ms = None;
    let mut parallelism = limits.batch_parallelism;
    let mut defaults = BatchDefaults::default();
    for (key, value) in controls {
        match key.as_ref() {
            "timeout_ms" => match value.as_f64() {
                Some(ms) if ms >= 0.0 => timeout_ms = Some(ms as u64),
                _ => return Err(error_response("bad `timeout_ms`")),
            },
            "parallelism" => match value.as_f64() {
                Some(p) if p >= 1.0 => parallelism = p as usize,
                _ => return Err(error_response("bad `parallelism`")),
            },
            "defaults" => {
                let text = |k: &str| value.get(k).and_then(Json::as_str).map(str::to_string);
                defaults = BatchDefaults {
                    machine: text("machine"),
                    config: text("config"),
                };
            }
            _ => {}
        }
    }
    Ok(BatchState {
        phase: Phase::Entry,
        timeout_ms,
        cap: parallelism.min(limits.batch_parallelism).max(1),
        defaults: Arc::new(defaults),
        next_idx: 0,
        results: Vec::new(),
        done: 0,
        inflight: 0,
        total: None,
    })
}

/// How the line at the head of the buffer is served, as far as its
/// buffered (possibly truncated) bytes tell.
enum Header {
    /// Undecidable yet; wait for more bytes.
    NeedMore,
    /// Not a `compile_batch` (or not valid JSON): one stand-alone request.
    Request,
    /// A batch-level protocol error; respond and drain the line.
    Error(Json),
    /// A batch whose entries follow the `[` of `requests` at `open`. A
    /// streamed batch commits there; in a whole line the array's `]` is at
    /// `close - 1`.
    Batch {
        open: usize,
        close: Option<usize>,
        state: BatchState,
    },
}

/// One connection's protocol state.
pub(crate) struct Conn {
    /// Unconsumed wire bytes.
    buf: Vec<u8>,
    /// Pending response bytes.
    out: Vec<u8>,
    /// How much of `out` has been written to the socket.
    out_pos: usize,
    mode: Mode,
    batch: Option<BatchState>,
    /// A stand-alone line job is in flight on a worker.
    pub(crate) busy: bool,
    /// Close once `out` drains.
    pub(crate) closing: bool,
    /// The peer half-closed; finish outstanding work, flush, then close.
    pub(crate) peer_closed: bool,
    /// Last wire activity (read bytes or write progress), for idle sweeps.
    pub(crate) last_activity: Instant,
    /// Batch generation; bumped on abort/finish so late entry results from
    /// a dead batch are dropped.
    gen: u64,
}

fn push_doc(out: &mut Vec<u8>, doc: &Json) {
    out.extend_from_slice(doc.render().as_bytes());
    out.push(b'\n');
}

fn find_newline(buf: &[u8]) -> Option<usize> {
    buf.iter().position(|&b| b == b'\n')
}

impl Conn {
    pub(crate) fn new() -> Conn {
        Conn {
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            mode: Mode::Line,
            batch: None,
            busy: false,
            closing: false,
            peer_closed: false,
            last_activity: Instant::now(),
            gen: 0,
        }
    }

    /// Buffer freshly read wire bytes.
    pub(crate) fn push_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
        self.last_activity = Instant::now();
    }

    /// Mark non-read activity (write progress) for the idle sweep.
    pub(crate) fn note_activity(&mut self) {
        self.last_activity = Instant::now();
    }

    /// Response bytes not yet written, if any.
    pub(crate) fn pending_write(&self) -> Option<&[u8]> {
        let rest = &self.out[self.out_pos..];
        (!rest.is_empty()).then_some(rest)
    }

    /// Whether any response bytes await the socket.
    pub(crate) fn has_pending_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Record `n` response bytes as written.
    pub(crate) fn consume_written(&mut self, n: usize) {
        self.out_pos += n;
        debug_assert!(self.out_pos <= self.out.len());
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
    }

    /// Whether the reactor should keep READ interest: back-pressure pauses
    /// reads while a response is unflushed, a line job is in flight, or a
    /// batch has no free in-flight slot.
    pub(crate) fn wants_read(&self) -> bool {
        if self.closing || self.peer_closed || self.busy || self.has_pending_write() {
            return false;
        }
        match self.mode {
            Mode::Line | Mode::WholeLine | Mode::DrainLine => true,
            Mode::Batch => match &self.batch {
                Some(st) => st.phase != Phase::Await && st.inflight < st.cap,
                None => true,
            },
        }
    }

    /// Whether the server itself owes this connection work (a line job or
    /// batch entries in flight). Such connections are exempt from the idle
    /// sweep — the slowness is ours, not the client's.
    pub(crate) fn waiting_on_server(&self) -> bool {
        self.busy || self.batch.as_ref().is_some_and(|st| st.inflight > 0)
    }

    /// Queue a rendered response for a stand-alone line and clear `busy`.
    pub(crate) fn on_line_response(&mut self, doc: &str) {
        self.out.extend_from_slice(doc.as_bytes());
        self.out.push(b'\n');
        self.busy = false;
    }

    /// Queue a typed error response and close once it flushes.
    pub(crate) fn fail_and_close(&mut self, message: &str) {
        push_doc(&mut self.out, &error_response(message));
        self.closing = true;
    }

    /// Deliver one batch entry's rendered result. Stale generations (from
    /// an aborted batch) are dropped. Call [`Conn::advance`] afterwards:
    /// the freed in-flight slot may unblock parsing, and the last result
    /// triggers the aggregate response.
    pub(crate) fn on_entry_result(&mut self, gen: u64, idx: usize, doc: Arc<str>) {
        if gen != self.gen {
            return;
        }
        if let Some(st) = self.batch.as_mut() {
            if let Some(slot @ None) = st.results.get_mut(idx) {
                *slot = Some(doc);
                st.done += 1;
                st.inflight -= 1;
            }
        }
    }

    /// Drive the state machine over the buffered bytes, returning dispatch
    /// actions. Stops at the first [`Action::Line`] (the reactor decides
    /// how to serve it before more lines are parsed) and when more input,
    /// a free in-flight slot, or an entry result is needed.
    pub(crate) fn advance(&mut self, limits: &ConnLimits, stats: &StatsRegistry) -> Vec<Action> {
        let mut actions = Vec::new();
        loop {
            if self.closing {
                break;
            }
            let progressed = match self.mode {
                Mode::Line => self.step_line(limits, stats, &mut actions),
                Mode::WholeLine => self.step_whole_line(limits, stats, &mut actions),
                Mode::Batch => self.step_batch(limits, stats, &mut actions),
                Mode::DrainLine => self.step_drain(),
            };
            if matches!(actions.last(), Some(Action::Line(_))) || !progressed {
                break;
            }
        }
        actions
    }

    fn oversize(&mut self, stats: &StatsRegistry, actions: &mut Vec<Action>) {
        stats.oversize_close();
        push_doc(
            &mut self.out,
            &error_response("request line exceeds the server's length limit"),
        );
        self.closing = true;
        actions.push(Action::CloseAfterFlush);
    }

    fn step_line(
        &mut self,
        limits: &ConnLimits,
        stats: &StatsRegistry,
        actions: &mut Vec<Action>,
    ) -> bool {
        if self.busy {
            return false;
        }
        // Blank space between lines (including the newlines themselves) is
        // skipped.
        let lead = self
            .buf
            .iter()
            .take_while(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
            .count();
        if lead > 0 {
            self.buf.drain(..lead);
        }
        if self.buf.is_empty() {
            return false;
        }
        let probe = self.buf.len().min(BATCH_PREFIX.len());
        if self.buf[..probe] != BATCH_PREFIX[..probe] {
            self.mode = Mode::WholeLine;
            return true;
        }
        if self.buf.len() < BATCH_PREFIX.len() {
            return false; // prefix still undecided — a handful of bytes
        }
        let newline = find_newline(&self.buf);
        self.decide(newline, true, limits, stats, actions)
    }

    fn step_whole_line(
        &mut self,
        limits: &ConnLimits,
        stats: &StatsRegistry,
        actions: &mut Vec<Action>,
    ) -> bool {
        if self.busy {
            return false;
        }
        match find_newline(&self.buf) {
            Some(i) => self.decide(Some(i), false, limits, stats, actions),
            None if self.buf.len() > limits.max_line_bytes => {
                self.oversize(stats, actions);
                true
            }
            None => false,
        }
    }

    /// Act on [`header_of`] for the line at the head of the buffer, which
    /// ends at `newline` if that has arrived.
    fn decide(
        &mut self,
        newline: Option<usize>,
        stream: bool,
        limits: &ConnLimits,
        stats: &StatsRegistry,
        actions: &mut Vec<Action>,
    ) -> bool {
        let line = &self.buf[..newline.unwrap_or(self.buf.len())];
        match header_of(line, limits, stream, newline.is_some()) {
            Header::NeedMore if self.buf.len() > limits.max_line_bytes => {
                self.oversize(stats, actions)
            }
            Header::NeedMore => return false,
            Header::Request => match newline {
                None => self.mode = Mode::WholeLine,
                Some(i) => {
                    let line = String::from_utf8_lossy(&self.buf[..i]).trim().to_string();
                    self.buf.drain(..=i);
                    self.mode = Mode::Line;
                    if !line.is_empty() {
                        actions.push(Action::Line(line));
                    }
                }
            },
            Header::Error(doc) => {
                stats.error();
                push_doc(&mut self.out, &doc);
                self.mode = Mode::DrainLine;
            }
            Header::Batch { open, close, state } => {
                if let (Some(close), Some(i)) = (close, newline) {
                    // Keep the entries and the array's `]`, and end the
                    // line the way a canonical one ends: the streaming
                    // parser takes it from the first entry.
                    self.buf.splice(close..=i, *b"}\n");
                }
                self.buf.drain(..=open);
                stats.batch();
                self.batch = Some(state);
                self.mode = Mode::Batch;
            }
        }
        true
    }

    fn step_batch(
        &mut self,
        limits: &ConnLimits,
        stats: &StatsRegistry,
        actions: &mut Vec<Action>,
    ) -> bool {
        enum Fate {
            More,
            Stall,
            StallMaybeOversize,
            Abort { doc: Json, line_consumed: bool },
            Finish,
        }
        let gen = self.gen;
        let fate = {
            let Some(st) = self.batch.as_mut() else {
                self.mode = Mode::Line;
                return true;
            };
            let buf = &mut self.buf;
            match st.phase {
                Phase::Entry => {
                    let mut pos = 0;
                    js::skip_ws(buf, &mut pos);
                    if pos > 0 {
                        buf.drain(..pos);
                    }
                    match buf.first() {
                        None => Fate::Stall,
                        Some(b']') => {
                            buf.drain(..1);
                            st.total = Some(st.next_idx);
                            st.phase = Phase::Tail;
                            Fate::More
                        }
                        Some(_) if st.inflight >= st.cap => Fate::Stall,
                        Some(_) => match js::scan_value(buf, 0) {
                            Err(_) => Fate::Abort {
                                doc: error_response("malformed `requests` array"),
                                line_consumed: false,
                            },
                            Ok(Scan::Partial) => Fate::StallMaybeOversize,
                            Ok(Scan::Complete(end)) => {
                                let text = String::from_utf8_lossy(&buf[..end]).into_owned();
                                buf.drain(..end);
                                actions.push(Action::Entry {
                                    gen,
                                    idx: st.next_idx,
                                    text,
                                    timeout_ms: st.timeout_ms,
                                    defaults: Arc::clone(&st.defaults),
                                });
                                st.results.push(None);
                                st.next_idx += 1;
                                st.inflight += 1;
                                st.phase = Phase::Separator;
                                Fate::More
                            }
                        },
                    }
                }
                Phase::Separator => {
                    let mut pos = 0;
                    js::skip_ws(buf, &mut pos);
                    if pos > 0 {
                        buf.drain(..pos);
                    }
                    match buf.first() {
                        None => Fate::Stall,
                        Some(b',') => {
                            buf.drain(..1);
                            st.phase = Phase::Entry;
                            Fate::More
                        }
                        Some(b']') => {
                            buf.drain(..1);
                            st.total = Some(st.next_idx);
                            st.phase = Phase::Tail;
                            Fate::More
                        }
                        Some(_) => Fate::Abort {
                            doc: error_response("expected `,` or `]` in `requests`"),
                            line_consumed: false,
                        },
                    }
                }
                Phase::Tail => match find_newline(buf) {
                    None => Fate::StallMaybeOversize,
                    Some(i) => {
                        let line = &buf[..i];
                        let mut pos = 0;
                        js::skip_ws(line, &mut pos);
                        let fate = if line.get(pos) != Some(&b'}') {
                            Fate::Abort {
                                doc: error_response(
                                    "compile_batch fields after `requests` are not supported",
                                ),
                                line_consumed: true,
                            }
                        } else {
                            pos += 1;
                            js::skip_ws(line, &mut pos);
                            if pos != line.len() {
                                Fate::Abort {
                                    doc: error_response("trailing characters after document"),
                                    line_consumed: true,
                                }
                            } else {
                                st.phase = Phase::Await;
                                Fate::More
                            }
                        };
                        buf.drain(..=i);
                        fate
                    }
                },
                Phase::Await => {
                    if st.total == Some(st.done) {
                        Fate::Finish
                    } else {
                        Fate::Stall
                    }
                }
            }
        };
        match fate {
            Fate::More => true,
            Fate::Stall => false,
            Fate::StallMaybeOversize => {
                if self.buf.len() > limits.max_line_bytes {
                    self.batch = None;
                    self.gen += 1;
                    self.oversize(stats, actions);
                    return true;
                }
                false
            }
            Fate::Abort { doc, line_consumed } => {
                self.batch = None;
                self.gen += 1;
                stats.error();
                push_doc(&mut self.out, &doc);
                self.mode = if line_consumed {
                    Mode::Line
                } else {
                    Mode::DrainLine
                };
                true
            }
            Fate::Finish => {
                let st = self.batch.take().expect("finishing batch state");
                self.gen += 1;
                self.mode = Mode::Line;
                let n = st.results.len();
                let body: usize = st
                    .results
                    .iter()
                    .map(|r| r.as_ref().map_or(0, |d| d.len() + 1))
                    .sum();
                // Sorted key order, as `Json` renders every other
                // response object.
                let mut out = String::with_capacity(body + 64);
                out.push_str("{\"n\":");
                out.push_str(&n.to_string());
                out.push_str(",\"ok\":true,\"op\":\"compile_batch\",\"results\":[");
                for (i, slot) in st.results.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(slot.as_deref().expect("all batch slots filled"));
                }
                out.push_str("]}\n");
                self.out.extend_from_slice(out.as_bytes());
                true
            }
        }
    }

    fn step_drain(&mut self) -> bool {
        match find_newline(&self.buf) {
            Some(i) => {
                self.buf.drain(..=i);
                self.mode = Mode::Line;
                true
            }
            None => {
                // Everything buffered belongs to the doomed line.
                self.buf.clear();
                false
            }
        }
    }
}

/// Read a line's top-level fields up to the point where it is clear how
/// to serve it. A `stream` line starts with [`BATCH_PREFIX`], so `op` comes
/// first and the batch commits at its `requests` array: entries dispatch
/// while the rest of the line is still on the wire, and control fields
/// after `requests` are rejected later. Otherwise the line is `complete`
/// and its fields may come in any order; the `requests` array is only
/// delimited here, its entries go through the streaming parser all the
/// same. Every other value is parsed (depth-bounded), so a line the
/// dispatcher would reject as malformed JSON is left to it, and an `op`
/// that is not `compile_batch` ends the walk — within a few bytes for
/// every request our encoders write, since they put `op` first.
fn header_of(bytes: &[u8], limits: &ConnLimits, stream: bool, complete: bool) -> Header {
    let undecided = || {
        if complete {
            Header::Request
        } else {
            Header::NeedMore
        }
    };
    let mut pos = 0usize;
    js::skip_ws(bytes, &mut pos);
    if js::expect(bytes, &mut pos, b'{').is_err() {
        return undecided();
    }
    let mut is_batch = false;
    let mut requests = None;
    let mut controls = Vec::new();
    loop {
        js::skip_ws(bytes, &mut pos);
        let Ok(key) = js::parse_key(bytes, &mut pos) else {
            return undecided();
        };
        js::skip_ws(bytes, &mut pos);
        if js::expect(bytes, &mut pos, b':').is_err() {
            return undecided();
        }
        js::skip_ws(bytes, &mut pos);
        if key.as_ref() == "requests" {
            if stream {
                return match bytes.get(pos) {
                    None => undecided(),
                    Some(b'[') => match batch_state(controls, limits) {
                        Ok(state) => Header::Batch {
                            open: pos,
                            close: None,
                            state,
                        },
                        Err(doc) => Header::Error(doc),
                    },
                    Some(_) => missing_requests(),
                };
            }
            let Ok(Scan::Complete(end)) = js::scan_value(bytes, pos) else {
                return undecided();
            };
            requests = (bytes[pos] == b'[').then_some((pos, end));
            pos = end;
        } else {
            // A value must be complete before it can be interpreted.
            if !complete && !matches!(js::scan_value(bytes, pos), Ok(Scan::Complete(_))) {
                return Header::NeedMore;
            }
            let Ok(value) = js::parse_value(bytes, &mut pos) else {
                return undecided();
            };
            if key.as_ref() != "op" {
                controls.push((key, value));
            } else if value.as_str() == Some("compile_batch") {
                is_batch = true;
            } else {
                return Header::Request;
            }
        }
        js::skip_ws(bytes, &mut pos);
        match bytes.get(pos) {
            Some(b',') => pos += 1,
            Some(b'}') => break,
            _ => return undecided(),
        }
    }
    pos += 1;
    js::skip_ws(bytes, &mut pos);
    if !complete {
        return Header::NeedMore;
    }
    if pos != bytes.len() || !is_batch {
        return Header::Request;
    }
    let Some((open, close)) = requests else {
        return missing_requests();
    };
    match batch_state(controls, limits) {
        Ok(state) => Header::Batch {
            open,
            close: Some(close),
            state,
        },
        Err(doc) => Header::Error(doc),
    }
}

fn missing_requests() -> Header {
    Header::Error(error_response("compile_batch op missing `requests` array"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> ConnLimits {
        ConnLimits {
            batch_parallelism: 8,
            max_line_bytes: 1 << 20,
        }
    }

    fn out_str(conn: &Conn) -> String {
        String::from_utf8_lossy(conn.pending_write().unwrap_or(b"")).into_owned()
    }

    #[test]
    fn plain_line_emits_once_complete() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        let mut conn = Conn::new();
        let line = b"{\"op\":\"ping\"}\n";
        // Byte-at-a-time: nothing fires until the newline lands.
        for &b in &line[..line.len() - 1] {
            conn.push_bytes(&[b]);
            assert!(conn.advance(&limits, &stats).is_empty());
        }
        conn.push_bytes(b"\n");
        let actions = conn.advance(&limits, &stats);
        assert!(
            matches!(actions.as_slice(), [Action::Line(l)] if l == "{\"op\":\"ping\"}"),
            "{actions:?}"
        );
    }

    #[test]
    fn pipelined_lines_come_one_per_advance() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        let mut conn = Conn::new();
        conn.push_bytes(b"{\"op\":\"ping\"}\n{\"op\":\"stats\"}\n");
        let first = conn.advance(&limits, &stats);
        assert!(matches!(first.as_slice(), [Action::Line(l)] if l.contains("ping")));
        // The reactor answered inline; the next line parses on re-entry.
        conn.on_line_response("{\"ok\":true}");
        let second = conn.advance(&limits, &stats);
        assert!(matches!(second.as_slice(), [Action::Line(l)] if l.contains("stats")));
    }

    #[test]
    fn busy_connection_defers_parsing() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        let mut conn = Conn::new();
        conn.push_bytes(b"{\"op\":\"ping\"}\n");
        conn.busy = true;
        assert!(conn.advance(&limits, &stats).is_empty());
        assert!(!conn.wants_read());
        conn.on_line_response("{\"ok\":true}"); // clears busy
        conn.consume_written(conn.pending_write().unwrap().len());
        assert_eq!(conn.advance(&limits, &stats).len(), 1);
    }

    #[test]
    fn streamed_batch_dispatches_entries_under_cap_and_assembles_in_order() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        let mut conn = Conn::new();
        conn.push_bytes(
            b"{\"op\":\"compile_batch\",\"timeout_ms\":100,\"parallelism\":2,\
              \"defaults\":{\"config\":\"c\",\"machine\":\"m\"},\
              \"requests\":[{\"loop\":\"a\"},{\"loop\":\"b\"},{\"loop\":\"c\"}]}\n",
        );
        // parallelism=2 caps in-flight entries at 2, so only two dispatch now.
        let actions = conn.advance(&limits, &stats);
        let entries: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Entry {
                    gen,
                    idx,
                    text,
                    timeout_ms,
                    defaults,
                } => Some((*gen, *idx, text.clone(), *timeout_ms, Arc::clone(defaults))),
                _ => None,
            })
            .collect();
        assert_eq!(entries.len(), 2, "{actions:?}");
        assert_eq!(entries[0].1, 0);
        assert_eq!(entries[0].2, "{\"loop\":\"a\"}");
        assert_eq!(entries[0].3, Some(100));
        assert_eq!(entries[0].4.machine.as_deref(), Some("m"));
        assert_eq!(entries[0].4.config.as_deref(), Some("c"));
        assert!(!conn.wants_read(), "cap reached: reads pause");
        // Completing slot 1 first exercises out-of-order reassembly and
        // frees budget for the third entry.
        let gen = entries[0].0;
        conn.on_entry_result(gen, 1, Arc::from("{\"r\":1}"));
        let more = conn.advance(&limits, &stats);
        assert!(
            matches!(more.as_slice(), [Action::Entry { idx: 2, .. }]),
            "{more:?}"
        );
        conn.on_entry_result(gen, 0, Arc::from("{\"r\":0}"));
        conn.on_entry_result(gen, 2, Arc::from("{\"r\":2}"));
        assert!(conn.advance(&limits, &stats).is_empty());
        assert_eq!(
            out_str(&conn),
            "{\"n\":3,\"ok\":true,\"op\":\"compile_batch\",\
             \"results\":[{\"r\":0},{\"r\":1},{\"r\":2}]}\n"
        );
        assert_eq!(stats.snapshot().batches, 1);
    }

    #[test]
    fn batch_streams_before_the_line_completes() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        let mut conn = Conn::new();
        // Header plus one complete entry — the `]` is still on the wire.
        conn.push_bytes(b"{\"op\":\"compile_batch\",\"requests\":[{\"loop\":\"a\"},");
        let actions = conn.advance(&limits, &stats);
        assert!(
            matches!(actions.as_slice(), [Action::Entry { idx: 0, .. }]),
            "entry dispatched mid-line: {actions:?}"
        );
        // Rest of the line arrives; result lands; response renders.
        conn.push_bytes(b"{\"loop\":\"b\"}]}\n");
        let actions = conn.advance(&limits, &stats);
        assert!(matches!(actions.as_slice(), [Action::Entry { idx: 1, .. }]));
        conn.on_entry_result(conn.gen, 0, Arc::from("{\"r\":0}"));
        conn.on_entry_result(conn.gen, 1, Arc::from("{\"r\":1}"));
        assert!(conn.advance(&limits, &stats).is_empty());
        assert!(out_str(&conn).starts_with("{\"n\":2,"));
    }

    #[test]
    fn empty_batch_answers_immediately() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        let mut conn = Conn::new();
        conn.push_bytes(b"{\"op\":\"compile_batch\",\"requests\":[]}\n");
        assert!(conn.advance(&limits, &stats).is_empty());
        assert_eq!(
            out_str(&conn),
            "{\"n\":0,\"ok\":true,\"op\":\"compile_batch\",\"results\":[]}\n"
        );
    }

    #[test]
    fn non_canonical_batch_splits_into_entries() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        // `op` is not the first field, and an unknown control field
        // precedes `requests`: neither line streams, both are split whole.
        let lines: [&[u8]; 2] = [
            b"{\"requests\":[{\"loop\":\"a\"},{\"loop\":\"b\"}],\"timeout_ms\":7,\
              \"op\":\"compile_batch\"}\n",
            b"{\"op\":\"compile_batch\",\"zzz\":1,\"requests\":[{\"loop\":\"a\"}]}\n",
        ];
        for (line, n) in lines.into_iter().zip([2, 1]) {
            let mut conn = Conn::new();
            conn.push_bytes(line);
            conn.push_bytes(b"{\"op\":\"ping\"}\n");
            let actions = conn.advance(&limits, &stats);
            let entries: Vec<_> = actions
                .iter()
                .map(|a| match a {
                    Action::Entry {
                        idx,
                        text,
                        timeout_ms,
                        ..
                    } => (*idx, text.clone(), *timeout_ms),
                    other => panic!("expected only entries, got {other:?}"),
                })
                .collect();
            assert_eq!(entries.len(), n, "{actions:?}");
            assert_eq!(entries[0].1, "{\"loop\":\"a\"}");
            assert_eq!(entries[0].2, (n == 2).then_some(7));
            for idx in 0..n {
                conn.on_entry_result(conn.gen, idx, Arc::from("{}"));
            }
            // The aggregate answers first; the pipelined ping follows.
            let next = conn.advance(&limits, &stats);
            assert!(
                matches!(next.as_slice(), [Action::Line(l)] if l.contains("ping")),
                "{next:?}"
            );
            let results = vec!["{}"; n].join(",");
            assert_eq!(
                out_str(&conn),
                format!(
                    "{{\"n\":{n},\"ok\":true,\"op\":\"compile_batch\",\"results\":[{results}]}}\n"
                )
            );
        }
        assert_eq!(stats.snapshot().batches, 2);
    }

    #[test]
    fn whole_line_batch_errors_match_the_streamed_ones() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        let cases: [(&[u8], &str); 3] = [
            (b"{\"op\":\"compile_batch\"}\n", "missing `requests` array"),
            (
                b"{\"requests\":5,\"op\":\"compile_batch\"}\n",
                "missing `requests` array",
            ),
            (
                b"{\"requests\":[],\"parallelism\":0,\"op\":\"compile_batch\"}\n",
                "bad `parallelism`",
            ),
        ];
        for (line, message) in cases {
            let mut conn = Conn::new();
            conn.push_bytes(line);
            assert!(conn.advance(&limits, &stats).is_empty());
            let out = out_str(&conn);
            assert!(
                out.contains("\"ok\":false") && out.contains(message),
                "{out}"
            );
        }
        assert_eq!(stats.snapshot().errors, 3);
        // Not a batch at all, or not JSON: left to the dispatcher whole.
        for line in [
            &b"{\"request\":{},\"op\":\"compile\"}\n"[..],
            b"{\"op\":[[[\n",
        ] {
            let mut conn = Conn::new();
            conn.push_bytes(line);
            let actions = conn.advance(&limits, &stats);
            assert!(
                matches!(actions.as_slice(), [Action::Line(_)]),
                "{actions:?}"
            );
        }
    }

    #[test]
    fn control_fields_after_requests_are_rejected() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        let mut conn = Conn::new();
        conn.push_bytes(b"{\"op\":\"compile_batch\",\"requests\":[],\"timeout_ms\":5}\n");
        assert!(conn.advance(&limits, &stats).is_empty());
        let out = out_str(&conn);
        assert!(out.contains("\"ok\":false"), "{out}");
        assert!(out.contains("after `requests`"), "{out}");
        assert_eq!(stats.snapshot().errors, 1);
        // The connection survives: a later line still parses.
        conn.consume_written(conn.pending_write().unwrap().len());
        conn.push_bytes(b"{\"op\":\"ping\"}\n");
        assert_eq!(conn.advance(&limits, &stats).len(), 1);
    }

    #[test]
    fn bad_timeout_in_header_errors_and_drains_the_line() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        let mut conn = Conn::new();
        conn.push_bytes(b"{\"op\":\"compile_batch\",\"timeout_ms\":-3,\"requests\":[");
        assert!(conn.advance(&limits, &stats).is_empty());
        assert!(out_str(&conn).contains("bad `timeout_ms`"));
        // The rest of the doomed line is discarded; the next line works.
        conn.consume_written(conn.pending_write().unwrap().len());
        conn.push_bytes(b"{\"loop\":\"x\"}]}\n{\"op\":\"ping\"}\n");
        let actions = conn.advance(&limits, &stats);
        assert!(
            matches!(actions.as_slice(), [Action::Line(l)] if l.contains("ping")),
            "{actions:?}"
        );
    }

    #[test]
    fn aborted_batch_drops_stale_entry_results() {
        let (limits, stats) = (limits(), StatsRegistry::new());
        let mut conn = Conn::new();
        conn.push_bytes(b"{\"op\":\"compile_batch\",\"requests\":[{\"loop\":\"a\"},");
        let actions = conn.advance(&limits, &stats);
        let gen = match actions.as_slice() {
            [Action::Entry { gen, .. }] => *gen,
            other => panic!("expected entry, got {other:?}"),
        };
        // Garbage where the next entry should be: batch aborts.
        conn.push_bytes(b":::\n");
        assert!(conn.advance(&limits, &stats).is_empty());
        assert!(out_str(&conn).contains("\"ok\":false"));
        // The late result from the aborted batch is silently dropped.
        conn.on_entry_result(gen, 0, Arc::from("{\"r\":0}"));
        conn.consume_written(conn.pending_write().unwrap().len());
        conn.push_bytes(b"{\"op\":\"ping\"}\n");
        assert_eq!(conn.advance(&limits, &stats).len(), 1);
    }

    #[test]
    fn oversized_line_gets_typed_error_then_close() {
        let (mut limits, stats) = (limits(), StatsRegistry::new());
        limits.max_line_bytes = 64;
        let mut conn = Conn::new();
        conn.push_bytes(&[b'x'; 100]);
        let actions = conn.advance(&limits, &stats);
        assert!(
            matches!(actions.as_slice(), [Action::CloseAfterFlush]),
            "{actions:?}"
        );
        assert!(conn.closing);
        assert!(out_str(&conn).contains("length limit"));
        assert_eq!(stats.snapshot().oversize_closed, 1);
    }

    #[test]
    fn oversized_batch_entry_is_guarded_too() {
        let (mut limits, stats) = (limits(), StatsRegistry::new());
        limits.max_line_bytes = 64;
        let mut conn = Conn::new();
        conn.push_bytes(b"{\"op\":\"compile_batch\",\"requests\":[{\"loop\":\"");
        conn.push_bytes(&[b'y'; 100]);
        let actions = conn.advance(&limits, &stats);
        assert!(matches!(actions.as_slice(), [Action::CloseAfterFlush]));
        assert_eq!(stats.snapshot().oversize_closed, 1);
    }

    #[test]
    fn back_pressure_pauses_reads_while_writes_pend() {
        let mut conn = Conn::new();
        assert!(conn.wants_read());
        conn.on_line_response("{\"ok\":true}");
        assert!(!conn.wants_read(), "unflushed response pauses reads");
        let n = conn.pending_write().unwrap().len();
        conn.consume_written(n);
        assert!(conn.wants_read());
    }
}

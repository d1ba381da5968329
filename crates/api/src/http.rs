//! HTTP/1.1 framing — the only code in the workspace that parses or
//! formats a request head, a status line, a response head or a chunk-size
//! line.
//!
//! `repro serve` and `repro router` share the server half: the accept and
//! connection loops, request reading under the slow-loris budgets, the
//! response writers and the typed error reply. The router's backend calls,
//! `loadgen` and the integration tests share the client half: one
//! keep-alive [`Conn`] that reads a response by its framing —
//! `Content-Length`, chunked with per-chunk payloads, or to EOF — skipping
//! `1xx` interim responses. Both halves read from any [`Read`] and keep the
//! bytes read past one message buffered for the next, so pipelined
//! requests are answered in order.

use crate::error::ERROR_SCHEMA;
use crate::json::Json;
use crate::wallclock::Stopwatch;

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Upper bound on a request or response head (start line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a chunk-size or trailer line.
const MAX_LINE_BYTES: usize = 1024;

/// How often an idle server connection wakes to check drain and idle
/// expiry while it waits for the next request.
const IDLE_POLL: Duration = Duration::from_millis(250);

/// Headers as parsed: names lower-cased, values trimmed, in wire order.
pub type Headers = Vec<(String, String)>;

/// The value of header `name`, matched case-insensitively.
pub(crate) fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    let mut named = headers.iter().filter(|(k, _)| k.eq_ignore_ascii_case(name));
    named.next().map(|(_, v)| v.as_str())
}

fn asks_close(headers: &[(String, String)]) -> bool {
    header(headers, "connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
}

/// How a response body is delimited on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// Exactly this many bytes (`Content-Length`).
    Length(u64),
    /// `Transfer-Encoding: chunked`, ended by the zero chunk.
    Chunked,
    /// No framing header: the body runs until the peer closes.
    Eof,
}

/// A final (non-`1xx`) response head.
#[derive(Debug, Clone)]
pub struct Head {
    /// The status code.
    pub status: u16,
    /// The response headers.
    pub headers: Headers,
    /// How the body that follows is delimited.
    pub framing: Framing,
}

impl Head {
    /// True when the peer announced it will close after this response.
    pub fn closes(&self) -> bool {
        asks_close(&self.headers)
    }
}

/// A whole response, as read by [`Conn::read_response`].
#[derive(Debug, Clone)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The response headers.
    pub headers: Headers,
    /// The body; for a chunked response, the chunk payloads concatenated.
    pub body: String,
    /// Each chunk's payload, in order — the streaming protocol's messages,
    /// one JSON document each.
    pub chunks: Vec<String>,
    /// True when the response used chunked transfer encoding.
    pub chunked: bool,
}

impl Response {
    /// The value of header `name`, matched case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }
}

/// A request refused before routing — status, error code, message. It is
/// answered with a typed error body, then the connection closes.
#[derive(Debug)]
pub(crate) struct Reject(u16, &'static str, String);

fn invalid(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// True for the read errors a socket timeout produces.
fn quiet(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// One HTTP/1.1 connection: the stream plus the bytes read from it but
/// not yet consumed. It is the keep-alive client (send a request, read the
/// response by its framing) and, inside this crate, the server's
/// per-connection request reader.
#[derive(Debug)]
pub struct Conn<S = TcpStream> {
    stream: S,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects to `addr` within `connect`; `read` and `write` become the
    /// socket timeouts of every later call.
    pub fn connect(
        addr: &str,
        connect: Duration,
        read: Duration,
        write: Duration,
    ) -> io::Result<Conn> {
        let nowhere = || io::Error::new(io::ErrorKind::NotFound, "address resolves to nothing");
        let sa = addr.to_socket_addrs()?.next().ok_or_else(nowhere)?;
        let stream = TcpStream::connect_timeout(&sa, connect)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(read))?;
        stream.set_write_timeout(Some(write))?;
        Ok(Conn::new(stream))
    }
}

impl<S> Conn<S> {
    /// Wraps an established stream.
    pub fn new(stream: S) -> Self {
        Conn {
            stream,
            buf: Vec::new(),
        }
    }

    /// The underlying stream (to set timeouts or write raw bytes).
    pub fn stream(&mut self) -> &mut S {
        &mut self.stream
    }

    /// Removes and returns the first `n` buffered bytes.
    fn take(&mut self, n: usize) -> Vec<u8> {
        let rest = self.buf.split_off(n.min(self.buf.len()));
        std::mem::replace(&mut self.buf, rest)
    }

    /// The `what` head at the front of the buffer, removed and split into
    /// its start line and headers; `Ok(None)` while part of it is unread.
    fn buffered_head(&mut self, what: &str) -> Result<Option<(String, Headers)>, Reject> {
        let window = self.buf.get(..MAX_HEAD_BYTES).unwrap_or(&self.buf);
        let Some(end) = window.windows(4).position(|w| w == b"\r\n\r\n") else {
            if self.buf.len() < MAX_HEAD_BYTES {
                return Ok(None);
            }
            let msg = format!("{what} head exceeds {MAX_HEAD_BYTES} bytes");
            return Err(Reject(431, "head_too_large", msg));
        };
        let raw = self.take(end + 4);
        let bad = |msg| Reject(400, "bad_request", msg);
        let text = std::str::from_utf8(raw.get(..end).unwrap_or_default())
            .map_err(|_| bad(format!("{what} head is not valid UTF-8")))?;
        let mut lines = text.split("\r\n");
        let start = lines.next().unwrap_or("").to_string();
        let mut headers = Vec::new();
        for line in lines.filter(|l| !l.is_empty()) {
            let Some((k, v)) = line.split_once(':') else {
                return Err(bad(format!("malformed header line {line:?}")));
            };
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
        Ok(Some((start, headers)))
    }
}

impl<S: Read> Conn<S> {
    /// One read appended to the buffer; `Ok(0)` at EOF. Interrupted reads
    /// retry; timeouts surface as errors.
    fn fill(&mut self) -> io::Result<usize> {
        let mut chunk = [0u8; 8192];
        loop {
            match self.stream.read(&mut chunk) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
                Ok(n) => {
                    self.buf
                        .extend_from_slice(chunk.get(..n).unwrap_or_default());
                    return Ok(n);
                }
            }
        }
    }

    /// [`Conn::fill`] inside a message: EOF is an error.
    fn fill_some(&mut self) -> io::Result<()> {
        match self.fill()? {
            0 => Err(io::ErrorKind::UnexpectedEof.into()),
            _ => Ok(()),
        }
    }

    /// Reads a response head, skipping `1xx` interim responses.
    pub fn read_head(&mut self) -> io::Result<Head> {
        loop {
            let Some((line, headers)) = self
                .buffered_head("response")
                .map_err(|Reject(_, _, msg)| invalid(msg))?
            else {
                self.fill_some()?;
                continue;
            };
            let mut parts = line.split(' ');
            let status = match (parts.next(), parts.next()) {
                (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code.parse::<u16>().ok(),
                _ => None,
            };
            let status = status.ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
            if status < 200 {
                continue;
            }
            let chunked = header(&headers, "transfer-encoding")
                .is_some_and(|v| v.to_ascii_lowercase().contains("chunked"));
            let framing = match header(&headers, "content-length") {
                _ if chunked => Framing::Chunked,
                Some(len) => Framing::Length(
                    len.parse()
                        .map_err(|_| invalid(format!("bad Content-Length {len:?}")))?,
                ),
                None => Framing::Eof,
            };
            return Ok(Head {
                status,
                headers,
                framing,
            });
        }
    }

    /// Reads the body `framing` announces into `sink`: each chunk's payload
    /// whole and in order for a chunked body (whose trailers are consumed),
    /// successive reads otherwise. Bytes past the body stay buffered.
    pub fn read_body(
        &mut self,
        framing: Framing,
        mut sink: impl FnMut(&[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        match framing {
            Framing::Length(mut left) => {
                while left > 0 {
                    if self.buf.is_empty() {
                        self.fill_some()?;
                    }
                    let piece = self.take(usize::try_from(left).unwrap_or(usize::MAX));
                    left -= piece.len() as u64;
                    sink(&piece)?;
                }
                Ok(())
            }
            Framing::Chunked => loop {
                let line = self.line()?;
                let text = String::from_utf8_lossy(&line);
                let hex = text.split(';').next().unwrap_or("").trim();
                let size = usize::from_str_radix(hex, 16)
                    .map_err(|_| invalid(format!("bad chunk size {text:?}")))?;
                if size == 0 {
                    while !self.line()?.is_empty() {}
                    return Ok(());
                }
                while self.buf.len() < size.saturating_add(2) {
                    self.fill_some()?;
                }
                let payload = self.take(size);
                if self.take(2) != b"\r\n" {
                    return Err(invalid("chunk payload not followed by CRLF"));
                }
                sink(&payload)?;
            },
            Framing::Eof => loop {
                let piece = std::mem::take(&mut self.buf);
                if !piece.is_empty() {
                    sink(&piece)?;
                }
                if self.fill()? == 0 {
                    return Ok(());
                }
            },
        }
    }

    /// The next CRLF-terminated line, without its CRLF.
    fn line(&mut self) -> io::Result<Vec<u8>> {
        loop {
            if let Some(end) = self.buf.windows(2).position(|w| w == b"\r\n") {
                let mut line = self.take(end + 2);
                line.truncate(end);
                return Ok(line);
            }
            if self.buf.len() > MAX_LINE_BYTES {
                return Err(invalid("chunk-size line too long"));
            }
            self.fill_some()?;
        }
    }

    /// Reads one whole response: its head, then its body by its framing.
    pub fn read_response(&mut self) -> io::Result<Response> {
        let head = self.read_head()?;
        let chunked = head.framing == Framing::Chunked;
        let (mut body, mut chunks) = (Vec::new(), Vec::new());
        self.read_body(head.framing, |piece| {
            body.extend_from_slice(piece);
            if chunked {
                chunks.push(String::from_utf8_lossy(piece).into_owned());
            }
            Ok(())
        })?;
        Ok(Response {
            status: head.status,
            headers: head.headers,
            body: String::from_utf8_lossy(&body).into_owned(),
            chunks,
            chunked,
        })
    }

    /// One read inside a budgeted server loop: false once the peer is
    /// gone, true when bytes arrived or the socket was merely quiet.
    fn fill_within(&mut self) -> bool {
        match self.fill() {
            Ok(n) => n > 0,
            Err(e) => quiet(&e),
        }
    }
}

impl<S: Read + Write> Conn<S> {
    /// Sends one request in one write; see [`request_bytes`].
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&[u8]>,
    ) -> io::Result<()> {
        self.stream
            .write_all(&request_bytes(method, path, headers, body))?;
        self.stream.flush()
    }

    /// [`Conn::send`], then [`Conn::read_response`].
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&[u8]>,
    ) -> io::Result<Response> {
        self.send(method, path, headers, body)?;
        self.read_response()
    }

    /// Reads one request under the gate's slow-loris budgets: an idle wait
    /// for its first byte, then byte- and time-capped reads for head and
    /// body. `Ok(None)` means hang up without a word: the peer closed, the
    /// connection idled out, or the server is draining. Bytes past the
    /// request stay buffered: they are the next, pipelined request.
    pub(crate) fn read_request(&mut self, gate: &Gate) -> Result<Option<Request>, Reject> {
        let budget = gate.read_timeout_ms;
        let idle = Stopwatch::start();
        while self.buf.is_empty() {
            match self.fill() {
                Ok(0) => return Ok(None),
                Err(e) if !quiet(&e) || gate.is_draining() || idle.elapsed_ms() as u64 > budget => {
                    return Ok(None)
                }
                _ => {}
            }
        }
        let clock = Stopwatch::start();
        let (line, headers) = loop {
            if let Some(head) = self.buffered_head("request")? {
                break head;
            }
            if clock.elapsed_ms() as u64 > budget {
                let msg = "timed out reading the request head".to_string();
                return Err(Reject(408, "request_timeout", msg));
            }
            if !self.fill_within() {
                return Ok(None);
            }
        };
        let mut parts = line.split(' ');
        let (method, path) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v))
                if !m.is_empty() && !p.is_empty() && v.starts_with("HTTP/1.") =>
            {
                (m.to_string(), p.to_string())
            }
            _ => {
                let msg = format!("malformed request line {line:?}");
                return Err(Reject(400, "bad_request", msg));
            }
        };
        let needs_body = method == "POST" || method == "PUT";
        let declared = header(&headers, "content-length").and_then(|v| v.parse::<usize>().ok());
        let len = match (needs_body, header(&headers, "transfer-encoding"), declared) {
            (false, _, len) => len.unwrap_or(0),
            (true, None, Some(len)) => len,
            (true, chunked, _) => {
                let msg = match chunked {
                    Some(_) => "chunked bodies are not supported; send Content-Length",
                    None => "POST requires a Content-Length header",
                };
                return Err(Reject(411, "length_required", msg.to_string()));
            }
        };
        if len > gate.max_body_bytes {
            let cap = gate.max_body_bytes;
            let msg = format!("body of {len} bytes exceeds the {cap} byte cap");
            return Err(Reject(413, "body_too_large", msg));
        }
        let expects = header(&headers, "expect");
        if needs_body
            && self.buf.is_empty()
            && expects.is_some_and(|v| v.to_ascii_lowercase().contains("100-continue"))
        {
            let _ = self.stream.write_all(b"HTTP/1.1 100 Continue\r\n\r\n");
            let _ = self.stream.flush();
        }
        let clock = Stopwatch::start();
        while self.buf.len() < len {
            if clock.elapsed_ms() as u64 > budget {
                let msg = "timed out reading the request body".to_string();
                return Err(Reject(408, "request_timeout", msg));
            }
            if !self.fill_within() {
                return Ok(None);
            }
        }
        let body = self.take(len);
        Ok(Some(Request {
            method,
            path,
            headers,
            body,
        }))
    }
}

/// One request as a client sends it: the request line, `headers` in
/// order, a `Content-Length` when `body` is given, then the body.
pub fn request_bytes(
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&[u8]>,
) -> Vec<u8> {
    let len = body.map(|b| b.len().to_string());
    let framing = len.as_deref().map(|l| ("Content-Length", l));
    let all = headers.iter().copied().chain(framing);
    let mut msg = head(format!("{method} {path} HTTP/1.1"), all).into_bytes();
    msg.extend_from_slice(body.unwrap_or_default());
    msg
}

/// A head: the start line, `headers` in order, then the blank line.
fn head<'a>(start: String, headers: impl IntoIterator<Item = (&'a str, &'a str)>) -> String {
    let mut head = start + "\r\n";
    for (k, v) in headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head + "\r\n"
}

/// One parsed request.
pub(crate) struct Request {
    pub(crate) method: String,
    pub(crate) path: String,
    pub(crate) headers: Headers,
    pub(crate) body: Vec<u8>,
}

/// The listener-side state `serve` and `router` share: lifecycle flags,
/// the live connection count, and the connection limits.
#[derive(Default)]
pub(crate) struct Gate {
    /// Stops the accept loop.
    pub(crate) shutdown: AtomicBool,
    /// Set at shutdown: idle keep-alive connections close, and each server
    /// refuses new work.
    pub(crate) draining: AtomicBool,
    pub(crate) live_conns: AtomicUsize,
    pub(crate) max_connections: usize,
    pub(crate) max_body_bytes: usize,
    /// Budget for reading a request head or body, and for idling between
    /// keep-alive requests.
    pub(crate) read_timeout_ms: u64,
    pub(crate) write_timeout_ms: u64,
}

impl Gate {
    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

/// A cloneable remote control for a running server or router — lets
/// signal handlers and tests trigger shutdown without owning it.
#[derive(Clone)]
pub struct ShutdownHandle(pub(crate) Arc<Gate>);

impl ShutdownHandle {
    /// Begins graceful shutdown: the acceptor stops, readyz starts
    /// failing, and `join` proceeds to drain.
    pub fn trigger_shutdown(&self) {
        self.0.shutdown.store(true, Ordering::SeqCst);
        self.0.draining.store(true, Ordering::SeqCst);
    }

    /// True once shutdown has been triggered.
    pub fn is_draining(&self) -> bool {
        self.0.is_draining()
    }
}

/// Spawns the accept loop on a thread named `{name}-accept`. Until
/// `gate(inner).shutdown` is set, each connection gets its own thread named
/// `{name}-conn` running `serve`, capped at `max_connections` live at
/// once; a connection over the cap goes to `refuse`.
pub(crate) fn spawn_acceptor<I: Send + Sync + 'static>(
    listener: TcpListener,
    inner: &Arc<I>,
    name: &str,
    gate: fn(&I) -> &Gate,
    refuse: fn(TcpStream, &I),
    serve: fn(TcpStream, &I),
) -> io::Result<thread::JoinHandle<()>> {
    let inner = Arc::clone(inner);
    let conn_name = format!("{name}-conn");
    let accept = move || {
        let g = gate(&inner);
        while !g.shutdown.load(Ordering::SeqCst) {
            let Ok((stream, _peer)) = listener.accept() else {
                thread::sleep(Duration::from_millis(2));
                continue;
            };
            if g.live_conns.load(Ordering::SeqCst) >= g.max_connections {
                refuse(stream, &inner);
                continue;
            }
            g.live_conns.fetch_add(1, Ordering::SeqCst);
            let conn = Arc::clone(&inner);
            let spawned = thread::Builder::new()
                .name(conn_name.clone())
                .spawn(move || {
                    serve(stream, &conn);
                    gate(&conn).live_conns.fetch_sub(1, Ordering::SeqCst);
                });
            if spawned.is_err() {
                g.live_conns.fetch_sub(1, Ordering::SeqCst);
            }
        }
    };
    thread::Builder::new()
        .name(format!("{name}-accept"))
        .spawn(accept)
}

/// Best-effort `503 overloaded` for a connection over the cap.
pub(crate) fn refuse(mut stream: TcpStream, gate: &Gate, message: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(gate.write_timeout_ms)));
    let retry = [("Retry-After", "1")];
    let _ = write_error(&mut stream, 503, "overloaded", message, &retry, true);
}

/// Serves one connection: reads requests in order — pipelined ones
/// included — and hands each to `route(stream, request, close)` until the
/// peer hangs up, asks to close, a route returns `false`, or the server
/// drains. A rejected request is counted in `client_errors`, answered
/// with its typed error, and closes the connection.
pub(crate) fn serve_connection(
    stream: TcpStream,
    gate: &Gate,
    client_errors: &AtomicU64,
    mut route: impl FnMut(&mut TcpStream, &Request, bool) -> bool,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(gate.write_timeout_ms)));
    let mut conn = Conn::new(stream);
    loop {
        // Routes may shorten the read timeout while they poll for a
        // vanished client; every request wait starts at the idle poll.
        let _ = conn.stream.set_read_timeout(Some(IDLE_POLL));
        match conn.read_request(gate) {
            Ok(None) => break,
            Err(Reject(status, code, message)) => {
                client_errors.fetch_add(1, Ordering::SeqCst);
                let _ = write_error(&mut conn.stream, status, code, &message, &[], true);
                break;
            }
            Ok(Some(req)) => {
                let close = asks_close(&req.headers) || gate.is_draining();
                if !route(&mut conn.stream, &req, close) || close {
                    break;
                }
            }
        }
    }
    let _ = conn.stream.shutdown(Shutdown::Both);
}

fn status_reason(status: u16) -> &'static str {
    match status {
        100 => "Continue",
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        499 => "Client Closed Request",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// The one response-head writer: the status line, `headers` in order,
/// the `Connection` header `close` selects and the blank line, then
/// `body`, in one write. The caller supplies the framing headers; the
/// router forwards a backend's this way.
pub(crate) fn write_head(
    w: &mut impl Write,
    status: u16,
    headers: &[(&str, &str)],
    close: bool,
    body: &[u8],
) -> io::Result<()> {
    let connection = ("Connection", if close { "close" } else { "keep-alive" });
    let all = headers.iter().copied().chain([connection]);
    let mut msg = head(format!("HTTP/1.1 {status} {}", status_reason(status)), all).into_bytes();
    msg.extend_from_slice(body);
    w.write_all(&msg)?;
    w.flush()
}

/// Writes a whole `application/json` response framed by `Content-Length`.
pub(crate) fn write_response(
    w: &mut impl Write,
    status: u16,
    headers: &[(&str, &str)],
    body: &str,
    close: bool,
) -> io::Result<()> {
    let len = body.len().to_string();
    let framing = [
        ("Content-Type", "application/json"),
        ("Content-Length", len.as_str()),
    ];
    let all = [&framing[..], headers].concat();
    write_head(w, status, &all, close, body.as_bytes())
}

/// Writes the head of a chunked (streamed) response. The body follows as
/// [`write_chunk`] calls ended by [`finish_chunks`] — one JSON document
/// per chunk; the status commits before the solve finishes, so later
/// failures must travel in-band as `greencloud-error/1` documents.
pub(crate) fn write_chunked_head(
    w: &mut impl Write,
    status: u16,
    headers: &[(&str, &str)],
    close: bool,
) -> io::Result<()> {
    let framing = [
        ("Content-Type", "application/x-json-stream"),
        ("Transfer-Encoding", "chunked"),
    ];
    write_head(w, status, &[&framing[..], headers].concat(), close, b"")
}

/// One chunk — hex length, CRLF, payload, CRLF — in one write, flushed so
/// the client (or a relaying router) sees the frame immediately.
pub(crate) fn write_chunk(w: &mut impl Write, data: &[u8]) -> io::Result<()> {
    let mut msg = format!("{:x}\r\n", data.len()).into_bytes();
    msg.extend_from_slice(data);
    msg.extend_from_slice(b"\r\n");
    w.write_all(&msg)?;
    w.flush()
}

/// The terminating zero-length chunk of a streamed response.
pub(crate) fn finish_chunks(w: &mut impl Write) -> io::Result<()> {
    w.write_all(b"0\r\n\r\n")?;
    w.flush()
}

/// The answer for a request no route took: `405` with `Allow` on a known
/// path, `404` otherwise — either way a client error.
pub(crate) fn unrouted(
    w: &mut impl Write,
    req: &Request,
    client_errors: &AtomicU64,
    close: bool,
) -> bool {
    client_errors.fetch_add(1, Ordering::SeqCst);
    let allow = match req.path.as_str() {
        "/v1/experiments" | "/v1/jobs" => "POST",
        "/v1/healthz" | "/v1/readyz" | "/v1/stats" => "GET",
        p if job_id(p).is_some() => "GET, DELETE",
        _ => {
            let msg = format!("no route {}", req.path);
            return write_error(w, 404, "not_found", &msg, &[], close).is_ok();
        }
    };
    let msg = format!("{} is not supported on {}", req.method, req.path);
    let allow = [("Allow", allow)];
    write_error(w, 405, "method_not_allowed", &msg, &allow, close).is_ok()
}

/// `503 draining` with `Retry-After: 1`, closing the connection; returns
/// the route's keep-alive verdict, always `false`.
pub(crate) fn refuse_draining(w: &mut impl Write, message: &str) -> bool {
    let _ = write_error(w, 503, "draining", message, &[("Retry-After", "1")], true);
    false
}

/// The id in a `/v1/jobs/:id` path.
pub(crate) fn job_id(path: &str) -> Option<&str> {
    let id = path.strip_prefix("/v1/jobs/")?;
    (!id.is_empty() && !id.contains('/')).then_some(id)
}

/// An [`ERROR_SCHEMA`] body for a failure that is not an `ApiError`.
pub(crate) fn error_body(code: &str, message: &str) -> String {
    Json::obj([
        ("schema", Json::from(ERROR_SCHEMA)),
        ("code", Json::from(code)),
        ("message", Json::from(message)),
    ])
    .render()
}

/// The typed error reply: `status` with an [`error_body`].
pub(crate) fn write_error(
    w: &mut impl Write,
    status: u16,
    code: &str,
    message: &str,
    headers: &[(&str, &str)],
    close: bool,
) -> io::Result<()> {
    write_response(w, status, headers, &error_body(code, message), close)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Input that arrives in two reads, split at a byte offset; writes
    /// are kept.
    struct Split<'a>(io::Chain<&'a [u8], &'a [u8]>, Vec<u8>);

    impl Read for Split<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.0.read(out)
        }
    }

    impl Write for Split<'_> {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.1.write(data)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn split(input: &[u8], at: usize) -> Conn<Split<'_>> {
        let (a, b) = input.split_at(at);
        Conn::new(Split(a.chain(b), Vec::new()))
    }

    /// Runs `check` on a connection fed `input` split at every offset.
    fn at_every_split(input: &[u8], check: impl Fn(&mut Conn<Split<'_>>)) {
        for at in 0..=input.len() {
            check(&mut split(input, at));
        }
    }

    #[test]
    fn content_length_responses_read_back_to_back() {
        let input = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Cache: hit\r\n\
                      Content-Length: 11\r\n\r\n{\"a\":[1,2]}\
                      HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\nno";
        at_every_split(input, |conn| {
            let r = conn.read_response().expect("first response");
            assert_eq!((r.status, r.header("X-Cache")), (200, Some("hit")));
            assert_eq!(r.body, "{\"a\":[1,2]}");
            assert!(!r.chunked && r.chunks.is_empty());
            let r = conn.read_response().expect("second response");
            assert_eq!((r.status, r.body.as_str()), (404, "no"));
            assert!(conn.read_head().is_err(), "nothing left");
        });
    }

    #[test]
    fn chunked_response_yields_payloads_in_order() {
        let input = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                      6\r\nqueued\r\na;ext=1\r\n{\"done\":1}\r\n0\r\nx-trailer: t\r\n\r\n\
                      HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n";
        at_every_split(input, |conn| {
            let r = conn.read_response().expect("chunked response");
            assert!(r.chunked);
            assert_eq!(r.chunks, ["queued", "{\"done\":1}"]);
            assert_eq!(r.body, "queued{\"done\":1}");
            let next = conn.read_response().expect("response after the trailers");
            assert_eq!((next.status, next.body.as_str()), (200, ""));
        });
    }

    #[test]
    fn interim_continue_is_skipped() {
        let input = b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 413 Payload Too Large\r\n\
                      Content-Length: 4\r\nConnection: close\r\n\r\nbig!";
        at_every_split(input, |conn| {
            let head = conn.read_head().expect("final head");
            assert_eq!((head.status, head.framing), (413, Framing::Length(4)));
            assert!(head.closes());
        });
    }

    #[test]
    fn unframed_response_runs_to_eof() {
        at_every_split(b"HTTP/1.0 200 OK\r\n\r\nuntil the end", |conn| {
            let r = conn.read_response().expect("response");
            assert_eq!(r.body, "until the end");
        });
    }

    #[test]
    fn malformed_framing_is_an_error() {
        for input in [
            &b"SPDY/9 200 OK\r\n\r\n"[..],
            b"HTTP/1.1 abc\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nno-colon\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabc\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort",
        ] {
            let text = String::from_utf8_lossy(input);
            assert!(split(input, 0).read_response().is_err(), "{text:?}");
        }
    }

    fn gate() -> Gate {
        Gate {
            max_connections: 8,
            max_body_bytes: 64,
            read_timeout_ms: 1_000,
            write_timeout_ms: 1_000,
            ..Gate::default()
        }
    }

    fn request(out: Result<Option<Request>, Reject>) -> Request {
        out.expect("not rejected").expect("not closed")
    }

    #[test]
    fn pipelined_requests_are_read_in_order() {
        let input = b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n\
                      POST /v1/jobs HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbody";
        let gate = gate();
        at_every_split(input, |conn| {
            let first = request(conn.read_request(&gate));
            assert_eq!(
                (first.method.as_str(), first.path.as_str()),
                ("GET", "/v1/healthz")
            );
            assert!(first.body.is_empty() && !asks_close(&first.headers));
            let second = request(conn.read_request(&gate));
            assert_eq!(
                (second.method.as_str(), second.path.as_str()),
                ("POST", "/v1/jobs")
            );
            assert_eq!(second.body, b"body");
            assert!(asks_close(&second.headers));
            assert!(matches!(conn.read_request(&gate), Ok(None)));
        });
    }

    #[test]
    fn request_limits_reject_with_typed_codes() {
        let gate = gate();
        let code = |input: &[u8]| match split(input, 0).read_request(&gate) {
            Err(Reject(status, code, _)) => Some((status, code)),
            _ => None,
        };
        let huge = vec![b'a'; MAX_HEAD_BYTES + 1];
        for (input, want) in [
            (&b"POST / HTTP/1.1\r\n\r\n"[..], (411, "length_required")),
            (
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                (411, "length_required"),
            ),
            (
                b"POST / HTTP/1.1\r\nContent-Length: 65\r\n\r\n",
                (413, "body_too_large"),
            ),
            (b"GARBAGE\r\n\r\n", (400, "bad_request")),
            (b"GET / SPDY/9\r\n\r\n", (400, "bad_request")),
            (
                b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
                (400, "bad_request"),
            ),
            (b"GET / HTTP/1.1\r\n\xff: x\r\n\r\n", (400, "bad_request")),
            (&huge, (431, "head_too_large")),
        ] {
            assert_eq!(
                code(input),
                Some(want),
                "{:?}",
                String::from_utf8_lossy(input)
            );
        }
    }

    #[test]
    fn expect_continue_gets_its_interim_response() {
        let gate = gate();
        let input = b"POST / HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nok";
        // Body already buffered with the head: no interim response.
        let mut conn = split(input, input.len());
        assert_eq!(request(conn.read_request(&gate)).body, b"ok");
        assert!(conn.stream().1.is_empty());
        let mut conn = split(input, input.len() - 2);
        assert_eq!(request(conn.read_request(&gate)).body, b"ok");
        assert_eq!(conn.stream().1, b"HTTP/1.1 100 Continue\r\n\r\n");
    }

    #[test]
    fn status_reasons_cover_every_emitted_code() {
        for code in [
            200, 202, 400, 404, 405, 408, 409, 411, 413, 422, 429, 431, 499, 500, 503,
        ] {
            assert_ne!(status_reason(code), "Unknown", "status {code}");
        }
    }

    #[test]
    fn error_body_is_schema_versioned() {
        let doc = Json::parse(&error_body("overloaded", "queue full")).expect("parses");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(ERROR_SCHEMA));
        assert_eq!(doc.get("code").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(
            doc.get("message").and_then(Json::as_str),
            Some("queue full")
        );
    }
}

//! # `si-http` — a std-only HTTP/1.1 server and client
//!
//! The container this workspace builds in has no crates.io access, so
//! `sia serve` cannot pull in a real HTTP stack. This crate is the
//! same-pattern stand-in as `si-rand`: the exact HTTP/1.1 surface the
//! daemon needs, hand-rolled on `std::net` — request parsing with hard
//! size limits, keep-alive connection handling, fixed and chunked
//! (streaming) responses, and a polling accept loop that honors a shared
//! shutdown flag so SIGTERM can drain the server cleanly.
//!
//! What it deliberately is **not**: TLS, HTTP/2, compression, trailers,
//! or an async runtime. One OS thread per connection is plenty for a
//! grid daemon whose requests each fan out across the work-stealing
//! scheduler anyway.
//!
//! The [`client`] module carries the matching minimal client (used by
//! the protocol tests and handy for scripting); CI's smoke job drives
//! the daemon with python's `http.client` instead, so the protocol is
//! also exercised by an implementation this crate does not share a line
//! with.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Longest accepted request head (request line + headers), in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Largest accepted request body, in bytes.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Per-read socket timeout. Connection threads wake at this cadence to
/// re-check the server's shutdown flag, so a SIGTERM never waits on an
/// idle keep-alive socket.
const READ_TICK: Duration = Duration::from_millis(250);

/// Idle keep-alive ticks before a connection is closed (~30 s).
const IDLE_TICKS_MAX: u32 = 120;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercased (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the request target (`/v1/sweep`).
    pub path: String,
    /// Decoded `key=value` query parameters, in request order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// HTTP minor version: `1` for HTTP/1.1, `0` for HTTP/1.0.
    minor: u8,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a query parameter.
    pub fn query_get(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether a query parameter is present with a truthy value (`1`,
    /// `true`, or bare).
    pub fn query_flag(&self, name: &str) -> bool {
        matches!(self.query_get(name), Some("" | "1" | "true"))
    }

    /// Whether the connection should stay open after the response:
    /// HTTP/1.1 defaults to keep-alive unless `Connection: close`;
    /// HTTP/1.0 requires an explicit `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        let conn = self.header("connection").unwrap_or("");
        if self.minor >= 1 {
            !conn.eq_ignore_ascii_case("close")
        } else {
            conn.eq_ignore_ascii_case("keep-alive")
        }
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the connection before sending any bytes (a
    /// normal keep-alive teardown, not an error).
    Closed,
    /// The socket read timed out before any bytes arrived — the
    /// connection is idle; the caller decides whether to keep waiting.
    Idle,
    /// The bytes on the wire are not a valid HTTP/1.x request (→ 400).
    Malformed(String),
    /// Head or body exceeded the hard size limits (→ 431/413).
    TooLarge(String),
    /// The socket failed mid-request.
    Io(io::Error),
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one line (through `\n`) with a running size budget.
fn read_head_line<R: BufRead>(r: &mut R, budget: &mut usize) -> Result<String, ReadError> {
    let mut line = Vec::new();
    loop {
        let available = match r.fill_buf() {
            Ok(buf) => buf,
            Err(e) if is_timeout(&e) => {
                return Err(ReadError::Malformed("timed out mid-request head".into()));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ReadError::Io(e)),
        };
        if available.is_empty() {
            return Err(ReadError::Malformed("connection closed mid-head".into()));
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.map_or(available.len(), |i| i + 1);
        if take > *budget {
            return Err(ReadError::TooLarge(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        *budget -= take;
        line.extend_from_slice(&available[..take]);
        r.consume(take);
        if newline.is_some() {
            while matches!(line.last(), Some(b'\n' | b'\r')) {
                line.pop();
            }
            return String::from_utf8(line)
                .map_err(|_| ReadError::Malformed("non-UTF-8 request head".into()));
        }
    }
}

/// Decodes `%xx` escapes and `+` in a query component.
fn url_decode(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).unwrap_or("");
                match u8::from_str_radix(hex, 16) {
                    Ok(b) => {
                        out.push(b);
                        i += 2;
                    }
                    Err(_) => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Reads and parses one request from `r`. A timeout or EOF before the
/// request's first byte is [`ReadError::Idle`] or [`ReadError::Closed`]
/// — a keep-alive connection between requests — on every request of a
/// connection, not just its first; once a byte has arrived, a timeout or
/// EOF is a malformed request.
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Request, ReadError> {
    loop {
        match r.fill_buf() {
            Ok([]) => return Err(ReadError::Closed),
            Ok(_) => break,
            Err(e) if is_timeout(&e) => return Err(ReadError::Idle),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ReadError::Io(e)),
        }
    }
    let mut budget = MAX_HEAD_BYTES;
    let request_line = read_head_line(r, &mut budget)?;
    let mut parts = request_line.split_ascii_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Err(ReadError::Malformed(format!(
                "bad request line: {request_line:?}"
            )))
        }
    };
    let minor = match version {
        "HTTP/1.1" => 1,
        "HTTP/1.0" => 0,
        other => {
            return Err(ReadError::Malformed(format!(
                "unsupported version {other:?}"
            )))
        }
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ReadError::Malformed(format!("bad method {method:?}")));
    }
    if !target.starts_with('/') {
        return Err(ReadError::Malformed(format!("bad target {target:?}")));
    }
    let (path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query: Vec<(String, String)> = raw_query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (url_decode(k), url_decode(v)),
            None => (url_decode(kv), String::new()),
        })
        .collect();

    let mut headers = Vec::new();
    loop {
        let line = read_head_line(r, &mut budget)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ReadError::Malformed(format!("bad header line: {line:?}")))?;
        if name.is_empty() || name.contains(' ') {
            return Err(ReadError::Malformed(format!("bad header name: {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }

    let mut request = Request {
        method: method.to_owned(),
        path: path.to_owned(),
        query,
        headers,
        body: Vec::new(),
        minor,
    };
    if request.header("transfer-encoding").is_some() {
        // The daemon never needs chunked *requests*; rejecting them is
        // simpler and safer than desync-prone partial support.
        return Err(ReadError::Malformed(
            "chunked request bodies are not supported".into(),
        ));
    }
    if let Some(len) = request.header("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| ReadError::Malformed(format!("bad content-length {len:?}")))?;
        if len > MAX_BODY_BYTES {
            return Err(ReadError::TooLarge(format!(
                "request body of {len} bytes exceeds {MAX_BODY_BYTES}"
            )));
        }
        let mut body = vec![0u8; len];
        let mut read = 0;
        while read < len {
            match r.read(&mut body[read..]) {
                Ok(0) => return Err(ReadError::Malformed("connection closed mid-body".into())),
                Ok(n) => read += n,
                Err(e) if is_timeout(&e) => {
                    return Err(ReadError::Malformed("timed out mid-body".into()))
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ReadError::Io(e)),
            }
        }
        request.body = body;
    }
    Ok(request)
}

/// Canonical reason phrase for the status codes the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        _ => "Status",
    }
}

/// The write half of one request/response exchange, handed to the
/// server's handler. Exactly one of [`respond`](Responder::respond) /
/// [`begin_chunked`](Responder::begin_chunked) must be called; if the
/// handler returns without responding, the server sends a 500.
pub struct Responder<'a> {
    stream: &'a mut TcpStream,
    keep_alive: bool,
    responded: bool,
    /// A mid-stream write failure (client disconnect): poisons
    /// keep-alive so the connection closes.
    broken: bool,
}

impl<'a> Responder<'a> {
    fn head(
        &mut self,
        status: u16,
        content_type: &str,
        extra: &[(&str, &str)],
        framing: &str,
    ) -> io::Result<()> {
        self.responded = true;
        let mut head = format!(
            "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\n{framing}",
            reason(status)
        );
        for (name, value) in extra {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(if self.keep_alive {
            "connection: keep-alive\r\n\r\n"
        } else {
            "connection: close\r\n\r\n"
        });
        self.stream.write_all(head.as_bytes())
    }

    /// Sends a complete response with a `Content-Length` body.
    pub fn respond(&mut self, status: u16, content_type: &str, body: &[u8]) {
        self.respond_with(status, content_type, &[], body);
    }

    /// [`respond`](Self::respond) with extra response headers.
    pub fn respond_with(
        &mut self,
        status: u16,
        content_type: &str,
        extra: &[(&str, &str)],
        body: &[u8],
    ) {
        let sent = self
            .head(
                status,
                content_type,
                extra,
                &format!("content-length: {}\r\n", body.len()),
            )
            .and_then(|()| self.stream.write_all(body))
            .and_then(|()| self.stream.flush());
        if sent.is_err() {
            self.broken = true;
        }
    }

    /// Starts a chunked (streaming) response. Returns `None` when the
    /// head could not be written (client already gone).
    pub fn begin_chunked(
        &mut self,
        status: u16,
        content_type: &str,
        extra: &[(&str, &str)],
    ) -> Option<ChunkedBody<'_>> {
        match self.head(
            status,
            content_type,
            extra,
            "transfer-encoding: chunked\r\n",
        ) {
            Ok(()) => Some(ChunkedBody {
                stream: self.stream,
                broken: &mut self.broken,
                finished: false,
            }),
            Err(_) => {
                self.broken = true;
                None
            }
        }
    }
}

/// The body of a chunked response. Writes become HTTP chunks; a client
/// disconnect turns further writes into no-ops (the handler keeps
/// running but [`is_broken`](Self::is_broken) reports it so long jobs
/// can stop early). [`finish`](Self::finish) sends the terminal chunk.
pub struct ChunkedBody<'a> {
    stream: &'a mut TcpStream,
    broken: &'a mut bool,
    finished: bool,
}

impl ChunkedBody<'_> {
    /// Sends one chunk (empty input sends nothing — an empty chunk
    /// would terminate the stream).
    pub fn write_chunk(&mut self, data: &[u8]) {
        if *self.broken || data.is_empty() {
            return;
        }
        let frame = format!("{:x}\r\n", data.len());
        let sent = self
            .stream
            .write_all(frame.as_bytes())
            .and_then(|()| self.stream.write_all(data))
            .and_then(|()| self.stream.write_all(b"\r\n"))
            .and_then(|()| self.stream.flush());
        if sent.is_err() {
            *self.broken = true;
        }
    }

    /// Whether the client disconnected mid-stream.
    pub fn is_broken(&self) -> bool {
        *self.broken
    }

    /// Sends the terminal zero-length chunk.
    pub fn finish(mut self) {
        self.finished = true;
        if !*self.broken && self.stream.write_all(b"0\r\n\r\n").is_err() {
            *self.broken = true;
        }
    }
}

impl Drop for ChunkedBody<'_> {
    fn drop(&mut self) {
        // A dropped-unfinished stream must not leave the connection
        // reusable: the client would misparse the next response.
        if !self.finished {
            *self.broken = true;
        }
    }
}

/// A polling HTTP server: one OS thread per connection, keep-alive
/// handled in a per-connection loop, shutdown via a shared flag the
/// accept loop re-checks between polls.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            local_addr,
            shutdown: Arc::new(AtomicBool::new(false)),
            active: Arc::new(AtomicUsize::new(0)),
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shutdown flag: set it (from a signal handler, another
    /// thread, or a test) and [`serve`](Self::serve) returns after
    /// draining live connections.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Accepts connections and dispatches requests to `handler` until
    /// the shutdown flag is set, then waits (bounded) for in-flight
    /// connections to drain. Each connection runs its own keep-alive
    /// loop on its own thread.
    pub fn serve<H>(self, handler: H)
    where
        H: Fn(&Request, &mut Responder) + Send + Sync + 'static,
    {
        let handler = Arc::new(handler);
        while !self.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let handler = Arc::clone(&handler);
                    let shutdown = Arc::clone(&self.shutdown);
                    let active = Arc::clone(&self.active);
                    active.fetch_add(1, Ordering::SeqCst);
                    std::thread::spawn(move || {
                        handle_connection(stream, &*handler, &shutdown);
                        active.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(e) if is_timeout(&e) => std::thread::sleep(Duration::from_millis(20)),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        // Drain: connection threads see the flag at their next read
        // tick; give them a bounded grace period.
        for _ in 0..200 {
            if self.active.load(Ordering::SeqCst) == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// One connection's keep-alive loop.
fn handle_connection<H>(stream: TcpStream, handler: &H, shutdown: &AtomicBool)
where
    H: Fn(&Request, &mut Responder),
{
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let _ = stream.set_nodelay(true);
    let Ok(mut write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut idle_ticks = 0u32;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match read_request(&mut reader) {
            Ok(request) => {
                idle_ticks = 0;
                let keep_alive = request.keep_alive();
                let mut responder = Responder {
                    stream: &mut write_half,
                    keep_alive,
                    responded: false,
                    broken: false,
                };
                handler(&request, &mut responder);
                if !responder.responded {
                    responder.respond(500, "text/plain", b"handler produced no response\n");
                }
                if responder.broken || !keep_alive {
                    return;
                }
            }
            Err(ReadError::Idle) => {
                idle_ticks += 1;
                if idle_ticks > IDLE_TICKS_MAX {
                    return;
                }
            }
            Err(ReadError::Closed) => return,
            Err(ReadError::Malformed(e)) => {
                respond_and_close(&mut write_half, 400, &format!("bad request: {e}\n"));
                return;
            }
            Err(ReadError::TooLarge(e)) => {
                let status = if e.contains("head") { 431 } else { 413 };
                respond_and_close(&mut write_half, status, &format!("{e}\n"));
                return;
            }
            Err(ReadError::Io(_)) => return,
        }
    }
}

/// Answers a request too broken to keep the connection for; the caller
/// closes it.
fn respond_and_close(stream: &mut TcpStream, status: u16, body: &str) {
    let mut responder = Responder {
        stream,
        keep_alive: false,
        responded: false,
        broken: false,
    };
    responder.respond(status, "text/plain", body.as_bytes());
}

/// The matching minimal client: enough to drive the daemon from tests
/// and scripts (fixed bodies, chunked decoding, keep-alive reuse).
pub mod client {
    use super::*;

    /// A parsed response.
    #[derive(Debug, Clone)]
    pub struct ClientResponse {
        /// Status code from the status line.
        pub status: u16,
        /// Header pairs, names lowercased.
        pub headers: Vec<(String, String)>,
        /// The (de-chunked) body.
        pub body: Vec<u8>,
    }

    impl ClientResponse {
        /// First value of a header, by lowercase name.
        pub fn header(&self, name: &str) -> Option<&str> {
            self.headers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.as_str())
        }

        /// The body as UTF-8 text.
        pub fn text(&self) -> String {
            String::from_utf8_lossy(&self.body).into_owned()
        }
    }

    /// A keep-alive client connection.
    pub struct Conn {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Conn {
        /// Connects to `addr`.
        pub fn connect(addr: &SocketAddr) -> io::Result<Conn> {
            let stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(600)))?;
            let writer = stream.try_clone()?;
            Ok(Conn {
                reader: BufReader::new(stream),
                writer,
            })
        }

        /// Sends one request and reads the complete response.
        pub fn send(
            &mut self,
            method: &str,
            target: &str,
            headers: &[(&str, &str)],
            body: &[u8],
        ) -> io::Result<ClientResponse> {
            self.send_head(method, target, headers, body)?;
            self.read_response()
        }

        /// Sends a request without waiting for the response (the
        /// disconnect-mid-stream test hangs up here). Head and body go out
        /// in one write: a second small write would wait on Nagle's
        /// algorithm for the server's delayed ACK, ~40 ms per request.
        pub fn send_head(
            &mut self,
            method: &str,
            target: &str,
            headers: &[(&str, &str)],
            body: &[u8],
        ) -> io::Result<()> {
            let mut head = format!("{method} {target} HTTP/1.1\r\nhost: sia\r\n");
            for (name, value) in headers {
                head.push_str(&format!("{name}: {value}\r\n"));
            }
            head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
            let mut bytes = head.into_bytes();
            bytes.extend_from_slice(body);
            self.send_raw(&bytes)
        }

        /// Sends raw bytes (for malformed-request protocol tests).
        pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.writer.write_all(bytes)?;
            self.writer.flush()
        }

        fn read_line(&mut self) -> io::Result<String> {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed",
                ));
            }
            while line.ends_with('\n') || line.ends_with('\r') {
                line.pop();
            }
            Ok(line)
        }

        /// Reads one response (Content-Length, chunked, or
        /// close-delimited).
        pub fn read_response(&mut self) -> io::Result<ClientResponse> {
            let (status, headers) = self.read_streaming_head()?;
            let header = |name: &str| {
                headers
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| v.as_str())
            };
            let mut body = Vec::new();
            if header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
                loop {
                    let size_line = self.read_line()?;
                    let size = usize::from_str_radix(size_line.trim(), 16).map_err(|_| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("bad chunk size {size_line:?}"),
                        )
                    })?;
                    let mut chunk = vec![0u8; size + 2]; // data + CRLF
                    self.reader.read_exact(&mut chunk)?;
                    if size == 0 {
                        break;
                    }
                    chunk.truncate(size);
                    body.extend_from_slice(&chunk);
                }
            } else if let Some(len) = header("content-length") {
                let len: usize = len.parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
                body = vec![0u8; len];
                self.reader.read_exact(&mut body)?;
            } else {
                self.reader.read_to_end(&mut body)?;
            }
            Ok(ClientResponse {
                status,
                headers,
                body,
            })
        }

        /// Reads a response's status line and headers only (the head of
        /// [`read_response`](Self::read_response), and the way into
        /// incremental consumption of a chunked stream).
        pub fn read_streaming_head(&mut self) -> io::Result<(u16, Vec<(String, String)>)> {
            let status_line = self.read_line()?;
            let status: u16 = status_line
                .split_ascii_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad status line {status_line:?}"),
                    )
                })?;
            let mut headers = Vec::new();
            loop {
                let line = self.read_line()?;
                if line.is_empty() {
                    break;
                }
                if let Some((name, value)) = line.split_once(':') {
                    headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
                }
            }
            Ok((status, headers))
        }
    }

    /// One-shot request on a fresh connection.
    pub fn request(
        addr: &SocketAddr,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<ClientResponse> {
        let mut conn = Conn::connect(addr)?;
        let mut all = headers.to_vec();
        all.push(("connection", "close"));
        conn.send(method, target, &all, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn start_echo_server() -> (SocketAddr, Arc<AtomicBool>) {
        let server = Server::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let flag = server.shutdown_flag();
        std::thread::spawn(move || {
            server.serve(|req, resp| match (req.method.as_str(), req.path.as_str()) {
                ("GET", "/ping") => resp.respond(200, "text/plain", b"pong"),
                ("POST", "/echo") => {
                    let body = req.body.clone();
                    resp.respond_with(200, "application/octet-stream", &[("x-len", "set")], &body)
                }
                ("GET", "/stream") => {
                    if let Some(mut body) = resp.begin_chunked(200, "text/plain", &[]) {
                        for i in 0..5 {
                            body.write_chunk(format!("part-{i}\n").as_bytes());
                        }
                        body.finish();
                    }
                }
                ("GET", _) => resp.respond(404, "text/plain", b"no such path\n"),
                _ => resp.respond(405, "text/plain", b"method not allowed\n"),
            });
        });
        (addr, flag)
    }

    #[test]
    fn fixed_and_chunked_responses_round_trip() {
        let (addr, flag) = start_echo_server();
        let resp = client::request(&addr, "GET", "/ping", &[], b"").expect("ping");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"pong");
        let payload = vec![7u8; 10_000];
        let resp = client::request(&addr, "POST", "/echo", &[], &payload).expect("echo");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, payload);
        assert_eq!(resp.header("x-len"), Some("set"));
        let resp = client::request(&addr, "GET", "/stream", &[], b"").expect("stream");
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.text(),
            "part-0\npart-1\npart-2\npart-3\npart-4\n",
            "chunks reassemble in order"
        );
        flag.store(true, Ordering::SeqCst);
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let (addr, flag) = start_echo_server();
        let mut conn = client::Conn::connect(&addr).expect("connect");
        for i in 0..3 {
            let resp = conn.send("GET", "/ping", &[], b"").expect("request");
            assert_eq!(resp.status, 200, "request {i}");
            assert_eq!(resp.header("connection"), Some("keep-alive"));
        }
        flag.store(true, Ordering::SeqCst);
    }

    /// A keep-alive client may pause longer than one read tick between
    /// requests: the pause is idleness, not a malformed request.
    #[test]
    fn keep_alive_connection_survives_an_idle_pause() {
        let (addr, flag) = start_echo_server();
        let mut conn = client::Conn::connect(&addr).expect("connect");
        let resp = conn.send("POST", "/echo", &[], b"one").expect("first");
        assert_eq!(resp.status, 200);
        std::thread::sleep(Duration::from_millis(600));
        let resp = conn.send("POST", "/echo", &[], b"two").expect("second");
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(resp.body, b"two");
        flag.store(true, Ordering::SeqCst);
    }

    /// Each keep-alive POST costs a loopback round trip, not a delayed
    /// ACK: ten of them finish well under the ~400 ms a split head/body
    /// write costs.
    #[test]
    fn keep_alive_posts_do_not_stall_on_delayed_acks() {
        let (addr, flag) = start_echo_server();
        let mut conn = client::Conn::connect(&addr).expect("connect");
        conn.send("POST", "/echo", &[], b"warmup").expect("warmup");
        let start = std::time::Instant::now();
        for i in 0..10 {
            let resp = conn.send("POST", "/echo", &[], b"{}").expect("post");
            assert_eq!(resp.status, 200, "request {i}");
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(200),
            "10 keep-alive POSTs took {elapsed:?}"
        );
        flag.store(true, Ordering::SeqCst);
    }

    #[test]
    fn errors_get_status_codes_not_panics() {
        let (addr, flag) = start_echo_server();
        // 404 and 405 from the handler.
        assert_eq!(
            client::request(&addr, "GET", "/nope", &[], b"")
                .expect("404")
                .status,
            404
        );
        assert_eq!(
            client::request(&addr, "PUT", "/ping", &[], b"")
                .expect("405")
                .status,
            405
        );
        // Malformed request line: 400 from the server core.
        let mut conn = client::Conn::connect(&addr).expect("connect");
        conn.send_raw(b"NOT A REQUEST\r\n\r\n").expect("send");
        let resp = conn.read_response().expect("400");
        assert_eq!(resp.status, 400);
        // Oversized declared body: 413.
        let mut conn = client::Conn::connect(&addr).expect("connect");
        conn.send_raw(
            format!(
                "POST /echo HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )
            .as_bytes(),
        )
        .expect("send");
        let resp = conn.read_response().expect("413");
        assert_eq!(resp.status, 413);
        flag.store(true, Ordering::SeqCst);
    }

    #[test]
    fn client_disconnect_mid_stream_does_not_kill_the_server() {
        let served = Arc::new(AtomicUsize::new(0));
        let served_in = Arc::clone(&served);
        let server = Server::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let flag = server.shutdown_flag();
        std::thread::spawn(move || {
            server.serve(move |_req, resp| {
                served_in.fetch_add(1, Ordering::SeqCst);
                if let Some(mut body) = resp.begin_chunked(200, "text/plain", &[]) {
                    for _ in 0..100 {
                        body.write_chunk(&[b'x'; 4096]);
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    body.finish();
                }
            });
        });
        // Start a stream and hang up after the head.
        {
            let mut conn = client::Conn::connect(&addr).expect("connect");
            conn.send_head("GET", "/stream", &[], b"").expect("send");
            let (status, _) = conn.read_streaming_head().expect("head");
            assert_eq!(status, 200);
            // Drop: TCP reset mid-stream.
        }
        std::thread::sleep(Duration::from_millis(50));
        // The server survives and serves the next client.
        let resp = client::request(&addr, "GET", "/after", &[], b"").expect("still alive");
        assert_eq!(resp.status, 200);
        assert!(served.load(Ordering::SeqCst) >= 2);
        flag.store(true, Ordering::SeqCst);
    }

    #[test]
    fn shutdown_flag_stops_the_accept_loop() {
        let server = Server::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let flag = server.shutdown_flag();
        let joined = std::thread::spawn(move || {
            server.serve(|_req, resp| resp.respond(200, "text/plain", b"ok"))
        });
        assert_eq!(
            client::request(&addr, "GET", "/", &[], b"")
                .expect("ok")
                .status,
            200
        );
        flag.store(true, Ordering::SeqCst);
        joined.join().expect("serve returns after shutdown");
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The listener socket may linger briefly; a connect that
                // succeeds must at least never be served.
                std::thread::sleep(Duration::from_millis(100));
                true
            }
        );
    }

    #[test]
    fn query_and_header_parsing() {
        let raw = b"POST /v1/sweep?stream=1&grid=defense&x=a%20b HTTP/1.1\r\n\
                    Host: sia\r\nContent-Type: application/json\r\ncontent-length: 2\r\n\r\n{}";
        let mut reader = BufReader::new(&raw[..]);
        let req = read_request(&mut reader).expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/sweep");
        assert!(req.query_flag("stream"));
        assert_eq!(req.query_get("grid"), Some("defense"));
        assert_eq!(req.query_get("x"), Some("a b"));
        assert_eq!(req.header("content-type"), Some("application/json"));
        assert_eq!(req.body, b"{}");
        assert!(req.keep_alive());
    }
}

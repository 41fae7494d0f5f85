//! A deliberately tiny HTTP/1.1 layer on `std::net` — no external
//! dependencies, one request per connection (`Connection: close`).
//! The server side is [`read_request`] and [`Response`]; the client side
//! that tests and campaigns drive the daemon with is [`call`].
//!
//! The parser is written for hostile inputs: header and body sizes are
//! capped, reads carry a socket timeout (so a slow-loris client costs one
//! bounded read, not a wedged thread), and every failure mode maps to a
//! typed [`HttpError`] the server turns into a specific status code
//! instead of a panic or a silent hang.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Maximum bytes of request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum body bytes (larger declared bodies are refused with 413).
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Why a request could not be read. Each variant maps to one response
/// status in the server (`Timeout` → 408, `BodyTooLarge` → 413,
/// `Malformed` → 400, `Disconnected`/`Io` → close without response).
#[derive(Debug)]
pub enum HttpError {
    /// The client went quiet longer than the read timeout (slow-loris).
    Timeout,
    /// Declared or actual body exceeded [`MAX_BODY_BYTES`], or the head
    /// exceeded [`MAX_HEAD_BYTES`].
    BodyTooLarge {
        /// The configured limit that was exceeded.
        limit: usize,
    },
    /// The bytes on the wire are not a parseable HTTP/1.1 request.
    Malformed(&'static str),
    /// The client hung up before the request was complete.
    Disconnected,
    /// Any other socket error.
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Timeout => write!(f, "read timed out"),
            HttpError::BodyTooLarge { limit } => {
                write!(f, "request exceeds the {limit}-byte limit")
            }
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::Disconnected => write!(f, "client disconnected mid-request"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, `DELETE`, …
    pub method: String,
    /// Path without the query string, e.g. `/snapshot`.
    pub path: String,
    /// Query parameters (`?tenant=acme&deadline_ms=500`).
    pub query: BTreeMap<String, String>,
    /// Request headers, names lowercased and values trimmed (later
    /// occurrences of a repeated header win).
    pub headers: BTreeMap<String, String>,
    /// Raw body (UTF-8; JSON endpoints parse it further).
    pub body: String,
}

impl Request {
    /// A query parameter by name.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.get(name).map(String::as_str)
    }

    /// A header by case-insensitive name (e.g. `X-Rasa-Request-Id`).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .get(&name.to_ascii_lowercase())
            .map(String::as_str)
    }
}

/// Read and parse one request from `stream`; a client quieter than
/// `read_timeout` is dropped ([`HttpError::Timeout`]).
pub fn read_request(stream: &mut TcpStream, read_timeout: Duration) -> Result<Request, HttpError> {
    stream
        .set_read_timeout(Some(read_timeout))
        .map_err(HttpError::Io)?;

    // read until the blank line separating head from body
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::BodyTooLarge {
                limit: MAX_HEAD_BYTES,
            });
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(HttpError::Disconnected),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => return Err(HttpError::Timeout),
            Err(e) => return Err(HttpError::Io(e)),
        }
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::Malformed("empty head"))?;
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::Malformed("missing method"))?
        .to_string();
    let target = parts.next().ok_or(HttpError::Malformed("missing target"))?;
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }

    let mut content_length = 0usize;
    let mut headers = BTreeMap::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::Malformed("bad content-length"))?;
        }
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge {
            limit: MAX_BODY_BYTES,
        });
    }

    // body: whatever followed the head in the buffer, plus the rest
    let mut body_bytes = buf[head_end + 4..].to_vec();
    while body_bytes.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => return Err(HttpError::Disconnected),
            Ok(n) => body_bytes.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => return Err(HttpError::Timeout),
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    body_bytes.truncate(content_length);
    let body =
        String::from_utf8(body_bytes).map_err(|_| HttpError::Malformed("body is not UTF-8"))?;

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), BTreeMap::new()),
    };

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn parse_query(q: &str) -> BTreeMap<String, String> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect()
}

/// One response, written with `Connection: close` and a computed
/// `Content-Length`.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond the computed ones.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body,
            content_type: "application/json",
        }
    }

    /// A plain-text response (used by `/metrics`).
    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body,
            content_type: "text/plain; version=0.0.4",
        }
    }

    /// Attach an extra header (e.g. `Retry-After`).
    pub fn with_header(mut self, name: &str, value: String) -> Self {
        self.headers.push((name.to_string(), value));
        self
    }

    /// Serialize onto `stream`. Errors are returned, not panicked — a
    /// client that hung up mid-response is routine.
    pub fn write_to(&self, stream: &mut TcpStream) -> io::Result<()> {
        let mut out = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            out.push_str(name);
            out.push_str(": ");
            out.push_str(value);
            out.push_str("\r\n");
        }
        out.push_str("\r\n");
        out.push_str(&self.body);
        stream.write_all(out.as_bytes())
    }
}

/// Canonical reason phrase for the status codes this daemon emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// A response as [`call`] reads it.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response headers, names lowercased and values trimmed.
    pub headers: BTreeMap<String, String>,
    /// Body text.
    pub body: String,
}

/// The client side: send `method target` with `headers` and `body` on a
/// fresh connection to `addr` and read the reply to EOF (the daemon
/// closes every connection after one response). `read_timeout: None`
/// waits as long as the reply takes.
pub fn call(
    addr: SocketAddr,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &str,
    read_timeout: Option<Duration>,
) -> io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(read_timeout)?;
    let mut request = format!("{method} {target} HTTP/1.1\r\nHost: {addr}\r\n");
    for (name, value) in headers {
        request.push_str(&format!("{name}: {value}\r\n"));
    }
    request.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    stream.write_all(request.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let malformed = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP reply");
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(malformed)?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(malformed)?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok(Reply {
        status,
        headers,
        body: body.to_string(),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    const READ_TIMEOUT: Duration = Duration::from_secs(2);

    fn round_trip(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            // keep the socket open long enough for the reader to finish
            thread::sleep(Duration::from_millis(200));
        });
        let (mut stream, _) = listener.accept().unwrap();
        let result = read_request(&mut stream, READ_TIMEOUT);
        writer.join().unwrap();
        result
    }

    #[test]
    fn parses_a_post_with_query_and_body() {
        let raw =
            b"POST /snapshot?tenant=acme&deadline_ms=250 HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n{\"a\": 1}x";
        let req = round_trip(raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/snapshot");
        assert_eq!(req.param("tenant"), Some("acme"));
        assert_eq!(req.param("deadline_ms"), Some("250"));
        assert_eq!(req.body, "{\"a\": 1}x");
        assert_eq!(req.header("Host"), Some("x"));
    }

    #[test]
    fn headers_are_lowercased_and_values_trimmed() {
        let raw = b"GET /placement HTTP/1.1\r\nX-Rasa-Request-Id:  Req-7 \r\nHost: x\r\n\r\n";
        let req = round_trip(raw).unwrap();
        assert_eq!(req.header("x-rasa-request-id"), Some("Req-7"));
        assert_eq!(req.header("X-RASA-REQUEST-ID"), Some("Req-7"));
        assert_eq!(req.header("absent"), None);
    }

    #[test]
    fn oversized_declared_body_is_refused() {
        let raw = format!(
            "POST /snapshot HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            round_trip(raw.as_bytes()),
            Err(HttpError::BodyTooLarge {
                limit: MAX_BODY_BYTES
            })
        ));
    }

    #[test]
    fn slow_loris_times_out() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET / HT").unwrap();
            thread::sleep(Duration::from_millis(300));
        });
        let (mut stream, _) = listener.accept().unwrap();
        let result = read_request(&mut stream, Duration::from_millis(50));
        assert!(matches!(result, Err(HttpError::Timeout)));
        writer.join().unwrap();
    }

    #[test]
    fn mid_request_disconnect_is_typed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"POST /delta HTTP/1.1\r\nContent-Length: 100\r\n\r\nhalf")
                .unwrap();
            // drop: connection closes with 96 body bytes missing
        });
        let (mut stream, _) = listener.accept().unwrap();
        let result = read_request(&mut stream, READ_TIMEOUT);
        assert!(matches!(result, Err(HttpError::Disconnected)));
        writer.join().unwrap();
    }

    #[test]
    fn garbage_is_malformed_not_a_panic() {
        let raw = b"NONSENSE\r\n\r\n";
        assert!(matches!(round_trip(raw), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn response_wire_format() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        });
        let (mut stream, _) = listener.accept().unwrap();
        Response::json(429, "{\"error\":\"backpressure\"}".to_string())
            .with_header("Retry-After", "3".to_string())
            .write_to(&mut stream)
            .unwrap();
        drop(stream);
        let wire = reader.join().unwrap();
        assert!(wire.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(wire.contains("Retry-After: 3\r\n"));
        assert!(wire.contains("Content-Length: 24\r\n"));
        assert!(wire.ends_with("{\"error\":\"backpressure\"}"));
    }

    #[test]
    fn client_call_round_trips_through_the_server_half() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream, READ_TIMEOUT).unwrap();
            let id = req.header("x-rasa-request-id").unwrap().to_string();
            Response::json(201, format!("{} {} {}", req.method, req.path, req.body))
                .with_header("X-Rasa-Request-Id", id)
                .write_to(&mut stream)
                .unwrap();
        });
        let headers = [("X-Rasa-Request-Id", "id-1")];
        let timeout = Some(Duration::from_secs(5));
        let reply = call(addr, "POST", "/delta?tenant=a", &headers, "{}", timeout).unwrap();
        server.join().unwrap();
        assert_eq!(reply.status, 201);
        assert_eq!(reply.body, "POST /delta {}");
        assert_eq!(reply.headers["x-rasa-request-id"], "id-1");
        assert_eq!(reply.headers["content-type"], "application/json");
    }
}

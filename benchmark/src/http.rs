//! A minimal HTTP/1.1 client for the daemon: one request per connection,
//! as the daemon serves them (`Connection: close`). Each exchange is timed
//! in four client-side phases, which the traced pass records as spans.

use crate::spans::SpanLog;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A completed exchange.
pub struct Exchange {
    pub status: u16,
    pub body: String,
    /// Connect to last response byte.
    pub wall_s: f64,
    /// Connect to first response byte.
    pub first_byte_s: f64,
}

/// Span context of one exchange: the log, the parent span and the round.
#[derive(Clone, Copy)]
pub struct Trace<'a> {
    pub log: &'a SpanLog,
    pub parent: Option<u64>,
    pub round_id: u64,
}

const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Send one request and read the whole response. A short read (fewer body
/// bytes than `Content-Length` announces) is an error.
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &str,
    trace: Option<Trace<'_>>,
) -> Result<Exchange, String> {
    let phase = |name: &str| trace.map(|t| (t.log, t.log.start(name, t.parent, t.round_id)));
    let done = |p: Option<(&SpanLog, crate::spans::SpanId)>| {
        if let Some((log, id)) = p {
            log.end(id);
        }
    };
    let started = Instant::now();

    let p = phase("connect");
    let mut stream =
        TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| format!("socket timeout: {e}"))?;
    done(p);

    let p = phase("send");
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: benchmark\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("send: {e}"))?;
    done(p);

    let p = phase("wait");
    let mut raw = Vec::with_capacity(4096);
    let mut first = [0u8; 1];
    stream
        .read_exact(&mut first)
        .map_err(|e| format!("first byte: {e}"))?;
    raw.push(first[0]);
    let first_byte_s = started.elapsed().as_secs_f64();
    done(p);

    let p = phase("read");
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    done(p);
    let wall_s = started.elapsed().as_secs_f64();

    let text = String::from_utf8(raw).map_err(|e| format!("response is not UTF-8: {e}"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "response has no header terminator".to_string())?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "response has no status".to_string())?;
    let announced: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .ok_or_else(|| "response has no Content-Length".to_string())?;
    if body.len() != announced {
        return Err(format!(
            "short read: {} body bytes of {announced}",
            body.len()
        ));
    }
    Ok(Exchange {
        status,
        body: body.to_string(),
        wall_s,
        first_byte_s,
    })
}

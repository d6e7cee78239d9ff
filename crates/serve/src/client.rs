//! A tiny blocking HTTP/1.1 client for talking to a [`crate::Server`].
//!
//! The server closes the connection after every response, so bodies are
//! read to EOF — no chunked decoding, no keep-alive. This is what the
//! CLI's `submit`, `shutdown` and `top` commands use, and what CI smoke
//! tests drive the daemon with (no curl dependency).
//!
//! Failures are typed ([`ClientError`]): a refused connection, a
//! per-attempt timeout and a connection dropped mid-body are different
//! events with different retry semantics. Idempotent requests (GETs)
//! retry transient kinds with *deterministic* exponential backoff — a
//! fixed delay ladder, no jitter — so client runs remain reproducible.

use casyn_obs::json::JsonValue;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A parsed HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (close-delimited).
    pub body: String,
}

impl Response {
    /// Parses the body as JSON.
    pub fn json(&self) -> Result<JsonValue, String> {
        JsonValue::parse(&self.body).map_err(|e| format!("bad response body: {e}"))
    }
}

/// What went wrong with one request, after any retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientErrorKind {
    /// The server actively refused the connection (nothing listening).
    ConnectRefused,
    /// Any other connect failure (unreachable, DNS, ...).
    Connect,
    /// The per-attempt read deadline expired before a full response.
    Timeout,
    /// The connection closed before a complete response arrived —
    /// either before any bytes, or mid-body with fewer bytes than the
    /// declared `Content-Length`.
    MidBodyEof,
    /// Writing the request failed and no response was readable.
    SendFailed,
    /// A complete-looking response that could not be parsed.
    Malformed,
}

impl ClientErrorKind {
    /// Whether retrying can help, *given an idempotent request*. A
    /// malformed response is a server bug, not a transient.
    fn transient(self) -> bool {
        !matches!(self, ClientErrorKind::Malformed)
    }
}

/// A typed client failure: the kind, the peer, how many attempts were
/// made, and the underlying detail.
#[derive(Debug, Clone)]
pub struct ClientError {
    /// What class of failure this is.
    pub kind: ClientErrorKind,
    /// The address the request targeted.
    pub addr: String,
    /// Attempts performed (1 = no retry happened).
    pub attempts: u32,
    /// Human-readable detail from the failing operation.
    pub detail: String,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            ClientErrorKind::ConnectRefused => "connection refused",
            ClientErrorKind::Connect => "connect failed",
            ClientErrorKind::Timeout => "timed out",
            ClientErrorKind::MidBodyEof => "connection closed mid-response",
            ClientErrorKind::SendFailed => "send failed",
            ClientErrorKind::Malformed => "malformed response",
        };
        write!(f, "{}: {kind} after {} attempt(s): {}", self.addr, self.attempts, self.detail)
    }
}

impl std::error::Error for ClientError {}

/// Retry schedule for idempotent requests: `attempts` tries total, with
/// a deterministic exponential delay ladder between them
/// (`base * 2^i`, capped at `max_delay`) — no randomness, so two
/// identical client runs issue identical request timelines.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retries).
    pub attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
    /// Per-attempt socket read/write timeout.
    pub attempt_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            attempt_timeout: Duration::from_secs(120),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (for non-idempotent requests).
    pub fn none() -> Self {
        RetryPolicy { attempts: 1, ..Default::default() }
    }

    /// The deterministic delay before retry `i` (0-based).
    pub fn delay(&self, i: u32) -> Duration {
        let exp = self.base_delay.saturating_mul(1u32 << i.min(20));
        exp.min(self.max_delay)
    }
}

/// Sends `raw` bytes to `addr` and reads the response to EOF — one
/// attempt, no retries, `timeout` bounding each socket operation.
pub fn raw_once(addr: &str, raw: &str, timeout: Duration) -> Result<Response, ClientError> {
    let err = |kind: ClientErrorKind, detail: String| ClientError {
        kind,
        addr: addr.to_string(),
        attempts: 1,
        detail,
    };
    let mut stream = TcpStream::connect(addr).map_err(|e| {
        let kind = if e.kind() == std::io::ErrorKind::ConnectionRefused {
            ClientErrorKind::ConnectRefused
        } else {
            ClientErrorKind::Connect
        };
        err(kind, e.to_string())
    })?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| err(ClientErrorKind::Connect, format!("socket: {e}")))?;
    // The server may respond and close before the whole request is
    // written (413 refuses oversized bodies up front), which can fail the
    // write or reset the read mid-flight — surface those errors only when
    // no response arrived at all.
    let send_err = stream.write_all(raw.as_bytes()).err();
    let mut bytes = Vec::with_capacity(4096);
    let read_err = stream.read_to_end(&mut bytes).err();
    let timed_out = read_err.as_ref().is_some_and(|e| {
        matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
    });
    if bytes.is_empty() {
        return Err(match (send_err, read_err) {
            (Some(se), _) => err(ClientErrorKind::SendFailed, format!("send failed: {se}")),
            (None, Some(_)) if timed_out => {
                err(ClientErrorKind::Timeout, format!("no response within {timeout:?}"))
            }
            (None, Some(e)) => err(ClientErrorKind::MidBodyEof, format!("read failed: {e}")),
            (None, None) => err(
                ClientErrorKind::MidBodyEof,
                "connection closed before any response bytes".into(),
            ),
        });
    }
    // a read error after some bytes ends the response like EOF, unless
    // the peer stalled
    if timed_out {
        let detail = format!("response stalled after {} bytes", bytes.len());
        return Err(err(ClientErrorKind::Timeout, detail));
    }
    let text = String::from_utf8(bytes)
        .map_err(|e| err(ClientErrorKind::Malformed, format!("non-UTF-8 response: {e}")))?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or_else(|| {
        err(ClientErrorKind::MidBodyEof, "connection closed inside the response head".into())
    })?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| err(ClientErrorKind::Malformed, "bad status line".into()))?;
    // a declared Content-Length makes mid-body truncation detectable
    if let Some(expect) = head
        .lines()
        .find_map(|l| l.split_once(':').filter(|(k, _)| k.eq_ignore_ascii_case("content-length")))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
    {
        if body.len() < expect {
            return Err(err(
                ClientErrorKind::MidBodyEof,
                format!("body truncated at {} of {expect} bytes", body.len()),
            ));
        }
    }
    Ok(Response { status, body: body.to_string() })
}

/// Sends `raw` bytes with the default single-attempt policy. Kept for
/// callers that manage retries themselves.
pub fn raw(addr: &str, raw_text: &str) -> Result<Response, String> {
    raw_once(addr, raw_text, RetryPolicy::default().attempt_timeout).map_err(|e| e.to_string())
}

fn format_request(addr: &str, method: &str, path: &str, body: Option<&str>) -> String {
    let body = body.unwrap_or("");
    format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Performs one request under `policy`. Only idempotent methods (GET)
/// retry; everything else gets exactly one attempt regardless of the
/// policy, because a resubmitted POST could double-admit jobs.
pub fn request_with(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    policy: &RetryPolicy,
) -> Result<Response, ClientError> {
    let text = format_request(addr, method, path, body);
    let attempts = if method == "GET" { policy.attempts.max(1) } else { 1 };
    let mut attempt = 1;
    loop {
        match raw_once(addr, &text, policy.attempt_timeout) {
            Ok(r) => return Ok(r),
            Err(e) if attempt < attempts && e.kind.transient() => {
                std::thread::sleep(policy.delay(attempt - 1));
                attempt += 1;
            }
            Err(e) => return Err(ClientError { attempts: attempt, ..e }),
        }
    }
}

/// Performs one request (`GET /jobs/3`, `POST /jobs` + manifest, ...)
/// with the default retry policy (GETs retry transient failures).
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<Response, String> {
    request_with(addr, method, path, body, &RetryPolicy::default()).map_err(|e| e.to_string())
}

/// [`request`] plus JSON parsing of the body.
pub fn request_json(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, JsonValue), String> {
    let r = request(addr, method, path, body)?;
    let doc = r.json()?;
    Ok((r.status, doc))
}

/// Polls `GET /healthz` until the server answers 200 or `timeout`
/// expires. Used by CI smoke tests after daemonizing the server.
pub fn wait_ready(addr: &str, timeout: Duration) -> Result<(), String> {
    let t0 = Instant::now();
    let policy =
        RetryPolicy { attempts: 1, attempt_timeout: Duration::from_secs(5), ..Default::default() };
    loop {
        if let Ok(r) = request_with(addr, "GET", "/healthz", None, &policy) {
            if r.status == 200 {
                return Ok(());
            }
        }
        if t0.elapsed() > timeout {
            return Err(format!("server at {addr} not ready after {timeout:?}"));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;
    use std::thread;

    #[test]
    fn backoff_ladder_is_deterministic_and_capped() {
        let p = RetryPolicy {
            attempts: 6,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_millis(300),
            attempt_timeout: Duration::from_secs(1),
        };
        let delays: Vec<u64> = (0..5).map(|i| p.delay(i).as_millis() as u64).collect();
        assert_eq!(delays, vec![50, 100, 200, 300, 300], "base*2^i capped at max");
        // and it is a pure function — same ladder every time
        assert_eq!(p.delay(2), p.delay(2));
    }

    #[test]
    fn connect_refused_is_typed_and_counted() {
        // bind-then-drop leaves a port with nothing listening
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let policy = RetryPolicy {
            attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
            attempt_timeout: Duration::from_millis(200),
        };
        let e = request_with(&addr, "GET", "/healthz", None, &policy).unwrap_err();
        assert_eq!(e.kind, ClientErrorKind::ConnectRefused);
        assert_eq!(e.attempts, 3, "idempotent GETs exhaust the retry budget");
    }

    #[test]
    fn post_never_retries() {
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let policy = RetryPolicy {
            attempts: 5,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(1),
            attempt_timeout: Duration::from_millis(200),
        };
        let e = request_with(&addr, "POST", "/jobs", Some("{}"), &policy).unwrap_err();
        assert_eq!(e.attempts, 1, "a POST must not be resubmitted");
    }

    /// A server that closes mid-body is distinguishable from one that
    /// refused the connection.
    #[test]
    fn mid_body_eof_is_typed() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap().to_string();
        let server = thread::spawn(move || {
            for _ in 0..2 {
                let (mut s, _) = l.accept().unwrap();
                let mut buf = [0u8; 1024];
                let _ = std::io::Read::read(&mut s, &mut buf);
                // claim 100 bytes, deliver 5, hang up
                let _ = s.write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\nConnection: close\r\n\r\nhello",
                );
            }
        });
        let policy = RetryPolicy {
            attempts: 2,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(1),
            attempt_timeout: Duration::from_millis(500),
        };
        let e = request_with(&addr, "GET", "/x", None, &policy).unwrap_err();
        assert_eq!(e.kind, ClientErrorKind::MidBodyEof);
        assert_eq!(e.attempts, 2, "mid-body EOF is transient for a GET");
        server.join().unwrap();
    }
}

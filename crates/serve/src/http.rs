//! Minimal HTTP/1.1 request parsing and response writing.
//!
//! Deliberately small: one request per connection (`Connection: close`
//! on every response), bodies delimited by `Content-Length` only.
//! `Transfer-Encoding: chunked` is rejected up front with 411 — the
//! service wants a declared length so it can refuse oversized bodies
//! (413) before reading them.

use casyn_obs::json::JsonValue;
use std::io::{Read, Write};
use std::net::TcpStream;

/// Maximum size of the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Query string after `?` (empty when absent).
    pub query: String,
    /// Header name → value, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (`Content-Length` delimited).
    pub body: Vec<u8>,
}

impl Request {
    /// The value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// True when the query string contains `key=1` or a bare `key`.
    pub fn query_flag(&self, key: &str) -> bool {
        self.query.split('&').any(|p| p == key || p == format!("{key}=1"))
    }

    /// The value of query parameter `key` (`?key=value`), if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|p| {
            let (k, v) = p.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// A typed HTTP failure, rendered as a JSON error response.
#[derive(Debug, Clone)]
pub struct HttpError {
    /// HTTP status code.
    pub status: u16,
    /// Human-readable message (the response body's `error` field).
    pub message: String,
    /// Seconds to wait before retrying (a `Retry-After` header); set by
    /// overload shedding so well-behaved clients back off.
    pub retry_after: Option<u64>,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        HttpError { status, message: message.into(), retry_after: None }
    }
    pub fn bad_request(msg: impl Into<String>) -> Self {
        HttpError::new(400, msg)
    }
    pub fn not_found(msg: impl Into<String>) -> Self {
        HttpError::new(404, msg)
    }
    pub fn method_not_allowed() -> Self {
        HttpError::new(405, "method not allowed")
    }
    pub fn conflict(msg: impl Into<String>) -> Self {
        HttpError::new(409, msg)
    }
    pub fn gone(msg: impl Into<String>) -> Self {
        HttpError::new(410, msg)
    }
    pub fn length_required() -> Self {
        HttpError::new(411, "chunked transfer encoding is not supported; send Content-Length")
    }
    pub fn too_large(limit: usize) -> Self {
        HttpError::new(413, format!("body exceeds the {limit} byte limit"))
    }
    pub fn backpressure(msg: impl Into<String>) -> Self {
        HttpError::new(429, msg)
    }
    pub fn unavailable(msg: impl Into<String>) -> Self {
        HttpError::new(503, msg)
    }
    /// Adds a `Retry-After: secs` header to the rendered response.
    pub fn with_retry_after(mut self, secs: u64) -> Self {
        self.retry_after = Some(secs);
        self
    }
}

/// The standard reason phrase for the status codes this service emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        410 => "Gone",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reads and parses one request from `stream`. Bodies longer than
/// `max_body` are refused with 413 *before* being read, so a hostile
/// client cannot make the server buffer them.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, HttpError> {
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 4096];
    let head_end = loop {
        if let Some(i) = find_head_end(&buf) {
            break i;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::bad_request("request head too large"));
        }
        let n = stream
            .read(&mut tmp)
            .map_err(|e| HttpError::bad_request(format!("read failed: {e}")))?;
        if n == 0 {
            return Err(HttpError::bad_request("truncated request"));
        }
        buf.extend_from_slice(&tmp[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or_else(|| HttpError::bad_request("missing method"))?.to_string();
    let target = parts.next().ok_or_else(|| HttpError::bad_request("missing path"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut headers = Vec::new();
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    let req_head = Request { method, path, query, headers, body: Vec::new() };
    if req_head.header("transfer-encoding").is_some() {
        return Err(HttpError::length_required());
    }
    let content_length: usize = match req_head.header("content-length") {
        None => 0,
        Some(v) => v.parse().map_err(|_| HttpError::bad_request("bad Content-Length"))?,
    };
    if content_length > max_body {
        return Err(HttpError::too_large(max_body));
    }
    let mut body = buf[head_end + 4..].to_vec();
    body.truncate(content_length);
    let want = content_length - body.len();
    body.reserve_exact(want);
    stream
        .take(want as u64)
        .read_to_end(&mut body)
        .map_err(|e| HttpError::bad_request(format!("body read failed: {e}")))?;
    if body.len() < content_length {
        return Err(HttpError::bad_request("truncated body"));
    }
    Ok(Request { body, ..req_head })
}

/// Writes one response with `Content-Length`, `Connection: close` and
/// `extra_headers` (name, value). Returns the body size in bytes (for the
/// access log).
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    extra_headers: &[(String, String)],
) -> std::io::Result<usize> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        status_reason(status),
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    Ok(body.len())
}

/// [`respond`] with a pretty-printed JSON document.
pub fn respond_json(
    stream: &mut TcpStream,
    status: u16,
    doc: &JsonValue,
    extra_headers: &[(String, String)],
) -> std::io::Result<usize> {
    respond(stream, status, "application/json", &doc.to_string_pretty(), extra_headers)
}

/// Writes an [`HttpError`] as a JSON response (including its
/// `Retry-After` header when set). Returns the body size in bytes.
pub fn respond_error(stream: &mut TcpStream, err: &HttpError) -> std::io::Result<usize> {
    let mut doc = vec![
        ("error".into(), JsonValue::Str(err.message.clone())),
        ("status".into(), JsonValue::Number(err.status as f64)),
    ];
    let mut headers = Vec::new();
    if let Some(secs) = err.retry_after {
        doc.push(("retry_after_s".into(), JsonValue::Number(secs as f64)));
        headers.push(("Retry-After".to_string(), secs.to_string()));
    }
    respond_json(stream, err.status, &JsonValue::object(doc), &headers)
}

/// Starts a close-delimited NDJSON stream (no `Content-Length`; the
/// stream ends when the connection closes). Used by `/jobs/<id>/events`.
pub fn start_ndjson_stream(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n",
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    fn roundtrip(raw: &str, max_body: usize) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let r = read_request(&mut conn, max_body);
        writer.join().unwrap();
        r
    }

    #[test]
    fn parses_request_with_body() {
        let r = roundtrip(
            "POST /jobs?wait=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd",
            1024,
        )
        .unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/jobs");
        assert!(r.query_flag("wait"));
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.body, b"abcd");
    }

    #[test]
    fn query_param_extracts_values() {
        let r = roundtrip("GET /metrics?format=prom&wait HTTP/1.1\r\nHost: x\r\n\r\n", 16).unwrap();
        assert_eq!(r.query_param("format"), Some("prom"));
        assert_eq!(r.query_param("wait"), None, "bare flags have no value");
        assert_eq!(r.query_param("absent"), None);
        assert!(r.query_flag("wait"));
    }

    #[test]
    fn rejects_chunked_with_411() {
        let e = roundtrip(
            "POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nabcd\r\n0\r\n\r\n",
            1024,
        )
        .unwrap_err();
        assert_eq!(e.status, 411);
    }

    #[test]
    fn rejects_oversized_with_413_before_reading_body() {
        let e = roundtrip("POST /jobs HTTP/1.1\r\nContent-Length: 999\r\n\r\n", 16).unwrap_err();
        assert_eq!(e.status, 413);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(roundtrip("\r\n\r\n", 16).unwrap_err().status, 400);
        let e = roundtrip("GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 16).unwrap_err();
        assert_eq!(e.status, 400);
    }
}

//! A minimal incremental HTTP/1.1 request parser and response writer.
//!
//! The build environment has no registry access, so the gateway speaks
//! HTTP/1.1 over `std::net` with a hand-rolled parser. It supports exactly
//! what the gateway needs — one request per connection, `Content-Length`
//! bodies — and fails closed on everything else:
//!
//! * header section over 16 KiB → 431;
//! * body over 1 MiB → 413;
//! * malformed request line or header → 400;
//! * `Transfer-Encoding: chunked` → 501.
//!
//! The parser is incremental: [`HttpParser::feed`] accepts arbitrary read
//! slices (bytes may split anywhere, including mid-token) and returns
//! `Ok(None)` until a full request is buffered. Both CRLF and bare-LF line
//! endings are accepted. A property test drives it with arbitrary header
//! orders and split points.

use std::fmt;

/// Maximum request-line + headers size.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum body size.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, as sent (e.g. `GET`).
    pub method: String,
    /// Request target (path + query), as sent.
    pub target: String,
    /// Protocol version (e.g. `HTTP/1.1`).
    pub(crate) version: String,
    /// Headers in arrival order, names lower-cased.
    pub(crate) headers: Vec<(String, String)>,
    /// Request body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// First header value under `name` (case-insensitive lookup).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed; maps onto a 4xx/5xx status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpError {
    /// Syntactically invalid request line, header or length (400).
    BadRequest(&'static str),
    /// Header section exceeded [`MAX_HEAD_BYTES`] (431).
    HeadersTooLarge,
    /// Declared body exceeded [`MAX_BODY_BYTES`] (413).
    BodyTooLarge,
    /// A feature this parser does not speak, e.g. chunked bodies (501).
    NotImplemented(&'static str),
}

impl HttpError {
    /// `(status code, reason phrase)` for the error response.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::BadRequest(_) => (400, "Bad Request"),
            HttpError::HeadersTooLarge => (431, "Request Header Fields Too Large"),
            HttpError::BodyTooLarge => (413, "Payload Too Large"),
            HttpError::NotImplemented(_) => (501, "Not Implemented"),
        }
    }

    /// Human-readable detail for the error body.
    pub(crate) fn detail(&self) -> &'static str {
        match self {
            HttpError::BadRequest(d) | HttpError::NotImplemented(d) => d,
            HttpError::HeadersTooLarge => "header section too large",
            HttpError::BodyTooLarge => "body too large",
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (code, reason) = self.status();
        write!(f, "{code} {reason}: {}", self.detail())
    }
}

/// Incremental request parser; see module docs.
#[derive(Debug, Default)]
pub struct HttpParser {
    buf: Vec<u8>,
    /// Parsed head, once the terminator was seen.
    head: Option<HttpRequest>,
    /// Declared body length (valid once `head` is set).
    body_len: usize,
    /// Bytes of `buf` consumed by the head section.
    body_start: usize,
}

impl HttpParser {
    /// An empty parser.
    pub fn new() -> HttpParser {
        HttpParser::default()
    }

    /// Buffers `data` and attempts to complete a request. Returns
    /// `Ok(None)` until more bytes are needed; errors are terminal (the
    /// connection should answer with [`HttpError::status`] and close).
    pub fn feed(&mut self, data: &[u8]) -> Result<Option<HttpRequest>, HttpError> {
        self.buf.extend_from_slice(data);
        if self.head.is_none() {
            let Some(head_end) = find_head_end(&self.buf) else {
                if self.buf.len() > MAX_HEAD_BYTES {
                    return Err(HttpError::HeadersTooLarge);
                }
                return Ok(None);
            };
            if head_end.head_len > MAX_HEAD_BYTES {
                return Err(HttpError::HeadersTooLarge);
            }
            let head_bytes = self.buf[..head_end.head_len].to_vec();
            let text = String::from_utf8(head_bytes)
                .map_err(|_| HttpError::BadRequest("head is not valid UTF-8"))?;
            let req = parse_head(&text)?;
            self.body_len = declared_body_len(&req)?;
            if self.body_len > MAX_BODY_BYTES {
                return Err(HttpError::BodyTooLarge);
            }
            self.body_start = head_end.total_len;
            self.head = Some(req);
        }
        let have = self.buf.len().saturating_sub(self.body_start);
        if have < self.body_len {
            return Ok(None);
        }
        let mut req = self.head.take().expect("head parsed above");
        req.body = self.buf[self.body_start..self.body_start + self.body_len].to_vec();
        Ok(Some(req))
    }
}

struct HeadEnd {
    /// Length of the head text itself (excludes the blank-line terminator).
    head_len: usize,
    /// Length including the terminator (body starts here).
    total_len: usize,
}

/// Finds the head terminator: `\r\n\r\n` or `\n\n` (whichever comes
/// first), tolerating mixed endings.
fn find_head_end(buf: &[u8]) -> Option<HeadEnd> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            // Candidate terminators: "\n\r\n" and "\n\n".
            if buf.len() > i + 2 && buf[i + 1] == b'\r' && buf[i + 2] == b'\n' {
                return Some(HeadEnd {
                    head_len: i + 1,
                    total_len: i + 3,
                });
            }
            if buf.len() > i + 1 && buf[i + 1] == b'\n' {
                return Some(HeadEnd {
                    head_len: i + 1,
                    total_len: i + 2,
                });
            }
        }
        i += 1;
    }
    None
}

fn parse_head(text: &str) -> Result<HttpRequest, HttpError> {
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines
        .next()
        .ok_or(HttpError::BadRequest("empty request"))?;
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let method = parts
        .next()
        .ok_or(HttpError::BadRequest("missing method"))?;
    let target = parts
        .next()
        .ok_or(HttpError::BadRequest("missing request target"))?;
    let version = parts
        .next()
        .ok_or(HttpError::BadRequest("missing HTTP version"))?;
    if parts.next().is_some() {
        return Err(HttpError::BadRequest("malformed request line"));
    }
    if !version.starts_with("HTTP/") {
        return Err(HttpError::BadRequest("bad HTTP version"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_alphabetic()) {
        return Err(HttpError::BadRequest("bad method"));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // the terminator's blank line
        }
        let colon = line
            .find(':')
            .ok_or(HttpError::BadRequest("header line without colon"))?;
        let (name, value) = line.split_at(colon);
        if name.is_empty() {
            return Err(HttpError::BadRequest("empty header name"));
        }
        headers.push((
            name.trim().to_ascii_lowercase(),
            value[1..].trim().to_string(),
        ));
    }
    Ok(HttpRequest {
        method: method.to_string(),
        target: target.to_string(),
        version: version.to_string(),
        headers,
        body: Vec::new(),
    })
}

fn declared_body_len(req: &HttpRequest) -> Result<usize, HttpError> {
    if let Some(te) = req.header("transfer-encoding") {
        if !te.eq_ignore_ascii_case("identity") {
            return Err(HttpError::NotImplemented("transfer-encoding not supported"));
        }
    }
    match req.header("content-length") {
        None => Ok(0),
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::BadRequest("invalid content-length")),
    }
}

/// Serializes a complete response with `Connection: close` and a
/// `Content-Length` body.
pub(crate) fn response(
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    extra_headers: &[(&str, &str)],
) -> Vec<u8> {
    let mut out = String::with_capacity(128 + body.len());
    out.push_str(&format!("HTTP/1.1 {status} {reason}\r\n"));
    out.push_str(&format!("Content-Type: {content_type}\r\n"));
    out.push_str(&format!("Content-Length: {}\r\n", body.len()));
    for (n, v) in extra_headers {
        out.push_str(&format!("{n}: {v}\r\n"));
    }
    out.push_str("Connection: close\r\n\r\n");
    out.push_str(body);
    out.into_bytes()
}

/// Serializes the response head for an SSE stream (no `Content-Length`;
/// the connection close delimits the stream).
pub(crate) fn sse_head() -> Vec<u8> {
    b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n".to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(bytes: &[u8]) -> Result<Option<HttpRequest>, HttpError> {
        HttpParser::new().feed(bytes)
    }

    #[test]
    fn parses_a_simple_get() {
        let req = parse_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body_split_across_feeds() {
        let raw = b"POST /v1/completions HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world";
        for cut in 0..raw.len() {
            let mut p = HttpParser::new();
            let first = p.feed(&raw[..cut]).unwrap();
            assert!(first.is_none() || cut == raw.len());
            let req = p.feed(&raw[cut..]).unwrap().expect("complete at end");
            assert_eq!(req.body, b"hello world");
        }
    }

    #[test]
    fn bare_lf_line_endings_are_accepted() {
        let req = parse_all(b"GET / HTTP/1.1\nHost: y\n\n").unwrap().unwrap();
        assert_eq!(req.header("host"), Some("y"));
    }

    #[test]
    fn header_names_are_case_insensitive() {
        let req = parse_all(b"GET / HTTP/1.1\r\ncOnTent-LENGTH: 0\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.header("Content-Length"), Some("0"));
    }

    #[test]
    fn oversized_head_is_431() {
        let mut p = HttpParser::new();
        let mut line = Vec::from(&b"GET / HTTP/1.1\r\n"[..]);
        line.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        assert_eq!(p.feed(&line), Err(HttpError::HeadersTooLarge));
    }

    #[test]
    fn oversized_body_is_413() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(parse_all(raw.as_bytes()), Err(HttpError::BodyTooLarge));
    }

    #[test]
    fn chunked_transfer_is_501() {
        let raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert_eq!(
            parse_all(raw),
            Err(HttpError::NotImplemented("transfer-encoding not supported"))
        );
    }

    #[test]
    fn malformed_requests_are_400() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            &b"GET /\r\n\r\n"[..],
            &b"GET / NOTHTTP\r\n\r\n"[..],
            &b"G=T / HTTP/1.1\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nbadheader\r\n\r\n"[..],
            &b"POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n"[..],
        ] {
            match parse_all(raw) {
                Err(HttpError::BadRequest(_)) => {}
                other => panic!("expected 400 for {raw:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn response_writer_includes_length_and_close() {
        let bytes = response(429, "Too Many Requests", "text/plain", "slow down\n", &[("Retry-After", "2")]);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("Content-Length: 10\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("slow down\n"));
    }

    #[test]
    fn errors_render_status_and_detail() {
        let cases = [
            (HttpError::BadRequest("bad request line"), "400 Bad Request: bad request line"),
            (
                HttpError::HeadersTooLarge,
                "431 Request Header Fields Too Large: header section too large",
            ),
            (HttpError::BodyTooLarge, "413 Payload Too Large: body too large"),
            (
                HttpError::NotImplemented("chunked bodies"),
                "501 Not Implemented: chunked bodies",
            ),
        ];
        for (err, want) in cases {
            assert_eq!(err.to_string(), want);
        }
    }

    #[test]
    fn sse_head_opens_an_undelimited_event_stream() {
        let head = String::from_utf8(sse_head()).unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(head.ends_with("\r\n\r\n"));
        assert_eq!(head.matches("\r\n\r\n").count(), 1, "one blank line ends the head");
        let lower = head.to_ascii_lowercase();
        assert!(lower.contains("content-type: text/event-stream\r\n"));
        assert!(lower.contains("connection: close\r\n"));
        assert!(!lower.contains("content-length"), "close delimits the stream");
    }
}

//! A small blocking HTTP/1.1 client over `std::net` for the load harness
//! and integration tests (one request per connection, `Connection: close`).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A buffered, non-streaming response.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers in arrival order, names lower-cased.
    pub(crate) headers: Vec<(String, String)>,
    /// Whole body (read to EOF).
    pub(crate) body: Vec<u8>,
}

impl Response {
    /// First header value under `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<()> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: gateway\r\nConnection: close\r\n");
    if let Some(b) = body {
        head.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            b.len()
        ));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    if let Some(b) = body {
        stream.write_all(b.as_bytes())?;
    }
    stream.flush()
}

fn read_head(reader: &mut BufReader<TcpStream>) -> std::io::Result<(u16, Vec<(String, String)>)> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(colon) = line.find(':') {
            headers.push((
                line[..colon].trim().to_ascii_lowercase(),
                line[colon + 1..].trim().to_string(),
            ));
        }
    }
    Ok((status, headers))
}

/// Sends one request and reads the whole response (suits non-streaming
/// endpoints; also usable on SSE endpoints when only the final transcript
/// matters).
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write_request(&mut stream, method, path, body)?;
    let mut reader = BufReader::new(stream);
    let (status, headers) = read_head(&mut reader)?;
    let mut body = Vec::new();
    reader.read_to_end(&mut body)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// An open SSE response being read incrementally (for first-token /
/// inter-token latency measurements).
pub struct SseStream {
    /// Status code of the response head.
    pub status: u16,
    /// Response headers.
    pub(crate) headers: Vec<(String, String)>,
    reader: BufReader<TcpStream>,
}

impl SseStream {
    /// Opens a POST and reads the response head; the body is then consumed
    /// event by event via [`SseStream::next_data`].
    pub fn post(
        addr: SocketAddr,
        path: &str,
        body: &str,
        timeout: Duration,
    ) -> std::io::Result<SseStream> {
        let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        write_request(&mut stream, "POST", path, Some(body))?;
        let mut reader = BufReader::new(stream);
        let (status, headers) = read_head(&mut reader)?;
        Ok(SseStream {
            status,
            headers,
            reader,
        })
    }

    /// First header value under `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Next `data:` payload, or `None` at end of stream. Non-`data` lines
    /// are skipped.
    pub fn next_data(&mut self) -> std::io::Result<Option<String>> {
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Ok(None);
            }
            let line = line.trim_end();
            if let Some(payload) = line.strip_prefix("data:") {
                return Ok(Some(payload.trim_start().to_string()));
            }
        }
    }
}

//! Server-Sent Events framing (the OpenAI streaming convention).
//!
//! Each payload is one `data: <json>\n\n` frame; the stream ends with the
//! literal `data: [DONE]\n\n` sentinel followed by connection close.

/// Frames one payload as an SSE data event.
pub fn event(payload: &str) -> String {
    format!("data: {payload}\n\n")
}

/// The terminal sentinel frame.
pub const DONE_FRAME: &str = "data: [DONE]\n\n";

/// The sentinel payload (what [`SseScanner`] yields for the final frame).
pub const DONE: &str = "[DONE]";

/// Incremental SSE scanner for nonblocking clients: feed arbitrary byte
/// chunks (however the socket split them) and collect complete `data:`
/// payloads as they close. Frames are separated by blank lines; non-`data:`
/// fields are ignored. Equivalent to a batch parse of the concatenation of
/// all chunks, minus any trailing unterminated line.
#[derive(Debug, Default)]
pub struct SseScanner {
    partial: Vec<u8>,
}

impl SseScanner {
    /// A scanner with no buffered partial line.
    pub fn new() -> SseScanner {
        SseScanner::default()
    }

    /// Consume one chunk, appending any newly completed payloads to `out`.
    pub fn feed(&mut self, chunk: &[u8], out: &mut Vec<String>) {
        for &b in chunk {
            if b == b'\n' {
                let line = String::from_utf8_lossy(&self.partial);
                let line = line.strip_suffix('\r').unwrap_or(&line);
                if let Some(p) = line.strip_prefix("data:") {
                    out.push(p.trim_start().to_string());
                }
                self.partial.clear();
            } else {
                self.partial.push(b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The batch parser the scanner must agree with: the `data:` payloads
    /// of a whole raw SSE stream.
    fn parse_data_lines(raw: &str) -> Vec<String> {
        raw.lines()
            .filter_map(|l| l.strip_prefix("data:").map(|p| p.trim_start().to_string()))
            .collect()
    }

    #[test]
    fn scanner_matches_batch_parser_across_splits() {
        let raw = format!(
            "{}{}: keepalive\n{}{}",
            event("{\"a\":1}"),
            event("{\"b\":2}"),
            event("x"),
            DONE_FRAME
        );
        let want = parse_data_lines(&raw);
        for cut in 0..raw.len() {
            let mut sc = SseScanner::new();
            let mut got = Vec::new();
            sc.feed(&raw.as_bytes()[..cut], &mut got);
            sc.feed(&raw.as_bytes()[cut..], &mut got);
            assert_eq!(got, want, "split at {cut}");
        }
    }

    #[test]
    fn frames_round_trip() {
        let raw = format!("{}{}{}", event("{\"a\":1}"), event("{\"b\":2}"), DONE_FRAME);
        let payloads = parse_data_lines(&raw);
        assert_eq!(payloads, vec!["{\"a\":1}", "{\"b\":2}", DONE]);
    }

    #[test]
    fn ignores_comment_and_event_fields() {
        let raw = ": keepalive\nevent: tick\ndata: x\n\n";
        assert_eq!(parse_data_lines(raw), vec!["x"]);
    }

    #[test]
    fn scanner_holds_back_an_unterminated_line() {
        let mut sc = SseScanner::new();
        let mut got = Vec::new();
        sc.feed(b"data: a\n\ndata: b", &mut got);
        assert_eq!(got, vec!["a"]);
        sc.feed(b"\n\n", &mut got);
        assert_eq!(got, vec!["a", "b"]);
    }
}

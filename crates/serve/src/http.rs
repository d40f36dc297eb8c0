//! Minimal HTTP/1.1, the daemon's one transport: just enough for
//! `POST /run`, `GET /metrics`, and `POST /shutdown` over `std::net` — no
//! external dependency, no keep-alive (every response closes the
//! connection), no chunked encoding.
//!
//! Parsing is defensive: an oversized or malformed request becomes a
//! *typed* error the server answers before closing, never a silent drop or
//! a panic. The request line is checked as soon as it arrives, so a client
//! speaking some other protocol is refused at once instead of waiting for a
//! head that never ends.

use std::io::{Read, Write};

/// One parsed request.
#[derive(Debug)]
pub struct HttpRequest {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Request path (`/run`), query string stripped.
    pub path: String,
    /// Decoded body (empty for bodyless requests).
    pub body: String,
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// The head or body violated the framing rules.
    Malformed(String),
    /// Declared or actual body size exceeded the configured ceiling.
    Oversized {
        /// Body bytes the peer still has in flight (declared but unread).
        /// The caller should [`drain`] them after responding: closing a
        /// socket with unread data pending sends an RST that can destroy
        /// the error response before the peer reads it.
        unread: usize,
    },
    /// The peer closed before sending a byte, or the socket failed
    /// mid-request.
    Io(std::io::Error),
}

/// Longest request head (request line and headers) read before refusing.
const HEAD_CAP: usize = 16 * 1024;

/// Reads one full request from `stream`. A first line that is not an HTTP
/// request line (`METHOD TARGET HTTP/1.x`) is refused as soon as it
/// arrives.
///
/// # Errors
///
/// [`HttpError`] describing the refusal; the caller still owes the peer a
/// typed HTTP error response for the non-IO variants.
pub fn read_request(stream: &mut impl Read, max_body: usize) -> Result<HttpRequest, HttpError> {
    let mut buf: Vec<u8> = Vec::new();
    let line_end = read_head_until(stream, &mut buf, |buf| buf.iter().position(|&b| b == b'\n'))?;
    let (method, path) = request_line(&buf[..line_end])?;
    let head_end = read_head_until(stream, &mut buf, |buf| {
        buf.windows(4).position(|w| w == b"\r\n\r\n")
    })?;

    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut content_length: Option<usize> = None;
    for line in head.split("\r\n").skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                let declared = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::Malformed("unparseable Content-Length".into()))?;
                if content_length.is_some_and(|earlier| earlier != declared) {
                    return Err(HttpError::Malformed(
                        "conflicting Content-Length headers".into(),
                    ));
                }
                content_length = Some(declared);
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        let buffered = buf.len().saturating_sub(head_end + 4);
        return Err(HttpError::Oversized {
            unread: content_length.saturating_sub(buffered),
        });
    }

    // Body: what trailed the head in the buffer, then the stream.
    let mut body_bytes: Vec<u8> = buf[head_end + 4..].to_vec();
    if body_bytes.len() > content_length {
        return Err(HttpError::Malformed(
            "body longer than Content-Length".into(),
        ));
    }
    while body_bytes.len() < content_length {
        let mut chunk = vec![0u8; (content_length - body_bytes.len()).min(64 * 1024)];
        let n = stream.read(&mut chunk).map_err(HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::Malformed(
                "connection closed before the end of the body".into(),
            ));
        }
        body_bytes.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(body_bytes)
        .map_err(|_| HttpError::Malformed("body is not valid UTF-8".into()))?;

    Ok(HttpRequest { method, path, body })
}

/// Reads from `stream` into `buf` until `found` locates its mark in `buf`,
/// and returns the mark's position. Refuses a head past [`HEAD_CAP`].
fn read_head_until(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    found: impl Fn(&[u8]) -> Option<usize>,
) -> Result<usize, HttpError> {
    loop {
        if let Some(pos) = found(buf) {
            return Ok(pos);
        }
        if buf.len() > HEAD_CAP {
            return Err(HttpError::Malformed("request head exceeds 16 KiB".into()));
        }
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk).map_err(HttpError::Io)?;
        if n == 0 {
            return Err(if buf.is_empty() {
                HttpError::Io(std::io::ErrorKind::UnexpectedEof.into())
            } else {
                HttpError::Malformed("connection closed before the end of the request head".into())
            });
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// The method and path (query string stripped) of a request line,
/// `METHOD TARGET HTTP/1.x`.
fn request_line(line: &[u8]) -> Result<(String, String), HttpError> {
    let line = String::from_utf8_lossy(line);
    let mut parts = line.split_whitespace();
    let mut next = |missing: &str| {
        parts
            .next()
            .ok_or_else(|| HttpError::Malformed(format!("missing {missing}")))
    };
    let method = next("method")?.to_string();
    let target = next("request target")?;
    let version = next("HTTP version")?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version {version}"
        )));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();
    Ok((method, path))
}

/// Reads and discards up to `unread` body bytes, ending at the peer's
/// close or the first read error: how long a stalled or trickling peer
/// holds the handler is bounded by `stream` itself (the daemon's reader
/// fails at the request deadline).
pub fn drain(stream: &mut impl Read, mut unread: usize) {
    let mut chunk = [0u8; 64 * 1024];
    while unread > 0 {
        let want = unread.min(chunk.len());
        match stream.read(&mut chunk[..want]) {
            Ok(0) | Err(_) => return,
            Ok(n) => unread -= n,
        }
    }
}

/// Writes one `Connection: close` response and returns the bytes written
/// (for the egress counter).
///
/// # Errors
///
/// The underlying socket write error.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<u64> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    Ok((head.len() + body.len()) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(raw: &str, max_body: usize) -> Result<HttpRequest, HttpError> {
        let mut rest = raw.as_bytes();
        read_request(&mut rest, max_body)
    }

    #[test]
    fn a_post_with_body_parses() {
        let raw = "POST /run?trace=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n{\"a\":123}";
        let req = request(raw, 1024).expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/run", "query string stripped");
        assert_eq!(req.body, "{\"a\":123}");
    }

    #[test]
    fn a_bodyless_get_parses() {
        let req = request("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n", 1024).expect("parses");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.body, "");
    }

    #[test]
    fn an_oversized_declared_body_is_refused_before_reading_it() {
        let raw = "POST /run HTTP/1.1\r\nContent-Length: 99999\r\n\r\n";
        assert!(matches!(
            request(raw, 1024),
            Err(HttpError::Oversized { unread: 99999 })
        ));
    }

    #[test]
    fn truncated_requests_are_malformed() {
        assert!(matches!(
            request(
                "POST /run HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort",
                1024
            ),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            request("POST /run\r\n\r\n", 1024),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn conflicting_content_lengths_are_malformed() {
        let twice = |a, b| {
            format!("POST /run HTTP/1.1\r\nContent-Length: {a}\r\nContent-Length: {b}\r\n\r\nok")
        };
        assert!(matches!(
            request(&twice(2, 3), 1024),
            Err(HttpError::Malformed(m)) if m.contains("conflicting")
        ));
        assert_eq!(
            request(&twice(2, 2), 1024).expect("repeats agree").body,
            "ok"
        );
    }

    #[test]
    fn a_first_line_that_is_not_a_request_line_is_refused_before_reading_on() {
        /// Hands out one line, then fails the test if read again.
        struct OneLine(&'static [u8]);
        impl Read for OneLine {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                assert!(!self.0.is_empty(), "read past the first line");
                let n = buf.len().min(self.0.len());
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        for line in [
            &b"{\"control\":\"ping\"}\n"[..],
            b"POST /run\r\n",
            b"GET /metrics HTTP/2\r\n",
        ] {
            assert!(
                matches!(
                    read_request(&mut OneLine(line), 1024),
                    Err(HttpError::Malformed(_))
                ),
                "{}",
                String::from_utf8_lossy(line)
            );
        }
    }

    #[test]
    fn a_peer_that_closes_without_a_byte_is_an_io_end() {
        assert!(matches!(request("", 1024), Err(HttpError::Io(_))));
        assert!(matches!(
            request("GET /metrics HTTP/1.1\r\n", 1024),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn responses_are_framed_with_length_and_close() {
        let mut out = Vec::new();
        let n = write_response(&mut out, 200, "OK", "application/json", "{}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        assert_eq!(n as usize, text.len());
    }
}

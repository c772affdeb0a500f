//! Minimal blocking HTTP/1.1 client helpers for tests, the load
//! generator, and demos.
//!
//! Only what a closed-loop client needs: write a raw request, read one
//! framed response (status line + headers + `Content-Length` body),
//! carrying any over-read bytes forward for keep-alive reuse.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// One parsed-off-the-wire response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawResponse {
    /// Numeric status code from the status line.
    pub status: u16,
    /// The full response bytes (status line, headers, body).
    pub bytes: Vec<u8>,
}

impl RawResponse {
    /// The body portion (after the blank line), if any.
    pub fn body(&self) -> &[u8] {
        match find_header_end(&self.bytes) {
            Some(end) => &self.bytes[end..],
            None => &[],
        }
    }

    /// Case-insensitive single-header lookup, value trimmed.
    pub fn header(&self, name: &str) -> Option<String> {
        let head_end = find_header_end(&self.bytes)?;
        let head = std::str::from_utf8(&self.bytes[..head_end]).ok()?;
        for line in head.lines().skip(1) {
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case(name) {
                    return Some(v.trim().to_string());
                }
            }
        }
        None
    }
}

/// Longest header block a response may carry. The search for its end
/// never reads past this many bytes, so framing `n` pipelined responses
/// out of one buffer costs `n` bounded searches, not `n` scans of all the
/// bodies behind the first head.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;

/// Find the end of the header block: the earlier of `\r\n\r\n` and `\n\n`,
/// in one pass over at most [`MAX_HEADER_BYTES`]. Both occur: the Rhythm
/// response builder emits `\r\n\r\n`, but the workload's page templates
/// end their header block with `\n\n`.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    let head = &buf[..buf.len().min(MAX_HEADER_BYTES)];
    let mut from = 0;
    while let Some(lf) = head[from..].iter().position(|&b| b == b'\n') {
        let lf = from + lf;
        if head.get(lf + 1) == Some(&b'\n') {
            return Some(lf + 2);
        }
        if lf > 0 && head[lf - 1] == b'\r' && head.get(lf + 1..lf + 3) == Some(b"\r\n") {
            return Some(lf + 3);
        }
        from = lf + 1;
    }
    None
}

/// Parse `Content-Length` out of a header block (case-insensitive).
fn content_length(head: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(head).ok()?;
    for line in text.lines().skip(1) {
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                return v.trim().parse().ok();
            }
        }
    }
    None
}

fn parse_status(buf: &[u8]) -> u16 {
    // "HTTP/1.1 200 OK" — second whitespace-separated token.
    std::str::from_utf8(buf)
        .ok()
        .and_then(|s| s.lines().next())
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .unwrap_or(0)
}

/// Scan for one complete framed response at the start of `buf` without
/// consuming it: returns `(status, total_len)` when the header block and
/// the declared `Content-Length` body are fully present.
///
/// This is the non-blocking counterpart of [`read_response`] for callers
/// that own their buffering (the open-loop load generator): feed socket
/// bytes into a buffer, call this in a loop, and drain `total_len` bytes
/// per framed response. Responses without a `Content-Length` cannot be
/// framed this way and report their header block as the whole response;
/// one whose header block exceeds [`MAX_HEADER_BYTES`] is never framed.
pub fn scan_response(buf: &[u8]) -> Option<(u16, usize)> {
    let head_end = find_header_end(buf)?;
    let total = match content_length(&buf[..head_end]) {
        Some(len) => head_end + len,
        None => head_end,
    };
    if buf.len() < total {
        return None;
    }
    Some((parse_status(&buf[..head_end]), total))
}

/// Write raw request bytes to the stream.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn send_request(stream: &mut TcpStream, raw: &[u8]) -> io::Result<()> {
    stream.write_all(raw)?;
    stream.flush()
}

/// Read one complete HTTP response from a blocking stream.
///
/// `carry` holds bytes over-read past the previous response on the same
/// connection; leftover bytes after this response are put back into it,
/// so the same `(stream, carry)` pair can read a pipelined or keep-alive
/// sequence of responses.
///
/// Responses without a `Content-Length` are read until EOF.
///
/// # Errors
///
/// `UnexpectedEof` if the peer closes mid-response, `InvalidData` if the
/// header block exceeds [`MAX_HEADER_BYTES`]; otherwise socket read
/// errors.
pub fn read_response(stream: &mut TcpStream, carry: &mut Vec<u8>) -> io::Result<RawResponse> {
    let mut buf = std::mem::take(carry);
    let mut chunk = [0u8; 4096];
    let mut eof = false;

    // Phase 1: accumulate until the header block is complete.
    let head_end = loop {
        if let Some(end) = find_header_end(&buf) {
            break end;
        }
        if buf.len() >= MAX_HEADER_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "response header block exceeds MAX_HEADER_BYTES",
            ));
        }
        if eof {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before response headers completed",
            ));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            eof = true;
        } else {
            buf.extend_from_slice(&chunk[..n]);
        }
    };

    // Phase 2: read the declared body (or until EOF when undeclared).
    let total = match content_length(&buf[..head_end]) {
        Some(len) => head_end + len,
        None => {
            while !eof {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    eof = true;
                } else {
                    buf.extend_from_slice(&chunk[..n]);
                }
            }
            buf.len()
        }
    };
    while buf.len() < total {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }

    *carry = buf.split_off(total);
    let status = parse_status(&buf);
    Ok(RawResponse { status, bytes: buf })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_end_tolerates_both_terminators() {
        assert_eq!(
            find_header_end(b"HTTP/1.1 200 OK\r\nA: b\r\n\r\nxy"),
            Some(25)
        );
        assert_eq!(find_header_end(b"HTTP/1.1 200 OK\nA: b\n\nxy"), Some(22));
        assert_eq!(find_header_end(b"HTTP/1.1 200 OK\r\nA: b"), None);
        // The earlier terminator wins, whichever kind it is.
        assert_eq!(find_header_end(b"A\n\nB\r\n\r\n"), Some(3));
        assert_eq!(find_header_end(b"A\r\n\r\nB\n\n"), Some(5));
        assert_eq!(find_header_end(b"A\n\r\nB"), None, "mixed endings");
    }

    #[test]
    fn header_search_is_capped() {
        let mut buf = vec![b'x'; MAX_HEADER_BYTES];
        buf.extend_from_slice(b"\n\nbody");
        assert_eq!(find_header_end(&buf), None, "terminator past the cap");
        // Straddling the cap does not count either: the head must fit.
        buf[MAX_HEADER_BYTES - 1] = b'\n';
        assert_eq!(find_header_end(&buf), None);
        buf[MAX_HEADER_BYTES - 2] = b'\n';
        assert_eq!(find_header_end(&buf), Some(MAX_HEADER_BYTES));
    }

    /// Eight pipelined bare-LF pages of 17 KB in one buffer frame in
    /// order. Each `scan_response` looks at its first response's head only
    /// (`header_search_is_capped`), where it used to search every body
    /// behind it for a `\r\n\r\n` that bare-LF pages never contain.
    #[test]
    fn pipelined_large_responses_frame_in_order() {
        let mut buf = Vec::new();
        let mut sizes = Vec::new();
        for i in 0..8usize {
            let body = vec![b'a' + i as u8; 17 * 1024 + i];
            let head = format!("HTTP/1.1 200 OK\nContent-Length: {}\n\n", body.len());
            sizes.push((head.len() + body.len(), body[0]));
            buf.extend_from_slice(head.as_bytes());
            buf.extend_from_slice(&body);
        }
        let mut rest = &buf[..];
        for (total, fill) in sizes {
            let (status, len) = scan_response(rest).expect("a whole response is buffered");
            assert_eq!((status, len), (200, total));
            assert_eq!(rest[len - 1], fill);
            rest = &rest[len..];
        }
        assert!(rest.is_empty());
        assert_eq!(scan_response(&buf[..17 * 1024]), None, "body incomplete");
    }

    #[test]
    fn status_and_headers_parse() {
        let resp = RawResponse {
            status: parse_status(b"HTTP/1.1 503 Service Unavailable\r\n"),
            bytes:
                b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 2\r\nContent-Length: 2\r\n\r\nok"
                    .to_vec(),
        };
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after").as_deref(), Some("2"));
        assert_eq!(resp.header("RETRY-AFTER").as_deref(), Some("2"));
        assert_eq!(resp.header("missing"), None);
        assert_eq!(resp.body(), b"ok");
    }

    #[test]
    fn content_length_is_case_insensitive() {
        assert_eq!(
            content_length(b"HTTP/1.1 200 OK\r\ncontent-length: 7\r\n"),
            Some(7)
        );
        assert_eq!(content_length(b"HTTP/1.1 200 OK\r\nHost: x\r\n"), None);
    }
}

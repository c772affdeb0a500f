//! HTTP response construction with Content-Length backpatching.
//!
//! Rhythm generates the response header *together with* the body in one
//! pass (paper §4.3.2 "Whitespace Padding in HTML Headers"): the
//! `Content-Length` value is not known until the body is finished, so the
//! builder reserves a fixed run of whitespace (10 characters — enough for
//! any 32-bit length) and backpatches the digits afterwards. The HTTP
//! grammar permits trailing whitespace in a field value, which is exactly
//! the trick the paper exploits.

use crate::cookie::set_cookie;

/// Width of the whitespace run reserved for the `Content-Length` value.
pub const RESERVED_CONTENT_LENGTH: usize = 10;

/// Single-pass response builder.
///
/// # Example
///
/// ```
/// use rhythm_http::ResponseBuilder;
///
/// let mut r = ResponseBuilder::new(200, "OK");
/// r.header("Content-Type", "text/html");
/// r.reserve_content_length();
/// r.finish_headers();
/// r.write_str("<html>hi</html>");
/// let bytes = r.finish();
/// let text = String::from_utf8(bytes).unwrap();
/// assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
/// assert!(text.contains("Content-Length: 15"));
/// assert!(text.ends_with("<html>hi</html>"));
/// ```
#[derive(Clone, Debug)]
pub struct ResponseBuilder {
    buf: Vec<u8>,
    clen_value_pos: Option<usize>,
    body_start: Option<usize>,
}

impl ResponseBuilder {
    /// Start a response with the given status.
    pub fn new(status: u16, reason: &str) -> Self {
        let mut buf = Vec::with_capacity(1024);
        buf.extend_from_slice(b"HTTP/1.1 ");
        buf.extend_from_slice(status.to_string().as_bytes());
        buf.push(b' ');
        buf.extend_from_slice(reason.as_bytes());
        buf.extend_from_slice(b"\r\n");
        ResponseBuilder {
            buf,
            clen_value_pos: None,
            body_start: None,
        }
    }

    /// Append a header line.
    ///
    /// # Panics
    ///
    /// Panics if called after [`Self::finish_headers`].
    pub fn header(&mut self, name: &str, value: &str) -> &mut Self {
        assert!(self.body_start.is_none(), "headers already finished");
        self.buf.extend_from_slice(name.as_bytes());
        self.buf.extend_from_slice(b": ");
        self.buf.extend_from_slice(value.as_bytes());
        self.buf.extend_from_slice(b"\r\n");
        self
    }

    /// Append a `Set-Cookie` header.
    pub fn cookie(&mut self, name: &str, value: &str, path: &str) -> &mut Self {
        let v = set_cookie(name, value, path);
        self.header("Set-Cookie", &v)
    }

    /// Emit the `Content-Length` header with a reserved whitespace run to
    /// be backpatched by [`Self::finish`].
    ///
    /// # Panics
    ///
    /// Panics if called twice or after [`Self::finish_headers`].
    pub fn reserve_content_length(&mut self) -> &mut Self {
        assert!(self.body_start.is_none(), "headers already finished");
        assert!(
            self.clen_value_pos.is_none(),
            "content-length already reserved"
        );
        self.buf.extend_from_slice(b"Content-Length: ");
        self.clen_value_pos = Some(self.buf.len());
        self.buf.extend_from_slice(&[b' '; RESERVED_CONTENT_LENGTH]);
        self.buf.extend_from_slice(b"\r\n");
        self
    }

    /// Terminate the header section; body writes follow.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn finish_headers(&mut self) -> &mut Self {
        assert!(self.body_start.is_none(), "headers already finished");
        self.buf.extend_from_slice(b"\r\n");
        self.body_start = Some(self.buf.len());
        self
    }

    /// Append body bytes.
    ///
    /// # Panics
    ///
    /// Panics if the headers have not been finished.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        assert!(self.body_start.is_some(), "finish_headers first");
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Append a body string.
    ///
    /// # Panics
    ///
    /// Panics if the headers have not been finished.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write(s.as_bytes())
    }

    /// Current body length in bytes (0 before [`Self::finish_headers`]).
    pub fn body_len(&self) -> usize {
        self.body_start.map_or(0, |s| self.buf.len() - s)
    }

    /// Finalize: backpatch the reserved `Content-Length` digits (if
    /// reserved) and return the raw response bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let body_len = self.body_len();
        if let Some(pos) = self.clen_value_pos {
            let digits = body_len.to_string();
            debug_assert!(digits.len() <= RESERVED_CONTENT_LENGTH);
            self.buf[pos..pos + digits.len()].copy_from_slice(digits.as_bytes());
        }
        self.buf
    }
}

/// Parse the `Content-Length` value out of raw response bytes (test
/// helper and validator support; tolerates the trailing padding).
pub fn parsed_content_length(response: &[u8]) -> Option<usize> {
    // Only the header section need be UTF-8; bodies may be binary.
    let header_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .unwrap_or(response.len());
    let text = std::str::from_utf8(&response[..header_end]).ok()?;
    for line in text.split("\r\n") {
        if line.is_empty() {
            break;
        }
        if let Some(v) = line
            .strip_prefix("Content-Length:")
            .or_else(|| line.strip_prefix("content-length:"))
        {
            return v.trim().parse().ok();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backpatch_matches_body() {
        let mut r = ResponseBuilder::new(200, "OK");
        r.reserve_content_length();
        r.finish_headers();
        r.write(&vec![b'x'; 12345]);
        let out = r.finish();
        assert_eq!(parsed_content_length(&out), Some(12345));
        let head = out.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
        assert_eq!(out.len() - head - 4, 12345);
    }

    #[test]
    fn reserved_run_is_exactly_ten() {
        let mut r = ResponseBuilder::new(200, "OK");
        r.reserve_content_length();
        r.finish_headers();
        let out = r.finish();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains(&format!("Content-Length: 0{}\r\n", " ".repeat(9))));
    }

    #[test]
    fn no_reservation_no_patch() {
        let mut r = ResponseBuilder::new(404, "Not Found");
        r.finish_headers();
        r.write_str("nope");
        let out = r.finish();
        assert_eq!(parsed_content_length(&out), None);
        assert!(out.starts_with(b"HTTP/1.1 404 Not Found\r\n"));
    }

    #[test]
    fn cookie_header_rendered() {
        let mut r = ResponseBuilder::new(200, "OK");
        r.cookie("SID", "tok", "/bank");
        r.finish_headers();
        let out = r.finish();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Set-Cookie: SID=tok; path=/bank\r\n"));
    }

    #[test]
    #[should_panic(expected = "headers already finished")]
    fn header_after_finish_panics() {
        let mut r = ResponseBuilder::new(200, "OK");
        r.finish_headers();
        r.header("X", "y");
    }

    #[test]
    #[should_panic(expected = "finish_headers first")]
    fn body_before_finish_headers_panics() {
        let mut r = ResponseBuilder::new(200, "OK");
        r.write(b"early");
    }
}

//! # rhythm-http
//!
//! HTTP/1.1 substrate for the Rhythm cohort server, built from scratch:
//!
//! * [`request`] — request parsing (method, target, query string, cookies,
//!   `Content-Length`-framed bodies, pipelining support),
//! * [`response`] — single-pass response building with the paper's
//!   reserved-whitespace `Content-Length` backpatch,
//! * [`padding`] — whitespace padding for warp write-pointer alignment and
//!   the padded-vs-plain equivalence check used to validate kernels,
//! * [`cookie`], [`query`] — the supporting pieces.
//!
//! Everything here is deterministic, allocation-conscious, and shared by
//! both the native (CPU) banking handlers and the validation harness for
//! the SIMT kernels.
//!
//! ```
//! use rhythm_http::{HttpRequest, ResponseBuilder};
//!
//! let req = HttpRequest::parse(
//!     b"GET /bank/login.php?userid=7&password=x HTTP/1.1\r\n\r\n")?;
//! let mut resp = ResponseBuilder::new(200, "OK");
//! resp.header("Content-Type", "text/html");
//! resp.reserve_content_length();
//! resp.finish_headers();
//! resp.write_str(&format!("<html>hello user {}</html>",
//!                         req.params.get("userid").unwrap_or("?")));
//! let bytes = resp.finish();
//! assert!(bytes.starts_with(b"HTTP/1.1 200 OK"));
//! # Ok::<(), rhythm_http::ParseError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cookie;
pub mod error;
pub mod padding;
pub mod query;
pub mod request;
pub mod response;

pub use cookie::Cookies;
pub use error::ParseError;
pub use query::Params;
pub use request::{HttpRequest, Method};
pub use response::{ResponseBuilder, RESERVED_CONTENT_LENGTH};

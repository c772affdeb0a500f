//! Canned error/overload responses the front end emits without invoking
//! the workload handler.

use rhythm_http::ResponseBuilder;

fn plain(status: u16, reason: &str, extra: &[(&str, &str)], body: &str) -> Vec<u8> {
    let mut r = ResponseBuilder::new(status, reason);
    r.header("Content-Type", "text/plain");
    r.header("Server", "Rhythm/0.1");
    for (name, value) in extra {
        r.header(name, value);
    }
    r.reserve_content_length();
    r.finish_headers();
    r.write_str(body);
    r.finish()
}

/// `Retry-After` seconds advertised on `503` sheds.
pub const RETRY_AFTER_S: u32 = 1;

/// `503 Service Unavailable` with a `Retry-After` of [`RETRY_AFTER_S`] —
/// emitted when the cohort pool is exhausted or the connection cap is hit
/// (overload shedding; clients should back off and retry).
pub fn shed_503() -> Vec<u8> {
    plain(
        503,
        "Service Unavailable",
        &[
            ("Retry-After", &RETRY_AFTER_S.to_string()),
            ("Connection", "close"),
        ],
        "server overloaded, retry later",
    )
}

/// `413 Payload Too Large` — the request exceeded the reader's size cap.
pub fn too_large_413() -> Vec<u8> {
    plain(
        413,
        "Payload Too Large",
        &[("Connection", "close")],
        "request exceeds size limit",
    )
}

/// `400 Bad Request` for malformed input.
pub fn bad_request_400(msg: &str) -> Vec<u8> {
    plain(
        400,
        "Bad Request",
        &[("Connection", "close")],
        &format!("bad request: {msg}"),
    )
}

/// `404 Not Found` for requests no cohort key claims.
pub fn not_found_404() -> Vec<u8> {
    plain(404, "Not Found", &[], "unknown endpoint")
}

/// `500 Internal Server Error` — the workload handler returned fewer
/// responses than cohort members (a handler bug the front end survives).
pub fn internal_500() -> Vec<u8> {
    plain(
        500,
        "Internal Server Error",
        &[],
        "handler produced no response",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_responses_are_well_formed() {
        let shed = String::from_utf8(shed_503()).unwrap();
        assert!(shed.starts_with("HTTP/1.1 503 "));
        assert!(shed.contains("Retry-After: 1\r\n"));
        assert!(shed.contains("Content-Length: "));

        let large = String::from_utf8(too_large_413()).unwrap();
        assert!(large.starts_with("HTTP/1.1 413 "));

        let bad = String::from_utf8(bad_request_400("nope")).unwrap();
        assert!(bad.starts_with("HTTP/1.1 400 "));
        assert!(bad.ends_with("bad request: nope"));

        let nf = String::from_utf8(not_found_404()).unwrap();
        assert!(nf.starts_with("HTTP/1.1 404 "));

        let ise = String::from_utf8(internal_500()).unwrap();
        assert!(ise.starts_with("HTTP/1.1 500 "));
    }
}

//! The in-band admin surface: `GET /metrics`, `GET /healthz`, and
//! `GET /trace`.
//!
//! Admin requests are intercepted in the reactor's read path **before
//! cohort formation** — they are answered from the shard's own thread via
//! the normal ordered-response queue, never classified, never batched,
//! and never sent to a device. They are counted in
//! [`NetStats::admin_requests`](crate::server::NetStats::admin_requests),
//! not in `requests`, so workload accounting (loadgen totals vs server
//! counters) stays exact even while a scraper polls `/metrics`.

use rhythm_http::ResponseBuilder;
use rhythm_http::{HttpRequest, Method};

use crate::metrics::Telemetry;

/// An admin endpoint matched by [`admin_route`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdminRoute {
    /// `GET /metrics` — Prometheus text exposition, aggregated across
    /// shards at scrape time.
    Metrics,
    /// `GET /healthz` — a small JSON status document.
    Healthz,
    /// `GET /trace` — the shards' rings of recent events as a Chrome
    /// trace JSON document.
    Trace,
}

/// Match a parsed request against the admin surface. Only `GET` on the
/// exact paths counts; anything else flows into normal cohort dispatch.
pub fn admin_route(req: &HttpRequest) -> Option<AdminRoute> {
    if req.method != Method::Get {
        return None;
    }
    match req.path.as_str() {
        "/metrics" => Some(AdminRoute::Metrics),
        "/healthz" => Some(AdminRoute::Healthz),
        "/trace" => Some(AdminRoute::Trace),
        _ => None,
    }
}

fn ok_body(content_type: &str, body: &str) -> Vec<u8> {
    let mut r = ResponseBuilder::new(200, "OK");
    r.header("Content-Type", content_type);
    r.header("Server", "Rhythm/0.1");
    r.reserve_content_length();
    r.finish_headers();
    r.write_str(body);
    r.finish()
}

impl AdminRoute {
    /// Render the full HTTP response for this route from the live plane.
    pub fn respond(self, telemetry: &Telemetry) -> Vec<u8> {
        match self {
            AdminRoute::Metrics => ok_body(
                "text/plain; version=0.0.4; charset=utf-8",
                &telemetry.render_metrics(),
            ),
            AdminRoute::Healthz => ok_body("application/json", &telemetry.render_healthz()),
            AdminRoute::Trace => ok_body("application/json", &telemetry.render_trace()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(path: &str) -> HttpRequest {
        HttpRequest::parse(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes()).unwrap()
    }

    #[test]
    fn routes_match_exact_get_paths_only() {
        assert_eq!(admin_route(&get("/metrics")), Some(AdminRoute::Metrics));
        assert_eq!(admin_route(&get("/healthz")), Some(AdminRoute::Healthz));
        assert_eq!(admin_route(&get("/trace")), Some(AdminRoute::Trace));
        // Query strings are stripped by the parser, so /metrics?x=1 still
        // routes.
        assert_eq!(admin_route(&get("/metrics?x=1")), Some(AdminRoute::Metrics));
        assert_eq!(admin_route(&get("/metricsx")), None);
        assert_eq!(admin_route(&get("/bank/login.php")), None);
        let post =
            HttpRequest::parse(b"POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
                .unwrap();
        assert_eq!(admin_route(&post), None);
    }

    #[test]
    fn responses_are_well_formed_http() {
        let t = Telemetry::new(1);
        for (route, ct) in [
            (AdminRoute::Metrics, "text/plain; version=0.0.4"),
            (AdminRoute::Healthz, "application/json"),
            (AdminRoute::Trace, "application/json"),
        ] {
            let raw = route.respond(&t);
            let text = String::from_utf8(raw).unwrap();
            assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{route:?}");
            assert!(text.contains(ct), "{route:?}");
            assert!(text.contains("Content-Length: "), "{route:?}");
        }
        let metrics = AdminRoute::Metrics.respond(&t);
        let text = String::from_utf8(metrics).unwrap();
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        rhythm_obs::validate_prometheus_text(body).expect("metrics body validates");
    }
}

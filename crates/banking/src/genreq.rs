//! Request generation (paper §5.3.1 "Input Generation").
//!
//! Produces randomized-but-deterministic requests: raw HTTP text for the
//! parser path and the equivalent parsed form for the native path. For
//! request types other than login, session identifiers are pre-created in
//! the session array for random user ids, exactly as the paper's harness
//! does.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::backend::BankStore;
use crate::native::{cached_spec, field_of, BankingRequest};
use crate::session_array::SessionArrayHost;
use crate::templates::{Action, SESSION_COOKIE};
use crate::types::{RequestType, TABLE2};

/// One generated request: raw bytes plus the expected parsed form.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GeneratedRequest {
    /// Request type.
    pub ty: RequestType,
    /// Session token carried in the cookie (0 for login).
    pub token: u32,
    /// Positional parameters (`params[0]` = userid).
    pub params: [u32; 4],
    /// Raw HTTP request text (≤ 512 bytes, the paper's request size).
    pub raw: Vec<u8>,
}

impl GeneratedRequest {
    /// The parsed form consumed by the native handlers.
    pub fn banking_request(&self) -> BankingRequest {
        BankingRequest::new(self.ty, self.token, self.params)
    }

    /// Rows the page's [`Action::Rows`] table renders for this request's
    /// user; `None` for a page without one. Cohort members that differ
    /// here leave the table with their cursors at different offsets.
    pub fn table_rows(&self, store: &BankStore) -> Option<usize> {
        let spec = cached_spec(self.ty);
        let access = spec.actions.iter().find_map(|a| match a {
            Action::Rows { req, .. } => Some(&spec.backend[*req as usize]),
            _ => None,
        })?;
        field_of(&store.respond(access.cmd, self.params[0], &[]), 0)
            .parse()
            .ok()
    }
}

/// Types that arrive as POST (form body); the rest are GET.
fn is_post(ty: RequestType) -> bool {
    matches!(
        ty,
        RequestType::Login
            | RequestType::BillPay
            | RequestType::PlaceCheckOrder
            | RequestType::PostPayee
            | RequestType::PostTransfer
            | RequestType::ChangeProfile
    )
}

/// The type-specific second parameter, if any.
fn second_param(ty: RequestType, rng: &mut StdRng) -> Option<u32> {
    match ty {
        RequestType::BillPay | RequestType::PostTransfer => Some(rng.gen_range(100..500_000)),
        RequestType::PlaceCheckOrder => Some(rng.gen_range(1..=5)),
        RequestType::CheckDetailHtml => Some(rng.gen_range(1000..9999)),
        RequestType::PostPayee => Some(rng.gen_range(1..=99)),
        _ => None,
    }
}

/// Deterministic request generator.
#[derive(Debug)]
pub struct RequestGenerator {
    rng: StdRng,
    num_users: u32,
}

impl RequestGenerator {
    /// A generator over `num_users` bank customers.
    pub fn new(num_users: u32, seed: u64) -> Self {
        RequestGenerator {
            rng: StdRng::seed_from_u64(seed),
            num_users,
        }
    }

    /// Generate one request of the given type. Non-login types create a
    /// session in `sessions` (panicking if the table is full, which
    /// indicates a mis-sized experiment).
    ///
    /// # Panics
    ///
    /// Panics when the session array is full.
    pub fn one(&mut self, ty: RequestType, sessions: &mut SessionArrayHost) -> GeneratedRequest {
        let userid = self.rng.gen_range(0..self.num_users);
        let token = if ty.is_login() {
            0
        } else {
            sessions
                .insert(userid)
                .expect("session array full during generation")
        };
        let mut params = [0u32; 4];
        params[0] = userid;
        if let Some(p1) = second_param(ty, &mut self.rng) {
            params[1] = p1;
        }
        let raw = raw_http(ty, token, &params);
        GeneratedRequest {
            ty,
            token,
            params,
            raw,
        }
    }

    /// Generate `count` requests of one type.
    pub fn uniform(
        &mut self,
        ty: RequestType,
        count: usize,
        sessions: &mut SessionArrayHost,
    ) -> Vec<GeneratedRequest> {
        (0..count).map(|_| self.one(ty, sessions)).collect()
    }

    /// Generate `count` requests following the Table 2 mix.
    pub fn mixed(
        &mut self,
        count: usize,
        sessions: &mut SessionArrayHost,
    ) -> Vec<GeneratedRequest> {
        (0..count)
            .map(|_| {
                let ty = self.sample_type();
                self.one(ty, sessions)
            })
            .collect()
    }

    /// Sample a request type from the Table 2 distribution.
    pub fn sample_type(&mut self) -> RequestType {
        let x: f64 = self.rng.gen_range(0.0..100.0);
        let mut acc = 0.0;
        for info in &TABLE2 {
            acc += info.mix_percent;
            if x < acc {
                return info.ty;
            }
        }
        RequestType::Login
    }
}

/// Render the raw HTTP text for a request.
pub fn raw_http(ty: RequestType, token: u32, params: &[u32; 4]) -> Vec<u8> {
    let file = ty.file_name();
    let mut form = format!("userid={}", params[0]);
    if params[1] != 0 {
        form.push_str(&format!("&a={}", params[1]));
    }
    let cookie = if token != 0 {
        format!("Cookie: {SESSION_COOKIE}={token}\r\n")
    } else {
        String::new()
    };
    let text = if is_post(ty) {
        format!(
            "POST /bank/{file} HTTP/1.1\r\nHost: bank.example.com\r\n{cookie}User-Agent: SPECWeb/2009\r\nContent-Length: {}\r\n\r\n{form}",
            form.len()
        )
    } else {
        format!(
            "GET /bank/{file}?{form} HTTP/1.1\r\nHost: bank.example.com\r\n{cookie}User-Agent: SPECWeb/2009\r\n\r\n"
        )
    };
    assert!(text.len() <= 512, "request exceeds the 512 B slot");
    text.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhythm_http::HttpRequest;

    #[test]
    fn generation_is_deterministic() {
        let mut s1 = SessionArrayHost::new(256, 1);
        let mut s2 = SessionArrayHost::new(256, 1);
        let a = RequestGenerator::new(100, 5).mixed(50, &mut s1);
        let b = RequestGenerator::new(100, 5).mixed(50, &mut s2);
        assert_eq!(a, b);
    }

    #[test]
    fn raw_requests_parse_with_http_substrate() {
        let mut sessions = SessionArrayHost::new(512, 0xAA);
        let mut g = RequestGenerator::new(64, 9);
        for ty in RequestType::ALL {
            let r = g.one(ty, &mut sessions);
            let parsed = HttpRequest::parse(&r.raw).expect("valid http");
            assert_eq!(parsed.file_name(), ty.file_name());
            assert_eq!(
                parsed.params.get_u32("userid"),
                Some(r.params[0]),
                "{ty}: userid"
            );
            if r.token != 0 {
                assert_eq!(
                    parsed.cookies.get(SESSION_COOKIE),
                    Some(r.token.to_string().as_str())
                );
            }
        }
    }

    #[test]
    fn login_has_no_cookie() {
        let mut sessions = SessionArrayHost::new(64, 0);
        let mut g = RequestGenerator::new(8, 1);
        let r = g.one(RequestType::Login, &mut sessions);
        assert_eq!(r.token, 0);
        assert!(!String::from_utf8(r.raw).unwrap().contains("Cookie"));
        assert!(sessions.is_empty());
    }

    #[test]
    fn non_login_creates_session() {
        let mut sessions = SessionArrayHost::new(64, 0x77);
        let mut g = RequestGenerator::new(8, 2);
        let r = g.one(RequestType::Transfer, &mut sessions);
        assert_eq!(sessions.lookup(r.token), Some(r.params[0]));
    }

    #[test]
    fn mix_distribution_roughly_matches_table2() {
        let mut sessions = SessionArrayHost::new(65536, 0x3);
        let mut g = RequestGenerator::new(1000, 42);
        let reqs = g.mixed(20_000, &mut sessions);
        let logins = reqs.iter().filter(|r| r.ty.is_login()).count() as f64;
        let frac = logins / reqs.len() as f64 * 100.0;
        assert!((frac - 28.17).abs() < 2.0, "login fraction {frac}");
        let payees = reqs
            .iter()
            .filter(|r| r.ty == RequestType::PostPayee)
            .count() as f64;
        let frac = payees / reqs.len() as f64 * 100.0;
        assert!((frac - 1.05).abs() < 0.6, "post_payee fraction {frac}");
    }

    #[test]
    fn requests_fit_slot() {
        let mut sessions = SessionArrayHost::new(1024, 0xF);
        let mut g = RequestGenerator::new(1_000_000, 7);
        for _ in 0..200 {
            let ty = g.sample_type();
            let r = g.one(ty, &mut sessions);
            assert!(r.raw.len() <= 512);
        }
    }
}

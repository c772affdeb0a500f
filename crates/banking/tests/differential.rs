//! Differential tests: the SIMT kernels and the native handlers interpret
//! the same page specs and must agree — byte-for-byte modulo
//! warp-alignment whitespace (paper: the CUDA server is validated against
//! the SPECWeb client validator; here the native implementation plays the
//! validator).

use rhythm_banking::prelude::*;
use rhythm_http::padding::eq_modulo_padding;
use rhythm_obs::NoopRecorder;
use rhythm_simt::gpu::{Gpu, GpuConfig};

const SALT: u32 = 0x5EED_0001;

fn harness() -> (Workload, BankStore, Gpu) {
    (
        Workload::build(),
        BankStore::generate(128, 77),
        Gpu::new(GpuConfig::gtx_titan()),
    )
}

fn opts(transposed: bool) -> CohortOptions {
    CohortOptions {
        transposed,
        backend: BackendMode::Device,
        session_capacity: 1024,
        session_salt: SALT,
        verify: true,
        sanitize: false,
    }
}

/// Mask the Content-Length digits: the kernel's body includes alignment
/// padding, so its (self-consistent) length legitimately differs from the
/// native (unpadded) length.
fn mask_content_length(resp: &[u8]) -> Vec<u8> {
    let text = String::from_utf8_lossy(resp);
    let mut out = String::with_capacity(text.len());
    for (i, line) in text.split('\n').enumerate() {
        if i > 0 {
            out.push('\n');
        }
        if line.starts_with("Content-Length:") {
            out.push_str("Content-Length: <masked>");
        } else {
            out.push_str(line);
        }
    }
    out.into_bytes()
}

/// Strip trailing spaces per line (padding), mask Content-Length, compare.
fn assert_equivalent(kernel: &[u8], native: &[u8], ctx: &str) {
    let (kernel_m, native_m) = (mask_content_length(kernel), mask_content_length(native));
    assert!(
        eq_modulo_padding(&kernel_m, &native_m),
        "{ctx}: kernel and native responses differ\n--- kernel ---\n{}\n--- native ---\n{}",
        String::from_utf8_lossy(&kernel[..kernel.len().min(2000)]),
        String::from_utf8_lossy(&native[..native.len().min(2000)]),
    );
}

/// The session token a Login response hands out.
fn sid(resp: &[u8]) -> u32 {
    let text = String::from_utf8_lossy(resp);
    let line = text
        .lines()
        .find(|l| l.starts_with("Set-Cookie: SID="))
        .unwrap_or_else(|| panic!("no cookie in {text}"));
    line["Set-Cookie: SID=".len()..].trim().parse().unwrap()
}

/// Kernel Content-Length must equal the kernel's own (padded) body size.
fn assert_clen_consistent(resp: &[u8], ctx: &str) {
    let text = String::from_utf8_lossy(resp);
    let body_start = text.find("\n\n").map(|p| p + 2).unwrap_or(0);
    let clen: usize = text
        .lines()
        .find(|l| l.starts_with("Content-Length:"))
        .and_then(|l| l["Content-Length:".len()..].trim().parse().ok())
        .unwrap_or(usize::MAX);
    assert_eq!(clen, resp.len() - body_start, "{ctx}: content-length");
}

#[test]
fn every_type_matches_native_device_backend() {
    let (workload, store, gpu) = harness();
    for ty in RequestType::ALL {
        let mut sessions = SessionArrayHost::new(1024, SALT);
        let mut generator = RequestGenerator::new(128, ty.id() as u64 + 1);
        let cohort = generator.uniform(ty, 48, &mut sessions);

        // Native side runs against a snapshot of the same session state.
        let mut native_sessions = sessions.clone();
        let native: Vec<Vec<u8>> = cohort
            .iter()
            .map(|r| handle_native(&r.banking_request(), &store, &mut native_sessions))
            .collect();

        let mut device_sessions = sessions.clone();
        let result = run_cohort_traced(
            &workload,
            &store,
            &mut device_sessions,
            &cohort,
            &gpu,
            &opts(true),
            &NoopRecorder,
        )
        .expect("cohort runs");

        for (lane, (k, n)) in result.responses.iter().zip(&native).enumerate() {
            assert_equivalent(k, n, &format!("{ty} lane {lane}"));
            assert_clen_consistent(k, &format!("{ty} lane {lane}"));
        }

        // Session state evolves identically.
        assert_eq!(
            device_sessions.len(),
            native_sessions.len(),
            "{ty}: live session count"
        );
    }
}

#[test]
fn row_major_and_transposed_produce_identical_responses() {
    let (workload, store, gpu) = harness();
    let ty = RequestType::AccountSummary;
    let mut sessions = SessionArrayHost::new(1024, SALT);
    let mut generator = RequestGenerator::new(128, 5);
    let cohort = generator.uniform(ty, 64, &mut sessions);

    let mut s1 = sessions.clone();
    let row = run_cohort_traced(
        &workload,
        &store,
        &mut s1,
        &cohort,
        &gpu,
        &opts(false),
        &NoopRecorder,
    )
    .unwrap();
    let mut s2 = sessions.clone();
    let col = run_cohort_traced(
        &workload,
        &store,
        &mut s2,
        &cohort,
        &gpu,
        &opts(true),
        &NoopRecorder,
    )
    .unwrap();

    assert_eq!(row.responses, col.responses, "layout must not affect bytes");

    // ...but it radically affects the memory system: the transposed layout
    // must need far fewer transactions per access in the response stage.
    let tx = |r: &rhythm_banking::runner::CohortResult| {
        let (_, l) = r
            .launches
            .iter()
            .find(|(n, _)| n.ends_with("_response"))
            .expect("response launch");
        l.stats.transactions_per_access()
    };
    let (tx_row, tx_col) = (tx(&row), tx(&col));
    assert!(
        tx_row > 4.0 * tx_col,
        "row-major {tx_row:.2} vs transposed {tx_col:.2} transactions/access"
    );
}

#[test]
fn host_and_device_backends_agree() {
    let (workload, store, gpu) = harness();
    let ty = RequestType::BillPay;
    let mut sessions = SessionArrayHost::new(1024, SALT);
    let mut generator = RequestGenerator::new(128, 9);
    let cohort = generator.uniform(ty, 32, &mut sessions);

    let mut s1 = sessions.clone();
    let dev = run_cohort_traced(
        &workload,
        &store,
        &mut s1,
        &cohort,
        &gpu,
        &opts(true),
        &NoopRecorder,
    )
    .unwrap();

    let mut s2 = sessions.clone();
    let mut host_opts = opts(true);
    host_opts.backend = BackendMode::Host;
    let host = run_cohort_traced(
        &workload,
        &store,
        &mut s2,
        &cohort,
        &gpu,
        &host_opts,
        &NoopRecorder,
    )
    .unwrap();

    assert_eq!(dev.responses, host.responses);
}

#[test]
fn parser_kernel_extracts_fields_from_mixed_cohort() {
    let (workload, store, gpu) = harness();
    let mut sessions = SessionArrayHost::new(4096, SALT);
    let mut generator = RequestGenerator::new(512, 11);
    let cohort = generator.mixed(128, &mut sessions);

    let o = CohortOptions {
        session_capacity: 4096,
        ..opts(true)
    };
    let (res, parsed) = DeviceContext::new(&store, &sessions, &gpu, &o)
        .parse(&workload, &cohort)
        .unwrap();
    for (lane, (r, (ty_id, token, p0, p1))) in cohort.iter().zip(&parsed).enumerate() {
        assert_eq!(*ty_id, r.ty.id(), "lane {lane} type");
        assert_eq!(*token, r.token, "lane {lane} token");
        assert_eq!(*p0, r.params[0], "lane {lane} p0");
        assert_eq!(*p1, r.params[1], "lane {lane} p1");
    }
    // A mixed cohort must diverge in the type-match chain.
    assert!(res.stats.divergence.divergent_branches > 0);
}

#[test]
fn invalid_session_gets_forbidden_from_kernels() {
    let (workload, store, gpu) = harness();
    let ty = RequestType::Transfer;
    let mut sessions = SessionArrayHost::new(1024, SALT);
    let mut generator = RequestGenerator::new(128, 13);
    let mut cohort = generator.uniform(ty, 32, &mut sessions);

    // Corrupt one lane's token (in both raw text and parsed form).
    let bad = 7usize;
    let bad_token = cohort[bad].token ^ 0xFFFF;
    cohort[bad].token = bad_token;
    cohort[bad].raw = rhythm_banking::genreq::raw_http(ty, bad_token, &cohort[bad].params);

    let mut s = sessions.clone();
    let result = run_cohort_traced(
        &workload,
        &store,
        &mut s,
        &cohort,
        &gpu,
        &opts(true),
        &NoopRecorder,
    )
    .unwrap();
    let text = String::from_utf8_lossy(&result.responses[bad]);
    assert!(text.starts_with("HTTP/1.1 403 Forbidden"), "got: {text}");
    // Neighbours are unaffected.
    assert!(result.responses[6].starts_with(b"HTTP/1.1 200 OK"));
    assert!(result.responses[8].starts_with(b"HTTP/1.1 200 OK"));
}

#[test]
fn login_cohort_creates_sessions_on_device() {
    let (workload, store, gpu) = harness();
    let mut sessions = SessionArrayHost::new(1024, SALT);
    let mut generator = RequestGenerator::new(128, 17);
    let cohort = generator.uniform(RequestType::Login, 64, &mut sessions);
    assert!(sessions.is_empty());

    let mut s = sessions.clone();
    let result = run_cohort_traced(
        &workload,
        &store,
        &mut s,
        &cohort,
        &gpu,
        &opts(true),
        &NoopRecorder,
    )
    .unwrap();
    assert_eq!(s.len(), 64, "one session per login");
    for (lane, r) in cohort.iter().enumerate() {
        let tok = sid(&result.responses[lane]);
        assert_eq!(s.lookup(tok), Some(r.params[0]), "lane {lane}");
    }
}

#[test]
fn logout_cohort_destroys_sessions_on_device() {
    let (workload, store, gpu) = harness();
    let mut sessions = SessionArrayHost::new(1024, SALT);
    let mut generator = RequestGenerator::new(128, 19);
    let cohort = generator.uniform(RequestType::Logout, 32, &mut sessions);
    assert_eq!(sessions.len(), 32);

    let mut s = sessions.clone();
    run_cohort_traced(
        &workload,
        &store,
        &mut s,
        &cohort,
        &gpu,
        &opts(true),
        &NoopRecorder,
    )
    .unwrap();
    assert_eq!(s.len(), 0, "all sessions destroyed");
}

/// Three-warp cohorts of every type answer as the native handler does,
/// request by request. Login warps claim session slots by cross-warp
/// `AtomicAdd` probing, so Login also runs on a table small enough that
/// inserts collide. Which lane wins a contested slot depends on the order
/// its probes meet, so the device may hand out other tokens than the
/// native handler serving one request at a time: each device token must
/// be unique and resolve to its own user, and the page must otherwise be
/// the native one.
#[test]
fn multi_warp_cohorts_match_native() {
    let (workload, store, gpu) = harness();
    let cases = RequestType::ALL
        .iter()
        .map(|&ty| (ty, 1024))
        .chain([(RequestType::Login, 256)]);
    for (ty, slots) in cases {
        let ctx = format!("{ty} on {slots} slots");
        let mut sessions = SessionArrayHost::new(slots, SALT);
        let mut generator = RequestGenerator::new(128, 100 + ty.id() as u64);
        let cohort = generator.uniform(ty, 96, &mut sessions);

        let mut native_sessions = sessions.clone();
        let native: Vec<Vec<u8>> = cohort
            .iter()
            .map(|r| handle_native(&r.banking_request(), &store, &mut native_sessions))
            .collect();
        let result = run_cohort_traced(
            &workload,
            &store,
            &mut sessions,
            &cohort,
            &gpu,
            &CohortOptions {
                session_capacity: slots,
                ..opts(true)
            },
            &NoopRecorder,
        )
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert!(result.launches.iter().all(|(_, l)| l.stats.warps == 3));
        let mut tokens = std::collections::HashSet::new();
        for (lane, (k, n)) in result.responses.iter().zip(&native).enumerate() {
            let what = format!("{ctx} lane {lane}");
            if ty.is_login() {
                let (tok, native_tok) = (sid(k), sid(n));
                assert_eq!(sessions.lookup(tok), Some(cohort[lane].params[0]), "{what}");
                assert!(tokens.insert(tok), "{what}: token {tok} handed out twice");
                let n = String::from_utf8_lossy(n)
                    .replace(&format!("SID={native_tok}"), &format!("SID={tok}"));
                assert_equivalent(k, n.as_bytes(), &what);
            } else {
                assert_equivalent(k, n, &what);
            }
        }
        assert_eq!(
            sessions.len(),
            native_sessions.len(),
            "{ctx}: live sessions"
        );
    }
}

#[test]
fn divergence_appears_in_variable_row_counts() {
    // Account summaries over users with 2–4 accounts: the row loop
    // diverges, SIMD efficiency drops below 1 but stays high.
    let (workload, store, gpu) = harness();
    let ty = RequestType::AccountSummary;
    let mut sessions = SessionArrayHost::new(1024, SALT);
    let mut generator = RequestGenerator::new(128, 23);
    let cohort = generator.uniform(ty, 64, &mut sessions);

    let mut s = sessions.clone();
    let result = run_cohort_traced(
        &workload,
        &store,
        &mut s,
        &cohort,
        &gpu,
        &opts(true),
        &NoopRecorder,
    )
    .unwrap();
    let (_, resp_launch) = result
        .launches
        .iter()
        .find(|(n, _)| n.ends_with("_response"))
        .unwrap();
    let eff = resp_launch.stats.simd_efficiency(32);
    assert!(eff < 1.0, "variable rows must diverge (eff {eff})");
    assert!(
        eff > 0.5,
        "cohorts of one type stay mostly converged ({eff})"
    );
}

/// The pages whose body holds an `Action::Rows` table.
const ROWS_PAGES: [RequestType; 5] = [
    RequestType::Login,
    RequestType::AccountSummary,
    RequestType::BillPayStatusOutput,
    RequestType::OrderCheck,
    RequestType::Transfer,
];

/// Cohorts that diverge on purpose. Users hold different numbers of
/// accounts, payees and transactions, so a cohort of any `Rows` page
/// leaves its table with its members' cursors at different offsets, and
/// every static fragment after the table — most of the page — is copied
/// from diverged cursors. For each such page a full warp whose members
/// provably differ in row count must still answer byte-for-byte like the
/// native handler. (Launch stats against the legacy engine, on cohorts
/// held to the same row-count assertion:
/// `executor_differential::banking_kernels_legacy_vs_predecoded_lockstep`.)
#[test]
fn rows_pages_with_mixed_row_counts_match_native() {
    use std::collections::BTreeSet;

    let (workload, store, gpu) = harness();
    for ty in RequestType::ALL {
        let mut sessions = SessionArrayHost::new(1024, SALT);
        let mut generator = RequestGenerator::new(128, 31 + ty.id() as u64);
        let cohort = generator.uniform(ty, 32, &mut sessions);
        let row_counts: BTreeSet<usize> =
            cohort.iter().filter_map(|r| r.table_rows(&store)).collect();
        if !ROWS_PAGES.contains(&ty) {
            assert!(row_counts.is_empty(), "{ty}: ROWS_PAGES is stale");
            continue;
        }
        assert!(
            row_counts.len() >= 2,
            "{ty}: cohort must mix row counts to diverge its cursors, got {row_counts:?}"
        );

        let mut native_sessions = sessions.clone();
        let native: Vec<Vec<u8>> = cohort
            .iter()
            .map(|r| handle_native(&r.banking_request(), &store, &mut native_sessions))
            .collect();
        let result = run_cohort_traced(
            &workload,
            &store,
            &mut sessions,
            &cohort,
            &gpu,
            &opts(true),
            &NoopRecorder,
        )
        .expect("cohort runs");
        for (lane, (k, n)) in result.responses.iter().zip(&native).enumerate() {
            assert_equivalent(k, n, &format!("{ty} lane {lane}"));
            assert_clen_consistent(k, &format!("{ty} lane {lane}"));
        }
    }
}

/// Footprint sanitizer differential: every request type, in both memory
/// layouts, runs its full cohort pipeline with every kernel launch
/// checked against its inferred static footprint — zero escapes, and
/// responses, launch stats, and session state bit-identical to the
/// unsanitized run (the sanitizer is a checking mode, never a semantic
/// one).
#[test]
fn sanitized_cohorts_match_unsanitized_for_every_type() {
    let (workload, store, gpu) = harness();
    for transposed in [true, false] {
        for ty in RequestType::ALL {
            let mut sessions = SessionArrayHost::new(1024, SALT);
            let mut generator = RequestGenerator::new(128, 29);
            let cohort = generator.uniform(ty, 48, &mut sessions);

            let mut plain_sessions = sessions.clone();
            let plain = run_cohort_traced(
                &workload,
                &store,
                &mut plain_sessions,
                &cohort,
                &gpu,
                &opts(transposed),
                &NoopRecorder,
            )
            .unwrap();

            let sanitized_opts = CohortOptions {
                sanitize: true,
                ..opts(transposed)
            };
            let mut sanitized_sessions = sessions.clone();
            let sanitized = run_cohort_traced(
                &workload,
                &store,
                &mut sanitized_sessions,
                &cohort,
                &gpu,
                &sanitized_opts,
                &NoopRecorder,
            )
            .unwrap_or_else(|e| panic!("{ty:?} transposed={transposed}: footprint escape: {e}"));

            assert_eq!(
                plain.responses, sanitized.responses,
                "{ty:?} transposed={transposed} responses"
            );
            assert_eq!(
                format!("{:?}", plain.launches),
                format!("{:?}", sanitized.launches),
                "{ty:?} transposed={transposed} launch stats"
            );
            assert_eq!(
                plain_sessions.to_device_bytes(),
                sanitized_sessions.to_device_bytes(),
                "{ty:?} transposed={transposed} sessions"
            );
        }
    }
}

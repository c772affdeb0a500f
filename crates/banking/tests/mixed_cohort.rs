//! Parse before dispatch: a cohort of any mix of the 14 Banking pages runs
//! through one [`DeviceContext::run_cohort`], whose parser kernel splits
//! it into per-type sub-cohorts; and a reactor over either Banking handler
//! launches every page that arrives in one fill window as one cohort.

use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rhythm_banking::genreq::GeneratedRequest;
use rhythm_banking::prelude::*;
use rhythm_http::padding::eq_modulo_padding;
use rhythm_net::{read_response, send_request, CohortHandler, NetConfig, Reactor};
use rhythm_obs::NoopRecorder;
use rhythm_simt::gpu::{Gpu, GpuConfig};
use rhythm_simt::ir::{BinOp, MemSpace};
use rhythm_simt::{Program, ProgramBuilder};

const SALT: u32 = 0x5EED_0001;
const USERS: u32 = 128;
const CAPACITY: u32 = 1024;

fn opts(verify: bool) -> CohortOptions {
    CohortOptions {
        session_capacity: CAPACITY,
        session_salt: SALT,
        verify,
        ..CohortOptions::default()
    }
}

/// `n` requests of random types, every one of the 14 among the first 14
/// when `n` allows, with their sessions live in the returned table.
fn mixed_cohort(n: usize, seed: u64) -> (Vec<GeneratedRequest>, SessionArrayHost) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut generator = RequestGenerator::new(USERS, seed);
    let mut sessions = SessionArrayHost::new(CAPACITY, SALT);
    let mut types = RequestType::ALL.to_vec();
    for i in (1..types.len()).rev() {
        types.swap(i, rng.gen_range(0..=i));
    }
    while types.len() < n {
        types.push(RequestType::ALL[rng.gen_range(0..RequestType::ALL.len())]);
    }
    let reqs = types[..n]
        .iter()
        .map(|&ty| generator.one(ty, &mut sessions))
        .collect();
    (reqs, sessions)
}

/// Equal modulo cohort padding: trailing spaces on a line, and the
/// Content-Length that counts them.
fn same_page(device: &[u8], native: &[u8]) -> bool {
    let mask = |resp: &[u8]| -> Vec<u8> {
        String::from_utf8_lossy(resp)
            .split('\n')
            .map(|l| match l.starts_with("Content-Length:") {
                true => "Content-Length:",
                false => l,
            })
            .collect::<Vec<_>>()
            .join("\n")
            .into_bytes()
    };
    eq_modulo_padding(&mask(device), &mask(native))
}

/// Answer `reqs` natively, one by one in arrival order, from `sessions`.
fn native(
    reqs: &[GeneratedRequest],
    store: &BankStore,
    sessions: &mut SessionArrayHost,
) -> Vec<Vec<u8>> {
    reqs.iter()
        .map(|r| handle_native(&r.banking_request(), store, sessions))
        .collect()
}

/// Mixed cohorts of one lane, three, a full warp and two parser warps:
/// replies equal the native handlers' modulo padding, in input order; the
/// session array equals a serial native run in arrival order; and the
/// cohort's first launch is the parser over every lane, counting exactly
/// what `DeviceContext::parse` counts on the same requests.
#[test]
fn mixed_cohorts_match_native_in_input_order() {
    let workload = Workload::build();
    let store = BankStore::generate(USERS, 77);
    let gpu = Gpu::new(GpuConfig::gtx_titan());
    let opts = opts(true);
    for (n, seed) in [(1, 1), (3, 2), (32, 3), (40, 4)] {
        let (reqs, sessions) = mixed_cohort(n, seed);
        let mut ctx = DeviceContext::new(&store, &sessions, &gpu, &opts);
        let result = ctx
            .run_cohort(&workload, &store, &reqs, &NoopRecorder)
            .unwrap_or_else(|e| panic!("c{n}: {e}"));

        let mut host = sessions.clone();
        let want = native(&reqs, &store, &mut host);
        assert_eq!(result.responses.len(), n, "c{n}");
        for (lane, (got, want)) in result.responses.iter().zip(&want).enumerate() {
            assert!(
                same_page(got, want),
                "c{n} lane {lane} ({}): device reply differs from native",
                reqs[lane].ty
            );
        }
        assert!(
            ctx.session_bytes() == &host.to_device_bytes()[..],
            "c{n}: session array differs from the serial native run"
        );

        let (parser, parsed) = ctx.parse(&workload, &reqs).unwrap();
        let (name, launch) = &result.launches[0];
        assert_eq!(name, "parser", "c{n}");
        assert_eq!(launch.stats, parser.stats, "c{n}: parser launch");
        assert_eq!(launch.time_s.to_bits(), parser.time_s.to_bits(), "c{n}");
        for (r, &(ty, ..)) in reqs.iter().zip(&parsed) {
            assert_eq!(ty, r.ty.id(), "c{n}");
        }
        // One parser launch, then each type's stages once.
        let mut types: Vec<RequestType> = reqs.iter().map(|r| r.ty).collect();
        types.sort();
        types.dedup();
        let stages: usize = types
            .iter()
            .map(|&ty| workload.cohort_steps(ty).count() - 1)
            .sum();
        assert_eq!(result.launches.len(), 1 + stages, "c{n}");
    }
}

/// Every lane bumps one of the first four session words, then stores far
/// outside device memory.
fn scribble_then_fault(session_base: u32) -> Program {
    let mut b = ProgramBuilder::new("scribble_then_fault");
    let g = b.global_id();
    let three = b.imm(3);
    let slot = b.bin(BinOp::And, g, three);
    let four = b.imm(4);
    let word = b.bin(BinOp::Mul, slot, four);
    let one = b.imm(1);
    b.atomic_add(MemSpace::Global, word, session_base, one);
    let addr = b.imm(0xFFFF_FF00);
    b.st_global_word(addr, 0, one);
    b.halt();
    b.build().expect("assembles")
}

/// A mixed cohort in which one type's sub-cohort faults after writing
/// session bytes: its members are answered `500`, every other member gets
/// the native bytes, and the session array is the native one for the other
/// members alone — the faulting sub-cohort's writes, its own stages' and
/// the scribble's, are undone and nobody else's are. A faulting parser
/// answers the whole cohort `500` and leaves the array as it was.
#[test]
fn a_faulting_sub_cohort_answers_only_its_members_500() {
    let store = BankStore::generate(USERS, 77);
    let (reqs, sessions) = mixed_cohort(24, 9);
    let head = CohortLayout::new(0, 0, CAPACITY, SALT, 0, true);
    let wire: Vec<_> = reqs
        .iter()
        .map(|r| rhythm_http::HttpRequest::parse(&r.raw).expect("canonical request"))
        .collect();
    for bad in [
        RequestType::Login,
        RequestType::Logout,
        RequestType::Transfer,
    ] {
        assert!(reqs.iter().any(|r| r.ty == bad), "{bad} in the cohort");
        let mut poisoned = Workload::build();
        poisoned.stages[bad.id() as usize].push(scribble_then_fault(head.session_base));
        let mut h = SimtHandler::new(
            poisoned,
            store.clone(),
            sessions.clone(),
            Gpu::new(GpuConfig::gtx_titan()),
            opts(false),
        );
        let replies = h.execute(0, &wire);

        let kept: Vec<GeneratedRequest> = reqs.iter().filter(|r| r.ty != bad).cloned().collect();
        let mut host = sessions.clone();
        let mut want = native(&kept, &store, &mut host).into_iter();
        assert_eq!(replies.len(), reqs.len(), "{bad}");
        for (lane, (r, got)) in reqs.iter().zip(&replies).enumerate() {
            if r.ty == bad {
                assert!(got.starts_with(b"HTTP/1.1 500"), "{bad}: lane {lane}");
            } else {
                let want = want.next().expect("one native reply per kept member");
                assert!(same_page(got, &want), "{bad}: lane {lane} ({})", r.ty);
            }
        }
        assert_eq!(
            h.sessions().to_device_bytes(),
            host.to_device_bytes(),
            "{bad}: only the faulting sub-cohort's session writes are undone"
        );
        assert_eq!((h.cohorts, h.faults), (1, 1), "{bad}");
    }

    let mut poisoned = Workload::build();
    poisoned.parser = scribble_then_fault(head.session_base);
    let mut h = SimtHandler::new(
        poisoned,
        store.clone(),
        sessions.clone(),
        Gpu::new(GpuConfig::gtx_titan()),
        opts(false),
    );
    assert!(h.execute(0, &wire).is_empty(), "the front end pads 500s");
    assert_eq!(h.sessions().to_device_bytes(), sessions.to_device_bytes());
    assert_eq!((h.cohorts, h.faults), (0, 1));
}

/// Send `reqs` in one write to a reactor over `handler` whose fill window
/// is long, and serve until all are answered `200`. Returns the reactor's
/// cohort count and the labels of its latency histograms.
fn one_window<H: CohortHandler>(handler: H, reqs: &[GeneratedRequest]) -> (u64, Vec<String>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (accepted, _) = listener.accept().expect("accept");
    let config = NetConfig {
        fill_timeout: Duration::from_millis(100),
        ..NetConfig::default()
    };
    let mut reactor = Reactor::new(config, handler).expect("reactor");
    reactor.admit(accepted);
    let burst: Vec<u8> = reqs.iter().flat_map(|r| r.raw.clone()).collect();
    send_request(&mut client, &burst).expect("send");
    let deadline = Instant::now() + Duration::from_secs(10);
    while reactor.stats().responses < reqs.len() as u64 && Instant::now() < deadline {
        reactor.poll();
    }
    let mut carry = Vec::new();
    for r in reqs {
        let resp = read_response(&mut client, &mut carry).expect("reply");
        assert_eq!(resp.status, 200, "{}", r.ty);
    }
    let labels = reactor.telemetry().shard(0).latency_views();
    let (stats, _) = reactor.into_parts();
    assert_eq!(stats.responses, reqs.len() as u64);
    (
        stats.cohorts,
        labels.into_iter().map(|(name, _)| name).collect(),
    )
}

/// Three different pages arriving in one fill window launch as one cohort
/// on either handler, and each page still gets its own latency label.
#[test]
fn three_pages_in_one_window_launch_one_cohort() {
    let store = BankStore::generate(USERS, 77);
    let mut sessions = SessionArrayHost::new(CAPACITY, SALT);
    let mut generator = RequestGenerator::new(USERS, 5);
    let pages = [
        RequestType::Login,
        RequestType::AccountSummary,
        RequestType::Transfer,
    ];
    let reqs: Vec<_> = pages
        .iter()
        .map(|&ty| generator.one(ty, &mut sessions))
        .collect();
    let mut want: Vec<String> = pages.iter().map(|t| t.file_name().to_string()).collect();
    want.sort();

    let scalar = ScalarHandler::new(store.clone(), sessions.clone());
    let simt = SimtHandler::new(
        Workload::build(),
        store,
        sessions,
        Gpu::new(GpuConfig::gtx_titan()),
        opts(true),
    );
    for (name, (cohorts, mut labels)) in [
        ("scalar", one_window(scalar, &reqs)),
        ("simt", one_window(simt, &reqs)),
    ] {
        labels.sort();
        assert_eq!(cohorts, 1, "{name}: one launch for the window");
        assert_eq!(labels, want, "{name}: one latency label per page");
    }
}

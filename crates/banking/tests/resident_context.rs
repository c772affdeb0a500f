//! The resident device context against its copy-in/copy-out oracle: one
//! persistent [`DeviceContext`] must be indistinguishable from chaining
//! [`run_cohort_traced`] through a host session table — responses, launch
//! results and session bytes — and a faulting cohort must leave no trace
//! in the resident session array.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rhythm_banking::genreq::GeneratedRequest;
use rhythm_banking::prelude::*;
use rhythm_net::{read_response, send_request, NetConfig, ShardedServer};
use rhythm_obs::NoopRecorder;
use rhythm_simt::exec::LaunchConfig;
use rhythm_simt::gpu::{Gpu, GpuConfig};
use rhythm_simt::ir::{BinOp, MemSpace};
use rhythm_simt::mem::{ConstPool, DeviceMemory};
use rhythm_simt::{GateRejection, LaunchGate, Program, ProgramBuilder};

const SALT: u32 = 0x5EED_0001;
const USERS: u32 = 128;

fn opts(capacity: u32, sanitize: bool) -> CohortOptions {
    CohortOptions {
        session_capacity: capacity,
        session_salt: SALT,
        sanitize,
        ..CohortOptions::default()
    }
}

/// `rounds` × 14 uniform cohorts of 1–32 requests, every type once per
/// round in a seeded order (so Logins and Logouts fall between the
/// read-only types), all tokens live in the returned initial table.
fn seeded_cohorts(
    rounds: usize,
    capacity: u32,
    seed: u64,
) -> (Vec<Vec<GeneratedRequest>>, SessionArrayHost) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut generator = RequestGenerator::new(USERS, seed ^ 0xC0);
    let mut sessions = SessionArrayHost::new(capacity, SALT);
    let mut cohorts = Vec::new();
    for _ in 0..rounds {
        let mut order = RequestType::ALL.to_vec();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for ty in order {
            let n = rng.gen_range(1..=32usize);
            cohorts.push(generator.uniform(ty, n, &mut sessions));
        }
    }
    (cohorts, sessions)
}

fn differential(rounds: usize, sanitize: bool, seed: u64) {
    const CAPACITY: u32 = 8192;
    let workload = Workload::build();
    let store = BankStore::generate(USERS, 77);
    let gpu = Gpu::new(GpuConfig::gtx_titan());
    let opts = opts(CAPACITY, sanitize);
    let (cohorts, initial) = seeded_cohorts(rounds, CAPACITY, seed);

    let mut ctx = DeviceContext::new(&store, &initial, &gpu, &opts);
    let mut chained = initial;
    for (i, reqs) in cohorts.iter().enumerate() {
        let what = format!("cohort {i}: {} × {}", reqs[0].ty, reqs.len());
        let resident = ctx
            .run_cohort(&workload, &store, reqs, &NoopRecorder)
            .unwrap_or_else(|e| panic!("{what} on the context: {e}"));
        let oracle = run_cohort_traced(
            &workload,
            &store,
            &mut chained,
            reqs,
            &gpu,
            &opts,
            &NoopRecorder,
        )
        .unwrap_or_else(|e| panic!("{what} on the oracle: {e}"));
        assert_eq!(resident.responses, oracle.responses, "{what}: responses");
        assert_eq!(resident.launches, oracle.launches, "{what}: launches");
        assert_eq!(resident.layout, oracle.layout, "{what}: layout");
    }
    assert_eq!(
        ctx.session_bytes(),
        &chained.to_device_bytes()[..],
        "final session array"
    );
    assert_eq!(ctx.sessions().len(), chained.len());
}

/// ≥ 200 cohorts over all 14 types and sizes 1–32 on one context agree
/// with `run_cohort_traced` chained through a host table.
#[test]
fn persistent_context_matches_chained_run_cohort() {
    differential(15, false, 0xD1FF);
}

/// The same under the footprint sanitizer: the claimed footprints hold on
/// the reordered layout with the image re-cut per cohort.
#[test]
fn persistent_context_matches_chained_run_cohort_sanitized() {
    differential(15, true, 0x5A17);
}

/// A session table built with another salt than the options' is refused
/// at construction: the kernels invert tokens with the options' salt, so
/// every token minted into that table would answer 403 on the device.
#[test]
#[should_panic(expected = "session array capacity and salt must match options")]
fn context_refuses_a_session_table_with_another_salt() {
    let store = BankStore::generate(USERS, 77);
    let gpu = Gpu::new(GpuConfig::gtx_titan());
    let table = SessionArrayHost::new(64, SALT ^ 1);
    DeviceContext::new(&store, &table, &gpu, &opts(64, false));
}

/// A kernel that stores far outside device memory.
fn wild_store() -> Program {
    let mut b = ProgramBuilder::new("wild_store");
    let addr = b.imm(0xFFFF_FF00);
    let v = b.imm(1);
    b.st_global_word(addr, 0, v);
    b.halt();
    b.build().expect("assembles")
}

/// A Login cohort that faults *after* `login_response` inserted its
/// sessions: the resident array is put back, and what follows equals a
/// run in which that cohort was never sent.
#[test]
fn fault_after_session_writes_restores_the_array() {
    const CAPACITY: u32 = 256;
    let workload = Workload::build();
    let mut poisoned = Workload::build();
    poisoned.stages[RequestType::Login.id() as usize].push(wild_store());
    let store = BankStore::generate(USERS, 77);
    // Ungated, so the wild store faults at run time, not at admission.
    let gpu = Gpu::new(GpuConfig::gtx_titan());
    let opts = CohortOptions {
        verify: false,
        ..opts(CAPACITY, false)
    };

    let mut generator = RequestGenerator::new(USERS, 5);
    let mut table = SessionArrayHost::new(CAPACITY, SALT);
    let first = generator.uniform(RequestType::Login, 3, &mut table);
    let lost = generator.uniform(RequestType::Login, 5, &mut table);
    let next = generator.uniform(RequestType::Login, 2, &mut table);

    let mut hit = DeviceContext::new(&store, &table, &gpu, &opts);
    let mut clean = DeviceContext::new(&store, &table, &gpu, &opts);
    let run = |ctx: &mut DeviceContext, w: &Workload, reqs: &[GeneratedRequest]| {
        ctx.run_cohort(w, &store, reqs, &NoopRecorder)
    };
    for ctx in [&mut hit, &mut clean] {
        run(ctx, &workload, &first).expect("first logins");
    }
    let before = hit.session_bytes().to_vec();
    assert!(
        run(&mut hit, &poisoned, &lost).is_err(),
        "wild store faults"
    );
    assert_eq!(hit.session_bytes(), &before[..], "session writes undone");

    let after_fault = run(&mut hit, &workload, &next).expect("next logins");
    let never_sent = run(&mut clean, &workload, &next).expect("next logins");
    assert_eq!(after_fault.responses, never_sent.responses);
    assert_eq!(hit.session_bytes(), clean.session_bytes());
    assert_eq!(hit.sessions().len(), 5, "3 + 2 logins, none of the lost 5");
}

/// A kernel in which every lane bumps one of four words of the session
/// array, after which the lanes of warp 1 store far outside device memory:
/// warp 0 finishes its session writes, warp 1 faults after its own.
fn scribble_then_fault_in_warp_1(session_base: u32) -> Program {
    let mut b = ProgramBuilder::new("scribble_then_fault_in_warp_1");
    let g = b.global_id();
    let three = b.imm(3);
    let slot = b.bin(BinOp::And, g, three);
    let four = b.imm(4);
    let word = b.bin(BinOp::Mul, slot, four);
    let one = b.imm(1);
    b.atomic_add(MemSpace::Global, word, session_base, one);
    let warp = b.imm(32);
    let in_warp_1 = b.bin(BinOp::GeU, g, warp);
    b.if_then(in_warp_1, |b| {
        let addr = b.imm(0xFFFF_FF00);
        b.st_global_word(addr, 0, one);
    });
    b.halt();
    b.build().expect("assembles")
}

/// For every request type: a two-warp cohort whose kernels gain a stage
/// that bumps session words in both warps and then faults in warp 1 only.
/// The cohort runs after a clean cohort of the same type and size on the
/// same context, so nothing learned from the clean run may decide how the
/// faulting one is guarded: the journal puts back every byte either warp
/// wrote, and the table keeps serving. A clean read-only cohort journals
/// nothing.
#[test]
fn two_warp_cohorts_faulting_in_warp_1_leave_no_trace() {
    const CAPACITY: u32 = 1024;
    let workload = Workload::build();
    let store = BankStore::generate(USERS, 77);
    let opts = CohortOptions {
        verify: false,
        ..opts(CAPACITY, false)
    };
    let gpu = Gpu::new(GpuConfig::gtx_titan());
    for ty in RequestType::ALL {
        let what = ty.to_string();
        let writer = ty.is_login() || ty.is_logout();
        let change = |live: u32| match (ty.is_login(), ty.is_logout()) {
            (true, _) => live + 64,
            (_, true) => live - 64,
            _ => live,
        };
        let mut generator = RequestGenerator::new(USERS, 11);
        let mut table = SessionArrayHost::new(CAPACITY, SALT);
        let warm = generator.uniform(RequestType::Login, 7, &mut table);
        let clean = generator.uniform(ty, 64, &mut table);
        let lost = generator.uniform(ty, 64, &mut table);
        let mut ctx = DeviceContext::new(&store, &table, &gpu, &opts);
        let layout = ctx
            .run_cohort(&workload, &store, &warm, &NoopRecorder)
            .expect("warm-up logins")
            .layout;
        let live = ctx.sessions().len();
        ctx.run_cohort(&workload, &store, &clean, &NoopRecorder)
            .unwrap_or_else(|e| panic!("{what}: clean cohort: {e}"));
        assert_eq!(ctx.sessions().len(), change(live), "{what}: clean cohort");
        if !writer {
            assert_eq!(ctx.journaled_bytes(), 0, "{what}: read-only cohort");
        }

        let mut poisoned = Workload::build();
        poisoned.stages[ty.id() as usize].push(scribble_then_fault_in_warp_1(layout.session_base));
        let before = ctx.session_bytes().to_vec();
        let live = ctx.sessions().len();
        assert!(
            ctx.run_cohort(&poisoned, &store, &lost, &NoopRecorder)
                .is_err(),
            "{what}: warp 1 faults"
        );
        assert!(
            ctx.session_bytes() == &before[..],
            "{what}: session bytes differ from the pre-cohort bytes"
        );

        // Unpoisoned, the same cohort goes through.
        ctx.run_cohort(&workload, &store, &lost, &NoopRecorder)
            .unwrap_or_else(|e| panic!("{what}: clean rerun: {e}"));
        assert_eq!(ctx.sessions().len(), change(live), "{what}: clean rerun");
    }
}

/// What a writer cohort's fault insurance costs is what it wrote: a warm
/// full-warp Login on the benchmark's 65 536-slot table (1 MiB of session
/// array) journals under 4 KiB.
#[test]
fn login_cohort_journal_is_proportional_to_its_writes_not_the_table() {
    const CAPACITY: u32 = 65_536;
    let workload = Workload::build();
    let store = BankStore::generate(USERS, 77);
    let gpu = Gpu::new(GpuConfig::gtx_titan());
    let opts = opts(CAPACITY, false);
    let mut generator = RequestGenerator::new(USERS, 3);
    let mut table = SessionArrayHost::new(CAPACITY, SALT);
    let cold = generator.uniform(RequestType::Login, 32, &mut table);
    let warm = generator.uniform(RequestType::Login, 32, &mut table);
    let mut ctx = DeviceContext::new(&store, &table, &gpu, &opts);
    assert!(ctx.session_bytes().len() >= 1 << 20);
    for reqs in [&cold, &warm] {
        ctx.run_cohort(&workload, &store, reqs, &NoopRecorder)
            .expect("logins");
    }
    assert_eq!(ctx.sessions().len(), 64);
    let journaled = ctx.journaled_bytes();
    assert!(
        (32..4096).contains(&journaled),
        "a 32-login cohort journaled {journaled} bytes"
    );
}

/// Admits everything except `login_response` while armed.
struct RejectLoginResponse {
    armed: Arc<AtomicBool>,
    /// Launches admitted while armed: the stages that ran before the
    /// rejection.
    admitted_armed: Arc<AtomicU32>,
}

impl LaunchGate for RejectLoginResponse {
    fn check(
        &self,
        program: &Program,
        _cfg: &LaunchConfig,
        _mem: &DeviceMemory,
        _pool: &ConstPool,
    ) -> Result<(), GateRejection> {
        if !self.armed.load(Ordering::SeqCst) {
            return Ok(());
        }
        if program.name() != "login_response" {
            self.admitted_armed.fetch_add(1, Ordering::SeqCst);
            return Ok(());
        }
        Err(GateRejection {
            rule: "test-reject-login-response".into(),
            program: program.name().into(),
            block: None,
            op_index: None,
            message: "refused".into(),
        })
    }
}

/// Over real sockets: a Login cohort whose `login_response` the gate
/// rejects — after its earlier stages ran — is answered with 500s and
/// counted in `faults`; the next cohort's bytes and the final session
/// image equal a server that was never sent the faulting cohort.
#[test]
fn faulting_login_cohort_answers_500_and_leaves_no_trace() {
    const CAPACITY: u32 = 256;
    let login = |user: u32| {
        let body = format!("userid={user}");
        format!(
            "POST /bank/login.php HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    };
    // Serve cohorts of two pipelined logins each; `fault` names the cohort
    // (if any) during which the gate is armed, `skip` one never sent.
    let serve = |fault: Option<usize>, skip: Option<usize>| {
        let armed = Arc::new(AtomicBool::new(false));
        let admitted_armed = Arc::new(AtomicU32::new(0));
        let gpu = Gpu::new(GpuConfig::gtx_titan()).with_gate(Arc::new(RejectLoginResponse {
            armed: Arc::clone(&armed),
            admitted_armed: Arc::clone(&admitted_armed),
        }));
        let handler = SimtHandler::new(
            Workload::build(),
            BankStore::generate(USERS, 77),
            SessionArrayHost::new(CAPACITY, SALT),
            gpu,
            opts(CAPACITY, false),
        );
        let config = NetConfig {
            cohort_size: 2,
            fill_timeout: Duration::from_millis(200),
            ..NetConfig::default()
        };
        let server = ShardedServer::bind("127.0.0.1:0", config, vec![handler]).expect("bind");
        let addr = server.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let join = std::thread::spawn(move || server.run(&flag));

        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut carry = Vec::new();
        let mut answers = Vec::new();
        for cohort in 0..3usize {
            if skip == Some(cohort) {
                continue;
            }
            armed.store(fault == Some(cohort), Ordering::SeqCst);
            let users = [10 + 2 * cohort as u32, 11 + 2 * cohort as u32];
            send_request(&mut conn, &[login(users[0]), login(users[1])].concat()).unwrap();
            for _ in users {
                let resp = read_response(&mut conn, &mut carry).expect("response");
                answers.push((cohort, resp.status, resp.bytes));
            }
        }
        drop(conn);
        stop.store(true, Ordering::Relaxed);
        let mut run = join.join().expect("server thread");
        let (_, handler) = run.shards.pop().expect("one shard");
        (answers, handler, admitted_armed.load(Ordering::SeqCst))
    };

    let (faulted, hit, ran_before_rejection) = serve(Some(1), None);
    let (clean, never_sent, _) = serve(None, Some(1));

    assert!(ran_before_rejection >= 3, "parser and login stages ran");
    assert_eq!((hit.faults, hit.cohorts, hit.served), (1, 2, 4));
    assert_eq!((never_sent.faults, never_sent.cohorts), (0, 2));
    for (cohort, status, _) in &faulted {
        assert_eq!(*status, if *cohort == 1 { 500 } else { 200 });
    }
    let survivors: Vec<_> = faulted.into_iter().filter(|a| a.0 != 1).collect();
    assert_eq!(survivors, clean, "the other cohorts' bytes");
    assert_eq!(
        hit.sessions().to_device_bytes(),
        never_sent.sessions().to_device_bytes(),
        "final session image"
    );
    assert_eq!(hit.sessions().len(), 4);
}

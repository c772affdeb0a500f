//! The modelled-count golden file: every launch of every request type's
//! cohort at 1, 32 and 96 lanes, from one fixed generator seed, written
//! as its kernel name, the bits of its modelled `time_s` and every
//! `KernelStats` field — one line per launch. A change to the executor,
//! the kernels or the cost model that moves any modelled count by one
//! digit fails here.
//!
//! The file ends with the CPU model: one line per request type, from a
//! second fixed seed, with `DeviceContext::run_request_scalar`'s
//! instruction count, the length and FNV-1a hash of its block trace, and
//! the response length.

use rhythm_banking::prelude::*;
use rhythm_obs::NoopRecorder;
use rhythm_simt::gpu::{Gpu, GpuConfig};

const SALT: u32 = 0x5EED_0001;
const CAPACITY: u32 = 1024;

fn render() -> String {
    let workload = Workload::build();
    let store = BankStore::generate(128, 77);
    let gpu = Gpu::new(GpuConfig::gtx_titan());
    let opts = CohortOptions {
        session_capacity: CAPACITY,
        session_salt: SALT,
        ..CohortOptions::default()
    };
    let mut generator = RequestGenerator::new(128, 33);
    let mut out = String::new();
    for ty in RequestType::ALL {
        for cohort in [1, 32, 96] {
            let mut sessions = SessionArrayHost::new(CAPACITY, SALT);
            let reqs = generator.uniform(ty, cohort, &mut sessions);
            let result = run_cohort_traced(
                &workload,
                &store,
                &mut sessions,
                &reqs,
                &gpu,
                &opts,
                &NoopRecorder,
            )
            .unwrap_or_else(|e| panic!("{} c{cohort}: {e:?}", ty.file_name()));
            for (kernel, launch) in &result.launches {
                out += &format!(
                    "{} c{cohort} {kernel} time_s={:#018x} {:?}\n",
                    ty.file_name(),
                    launch.time_s.to_bits(),
                    launch.stats
                );
            }
        }
    }
    let mut generator = RequestGenerator::new(128, 41);
    let empty = SessionArrayHost::new(CAPACITY, SALT);
    let mut ctx = DeviceContext::new(&store, &empty, &gpu, &opts);
    for ty in RequestType::ALL {
        let mut sessions = empty.clone();
        let req = generator.one(ty, &mut sessions);
        let r = ctx
            .run_request_scalar(&workload, &store, &mut sessions, &req)
            .unwrap_or_else(|e| panic!("{} cpu: {e:?}", ty.file_name()));
        out += &format!(
            "{} cpu instructions={} trace_len={} trace_fnv={:#018x} response_len={}\n",
            ty.file_name(),
            r.instructions,
            r.trace.len(),
            fnv1a(&r.trace),
            r.response.len()
        );
    }
    out
}

/// 64-bit FNV-1a over the little-endian bytes of a block trace.
fn fnv1a(trace: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in trace.iter().flat_map(|id| id.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn modelled_counts_match_golden_file() {
    let rendered = render();
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/modelled_counts.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
            .expect("golden directory");
        std::fs::write(golden_path, &rendered).expect("write golden");
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden file present");
    assert_eq!(
        rendered, golden,
        "modelled counts drifted from tests/golden/modelled_counts.txt \
         (run with UPDATE_GOLDEN=1 to regenerate intentionally)"
    );
}

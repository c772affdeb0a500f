//! The modelled-count golden file: every launch of every request type's
//! cohort at 1, 32 and 96 lanes, from one fixed generator seed, written
//! as its kernel name, the bits of its modelled `time_s` and every
//! `KernelStats` field — one line per launch. A change to the executor,
//! the kernels or the cost model that moves any modelled count by one
//! digit fails here.

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
    out
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

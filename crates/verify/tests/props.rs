//! Property: programs the analyzer admits actually behave. Random
//! structured kernels that lint clean (no `Error` findings) execute
//! bit-identically with their lanes run one at a time on the reference
//! engine and in lockstep on the SIMT executor
//! — i.e. the gate's admission criterion never admits a kernel whose
//! lockstep execution diverges from its sequential semantics.

use proptest::prelude::*;

use rhythm_obs::NoopRecorder;
use rhythm_simt::exec::legacy::execute_lanes;
use rhythm_simt::exec::simt::execute_simt;
use rhythm_simt::exec::LaunchConfig;
use rhythm_simt::mem::{ConstPool, DeviceMemory};
use rhythm_verify::corpus::build_kernel;
use rhythm_verify::{verify_program, LaunchSpec};

const LANES: u32 = 32;
const MEM_BYTES: usize = LANES as usize * 4;

proptest! {
    #[test]
    fn lint_clean_kernels_execute_identically_on_both_executors(
        seed in any::<u32>(),
        steps in prop::collection::vec(any::<u8>(), 1..10),
    ) {
        let program = build_kernel(seed, &steps);

        // The admission criterion the Verifier gate applies.
        let mut spec = LaunchSpec::lanes(LANES);
        spec.params = Some(vec![]);
        spec.global_bytes = Some(MEM_BYTES as u64);
        let report = verify_program(&program, &spec);
        prop_assert!(
            report.is_launchable(),
            "constructively safe kernel flagged with errors:\n{}",
            report
        );

        // Sequential reference: one lane at a time.
        let pool = ConstPool::new();
        let cfg = LaunchConfig::new(LANES, []);
        let mut reference = DeviceMemory::new(MEM_BYTES);
        execute_lanes(&program, &cfg, &mut reference, &pool, None).unwrap();

        let mut mem = DeviceMemory::new(MEM_BYTES);
        execute_simt(&program, &cfg, &mut mem, &pool, &NoopRecorder).unwrap();
        prop_assert_eq!(
            mem.as_bytes(),
            reference.as_bytes(),
            "SIMT diverged from the sequential reference"
        );
    }
}

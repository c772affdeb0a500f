//! Property: programs the analyzer admits actually behave. Random
//! structured kernels that lint clean (no `Error` findings) execute
//! bit-identically on the scalar reference executor and the SIMT executor
//! at several worker counts — i.e. the gate's admission criterion never
//! admits a kernel whose parallel execution diverges from its sequential
//! semantics.

use proptest::prelude::*;

use rhythm_obs::NoopRecorder;
use rhythm_simt::exec::scalar::{execute_scalar, ScalarRun};
use rhythm_simt::exec::simt::execute_simt;
use rhythm_simt::exec::LaunchConfig;
use rhythm_simt::mem::{ConstPool, DeviceMemory};
use rhythm_verify::corpus::build_kernel;
use rhythm_verify::{verify_program, LaunchSpec};

const LANES: u32 = 32;
const MEM_BYTES: usize = LANES as usize * 4;

proptest! {
    #[test]
    fn lint_clean_kernels_execute_identically_at_all_worker_counts(
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

        // Scalar reference: one lane at a time.
        let pool = ConstPool::new();
        let cfg = LaunchConfig::new(LANES, []);
        let mut reference = DeviceMemory::new(MEM_BYTES);
        let scalar_cfg = LaunchConfig::new(1, []);
        for id in 0..LANES {
            execute_scalar(
                &ScalarRun::new(&program, id),
                &scalar_cfg,
                &mut reference,
                &pool,
                None,
            )
            .unwrap();
        }

        for workers in [1usize, 2, 4] {
            let mut mem = DeviceMemory::new(MEM_BYTES);
            execute_simt(&program, &cfg, &mut mem, &pool, workers, &NoopRecorder).unwrap();
            prop_assert_eq!(
                mem.as_bytes(),
                reference.as_bytes(),
                "SIMT({} workers) diverged from scalar reference",
                workers
            );
        }
    }
}

//! A launch of one warp asks the OS nothing, and a device resolves
//! `workers: 0` ("one per core") at most once.
//!
//! Reads the process-wide [`auto_worker_resolutions`] counter, so this
//! file holds one test and nothing else launches kernels beside it.

use rhythm_obs::NoopRecorder;
use rhythm_simt::exec::LaunchConfig;
use rhythm_simt::gpu::{Gpu, GpuConfig};
use rhythm_simt::mem::{ConstPool, DeviceMemory};
use rhythm_simt::{auto_worker_resolutions, ProgramBuilder};

#[test]
fn one_warp_launches_never_resolve_and_a_device_resolves_once() {
    // Every lane stores its id, so the launches below do real work.
    let mut b = ProgramBuilder::new("ids");
    let g = b.global_id();
    b.st_global_byte(g, 0, g);
    b.halt();
    let kernel = b.build().expect("assembles");
    let pool = ConstPool::new();
    let launch = |gpu: &Gpu, lanes: u32| {
        let mut mem = DeviceMemory::new(64);
        gpu.launch(
            &kernel,
            &LaunchConfig::new(lanes, []),
            &mut mem,
            &pool,
            &NoopRecorder,
        )
        .expect("launches");
        assert_eq!(mem.as_bytes()[lanes as usize - 1], lanes as u8 - 1);
    };

    let config = GpuConfig::gtx_titan();
    assert_eq!(config.workers, 0, "the default is one worker per core");
    let gpu = Gpu::new(config);

    let before = auto_worker_resolutions();
    for lanes in [1, 5, 32] {
        launch(&gpu, lanes);
    }
    assert_eq!(
        auto_worker_resolutions(),
        before,
        "a one-warp launch asked for the core count"
    );

    launch(&gpu, 64);
    launch(&gpu, 64);
    launch(&gpu.clone(), 64);
    assert!(
        auto_worker_resolutions() - before <= 1,
        "one device resolved its worker count more than once"
    );
    assert_eq!(gpu.config().workers, 0, "the config still says automatic");
}

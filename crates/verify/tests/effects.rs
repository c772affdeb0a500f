//! Effect-summary engine: corpus verdicts, lint rules, Verifier caching,
//! and the soundness property the engine rests on — every executed global
//! access of a lint-clean kernel lies inside its inferred footprint, with
//! the runtime sanitizer as oracle.

use std::sync::Arc;

use proptest::prelude::*;

use rhythm_obs::NoopRecorder;
use rhythm_simt::exec::simt::execute_simt;
use rhythm_simt::exec::{AccessKind, FootprintSpec, LaunchConfig};
use rhythm_simt::ir::MemSpace;
use rhythm_simt::mem::{ConstPool, DeviceMemory};
use rhythm_simt::ExecError;
use rhythm_verify::corpus::{build_kernel, data_dependent_writer, strided_writer};
use rhythm_verify::effects::{effect_lints, infer_effects, RegionMap};
use rhythm_verify::rules::rule_id;
use rhythm_verify::{verify_program, LaunchSpec, Severity, Verifier};

const LANES: u32 = 32;
const MEM_BYTES: usize = LANES as usize * 4;

fn spec_with(lanes: u32, global: u64) -> LaunchSpec {
    let mut s = LaunchSpec::lanes(lanes);
    s.params = Some(vec![]);
    s.global_bytes = Some(global);
    s
}

#[test]
fn strided_writer_summary_is_exact_and_closed() {
    let p = strided_writer("w", 4, 128);
    let fx = infer_effects(&p, &spec_with(8, 4096), &RegionMap::default());
    let g = fx.space(MemSpace::Global);
    let w = g.writes.regions().expect("non-top");
    assert_eq!(w.len(), 1);
    assert_eq!((w[0].lo, w[0].hi), (128, 128 + 4 * 7 + 4));
    assert!(w[0].exact);
    assert_eq!(w[0].gid_stride, 4);
    assert!(g.reads.is_empty());
    assert!(g.atomics.is_empty());
    assert!(effect_lints(&p, &spec_with(8, 4096), &RegionMap::default()).is_empty());
}

#[test]
fn data_dependent_writer_tops_without_anchor_and_lints() {
    let p = data_dependent_writer();
    let spec = LaunchSpec::lanes(8); // no extent, no regions
    let fx = infer_effects(&p, &spec, &RegionMap::default());
    assert!(fx.is_top_anywhere());
    let lints = effect_lints(&p, &spec, &RegionMap::default());
    assert!(lints
        .iter()
        .any(|d| d.rule == rule_id::EFFECTS_TOP && d.severity == Severity::Warning));

    // Anchored to a declared region: claimed, not ⊤, and no lint fires.
    let rm = RegionMap::new(vec![(0, 4096)]);
    let fx = infer_effects(&p, &spec_with(8, 65536), &rm);
    assert!(!fx.is_top_anywhere());
    assert!(fx.space(MemSpace::Global).writes.has_claimed());
    assert!(effect_lints(&p, &spec_with(8, 65536), &rm).is_empty());
}

#[test]
fn out_of_extent_exact_region_is_an_error() {
    // 8 lanes · stride 4 + offset 64 ends at 96 > extent 64.
    let p = strided_writer("oob", 4, 64);
    let lints = effect_lints(&p, &spec_with(8, 64), &RegionMap::default());
    assert!(lints
        .iter()
        .any(|d| d.rule == rule_id::EFFECTS_OOB && d.severity == Severity::Error));
}

#[test]
fn verifier_caches_effect_summaries_by_fingerprint() {
    let v = Verifier::new();
    let p = strided_writer("cached", 4, 0);
    let s = spec_with(8, 4096);
    let rm = RegionMap::new(vec![(0, 1024)]);
    let first = v.effects(&p, &s, &rm);
    let second = v.effects(&p, &s, &rm);
    assert!(
        Arc::ptr_eq(&first, &second),
        "second query must be a cache hit"
    );
    // A different environment is a distinct entry.
    let other = v.effects(&p, &spec_with(16, 4096), &rm);
    assert!(!Arc::ptr_eq(&first, &other));
}

#[test]
fn sanitizer_trips_loudly_on_a_wrong_claim() {
    // Claim only [0, 16) writable, then write [0, 128): lane 4's store at
    // address 16 escapes and must fail the launch with the exact access.
    let p = strided_writer("escapee", 4, 0);
    let mut cfg = LaunchConfig::new(LANES, []);
    cfg.sanitize = Some(Arc::new(FootprintSpec::new(
        Some(vec![]),
        Some(vec![(0, 16)]),
        Some(vec![]),
    )));
    let mut mem = DeviceMemory::new(MEM_BYTES);
    let err = execute_simt(&p, &cfg, &mut mem, &ConstPool::new(), &NoopRecorder).unwrap_err();
    assert_eq!(
        err,
        ExecError::FootprintEscape {
            kind: AccessKind::Write,
            addr: 16,
            width: 4
        }
    );
}

proptest! {
    /// Soundness: for lint-clean random kernels, every executed global
    /// access lies inside the inferred footprint — checked by running the
    /// sanitizer as the oracle and asserting both zero escapes and
    /// bit-identical memory against the unsanitized run.
    #[test]
    fn executed_accesses_stay_inside_inferred_footprint(
        seed in any::<u32>(),
        steps in prop::collection::vec(any::<u8>(), 1..10),
    ) {
        let program = build_kernel(seed, &steps);
        let spec = spec_with(LANES, MEM_BYTES as u64);
        prop_assert!(verify_program(&program, &spec).is_launchable());

        let fx = infer_effects(&program, &spec, &RegionMap::default());
        let footprint = Arc::new(fx.footprint_spec());
        let pool = ConstPool::new();

        let mut reference = DeviceMemory::new(MEM_BYTES);
        execute_simt(&program, &LaunchConfig::new(LANES, []), &mut reference, &pool, &NoopRecorder)
            .unwrap();

        let mut cfg = LaunchConfig::new(LANES, []);
        cfg.sanitize = Some(footprint);
        let mut mem = DeviceMemory::new(MEM_BYTES);
        let res = execute_simt(&program, &cfg, &mut mem, &pool, &NoopRecorder);
        prop_assert!(res.is_ok(), "footprint escape: {:?}", res.err());
        prop_assert_eq!(mem.as_bytes(), reference.as_bytes());
    }
}

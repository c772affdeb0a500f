//! SIMT kernels for the Banking workload: the paper's "C+CUDA version".
//!
//! [`Workload::build`] compiles, from the shared [`crate::templates`]
//! page specs:
//!
//! * the HTTP **parser** kernel,
//! * the on-device **backend** kernel (Titan B/C), and
//! * per request type, the **process stage** kernels
//!   (`backend_requests + 1` stages each, paper §3.1),
//!
//! together with the constant pool holding every HTML template fragment
//! (the paper stores static content in CUDA constant memory, §4.6).

pub mod backend;
pub mod common;
pub mod parser;
pub mod process;

use rhythm_simt::ir::Program;
use rhythm_simt::mem::ConstPool;

use crate::templates::page_spec;
use crate::types::RequestType;

pub use parser::TYPE_UNKNOWN;

/// The complete compiled workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Constant pool referenced by every kernel.
    pub pool: ConstPool,
    /// HTTP parser kernel.
    pub parser: Program,
    /// Device backend kernel.
    pub backend: Program,
    /// Static-image cohort kernel (bypasses the process stages).
    pub image: Program,
    /// Process stages per type: `stages[type_id][stage]`.
    pub stages: Vec<Vec<Program>>,
}

impl Workload {
    /// Compile every kernel. Deterministic; takes ~10 ms.
    pub fn build() -> Workload {
        Self::build_opts(true)
    }

    /// Compile with the warp-alignment padding toggled — `padded == false`
    /// is the coalescing ablation (responses stay correct, lane write
    /// pointers drift, memory transactions multiply).
    pub fn build_opts(padded: bool) -> Workload {
        let mut pool = ConstPool::new();
        let parser = parser::build_parser(&mut pool);
        let backend = backend::build_backend();
        let image = crate::images::build_image_kernel(&mut pool);
        let stages = RequestType::ALL
            .iter()
            .map(|&ty| process::build_stage_kernels_opts(&page_spec(ty), &mut pool, padded))
            .collect();
        Workload {
            pool,
            parser,
            backend,
            image,
            stages,
        }
    }

    /// Process stages for one request type.
    pub fn stages_of(&self, ty: RequestType) -> &[Program] {
        &self.stages[ty.id() as usize]
    }

    /// The final (response-generation) stage for a type.
    pub fn response_stage(&self, ty: RequestType) -> &Program {
        self.stages_of(ty).last().expect("at least one stage")
    }

    /// A `ty` cohort's kernel sequence (paper §1 item 2): the parser, then
    /// the type's process stages with a backend round between each pair —
    /// `n` backend rounds interleaved with `n + 1` process stages, the
    /// response stage last.
    pub fn cohort_steps(&self, ty: RequestType) -> impl Iterator<Item = CohortStep<'_>> {
        let stages = self.stages_of(ty);
        let n_backend = stages.len() - 1;
        let process = stages.iter().enumerate().flat_map(move |(i, stage)| {
            let backend = (i < n_backend).then_some(CohortStep::Backend(&self.backend));
            std::iter::once(CohortStep::Stage(i, stage)).chain(backend)
        });
        std::iter::once(CohortStep::Parser(&self.parser)).chain(process)
    }
}

/// One step of [`Workload::cohort_steps`].
#[derive(Copy, Clone, Debug)]
pub enum CohortStep<'a> {
    /// The HTTP parser kernel, first.
    Parser(&'a Program),
    /// Process stage `i` of the cohort's request type.
    Stage(usize, &'a Program),
    /// A backend round between two process stages: the device backend
    /// kernel, or its host stand-in.
    Backend(&'a Program),
}

impl<'a> CohortStep<'a> {
    /// The kernel this step launches on the device.
    pub fn program(self) -> &'a Program {
        match self {
            CohortStep::Parser(p) | CohortStep::Stage(_, p) | CohortStep::Backend(p) => p,
        }
    }

    /// The step's launch name in [`crate::runner::CohortResult::launches`].
    pub fn name(self) -> &'a str {
        match self {
            CohortStep::Parser(_) => "parser",
            CohortStep::Stage(_, p) => p.name(),
            CohortStep::Backend(_) => "device_backend",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builds_all_kernels() {
        let w = Workload::build();
        assert_eq!(w.stages.len(), 14);
        for ty in RequestType::ALL {
            assert_eq!(
                w.stages_of(ty).len() as u32,
                ty.process_stages(),
                "{ty}: stage count"
            );
            assert!(w.response_stage(ty).static_len() > 100);
            // parser, then stage 0, backend, stage 1, …, response stage.
            let steps: Vec<_> = w.cohort_steps(ty).collect();
            assert_eq!(steps.len() as u32, 2 * ty.process_stages(), "{ty}");
            assert!(matches!(steps[0], CohortStep::Parser(_)));
            for (k, step) in steps[1..].iter().enumerate() {
                match step {
                    CohortStep::Stage(i, _) => assert_eq!((k % 2, *i), (0, k / 2), "{ty}"),
                    CohortStep::Backend(_) => assert_eq!(k % 2, 1, "{ty}"),
                    CohortStep::Parser(_) => panic!("{ty}: second parser"),
                }
            }
            assert!(std::ptr::eq(
                steps[steps.len() - 1].program(),
                w.response_stage(ty)
            ));
        }
        assert!(
            w.pool.len() > 100_000,
            "templates interned: {}",
            w.pool.len()
        );
    }

    #[test]
    fn kernel_names_follow_convention() {
        let w = Workload::build();
        assert_eq!(w.parser.name(), "http_parser");
        assert_eq!(w.backend.name(), "device_backend");
        assert_eq!(w.stages_of(RequestType::Login)[0].name(), "login_stage0");
        assert_eq!(
            w.response_stage(RequestType::Login).name(),
            "login_response"
        );
    }
}

//! Cohort runner: drives one cohort through the parser, process stages,
//! and backend on the simulated device, and harvests the responses and
//! statistics.
//!
//! [`DeviceContext`] holds what stays on the device between cohorts (the
//! session array and the store image) and the device itself, resolved
//! once against the context's [`CohortOptions`], and runs cohorts against
//! it; the serving path keeps one per shard. The parser probe
//! ([`DeviceContext::parse`]) and the CPU model
//! ([`DeviceContext::run_request_scalar`]) run on the same resident image.
//! [`run_cohort_traced`] is the copy-in/copy-out form of the same routine
//! — a fresh context per cohort — used by the differential tests and the
//! offline figure bins. Every device cohort runs through
//! [`DeviceContext::run_cohort`], on the caller's thread. The full
//! event-driven pipeline (with cohort formation, timeouts and overlapping
//! cohorts) lives in `rhythm-core`; this runner executes already-formed
//! cohorts to completion.

use std::sync::{Arc, OnceLock};

use rhythm_obs::{s_to_us, ArgValue, Clock, NoopRecorder, Recorder};
use rhythm_simt::exec::LaunchConfig;
use rhythm_simt::gpu::{Gpu, LaunchResult};
use rhythm_simt::mem::DeviceMemory;
use rhythm_simt::{ExecError, MemError, Program};
use rhythm_verify::{LaunchSpec, Verifier};

use crate::backend::BankStore;
use crate::genreq::GeneratedRequest;
use crate::kernels::{CohortStep, Workload};
use crate::layout::{
    CohortLayout, BREQ_BYTES, BRESP_BYTES, F_P0, F_P1, F_RESP_LEN, F_TOKEN, F_TYPE, REQBUF_BYTES,
    STRUCT_WORDS,
};
use crate::session_array::SessionArrayHost;
use crate::types::RequestType;

/// Where backend requests are served.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum BackendMode {
    /// On the host (Titan A): breq/bresp cross the modelled PCIe bus and
    /// the store answers as a host function.
    Host,
    /// On the device (Titan B/C): the backend kernel answers from the
    /// serialized store in device memory.
    Device,
}

/// Result of running one cohort to completion.
#[derive(Clone, Debug)]
pub struct CohortResult {
    /// Per-lane raw responses (header + body, trimmed to the written
    /// length).
    pub responses: Vec<Vec<u8>>,
    /// Per-kernel launch results in execution order `(name, result)`.
    pub launches: Vec<(String, LaunchResult)>,
    /// The layout the cohort was parsed in (for byte accounting).
    pub layout: CohortLayout,
    /// Sub-cohorts that faulted, by type, while others ran: their members'
    /// responses are empty and their session writes were undone.
    pub faults: Vec<(RequestType, ExecError)>,
}

impl CohortResult {
    /// Total device kernel time across stages.
    pub fn kernel_time_s(&self) -> f64 {
        self.launches.iter().map(|(_, r)| r.time_s).sum()
    }
}

/// Options for a cohort run ([`DeviceContext`], [`run_cohort_traced`]).
#[derive(Clone, Debug)]
pub struct CohortOptions {
    /// Transposed (true) or row-major buffers.
    pub transposed: bool,
    /// Backend placement.
    pub backend: BackendMode,
    /// Session array capacity in nodes (4096 in [`Default`]).
    pub session_capacity: u32,
    /// Session token salt.
    pub session_salt: u32,
    /// Run every kernel through the `rhythm-verify` static analyzer
    /// before launch (default **on**): programs with `Error`-severity
    /// findings are rejected with [`ExecError::Rejected`] instead of
    /// executing. Verdicts are cached per (kernel, launch shape), so the
    /// steady-state cost is one hash lookup per launch.
    pub verify: bool,
    /// Run every kernel launch under the footprint sanitizer (default
    /// **off**): each launch carries the effect-summary engine's claimed
    /// static footprint for its (kernel, launch environment) pair, and the
    /// executor checks every global access against it, failing the launch
    /// with [`ExecError::FootprintEscape`] on the first access that
    /// escapes. This is the runtime discharge obligation for the claimed
    /// (non-exact) regions the static analysis anchors data-dependent
    /// addresses to; it is purely a checking mode and never changes
    /// results.
    pub sanitize: bool,
}

impl Default for CohortOptions {
    fn default() -> Self {
        CohortOptions {
            transposed: true,
            backend: BackendMode::Device,
            session_capacity: 4096,
            session_salt: 0x5EED_0001,
            verify: true,
            sanitize: false,
        }
    }
}

/// The launch config for one kernel of a cohort: `base`, and with
/// [`CohortOptions::sanitize`] on also the kernel's inferred global
/// footprint (anchored to the cohort layout's declared regions) so the
/// executor checks every global access against it.
fn kernel_cfg(
    base: &LaunchConfig,
    opts: &CohortOptions,
    layout: &CohortLayout,
    program: &Program,
    mem: &DeviceMemory,
    pool: &rhythm_simt::mem::ConstPool,
) -> LaunchConfig {
    let mut cfg = base.clone();
    if opts.sanitize {
        let spec = LaunchSpec::from_launch(&cfg, mem, pool);
        let cached = shared_verifier().effects(program, &spec, &layout.regions());
        cfg.sanitize = Some(Arc::clone(&cached.footprint));
    }
    cfg
}

/// The process-wide verifier shared by every gated cohort launch (one
/// admission cache across cohorts).
fn shared_verifier() -> Arc<Verifier> {
    static VERIFIER: OnceLock<Arc<Verifier>> = OnceLock::new();
    VERIFIER.get_or_init(|| Arc::new(Verifier::new())).clone()
}

/// Scatter each request's raw text into its request slot.
fn write_requests(
    layout: &CohortLayout,
    mem: &mut DeviceMemory,
    reqs: &[GeneratedRequest],
) -> Result<(), ExecError> {
    for (lane, r) in reqs.iter().enumerate() {
        layout.write_lane(mem, layout.reqbuf_base, REQBUF_BYTES, lane as u32, &r.raw)?;
    }
    Ok(())
}

/// Gather every lane's response, trimmed to the length its response stage
/// recorded in `F_RESP_LEN`.
fn read_responses(layout: &CohortLayout, mem: &DeviceMemory) -> Result<Vec<Vec<u8>>, ExecError> {
    (0..layout.cohort)
        .map(|lane| {
            let len = layout.read_struct(mem, lane, F_RESP_LEN)?;
            Ok(layout.read_lane_prefix(mem, layout.resp_base, layout.resp_size, lane, len)?)
        })
        .collect()
}

/// Per-lane parser output: `(type_id, token, p0, p1)`.
pub type ParsedLane = (u32, u32, u32, u32);

/// Group a parsed cohort's lanes by the type the parser gave them: one
/// `(type, lanes)` sub-cohort per type, in the arrival order of its first
/// member, lanes in arrival order. A lane typed outside the 14 Banking
/// types is in no sub-cohort.
fn sub_cohorts(parsed: &[ParsedLane]) -> Vec<(RequestType, Vec<u32>)> {
    let mut groups: Vec<(RequestType, Vec<u32>)> = Vec::new();
    for (lane, &(id, ..)) in parsed.iter().enumerate() {
        let Some(ty) = RequestType::from_id(id) else {
            continue;
        };
        match groups.iter_mut().find(|(t, _)| *t == ty) {
            Some((_, lanes)) => lanes.push(lane as u32),
            None => groups.push((ty, vec![lane as u32])),
        }
    }
    groups
}

/// A cohort's launches so far, laid back to back on the recorder's
/// virtual-time `device` track: each launch's modelled latency extends
/// the cursor and becomes a span there.
struct DeviceTrack<'r, R: ?Sized> {
    rec: &'r R,
    t: f64,
    launches: Vec<(String, LaunchResult)>,
}

impl<R: Recorder + ?Sized> DeviceTrack<'_, R> {
    fn launched(&mut self, name: &str, res: LaunchResult, requests: u32) {
        if self.rec.enabled() {
            let (start, dur) = (s_to_us(self.t), s_to_us(res.time_s));
            let args = [("requests", ArgValue::U64(requests as u64))];
            self.rec
                .span(Clock::Virtual, "device", name, start, dur, &args);
        }
        self.t += res.time_s;
        self.launches.push((name.to_string(), res));
    }

    /// A host-served backend round: an instant, since it spends no
    /// modelled device time.
    fn host_backend(&self, requests: u32) {
        if self.rec.enabled() {
            let args = [("requests", ArgValue::U64(requests as u64))];
            let now = s_to_us(self.t);
            self.rec
                .instant(Clock::Virtual, "device", "host_backend", now, &args);
        }
    }
}

/// One shard's resident device state: the device to launch on, and a
/// single [`DeviceMemory`] whose head holds the session array and the
/// store image — written once, here — and whose tail is the current
/// cohort's request/struct/breq/bresp/response buffers.
///
/// Per cohort the tail is re-cut ([`DeviceMemory::recut`]) to the cohort's
/// own [`CohortLayout`]: the image is exactly `layout.total_bytes` long (so
/// out-of-bounds faults and the verify gate's `LaunchSpec` are those of a
/// freshly allocated image), the scratch reads as zero, and the
/// allocation is kept. Session writes persist in place from one cohort to
/// the next, each cohort's under the undo journal that takes them back if
/// it faults; nothing on this path writes the store.
#[derive(Debug)]
pub struct DeviceContext {
    opts: CohortOptions,
    /// The device, behind the shared verify gate when
    /// [`CohortOptions::verify`] is set and it has no gate of its own.
    gpu: Gpu,
    mem: DeviceMemory,
    /// The resident head's layout (a cohort of no lanes).
    head: CohortLayout,
}

impl DeviceContext {
    /// Upload `store` and `sessions` to a new context that launches on
    /// `gpu`, resolved once against `opts`: when [`CohortOptions::verify`]
    /// is set and `gpu` has no gate of its own, every launch goes through
    /// the process-wide verify gate.
    ///
    /// # Panics
    ///
    /// Panics if `sessions.capacity()` or `sessions.salt()` disagrees with
    /// `opts.session_capacity` or `opts.session_salt`: the kernels invert
    /// tokens with the options' salt, so a table built with another salt
    /// would answer every token minted on the host with 403.
    pub fn new(
        store: &BankStore,
        sessions: &SessionArrayHost,
        gpu: &Gpu,
        opts: &CohortOptions,
    ) -> Self {
        assert_eq!(
            (sessions.capacity(), sessions.salt()),
            (opts.session_capacity, opts.session_salt),
            "session array capacity and salt must match options"
        );
        let gpu = if opts.verify && gpu.gate().is_none() {
            gpu.clone().with_gate(shared_verifier())
        } else {
            gpu.clone()
        };
        let head = CohortLayout::new(
            0,
            0,
            opts.session_capacity,
            opts.session_salt,
            store.device_bytes(),
            opts.transposed,
        );
        let mut mem = DeviceMemory::new(head.resident_bytes() as usize);
        mem.load(head.session_base, &sessions.to_device_bytes())
            .expect("resident head holds the session array");
        mem.load(head.store_base, &store.serialize_device())
            .expect("resident head holds the store image");
        DeviceContext {
            opts: opts.clone(),
            gpu,
            mem,
            head,
        }
    }

    /// The device session array, as bytes.
    pub fn session_bytes(&self) -> &[u8] {
        self.mem
            .slice(
                self.head.session_base,
                SessionArrayHost::device_bytes(self.head.session_capacity),
            )
            .expect("resident head holds the session array")
    }

    /// The device session array, decoded (a copy: the device array stays
    /// the live one).
    pub fn sessions(&self) -> SessionArrayHost {
        SessionArrayHost::from_device_bytes(self.session_bytes(), self.head.session_salt)
    }

    /// Bytes the context's device allocation can hold without growing.
    pub fn memory_capacity(&self) -> usize {
        self.mem.capacity()
    }

    /// Session bytes the most recent cohort journaled (what undoing it
    /// would have cost; zero after a cohort that wrote no session byte).
    pub fn journaled_bytes(&self) -> usize {
        self.mem.journal_len()
    }

    /// Run one cohort against the resident state, in the paper's order:
    /// the parser kernel runs over every lane, its `F_TYPE` splits the
    /// lanes into one sub-cohort per request type, and each sub-cohort
    /// runs its type's process → backend → response kernels, on the
    /// context's device. `store` must be the store this context was built
    /// from (the host backend answers from it).
    ///
    /// Sub-cohorts run in the arrival order of their first member, lanes
    /// in arrival order, and responses come back in input order. A uniform
    /// cohort runs its stages in the layout it was parsed in; each
    /// sub-cohort of a mixed cohort is re-cut to a layout of its own and
    /// gets its lanes' parsed structs copied in. A lane the parser types
    /// outside the 14 Banking types runs no stage and gets an empty
    /// response.
    ///
    /// With tracing, in addition to the per-kernel and per-warp wall-time
    /// spans emitted by [`Gpu::launch`], the cohort's kernels are
    /// laid out back-to-back on a **virtual-time** `device` track using
    /// each launch's modelled latency, so the timeline shows where the
    /// device time of one cohort goes (parser vs. process stages vs.
    /// backend rounds). Host-served backend rounds appear as instants
    /// (they spend no modelled device time). The recorder is observational
    /// only.
    ///
    /// # Errors
    ///
    /// A parser fault fails the whole cohort, and so does a fault in every
    /// sub-cohort (a uniform cohort's one, say): the first fault is
    /// returned. A fault in some sub-cohorts only is reported in
    /// [`CohortResult::faults`], and their members' responses are empty.
    /// The parse and each sub-cohort run under the device's undo journal
    /// over the session span, so a faulting one's session writes never
    /// happened — work proportional to the bytes it wrote, not to the
    /// table.
    ///
    /// # Panics
    ///
    /// Panics if `reqs` is empty.
    pub fn run_cohort<R: Recorder + ?Sized>(
        &mut self,
        workload: &Workload,
        store: &BankStore,
        reqs: &[GeneratedRequest],
        rec: &R,
    ) -> Result<CohortResult, ExecError> {
        assert!(!reqs.is_empty(), "empty cohort");
        let mut track = DeviceTrack {
            rec,
            t: 0.0,
            launches: Vec::new(),
        };
        // Cut for the first member's page: a uniform cohort's stages then
        // run where it was parsed.
        let layout = self.cut(reqs.len() as u32, reqs[0].ty, self.opts.transposed);
        let (res, parsed) = match self.parse_step(workload, &layout, reqs, rec) {
            Ok(parsed) => parsed,
            Err(e) => return self.journaled(Err(e)),
        };
        track.launched(
            CohortStep::Parser(&workload.parser).name(),
            res,
            layout.cohort,
        );
        let groups = sub_cohorts(&parsed);
        if let [(ty, lanes)] = &groups[..] {
            if *ty == reqs[0].ty && lanes.len() == reqs.len() {
                let run = self.launch_steps(workload, store, &layout, *ty, &mut track);
                let responses = self.journaled(run)?;
                return Ok(CohortResult {
                    responses,
                    launches: track.launches,
                    layout,
                    faults: Vec::new(),
                });
            }
        }

        // The parser stores no session byte: the sub-cohorts' journals
        // are their own.
        self.mem.commit_journal();
        let structs = self
            .mem
            .slice(layout.struct_base, layout.cohort * STRUCT_WORDS * 4)?
            .to_vec();
        let mut responses = vec![Vec::new(); reqs.len()];
        let mut faults = Vec::new();
        for (ty, lanes) in &groups {
            let sub = self.cut(lanes.len() as u32, *ty, self.opts.transposed);
            let run = copy_structs(&structs, &layout, lanes, &sub, &mut self.mem)
                .and_then(|()| self.launch_steps(workload, store, &sub, *ty, &mut track));
            match self.journaled(run) {
                Ok(sub_responses) => {
                    for (&lane, resp) in lanes.iter().zip(sub_responses) {
                        responses[lane as usize] = resp;
                    }
                }
                Err(e) => faults.push((*ty, e)),
            }
        }
        if !groups.is_empty() && faults.len() == groups.len() {
            return Err(faults.swap_remove(0).1);
        }
        Ok(CohortResult {
            responses,
            launches: track.launches,
            layout,
            faults,
        })
    }

    /// Run only the parser kernel over a (possibly mixed-type) cohort:
    /// the cut, parse and journal that begin [`Self::run_cohort`], without
    /// its tracks. Returns the launch result plus the parsed
    /// `(type_id, token, p0, p1)` per lane.
    ///
    /// # Errors
    ///
    /// Propagates kernel execution faults.
    ///
    /// # Panics
    ///
    /// Panics if `reqs` is empty.
    pub fn parse(
        &mut self,
        workload: &Workload,
        reqs: &[GeneratedRequest],
    ) -> Result<(LaunchResult, Vec<ParsedLane>), ExecError> {
        assert!(!reqs.is_empty(), "empty cohort");
        let layout = self.cut(reqs.len() as u32, reqs[0].ty, self.opts.transposed);
        let parse = self.parse_step(workload, &layout, reqs, &NoopRecorder);
        self.journaled(parse)
    }

    /// Re-cut the image's tail to a `cohort`-lane layout with `ty`'s
    /// response slots, `transposed` or row-major — a transposed response
    /// buffer kept lane-major on the host
    /// ([`CohortLayout::response_lane_major`]), so each lane's static
    /// fragments and its read-back are one copy each — open the undo
    /// journal over the session span, and return the layout.
    fn cut(&mut self, cohort: u32, ty: RequestType, transposed: bool) -> CohortLayout {
        let head = &self.head;
        let layout = CohortLayout::new(
            cohort,
            ty.response_buffer_bytes(),
            head.session_capacity,
            head.session_salt,
            head.store_bytes,
            transposed,
        );
        self.mem.recut(
            layout.resident_bytes() as usize,
            layout.total_bytes as usize,
            layout.response_lane_major(),
        );
        let len = SessionArrayHost::device_bytes(layout.session_capacity);
        self.mem
            .begin_journal(layout.session_base, len)
            .expect("resident head holds the session array");
        layout
    }

    /// Close the journal [`DeviceContext::cut`] opened (held open over a
    /// uniform cohort's parse and stages): keep what `run` stored if it
    /// succeeded, undo it if it failed.
    fn journaled<T>(&mut self, run: Result<T, ExecError>) -> Result<T, ExecError> {
        match run {
            Ok(_) => self.mem.commit_journal(),
            Err(_) => self.mem.rollback_journal(),
        }
        run
    }

    /// The parse step: scatter each request into its slot of `layout`,
    /// launch the parser over every lane, and read back each lane's parsed
    /// fields.
    fn parse_step<R: Recorder + ?Sized>(
        &mut self,
        workload: &Workload,
        layout: &CohortLayout,
        reqs: &[GeneratedRequest],
        rec: &R,
    ) -> Result<(LaunchResult, Vec<ParsedLane>), ExecError> {
        let (opts, gpu, mem) = (&self.opts, &self.gpu, &mut self.mem);
        write_requests(layout, mem, reqs)?;
        let (parser, pool) = (&workload.parser, &workload.pool);
        let cfg = kernel_cfg(&layout.launch_config(), opts, layout, parser, mem, pool);
        let res = gpu.launch(parser, &cfg, mem, pool, rec)?;
        let parsed = (0..layout.cohort)
            .map(|lane| {
                Ok((
                    layout.read_struct(mem, lane, F_TYPE)?,
                    layout.read_struct(mem, lane, F_TOKEN)?,
                    layout.read_struct(mem, lane, F_P0)?,
                    layout.read_struct(mem, lane, F_P1)?,
                ))
            })
            .collect::<Result<_, MemError>>()?;
        Ok((res, parsed))
    }

    /// Launch `ty`'s process, backend and response kernels in order over
    /// the parsed structs of `layout`, and read the responses back.
    fn launch_steps<R: Recorder + ?Sized>(
        &mut self,
        workload: &Workload,
        store: &BankStore,
        layout: &CohortLayout,
        ty: RequestType,
        track: &mut DeviceTrack<'_, R>,
    ) -> Result<Vec<Vec<u8>>, ExecError> {
        let (opts, gpu, mem) = (&self.opts, &self.gpu, &mut self.mem);
        let cfg = layout.launch_config();
        for step in workload.cohort_steps(ty) {
            match (step, opts.backend) {
                (CohortStep::Parser(_), _) => continue,
                (CohortStep::Backend(_), BackendMode::Host) => {
                    track.host_backend(layout.cohort);
                    host_backend_step(store, layout, mem)?;
                    continue;
                }
                _ => {}
            }
            let program = step.program();
            let kcfg = kernel_cfg(&cfg, opts, layout, program, mem, &workload.pool);
            let res = gpu.launch(program, &kcfg, mem, &workload.pool, track.rec)?;
            track.launched(step.name(), res, layout.cohort);
        }
        read_responses(layout, mem)
    }
}

/// Copy the parsed structs of `lanes`, read from the `from` layout's
/// struct region `structs`, into lanes `0..` of the `to` layout.
fn copy_structs(
    structs: &[u8],
    from: &CohortLayout,
    lanes: &[u32],
    to: &CohortLayout,
    mem: &mut DeviceMemory,
) -> Result<(), ExecError> {
    let mut words = Vec::with_capacity(lanes.len() * STRUCT_WORDS as usize * 4);
    for field in 0..STRUCT_WORDS {
        for &lane in lanes {
            let at = (from.struct_addr(lane, field) - from.struct_base) as usize;
            words.extend_from_slice(&structs[at..at + 4]);
        }
    }
    Ok(mem.load(to.struct_base, &words)?)
}

/// Run one cohort copy-in/copy-out: upload `store` and `sessions` to a
/// fresh [`DeviceContext`], run the cohort on it
/// ([`DeviceContext::run_cohort`] — the routine the serving path runs on
/// its resident context, with the same tracks on `rec`), and decode the
/// session array back.
///
/// Paying the whole upload per cohort makes this the reference the
/// resident path is checked against, and what the offline figure bins
/// measure one cohort at a time with.
///
/// `sessions` provides the pre-existing sessions (it must be the same
/// array the requests' tokens were created in) and is updated to the
/// device's post-cohort state; on an `Err` it is left untouched.
///
/// # Errors
///
/// As [`DeviceContext::run_cohort`].
///
/// # Panics
///
/// Panics if `reqs` is empty, or if `sessions.capacity()` disagrees with
/// `opts.session_capacity`.
pub fn run_cohort_traced<R: Recorder + ?Sized>(
    workload: &Workload,
    store: &BankStore,
    sessions: &mut SessionArrayHost,
    reqs: &[GeneratedRequest],
    gpu: &Gpu,
    opts: &CohortOptions,
    rec: &R,
) -> Result<CohortResult, ExecError> {
    let mut ctx = DeviceContext::new(store, sessions, gpu, opts);
    let result = ctx.run_cohort(workload, store, reqs, rec)?;
    *sessions = ctx.sessions();
    Ok(result)
}

/// Run a batch of already-formed cohorts in order, serially, on one
/// [`DeviceContext`]: the store and the session array are uploaded once,
/// each cohort runs through [`DeviceContext::run_cohort`] on this thread,
/// and the session array is decoded back into `sessions` at the end.
/// Responses, launches and the final session state are those of
/// [`run_cohort_traced`] called back to back.
///
/// Each cohort gets its own outcome slot, in input order; a faulting
/// cohort yields `Err` in its slot, the context's undo journal takes back
/// its session writes, and the rest of the batch runs on.
///
/// The name predates the serial body; it stays because the benchmark
/// harness (`benchmark/`) calls it.
///
/// # Panics
///
/// If `sessions.capacity()` disagrees with `opts.session_capacity`, and per
/// cohort on the same condition as [`run_cohort_traced`] (non-empty).
pub fn run_cohorts_hyperq(
    workload: &Workload,
    store: &BankStore,
    sessions: &mut SessionArrayHost,
    cohorts: &[Vec<GeneratedRequest>],
    gpu: &Gpu,
    opts: &CohortOptions,
) -> Vec<Result<CohortResult, ExecError>> {
    let mut ctx = DeviceContext::new(store, sessions, gpu, opts);
    let results = cohorts
        .iter()
        .map(|reqs| ctx.run_cohort(workload, store, reqs, &NoopRecorder))
        .collect();
    *sessions = ctx.sessions();
    results
}

/// Serve one backend round on the host: read each lane's request text,
/// answer from the store, and write the response text back.
fn host_backend_step(
    store: &BankStore,
    layout: &CohortLayout,
    mem: &mut DeviceMemory,
) -> Result<(), ExecError> {
    for lane in 0..layout.cohort {
        let raw = layout.read_lane(mem, layout.breq_base, BREQ_BYTES, lane)?;
        let end = raw.iter().position(|&b| b == b'\n').unwrap_or(0);
        let text = String::from_utf8_lossy(&raw[..=end.min(raw.len() - 1)]).into_owned();
        // Args are carried for wire fidelity but the store answers
        // arg-independently, matching the device KV-store semantics (see
        // the backend module docs).
        let reply = match BankStore::parse_request(&text) {
            Some((cmd, user, _args)) => {
                if store.user(user).is_some() {
                    store.respond(cmd, user, &[])
                } else {
                    "!ERR".to_string()
                }
            }
            None => "!ERR".to_string(),
        };
        let mut bytes = reply.into_bytes();
        bytes.push(b'\n');
        bytes.push(0);
        assert!(bytes.len() <= BRESP_BYTES as usize);
        layout.write_lane(mem, layout.bresp_base, BRESP_BYTES, lane, &bytes)?;
    }
    Ok(())
}

/// Result of one scalar (single-lane, CPU-model) request execution.
#[derive(Clone, Debug)]
pub struct ScalarRunResult {
    /// Dynamic instructions over parser + all process stages: every
    /// entered block's ops plus its terminator, as a CPU core would
    /// execute them (a `WarpRedMax` is one instruction here).
    pub instructions: u64,
    /// The raw response (header + body).
    pub response: Vec<u8>,
    /// Dynamic basic-block trace (parser + stages concatenated, with
    /// block ids offset per kernel so different kernels never alias).
    pub trace: Vec<u32>,
}

impl DeviceContext {
    /// Execute one request as one CPU core would — the paper's "standalone
    /// C version" measurement path (no batching, backend as a function
    /// call): each kernel runs one lane at a time on the reference engine
    /// ([`rhythm_simt::execute_lanes`]), not on the context's device, in a
    /// row-major cohort-of-one cut of the resident image. Warp reductions
    /// degenerate to identity, so no alignment padding is emitted and the
    /// output matches [`crate::native::handle_native`] exactly.
    ///
    /// `sessions` replaces the resident session array first (the caller
    /// may have created sessions since the last call) and receives its
    /// state after the request; on an `Err` it is left untouched.
    ///
    /// # Errors
    ///
    /// Propagates kernel execution faults.
    ///
    /// # Panics
    ///
    /// Panics if `sessions`' capacity or salt disagrees with the
    /// context's options.
    pub fn run_request_scalar(
        &mut self,
        workload: &Workload,
        store: &BankStore,
        sessions: &mut SessionArrayHost,
        req: &GeneratedRequest,
    ) -> Result<ScalarRunResult, ExecError> {
        assert_eq!(
            (sessions.capacity(), sessions.salt()),
            (self.head.session_capacity, self.head.session_salt),
            "session array must match the context's options"
        );
        self.mem
            .load(self.head.session_base, &sessions.to_device_bytes())?;
        let layout = self.cut(1, req.ty, false);
        let run = scalar_steps(workload, store, &layout, &mut self.mem, req);
        let run = self.journaled(run)?;
        *sessions = self.sessions();
        Ok(run)
    }
}

/// The CPU model's kernels for `req`, one lane at a time in `layout`.
fn scalar_steps(
    workload: &Workload,
    store: &BankStore,
    layout: &CohortLayout,
    mem: &mut DeviceMemory,
    req: &GeneratedRequest,
) -> Result<ScalarRunResult, ExecError> {
    write_requests(layout, mem, std::slice::from_ref(req))?;
    let cfg = layout.launch_config();
    let mut instructions = 0u64;
    let mut trace: Vec<u32> = Vec::new();
    for step in workload.cohort_steps(req.ty) {
        // Block ids are offset per kernel so traces from different kernels
        // never collide when merged.
        let (program, offset) = match step {
            CohortStep::Parser(p) => (p, 0),
            CohortStep::Stage(i, p) => (p, 10_000 * (i as u32 + 1)),
            CohortStep::Backend(_) => {
                host_backend_step(store, layout, mem)?;
                continue;
            }
        };
        let start = trace.len();
        rhythm_simt::execute_lanes(program, &cfg, mem, &workload.pool, Some(&mut trace))?;
        for b in &mut trace[start..] {
            instructions += program.block(*b).ops.len() as u64 + 1;
            *b += offset;
        }
    }
    Ok(ScalarRunResult {
        instructions,
        response: read_responses(layout, mem)?.remove(0),
        trace,
    })
}

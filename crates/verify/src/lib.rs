//! `rhythm-verify` — pre-launch static analysis for Rhythm SIMT kernels.
//!
//! Rhythm's throughput story (paper §3, §6.4) depends on cohort kernels
//! staying *convergent* and *coalesced*; its correctness story depends on
//! them staying inside their buffers and free of cross-lane races. This
//! crate is the correctness gate every kernel passes before it reaches
//! the device: a dataflow/CFG analyzer over [`rhythm_simt::ir::Program`]
//! producing structured [`Diagnostic`]s across five rule families —
//! divergence taint, race detection, bounds checking, coalescing lints,
//! and hygiene (see [`rules::rule_id`] for the catalogue).
//!
//! Two integration layers:
//!
//! * [`Verifier`] — a [`LaunchGate`] for [`rhythm_simt::gpu::Gpu`]: every
//!   launch is checked against its concrete launch environment (lane
//!   count, parameter vector, memory extents) and rejected with
//!   [`rhythm_simt::ExecError::Rejected`] before any lane runs. Results
//!   are fingerprint-cached so steady-state launches pay one hash lookup.
//! * the `kernel_lint` binary (in `rhythm-bench`) — lints every
//!   registered banking kernel and reports a human table or JSON.
//!
//! # Example
//!
//! ```
//! use rhythm_simt::ir::ProgramBuilder;
//! use rhythm_verify::{verify_program, LaunchSpec, Severity};
//!
//! // A kernel that stores lane-distinct values through one address.
//! let mut b = ProgramBuilder::new("lost_update");
//! let lane = b.lane_id();
//! let addr = b.imm(0);
//! b.st_global_word(addr, 0, lane);
//! b.halt();
//! let p = b.build().unwrap();
//!
//! let report = verify_program(&p, &LaunchSpec::lanes(32));
//! assert!(report.errors().any(|d| d.rule == "race-uniform-store"));
//! assert_eq!(report.worst(), Some(Severity::Error));
//! ```

#![warn(missing_docs)]

pub mod corpus;
pub mod dataflow;
pub mod effects;
pub mod rules;

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex};

use rhythm_simt::exec::{GateRejection, LaunchConfig};
use rhythm_simt::gpu::LaunchGate;
use rhythm_simt::ir::{MemSpace, Program};
use rhythm_simt::mem::{ConstPool, DeviceMemory};

use dataflow::Analysis;

/// How severe a finding is. Ordered: `Info < Warning < Error`.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Throughput smell or redundancy; no action required.
    Info,
    /// Likely hazard; worth fixing, does not block launches.
    Warning,
    /// Proven defect; gated launches are rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One analyzer finding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Finding severity.
    pub severity: Severity,
    /// Stable rule identifier (see [`rules::rule_id`]).
    pub rule: &'static str,
    /// Basic block containing the finding (`None` for program-level
    /// findings).
    pub block: Option<u32>,
    /// Op index within the block (`None` for block-level findings; the
    /// terminator is addressed as `ops.len()`).
    pub op_index: Option<usize>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: [{}]", self.severity, self.rule)?;
        if let Some(b) = self.block {
            write!(f, " bb{b}")?;
            if let Some(i) = self.op_index {
                write!(f, ".{i}")?;
            }
        }
        write!(f, ": {}", self.message)
    }
}

/// All findings for one program, sorted most severe first.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Name of the analyzed program.
    pub program: String,
    /// Findings, sorted by descending severity (stable within a level).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// `Error`-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Count of findings at a severity level.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// The most severe finding level, or `None` for a clean program.
    pub fn worst(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// True when the report contains no `Error` findings (warnings and
    /// infos allowed) — the launch-gate admission criterion.
    pub fn is_launchable(&self) -> bool {
        self.worst() != Some(Severity::Error)
    }

    /// Convert the first (most severe) error into a structured launch
    /// rejection, if any.
    pub fn rejection(&self) -> Option<GateRejection> {
        self.errors().next().map(|d| GateRejection {
            rule: d.rule.to_string(),
            program: self.program.clone(),
            block: d.block,
            op_index: d.op_index,
            message: d.message.clone(),
        })
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return write!(f, "{}: clean", self.program);
        }
        writeln!(f, "{}:", self.program)?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// The launch environment a program is verified against. Unknown extents
/// (`None`) disable the corresponding bounds rules; an unknown parameter
/// vector disables parameter folding and the missing-parameter rule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LaunchSpec {
    /// Lanes in the launch (drives lane/global-id value ranges and the
    /// race rules).
    pub lanes: u32,
    /// The launch parameter vector, when known.
    pub params: Option<Vec<u32>>,
    /// Global (device DRAM) extent in bytes, when known.
    pub global_bytes: Option<u64>,
    /// Per-warp shared-memory extent in bytes, when known.
    pub shared_bytes: Option<u64>,
    /// Per-lane local-memory extent in bytes, when known.
    pub local_bytes: Option<u64>,
    /// Constant-pool extent in bytes, when known.
    pub const_bytes: Option<u64>,
}

impl Default for LaunchSpec {
    fn default() -> Self {
        LaunchSpec::lanes(rhythm_simt::WARP_SIZE)
    }
}

impl LaunchSpec {
    /// A spec with the given lane count and everything else unknown.
    pub fn lanes(lanes: u32) -> Self {
        LaunchSpec {
            lanes,
            params: None,
            global_bytes: None,
            shared_bytes: None,
            local_bytes: None,
            const_bytes: None,
        }
    }

    /// The spec describing a concrete launch.
    pub fn from_launch(cfg: &LaunchConfig, mem: &DeviceMemory, pool: &ConstPool) -> Self {
        LaunchSpec {
            lanes: cfg.lanes,
            params: Some(cfg.params.clone()),
            global_bytes: Some(mem.len() as u64),
            shared_bytes: Some(cfg.shared_bytes as u64),
            local_bytes: Some(cfg.local_bytes as u64),
            const_bytes: Some(pool.len() as u64),
        }
    }

    /// Declared extent of a memory space, if known.
    pub fn extent(&self, space: MemSpace) -> Option<u64> {
        match space {
            MemSpace::Global => self.global_bytes,
            MemSpace::Shared => self.shared_bytes,
            MemSpace::Local => self.local_bytes,
            MemSpace::Const => self.const_bytes,
        }
    }

    fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.lanes.hash(&mut h);
        self.params.hash(&mut h);
        self.global_bytes.hash(&mut h);
        self.shared_bytes.hash(&mut h);
        self.local_bytes.hash(&mut h);
        self.const_bytes.hash(&mut h);
        h.finish()
    }
}

/// Run every rule family over `program` for the given launch
/// environment.
pub fn verify_program(program: &Program, spec: &LaunchSpec) -> Report {
    let an = Analysis::run(program, spec);
    let mut diagnostics = Vec::new();
    rules::divergence(program, &an, &mut diagnostics);
    rules::races(program, spec, &an, &mut diagnostics);
    rules::bounds(program, spec, &an, &mut diagnostics);
    rules::coalescing(program, spec, &an, &mut diagnostics);
    rules::hygiene(program, &an, &mut diagnostics);
    diagnostics.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then(a.block.cmp(&b.block))
            .then(a.op_index.cmp(&b.op_index))
    });
    Report {
        program: program.name().to_string(),
        diagnostics,
    }
}

/// Bound on the verifier's admission cache; far above any realistic
/// distinct (kernel, launch-shape) population, it only guards against
/// pathological churn.
const VERIFIER_CACHE_CAP: usize = 8192;

/// A caching [`LaunchGate`]: verifies each (program, launch environment)
/// pair once and admits repeats with a single hash lookup, so gated
/// steady-state serving pays no measurable analysis cost.
#[derive(Debug, Default)]
pub struct Verifier {
    admitted: Mutex<HashSet<(u64, u64)>>,
    effects_cache: Mutex<HashMap<(u64, u64, u64), Arc<effects::CachedEffects>>>,
}

impl Verifier {
    /// A fresh verifier with an empty admission cache.
    pub fn new() -> Self {
        Verifier::default()
    }

    /// The effect summary of `program` under `spec` with `regions`
    /// anchoring data-dependent global addresses, inferred once and
    /// cached by (program, spec, regions) fingerprints — the same
    /// steady-state contract as the admission cache, so schedulers can
    /// query footprints per cohort without re-running the analysis.
    pub fn effects(
        &self,
        program: &Program,
        spec: &LaunchSpec,
        regions: &effects::RegionMap,
    ) -> Arc<effects::CachedEffects> {
        let key = (
            program.fingerprint(),
            spec.fingerprint(),
            regions.fingerprint(),
        );
        {
            let cache = self.effects_cache.lock().expect("effects cache poisoned");
            if let Some(hit) = cache.get(&key) {
                return Arc::clone(hit);
            }
        }
        let computed = Arc::new(effects::CachedEffects::new(effects::infer_effects(
            program, spec, regions,
        )));
        let mut cache = self.effects_cache.lock().expect("effects cache poisoned");
        if cache.len() >= VERIFIER_CACHE_CAP {
            cache.clear();
        }
        Arc::clone(cache.entry(key).or_insert(computed))
    }
}

impl LaunchGate for Verifier {
    fn check(
        &self,
        program: &Program,
        cfg: &LaunchConfig,
        mem: &DeviceMemory,
        pool: &ConstPool,
    ) -> Result<(), GateRejection> {
        let spec = LaunchSpec::from_launch(cfg, mem, pool);
        let key = (program.fingerprint(), spec.fingerprint());
        {
            let admitted = self.admitted.lock().expect("verifier cache poisoned");
            if admitted.contains(&key) {
                return Ok(());
            }
        }
        let report = verify_program(program, &spec);
        match report.rejection() {
            Some(r) => Err(r),
            None => {
                let mut admitted = self.admitted.lock().expect("verifier cache poisoned");
                if admitted.len() >= VERIFIER_CACHE_CAP {
                    admitted.clear();
                }
                admitted.insert(key);
                Ok(())
            }
        }
    }
}

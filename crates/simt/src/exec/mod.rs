//! Kernel executors: the pre-decoded plan engine ([`simt`], the GPU model
//! that serves requests) and the legacy masked engine ([`legacy`], the
//! reference semantics, which also runs lanes one at a time as the CPU
//! model).

pub mod legacy;
pub mod plan;
pub mod simt;

use std::fmt;
use std::sync::Arc;

use crate::ir::{MemSpace, Width};
use crate::mem::MemError;

/// Number of lanes executing in lockstep per warp, as on NVIDIA hardware.
pub const WARP_SIZE: u32 = 32;

/// Kind of a memory access, as classified by the footprint sanitizer.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// An `Op::Ld`.
    Read,
    /// An `Op::St`.
    Write,
    /// An `Op::AtomicAdd` (a read-modify-write).
    Atomic,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Atomic => "atomic",
        })
    }
}

/// A claimed static footprint for a kernel's **global-memory** accesses:
/// per access kind, the byte intervals the kernel is allowed to touch.
///
/// Produced by lowering a static effect summary (see
/// `rhythm_verify::effects`) and attached to a launch via
/// [`LaunchConfig::sanitize`]; the plan executor then checks every
/// executed global access against it and fails the launch with
/// [`ExecError::FootprintEscape`] on the first access outside the claim —
/// a loud soundness failure of the static analysis rather than a silent
/// wrong answer.
///
/// `None` for a kind means the claim is ⊤ (unrestricted) for that kind;
/// an empty interval list means the kernel claims to perform **no**
/// accesses of that kind, so any such access escapes.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FootprintSpec {
    reads: Option<Vec<(u64, u64)>>,
    writes: Option<Vec<(u64, u64)>>,
    atomics: Option<Vec<(u64, u64)>>,
}

impl FootprintSpec {
    /// Build a spec from per-kind `[lo, hi)` byte intervals (`None` = ⊤).
    /// Intervals are normalized: sorted, with overlapping or adjacent
    /// intervals merged.
    pub fn new(
        reads: Option<Vec<(u64, u64)>>,
        writes: Option<Vec<(u64, u64)>>,
        atomics: Option<Vec<(u64, u64)>>,
    ) -> Self {
        FootprintSpec {
            reads: reads.map(Self::normalize),
            writes: writes.map(Self::normalize),
            atomics: atomics.map(Self::normalize),
        }
    }

    fn normalize(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        v.retain(|&(lo, hi)| hi > lo);
        v.sort_unstable();
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(v.len());
        for (lo, hi) in v {
            match out.last_mut() {
                Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
                _ => out.push((lo, hi)),
            }
        }
        out
    }

    /// The normalized intervals claimed for `kind`, or `None` for ⊤.
    pub fn intervals(&self, kind: AccessKind) -> Option<&[(u64, u64)]> {
        match kind {
            AccessKind::Read => self.reads.as_deref(),
            AccessKind::Write => self.writes.as_deref(),
            AccessKind::Atomic => self.atomics.as_deref(),
        }
    }

    /// Is the byte range `[lo, hi)` inside the claim for `kind`? Since the
    /// intervals are merged, a range is covered iff one interval contains
    /// it whole. Empty ranges are trivially covered.
    pub fn covers(&self, kind: AccessKind, lo: u64, hi: u64) -> bool {
        if hi <= lo {
            return true;
        }
        let Some(iv) = self.intervals(kind) else {
            return true;
        };
        let i = iv.partition_point(|&(s, _)| s <= lo);
        i > 0 && iv[i - 1].1 >= hi
    }

    /// Is a single access of `width` bytes at `addr` inside the claim?
    pub fn allows(&self, kind: AccessKind, addr: u32, width: u32) -> bool {
        self.covers(kind, addr as u64, addr as u64 + width as u64)
    }
}

/// Launch-time configuration shared by both executors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LaunchConfig {
    /// Total lanes (request slots) in the launch. The SIMT executor groups
    /// them into warps of [`WARP_SIZE`].
    pub lanes: u32,
    /// Broadcast launch parameters readable via `Op::Param`.
    pub params: Vec<u32>,
    /// Per-lane private (local) memory in bytes.
    pub local_bytes: u32,
    /// Per-warp shared memory in bytes.
    pub shared_bytes: u32,
    /// Per-warp dynamic instruction budget (per lane under
    /// [`legacy::execute_lanes`], where every warp is one lane); exceeding
    /// it aborts execution, guarding against runaway loops.
    pub max_instructions: u64,
    /// Optional footprint sanitizer: when set, the plan executor checks
    /// every executed **global** access against this claimed static
    /// footprint and aborts with [`ExecError::FootprintEscape`] on the
    /// first access outside it. `None` (the default) disables the check.
    /// The sanitizer cannot perturb results: a sanitized launch that does
    /// not escape is bit-identical to an unsanitized one.
    pub sanitize: Option<Arc<FootprintSpec>>,
}

impl LaunchConfig {
    /// A config for `lanes` lanes with the given params and the defaults
    /// for everything else (256 B local, 1 KiB shared, 1 G-instruction
    /// budget).
    ///
    /// Takes anything convertible into the params vector, so argless
    /// launch sites can write `LaunchConfig::new(lanes, [])` and skip the
    /// `vec![]` ceremony:
    ///
    /// ```
    /// use rhythm_simt::exec::LaunchConfig;
    /// assert_eq!(LaunchConfig::new(64, []), LaunchConfig::new(64, Vec::new()));
    /// assert_eq!(LaunchConfig::new(64, [7, 9]).params, vec![7, 9]);
    /// ```
    pub fn new(lanes: u32, params: impl Into<Vec<u32>>) -> Self {
        LaunchConfig {
            lanes,
            params: params.into(),
            ..Default::default()
        }
    }

    /// Number of warps needed for the configured lane count.
    pub fn warps(&self) -> u32 {
        self.lanes.div_ceil(WARP_SIZE)
    }
}

impl Default for LaunchConfig {
    fn default() -> Self {
        LaunchConfig {
            lanes: 1,
            params: Vec::new(),
            local_bytes: 256,
            shared_bytes: 1024,
            max_instructions: 1_000_000_000,
            sanitize: None,
        }
    }
}

/// A structured pre-launch rejection produced by a [`crate::gpu::LaunchGate`].
///
/// Carries enough to point a kernel author at the offending instruction:
/// the rule identifier of the static check that fired, the program name,
/// and the block / op coordinates (when the finding is op-level).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GateRejection {
    /// Stable identifier of the rule that rejected the launch
    /// (e.g. `"bounds-oob"`).
    pub rule: String,
    /// Name of the rejected program.
    pub program: String,
    /// Basic block containing the finding, when op-level.
    pub block: Option<u32>,
    /// Op index within the block, when op-level.
    pub op_index: Option<usize>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for GateRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.rule, self.program)?;
        if let Some(b) = self.block {
            write!(f, " bb{b}")?;
            if let Some(i) = self.op_index {
                write!(f, ".{i}")?;
            }
        }
        write!(f, ": {}", self.message)
    }
}

/// Execution failure.
#[derive(Clone, PartialEq, Eq, Debug)]
#[allow(missing_docs)] // field names are self-describing
pub enum ExecError {
    /// A memory access failed (out of bounds / read-only).
    Mem(MemError),
    /// The instruction budget was exhausted (likely a runaway loop).
    Budget { executed: u64 },
    /// A launch parameter index had no value supplied.
    MissingParam { index: u16 },
    /// Internal invariant violation in the divergence stack.
    Reconvergence(&'static str),
    /// A pre-launch static check rejected the program before any lane ran.
    Rejected(GateRejection),
    /// The footprint sanitizer observed a global access outside the
    /// claimed static footprint — a soundness failure of the static
    /// effect analysis (or a wrong claim), never of the kernel itself.
    FootprintEscape {
        kind: AccessKind,
        addr: u32,
        width: u32,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Mem(e) => write!(f, "memory fault: {e}"),
            ExecError::Budget { executed } => {
                write!(f, "instruction budget exhausted after {executed}")
            }
            ExecError::MissingParam { index } => write!(f, "launch parameter {index} not supplied"),
            ExecError::Reconvergence(msg) => write!(f, "divergence-stack invariant broken: {msg}"),
            ExecError::Rejected(r) => write!(f, "launch rejected by static check: {r}"),
            ExecError::FootprintEscape { kind, addr, width } => write!(
                f,
                "footprint sanitizer: {width}-byte {kind} at global address {addr:#x} \
                 escapes the claimed static footprint"
            ),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemError> for ExecError {
    fn from(e: MemError) -> Self {
        ExecError::Mem(e)
    }
}

/// Load `width` bytes at `addr` from a per-lane local or per-warp shared
/// buffer, failing out of bounds as `space`.
pub(crate) fn read_buf(
    buf: &[u8],
    space: MemSpace,
    width: Width,
    addr: u32,
) -> Result<u32, MemError> {
    let a = addr as usize;
    let w = width.bytes() as usize;
    if a + w > buf.len() {
        return Err(MemError::OutOfBounds {
            space,
            addr,
            len: w as u32,
            size: buf.len(),
        });
    }
    Ok(match width {
        Width::Byte => buf[a] as u32,
        Width::Word => u32::from_le_bytes([buf[a], buf[a + 1], buf[a + 2], buf[a + 3]]),
    })
}

/// Store counterpart of [`read_buf`].
pub(crate) fn write_buf(
    buf: &mut [u8],
    space: MemSpace,
    width: Width,
    addr: u32,
    value: u32,
) -> Result<(), MemError> {
    let a = addr as usize;
    let w = width.bytes() as usize;
    if a + w > buf.len() {
        return Err(MemError::OutOfBounds {
            space,
            addr,
            len: w as u32,
            size: buf.len(),
        });
    }
    match width {
        Width::Byte => buf[a] = value as u8,
        Width::Word => buf[a..a + 4].copy_from_slice(&value.to_le_bytes()),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warps_round_up() {
        let mut c = LaunchConfig::new(1, []);
        assert_eq!(c.warps(), 1);
        c.lanes = 32;
        assert_eq!(c.warps(), 1);
        c.lanes = 33;
        assert_eq!(c.warps(), 2);
        c.lanes = 4096;
        assert_eq!(c.warps(), 128);
    }

    #[test]
    fn default_config_sane() {
        let c = LaunchConfig::default();
        assert!(c.max_instructions > 0);
    }

    #[test]
    fn error_display_and_source() {
        use crate::ir::MemSpace;
        use std::error::Error as _;
        let e = ExecError::from(MemError::ReadOnly {
            space: MemSpace::Const,
        });
        assert!(e.to_string().contains("memory fault"));
        assert!(e.source().is_some());
        assert!(ExecError::Budget { executed: 7 }.source().is_none());
    }
}

//! # rhythm-trace
//!
//! Dynamic basic-block trace merging — the methodology behind the paper's
//! request-similarity study (§2.3, Figure 2).
//!
//! The paper collects per-request x86 basic-block traces with Pin and
//! merges traces of same-type requests with the UNIX `diff` utility; the
//! merged length approximates lockstep (SIMD) execution and
//! `Σ|trace| / |merged|` is the attainable speedup. Here the traces come
//! from `rhythm-simt`'s reference engine running one lane at a time
//! (`execute_lanes`) and the merge is a from-scratch
//! Myers O(ND) diff ([`myers`]) with shortest-common-supersequence
//! recovery, iterated pairwise over a trace group ([`merge`]).
//!
//! ```
//! use rhythm_trace::merge::merge_traces;
//!
//! // Three near-identical control-flow traces (block ids):
//! let traces = vec![
//!     vec![0, 1, 1, 1, 2, 3],
//!     vec![0, 1, 1, 2, 3],      // one fewer loop iteration
//!     vec![0, 1, 1, 1, 2, 3],
//! ];
//! let (merged, report) = merge_traces(&traces, 1000);
//! assert_eq!(merged.len(), 6, "SCS is the longest variant");
//! assert!(report.relative_to_ideal() > 0.9);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod merge;
pub mod myers;

pub use merge::{merge_traces, SimilarityReport};
pub use myers::{merge_pair, MergeResult};

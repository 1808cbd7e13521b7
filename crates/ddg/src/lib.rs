//! Data-dependence-graph (DDG) substrate for modulo scheduling.
//!
//! This crate provides the loop representation used throughout the HRMS
//! reproduction: a *data-dependence graph* `G = (V, E, δ, λ)` in the notation
//! of Llosa et al. (MICRO-28, 1995), where
//!
//! * each vertex `v ∈ V` is one operation of an innermost-loop body,
//! * each edge `(u, v) ∈ E` is a dependence (register, memory or control),
//! * `δ(u,v) ≥ 0` is the dependence *distance* in iterations, and
//! * `λ(u) ≥ 1` is the *latency* of the operation in cycles.
//!
//! On top of the graph itself the crate implements every graph routine the
//! schedulers rely on, one implementation each:
//!
//! * weakly connected components ([`dense::Components`]),
//! * strongly connected components ([`scc`]),
//! * the exact per-node maximum cycle-ratio analysis ([`cycle_ratio`]):
//!   for every node, the `RecMII` of the most critical recurrence circuit
//!   through it, which ranks interleaved recurrences exactly, and the
//!   loop's scheduling `RecMII`,
//! * the recurrence subgraphs the pre-ordering ranks, derived from the
//!   SCCs, their backward-edge sets and the cycle ratios without
//!   enumerating a circuit ([`recurrence`]),
//! * dense bitset and CSR versions of the paper's `Search_All_Paths`,
//!   `Sort_ASAP` and `Sort_PALA` ([`dense`]), and latency-weighted
//!   levels ([`topo`]),
//! * the shared per-loop analysis cache ([`analysis`]): one Tarjan run,
//!   backward edges, dependence arcs with precomputed latencies and the
//!   cycle ratios, computed once per loop and reused by every phase,
//! * the `.loop` text format ([`textfmt`]), Graphviz export and import
//!   ([`dot`]) and stable fingerprints ([`fingerprint`]).
//!
//! The oracles these routines are tested against — Johnson's circuit
//! enumeration, and generic path search and sorts — live in the dev-only
//! `hrms-oracle` crate.
//!
//! # Example
//!
//! ```
//! use hrms_ddg::{DdgBuilder, OpKind, DepKind};
//!
//! # fn main() -> Result<(), hrms_ddg::DdgError> {
//! let mut b = DdgBuilder::new("dot_product");
//! let load_a = b.node("load_a", OpKind::Load, 2);
//! let load_b = b.node("load_b", OpKind::Load, 2);
//! let mul = b.node("mul", OpKind::FpMul, 2);
//! let acc = b.node("acc", OpKind::FpAdd, 1);
//! b.edge(load_a, mul, DepKind::RegFlow, 0)?;
//! b.edge(load_b, mul, DepKind::RegFlow, 0)?;
//! b.edge(mul, acc, DepKind::RegFlow, 0)?;
//! // the accumulator is a loop-carried dependence of distance 1
//! b.edge(acc, acc, DepKind::RegFlow, 1)?;
//! let ddg = b.build()?;
//! assert_eq!(ddg.num_nodes(), 4);
//! assert!(ddg.has_recurrence());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod cycle_ratio;
pub mod dense;
pub mod dot;
pub mod edge;
pub mod error;
pub mod fingerprint;
pub mod graph;
pub mod instrument;
pub mod node;
pub mod recurrence;
pub mod scc;
pub mod textfmt;
pub mod topo;

pub use analysis::{
    dependence_latency, DepArc, DepEdge, IncrementalStarts, LoopAnalysis, LoopCore, PerIiStarts,
    PlacementCsr,
};
pub use builder::DdgBuilder;
pub use cycle_ratio::CycleRatios;
pub use dense::{Csr, DenseAdjacency, NodeSet};
pub use edge::{DepKind, Edge, EdgeId};
pub use error::DdgError;
pub use fingerprint::{cache_key, ddg_fingerprint, format_digest, Fnv64};
pub use graph::{chain, Ddg, DdgSummary};
pub use node::{Node, NodeId, OpKind};
pub use recurrence::{RecurrenceGroup, RecurrenceGroupKind, RecurrenceGroups};
pub use textfmt::{
    parse_loop, parse_loops, parse_loops_with_spans, write_loop, write_loops, LoopSpans,
    ParseError, Span,
};
pub use topo::{CycleError, TopoLevels};

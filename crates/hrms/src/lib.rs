//! Hypernode Reduction Modulo Scheduling (HRMS).
//!
//! This crate implements the paper's contribution: a software-pipelining
//! heuristic that minimises the register pressure of the generated schedule
//! without sacrificing the initiation interval. It is split into the same
//! two phases as the paper:
//!
//! 1. **Pre-ordering** ([`preorder`]): nodes are ordered by iteratively
//!    *reducing* them into a growing hypernode, alternating between the
//!    hypernode's predecessors (ordered sinks-first, `PALA`) and successors
//!    (ordered sources-first, `ASAP`), with recurrence circuits handled
//!    first in decreasing `RecMII` order. The resulting order guarantees
//!    that every node (except the first, and nodes closing a recurrence) has
//!    a *reference* neighbour already in the partial schedule, and never has
//!    both predecessors and successors there.
//! 2. **Scheduling** ([`scheduler`]): nodes are placed in that order, as
//!    soon as possible when their reference is a predecessor and as late as
//!    possible when it is a successor, within a window of II cycles; if a
//!    node cannot be placed the II is increased and the placement restarts
//!    (the ordering is reused). The II escalation itself is
//!    [`hrms_modsched::escalate_ii`], the driver every scheduler shares.
//!
//! The scheduler implements [`hrms_modsched::ModuloScheduler`], so it is
//! interchangeable with the baseline schedulers of `hrms-baselines`.
//!
//! # Dense representation
//!
//! The pre-ordering phase runs on the dense bitset/CSR machinery of
//! [`hrms_ddg::dense`]: the hypernode is the set of nodes ordered so far,
//! kept as a live-node mask and the work CSR's successors and
//! predecessors of its members (see [`preorder`]), and the scheduling
//! step scans the per-node dependence arcs of the loop's
//! [`hrms_ddg::LoopAnalysis::placement`]. Each phase has exactly one
//! implementation; golden fingerprint pins and the independent certifier
//! of `hrms-verify` guard their output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod preorder;
pub mod scheduler;

pub use preorder::{pre_order, pre_order_with, PreOrderOptions, PreOrdering};
pub use scheduler::{program_order_scheduler, schedule_at_ii_with, HrmsScheduler};

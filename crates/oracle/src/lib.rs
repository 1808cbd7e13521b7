//! Test oracles for the HRMS reproduction.
//!
//! `hrms-ddg` keeps one implementation of each graph analysis the
//! schedulers run: the enumeration-free recurrence groups derived from
//! cycle ratios ([`hrms_ddg::RecurrenceGroups`]), the `RecMII` read off the
//! same cycle-ratio pass ([`hrms_ddg::LoopAnalysis::rec_mii`]), the
//! incremental start times ([`hrms_ddg::IncrementalStarts`]) and the dense
//! path search and topological sorts of [`hrms_ddg::dense`]. This crate
//! holds the slower, simpler implementations those are checked against, so
//! that no user of `hrms-ddg` compiles them:
//!
//! * Johnson's enumeration of elementary circuits and their grouping into
//!   recurrence subgraphs by backward-edge set ([`circuits`]) —
//!   exponential on dense strongly connected components, hence budgeted;
//! * [`cross_check`], which compares the recurrence groups with a complete
//!   enumeration subgraph for subgraph and counts every divergence in a
//!   [`CrossCheckReport`];
//! * the whole-graph Bellman-Ford references ([`bellman_ford`]):
//!   [`exact_rec_mii`], which bisects the II over the whole graph, and
//!   [`latest_starts_from`], the from-scratch latest start times;
//! * the [`GraphView`] adjacency trait with the generic `Search_All_Paths`
//!   ([`paths`]) and `Sort_ASAP`/`Sort_PALA` ([`topo`]) of the paper,
//!   the references of the dense routines.
//!
//! The crate is `publish = false` and appears only under
//! `[dev-dependencies]`. `hrms-ddg`'s own unit tests cannot use it (the
//! dev-dependency cycle would compile a second copy of `hrms_ddg`), so the
//! tests that compare `hrms-ddg` code with an oracle live here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bellman_ford;
pub mod circuits;
#[cfg(test)]
mod dense;
pub mod graph;
pub mod paths;
pub mod recurrence;
pub mod topo;

pub use bellman_ford::{exact_rec_mii, latest_starts_from};
pub use circuits::{Circuit, RecurrenceInfo, RecurrenceSubgraph, DEFAULT_CIRCUIT_BUDGET};
pub use graph::GraphView;
pub use paths::search_all_paths;
pub use recurrence::{cross_check, CrossCheckReport};
pub use topo::{sort_asap, sort_pala, Direction};

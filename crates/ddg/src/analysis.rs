//! Shared per-loop graph analyses: compute once, reuse in every phase.
//!
//! Before this module existed, each scheduling phase re-derived the same
//! structural facts about a loop body: the pre-ordering ran Tarjan once in
//! [`crate::circuits`] (to restrict Johnson's circuit search to each SCC)
//! and once more to find the backward edges, the MII computation repeated
//! the recurrence analysis as a Bellman-Ford binary search, and every
//! `Early_Start`/`Late_Start` evaluation re-resolved dependence latencies
//! edge by edge. [`LoopAnalysis`] computes each of these **at most once**
//! per [`Ddg`] — lazily, on first access, so every consumer pays only for
//! the facts it actually touches — and hands cached references to all
//! phases:
//!
//! * Tarjan SCCs ([`LoopAnalysis::sccs`]) — one run, shared with the
//!   cycle-ratio analysis and the backward-edge computation
//!   (`O(|V| + |E|)`);
//! * the backward edges of recurrence circuits
//!   ([`LoopAnalysis::backward_edges`]) — `O(|E|)` given the SCCs;
//! * the flat dependence-constraint edge list ([`LoopAnalysis::dep_edges`])
//!   used by every Bellman-Ford pass — `O(|E|)`, built once instead of once
//!   per `earliest_starts`/`latest_starts` call;
//! * the placement CSR ([`LoopAnalysis::placement`]) — per-node predecessor
//!   and successor arc slices with **precomputed** [`dependence_latency`]
//!   values, the dense representation `PartialSchedule` iterates on the
//!   scheduling hot path (`O(|V| + |E|)`);
//! * the full and backward-edge-filtered CSR adjacencies
//!   ([`LoopAnalysis::csr_full`], [`LoopAnalysis::csr_work`]), the
//!   enumeration-free recurrence groups
//!   ([`LoopAnalysis::recurrence_groups`], built from the cached SCCs) and
//!   the exact recurrence-constrained MII ([`LoopAnalysis::rec_mii`]).
//!
//! The `tarjan_runs_exactly_once` test at the bottom of this file pins the
//! "Tarjan at most once, however many phases ask" property with an
//! instrumented counter ([`crate::instrument`]).
//!
//! # The shared core
//!
//! [`LoopAnalysis`] pairs the analysed graph with a [`LoopCore`]: the
//! machine-independent facts (everything above: SCCs, backward edges,
//! CSRs, recurrence groups, cycle ratios, dependence edges resolved from
//! the graph's authoritative node latencies, the structural fingerprint).
//! The core is lifetime-free and `Sync`, so one `Arc<LoopCore>` per loop
//! can be shared by every per-machine scheduling cell of a multi-backend
//! batch — Tarjan and the cycle-ratio λ-search then run exactly once per
//! loop however many machines are targeted.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

use crate::cycle_ratio::CycleRatios;
use crate::dense::Csr;
use crate::edge::{DepKind, Edge, EdgeId};
use crate::graph::Ddg;
use crate::node::NodeId;
use crate::recurrence::RecurrenceGroups;
use crate::scc;

/// The latency enforced along a dependence edge: the number of cycles that
/// must elapse between the issue of the source and the issue of the target
/// (before accounting for the `δ·II` slack of loop-carried dependences).
///
/// Register flow, memory and control dependences wait for the producer to
/// complete (`λ(u)` cycles). Anti and output register dependences only
/// require issue order (1 cycle): the consumer of an anti-dependence reads
/// the old value at issue time, so the new definition merely has to be
/// issued later.
pub fn dependence_latency(ddg: &Ddg, edge: &Edge) -> u32 {
    match edge.kind() {
        DepKind::RegAnti | DepKind::RegOutput => 1,
        // RegFlow, Memory, Control and any future dependence kind wait for
        // the producer to complete.
        _ => ddg.node(edge.source()).latency(),
    }
}

/// One dependence-constraint edge with its latency already resolved:
/// `t(target) ≥ t(source) + latency − distance·II`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Source node index.
    pub source: u32,
    /// Target node index.
    pub target: u32,
    /// Resolved [`dependence_latency`] of the edge.
    pub latency: u32,
    /// Dependence distance in iterations (`δ`).
    pub distance: u32,
}

impl DepEdge {
    /// The edge's weight in the constraint graph at initiation interval
    /// `ii`: `latency − distance·II`.
    #[inline]
    pub fn weight(&self, ii: i64) -> i64 {
        i64::from(self.latency) - i64::from(self.distance) * ii
    }
}

/// Flattens every dependence edge of `ddg` (self-loops included — they
/// constrain the II even though they never constrain placement) with its
/// latency resolved, in edge-id order. `O(|E|)`.
pub fn collect_dep_edges(ddg: &Ddg) -> Vec<DepEdge> {
    ddg.edges()
        .map(|(_, e)| DepEdge {
            source: e.source().0,
            target: e.target().0,
            latency: dependence_latency(ddg, e),
            distance: e.distance(),
        })
        .collect()
}

/// One placement arc: a dependence seen from one of its endpoints, with the
/// latency already resolved. Stored in the per-node slices of
/// [`PlacementCsr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepArc {
    /// The other endpoint (the source for in-arcs, the target for out-arcs).
    pub other: u32,
    /// Resolved [`dependence_latency`] of the edge.
    pub latency: u32,
    /// Dependence distance in iterations (`δ`).
    pub distance: u32,
}

/// Compressed-sparse-row dependence arcs for the placement hot path.
///
/// For each node the structure stores the incoming and outgoing dependence
/// arcs (self-loops excluded — they only bound the II, never a placement
/// window) with their latencies precomputed, so `Early_Start`/`Late_Start`
/// become two flat slice scans with no per-edge latency dispatch and no
/// hashing. Parallel edges are **kept** (unlike [`Csr`]): two dependences
/// between the same nodes can carry different distances and both bound the
/// placement.
///
/// Construction is `O(|V| + |E|)`; arc queries are `O(1)` slice borrows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementCsr {
    bound: usize,
    in_offsets: Vec<u32>,
    in_arcs: Vec<DepArc>,
    out_offsets: Vec<u32>,
    out_arcs: Vec<DepArc>,
}

impl PlacementCsr {
    /// Builds the placement arcs of `ddg` in `O(|V| + |E|)`, resolving
    /// latencies from the graph's node latencies ([`dependence_latency`]).
    pub fn from_graph(ddg: &Ddg) -> Self {
        let n = ddg.num_nodes();
        let mut ins: Vec<Vec<DepArc>> = vec![Vec::new(); n];
        let mut outs: Vec<Vec<DepArc>> = vec![Vec::new(); n];
        for (_, e) in ddg.edges() {
            if e.is_self_loop() {
                continue; // self-dependences only bound II, not placement
            }
            let latency = dependence_latency(ddg, e);
            ins[e.target().index()].push(DepArc {
                other: e.source().0,
                latency,
                distance: e.distance(),
            });
            outs[e.source().index()].push(DepArc {
                other: e.target().0,
                latency,
                distance: e.distance(),
            });
        }
        let flatten = |rows: Vec<Vec<DepArc>>| {
            let mut offsets = Vec::with_capacity(n + 1);
            let mut flat = Vec::new();
            offsets.push(0u32);
            for row in rows {
                flat.extend_from_slice(&row);
                offsets.push(flat.len() as u32);
            }
            (offsets, flat)
        };
        let (in_offsets, in_arcs) = flatten(ins);
        let (out_offsets, out_arcs) = flatten(outs);
        PlacementCsr {
            bound: n,
            in_offsets,
            in_arcs,
            out_offsets,
            out_arcs,
        }
    }

    /// Upper bound on node indices.
    #[inline]
    pub fn node_bound(&self) -> usize {
        self.bound
    }

    /// The incoming dependence arcs of node `i` (self-loops excluded).
    #[inline]
    pub fn in_arcs(&self, i: usize) -> &[DepArc] {
        &self.in_arcs[self.in_offsets[i] as usize..self.in_offsets[i + 1] as usize]
    }

    /// The outgoing dependence arcs of node `i` (self-loops excluded).
    #[inline]
    pub fn out_arcs(&self, i: usize) -> &[DepArc] {
        &self.out_arcs[self.out_offsets[i] as usize..self.out_offsets[i + 1] as usize]
    }
}

/// The backward edges of every recurrence circuit, given the strongly
/// connected components of the graph: loop-carried edges whose endpoints
/// belong to the same SCC. Removing them makes the work graph acyclic (any
/// remaining cycle would have distance 0, which the MII computation
/// rejects). `O(|V| + |E|)` given the SCCs.
pub fn backward_edges_of(ddg: &Ddg, sccs: &[Vec<NodeId>]) -> HashSet<EdgeId> {
    let mut scc_of = vec![usize::MAX; ddg.num_nodes()];
    for (i, comp) in sccs.iter().enumerate() {
        for &n in comp {
            scc_of[n.index()] = i;
        }
    }
    ddg.edges()
        .filter(|(_, e)| {
            e.distance() > 0 && scc_of[e.source().index()] == scc_of[e.target().index()]
        })
        .map(|(eid, _)| eid)
        .collect()
}

/// Longest-path solution of the dependence constraints at a given II — the
/// shared Bellman-Ford core behind `earliest_starts` and the RecMII search.
/// Returns `None` when the constraints are infeasible at this II.
/// `O(|V|·|E|)` worst case, one early-exit pass per settled round.
pub fn longest_paths(n: usize, edges: &[DepEdge], ii: u32) -> Option<Vec<i64>> {
    let ii = i64::from(ii);
    let mut dist = vec![0i64; n];
    for round in 0..=n {
        let mut changed = false;
        for e in edges {
            let w = e.weight(ii);
            let (u, v) = (e.source as usize, e.target as usize);
            if dist[u] + w > dist[v] {
                dist[v] = dist[u] + w;
                changed = true;
            }
        }
        if !changed {
            return Some(dist);
        }
        if round == n {
            return None;
        }
    }
    Some(dist)
}

/// Latest start times relative to `horizon` at a given II — the backward
/// counterpart of [`longest_paths`]. Returns `None` when infeasible.
/// `O(|V|·|E|)` worst case.
pub fn latest_starts_from(n: usize, edges: &[DepEdge], ii: u32, horizon: i64) -> Option<Vec<i64>> {
    let ii = i64::from(ii);
    let mut dist = vec![horizon; n];
    for round in 0..=n {
        let mut changed = false;
        for e in edges {
            let w = e.weight(ii);
            let (u, v) = (e.source as usize, e.target as usize);
            if dist[v] - w < dist[u] {
                dist[u] = dist[v] - w;
                changed = true;
            }
        }
        if !changed {
            return Some(dist);
        }
        if round == n {
            return None;
        }
    }
    Some(dist)
}

/// Whether the constraint graph with edge weights `latency − δ·II` contains
/// a positive-weight cycle (which makes the given II infeasible).
/// `O(|V|·|E|)` worst case with early exit.
fn has_positive_cycle(n: usize, edges: &[DepEdge], ii: i64) -> bool {
    if n == 0 {
        return false;
    }
    // Longest-path Bellman-Ford from a virtual source connected to every
    // node with weight 0. dist[] can only increase; if it still increases
    // after n iterations there is a positive cycle.
    let mut dist = vec![0i64; n];
    for round in 0..n {
        let mut changed = false;
        for e in edges {
            let w = e.weight(ii);
            let (u, v) = (e.source as usize, e.target as usize);
            if dist[u] + w > dist[v] {
                dist[v] = dist[u] + w;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
        if round == n - 1 && changed {
            return true;
        }
    }
    false
}

/// The exact recurrence-constrained minimum initiation interval: the
/// smallest II for which the dependence constraints admit a solution, found
/// by binary search on II with a Bellman-Ford positive-cycle check — exact
/// without enumerating elementary circuits. `O(|V|·|E|·log Λ)` where `Λ` is
/// the total latency.
///
/// Returns `Some(0)` for acyclic graphs and `None` when a zero-distance
/// cycle exists (infeasible at every II).
pub fn exact_rec_mii(n: usize, edges: &[DepEdge]) -> Option<u32> {
    // Upper bound: the sum of all dependence latencies is always feasible
    // (every circuit has distance >= 1 once zero-distance cycles are ruled
    // out, and its latency sum is <= this bound).
    let upper: u64 = edges
        .iter()
        .map(|e| u64::from(e.latency))
        .sum::<u64>()
        .max(1);

    if has_positive_cycle(n, edges, upper as i64) {
        // Weight stays positive for arbitrarily large II only when the cycle
        // distance is 0.
        return None;
    }
    let mut lo = 0u64; // known-infeasible (or "no constraint" level)
    let mut hi = upper; // known-feasible
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if has_positive_cycle(n, edges, mid as i64) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // hi is the smallest feasible II; if even II = 0 is feasible no cycle
    // imposes anything: the graph is acyclic and there is no recurrence
    // constraint.
    if hi == 1 && !has_positive_cycle(n, edges, 0) {
        return Some(0);
    }
    Some(hi as u32)
}

/// Resource-free earliest/latest start times that update **incrementally**
/// from one initiation interval to the next.
///
/// Every II-escalation step used to rerun both Bellman-Ford passes from
/// scratch, although only the loop-carried edge weights change — by exactly
/// `distance` per unit of II. This structure keeps, next to each start
/// time, the distance sum of a path *witnessing* it. Advancing from II to
/// II + d then warm-starts the relaxation from the witness values shifted
/// by `d · distance` (clamped into the solution lattice), which is a valid
/// lower (resp. upper) bound on the new fixpoint: the relaxation converges
/// in one or two passes over the edge list instead of `O(|V|)` of them on
/// typical escalation steps, while provably reaching the **same** fixpoint
/// as a from-scratch [`longest_paths`] / [`latest_starts_from`] run (the
/// workspace test suite pins the equality at every escalation step).
///
/// Latest starts are kept relative to horizon 0 (all values ≤ 0); the
/// constraint system is shift-invariant, so [`IncrementalStarts::latest`]
/// adds the caller's horizon back on.
#[derive(Debug, Clone)]
pub struct IncrementalStarts {
    ii: u32,
    /// Whether the stored vectors are the fixpoints at `ii` (a failed —
    /// infeasible — solve leaves mid-relaxation values that are still
    /// valid path witnesses, but not solutions).
    solved: bool,
    est: Vec<i64>,
    est_dist: Vec<u64>,
    lst: Vec<i64>,
    lst_dist: Vec<u64>,
}

impl IncrementalStarts {
    /// Computes both start-time solutions at `ii` from scratch. Returns
    /// `None` when the constraints are infeasible (`ii` below the RecMII).
    pub fn new(n: usize, edges: &[DepEdge], ii: u32) -> Option<Self> {
        let mut s = IncrementalStarts {
            ii,
            solved: false,
            est: vec![0; n],
            est_dist: vec![0; n],
            lst: vec![0; n],
            lst_dist: vec![0; n],
        };
        s.solved = s.solve(edges);
        s.solved.then_some(s)
    }

    /// The II the current solutions are valid for.
    #[inline]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Advances the solutions to `ii`, warm-starting from the current
    /// witnesses when `ii` is larger (the escalation direction) and
    /// recomputing from scratch otherwise. Returns `false` when the
    /// constraints are infeasible at `ii`; the stored values then still
    /// witness real dependence paths, so a later advance to a feasible II
    /// remains correct.
    pub fn advance(&mut self, edges: &[DepEdge], ii: u32) -> bool {
        if ii == self.ii && self.solved {
            return true;
        }
        // Re-probing the II of a previously *failed* advance falls through
        // and relaxes again from the stored witnesses (correctly failing
        // again if still infeasible) instead of reporting stale values.
        if ii < self.ii {
            self.est.fill(0);
            self.est_dist.fill(0);
            self.lst.fill(0);
            self.lst_dist.fill(0);
        } else {
            let d = i64::from(ii - self.ii);
            for v in 0..self.est.len() {
                let shifted = self.est[v] - d * self.est_dist[v] as i64;
                if shifted <= 0 {
                    self.est[v] = 0;
                    self.est_dist[v] = 0;
                } else {
                    self.est[v] = shifted;
                }
                let shifted = self.lst[v] + d * self.lst_dist[v] as i64;
                if shifted >= 0 {
                    self.lst[v] = 0;
                    self.lst_dist[v] = 0;
                } else {
                    self.lst[v] = shifted;
                }
            }
        }
        self.ii = ii;
        self.solved = self.solve(edges);
        self.solved
    }

    /// The earliest start times at the current II.
    #[inline]
    pub fn earliest(&self) -> &[i64] {
        &self.est
    }

    /// The latest start times relative to `horizon`.
    pub fn latest(&self, horizon: i64) -> Vec<i64> {
        self.lst.iter().map(|&v| v + horizon).collect()
    }

    /// Runs both relaxations to their fixpoints from the current values.
    /// The round bound is the same as the from-scratch passes': a solution
    /// still changing after `n` sweeps implies a positive cycle.
    fn solve(&mut self, edges: &[DepEdge]) -> bool {
        let (n, ii) = (self.est.len(), i64::from(self.ii));
        for round in 0..=n {
            let mut changed = false;
            for e in edges {
                let w = e.weight(ii);
                let (u, v) = (e.source as usize, e.target as usize);
                let cand = self.est[u] + w;
                if cand > self.est[v] {
                    self.est[v] = cand;
                    self.est_dist[v] = self.est_dist[u] + u64::from(e.distance);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            if round == n {
                return false;
            }
        }
        for round in 0..=n {
            let mut changed = false;
            for e in edges {
                let w = e.weight(ii);
                let (u, v) = (e.source as usize, e.target as usize);
                let cand = self.lst[v] - w;
                if cand < self.lst[u] {
                    self.lst[u] = cand;
                    self.lst_dist[u] = self.lst_dist[v] + u64::from(e.distance);
                    changed = true;
                }
            }
            if !changed {
                return true;
            }
            if round == n {
                return false;
            }
        }
        true
    }
}

/// Lazily constructed [`IncrementalStarts`] for an II-escalation loop: the
/// first II pays the two from-scratch passes, every later II a warm-started
/// update. Handed by the II-escalation driver (`hrms_modsched::escalate_ii`)
/// to each per-II attempt.
#[derive(Debug, Default)]
pub struct PerIiStarts {
    inner: Option<IncrementalStarts>,
}

impl PerIiStarts {
    /// An empty cache; nothing is computed until the first [`Self::at`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The start-time solutions at `ii` over `analysis`'s cached edge list,
    /// computed incrementally from the previous call's II when possible.
    /// Returns `None` when `ii` is infeasible.
    pub fn at(&mut self, analysis: &LoopAnalysis<'_>, ii: u32) -> Option<&IncrementalStarts> {
        let edges = analysis.dep_edges();
        match &mut self.inner {
            Some(s) => {
                if !s.advance(edges, ii) {
                    return None;
                }
            }
            None => {
                self.inner = Some(IncrementalStarts::new(
                    analysis.ddg().num_nodes(),
                    edges,
                    ii,
                )?);
            }
        }
        self.inner.as_ref()
    }
}

/// The machine-independent analyses of one loop body, computed at most
/// once and shareable across machines and threads: an opaque cache that
/// only [`LoopAnalysis`] reads.
///
/// Everything in here is a pure function of the [`Ddg`] — Tarjan SCCs,
/// backward edges, adjacency CSRs, recurrence groups, cycle ratios, the
/// flattened dependence edges (latencies resolved from the graph's node
/// latencies, which are authoritative; see [`dependence_latency`]), the
/// structural fingerprint, the default HRMS pre-ordering
/// ([`LoopAnalysis::hrms_order`]). None of it depends on the target
/// machine, which contributes only *resources* (ResMII, MRT occupancy) to
/// scheduling. The struct is lifetime-free, so an `Arc<LoopCore>` can be
/// built once per loop and handed to N per-machine scheduling cells through
/// [`LoopAnalysis::with_core`]: each fact is computed by whichever cell
/// asks first ([`OnceLock`] guarantees exactly-once under concurrency) and
/// reused by all others. The `tarjan_runs_exactly_once` test and the
/// workspace suite `tests/analysis_overlay_property.rs` pin the
/// once-per-loop property.
#[derive(Debug, Default)]
pub struct LoopCore {
    sccs: OnceLock<Vec<Vec<NodeId>>>,
    backward: OnceLock<HashSet<EdgeId>>,
    dep_edges: OnceLock<Vec<DepEdge>>,
    placement: OnceLock<Arc<PlacementCsr>>,
    csr_full: OnceLock<Csr>,
    csr_work: OnceLock<Csr>,
    ratios: OnceLock<CycleRatios>,
    rec_groups: OnceLock<RecurrenceGroups>,
    rec_mii: OnceLock<Option<u32>>,
    fingerprint: OnceLock<u64>,
    hrms_order: OnceLock<Vec<NodeId>>,
}

impl LoopCore {
    /// An empty core cache. `O(1)`; every analysis is computed on first
    /// use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Every graph analysis of one loop body, computed at most once: the
/// analysed graph paired with a shareable machine-independent
/// [`LoopCore`], and the only way to read that core.
///
/// Construction ([`LoopAnalysis::analyze`]) is free: every fact is
/// materialised lazily on first access and cached, so each consumer pays
/// only for what it touches — a pre-ordering-only caller never builds the
/// placement CSR, a baseline scheduler never runs Tarjan. What is shared is
/// the *cache*: however many phases (or, through a shared `Arc<LoopCore>`,
/// however many machines) ask, Tarjan runs at most once per loop (the
/// `tarjan_runs_exactly_once` test pins this), the dependence edges are
/// flattened once, and so on.
///
/// The struct borrows the [`Ddg`] it analyses, so a caller typically
/// creates one per loop and machine on the stack —
/// [`LoopAnalysis::with_core`] over a core shared by a batch driver,
/// [`LoopAnalysis::analyze`] for a private one — and hands `&LoopAnalysis`
/// to the scheduler, which threads it through its phases.
#[derive(Debug)]
pub struct LoopAnalysis<'a> {
    ddg: &'a Ddg,
    core: Arc<LoopCore>,
}

impl<'a> LoopAnalysis<'a> {
    /// Wraps `ddg` in an (initially empty) private analysis cache. `O(1)`;
    /// every analysis is computed on first use.
    pub fn analyze(ddg: &'a Ddg) -> Self {
        Self::with_core(ddg, Arc::new(LoopCore::new()))
    }

    /// Composes `ddg` with a shared machine-independent core. `O(1)`. The
    /// core must have been created for this same graph (or be empty).
    pub fn with_core(ddg: &'a Ddg, core: Arc<LoopCore>) -> Self {
        LoopAnalysis { ddg, core }
    }

    /// The analysed graph.
    #[inline]
    pub fn ddg(&self) -> &'a Ddg {
        self.ddg
    }

    /// The shared machine-independent core (clone the `Arc` to hand the
    /// same core to another per-machine analysis of this loop).
    #[inline]
    pub fn core(&self) -> &Arc<LoopCore> {
        &self.core
    }

    /// The structural fingerprint of the loop
    /// ([`crate::fingerprint::ddg_fingerprint`]), computed once per core
    /// however many machine keys it is combined with
    /// ([`crate::fingerprint::cache_key`] varies only the machine digest
    /// across the cells of a multi-machine batch).
    pub fn fingerprint(&self) -> u64 {
        *self
            .core
            .fingerprint
            .get_or_init(|| crate::fingerprint::ddg_fingerprint(self.ddg))
    }

    /// The strongly connected components — the core's single Tarjan run,
    /// `O(|V| + |E|)` on first access.
    pub fn sccs(&self) -> &[Vec<NodeId>] {
        self.core
            .sccs
            .get_or_init(|| scc::strongly_connected_components(self.ddg))
    }

    /// The backward edges of every recurrence circuit (loop-carried edges
    /// internal to an SCC); `O(|E|)` from the cached SCCs on first access.
    pub fn backward_edges(&self) -> &HashSet<EdgeId> {
        self.core
            .backward
            .get_or_init(|| backward_edges_of(self.ddg, self.sccs()))
    }

    /// The flat dependence-constraint edges with resolved latencies, in
    /// edge-id order (self-loops included); `O(|E|)` on first access.
    pub fn dep_edges(&self) -> &[DepEdge] {
        self.core
            .dep_edges
            .get_or_init(|| collect_dep_edges(self.ddg))
    }

    /// The placement CSR (per-node arcs with precomputed latencies), shared
    /// via `Arc` so partial schedules can hold it without re-borrowing the
    /// analysis. `O(|V| + |E|)` on first access.
    pub fn placement(&self) -> &Arc<PlacementCsr> {
        self.core
            .placement
            .get_or_init(|| Arc::new(PlacementCsr::from_graph(self.ddg)))
    }

    /// The full (deduplicated, self-loop-free) adjacency CSR;
    /// `O(|V| + |E|)` on first access.
    pub fn csr_full(&self) -> &Csr {
        self.core.csr_full.get_or_init(|| Csr::from_graph(self.ddg))
    }

    /// The adjacency CSR with backward edges removed — the acyclic work
    /// graph of the pre-ordering phase. `O(|V| + |E|)` on first access.
    pub fn csr_work(&self) -> &Csr {
        self.core
            .csr_work
            .get_or_init(|| Csr::filtered(self.ddg, self.backward_edges()))
    }

    /// The per-node maximum cycle-ratio analysis
    /// ([`crate::cycle_ratio::CycleRatios`]): for every node, the exact
    /// `RecMII` of the most critical recurrence circuit through it,
    /// derived from the cached SCCs in polynomial time. Feeds
    /// [`LoopAnalysis::recurrence_groups`].
    pub fn cycle_ratios(&self) -> &CycleRatios {
        self.core
            .ratios
            .get_or_init(|| CycleRatios::analyze_with_sccs(self.ddg, self.sccs()))
    }

    /// The enumeration-free recurrence analysis
    /// ([`crate::recurrence::RecurrenceGroups`]), assembled from the
    /// cached cycle-ratio analysis — never truncated, whatever the density
    /// of the components. This is the default recurrence path of the
    /// pre-ordering phase.
    ///
    /// With the `verify-recurrence` feature enabled, every analysed loop is
    /// cross-checked against a (budgeted) circuit enumeration whenever that
    /// enumeration completes; a hard divergence panics and any multi-edge
    /// coarsening is counted and logged
    /// ([`crate::recurrence::coarsening`]).
    pub fn recurrence_groups(&self) -> &RecurrenceGroups {
        self.core.rec_groups.get_or_init(|| {
            let ddg = self.ddg;
            let groups = RecurrenceGroups::from_cycle_ratios(ddg, self.cycle_ratios());
            #[cfg(feature = "verify-recurrence")]
            {
                let oracle = crate::circuits::RecurrenceInfo::analyze_with_sccs(
                    ddg,
                    self.sccs(),
                    crate::circuits::DEFAULT_CIRCUIT_BUDGET,
                );
                if !oracle.truncated {
                    match crate::recurrence::cross_check(&groups, &oracle) {
                        Err(e) => panic!(
                            "SCC-derived recurrence groups diverged from the \
                             circuit enumeration on `{}`: {e}",
                            ddg.name()
                        ),
                        Ok(report) => {
                            crate::recurrence::coarsening::record(report.is_exact());
                            if !report.is_exact() {
                                // The ≥3-backward-edge fallback is the only
                                // documented source of inexactness; anything
                                // else diverging is a bug, not coarsening.
                                assert!(
                                    report.deep_subgraphs > 0,
                                    "SCC-derived recurrence groups diverged from the \
                                     circuit enumeration on `{}` without any \
                                     deep (≥3-edge) subgraph to excuse it: {report:?}",
                                    ddg.name()
                                );
                                eprintln!(
                                    "verify-recurrence: `{}` coarsened: {report:?}",
                                    ddg.name()
                                );
                            }
                        }
                    }
                }
            }
            groups
        })
    }

    /// The exact recurrence-constrained MII ([`exact_rec_mii`]); `None`
    /// means the loop has a zero-distance dependence cycle and no II is
    /// feasible. Cached after the first binary search.
    pub fn rec_mii(&self) -> Option<u32> {
        *self
            .core
            .rec_mii
            .get_or_init(|| exact_rec_mii(self.ddg.num_nodes(), self.dep_edges()))
    }

    /// The HRMS pre-ordering under its default options, cached in the core:
    /// `order` computes it on the first call, and every later call on the
    /// same core — from any machine or thread — returns that order without
    /// running `order`. The ordering reads no machine, so the cells of one
    /// loop share it.
    ///
    /// The slot holds one order only, so callers must fill it with the
    /// default hypernode order and nothing else: a perturbed start node or
    /// another ordering mode computes its own order and never calls this.
    pub fn hrms_order(&self, order: impl FnOnce() -> Vec<NodeId>) -> &[NodeId] {
        self.core.hrms_order.get_or_init(order)
    }

    /// Resource-free earliest start times at `ii` over the cached edge list
    /// (see [`longest_paths`]). Not cached per-II: callers evaluate a given
    /// II at most once.
    pub fn earliest_starts(&self, ii: u32) -> Option<Vec<i64>> {
        longest_paths(self.ddg.num_nodes(), self.dep_edges(), ii)
    }

    /// Latest start times relative to `horizon` at `ii` over the cached edge
    /// list (see [`latest_starts_from`]).
    pub fn latest_starts(&self, ii: u32, horizon: i64) -> Option<Vec<i64>> {
        latest_starts_from(self.ddg.num_nodes(), self.dep_edges(), ii, horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DdgBuilder, DepKind, OpKind};

    /// load -> mul -> acc(+) with an accumulator self-dependence, plus an
    /// anti edge; exercises latencies, self-loops and a recurrence.
    fn accumulator_loop() -> Ddg {
        let mut b = DdgBuilder::new("acc");
        let ld = b.node("ld", OpKind::Load, 2);
        let mul = b.node("mul", OpKind::FpMul, 2);
        let acc = b.node("acc", OpKind::FpAdd, 1);
        b.edge(ld, mul, DepKind::RegFlow, 0).unwrap();
        b.edge(mul, acc, DepKind::RegFlow, 0).unwrap();
        b.edge(acc, acc, DepKind::RegFlow, 1).unwrap();
        b.edge(acc, ld, DepKind::RegAnti, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn dep_edges_resolve_latencies() {
        let g = accumulator_loop();
        let edges = collect_dep_edges(&g);
        assert_eq!(edges.len(), g.num_edges());
        // ld -> mul waits for the load (2); acc -> ld is anti (1).
        assert_eq!(edges[0].latency, 2);
        assert_eq!(edges[3].latency, 1);
        assert_eq!(edges[2].distance, 1, "self-loop kept in the flat list");
    }

    #[test]
    fn placement_csr_skips_self_loops_and_keeps_parallel_edges() {
        let mut b = DdgBuilder::new("par");
        let a = b.node("a", OpKind::Load, 2);
        let c = b.node("c", OpKind::FpAdd, 1);
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(a, c, DepKind::Memory, 2).unwrap();
        b.edge(c, c, DepKind::RegFlow, 1).unwrap();
        let g = b.build().unwrap();
        let p = PlacementCsr::from_graph(&g);
        assert_eq!(p.node_bound(), 2);
        assert_eq!(p.out_arcs(0).len(), 2, "parallel edges both kept");
        assert_eq!(p.in_arcs(1).len(), 2, "self-loop excluded");
        assert!(p.out_arcs(1).is_empty());
        assert_eq!(p.in_arcs(1)[1].distance, 2);
    }

    #[test]
    fn backward_edges_match_the_preordering_definition() {
        let mut b = DdgBuilder::new("be");
        let a = b.node("a", OpKind::FpAdd, 1);
        let c = b.node("c", OpKind::FpAdd, 1);
        let d = b.node("d", OpKind::FpAdd, 1);
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(c, a, DepKind::RegFlow, 1).unwrap(); // backward
        b.edge(c, d, DepKind::RegFlow, 2).unwrap(); // loop-carried, no cycle
        let g = b.build().unwrap();
        let la = LoopAnalysis::analyze(&g);
        assert_eq!(la.backward_edges().len(), 1);
        let (eid, _) = g
            .edges()
            .find(|(_, e)| e.source() == c && e.target() == a)
            .unwrap();
        assert!(la.backward_edges().contains(&eid));
    }

    #[test]
    fn rec_mii_matches_known_values() {
        let g = accumulator_loop();
        let la = LoopAnalysis::analyze(&g);
        // Binding circuit: acc->ld (anti, 1) + ld->mul (2) + mul->acc (2)
        // over distance 1 -> RecMII 5 (worse than the self-loop's 1).
        assert_eq!(la.rec_mii(), Some(5));

        let acyclic = crate::graph::chain("c", 5, OpKind::FpAdd, 1);
        assert_eq!(LoopAnalysis::analyze(&acyclic).rec_mii(), Some(0));

        let mut b = DdgBuilder::new("bad");
        let a = b.node("a", OpKind::FpAdd, 1);
        let c = b.node("c", OpKind::FpAdd, 1);
        b.edge(a, c, DepKind::RegFlow, 0).unwrap();
        b.edge(c, a, DepKind::RegFlow, 0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(LoopAnalysis::analyze(&g).rec_mii(), None);
    }

    #[test]
    fn lazy_csrs_match_direct_construction() {
        let g = accumulator_loop();
        let la = LoopAnalysis::analyze(&g);
        assert_eq!(la.csr_full(), &Csr::from_graph(&g));
        assert_eq!(la.csr_work(), &Csr::filtered(&g, la.backward_edges()));
    }

    #[test]
    fn earliest_and_latest_starts_are_consistent() {
        let g = accumulator_loop();
        let la = LoopAnalysis::analyze(&g);
        let ii = la.rec_mii().unwrap();
        let est = la.earliest_starts(ii).unwrap();
        let horizon = est.iter().copied().max().unwrap() + 4;
        let lst = la.latest_starts(ii, horizon).unwrap();
        for i in 0..g.num_nodes() {
            assert!(lst[i] >= est[i], "slack must be non-negative at RecMII");
        }
        assert!(la.earliest_starts(ii.saturating_sub(1)).is_none());
    }

    #[test]
    fn incremental_starts_match_from_scratch_passes() {
        let g = accumulator_loop();
        let la = LoopAnalysis::analyze(&g);
        let n = g.num_nodes();
        let edges = la.dep_edges();
        let rec_mii = la.rec_mii().unwrap();

        // Below the RecMII both constructions agree on infeasibility.
        assert!(longest_paths(n, edges, rec_mii - 1).is_none());
        assert!(IncrementalStarts::new(n, edges, rec_mii - 1).is_none());

        let mut inc = IncrementalStarts::new(n, edges, rec_mii).unwrap();
        for ii in rec_mii..rec_mii + 6 {
            assert!(inc.advance(edges, ii), "feasible above RecMII");
            assert_eq!(inc.ii(), ii);
            assert_eq!(inc.earliest(), longest_paths(n, edges, ii).unwrap());
            let horizon = inc.earliest().iter().copied().max().unwrap() + 7;
            assert_eq!(
                inc.latest(horizon),
                latest_starts_from(n, edges, ii, horizon).unwrap()
            );
        }
        // Retreating below the current II recomputes from scratch.
        assert!(inc.advance(edges, rec_mii));
        assert_eq!(inc.earliest(), longest_paths(n, edges, rec_mii).unwrap());

        // A failed advance must not poison later probes: re-asking the
        // same infeasible II keeps reporting infeasible (not stale
        // "solved" values), and recovering to a feasible II still lands
        // on the exact fixpoint.
        assert!(!inc.advance(edges, rec_mii - 1));
        assert!(
            !inc.advance(edges, rec_mii - 1),
            "repeat probe must fail too"
        );
        assert!(inc.advance(edges, rec_mii + 2));
        assert_eq!(
            inc.earliest(),
            longest_paths(n, edges, rec_mii + 2).unwrap()
        );
    }

    #[test]
    fn per_ii_starts_cache_is_lazy_and_consistent() {
        let g = accumulator_loop();
        let la = LoopAnalysis::analyze(&g);
        let mut starts = PerIiStarts::new();
        let rec_mii = la.rec_mii().unwrap();
        assert!(starts.at(&la, rec_mii - 1).is_none());
        for ii in rec_mii..rec_mii + 3 {
            let s = starts.at(&la, ii).expect("feasible");
            assert_eq!(s.earliest(), la.earliest_starts(ii).unwrap());
        }
    }

    #[test]
    fn tarjan_runs_exactly_once() {
        let g = accumulator_loop();
        crate::instrument::reset();
        let la = LoopAnalysis::analyze(&g);
        assert_eq!(
            crate::instrument::tarjan_runs(),
            0,
            "construction alone must not run Tarjan (everything is lazy)"
        );
        // Exercise every phase that historically re-ran Tarjan: the
        // recurrence analysis, the backward edges, the work CSR and the MII
        // computation.
        let _ = la.recurrence_groups();
        let _ = la.backward_edges();
        let _ = la.csr_work();
        let _ = la.rec_mii();
        let _ = la.recurrence_groups(); // second access hits the cache
        assert_eq!(
            crate::instrument::tarjan_runs(),
            1,
            "LoopAnalysis must run Tarjan exactly once per loop"
        );
        assert_eq!(
            crate::instrument::cycle_ratio_runs(),
            1,
            "the λ-search pass must run exactly once per loop"
        );
        // Consumers that don't need Tarjan never trigger it...
        let other = LoopAnalysis::analyze(&g);
        let _ = other.placement();
        let _ = other.dep_edges();
        let _ = other.rec_mii();
        assert_eq!(crate::instrument::tarjan_runs(), 1);
        // ...and a fresh analysis that does re-runs it exactly once.
        let _ = other.sccs();
        assert_eq!(crate::instrument::tarjan_runs(), 2);
    }

    #[test]
    fn shared_core_runs_tarjan_once_across_analyses() {
        let g = accumulator_loop();
        crate::instrument::reset();
        let core = Arc::new(LoopCore::new());
        // Four per-machine analyses over one shared core — the
        // multi-backend batch shape.
        for _ in 0..4 {
            let la = LoopAnalysis::with_core(&g, Arc::clone(&core));
            let _ = la.recurrence_groups();
            let _ = la.csr_work();
            let _ = la.rec_mii();
            let _ = la.placement();
            let _ = la.fingerprint();
        }
        assert_eq!(crate::instrument::tarjan_runs(), 1);
        assert_eq!(crate::instrument::cycle_ratio_runs(), 1);
    }

    #[test]
    fn core_fingerprint_matches_free_function() {
        let g = accumulator_loop();
        let la = LoopAnalysis::analyze(&g);
        assert_eq!(la.fingerprint(), crate::fingerprint::ddg_fingerprint(&g));
    }

    #[test]
    fn analyses_over_one_core_share_its_caches() {
        let g = accumulator_loop();
        let core = Arc::new(LoopCore::new());
        let a = LoopAnalysis::with_core(&g, Arc::clone(&core));
        let b = LoopAnalysis::with_core(&g, Arc::clone(&core));
        // The placement Arc is literally the same allocation.
        assert!(Arc::ptr_eq(a.placement(), b.placement()));
        assert_eq!(a.dep_edges(), b.dep_edges());
        assert_eq!(a.rec_mii(), b.rec_mii());
    }
}

//! Exact per-node maximum cycle-ratio analysis: for every operation, the
//! `RecMII` of the most critical recurrence circuit it participates in,
//! in polynomial time.
//!
//! # Why
//!
//! The pre-ordering phase of HRMS (Section 3.2 of the paper) schedules
//! recurrence subgraphs most-restrictive-first: stretching the circuit
//! with the highest `RecMII = ceil(Σλ / Ω)` (latency sum over distance
//! sum, the paper's Section 2.1 definition) would directly lengthen the
//! initiation interval. The enumeration-free grouping of
//! [`crate::recurrence`] derives every *single-backward-edge* subgraph
//! exactly, but until this module existed it coarsened the *interleaved*
//! recurrences — circuits threading two or more backward edges — into one
//! residual group per strongly connected component, ranked by the
//! component-wide `RecMII`. Sound, but on the rare loops with interleaved
//! recurrences the ranking diverged from Johnson's enumeration oracle.
//!
//! This module closes that gap. It computes, for each node `v`, the
//! **maximum cycle ratio through `v`** — the `RecMII` of the most
//! restrictive recurrence circuit containing `v` — and, as a by-product,
//! the interleaved two-backward-edge recurrence subgraphs themselves
//! (nodes *and* per-subgraph `RecMII`), which
//! [`crate::recurrence::RecurrenceGroups`] uses to split and rank the
//! former residual groups exactly where the enumeration would have.
//!
//! # Algorithm
//!
//! Everything is restricted to one (cached, Tarjan-derived) strongly
//! connected component at a time. Inside an SCC, every dependence edge
//! with distance `δ > 0` is a backward edge; dropping the `B` backward
//! edges leaves an acyclic remainder with a topological order.
//!
//! 1. **Single-edge circuits, exactly.** For each backward edge
//!    `b = (s → t)`, two latency-weighted longest-path DPs over the
//!    remainder — forward from `t` and backward to `s`, `O(V + E)` each —
//!    give for every node `v` on a `t ⇝ v ⇝ s` path the latency of the
//!    heaviest such circuit *through `v`*: `lpf(v) + lpt(v) − λ(v)`. In a
//!    DAG the two sub-paths can only meet at `v`, so the circuit is
//!    elementary and the bound `ceil((lpf + lpt − λ) / δ(b))` is exact.
//! 2. **Two-edge interleaved circuits.** An elementary circuit threading
//!    exactly the backward edges `b₁ = (s₁ → t₁)` and `b₂ = (s₂ → t₂)` is
//!    a pair of remainder paths `t₁ ⇝ s₂` and `t₂ ⇝ s₁`. Reachability of
//!    all backward-edge heads/tails is propagated once as `B`-bit sets in
//!    two linear sweeps (`O((V + E) · B/64)` word operations), so pair
//!    feasibility is two bit tests and the pair's `RecMII` bound is
//!    `ceil((L(t₁⇝s₂) + L(t₂⇝s₁)) / (δ₁ + δ₂))` from the per-edge DPs of
//!    step 1 — no path pair is ever enumerated. Per node, the same
//!    decomposition with the step-1 tables ranks every node on either
//!    segment. When the two segments cannot share a node (a shared `v`
//!    would satisfy `t₁ ⇝ v ⇝ s₁`, i.e. one edge also closes alone) every
//!    path pair is vertex-disjoint and this is provably exact; otherwise
//!    the *risky* pair reruns both segment DPs under mutual exclusion
//!    iterated to a fixpoint — each segment must avoid the other
//!    segment's endpoints and its *unavoidable* nodes (on every path of
//!    the other side, hence on every valid circuit's other half) — which
//!    kills pairs forced through a shared hub, trims nodes on no
//!    elementary circuit, and restores exactness for every shape in the
//!    differential corpora (shared-but-avoidable leftovers could still
//!    over-approximate — the suites count exactly how often that happens
//!    on real corpora: zero on the reference, generated, interleaved and
//!    spill-rewritten suites).
//! 3. **λ-search with a rooted Bellman-Ford (Lawler-style).** The exact
//!    component `RecMII` `m` is the smallest integer `λ` for which the
//!    constraint graph with edge weights `λ(src) − λ·δ` has no positive
//!    cycle. Steps 1–2 already provide a candidate that is almost always
//!    exact, so the search degenerates to one or two feasibility probes
//!    ([`crate::analysis::longest_paths`]); only when the candidate is
//!    not confirmed does a full binary search over `λ` run. If no
//!    per-node bound attains `m` (the critical circuit threads three or
//!    more backward edges), a Bellman-Ford with predecessor tracking
//!    rooted at the relaxation frontier extracts one concrete positive
//!    cycle at `λ = m − 1`; that cycle is elementary with ratio in
//!    `(m − 1, m]`, so its nodes carry **exactly** `m` and the component
//!    maximum is restored. Every per-node bound is finally clamped to
//!    `m`, making `max_v bound(v) = m` an invariant the property suite
//!    pins on every SCC.
//! 4. **Deeper interleavings.** Nodes lying only on circuits threading
//!    three or more backward edges keep the sound component-wide bound
//!    `m` — the same conservative priority the residual grouping always
//!    used, now limited to exactly the nodes that need it.
//!
//! Total cost for a component with `V` nodes, `E` edges and `B` backward
//! edges: `O(B · (V + E))` for the DPs, `O((V + E) · B/64)` for the
//! sweeps, `O(B² · V/64)` word operations for the pair spans and
//! `O(V · E)` for the (rare) confirmation probes — polynomial by
//! construction, with **no enumeration budget and no truncation**.
//!
//! # Two metrics, one pass
//!
//! The per-node bounds and the groups use the paper's metric: circuit
//! latency is the sum of *operation* latencies `λ(v)`. The schedulers'
//! MII uses the dependence metric of [`crate::analysis::dependence_latency`],
//! which charges an anti or output dependence one cycle of issue order
//! instead. No dependence latency exceeds its operation latency, so each
//! SCC's operation-metric `RecMII` `m` is feasible under the dependence
//! metric too. The same pass therefore also yields the scheduling `RecMII`
//! ([`CycleRatios::rec_mii`]): an SCC takes `m` as it is, unless one of
//! its edges is an anti or output dependence from an operation of latency
//! above 1. Only then does it bisect below `m` over its own edges under the
//! dependence metric. A self-loop adds `ceil(latency / δ)` under each
//! metric. The two metrics coincide on flow-only recurrences, which is
//! every loop of the reference and generated corpora.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::analysis::{dependence_latency, longest_paths, DepEdge};
use crate::edge::EdgeId;
use crate::graph::Ddg;
use crate::node::NodeId;
use crate::recurrence::{RecurrenceGroup, RecurrenceGroupKind};
use crate::scc;

/// The per-node maximum cycle-ratio analysis of a dependence graph, plus
/// the SCC-derived recurrence grouping it induces.
///
/// Construction is polynomial and complete — there is no enumeration
/// budget and no truncation, whatever the density of the SCCs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleRatios {
    per_node: Vec<u64>,
    groups: Vec<RecurrenceGroup>,
    rec_mii: Option<u64>,
}

impl CycleRatios {
    /// Analyses `ddg`, running its own Tarjan pass. Callers holding a
    /// [`crate::LoopAnalysis`] use its cached
    /// [`crate::LoopAnalysis::cycle_ratios`] accessor instead so the
    /// single per-loop Tarjan run is shared.
    pub fn analyze(ddg: &Ddg) -> Self {
        Self::analyze_with_sccs(ddg, &scc::strongly_connected_components(ddg))
    }

    /// Analyses `ddg` over precomputed strongly connected components.
    pub fn analyze_with_sccs(ddg: &Ddg, sccs: &[Vec<NodeId>]) -> Self {
        crate::instrument::record_cycle_ratio_run();
        let n = ddg.num_nodes();
        let mut per_node = vec![0u64; n];
        let mut groups = Vec::new();

        let mut rec_mii = Some(0);
        let mut local_of = vec![usize::MAX; n];
        for component in sccs {
            if component.len() < 2 {
                continue;
            }
            let component_mii =
                analyze_component(ddg, component, &mut local_of, &mut per_node, &mut groups);
            rec_mii = rec_mii.zip(component_mii).map(|(a, b)| a.max(b));
            for &node in component {
                local_of[node.index()] = usize::MAX;
            }
        }

        // Self-dependences: exact trivial circuits, merged after the
        // component clamp (a self-loop bounds only its own node, so it is
        // not limited by the component-wide RecMII of multi-node circuits).
        for (_, e) in ddg.edges() {
            if e.is_self_loop() {
                let v = e.source().index();
                let distance = u64::from(e.distance());
                let (bound, dependence_bound) = if distance > 0 {
                    let latency = u64::from(ddg.node(e.source()).latency());
                    let dependence = u64::from(dependence_latency(ddg, e));
                    (
                        latency.div_ceil(distance),
                        Some(dependence.div_ceil(distance)),
                    )
                } else {
                    (u64::MAX, None)
                };
                per_node[v] = per_node[v].max(bound);
                rec_mii = rec_mii.zip(dependence_bound).map(|(a, b)| a.max(b));
            }
        }

        CycleRatios {
            per_node,
            groups,
            rec_mii,
        }
    }

    /// The per-node bound: for each node (indexed by [`NodeId`]), the
    /// `RecMII` of the most critical recurrence circuit through it, `0`
    /// for nodes on no recurrence and `u64::MAX` for nodes on a
    /// zero-distance cycle (no II satisfies such a loop).
    ///
    /// Exact for nodes whose most critical circuit threads at most two
    /// backward edges (and always for the component-wide maximum); nodes
    /// lying only on deeper interleavings carry the sound component
    /// `RecMII`.
    #[inline]
    pub fn per_node(&self) -> &[u64] {
        &self.per_node
    }

    /// The bound of one node (see [`CycleRatios::per_node`]).
    #[inline]
    pub fn bound(&self, node: NodeId) -> u64 {
        self.per_node[node.index()]
    }

    /// Lower bound on the initiation interval imposed by the recurrences,
    /// in the paper's operation-latency metric: the maximum per-node
    /// bound, i.e. the exact `RecMII` of the whole graph. Equals the
    /// circuit enumeration's bound
    /// (`hrms_oracle::RecurrenceInfo::rec_mii_lower_bound`) whenever the
    /// enumeration completes, with no budget in sight.
    pub fn rec_mii_lower_bound(&self) -> u64 {
        self.per_node.iter().copied().max().unwrap_or(0)
    }

    /// The exact recurrence-constrained MII under the dependence metric
    /// ([`crate::analysis::dependence_latency`]), the bound the schedulers'
    /// MII is built from: `Some(0)` for an acyclic loop, `None` when a
    /// zero-distance cycle makes every II infeasible. Never above
    /// [`CycleRatios::rec_mii_lower_bound`], and equal to it on a loop with
    /// no anti or output edge (see the module docs).
    #[inline]
    pub fn rec_mii(&self) -> Option<u64> {
        self.rec_mii
    }

    /// The SCC-derived recurrence groups (single-edge, interleaved pair,
    /// residual and zero-distance — self-loops are trivial circuits and
    /// are contributed by [`crate::recurrence::RecurrenceGroups`]), in
    /// derivation order. [`crate::recurrence::RecurrenceGroups`] sorts
    /// them into the ordering-phase total order.
    #[inline]
    pub fn scc_groups(&self) -> &[RecurrenceGroup] {
        &self.groups
    }
}

/// `ceil(num / den)` over the non-negative path sums used throughout.
#[inline]
fn div_ceil_u64(num: u64, den: u64) -> u64 {
    num.div_ceil(den)
}

/// One pair-span candidate of the claim sweep: a prospective recurrence
/// group with its member set as a bitset over local indices.
struct Candidate {
    kind: RecurrenceGroupKind,
    rec_mii: u64,
    backward_edges: BTreeSet<EdgeId>,
    span: Vec<u64>,
}

/// Compares two local-index bitsets as their ascending node lists compare
/// lexicographically (the tie-break [`crate::recurrence::RecurrenceGroups`]
/// uses between groups of equal `RecMII`).
fn cmp_spans(a: &[u64], b: &[u64]) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    for (w, (wa, wb)) in a.iter().zip(b.iter()).enumerate() {
        if wa != wb {
            let low = (wa ^ wb).trailing_zeros();
            let in_a = wa >> low & 1 == 1;
            // The set holding the lowest differing element `d` is
            // lex-smaller, unless the other set has no element above `d` —
            // then the other set is a strict prefix, and prefixes sort
            // first.
            let other = if in_a { b } else { a };
            let above = u64::MAX << low << 1;
            let other_has_greater = other[w] & above != 0 || other[w + 1..].iter().any(|&x| x != 0);
            let a_smaller = in_a == other_has_greater;
            return if a_smaller {
                Ordering::Less
            } else {
                Ordering::Greater
            };
        }
    }
    Ordering::Equal
}

/// Analyses one non-trivial SCC: fills `per_node` for its members,
/// appends its recurrence groups and returns its `RecMII` under the
/// dependence metric (`None` for a zero-distance cycle). `local_of` is
/// caller-provided scratch, reset by the caller.
fn analyze_component(
    ddg: &Ddg,
    component: &[NodeId],
    local_of: &mut [usize],
    per_node: &mut [u64],
    groups: &mut Vec<RecurrenceGroup>,
) -> Option<u64> {
    let n = component.len();
    for (i, &node) in component.iter().enumerate() {
        local_of[node.index()] = i;
    }
    let lat: Vec<i64> = component
        .iter()
        .map(|&v| i64::from(ddg.node(v).latency()))
        .collect();

    // Collapse parallel edges per (source, target) pair keeping the
    // smallest distance (the binding choice for any cycle ratio, since
    // circuit latency is a node sum). The representative decides the
    // pair's role: distance 0 → an arc of the acyclic remainder,
    // distance > 0 → a backward edge. The same scan keeps every edge
    // under the dependence metric and notes whether one of them waits
    // less than its operation latency.
    let mut reps: BTreeMap<(usize, usize), (EdgeId, u32)> = BTreeMap::new();
    let mut dep_edges: Vec<DepEdge> = Vec::new();
    let mut has_issue_order_edge = false;
    for (eid, e) in ddg.edges() {
        if e.is_self_loop() {
            continue;
        }
        let (su, tu) = (local_of[e.source().index()], local_of[e.target().index()]);
        if su == usize::MAX || tu == usize::MAX {
            continue;
        }
        let latency = dependence_latency(ddg, e);
        has_issue_order_edge |= i64::from(latency) < lat[su];
        dep_edges.push(DepEdge {
            source: su as u32,
            target: tu as u32,
            latency,
            distance: e.distance(),
        });
        match reps.get(&(su, tu)) {
            Some(&(_, d)) if d <= e.distance() => {}
            _ => {
                reps.insert((su, tu), (eid, e.distance()));
            }
        }
    }

    // Backward edges (local src, local dst, EdgeId, distance), in edge-id
    // order so bit assignment and output are deterministic.
    let mut backward: Vec<(usize, usize, EdgeId, u32)> = Vec::new();
    let mut dag_succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut dag_preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (&(su, tu), &(eid, dist)) in &reps {
        if dist > 0 {
            backward.push((su, tu, eid, dist));
        } else {
            dag_succs[su].push(tu);
            dag_preds[tu].push(su);
        }
    }
    backward.sort_by_key(|&(_, _, eid, _)| eid);
    let nb = backward.len();

    // Topological order of the acyclic remainder. A failure means a
    // zero-distance cycle: no II is feasible — every member node carries
    // the infinite bound and one catch-all group keeps the component
    // prioritised by the pre-ordering.
    let Some(topo) = topo_order(&dag_succs, &dag_preds) else {
        for &node in component {
            per_node[node.index()] = u64::MAX;
        }
        groups.push(RecurrenceGroup {
            kind: RecurrenceGroupKind::ZeroDistance,
            nodes: component.to_vec(),
            backward_edges: backward.iter().map(|&(_, _, eid, _)| eid).collect(),
            rec_mii: u64::MAX,
        });
        return None;
    };

    // Two linear sweeps propagate, per node, the set of backward edges
    // reachable through it: `fwd[v]` holds b iff dst(b) ⇝ v, `bwd[v]`
    // holds b iff v ⇝ src(b), both over the acyclic remainder.
    let words = nb.div_ceil(64).max(1);
    let mut fwd = vec![0u64; n * words];
    let mut bwd = vec![0u64; n * words];
    for (k, &(src, dst, _, _)) in backward.iter().enumerate() {
        fwd[dst * words + k / 64] |= 1u64 << (k % 64);
        bwd[src * words + k / 64] |= 1u64 << (k % 64);
    }
    for &v in &topo {
        for &s in &dag_succs[v] {
            for w in 0..words {
                let bits = fwd[v * words + w];
                fwd[s * words + w] |= bits;
            }
        }
    }
    for &v in topo.iter().rev() {
        for &p in &dag_preds[v] {
            for w in 0..words {
                let bits = bwd[v * words + w];
                bwd[p * words + w] |= bits;
            }
        }
    }
    let has_bit = |row: &[u64], v: usize, k: usize| row[v * words + k / 64] >> (k % 64) & 1 == 1;

    // Per backward edge k = (s → t): `lpf[k][v]` is the latency-weighted
    // longest t ⇝ v path (endpoints included), `lpt[k][v]` the longest
    // v ⇝ s path. One forward and one backward topological DP per edge.
    let mut lpf = vec![i64::MIN; nb * n];
    let mut lpt = vec![i64::MIN; nb * n];
    for (k, &(src, dst, _, _)) in backward.iter().enumerate() {
        let row = &mut lpf[k * n..(k + 1) * n];
        row[dst] = lat[dst];
        for &v in &topo {
            if row[v] == i64::MIN {
                continue;
            }
            for &s in &dag_succs[v] {
                let cand = row[v] + lat[s];
                if cand > row[s] {
                    row[s] = cand;
                }
            }
        }
        let row = &mut lpt[k * n..(k + 1) * n];
        row[src] = lat[src];
        for &v in topo.iter().rev() {
            if row[v] == i64::MIN {
                continue;
            }
            for &p in &dag_preds[v] {
                let cand = row[v] + lat[p];
                if cand > row[p] {
                    row[p] = cand;
                }
            }
        }
    }

    // --- Step 1: single-edge circuits (exact per node and per group). ---
    let mut bound = vec![0u64; n]; // per-node bound, local indices
    let mut covered = vec![false; n];
    let mut singles_max = 0u64; // witnessed by real elementary circuits
    let mut candidates: Vec<Candidate> = Vec::new();
    for (k, &(src, _, eid, dist)) in backward.iter().enumerate() {
        if !has_bit(&fwd, src, k) {
            continue; // only closes circuits together with other edges
        }
        let d = u64::from(dist);
        let group_mii = div_ceil_u64(lpf[k * n + src] as u64, d);
        singles_max = singles_max.max(group_mii);
        let mut span = vec![0u64; n.div_ceil(64)];
        for v in 0..n {
            if has_bit(&fwd, v, k) && has_bit(&bwd, v, k) {
                covered[v] = true;
                span[v / 64] |= 1u64 << (v % 64);
                let through = (lpf[k * n + v] + lpt[k * n + v] - lat[v]) as u64;
                bound[v] = bound[v].max(div_ceil_u64(through, d));
            }
        }
        candidates.push(Candidate {
            kind: RecurrenceGroupKind::SingleEdge,
            rec_mii: group_mii,
            backward_edges: BTreeSet::from([eid]),
            span,
        });
    }

    // --- Step 2: two-edge interleaved circuits. ---
    // Pair {j, k} closes a circuit iff t_j ⇝ s_k and t_k ⇝ s_j in the
    // remainder; edges sharing a source or a target can never close an
    // elementary circuit together (the shared endpoint would repeat).
    //
    // Transposed per-edge node sets make the per-pair segment work
    // word-level: `ef[k]` = {v : t_k ⇝ v}, `eb[k]` = {v : v ⇝ s_k}.
    let nw = n.div_ceil(64);
    let mut ef = vec![0u64; nb * nw];
    let mut eb = vec![0u64; nb * nw];
    for v in 0..n {
        for k in 0..nb {
            if has_bit(&fwd, v, k) {
                ef[k * nw + v / 64] |= 1u64 << (v % 64);
            }
            if has_bit(&bwd, v, k) {
                eb[k * nw + v / 64] |= 1u64 << (v % 64);
            }
        }
    }
    // Restricted-DP scratch for the risky pairs.
    let mut f1 = vec![i64::MIN; n];
    let mut t1 = vec![i64::MIN; n];
    let mut f2 = vec![i64::MIN; n];
    let mut t2 = vec![i64::MIN; n];
    let mut x1 = vec![false; n];
    let mut x2 = vec![false; n];
    for j in 0..nb {
        let (sj, dj, ej, wj) = backward[j];
        for (k, &(sk, dk, ek, wk)) in backward.iter().enumerate().skip(j + 1) {
            if sj == sk || dj == dk {
                continue;
            }
            if !has_bit(&fwd, sk, j) || !has_bit(&fwd, sj, k) {
                continue;
            }
            let den = u64::from(wj) + u64::from(wk);
            // Segment A: t_j ⇝ v ⇝ s_k; segment B: t_k ⇝ v ⇝ s_j.
            let seg_a = |w: usize| ef[j * nw + w] & eb[k * nw + w];
            let seg_b = |w: usize| ef[k * nw + w] & eb[j * nw + w];
            // When no node lies on both segments, every path pair is
            // vertex-disjoint and the unrestricted DP tables are exact:
            // a shared node v would satisfy t_j ⇝ v ⇝ s_j, so overlap
            // requires one of the edges to also close alone.
            let risky = (0..nw).any(|w| seg_a(w) & seg_b(w) != 0);
            if !risky {
                let num = (lpf[j * n + sk] + lpf[k * n + sj]) as u64;
                let rec_mii = div_ceil_u64(num, den);
                let mut span = vec![0u64; nw];
                for (w, s) in span.iter_mut().enumerate() {
                    *s = seg_a(w) | seg_b(w);
                }
                let other_a = lpf[k * n + sj];
                let other_b = lpf[j * n + sk];
                for w in 0..nw {
                    let mut abits = seg_a(w);
                    while abits != 0 {
                        let v = w * 64 + abits.trailing_zeros() as usize;
                        abits &= abits - 1;
                        covered[v] = true;
                        let num = (lpf[j * n + v] + lpt[k * n + v] - lat[v] + other_a) as u64;
                        if num > bound[v].saturating_mul(den) {
                            bound[v] = div_ceil_u64(num, den);
                        }
                    }
                    let mut bbits = seg_b(w);
                    while bbits != 0 {
                        let v = w * 64 + bbits.trailing_zeros() as usize;
                        bbits &= bbits - 1;
                        covered[v] = true;
                        let num = (lpf[k * n + v] + lpt[j * n + v] - lat[v] + other_b) as u64;
                        if num > bound[v].saturating_mul(den) {
                            bound[v] = div_ceil_u64(num, den);
                        }
                    }
                }
                candidates.push(Candidate {
                    kind: RecurrenceGroupKind::Interleaved,
                    rec_mii,
                    backward_edges: BTreeSet::from([ej.min(ek), ej.max(ek)]),
                    span,
                });
                continue;
            }
            // Risky pair: one edge also closes alone, so an unrestricted
            // path may run through the other segment's nodes and
            // manufacture a non-elementary "circuit". Recompute both
            // segments under mutual exclusion, iterated to a fixpoint:
            // segment A must avoid {s_j, t_k} (an endpoint inside the
            // opposite segment repeats on the closed walk) plus every
            // node *unavoidable* for segment B — a node on every
            // `t_k ⇝ s_j` path lies on every valid B-side choice, so no
            // elementary circuit can route the A side through it — and
            // vice versa. Each round either grows an exclusion set or
            // stops, so the loop terminates; a segment made infeasible
            // proves the pair closes no elementary circuit at all (spill
            // reload chains rejoining at the loop entry are the canonical
            // shape). Shared-but-avoidable leftovers can still
            // over-approximate the span; the differential suites count
            // how often that happens on real corpora — zero to date.
            let (tj, tk) = (dj, dk);
            x1.fill(false);
            x2.fill(false);
            x1[sj] = true;
            x1[tk] = true;
            x2[sk] = true;
            x2[tj] = true;
            let alive = loop {
                restricted_forward(&mut f1, &lat, &topo, &dag_succs, tj, &x1);
                restricted_backward(&mut t1, &lat, &topo, &dag_preds, sk, &x1);
                if f1[sk] == i64::MIN {
                    break false;
                }
                restricted_forward(&mut f2, &lat, &topo, &dag_succs, tk, &x2);
                restricted_backward(&mut t2, &lat, &topo, &dag_preds, sj, &x2);
                if f2[sj] == i64::MIN {
                    break false;
                }
                let mut grew = false;
                unavoidable_nodes(&topo, &dag_succs, &f2, &t2, |w| {
                    grew |= !x1[w];
                    x1[w] = true;
                });
                unavoidable_nodes(&topo, &dag_succs, &f1, &t1, |w| {
                    grew |= !x2[w];
                    x2[w] = true;
                });
                if !grew {
                    break true;
                }
            };
            if !alive {
                continue;
            }
            let num = (f1[sk] + f2[sj]) as u64;
            let rec_mii = div_ceil_u64(num, den);
            let mut span = vec![0u64; nw];
            for v in 0..n {
                let on_a = f1[v] != i64::MIN && t1[v] != i64::MIN;
                let on_b = f2[v] != i64::MIN && t2[v] != i64::MIN;
                if !(on_a || on_b) {
                    continue;
                }
                covered[v] = true;
                span[v / 64] |= 1u64 << (v % 64);
                let mut best = 0u64;
                if on_a {
                    best = (f1[v] + t1[v] - lat[v] + f2[sj]) as u64;
                }
                if on_b {
                    best = best.max((f2[v] + t2[v] - lat[v] + f1[sk]) as u64);
                }
                if best > bound[v].saturating_mul(den) {
                    bound[v] = div_ceil_u64(best, den);
                }
            }
            candidates.push(Candidate {
                kind: RecurrenceGroupKind::Interleaved,
                rec_mii,
                backward_edges: BTreeSet::from([ej.min(ek), ej.max(ek)]),
                span,
            });
        }
    }

    // --- Step 3: the exact component RecMII via λ-search. ---
    // The candidate from steps 1–2 is almost always the answer: `m` is
    // confirmed by feasibility probes of the constraint graph (weights
    // λ(src) − λ·δ) and only unconfirmed candidates fall back to the
    // full binary search on λ.
    let local_edges: Vec<DepEdge> = reps
        .iter()
        .map(|(&(su, tu), &(_, dist))| DepEdge {
            source: su as u32,
            target: tu as u32,
            latency: lat[su] as u32,
            distance: dist,
        })
        .collect();
    let candidate = bound.iter().copied().max().unwrap_or(0).max(1);
    let feasible = |lambda: u64| longest_paths(n, &local_edges, lambda).is_some();
    let m = if !feasible(candidate) {
        // The candidate under-shoots: the critical circuit threads three
        // or more backward edges. Binary search (candidate, Σλ].
        let mut lo = candidate; // known infeasible
        let mut hi: u64 = lat.iter().map(|&l| l as u64).sum::<u64>().max(lo + 1);
        debug_assert!(feasible(hi), "the total latency sum is always feasible");
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if feasible(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    } else if candidate == singles_max || !feasible(candidate - 1) {
        // Witnessed by a real circuit (single-edge witness, or confirmed
        // infeasible one below): exactly the component RecMII.
        candidate
    } else {
        // A pair bound over-shot (its two maximizing segments intersect):
        // binary search down to the smallest feasible λ.
        let mut lo = singles_max.saturating_sub(1); // m ≥ singles_max
        let mut hi = candidate - 1; // known feasible
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if feasible(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    };

    // The scheduling RecMII: `m` stays feasible under the dependence
    // metric, so an SCC whose edges all wait for their operation's latency
    // keeps it, and any other bisects below it over its own edges.
    let mut rec_mii = m;
    if has_issue_order_edge {
        let mut lo = 0; // infeasible: every circuit has positive latency
        while lo + 1 < rec_mii {
            let mid = lo + (rec_mii - lo) / 2;
            if longest_paths(n, &dep_edges, mid).is_some() {
                rec_mii = mid;
            } else {
                lo = mid;
            }
        }
    }

    // Clamp: no elementary circuit through any node can beat the
    // component RecMII, so `m` caps every per-node bound (this also
    // repairs any pair over-shoot).
    for b in bound.iter_mut() {
        *b = (*b).min(m);
    }

    // --- Step 4: deeper interleavings. ---
    // Nodes on no single- or two-edge circuit keep the sound
    // component-wide bound; the residual group (closed under remainder
    // paths between its members, so the ordering phase's convexity
    // invariant holds) carries them with exactly that priority.
    let mut residual: Option<Candidate> = None;
    if covered.iter().any(|&c| !c) {
        let mut from_left = vec![false; n];
        let mut to_left = vec![false; n];
        for v in 0..n {
            if !covered[v] {
                bound[v] = m;
                from_left[v] = true;
                to_left[v] = true;
            }
        }
        for &v in &topo {
            if from_left[v] {
                for &s in &dag_succs[v] {
                    from_left[s] = true;
                }
            }
        }
        for &v in topo.iter().rev() {
            if to_left[v] {
                for &p in &dag_preds[v] {
                    to_left[p] = true;
                }
            }
        }
        let mut span = vec![0u64; n.div_ceil(64)];
        for v in 0..n {
            if from_left[v] && to_left[v] {
                span[v / 64] |= 1u64 << (v % 64);
            }
        }
        let keyed: BTreeSet<EdgeId> = candidates
            .iter()
            .flat_map(|c| c.backward_edges.iter().copied())
            .collect();
        residual = Some(Candidate {
            kind: RecurrenceGroupKind::Residual,
            rec_mii: m,
            backward_edges: backward
                .iter()
                .map(|&(_, _, eid, _)| eid)
                .filter(|eid| !keyed.contains(eid))
                .collect(),
            span,
        });
    } else if bound.iter().all(|&b| b < m) {
        // Every node is on a shallow circuit, yet none attains the
        // component RecMII: the critical circuit threads three or more
        // backward edges. Extract one concrete positive cycle at
        // λ = m − 1 (its ratio lies in (m − 1, m], so its ceiling is
        // exactly m) and restore the maximum.
        for v in positive_cycle_nodes(n, &local_edges, m - 1) {
            bound[v] = m;
        }
    }

    // --- Claim sweep: emit the groups the ordering phase can see. ---
    // Candidates are visited in the exact total order RecurrenceGroups
    // sorts by; an interleaved pair whose members are all claimed by
    // earlier groups can never contribute a simplified node list (nor
    // change a component priority — some earlier group in the same SCC
    // ranks at least as high), so it is dropped. Single-edge groups are
    // always emitted: they are the objects the differential oracle
    // matches one-to-one.
    if let Some(r) = residual {
        candidates.push(r);
    }
    // No group may out-rank the exact component RecMII: single-edge
    // bounds are witnessed by real circuits (≤ m by definition) and the
    // residual carries m itself, but a risky pair whose restricted
    // segments still share an interior node can over-approximate —
    // clamping before the sort keeps every emitted rank (and
    // `RecurrenceGroups::rec_mii_lower_bound`) sound.
    for c in &mut candidates {
        c.rec_mii = c.rec_mii.min(m);
    }
    candidates.sort_by(|a, b| {
        b.rec_mii
            .cmp(&a.rec_mii)
            .then_with(|| cmp_spans(&a.span, &b.span))
            .then_with(|| a.backward_edges.cmp(&b.backward_edges))
    });
    let mut claimed = vec![0u64; n.div_ceil(64)];
    for c in candidates {
        let fresh = c
            .span
            .iter()
            .zip(claimed.iter())
            .any(|(s, cl)| s & !cl != 0);
        if c.kind == RecurrenceGroupKind::Interleaved && !fresh {
            continue;
        }
        let nodes: Vec<NodeId> = (0..n)
            .filter(|&v| c.span[v / 64] >> (v % 64) & 1 == 1)
            .map(|v| component[v])
            .collect();
        if nodes.len() > 1 {
            for (cl, s) in claimed.iter_mut().zip(c.span.iter()) {
                *cl |= s;
            }
        }
        groups.push(RecurrenceGroup {
            kind: c.kind,
            nodes,
            backward_edges: c.backward_edges,
            rec_mii: c.rec_mii,
        });
    }

    for (v, &node) in component.iter().enumerate() {
        per_node[node.index()] = bound[v];
    }
    Some(rec_mii)
}

/// Emits the nodes *unavoidable* for a restricted segment — on **every**
/// path of the `root ⇝ sink` sub-graph whose members are the nodes with
/// both DP values reachable (`f`/`t` from [`restricted_forward`] /
/// [`restricted_backward`]), endpoints included.
///
/// In a DAG, a member node is unavoidable exactly when no member-to-member
/// edge jumps over its topological rank: a bypassing path must cross the
/// rank with some edge, and conversely a jumping edge `(u, v)` extends to
/// a full path `root ⇝ u → v ⇝ sink` that stays below the rank before `u`
/// and above it after `v`. One `O(V + E)` sweep.
fn unavoidable_nodes(
    topo: &[usize],
    succs: &[Vec<usize>],
    f: &[i64],
    t: &[i64],
    mut emit: impl FnMut(usize),
) {
    let mut rank = vec![usize::MAX; f.len()];
    let mut order = Vec::new();
    for &v in topo {
        if f[v] != i64::MIN && t[v] != i64::MIN {
            rank[v] = order.len();
            order.push(v);
        }
    }
    // Difference array over ranks: +1/−1 where an edge starts/stops
    // covering the strictly-interior ranks it jumps across.
    let mut cover = vec![0i64; order.len() + 1];
    for &v in &order {
        for &s in &succs[v] {
            if rank[s] != usize::MAX && rank[s] > rank[v] + 1 {
                cover[rank[v] + 1] += 1;
                cover[rank[s]] -= 1;
            }
        }
    }
    let mut covered = 0i64;
    for (r, &v) in order.iter().enumerate() {
        covered += cover[r];
        if covered == 0 {
            emit(v);
        }
    }
}

/// Longest-path DP from `root` over the topological order, with the
/// masked `excluded` nodes unusable (neither endpoints nor interior).
/// Values include both endpoints' latencies; `i64::MIN` marks
/// unreachable.
fn restricted_forward(
    out: &mut [i64],
    lat: &[i64],
    topo: &[usize],
    succs: &[Vec<usize>],
    root: usize,
    excluded: &[bool],
) {
    out.fill(i64::MIN);
    out[root] = lat[root];
    for &v in topo {
        if out[v] == i64::MIN || excluded[v] {
            continue;
        }
        for &s in &succs[v] {
            if excluded[s] {
                continue;
            }
            let cand = out[v] + lat[s];
            if cand > out[s] {
                out[s] = cand;
            }
        }
    }
}

/// The backward counterpart of [`restricted_forward`]: longest-path DP
/// *to* `root` over the reverse topological order.
fn restricted_backward(
    out: &mut [i64],
    lat: &[i64],
    topo: &[usize],
    preds: &[Vec<usize>],
    root: usize,
    excluded: &[bool],
) {
    out.fill(i64::MIN);
    out[root] = lat[root];
    for &v in topo.iter().rev() {
        if out[v] == i64::MIN || excluded[v] {
            continue;
        }
        for &p in &preds[v] {
            if excluded[p] {
                continue;
            }
            let cand = out[v] + lat[p];
            if cand > out[p] {
                out[p] = cand;
            }
        }
    }
}

/// Kahn's algorithm over local adjacency; `None` when the graph is cyclic.
fn topo_order(succs: &[Vec<usize>], preds: &[Vec<usize>]) -> Option<Vec<usize>> {
    let n = succs.len();
    let mut indegree: Vec<usize> = preds.iter().map(Vec::len).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = ready.pop() {
        order.push(v);
        for &s in &succs[v] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                ready.push(s);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Extracts the node set of one positive-weight cycle of the constraint
/// graph at initiation interval `lambda` (weights `latency − λ·δ`): a
/// longest-path Bellman-Ford with predecessor tracking rooted at the
/// all-zero solution; a node still relaxing after `n` rounds sits on a
/// walk from a positive cycle, and walking `n` predecessor steps lands
/// inside the cycle itself.
///
/// Only called when such a cycle exists (`lambda` is infeasible).
fn positive_cycle_nodes(n: usize, edges: &[DepEdge], lambda: u64) -> Vec<usize> {
    let ii = i64::try_from(lambda).unwrap_or(i64::MAX);
    let mut dist = vec![0i64; n];
    let mut pred = vec![usize::MAX; n];
    let mut frontier = usize::MAX;
    for _ in 0..=n {
        let mut changed = false;
        for e in edges {
            let w = e.weight(ii);
            let (u, v) = (e.source as usize, e.target as usize);
            if dist[u] + w > dist[v] {
                dist[v] = dist[u] + w;
                pred[v] = u;
                frontier = v;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    debug_assert!(frontier != usize::MAX, "caller guarantees a positive cycle");
    // n predecessor steps from the relaxation frontier land on the cycle.
    let mut u = frontier;
    for _ in 0..n {
        u = pred[u];
    }
    let mut stamp = vec![false; n];
    let mut cycle = Vec::new();
    let mut v = u;
    while !stamp[v] {
        stamp[v] = true;
        cycle.push(v);
        v = pred[v];
    }
    // `u` may sit on a tail leading into the cycle; keep the cycle part.
    let start = cycle
        .iter()
        .position(|&x| x == v)
        .expect("the walk re-entered at v");
    cycle.split_off(start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DdgBuilder, DepKind, OpKind};

    #[test]
    fn acyclic_graph_has_all_zero_bounds() {
        let g = crate::graph::chain("c", 6, OpKind::FpAdd, 1);
        let r = CycleRatios::analyze(&g);
        assert!(r.per_node().iter().all(|&b| b == 0));
        assert_eq!(r.rec_mii_lower_bound(), 0);
        assert_eq!(r.rec_mii(), Some(0));
        assert!(r.scc_groups().is_empty());
    }

    #[test]
    fn self_loop_bound_is_exact_and_local() {
        let mut bld = DdgBuilder::new("s");
        let a = bld.node("a", OpKind::FpAdd, 3);
        let b = bld.node("b", OpKind::FpAdd, 1);
        bld.edge(a, a, DepKind::RegFlow, 1).unwrap();
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        let g = bld.build().unwrap();
        let r = CycleRatios::analyze(&g);
        assert_eq!(r.bound(a), 3);
        assert_eq!(r.bound(b), 0, "b is on no circuit");
        assert_eq!(r.rec_mii(), Some(3));
    }

    #[test]
    fn forced_shared_hub_pair_closes_nothing() {
        // Two single-edge recurrences whose return paths both run through
        // one hub (the shape spill reload chains produce around the loop
        // entry): every candidate pair circuit would visit the hub twice,
        // so the pair must be recognised as closing no elementary circuit
        // — the mutual-exclusion fixpoint makes one segment infeasible.
        let mut bld = DdgBuilder::new("hub");
        let h = bld.node("h", OpKind::FpAdd, 1);
        let a1 = bld.node("a1", OpKind::FpAdd, 1);
        let a2 = bld.node("a2", OpKind::FpAdd, 1);
        let a3 = bld.node("a3", OpKind::FpAdd, 1);
        let b1 = bld.node("b1", OpKind::FpAdd, 1);
        let b2 = bld.node("b2", OpKind::FpAdd, 1);
        let b3 = bld.node("b3", OpKind::FpAdd, 1);
        bld.edge(h, a1, DepKind::RegFlow, 0).unwrap();
        bld.edge(a1, a2, DepKind::RegFlow, 0).unwrap();
        bld.edge(a2, a3, DepKind::RegFlow, 1).unwrap(); // backward
        bld.edge(a3, h, DepKind::RegFlow, 0).unwrap();
        bld.edge(h, b1, DepKind::RegFlow, 0).unwrap();
        bld.edge(b1, b2, DepKind::RegFlow, 0).unwrap();
        bld.edge(b2, b3, DepKind::RegFlow, 2).unwrap(); // backward
        bld.edge(b3, h, DepKind::RegFlow, 0).unwrap();
        let g = bld.build().unwrap();
        let r = CycleRatios::analyze(&g);
        assert!(
            r.scc_groups()
                .iter()
                .all(|gr| gr.kind == RecurrenceGroupKind::SingleEdge),
            "no pair group may be fabricated: {:?}",
            r.scc_groups()
        );
        assert_eq!(r.scc_groups().len(), 2);
        // The hub carries the more restrictive of its two circuits.
        assert_eq!(r.bound(h), 4, "A-circuit: 4 latency over distance 1");
    }

    #[test]
    fn zero_distance_cycle_bounds_are_infinite() {
        let mut bld = DdgBuilder::new("bad");
        let a = bld.node("a", OpKind::FpAdd, 1);
        let b = bld.node("b", OpKind::FpAdd, 1);
        bld.edge(a, b, DepKind::RegFlow, 0).unwrap();
        bld.edge(b, a, DepKind::RegFlow, 0).unwrap();
        let g = bld.build().unwrap();
        let r = CycleRatios::analyze(&g);
        assert_eq!(r.bound(a), u64::MAX);
        assert_eq!(r.bound(b), u64::MAX);
        assert_eq!(r.rec_mii_lower_bound(), u64::MAX);
        assert_eq!(r.rec_mii(), None);
    }

    #[test]
    fn analysis_is_deterministic() {
        let mut bld = DdgBuilder::new("det");
        let ids: Vec<NodeId> = (0..12)
            .map(|i| bld.node(format!("n{i}"), OpKind::FpAdd, 1 + (i % 3) as u32))
            .collect();
        for i in 0..11 {
            bld.edge(ids[i], ids[i + 1], DepKind::RegFlow, 0).unwrap();
        }
        for (s, t, d) in [(5, 1, 1), (8, 4, 2), (10, 0, 1), (7, 6, 1)] {
            bld.edge(ids[s], ids[t], DepKind::RegFlow, d).unwrap();
        }
        let g = bld.build().unwrap();
        assert_eq!(CycleRatios::analyze(&g), CycleRatios::analyze(&g));
    }

    #[test]
    fn span_comparison_matches_node_list_lexicographic_order() {
        let set = |bits: &[usize]| {
            let mut w = vec![0u64; 2];
            for &b in bits {
                w[b / 64] |= 1 << (b % 64);
            }
            w
        };
        let cases: [(&[usize], &[usize]); 5] = [
            (&[1, 5], &[1, 6]),
            (&[1, 5], &[1, 5, 9]),
            (&[2], &[1, 3]),
            (&[0, 70], &[0, 71]),
            (&[3, 4], &[3, 4]),
        ];
        for (a, b) in cases {
            let la: Vec<usize> = a.to_vec();
            let lb: Vec<usize> = b.to_vec();
            assert_eq!(cmp_spans(&set(a), &set(b)), la.cmp(&lb), "{la:?} vs {lb:?}");
        }
    }
}

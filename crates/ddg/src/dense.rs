//! Dense, allocation-light graph representations: a u64-word bitset
//! ([`NodeSet`]), a compressed-sparse-row adjacency ([`Csr`]) and index-based
//! versions of the graph routines the pre-ordering phase leans on
//! ([`search_all_paths`], [`reachable`], [`sort_asap`], [`sort_pala`]).
//!
//! The routines began as generic versions over an adjacency trait, with
//! per-call `HashMap`/`HashSet` allocations and `Vec<NodeId>` adjacency
//! copies. The pre-ordering phase of HRMS calls them once per
//! hypernode-reduction step, so on large loop bodies the hashing dominated
//! the paper's claimed `O(|V| + |E|)` footprint (footnote 2). This module
//! provides the same semantics over dense node indices:
//!
//! * [`NodeSet`] — a fixed-capacity bitset over node indices with
//!   deterministic ascending iteration (the dense analogue of a
//!   `BTreeSet<NodeId>`);
//! * [`Csr`] — an immutable compressed-sparse-row view of a [`Ddg`] with
//!   deduplicated, sorted neighbour slices, optionally excluding a set of
//!   edges (the backward edges of recurrence circuits) — the representation
//!   dense subgraph-extraction schedulers use for repeated region queries;
//! * [`DenseAdjacency`] — the minimal adjacency interface shared by [`Csr`]
//!   and the dense work graph of `hrms-core`;
//! * [`search_all_paths`] / [`reachable`] — the paper's `Search_All_Paths`
//!   on bitsets (two BFS sweeps, no hashing);
//! * [`sort_asap`] / [`sort_pala`] — Kahn's algorithm on index arrays with a
//!   binary min-heap ready list, producing exactly the same deterministic
//!   order (sources first / sinks first, ties by node id) as the generic
//!   sorts.
//!
//! The generic versions live on in the dev-only `hrms-oracle` crate, whose
//! equivalence tests check every routine here against its generic
//! counterpart; the golden pre-order fingerprints of the workspace tests
//! pin the orders these routines produce.

use std::collections::HashSet;

use crate::edge::EdgeId;
use crate::graph::Ddg;
use crate::node::NodeId;
use crate::topo::CycleError;

/// A fixed-capacity set of node indices backed by u64 words.
///
/// Iteration order is ascending by index, matching the deterministic
/// traversal order of the `BTreeSet<NodeId>`-based structures it replaces.
/// Membership tests, insertion and removal are `O(1)` word operations;
/// whole-set operations (union, intersection, difference, length, clear)
/// are `O(bound / 64)` word sweeps.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeSet {
    words: Vec<u64>,
    bound: usize,
}

impl NodeSet {
    /// An empty set able to hold indices `0..bound`.
    pub fn new(bound: usize) -> Self {
        NodeSet {
            words: vec![0; bound.div_ceil(64)],
            bound,
        }
    }

    /// Builds a set from an iterator of indices.
    pub fn from_indices<I: IntoIterator<Item = usize>>(bound: usize, indices: I) -> Self {
        let mut s = NodeSet::new(bound);
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// The capacity bound this set was created with.
    #[inline]
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Whether `i` is in the set. Out-of-bound indices are never members.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        i < self.bound && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Inserts `i`; returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `i >= bound`.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.bound, "index {i} out of bound {}", self.bound);
        let (w, m) = (i / 64, 1u64 << (i % 64));
        let fresh = self.words[w] & m == 0;
        self.words[w] |= m;
        fresh
    }

    /// Removes `i`; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        if i >= self.bound {
            return false;
        }
        let (w, m) = (i / 64, 1u64 << (i % 64));
        let present = self.words[w] & m != 0;
        self.words[w] &= !m;
        present
    }

    /// Number of members (one popcount per word, `O(bound / 64)`).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The smallest member, if any.
    pub fn min(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// In-place intersection with `other` (same bound required).
    pub fn intersect_with(&mut self, other: &NodeSet) {
        debug_assert_eq!(self.bound, other.bound);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Iterates over the members in ascending index order.
    pub fn iter(&self) -> NodeSetIter<'_> {
        NodeSetIter {
            words: &self.words,
            word_index: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The members as [`NodeId`]s in ascending order.
    pub fn to_node_ids(&self) -> Vec<NodeId> {
        self.iter().map(NodeId::from_index).collect()
    }
}

/// Ascending iterator over the members of a [`NodeSet`].
#[derive(Debug, Clone)]
pub struct NodeSetIter<'a> {
    words: &'a [u64],
    word_index: usize,
    current: u64,
}

impl Iterator for NodeSetIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_index * 64 + bit);
            }
            self.word_index += 1;
            if self.word_index >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_index];
        }
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = usize;
    type IntoIter = NodeSetIter<'a>;

    fn into_iter(self) -> NodeSetIter<'a> {
        self.iter()
    }
}

/// Minimal adjacency interface shared by [`Csr`] and the dense work graph of
/// `hrms-core`; the dense graph routines below are generic over it.
///
/// Implementations must report each distinct live neighbour exactly once, in
/// ascending index order, and must never report dead (removed) nodes.
pub trait DenseAdjacency {
    /// Upper bound on node indices.
    fn node_bound(&self) -> usize;
    /// Whether node `i` currently exists.
    fn is_live(&self, i: usize) -> bool;
    /// Calls `f` for every distinct successor of `i`, ascending.
    fn for_each_succ(&self, i: usize, f: &mut dyn FnMut(usize));
    /// Calls `f` for every distinct predecessor of `i`, ascending.
    fn for_each_pred(&self, i: usize, f: &mut dyn FnMut(usize));
}

/// An immutable compressed-sparse-row adjacency of a [`Ddg`].
///
/// Parallel edges are collapsed and self-loops skipped (the pre-ordering
/// only needs adjacency, not multiplicity, and self-loops never constrain
/// it); neighbour slices are sorted ascending. Optionally a set of edges —
/// the backward edges of recurrence circuits — is excluded, which makes the
/// represented graph acyclic for well-formed loop bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    bound: usize,
    succ_offsets: Vec<u32>,
    succ_targets: Vec<u32>,
    pred_offsets: Vec<u32>,
    pred_sources: Vec<u32>,
}

impl Csr {
    /// Builds the full (deduplicated, self-loop-free) adjacency of `ddg` in
    /// `O(|V| + |E| log d)` (the log factor from sorting each neighbour
    /// row of degree `d`).
    pub fn from_graph(ddg: &Ddg) -> Self {
        Self::filtered(ddg, &HashSet::new())
    }

    /// Builds the adjacency of `ddg` excluding `dropped` edges (and
    /// self-loops); same cost as [`Csr::from_graph`] plus one hash probe
    /// per edge.
    pub fn filtered(ddg: &Ddg, dropped: &HashSet<EdgeId>) -> Self {
        let n = ddg.num_nodes();
        let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut pred: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (eid, e) in ddg.edges() {
            if e.is_self_loop() || dropped.contains(&eid) {
                continue;
            }
            succ[e.source().index()].push(e.target().0);
            pred[e.target().index()].push(e.source().0);
        }
        let flatten = |rows: &mut Vec<Vec<u32>>| {
            let mut offsets = Vec::with_capacity(n + 1);
            let mut flat = Vec::new();
            offsets.push(0u32);
            for row in rows.iter_mut() {
                row.sort_unstable();
                row.dedup();
                flat.extend_from_slice(row);
                offsets.push(flat.len() as u32);
            }
            (offsets, flat)
        };
        let (succ_offsets, succ_targets) = flatten(&mut succ);
        let (pred_offsets, pred_sources) = flatten(&mut pred);
        Csr {
            bound: n,
            succ_offsets,
            succ_targets,
            pred_offsets,
            pred_sources,
        }
    }

    /// Distinct successors of `i`, ascending.
    #[inline]
    pub fn succs(&self, i: usize) -> &[u32] {
        &self.succ_targets[self.succ_offsets[i] as usize..self.succ_offsets[i + 1] as usize]
    }

    /// Distinct predecessors of `i`, ascending.
    #[inline]
    pub fn preds(&self, i: usize) -> &[u32] {
        &self.pred_sources[self.pred_offsets[i] as usize..self.pred_offsets[i + 1] as usize]
    }

    /// Whether node `i` has any (undirected) neighbour in `set` — used by
    /// the pre-ordering fallback to find a remaining node that has a
    /// reference operation among the already-ordered ones. `O(degree(i))`.
    pub fn has_neighbour_in(&self, i: usize, set: &NodeSet) -> bool {
        self.succs(i).iter().any(|&t| set.contains(t as usize))
            || self.preds(i).iter().any(|&s| set.contains(s as usize))
    }
}

impl DenseAdjacency for Csr {
    fn node_bound(&self) -> usize {
        self.bound
    }

    fn is_live(&self, i: usize) -> bool {
        i < self.bound
    }

    fn for_each_succ(&self, i: usize, f: &mut dyn FnMut(usize)) {
        for &t in self.succs(i) {
            f(t as usize);
        }
    }

    fn for_each_pred(&self, i: usize, f: &mut dyn FnMut(usize)) {
        for &s in self.preds(i) {
            f(s as usize);
        }
    }
}

/// Traversal direction for [`reachable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Follow successor edges.
    Forward,
    /// Follow predecessor edges.
    Backward,
}

/// The set of nodes reachable from `seeds` in direction `dir`, **excluding**
/// the seeds themselves unless they are re-reached (through a cycle or from
/// another seed) — the dense port of the generic BFS in
/// `hrms_oracle::paths`. Duplicate and dead seeds are ignored. `O(|V| + |E|)` with two bitset insertions
/// per visited node and no hashing.
pub fn reachable<G: DenseAdjacency + ?Sized>(graph: &G, seeds: &[usize], dir: Dir) -> NodeSet {
    let bound = graph.node_bound();
    let mut visited = NodeSet::new(bound);
    let mut queued = NodeSet::new(bound);
    let mut stack: Vec<usize> = Vec::with_capacity(seeds.len());
    for &s in seeds {
        // Deduplicate the seed frontier: a seed passed twice must not be
        // traversed twice (and, transitively, must not re-enqueue its whole
        // reachable set).
        if graph.is_live(s) && queued.insert(s) {
            stack.push(s);
        }
    }
    while let Some(v) = stack.pop() {
        let mut visit = |w: usize| {
            if visited.insert(w) {
                stack.push(w);
            }
        };
        match dir {
            Dir::Forward => graph.for_each_succ(v, &mut visit),
            Dir::Backward => graph.for_each_pred(v, &mut visit),
        }
    }
    visited
}

/// Every node lying on some directed path between two (not necessarily
/// distinct) seeds, including the seeds themselves — the dense port of the
/// paper's `Search_All_Paths` (`hrms_oracle::search_all_paths`), computed as
/// `reachable(seeds, forward) ∩ reachable(seeds, backward) ∪ seeds` with two
/// bitset BFS sweeps in `O(|V| + |E|)`.
pub fn search_all_paths<G: DenseAdjacency + ?Sized>(graph: &G, seeds: &[usize]) -> NodeSet {
    let mut result = reachable(graph, seeds, Dir::Forward);
    result.intersect_with(&reachable(graph, seeds, Dir::Backward));
    for &s in seeds {
        if graph.is_live(s) {
            result.insert(s);
        }
    }
    result
}

/// Reusable buffers for the dense Kahn sorts.
///
/// The pre-ordering phase runs one topological sort per hypernode-reduction
/// step — up to `O(|V|)` of them per loop — so zeroing a bound-sized degree
/// array for every call would itself be quadratic. The scratch keeps the
/// array across calls and invalidates stale entries with an epoch stamp
/// instead of re-zeroing.
#[derive(Debug, Clone, Default)]
pub struct KahnScratch {
    degree: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
}

impl KahnScratch {
    /// A fresh scratch; it grows lazily to the bound of the graphs it is
    /// used with.
    pub fn new() -> Self {
        Self::default()
    }

    fn begin(&mut self, bound: usize) {
        if self.degree.len() < bound {
            self.degree.resize(bound, 0);
            self.stamp.resize(bound, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wrap-around: reset the stamps so no stale entry
            // can alias the new epoch.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    #[inline]
    fn get(&self, v: usize) -> u32 {
        if self.stamp[v] == self.epoch {
            self.degree[v]
        } else {
            0
        }
    }

    #[inline]
    fn set(&mut self, v: usize, d: u32) {
        self.degree[v] = d;
        self.stamp[v] = self.epoch;
    }
}

/// Kahn's topological sort of `subset` **sources first**, ties broken by
/// node index — the dense port of the paper's `Sort_ASAP`
/// (`hrms_oracle::sort_asap`). Only edges
/// with both endpoints in `subset` count. `O((V' + E') log V')` over the
/// subset's `V'` nodes and `E'` induced edges (the log from the min-heap
/// ready list); the caller's [`KahnScratch`] is reused across calls, so a
/// hot loop allocates nothing but the result.
///
/// # Errors
///
/// Returns [`CycleError`] if the induced subgraph is cyclic.
pub fn sort_asap<G: DenseAdjacency + ?Sized>(
    graph: &G,
    subset: &NodeSet,
    scratch: &mut KahnScratch,
) -> Result<Vec<usize>, CycleError> {
    kahn(graph, subset, Dir::Forward, scratch)
}

/// Kahn's topological sort of `subset` **sinks first** (the paper's
/// `Sort_PALA`), ties broken by node index — the dense port of
/// `hrms_oracle::sort_pala`. Same cost and scratch reuse as [`sort_asap`].
///
/// # Errors
///
/// Returns [`CycleError`] if the induced subgraph is cyclic.
pub fn sort_pala<G: DenseAdjacency + ?Sized>(
    graph: &G,
    subset: &NodeSet,
    scratch: &mut KahnScratch,
) -> Result<Vec<usize>, CycleError> {
    kahn(graph, subset, Dir::Backward, scratch)
}

fn kahn<G: DenseAdjacency + ?Sized>(
    graph: &G,
    subset: &NodeSet,
    dir: Dir,
    scratch: &mut KahnScratch,
) -> Result<Vec<usize>, CycleError> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    scratch.begin(graph.node_bound());
    let mut members = 0usize;
    // The ready heap always pops the smallest remaining index, which matches
    // the sorted ready list of the generic Kahn implementation exactly.
    let mut ready: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
    for v in subset.iter() {
        members += 1;
        let mut d = 0u32;
        let mut count = |w: usize| {
            if w != v && subset.contains(w) {
                d += 1;
            }
        };
        match dir {
            Dir::Forward => graph.for_each_pred(v, &mut count),
            Dir::Backward => graph.for_each_succ(v, &mut count),
        }
        scratch.set(v, d);
        if d == 0 {
            ready.push(Reverse(v));
        }
    }

    let mut order = Vec::with_capacity(members);
    let mut nbuf: Vec<usize> = Vec::new();
    while let Some(Reverse(v)) = ready.pop() {
        order.push(v);
        nbuf.clear();
        {
            let mut collect = |w: usize| {
                if w != v && subset.contains(w) {
                    nbuf.push(w);
                }
            };
            match dir {
                Dir::Forward => graph.for_each_succ(v, &mut collect),
                Dir::Backward => graph.for_each_pred(v, &mut collect),
            }
        }
        for &w in &nbuf {
            let d = scratch.get(w) - 1;
            scratch.set(w, d);
            if d == 0 {
                ready.push(Reverse(w));
            }
        }
    }

    if order.len() != members {
        let placed = NodeSet::from_indices(graph.node_bound(), order.iter().copied());
        let stuck: Vec<NodeId> = subset
            .iter()
            .filter(|&v| !placed.contains(v))
            .map(NodeId::from_index)
            .collect();
        return Err(CycleError { stuck });
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DdgBuilder, DepKind, OpKind};

    #[test]
    fn nodeset_insert_remove_contains() {
        let mut s = NodeSet::new(200);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(199));
        assert!(!s.insert(64), "second insert reports already-present");
        assert_eq!(s.len(), 4);
        assert!(s.contains(63));
        assert!(!s.contains(62));
        assert!(!s.contains(1000), "out of bound is never a member");
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert_eq!(s.len(), 3);
        assert_eq!(s.min(), Some(0));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.min(), None);
    }

    #[test]
    fn nodeset_iterates_ascending() {
        let s = NodeSet::from_indices(300, [257, 0, 64, 65, 3, 128]);
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![0, 3, 64, 65, 128, 257]);
        assert_eq!(
            s.to_node_ids(),
            got.iter()
                .map(|&i| NodeId::from_index(i))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn nodeset_set_operations() {
        let a = NodeSet::from_indices(128, [1, 2, 70]);
        let b = NodeSet::from_indices(128, [2, 70, 99]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2, 70]);
    }

    /// A small irregular DAG plus one cycle, used by the equivalence tests.
    fn sample() -> Ddg {
        let mut b = DdgBuilder::new("dense_sample");
        let ids: Vec<NodeId> = (0..10)
            .map(|i| b.node(format!("n{i}"), OpKind::FpAdd, 1))
            .collect();
        let edges = [
            (0, 2),
            (0, 3),
            (1, 3),
            (2, 4),
            (3, 4),
            (3, 5),
            (4, 6),
            (5, 6),
            (7, 8),
            (2, 4), // parallel edge, must collapse
        ];
        for (s, t) in edges {
            b.edge(ids[s], ids[t], DepKind::RegFlow, 0).unwrap();
        }
        b.edge(ids[6], ids[0], DepKind::RegFlow, 1).unwrap(); // cycle
        b.edge(ids[9], ids[9], DepKind::RegFlow, 1).unwrap(); // self loop
        b.build().unwrap()
    }

    #[test]
    fn csr_matches_graph_adjacency() {
        let g = sample();
        let csr = Csr::from_graph(&g);
        for (id, _) in g.nodes() {
            let succs: Vec<u32> = {
                let mut v: Vec<u32> = g
                    .successors(id)
                    .into_iter()
                    .filter(|&t| t != id)
                    .map(|t| t.0)
                    .collect();
                v.sort_unstable();
                v
            };
            assert_eq!(csr.succs(id.index()), succs.as_slice(), "succs of {id}");
            let preds: Vec<u32> = {
                let mut v: Vec<u32> = g
                    .predecessors(id)
                    .into_iter()
                    .filter(|&s| s != id)
                    .map(|s| s.0)
                    .collect();
                v.sort_unstable();
                v
            };
            assert_eq!(csr.preds(id.index()), preds.as_slice(), "preds of {id}");
        }
    }

    #[test]
    fn csr_filtered_drops_the_requested_edges() {
        let g = sample();
        let dropped: HashSet<EdgeId> = g
            .edges()
            .filter(|(_, e)| e.distance() > 0)
            .map(|(eid, _)| eid)
            .collect();
        let csr = Csr::filtered(&g, &dropped);
        assert!(csr.succs(6).iter().all(|&t| t != 0), "6 -> 0 was dropped");
        assert!(csr.succs(9).is_empty(), "self loop always skipped");
    }

    #[test]
    fn csr_neighbour_lookup() {
        let g = sample();
        let csr = Csr::from_graph(&g);
        let ordered = NodeSet::from_indices(g.num_nodes(), [4]);
        assert!(csr.has_neighbour_in(2, &ordered), "2 -> 4");
        assert!(csr.has_neighbour_in(6, &ordered), "4 -> 6");
        assert!(!csr.has_neighbour_in(7, &ordered));
    }

    #[test]
    fn dense_reachable_excludes_unreached_seeds() {
        let g = sample();
        let csr = Csr::from_graph(&g);
        // 7 -> 8: from seed 7 only 8 is reachable; 7 itself is not.
        let r = reachable(&csr, &[7], Dir::Forward);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![8]);
        // 0 lies on the 0 -> .. -> 6 -> 0 cycle, so it re-reaches itself.
        let r = reachable(&csr, &[0], Dir::Forward);
        assert!(r.contains(0));
    }

    #[test]
    fn dense_sort_detects_cycles() {
        let g = sample();
        let csr = Csr::from_graph(&g); // keeps the 6 -> 0 back edge
        let cycle_subset = NodeSet::from_indices(g.num_nodes(), [0, 2, 4, 6]);
        let err = sort_asap(&csr, &cycle_subset, &mut KahnScratch::new()).unwrap_err();
        assert_eq!(err.stuck.len(), 4);
    }
}

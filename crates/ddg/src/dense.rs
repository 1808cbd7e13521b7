//! Dense, allocation-light graph representations: a u64-word bitset
//! ([`NodeSet`]), a compressed-sparse-row adjacency ([`Csr`]) and index-based
//! versions of the graph routines the pre-ordering phase leans on
//! ([`neighbour_region`], [`reachable`], [`sort_asap`], [`sort_pala`]).
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
//!   deduplicated, sorted neighbour slices, optionally excluding some edges
//!   (the backward edges of recurrence circuits), built into two flat
//!   arrays per direction with no per-node allocation — the representation
//!   dense subgraph-extraction schedulers use for repeated region queries;
//! * [`Components`] — the weakly connected components, from one pass over
//!   a [`Csr`];
//! * [`reachable`] — one BFS sweep on bitsets, no hashing; the paper's
//!   `Search_All_Paths` toward a further recurrence list intersects a
//!   forward and a backward sweep;
//! * [`neighbour_region`] — the `Search_All_Paths` of a hypernode step,
//!   one side searched: the hypernode's predecessors (successors) and
//!   every node on a path between them and the hypernode, on a reused
//!   [`PathScratch`];
//! * [`sort_asap`] / [`sort_pala`] — Kahn's algorithm on index arrays with a
//!   binary min-heap ready list, producing exactly the same deterministic
//!   order (sources first / sinks first, ties by node id) as the generic
//!   sorts, into a reused [`KahnScratch`].
//!
//! Every routine reads [`Csr`] rows. The searches take a *live* mask and
//! never enter a node outside it: the pre-ordering keeps its hypernode as
//! the set of nodes ordered so far, outside the live mask, and hands its
//! members' neighbours to a search as seeds.
//!
//! The generic versions live on in the dev-only `hrms-oracle` crate, whose
//! equivalence tests check every routine here against its generic
//! counterpart; the golden pre-order fingerprints of the workspace tests
//! pin the orders these routines produce.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::edge::{Edge, EdgeId};
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

    /// Empties the set and makes it hold indices `0..bound`, reusing its
    /// allocation.
    pub fn reset(&mut self, bound: usize) {
        self.words.clear();
        self.words.resize(bound.div_ceil(64), 0);
        self.bound = bound;
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

    /// Whether the two sets share a member (same bound required); one
    /// word test per word.
    pub fn intersects(&self, other: &NodeSet) -> bool {
        debug_assert_eq!(self.bound, other.bound);
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Iterates over the members in ascending index order.
    pub fn iter(&self) -> NodeSetIter<'_> {
        NodeSetIter {
            words: &self.words,
            word_index: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
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

/// An immutable compressed-sparse-row adjacency of a [`Ddg`].
///
/// Parallel edges are collapsed and self-loops skipped (the pre-ordering
/// only needs adjacency, not multiplicity, and self-loops never constrain
/// it); neighbour slices are sorted ascending. Optionally some edges — the
/// backward edges of recurrence circuits — are excluded, which makes the
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
    /// Builds the full (deduplicated, self-loop-free) adjacency of `ddg`;
    /// see [`Csr::filtered`] for the cost.
    pub fn from_graph(ddg: &Ddg) -> Self {
        Self::filtered(ddg, |_, _| false)
    }

    /// Builds the adjacency of `ddg` without the edges `dropped` selects
    /// (and without self-loops), in `O(|V| + |E| log d)` with four
    /// allocations and none per node; the log factor is the sort of each
    /// successor row of degree `d`.
    ///
    /// The successor rows are read off the graph's per-node out-edge lists
    /// (themselves a counting sort of the edges by source) into one flat
    /// array, and each row is sorted and deduplicated in place. The
    /// predecessor rows are their transpose, built by a counting sort:
    /// count each target, take prefix sums, then fill every row from its
    /// end while the sources are visited in descending order, so each row
    /// comes out ascending and, like the successor rows, free of
    /// duplicates.
    pub fn filtered(ddg: &Ddg, dropped: impl Fn(EdgeId, &Edge) -> bool) -> Self {
        let n = ddg.num_nodes();
        let mut succ_offsets = Vec::with_capacity(n + 1);
        let mut succ_targets: Vec<u32> = Vec::with_capacity(ddg.num_edges());
        succ_offsets.push(0u32);
        for v in ddg.node_ids() {
            let start = succ_targets.len();
            let kept = ddg
                .out_edges(v)
                .filter(|&(eid, e)| !e.is_self_loop() && !dropped(eid, e));
            succ_targets.extend(kept.map(|(_, e)| e.target().0));
            let row = &mut succ_targets[start..];
            row.sort_unstable();
            let distinct = dedup_sorted(row);
            succ_targets.truncate(start + distinct);
            succ_offsets.push(succ_targets.len() as u32);
        }

        // `pred_offsets[t]` first counts `t`'s predecessors, then holds the
        // end of its row, and after the fill the row's start.
        let mut pred_offsets = vec![0u32; n + 1];
        for &t in &succ_targets {
            pred_offsets[t as usize] += 1;
        }
        let mut end = 0u32;
        for offset in &mut pred_offsets {
            end += *offset;
            *offset = end;
        }
        let mut pred_sources = vec![0u32; succ_targets.len()];
        for v in (0..n).rev() {
            let row = succ_offsets[v] as usize..succ_offsets[v + 1] as usize;
            for &t in &succ_targets[row] {
                let slot = &mut pred_offsets[t as usize];
                *slot -= 1;
                pred_sources[*slot as usize] = v as u32;
            }
        }
        Csr {
            bound: n,
            succ_offsets,
            succ_targets,
            pred_offsets,
            pred_sources,
        }
    }

    /// Upper bound on node indices: the graph's node count.
    #[inline]
    pub fn node_bound(&self) -> usize {
        self.bound
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

    /// The successors (`Dir::Forward`) or predecessors (`Dir::Backward`)
    /// of `i`, ascending.
    #[inline]
    pub fn row(&self, i: usize, dir: Dir) -> &[u32] {
        match dir {
            Dir::Forward => self.succs(i),
            Dir::Backward => self.preds(i),
        }
    }

    /// Whether node `i` has any (undirected) neighbour in `set` — used by
    /// the pre-ordering fallback to find a remaining node that has a
    /// reference operation among the already-ordered ones. `O(degree(i))`.
    pub fn has_neighbour_in(&self, i: usize, set: &NodeSet) -> bool {
        self.succs(i).iter().any(|&t| set.contains(t as usize))
            || self.preds(i).iter().any(|&s| set.contains(s as usize))
    }
}

/// The weakly connected components of a graph, found in one pass over its
/// [`Csr`] (one breadth-first search per component) and numbered in order
/// of their smallest node, with the members of each in one flat array,
/// ascending per component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// Component number per node.
    label: Vec<u32>,
    /// Component `c`'s members are `members[start[c]..start[c + 1]]`.
    start: Vec<u32>,
    members: Vec<NodeId>,
}

impl Components {
    /// The components of the graph `csr` represents; its dropped edges
    /// connect nothing. `O(|V| + |E| + Σ c log c)` over components of `c`
    /// nodes.
    pub fn of(csr: &Csr) -> Self {
        let n = csr.node_bound();
        let mut label = vec![u32::MAX; n];
        let mut start = vec![0u32];
        let mut members = Vec::with_capacity(n);
        for first in 0..n {
            if label[first] != u32::MAX {
                continue;
            }
            // The search queues the component's members where they are
            // kept.
            let c = start.len() as u32 - 1;
            let begin = members.len();
            label[first] = c;
            members.push(NodeId::from_index(first));
            let mut next = begin;
            while let Some(v) = members.get(next).map(|v| v.index()) {
                next += 1;
                for &w in csr.succs(v).iter().chain(csr.preds(v)) {
                    if label[w as usize] == u32::MAX {
                        label[w as usize] = c;
                        members.push(NodeId(w));
                    }
                }
            }
            members[begin..].sort_unstable();
            start.push(members.len() as u32);
        }
        Components {
            label,
            start,
            members,
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// Whether the graph has no node at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The number of `n`'s component.
    pub fn component_of(&self, n: NodeId) -> usize {
        self.label[n.index()] as usize
    }

    /// The members of component `c`, ascending.
    pub fn members(&self, c: usize) -> &[NodeId] {
        &self.members[self.start[c] as usize..self.start[c + 1] as usize]
    }
}

/// Moves the distinct values of the sorted `row` to its front and returns
/// how many there are.
fn dedup_sorted(row: &mut [u32]) -> usize {
    let mut distinct = 0;
    for i in 0..row.len() {
        if distinct == 0 || row[distinct - 1] != row[i] {
            row[distinct] = row[i];
            distinct += 1;
        }
    }
    distinct
}

/// Traversal direction for [`reachable`] and [`Csr::row`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Follow successor edges.
    Forward,
    /// Follow predecessor edges.
    Backward,
}

impl Dir {
    /// The opposite direction.
    pub fn reverse(self) -> Dir {
        match self {
            Dir::Forward => Dir::Backward,
            Dir::Backward => Dir::Forward,
        }
    }
}

/// The members of `live` reachable from `seeds` in direction `dir` through
/// members of `live` only, **excluding** the seeds themselves unless they
/// are re-reached (through a cycle or from another seed) — the dense port
/// of the generic BFS in `hrms_oracle::paths`. A seed outside `live` still
/// starts a walk; a duplicate seed is walked once. `O(|V| + |E|)` with two
/// bitset insertions per visited node and no hashing.
///
/// # Panics
///
/// Panics if a seed is not below `csr.node_bound()`.
pub fn reachable(csr: &Csr, live: &NodeSet, seeds: &[usize], dir: Dir) -> NodeSet {
    let bound = csr.node_bound();
    let mut visited = NodeSet::new(bound);
    let mut queued = NodeSet::new(bound);
    let mut stack: Vec<usize> = Vec::with_capacity(seeds.len());
    for &s in seeds {
        // Deduplicate the seed frontier: a seed passed twice must not be
        // traversed twice (and, transitively, must not re-enqueue its whole
        // reachable set).
        if queued.insert(s) {
            stack.push(s);
        }
    }
    while let Some(v) = stack.pop() {
        for &w in csr.row(v, dir) {
            let w = w as usize;
            if live.contains(w) && visited.insert(w) {
                stack.push(w);
            }
        }
    }
    visited
}

/// Reusable buffers for [`neighbour_region`]: two bitsets and a stack,
/// sized on first use and kept across the steps of one ordering.
#[derive(Debug, Clone, Default)]
pub struct PathScratch {
    /// The hypernode's ancestors (or descendants).
    side: NodeSet,
    region: NodeSet,
    stack: Vec<usize>,
}

impl PathScratch {
    /// A fresh scratch; it grows to the bound of the graphs it is used
    /// with.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The region a hypernode step absorbs: the paper's `Search_All_Paths`
/// over the hypernode and its predecessors (`Dir::Backward`) or successors
/// (`Dir::Forward`) on the graph with the hypernode contracted into one
/// node, less the hypernode. The hypernode is outside `live`; `neighbours`
/// are its predecessors (successors) and `opposite` its successors
/// (predecessors), live or not.
///
/// One side is searched. For predecessors: every node on a path between
/// two seeds is an ancestor of the hypernode, so the sweep first marks the
/// live ancestors of the live predecessors through `live` only (a walk
/// that passed through the hypernode would go on from its predecessors).
/// It then walks forward without leaving them, from the predecessors and
/// from the hypernode itself, which steps onto its successors: a successor
/// that is also an ancestor lies on a cycle through the hypernode, a live
/// detour between two of its members when it is not path-closed. The
/// successor side is the mirror image. `O(|V| + |E|)` with no allocation
/// once `scratch` has grown to the graph's bound.
pub fn neighbour_region<'s>(
    csr: &Csr,
    live: &NodeSet,
    neighbours: &NodeSet,
    opposite: &NodeSet,
    dir: Dir,
    scratch: &'s mut PathScratch,
) -> &'s NodeSet {
    let PathScratch {
        side,
        region,
        stack,
    } = scratch;
    let bound = csr.node_bound();
    side.reset(bound);
    region.reset(bound);
    stack.clear();
    for w in neighbours.iter().filter(|&w| live.contains(w)) {
        side.insert(w);
        region.insert(w);
        stack.push(w);
    }
    while let Some(v) = stack.pop() {
        for &u in csr.row(v, dir) {
            let u = u as usize;
            if live.contains(u) && side.insert(u) {
                stack.push(u);
            }
        }
    }
    for w in opposite.iter().filter(|&w| side.contains(w)) {
        region.insert(w);
    }
    stack.extend(region.iter());
    while let Some(v) = stack.pop() {
        for &u in csr.row(v, dir.reverse()) {
            let u = u as usize;
            if side.contains(u) && region.insert(u) {
                stack.push(u);
            }
        }
    }
    region
}

/// Reusable buffers for the dense Kahn sorts.
///
/// The pre-ordering phase runs one topological sort per hypernode-reduction
/// step — up to `O(|V|)` of them per loop — so zeroing a bound-sized degree
/// array for every call would itself be quadratic. The scratch keeps the
/// array across calls and invalidates stale entries with an epoch stamp
/// instead of re-zeroing; the ready heap and the sorted order it returns
/// are kept too.
#[derive(Debug, Clone, Default)]
pub struct KahnScratch {
    degree: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    ready: BinaryHeap<Reverse<usize>>,
    order: Vec<usize>,
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
        self.ready.clear();
        self.order.clear();
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
/// (`hrms_oracle::sort_asap`). Only edges of `csr`
/// with both endpoints in `subset` count. `O((V' + E') log V')` over the
/// subset's `V'` nodes and `E'` induced edges (the log from the min-heap
/// ready list). The order is returned in the caller's [`KahnScratch`],
/// which is reused across calls, so a hot loop allocates nothing.
///
/// # Errors
///
/// Returns [`CycleError`] if the induced subgraph is cyclic.
pub fn sort_asap<'s>(
    csr: &Csr,
    subset: &NodeSet,
    scratch: &'s mut KahnScratch,
) -> Result<&'s [usize], CycleError> {
    kahn(csr, subset, Dir::Forward, scratch)
}

/// Kahn's topological sort of `subset` **sinks first** (the paper's
/// `Sort_PALA`), ties broken by node index — the dense port of
/// `hrms_oracle::sort_pala`. Same cost and scratch reuse as [`sort_asap`].
///
/// # Errors
///
/// Returns [`CycleError`] if the induced subgraph is cyclic.
pub fn sort_pala<'s>(
    csr: &Csr,
    subset: &NodeSet,
    scratch: &'s mut KahnScratch,
) -> Result<&'s [usize], CycleError> {
    kahn(csr, subset, Dir::Backward, scratch)
}

fn kahn<'s>(
    csr: &Csr,
    subset: &NodeSet,
    dir: Dir,
    scratch: &'s mut KahnScratch,
) -> Result<&'s [usize], CycleError> {
    scratch.begin(csr.node_bound());
    let mut members = 0usize;
    // The ready heap always pops the smallest remaining index, which matches
    // the sorted ready list of the generic Kahn implementation exactly.
    for v in subset.iter() {
        members += 1;
        let inside = csr.row(v, dir.reverse()).iter();
        let d = inside.filter(|&&w| subset.contains(w as usize)).count() as u32;
        scratch.set(v, d);
        if d == 0 {
            scratch.ready.push(Reverse(v));
        }
    }

    while let Some(Reverse(v)) = scratch.ready.pop() {
        scratch.order.push(v);
        for &w in csr.row(v, dir) {
            let w = w as usize;
            if subset.contains(w) {
                let d = scratch.get(w) - 1;
                scratch.set(w, d);
                if d == 0 {
                    scratch.ready.push(Reverse(w));
                }
            }
        }
    }

    if scratch.order.len() != members {
        let placed = NodeSet::from_indices(csr.node_bound(), scratch.order.iter().copied());
        let stuck: Vec<NodeId> = subset
            .iter()
            .filter(|&v| !placed.contains(v))
            .map(NodeId::from_index)
            .collect();
        return Err(CycleError { stuck });
    }
    Ok(&scratch.order)
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
    }

    #[test]
    fn nodeset_set_operations() {
        let a = NodeSet::from_indices(128, [1, 2, 70]);
        let b = NodeSet::from_indices(128, [2, 70, 99]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2, 70]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&NodeSet::from_indices(128, [0, 99])));
    }

    #[test]
    fn nodeset_reset_changes_the_bound_and_empties_the_set() {
        let mut s = NodeSet::from_indices(70, [3, 69]);
        s.reset(200);
        assert!(s.is_empty());
        assert!(s.insert(199), "199 is below the new bound");
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
        let csr = Csr::filtered(&g, |_, e| e.distance() > 0);
        assert!(csr.succs(6).iter().all(|&t| t != 0), "6 -> 0 was dropped");
        assert!(csr.preds(0).is_empty(), "and so was 0 <- 6");
        assert!(csr.succs(9).is_empty(), "self loop always skipped");
    }

    #[test]
    fn components_split_and_list_their_members_ascending() {
        let g = sample();
        let comps = Components::of(&Csr::from_graph(&g));
        assert_eq!(comps.len(), 3);
        let ids = |v: &[usize]| v.iter().map(|&i| NodeId::from_index(i)).collect::<Vec<_>>();
        assert_eq!(comps.members(0), ids(&[0, 1, 2, 3, 4, 5, 6]));
        assert_eq!(comps.members(1), ids(&[7, 8]));
        assert_eq!(comps.members(2), ids(&[9]), "a self-loop connects nothing");
        assert_eq!(comps.component_of(NodeId(8)), 1);
        // Dropped edges connect nothing either.
        let chain = crate::graph::chain("c", 3, OpKind::FpAdd, 1);
        let cut = Csr::filtered(&chain, |eid, _| eid.index() == 0);
        assert_eq!(Components::of(&cut).len(), 2);
        assert!(!Components::of(&cut).is_empty());
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
        let all = NodeSet::from_indices(g.num_nodes(), 0..g.num_nodes());
        // 7 -> 8: from seed 7 only 8 is reachable; 7 itself is not.
        let r = reachable(&csr, &all, &[7], Dir::Forward);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![8]);
        // 0 lies on the 0 -> .. -> 6 -> 0 cycle, so it re-reaches itself.
        let r = reachable(&csr, &all, &[0], Dir::Forward);
        assert!(r.contains(0));
    }

    #[test]
    fn searches_stay_inside_the_live_mask_and_follow_detours() {
        // 0 -> 1 -> 2 -> 3, 0 -> 3 and 1 -> 4.
        let mut b = DdgBuilder::new("small");
        let ids: Vec<NodeId> = (0..5)
            .map(|i| b.node(format!("n{i}"), OpKind::FpAdd, 1))
            .collect();
        for (s, t) in [(0, 1), (1, 2), (2, 3), (0, 3), (1, 4)] {
            b.edge(ids[s], ids[t], DepKind::RegFlow, 0).unwrap();
        }
        let csr = Csr::from_graph(&b.build().unwrap());
        let set = |v: &[usize]| NodeSet::from_indices(5, v.iter().copied());
        let mut scratch = PathScratch::new();
        let mut region = |live: &[usize], neighbours: &[usize], opposite: &[usize], dir: Dir| {
            let (live, neighbours, opposite) = (set(live), set(neighbours), set(opposite));
            let r = neighbour_region(&csr, &live, &neighbours, &opposite, dir, &mut scratch);
            r.iter().collect::<Vec<_>>()
        };

        // The hypernode {0}, everything else live: 2 is on the path
        // 1 -> 2 -> 3 between two of its successors. With 2 outside the
        // mask, no walk enters it.
        assert_eq!(region(&[1, 2, 3, 4], &[1, 3], &[], Dir::Forward), [1, 2, 3]);
        assert_eq!(region(&[1, 3, 4], &[1, 3], &[], Dir::Forward), [1, 3]);

        // The hypernode {0, 3}: 1 -> 2 leaves it and comes back. Contracted,
        // 2 is its only live predecessor and 1 lies on the cycle through it,
        // so both are on a path between the predecessors and the hypernode.
        // On the successor side, 4 descends from 1, but no path leads from
        // it back to the hypernode.
        let (preds, succs) = ([0, 2], [1, 3]);
        assert_eq!(region(&[1, 2, 4], &preds, &succs, Dir::Backward), [1, 2]);
        assert_eq!(region(&[1, 2, 4], &succs, &preds, Dir::Forward), [1, 2]);

        // A seed outside `live` still starts a walk.
        let reach = |live: &[usize], seeds: &[usize], dir: Dir| {
            reachable(&csr, &set(live), seeds, dir)
                .iter()
                .collect::<Vec<_>>()
        };
        assert_eq!(reach(&[1, 2, 3, 4], &[0], Dir::Forward), [1, 2, 3, 4]);
        assert_eq!(reach(&[1, 3, 4], &[0], Dir::Forward), [1, 3, 4]);
        assert!(
            reach(&[1, 3, 4], &[3], Dir::Backward).is_empty(),
            "neither 0 nor 2 is live"
        );
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

//! Dependence edges.

use std::fmt;

use crate::node::NodeId;

/// Identifier of an edge inside one [`crate::Ddg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an `EdgeId` from a dense index.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        EdgeId(index as u32)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The kind of a dependence between two operations.
///
/// The paper (Section 3) admits register, memory and control dependences;
/// register dependences are further split into the classical flow / anti /
/// output categories because only *flow* dependences give rise to
/// loop-variant lifetimes (and therefore register pressure), while the other
/// kinds only constrain the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum DepKind {
    /// True (read-after-write) register dependence: the consumer reads the
    /// value defined by the producer. These edges define value lifetimes.
    RegFlow,
    /// Anti (write-after-read) register dependence.
    RegAnti,
    /// Output (write-after-write) register dependence.
    RegOutput,
    /// Memory dependence (load/store ordering).
    Memory,
    /// Control dependence.
    Control,
}

impl DepKind {
    /// Whether this dependence carries a register value from producer to
    /// consumer (and therefore contributes to register lifetimes).
    #[inline]
    pub fn carries_value(self) -> bool {
        matches!(self, DepKind::RegFlow)
    }

    /// Short label used in DOT output.
    pub fn label(self) -> &'static str {
        match self {
            DepKind::RegFlow => "flow",
            DepKind::RegAnti => "anti",
            DepKind::RegOutput => "out",
            DepKind::Memory => "mem",
            DepKind::Control => "ctrl",
        }
    }

    /// Parses a label produced by [`DepKind::label`] back into the kind.
    /// This is the inverse used by the on-disk loop formats
    /// (`docs/FORMATS.md`).
    pub fn from_label(s: &str) -> Option<DepKind> {
        DepKind::ALL.into_iter().find(|k| k.label() == s)
    }

    /// All dependence kinds in a fixed order.
    pub const ALL: [DepKind; 5] = [
        DepKind::RegFlow,
        DepKind::RegAnti,
        DepKind::RegOutput,
        DepKind::Memory,
        DepKind::Control,
    ];
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One dependence edge `(u, v)` with distance `δ(u,v)`.
///
/// A distance of `0` is an intra-iteration dependence; a distance `d > 0`
/// means that the consumer of iteration `i` depends on the producer of
/// iteration `i - d` (a *loop-carried* dependence). Edges with positive
/// distance are also called *backward* edges when they close a recurrence
/// circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    source: NodeId,
    target: NodeId,
    kind: DepKind,
    distance: u32,
}

impl Edge {
    /// Creates a new edge description.
    pub(crate) fn new(source: NodeId, target: NodeId, kind: DepKind, distance: u32) -> Self {
        Edge {
            source,
            target,
            kind,
            distance,
        }
    }

    /// The producer (source) operation.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The consumer (target) operation.
    #[inline]
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// The dependence kind.
    #[inline]
    pub fn kind(&self) -> DepKind {
        self.kind
    }

    /// The dependence distance `δ(u,v)` in iterations.
    #[inline]
    pub fn distance(&self) -> u32 {
        self.distance
    }

    /// Whether the dependence is loop-carried (distance > 0).
    #[inline]
    pub fn is_loop_carried(&self) -> bool {
        self.distance > 0
    }

    /// Whether this edge is a self-loop (a *trivial recurrence circuit* in
    /// the paper's terminology).
    #[inline]
    pub fn is_self_loop(&self) -> bool {
        self.source == self.target
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} [{}, δ={}]",
            self.source, self.target, self.kind, self.distance
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_id_round_trips() {
        assert_eq!(EdgeId::from_index(42).index(), 42);
        assert_eq!(EdgeId(5).to_string(), "e5");
    }

    #[test]
    fn only_flow_edges_carry_values() {
        assert!(DepKind::RegFlow.carries_value());
        for kind in DepKind::ALL {
            if kind != DepKind::RegFlow {
                assert!(!kind.carries_value(), "{kind:?} must not carry a value");
            }
        }
    }

    #[test]
    fn labels_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for kind in DepKind::ALL {
            assert!(seen.insert(kind.label()));
        }
    }

    #[test]
    fn loop_carried_and_self_loop_predicates() {
        let e = Edge::new(NodeId(0), NodeId(0), DepKind::RegFlow, 1);
        assert!(e.is_loop_carried());
        assert!(e.is_self_loop());
        let e2 = Edge::new(NodeId(0), NodeId(1), DepKind::Memory, 0);
        assert!(!e2.is_loop_carried());
        assert!(!e2.is_self_loop());
    }

    #[test]
    fn display_contains_distance() {
        let e = Edge::new(NodeId(1), NodeId(2), DepKind::RegFlow, 3);
        let s = e.to_string();
        assert!(s.contains("δ=3"));
        assert!(s.contains("n1"));
        assert!(s.contains("n2"));
    }
}

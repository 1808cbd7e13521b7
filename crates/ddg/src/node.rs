//! Operations (graph nodes) and their classification.

use std::fmt;

/// Identifier of an operation inside one [`crate::Ddg`].
///
/// Node ids are dense indices assigned in insertion order, which is also the
/// *program order* of the loop body (the paper's pre-ordering step uses "the
/// first node of the graph", i.e. the operation that appears first in program
/// order, as the default initial hypernode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a dense index.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Classification of an operation, used to map it onto a functional unit of
/// the machine model and to pick its default latency.
///
/// The set mirrors the operation mix of the paper's two experimental
/// machines: floating-point add/sub, multiply, divide, square root,
/// loads/stores, plus integer/address arithmetic, copies and a generic
/// "other" class for anything that only occupies an issue slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum OpKind {
    /// Floating-point addition or subtraction.
    FpAdd,
    /// Floating-point multiplication.
    FpMul,
    /// Floating-point division.
    FpDiv,
    /// Square root.
    FpSqrt,
    /// Memory load.
    Load,
    /// Memory store. Stores do not define a loop-variant value.
    Store,
    /// Integer / address arithmetic.
    IntAlu,
    /// Register-to-register copy (used by spill/allocation passes).
    Copy,
    /// Anything else that occupies an issue slot on a general-purpose unit.
    Other,
}

impl OpKind {
    /// Whether operations of this kind define a loop-variant value that must
    /// be kept in a register until its last use.
    ///
    /// Stores write to memory and define no register value; every other kind
    /// does. (Branches and compare-and-branch pseudo-operations are folded
    /// into [`OpKind::Other`] by the workload generators and marked
    /// value-less explicitly via [`crate::DdgBuilder::node_no_result`].)
    #[inline]
    pub fn defines_value(self) -> bool {
        !matches!(self, OpKind::Store)
    }

    /// Whether this is a memory operation (load or store).
    #[inline]
    pub fn is_memory(self) -> bool {
        matches!(self, OpKind::Load | OpKind::Store)
    }

    /// A short mnemonic used in DOT output and debug prints.
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpKind::FpAdd => "fadd",
            OpKind::FpMul => "fmul",
            OpKind::FpDiv => "fdiv",
            OpKind::FpSqrt => "fsqrt",
            OpKind::Load => "load",
            OpKind::Store => "store",
            OpKind::IntAlu => "ialu",
            OpKind::Copy => "copy",
            OpKind::Other => "op",
        }
    }

    /// Parses a mnemonic produced by [`OpKind::mnemonic`] back into the
    /// kind. This is the inverse used by the on-disk loop and machine
    /// formats (`docs/FORMATS.md`).
    pub fn from_mnemonic(s: &str) -> Option<OpKind> {
        OpKind::ALL.into_iter().find(|k| k.mnemonic() == s)
    }

    /// All operation kinds, in a fixed order (useful for iteration in
    /// machine descriptions and statistics).
    pub const ALL: [OpKind; 9] = [
        OpKind::FpAdd,
        OpKind::FpMul,
        OpKind::FpDiv,
        OpKind::FpSqrt,
        OpKind::Load,
        OpKind::Store,
        OpKind::IntAlu,
        OpKind::Copy,
        OpKind::Other,
    ];
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One operation of the loop body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Human-readable, unique name ("A", "load_x", ...). The paper's worked
    /// examples are addressed by these names in the test-suite.
    name: String,
    /// Operation class, used for functional-unit mapping.
    kind: OpKind,
    /// Latency `λ(u)` in cycles (strictly positive).
    latency: u32,
    /// Whether the operation defines a loop-variant value. Defaults to
    /// `kind.defines_value()` but can be overridden (e.g. a compare feeding
    /// a branch that is not register-allocated).
    defines_value: bool,
    /// Number of loop-invariant operands read by this operation. Invariants
    /// occupy one register each for the whole loop, irrespective of the
    /// schedule; they only matter for the combined register-pressure figures
    /// (Fig. 13/14 of the paper).
    invariant_uses: u32,
}

impl Node {
    /// Creates a new node description.
    pub(crate) fn new(name: String, kind: OpKind, latency: u32) -> Self {
        Node {
            name,
            kind,
            latency,
            defines_value: kind.defines_value(),
            invariant_uses: 0,
        }
    }

    /// The operation's unique name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operation class.
    #[inline]
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// The latency `λ(u)` in cycles.
    #[inline]
    pub fn latency(&self) -> u32 {
        self.latency
    }

    /// Whether the operation defines a loop-variant value.
    #[inline]
    pub fn defines_value(&self) -> bool {
        self.defines_value
    }

    /// Number of loop-invariant operands this operation reads.
    #[inline]
    pub fn invariant_uses(&self) -> u32 {
        self.invariant_uses
    }

    pub(crate) fn set_defines_value(&mut self, defines: bool) {
        self.defines_value = defines;
    }

    pub(crate) fn set_invariant_uses(&mut self, uses: u32) {
        self.invariant_uses = uses;
    }

    pub(crate) fn set_latency(&mut self, latency: u32) {
        self.latency = latency;
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}, λ={})", self.name, self.kind, self.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_through_index() {
        for i in [0usize, 1, 7, 1000] {
            assert_eq!(NodeId::from_index(i).index(), i);
        }
    }

    #[test]
    fn node_id_display_is_compact() {
        assert_eq!(NodeId(3).to_string(), "n3");
    }

    #[test]
    fn stores_do_not_define_values() {
        assert!(!OpKind::Store.defines_value());
        for kind in OpKind::ALL {
            if kind != OpKind::Store {
                assert!(kind.defines_value(), "{kind:?} should define a value");
            }
        }
    }

    #[test]
    fn memory_classification() {
        assert!(OpKind::Load.is_memory());
        assert!(OpKind::Store.is_memory());
        assert!(!OpKind::FpAdd.is_memory());
        assert!(!OpKind::Copy.is_memory());
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for kind in OpKind::ALL {
            assert!(
                seen.insert(kind.mnemonic()),
                "duplicate mnemonic for {kind:?}"
            );
        }
    }

    #[test]
    fn node_accessors() {
        let mut n = Node::new("A".to_string(), OpKind::FpMul, 2);
        assert_eq!(n.name(), "A");
        assert_eq!(n.kind(), OpKind::FpMul);
        assert_eq!(n.latency(), 2);
        assert!(n.defines_value());
        assert_eq!(n.invariant_uses(), 0);
        n.set_defines_value(false);
        n.set_invariant_uses(2);
        n.set_latency(4);
        assert!(!n.defines_value());
        assert_eq!(n.invariant_uses(), 2);
        assert_eq!(n.latency(), 4);
    }

    #[test]
    fn display_contains_name_and_latency() {
        let n = Node::new("mul3".to_string(), OpKind::FpMul, 2);
        let s = n.to_string();
        assert!(s.contains("mul3"));
        assert!(s.contains("λ=2"));
    }
}

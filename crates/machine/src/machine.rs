//! The machine model: resource classes, operation mapping and latencies.

use std::collections::HashMap;
use std::fmt;

use hrms_ddg::OpKind;

use crate::error::MachineError;

/// Identifier of a functional-unit class within one [`Machine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u32);

impl ClassId {
    /// Returns the id as a dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fu{}", self.0)
    }
}

/// A group of identical functional units.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceClass {
    /// Human-readable name ("FP adder", "Load/Store", ...).
    pub name: String,
    /// Number of identical units of this class.
    pub count: u32,
    /// Whether the units are fully pipelined (a new operation can start
    /// every cycle) or busy for the whole latency of each operation.
    pub pipelined: bool,
}

impl ResourceClass {
    /// Creates a fully-pipelined resource class.
    pub fn pipelined(name: impl Into<String>, count: u32) -> Self {
        ResourceClass {
            name: name.into(),
            count,
            pipelined: true,
        }
    }

    /// Creates a non-pipelined resource class (each operation occupies a
    /// unit for its whole latency).
    pub fn unpipelined(name: impl Into<String>, count: u32) -> Self {
        ResourceClass {
            name: name.into(),
            count,
            pipelined: false,
        }
    }
}

/// Number of operation kinds, the length of the per-kind tables.
const KINDS: usize = OpKind::ALL.len();

/// A complete machine description.
///
/// Built with [`MachineBuilder`]; immutable afterwards.
///
/// The per-kind facts are dense arrays indexed by `kind as usize` (the
/// position of the kind in [`OpKind::ALL`]), filled once by
/// [`MachineBuilder::build`]: the scheduling step asks for a kind's class
/// and occupancy on every placement, so the getters are array reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    name: String,
    classes: Vec<ResourceClass>,
    /// op kind -> class index
    op_class: [u32; KINDS],
    /// op kind -> latency in cycles
    op_latency: [u32; KINDS],
    /// op kind -> cycles one unit of its class stays busy
    op_occupancy: [u32; KINDS],
}

impl Machine {
    /// The machine's name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of functional-unit classes.
    #[inline]
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// All resource classes, indexed by [`ClassId`].
    #[inline]
    pub fn classes(&self) -> &[ResourceClass] {
        &self.classes
    }

    /// The resource class with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn class(&self, id: ClassId) -> &ResourceClass {
        &self.classes[id.index()]
    }

    /// The class that executes operations of kind `kind`.
    #[inline]
    pub fn class_of(&self, kind: OpKind) -> ClassId {
        ClassId(self.op_class[kind as usize])
    }

    /// The latency of operations of kind `kind` on this machine.
    #[inline]
    pub fn latency_of(&self, kind: OpKind) -> u32 {
        self.op_latency[kind as usize]
    }

    /// The number of cycles an operation of kind `kind` keeps one unit of
    /// its class busy: 1 for pipelined classes, the full latency for
    /// non-pipelined classes.
    #[inline]
    pub fn occupancy_of(&self, kind: OpKind) -> u32 {
        self.op_occupancy[kind as usize]
    }

    /// Total number of functional units (all classes).
    pub fn total_units(&self) -> u32 {
        self.classes.iter().map(|c| c.count).sum()
    }
}

impl fmt::Display for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "machine `{}`:", self.name)?;
        for (i, c) in self.classes.iter().enumerate() {
            writeln!(
                f,
                "  fu{}: {} x{} ({})",
                i,
                c.name,
                c.count,
                if c.pipelined {
                    "pipelined"
                } else {
                    "not pipelined"
                }
            )?;
        }
        Ok(())
    }
}

/// Builder for [`Machine`] values.
///
/// # Example
///
/// ```
/// use hrms_machine::{MachineBuilder, ResourceClass};
/// use hrms_ddg::OpKind;
///
/// # fn main() -> Result<(), hrms_machine::MachineError> {
/// let m = MachineBuilder::new("toy")
///     .class(ResourceClass::pipelined("alu", 2))
///     .map_all_remaining_to(0, 1)
///     .latency(OpKind::Load, 3)
///     .build()?;
/// assert_eq!(m.latency_of(OpKind::Load), 3);
/// assert_eq!(m.latency_of(OpKind::FpAdd), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    name: String,
    classes: Vec<ResourceClass>,
    op_class: HashMap<OpKind, u32>,
    op_latency: HashMap<OpKind, u32>,
}

impl MachineBuilder {
    /// Starts a new machine description.
    pub fn new(name: impl Into<String>) -> Self {
        MachineBuilder {
            name: name.into(),
            classes: Vec::new(),
            op_class: HashMap::new(),
            op_latency: HashMap::new(),
        }
    }

    /// Adds a resource class and returns the builder. The class gets the
    /// next dense [`ClassId`] (0, 1, 2, ...).
    pub fn class(mut self, class: ResourceClass) -> Self {
        self.classes.push(class);
        self
    }

    /// Maps an operation kind to the class with index `class_index` and sets
    /// its latency.
    pub fn map(mut self, kind: OpKind, class_index: u32, latency: u32) -> Self {
        self.op_class.insert(kind, class_index);
        self.op_latency.insert(kind, latency);
        self
    }

    /// Overrides the latency of an already-mapped kind (or pre-sets it for a
    /// kind that will be mapped by [`MachineBuilder::map_all_remaining_to`]).
    pub fn latency(mut self, kind: OpKind, latency: u32) -> Self {
        self.op_latency.insert(kind, latency);
        self
    }

    /// Maps every not-yet-mapped operation kind to `class_index` with
    /// `default_latency` (unless a latency was already set with
    /// [`MachineBuilder::latency`]).
    pub fn map_all_remaining_to(mut self, class_index: u32, default_latency: u32) -> Self {
        for kind in OpKind::ALL {
            self.op_class.entry(kind).or_insert(class_index);
            self.op_latency.entry(kind).or_insert(default_latency);
        }
        self
    }

    /// Validates and produces the [`Machine`].
    ///
    /// # Errors
    ///
    /// * [`MachineError::NoResources`] if no class was added.
    /// * [`MachineError::EmptyClass`] if a class has zero units.
    /// * [`MachineError::UnmappedOp`] if some [`OpKind`] has no class.
    /// * [`MachineError::ZeroLatency`] if some [`OpKind`] has latency 0.
    pub fn build(self) -> Result<Machine, MachineError> {
        if self.classes.is_empty() {
            return Err(MachineError::NoResources);
        }
        for c in &self.classes {
            if c.count == 0 {
                return Err(MachineError::EmptyClass {
                    name: c.name.clone(),
                });
            }
        }
        let mut op_class = [0; KINDS];
        let mut op_latency = [0; KINDS];
        let mut op_occupancy = [0; KINDS];
        for kind in OpKind::ALL {
            let class = self
                .op_class
                .get(&kind)
                .copied()
                .ok_or(MachineError::UnmappedOp { kind })?;
            let Some(resource) = self.classes.get(class as usize) else {
                return Err(MachineError::UnmappedOp { kind });
            };
            let lat = self
                .op_latency
                .get(&kind)
                .copied()
                .ok_or(MachineError::UnmappedOp { kind })?;
            if lat == 0 {
                return Err(MachineError::ZeroLatency { kind });
            }
            let k = kind as usize;
            op_class[k] = class;
            op_latency[k] = lat;
            op_occupancy[k] = if resource.pipelined { 1 } else { lat };
        }
        Ok(Machine {
            name: self.name,
            classes: self.classes,
            op_class,
            op_latency,
            op_occupancy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_working_machine() {
        let m = MachineBuilder::new("toy")
            .class(ResourceClass::pipelined("alu", 2))
            .class(ResourceClass::unpipelined("div", 1))
            .map(OpKind::FpDiv, 1, 10)
            .map_all_remaining_to(0, 2)
            .build()
            .unwrap();
        assert_eq!(m.num_classes(), 2);
        assert_eq!(m.class_of(OpKind::FpDiv), ClassId(1));
        assert_eq!(m.class_of(OpKind::FpAdd), ClassId(0));
        assert_eq!(m.latency_of(OpKind::FpDiv), 10);
        assert_eq!(m.occupancy_of(OpKind::FpDiv), 10, "non-pipelined");
        assert_eq!(m.occupancy_of(OpKind::FpAdd), 1, "pipelined");
        assert_eq!(m.total_units(), 3);
        assert_eq!(m.name(), "toy");
    }

    #[test]
    fn kind_indices_follow_op_kind_all() {
        for (i, kind) in OpKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?}");
        }
    }

    #[test]
    fn getters_read_the_builders_mapping_for_every_kind() {
        // Every kind gets its own latency and one of three classes, so a
        // table read at the wrong index returns a wrong answer.
        let mut b = MachineBuilder::new("mixed")
            .class(ResourceClass::pipelined("p", 2))
            .class(ResourceClass::unpipelined("np", 1))
            .class(ResourceClass::unpipelined("np2", 3));
        for (i, kind) in OpKind::ALL.into_iter().enumerate() {
            b = b.map(kind, (i * 5 % 3) as u32, 10 + i as u32);
        }
        let expected = (b.op_class.clone(), b.op_latency.clone());
        let m = b.build().unwrap();
        for kind in OpKind::ALL {
            let class = expected.0[&kind];
            let latency = expected.1[&kind];
            assert_eq!(m.class_of(kind), ClassId(class), "{kind:?}");
            assert_eq!(m.latency_of(kind), latency, "{kind:?}");
            let occupancy = if class == 0 { 1 } else { latency };
            assert_eq!(m.occupancy_of(kind), occupancy, "{kind:?}");
        }
    }

    #[test]
    fn missing_class_is_an_error() {
        let err = MachineBuilder::new("none").build().unwrap_err();
        assert_eq!(err, MachineError::NoResources);
    }

    #[test]
    fn zero_count_class_is_an_error() {
        let err = MachineBuilder::new("zero")
            .class(ResourceClass::pipelined("alu", 0))
            .map_all_remaining_to(0, 1)
            .build()
            .unwrap_err();
        assert!(matches!(err, MachineError::EmptyClass { .. }));
    }

    #[test]
    fn unmapped_op_is_an_error() {
        let err = MachineBuilder::new("partial")
            .class(ResourceClass::pipelined("alu", 1))
            .map(OpKind::FpAdd, 0, 1)
            .build()
            .unwrap_err();
        assert!(matches!(err, MachineError::UnmappedOp { .. }));
    }

    #[test]
    fn out_of_range_class_is_an_error() {
        let err = MachineBuilder::new("oob")
            .class(ResourceClass::pipelined("alu", 1))
            .map(OpKind::FpAdd, 7, 1)
            .map_all_remaining_to(0, 1)
            .build()
            .unwrap_err();
        assert!(matches!(err, MachineError::UnmappedOp { .. }));
    }

    #[test]
    fn zero_latency_is_an_error() {
        let err = MachineBuilder::new("zl")
            .class(ResourceClass::pipelined("alu", 1))
            .map(OpKind::FpAdd, 0, 0)
            .map_all_remaining_to(0, 1)
            .build()
            .unwrap_err();
        assert!(matches!(err, MachineError::ZeroLatency { .. }));
    }

    #[test]
    fn latency_override_wins_over_default() {
        let m = MachineBuilder::new("ovr")
            .class(ResourceClass::pipelined("alu", 1))
            .latency(OpKind::Load, 5)
            .map_all_remaining_to(0, 1)
            .build()
            .unwrap();
        assert_eq!(m.latency_of(OpKind::Load), 5);
        assert_eq!(m.latency_of(OpKind::Store), 1);
    }

    #[test]
    fn display_lists_classes() {
        let m = MachineBuilder::new("disp")
            .class(ResourceClass::pipelined("alu", 4))
            .map_all_remaining_to(0, 2)
            .build()
            .unwrap();
        let s = m.to_string();
        assert!(s.contains("disp"));
        assert!(s.contains("alu"));
        assert!(s.contains("x4"));
    }
}

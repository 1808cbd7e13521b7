//! Steady-state kernels of software-pipelined loops.

use std::fmt;

use hrms_ddg::{Ddg, NodeId};

use crate::schedule::Schedule;

/// The steady-state kernel of a modulo schedule: II rows, each listing the
/// operations issued in that row (each operation belongs to a possibly
/// different original iteration, identified by its stage).
///
/// This corresponds to the kernels drawn in Figures 2c, 3c and 4c of the
/// paper, where an operation at stage `s` is written with `s` primes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kernel {
    ii: u32,
    /// The operations as (node, stage), row by row, each row in node order:
    /// row `r` is `ops[starts[r]..starts[r + 1]]`.
    ops: Vec<(NodeId, u32)>,
    starts: Vec<usize>,
}

impl Kernel {
    /// Builds the kernel of `schedule`.
    pub fn from_schedule(schedule: &Schedule) -> Self {
        let ii = schedule.ii();
        // A counting sort by row; nodes are visited in id order, so each
        // row comes out in node order.
        let mut starts = vec![0; ii as usize + 1];
        for (node, _) in schedule.iter() {
            starts[schedule.row(node) as usize + 1] += 1;
        }
        for r in 0..ii as usize {
            starts[r + 1] += starts[r];
        }
        let mut next = starts.clone();
        let mut ops = vec![(NodeId(0), 0); starts[ii as usize]];
        for (node, _) in schedule.iter() {
            let slot = &mut next[schedule.row(node) as usize];
            ops[*slot] = (node, schedule.stage(node));
            *slot += 1;
        }
        Kernel { ii, ops, starts }
    }

    /// The initiation interval (number of kernel rows).
    #[inline]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// The operations issued in row `row` as `(node, stage)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `row >= ii`.
    pub fn row(&self, row: u32) -> &[(NodeId, u32)] {
        let r = row as usize;
        &self.ops[self.starts[r]..self.starts[r + 1]]
    }

    /// Iterates over all rows.
    pub fn rows(&self) -> impl Iterator<Item = &[(NodeId, u32)]> + '_ {
        self.starts.windows(2).map(|w| &self.ops[w[0]..w[1]])
    }

    /// Total number of operations in the kernel (equals the number of
    /// operations of the loop body).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Renders the kernel like the paper's figures: one line per row,
    /// operations written as `name'`, `name''`, ... according to their
    /// stage.
    pub fn render(&self, ddg: &Ddg) -> String {
        let mut out = String::new();
        for (r, row) in self.rows().enumerate() {
            let ops: Vec<String> = row
                .iter()
                .map(|&(n, stage)| format!("{}{}", ddg.node(n).name(), "'".repeat(stage as usize)))
                .collect();
            out.push_str(&format!("{r:>3} | {}\n", ops.join(" ")));
        }
        out
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kernel(II={}, {} ops)", self.ii, self.num_ops())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{DdgBuilder, OpKind};

    fn schedule() -> Schedule {
        // 4 ops, II = 2: cycles 0, 1, 2, 5
        Schedule::new(2, vec![0, 1, 2, 5])
    }

    #[test]
    fn rows_group_by_cycle_mod_ii() {
        let k = schedule().kernel();
        assert_eq!(k.ii(), 2);
        assert_eq!(k.row(0), &[(NodeId(0), 0), (NodeId(2), 1)]);
        assert_eq!(k.row(1), &[(NodeId(1), 0), (NodeId(3), 2)]);
        assert_eq!(k.num_ops(), 4);
    }

    #[test]
    fn empty_rows_are_kept_in_place() {
        // II = 3: row 0 holds nodes 0 and 2, row 1 nothing, row 2 node 1.
        let k = Schedule::new(3, vec![0, 2, 3]).kernel();
        let rows: Vec<&[(NodeId, u32)]> = k.rows().collect();
        assert_eq!(
            rows,
            [
                &[(NodeId(0), 0), (NodeId(2), 1)][..],
                &[],
                &[(NodeId(1), 0)]
            ]
        );
        assert_eq!(k.row(1), &[]);
        assert_eq!(k.num_ops(), 3);
    }

    #[test]
    fn render_marks_stages_with_primes() {
        let mut b = DdgBuilder::new("k");
        b.node("A", OpKind::FpAdd, 1);
        b.node("B", OpKind::FpAdd, 1);
        b.node("C", OpKind::FpAdd, 1);
        b.node("D", OpKind::FpAdd, 1);
        let g = b.build().unwrap();
        let text = schedule().kernel().render(&g);
        assert!(text.contains('A'));
        assert!(text.contains("C'"), "stage-1 op gets one prime");
        assert!(text.contains("D''"), "stage-2 op gets two primes");
    }

    #[test]
    fn every_operation_appears_exactly_once() {
        let k = schedule().kernel();
        let mut seen = std::collections::HashSet::new();
        for row in k.rows() {
            for &(n, _) in row {
                assert!(seen.insert(n));
            }
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!schedule().kernel().to_string().is_empty());
    }
}

//! The worked examples of the paper.

use hrms_ddg::{Ddg, DdgBuilder, DepKind, NodeId, OpKind};

/// The dependence graph of Figure 1 (the motivating example of Section 2).
///
/// Seven operations `A..G`; reconstructed from the scheduling walk-through
/// of Section 2.1: `A→B`, `B→C`, `B→D`, `D→F`, `E→F`, `F→G`. On the
/// 4-unit general-purpose machine with latency 2 (see
/// `hrms_machine::presets::general_purpose`) its MII is 2, HRMS schedules
/// it with 6 registers, Bottom-Up with 7 and Top-Down with 8.
pub fn figure1() -> Ddg {
    let mut b = DdgBuilder::new("paper_fig1");
    let ids: Vec<NodeId> = ["A", "B", "C", "D", "E", "F", "G"]
        .iter()
        .map(|n| b.node(*n, OpKind::Other, 2))
        .collect();
    for (s, t) in [(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)] {
        b.edge(ids[s], ids[t], DepKind::RegFlow, 0)
            .expect("figure 1 edges are valid");
    }
    b.iteration_count(100);
    b.build().expect("figure 1 is a valid graph")
}

/// The dependence graph of Figure 7a (the recurrence-free pre-ordering
/// example of Section 3.1).
///
/// Ten operations `A..J`; reconstructed from the step-by-step walk-through:
/// the pre-ordering starting at `A` must produce
/// `{A, C, G, H, D, J, I, E, B, F}`.
pub fn figure7() -> Ddg {
    let mut b = DdgBuilder::new("paper_fig7");
    let ids: Vec<NodeId> = ["A", "B", "C", "D", "E", "F", "G", "H", "I", "J"]
        .iter()
        .map(|n| b.node(*n, OpKind::Other, 1))
        .collect();
    let idx = |c: char| (c as u8 - b'A') as usize;
    for (s, t) in [
        ('A', 'C'),
        ('C', 'G'),
        ('C', 'H'),
        ('D', 'H'),
        ('H', 'J'),
        ('B', 'J'),
        ('I', 'J'),
        ('B', 'E'),
        ('E', 'I'),
        ('F', 'I'),
    ] {
        b.edge(ids[idx(s)], ids[idx(t)], DepKind::RegFlow, 0)
            .expect("figure 7 edges are valid");
    }
    b.build().expect("figure 7 is a valid graph")
}

/// Figure 8b: two recurrence circuits (`A,D,E` and `A,B,C,E`) sharing one
/// backward edge, i.e. a single recurrence subgraph.
pub fn figure8b() -> Ddg {
    let mut b = DdgBuilder::new("paper_fig8b");
    let ids: Vec<NodeId> = ["A", "B", "C", "D", "E"]
        .iter()
        .map(|n| b.node(*n, OpKind::FpAdd, 1))
        .collect();
    for (s, t, d) in [
        (0, 1, 0),
        (1, 2, 0),
        (2, 4, 0),
        (0, 3, 0),
        (3, 4, 0),
        (4, 0, 1),
    ] {
        b.edge(ids[s], ids[t], DepKind::RegFlow, d)
            .expect("figure 8b edges are valid");
    }
    b.build().expect("figure 8b is a valid graph")
}

/// Figure 8c: two recurrence circuits sharing a node but with distinct
/// backward edges, i.e. two different recurrence subgraphs.
pub fn figure8c() -> Ddg {
    let mut b = DdgBuilder::new("paper_fig8c");
    let ids: Vec<NodeId> = ["A", "B", "C"]
        .iter()
        .map(|n| b.node(*n, OpKind::FpAdd, 2))
        .collect();
    for (s, t, d) in [(0, 1, 0), (1, 0, 1), (1, 2, 0), (2, 1, 1)] {
        b.edge(ids[s], ids[t], DepKind::RegFlow, d)
            .expect("figure 8c edges are valid");
    }
    b.build().expect("figure 8c is a valid graph")
}

/// A Figure-10-style graph: two recurrence subgraphs of different
/// criticality connected through an acyclic path, plus acyclic head and tail
/// operations, exercising the full `Ordering_Recurrences` procedure.
pub fn figure10_style() -> Ddg {
    let mut b = DdgBuilder::new("paper_fig10_style");
    // Critical recurrence {A, C, D, F} (RecMII 8).
    let a = b.node("A", OpKind::FpAdd, 2);
    let c = b.node("C", OpKind::FpMul, 2);
    let d = b.node("D", OpKind::FpAdd, 2);
    let f = b.node("F", OpKind::FpMul, 2);
    // Secondary recurrence {G, J, M} (RecMII 4).
    let g = b.node("G", OpKind::FpAdd, 1);
    let j = b.node("J", OpKind::FpAdd, 2);
    let m = b.node("M", OpKind::FpAdd, 1);
    // Connecting node and acyclic periphery.
    let i = b.node("I", OpKind::FpMul, 2);
    let h = b.node("H", OpKind::Load, 2);
    let e = b.node("E", OpKind::Load, 2);
    let bb = b.node("B", OpKind::Load, 2);
    let l = b.node("L", OpKind::FpAdd, 1);
    let k = b.node("K", OpKind::Store, 1);

    for (s, t, dist) in [
        (a, c, 0),
        (c, d, 0),
        (d, f, 0),
        (f, a, 1), // backward edge of the critical recurrence
        (g, j, 0),
        (j, m, 0),
        (m, g, 1), // backward edge of the secondary recurrence
        (f, i, 0),
        (i, g, 0), // path connecting the two recurrences
        (h, d, 0),
        (e, c, 0),
        (bb, a, 0),
        (j, l, 0),
        (l, k, 0),
    ] {
        b.edge(s, t, DepKind::RegFlow, dist)
            .expect("figure 10 edges are valid");
    }
    b.build().expect("figure 10 style graph is valid")
}

/// Every motivating-example graph with its name, for harnesses that iterate.
pub fn all() -> Vec<Ddg> {
    vec![
        figure1(),
        figure7(),
        figure8b(),
        figure8c(),
        figure10_style(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_core::pre_order;
    use hrms_ddg::LoopAnalysis;
    use hrms_oracle::RecurrenceInfo;

    #[test]
    fn figure1_has_seven_nodes_and_no_recurrence() {
        let g = figure1();
        assert_eq!(g.num_nodes(), 7);
        assert!(!g.has_recurrence());
    }

    #[test]
    fn figure7_preorders_as_in_the_paper() {
        let g = figure7();
        let order = pre_order(&LoopAnalysis::analyze(&g)).order;
        let names: Vec<&str> = order.iter().map(|&n| g.node(n).name()).collect();
        assert_eq!(
            names,
            vec!["A", "C", "G", "H", "D", "J", "I", "E", "B", "F"]
        );
    }

    #[test]
    fn figure8b_is_one_recurrence_subgraph() {
        let info = RecurrenceInfo::analyze(&figure8b());
        assert_eq!(info.circuits.len(), 2);
        assert_eq!(info.subgraphs.len(), 1);
    }

    #[test]
    fn figure8c_is_two_recurrence_subgraphs() {
        let info = RecurrenceInfo::analyze(&figure8c());
        assert_eq!(info.subgraphs.len(), 2);
    }

    #[test]
    fn figure10_style_orders_critical_recurrence_first() {
        let g = figure10_style();
        let info = RecurrenceInfo::analyze(&g);
        assert_eq!(info.subgraphs.len(), 2);
        let order = pre_order(&LoopAnalysis::analyze(&g)).order;
        let pos = |name: &str| {
            order
                .iter()
                .position(|&n| g.node(n).name() == name)
                .unwrap()
        };
        // The {A,C,D,F} recurrence (RecMII 8) precedes the {G,J,M} one
        // (RecMII 4), which precedes the acyclic periphery.
        assert!(pos("A") < pos("G"));
        assert!(pos("F") < pos("M"));
        assert!(pos("M") < pos("K"));
        assert_eq!(order.len(), g.num_nodes());
    }

    #[test]
    fn all_examples_are_valid_and_named_uniquely() {
        let graphs = all();
        assert_eq!(graphs.len(), 5);
        let mut names: Vec<&str> = graphs.iter().map(|g| g.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 5);
    }
}

//! A 24-loop reference suite modelled on the kernels used by Govindarajan,
//! Altman and Gao (the source of the paper's Table 1).
//!
//! The original 24 dependence graphs (Livermore loops, linear-algebra and
//! Whetstone-style kernels) were exchanged privately between the authors and
//! never published in machine-readable form, so this module reconstructs a
//! suite with the same structural variety: accumulator recurrences,
//! first-order linear recurrences, long division chains, wide independent
//! expression trees, stencils, and mixtures thereof, sized between 4 and 26
//! operations. Latencies follow the Table-1 machine model (add/sub/store 1,
//! multiply/load 2, divide 17); see *Substitutions* in docs/ARCHITECTURE.md
//! for the rationale.

use hrms_ddg::{Ddg, DdgBuilder, DepKind, NodeId, OpKind};

/// Latency of each operation kind on the Table-1 machine.
fn lat(kind: OpKind) -> u32 {
    match kind {
        OpKind::FpMul | OpKind::Load => 2,
        OpKind::FpDiv | OpKind::FpSqrt => 17,
        _ => 1,
    }
}

/// Small helper carrying the builder plus naming counter.
struct K {
    b: DdgBuilder,
    counter: usize,
}

impl K {
    fn new(name: &str) -> Self {
        K {
            b: DdgBuilder::new(name),
            counter: 0,
        }
    }

    fn op(&mut self, kind: OpKind) -> NodeId {
        self.counter += 1;
        self.b.node(
            format!("{}{}", kind.mnemonic(), self.counter),
            kind,
            lat(kind),
        )
    }

    fn load(&mut self) -> NodeId {
        self.op(OpKind::Load)
    }

    fn store(&mut self, value: NodeId) -> NodeId {
        let s = self.op(OpKind::Store);
        self.flow(value, s);
        s
    }

    fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let n = self.op(OpKind::FpAdd);
        self.flow(a, n);
        self.flow(b, n);
        n
    }

    fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let n = self.op(OpKind::FpMul);
        self.flow(a, n);
        self.flow(b, n);
        n
    }

    fn div(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let n = self.op(OpKind::FpDiv);
        self.flow(a, n);
        self.flow(b, n);
        n
    }

    /// Unary operation consuming one prior value.
    fn add1(&mut self, a: NodeId) -> NodeId {
        let n = self.op(OpKind::FpAdd);
        self.flow(a, n);
        n
    }

    fn mul1(&mut self, a: NodeId) -> NodeId {
        let n = self.op(OpKind::FpMul);
        self.flow(a, n);
        n
    }

    fn div1(&mut self, a: NodeId) -> NodeId {
        let n = self.op(OpKind::FpDiv);
        self.flow(a, n);
        n
    }

    fn flow(&mut self, from: NodeId, to: NodeId) {
        self.b
            .edge(from, to, DepKind::RegFlow, 0)
            .expect("reference kernels are valid");
    }

    fn carried(&mut self, from: NodeId, to: NodeId, distance: u32) {
        self.b
            .edge(from, to, DepKind::RegFlow, distance)
            .expect("reference kernels are valid");
    }

    fn invariants(&mut self, n: u32) {
        self.b.invariants(n);
    }

    fn finish(mut self, iterations: u64) -> Ddg {
        self.b.iteration_count(iterations);
        self.b.build().expect("reference kernels are valid")
    }
}

/// Livermore loop 1 style (hydro fragment):
/// `x[k] = q + y[k]*(r*z[k+10] + t*z[k+11])`.
pub fn hydro_fragment() -> Ddg {
    let mut k = K::new("ref01_hydro_fragment");
    let z10 = k.load();
    let z11 = k.load();
    let y = k.load();
    let rz = k.mul1(z10);
    let tz = k.mul1(z11);
    let sum = k.add(rz, tz);
    let prod = k.mul(y, sum);
    let q = k.add1(prod);
    k.store(q);
    k.invariants(3); // q, r, t
    k.finish(400)
}

/// Inner product with an accumulator recurrence: `q += z[k]*x[k]`.
pub fn inner_product() -> Ddg {
    let mut k = K::new("ref02_inner_product");
    let z = k.load();
    let x = k.load();
    let prod = k.mul(z, x);
    let acc = k.add1(prod);
    k.carried(acc, acc, 1);
    k.finish(1000)
}

/// Livermore loop 5 style (tri-diagonal elimination, first-order linear
/// recurrence): `x[i] = z[i]*(y[i] - x[i-1])`.
pub fn tridiagonal() -> Ddg {
    let mut k = K::new("ref03_tridiagonal");
    let y = k.load();
    let z = k.load();
    let sub = k.add1(y); // y[i] - x[i-1]
    let x = k.mul(z, sub);
    k.store(x);
    k.carried(x, sub, 1);
    k.finish(500)
}

/// DAXPY: `y[i] = a*x[i] + y[i]`.
pub fn daxpy() -> Ddg {
    let mut k = K::new("ref04_daxpy");
    let x = k.load();
    let y = k.load();
    let ax = k.mul1(x);
    let sum = k.add(ax, y);
    k.store(sum);
    k.invariants(1);
    k.finish(1000)
}

/// Livermore loop 11 style (first partial sum): `x[k] = x[k-1] + y[k]`.
pub fn partial_sums() -> Ddg {
    let mut k = K::new("ref05_partial_sums");
    let y = k.load();
    let x = k.add1(y);
    k.store(x);
    k.carried(x, x, 1);
    k.finish(800)
}

/// Livermore loop 12 style (first difference): `x[k] = y[k+1] - y[k]`.
pub fn first_difference() -> Ddg {
    let mut k = K::new("ref06_first_difference");
    let y1 = k.load();
    let y0 = k.load();
    let d = k.add(y1, y0);
    k.store(d);
    k.finish(800)
}

/// Livermore loop 7 style (equation of state, a wide expression tree).
pub fn equation_of_state() -> Ddg {
    let mut k = K::new("ref07_equation_of_state");
    let u0 = k.load();
    let u1 = k.load();
    let u2 = k.load();
    let z = k.load();
    let y = k.load();
    let m1 = k.mul1(u1);
    let m2 = k.mul1(u2);
    let s1 = k.add(m1, m2);
    let m3 = k.mul(z, s1);
    let s2 = k.add(u0, m3);
    let m4 = k.mul(y, s2);
    let m5 = k.mul1(s2);
    let s3 = k.add(m4, m5);
    let s4 = k.add1(s3);
    k.store(s4);
    k.invariants(4);
    k.finish(300)
}

/// 5-point stencil: `b[i] = c*(a[i-2]+a[i-1]+a[i]+a[i+1]+a[i+2])`.
pub fn stencil5() -> Ddg {
    let mut k = K::new("ref08_stencil5");
    let a0 = k.load();
    let a1 = k.load();
    let a2 = k.load();
    let a3 = k.load();
    let a4 = k.load();
    let s1 = k.add(a0, a1);
    let s2 = k.add(s1, a2);
    let s3 = k.add(s2, a3);
    let s4 = k.add(s3, a4);
    let m = k.mul1(s4);
    k.store(m);
    k.invariants(1);
    k.finish(600)
}

/// Complex multiply: `(cr, ci) = (ar*br - ai*bi, ar*bi + ai*br)`.
pub fn complex_multiply() -> Ddg {
    let mut k = K::new("ref09_complex_multiply");
    let ar = k.load();
    let ai = k.load();
    let br = k.load();
    let bi = k.load();
    let rr = k.mul(ar, br);
    let ii = k.mul(ai, bi);
    let ri = k.mul(ar, bi);
    let ir = k.mul(ai, br);
    let cr = k.add(rr, ii);
    let ci = k.add(ri, ir);
    k.store(cr);
    k.store(ci);
    k.finish(400)
}

/// FIR filter with 4 taps and an accumulator recurrence.
pub fn fir_filter() -> Ddg {
    let mut k = K::new("ref10_fir_filter");
    let mut acc: Option<NodeId> = None;
    for _ in 0..4 {
        let x = k.load();
        let m = k.mul1(x);
        acc = Some(match acc {
            None => k.add1(m),
            Some(a) => k.add(a, m),
        });
    }
    let out = acc.expect("four taps were added");
    k.store(out);
    k.carried(out, out, 1);
    k.invariants(4);
    k.finish(700)
}

/// Horner polynomial evaluation: `p = p*x + c[i]` (multiply-accumulate
/// recurrence).
pub fn horner() -> Ddg {
    let mut k = K::new("ref11_horner");
    let c = k.load();
    let px = k.op(OpKind::FpMul);
    let p = k.add(px, c);
    k.carried(p, px, 1);
    k.invariants(1);
    k.finish(64)
}

/// Newton–Raphson style iteration with a division on the recurrence.
pub fn newton_division() -> Ddg {
    let mut k = K::new("ref12_newton_division");
    let f = k.load();
    let d = k.div1(f);
    let upd = k.add1(d);
    k.store(upd);
    k.carried(upd, d, 1);
    k.finish(50)
}

/// A division-rich body without recurrences (Whetstone-style).
pub fn division_chain() -> Ddg {
    let mut k = K::new("ref13_division_chain");
    let a = k.load();
    let b = k.load();
    let d1 = k.div(a, b);
    let d2 = k.div1(d1);
    let s = k.add(d1, d2);
    k.store(s);
    k.finish(120)
}

/// Livermore loop 23 style (2-D implicit hydrodynamics): a large body with a
/// first-order recurrence — the loop that dominates SPILP's solve time in
/// the paper.
pub fn implicit_hydro() -> Ddg {
    let mut k = K::new("ref14_implicit_hydro");
    let za = k.load();
    let zb = k.load();
    let zu = k.load();
    let zv = k.load();
    let zr = k.load();
    let zz = k.load();
    let m1 = k.mul(za, zb);
    let m2 = k.mul(zu, zv);
    let s1 = k.add(m1, m2);
    let m3 = k.mul(zr, s1);
    let s2 = k.add(zz, m3);
    let m4 = k.mul1(s2);
    let s3 = k.add(m4, s1);
    let m5 = k.mul1(s3);
    let s4 = k.add1(m5);
    let qa = k.add(s4, s2);
    k.store(qa);
    // first-order recurrence: this iteration uses the previous qa
    k.carried(qa, m3, 1);
    k.invariants(2);
    k.finish(250)
}

/// Banded linear equations (Livermore loop 4 style).
pub fn banded_linear() -> Ddg {
    let mut k = K::new("ref15_banded_linear");
    let x0 = k.load();
    let y0 = k.load();
    let x1 = k.load();
    let y1 = k.load();
    let m1 = k.mul(x0, y0);
    let m2 = k.mul(x1, y1);
    let s = k.add(m1, m2);
    let acc = k.add1(s);
    k.carried(acc, acc, 1);
    let fin = k.mul1(acc);
    k.store(fin);
    k.finish(300)
}

/// General linear recurrence of order 2 (Livermore loop 6 style).
pub fn linear_recurrence2() -> Ddg {
    let mut k = K::new("ref16_linear_recurrence2");
    let b = k.load();
    let m1 = k.op(OpKind::FpMul);
    let m2 = k.op(OpKind::FpMul);
    let s1 = k.add(m1, m2);
    let w = k.add(b, s1);
    k.store(w);
    k.carried(w, m1, 1);
    k.carried(w, m2, 2);
    k.invariants(2);
    k.finish(200)
}

/// Matrix–vector product inner loop (dot-product with address arithmetic).
pub fn matvec_inner() -> Ddg {
    let mut k = K::new("ref17_matvec_inner");
    let addr = k.op(OpKind::IntAlu);
    let a = k.load();
    k.flow(addr, a);
    let x = k.load();
    let m = k.mul(a, x);
    let acc = k.add1(m);
    k.carried(acc, acc, 1);
    k.carried(addr, addr, 1);
    k.finish(900)
}

/// Array scaling with strided stores: `a[i] = a[i] / s; b[i] = a[i] * t`.
pub fn scale_and_copy() -> Ddg {
    let mut k = K::new("ref18_scale_and_copy");
    let a = k.load();
    let d = k.div1(a);
    k.store(d);
    let m = k.mul1(d);
    k.store(m);
    k.invariants(2);
    k.finish(350)
}

/// 3-point smoothing stencil with loop-carried reuse of a loaded value.
pub fn smoothing() -> Ddg {
    let mut k = K::new("ref19_smoothing");
    let centre = k.load();
    let right = k.load();
    let s1 = k.add(centre, right);
    let s2 = k.add1(s1);
    let m = k.mul1(s2);
    k.store(m);
    // the left neighbour is the centre of the previous iteration
    k.carried(centre, s2, 1);
    k.invariants(1);
    k.finish(650)
}

/// Reduction with comparison logic (max reduction; compares map onto the
/// adder).
pub fn max_reduction() -> Ddg {
    let mut k = K::new("ref20_max_reduction");
    let x = k.load();
    let cmp = k.op(OpKind::IntAlu);
    k.flow(x, cmp);
    let sel = k.add1(cmp);
    k.carried(sel, cmp, 1);
    k.finish(1000)
}

/// Prefix product recurrence: `p[i] = p[i-1] * x[i]`.
pub fn prefix_product() -> Ddg {
    let mut k = K::new("ref21_prefix_product");
    let x = k.load();
    let p = k.mul1(x);
    k.store(p);
    k.carried(p, p, 1);
    k.finish(500)
}

/// Normalisation loop with a square-root-free division pair.
pub fn normalisation() -> Ddg {
    let mut k = K::new("ref22_normalisation");
    let v0 = k.load();
    let v1 = k.load();
    let m0 = k.mul(v0, v0);
    let m1 = k.mul(v1, v1);
    let s = k.add(m0, m1);
    let d0 = k.div(v0, s);
    let d1 = k.div(v1, s);
    k.store(d0);
    k.store(d1);
    k.finish(150)
}

/// A long independent expression tree with no recurrence (tests pure
/// resource-bound scheduling and lifetime spread).
pub fn wide_tree() -> Ddg {
    let mut k = K::new("ref23_wide_tree");
    let mut level: Vec<NodeId> = (0..8).map(|_| k.load()).collect();
    while level.len() > 1 {
        let mut next = Vec::new();
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                next.push(k.add(pair[0], pair[1]));
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    let root = k.mul1(level[0]);
    k.store(root);
    k.finish(450)
}

/// A mixed body combining two recurrences of different speeds with a
/// division and several memory operations.
pub fn mixed_recurrences() -> Ddg {
    let mut k = K::new("ref24_mixed_recurrences");
    let a = k.load();
    let acc = k.add1(a);
    k.carried(acc, acc, 1);
    let b = k.load();
    let d = k.div(b, acc);
    let slow = k.mul1(d);
    k.carried(slow, d, 2);
    let out = k.add(slow, acc);
    k.store(out);
    k.invariants(1);
    k.finish(180)
}

/// The whole 24-loop suite, in a fixed order.
pub fn all() -> Vec<Ddg> {
    vec![
        hydro_fragment(),
        inner_product(),
        tridiagonal(),
        daxpy(),
        partial_sums(),
        first_difference(),
        equation_of_state(),
        stencil5(),
        complex_multiply(),
        fir_filter(),
        horner(),
        newton_division(),
        division_chain(),
        implicit_hydro(),
        banded_linear(),
        linear_recurrence2(),
        matvec_inner(),
        scale_and_copy(),
        smoothing(),
        max_reduction(),
        prefix_product(),
        normalisation(),
        wide_tree(),
        mixed_recurrences(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_machine::presets;
    use hrms_modsched::MiiInfo;

    #[test]
    fn there_are_exactly_24_loops_with_unique_names() {
        let suite = all();
        assert_eq!(suite.len(), 24);
        let mut names: Vec<&str> = suite.iter().map(|g| g.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 24);
    }

    #[test]
    fn every_loop_is_well_formed_for_the_table1_machine() {
        let m = presets::govindarajan();
        for g in all() {
            let info = MiiInfo::compute(&m, &hrms_ddg::LoopAnalysis::analyze(&g))
                .unwrap_or_else(|e| panic!("loop `{}` is invalid: {e}", g.name()));
            assert!(info.mii() >= 1);
            assert!(g.num_nodes() >= 3, "loop `{}` is too small", g.name());
            assert!(g.num_nodes() <= 30, "loop `{}` is too large", g.name());
        }
    }

    #[test]
    fn the_suite_mixes_recurrent_and_acyclic_loops() {
        let suite = all();
        let with_rec = suite.iter().filter(|g| g.has_recurrence()).count();
        let without = suite.len() - with_rec;
        assert!(with_rec >= 10, "need plenty of recurrences, got {with_rec}");
        assert!(without >= 6, "need acyclic loops too, got {without}");
    }

    #[test]
    fn latencies_follow_the_table1_model() {
        for g in all() {
            for (_, n) in g.nodes() {
                assert_eq!(n.latency(), lat(n.kind()), "{} in {}", n.name(), g.name());
            }
        }
    }

    #[test]
    fn some_loops_are_recurrence_bound_and_some_resource_bound() {
        let m = presets::govindarajan();
        let mut rec_bound = 0;
        let mut res_bound = 0;
        for g in all() {
            let info = MiiInfo::compute(&m, &hrms_ddg::LoopAnalysis::analyze(&g)).unwrap();
            if info.recurrence_bound() {
                rec_bound += 1;
            } else {
                res_bound += 1;
            }
        }
        assert!(rec_bound >= 4);
        assert!(res_bound >= 10);
    }

    #[test]
    fn iteration_counts_are_positive() {
        for g in all() {
            assert!(g.iteration_count() > 0);
        }
    }
}

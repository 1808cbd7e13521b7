//! Loop-variant lifetimes, `MaxLive` and buffer requirements.
//!
//! Register pressure is the quantity HRMS optimises, so the evaluation
//! (Tables 1–2, Figures 11–14 of the paper) is driven by the metrics in this
//! module:
//!
//! * the *lifetime* of a loop variant starts when its producer issues and
//!   ends when its **last** consumer issues (paper, Section 2.1),
//! * `MaxLive` is the maximum number of simultaneously-live values over the
//!   kernel's rows, counting the overlapping instances from several
//!   in-flight iterations — a tight lower bound on the registers needed,
//! * the *buffer* count (the metric of Govindarajan et al. used by Table 1)
//!   charges each value one buffer per issue of its producer before the last
//!   consumer's issue, plus one buffer per store.

use hrms_ddg::{Ddg, NodeId, OpKind};

use crate::schedule::Schedule;

/// The lifetime of one loop-variant value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueLifetime {
    /// The operation that defines the value.
    pub producer: NodeId,
    /// Issue cycle of the producer.
    pub start: i64,
    /// Issue cycle of the last consumer (taking dependence distances into
    /// account: a consumer at distance δ reads the value δ iterations — i.e.
    /// `δ·II` cycles — later).
    pub end: i64,
}

impl ValueLifetime {
    /// Length of the lifetime in cycles.
    pub fn length(&self) -> i64 {
        self.end - self.start
    }

    /// Number of buffers this value needs at initiation interval `ii`:
    /// the number of times the producer issues before the last consumer's
    /// issue, i.e. `ceil(length / II)` (and at least 1 for any consumed
    /// value).
    pub fn buffers(&self, ii: u32) -> u64 {
        let len = self.length();
        if len <= 0 {
            1
        } else {
            (len as u64).div_ceil(u64::from(ii))
        }
    }

    /// Number of live instances of this value at kernel row `row`
    /// (0 ≤ row < II): the number of iterations whose instance of the value
    /// is alive at that row in steady state.
    pub fn live_instances_at(&self, ii: u32, row: u32) -> u64 {
        let len = self.length();
        if len <= 0 {
            return 0;
        }
        // Count integers k such that start <= row + k*II < end.
        let ii = i64::from(ii);
        let row = i64::from(row);
        // smallest k with row + k*II >= start  ->  k_min = ceil((start - row)/II)
        let k_min =
            (self.start - row).div_euclid(ii) + i64::from((self.start - row).rem_euclid(ii) != 0);
        // largest k with row + k*II < end      ->  k_max = ceil((end - row)/II) - 1
        let k_max =
            (self.end - row).div_euclid(ii) + i64::from((self.end - row).rem_euclid(ii) != 0) - 1;
        (k_max - k_min + 1).max(0) as u64
    }
}

/// The number of live instances at every kernel row, summed over
/// `lifetimes`: row `r` holds `Σ live_instances_at(ii, r)`.
///
/// Each cycle of a lifetime `[start, end)` makes one instance live at row
/// `cycle mod II`, so a lifetime adds `len / II` to every row plus 1 to the
/// `len mod II` rows from `start mod II` on (wrapping). The per-row counts
/// are the prefix sums of a circular difference array: `O(lifetimes + II)`
/// instead of `O(lifetimes · II)` calls of the closed form.
fn live_per_row(ii: u32, lifetimes: &[ValueLifetime]) -> Vec<u64> {
    let n = ii as usize;
    let ii = i64::from(ii);
    let mut every_row = 0u64;
    let mut diff = vec![0i64; n + 1];
    for l in lifetimes {
        let len = l.length();
        if len <= 0 {
            continue;
        }
        every_row += (len / ii) as u64;
        let rem = (len % ii) as usize;
        let first = l.start.rem_euclid(ii) as usize;
        let stop = first + rem;
        diff[first] += 1;
        if stop <= n {
            diff[stop] -= 1;
        } else {
            diff[0] += 1;
            diff[stop - n] -= 1;
        }
    }
    let mut live = 0i64;
    diff[..n]
        .iter()
        .map(|d| {
            live += d;
            every_row + live as u64
        })
        .collect()
}

/// Lifetime analysis of one schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LifetimeAnalysis {
    ii: u32,
    lifetimes: Vec<ValueLifetime>,
    live_per_row: Vec<u64>,
    num_stores: u64,
    invariants: u32,
}

impl LifetimeAnalysis {
    /// Analyses the lifetimes of every loop variant of `ddg` under
    /// `schedule`.
    ///
    /// Values that are produced but never consumed through a register flow
    /// edge have an empty lifetime and contribute nothing to `MaxLive`
    /// (they still count one buffer if their producer is a store — but
    /// stores never define values, so in practice they contribute nothing).
    pub fn analyze(ddg: &Ddg, schedule: &Schedule) -> Self {
        let ii = schedule.ii();
        let mut lifetimes = Vec::new();
        for (id, node) in ddg.nodes() {
            if !node.defines_value() {
                continue;
            }
            let start = schedule.cycle(id);
            let mut end = start;
            let mut has_consumer = false;
            for (consumer, distance) in ddg.consumers(id) {
                has_consumer = true;
                let consumer_issue = schedule.cycle(consumer) + i64::from(distance) * i64::from(ii);
                end = end.max(consumer_issue);
            }
            if has_consumer {
                lifetimes.push(ValueLifetime {
                    producer: id,
                    start,
                    end,
                });
            }
        }
        let live_per_row = live_per_row(ii, &lifetimes);
        let num_stores = ddg
            .nodes()
            .filter(|(_, n)| n.kind() == OpKind::Store)
            .count() as u64;
        LifetimeAnalysis {
            ii,
            lifetimes,
            live_per_row,
            num_stores,
            invariants: ddg.num_invariants(),
        }
    }

    /// The initiation interval of the analysed schedule.
    #[inline]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// The individual value lifetimes.
    pub fn lifetimes(&self) -> &[ValueLifetime] {
        &self.lifetimes
    }

    /// Number of loop-variant values live at kernel row `row`.
    pub fn live_at_row(&self, row: u32) -> u64 {
        self.live_per_row[row as usize]
    }

    /// `MaxLive`: the maximum over kernel rows of the number of live
    /// loop-variant values — the lower bound on the register requirement
    /// used throughout Section 4.2 of the paper.
    pub fn max_live(&self) -> u64 {
        self.live_per_row.iter().copied().max().unwrap_or(0)
    }

    /// `MaxLive` plus one register per loop invariant (the combined figure
    /// of Figures 13–14).
    pub fn max_live_with_invariants(&self) -> u64 {
        self.max_live() + u64::from(self.invariants)
    }

    /// The buffer requirement of the schedule (Govindarajan et al.): one
    /// buffer per producer issue before the last consumer's issue, plus one
    /// buffer per store.
    pub fn buffers(&self) -> u64 {
        self.lifetimes
            .iter()
            .map(|l| l.buffers(self.ii))
            .sum::<u64>()
            + self.num_stores
    }

    /// Sum of all lifetime lengths (a secondary quality metric: HRMS's goal
    /// is to shorten exactly this).
    pub fn total_lifetime(&self) -> i64 {
        self.lifetimes.iter().map(ValueLifetime::length).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{DdgBuilder, DepKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// load(λ2)@0 -> add(λ1)@2 -> store@3 ; value of load lives [0,2),
    /// value of add lives [2,3).
    fn simple() -> (Ddg, Schedule) {
        let mut b = DdgBuilder::new("s");
        let ld = b.node("ld", OpKind::Load, 2);
        let add = b.node("add", OpKind::FpAdd, 1);
        let st = b.node("st", OpKind::Store, 1);
        b.edge(ld, add, DepKind::RegFlow, 0).unwrap();
        b.edge(add, st, DepKind::RegFlow, 0).unwrap();
        let g = b.build().unwrap();
        let s = Schedule::new(2, vec![0, 2, 3]);
        (g, s)
    }

    #[test]
    fn lifetimes_run_from_producer_to_last_consumer() {
        let (g, s) = simple();
        let lt = LifetimeAnalysis::analyze(&g, &s);
        assert_eq!(lt.lifetimes().len(), 2, "store defines no value");
        let ld = &lt.lifetimes()[0];
        assert_eq!((ld.start, ld.end), (0, 2));
        let add = &lt.lifetimes()[1];
        assert_eq!((add.start, add.end), (2, 3));
    }

    #[test]
    fn loop_carried_consumers_extend_lifetimes_by_distance_times_ii() {
        let mut b = DdgBuilder::new("carried");
        let prod = b.node("prod", OpKind::FpMul, 2);
        let cons = b.node("cons", OpKind::FpAdd, 1);
        b.edge(prod, cons, DepKind::RegFlow, 2).unwrap();
        let g = b.build().unwrap();
        let s = Schedule::new(3, vec![0, 1]);
        let lt = LifetimeAnalysis::analyze(&g, &s);
        // consumer issues at 1 + 2*3 = 7
        assert_eq!(lt.lifetimes()[0].end, 7);
        assert_eq!(lt.lifetimes()[0].length(), 7);
        // ceil(7/3) = 3 buffers
        assert_eq!(lt.lifetimes()[0].buffers(3), 3);
    }

    #[test]
    fn max_live_counts_overlapping_instances() {
        // One value alive for 4 cycles at II = 2: two instances overlap.
        let mut b = DdgBuilder::new("overlap");
        let prod = b.node("prod", OpKind::Load, 2);
        let cons = b.node("cons", OpKind::FpAdd, 1);
        b.edge(prod, cons, DepKind::RegFlow, 0).unwrap();
        let g = b.build().unwrap();
        let s = Schedule::new(2, vec![0, 4]);
        let lt = LifetimeAnalysis::analyze(&g, &s);
        assert_eq!(lt.lifetimes()[0].length(), 4);
        assert_eq!(lt.live_at_row(0), 2);
        assert_eq!(lt.live_at_row(1), 2);
        assert_eq!(lt.max_live(), 2);
        assert_eq!(lt.buffers(), 2);
    }

    #[test]
    fn live_instances_formula_matches_enumeration() {
        // Cross-check the closed-form instance count against brute force.
        for (start, end, ii) in [
            (0i64, 5i64, 2u32),
            (1, 7, 3),
            (3, 4, 4),
            (2, 2, 3),
            (0, 12, 4),
        ] {
            let l = ValueLifetime {
                producer: NodeId(0),
                start,
                end,
            };
            for row in 0..ii {
                let brute = (-100..100)
                    .filter(|k| {
                        let c = i64::from(row) + k * i64::from(ii);
                        c >= start && c < end
                    })
                    .count() as u64;
                assert_eq!(
                    l.live_instances_at(ii, row),
                    brute,
                    "start={start} end={end} ii={ii} row={row}"
                );
            }
        }
    }

    #[test]
    fn stores_add_one_buffer_each() {
        let (g, s) = simple();
        let lt = LifetimeAnalysis::analyze(&g, &s);
        // ld: length 2, ii 2 -> 1 buffer; add: length 1 -> 1 buffer; store -> 1.
        assert_eq!(lt.buffers(), 3);
    }

    #[test]
    fn unconsumed_values_do_not_contribute() {
        let mut b = DdgBuilder::new("dead");
        b.node("dead", OpKind::FpAdd, 1);
        let g = b.build().unwrap();
        let s = Schedule::new(1, vec![0]);
        let lt = LifetimeAnalysis::analyze(&g, &s);
        assert!(lt.lifetimes().is_empty());
        assert_eq!(lt.max_live(), 0);
        assert_eq!(lt.buffers(), 0);
    }

    #[test]
    fn invariants_add_to_the_combined_pressure() {
        let mut b = DdgBuilder::new("inv");
        let prod = b.node("prod", OpKind::Load, 2);
        let cons = b.node("cons", OpKind::FpAdd, 1);
        b.edge(prod, cons, DepKind::RegFlow, 0).unwrap();
        b.invariants(3);
        let g = b.build().unwrap();
        let s = Schedule::new(2, vec![0, 2]);
        let lt = LifetimeAnalysis::analyze(&g, &s);
        assert_eq!(lt.max_live(), 1);
        assert_eq!(lt.max_live_with_invariants(), 4);
    }

    #[test]
    fn total_lifetime_sums_the_lengths() {
        let (g, s) = simple();
        let lt = LifetimeAnalysis::analyze(&g, &s);
        assert_eq!(lt.total_lifetime(), 3);
    }

    /// `Σ live_instances_at(ii, row)` over `lifetimes`, the definition the
    /// per-row counts must match.
    fn by_definition(ii: u32, lifetimes: &[ValueLifetime], row: u32) -> u64 {
        lifetimes.iter().map(|l| l.live_instances_at(ii, row)).sum()
    }

    #[test]
    fn per_row_counts_match_the_closed_form_on_seeded_lifetimes() {
        let mut rng = StdRng::seed_from_u64(0x11FE);
        for trial in 0..2000 {
            let ii = if trial % 5 == 0 {
                1
            } else {
                rng.gen_range(1..=12u32)
            };
            let span = 4 * i64::from(ii);
            let lifetimes: Vec<ValueLifetime> = (0..rng.gen_range(0..=8))
                .map(|_| {
                    let start = rng.gen_range(-span..=span);
                    let len = match rng.gen_range(0..4) {
                        0 => rng.gen_range(-span..=0),
                        1 => i64::from(ii) * rng.gen_range(1..=4),
                        _ => rng.gen_range(1..=span),
                    };
                    ValueLifetime {
                        producer: NodeId(0),
                        start,
                        end: start + len,
                    }
                })
                .collect();
            let rows = live_per_row(ii, &lifetimes);
            assert_eq!(rows.len(), ii as usize);
            for row in 0..ii {
                assert_eq!(
                    rows[row as usize],
                    by_definition(ii, &lifetimes, row),
                    "ii={ii} row={row} lifetimes={lifetimes:?}"
                );
            }
        }
    }

    #[test]
    fn live_at_row_matches_the_closed_form_on_seeded_schedules() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for _ in 0..300 {
            let mut b = DdgBuilder::new("random");
            let n = rng.gen_range(1..=10);
            let ids: Vec<NodeId> = (0..n)
                .map(|i| b.node(format!("n{i}"), OpKind::FpAdd, 1))
                .collect();
            for _ in 0..rng.gen_range(0..=2 * n) {
                let (src, dst) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let kind = if rng.gen_bool(0.8) {
                    DepKind::RegFlow
                } else {
                    DepKind::Memory
                };
                b.edge(ids[src], ids[dst], kind, rng.gen_range(0..=3))
                    .unwrap();
            }
            let g = b.build().unwrap();
            let ii = rng.gen_range(1..=8u32);
            let cycles = (0..n).map(|_| rng.gen_range(-20..=20)).collect();
            let lt = LifetimeAnalysis::analyze(&g, &Schedule::new(ii, cycles));
            for row in 0..ii {
                assert_eq!(lt.live_at_row(row), by_definition(ii, lt.lifetimes(), row));
            }
        }
    }
}

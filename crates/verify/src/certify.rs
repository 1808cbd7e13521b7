//! The independent schedule certifier.
//!
//! [`certify`] takes a loop, a machine and a finished [`Schedule`] and
//! re-derives every property a correct modulo schedule must have — from
//! scratch, sharing no working state with the schedulers:
//!
//! * `S007` / `S001` — the II is a positive integer and the schedule
//!   assigns a cycle to every operation (and the re-derived kernel covers
//!   them all exactly once).
//! * `S002` — every dependence `(u, v)` satisfies
//!   `t(v) ≥ t(u) + λ(u,v) − δ(u,v)·II`.
//! * `S003` — a modulo reservation table rebuilt here (per-class,
//!   per-slot demand totals including non-pipelined wrap-around) never
//!   exceeds any class's unit count.
//! * `S004` — the II is at least the loop's MII, re-derived via
//!   [`MiiInfo`] (which fails when RecMII is undefined).
//! * `S005` — MaxLive from the lifetime table equals the loop-variant
//!   register count measured independently by the register-pressure pass.
//! * `S006` — modulo-variable-expansion renaming is consistent and the
//!   expanded kernel's register count matches `mve_registers`.
//!
//! The result is a machine-readable [`Certificate`]: one [`CheckResult`]
//! per property plus an `S0xx` [`Diagnostic`] for every failure, rendered
//! to JSON in the schema documented in `docs/DIAGNOSTICS.md`.

use std::fmt::Write as _;

use hrms_ddg::{ddg_fingerprint, dependence_latency, format_digest, Ddg};
use hrms_machine::{machine_fingerprint, Machine};
use hrms_modsched::{push_json_str, LifetimeAnalysis, MiiInfo, Schedule};
use hrms_regalloc::{mve_registers, mve_unroll_factor, ExpandedKernel, RegisterPressure};

use crate::diag::{Code, Diagnostic};

/// The outcome of one certifier check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckResult {
    /// Stable check name (`"dependences"`, `"resources"`, ...).
    pub name: &'static str,
    /// Whether the property holds.
    pub passed: bool,
    /// Human-readable evidence: what was checked and what was found.
    pub detail: String,
}

/// A machine-readable certificate for one (loop, machine, schedule)
/// triple.
///
/// `passed()` is the verdict; the rest is the evidence — enough to audit
/// the schedule without re-running the scheduler (digests pin the inputs,
/// the derived quantities are all re-computed by the certifier itself).
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Name of the certified loop.
    pub loop_name: String,
    /// Name of the machine it was scheduled for.
    pub machine_name: String,
    /// [`format_digest`] of the loop's fingerprint.
    pub ddg_digest: String,
    /// [`format_digest`] of the machine's fingerprint.
    pub machine_digest: String,
    /// The schedule's initiation interval.
    pub ii: u32,
    /// Re-derived resource-constrained lower bound.
    pub res_mii: u32,
    /// Re-derived recurrence-constrained lower bound (`None` when a
    /// zero-distance cycle makes it undefined).
    pub rec_mii: Option<u32>,
    /// `max(ResMII, RecMII, 1)`, when RecMII is defined.
    pub mii: Option<u32>,
    /// Re-derived MaxLive (simultaneously-live loop variants).
    pub max_live: u64,
    /// Re-derived total lifetime buffers.
    pub buffers: u64,
    /// Re-derived modulo-variable-expansion unroll factor.
    pub mve_unroll: u32,
    /// Registers required after MVE renaming.
    pub mve_registers: u64,
    /// One entry per property checked, in a fixed order.
    pub checks: Vec<CheckResult>,
    /// An `S0xx` diagnostic for every failed check (empty iff all passed).
    pub diagnostics: Vec<Diagnostic>,
}

impl Certificate {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Renders the certificate as a single JSON object (one line).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\"loop\":");
        push_json_str(&mut out, &self.loop_name);
        out.push_str(",\"machine\":");
        push_json_str(&mut out, &self.machine_name);
        let _ = write!(
            out,
            ",\"ddg_digest\":\"{}\",\"machine_digest\":\"{}\",\"ii\":{},\"res_mii\":{}",
            self.ddg_digest, self.machine_digest, self.ii, self.res_mii
        );
        match self.rec_mii {
            Some(r) => {
                let _ = write!(out, ",\"rec_mii\":{r}");
            }
            None => out.push_str(",\"rec_mii\":null"),
        }
        match self.mii {
            Some(m) => {
                let _ = write!(out, ",\"mii\":{m}");
            }
            None => out.push_str(",\"mii\":null"),
        }
        let _ = write!(
            out,
            ",\"max_live\":{},\"buffers\":{},\"mve_unroll\":{},\"mve_registers\":{}",
            self.max_live, self.buffers, self.mve_unroll, self.mve_registers
        );
        let _ = write!(out, ",\"passed\":{}", self.passed());
        out.push_str(",\"checks\":[");
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"passed\":{},\"detail\":",
                c.name, c.passed
            );
            push_json_str(&mut out, &c.detail);
            out.push('}');
        }
        out.push_str("],\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":",
                d.code, d.severity
            );
            push_json_str(&mut out, &d.message);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Certifies `schedule` against `ddg` and `machine`. Never panics: a
/// schedule broken enough to make later checks meaningless (zero II,
/// missing operations) fails fast with the early checks and the rest are
/// skipped.
pub fn certify(ddg: &Ddg, machine: &Machine, schedule: &Schedule) -> Certificate {
    let mut cert = Certificate {
        loop_name: ddg.name().to_string(),
        machine_name: machine.name().to_string(),
        ddg_digest: format_digest(ddg_fingerprint(ddg)),
        machine_digest: format_digest(machine_fingerprint(machine)),
        ii: schedule.ii(),
        res_mii: 0,
        rec_mii: None,
        mii: None,
        max_live: 0,
        buffers: 0,
        mve_unroll: 0,
        mve_registers: 0,
        checks: Vec::new(),
        diagnostics: Vec::new(),
    };

    // S007: the II must be a positive integer before anything modular
    // makes sense.
    let ii = schedule.ii();
    if !check(
        &mut cert,
        Code::S007,
        "ii-positive",
        ii >= 1,
        format!("II = {ii}"),
    ) {
        return cert;
    }

    // S001: one start cycle per operation, and the re-derived kernel
    // places each exactly once.
    let covered = schedule.len() == ddg.num_nodes();
    let detail = format!(
        "schedule covers {} of {} operations",
        schedule.len(),
        ddg.num_nodes()
    );
    if !check(&mut cert, Code::S001, "coverage", covered, detail) {
        return cert;
    }
    let kernel = schedule.kernel();
    check(
        &mut cert,
        Code::S001,
        "kernel-coverage",
        kernel.num_ops() == ddg.num_nodes(),
        format!(
            "re-derived kernel holds {} operations in {} rows",
            kernel.num_ops(),
            kernel.ii()
        ),
    );

    // S002: every dependence checked against the start times, modulo δ·II.
    let mut violations = 0usize;
    for (_, e) in ddg.edges() {
        let t_u = schedule.cycle(e.source());
        let t_v = schedule.cycle(e.target());
        let lat = i64::from(dependence_latency(ddg, e));
        let slack = t_v + i64::from(e.distance()) * i64::from(ii) - t_u - lat;
        if slack < 0 {
            violations += 1;
            cert.diagnostics.push(Diagnostic::new(
                Code::S002,
                format!(
                    "dependence `{}` -> `{}` violated: t({}) = {} < t({}) + {} - {}*{} = {}",
                    ddg.node(e.source()).name(),
                    ddg.node(e.target()).name(),
                    ddg.node(e.target()).name(),
                    t_v,
                    ddg.node(e.source()).name(),
                    lat,
                    e.distance(),
                    ii,
                    t_u + lat - i64::from(e.distance()) * i64::from(ii)
                ),
            ));
        }
    }
    push_check(
        &mut cert,
        "dependences",
        violations == 0,
        format!(
            "{} of {} dependences satisfied modulo delta*II",
            ddg.num_edges() - violations,
            ddg.num_edges()
        ),
    );

    // S003: rebuild the modulo reservation table from scratch — per-class,
    // per-slot demand totals, including the wrap-around demand of
    // operations whose occupancy exceeds the II.
    let mut demand: Vec<Vec<u64>> = machine
        .classes()
        .iter()
        .map(|_| vec![0u64; ii as usize])
        .collect();
    for id in ddg.node_ids() {
        let kind = ddg.node(id).kind();
        let class = machine.class_of(kind).index();
        let occupancy = machine.occupancy_of(kind);
        let start = schedule.cycle(id).rem_euclid(i64::from(ii)) as usize;
        let ii_us = ii as usize;
        let base = (occupancy / ii) as u64;
        let rem = (occupancy % ii) as usize;
        for (s, d) in demand[class].iter_mut().enumerate() {
            *d += base + u64::from((s + ii_us - start) % ii_us < rem);
        }
    }
    let mut oversubscribed = Vec::new();
    for (c, class) in machine.classes().iter().enumerate() {
        for (slot, &d) in demand[c].iter().enumerate() {
            if d > u64::from(class.count) {
                oversubscribed.push((c, slot, d, class.count));
            }
        }
    }
    for &(c, slot, d, count) in &oversubscribed {
        cert.diagnostics.push(Diagnostic::new(
            Code::S003,
            format!(
                "class `{}` oversubscribed in modulo slot {}: demand {} exceeds {} units",
                machine.classes()[c].name,
                slot,
                d,
                count
            ),
        ));
    }
    push_check(
        &mut cert,
        "resources",
        oversubscribed.is_empty(),
        format!(
            "rebuilt MRT: {} classes x {} slots, {} oversubscribed",
            machine.num_classes(),
            ii,
            oversubscribed.len()
        ),
    );

    // S004: the II must not beat the re-derived lower bound.
    match MiiInfo::compute(machine, &hrms_ddg::LoopAnalysis::analyze(ddg)) {
        Ok(info) => {
            cert.res_mii = info.res_mii;
            cert.rec_mii = Some(info.rec_mii);
            cert.mii = Some(info.mii());
            check(
                &mut cert,
                Code::S004,
                "ii-at-least-mii",
                ii >= info.mii(),
                format!(
                    "II = {} vs MII = max(ResMII {}, RecMII {}) = {}",
                    ii,
                    info.res_mii,
                    info.rec_mii,
                    info.mii()
                ),
            );
        }
        Err(e) => {
            check(
                &mut cert,
                Code::S004,
                "ii-at-least-mii",
                false,
                format!("MII is undefined: {e}"),
            );
        }
    }

    // S005: MaxLive re-derived two independent ways must agree.
    let lifetimes = LifetimeAnalysis::analyze(ddg, schedule);
    let pressure = RegisterPressure::measure(ddg, schedule);
    cert.max_live = lifetimes.max_live();
    cert.buffers = lifetimes.buffers();
    check(
        &mut cert,
        Code::S005,
        "max-live",
        lifetimes.max_live() == pressure.variants,
        format!(
            "lifetime table MaxLive = {}, pressure scan = {}",
            lifetimes.max_live(),
            pressure.variants
        ),
    );

    // S006: MVE renaming must be consistent and agree on register counts.
    let unroll = mve_unroll_factor(&lifetimes);
    let registers = mve_registers(&lifetimes);
    cert.mve_unroll = unroll;
    cert.mve_registers = registers;
    let expanded = ExpandedKernel::expand(ddg, schedule);
    let consistent = expanded.renaming_is_consistent(ddg, schedule);
    let counts_agree = expanded.unroll_factor() == unroll && expanded.registers() == registers;
    check(
        &mut cert,
        Code::S006,
        "mve-renaming",
        consistent && counts_agree,
        format!(
            "expanded kernel: unroll {} (expected {}), {} registers (expected {}), renaming {}",
            expanded.unroll_factor(),
            unroll,
            expanded.registers(),
            registers,
            if consistent {
                "consistent"
            } else {
                "inconsistent"
            }
        ),
    );

    cert
}

/// Records a check; on failure also emits the matching diagnostic.
/// Returns `passed` so callers can early-return on fatal failures.
fn check(
    cert: &mut Certificate,
    code: Code,
    name: &'static str,
    passed: bool,
    detail: String,
) -> bool {
    if !passed {
        cert.diagnostics
            .push(Diagnostic::new(code, format!("{name}: {detail}")));
    }
    cert.checks.push(CheckResult {
        name,
        passed,
        detail,
    });
    passed
}

/// Records a check whose diagnostics (if any) were already pushed
/// individually.
fn push_check(cert: &mut Certificate, name: &'static str, passed: bool, detail: String) {
    cert.checks.push(CheckResult {
        name,
        passed,
        detail,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrms_ddg::{DdgBuilder, DepKind, OpKind};
    use hrms_machine::presets;

    fn dot_product() -> Ddg {
        let mut b = DdgBuilder::new("dot_product");
        let la = b.node("load_a", OpKind::Load, 2);
        let lb = b.node("load_b", OpKind::Load, 2);
        let mul = b.node("mul", OpKind::FpMul, 2);
        let acc = b.node("acc", OpKind::FpAdd, 1);
        b.edge(la, mul, DepKind::RegFlow, 0).unwrap();
        b.edge(lb, mul, DepKind::RegFlow, 0).unwrap();
        b.edge(mul, acc, DepKind::RegFlow, 0).unwrap();
        b.edge(acc, acc, DepKind::RegFlow, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn a_correct_schedule_certifies() {
        let ddg = dot_product();
        let machine = presets::govindarajan();
        // loads at 0 and 1 (one load/store unit), mul at 2, acc at 4; II=2.
        let schedule = Schedule::new(2, vec![0, 1, 3, 5]);
        let cert = certify(&ddg, &machine, &schedule);
        assert!(cert.passed(), "{:#?}", cert.checks);
        assert!(cert.diagnostics.is_empty());
        assert_eq!(cert.ii, 2);
        assert_eq!(cert.res_mii, 2);
        assert_eq!(cert.rec_mii, Some(1));
        assert_eq!(cert.mii, Some(2));
        let json = cert.to_json();
        assert!(json.contains("\"passed\":true"));
        assert!(json.contains("\"loop\":\"dot_product\""));
        assert!(!json.contains('\n'));
    }

    #[test]
    fn dependence_violations_fail_s002() {
        let ddg = dot_product();
        let machine = presets::govindarajan();
        // mul starts before its loads complete.
        let schedule = Schedule::new(2, vec![0, 1, 2, 5]);
        let cert = certify(&ddg, &machine, &schedule);
        assert!(!cert.passed());
        let dep = cert
            .checks
            .iter()
            .find(|c| c.name == "dependences")
            .unwrap();
        assert!(!dep.passed);
        assert!(cert.diagnostics.iter().any(|d| d.code == Code::S002));
        assert!(cert
            .diagnostics
            .iter()
            .any(|d| d.message.contains("`load_a`") || d.message.contains("`load_b`")));
    }

    #[test]
    fn oversubscription_fails_s003() {
        let ddg = dot_product();
        let machine = presets::govindarajan();
        // Both loads in the same modulo slot of the single load/store unit.
        let schedule = Schedule::new(2, vec![0, 2, 4, 6]);
        let cert = certify(&ddg, &machine, &schedule);
        let res = cert.checks.iter().find(|c| c.name == "resources").unwrap();
        assert!(!res.passed);
        assert!(cert
            .diagnostics
            .iter()
            .any(|d| d.code == Code::S003 && d.message.contains("slot 0")));
    }

    #[test]
    fn ii_below_mii_fails_s004() {
        let ddg = dot_product();
        let machine = presets::govindarajan();
        // II=1 < ResMII=2 but plenty of spacing: dependences fine at II=1?
        // loads 0,1 collide modulo 1 anyway; the point is the S004 verdict.
        let schedule = Schedule::new(1, vec![0, 1, 3, 4]);
        let cert = certify(&ddg, &machine, &schedule);
        let mii = cert
            .checks
            .iter()
            .find(|c| c.name == "ii-at-least-mii")
            .unwrap();
        assert!(!mii.passed);
        assert!(cert.diagnostics.iter().any(|d| d.code == Code::S004));
    }

    #[test]
    fn missing_operations_fail_fast() {
        let ddg = dot_product();
        let machine = presets::govindarajan();
        let schedule = Schedule::new(2, vec![0, 1]);
        let cert = certify(&ddg, &machine, &schedule);
        assert!(!cert.passed());
        assert_eq!(cert.checks.last().unwrap().name, "coverage");
        assert!(cert.diagnostics.iter().any(|d| d.code == Code::S001));
    }

    #[test]
    fn non_pipelined_wraparound_demand_is_counted() {
        // One non-pipelined divider, latency 17, II=4: a single div occupies
        // ceil(17/4) > 1 units in some slot, so even one div oversubscribes
        // a 1-unit class... at II=4 occupancy 17 needs base 4 + 1 extra.
        let mut b = DdgBuilder::new("divloop");
        let d = b.node("div", OpKind::FpDiv, 17);
        b.edge(d, d, DepKind::RegFlow, 5).unwrap();
        let ddg = b.build().unwrap();
        let machine = presets::perfect_club();
        let schedule = Schedule::new(4, vec![0]);
        let cert = certify(&ddg, &machine, &schedule);
        let res = cert.checks.iter().find(|c| c.name == "resources").unwrap();
        // perfect_club has 2 div/sqrt units, non-pipelined: demand base
        // 17/4 = 4 per slot exceeds 2 units.
        assert!(!res.passed);
        assert!(cert.diagnostics.iter().any(|d| d.code == Code::S003));
    }

    #[test]
    fn schedule_longer_than_the_loop_fails_coverage() {
        let ddg = dot_product();
        let machine = presets::govindarajan();
        let schedule = Schedule::new(2, vec![0, 1, 3, 5, 7]);
        let cert = certify(&ddg, &machine, &schedule);
        assert!(!cert.passed());
        assert_eq!(cert.checks.last().unwrap().name, "coverage");
    }
}

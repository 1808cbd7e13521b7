//! The machine configurations used in the paper's evaluation.

use hrms_ddg::OpKind;

use crate::machine::{Machine, MachineBuilder, ResourceClass};

/// The motivating-example machine of Section 2.1: `n` general-purpose,
/// fully-pipelined functional units where every operation takes `latency`
/// cycles. The paper uses `general_purpose_n(4)` with latency 2.
pub fn general_purpose_n(units: u32, latency: u32) -> Machine {
    MachineBuilder::new(format!("general-{units}xL{latency}"))
        .class(ResourceClass::pipelined("general", units))
        .map_all_remaining_to(0, latency)
        .build()
        .expect("preset machines are always valid")
}

/// The exact Section 2.1 configuration: 4 general-purpose pipelined units,
/// latency 2 for every operation.
pub fn general_purpose() -> Machine {
    general_purpose_n(4, 2)
}

/// The Table 1 / Section 4.1 machine (the configuration of Govindarajan,
/// Altman and Gao's SPILP study): one FP adder, one FP multiplier, one FP
/// divider and one load/store unit, all fully pipelined.
///
/// Latencies: add/sub/store = 1, multiply/load = 2, divide = 17. Integer
/// operations and copies execute on the adder with latency 1; square roots
/// (not present in these loops) are mapped onto the divider.
pub fn govindarajan() -> Machine {
    MachineBuilder::new("govindarajan-4fu")
        .class(ResourceClass::pipelined("fp-add", 1)) // 0
        .class(ResourceClass::pipelined("fp-mul", 1)) // 1
        .class(ResourceClass::pipelined("fp-div", 1)) // 2
        .class(ResourceClass::pipelined("load-store", 1)) // 3
        .map(OpKind::FpAdd, 0, 1)
        .map(OpKind::FpMul, 1, 2)
        .map(OpKind::FpDiv, 2, 17)
        .map(OpKind::FpSqrt, 2, 17)
        .map(OpKind::Load, 3, 2)
        .map(OpKind::Store, 3, 1)
        .map(OpKind::IntAlu, 0, 1)
        .map(OpKind::Copy, 0, 1)
        .map(OpKind::Other, 0, 1)
        .build()
        .expect("preset machines are always valid")
}

/// The Section 4.2 machine used for the Perfect-Club evaluation: 2 load/store
/// units, 2 adders, 2 multipliers and 2 divide/square-root units. All units
/// are fully pipelined **except** the div/sqrt units.
///
/// Latencies: store = 1, load = 2, add = 4, multiply = 4, divide = 17,
/// square root = 30. Integer operations and copies execute on the adders
/// with latency 1.
pub fn perfect_club() -> Machine {
    MachineBuilder::new("perfect-club-8fu")
        .class(ResourceClass::pipelined("load-store", 2)) // 0
        .class(ResourceClass::pipelined("fp-add", 2)) // 1
        .class(ResourceClass::pipelined("fp-mul", 2)) // 2
        .class(ResourceClass::unpipelined("fp-div-sqrt", 2)) // 3
        .map(OpKind::Load, 0, 2)
        .map(OpKind::Store, 0, 1)
        .map(OpKind::FpAdd, 1, 4)
        .map(OpKind::IntAlu, 1, 1)
        .map(OpKind::Copy, 1, 1)
        .map(OpKind::Other, 1, 1)
        .map(OpKind::FpMul, 2, 4)
        .map(OpKind::FpDiv, 3, 17)
        .map(OpKind::FpSqrt, 3, 30)
        .build()
        .expect("preset machines are always valid")
}

/// A wide machine (2x the Perfect-Club configuration) used by the ablation
/// benches to study how register pressure scales with issue width — the
/// trend that motivates the paper (register pressure grows with concurrency).
pub fn perfect_club_wide() -> Machine {
    MachineBuilder::new("perfect-club-16fu")
        .class(ResourceClass::pipelined("load-store", 4))
        .class(ResourceClass::pipelined("fp-add", 4))
        .class(ResourceClass::pipelined("fp-mul", 4))
        .class(ResourceClass::unpipelined("fp-div-sqrt", 4))
        .map(OpKind::Load, 0, 2)
        .map(OpKind::Store, 0, 1)
        .map(OpKind::FpAdd, 1, 4)
        .map(OpKind::IntAlu, 1, 1)
        .map(OpKind::Copy, 1, 1)
        .map(OpKind::Other, 1, 1)
        .map(OpKind::FpMul, 2, 4)
        .map(OpKind::FpDiv, 3, 17)
        .map(OpKind::FpSqrt, 3, 30)
        .build()
        .expect("preset machines are always valid")
}

/// CLI slugs of the nullary presets, in the order reported by [`all`].
///
/// These are the names accepted by [`by_name`] and by `hrms schedule
/// --machine <preset>`; the parameterised [`general_purpose_n`] family is
/// only reachable through a `.machine` file.
pub const PRESET_NAMES: [&str; 4] = [
    "general-purpose",
    "govindarajan",
    "perfect-club",
    "perfect-club-wide",
];

/// Resolves a preset by its [`PRESET_NAMES`] slug.
///
/// Returns `None` for unknown names; callers (the CLI, tests) decide how to
/// report that, typically by listing [`PRESET_NAMES`].
pub fn by_name(name: &str) -> Option<Machine> {
    match name {
        "general-purpose" => Some(general_purpose()),
        "govindarajan" => Some(govindarajan()),
        "perfect-club" => Some(perfect_club()),
        "perfect-club-wide" => Some(perfect_club_wide()),
        _ => None,
    }
}

/// All nullary presets, in [`PRESET_NAMES`] order.
pub fn all() -> Vec<Machine> {
    PRESET_NAMES
        .iter()
        .map(|n| by_name(n).expect("every listed preset resolves"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::ClassId;

    #[test]
    fn general_purpose_has_four_units_latency_two() {
        let m = general_purpose();
        assert_eq!(m.num_classes(), 1);
        assert_eq!(m.classes()[0].count, 4);
        for kind in OpKind::ALL {
            assert_eq!(m.latency_of(kind), 2);
            assert_eq!(m.class_of(kind), ClassId(0));
        }
    }

    #[test]
    fn govindarajan_latencies_match_the_paper() {
        let m = govindarajan();
        assert_eq!(m.latency_of(OpKind::FpAdd), 1);
        assert_eq!(m.latency_of(OpKind::Store), 1);
        assert_eq!(m.latency_of(OpKind::FpMul), 2);
        assert_eq!(m.latency_of(OpKind::Load), 2);
        assert_eq!(m.latency_of(OpKind::FpDiv), 17);
        assert_eq!(m.total_units(), 4);
        // every class is pipelined
        assert!(m.classes().iter().all(|c| c.pipelined));
    }

    #[test]
    fn perfect_club_latencies_match_the_paper() {
        let m = perfect_club();
        assert_eq!(m.latency_of(OpKind::Store), 1);
        assert_eq!(m.latency_of(OpKind::Load), 2);
        assert_eq!(m.latency_of(OpKind::FpAdd), 4);
        assert_eq!(m.latency_of(OpKind::FpMul), 4);
        assert_eq!(m.latency_of(OpKind::FpDiv), 17);
        assert_eq!(m.latency_of(OpKind::FpSqrt), 30);
        assert_eq!(m.total_units(), 8);
    }

    #[test]
    fn perfect_club_div_sqrt_is_not_pipelined() {
        let m = perfect_club();
        let div_class = m.class(m.class_of(OpKind::FpDiv));
        assert!(!div_class.pipelined);
        assert_eq!(m.occupancy_of(OpKind::FpDiv), 17);
        assert_eq!(m.occupancy_of(OpKind::FpSqrt), 30);
        assert_eq!(m.occupancy_of(OpKind::FpMul), 1);
    }

    #[test]
    fn getters_match_the_preset_mappings_before_and_after_a_round_trip() {
        use crate::textfmt::{parse_machine, write_machine};
        // (class, latency) per kind, in `OpKind::ALL` order:
        // fadd fmul fdiv fsqrt load store ialu copy op.
        let perfect_club = [
            (1, 4),
            (2, 4),
            (3, 17),
            (3, 30),
            (0, 2),
            (0, 1),
            (1, 1),
            (1, 1),
            (1, 1),
        ];
        let expected: [[(u32, u32); 9]; 4] = [
            [(0, 2); 9],
            [
                (0, 1),
                (1, 2),
                (2, 17),
                (2, 17),
                (3, 2),
                (3, 1),
                (0, 1),
                (0, 1),
                (0, 1),
            ],
            perfect_club,
            perfect_club,
        ];
        for (machine, mapping) in all().into_iter().zip(expected) {
            let back = parse_machine(&write_machine(&machine)).unwrap();
            for m in [&machine, &back] {
                for (kind, (class, latency)) in OpKind::ALL.into_iter().zip(mapping) {
                    let what = format!("{} {kind:?}", m.name());
                    assert_eq!(m.class_of(kind), ClassId(class), "{what}");
                    assert_eq!(m.latency_of(kind), latency, "{what}");
                    let occupancy = if m.class(ClassId(class)).pipelined {
                        1
                    } else {
                        latency
                    };
                    assert_eq!(m.occupancy_of(kind), occupancy, "{what}");
                }
            }
        }
    }

    #[test]
    fn wide_machine_doubles_units() {
        let m = perfect_club_wide();
        assert_eq!(m.total_units(), 16);
    }

    #[test]
    fn loads_and_stores_share_a_unit_on_both_machines() {
        for m in [govindarajan(), perfect_club()] {
            assert_eq!(m.class_of(OpKind::Load), m.class_of(OpKind::Store));
        }
    }

    #[test]
    fn every_preset_name_resolves_and_unknown_names_do_not() {
        assert_eq!(all().len(), PRESET_NAMES.len());
        for (slug, machine) in PRESET_NAMES.iter().zip(all()) {
            assert_eq!(by_name(slug).unwrap(), machine);
        }
        assert!(by_name("bogus").is_none());
        assert!(by_name("govindarajan-4fu").is_none(), "slugs, not names");
    }
}

//! Structural fingerprints of machine descriptions.
//!
//! The companion of [`hrms_ddg::ddg_fingerprint`] on the machine side: a
//! stable 64-bit FNV-1a digest over everything that affects scheduling
//! results (resource classes, operation→class mapping and latencies).
//! Combined with a loop digest and a scheduler name via
//! [`hrms_ddg::cache_key`], it makes schedule reports content-addressable —
//! two runs with equal keys saw byte-identical inputs.

use hrms_ddg::{Fnv64, OpKind};

use crate::machine::Machine;

/// Computes the stable structural digest of a machine description.
///
/// Two machines compare equal under this digest exactly when they have the
/// same name, the same resource classes in the same [`crate::ClassId`]
/// order, and the same class/latency for every [`OpKind`]. The digest is
/// part of the on-disk format contract (`docs/FORMATS.md`) and must not
/// change between releases.
pub fn machine_fingerprint(machine: &Machine) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(machine.name());
    h.write_u32(machine.num_classes() as u32);
    for class in machine.classes() {
        h.write_str(&class.name);
        h.write_u32(class.count);
        h.write_bool(class.pipelined);
    }
    for kind in OpKind::ALL {
        h.write_str(kind.mnemonic());
        h.write_u32(machine.class_of(kind).0);
        h.write_u32(machine.latency_of(kind));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::textfmt::{parse_machine, write_machine};

    #[test]
    fn presets_have_distinct_digests() {
        let digests: Vec<u64> = presets::all().iter().map(machine_fingerprint).collect();
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn preset_digests_are_pinned() {
        // Part of the on-disk format contract: cache keys and reports carry
        // these digests, so they must not move.
        let pinned = [
            ("general-4xL2", 0xd4b3_973b_0e94_123b),
            ("govindarajan-4fu", 0x423b_5487_74b1_bf4e),
            ("perfect-club-8fu", 0x397f_d650_d205_e2ae),
            ("perfect-club-16fu", 0x40e6_346c_4443_aeb0),
        ];
        for (machine, (name, digest)) in presets::all().iter().zip(pinned) {
            assert_eq!(machine.name(), name);
            assert_eq!(machine_fingerprint(machine), digest, "preset `{name}`");
        }
    }

    #[test]
    fn digest_is_stable_across_round_trips() {
        for machine in presets::all() {
            let back = parse_machine(&write_machine(&machine)).unwrap();
            assert_eq!(
                machine_fingerprint(&back),
                machine_fingerprint(&machine),
                "preset `{}`",
                machine.name()
            );
        }
    }

    #[test]
    fn digest_depends_on_structure() {
        let base = machine_fingerprint(&presets::general_purpose());
        assert_ne!(
            base,
            machine_fingerprint(&presets::general_purpose_n(4, 3)),
            "latency change must alter the digest"
        );
        assert_ne!(
            base,
            machine_fingerprint(&presets::general_purpose_n(8, 2)),
            "unit-count change must alter the digest"
        );
    }
}

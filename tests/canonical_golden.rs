//! Golden canonical-code hashes.
//!
//! The store deduplicates on `CodeHash` and persists it beside every class,
//! so recovery trusts hashes written by earlier builds. Partition checks
//! alone cannot catch a start filter that picks a different (but still
//! isomorphism-invariant) set of survivors: every code changes, classes stay
//! classes, and every equivalence suite passes while persisted classes
//! silently split from new ingests. This suite pins the hash of one map per
//! family, grid and seed as a literal, and checks that a homeomorphic copy
//! of each lands on the same hash.
//!
//! A change that moves one of these values changes canonical codes; it must
//! not ship without a store format migration.

use topo_core::spatial::transform::AffineMap;
use topo_core::{top, Rational, SpatialInstance};
use topo_datagen::{ign_city, sequoia_hydro, sequoia_landcover, Scale};

/// `(family, grid, seed, code hash)`.
const GOLDEN: [(&str, usize, u64, u64); 18] = [
    ("landcover", 8, 1, 0xa60b_68a1_8f1b_8009),
    ("landcover", 8, 7919, 0x1294_90e2_9df4_5a17),
    ("landcover", 16, 1, 0x2fd2_4809_0176_6b01),
    ("landcover", 16, 7919, 0xf914_769e_1e50_752e),
    ("landcover", 28, 1, 0x80d3_8f53_3017_eb53),
    ("landcover", 28, 7919, 0x0bd9_8b18_472f_82e6),
    ("hydro", 8, 1, 0x315c_f668_06b0_f0e3),
    ("hydro", 8, 7919, 0xff42_e084_b536_a64b),
    ("hydro", 16, 1, 0x9f71_d11a_eb80_7e20),
    ("hydro", 16, 7919, 0x3cb7_b2bf_82cf_258f),
    ("hydro", 28, 1, 0xf684_545c_7f8a_ddd3),
    ("hydro", 28, 7919, 0x77e8_6d84_7e42_f1ea),
    ("city", 8, 1, 0x7f24_0cb7_34c1_cbf9),
    ("city", 8, 7919, 0x159a_dd69_e4f0_035e),
    ("city", 16, 1, 0x88f2_0de7_0aa9_9d18),
    ("city", 16, 7919, 0x9fa4_b1de_18d9_fb12),
    ("city", 28, 1, 0x56e1_a959_e4f0_aae3),
    ("city", 28, 7919, 0x4798_a447_4c68_d0ab),
];

fn instance(family: &str, grid: usize, seed: u64) -> SpatialInstance {
    let scale = Scale { grid };
    match family {
        "landcover" => sequoia_landcover(scale, seed),
        "hydro" => sequoia_hydro(scale, seed),
        "city" => ign_city(scale, seed),
        other => panic!("unknown family {other}"),
    }
}

/// An orientation-reversing homeomorphism with non-integer scaling, so the
/// copy renumbers every cell and swaps the roles of the two orientations.
fn homeomorphism() -> AffineMap {
    AffineMap::reflection_x()
        .compose(&AffineMap::rotation90())
        .compose(&AffineMap::scaling(Rational::new(3, 2)))
        .compose(&AffineMap::translation(4_321, -987))
}

#[test]
fn code_hashes_match_the_recorded_values() {
    let mut wrong = Vec::new();
    for &(family, grid, seed, expected) in &GOLDEN {
        let got = top(&instance(family, grid, seed)).code_hash().as_u64();
        if got != expected {
            wrong.push(format!("    (\"{family}\", {grid}, {seed}, {got:#018x}),"));
        }
    }
    assert!(wrong.is_empty(), "code hashes moved; current values:\n{}", wrong.join("\n"));
}

#[test]
fn homeomorphic_copies_hash_alike() {
    let map = homeomorphism();
    assert!(map.is_homeomorphism());
    assert!(!map.preserves_orientation());
    for &(family, grid, seed, _) in &GOLDEN {
        let base = instance(family, grid, seed);
        let original = top(&base).code_hash();
        let copy = top(&map.apply_instance(&base)).code_hash();
        assert_eq!(original, copy, "{family} grid {grid} seed {seed}");
    }
}

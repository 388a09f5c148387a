//! Theorem 2.1 / 2.2 round trips: homeomorphic instances have isomorphic
//! invariants, and inversion rebuilds topologically equivalent instances.

use topo_core::spatial::transform::AffineMap;
use topo_core::Rational;

#[test]
fn homeomorphic_instances_have_isomorphic_invariants() {
    for (name, instance) in [
        ("hydro", topo_datagen::sequoia_hydro(topo_datagen::Scale::tiny(), 3)),
        ("landcover", topo_datagen::sequoia_landcover(topo_datagen::Scale::tiny(), 3)),
        ("figure1", topo_datagen::figure1()),
        ("city", topo_datagen::ign_city(topo_datagen::Scale::tiny(), 3)),
    ] {
        let invariant = topo_core::top(&instance);
        for map in [
            AffineMap::translation(12345, -9876),
            AffineMap::rotation90(),
            AffineMap::reflection_x(),
            AffineMap::scaling(Rational::new(5, 3)),
            AffineMap::shear_x(Rational::new(1, 4)),
        ] {
            let transformed = topo_core::top(&map.apply_instance(&instance));
            assert!(
                transformed.is_isomorphic_to(&invariant),
                "{name}: invariant changed under {map:?}"
            );
        }
    }
}

#[test]
fn inversion_roundtrip_on_invertible_workloads() {
    for (name, instance) in [
        ("hydro", topo_datagen::sequoia_hydro(topo_datagen::Scale::tiny(), 8)),
        ("hydro tiny 5", topo_datagen::sequoia_hydro(topo_datagen::Scale::tiny(), 5)),
        ("hydro medium 5", topo_datagen::sequoia_hydro(topo_datagen::Scale::medium(), 5)),
        ("nested rings", topo_datagen::nested_rings(4, 2)),
        ("nested rings 5", topo_datagen::nested_rings(5, 2)),
        ("islands", topo_datagen::scattered_islands(7)),
        ("islands 12", topo_datagen::scattered_islands(12)),
    ] {
        let invariant = topo_core::top(&instance);
        let rebuilt = topo_core::invert_verified(&invariant)
            .unwrap_or_else(|e| panic!("{name}: inversion failed: {e}"));
        let rebuilt_invariant = topo_core::top(&rebuilt);
        assert!(
            rebuilt_invariant.is_isomorphic_to(&invariant),
            "{name}: round trip broke topology"
        );
        // The rebuilt instance is usually far smaller than the original.
        assert!(rebuilt.point_count() <= instance.point_count().max(64));
    }
}

#[test]
fn different_topologies_are_distinguished() {
    let one = topo_core::top(&topo_datagen::scattered_islands(3));
    let other = topo_core::top(&topo_datagen::scattered_islands(4));
    assert!(!one.is_isomorphic_to(&other));
    let nested = topo_core::top(&topo_datagen::nested_rings(3, 1));
    let flat = topo_core::top(&topo_datagen::scattered_islands(3));
    assert!(!nested.is_isomorphic_to(&flat));
}

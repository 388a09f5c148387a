//! Seeded inputs: a small deterministic generator, the three cartographic
//! families, homeomorphic copies and the query library. The program under
//! test only ever sees the instances generated here.

use topo_core::datagen::{ign_city, sequoia_hydro, sequoia_landcover, Scale};
use topo_core::spatial::transform::AffineMap;
use topo_core::{Rational, SpatialInstance, TopologicalQuery};

/// SplitMix64: tiny, seedable and stable across platforms and releases.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The three generators of `topo_datagen`, in the fixed round-robin order
/// every workload interleaves them in (so a run's family mix does not depend
/// on the seed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Landcover,
    Hydro,
    City,
}

pub const FAMILIES: [Family; 3] = [Family::Landcover, Family::Hydro, Family::City];

impl Family {
    pub fn generate(self, grid: usize, seed: u64) -> SpatialInstance {
        let scale = Scale { grid };
        match self {
            Family::Landcover => sequoia_landcover(scale, seed),
            Family::Hydro => sequoia_hydro(scale, seed),
            Family::City => ign_city(scale, seed),
        }
    }
}

/// The `k`-th homeomorphic image of an instance: translations, uniform
/// scalings and quarter turns, composed so no two `k` give the same map.
/// Every image lies in the isomorphism class of the original.
pub fn homeomorphic_copy(instance: &SpatialInstance, k: usize) -> SpatialInstance {
    let k = k as i64;
    let shift = AffineMap::translation(k * 130_001, -k * 70_003);
    let map = match k % 3 {
        0 => shift,
        1 => AffineMap::rotation90().compose(&shift),
        _ => AffineMap::scaling(Rational::new(3, 2)).compose(&shift),
    };
    map.apply_instance(instance)
}

/// The query library: every query kind of `TopologicalQuery`, on the first
/// regions of the schema (every generated schema has at least four). Eight of
/// the twelve have a Datalog program, so a memo fill of one of them runs the
/// goal-directed evaluator; the other four fall back to the native
/// algorithms.
pub fn query_library() -> Vec<TopologicalQuery> {
    use TopologicalQuery as Q;
    vec![
        Q::Intersects(0, 1),
        Q::Disjoint(0, 1),
        Q::Contains(0, 1),
        Q::Equal(0, 1),
        Q::BoundaryOnlyIntersection(0, 1),
        Q::InteriorsOverlap(0, 1),
        Q::IsConnected(0),
        Q::ComponentCountEven(0),
        Q::HasHole(0),
        Q::Intersects(1, 3),
        Q::IsConnected(1),
        Q::HasHole(1),
    ]
}

//! Seeded synthetic cartographic workloads.
//!
//! The paper's practical-considerations section measures the size of the
//! topological invariant against three real cartographic data sets (two from
//! Sequoia 2000, one from the French IGN). Those data sets are proprietary,
//! so this crate provides deterministic, seeded generators whose *shape
//! parameters* (number of polygons, points per polygon, bounded number of
//! lines meeting at a point, thematic classes) match the published statistics;
//! DESIGN.md records the substitution.
//!
//! All generators return ordinary [`SpatialInstance`]s, so they compose with
//! every other crate of the workspace. Besides the statistics-matched data
//! sets, [`figure1`] and [`nested_rings`] reproduce the paper's running
//! examples, and the hydrography-style workloads stay inside the class
//! supported by the Theorem 2.2 inversion (pairwise non-crossing
//! boundaries), so round-trip experiments can use them.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use topo_geometry::Point;
use topo_spatial::{Region, Schema, SpatialInstance};

/// Scale knob shared by the generators: roughly the number of polygons
/// produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Cells per side of the underlying generation lattice.
    pub grid: usize,
}

impl Scale {
    /// A small scale suitable for unit tests.
    pub fn tiny() -> Self {
        Scale { grid: 4 }
    }

    /// The default experiment scale.
    pub fn medium() -> Self {
        Scale { grid: 16 }
    }

    /// A larger scale for the dataset-statistics experiment.
    pub fn large() -> Self {
        Scale { grid: 40 }
    }
}

/// A land-cover map in the style of the first Sequoia 2000 data set: a
/// subdivision of a rectangle into grid-aligned patches, each assigned one of
/// the land-use classes the paper lists (agriculture, range land, forest,
/// lake, bay, estuary, wetland, beach, tundra). Patches of the same class
/// share boundaries with other classes, so the arrangement has many
/// degree-3/degree-4 junction vertices — the "lines intersecting at a point"
/// statistic stays small and bounded, as in the paper's data.
pub fn sequoia_landcover(scale: Scale, seed: u64) -> SpatialInstance {
    let classes = [
        "agriculture",
        "range_land",
        "forest",
        "lake",
        "bay",
        "estuary",
        "wetland",
        "beach",
        "tundra",
    ];
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = scale.grid.max(2);
    let cell = 100i64;
    // Perturbed lattice of corner points so patches are not all rectangles.
    let mut corners = vec![vec![Point::origin(); n + 1]; n + 1];
    #[allow(clippy::needless_range_loop)]
    for i in 0..=n {
        for j in 0..=n {
            let dx = if i == 0 || i == n { 0 } else { rng.gen_range(-30..=30) };
            let dy = if j == 0 || j == n { 0 } else { rng.gen_range(-30..=30) };
            corners[i][j] = Point::from_ints(i as i64 * cell + dx, j as i64 * cell + dy);
        }
    }
    let mut instance = SpatialInstance::new(Schema::from_names(classes));
    for i in 0..n {
        for j in 0..n {
            let class = rng.gen_range(0..classes.len());
            let ring =
                vec![corners[i][j], corners[i + 1][j], corners[i + 1][j + 1], corners[i][j + 1]];
            instance.region_mut(class).add_ring(ring);
        }
    }
    instance
}

/// A hydrography layer in the style of the second Sequoia 2000 data set:
/// disjoint lakes (polygons with a varying number of shoreline points), a few
/// lakes with islands, rivers as polylines, and estuaries as a separate
/// class. All boundaries are pairwise disjoint, so the invariant's skeleton
/// consists of closed curves and paths — the class supported by the
/// Theorem 2.2 inversion.
pub fn sequoia_hydro(scale: Scale, seed: u64) -> SpatialInstance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = scale.grid.max(2);
    let cell = 1_000i64;
    let mut lakes = Region::new();
    let mut islands = Region::new();
    let mut rivers = Region::new();
    let mut estuaries = Region::new();
    for i in 0..n {
        for j in 0..n {
            let x0 = i as i64 * cell;
            let y0 = j as i64 * cell;
            match rng.gen_range(0..5) {
                0 | 1 => {
                    // A lake: a convex-ish polygon inside the cell.
                    let shoreline_points = rng.gen_range(5..12);
                    let ring = blob(&mut rng, x0 + 100, y0 + 100, 700, shoreline_points);
                    lakes.add_ring(ring);
                    if rng.gen_bool(0.3) {
                        // An island inside the lake, belonging to a different
                        // thematic class. Kept well inside the lake's minimum
                        // shoreline radius so the two boundaries never touch.
                        let ring = rectangle_ring(x0 + 390, y0 + 390, 120, 110);
                        islands.add_ring(ring);
                    }
                }
                2 => {
                    // A river: a polyline wandering through the cell. The
                    // steps are bounded so the river never leaves its cell,
                    // keeping all hydrography features pairwise disjoint (the
                    // class of instances supported by the Theorem 2.2
                    // inversion).
                    let mut chain = Vec::new();
                    let mut x = x0 + 50;
                    let mut y = y0 + 50;
                    for _ in 0..rng.gen_range(4..7) {
                        chain.push(Point::from_ints(x, y));
                        x += rng.gen_range(60i64..130);
                        y += rng.gen_range(20i64..110);
                    }
                    rivers.add_polyline(chain);
                }
                3 => {
                    let ring = rectangle_ring(x0 + 200, y0 + 200, 500, 300);
                    estuaries.add_ring(ring);
                }
                _ => {}
            }
        }
    }
    SpatialInstance::from_regions([
        ("lakes", lakes),
        ("islands", islands),
        ("rivers", rivers),
        ("estuaries", estuaries),
    ])
}

/// A cadastral map in the style of the IGN "Orange" data set: a city boundary,
/// administrative districts subdividing it, a road network of polylines, and
/// point features (monuments).
pub fn ign_city(scale: Scale, seed: u64) -> SpatialInstance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = scale.grid.max(2);
    let cell = 200i64;
    let side = n as i64 * cell;
    let mut city = Region::new();
    city.add_ring(vec![
        Point::from_ints(0, 0),
        Point::from_ints(side, 0),
        Point::from_ints(side, side),
        Point::from_ints(0, side),
    ]);
    let mut districts = Region::new();
    for i in 0..n {
        for j in 0..n {
            if (i + j) % 2 == 0 {
                districts.add_ring(rectangle_ring(i as i64 * cell, j as i64 * cell, cell, cell));
            }
        }
    }
    let mut roads = Region::new();
    for k in 1..n {
        // Horizontal and vertical roads across the city, offset from district
        // boundaries so crossings have degree 4.
        let offset = k as i64 * cell - cell / 3;
        roads
            .add_polyline(vec![Point::from_ints(-50, offset), Point::from_ints(side + 50, offset)]);
        roads
            .add_polyline(vec![Point::from_ints(offset, -50), Point::from_ints(offset, side + 50)]);
    }
    let mut monuments = Region::new();
    for _ in 0..n {
        monuments.add_point(Point::from_ints(
            rng.gen_range(10..side - 10) | 1,
            rng.gen_range(10..side - 10) | 1,
        ));
    }
    SpatialInstance::from_regions([
        ("city", city),
        ("districts", districts),
        ("roads", roads),
        ("monuments", monuments),
    ])
}

/// Concentric nested rings of alternating regions: depth-`levels` nesting,
/// exercising the connected-component tree and the counting argument of
/// Theorem 3.4 (all rings of a level are isomorphic siblings).
pub fn nested_rings(levels: usize, siblings: usize) -> SpatialInstance {
    let mut a = Region::new();
    let mut b = Region::new();
    let span = 10_000i64;
    for s in 0..siblings.max(1) {
        let offset = s as i64 * span;
        for level in 0..levels.max(1) {
            let inset = level as i64 * 100;
            let ring = rectangle_ring(
                offset + inset,
                inset,
                span - 200 - 2 * inset,
                span - 200 - 2 * inset,
            );
            if level % 2 == 0 {
                a.add_ring(ring);
            } else {
                b.add_ring(ring);
            }
        }
    }
    SpatialInstance::from_regions([("even", a), ("odd", b)])
}

/// `count` disjoint square islands of a single region in the exterior face;
/// with the parity of `count` this is the running example for the
/// fixpoint-vs-counting separation (Theorem 3.4 / Remark after it).
pub fn scattered_islands(count: usize) -> SpatialInstance {
    let mut region = Region::new();
    for i in 0..count {
        region.add_ring(rectangle_ring(i as i64 * 300, 0, 200, 200));
    }
    SpatialInstance::from_regions([("islands", region)])
}

/// The running example of the paper's Figure 1: seven connected components
/// with two levels of nesting (two outer shapes, components embedded in their
/// faces, and further components embedded inside those).
pub fn figure1() -> SpatialInstance {
    // c1: a large region with a hole; c3, c7 inside its face; c4, c5, c6
    // nested one level deeper; c2: a separate component in the exterior face.
    let mut p = Region::new();
    // c1: annulus-like outer shape.
    p.add_ring(rectangle_ring(0, 0, 1000, 1000));
    // c2: separate island in the exterior.
    p.add_ring(rectangle_ring(1200, 0, 300, 300));
    let mut q = Region::new();
    // c3: a ring inside c1's face.
    q.add_ring(rectangle_ring(100, 100, 350, 350));
    // c7: a polyline inside c1's face.
    q.add_polyline(vec![
        Point::from_ints(600, 600),
        Point::from_ints(900, 600),
        Point::from_ints(900, 900),
    ]);
    let mut r = Region::new();
    // c4, c5: two rings inside c3's inner face.
    r.add_ring(rectangle_ring(150, 150, 100, 100));
    r.add_ring(rectangle_ring(300, 150, 100, 100));
    // c6: a point inside c3's inner face.
    r.add_point(Point::from_ints(200, 350));
    SpatialInstance::from_regions([("P", p), ("Q", q), ("R", r)])
}

/// The high-degree worst case: a convex `n`-gon rim region (`n ≥ 3`) plus,
/// as a second region, `n` spokes from the rim's corners to its centre.
///
/// All spokes meet at the hub and nowhere else, so an arrangement builder
/// that tests every pair of segments near the hub does `n(n-1)/2` tests for
/// no crossing at all. The corners are a regular `n`-gon of radius
/// `max(2²⁰, n²)` rounded to integers; the radius keeps the distance of each
/// corner from the chord of its neighbours above 19 units, so rounding by
/// under one unit leaves the rim strictly convex.
pub fn star(n: usize) -> SpatialInstance {
    let n = n.max(3);
    let radius = (1i64 << 20).max((n * n) as i64) as f64;
    let rim: Vec<Point> = (0..n)
        .map(|k| {
            let angle = k as f64 / n as f64 * std::f64::consts::TAU;
            Point::from_ints(
                (radius * angle.cos()).round() as i64,
                (radius * angle.sin()).round() as i64,
            )
        })
        .collect();
    let mut spokes = Region::new();
    for &corner in &rim {
        spokes.add_polyline(vec![corner, Point::origin()]);
    }
    SpatialInstance::from_regions([("rim", Region::polygon(rim)), ("spokes", spokes)])
}

fn rectangle_ring(x0: i64, y0: i64, width: i64, height: i64) -> Vec<Point> {
    vec![
        Point::from_ints(x0, y0),
        Point::from_ints(x0 + width, y0),
        Point::from_ints(x0 + width, y0 + height),
        Point::from_ints(x0, y0 + height),
    ]
}

/// A star-convex polygon ("blob") with `points` corners inside the square of
/// side `extent` anchored at `(x0, y0)`.
fn blob(rng: &mut SmallRng, x0: i64, y0: i64, extent: i64, points: usize) -> Vec<Point> {
    let cx = x0 + extent / 2;
    let cy = y0 + extent / 2;
    let mut ring = Vec::with_capacity(points);
    for k in 0..points {
        // Angles strictly increasing around the centre keep the ring simple.
        let angle = (k as f64 / points as f64) * std::f64::consts::TAU;
        let radius = rng.gen_range((extent / 4)..(extent / 2)) as f64;
        let x = cx + (radius * angle.cos()) as i64;
        let y = cy + (radius * angle.sin()) as i64;
        ring.push(Point::from_ints(x, y));
    }
    // Remove accidental consecutive duplicates caused by rounding.
    ring.dedup();
    if ring.len() >= 2 && ring[0] == *ring.last().unwrap() {
        ring.pop();
    }
    if ring.len() < 3 {
        return vec![
            Point::from_ints(cx - 50, cy - 50),
            Point::from_ints(cx + 50, cy - 50),
            Point::from_ints(cx, cy + 50),
        ];
    }
    ring
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let a = sequoia_landcover(Scale::tiny(), 42);
        let b = sequoia_landcover(Scale::tiny(), 42);
        assert_eq!(a.point_count(), b.point_count());
        let c = sequoia_landcover(Scale::tiny(), 43);
        // Different seeds perturb the lattice differently.
        assert_eq!(a.polygon_count(), c.polygon_count());
    }

    #[test]
    fn landcover_covers_grid() {
        let instance = sequoia_landcover(Scale::tiny(), 1);
        assert_eq!(instance.polygon_count(), 16);
        assert_eq!(instance.schema().len(), 9);
    }

    #[test]
    fn hydro_has_disjoint_features() {
        let instance = sequoia_hydro(Scale::tiny(), 7);
        assert!(instance.polygon_count() > 0);
        assert_eq!(instance.schema().len(), 4);
    }

    #[test]
    fn city_has_all_layers() {
        let instance = ign_city(Scale::tiny(), 3);
        assert_eq!(instance.schema().len(), 4);
        assert!(!instance.region_by_name("roads").unwrap().polylines.is_empty());
        assert!(!instance.region_by_name("monuments").unwrap().points.is_empty());
    }

    #[test]
    fn nested_rings_scale_with_levels() {
        let shallow = nested_rings(2, 1);
        let deep = nested_rings(5, 1);
        assert!(deep.point_count() > shallow.point_count());
        assert_eq!(scattered_islands(6).polygon_count(), 6);
    }

    #[test]
    fn star_rim_is_strictly_convex() {
        for n in [3, 64, 2048, 100_000] {
            let instance = star(n);
            let rim = &instance.region_by_name("rim").unwrap().rings[0];
            assert_eq!(rim.len(), n);
            let int = |p: &Point| (p.x.as_integer().unwrap(), p.y.as_integer().unwrap());
            for k in 0..n {
                let (a, b, c) = (int(&rim[k]), int(&rim[(k + 1) % n]), int(&rim[(k + 2) % n]));
                let turn = (b.0 - a.0) * (c.1 - a.1) - (b.1 - a.1) * (c.0 - a.0);
                assert!(turn > 0, "n = {n}: corner {} is not a strict left turn", k + 1);
            }
            assert_eq!(instance.region_by_name("spokes").unwrap().polylines.len(), n);
        }
    }

    #[test]
    fn figure1_builds() {
        let instance = figure1();
        assert_eq!(instance.schema().len(), 3);
        assert!(instance.point_count() > 20);
    }
}

//! The optimised `top(I)` pipeline must be observationally identical to the
//! frozen pre-optimisation reference path (`top_naive`): same vertex / edge /
//! face counts and the same canonical code, on the seeded cartographic
//! workloads and on randomly generated instances.
//!
//! `top_naive` runs the seed arrangement builder under slow-mode rational
//! arithmetic (see `topo-arrangement`'s `naive` module); these tests are the
//! guard-rail that keeps every fast path honest. The perf harness
//! (`bench_runner`, `BENCH_3.json`) measures the speedup between the two
//! paths that these tests prove equivalent; `canonical_equivalence.rs` does
//! the same job for the canonicalisation reference path.

use proptest::prelude::*;
use topo_core::arrangement::{
    build_arrangement, build_arrangement_from_splits, build_arrangement_naive,
    compute_split_points, Arrangement, ArrangementInput,
};
use topo_core::{top, top_naive, Region, SpatialInstance};
use topo_datagen::{
    figure1, ign_city, nested_rings, scattered_islands, sequoia_hydro, sequoia_landcover, star,
    Scale,
};
use topo_geometry::{Point, Rational, Segment};

fn assert_pipelines_agree(instance: &SpatialInstance, label: &str) {
    let fast = top(instance);
    let slow = top_naive(instance);
    assert_eq!(fast.vertex_count(), slow.vertex_count(), "vertex count diverged on {label}");
    assert_eq!(fast.edge_count(), slow.edge_count(), "edge count diverged on {label}");
    assert_eq!(fast.face_count(), slow.face_count(), "face count diverged on {label}");
    assert_eq!(fast.canonical_code(), slow.canonical_code(), "canonical code diverged on {label}");
}

#[test]
fn running_examples_agree() {
    assert_pipelines_agree(&figure1(), "figure1");
    assert_pipelines_agree(&nested_rings(3, 2), "nested_rings(3, 2)");
    assert_pipelines_agree(&scattered_islands(5), "scattered_islands(5)");
}

#[test]
fn seeded_cartographic_workloads_agree() {
    for seed in [1u64, 7, 42] {
        let scale = Scale::tiny();
        assert_pipelines_agree(
            &sequoia_landcover(scale, seed),
            &format!("sequoia_landcover(tiny, {seed})"),
        );
        assert_pipelines_agree(
            &sequoia_hydro(scale, seed),
            &format!("sequoia_hydro(tiny, {seed})"),
        );
        assert_pipelines_agree(&ign_city(scale, seed), &format!("ign_city(tiny, {seed})"));
    }
}

/// A small random instance of rectangles and isolated points (same shape as
/// the structural property tests, including crossing and nested boundaries).
fn small_instance() -> impl Strategy<Value = SpatialInstance> {
    let rect = (0i64..6, 0i64..6, 1i64..4, 1i64..4)
        .prop_map(|(x, y, w, h)| (x * 100, y * 100, x * 100 + w * 60, y * 100 + h * 60));
    let rects = proptest::collection::vec(rect, 1..5);
    let points = proptest::collection::vec((0i64..40, 0i64..40), 0..3);
    (rects, points).prop_map(|(rects, points)| {
        let mut a = Region::new();
        let mut b = Region::new();
        for (i, (x0, y0, x1, y1)) in rects.into_iter().enumerate() {
            let (dx, dy) = (7 * i as i64, 11 * i as i64);
            let (x0, y0, x1, y1) = (x0 + dx, y0 + dy, x1 + dx, y1 + dy);
            let ring = vec![
                Point::from_ints(x0, y0),
                Point::from_ints(x1, y0),
                Point::from_ints(x1, y1),
                Point::from_ints(x0, y1),
            ];
            if i % 2 == 0 {
                a.add_ring(ring);
            } else {
                b.add_ring(ring);
            }
        }
        for (x, y) in points {
            b.add_point(Point::from_ints(x * 17 + 3, y * 13 + 1));
        }
        SpatialInstance::from_regions([("A", a), ("B", b)])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_instances_agree(instance in small_instance()) {
        assert_pipelines_agree(&instance, "random instance");
    }
}

/// Asserts two arrangements are identical: ids, incidences, sources and
/// rotation orders.
fn assert_arrangements_equal(fast: &Arrangement, reference: &Arrangement, label: &str) {
    assert_eq!(fast.vertices, reference.vertices, "vertices diverged on {label}");
    assert_eq!(fast.faces.len(), reference.faces.len(), "face count diverged on {label}");
    assert_eq!(fast.exterior_face, reference.exterior_face, "exterior diverged on {label}");
    assert_eq!(fast.rotations, reference.rotations, "rotations diverged on {label}");
    assert_eq!(fast.isolated, reference.isolated, "isolated diverged on {label}");
    assert_eq!(fast.point_vertices, reference.point_vertices, "points diverged on {label}");
    assert_eq!(fast.edges.len(), reference.edges.len(), "edge count diverged on {label}");
    for (a, b) in fast.edges.iter().zip(&reference.edges) {
        assert_eq!((a.v1, a.v2, &a.sources), (b.v1, b.v2, &b.sources), "edge on {label}");
        assert_eq!((a.face_left, a.face_right), (b.face_left, b.face_right), "edge on {label}");
    }
    for (a, b) in fast.faces.iter().zip(&reference.faces) {
        assert_eq!(a.bounded, b.bounded, "face on {label}");
        assert_eq!(a.boundary_edges, b.boundary_edges, "face on {label}");
        assert_eq!(a.boundary_vertices, b.boundary_vertices, "face on {label}");
    }
}

/// The optimised builder, the frozen reference builder and the two-phase
/// split path agree on `input`.
fn assert_builders_agree(input: &ArrangementInput, label: &str) {
    let fast = build_arrangement(input);
    assert_arrangements_equal(&fast, &build_arrangement_naive(input), label);
    let two_phase = build_arrangement_from_splits(input, compute_split_points(input));
    assert_arrangements_equal(&two_phase, &fast, &format!("{label}, split phase apart"));
}

#[test]
fn overlap_sharing_an_endpoint_is_split() {
    // Two collinear segments from one shared endpoint: the shorter one's far
    // end must split the longer one, leaving two edges, not two overlapping.
    let mut input = ArrangementInput::new();
    input.add_segment(Segment::new(Point::from_ints(0, 0), Point::from_ints(10, 0)), 0);
    input.add_segment(Segment::new(Point::from_ints(0, 0), Point::from_ints(4, 0)), 1);
    assert_builders_agree(&input, "shared-endpoint overlap");
    let arrangement = build_arrangement(&input);
    assert_eq!(arrangement.vertices.len(), 3);
    assert_eq!(arrangement.edges.len(), 2);
}

#[test]
fn star_matches_the_references() {
    // A hub where every spoke meets every other: the builder pairs none of
    // them, and still matches the references that test every pair.
    for n in [3, 4, 7, 16, 64] {
        let instance = star(n);
        assert_builders_agree(&instance.to_arrangement_input(), &format!("star({n})"));
        assert_pipelines_agree(&instance, &format!("star({n})"));
    }
}

#[test]
fn collinear_runs_through_shared_endpoints_are_split() {
    // Three segments along one ray from the origin (one of them twice, once
    // reversed), two along the opposite ray, and one more chained on at the
    // far end: every shorter one's far end splits each longer one.
    let p = Point::from_ints;
    let mut input = ArrangementInput::new();
    for (a, b) in [
        (p(0, 0), p(6, 3)),
        (p(2, 1), p(0, 0)),
        (p(0, 0), p(4, 2)),
        (p(0, 0), p(2, 1)),
        (p(0, 0), p(-4, -2)),
        (p(-2, -1), p(0, 0)),
        (p(6, 3), p(4, 2)),
        (p(0, 0), p(0, 5)),
    ] {
        input.add_segment(Segment::new(a, b), input.segments.len() as u32 % 3);
    }
    assert_builders_agree(&input, "collinear runs");
    let arrangement = build_arrangement(&input);
    assert_eq!((arrangement.vertices.len(), arrangement.edges.len()), (7, 6));
}

/// One generated piece of a segment soup: a segment on a 6 × 6 lattice, and
/// which degenerate companion to add beside it.
type Piece = ((i64, i64), (i64, i64), u32);

/// Builds a soup from its pieces and isolated lattice points, with every
/// coordinate multiplied by `scale`. Each piece adds its segment `a–b` plus
/// one companion by `kind`: nothing, an identical or a reversed duplicate, a
/// collinear partial overlap beyond `b`, a sub-segment sharing `a`, a
/// T-junction from the midpoint, a non-collinear segment sharing `b`, or an
/// isolated point at the midpoint.
fn soup(pieces: &[Piece], points: &[(i64, i64)], scale: Rational) -> ArrangementInput {
    // `p` moved by `scale × (ox, oy)`.
    let off = |p: Point, (ox, oy): (i64, i64)| {
        Point::new(p.x + scale * Rational::from_int(ox), p.y + scale * Rational::from_int(oy))
    };
    let int = |q: (i64, i64)| off(Point::origin(), q);
    let mut input = ArrangementInput::new();
    for (k, &(a, b, kind)) in pieces.iter().enumerate() {
        let b = if a == b { (b.0 + 1, b.1) } else { b };
        let (along, across) = ((b.0 - a.0, b.1 - a.1), (a.1 - b.1, b.0 - a.0));
        let (pa, pb) = (int(a), int(b));
        let mid = pa.midpoint(&pb);
        let source = k as u32 % 3;
        input.add_segment(Segment::new(pa, pb), source);
        let companion = match kind {
            1 => Segment::new(pa, pb),
            2 => Segment::new(pb, pa),
            3 => Segment::new(mid, off(pb, along)),
            4 => Segment::new(pa, mid),
            5 => Segment::new(mid, off(mid, across)),
            6 => Segment::new(pb, off(pa, across)),
            7 => {
                input.add_point(mid, 3);
                continue;
            }
            _ => continue,
        };
        input.add_segment(companion, source + 1);
    }
    for &p in points {
        input.add_point(int(p), 4);
    }
    input
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential test of arrangement phases 1–2 on degenerate segment
    /// soups: shared endpoints, collinear partial overlaps, identical and
    /// reversed duplicates, T-junctions and isolated points on segments,
    /// each also at 3/2 scale, which puts odd lattice points at
    /// half-integers.
    #[test]
    fn degenerate_segment_soups_agree(
        pieces in proptest::collection::vec(((0i64..6, 0i64..6), (0i64..6, 0i64..6), 0u32..9), 1..9),
        points in proptest::collection::vec((0i64..6, 0i64..6), 0..4),
    ) {
        for (scale, label) in [(Rational::from_int(1), "soup"), (Rational::new(3, 2), "3/2 soup")] {
            assert_builders_agree(&soup(&pieces, &points, scale), label);
        }
    }
}

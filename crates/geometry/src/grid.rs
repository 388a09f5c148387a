//! Uniform grid over segment bounding boxes, keyed by input-endpoint ids.
//!
//! The arrangement builder needs the pairs of input segments that might meet
//! away from a shared input endpoint. An all-pairs scan is quadratic and far
//! too slow for the cartography-scale workloads of the benchmark harness, so
//! candidate pairs are generated from a uniform grid keyed on `f64` boxes.
//! The grid is purely a *pruning* structure: every candidate pair is verified
//! with the exact predicates afterwards.
//!
//! Every segment carries the ids of its two endpoints (the caller interns
//! equal points to equal ids). Two segments sharing an id are never paired:
//! distinct segments through a common point meet anywhere else only when
//! they are collinear, which the caller settles at the shared point without
//! the grid. So a high-degree vertex (a hub with `n` spokes, all in its cell)
//! costs `n²/2` integer compares, not `n²/2` geometric tests.
//!
//! Box tests run in `f64`. A box whose coordinates are all exact in `f64`
//! (integers up to 2⁵³, half-integers and other dyadic values) is decided in
//! `f64` alone; any other box is padded outward by a bound on its rounding,
//! and only a pair whose padded boxes overlap while their unpadded cores do
//! not — a near tie — falls back to the exact rational test.
//!
//! The cell lattice itself is the shared flat-CSR [`BoxLattice`]. Two boxes
//! sharing several cells are paired only in the lowest cell both cover, so
//! every candidate pair is emitted exactly once and needs no deduplication;
//! queries can reuse a caller-provided scratch buffer
//! ([`SegmentGrid::query_box_into`]).

use crate::bbox::BBox;
use crate::lattice::{BoxLattice, F64Box};
use crate::segment::Segment;

/// A uniform spatial hash over segments with interned endpoints.
pub struct SegmentGrid<'a> {
    segments: &'a [Segment],
    ends: &'a [[u32; 2]],
    lattice: BoxLattice,
    /// Each segment's `f64` box, padded outward by `pads[i]`.
    boxes: Vec<F64Box>,
    /// Each box's outward padding: 0 when the box is exact in `f64`.
    pads: Vec<f64>,
    /// Each box's lowest lattice cell ([`BoxLattice::low_cell`]).
    low_cells: Vec<(i64, i64)>,
}

/// An `f64` box padded outward so that it contains the exact box it
/// approximates, and the padding used: 0 when every coordinate converted
/// exactly (`exact`).
///
/// `Rational::to_f64` errs by under 3 units of 2⁻⁵³ relative to the value,
/// so a pad of 2⁻⁵⁰ × the largest coordinate magnitude covers it and the
/// rounding of the padding itself with room to spare.
fn padded((x0, y0, x1, y1): F64Box, exact: bool) -> (F64Box, f64) {
    if exact {
        return ((x0, y0, x1, y1), 0.0);
    }
    let pad = x0.abs().max(y0.abs()).max(x1.abs()).max(y1.abs()) * (4.0 * f64::EPSILON);
    ((x0 - pad, y0 - pad, x1 + pad, y1 + pad), pad)
}

/// A segment's padded `f64` box, from its endpoints' `f64` coordinates.
fn segment_box(s: &Segment) -> (F64Box, f64) {
    let ((ax, ay), (bx, by)) = (s.a.to_f64(), s.b.to_f64());
    let exact = [s.a.x, s.a.y, s.b.x, s.b.y].iter().all(|v| v.is_f64_exact());
    padded((ax.min(bx), ay.min(by), ax.max(bx), ay.max(by)), exact)
}

/// Closed-box overlap in `f64`, with each box shrunk by `shrink` per side.
fn overlaps(a: &F64Box, b: &F64Box, shrink: f64) -> bool {
    a.0 + shrink <= b.2 - shrink
        && b.0 + shrink <= a.2 - shrink
        && a.1 + shrink <= b.3 - shrink
        && b.1 + shrink <= a.3 - shrink
}

impl<'a> SegmentGrid<'a> {
    /// Builds a grid over the given segments; `ends[i]` holds the ids of
    /// `segments[i]`'s endpoints, equal exactly when the points are equal.
    ///
    /// The cell size is chosen so the expected number of segments per cell is
    /// a small constant for uniformly spread data (at most ~2048 cells per
    /// side, and a total cell count linear in the segment count).
    pub fn build(segments: &'a [Segment], ends: &'a [[u32; 2]]) -> Self {
        assert_eq!(segments.len(), ends.len(), "one endpoint-id pair per segment");
        let (boxes, pads): (Vec<F64Box>, Vec<f64>) = segments.iter().map(segment_box).unzip();
        let lattice = BoxLattice::build(&boxes, 2048);
        let low_cells = boxes.iter().map(|b| lattice.low_cell(*b)).collect();
        SegmentGrid { segments, ends, lattice, boxes, pads, low_cells }
    }

    /// Whether segment `i`'s exact bounding box meets the exact box `exact`,
    /// given `exact`'s padded `f64` box and padding.
    fn box_meets(&self, i: usize, b: &F64Box, pad: f64, exact: impl FnOnce() -> BBox) -> bool {
        let a = &self.boxes[i];
        if !overlaps(a, b, 0.0) {
            return false;
        }
        // Padded boxes contain the exact ones, and shrinking each by twice
        // its pad leaves a box inside the exact one, so only a near tie
        // reaches the rational test.
        let shrink = 2.0 * self.pads[i].max(pad);
        shrink == 0.0 || overlaps(a, b, shrink) || self.segments[i].bbox().intersects(&exact())
    }

    /// All pairs `(i, j)` with `i < j` that share no endpoint id and whose
    /// exact bounding boxes intersect, sorted ascending and unique.
    ///
    /// Every pair of segments that meet is either included or shares an
    /// endpoint id (the caller handles those at the shared point).
    pub fn candidate_pairs(&self) -> Vec<(usize, usize)> {
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (cell, bucket) in self.lattice.occupied_cells() {
            // Buckets hold box indices ascending, so `i < j`.
            for (k, &i) in bucket.iter().enumerate() {
                let i = i as usize;
                let ((xi, yi), [ai, bi]) = (self.low_cells[i], self.ends[i]);
                for &j in &bucket[k + 1..] {
                    let j = j as usize;
                    let ((xj, yj), [aj, bj]) = (self.low_cells[j], self.ends[j]);
                    // The lowest cell both boxes cover is the per-axis max of
                    // their lowest cells; the pair is emitted there only.
                    if (xi.max(xj), yi.max(yj)) == cell
                        && ai != aj
                        && ai != bj
                        && bi != aj
                        && bi != bj
                        && self
                            .box_meets(i, &self.boxes[j], self.pads[j], || self.segments[j].bbox())
                    {
                        pairs.push((i, j));
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    /// Indices of segments whose bounding box intersects `query`, sorted
    /// ascending.
    pub fn query_box(&self, query: &BBox) -> Vec<usize> {
        let mut out = Vec::new();
        self.query_box_into(query, &mut out);
        out
    }

    /// Like [`SegmentGrid::query_box`], but clearing and filling a
    /// caller-provided buffer so repeated probes perform no allocation.
    pub fn query_box_into(&self, query: &BBox, out: &mut Vec<usize>) {
        out.clear();
        let exact = [query.min_x, query.min_y, query.max_x, query.max_y];
        let (q, pad) = padded(query.to_f64(), exact.iter().all(|v| v.is_f64_exact()));
        self.lattice.for_each_in_range(q, |i| {
            if self.box_meets(i as usize, &q, pad, || *query) {
                out.push(i as usize);
            }
        });
        out.sort_unstable();
        out.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use crate::rational::Rational;
    use crate::segment::SegmentIntersection;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn seg(ax: i64, ay: i64, bx: i64, by: i64) -> Segment {
        Segment::new(Point::from_ints(ax, ay), Point::from_ints(bx, by))
    }

    /// Every coordinate multiplied by `k`.
    fn scaled(segments: &[Segment], k: Rational) -> Vec<Segment> {
        let scale = |p: Point| Point::new(p.x * k, p.y * k);
        segments.iter().map(|s| Segment::new(scale(s.a), scale(s.b))).collect()
    }

    /// Endpoint ids by first occurrence: equal points get equal ids.
    fn endpoint_ids(segments: &[Segment]) -> Vec<[u32; 2]> {
        let mut ids: BTreeMap<Point, u32> = BTreeMap::new();
        let mut id = |p: Point| {
            let next = ids.len() as u32;
            *ids.entry(p).or_insert(next)
        };
        segments.iter().map(|s| [id(s.a), id(s.b)]).collect()
    }

    /// 120 random segments in a 100 × 100 square, drawn from a coarse
    /// lattice so that many share endpoints.
    fn random_segments() -> Vec<Segment> {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut segments = Vec::new();
        for _ in 0..120 {
            let mut coord = || rng.gen_range(-10i64..10) * 5;
            let (ax, ay, mut bx, mut by) = (coord(), coord(), coord(), coord());
            if (ax, ay) == (bx, by) {
                bx += 1;
                by += 1;
            }
            segments.push(seg(ax, ay, bx, by));
        }
        segments
    }

    /// A city block pattern: short building edges, which keep the cells
    /// small, crossed by long roads spanning many cells, including diagonals
    /// and roads along shared lines.
    fn city_roads() -> Vec<Segment> {
        let mut segments = Vec::new();
        for bx in 0..12 {
            for by in 0..12 {
                let (x, y) = (bx * 10 + 2, by * 10 + 2);
                segments.push(seg(x, y, x + 3, y));
                segments.push(seg(x, y, x, y + 3));
            }
        }
        for k in 0..12 {
            segments.push(seg(0, k * 10, 120, k * 10));
            segments.push(seg(k * 10, 0, k * 10, 120));
        }
        segments.push(seg(0, 0, 120, 120));
        segments.push(seg(0, 120, 120, 0));
        segments.push(seg(0, 40, 60, 40));
        segments.push(seg(30, 40, 120, 40));
        segments
    }

    /// The workloads at integer, dyadic (3/2) and non-dyadic (1/3 and 7/10)
    /// scales: the last two take the padded near-tie path.
    fn workloads() -> Vec<(String, Vec<Segment>)> {
        let mut out = Vec::new();
        for (name, segments) in [("random", random_segments()), ("city roads", city_roads())] {
            for (n, d) in [(1, 1), (3, 2), (1, 3), (7, 10)] {
                out.push((format!("{name} × {n}/{d}"), scaled(&segments, Rational::new(n, d))));
            }
        }
        out
    }

    /// Every pair `(i, j)`, `i < j`, whose exact boxes overlap and whose
    /// endpoint ids are disjoint, by brute force.
    fn box_overlapping_pairs(segments: &[Segment], ends: &[[u32; 2]]) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for i in 0..segments.len() {
            for j in i + 1..segments.len() {
                let shared = ends[i].iter().any(|e| ends[j].contains(e));
                if !shared && segments[i].bbox().intersects(&segments[j].bbox()) {
                    pairs.push((i, j));
                }
            }
        }
        pairs
    }

    #[test]
    fn candidate_pairs_are_the_box_overlapping_pairs_sharing_no_endpoint() {
        for (name, segments) in workloads() {
            let ends = endpoint_ids(&segments);
            let pairs = SegmentGrid::build(&segments, &ends).candidate_pairs();
            assert_eq!(pairs, box_overlapping_pairs(&segments, &ends), "{name}");
        }
        // The city case is only meaningful if pairs do share several cells:
        // the diagonal road must cover many.
        let segments = city_roads();
        let ends = endpoint_ids(&segments);
        let grid = SegmentGrid::build(&segments, &ends);
        let road = (segments.len() - 4) as u32;
        let spanned = grid.lattice.occupied_cells().filter(|(_, b)| b.contains(&road)).count();
        assert!(spanned > 16, "the diagonal road covers only {spanned} cells");
    }

    /// Every pair of segments that meet is a candidate or shares an
    /// endpoint id.
    #[test]
    fn grid_finds_all_intersecting_pairs() {
        for (name, segments) in workloads() {
            let ends = endpoint_ids(&segments);
            let candidates = SegmentGrid::build(&segments, &ends).candidate_pairs();
            let mut shared_meeting = 0;
            for i in 0..segments.len() {
                for j in i + 1..segments.len() {
                    if segments[i].intersect(&segments[j]) == SegmentIntersection::None {
                        continue;
                    }
                    if ends[i].iter().any(|e| ends[j].contains(e)) {
                        shared_meeting += 1;
                    } else {
                        assert!(candidates.binary_search(&(i, j)).is_ok(), "{name}: ({i}, {j})");
                    }
                }
            }
            assert!(shared_meeting > 0, "{name}: no pair shares an endpoint");
        }
    }

    #[test]
    fn near_ties_at_non_dyadic_coordinates_are_decided_exactly() {
        // Boxes touching at x = 1/3 meet; boxes a hair apart do not, though
        // both gaps round to the same `f64`.
        let third = Rational::new(1, 3);
        let hair = Rational::new(1, 3) + Rational::new(1, 1 << 70);
        let at = |x: Rational, y: i64| Point::new(x, Rational::from_int(y));
        let o = Point::from_ints(0, 0);
        for (x, expected) in [(third, vec![(0, 1)]), (hair, vec![])] {
            let segments = [Segment::new(o, at(third, 2)), Segment::new(at(x, 1), at(x + x, 3))];
            let ends = [[0, 1], [2, 3]];
            assert_eq!(SegmentGrid::build(&segments, &ends).candidate_pairs(), expected);
        }
    }

    #[test]
    fn a_hub_pairs_no_spokes() {
        let spokes: Vec<Segment> =
            (0..64).map(|k| seg(0, 0, (k % 8) * 10 - 35, (k / 8) * 10 - 35)).collect();
        let ends = endpoint_ids(&spokes);
        assert!(SegmentGrid::build(&spokes, &ends).candidate_pairs().is_empty());
    }

    #[test]
    fn candidate_pairs_are_sorted_and_unique() {
        let segments =
            vec![seg(0, 0, 10, 10), seg(0, 10, 10, 0), seg(2, 2, 8, 8), seg(5, 0, 5, 10)];
        let ends = endpoint_ids(&segments);
        let pairs = SegmentGrid::build(&segments, &ends).candidate_pairs();
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(pairs, sorted);
    }

    #[test]
    fn empty_grid() {
        let grid = SegmentGrid::build(&[], &[]);
        assert!(grid.candidate_pairs().is_empty());
        assert!(grid.query_box(&BBox::from_points(&[Point::from_ints(0, 0)])).is_empty());
    }

    #[test]
    fn query_box_returns_overlapping() {
        let segments = vec![seg(0, 0, 1, 1), seg(10, 10, 11, 11), seg(0, 1, 1, 0)];
        let ends = endpoint_ids(&segments);
        let grid = SegmentGrid::build(&segments, &ends);
        let q = BBox::from_points(&[Point::from_ints(0, 0), Point::from_ints(2, 2)]);
        let hits = grid.query_box(&q);
        assert_eq!(hits, vec![0, 2]);
    }

    #[test]
    fn query_box_reuses_scratch_buffer() {
        let segments = vec![seg(0, 0, 1, 1), seg(10, 10, 11, 11), seg(0, 1, 1, 0)];
        let ends = endpoint_ids(&segments);
        let grid = SegmentGrid::build(&segments, &ends);
        let mut scratch = vec![99usize; 8];
        let q1 = BBox::from_points(&[Point::from_ints(0, 0), Point::from_ints(2, 2)]);
        grid.query_box_into(&q1, &mut scratch);
        assert_eq!(scratch, vec![0, 2]);
        let q2 = BBox::from_points(&[Point::from_ints(10, 10)]);
        grid.query_box_into(&q2, &mut scratch);
        assert_eq!(scratch, vec![1]);
    }

    #[test]
    fn query_far_outside_the_data_is_cheap_and_empty() {
        let segments = vec![seg(0, 0, 1, 1)];
        let ends = endpoint_ids(&segments);
        let grid = SegmentGrid::build(&segments, &ends);
        // A box billions of cells away: the clamped cell range must not walk
        // the lattice, and the box filter must reject the lone segment.
        let q = BBox::from_points(&[
            Point::from_ints(5_000_000_000, 5_000_000_000),
            Point::from_ints(9_000_000_000, 9_000_000_000),
        ]);
        assert!(grid.query_box(&q).is_empty());
    }
}

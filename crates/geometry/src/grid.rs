//! Uniform grid over segment bounding boxes.
//!
//! The arrangement builder needs all pairs of input segments that might
//! intersect. An all-pairs scan is quadratic and far too slow for the
//! cartography-scale workloads of the benchmark harness, so candidate pairs
//! are generated from a uniform grid keyed on `f64` approximations of the
//! segment bounding boxes. The grid is purely a *pruning* structure: every
//! candidate pair is verified with the exact predicates afterwards, and the
//! conservative box test guarantees no intersecting pair is missed.
//!
//! The cell lattice itself is the shared flat-CSR [`BoxLattice`]. Two boxes
//! sharing several cells are paired only in the lowest cell both cover, so
//! every candidate pair is emitted exactly once and needs no deduplication;
//! queries can reuse a caller-provided scratch buffer
//! ([`SegmentGrid::query_box_into`]).

use crate::bbox::BBox;
use crate::lattice::BoxLattice;
use crate::segment::Segment;

/// A uniform spatial hash over segments.
pub struct SegmentGrid {
    lattice: BoxLattice,
    boxes: Vec<BBox>,
    /// Each box's lowest lattice cell ([`BoxLattice::low_cell`]).
    low_cells: Vec<(i64, i64)>,
}

impl SegmentGrid {
    /// Builds a grid over the given segments.
    ///
    /// The cell size is chosen so the expected number of segments per cell is
    /// a small constant for uniformly spread data (at most ~2048 cells per
    /// side, and a total cell count linear in the segment count).
    pub fn build(segments: &[Segment]) -> Self {
        let boxes: Vec<BBox> = segments.iter().map(|s| s.bbox()).collect();
        let f64_boxes: Vec<(f64, f64, f64, f64)> = boxes.iter().map(|b| b.to_f64()).collect();
        let lattice = BoxLattice::build(&f64_boxes, 2048);
        let low_cells = f64_boxes.iter().map(|b| lattice.low_cell(*b)).collect();
        SegmentGrid { lattice, boxes, low_cells }
    }

    /// All pairs `(i, j)` with `i < j` whose grid cells overlap and whose
    /// exact bounding boxes intersect, sorted ascending and unique. Every
    /// actually-intersecting pair of segments is included.
    pub fn candidate_pairs(&self) -> Vec<(usize, usize)> {
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for (cell, bucket) in self.lattice.occupied_cells() {
            // Buckets hold box indices ascending, so `i < j`.
            for (k, &i) in bucket.iter().enumerate() {
                let (i, (xi, yi)) = (i as usize, self.low_cells[i as usize]);
                for &j in &bucket[k + 1..] {
                    let (j, (xj, yj)) = (j as usize, self.low_cells[j as usize]);
                    // The lowest cell both boxes cover is the per-axis max of
                    // their lowest cells; the pair is emitted there only.
                    if (xi.max(xj), yi.max(yj)) == cell && self.boxes[i].intersects(&self.boxes[j])
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
        self.lattice.for_each_in_range(query.to_f64(), |i| {
            if self.boxes[i as usize].intersects(query) {
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
    use crate::segment::SegmentIntersection;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn seg(ax: i64, ay: i64, bx: i64, by: i64) -> Segment {
        Segment::new(Point::from_ints(ax, ay), Point::from_ints(bx, by))
    }

    /// 120 random segments in a 100 × 100 square.
    fn random_segments() -> Vec<Segment> {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut segments = Vec::new();
        for _ in 0..120 {
            let ax = rng.gen_range(-50..50);
            let ay = rng.gen_range(-50..50);
            let mut bx = rng.gen_range(-50..50);
            let mut by = rng.gen_range(-50..50);
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

    /// Every box-overlapping pair `(i, j)`, `i < j`, by brute force.
    fn box_overlapping_pairs(segments: &[Segment]) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for i in 0..segments.len() {
            for j in i + 1..segments.len() {
                if segments[i].bbox().intersects(&segments[j].bbox()) {
                    pairs.push((i, j));
                }
            }
        }
        pairs
    }

    #[test]
    fn candidate_pairs_are_exactly_the_box_overlapping_pairs() {
        for (name, segments) in [("random", random_segments()), ("city roads", city_roads())] {
            let pairs = grid_pairs(&segments);
            assert_eq!(pairs, box_overlapping_pairs(&segments), "{name}");
        }
        // The city case is only meaningful if pairs do share several cells:
        // the diagonal road must cover many.
        let segments = city_roads();
        let grid = SegmentGrid::build(&segments);
        let road = (segments.len() - 4) as u32;
        let spanned = grid.lattice.occupied_cells().filter(|(_, b)| b.contains(&road)).count();
        assert!(spanned > 16, "the diagonal road covers only {spanned} cells");
    }

    #[test]
    fn grid_finds_all_intersecting_pairs() {
        let segments = random_segments();
        // Ground truth by brute force.
        let mut truth = std::collections::HashSet::new();
        for i in 0..segments.len() {
            for j in i + 1..segments.len() {
                if segments[i].intersect(&segments[j]) != SegmentIntersection::None {
                    truth.insert((i, j));
                }
            }
        }
        let grid = SegmentGrid::build(&segments);
        let candidates: std::collections::HashSet<(usize, usize)> =
            grid.candidate_pairs().into_iter().collect();
        for pair in &truth {
            assert!(candidates.contains(pair), "missing intersecting pair {pair:?}");
        }
    }

    #[test]
    fn candidate_pairs_are_sorted_and_unique() {
        let segments =
            vec![seg(0, 0, 10, 10), seg(0, 10, 10, 0), seg(2, 2, 8, 8), seg(5, 0, 5, 10)];
        let pairs = grid_pairs(&segments);
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(pairs, sorted);
    }

    fn grid_pairs(segments: &[Segment]) -> Vec<(usize, usize)> {
        SegmentGrid::build(segments).candidate_pairs()
    }

    #[test]
    fn empty_grid() {
        let grid = SegmentGrid::build(&[]);
        assert!(grid.candidate_pairs().is_empty());
        assert!(grid.query_box(&BBox::from_points(&[Point::from_ints(0, 0)])).is_empty());
    }

    #[test]
    fn query_box_returns_overlapping() {
        let segments = vec![seg(0, 0, 1, 1), seg(10, 10, 11, 11), seg(0, 1, 1, 0)];
        let grid = SegmentGrid::build(&segments);
        let q = BBox::from_points(&[Point::from_ints(0, 0), Point::from_ints(2, 2)]);
        let hits = grid.query_box(&q);
        assert_eq!(hits, vec![0, 2]);
    }

    #[test]
    fn query_box_reuses_scratch_buffer() {
        let segments = vec![seg(0, 0, 1, 1), seg(10, 10, 11, 11), seg(0, 1, 1, 0)];
        let grid = SegmentGrid::build(&segments);
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
        let grid = SegmentGrid::build(&segments);
        // A box billions of cells away: the clamped cell range must not walk
        // the lattice, and the exact box filter must reject the lone segment.
        let q = BBox::from_points(&[
            Point::from_ints(5_000_000_000, 5_000_000_000),
            Point::from_ints(9_000_000_000, 9_000_000_000),
        ]);
        assert!(grid.query_box(&q).is_empty());
    }
}

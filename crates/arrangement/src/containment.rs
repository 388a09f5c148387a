//! Exact point-in-cycle tests used to nest connected components into faces.
//!
//! A *cycle* here is the closed walk of directed half-edges bounding a face
//! (traced by the builder). Containment is decided with the classical
//! even–odd ray-crossing rule, made exact by rational arithmetic and made
//! degeneracy-free by the half-open convention on edge endpoints. Callers
//! guarantee that the query point never lies on the tested cycle (the point
//! belongs to a different connected component of the arrangement, and
//! distinct components are disjoint point sets).

use topo_geometry::{point_on_segment, BoxLattice, Point, Rational};

/// A face-boundary cycle given by its sequence of directed edges
/// (`from` -> `to` coordinates).
#[derive(Clone, Debug)]
pub(crate) struct CycleGeometry {
    /// Directed edges of the cycle, in traversal order.
    pub directed: Vec<(Point, Point)>,
    /// Conservative bounding box, in `f64`, used only to prune tests.
    pub bbox: (f64, f64, f64, f64),
}

impl CycleGeometry {
    /// Builds a cycle from its directed edges, boxing their endpoints (the
    /// builder boxes from its per-vertex coordinate table instead).
    #[cfg(any(test, feature = "naive-reference"))]
    pub(crate) fn new(directed: Vec<(Point, Point)>) -> Self {
        let mut bbox = (f64::INFINITY, f64::INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY);
        for (a, b) in &directed {
            for p in [a, b] {
                let (x, y) = p.to_f64();
                bbox.0 = bbox.0.min(x);
                bbox.1 = bbox.1.min(y);
                bbox.2 = bbox.2.max(x);
                bbox.3 = bbox.3.max(y);
            }
        }
        CycleGeometry { directed, bbox }
    }

    /// Safety margin compensating for `f64` rounding of rational coordinates:
    /// widening a box by this much makes the float box test conservative.
    /// It scales with the largest magnitude among all four box coordinates,
    /// so a far negative min corner gets a margin above its rounding error.
    fn bbox_eps(&self) -> f64 {
        let (x0, y0, x1, y1) = self.bbox;
        1e-6 * (1.0 + x0.abs().max(y0.abs()).max(x1.abs()).max(y1.abs()))
    }

    /// The cycle's bounding box widened by [`CycleGeometry::bbox_eps`]; a
    /// point outside this box is certainly not enclosed by the cycle.
    fn widened_bbox(&self) -> (f64, f64, f64, f64) {
        let eps = self.bbox_eps();
        (self.bbox.0 - eps, self.bbox.1 - eps, self.bbox.2 + eps, self.bbox.3 + eps)
    }

    /// Quick conservative rejection: true if the point may lie inside.
    fn bbox_may_contain(&self, p: &Point) -> bool {
        let (x, y) = p.to_f64();
        let (x0, y0, x1, y1) = self.widened_bbox();
        x >= x0 && x <= x1 && y >= y0 && y <= y1
    }

    /// Even–odd containment of `p` in the region enclosed by the cycle.
    ///
    /// The caller must guarantee that `p` does not lie on the cycle itself.
    pub(crate) fn contains(&self, p: &Point) -> bool {
        if !self.bbox_may_contain(p) {
            return false;
        }
        let mut crossings = 0usize;
        for (u, w) in &self.directed {
            // Half-open rule: the edge is crossed by the rightward horizontal
            // ray from p iff exactly one endpoint is strictly above the ray
            // (treating an endpoint at exactly p.y as "below").
            let u_above = u.y > p.y;
            let w_above = w.y > p.y;
            if u_above == w_above {
                continue;
            }
            // Crossing x coordinate of the supporting line at height p.y.
            let t = (p.y - u.y) / (w.y - u.y);
            let x_cross = u.x + (w.x - u.x) * t;
            if x_cross > p.x {
                crossings += 1;
            }
        }
        crossings % 2 == 1
    }

    /// True iff `p` lies on the cycle (on one of its edges or vertices).
    pub(crate) fn on_boundary(&self, p: &Point) -> bool {
        self.directed
            .iter()
            .any(|(u, w)| *u == *p || *w == *p || (u != w && point_on_segment(p, u, w)))
    }

    /// A point of this cycle that does not lie on `other`'s boundary, if any.
    /// Candidates are the cycle's vertices and edge midpoints.
    pub(crate) fn witness_off(&self, other: &CycleGeometry) -> Option<Point> {
        for (u, w) in &self.directed {
            if !other.on_boundary(u) {
                return Some(*u);
            }
            if u != w {
                let mid = u.midpoint(w);
                if !other.on_boundary(&mid) {
                    return Some(mid);
                }
            }
        }
        None
    }
}

/// A pruning index over the (widened) `f64` bounding boxes of a set of
/// cycles, backed by the shared flat-CSR [`BoxLattice`].
///
/// Nesting a component or an isolated vertex into a face requires exact
/// point-in-cycle tests against every candidate container. Scanning all
/// positive cycles per probe is `O(components × cycles)`; this index narrows
/// each probe to the cycles whose bounding box can actually contain the probe
/// point, so exact tests only run against genuine candidates. Purely a
/// pruning structure: registration uses each cycle's conservatively widened
/// box, so no true container is ever missed, and callers re-check every
/// candidate exactly.
pub(crate) struct CycleIndex {
    cycles: Vec<CycleGeometry>,
    lattice: BoxLattice,
}

impl CycleIndex {
    /// Builds the index over the given cycles, taking ownership of them
    /// (positions in the vector are what queries report).
    pub(crate) fn build(cycles: Vec<CycleGeometry>) -> Self {
        let boxes: Vec<(f64, f64, f64, f64)> = cycles.iter().map(|c| c.widened_bbox()).collect();
        // Outer contours span the whole map and register everywhere, so the
        // lattice stays coarse (at most 512 cells per side).
        CycleIndex { cycles, lattice: BoxLattice::build(&boxes, 512) }
    }

    /// The innermost cycle that encloses `p` among those `keep` accepts, if
    /// any. `p` must not lie on an accepted cycle; `scratch` is reused
    /// across probes.
    pub(crate) fn innermost_container(
        &self,
        p: &Point,
        keep: impl Fn(usize) -> bool,
        scratch: &mut Vec<usize>,
    ) -> Option<usize> {
        self.candidates_into(p, scratch);
        scratch.retain(|&k| keep(k) && self.cycles[k].contains(p));
        (!scratch.is_empty()).then(|| innermost(scratch, &self.cycles))
    }

    /// Fills `out` with the indices of every cycle whose widened bounding box
    /// may contain `p` (a superset of the cycles actually enclosing `p`:
    /// each cycle is registered in every cell its widened box overlaps, and
    /// out-of-lattice probes clamp to the border cell, which cannot lose a
    /// container because a point outside the global bounds is outside every
    /// cycle).
    fn candidates_into(&self, p: &Point, out: &mut Vec<usize>) {
        out.clear();
        let (x, y) = p.to_f64();
        out.extend(self.lattice.point_bucket(x, y).iter().map(|&i| i as usize));
    }
}

/// Among the cycles in `containers` (all of which even-odd contain the probe
/// point and are therefore totally ordered by region nesting), returns the
/// index of the innermost one.
pub(crate) fn innermost(containers: &[usize], cycles: &[CycleGeometry]) -> usize {
    debug_assert!(!containers.is_empty());
    let mut best = containers[0];
    for &c in &containers[1..] {
        if cycle_nested_in(&cycles[c], &cycles[best]) {
            best = c;
        }
    }
    best
}

/// True iff the region enclosed by `a` is nested inside the region enclosed by
/// `b` (the two regions are known to be comparable).
fn cycle_nested_in(a: &CycleGeometry, b: &CycleGeometry) -> bool {
    if let Some(p) = a.witness_off(b) {
        return b.contains(&p);
    }
    if let Some(p) = b.witness_off(a) {
        return !a.contains(&p);
    }
    // Identical boundaries cannot happen for two distinct face cycles that
    // both contain a common probe point; treat as "not nested" defensively.
    false
}

/// Convenience: exact horizontal-crossing parameter used by tests.
#[allow(dead_code)]
pub(crate) fn crossing_x(u: &Point, w: &Point, y: Rational) -> Rational {
    let t = (y - u.y) / (w.y - u.y);
    u.x + (w.x - u.x) * t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: i64, y: i64) -> Point {
        Point::from_ints(x, y)
    }

    fn square_cycle(x0: i64, y0: i64, size: i64) -> CycleGeometry {
        let a = p(x0, y0);
        let b = p(x0 + size, y0);
        let c = p(x0 + size, y0 + size);
        let d = p(x0, y0 + size);
        CycleGeometry::new(vec![(a, b), (b, c), (c, d), (d, a)])
    }

    #[test]
    fn contains_basic() {
        let sq = square_cycle(0, 0, 10);
        assert!(sq.contains(&p(5, 5)));
        assert!(!sq.contains(&p(15, 5)));
        assert!(!sq.contains(&p(-1, -1)));
    }

    #[test]
    fn antenna_edges_cancel() {
        // A square with an antenna edge traversed twice: parity unchanged.
        let a = p(0, 0);
        let b = p(10, 0);
        let c = p(10, 10);
        let d = p(0, 10);
        let tip = p(5, 5);
        let centerish = p(5, 0);
        let cycle = CycleGeometry::new(vec![
            (a, centerish),
            (centerish, tip),
            (tip, centerish),
            (centerish, b),
            (b, c),
            (c, d),
            (d, a),
        ]);
        assert!(cycle.contains(&p(2, 2)));
        assert!(cycle.contains(&p(8, 8)));
        assert!(!cycle.contains(&p(12, 2)));
    }

    #[test]
    fn nesting() {
        let outer = square_cycle(0, 0, 100);
        let inner = square_cycle(10, 10, 10);
        let cycles = vec![outer, inner];
        assert_eq!(innermost(&[0, 1], &cycles), 1);
        assert_eq!(innermost(&[1, 0], &cycles), 1);
        assert_eq!(innermost(&[0], &cycles), 0);
    }

    /// A box from `(-10^12, 0)` to `(0, 10)` and a probe just right of its
    /// left side whose `f64` x rounds one ulp (about 1.2e-4) left of
    /// `-10^12`. A margin sized by the max corner alone (about 1e-5) is
    /// below that ulp and would reject this true container.
    #[test]
    fn box_margin_covers_a_far_negative_min_corner() {
        let (a, b, c, d) = (p(-1_000_000_000_000, 0), p(0, 0), p(0, 10), p(-1_000_000_000_000, 10));
        let cycle = CycleGeometry::new(vec![(a, b), (b, c), (c, d), (d, a)]);
        let x = Rational::new(-817_087_200_999_999_999_971, 817_087_201);
        let probe = Point::new(x, Rational::from_int(5));
        assert!(x > a.x, "the probe lies inside the square");
        assert!(x.to_f64() < -1e12, "its f64 x rounds outside the unwidened box");
        assert!(cycle.bbox_eps() > 1e12 * f64::EPSILON);
        assert!(cycle.bbox_may_contain(&probe));
        assert!(cycle.contains(&probe));
        let index = CycleIndex::build(vec![cycle]);
        let mut scratch = Vec::new();
        assert_eq!(index.innermost_container(&probe, |_| true, &mut scratch), Some(0));
    }

    #[test]
    fn on_boundary_detection() {
        let sq = square_cycle(0, 0, 10);
        assert!(sq.on_boundary(&p(5, 0)));
        assert!(sq.on_boundary(&p(0, 0)));
        assert!(!sq.on_boundary(&p(5, 5)));
    }

    #[test]
    fn crossing_x_exact() {
        let x = crossing_x(&p(0, 0), &p(10, 10), Rational::from_int(5));
        assert_eq!(x, Rational::from_int(5));
    }

    #[test]
    fn cycle_index_candidates_are_a_superset_of_containers() {
        // A field of small squares plus one map-spanning outer square.
        let mut cycles = Vec::new();
        for i in 0..8i64 {
            for j in 0..8i64 {
                cycles.push(square_cycle(i * 100, j * 100, 60));
            }
        }
        cycles.push(square_cycle(-10, -10, 900));
        let index = CycleIndex::build(cycles);
        let mut candidates = Vec::new();
        for probe in [p(30, 30), p(130, 430), p(770, 50), p(-5, -5), p(2000, 2000)] {
            index.candidates_into(&probe, &mut candidates);
            for (k, cycle) in index.cycles.iter().enumerate() {
                if cycle.contains(&probe) {
                    assert!(
                        candidates.contains(&k),
                        "index missed container {k} for probe {probe:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn cycle_index_empty() {
        let index = CycleIndex::build(Vec::new());
        let mut candidates = vec![7usize];
        index.candidates_into(&p(0, 0), &mut candidates);
        assert!(candidates.is_empty());
    }
}

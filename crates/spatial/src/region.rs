//! Compact semi-linear regions of the plane.

use topo_geometry::{point_on_segment, BBox, Point, Segment};

/// A compact semi-linear region: a finite union of polygon rings (interpreted
/// with even–odd semantics, so nested rings are holes), polylines and isolated
/// points, all closed.
///
/// This is the linear counterpart of the paper's compact semi-algebraic
/// regions; by Theorem 2.2 every semi-algebraic instance is topologically
/// equivalent to a linear one, so the invariant machinery is exercised in full
/// generality.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Region {
    /// Polygon rings. Each ring is a closed polygon given by its corner
    /// points (the closing segment back to the first point is implicit).
    /// Even–odd semantics: a point is in the 2-D part of the region iff a ray
    /// from it crosses the rings an odd number of times.
    pub rings: Vec<Vec<Point>>,
    /// Polylines: one-dimensional pieces given by their vertex chains.
    pub polylines: Vec<Vec<Point>>,
    /// Isolated points.
    pub points: Vec<Point>,
}

impl Region {
    /// Creates an empty region.
    pub fn new() -> Self {
        Region::default()
    }

    /// A region consisting of a single polygon ring.
    ///
    /// # Panics
    /// Panics if the ring has fewer than three points.
    pub fn polygon(ring: Vec<Point>) -> Self {
        let mut r = Region::new();
        r.add_ring(ring);
        r
    }

    /// A rectangle with integer corners `(x0, y0)` and `(x1, y1)`.
    pub fn rectangle(x0: i64, y0: i64, x1: i64, y1: i64) -> Self {
        assert!(x0 < x1 && y0 < y1, "rectangle corners must be ordered");
        Region::polygon(vec![
            Point::from_ints(x0, y0),
            Point::from_ints(x1, y0),
            Point::from_ints(x1, y1),
            Point::from_ints(x0, y1),
        ])
    }

    /// A region consisting of a single polyline.
    ///
    /// # Panics
    /// Panics if the polyline has fewer than two points.
    pub fn polyline(chain: Vec<Point>) -> Self {
        let mut r = Region::new();
        r.add_polyline(chain);
        r
    }

    /// A region consisting of isolated points.
    pub fn point_set(points: Vec<Point>) -> Self {
        Region { rings: Vec::new(), polylines: Vec::new(), points }
    }

    /// Adds a polygon ring.
    ///
    /// # Panics
    /// Panics if the ring has fewer than three points or repeats consecutive
    /// points.
    pub fn add_ring(&mut self, ring: Vec<Point>) {
        assert!(ring.len() >= 3, "polygon ring needs at least three points");
        for i in 0..ring.len() {
            assert_ne!(ring[i], ring[(i + 1) % ring.len()], "repeated consecutive ring point");
        }
        self.rings.push(ring);
    }

    /// Adds a polyline.
    ///
    /// # Panics
    /// Panics if the polyline has fewer than two points or repeats consecutive
    /// points.
    pub fn add_polyline(&mut self, chain: Vec<Point>) {
        assert!(chain.len() >= 2, "polyline needs at least two points");
        for pair in chain.windows(2) {
            assert_ne!(pair[0], pair[1], "repeated consecutive polyline point");
        }
        self.polylines.push(chain);
    }

    /// Adds an isolated point.
    pub fn add_point(&mut self, p: Point) {
        self.points.push(p);
    }

    /// True iff the region has no geometry at all.
    pub fn is_empty(&self) -> bool {
        self.rings.is_empty() && self.polylines.is_empty() && self.points.is_empty()
    }

    /// All boundary segments of the polygon rings.
    pub fn ring_segments(&self) -> Vec<Segment> {
        let mut out = Vec::new();
        for ring in &self.rings {
            for i in 0..ring.len() {
                out.push(Segment::new(ring[i], ring[(i + 1) % ring.len()]));
            }
        }
        out
    }

    /// All segments of the polylines.
    pub fn polyline_segments(&self) -> Vec<Segment> {
        let mut out = Vec::new();
        for chain in &self.polylines {
            for pair in chain.windows(2) {
                out.push(Segment::new(pair[0], pair[1]));
            }
        }
        out
    }

    /// Total number of points used to describe the region (the "raw size"
    /// statistic of the paper's practical-considerations section).
    pub fn point_count(&self) -> usize {
        self.rings.iter().map(|r| r.len()).sum::<usize>()
            + self.polylines.iter().map(|c| c.len()).sum::<usize>()
            + self.points.len()
    }

    /// Bounding box of the region, if it has any geometry.
    pub fn bbox(&self) -> Option<BBox> {
        let mut all: Vec<Point> = Vec::new();
        for ring in &self.rings {
            all.extend_from_slice(ring);
        }
        for chain in &self.polylines {
            all.extend_from_slice(chain);
        }
        all.extend_from_slice(&self.points);
        if all.is_empty() {
            None
        } else {
            Some(BBox::from_points(&all))
        }
    }

    /// True iff `p` lies in the closed region (2-D part, boundary, polylines
    /// or isolated points).
    pub fn contains_point(&self, p: &Point) -> bool {
        self.on_skeleton(p) || self.in_interior_2d(p)
    }

    /// True iff `p` lies on a ring, polyline or isolated point of the region.
    pub fn on_skeleton(&self, p: &Point) -> bool {
        if self.points.iter().any(|q| q == p) {
            return true;
        }
        for s in self.ring_segments().iter().chain(self.polyline_segments().iter()) {
            if point_on_segment(p, &s.a, &s.b) {
                return true;
            }
        }
        false
    }

    /// True iff `p` lies strictly inside the 2-D part of the region (even–odd
    /// over the rings), assuming it is not on any ring.
    pub fn in_interior_2d(&self, p: &Point) -> bool {
        let mut crossings = 0usize;
        for ring in &self.rings {
            for i in 0..ring.len() {
                let u = &ring[i];
                let w = &ring[(i + 1) % ring.len()];
                let u_above = u.y > p.y;
                let w_above = w.y > p.y;
                if u_above == w_above {
                    continue;
                }
                let t = (p.y - u.y) / (w.y - u.y);
                let x_cross = u.x + (w.x - u.x) * t;
                if x_cross > p.x {
                    crossings += 1;
                }
            }
        }
        crossings % 2 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: i64, y: i64) -> Point {
        Point::from_ints(x, y)
    }

    #[test]
    fn rectangle_membership() {
        let r = Region::rectangle(0, 0, 10, 10);
        assert!(r.contains_point(&p(5, 5)));
        assert!(r.contains_point(&p(0, 5))); // boundary
        assert!(r.contains_point(&p(0, 0))); // corner
        assert!(!r.contains_point(&p(11, 5)));
        assert!(!r.contains_point(&p(-1, -1)));
        assert_eq!(r.point_count(), 4);
        assert_eq!(r.ring_segments().len(), 4);
    }

    #[test]
    fn polygon_with_hole() {
        let mut r = Region::rectangle(0, 0, 10, 10);
        r.add_ring(vec![p(2, 2), p(8, 2), p(8, 8), p(2, 8)]);
        // Inside the hole: even number of crossings, not in the region.
        assert!(!r.contains_point(&p(5, 5)));
        // In the annulus.
        assert!(r.contains_point(&p(1, 5)));
        // On the hole boundary: still in the (closed) region.
        assert!(r.contains_point(&p(2, 5)));
    }

    #[test]
    fn polyline_and_points() {
        let mut r = Region::polyline(vec![p(0, 0), p(5, 0), p(5, 5)]);
        r.add_point(p(20, 20));
        assert!(r.contains_point(&p(3, 0)));
        assert!(r.contains_point(&p(5, 2)));
        assert!(r.contains_point(&p(20, 20)));
        assert!(!r.contains_point(&p(1, 1)));
        assert_eq!(r.polyline_segments().len(), 2);
        assert_eq!(r.point_count(), 4);
    }

    #[test]
    fn bbox_covers_everything() {
        let mut r = Region::rectangle(0, 0, 4, 4);
        r.add_point(p(10, -3));
        let b = r.bbox().unwrap();
        assert!(b.contains(&p(10, -3)));
        assert!(b.contains(&p(0, 4)));
        assert!(Region::new().bbox().is_none());
    }

    #[test]
    #[should_panic]
    fn degenerate_ring_panics() {
        let _ = Region::polygon(vec![p(0, 0), p(1, 1)]);
    }

    #[test]
    #[should_panic]
    fn bad_rectangle_panics() {
        let _ = Region::rectangle(5, 5, 1, 1);
    }
}

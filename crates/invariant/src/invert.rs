//! Inversion of topological invariants (Theorem 2.2).
//!
//! Theorem 2.2 states that from `top(I)` one can compute, in polynomial time,
//! a *linear* spatial instance `J` topologically equivalent to `I`. This
//! module implements the inversion for the class of invariants whose skeleton
//! components are closed curves, open arcs and isolated points — i.e.
//! instances whose regions, after reduction to the maximal decomposition,
//! have pairwise non-crossing boundaries (disjoint or nested lakes, rivers,
//! administrative rings, point features, …). Components with surviving branch vertices (boundary
//! networks such as a shared land-cover subdivision) are reported as
//! [`InvertError::UnsupportedComponent`]; this scope restriction is recorded
//! in DESIGN.md and EXPERIMENTS.md, and the experiments that rely on
//! inversion (strategy (iv) of the practical-considerations section) use
//! workloads inside the supported class.
//!
//! The construction mirrors the nesting recursion of the component tree:
//! every component is drawn inside its own axis-aligned box, children are
//! drawn inside the face that owns them, and regions are re-emitted from the
//! invariant's membership relation (a ring for every closed curve separating
//! the region's interior from its exterior, a closed polyline for
//! one-dimensional curves, a point for every isolated vertex).

use crate::invariant::TopologicalInvariant;
use topo_geometry::Point;
use topo_spatial::{Region, SpatialInstance};

/// Errors reported by [`invert`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvertError {
    /// A component has branch vertices; it is outside the supported class of
    /// this inversion implementation.
    UnsupportedComponent {
        /// The offending component id.
        component: usize,
    },
    /// The rebuilt instance's invariant did not match the input (only
    /// reported by [`invert_verified`]).
    VerificationFailed,
}

impl std::fmt::Display for InvertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvertError::UnsupportedComponent { component } => write!(
                f,
                "component {component} has branch vertices; inversion supports closed curves, open arcs and isolated points only"
            ),
            InvertError::VerificationFailed => {
                write!(f, "the rebuilt instance's invariant does not match the input invariant")
            }
        }
    }
}

impl std::error::Error for InvertError {}

/// Produces a semi-linear spatial instance whose invariant is isomorphic to
/// the given one (Theorem 2.2), for invariants in the supported class.
pub fn invert(invariant: &TopologicalInvariant) -> Result<SpatialInstance, InvertError> {
    // Check the supported class: every component is an isolated vertex, a
    // single closed curve, or a single open arc (a polyline that reduced to
    // one edge with two distinct endpoints).
    for (c, component) in invariant.components().iter().enumerate() {
        let isolated_vertex = component.edges.is_empty() && component.vertices.len() == 1;
        let closed_curve = component.vertices.is_empty()
            && component.edges.len() == 1
            && invariant.edge_endpoints(component.edges[0]).is_none();
        let open_arc = component.vertices.len() == 2
            && component.edges.len() == 1
            && matches!(invariant.edge_endpoints(component.edges[0]), Some((a, b)) if a != b);
        if !(isolated_vertex || closed_curve || open_arc) {
            return Err(InvertError::UnsupportedComponent { component: c });
        }
    }

    // Recursive layout: each component gets a square box inside the face that
    // contains it; each face's children share the free interior of their
    // parent's drawing.
    let mut layout = Layout::new(invariant);
    let top_level = invariant.components_in_face(invariant.exterior_face());
    layout.place_children(top_level, 0, 0, 1 << 24);

    // Region reconstruction from the membership relations.
    let mut instance = SpatialInstance::new(invariant.schema().clone());
    for region in invariant.schema().ids() {
        let mut geometry = Region::new();
        for (c, component) in invariant.components().iter().enumerate() {
            if let Some(&edge) = component.edges.first() {
                let edge_in = invariant.edge_regions(edge).contains(region);
                if let Some(arc) = layout.component_arc[c] {
                    // An open one-dimensional arc (a reduced polyline).
                    if edge_in {
                        geometry.add_polyline(arc.to_vec());
                    }
                    continue;
                }
                let square = layout.component_square[c].expect("component placed");
                let (fa, fb) = invariant.edge_faces(edge);
                let side_in = |f: usize| invariant.face_regions(f).contains(region);
                match (side_in(fa), side_in(fb)) {
                    (true, false) | (false, true) => {
                        // The curve separates the region's interior from its
                        // exterior: a polygon ring.
                        geometry.add_ring(square.to_vec());
                    }
                    (false, false) if edge_in => {
                        // A one-dimensional closed curve of the region.
                        let mut chain = square.to_vec();
                        chain.push(square[0]);
                        geometry.add_polyline(chain);
                    }
                    _ => {}
                }
            } else {
                let v = component.vertices[0];
                if invariant.vertex_regions(v).contains(region) {
                    geometry.add_point(layout.component_point[c].expect("component placed"));
                }
            }
        }
        instance.set_region(region, geometry);
    }
    Ok(instance)
}

/// [`invert`] followed by a verification that the rebuilt instance's invariant
/// is isomorphic to the input. Both codes go through the cached canonical-code
/// accessor (hash compared first), so verifying against an invariant whose
/// code is already known costs one canonicalisation of the rebuilt instance,
/// not two recomputations.
pub fn invert_verified(invariant: &TopologicalInvariant) -> Result<SpatialInstance, InvertError> {
    let instance = invert(invariant)?;
    let rebuilt = crate::top(&instance);
    if rebuilt.is_isomorphic_to(invariant) {
        Ok(instance)
    } else {
        Err(InvertError::VerificationFailed)
    }
}

struct Layout<'a> {
    invariant: &'a TopologicalInvariant,
    component_square: Vec<Option<[Point; 4]>>,
    component_arc: Vec<Option<[Point; 2]>>,
    component_point: Vec<Option<Point>>,
}

impl<'a> Layout<'a> {
    fn new(invariant: &'a TopologicalInvariant) -> Self {
        let n = invariant.components().len();
        Layout {
            invariant,
            component_square: vec![None; n],
            component_arc: vec![None; n],
            component_point: vec![None; n],
        }
    }

    /// Places the given sibling components inside the square box with corner
    /// `(x0, y0)` and side `size`, then recurses into their interiors.
    fn place_children(&mut self, children: &[usize], x0: i64, y0: i64, size: i64) {
        if children.is_empty() {
            return;
        }
        // Arrange the children in a row of sub-boxes with gaps.
        let columns = children.len() as i64;
        let cell = size / (2 * columns);
        for (i, &c) in children.iter().enumerate() {
            let bx = x0 + (2 * i as i64) * cell + cell / 2;
            let by = y0 + size / 4;
            let side = cell.max(4);
            self.place_component(c, bx, by, side);
        }
    }

    fn place_component(&mut self, component: usize, x0: i64, y0: i64, size: i64) {
        let comp = &self.invariant.components()[component];
        if comp.edges.is_empty() {
            self.component_point[component] = Some(Point::from_ints(x0 + size / 2, y0 + size / 2));
            return;
        }
        if !comp.vertices.is_empty() {
            // An open arc: a horizontal segment across the middle of the box.
            self.component_arc[component] = Some([
                Point::from_ints(x0, y0 + size / 2),
                Point::from_ints(x0 + size, y0 + size / 2),
            ]);
            return;
        }
        // A closed curve: draw it as the boundary square of the box interior.
        let square = [
            Point::from_ints(x0, y0),
            Point::from_ints(x0 + size, y0),
            Point::from_ints(x0 + size, y0 + size),
            Point::from_ints(x0, y0 + size),
        ];
        self.component_square[component] = Some(square);
        // The owned (inner) face hosts this component's children.
        let invariant = self.invariant;
        for &face in invariant.owned_faces(component) {
            let children = invariant.components_in_face(face);
            self.place_children(children, x0 + size / 8, y0 + size / 8, (3 * size) / 4);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::top;
    use topo_geometry::Point;
    use topo_spatial::{Region, Schema, SpatialInstance};

    fn p(x: i64, y: i64) -> Point {
        Point::from_ints(x, y)
    }

    #[test]
    fn roundtrip_single_region() {
        let mut instance = SpatialInstance::new(Schema::from_names(["P"]));
        instance.set_region(0, Region::rectangle(0, 0, 10, 10));
        let invariant = top(&instance);
        let rebuilt = invert_verified(&invariant).expect("inversion succeeds");
        assert!(top(&rebuilt).is_isomorphic_to(&invariant));
    }

    #[test]
    fn roundtrip_nested_and_disjoint() {
        // P: an annulus plus a separate small square; Q: a square inside the
        // annulus hole; D: a point feature inside Q.
        let mut p_region = Region::rectangle(0, 0, 100, 100);
        p_region.add_ring(vec![p(20, 20), p(80, 20), p(80, 80), p(20, 80)]);
        p_region.add_ring(vec![p(200, 0), p(220, 0), p(220, 20), p(200, 20)]);
        let q_region = Region::rectangle(30, 30, 70, 70);
        let d_region = Region::point_set(vec![p(50, 50)]);
        let instance =
            SpatialInstance::from_regions([("P", p_region), ("Q", q_region), ("D", d_region)]);
        let invariant = top(&instance);
        let rebuilt = invert_verified(&invariant).expect("inversion succeeds");
        let rebuilt_invariant = top(&rebuilt);
        assert!(rebuilt_invariant.is_isomorphic_to(&invariant));
        assert_eq!(rebuilt_invariant.cell_count(), invariant.cell_count());
    }

    #[test]
    fn one_dimensional_closed_curve() {
        // A region that is a pure closed curve (the boundary square of another
        // region, not filled): region L is a closed polyline.
        let mut l_region = Region::new();
        l_region.add_polyline(vec![p(0, 0), p(10, 0), p(10, 10), p(0, 10), p(0, 0)]);
        let instance = SpatialInstance::from_regions([
            ("P", Region::rectangle(-50, -50, 50, 50)),
            ("L", l_region),
        ]);
        let invariant = top(&instance);
        let rebuilt = invert_verified(&invariant).expect("inversion succeeds");
        assert!(top(&rebuilt).is_isomorphic_to(&invariant));
    }

    /// Degenerate-instance hardening: inversion (and its verified variant)
    /// must handle empty instances, point-only and polyline-only regions, and
    /// single-cell components without panicking.
    #[test]
    fn degenerate_instances_invert_cleanly() {
        let names: [&str; 0] = [];
        let empty_schema = SpatialInstance::new(Schema::from_names(names));
        let mut cases: Vec<(&str, SpatialInstance)> = vec![
            ("empty schema", empty_schema),
            ("empty region", SpatialInstance::new(Schema::from_names(["P"]))),
        ];
        let mut point_only = SpatialInstance::new(Schema::from_names(["P"]));
        point_only.set_region(0, Region::point_set(vec![p(0, 0), p(10, 0)]));
        cases.push(("point-only", point_only));
        let mut polyline_only = SpatialInstance::new(Schema::from_names(["P"]));
        polyline_only.set_region(0, Region::polyline(vec![p(0, 0), p(10, 0), p(10, 10)]));
        cases.push(("polyline-only", polyline_only));
        let mut single_curve = SpatialInstance::new(Schema::from_names(["P"]));
        single_curve.set_region(0, Region::polyline(vec![p(0, 0), p(10, 0), p(5, 10), p(0, 0)]));
        cases.push(("single closed curve", single_curve));
        for (label, instance) in cases {
            let invariant = top(&instance);
            let rebuilt = invert_verified(&invariant)
                .unwrap_or_else(|e| panic!("{label}: inversion failed: {e}"));
            assert!(top(&rebuilt).is_isomorphic_to(&invariant), "{label}: round-trip");
        }
    }

    #[test]
    fn unsupported_component_is_reported() {
        // Two overlapping squares of different regions produce boundary
        // crossings, hence branch vertices: unsupported by this inversion.
        let instance = SpatialInstance::from_regions([
            ("P", Region::rectangle(0, 0, 10, 10)),
            ("Q", Region::rectangle(5, 5, 15, 15)),
        ]);
        let invariant = top(&instance);
        match invert(&invariant) {
            Err(InvertError::UnsupportedComponent { .. }) => {}
            other => panic!("expected UnsupportedComponent, got {other:?}"),
        }
    }
}

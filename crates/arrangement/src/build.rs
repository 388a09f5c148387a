//! Arrangement construction.
//!
//! The builder proceeds in the classical phases:
//!
//! 1. find all pairwise segment intersections (grid-pruned, exactly verified)
//!    and split every input segment at every vertex lying on it;
//! 2. intern vertices and create the undirected arrangement edges, merging
//!    coincident sub-segments and accumulating their source tags;
//! 3. build the rotation system (counterclockwise order of edges around each
//!    vertex) and the half-edge `next` pointers;
//! 4. trace face-boundary cycles, identify for every connected component of
//!    the 1-skeleton its *outer contour* (the cycle bounding the component
//!    from outside), and create one face per remaining cycle plus the
//!    exterior face;
//! 5. nest every component (and every isolated vertex) into the face that
//!    contains it, using exact even–odd tests;
//! 6. assemble incidences.

use crate::containment::{CycleGeometry, CycleIndex};
use crate::{ArrEdge, ArrFace, Arrangement, ArrangementInput, EdgeId, FaceId, VertexId};
use std::collections::HashMap;
use topo_geometry::{
    orientation, pseudo_angle_cmp, BBox, DirectionVector, Orientation, Point, Segment, SegmentGrid,
    SegmentIntersection,
};

/// Builds the planar arrangement induced by the input segments and points.
pub fn build_arrangement(input: &ArrangementInput) -> Arrangement {
    Builder::new(input).run()
}

/// Phase 1 alone: for every input segment, the points at which it must be
/// split — its endpoints, every intersection with another input segment, and
/// every isolated input point lying on it. `result[i]` belongs to
/// `input.segments[i]` and starts with its endpoints `a`, `b`; the interior
/// points follow in no particular order and may repeat (the builder
/// normalises with a per-segment sort + dedup).
///
/// Exposed with [`build_arrangement_from_splits`] so a harness can time
/// phase 1 apart from the rest of the build; every other caller goes through
/// [`build_arrangement`].
pub fn compute_split_points(input: &ArrangementInput) -> Vec<Vec<Point>> {
    Builder::new(input).compute_splits()
}

/// Builds the arrangement from precomputed split lists, skipping phase 1.
///
/// Contract: `splits[i]` must contain segment `i`'s two endpoints plus every
/// interior event point (intersections with other segments, isolated points on
/// the segment), all lying on segment `i`. Order and duplicates are
/// irrelevant. Feeding the output of [`compute_split_points`] reproduces
/// [`build_arrangement`] exactly, which is what lets a harness time phase 1
/// apart; feeding anything less yields an arrangement of the *wrong*
/// subdivision.
pub fn build_arrangement_from_splits(
    input: &ArrangementInput,
    splits: Vec<Vec<Point>>,
) -> Arrangement {
    assert_eq!(splits.len(), input.segments.len(), "one split list per input segment");
    Builder::new(input).run_from_splits(splits)
}

/// An undirected arrangement edge before incidence wiring: its two endpoint
/// vertices and the encoded source tags of the input segments covering it.
type RawEdge = (VertexId, VertexId, Vec<u32>);

struct Builder<'a> {
    input: &'a ArrangementInput,
    vertex_ids: HashMap<Point, VertexId>,
    vertices: Vec<Point>,
}

impl<'a> Builder<'a> {
    fn new(input: &'a ArrangementInput) -> Self {
        Builder { input, vertex_ids: HashMap::new(), vertices: Vec::new() }
    }

    fn intern(&mut self, p: Point) -> VertexId {
        if let Some(&id) = self.vertex_ids.get(&p) {
            return id;
        }
        let id = self.vertices.len();
        self.vertices.push(p);
        self.vertex_ids.insert(p, id);
        id
    }

    fn run(mut self) -> Arrangement {
        let splits = self.compute_splits();
        self.run_from_splits(splits)
    }

    fn run_from_splits(mut self, splits: Vec<Vec<Point>>) -> Arrangement {
        let (edges, point_vertices) = self.build_edges(splits);
        let rotations = self.build_rotations(&edges);
        let (next, cycle_of, cycle_count) = self.trace_cycles(&edges, &rotations);
        let assembled =
            self.assemble_faces(edges, rotations, point_vertices, &next, &cycle_of, cycle_count);
        debug_assert!(assembled.validate().is_ok(), "{:?}", assembled.validate());
        assembled
    }

    /// Phase 1: for every input segment, the set of points at which it must be
    /// split (its endpoints, intersection points with other segments, and
    /// isolated input points lying on it).
    ///
    /// Each list starts with the segment's two endpoints, and no other point
    /// equal to one of them is pushed. Two segments sharing an input
    /// endpoint meet only there unless they are collinear, so one
    /// orientation test of the far endpoint settles such a pair; only
    /// collinear pairs (partial overlaps and duplicates) are intersected.
    fn compute_splits(&mut self) -> Vec<Vec<Point>> {
        let segments: Vec<Segment> = self.input.segments.iter().map(|(s, _)| *s).collect();
        let mut splits: Vec<Vec<Point>> = segments.iter().map(|s| vec![s.a, s.b]).collect();
        if !segments.is_empty() {
            let grid = SegmentGrid::build(&segments);
            for (i, j) in grid.candidate_pairs() {
                let (s, t) = (&segments[i], &segments[j]);
                if let Some(far) = far_endpoint_if_shared(s, t) {
                    if orientation(&s.a, &s.b, &far) != Orientation::Collinear {
                        continue;
                    }
                }
                match s.intersect(t) {
                    SegmentIntersection::None => {}
                    SegmentIntersection::Point(p) => {
                        push_interior(&mut splits[i], s, p);
                        push_interior(&mut splits[j], t, p);
                    }
                    SegmentIntersection::Overlap(p, q) => {
                        for r in [p, q] {
                            push_interior(&mut splits[i], s, r);
                            push_interior(&mut splits[j], t, r);
                        }
                    }
                }
            }
            // Isolated input points lying in the interior of a segment force a
            // split there as well. One scratch buffer serves every probe.
            let mut hits: Vec<usize> = Vec::new();
            for (p, _) in &self.input.points {
                let query = BBox::from_points(&[*p]);
                grid.query_box_into(&query, &mut hits);
                for &idx in &hits {
                    if segments[idx].contains_point(p) {
                        push_interior(&mut splits[idx], &segments[idx], *p);
                    }
                }
            }
        }
        splits
    }

    /// Phase 2: intern vertices, split segments, and merge coincident
    /// sub-segments into undirected arrangement edges.
    fn build_edges(&mut self, splits: Vec<Vec<Point>>) -> (Vec<RawEdge>, Vec<VertexId>) {
        let mut edge_ids: HashMap<(VertexId, VertexId), EdgeId> = HashMap::new();
        let mut edges: Vec<RawEdge> = Vec::new();
        for ((segment, source), mut points) in self.input.segments.iter().zip(splits) {
            // Order split points from `a` to `b`. All lie on the segment, and
            // along a line lexicographic point order is the order of the
            // curve parameter, running from `a` when `a < b` and from `b`
            // otherwise. Comparing coordinates forms no squares or products
            // of differences, unlike an exact squared-distance key.
            if segment.a < segment.b {
                points.sort_unstable();
            } else {
                points.sort_unstable_by(|p, q| q.cmp(p));
            }
            points.dedup();
            for pair in points.windows(2) {
                let u = self.intern(pair[0]);
                let w = self.intern(pair[1]);
                debug_assert_ne!(u, w);
                let key = (u.min(w), u.max(w));
                let edge = *edge_ids.entry(key).or_insert_with(|| {
                    edges.push((key.0, key.1, Vec::new()));
                    edges.len() - 1
                });
                edges[edge].2.push(*source);
            }
        }
        let point_vertices: Vec<VertexId> =
            self.input.points.iter().map(|(p, _)| self.intern(*p)).collect();
        (edges, point_vertices)
    }

    /// Phase 3: rotation system.
    fn build_rotations(&self, edges: &[(VertexId, VertexId, Vec<u32>)]) -> Vec<Vec<EdgeId>> {
        let mut rotations: Vec<Vec<EdgeId>> = vec![Vec::new(); self.vertices.len()];
        for (e, (v1, v2, _)) in edges.iter().enumerate() {
            rotations[*v1].push(e);
            rotations[*v2].push(e);
        }
        for (v, rot) in rotations.iter_mut().enumerate() {
            let origin = self.vertices[v];
            rot.sort_by(|&e1, &e2| {
                let d1 = self.outgoing_direction(edges, e1, v, origin);
                let d2 = self.outgoing_direction(edges, e2, v, origin);
                pseudo_angle_cmp(&d1, &d2)
            });
        }
        rotations
    }

    fn outgoing_direction(
        &self,
        edges: &[(VertexId, VertexId, Vec<u32>)],
        e: EdgeId,
        v: VertexId,
        origin: Point,
    ) -> DirectionVector {
        let (v1, v2, _) = &edges[e];
        let other = if *v1 == v { *v2 } else { *v1 };
        DirectionVector::between(&origin, &self.vertices[other])
    }

    /// Phase 4a: half-edge `next` pointers and cycle tracing.
    ///
    /// Half-edge `2e` runs `v1 -> v2`, half-edge `2e+1` runs `v2 -> v1`.
    /// `next(h)` continues the face boundary keeping the face on the left.
    fn trace_cycles(
        &self,
        edges: &[(VertexId, VertexId, Vec<u32>)],
        rotations: &[Vec<EdgeId>],
    ) -> (Vec<usize>, Vec<usize>, usize) {
        let half_count = edges.len() * 2;
        let origin = |h: usize| -> VertexId {
            let (v1, v2, _) = &edges[h / 2];
            if h % 2 == 0 {
                *v1
            } else {
                *v2
            }
        };
        // Position of each edge in the rotation of each of its endpoints,
        // as flat per-edge slots (`[at v1, at v2]`) instead of a hash map.
        let mut rot_pos: Vec<[u32; 2]> = vec![[0, 0]; edges.len()];
        for (v, rot) in rotations.iter().enumerate() {
            for (idx, &e) in rot.iter().enumerate() {
                let slot = if edges[e].0 == v { 0 } else { 1 };
                rot_pos[e][slot] = idx as u32;
            }
        }
        let mut next = vec![usize::MAX; half_count];
        for h in 0..half_count {
            let twin = h ^ 1;
            let v = origin(twin); // target of h
            let rot = &rotations[v];
            let slot = if edges[h / 2].0 == v { 0 } else { 1 };
            let pos = rot_pos[h / 2][slot] as usize;
            // Clockwise successor of the twin around the target vertex.
            let prev_edge = rot[(pos + rot.len() - 1) % rot.len()];
            let (v1, _, _) = &edges[prev_edge];
            let out_half = if *v1 == v { prev_edge * 2 } else { prev_edge * 2 + 1 };
            next[h] = out_half;
        }
        // Trace cycles of `next`.
        let mut cycle_of = vec![usize::MAX; half_count];
        let mut cycle_count = 0usize;
        for start in 0..half_count {
            if cycle_of[start] != usize::MAX {
                continue;
            }
            let mut h = start;
            loop {
                cycle_of[h] = cycle_count;
                h = next[h];
                if h == start {
                    break;
                }
            }
            cycle_count += 1;
        }
        (next, cycle_of, cycle_count)
    }

    /// Phases 4b–6: components, outer contours, faces, nesting, assembly.
    #[allow(clippy::too_many_arguments)]
    fn assemble_faces(
        &mut self,
        edges: Vec<RawEdge>,
        rotations: Vec<Vec<EdgeId>>,
        point_vertices: Vec<VertexId>,
        _next: &[usize],
        cycle_of: &[usize],
        cycle_count: usize,
    ) -> Arrangement {
        let n = self.vertices.len();
        let origin = |h: usize| -> VertexId {
            let (v1, v2, _) = &edges[h / 2];
            if h % 2 == 0 {
                *v1
            } else {
                *v2
            }
        };

        // Connected components of the 1-skeleton (vertices with edges only).
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut root = x;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = x;
            while parent[cur] != root {
                let nxt = parent[cur];
                parent[cur] = root;
                cur = nxt;
            }
            root
        }
        for (v1, v2, _) in &edges {
            let (a, b) = (find(&mut parent, *v1), find(&mut parent, *v2));
            if a != b {
                parent[a] = b;
            }
        }
        // Component representative -> component index; minimal vertex per component.
        let mut comp_index: HashMap<usize, usize> = HashMap::new();
        let mut comp_min_vertex: Vec<VertexId> = Vec::new();
        for (v, rot) in rotations.iter().enumerate().take(n) {
            if rot.is_empty() {
                continue;
            }
            let root = find(&mut parent, v);
            let idx = *comp_index.entry(root).or_insert_with(|| {
                comp_min_vertex.push(v);
                comp_min_vertex.len() - 1
            });
            if self.vertices[v] < self.vertices[comp_min_vertex[idx]] {
                comp_min_vertex[idx] = v;
            }
        }
        // Outer contour of every component: the cycle bounding the angular
        // sector that faces "due left" at the component's minimal vertex.
        let comp_count = comp_min_vertex.len();
        let mut outer_cycle_of_comp: Vec<usize> = vec![usize::MAX; comp_count];
        for (c, &v) in comp_min_vertex.iter().enumerate() {
            let rot = &rotations[v];
            debug_assert!(!rot.is_empty());
            let mut best: Option<(bool, DirectionVector, EdgeId)> = None;
            for &e in rot {
                let d = self.outgoing_direction(&edges, e, v, self.vertices[v]);
                // `v` is the lexicographic minimum of its component, so no
                // outgoing edge points left or straight down.
                let upper_half = d.dy.signum() > 0 || (d.dy.is_zero() && d.dx.signum() > 0);
                let better = match &best {
                    None => true,
                    Some((best_upper, best_dir, _)) => {
                        if upper_half != *best_upper {
                            // Prefer the upper half-plane: the sector that
                            // contains "due left" starts at the largest angle
                            // not exceeding 180 degrees when one exists.
                            upper_half
                        } else {
                            pseudo_angle_cmp(&d, best_dir) == std::cmp::Ordering::Greater
                        }
                    }
                };
                if better {
                    best = Some((upper_half, d, e));
                }
            }
            let (_, _, e) = best.unwrap();
            let (v1, _, _) = &edges[e];
            let out_half = if *v1 == v { e * 2 } else { e * 2 + 1 };
            outer_cycle_of_comp[c] = cycle_of[out_half];
        }
        let mut is_outer_cycle = vec![false; cycle_count];
        for &c in &outer_cycle_of_comp {
            is_outer_cycle[c] = true;
        }

        // Faces: the exterior face first, then one face per non-contour cycle.
        let exterior_face: FaceId = 0;
        let mut faces: Vec<ArrFace> = vec![ArrFace { bounded: false, ..Default::default() }];
        let mut face_of_cycle: Vec<Option<FaceId>> = vec![None; cycle_count];
        for cycle in 0..cycle_count {
            if !is_outer_cycle[cycle] {
                faces.push(ArrFace { bounded: true, ..Default::default() });
                face_of_cycle[cycle] = Some(faces.len() - 1);
            }
        }

        // Nesting (phase 5): every component's outer contour becomes a
        // boundary cycle of the face containing the component, and every
        // isolated vertex lies in the face containing it. A component never
        // lies inside one of its own faces, so with a single component and
        // no isolated vertex everything lies in the exterior face, and no
        // cycle geometry is built.
        let mut parent_face_of_comp: Vec<FaceId> = vec![exterior_face; comp_count];
        let mut isolated: Vec<(VertexId, FaceId)> =
            (0..n).filter(|&v| rotations[v].is_empty()).map(|v| (v, exterior_face)).collect();
        if comp_count > 1 || !isolated.is_empty() {
            // Geometry of every bounded-face cycle, in cycle order, with its
            // box taken from one per-vertex `f64` table: a closed walk visits
            // every vertex of its cycle as the origin of some half-edge.
            let coords: Vec<(f64, f64)> = self.vertices.iter().map(Point::to_f64).collect();
            let mut slot_of_cycle: Vec<usize> = vec![usize::MAX; cycle_count];
            let mut cycles: Vec<CycleGeometry> = Vec::new();
            let mut cycle_comp: Vec<usize> = Vec::new();
            let mut cycle_face: Vec<FaceId> = Vec::new();
            for (h, &cycle) in cycle_of.iter().enumerate() {
                let Some(face) = face_of_cycle[cycle] else { continue };
                let (u, w) = (origin(h), origin(h ^ 1));
                if slot_of_cycle[cycle] == usize::MAX {
                    slot_of_cycle[cycle] = cycles.len();
                    cycles.push(CycleGeometry {
                        directed: Vec::new(),
                        bbox: (f64::INFINITY, f64::INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY),
                    });
                    cycle_comp.push(comp_index[&find(&mut parent, u)]);
                    cycle_face.push(face);
                }
                let geometry = &mut cycles[slot_of_cycle[cycle]];
                geometry.directed.push((self.vertices[u], self.vertices[w]));
                let (x, y) = coords[u];
                let bbox = &mut geometry.bbox;
                *bbox = (bbox.0.min(x), bbox.1.min(y), bbox.2.max(x), bbox.3.max(y));
            }

            // Each probe runs exact point-in-cycle tests only against the
            // cycles whose box can contain it; one scratch buffer serves
            // every probe.
            let index = CycleIndex::build(cycles);
            let mut scratch: Vec<usize> = Vec::new();
            for (c, &min_v) in comp_min_vertex.iter().enumerate() {
                let probe = &self.vertices[min_v];
                if let Some(k) =
                    index.innermost_container(probe, |k| cycle_comp[k] != c, &mut scratch)
                {
                    parent_face_of_comp[c] = cycle_face[k];
                }
            }
            for (v, face) in &mut isolated {
                if let Some(k) =
                    index.innermost_container(&self.vertices[*v], |_| true, &mut scratch)
                {
                    *face = cycle_face[k];
                }
            }
        }
        for (c, &cycle) in outer_cycle_of_comp.iter().enumerate() {
            face_of_cycle[cycle] = Some(parent_face_of_comp[c]);
        }

        // Edge incidences and face boundaries.
        let mut arr_edges: Vec<ArrEdge> = Vec::with_capacity(edges.len());
        for (e, (v1, v2, sources)) in edges.iter().enumerate() {
            let face_left = face_of_cycle[cycle_of[2 * e]].unwrap();
            let face_right = face_of_cycle[cycle_of[2 * e + 1]].unwrap();
            arr_edges.push(ArrEdge {
                v1: *v1,
                v2: *v2,
                sources: sources.clone(),
                face_left,
                face_right,
            });
        }
        // Face boundaries accumulate on flat vectors and deduplicate with
        // sort + dedup; the boundary lists come out sorted as before.
        let mut face_edge_lists: Vec<Vec<EdgeId>> = vec![Vec::new(); faces.len()];
        let mut face_vertex_lists: Vec<Vec<VertexId>> = vec![Vec::new(); faces.len()];
        for h in 0..edges.len() * 2 {
            let face = face_of_cycle[cycle_of[h]].unwrap();
            face_edge_lists[face].push(h / 2);
            face_vertex_lists[face].push(origin(h));
        }
        for &(v, face) in &isolated {
            face_vertex_lists[face].push(v);
        }
        for (f, face) in faces.iter_mut().enumerate() {
            let mut es = std::mem::take(&mut face_edge_lists[f]);
            es.sort_unstable();
            es.dedup();
            let mut vs = std::mem::take(&mut face_vertex_lists[f]);
            vs.sort_unstable();
            vs.dedup();
            face.boundary_edges = es;
            face.boundary_vertices = vs;
        }

        Arrangement {
            vertices: std::mem::take(&mut self.vertices),
            edges: arr_edges,
            faces,
            exterior_face,
            rotations,
            isolated,
            point_vertices,
        }
    }
}

/// If `s` and `t` share an input endpoint, the endpoint of `t` that is not
/// the shared one (for identical or reversed segments, either endpoint).
fn far_endpoint_if_shared(s: &Segment, t: &Segment) -> Option<Point> {
    if t.a == s.a || t.a == s.b {
        Some(t.b)
    } else if t.b == s.a || t.b == s.b {
        Some(t.a)
    } else {
        None
    }
}

/// Pushes `p` onto `segment`'s split list unless it is one of the segment's
/// endpoints, which every list holds from the start.
fn push_interior(split: &mut Vec<Point>, segment: &Segment, p: Point) {
    if p != segment.a && p != segment.b {
        split.push(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topo_geometry::Segment;

    fn p(x: i64, y: i64) -> Point {
        Point::from_ints(x, y)
    }

    fn seg(ax: i64, ay: i64, bx: i64, by: i64) -> topo_geometry::Segment {
        Segment::new(p(ax, ay), p(bx, by))
    }

    fn square(input: &mut ArrangementInput, x0: i64, y0: i64, size: i64, source: u32) {
        let a = p(x0, y0);
        let b = p(x0 + size, y0);
        let c = p(x0 + size, y0 + size);
        let d = p(x0, y0 + size);
        for (u, w) in [(a, b), (b, c), (c, d), (d, a)] {
            input.add_segment(Segment::new(u, w), source);
        }
    }

    #[test]
    fn empty_input() {
        let arr = build_arrangement(&ArrangementInput::new());
        assert_eq!(arr.vertex_count(), 0);
        assert_eq!(arr.edge_count(), 0);
        assert_eq!(arr.face_count(), 1);
        assert!(!arr.faces[arr.exterior_face].bounded);
        assert!(arr.validate().is_ok());
    }

    #[test]
    fn single_square() {
        let mut input = ArrangementInput::new();
        square(&mut input, 0, 0, 10, 0);
        let arr = build_arrangement(&input);
        assert_eq!(arr.vertex_count(), 4);
        assert_eq!(arr.edge_count(), 4);
        assert_eq!(arr.face_count(), 2);
        assert!(arr.validate().is_ok());
        // Every vertex has degree 2.
        for v in 0..4 {
            assert_eq!(arr.degree(v), 2);
        }
        // The bounded face has all four edges on its boundary.
        let bounded: Vec<_> = arr.faces.iter().filter(|f| f.bounded).collect();
        assert_eq!(bounded.len(), 1);
        assert_eq!(bounded[0].boundary_edges.len(), 4);
        // The exterior face also has all four edges on its boundary.
        assert_eq!(arr.faces[arr.exterior_face].boundary_edges.len(), 4);
    }

    #[test]
    fn crossing_segments() {
        let mut input = ArrangementInput::new();
        input.add_segment(seg(0, 0, 10, 10), 0);
        input.add_segment(seg(0, 10, 10, 0), 1);
        let arr = build_arrangement(&input);
        // 4 endpoints + 1 crossing, 4 edges, 1 face.
        assert_eq!(arr.vertex_count(), 5);
        assert_eq!(arr.edge_count(), 4);
        assert_eq!(arr.face_count(), 1);
        assert!(arr.validate().is_ok());
        let center =
            arr.vertices.iter().position(|q| *q == p(5, 5)).expect("crossing vertex exists");
        assert_eq!(arr.degree(center), 4);
    }

    #[test]
    fn nested_squares() {
        let mut input = ArrangementInput::new();
        square(&mut input, 0, 0, 100, 0);
        square(&mut input, 10, 10, 10, 1);
        let arr = build_matching_naive(&input);
        assert_eq!(arr.vertex_count(), 8);
        assert_eq!(arr.edge_count(), 8);
        // exterior, inside-outer-minus-inner, inside-inner
        assert_eq!(arr.face_count(), 3);
        // The ring face (between the squares) must have all 8 edges on its
        // boundary; the innermost face only 4; the exterior only 4.
        let mut edge_counts: Vec<usize> =
            arr.faces.iter().map(|f| f.boundary_edges.len()).collect();
        edge_counts.sort_unstable();
        assert_eq!(edge_counts, vec![4, 4, 8]);
    }

    #[test]
    fn disjoint_squares_in_exterior() {
        let mut input = ArrangementInput::new();
        square(&mut input, 0, 0, 10, 0);
        square(&mut input, 100, 100, 10, 1);
        let arr = build_arrangement(&input);
        assert_eq!(arr.face_count(), 3);
        assert!(arr.validate().is_ok());
        // Exterior face touches all 8 edges.
        assert_eq!(arr.faces[arr.exterior_face].boundary_edges.len(), 8);
    }

    #[test]
    fn shared_edge_squares() {
        // Two squares sharing a full edge: 6 vertices, 7 edges, 3 faces.
        let mut input = ArrangementInput::new();
        square(&mut input, 0, 0, 10, 0);
        square(&mut input, 10, 0, 10, 1);
        let arr = build_arrangement(&input);
        assert_eq!(arr.vertex_count(), 6);
        assert_eq!(arr.edge_count(), 7);
        assert_eq!(arr.face_count(), 3);
        assert!(arr.validate().is_ok());
        // The shared edge carries both sources.
        let shared =
            arr.edges.iter().find(|e| e.sources.len() == 2).expect("shared edge has two sources");
        let mut s = shared.sources.clone();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1]);
    }

    #[test]
    fn isolated_points_and_segment() {
        let mut input = ArrangementInput::new();
        square(&mut input, 0, 0, 10, 0);
        input.add_point(p(5, 5), 1); // inside the square
        input.add_point(p(50, 50), 2); // outside
        input.add_point(p(5, 0), 3); // on the square boundary: splits an edge
        let arr = build_arrangement(&input);
        assert!(arr.validate().is_ok());
        assert_eq!(arr.vertex_count(), 4 + 2 + 1);
        assert_eq!(arr.edge_count(), 5);
        // Two isolated vertices, one in the bounded face and one outside.
        assert_eq!(arr.isolated.len(), 2);
        let inside_vertex = arr.point_vertices[0];
        let outside_vertex = arr.point_vertices[1];
        let inside_face = arr.isolated_face(inside_vertex).unwrap();
        let outside_face = arr.isolated_face(outside_vertex).unwrap();
        assert!(arr.faces[inside_face].bounded);
        assert_eq!(outside_face, arr.exterior_face);
        // The on-boundary point became a degree-2 vertex, not an isolated one.
        assert_eq!(arr.degree(arr.point_vertices[2]), 2);
    }

    /// Builds `input`, checks `validate()`, and checks every face assignment
    /// (edge sides, isolated vertices, face boundaries) against the frozen
    /// naive builder, which nests with a full scan of every cycle.
    fn build_matching_naive(input: &ArrangementInput) -> Arrangement {
        let arr = build_arrangement(input);
        assert!(arr.validate().is_ok(), "{:?}", arr.validate());
        let naive = crate::naive::build_arrangement_naive(input);
        assert_eq!(arr.vertices, naive.vertices);
        assert_eq!(arr.isolated, naive.isolated);
        assert_eq!(arr.edges.len(), naive.edges.len());
        for (a, b) in arr.edges.iter().zip(&naive.edges) {
            assert_eq!((a.face_left, a.face_right), (b.face_left, b.face_right));
        }
        assert_eq!(arr.faces.len(), naive.faces.len());
        for (a, b) in arr.faces.iter().zip(&naive.faces) {
            assert_eq!(a.bounded, b.bounded);
            assert_eq!(a.boundary_edges, b.boundary_edges);
            assert_eq!(a.boundary_vertices, b.boundary_vertices);
        }
        arr
    }

    /// One component: a square with a square hole, joined to it by a
    /// diagonal bridge (faces: exterior, the ring between the squares, the
    /// hole).
    fn holed_component(input: &mut ArrangementInput) {
        square(input, 0, 0, 100, 0);
        square(input, 30, 30, 40, 1);
        input.add_segment(seg(0, 0, 30, 30), 2);
    }

    #[test]
    fn isolated_points_without_segments() {
        let mut input = ArrangementInput::new();
        for (x, y) in [(0, 0), (10, -5), (-7, 3), (10, -5)] {
            input.add_point(p(x, y), 0);
        }
        let arr = build_matching_naive(&input);
        assert_eq!(arr.vertex_count(), 3);
        assert_eq!(arr.face_count(), 1);
        assert_eq!(arr.isolated.len(), 3);
        assert!(arr.isolated.iter().all(|&(_, face)| face == arr.exterior_face));
    }

    #[test]
    fn isolated_points_inside_a_hole_and_outside() {
        let mut input = ArrangementInput::new();
        holed_component(&mut input);
        input.add_point(p(50, 50), 3); // in the hole
        input.add_point(p(10, 60), 3); // in the ring
        input.add_point(p(200, 50), 3); // outside
        input.add_point(p(-1, -1), 3); // outside, next to the bridge's corner
        let arr = build_matching_naive(&input);
        assert_eq!(arr.face_count(), 3);
        let face_of = |i: usize| arr.isolated_face(arr.point_vertices[i]).unwrap();
        let (hole, ring) = (face_of(0), face_of(1));
        assert!(arr.faces[hole].bounded && arr.faces[ring].bounded && hole != ring);
        assert_eq!(arr.faces[hole].boundary_edges.len(), 4);
        assert_eq!(face_of(2), arr.exterior_face);
        assert_eq!(face_of(3), arr.exterior_face);
    }

    #[test]
    fn holed_component_without_points_skips_nesting() {
        let mut input = ArrangementInput::new();
        holed_component(&mut input);
        let arr = build_matching_naive(&input);
        assert_eq!(arr.face_count(), 3);
        assert!(arr.isolated.is_empty());
        // The outer contour (the big square's four sides) bounds the
        // exterior face.
        assert_eq!(arr.faces[arr.exterior_face].boundary_edges.len(), 4);
    }

    #[test]
    fn antenna_edge() {
        // A square with a segment dangling into its interior.
        let mut input = ArrangementInput::new();
        square(&mut input, 0, 0, 10, 0);
        input.add_segment(seg(0, 0, 5, 5), 1);
        let arr = build_arrangement(&input);
        assert!(arr.validate().is_ok());
        assert_eq!(arr.face_count(), 2);
        let antenna = arr.edges.iter().find(|e| e.sources == vec![1]).unwrap();
        // Both sides of the antenna edge are the same bounded face.
        assert_eq!(antenna.face_left, antenna.face_right);
        assert!(arr.faces[antenna.face_left].bounded);
    }

    #[test]
    fn deep_nesting_three_levels() {
        let mut input = ArrangementInput::new();
        square(&mut input, 0, 0, 100, 0);
        square(&mut input, 10, 10, 60, 1);
        square(&mut input, 20, 20, 20, 2);
        let arr = build_matching_naive(&input);
        assert_eq!(arr.face_count(), 4);
        // The middle ring face's boundary must touch both the outer square of
        // level 2 and the inner square of level 3.
        let ring_face = arr
            .faces
            .iter()
            .find(|f| f.bounded && f.boundary_edges.len() == 8 && f.boundary_vertices.len() == 8)
            .map(|f| f.boundary_edges.clone());
        assert!(ring_face.is_some());
    }

    #[test]
    fn overlapping_collinear_segments() {
        let mut input = ArrangementInput::new();
        input.add_segment(seg(0, 0, 10, 0), 0);
        input.add_segment(seg(4, 0, 14, 0), 1);
        let arr = build_arrangement(&input);
        assert!(arr.validate().is_ok());
        assert_eq!(arr.vertex_count(), 4);
        assert_eq!(arr.edge_count(), 3);
        let shared = arr.edges.iter().find(|e| e.sources.len() == 2).unwrap();
        assert_eq!(
            arr.vertices[shared.v1].x.min(arr.vertices[shared.v2].x),
            topo_geometry::Rational::from_int(4)
        );
    }

    #[test]
    fn rotation_order_is_counterclockwise() {
        // A plus sign centred at the origin.
        let mut input = ArrangementInput::new();
        input.add_segment(seg(-10, 0, 10, 0), 0);
        input.add_segment(seg(0, -10, 0, 10), 0);
        let arr = build_arrangement(&input);
        let center = arr.vertices.iter().position(|q| *q == p(0, 0)).unwrap();
        assert_eq!(arr.degree(center), 4);
        // Directions of the four incident edges in rotation order must be a
        // cyclic shift of +x, +y, -x, -y.
        let dirs: Vec<(i32, i32)> = arr
            .incident_edges(center)
            .iter()
            .map(|&e| {
                let other = arr.edges[e].other_endpoint(center);
                let (dx, dy) = arr.vertices[other].sub(&arr.vertices[center]);
                (dx.signum(), dy.signum())
            })
            .collect();
        let expected = [(1, 0), (0, 1), (-1, 0), (0, -1)];
        let start = expected.iter().position(|d| *d == dirs[0]).unwrap();
        for i in 0..4 {
            assert_eq!(dirs[i], expected[(start + i) % 4]);
        }
    }
}

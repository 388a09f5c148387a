//! Arrangement construction.
//!
//! The builder proceeds in the classical phases:
//!
//! 1. intern the input endpoints once ([`Endpoints`]), merge exact duplicate
//!    segments, find every pairwise segment intersection and split every
//!    input segment at every vertex lying on it. Pairs meeting away from a
//!    shared endpoint come from the grid, which never pairs segments sharing
//!    an endpoint; a collinear overlap through a shared endpoint is found by
//!    sorting the endpoint's incident segments by direction;
//! 2. map split points to vertices (endpoints by id, crossings by hash) and
//!    create the undirected arrangement edges, merging coincident
//!    sub-segments and accumulating their source tags;
//! 3. build the rotation system (counterclockwise order of edges around each
//!    vertex, each edge directed along its input segment) and the half-edge
//!    `next` pointers;
//! 4. trace face-boundary cycles, identify for every connected component of
//!    the 1-skeleton its *outer contour* (the cycle bounding the component
//!    from outside), and create one face per remaining cycle plus the
//!    exterior face;
//! 5. nest every component (and every isolated vertex) into the face that
//!    contains it, using exact even–odd tests;
//! 6. assemble incidences.

use crate::containment::{CycleGeometry, CycleIndex};
use crate::endpoints::Endpoints;
use crate::{ArrEdge, ArrFace, Arrangement, ArrangementInput, EdgeId, FaceId, VertexId};
use std::collections::HashMap;
use topo_geometry::{
    orientation, pseudo_angle_cmp, BBox, DirectionVector, Orientation, Point, Segment, SegmentGrid,
    SegmentIntersection,
};

/// Builds the planar arrangement induced by the input segments and points.
pub fn build_arrangement(input: &ArrangementInput) -> Arrangement {
    let builder = Builder::new(input);
    let splits = builder.compute_splits();
    builder.run_from_splits(splits)
}

/// Phase 1 alone: for every input segment, the points at which it must be
/// split — its endpoints, every intersection with another input segment, and
/// every isolated input point lying on it. `result[i]` belongs to
/// `input.segments[i]` and starts with its endpoints `a`, `b`; the interior
/// points follow in no particular order and may repeat (the builder
/// normalises with a per-segment sort + dedup). A segment repeating an
/// earlier one (same endpoints, either order) gets the earlier one's list.
///
/// Exposed with [`build_arrangement_from_splits`] so a harness can time
/// phase 1 apart from the rest of the build; every other caller goes through
/// [`build_arrangement`].
pub fn compute_split_points(input: &ArrangementInput) -> Vec<Vec<Point>> {
    let builder = Builder::new(input);
    let mut splits = builder.compute_splits();
    let index = &builder.endpoints;
    for (i, &rep) in index.rep.iter().enumerate() {
        if rep != i {
            splits[i] = splits[rep].clone();
            if index.ends[i] != index.ends[rep] {
                splits[i].swap(0, 1);
            }
        }
    }
    splits
}

/// Builds the arrangement from precomputed split lists, skipping phase 1.
///
/// Contract: `splits[i]` must contain segment `i`'s two endpoints plus every
/// interior event point (intersections with other segments, isolated points on
/// the segment), all lying on segment `i`. Order and duplicates are
/// irrelevant. A segment repeating an earlier one (same endpoints, either
/// order) takes the earlier one's edges, and its own list is not read.
/// Feeding the output of [`compute_split_points`] reproduces
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

/// The edges of phase 2: their endpoints and sources, each edge's direction
/// from `v1` to `v2` (its creating input segment's direction, a positive
/// multiple of `v2 - v1`), each vertex's edges, and the vertex of every
/// isolated input point.
struct Edges {
    edges: Vec<RawEdge>,
    dirs: Vec<DirectionVector>,
    /// Each vertex's edges, in creation order until phase 3 sorts them.
    rotations: Vec<Vec<EdgeId>>,
    point_vertices: Vec<VertexId>,
}

/// The direction of edge `e` leaving vertex `v`.
fn outgoing(
    edges: &[RawEdge],
    dirs: &[DirectionVector],
    e: EdgeId,
    v: VertexId,
) -> DirectionVector {
    if edges[e].0 == v {
        dirs[e]
    } else {
        -dirs[e]
    }
}

struct Builder<'a> {
    input: &'a ArrangementInput,
    endpoints: Endpoints,
    vertices: Vec<Point>,
}

impl<'a> Builder<'a> {
    fn new(input: &'a ArrangementInput) -> Self {
        Builder { input, endpoints: Endpoints::new(input), vertices: Vec::new() }
    }

    fn run_from_splits(mut self, splits: Vec<Vec<Point>>) -> Arrangement {
        let Edges { edges, dirs, mut rotations, point_vertices } = self.build_edges(splits);
        Self::sort_rotations(&edges, &dirs, &mut rotations);
        let (cycle_of, cycle_count) = self.trace_cycles(&edges, &rotations);
        let assembled =
            self.assemble_faces(edges, &dirs, rotations, point_vertices, &cycle_of, cycle_count);
        debug_assert!(assembled.validate().is_ok(), "{:?}", assembled.validate());
        assembled
    }

    /// Phase 1: for every distinct input segment, the points at which it
    /// must be split (its endpoints, intersection points with other
    /// segments, and isolated input points lying on it). A duplicate
    /// segment's list is left empty: phase 2 reads its representative's.
    ///
    /// Each list starts with the segment's two endpoints, and no other point
    /// equal to one of them is pushed. Two distinct segments sharing an
    /// endpoint meet elsewhere only when they run along the same ray from
    /// it, so the grid never pairs them and the per-endpoint direction sort
    /// finds those overlaps instead.
    fn compute_splits(&self) -> Vec<Vec<Point>> {
        let (input, index) = (self.input, &self.endpoints);
        let distinct: Vec<usize> =
            (0..input.segments.len()).filter(|&i| index.rep[i] == i).collect();
        let mut splits: Vec<Vec<Point>> = input
            .segments
            .iter()
            .zip(&index.rep)
            .enumerate()
            .map(|(i, ((s, _), &rep))| if rep == i { vec![s.a, s.b] } else { Vec::new() })
            .collect();
        if distinct.is_empty() {
            return splits;
        }
        let segments: Vec<Segment> = distinct.iter().map(|&i| input.segments[i].0).collect();
        let ends: Vec<[u32; 2]> = distinct.iter().map(|&i| index.ends[i]).collect();
        let grid = SegmentGrid::build(&segments, &ends);
        for (k, l) in grid.candidate_pairs() {
            let (s, t) = (&segments[k], &segments[l]);
            let (i, j) = (distinct[k], distinct[l]);
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
        self.split_shared_endpoint_overlaps(&mut splits);
        // Isolated input points lying in the interior of a segment force a
        // split there as well. One scratch buffer serves every probe.
        let mut hits: Vec<usize> = Vec::new();
        for (p, _) in &input.points {
            grid.query_box_into(&BBox::from_points(&[*p]), &mut hits);
            for &k in &hits {
                if segments[k].contains_point(p) {
                    push_interior(&mut splits[distinct[k]], &segments[k], *p);
                }
            }
        }
        splits
    }

    /// Collinear overlaps through a shared endpoint: the distinct segments
    /// leaving an endpoint along one ray pairwise overlap, and the nearer
    /// far endpoint of each pair splits the longer segment.
    fn split_shared_endpoint_overlaps(&self, splits: &mut [Vec<Point>]) {
        let (segments, index) = (&self.input.segments, &self.endpoints);
        // The shared point and the far endpoint of a slot `2i + side`.
        let ends_of = |slot: u32| {
            let s = &segments[slot as usize / 2].0;
            if slot % 2 == 0 {
                (s.a, s.b)
            } else {
                (s.b, s.a)
            }
        };
        // Two segments from `origin` along one ray overlap: the nearer far
        // endpoint splits the longer one. Along a line, lexicographic point
        // order is distance order from `origin`, rising or falling.
        let mut split_longer =
            |origin: Point, (x, far_x): (u32, Point), (y, far_y): (u32, Point)| {
                let (near, long) =
                    if (far_x < far_y) == (far_x > origin) { (far_x, y) } else { (far_y, x) };
                let long = long as usize / 2;
                push_interior(&mut splits[long], &segments[long].0, near);
            };
        let mut incident: Vec<u32> = Vec::new();
        let mut rays: Vec<(DirectionVector, u32)> = Vec::new();
        for id in 0..index.len() as u32 {
            incident.clear();
            incident.extend(
                index
                    .incident(id)
                    .iter()
                    .filter(|&&slot| index.rep[slot as usize / 2] == slot as usize / 2),
            );
            if let [x, y] = incident[..] {
                // The common case, one pair: an exact orientation test.
                let ((origin, far_x), (_, far_y)) = (ends_of(x), ends_of(y));
                if (far_x > origin) == (far_y > origin)
                    && orientation(&origin, &far_x, &far_y) == Orientation::Collinear
                {
                    split_longer(origin, (x, far_x), (y, far_y));
                }
                continue;
            }
            if incident.len() < 2 {
                continue;
            }
            // Sorted by direction, the segments along one ray are a run.
            rays.clear();
            rays.extend(incident.iter().map(|&slot| {
                let (from, to) = ends_of(slot);
                (DirectionVector::between(&from, &to), slot)
            }));
            rays.sort_unstable_by(|l, r| pseudo_angle_cmp(&l.0, &r.0));
            let mut run = 0;
            for end in 1..=rays.len() {
                if end < rays.len() && pseudo_angle_cmp(&rays[run].0, &rays[end].0).is_eq() {
                    continue;
                }
                for x in run..end {
                    for y in x + 1..end {
                        let ((origin, far_x), (_, far_y)) =
                            (ends_of(rays[x].1), ends_of(rays[y].1));
                        split_longer(origin, (rays[x].1, far_x), (rays[y].1, far_y));
                    }
                }
                run = end;
            }
        }
    }

    /// Phase 2: map split points to vertices and merge coincident
    /// sub-segments into undirected arrangement edges.
    ///
    /// Vertices and edges are numbered by first occurrence: segments in
    /// input order, each walked from `a` to `b`, then the isolated points.
    /// A split point that is an input endpoint maps to its vertex through
    /// its endpoint id (a segment's own endpoints directly, interior points
    /// by binary search); only true crossing points and isolated points off
    /// every endpoint are hashed. A duplicate segment adds its source to its
    /// representative's edges. An edge is looked up among the edges already
    /// at the lower-degree end of the new one, so no edge map is kept.
    fn build_edges(&mut self, mut splits: Vec<Vec<Point>>) -> Edges {
        let index = &self.endpoints;
        let mut endpoint_vertex: Vec<VertexId> = vec![VertexId::MAX; index.len()];
        let mut crossing_vertex: HashMap<Point, VertexId> = HashMap::new();
        let mut rotations: Vec<Vec<EdgeId>> = Vec::new();
        let vertices = &mut self.vertices;
        let mut vertex = |p: Point, id: Option<u32>, rotations: &mut Vec<Vec<EdgeId>>| {
            let slot = match id {
                Some(id) => &mut endpoint_vertex[id as usize],
                None => crossing_vertex.entry(p).or_insert(VertexId::MAX),
            };
            if *slot == VertexId::MAX {
                *slot = vertices.len();
                vertices.push(p);
                rotations.push(Vec::new());
            }
            *slot
        };
        let mut edges: Vec<RawEdge> = Vec::new();
        let mut dirs: Vec<DirectionVector> = Vec::new();
        // The edges of every distinct segment from `a` to `b`, flat, and
        // each segment's range in it.
        let mut chains: Vec<EdgeId> = Vec::new();
        let mut chain_of: Vec<(usize, usize)> = vec![(0, 0); splits.len()];
        for (i, ((segment, source), points)) in
            self.input.segments.iter().zip(&mut splits).enumerate()
        {
            let rep = index.rep[i];
            if rep != i {
                let (from, to) = chain_of[rep];
                for &e in &chains[from..to] {
                    edges[e].2.push(*source);
                }
                continue;
            }
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
            let [a_id, b_id] = index.ends[i];
            let dir = DirectionVector::between(&segment.a, &segment.b);
            let first = chains.len();
            let mut u = vertex(segment.a, Some(a_id), &mut rotations);
            let last = points.len() - 1;
            for (k, &p) in points.iter().enumerate().skip(1) {
                let id = if k == last { Some(b_id) } else { index.id_of(&p) };
                let w = vertex(p, id, &mut rotations);
                debug_assert_ne!(u, w);
                let (lo, hi) = (u.min(w), u.max(w));
                let scan = if rotations[lo].len() <= rotations[hi].len() { lo } else { hi };
                let existing = rotations[scan].iter().copied().find(|&e| {
                    let (v1, v2, _) = &edges[e];
                    (*v1, *v2) == (lo, hi)
                });
                let e = existing.unwrap_or_else(|| {
                    edges.push((lo, hi, Vec::new()));
                    dirs.push(if lo == u { dir } else { -dir });
                    rotations[lo].push(edges.len() - 1);
                    rotations[hi].push(edges.len() - 1);
                    edges.len() - 1
                });
                edges[e].2.push(*source);
                chains.push(e);
                u = w;
            }
            chain_of[i] = (first, chains.len());
        }
        let point_vertices: Vec<VertexId> = self
            .input
            .points
            .iter()
            .map(|(p, _)| vertex(*p, index.id_of(p), &mut rotations))
            .collect();
        Edges { edges, dirs, rotations, point_vertices }
    }

    /// Phase 3: rotation system. Each slot's outgoing direction is computed
    /// once, from the edge's input-segment direction, so the sort compares
    /// small direction vectors and never the difference of two crossing
    /// points. Positive multiples compare equal under `pseudo_angle_cmp`, so
    /// the order is that of the edge vectors themselves.
    fn sort_rotations(edges: &[RawEdge], dirs: &[DirectionVector], rotations: &mut [Vec<EdgeId>]) {
        let mut slots: Vec<(DirectionVector, EdgeId)> = Vec::new();
        for (v, rot) in rotations.iter_mut().enumerate() {
            if rot.len() < 2 {
                continue;
            }
            slots.clear();
            slots.extend(rot.iter().map(|&e| (outgoing(edges, dirs, e, v), e)));
            slots.sort_unstable_by(|l, r| pseudo_angle_cmp(&l.0, &r.0));
            for (r, &(_, e)) in rot.iter_mut().zip(&slots) {
                *r = e;
            }
        }
    }

    /// Phase 4a: half-edge `next` pointers and cycle tracing.
    ///
    /// Half-edge `2e` runs `v1 -> v2`, half-edge `2e+1` runs `v2 -> v1`.
    /// `next(h)` continues the face boundary keeping the face on the left.
    fn trace_cycles(
        &self,
        edges: &[(VertexId, VertexId, Vec<u32>)],
        rotations: &[Vec<EdgeId>],
    ) -> (Vec<usize>, usize) {
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
        (cycle_of, cycle_count)
    }

    /// Phases 4b–6: components, outer contours, faces, nesting, assembly.
    fn assemble_faces(
        &mut self,
        edges: Vec<RawEdge>,
        dirs: &[DirectionVector],
        rotations: Vec<Vec<EdgeId>>,
        point_vertices: Vec<VertexId>,
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
        let mut comp_index: Vec<usize> = vec![usize::MAX; n];
        let mut comp_min_vertex: Vec<VertexId> = Vec::new();
        for (v, rot) in rotations.iter().enumerate().take(n) {
            if rot.is_empty() {
                continue;
            }
            let root = find(&mut parent, v);
            if comp_index[root] == usize::MAX {
                comp_index[root] = comp_min_vertex.len();
                comp_min_vertex.push(v);
            }
            let idx = comp_index[root];
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
                let d = outgoing(&edges, dirs, e, v);
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
                    cycle_comp.push(comp_index[find(&mut parent, u)]);
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
        // Edge incidences, moving each edge's sources into place.
        let arr_edges: Vec<ArrEdge> = edges
            .into_iter()
            .enumerate()
            .map(|(e, (v1, v2, sources))| ArrEdge {
                v1,
                v2,
                sources,
                face_left: face_of_cycle[cycle_of[2 * e]].unwrap(),
                face_right: face_of_cycle[cycle_of[2 * e + 1]].unwrap(),
            })
            .collect();

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
    fn generic_crossings_at_survey_extents_build() {
        // Three pairwise-crossing segments with generic endpoints near ±2³⁰
        // and ±2⁴⁰. Their crossing points have denominators near 2⁸², so
        // the difference of two of them overflows `i128` products; edge
        // directions come from the integer input segments instead.
        let (m, k) = (1i64 << 40, 1i64 << 30);
        let mut input = ArrangementInput::new();
        input.add_segment(seg(-m + 17, -k + 5, m - 3, k + 11), 0);
        input.add_segment(seg(-m + 7, k - 13, m + 19, -k - 1), 1);
        input.add_segment(seg(-k + 3, -m + 23, k - 29, m + 1), 2);
        let arr = build_arrangement(&input);
        assert_eq!((arr.vertex_count(), arr.edge_count(), arr.face_count()), (9, 9, 2));
        assert!(arr.validate().is_ok(), "{:?}", arr.validate());
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

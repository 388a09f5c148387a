//! Frozen pre-optimisation reference implementation of the arrangement
//! builder, compiled only with the `naive-reference` feature (and for this
//! crate's own tests).
//!
//! This module is a faithful copy of the builder as it stood before the
//! allocation-lean overhaul: a hash-map-of-buckets segment grid with
//! hash-set deduplication, split points re-sorted with a fresh exact
//! `distance_sq` per comparison, a `(vertex, edge) -> position` hash map in
//! the cycle tracer, hash-set face-boundary accumulation, and
//! `O(components × cycles)` nesting scans. [`build_arrangement_naive`] also
//! holds a [`topo_geometry::slow_mode`] guard for its whole run, so
//! `Rational` arithmetic takes the seed (always-canonicalising,
//! always-256-bit-comparison) code paths as well.
//!
//! It exists for two consumers and must not be used elsewhere:
//!
//! * the perf harness (`topo-bench`'s `bench_runner`), which measures the
//!   optimised pipeline against this reference and records the speedup in
//!   `BENCH_2.json`;
//! * the equivalence tests (`tests/perf_equivalence.rs`), which prove the
//!   optimised pipeline produces identical arrangements and canonical codes.

// Frozen seed code: silence style lints instead of editing the reference.
#![allow(clippy::needless_range_loop, clippy::type_complexity, clippy::unnecessary_sort_by)]
//!
//! Keep it frozen: when the optimised builder changes behaviour, the
//! equivalence tests comparing the two are the alarm that should ring.

use crate::containment::{innermost, CycleGeometry};
use crate::{ArrEdge, ArrFace, Arrangement, ArrangementInput, EdgeId, FaceId, VertexId};
use std::collections::{HashMap, HashSet};
use topo_geometry::{pseudo_angle_cmp, BBox, DirectionVector, Point, Segment, SegmentIntersection};

/// Builds the planar arrangement with the pre-optimisation reference code
/// path, including seed-style `Rational` arithmetic (see module docs).
///
/// Observationally identical to [`crate::build_arrangement`]; only the cost
/// profile differs.
pub fn build_arrangement_naive(input: &ArrangementInput) -> Arrangement {
    let _slow = topo_geometry::slow_mode::SlowGuard::new();
    NaiveBuilder::new(input).run()
}

/// The seed's uniform grid: hash map of cell buckets, hash-set dedup.
struct NaiveGrid {
    cell_size: f64,
    min_x: f64,
    min_y: f64,
    cells: HashMap<(i64, i64), Vec<usize>>,
    boxes: Vec<BBox>,
}

impl NaiveGrid {
    fn build(segments: &[Segment]) -> Self {
        let boxes: Vec<BBox> = segments.iter().map(|s| s.bbox()).collect();
        let mut min_x = f64::INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        let mut total_extent = 0.0f64;
        for b in &boxes {
            let (x0, y0, x1, y1) = b.to_f64();
            min_x = min_x.min(x0);
            min_y = min_y.min(y0);
            max_x = max_x.max(x1);
            max_y = max_y.max(y1);
            total_extent += (x1 - x0).max(y1 - y0);
        }
        if boxes.is_empty() {
            return NaiveGrid {
                cell_size: 1.0,
                min_x: 0.0,
                min_y: 0.0,
                cells: HashMap::new(),
                boxes,
            };
        }
        let avg_extent = (total_extent / boxes.len() as f64).max(1e-9);
        let span = (max_x - min_x).max(max_y - min_y).max(1e-9);
        let cell_size = avg_extent.max(span / 2048.0);
        let mut grid = NaiveGrid { cell_size, min_x, min_y, cells: HashMap::new(), boxes };
        for i in 0..segments.len() {
            let (cx0, cy0, cx1, cy1) = grid.cell_range(&grid.boxes[i]);
            for cx in cx0..=cx1 {
                for cy in cy0..=cy1 {
                    grid.cells.entry((cx, cy)).or_default().push(i);
                }
            }
        }
        grid
    }

    fn cell_range(&self, b: &BBox) -> (i64, i64, i64, i64) {
        let (x0, y0, x1, y1) = b.to_f64();
        (
            ((x0 - self.min_x) / self.cell_size).floor() as i64,
            ((y0 - self.min_y) / self.cell_size).floor() as i64,
            ((x1 - self.min_x) / self.cell_size).floor() as i64,
            ((y1 - self.min_y) / self.cell_size).floor() as i64,
        )
    }

    fn candidate_pairs(&self) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        let mut seen = HashSet::new();
        for bucket in self.cells.values() {
            for (k, &i) in bucket.iter().enumerate() {
                for &j in &bucket[k + 1..] {
                    let key = if i < j { (i, j) } else { (j, i) };
                    if seen.insert(key) && self.boxes[key.0].intersects(&self.boxes[key.1]) {
                        pairs.push(key);
                    }
                }
            }
        }
        pairs
    }

    fn query_box(&self, query: &BBox) -> Vec<usize> {
        if self.boxes.is_empty() {
            return Vec::new();
        }
        let (cx0, cy0, cx1, cy1) = self.cell_range(query);
        let mut out = HashSet::new();
        for cx in cx0..=cx1 {
            for cy in cy0..=cy1 {
                if let Some(bucket) = self.cells.get(&(cx, cy)) {
                    for &i in bucket {
                        if self.boxes[i].intersects(query) {
                            out.insert(i);
                        }
                    }
                }
            }
        }
        let mut v: Vec<usize> = out.into_iter().collect();
        v.sort_unstable();
        v
    }
}

struct NaiveBuilder<'a> {
    input: &'a ArrangementInput,
    vertex_ids: HashMap<Point, VertexId>,
    vertices: Vec<Point>,
}

impl<'a> NaiveBuilder<'a> {
    fn new(input: &'a ArrangementInput) -> Self {
        NaiveBuilder { input, vertex_ids: HashMap::new(), vertices: Vec::new() }
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
        let (edges, point_vertices) = self.build_edges(splits);
        let rotations = self.build_rotations(&edges);
        let (cycle_of, cycle_count) = self.trace_cycles(&edges, &rotations);
        let assembled =
            self.assemble_faces(edges, rotations, point_vertices, &cycle_of, cycle_count);
        debug_assert!(assembled.validate().is_ok(), "{:?}", assembled.validate());
        assembled
    }

    fn compute_splits(&mut self) -> Vec<Vec<Point>> {
        let segments: Vec<Segment> = self.input.segments.iter().map(|(s, _)| *s).collect();
        let mut splits: Vec<Vec<Point>> = segments.iter().map(|s| vec![s.a, s.b]).collect();
        if !segments.is_empty() {
            let grid = NaiveGrid::build(&segments);
            for (i, j) in grid.candidate_pairs() {
                match segments[i].intersect(&segments[j]) {
                    SegmentIntersection::None => {}
                    SegmentIntersection::Point(p) => {
                        splits[i].push(p);
                        splits[j].push(p);
                    }
                    SegmentIntersection::Overlap(p, q) => {
                        splits[i].push(p);
                        splits[i].push(q);
                        splits[j].push(p);
                        splits[j].push(q);
                    }
                }
            }
            for (p, _) in &self.input.points {
                let query = BBox::from_points(&[*p]);
                for idx in grid.query_box(&query) {
                    if segments[idx].contains_point(p) {
                        splits[idx].push(*p);
                    }
                }
            }
        }
        splits
    }

    fn build_edges(
        &mut self,
        splits: Vec<Vec<Point>>,
    ) -> (Vec<(VertexId, VertexId, Vec<u32>)>, Vec<VertexId>) {
        let mut edge_ids: HashMap<(VertexId, VertexId), EdgeId> = HashMap::new();
        let mut edges: Vec<(VertexId, VertexId, Vec<u32>)> = Vec::new();
        for ((segment, source), mut points) in self.input.segments.iter().zip(splits) {
            // Seed behaviour: the exact key is recomputed in every comparison.
            points.sort_by(|p, q| segment.a.distance_sq(p).cmp(&segment.a.distance_sq(q)));
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
        // Seed behaviour: rotation positions live in a hash map keyed on
        // (vertex, edge).
        let mut rot_pos: HashMap<(VertexId, EdgeId), usize> = HashMap::new();
        for (v, rot) in rotations.iter().enumerate() {
            for (idx, &e) in rot.iter().enumerate() {
                rot_pos.insert((v, e), idx);
            }
        }
        let mut next = vec![usize::MAX; half_count];
        for h in 0..half_count {
            let twin = h ^ 1;
            let v = origin(twin);
            let rot = &rotations[v];
            let pos = rot_pos[&(v, h / 2)];
            let prev_edge = rot[(pos + rot.len() - 1) % rot.len()];
            let (v1, _, _) = &edges[prev_edge];
            let out_half = if *v1 == v { prev_edge * 2 } else { prev_edge * 2 + 1 };
            next[h] = out_half;
        }
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

    fn assemble_faces(
        &mut self,
        edges: Vec<(VertexId, VertexId, Vec<u32>)>,
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
        let mut comp_index: HashMap<usize, usize> = HashMap::new();
        let mut comp_min_vertex: Vec<VertexId> = Vec::new();
        for v in 0..n {
            if rotations[v].is_empty() {
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
        let comp_of_vertex = |builder_parent: &mut [usize],
                              v: VertexId,
                              comp_index: &HashMap<usize, usize>|
         -> usize { comp_index[&find(builder_parent, v)] };

        let comp_count = comp_min_vertex.len();
        let mut outer_cycle_of_comp: Vec<usize> = vec![usize::MAX; comp_count];
        for (c, &v) in comp_min_vertex.iter().enumerate() {
            let rot = &rotations[v];
            debug_assert!(!rot.is_empty());
            let mut best: Option<(bool, DirectionVector, EdgeId)> = None;
            for &e in rot {
                let d = self.outgoing_direction(&edges, e, v, self.vertices[v]);
                let upper_half = d.dy.signum() > 0 || (d.dy.is_zero() && d.dx.signum() > 0);
                let better = match &best {
                    None => true,
                    Some((best_upper, best_dir, _)) => {
                        if upper_half != *best_upper {
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
        let outer_cycles: HashSet<usize> = outer_cycle_of_comp.iter().copied().collect();

        let exterior_face: FaceId = 0;
        let mut faces: Vec<ArrFace> = vec![ArrFace { bounded: false, ..Default::default() }];
        let mut face_of_cycle: Vec<Option<FaceId>> = vec![None; cycle_count];
        for cycle in 0..cycle_count {
            if !outer_cycles.contains(&cycle) {
                faces.push(ArrFace { bounded: true, ..Default::default() });
                face_of_cycle[cycle] = Some(faces.len() - 1);
            }
        }

        let mut cycle_geometry: Vec<Option<CycleGeometry>> = vec![None; cycle_count];
        let mut cycle_component: Vec<Option<usize>> = vec![None; cycle_count];
        {
            let mut cycle_halves: Vec<Vec<usize>> = vec![Vec::new(); cycle_count];
            for h in 0..edges.len() * 2 {
                cycle_halves[cycle_of[h]].push(h);
            }
            for (cycle, halves) in cycle_halves.iter().enumerate() {
                if halves.is_empty() {
                    continue;
                }
                cycle_component[cycle] =
                    Some(comp_of_vertex(&mut parent, origin(halves[0]), &comp_index));
                if face_of_cycle[cycle].is_some() {
                    let directed: Vec<(Point, Point)> = halves
                        .iter()
                        .map(|&h| (self.vertices[origin(h)], self.vertices[origin(h ^ 1)]))
                        .collect();
                    cycle_geometry[cycle] = Some(CycleGeometry::new(directed));
                }
            }
        }
        let positive_cycles: Vec<usize> =
            (0..cycle_count).filter(|&c| face_of_cycle[c].is_some()).collect();
        let all_geometry: Vec<CycleGeometry> = positive_cycles
            .iter()
            .map(|&c| cycle_geometry[c].clone().expect("geometry for bounded cycle"))
            .collect();

        // Seed behaviour: every nesting probe scans every positive cycle.
        let mut parent_face_of_comp: Vec<FaceId> = vec![exterior_face; comp_count];
        for (c, &min_v) in comp_min_vertex.iter().enumerate() {
            let probe = self.vertices[min_v];
            let containers: Vec<usize> = (0..positive_cycles.len())
                .filter(|&k| {
                    cycle_component[positive_cycles[k]] != Some(c)
                        && all_geometry[k].contains(&probe)
                })
                .collect();
            if !containers.is_empty() {
                let inner = innermost(&containers, &all_geometry);
                parent_face_of_comp[c] = face_of_cycle[positive_cycles[inner]].unwrap();
            }
        }
        for cycle in 0..cycle_count {
            if face_of_cycle[cycle].is_none() && cycle_component[cycle].is_some() {
                let comp = cycle_component[cycle].unwrap();
                face_of_cycle[cycle] = Some(parent_face_of_comp[comp]);
            }
        }

        let mut isolated: Vec<(VertexId, FaceId)> = Vec::new();
        for v in 0..n {
            if !rotations[v].is_empty() {
                continue;
            }
            let probe = self.vertices[v];
            let containers: Vec<usize> =
                (0..positive_cycles.len()).filter(|&k| all_geometry[k].contains(&probe)).collect();
            let face = if containers.is_empty() {
                exterior_face
            } else {
                face_of_cycle[positive_cycles[innermost(&containers, &all_geometry)]].unwrap()
            };
            isolated.push((v, face));
        }

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
        let mut face_edge_sets: Vec<HashSet<EdgeId>> = vec![HashSet::new(); faces.len()];
        let mut face_vertex_sets: Vec<HashSet<VertexId>> = vec![HashSet::new(); faces.len()];
        for h in 0..edges.len() * 2 {
            let face = face_of_cycle[cycle_of[h]].unwrap();
            face_edge_sets[face].insert(h / 2);
            face_vertex_sets[face].insert(origin(h));
        }
        for &(v, face) in &isolated {
            face_vertex_sets[face].insert(v);
        }
        for (f, face) in faces.iter_mut().enumerate() {
            let mut es: Vec<EdgeId> = face_edge_sets[f].iter().copied().collect();
            es.sort_unstable();
            let mut vs: Vec<VertexId> = face_vertex_sets[f].iter().copied().collect();
            vs.sort_unstable();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_arrangement;
    use topo_geometry::Segment;

    fn p(x: i64, y: i64) -> Point {
        Point::from_ints(x, y)
    }

    /// The naive and optimised builders must produce structurally identical
    /// arrangements (same ids, same incidences, same rotation orders).
    #[test]
    fn naive_and_optimized_builders_agree() {
        let mut input = ArrangementInput::new();
        // Overlapping squares, a crossing diagonal, an antenna, isolated
        // points inside and outside.
        for (x0, y0, size, source) in [(0, 0, 100, 0), (50, 50, 100, 1), (20, 20, 10, 2)] {
            let a = p(x0, y0);
            let b = p(x0 + size, y0);
            let c = p(x0 + size, y0 + size);
            let d = p(x0, y0 + size);
            for (u, w) in [(a, b), (b, c), (c, d), (d, a)] {
                input.add_segment(Segment::new(u, w), source);
            }
        }
        input.add_segment(Segment::new(p(-20, -20), p(80, 130)), 3);
        input.add_point(p(40, 7), 4);
        input.add_point(p(-500, -500), 4);
        let fast = build_arrangement(&input);
        let naive = build_arrangement_naive(&input);
        assert_eq!(fast.vertices, naive.vertices);
        assert_eq!(fast.faces.len(), naive.faces.len());
        assert_eq!(fast.exterior_face, naive.exterior_face);
        assert_eq!(fast.rotations, naive.rotations);
        assert_eq!(fast.isolated, naive.isolated);
        assert_eq!(fast.point_vertices, naive.point_vertices);
        assert_eq!(fast.edges.len(), naive.edges.len());
        for (a, b) in fast.edges.iter().zip(&naive.edges) {
            assert_eq!((a.v1, a.v2, &a.sources), (b.v1, b.v2, &b.sources));
            assert_eq!((a.face_left, a.face_right), (b.face_left, b.face_right));
        }
        for (a, b) in fast.faces.iter().zip(&naive.faces) {
            assert_eq!(a.bounded, b.bounded);
            assert_eq!(a.boundary_edges, b.boundary_edges);
            assert_eq!(a.boundary_vertices, b.boundary_vertices);
        }
    }
}

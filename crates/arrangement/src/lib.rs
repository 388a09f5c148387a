//! Planar arrangements of straight-line segments and isolated points.
//!
//! Given a set of labelled input segments and points, this crate computes the
//! induced planar subdivision: the set of arrangement **vertices** (input
//! endpoints, isolated points and pairwise intersection points), **edges**
//! (maximal straight sub-segments whose interiors meet no vertex), and
//! **faces** (connected components of the plane minus the segments), together
//! with
//!
//! * the *rotation system* — the counterclockwise cyclic order of edges around
//!   every vertex (the raw material of the invariant's `Orientation`
//!   relation),
//! * the two faces incident to each edge,
//! * the boundary cycles of every face, including the outer contours of
//!   connected components nested inside the face and isolated vertices, and
//! * for every edge the multiset of input sources that cover it (used by the
//!   invariant construction to classify cells against regions).
//!
//! All topological decisions are made with the exact predicates of
//! [`topo_geometry`]; floating point is used only inside the candidate-pair
//! grid, which is conservative.
//!
//! This subdivision is the *maximal topological cell decomposition* from
//! which Theorem 2.1's invariant `top(I)` is assembled by `topo-invariant`.
//! It is the semi-linear stand-in for the algebraic cell-complex algorithms
//! of Kozen–Yap / Ben-Or–Kozen–Reif that the paper relies on (see DESIGN.md,
//! "Substitutions").

mod build;
mod containment;
mod endpoints;
#[cfg(any(test, feature = "naive-reference"))]
pub mod naive;

pub use build::{build_arrangement, build_arrangement_from_splits, compute_split_points};
#[cfg(feature = "naive-reference")]
pub use naive::build_arrangement_naive;

use topo_geometry::Point;

/// Index of an arrangement vertex.
pub type VertexId = usize;
/// Index of an arrangement edge.
pub type EdgeId = usize;
/// Index of an arrangement face.
pub type FaceId = usize;

/// Labelled input to the arrangement builder.
///
/// `source` tags are opaque to this crate; the invariant construction uses
/// them to remember which region contributed which piece of geometry.
#[derive(Clone, Debug, Default)]
pub struct ArrangementInput {
    /// Straight segments, each with a caller-defined source tag.
    pub segments: Vec<(topo_geometry::Segment, u32)>,
    /// Isolated points, each with a caller-defined source tag.
    pub points: Vec<(Point, u32)>,
}

impl ArrangementInput {
    /// Creates an empty input.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a segment with a source tag.
    pub fn add_segment(&mut self, segment: topo_geometry::Segment, source: u32) {
        self.segments.push((segment, source));
    }

    /// Adds an isolated point with a source tag.
    pub fn add_point(&mut self, point: Point, source: u32) {
        self.points.push((point, source));
    }
}

/// An undirected arrangement edge: a maximal open sub-segment containing no
/// vertex.
#[derive(Clone, Debug)]
pub struct ArrEdge {
    /// First endpoint.
    pub v1: VertexId,
    /// Second endpoint.
    pub v2: VertexId,
    /// Source tags of all input segments covering this edge, with
    /// multiplicity.
    pub sources: Vec<u32>,
    /// Face to the left when walking from `v1` to `v2`.
    pub face_left: FaceId,
    /// Face to the right when walking from `v1` to `v2`.
    pub face_right: FaceId,
}

impl ArrEdge {
    /// The endpoint other than `v`.
    ///
    /// # Panics
    /// Panics if `v` is not an endpoint of the edge.
    pub fn other_endpoint(&self, v: VertexId) -> VertexId {
        if v == self.v1 {
            self.v2
        } else {
            assert_eq!(v, self.v2, "vertex is not an endpoint of this edge");
            self.v1
        }
    }

    /// The two faces incident to the edge (possibly equal for antenna edges).
    pub fn incident_faces(&self) -> (FaceId, FaceId) {
        (self.face_left, self.face_right)
    }
}

/// A face of the arrangement.
#[derive(Clone, Debug, Default)]
pub struct ArrFace {
    /// True for every face except the unbounded exterior face.
    pub bounded: bool,
    /// All edges on the topological boundary of the face, including edges of
    /// connected components nested inside it.
    pub boundary_edges: Vec<EdgeId>,
    /// All vertices on the topological boundary of the face, including
    /// isolated vertices lying inside it.
    pub boundary_vertices: Vec<VertexId>,
}

/// A planar subdivision induced by the input segments and points.
#[derive(Clone, Debug)]
pub struct Arrangement {
    /// Coordinates of every arrangement vertex.
    pub vertices: Vec<Point>,
    /// Arrangement edges.
    pub edges: Vec<ArrEdge>,
    /// Arrangement faces. `faces[exterior_face]` is the unbounded face.
    pub faces: Vec<ArrFace>,
    /// Index of the unbounded face.
    pub exterior_face: FaceId,
    /// For every vertex, the incident edges in counterclockwise angular order
    /// of the outgoing direction. Empty for isolated vertices.
    pub rotations: Vec<Vec<EdgeId>>,
    /// For every isolated (degree-zero) vertex, the face containing it.
    pub isolated: Vec<(VertexId, FaceId)>,
    /// For every input point (in input order), the vertex it maps to.
    pub point_vertices: Vec<VertexId>,
}

impl Arrangement {
    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of faces (including the exterior face).
    pub fn face_count(&self) -> usize {
        self.faces.len()
    }

    /// Total number of cells (vertices + edges + faces).
    pub fn cell_count(&self) -> usize {
        self.vertex_count() + self.edge_count() + self.face_count()
    }

    /// Degree of a vertex (number of incident edges).
    pub fn degree(&self, v: VertexId) -> usize {
        self.rotations[v].len()
    }

    /// The edges incident to `v` in counterclockwise order.
    pub fn incident_edges(&self, v: VertexId) -> &[EdgeId] {
        &self.rotations[v]
    }

    /// The face containing an isolated vertex, if the vertex is isolated.
    pub fn isolated_face(&self, v: VertexId) -> Option<FaceId> {
        self.isolated.iter().find(|(u, _)| *u == v).map(|(_, f)| *f)
    }

    /// Checks internal consistency; used by tests and debug assertions.
    ///
    /// Verified properties:
    /// * every edge endpoint is a valid vertex and appears in its rotation,
    /// * every edge's incident faces are valid,
    /// * Euler's formula `V - E + F = 1 + C` holds, where `C` is the number of
    ///   connected components of the vertex/edge graph (isolated vertices
    ///   count as components),
    /// * every bounded face has a non-empty boundary.
    pub fn validate(&self) -> Result<(), String> {
        for (i, e) in self.edges.iter().enumerate() {
            if e.v1 >= self.vertices.len() || e.v2 >= self.vertices.len() {
                return Err(format!("edge {i} has out-of-range endpoint"));
            }
            if e.face_left >= self.faces.len() || e.face_right >= self.faces.len() {
                return Err(format!("edge {i} has out-of-range face"));
            }
            if !self.rotations[e.v1].contains(&i) || !self.rotations[e.v2].contains(&i) {
                return Err(format!("edge {i} missing from endpoint rotation"));
            }
        }
        // Count connected components of the 1-skeleton.
        let n = self.vertices.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut root = x;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = x;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        for e in &self.edges {
            let (a, b) = (find(&mut parent, e.v1), find(&mut parent, e.v2));
            if a != b {
                parent[a] = b;
            }
        }
        let mut roots = std::collections::HashSet::new();
        for v in 0..n {
            roots.insert(find(&mut parent, v));
        }
        let components = roots.len().max(1);
        let euler = self.vertices.len() as i64 - self.edges.len() as i64 + self.faces.len() as i64;
        if n > 0 && euler != 1 + components as i64 {
            return Err(format!(
                "Euler formula violated: V-E+F = {euler}, expected {}",
                1 + components
            ));
        }
        for (i, f) in self.faces.iter().enumerate() {
            if f.bounded && f.boundary_edges.is_empty() {
                return Err(format!("bounded face {i} has empty boundary"));
            }
        }
        Ok(())
    }
}

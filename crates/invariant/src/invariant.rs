//! The frozen topological invariant and its derived structure.

use crate::canonical::{self, CanonicalCode, CanonicalForm, CellRef, CodeHash};
use crate::complex::{Complex, RegionSet};
use std::sync::OnceLock;
use topo_relational::Structure;
use topo_spatial::{RegionId, Schema};

/// Kind of a cell of the invariant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// A 0-dimensional cell.
    Vertex,
    /// A 1-dimensional cell (possibly a loop or a closed curve).
    Edge,
    /// A 2-dimensional cell.
    Face,
}

/// Identifier of a connected component of the invariant's skeleton.
pub type ComponentId = usize;

/// One item of the *cone* of a vertex: the cyclic, alternating sequence of
/// incident edges and face sectors around the vertex, in counterclockwise
/// order. This is exactly the information the paper's `Orientation` relation
/// encodes, and the raw material of the cones/cycles normal form of Section 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConeItem {
    /// An incident edge (a loop appears twice).
    Edge(usize),
    /// A face sector.
    Face(usize),
}

/// A boundary component of a face.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoundaryComponent {
    /// A closed walk of directed edges `(edge, direction)`, where direction 0
    /// walks from the edge's first endpoint to its second.
    Walk(Vec<(usize, u8)>),
    /// A vertex-free closed curve lying on the face's boundary.
    ClosedCurve(usize),
    /// An isolated vertex lying inside the face.
    IsolatedVertex(usize),
}

/// A connected component of the invariant's skeleton (the graph whose nodes
/// are the vertices and edges, connected by the Edge–Vertex relation).
#[derive(Clone, Debug, Default)]
pub struct Component {
    /// Vertices of the component.
    pub vertices: Vec<usize>,
    /// Edges of the component.
    pub edges: Vec<usize>,
    /// The face of the invariant in which the component is embedded.
    pub parent_face: usize,
    /// Depth in the connected-component tree (children of the root have
    /// depth 0).
    pub depth: usize,
}

/// Lists of ids keyed by a dense id, in one flat buffer: list `k` is
/// `items[offsets[k]..offsets[k + 1]]`.
#[derive(Clone, Debug, Default)]
struct IdLists {
    offsets: Vec<usize>,
    items: Vec<usize>,
}

impl IdLists {
    /// Groups `(key, item)` pairs by key (every key below `keys`), keeping
    /// each key's items in the order the pairs arrive: a counting sort.
    fn group(keys: usize, pairs: impl Iterator<Item = (usize, usize)> + Clone) -> Self {
        let mut offsets = vec![0; keys + 1];
        for (k, _) in pairs.clone() {
            offsets[k + 1] += 1;
        }
        for k in 0..keys {
            offsets[k + 1] += offsets[k];
        }
        let mut next = offsets[..keys].to_vec();
        let mut items = vec![0; offsets[keys]];
        for (k, item) in pairs {
            items[next[k]] = item;
            next[k] += 1;
        }
        IdLists { offsets, items }
    }

    fn get(&self, key: usize) -> &[usize] {
        &self.items[self.offsets[key]..self.offsets[key + 1]]
    }
}

/// The topological invariant `top(I)` of a spatial instance: the maximal
/// topological cell decomposition together with region membership and the
/// cyclic orientation of cells around every vertex (Theorem 2.1).
#[derive(Clone, Debug)]
pub struct TopologicalInvariant {
    schema: Schema,
    // Vertices.
    vertex_slots: Vec<Vec<(usize, u8)>>,
    vertex_sectors: Vec<Vec<usize>>,
    vertex_isolated_face: Vec<Option<usize>>,
    vertex_regions: Vec<RegionSet>,
    vertex_boundary: Vec<RegionSet>,
    // Edges.
    edge_ends: Vec<Option<(usize, usize)>>,
    edge_sides: Vec<(usize, usize)>,
    edge_regions: Vec<RegionSet>,
    edge_boundary: Vec<RegionSet>,
    // Faces.
    face_regions: Vec<RegionSet>,
    exterior_face: usize,
    // Derived structure.
    components: Vec<Component>,
    component_of_vertex: Vec<ComponentId>,
    component_of_edge: Vec<ComponentId>,
    face_owner: Vec<Option<ComponentId>>,
    owned_faces: IdLists,
    face_children: IdLists,
    // The canonical form and its hash, computed once on first use. The
    // invariant is immutable after construction, so the cache can never go
    // stale; cloning an invariant carries the cache along.
    canonical: OnceLock<(CanonicalForm, CodeHash)>,
}

/// The raw, serialisation-friendly data of a [`TopologicalInvariant`]: every
/// stored field, with all derived structure (skeleton components, the
/// component tree, face ownership, the cached canonical form) stripped.
///
/// Read (borrowed) through [`TopologicalInvariant::parts_ref`] and consumed
/// by [`TopologicalInvariant::from_parts`], which recomputes the derived
/// structure — the round trip is observationally exact (same canonical code,
/// same relational export). This is the surface persistence layers such as
/// `topo-store`'s snapshot/WAL format encode, so the invariant's in-memory
/// derived caches never leak into an on-disk format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InvariantParts {
    /// The schema the invariant was built over.
    pub schema: Schema,
    /// Per vertex: edge-end slots in counterclockwise order.
    pub vertex_slots: Vec<Vec<(usize, u8)>>,
    /// Per vertex: face sectors (sector `i` follows slot `i`).
    pub vertex_sectors: Vec<Vec<usize>>,
    /// Per vertex: the containing face, for isolated vertices.
    pub vertex_isolated_face: Vec<Option<usize>>,
    /// Per vertex: regions containing it.
    pub vertex_regions: Vec<RegionSet>,
    /// Per vertex: regions on whose boundary it lies.
    pub vertex_boundary: Vec<RegionSet>,
    /// Per edge: endpoints (`None` for closed curves).
    pub edge_ends: Vec<Option<(usize, usize)>>,
    /// Per edge: the two faces beside it.
    pub edge_sides: Vec<(usize, usize)>,
    /// Per edge: regions containing it.
    pub edge_regions: Vec<RegionSet>,
    /// Per edge: regions on whose boundary it lies.
    pub edge_boundary: Vec<RegionSet>,
    /// Per face: regions whose interior contains it.
    pub face_regions: Vec<RegionSet>,
    /// Index of the exterior face.
    pub exterior_face: usize,
}

/// A borrowed view of the same fields as [`InvariantParts`], produced by
/// [`TopologicalInvariant::parts_ref`] without copying anything. Encoders
/// read the stored data through it.
#[derive(Clone, Copy, Debug)]
pub struct InvariantPartsRef<'a> {
    /// The schema the invariant was built over.
    pub schema: &'a Schema,
    /// Per vertex: edge-end slots in counterclockwise order.
    pub vertex_slots: &'a [Vec<(usize, u8)>],
    /// Per vertex: face sectors (sector `i` follows slot `i`).
    pub vertex_sectors: &'a [Vec<usize>],
    /// Per vertex: the containing face, for isolated vertices.
    pub vertex_isolated_face: &'a [Option<usize>],
    /// Per vertex: regions containing it.
    pub vertex_regions: &'a [RegionSet],
    /// Per vertex: regions on whose boundary it lies.
    pub vertex_boundary: &'a [RegionSet],
    /// Per edge: endpoints (`None` for closed curves).
    pub edge_ends: &'a [Option<(usize, usize)>],
    /// Per edge: the two faces beside it.
    pub edge_sides: &'a [(usize, usize)],
    /// Per edge: regions containing it.
    pub edge_regions: &'a [RegionSet],
    /// Per edge: regions on whose boundary it lies.
    pub edge_boundary: &'a [RegionSet],
    /// Per face: regions whose interior contains it.
    pub face_regions: &'a [RegionSet],
    /// Index of the exterior face.
    pub exterior_face: usize,
}

impl InvariantParts {
    /// Structural validation: every per-vertex/-edge/-face vector has the
    /// right length and every cross-reference (edge endpoints, face sides,
    /// sector faces, isolated faces, the exterior face) is in bounds. Returns
    /// a description of the first violation.
    fn validate(&self) -> Result<(), String> {
        let nv = self.vertex_slots.len();
        let ne = self.edge_ends.len();
        let nf = self.face_regions.len();
        let len = |name: &str, got: usize, want: usize| {
            if got == want {
                Ok(())
            } else {
                Err(format!("{name}: {got} entries for {want} cells"))
            }
        };
        len("vertex_sectors", self.vertex_sectors.len(), nv)?;
        len("vertex_isolated_face", self.vertex_isolated_face.len(), nv)?;
        len("vertex_regions", self.vertex_regions.len(), nv)?;
        len("vertex_boundary", self.vertex_boundary.len(), nv)?;
        len("edge_sides", self.edge_sides.len(), ne)?;
        len("edge_regions", self.edge_regions.len(), ne)?;
        len("edge_boundary", self.edge_boundary.len(), ne)?;
        if nf == 0 {
            return Err("no faces (every invariant has an exterior face)".to_string());
        }
        if self.exterior_face >= nf {
            return Err(format!("exterior face {} out of {nf} faces", self.exterior_face));
        }
        for (v, slots) in self.vertex_slots.iter().enumerate() {
            if self.vertex_sectors[v].len() != slots.len() {
                return Err(format!("vertex {v}: sector count diverges from slot count"));
            }
            for &(e, end) in slots {
                if e >= ne || end > 1 {
                    return Err(format!("vertex {v}: slot ({e}, {end}) out of range"));
                }
            }
            for &f in &self.vertex_sectors[v] {
                if f >= nf {
                    return Err(format!("vertex {v}: sector face {f} out of {nf}"));
                }
            }
            if let Some(f) = self.vertex_isolated_face[v] {
                if f >= nf {
                    return Err(format!("vertex {v}: isolated face {f} out of {nf}"));
                }
            }
            if slots.is_empty() && self.vertex_isolated_face[v].is_none() {
                return Err(format!("vertex {v}: isolated but has no containing face"));
            }
        }
        for (e, ends) in self.edge_ends.iter().enumerate() {
            if let Some((a, b)) = *ends {
                if a >= nv || b >= nv {
                    return Err(format!("edge {e}: endpoint out of {nv} vertices"));
                }
            }
            let (l, r) = self.edge_sides[e];
            if l >= nf || r >= nf {
                return Err(format!("edge {e}: side face out of {nf} faces"));
            }
        }
        Ok(())
    }
}

impl TopologicalInvariant {
    /// Freezes a (reduced or unreduced) complex into an invariant.
    ///
    /// The renumbering is flat: complex cell ids are dense, so the live-cell
    /// index maps are plain vectors rather than hash maps, and every face
    /// reference goes through one memoised [`Complex::resolved_faces`] table
    /// instead of a union-find parent-chain walk per lookup.
    pub fn from_complex(complex: &Complex, schema: Schema) -> Self {
        // Compact renumbering of live cells over the dense id spaces
        // (`usize::MAX` marks dead ids, which are never referenced).
        let live_vertices = complex.live_vertices();
        let live_edges = complex.live_edges();
        let live_faces = complex.live_faces();
        let (vertex_ids, edge_ids, face_ids) = complex.id_bounds();
        let mut vmap = vec![usize::MAX; vertex_ids];
        for (i, &v) in live_vertices.iter().enumerate() {
            vmap[v] = i;
        }
        let mut emap = vec![usize::MAX; edge_ids];
        for (i, &e) in live_edges.iter().enumerate() {
            emap[e] = i;
        }
        // `live_faces` holds representative ids, so indexing the resolved
        // table by any raw face id lands on a mapped slot.
        let resolved = complex.resolved_faces();
        let mut fmap = vec![usize::MAX; face_ids];
        for (i, &f) in live_faces.iter().enumerate() {
            fmap[f] = i;
        }
        let face_of = |f: usize| fmap[resolved[f]];

        let vertex_slots: Vec<Vec<(usize, u8)>> = live_vertices
            .iter()
            .map(|&v| complex.slots(v).iter().map(|&(e, end)| (emap[e], end)).collect())
            .collect();
        let vertex_sectors: Vec<Vec<usize>> = live_vertices
            .iter()
            .map(|&v| complex.raw_sectors(v).iter().map(|&f| face_of(f)).collect())
            .collect();
        let vertex_isolated_face: Vec<Option<usize>> =
            live_vertices.iter().map(|&v| complex.raw_isolated_face(v).map(face_of)).collect();
        let vertex_regions: Vec<RegionSet> =
            live_vertices.iter().map(|&v| complex.vertex_regions(v).clone()).collect();
        let vertex_boundary: Vec<RegionSet> =
            live_vertices.iter().map(|&v| complex.vertex_boundary_regions(v).clone()).collect();

        let edge_ends: Vec<Option<(usize, usize)>> = live_edges
            .iter()
            .map(|&e| complex.edge_ends(e).map(|(a, b)| (vmap[a], vmap[b])))
            .collect();
        let edge_sides: Vec<(usize, usize)> = live_edges
            .iter()
            .map(|&e| {
                let (a, b) = complex.raw_edge_sides(e);
                (face_of(a), face_of(b))
            })
            .collect();
        let edge_regions: Vec<RegionSet> =
            live_edges.iter().map(|&e| complex.edge_regions(e).clone()).collect();
        let edge_boundary: Vec<RegionSet> =
            live_edges.iter().map(|&e| complex.edge_boundary_regions(e).clone()).collect();

        let face_regions: Vec<RegionSet> =
            live_faces.iter().map(|&f| complex.face_regions(f).clone()).collect();
        let exterior_face = face_of(complex.raw_exterior_face());

        let mut invariant = TopologicalInvariant {
            schema,
            vertex_slots,
            vertex_sectors,
            vertex_isolated_face,
            vertex_regions,
            vertex_boundary,
            edge_ends,
            edge_sides,
            edge_regions,
            edge_boundary,
            face_regions,
            exterior_face,
            components: Vec::new(),
            component_of_vertex: Vec::new(),
            component_of_edge: Vec::new(),
            face_owner: Vec::new(),
            owned_faces: IdLists::default(),
            face_children: IdLists::default(),
            canonical: OnceLock::new(),
        };
        invariant.compute_components();
        invariant.compute_component_tree();
        invariant
    }

    /// The raw stored data of the invariant, borrowed: every field of
    /// [`InvariantParts`], without copying.
    pub fn parts_ref(&self) -> InvariantPartsRef<'_> {
        InvariantPartsRef {
            schema: &self.schema,
            vertex_slots: &self.vertex_slots,
            vertex_sectors: &self.vertex_sectors,
            vertex_isolated_face: &self.vertex_isolated_face,
            vertex_regions: &self.vertex_regions,
            vertex_boundary: &self.vertex_boundary,
            edge_ends: &self.edge_ends,
            edge_sides: &self.edge_sides,
            edge_regions: &self.edge_regions,
            edge_boundary: &self.edge_boundary,
            face_regions: &self.face_regions,
            exterior_face: self.exterior_face,
        }
    }

    /// Rebuilds an invariant from its raw parts, recomputing the skeleton
    /// components, the component tree and face ownership. Rejects
    /// structurally inconsistent parts (length mismatches, out-of-range
    /// cross-references) with a description instead of risking a panic in a
    /// later query — the contract persistence layers need when the parts come
    /// off a disk.
    ///
    /// For parts copied from an invariant's [`parts_ref`](Self::parts_ref)
    /// the round trip is observationally exact: the same canonical code, the
    /// same relational export, the same answer to every accessor.
    pub fn from_parts(parts: InvariantParts) -> Result<Self, String> {
        parts.validate()?;
        let mut invariant = TopologicalInvariant {
            schema: parts.schema,
            vertex_slots: parts.vertex_slots,
            vertex_sectors: parts.vertex_sectors,
            vertex_isolated_face: parts.vertex_isolated_face,
            vertex_regions: parts.vertex_regions,
            vertex_boundary: parts.vertex_boundary,
            edge_ends: parts.edge_ends,
            edge_sides: parts.edge_sides,
            edge_regions: parts.edge_regions,
            edge_boundary: parts.edge_boundary,
            face_regions: parts.face_regions,
            exterior_face: parts.exterior_face,
            components: Vec::new(),
            component_of_vertex: Vec::new(),
            component_of_edge: Vec::new(),
            face_owner: Vec::new(),
            owned_faces: IdLists::default(),
            face_children: IdLists::default(),
            canonical: OnceLock::new(),
        };
        invariant.compute_components();
        invariant.compute_component_tree();
        Ok(invariant)
    }

    // ----- basic accessors --------------------------------------------------

    /// The schema the invariant was built over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertex_slots.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_ends.len()
    }

    /// Number of faces (including the exterior face).
    pub fn face_count(&self) -> usize {
        self.face_regions.len()
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        self.vertex_count() + self.edge_count() + self.face_count()
    }

    /// Index of the exterior face.
    pub fn exterior_face(&self) -> usize {
        self.exterior_face
    }

    /// Endpoints of an edge (`None` for closed curves, equal endpoints for
    /// loops).
    pub fn edge_endpoints(&self, e: usize) -> Option<(usize, usize)> {
        self.edge_ends[e]
    }

    /// The two faces beside an edge.
    pub fn edge_faces(&self, e: usize) -> (usize, usize) {
        self.edge_sides[e]
    }

    /// Degree of a vertex (edge-ends; loops count twice).
    pub fn degree(&self, v: usize) -> usize {
        self.vertex_slots[v].len()
    }

    /// Edge-end slots around a vertex in counterclockwise order.
    pub fn vertex_slots(&self, v: usize) -> &[(usize, u8)] {
        &self.vertex_slots[v]
    }

    /// Face sectors around a vertex (sector `i` follows slot `i`
    /// counterclockwise).
    pub fn vertex_sector_faces(&self, v: usize) -> &[usize] {
        &self.vertex_sectors[v]
    }

    /// The face containing an isolated vertex.
    pub fn isolated_vertex_face(&self, v: usize) -> Option<usize> {
        if self.vertex_slots[v].is_empty() {
            self.vertex_isolated_face[v]
        } else {
            None
        }
    }

    /// Regions containing a vertex.
    pub fn vertex_regions(&self, v: usize) -> &RegionSet {
        &self.vertex_regions[v]
    }

    /// Regions on whose boundary a vertex lies.
    pub fn vertex_boundary_regions(&self, v: usize) -> &RegionSet {
        &self.vertex_boundary[v]
    }

    /// Regions containing an edge.
    pub fn edge_regions(&self, e: usize) -> &RegionSet {
        &self.edge_regions[e]
    }

    /// Regions on whose boundary an edge lies.
    pub fn edge_boundary_regions(&self, e: usize) -> &RegionSet {
        &self.edge_boundary[e]
    }

    /// Regions whose interior contains a face.
    pub fn face_regions(&self, f: usize) -> &RegionSet {
        &self.face_regions[f]
    }

    /// True iff the cell of the given kind is contained in the region, which
    /// is the paper's per-region unary relation on cells.
    pub fn cell_in_region(&self, kind: CellKind, id: usize, region: RegionId) -> bool {
        match kind {
            CellKind::Vertex => self.vertex_regions[id].contains(region),
            CellKind::Edge => self.edge_regions[id].contains(region),
            CellKind::Face => self.face_regions[id].contains(region),
        }
    }

    /// The cone of a vertex: the cyclic alternating sequence of incident edges
    /// and face sectors in counterclockwise order. For an isolated vertex this
    /// is just its containing face.
    pub fn cone(&self, v: usize) -> Vec<ConeItem> {
        if self.vertex_slots[v].is_empty() {
            return vec![ConeItem::Face(
                self.vertex_isolated_face[v].expect("isolated vertex has a containing face"),
            )];
        }
        let mut out = Vec::with_capacity(self.vertex_slots[v].len() * 2);
        for (i, &(e, _)) in self.vertex_slots[v].iter().enumerate() {
            out.push(ConeItem::Edge(e));
            out.push(ConeItem::Face(self.vertex_sectors[v][i]));
        }
        out
    }

    /// All edges on the topological boundary of a face (the paper's
    /// `Face-Edge` relation), including edges of components nested inside the
    /// face.
    pub fn face_edges(&self, face: usize) -> Vec<usize> {
        (0..self.edge_count())
            .filter(|&e| self.edge_sides[e].0 == face || self.edge_sides[e].1 == face)
            .collect()
    }

    /// All vertices on the topological boundary of a face (the paper's
    /// `Face-Vertex` relation), including isolated vertices inside it.
    pub fn face_vertices(&self, face: usize) -> Vec<usize> {
        (0..self.vertex_count())
            .filter(|&v| {
                self.vertex_sectors[v].contains(&face)
                    || (self.vertex_slots[v].is_empty()
                        && self.vertex_isolated_face[v] == Some(face))
            })
            .collect()
    }

    // ----- components and the component tree --------------------------------

    fn compute_components(&mut self) {
        let nv = self.vertex_count();
        let ne = self.edge_count();
        let mut parent: Vec<usize> = (0..nv + ne).collect();
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
        for e in 0..ne {
            if let Some((a, b)) = self.edge_ends[e] {
                for v in [a, b] {
                    let (x, y) = (find(&mut parent, v), find(&mut parent, nv + e));
                    if x != y {
                        parent[x] = y;
                    }
                }
            }
        }
        // Component ids in order of first appearance (vertices, then edges),
        // indexed by union-find root.
        let mut component_of_root = vec![usize::MAX; nv + ne];
        let mut components: Vec<Component> = Vec::new();
        let mut component_of_cell = Vec::with_capacity(nv + ne);
        for cell in 0..nv + ne {
            let root = find(&mut parent, cell);
            if component_of_root[root] == usize::MAX {
                component_of_root[root] = components.len();
                components.push(Component::default());
            }
            let id = component_of_root[root];
            if cell < nv {
                components[id].vertices.push(cell);
            } else {
                components[id].edges.push(cell - nv);
            }
            component_of_cell.push(id);
        }
        self.component_of_edge = component_of_cell.split_off(nv);
        self.component_of_vertex = component_of_cell;
        self.components = components;
    }

    /// Builds the connected-component tree of the paper (Fig. 2): a
    /// level-order traversal from the exterior face assigns to every face the
    /// unique closest component owning it and to every component the face it
    /// is embedded in.
    ///
    /// Linear in the invariant's size: the face–component incidences are
    /// grouped once into per-face component lists and per-component face
    /// lists (both sorted and deduplicated), and the traversal walks those
    /// lists instead of scanning every face for every component.
    fn compute_component_tree(&mut self) {
        let face_count = self.face_count();
        let component_count = self.components.len();
        // Every (face, component) incidence, duplicates included.
        let mut incidences: Vec<(usize, ComponentId)> = Vec::new();
        for e in 0..self.edge_count() {
            let c = self.component_of_edge[e];
            let (a, b) = self.edge_sides[e];
            incidences.push((a, c));
            incidences.push((b, c));
        }
        for v in 0..self.vertex_count() {
            let c = self.component_of_vertex[v];
            incidences.extend(self.vertex_sectors[v].iter().map(|&f| (f, c)));
            if self.vertex_slots[v].is_empty() {
                if let Some(f) = self.vertex_isolated_face[v] {
                    incidences.push((f, c));
                }
            }
        }
        // Walking the incidences component by component and keeping each
        // face once per component yields per-face lists sorted by component;
        // inverting those face by face yields per-component lists sorted by
        // face.
        let raw = IdLists::group(component_count, incidences.iter().map(|&(f, c)| (c, f)));
        let mut last_component = vec![usize::MAX; face_count];
        incidences.clear();
        for c in 0..component_count {
            for &f in raw.get(c) {
                if last_component[f] != c {
                    last_component[f] = c;
                    incidences.push((f, c));
                }
            }
        }
        let face_components = IdLists::group(face_count, incidences.iter().copied());
        let component_faces = IdLists::group(
            component_count,
            (0..face_count).flat_map(|f| face_components.get(f).iter().map(move |&c| (c, f))),
        );

        let mut face_owner: Vec<Option<ComponentId>> = vec![None; face_count];
        let mut component_assigned = vec![false; component_count];
        let mut queue: std::collections::VecDeque<(ComponentId, usize, usize)> =
            std::collections::VecDeque::new();
        // The exterior face is owned by nobody; its adjacent components are the
        // roots of the forest (depth 0, parent = exterior face).
        for &c in face_components.get(self.exterior_face) {
            if !component_assigned[c] {
                component_assigned[c] = true;
                queue.push_back((c, self.exterior_face, 0));
            }
        }
        while let Some((c, parent_face, depth)) = queue.pop_front() {
            self.components[c].parent_face = parent_face;
            self.components[c].depth = depth;
            // Faces adjacent to this component that are not yet owned belong
            // to it.
            for &f in component_faces.get(c) {
                if f == self.exterior_face || face_owner[f].is_some() {
                    continue;
                }
                face_owner[f] = Some(c);
                for &child in face_components.get(f) {
                    if !component_assigned[child] {
                        component_assigned[child] = true;
                        queue.push_back((child, f, depth + 1));
                    }
                }
            }
        }
        self.owned_faces = IdLists::group(
            component_count,
            face_owner.iter().enumerate().filter_map(|(f, owner)| owner.map(|c| (c, f))),
        );
        self.face_children = IdLists::group(
            face_count,
            self.components.iter().enumerate().map(|(c, comp)| (comp.parent_face, c)),
        );
        self.face_owner = face_owner;
    }

    /// The connected components of the skeleton.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// The component a vertex belongs to.
    pub fn component_of_vertex(&self, v: usize) -> ComponentId {
        self.component_of_vertex[v]
    }

    /// The component an edge belongs to.
    pub fn component_of_edge(&self, e: usize) -> ComponentId {
        self.component_of_edge[e]
    }

    /// The component owning a face (the unique component closest to the
    /// exterior among those on the face's boundary), or `None` for the
    /// exterior face.
    pub fn face_owner(&self, face: usize) -> Option<ComponentId> {
        self.face_owner[face]
    }

    /// The faces owned by a component, sorted.
    pub fn owned_faces(&self, component: ComponentId) -> &[usize] {
        self.owned_faces.get(component)
    }

    /// The components directly embedded in a face (the children of the face in
    /// the component tree), sorted.
    pub fn components_in_face(&self, face: usize) -> &[ComponentId] {
        self.face_children.get(face)
    }

    // ----- boundary walks ----------------------------------------------------

    /// The boundary components of a face: closed walks of directed edges,
    /// vertex-free closed curves, and isolated vertices.
    pub fn boundary_components(&self, face: usize) -> Vec<BoundaryComponent> {
        let mut out = Vec::new();
        // Closed curves.
        for e in 0..self.edge_count() {
            if self.edge_ends[e].is_none()
                && (self.edge_sides[e].0 == face || self.edge_sides[e].1 == face)
            {
                // A closed curve with the face on both sides appears twice.
                let occurrences = (self.edge_sides[e].0 == face) as usize
                    + (self.edge_sides[e].1 == face) as usize;
                for _ in 0..occurrences {
                    out.push(BoundaryComponent::ClosedCurve(e));
                }
            }
        }
        // Isolated vertices.
        for v in 0..self.vertex_count() {
            if self.vertex_slots[v].is_empty() && self.vertex_isolated_face[v] == Some(face) {
                out.push(BoundaryComponent::IsolatedVertex(v));
            }
        }
        // Walks: trace every directed edge with `face` on its left exactly once.
        let mut visited: std::collections::HashSet<(usize, u8)> = std::collections::HashSet::new();
        for e in 0..self.edge_count() {
            if self.edge_ends[e].is_none() {
                continue;
            }
            for direction in [0u8, 1u8] {
                if visited.contains(&(e, direction))
                    || self.half_edge_left_face(e, direction) != face
                {
                    continue;
                }
                let mut walk = Vec::new();
                let mut current = (e, direction);
                loop {
                    visited.insert(current);
                    walk.push(current);
                    current = self.next_half_edge(current.0, current.1);
                    if current == (e, direction) {
                        break;
                    }
                }
                out.push(BoundaryComponent::Walk(walk));
            }
        }
        out
    }

    /// The face to the left of the directed edge `(e, direction)` (direction 0
    /// walks from the first endpoint to the second).
    pub fn half_edge_left_face(&self, e: usize, direction: u8) -> usize {
        let head_end = if direction == 0 { 1u8 } else { 0u8 };
        let (a, b) = self.edge_ends[e].expect("half-edge of an edge with endpoints");
        let head_vertex = if head_end == 0 { a } else { b };
        let slots = &self.vertex_slots[head_vertex];
        let pos = slots
            .iter()
            .position(|&slot| slot == (e, head_end))
            .expect("edge end present in head vertex rotation");
        let degree = slots.len();
        // The face on the left of the arriving half-edge is the sector
        // immediately counterclockwise-before the arrival slot.
        self.vertex_sectors[head_vertex][(pos + degree - 1) % degree]
    }

    /// The half-edge following `(e, direction)` along the boundary of the face
    /// on its left.
    pub fn next_half_edge(&self, e: usize, direction: u8) -> (usize, u8) {
        let head_end = if direction == 0 { 1u8 } else { 0u8 };
        let (a, b) = self.edge_ends[e].expect("half-edge of an edge with endpoints");
        let head_vertex = if head_end == 0 { a } else { b };
        let slots = &self.vertex_slots[head_vertex];
        let pos = slots
            .iter()
            .position(|&slot| slot == (e, head_end))
            .expect("edge end present in head vertex rotation");
        let degree = slots.len();
        let (next_edge, next_end) = slots[(pos + degree - 1) % degree];
        // Departing via that slot: the slot is the tail end of the next
        // half-edge.
        let next_direction = if next_end == 0 { 0u8 } else { 1u8 };
        (next_edge, next_direction)
    }

    // ----- canonical form and relational export ------------------------------

    /// The canonical form of the invariant (code + realising cell order),
    /// computed once and cached; every later call is a cache hit.
    pub fn canonical_form(&self) -> &CanonicalForm {
        &self.canonical_entry().0
    }

    /// The canonical code of the invariant: equal codes iff the invariants are
    /// isomorphic (Theorems 3.2 / 3.4 made algorithmic; see the `canonical`
    /// module). Computed once and cached on the invariant; every later call
    /// returns the cached code without recomputation.
    pub fn canonical_code(&self) -> &CanonicalCode {
        &self.canonical_entry().0.code
    }

    /// A 64-bit digest of the canonical code, for hash-map keying (cached
    /// alongside the code).
    pub fn code_hash(&self) -> CodeHash {
        self.canonical_entry().1
    }

    /// The canonical total order on the invariant's cells: the order realising
    /// the canonical code (Theorem 3.4's canonical ordering). Isomorphic
    /// invariants produce orders related by the isomorphism.
    pub fn canonical_cell_order(&self) -> &[CellRef] {
        &self.canonical_entry().0.order
    }

    fn canonical_entry(&self) -> &(CanonicalForm, CodeHash) {
        self.canonical.get_or_init(|| {
            let form = canonical::canonical_form(self);
            let hash = form.code.code_hash();
            (form, hash)
        })
    }

    /// True iff two invariants are isomorphic, i.e. the underlying spatial
    /// instances are topologically equivalent (Theorem 2.1(ii)). Decided by
    /// comparing cached canonical codes (hash first), so repeated checks on
    /// the same invariants never recompute anything.
    pub fn is_isomorphic_to(&self, other: &TopologicalInvariant) -> bool {
        self.code_hash() == other.code_hash() && self.canonical_code() == other.canonical_code()
    }

    /// The domain element representing a cell in the relational exports
    /// ([`to_structure`](Self::to_structure) and friends): elements 0 and 1
    /// are the orientation constants, then vertices, edges and faces in
    /// index order. Consumers that add relations over exported structures
    /// (e.g. `topo-translate`'s ordered copies) must use this mapping rather
    /// than re-deriving the layout.
    pub fn cell_element(&self, kind: CellKind, id: usize) -> u32 {
        let (nv, ne) = (self.vertex_count(), self.edge_count());
        match kind {
            CellKind::Vertex => (2 + id) as u32,
            CellKind::Edge => (2 + nv + id) as u32,
            CellKind::Face => (2 + nv + ne + id) as u32,
        }
    }

    /// Exports the invariant as a relational structure over the schema
    /// `inv(Reg)` of the paper: unary `Vertex`, `Edge`, `Face`,
    /// `ExteriorFace`, binary `EdgeVertex`, `FaceEdge`, `FaceVertex`, one
    /// unary relation `Region_<name>` per region name, and the 5-ary
    /// `Orientation` relation over the cyclic order of cells around each
    /// vertex. Domain element 0 is the counterclockwise orientation constant,
    /// element 1 the clockwise one.
    pub fn to_structure(&self) -> Structure {
        self.export(true)
    }

    /// Exports the invariant with only the *successor* version of the
    /// orientation relation (4-ary `OrientationSucc`), as in \[PSV99\]. Used by
    /// the Figure 9 test (`tests/paper_claims.rs`) of the instances that
    /// neither this nor the full structure separates in one FO round.
    pub fn to_structure_successor_only(&self) -> Structure {
        self.export(false)
    }

    fn export(&self, full_cyclic: bool) -> Structure {
        let nv = self.vertex_count();
        let ne = self.edge_count();
        let nf = self.face_count();
        let vert = |v: usize| -> u32 { self.cell_element(CellKind::Vertex, v) };
        let edge = |e: usize| -> u32 { self.cell_element(CellKind::Edge, e) };
        let face = |f: usize| -> u32 { self.cell_element(CellKind::Face, f) };
        let mut s = Structure::new(2 + nv + ne + nf);
        s.add_relation("OrientationConstant", 1);
        s.insert("OrientationConstant", &[0]);
        s.insert("OrientationConstant", &[1]);
        s.add_relation("Vertex", 1);
        s.add_relation("Edge", 1);
        s.add_relation("Face", 1);
        s.add_relation("ExteriorFace", 1);
        s.add_relation("EdgeVertex", 2);
        s.add_relation("FaceEdge", 2);
        s.add_relation("FaceVertex", 2);
        for (_, name) in self.schema.iter() {
            s.add_relation(&format!("Region_{name}"), 1);
        }
        for v in 0..nv {
            s.insert("Vertex", &[vert(v)]);
        }
        for e in 0..ne {
            s.insert("Edge", &[edge(e)]);
            if let Some((a, b)) = self.edge_ends[e] {
                s.insert("EdgeVertex", &[edge(e), vert(a)]);
                s.insert("EdgeVertex", &[edge(e), vert(b)]);
            }
        }
        for f in 0..nf {
            s.insert("Face", &[face(f)]);
            for e in self.face_edges(f) {
                s.insert("FaceEdge", &[face(f), edge(e)]);
            }
            for v in self.face_vertices(f) {
                s.insert("FaceVertex", &[face(f), vert(v)]);
            }
        }
        s.insert("ExteriorFace", &[face(self.exterior_face)]);
        for (region, name) in self.schema.iter() {
            let relation = format!("Region_{name}");
            for v in 0..nv {
                if self.vertex_regions[v].contains(region) {
                    s.insert(&relation, &[vert(v)]);
                }
            }
            for e in 0..ne {
                if self.edge_regions[e].contains(region) {
                    s.insert(&relation, &[edge(e)]);
                }
            }
            for f in 0..nf {
                if self.face_regions[f].contains(region) {
                    s.insert(&relation, &[face(f)]);
                }
            }
        }
        // Orientation: the cyclic order of cells around each vertex, for both
        // orientations (element 0 = counterclockwise, element 1 = clockwise).
        let cell_id = |item: &ConeItem| -> u32 {
            match item {
                ConeItem::Edge(e) => edge(*e),
                ConeItem::Face(f) => face(*f),
            }
        };
        if full_cyclic {
            s.add_relation("Orientation", 5);
        } else {
            s.add_relation("OrientationSucc", 4);
        }
        for v in 0..nv {
            let cone = self.cone(v);
            let n = cone.len();
            if n == 0 {
                continue;
            }
            for (orientation, dir) in [(0u32, 1isize), (1u32, -1isize)] {
                let at = |start: usize, offset: usize| -> usize {
                    ((start as isize + dir * offset as isize).rem_euclid(n as isize)) as usize
                };
                if full_cyclic {
                    // (w, v, c1, c2, c3): c2 strictly between c1 and c3 going in
                    // the w direction from c1.
                    for i in 0..n {
                        for j_off in 1..n {
                            for k_off in (j_off + 1)..n {
                                let c1 = cell_id(&cone[i]);
                                let c2 = cell_id(&cone[at(i, j_off)]);
                                let c3 = cell_id(&cone[at(i, k_off)]);
                                if c1 != c2 && c2 != c3 && c1 != c3 {
                                    s.insert("Orientation", &[orientation, vert(v), c1, c2, c3]);
                                }
                            }
                        }
                    }
                } else {
                    for i in 0..n {
                        let c1 = cell_id(&cone[i]);
                        let c2 = cell_id(&cone[at(i, 1)]);
                        s.insert("OrientationSucc", &[orientation, vert(v), c1, c2]);
                    }
                }
            }
        }
        s
    }
}

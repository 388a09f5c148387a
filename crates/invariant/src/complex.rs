//! The mutable topological cell complex and its reduction to the maximal
//! topological cell decomposition.
//!
//! The complex is purely combinatorial: cells (vertices, edges, faces), the
//! cyclic order of edge-ends and face sectors around every vertex, the two
//! faces beside every edge, and for every cell and every region whether the
//! cell is contained in the region and whether it lies on the region's
//! boundary. Edges are abstract one-dimensional cells: they may be proper
//! edges (two distinct endpoints), loops (both endpoints equal), or closed
//! curves (no endpoints at all) — the latter two arise from the reduction,
//! exactly as in the paper's model (Lemma 3.1's "special cases").
//!
//! [`Complex::reduce`] contracts the arrangement-level decomposition to the
//! *maximal* topological cell decomposition by repeatedly applying three
//! local, topology-preserving operations:
//!
//! * removing an edge whose membership pattern equals that of both incident
//!   faces (the edge is not topologically distinguishable; the faces merge),
//! * removing an isolated vertex whose membership equals its surrounding
//!   face's,
//! * smoothing a degree-2 vertex whose membership equals that of its two
//!   incident edges (the two edges merge into one; this is what turns the
//!   four corner vertices of a square region into none, so that a square and
//!   a disk get isomorphic invariants).

/// Identifier of a cell (vertex, edge or face) inside a [`Complex`]. Which
/// kind it refers to is determined by context.
pub type CellId = usize;

/// A set of region indices, implemented as a bit set.
///
/// The first 64 regions live inline in `first`; `rest` holds the words for
/// regions 64 and up and stays empty — so the set never allocates — for
/// schemas of at most 64 regions. Both parts are sized by
/// [`RegionSet::new`], so sets built for one schema compare and hash by
/// content.
#[derive(Clone, Debug, Default)]
pub struct RegionSet {
    first: u64,
    rest: Vec<u64>,
}

impl RegionSet {
    /// An empty set sized for `region_count` regions.
    pub fn new(region_count: usize) -> Self {
        RegionSet { first: 0, rest: vec![0; region_count.div_ceil(64).saturating_sub(1)] }
    }

    fn word_mut(&mut self, region: usize) -> &mut u64 {
        match region / 64 {
            0 => &mut self.first,
            w => &mut self.rest[w - 1],
        }
    }

    /// Adds a region.
    pub fn insert(&mut self, region: usize) {
        *self.word_mut(region) |= 1 << (region % 64);
    }

    /// Removes a region.
    pub fn remove(&mut self, region: usize) {
        *self.word_mut(region) &= !(1 << (region % 64));
    }

    /// Membership test.
    pub fn contains(&self, region: usize) -> bool {
        let word = match region / 64 {
            0 => Some(&self.first),
            w => self.rest.get(w - 1),
        };
        word.is_some_and(|w| w & (1 << (region % 64)) != 0)
    }

    /// True iff no region is present.
    pub fn is_empty(&self) -> bool {
        self.first == 0 && self.rest.iter().all(|w| *w == 0)
    }

    /// Number of regions present.
    pub fn len(&self) -> usize {
        self.words().map(|w| w.count_ones() as usize).sum()
    }

    /// The regions present, in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().enumerate().flat_map(|(w, mut bits)| {
            std::iter::from_fn(move || {
                let b = bits.trailing_zeros() as usize;
                bits &= bits.wrapping_sub(1);
                (b < 64).then_some(w * 64 + b)
            })
        })
    }

    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        std::iter::once(self.first).chain(self.rest.iter().copied())
    }
}

// Compared word by word rather than through the derived slice compare: that
// calls `memcmp` even for the empty spill words of a ≤ 64-region set, and
// on x86-64 Linux such a call measured ~145 ns against ~2 ns for this loop,
// enough to make `Complex::reduce` (which compares sets per cell) 2–5×
// slower than with one heap word per set.
impl PartialEq for RegionSet {
    fn eq(&self, other: &Self) -> bool {
        self.first == other.first && self.rest.iter().eq(&other.rest)
    }
}

impl Eq for RegionSet {}

impl std::hash::Hash for RegionSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.first.hash(state);
        self.rest.hash(state);
    }
}

/// An edge-end slot in a vertex rotation: which edge, and which of its two
/// ends (0 or 1) is attached here. Loops contribute both ends to the same
/// vertex.
pub type Slot = (CellId, u8);

/// The mutable cell complex.
#[derive(Clone, Debug)]
pub struct Complex {
    /// Number of region names in the schema.
    pub region_count: usize,

    vertex_alive: Vec<bool>,
    vertex_slots: Vec<Vec<Slot>>,
    vertex_sectors: Vec<Vec<CellId>>,
    vertex_face: Vec<Option<CellId>>,
    vertex_in: Vec<RegionSet>,
    vertex_bnd: Vec<RegionSet>,

    edge_alive: Vec<bool>,
    edge_ends: Vec<Option<(CellId, CellId)>>,
    edge_sides: Vec<(CellId, CellId)>,
    edge_in: Vec<RegionSet>,
    edge_bnd: Vec<RegionSet>,

    face_parent: Vec<CellId>,
    face_in: Vec<RegionSet>,
    exterior_face: CellId,
}

impl Complex {
    /// Creates an empty complex with one (exterior) face.
    pub fn new(region_count: usize) -> Self {
        Complex {
            region_count,
            vertex_alive: Vec::new(),
            vertex_slots: Vec::new(),
            vertex_sectors: Vec::new(),
            vertex_face: Vec::new(),
            vertex_in: Vec::new(),
            vertex_bnd: Vec::new(),
            edge_alive: Vec::new(),
            edge_ends: Vec::new(),
            edge_sides: Vec::new(),
            edge_in: Vec::new(),
            edge_bnd: Vec::new(),
            face_parent: vec![0],
            face_in: vec![RegionSet::new(region_count)],
            exterior_face: 0,
        }
    }

    // ----- construction API -------------------------------------------------

    /// Adds a face, returning its id.
    pub fn push_face(&mut self, membership: RegionSet) -> CellId {
        let id = self.face_parent.len();
        self.face_parent.push(id);
        self.face_in.push(membership);
        id
    }

    /// Adds a vertex, returning its id. `slots` and `sectors` must have equal
    /// length and be in counterclockwise order; `containing_face` is used only
    /// when the vertex is isolated (no slots).
    pub fn push_vertex(
        &mut self,
        slots: Vec<Slot>,
        sectors: Vec<CellId>,
        containing_face: Option<CellId>,
        in_regions: RegionSet,
        boundary_regions: RegionSet,
    ) -> CellId {
        assert_eq!(slots.len(), sectors.len(), "slots and sectors must align");
        let id = self.vertex_alive.len();
        self.vertex_alive.push(true);
        self.vertex_slots.push(slots);
        self.vertex_sectors.push(sectors);
        self.vertex_face.push(containing_face);
        self.vertex_in.push(in_regions);
        self.vertex_bnd.push(boundary_regions);
        id
    }

    /// Adds an edge, returning its id.
    pub fn push_edge(
        &mut self,
        ends: Option<(CellId, CellId)>,
        sides: (CellId, CellId),
        in_regions: RegionSet,
        boundary_regions: RegionSet,
    ) -> CellId {
        let id = self.edge_alive.len();
        self.edge_alive.push(true);
        self.edge_ends.push(ends);
        self.edge_sides.push(sides);
        self.edge_in.push(in_regions);
        self.edge_bnd.push(boundary_regions);
        id
    }

    /// Overrides the exterior face id (it is face 0 by default).
    pub fn set_exterior_face(&mut self, face: CellId) {
        self.exterior_face = face;
    }

    // ----- accessors --------------------------------------------------------

    /// The representative id of a face (faces merge during reduction).
    pub fn find_face(&self, face: CellId) -> CellId {
        let mut f = face;
        while self.face_parent[f] != f {
            f = self.face_parent[f];
        }
        f
    }

    /// Resolves every face id to its representative in one memoised pass:
    /// `resolved[f] == find_face(f)` for all ids, computed in time linear in
    /// the id space instead of one parent-chain walk per lookup. The freeze
    /// path ([`crate::TopologicalInvariant::from_complex`]) uses this to
    /// replace its per-reference `find_face` calls.
    pub fn resolved_faces(&self) -> Vec<CellId> {
        let n = self.face_parent.len();
        const UNRESOLVED: CellId = usize::MAX;
        let mut resolved: Vec<CellId> = vec![UNRESOLVED; n];
        let mut path: Vec<CellId> = Vec::new();
        for f in 0..n {
            if resolved[f] != UNRESOLVED {
                continue;
            }
            let mut cur = f;
            while self.face_parent[cur] != cur && resolved[cur] == UNRESOLVED {
                path.push(cur);
                cur = self.face_parent[cur];
            }
            let root = if resolved[cur] != UNRESOLVED { resolved[cur] } else { cur };
            resolved[cur] = root;
            for &p in &path {
                resolved[p] = root;
            }
            path.clear();
        }
        resolved
    }

    // Raw (unresolved) views for the freeze path, which maps face ids
    // through [`Complex::resolved_faces`] itself instead of paying a
    // `find_face` walk per reference.

    /// Upper bounds of the vertex / edge / face id spaces (dead ids
    /// included), for dense freeze-side index maps.
    pub(crate) fn id_bounds(&self) -> (usize, usize, usize) {
        (self.vertex_alive.len(), self.edge_alive.len(), self.face_parent.len())
    }

    /// The face sectors at a vertex with *unresolved* face ids.
    pub(crate) fn raw_sectors(&self, v: CellId) -> &[CellId] {
        &self.vertex_sectors[v]
    }

    /// The containing face of an isolated vertex, unresolved.
    pub(crate) fn raw_isolated_face(&self, v: CellId) -> Option<CellId> {
        if self.vertex_slots[v].is_empty() {
            self.vertex_face[v]
        } else {
            None
        }
    }

    /// The two faces beside an edge, unresolved.
    pub(crate) fn raw_edge_sides(&self, e: CellId) -> (CellId, CellId) {
        self.edge_sides[e]
    }

    /// The exterior face id, unresolved.
    pub(crate) fn raw_exterior_face(&self) -> CellId {
        self.exterior_face
    }

    /// The representative of the exterior face.
    pub fn exterior_face(&self) -> CellId {
        self.find_face(self.exterior_face)
    }

    /// True iff the vertex has not been removed.
    pub fn vertex_alive(&self, v: CellId) -> bool {
        self.vertex_alive[v]
    }

    /// True iff the edge has not been removed.
    pub fn edge_alive(&self, e: CellId) -> bool {
        self.edge_alive[e]
    }

    /// Ids of all live vertices.
    pub fn live_vertices(&self) -> Vec<CellId> {
        (0..self.vertex_alive.len()).filter(|&v| self.vertex_alive[v]).collect()
    }

    /// Ids of all live edges.
    pub fn live_edges(&self) -> Vec<CellId> {
        (0..self.edge_alive.len()).filter(|&e| self.edge_alive[e]).collect()
    }

    /// Representative ids of all live faces (faces referenced by live cells,
    /// plus the exterior face).
    pub fn live_faces(&self) -> Vec<CellId> {
        let mut out: Vec<CellId> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let push =
            |f: CellId, out: &mut Vec<CellId>, seen: &mut std::collections::HashSet<CellId>| {
                if seen.insert(f) {
                    out.push(f);
                }
            };
        push(self.exterior_face(), &mut out, &mut seen);
        for e in self.live_edges() {
            let (a, b) = self.edge_sides(e);
            push(a, &mut out, &mut seen);
            push(b, &mut out, &mut seen);
        }
        for v in self.live_vertices() {
            for &f in &self.vertex_sectors[v] {
                push(self.find_face(f), &mut out, &mut seen);
            }
            if let Some(f) = self.vertex_face[v] {
                if self.vertex_slots[v].is_empty() {
                    push(self.find_face(f), &mut out, &mut seen);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Degree of a vertex (number of incident edge-ends; a loop counts twice).
    pub fn degree(&self, v: CellId) -> usize {
        self.vertex_slots[v].len()
    }

    /// The rotation (counterclockwise cyclic order of edge-end slots) at a
    /// vertex.
    pub fn slots(&self, v: CellId) -> &[Slot] {
        &self.vertex_slots[v]
    }

    /// The face sectors at a vertex: `sectors(v)[i]` is the face between
    /// `slots(v)[i]` and `slots(v)[i+1]` counterclockwise (resolved ids).
    pub fn sectors(&self, v: CellId) -> Vec<CellId> {
        self.vertex_sectors[v].iter().map(|&f| self.find_face(f)).collect()
    }

    /// The face containing an isolated (degree-0) vertex.
    pub fn isolated_face(&self, v: CellId) -> Option<CellId> {
        if self.vertex_slots[v].is_empty() {
            self.vertex_face[v].map(|f| self.find_face(f))
        } else {
            None
        }
    }

    /// Endpoints of an edge: `None` for closed curves, `Some((v, v))` for
    /// loops.
    pub fn edge_ends(&self, e: CellId) -> Option<(CellId, CellId)> {
        self.edge_ends[e]
    }

    /// The two faces beside an edge (resolved ids; equal for antenna edges).
    pub fn edge_sides(&self, e: CellId) -> (CellId, CellId) {
        let (a, b) = self.edge_sides[e];
        (self.find_face(a), self.find_face(b))
    }

    /// Regions containing a vertex.
    pub fn vertex_regions(&self, v: CellId) -> &RegionSet {
        &self.vertex_in[v]
    }

    /// Regions on whose boundary the vertex lies.
    pub fn vertex_boundary_regions(&self, v: CellId) -> &RegionSet {
        &self.vertex_bnd[v]
    }

    /// Regions containing an edge.
    pub fn edge_regions(&self, e: CellId) -> &RegionSet {
        &self.edge_in[e]
    }

    /// Regions on whose boundary the edge lies.
    pub fn edge_boundary_regions(&self, e: CellId) -> &RegionSet {
        &self.edge_bnd[e]
    }

    /// Regions whose interior contains the face.
    pub fn face_regions(&self, face: CellId) -> &RegionSet {
        &self.face_in[self.find_face(face)]
    }

    /// Mutable access to a face's membership set (used by the construction
    /// phase only; the reduction never changes memberships).
    pub fn face_membership_mut(&mut self, face: CellId) -> &mut RegionSet {
        let f = self.find_face(face);
        &mut self.face_in[f]
    }

    /// Number of live cells (vertices + edges + faces).
    pub fn cell_count(&self) -> usize {
        self.live_vertices().len() + self.live_edges().len() + self.live_faces().len()
    }

    // ----- reduction --------------------------------------------------------

    /// Reduces the complex to the maximal topological cell decomposition.
    pub fn reduce(&mut self) {
        loop {
            let mut changed = false;
            for e in 0..self.edge_alive.len() {
                if self.edge_alive[e] && self.edge_removable(e) {
                    self.remove_edge(e);
                    changed = true;
                }
            }
            for v in 0..self.vertex_alive.len() {
                if !self.vertex_alive[v] {
                    continue;
                }
                match self.degree(v) {
                    0 if self.isolated_vertex_removable(v) => {
                        self.vertex_alive[v] = false;
                        changed = true;
                    }
                    2 if self.vertex_smoothable(v) => {
                        self.smooth_vertex(v);
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// An edge is removable when neither its membership nor its incident
    /// faces' memberships distinguish it: every region sees the edge and both
    /// faces identically.
    fn edge_removable(&self, e: CellId) -> bool {
        let (fa, fb) = self.edge_sides(e);
        self.edge_in[e] == self.face_in[fa] && self.edge_in[e] == self.face_in[fb]
    }

    fn isolated_vertex_removable(&self, v: CellId) -> bool {
        let face = self.isolated_face(v).expect("degree-0 vertex has a containing face");
        self.vertex_in[v] == self.face_in[face]
    }

    fn vertex_smoothable(&self, v: CellId) -> bool {
        debug_assert_eq!(self.degree(v), 2);
        let (e1, _) = self.vertex_slots[v][0];
        let (e2, _) = self.vertex_slots[v][1];
        self.vertex_in[v] == self.edge_in[e1]
            && self.vertex_in[v] == self.edge_in[e2]
            && self.vertex_bnd[v] == self.edge_bnd[e1]
            && self.vertex_bnd[v] == self.edge_bnd[e2]
    }

    /// Removes a removable edge, merging its two incident faces.
    fn remove_edge(&mut self, e: CellId) {
        let (fa, fb) = self.edge_sides(e);
        if fa != fb {
            // Union: keep the exterior face's representative stable by always
            // merging into the exterior when it is involved.
            let (keep, drop) = if fb == self.exterior_face() { (fb, fa) } else { (fa, fb) };
            self.face_parent[drop] = keep;
        }
        self.edge_alive[e] = false;
        if let Some((a, b)) = self.edge_ends[e] {
            for v in [a, b] {
                self.detach_edge_from_vertex(v, e);
            }
        }
    }

    /// Removes every slot of edge `e` from vertex `v`'s rotation, merging the
    /// neighbouring sectors. If the vertex becomes isolated it records its
    /// containing face.
    fn detach_edge_from_vertex(&mut self, v: CellId, e: CellId) {
        while let Some(pos) = self.vertex_slots[v].iter().position(|(edge, _)| *edge == e) {
            self.vertex_slots[v].remove(pos);
            self.vertex_sectors[v].remove(pos);
        }
        if self.vertex_slots[v].is_empty() {
            let face = self.find_face(self.edge_sides[e].0);
            self.vertex_face[v] = Some(face);
        }
    }

    /// Smooths a degree-2 vertex, merging its two incident edge-ends into a
    /// single edge (possibly a loop or a closed curve).
    fn smooth_vertex(&mut self, v: CellId) {
        let slots = self.vertex_slots[v].clone();
        let sectors = self.sectors(v);
        let (e1, end1) = slots[0];
        let (e2, end2) = slots[1];
        let membership = self.edge_in[e1].clone();
        let boundary = self.edge_bnd[e1].clone();
        let sides = (sectors[0], sectors[1]);

        if e1 == e2 {
            // A single loop at `v`: the result is a closed curve.
            let new_edge = self.push_edge(None, sides, membership, boundary);
            let _ = new_edge;
            self.edge_alive[e1] = false;
            self.vertex_alive[v] = false;
            return;
        }

        // Endpoints of the merged edge: the far ends of e1 and e2.
        let far = |this: &Complex, e: CellId, end_at_v: u8| -> (CellId, u8) {
            let (a, b) = this.edge_ends[e].expect("edge incident to a vertex has endpoints");
            // The far end is the one not used at `v`. For a loop at `v` both
            // ends are at `v`, but that case is handled above (e1 == e2).
            if end_at_v == 0 {
                (b, 1)
            } else {
                (a, 0)
            }
        };
        let (w1, far_end1) = far(self, e1, end1);
        let (w2, far_end2) = far(self, e2, end2);
        let new_edge = self.push_edge(Some((w1, w2)), sides, membership, boundary);
        // Replace the far slots by the new edge's ends.
        self.replace_slot(w1, (e1, far_end1), (new_edge, 0));
        self.replace_slot(w2, (e2, far_end2), (new_edge, 1));
        self.edge_alive[e1] = false;
        self.edge_alive[e2] = false;
        self.vertex_alive[v] = false;
    }

    fn replace_slot(&mut self, v: CellId, old: Slot, new: Slot) {
        let pos = self.vertex_slots[v]
            .iter()
            .position(|slot| *slot == old)
            .expect("slot to replace exists in the vertex rotation");
        self.vertex_slots[v][pos] = new;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_set_basic() {
        let mut s = RegionSet::new(70);
        assert!(s.is_empty());
        s.insert(3);
        s.insert(65);
        assert!(s.contains(3));
        assert!(s.contains(65));
        assert!(!s.contains(4));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 65]);
        s.remove(3);
        assert!(!s.contains(3));
        let empty = RegionSet::new(70);
        assert_ne!(s, empty);
    }

    fn hash_of(set: &RegionSet) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        set.hash(&mut h);
        h.finish()
    }

    /// Every operation against a `BTreeSet` model at sizes on both sides of
    /// the inline word's edge, so the spilled `rest` words are exercised too.
    #[test]
    fn region_set_matches_a_model_across_the_inline_boundary() {
        for n in [0usize, 1, 63, 64, 65, 130] {
            let mut set = RegionSet::new(n);
            let mut model = std::collections::BTreeSet::new();
            assert!(set.is_empty() && set.iter().next().is_none());
            assert_eq!(set.len(), 0);
            assert_eq!(set, RegionSet::new(n), "n={n}");
            // Boundary members first, then every third region.
            let picks: Vec<usize> = [0, 62, 63, 64, 65, 127, 128, n.saturating_sub(1)]
                .into_iter()
                .chain((0..n).step_by(3))
                .filter(|&r| r < n)
                .collect();
            for &r in &picks {
                set.insert(r);
                model.insert(r);
                assert!(set.contains(r), "n={n} r={r}");
            }
            assert_eq!(set.len(), model.len(), "n={n}");
            assert_eq!(set.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
            for r in 0..n + 70 {
                assert_eq!(set.contains(r), model.contains(&r), "n={n} r={r}");
            }
            // The same members inserted in reverse order: equal, same hash.
            let mut reversed = RegionSet::new(n);
            for &r in picks.iter().rev() {
                reversed.insert(r);
            }
            assert_eq!(set, reversed, "n={n}");
            assert_eq!(hash_of(&set), hash_of(&reversed), "n={n}");
            // Removing every member empties the set back to a fresh one.
            if let Some(&last) = model.iter().next_back() {
                set.remove(last);
                model.remove(&last);
                assert!(!set.contains(last));
                assert_ne!(set, reversed, "n={n}: one member fewer");
                assert_eq!(
                    set.iter().collect::<Vec<_>>(),
                    model.iter().copied().collect::<Vec<_>>()
                );
                assert_eq!(set.len(), model.len());
            }
            for r in model.iter().copied().collect::<Vec<_>>() {
                set.remove(r);
            }
            assert!(set.is_empty(), "n={n}");
            assert_eq!(set.len(), 0, "n={n}");
            assert_eq!(set, RegionSet::new(n), "n={n}");
            assert_eq!(hash_of(&set), hash_of(&RegionSet::new(n)), "n={n}");
        }
    }

    /// Builds by hand the complex of a single square region: 4 vertices of
    /// degree 2, 4 boundary edges, inner face in the region, exterior not.
    fn square_complex() -> Complex {
        let mut c = Complex::new(1);
        let mut inside = RegionSet::new(1);
        inside.insert(0);
        let inner = c.push_face(inside.clone());
        let empty = RegionSet::new(1);
        // Vertices and edges: edge i connects vertex i and vertex (i+1) % 4.
        let mut boundary = RegionSet::new(1);
        boundary.insert(0);
        let edges: Vec<CellId> = (0..4)
            .map(|_| c.push_edge(Some((0, 0)), (inner, 0), boundary.clone(), boundary.clone()))
            .collect();
        for v in 0..4usize {
            let prev = edges[(v + 3) % 4];
            let next = edges[v];
            // Slots in CCW order with sectors alternating inner/exterior; the
            // exact geometric order does not matter for the reduction tests.
            c.push_vertex(
                vec![(next, 0), (prev, 1)],
                vec![inner, 0],
                None,
                boundary.clone(),
                boundary.clone(),
            );
        }
        // Fix edge endpoints now that vertices exist.
        for (i, &e) in edges.iter().enumerate() {
            c.edge_ends[e] = Some((i, (i + 1) % 4));
        }
        let _ = empty;
        c
    }

    #[test]
    fn square_reduces_to_single_loop_cell() {
        let mut c = square_complex();
        assert_eq!(c.live_vertices().len(), 4);
        assert_eq!(c.live_edges().len(), 4);
        c.reduce();
        // A square region's maximal decomposition: no vertices, one closed
        // curve, two faces.
        assert_eq!(c.live_vertices().len(), 0);
        assert_eq!(c.live_edges().len(), 1);
        let e = c.live_edges()[0];
        assert_eq!(c.edge_ends(e), None);
        assert_eq!(c.live_faces().len(), 2);
        assert!(c.edge_regions(e).contains(0));
    }

    #[test]
    fn edge_between_identical_faces_is_removed() {
        // Two faces with identical membership separated by an edge also with
        // that membership: everything merges.
        let mut c = Complex::new(1);
        let mut in_r = RegionSet::new(1);
        in_r.insert(0);
        let f1 = c.push_face(in_r.clone());
        let f2 = c.push_face(in_r.clone());
        let e = c.push_edge(Some((0, 1)), (f1, f2), in_r.clone(), RegionSet::new(1));
        c.push_vertex(vec![(e, 0)], vec![f1], None, in_r.clone(), RegionSet::new(1));
        c.push_vertex(vec![(e, 1)], vec![f2], None, in_r.clone(), RegionSet::new(1));
        c.reduce();
        assert!(c.live_edges().is_empty());
        assert!(c.live_vertices().is_empty());
        assert_eq!(c.find_face(f1), c.find_face(f2));
    }

    #[test]
    fn distinguished_isolated_vertex_survives() {
        // An isolated vertex of region 0 sitting in a face of region 1's
        // interior must survive; one of region 1 inside region 1's interior
        // must not.
        let mut c = Complex::new(2);
        let mut in_r1 = RegionSet::new(2);
        in_r1.insert(1);
        let face = c.push_face(in_r1.clone());
        let mut in_both = in_r1.clone();
        in_both.insert(0);
        let survivor =
            c.push_vertex(Vec::new(), Vec::new(), Some(face), in_both, RegionSet::new(2));
        let swallowed =
            c.push_vertex(Vec::new(), Vec::new(), Some(face), in_r1.clone(), RegionSet::new(2));
        c.reduce();
        assert!(c.vertex_alive(survivor));
        assert!(!c.vertex_alive(swallowed));
    }
}

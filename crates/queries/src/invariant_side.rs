//! Query evaluation on the topological invariant (strategies (ii)/(iii)).
//!
//! All queries of the library are PTIME topological properties, so by
//! Theorem 3.4 they are expressible in fixpoint+counting over the invariant;
//! this module evaluates them with direct combinatorial algorithms on the
//! invariant structure (the algorithms the logical programs of
//! [`crate::programs`] simulate).

use crate::library::TopologicalQuery;
use std::borrow::Borrow;
use std::collections::HashMap;
use topo_invariant::{CellKind, CodeHash, TopologicalInvariant};
use topo_spatial::RegionId;

/// A cell reference used by the connectivity computations.
type Cell = (CellKind, usize);

/// Evaluates a query of the library on a topological invariant.
pub fn evaluate_on_invariant(query: &TopologicalQuery, invariant: &TopologicalInvariant) -> bool {
    match *query {
        TopologicalQuery::Intersects(a, b) => cells_in_both(invariant, a, b).next().is_some(),
        TopologicalQuery::Disjoint(a, b) => cells_in_both(invariant, a, b).next().is_none(),
        TopologicalQuery::Contains(a, b) => {
            cells_in_region(invariant, b).all(|(kind, id)| invariant.cell_in_region(kind, id, a))
        }
        TopologicalQuery::Equal(a, b) => {
            cells_in_region(invariant, a).all(|(kind, id)| invariant.cell_in_region(kind, id, b))
                && cells_in_region(invariant, b)
                    .all(|(kind, id)| invariant.cell_in_region(kind, id, a))
        }
        TopologicalQuery::BoundaryOnlyIntersection(a, b) => {
            let mut any = false;
            for (kind, id) in cells_in_both(invariant, a, b) {
                any = true;
                if !on_boundary(invariant, kind, id, a) || !on_boundary(invariant, kind, id, b) {
                    return false;
                }
            }
            any
        }
        TopologicalQuery::InteriorsOverlap(a, b) => {
            cells_in_both(invariant, a, b).any(|(kind, id)| {
                !on_boundary(invariant, kind, id, a) && !on_boundary(invariant, kind, id, b)
            })
        }
        TopologicalQuery::IsConnected(a) => component_count(invariant, a) <= 1,
        TopologicalQuery::ComponentCountEven(a) => component_count(invariant, a) % 2 == 0,
        TopologicalQuery::HasHole(a) => has_hole(invariant, a),
    }
}

/// Number of connected components of the point set of a region, computed as
/// the number of connected components of the sub-complex of cells contained
/// in the region (cells are adjacent when incident).
pub fn component_count(invariant: &TopologicalInvariant, region: RegionId) -> usize {
    let cells: Vec<Cell> = cells_in_region(invariant, region).collect();
    if cells.is_empty() {
        return 0;
    }
    let index: std::collections::HashMap<Cell, usize> =
        cells.iter().enumerate().map(|(i, &c)| (c, i)).collect();
    let mut parent: Vec<usize> = (0..cells.len()).collect();
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
    let union = |parent: &mut Vec<usize>, a: Cell, b: Cell| {
        if let (Some(&x), Some(&y)) = (index.get(&a), index.get(&b)) {
            let (rx, ry) = (find(parent, x), find(parent, y));
            if rx != ry {
                parent[rx] = ry;
            }
        }
    };
    for e in 0..invariant.edge_count() {
        if !invariant.cell_in_region(CellKind::Edge, e, region) {
            continue;
        }
        if let Some((v, w)) = invariant.edge_endpoints(e) {
            union(&mut parent, (CellKind::Edge, e), (CellKind::Vertex, v));
            union(&mut parent, (CellKind::Edge, e), (CellKind::Vertex, w));
        }
        let (fa, fb) = invariant.edge_faces(e);
        for f in [fa, fb] {
            union(&mut parent, (CellKind::Edge, e), (CellKind::Face, f));
        }
    }
    for f in 0..invariant.face_count() {
        if !invariant.cell_in_region(CellKind::Face, f, region) {
            continue;
        }
        for v in invariant.face_vertices(f) {
            union(&mut parent, (CellKind::Face, f), (CellKind::Vertex, v));
        }
    }
    let mut roots = std::collections::HashSet::new();
    for i in 0..cells.len() {
        roots.insert(find(&mut parent, i));
    }
    roots.len()
}

/// Euler characteristic of a region, computed cell by cell from the invariant
/// using the compactly-supported Euler characteristic (which is additive over
/// the cell partition): a vertex contributes 1, an open interval edge −1, a
/// vertex-free closed curve 0, and an open face `2 − b` where `b` is the
/// number of its boundary components.
pub fn euler_characteristic(invariant: &TopologicalInvariant, region: RegionId) -> i64 {
    let mut chi = 0i64;
    for (kind, id) in cells_in_region(invariant, region) {
        chi += match kind {
            CellKind::Vertex => 1,
            CellKind::Edge => {
                if invariant.edge_endpoints(id).is_some() {
                    -1
                } else {
                    0
                }
            }
            CellKind::Face => 2 - invariant.boundary_components(id).len() as i64,
        };
    }
    chi
}

fn has_hole(invariant: &TopologicalInvariant, region: RegionId) -> bool {
    // A face outside the region's interior is "free" if it can reach the
    // exterior face by crossing only edges not in the region. A hole is a
    // non-interior face that cannot.
    let nf = invariant.face_count();
    let mut reachable = vec![false; nf];
    let mut queue = std::collections::VecDeque::new();
    let exterior = invariant.exterior_face();
    reachable[exterior] = true;
    queue.push_back(exterior);
    while let Some(f) = queue.pop_front() {
        for e in 0..invariant.edge_count() {
            if invariant.cell_in_region(CellKind::Edge, e, region) {
                continue;
            }
            let (fa, fb) = invariant.edge_faces(e);
            let other = if fa == f {
                fb
            } else if fb == f {
                fa
            } else {
                continue;
            };
            if !reachable[other] {
                reachable[other] = true;
                queue.push_back(other);
            }
        }
    }
    (0..nf).any(|f| !invariant.cell_in_region(CellKind::Face, f, region) && !reachable[f])
}

fn on_boundary(
    invariant: &TopologicalInvariant,
    kind: CellKind,
    id: usize,
    region: RegionId,
) -> bool {
    match kind {
        CellKind::Vertex => invariant.vertex_boundary_regions(id).contains(region),
        CellKind::Edge => invariant.edge_boundary_regions(id).contains(region),
        CellKind::Face => false,
    }
}

fn cells_in_region(
    invariant: &TopologicalInvariant,
    region: RegionId,
) -> impl Iterator<Item = Cell> + '_ {
    let vertices = (0..invariant.vertex_count())
        .filter(move |&v| invariant.cell_in_region(CellKind::Vertex, v, region))
        .map(|v| (CellKind::Vertex, v));
    let edges = (0..invariant.edge_count())
        .filter(move |&e| invariant.cell_in_region(CellKind::Edge, e, region))
        .map(|e| (CellKind::Edge, e));
    let faces = (0..invariant.face_count())
        .filter(move |&f| invariant.cell_in_region(CellKind::Face, f, region))
        .map(|f| (CellKind::Face, f));
    vertices.chain(edges).chain(faces)
}

fn cells_in_both(
    invariant: &TopologicalInvariant,
    a: RegionId,
    b: RegionId,
) -> impl Iterator<Item = Cell> + '_ {
    cells_in_region(invariant, a).filter(move |&(kind, id)| invariant.cell_in_region(kind, id, b))
}

/// Partitions invariants into isomorphism classes via their cached canonical
/// codes: candidate classes are found by [`CodeHash`] and confirmed by exact
/// code comparison, so classifying `n` invariants costs `n` canonicalisations
/// (each cached on its invariant) plus hash-map lookups — no pairwise
/// backtracking search.
///
/// Returns the classes as index lists into `invariants`, in order of first
/// appearance. Every query answer is a topological property (Theorem 2.1), so
/// members of one class answer every [`TopologicalQuery`] identically; this
/// is the primitive that makes consistency-style query answering over many
/// candidate instances tractable.
///
/// Generic over any owned-or-borrowed invariant holder (`&T`, `Arc<T>`,
/// `Box<T>`, `T` itself), so callers that keep shared `Arc`s — like
/// `topo-store` — classify without cloning a single invariant.
pub fn isomorphism_classes<I: Borrow<TopologicalInvariant>>(invariants: &[I]) -> Vec<Vec<usize>> {
    let mut classes: Vec<Vec<usize>> = Vec::new();
    let mut by_hash: HashMap<CodeHash, Vec<usize>> = HashMap::new();
    for (i, invariant) in invariants.iter().enumerate() {
        let invariant = invariant.borrow();
        let candidates = by_hash.entry(invariant.code_hash()).or_default();
        let class = candidates.iter().copied().find(|&c| {
            invariants[classes[c][0]].borrow().canonical_code() == invariant.canonical_code()
        });
        match class {
            Some(c) => classes[c].push(i),
            None => {
                candidates.push(classes.len());
                classes.push(vec![i]);
            }
        }
    }
    classes
}

/// Evaluates a query on an invariant through the goal-directed Datalog path:
/// when the query library provides a fixpoint program
/// ([`crate::programs::datalog_program`]), the program's annotated goal is
/// answered by [`topo_relational::Program::run_goal`] on the prepared export
/// ([`crate::programs::program_structure`]); the four queries without
/// programs (equality, the boundary-intersection pair, component parity)
/// fall back to the direct combinatorial algorithms. Bit-for-bit equal to
/// [`evaluate_on_invariant`] on every query (`tests/demand_equivalence.rs`
/// and the store equivalence suites pin this), so callers can switch paths
/// freely.
pub fn evaluate_goal_directed(query: &TopologicalQuery, invariant: &TopologicalInvariant) -> bool {
    match crate::programs::datalog_program(query, invariant.schema()) {
        Some(program) => {
            let structure = crate::programs::program_structure(invariant);
            program.run_goal_boolean(&structure, topo_relational::Semantics::Stratified)
        }
        None => evaluate_on_invariant(query, invariant),
    }
}

/// Evaluates a query on many invariants, once per isomorphism class: the
/// cached canonical codes group the invariants, the query runs on one
/// representative per class — through the native combinatorial algorithms
/// ([`evaluate_on_invariant`]) — and the answer is shared across the class.
/// Accepts the same owned-or-borrowed holders as [`isomorphism_classes`].
/// Because it never runs a Datalog program, it is an independent oracle for
/// the store's memo fills, which go through [`evaluate_goal_directed`].
pub fn evaluate_on_classes<I: Borrow<TopologicalInvariant>>(
    query: &TopologicalQuery,
    invariants: &[I],
) -> Vec<bool> {
    let mut answers = vec![false; invariants.len()];
    for class in isomorphism_classes(invariants) {
        let answer = evaluate_on_invariant(query, invariants[class[0]].borrow());
        for i in class {
            answers[i] = answer;
        }
    }
    answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use topo_invariant::top;
    use topo_spatial::{Region, SpatialInstance};

    fn instance() -> SpatialInstance {
        // P: big square; Q: square inside P; R: square sharing a boundary edge
        // with P from outside; S: two disjoint squares far away.
        let mut s_region = Region::rectangle(1000, 0, 1100, 100);
        s_region.add_ring(vec![
            topo_geometry::Point::from_ints(1200, 0),
            topo_geometry::Point::from_ints(1300, 0),
            topo_geometry::Point::from_ints(1300, 100),
            topo_geometry::Point::from_ints(1200, 100),
        ]);
        SpatialInstance::from_regions([
            ("P", Region::rectangle(0, 0, 100, 100)),
            ("Q", Region::rectangle(20, 20, 80, 80)),
            ("R", Region::rectangle(100, 0, 200, 100)),
            ("S", s_region),
        ])
    }

    #[test]
    fn first_order_queries() {
        let invariant = top(&instance());
        assert!(evaluate_on_invariant(&TopologicalQuery::Intersects(0, 1), &invariant));
        assert!(evaluate_on_invariant(&TopologicalQuery::Contains(0, 1), &invariant));
        assert!(!evaluate_on_invariant(&TopologicalQuery::Contains(1, 0), &invariant));
        assert!(evaluate_on_invariant(&TopologicalQuery::Disjoint(1, 2), &invariant));
        assert!(evaluate_on_invariant(
            &TopologicalQuery::BoundaryOnlyIntersection(0, 2),
            &invariant
        ));
        assert!(!evaluate_on_invariant(
            &TopologicalQuery::BoundaryOnlyIntersection(0, 1),
            &invariant
        ));
        assert!(evaluate_on_invariant(&TopologicalQuery::InteriorsOverlap(0, 1), &invariant));
        assert!(!evaluate_on_invariant(&TopologicalQuery::InteriorsOverlap(0, 2), &invariant));
        assert!(!evaluate_on_invariant(&TopologicalQuery::Equal(0, 1), &invariant));
        assert!(evaluate_on_invariant(&TopologicalQuery::Equal(0, 0), &invariant));
    }

    #[test]
    fn connectivity_queries() {
        let invariant = top(&instance());
        assert!(evaluate_on_invariant(&TopologicalQuery::IsConnected(0), &invariant));
        assert!(!evaluate_on_invariant(&TopologicalQuery::IsConnected(3), &invariant));
        assert_eq!(component_count(&invariant, 3), 2);
        assert!(evaluate_on_invariant(&TopologicalQuery::ComponentCountEven(3), &invariant));
        assert!(!evaluate_on_invariant(&TopologicalQuery::ComponentCountEven(0), &invariant));
    }

    #[test]
    fn hole_detection() {
        let mut annulus = Region::rectangle(0, 0, 100, 100);
        annulus.add_ring(vec![
            topo_geometry::Point::from_ints(30, 30),
            topo_geometry::Point::from_ints(70, 30),
            topo_geometry::Point::from_ints(70, 70),
            topo_geometry::Point::from_ints(30, 70),
        ]);
        let with_hole = SpatialInstance::from_regions([("A", annulus)]);
        let without_hole =
            SpatialInstance::from_regions([("A", Region::rectangle(0, 0, 100, 100))]);
        assert!(evaluate_on_invariant(&TopologicalQuery::HasHole(0), &top(&with_hole)));
        assert!(!evaluate_on_invariant(&TopologicalQuery::HasHole(0), &top(&without_hole)));
    }

    #[test]
    fn isomorphism_classes_group_by_cached_codes() {
        use topo_spatial::transform::AffineMap;
        // Three topologies: a disk (twice, one transformed), an annulus
        // (twice), and two disjoint squares (once).
        let disk = SpatialInstance::from_regions([("A", Region::rectangle(0, 0, 100, 100))]);
        let disk2 = AffineMap::translation(1000, -300).apply_instance(&disk);
        let mut annulus_region = Region::rectangle(0, 0, 100, 100);
        annulus_region.add_ring(vec![
            topo_geometry::Point::from_ints(30, 30),
            topo_geometry::Point::from_ints(70, 30),
            topo_geometry::Point::from_ints(70, 70),
            topo_geometry::Point::from_ints(30, 70),
        ]);
        let annulus = SpatialInstance::from_regions([("A", annulus_region)]);
        let annulus2 = AffineMap::rotation90().apply_instance(&annulus);
        let mut two_region = Region::rectangle(0, 0, 10, 10);
        two_region.add_ring(vec![
            topo_geometry::Point::from_ints(20, 0),
            topo_geometry::Point::from_ints(30, 0),
            topo_geometry::Point::from_ints(30, 10),
            topo_geometry::Point::from_ints(20, 10),
        ]);
        let two = SpatialInstance::from_regions([("A", two_region)]);
        let invariants: Vec<_> = [&disk, &annulus, &disk2, &two, &annulus2].map(top).to_vec();
        let refs: Vec<&TopologicalInvariant> = invariants.iter().collect();
        let classes = isomorphism_classes(&refs);
        assert_eq!(classes, vec![vec![0, 2], vec![1, 4], vec![3]]);
        // The class partition agrees with the generic relational isomorphism
        // (run through the code-keyed fast path and the backtracking search).
        for i in 0..refs.len() {
            for j in 0..refs.len() {
                let same_class = classes.iter().any(|c| c.contains(&i) && c.contains(&j));
                let (si, sj) = (refs[i].to_structure(), refs[j].to_structure());
                assert_eq!(
                    same_class,
                    topo_relational::isomorphic_with_keys(
                        &si,
                        &sj,
                        Some(refs[i].canonical_code()),
                        Some(refs[j].canonical_code()),
                    )
                );
                assert_eq!(same_class, topo_relational::isomorphic(&si, &sj));
            }
        }
        // Per-class evaluation matches per-invariant evaluation.
        let query = TopologicalQuery::HasHole(0);
        let per_class = evaluate_on_classes(&query, &refs);
        let per_invariant: Vec<bool> =
            refs.iter().map(|inv| evaluate_on_invariant(&query, inv)).collect();
        assert_eq!(per_class, per_invariant);
        assert_eq!(per_class, vec![false, true, false, false, true]);
    }

    #[test]
    fn euler_characteristic_values() {
        // A disk has Euler characteristic 1; two disjoint disks have 2; an
        // annulus has 0.
        let disk = SpatialInstance::from_regions([("A", Region::rectangle(0, 0, 10, 10))]);
        assert_eq!(euler_characteristic(&top(&disk), 0), 1);
        let mut two = Region::rectangle(0, 0, 10, 10);
        two.add_ring(vec![
            topo_geometry::Point::from_ints(20, 0),
            topo_geometry::Point::from_ints(30, 0),
            topo_geometry::Point::from_ints(30, 10),
            topo_geometry::Point::from_ints(20, 10),
        ]);
        assert_eq!(euler_characteristic(&top(&SpatialInstance::from_regions([("A", two)])), 0), 2);
        let mut annulus = Region::rectangle(0, 0, 100, 100);
        annulus.add_ring(vec![
            topo_geometry::Point::from_ints(30, 30),
            topo_geometry::Point::from_ints(70, 30),
            topo_geometry::Point::from_ints(70, 70),
            topo_geometry::Point::from_ints(30, 70),
        ]);
        assert_eq!(
            euler_characteristic(&top(&SpatialInstance::from_regions([("A", annulus)])), 0),
            0
        );
    }
}

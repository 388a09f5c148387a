//! The connected-component tree (the paper's Fig. 2) on a deep, crowded
//! instance: 32 concentric rings with 132 islands spread over the annuli
//! between them, the exterior and the innermost face.
//!
//! The invariant derives the tree in linear time from grouped face and
//! component incidence lists. The oracle below is the quadratic routine it
//! replaced, which rescans every face for every component: both must give
//! the same parent face, depth and face owner everywhere, and the canonical
//! codes must partition variants of the instance exactly like the frozen
//! reference codes.

use std::collections::{HashSet, VecDeque};
use topo_core::spatial::transform::AffineMap;
use topo_core::{canonical_code_naive, top, Point, Region, SpatialInstance, TopologicalInvariant};

const RINGS: usize = 32;
const ISLANDS_PER_FACE: usize = 4;
const SPAN: i64 = 20_000;
const STEP: i64 = 200;

fn rect(x0: i64, y0: i64, w: i64, h: i64) -> Vec<Point> {
    vec![
        Point::from_ints(x0, y0),
        Point::from_ints(x0 + w, y0),
        Point::from_ints(x0 + w, y0 + h),
        Point::from_ints(x0, y0 + h),
    ]
}

/// Rings alternate between two regions; `islands[k]` islands sit in the
/// annulus outside ring `k` (`k = 0` is the exterior, `k = RINGS` the
/// innermost face), stacked along the annulus' left strip.
fn rings_with_islands(islands: &[usize]) -> SpatialInstance {
    assert_eq!(islands.len(), RINGS + 1);
    let mut even = Region::new();
    let mut odd = Region::new();
    for level in 0..RINGS {
        let inset = level as i64 * STEP;
        let ring = rect(inset, inset, SPAN - 2 * inset, SPAN - 2 * inset);
        if level % 2 == 0 {
            even.add_ring(ring);
        } else {
            odd.add_ring(ring);
        }
    }
    let mut isle = Region::new();
    for (k, &count) in islands.iter().enumerate() {
        // The strip just outside ring `k` (left of it for the exterior).
        let x = if k == 0 { -STEP + 50 } else { (k as i64 - 1) * STEP + 50 };
        for i in 0..count {
            isle.add_ring(rect(x, SPAN / 2 + i as i64 * 2 * STEP, STEP / 2, STEP / 2));
        }
    }
    SpatialInstance::from_regions([("even", even), ("odd", odd), ("isle", isle)])
}

fn stress_instance() -> SpatialInstance {
    rings_with_islands(&[ISLANDS_PER_FACE; RINGS + 1])
}

/// The component tree exactly as the invariant derived it before the linear
/// rewrite: per-face hash sets of adjacent components, then a level-order
/// traversal that scans every face for each dequeued component.
#[allow(clippy::type_complexity)]
fn quadratic_tree(inv: &TopologicalInvariant) -> (Vec<(usize, usize)>, Vec<Option<usize>>) {
    let face_count = inv.face_count();
    let mut face_components: Vec<HashSet<usize>> = vec![HashSet::new(); face_count];
    for e in 0..inv.edge_count() {
        let c = inv.component_of_edge(e);
        let (a, b) = inv.edge_faces(e);
        face_components[a].insert(c);
        face_components[b].insert(c);
    }
    for v in 0..inv.vertex_count() {
        let c = inv.component_of_vertex(v);
        for &f in inv.vertex_sector_faces(v) {
            face_components[f].insert(c);
        }
        if let Some(f) = inv.isolated_vertex_face(v) {
            face_components[f].insert(c);
        }
    }
    let exterior = inv.exterior_face();
    let mut tree = vec![(0, 0); inv.components().len()];
    let mut face_owner: Vec<Option<usize>> = vec![None; face_count];
    let mut assigned = vec![false; inv.components().len()];
    let mut queue = VecDeque::new();
    for &c in &face_components[exterior] {
        if !assigned[c] {
            assigned[c] = true;
            queue.push_back((c, exterior, 0));
        }
    }
    while let Some((c, parent_face, depth)) = queue.pop_front() {
        tree[c] = (parent_face, depth);
        let adjacent: Vec<usize> =
            (0..face_count).filter(|&f| f != exterior && face_components[f].contains(&c)).collect();
        for f in adjacent {
            if face_owner[f].is_some() {
                continue;
            }
            face_owner[f] = Some(c);
            for &child in &face_components[f] {
                if !assigned[child] {
                    assigned[child] = true;
                    queue.push_back((child, f, depth + 1));
                }
            }
        }
    }
    (tree, face_owner)
}

fn assert_tree_matches_oracle(inv: &TopologicalInvariant, label: &str) {
    let (tree, owners) = quadratic_tree(inv);
    for (c, comp) in inv.components().iter().enumerate() {
        assert_eq!((comp.parent_face, comp.depth), tree[c], "{label}: component {c}");
    }
    for (f, &owner) in owners.iter().enumerate() {
        assert_eq!(inv.face_owner(f), owner, "{label}: owner of face {f}");
        let children: Vec<usize> =
            (0..inv.components().len()).filter(|&c| tree[c].0 == f).collect();
        assert_eq!(inv.components_in_face(f), children, "{label}: children of face {f}");
    }
    for c in 0..inv.components().len() {
        let owned: Vec<usize> = (0..inv.face_count()).filter(|&f| owners[f] == Some(c)).collect();
        assert_eq!(inv.owned_faces(c), owned, "{label}: faces owned by {c}");
    }
}

#[test]
fn deep_nesting_with_islands_matches_the_quadratic_tree() {
    let inv = top(&stress_instance());
    let islands = (RINGS + 1) * ISLANDS_PER_FACE;
    assert_eq!(inv.components().len(), RINGS + islands, "one component per ring and island");
    let max_depth = inv.components().iter().map(|c| c.depth).max().unwrap();
    assert_eq!(max_depth, RINGS, "islands in the innermost face sit below every ring");
    // Component ids follow the first appearance of their cells.
    let first_cell: Vec<(usize, usize)> = inv
        .components()
        .iter()
        .map(|c| {
            (
                c.vertices.first().map_or(1, |_| 0),
                c.vertices.first().or(c.edges.first()).copied().unwrap(),
            )
        })
        .collect();
    assert!(first_cell.windows(2).all(|w| w[0] < w[1]), "component ids in first-appearance order");
    assert_tree_matches_oracle(&inv, "stress instance");

    let rotated = top(&AffineMap::rotation90().apply_instance(&stress_instance()));
    assert_tree_matches_oracle(&rotated, "rotated stress instance");
}

#[test]
fn deep_nesting_with_islands_partitions_like_the_reference_codes() {
    let mut moved = [ISLANDS_PER_FACE; RINGS + 1];
    moved[10] -= 1;
    moved[11] += 1;
    let mut fewer = [ISLANDS_PER_FACE; RINGS + 1];
    fewer[RINGS] -= 1;
    let invariants = [
        top(&stress_instance()),
        top(&AffineMap::rotation90().apply_instance(&stress_instance())),
        top(&rings_with_islands(&moved)),
        top(&AffineMap::translation(777, -3_000).apply_instance(&rings_with_islands(&moved))),
        top(&rings_with_islands(&fewer)),
    ];
    for (i, inv) in invariants.iter().enumerate() {
        assert_tree_matches_oracle(inv, &format!("variant {i}"));
    }
    let naive: Vec<String> = invariants.iter().map(canonical_code_naive).collect();
    for i in 0..invariants.len() {
        for j in 0..invariants.len() {
            let fast = invariants[i].canonical_code() == invariants[j].canonical_code();
            assert_eq!(fast, naive[i] == naive[j], "variants {i} and {j}");
        }
    }
    assert!(invariants[0].is_isomorphic_to(&invariants[1]));
    assert!(invariants[2].is_isomorphic_to(&invariants[3]));
    assert!(!invariants[0].is_isomorphic_to(&invariants[2]));
    assert!(!invariants[0].is_isomorphic_to(&invariants[4]));
}

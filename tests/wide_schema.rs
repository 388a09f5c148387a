//! A schema wider than one 64-bit word: 72 regions, so every region set
//! keeps members in its spilled words as well as in the inline one.
//!
//! No generator produces more than nine regions, so this is the only place
//! the spill path runs end to end: construction against the frozen
//! reference pipeline, canonical codes against the reference codes, and a
//! store round trip through a snapshot and a WAL tail.

use std::sync::Arc;
use topo_core::spatial::transform::AffineMap;
use topo_core::{
    canonical_code_naive, top, top_naive, CodeHash, InvariantStore, MemoryBackend, Point, Region,
    SpatialInstance, StoreConfig, TopologicalInvariant,
};

const REGIONS: usize = 72;

fn rect(x0: i64, y0: i64, w: i64, h: i64) -> Vec<Point> {
    vec![
        Point::from_ints(x0, y0),
        Point::from_ints(x0 + w, y0),
        Point::from_ints(x0 + w, y0 + h),
        Point::from_ints(x0, y0 + h),
    ]
}

/// A row of squares, one region each, inside one frame region that covers
/// them all. Two pairs overlap — one pair within the spilled word, one
/// across the word boundary — so vertices and edges get spilled members
/// too. `skip` leaves one square out.
fn squares(skip: Option<usize>) -> SpatialInstance {
    let count = REGIONS - 1;
    let mut regions: Vec<(String, Region)> = (0..count)
        .map(|k| {
            let mut region = Region::new();
            let x = match k {
                67 => 66 * 100 + 30,
                68 => 2 * 100 + 30,
                _ => k as i64 * 100,
            };
            if Some(k) != skip {
                region.add_ring(rect(x, (k % 2) as i64 * 20, 60, 60));
            }
            (format!("r{k}"), region)
        })
        .collect();
    let mut frame = Region::new();
    frame.add_ring(rect(-100, -100, count as i64 * 100 + 200, 300));
    regions.push(("frame".to_string(), frame));
    SpatialInstance::from_regions(regions)
}

fn variants() -> Vec<SpatialInstance> {
    vec![
        squares(None),
        AffineMap::rotation90().apply_instance(&squares(None)),
        squares(Some(70)),
        AffineMap::translation(1_000, 9).apply_instance(&squares(Some(70))),
        squares(Some(3)),
    ]
}

#[test]
fn wide_schema_matches_the_reference_pipeline() {
    let instances = variants();
    let invariants: Vec<TopologicalInvariant> = instances.iter().map(top).collect();
    // The spill words carry members: the frame (region 71) contains faces.
    let inv = &invariants[0];
    assert_eq!(inv.schema().len(), REGIONS);
    let frame = REGIONS - 1;
    assert!((0..inv.face_count()).any(|f| inv.face_regions(f).contains(frame)));
    assert!((0..inv.face_count()).any(|f| inv.face_regions(f).iter().any(|r| r >= 64 && r < frame)));
    assert!((0..inv.vertex_count()).any(|v| inv.vertex_boundary_regions(v).contains(67)));

    for (instance, fast) in instances.iter().zip(&invariants) {
        let slow = top_naive(instance);
        assert_eq!(fast.vertex_count(), slow.vertex_count());
        assert_eq!(fast.edge_count(), slow.edge_count());
        assert_eq!(fast.face_count(), slow.face_count());
        assert_eq!(fast.canonical_code(), slow.canonical_code());
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
    assert!(!invariants[2].is_isomorphic_to(&invariants[4]));
}

fn class_hashes(store: &InvariantStore) -> Vec<CodeHash> {
    store
        .classes()
        .iter()
        .map(|members| {
            let class = store.class_of(members[0]).unwrap();
            store.class_representative(class).unwrap().code_hash()
        })
        .collect()
}

#[test]
fn wide_schema_survives_a_snapshot_and_wal_round_trip() {
    let invariants: Vec<Arc<TopologicalInvariant>> =
        variants().iter().map(|i| Arc::new(top(i))).collect();
    let backend = MemoryBackend::new();
    let store = InvariantStore::open(StoreConfig::default(), backend.clone()).unwrap();
    store.ingest_invariant(invariants[0].clone());
    store.ingest_invariant(invariants[2].clone());
    store.checkpoint().unwrap();
    for invariant in &invariants[1..] {
        store.ingest_invariant(invariant.clone());
    }
    let recovered = InvariantStore::open(StoreConfig::default(), backend).unwrap();
    assert_eq!(recovered.stats().replayed_records, 4);
    assert_eq!(recovered.classes(), store.classes());
    // Hashed afresh from the decoded representatives.
    let hashes = class_hashes(&recovered);
    assert_eq!(hashes, class_hashes(&store));
    assert_eq!(hashes.len(), 3);
    for (id, k) in [0, 2, 1, 2, 3, 4].into_iter().enumerate() {
        let class = recovered.class_of(id).unwrap();
        let rep = recovered.class_representative(class).unwrap();
        assert_eq!(rep.code_hash(), invariants[k].code_hash(), "instance {id}");
    }
}

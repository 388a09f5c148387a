use super::*;
use topo_spatial::Region;

fn disk(x: i64) -> SpatialInstance {
    SpatialInstance::from_regions([("a", Region::rectangle(x, 0, x + 10, 10))])
}

fn annulus() -> SpatialInstance {
    let mut region = Region::rectangle(0, 0, 100, 100);
    region.add_ring(vec![
        topo_geometry::Point::from_ints(30, 30),
        topo_geometry::Point::from_ints(70, 30),
        topo_geometry::Point::from_ints(70, 70),
        topo_geometry::Point::from_ints(30, 70),
    ]);
    SpatialInstance::from_regions([("a", region)])
}

fn ingest(store: &InvariantStore, instance: &SpatialInstance) -> InstanceId {
    store.ingest_batch(std::slice::from_ref(instance))[0]
}

fn try_ingest(store: &InvariantStore, instance: &SpatialInstance) -> IngestOutcome {
    store.try_ingest_batch(std::slice::from_ref(instance))[0]
}

#[test]
fn deduplicates_and_memoises() {
    let store = InvariantStore::default();
    let a = ingest(&store, &disk(0));
    let b = ingest(&store, &disk(500));
    let c = ingest(&store, &annulus());
    assert_eq!(store.instance_count(), 3);
    assert_eq!(store.class_count(), 2);
    assert_eq!(store.class_of(a), store.class_of(b));
    assert_ne!(store.class_of(a), store.class_of(c));
    assert_eq!(store.classes(), vec![vec![a, b], vec![c]]);

    let q = TopologicalQuery::HasHole(0);
    assert_eq!(store.query(a, &q), Some(false));
    assert_eq!(store.query(b, &q), Some(false)); // same class: memo hit
    assert_eq!(store.query(c, &q), Some(true));
    assert_eq!(store.query(99, &q), None);
    let stats = store.stats();
    assert_eq!(stats.dedup_hits, 1);
    assert_eq!(stats.memo_misses, 2);
    assert_eq!(stats.memo_hits, 1);
    assert_eq!(stats.memo_entries, 2);
    assert_eq!(stats.hash_collisions, 0);
    assert_eq!(stats.hit_rate(), 1.0 / 3.0);
}

#[test]
fn ingest_invariant_shares_the_allocation() {
    let store = InvariantStore::default();
    let invariant = Arc::new(top(&disk(0)));
    let id = store.ingest_invariant(invariant.clone());
    let class = store.class_of(id).unwrap();
    let rep = store.class_representative(class).unwrap();
    assert!(Arc::ptr_eq(&rep, &invariant), "the store must not copy the invariant");
    // A duplicate keeps the first representative.
    let dup = Arc::new(top(&disk(700)));
    store.ingest_invariant(dup.clone());
    let rep = store.class_representative(class).unwrap();
    assert!(Arc::ptr_eq(&rep, &invariant));
}

#[test]
fn eviction_respects_capacity_and_preserves_answers() {
    let store = InvariantStore::new(StoreConfig {
        memo_capacity: 2,
        memo_shards: 1,
        ..StoreConfig::default()
    });
    let a = ingest(&store, &disk(0));
    let queries = [
        TopologicalQuery::HasHole(0),
        TopologicalQuery::IsConnected(0),
        TopologicalQuery::ComponentCountEven(0),
        TopologicalQuery::Intersects(0, 0),
    ];
    let first: Vec<_> = queries.iter().map(|q| store.query(a, q).unwrap()).collect();
    let stats = store.stats();
    assert!(stats.memo_entries <= 2, "capacity bound violated: {stats:?}");
    assert!(stats.memo_evictions >= 2);
    // Under continued pressure, answers stay stable.
    let second: Vec<_> = queries.iter().map(|q| store.query(a, q).unwrap()).collect();
    assert_eq!(first, second);
    assert_eq!(first, vec![false, true, false, true]);
}

#[test]
fn memo_disabled_always_evaluates() {
    let store = InvariantStore::new(StoreConfig::without_memo());
    let a = ingest(&store, &disk(0));
    let q = TopologicalQuery::IsConnected(0);
    assert_eq!(store.query(a, &q), Some(true));
    assert_eq!(store.query(a, &q), Some(true));
    let stats = store.stats();
    assert_eq!(stats.memo_hits, 0);
    assert_eq!(stats.memo_misses, 2);
    assert_eq!(stats.memo_entries, 0);
}

#[test]
fn clear_memo_keeps_answers_and_counts_invalidations() {
    let store = InvariantStore::default();
    let a = ingest(&store, &annulus());
    let q = TopologicalQuery::HasHole(0);
    assert_eq!(store.query(a, &q), Some(true));
    store.clear_memo();
    let stats = store.stats();
    assert_eq!(stats.memo_entries, 0);
    assert_eq!(stats.memo_invalidated, 1);
    assert_eq!(stats.memo_evictions, 0, "clear_memo must not count as eviction");
    assert_eq!(store.query(a, &q), Some(true));
}

#[test]
fn query_all_matches_per_instance_queries() {
    let store = InvariantStore::default();
    let ids = [ingest(&store, &disk(0)), ingest(&store, &annulus()), ingest(&store, &disk(300))];
    let q = TopologicalQuery::HasHole(0);
    let all = store.query_all(&q);
    for (&id, &answer) in ids.iter().zip(all.iter()) {
        assert_eq!(store.query(id, &q), Some(answer));
    }
    assert_eq!(all, vec![false, true, false]);
}

#[test]
fn degenerate_configs_normalise_or_error() {
    // memo_shards == 0 normalises to 1 instead of panicking in shard_of.
    let store = InvariantStore::new(StoreConfig { memo_shards: 0, ..StoreConfig::default() });
    assert_eq!(store.config().memo_shards, 1);
    let a = ingest(&store, &disk(0));
    assert_eq!(store.query(a, &TopologicalQuery::IsConnected(0)), Some(true));

    // More shards than capacity clamps so the per-shard bound stays real.
    let store = InvariantStore::new(StoreConfig {
        memo_capacity: 3,
        memo_shards: 64,
        ..StoreConfig::default()
    });
    assert_eq!(store.config().memo_shards, 3);

    // Zero capacity with zero shards still works (one shard, memo disabled).
    let store = InvariantStore::new(StoreConfig {
        memo_capacity: 0,
        memo_shards: 0,
        ..StoreConfig::default()
    });
    assert_eq!(store.config().memo_shards, 1);

    // A store that can never admit anything is an error, not a trap.
    let Err(err) =
        InvariantStore::try_new(StoreConfig { max_classes: 0, ..StoreConfig::default() })
    else {
        panic!("max_classes == 0 must be rejected");
    };
    assert_eq!(err, StoreConfigError::ZeroClassCapacity);
    assert!(err.to_string().contains("max_classes"));
}

#[test]
#[should_panic(expected = "invalid StoreConfig")]
fn new_panics_on_unrecoverable_config() {
    let _ = InvariantStore::new(StoreConfig { max_classes: 0, ..StoreConfig::default() });
}

#[test]
fn admission_bound_rejects_new_classes_but_not_duplicates() {
    let store = InvariantStore::new(StoreConfig { max_classes: 1, ..StoreConfig::default() });
    let first = try_ingest(&store, &disk(0));
    assert!(matches!(first, IngestOutcome::Admitted(0)));
    // A duplicate of the resident class is still welcome at capacity.
    let dup = try_ingest(&store, &disk(500));
    assert!(matches!(dup, IngestOutcome::Deduplicated(1)));
    // A genuinely new class is rejected: nothing stored, no id consumed.
    let rejected = try_ingest(&store, &annulus());
    assert!(rejected.is_rejected());
    assert_eq!(rejected.id(), None);
    assert_eq!(store.instance_count(), 2);
    assert_eq!(store.class_count(), 1);
    assert_eq!(store.stats().rejected, 1);
    // The next admitted instance still gets a dense id.
    assert_eq!(try_ingest(&store, &disk(42)).id(), Some(2));
}

#[test]
#[should_panic(expected = "max_classes")]
fn plain_ingest_panics_on_rejection() {
    let store = InvariantStore::new(StoreConfig { max_classes: 1, ..StoreConfig::default() });
    ingest(&store, &disk(0));
    ingest(&store, &annulus());
}

#[test]
fn remove_and_gc_free_the_class_and_its_memo() {
    let store = InvariantStore::default();
    let a = ingest(&store, &disk(0));
    let b = ingest(&store, &disk(500));
    let c = ingest(&store, &annulus());
    let disk_class = store.class_of(a).unwrap();
    let q = TopologicalQuery::HasHole(0);
    store.query(a, &q);
    store.query(c, &q);
    assert_eq!(store.stats().memo_entries, 2);

    // Removing one member keeps the class alive.
    assert!(store.remove_instance(a));
    assert!(!store.remove_instance(a), "double removal must be a no-op");
    assert_eq!(store.query(a, &q), None);
    assert_eq!(store.class_of(a), None);
    assert_eq!(store.query(b, &q), Some(false));
    assert_eq!(store.class_count(), 2);
    assert_eq!(store.class_members(disk_class), Some(vec![b]));

    // Removing the last member collects the class and purges its memo rows.
    assert!(store.remove_instance(b));
    let stats = store.stats();
    assert_eq!(stats.instances, 1);
    assert_eq!(stats.classes, 1);
    assert_eq!(stats.removals, 2);
    assert_eq!(stats.gc_classes, 1);
    assert_eq!(stats.memo_entries, 1, "the dead class's memo entry must be purged");
    assert!(store.class_representative(disk_class).is_none());
    assert_eq!(store.class_members(disk_class), None);
    assert_eq!(store.query_class(disk_class, &q), None);
    assert_eq!(store.classes(), vec![vec![c]]);
    assert_eq!(store.query_all(&q), vec![true]);

    // Re-ingesting the collected shape opens a fresh class id; the old id
    // stays dead forever.
    let d = ingest(&store, &disk(0));
    assert_ne!(store.class_of(d), Some(disk_class));
    assert_eq!(store.query(d, &q), Some(false));
}

#[test]
fn gc_frees_admission_capacity() {
    let store = InvariantStore::new(StoreConfig { max_classes: 1, ..StoreConfig::default() });
    let a = ingest(&store, &disk(0));
    assert!(try_ingest(&store, &annulus()).is_rejected());
    store.remove_instance(a);
    assert!(matches!(try_ingest(&store, &annulus()), IngestOutcome::Admitted(_)));
}

#[test]
fn lock_budget_falls_back_instead_of_blocking() {
    let store = InvariantStore::new(StoreConfig {
        memo_shards: 1,
        memo_lock_budget: Some(3),
        ..StoreConfig::default()
    });
    let a = ingest(&store, &annulus());
    let q = TopologicalQuery::HasHole(0);
    // Freeze the single memo shard with a held write lock: queries must
    // still answer, via the un-memoised fallback.
    let shard = store.memo[0].write().unwrap();
    assert_eq!(store.query(a, &q), Some(true));
    let stats = store.stats();
    assert!(stats.fallback_evals >= 1, "expected fallback evals, got {stats:?}");
    assert_eq!(stats.memo_hits + stats.memo_misses, 1, "fallbacks still count as queries");
    drop(shard);
    // With the shard free again the memo works normally.
    assert_eq!(store.query(a, &q), Some(true));
    assert_eq!(store.query(a, &q), Some(true));
    assert!(store.stats().memo_hits >= 1);
}

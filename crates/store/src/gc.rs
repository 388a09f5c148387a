//! Instance removal and class garbage collection.
//!
//! Removal is a tombstone: the instance's slot becomes `None` and its id is
//! never reused, so a dangling id held by a client can only ever answer
//! `None`, never someone else's data. When the last member of a class
//! leaves, the class is collected — its representative `Arc` dropped (the
//! only deep state the store holds), its content address unregistered, its
//! id retired, and its memoised answers purged so no stale
//! `(class, query)` row survives the class it described.
//!
//! Lock discipline: the table mutation and its WAL record happen under the
//! one table write lock (WAL order = operation order); the memo purge runs
//! *after* it releases, as memo shard locks never nest with the table lock.
//! The window in between is benign: a stale memo row keyed by a dead class
//! id is unreachable, because every lookup path re-resolves the class id
//! first and dead ids resolve to `None`.

use std::sync::atomic::Ordering;

use crate::{write_recover, ClassId, InstanceId, InvariantStore};

impl InvariantStore {
    /// Removes an ingested instance. Returns `true` if the id was live (and
    /// is now tombstoned), `false` for an unknown or already-removed id.
    ///
    /// If the instance was the last member of its class, the class is
    /// garbage-collected: [`class_representative`](Self::class_representative)
    /// / [`class_members`](Self::class_members) /
    /// [`query_class`](Self::query_class) answer `None` for it from now on,
    /// its memo entries are purged, its admission slot is freed, and its id
    /// is never reused. On a persistent store the removal is WAL-logged
    /// before the table lock releases.
    pub fn remove_instance(&self, id: InstanceId) -> bool {
        let collected = {
            let mut tables = write_recover(&self.tables, &self.counters);
            let Some((class, collected)) = tables.detach(id) else {
                return false;
            };
            self.wal_remove(id);
            self.counters.removals.fetch_add(1, Ordering::Relaxed);
            if collected {
                self.counters.gc_classes.fetch_add(1, Ordering::Relaxed);
            }
            collected.then_some(class)
        };
        if let Some(class) = collected {
            self.purge_class_memo(class);
        }
        true
    }

    /// Drops every memoised answer of a dead class, counting them into
    /// [`memo_invalidated`](crate::StoreStats::memo_invalidated). Runs
    /// outside the table lock; racing queries on the dying class either
    /// already resolved it (and at worst re-insert an entry that the next
    /// purge or eviction removes — harmless, since dead class ids are
    /// unreachable through every lookup path) or resolve it to `None`.
    pub(crate) fn purge_class_memo(&self, class: ClassId) {
        let mut purged = 0u64;
        for shard in &self.memo {
            let mut shard = write_recover(shard, &self.counters);
            let before = shard.map.len();
            shard.map.retain(|&(c, _), _| c != class);
            purged += (before - shard.map.len()) as u64;
        }
        self.counters.memo_invalidated.fetch_add(purged, Ordering::Relaxed);
    }
}

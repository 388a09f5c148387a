//! In-place instance updates: re-pointing a live instance at the class of a
//! repaired invariant.
//!
//! This is the store-side half of incremental maintenance (see
//! `topo_invariant::maintain`): an edited instance's invariant is repaired
//! locally by [`MaintainedInvariant`](topo_invariant::MaintainedInvariant) —
//! with its canonical code already primed — and the store moves the instance
//! to the new invariant's isomorphism class under **one** WAL record,
//! instead of a remove + re-ingest pair (two records, and an id change the
//! client would have to chase).
//!
//! Semantics mirror a removal immediately followed by an ingest that lands
//! on the same id: the old class is garbage-collected if the instance was
//! its last member, the new class is found by content address (or opened,
//! subject to the [`StoreConfig::max_classes`](crate::StoreConfig)
//! admission bound), the instance id is *stable*, and a rejected update
//! leaves the store exactly as it was.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use topo_invariant::TopologicalInvariant;

use crate::persist::TAG_UPDATE;
use crate::tables::Attach;
use crate::{write_recover, IngestOutcome, InstanceId, InvariantStore};

impl InvariantStore {
    /// Re-points a live instance at the class of `invariant`, deduplicating
    /// by content address exactly like
    /// [`try_ingest_invariant_batch`](Self::try_ingest_invariant_batch). The
    /// instance keeps its id.
    ///
    /// Returns `None` for an unknown or removed id. Otherwise:
    ///
    /// * [`IngestOutcome::Deduplicated`] — the new invariant landed in an
    ///   existing class (possibly the instance's old class, making the
    ///   update a no-op);
    /// * [`IngestOutcome::Admitted`] — it opened a new class;
    /// * [`IngestOutcome::Rejected`] — opening the class would exceed
    ///   [`StoreConfig::max_classes`](crate::StoreConfig::max_classes)
    ///   *after* accounting for the old class the update would free; the
    ///   store is left untouched.
    ///
    /// On a persistent store the whole transition is logged as **one** WAL
    /// record while the table lock is held, so recovery replays it
    /// atomically: a crash recovers the old state or the new state, never a
    /// torn one. If the update empties the old class it is garbage-collected
    /// (admission slot freed, memo purged) just like the last
    /// [`remove_instance`](Self::remove_instance) would.
    ///
    /// The invariant should arrive canonicalised (the maintenance layer
    /// primes the code cache); if not, the code is computed here, outside
    /// every lock.
    pub fn update_instance(
        &self,
        id: InstanceId,
        invariant: Arc<TopologicalInvariant>,
    ) -> Option<IngestOutcome> {
        // Canonicalise before taking any lock (cached — free when the
        // invariant came out of the maintenance layer).
        let hash = invariant.code_hash();
        invariant.canonical_code();
        let (outcome, purge) = {
            let mut tables = write_recover(&self.tables, &self.counters);
            let old_class = tables.class_of(id)?;
            let located = tables.locate(hash, &invariant, &self.counters.hash_collisions);
            let (class, admitted) = match located {
                // Possibly the old class: a no-op update, still logged so
                // replay reproduces the (idempotent) transition and the seq
                // stream.
                Some(class) => (class, false),
                None => {
                    // Admission check *before* touching anything, counting
                    // the slot the update itself frees when the instance is
                    // its old class's last member.
                    let freed = tables.members(old_class).map_or(0, |m| (m.len() == 1) as usize);
                    if tables.live_classes() - freed >= self.config.max_classes {
                        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                        return Some(IngestOutcome::Rejected);
                    }
                    let class = tables.next_class();
                    tables.open_class(class, hash, invariant.clone()).expect("next class id");
                    (class, true)
                }
            };
            let collected = tables.attach(Attach::Move, id, class).expect("live id, live class");
            self.counters.updates.fetch_add(1, Ordering::Relaxed);
            if collected.is_some() {
                self.counters.gc_classes.fetch_add(1, Ordering::Relaxed);
            }
            // One record for the whole transition, appended while the table
            // lock is held so WAL order stays operation order.
            let opened = admitted.then_some(&*invariant);
            self.wal_class_records(TAG_UPDATE, &[(id, class, hash, opened)]);
            let outcome = if admitted {
                IngestOutcome::Admitted(id)
            } else {
                IngestOutcome::Deduplicated(id)
            };
            (outcome, collected)
        };
        // Memo purge outside the table lock, as everywhere (see `gc`).
        if let Some(class) = purge {
            self.purge_class_memo(class);
        }
        Some(outcome)
    }
}

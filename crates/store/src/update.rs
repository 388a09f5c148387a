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
use crate::{gc, write_recover, ClassTable, IngestOutcome, InstanceId, InvariantStore};

/// Inserts `id` into a class member list keeping the list sorted by
/// instance id — the order ingests produce and snapshots preserve, so a
/// recovered store is bit-identical to the live one even after updates.
pub(crate) fn attach_member(classes: &mut ClassTable, class: usize, id: InstanceId) {
    let members = &mut classes.members[class];
    let pos = members.partition_point(|&m| m < id);
    members.insert(pos, id);
}

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
    /// record while the table locks are held, so recovery replays it
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
            // Lock order everywhere both are held: `classes` before
            // `instances`.
            let mut classes = write_recover(&self.classes, &self.counters);
            let mut instances = write_recover(&self.instances, &self.counters);
            let old_class = (*instances.slots.get(id)?)?;

            let located = self.locate_class(&classes, hash, &invariant);
            if located == Some(old_class) {
                // No-op update: the repaired invariant is still isomorphic
                // to the old one. Log it anyway — replay needs the record to
                // reproduce the (idempotent) transition and the seq stream.
                self.counters.updates.fetch_add(1, Ordering::Relaxed);
                if self.persistence.is_some() {
                    self.wal_class_record(TAG_UPDATE, &classes, id, old_class, false);
                }
                return Some(IngestOutcome::Deduplicated(id));
            }
            if located.is_none() {
                // Admission check *before* touching anything, counting the
                // slot the update itself frees when the instance is its old
                // class's last member.
                let freed = (classes.members[old_class].len() == 1) as usize;
                if classes.live - freed >= self.config.max_classes {
                    self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                    return Some(IngestOutcome::Rejected);
                }
            }

            let (_, collected) = gc::remove_from_tables(&mut classes, &mut instances, id)
                .expect("slot checked live above");
            let (class, admitted) = match located {
                Some(class) => (class, false),
                None => {
                    let class = classes.reps.len();
                    classes.reps.push(Some(invariant));
                    classes.hashes.push(hash);
                    classes.members.push(Vec::new());
                    classes.by_hash.entry(hash).or_default().push(class);
                    classes.live += 1;
                    (class, true)
                }
            };
            instances.slots[id] = Some(class);
            instances.live += 1;
            attach_member(&mut classes, class, id);
            self.counters.updates.fetch_add(1, Ordering::Relaxed);
            if collected {
                self.counters.gc_classes.fetch_add(1, Ordering::Relaxed);
            }
            if self.persistence.is_some() {
                // One record for the whole transition, appended while both
                // locks are held so WAL order stays operation order.
                self.wal_class_record(TAG_UPDATE, &classes, id, class, admitted);
            }
            let outcome = if admitted {
                IngestOutcome::Admitted(id)
            } else {
                IngestOutcome::Deduplicated(id)
            };
            (outcome, collected.then_some(old_class))
        };
        // Memo purge outside the table locks, as everywhere (see `gc`).
        if let Some(class) = purge {
            self.purge_class_memo(class);
        }
        Some(outcome)
    }
}

//! The store's class and instance tables, and the checked transitions that
//! are the only way to change them: [`Tables::open_class`],
//! [`Tables::attach`] and [`Tables::detach`]. Live ingest, update, removal,
//! snapshot load and WAL replay all call them, so recovery applies exactly
//! the rules live operations obey. Live callers have already decided
//! admission, so they `expect` success; the decoders map a refusal to
//! [`PersistError::Corrupt`](crate::PersistError::Corrupt).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use topo_invariant::{CodeHash, TopologicalInvariant};

use crate::{ClassId, InstanceId};

/// A transition the tables refused, with the reason.
#[derive(Debug)]
pub(crate) struct Refused(pub(crate) String);

/// The class table (content address → candidate classes, and each slot's
/// representative, hash and sorted members) and the instance table. Ids are
/// never reused: a collected class keeps its slot with `reps[c] == None`,
/// a removed instance its slot as a `None` tombstone.
#[derive(Default)]
pub(crate) struct Tables {
    by_hash: HashMap<CodeHash, Vec<ClassId>>,
    reps: Vec<Option<Arc<TopologicalInvariant>>>,
    hashes: Vec<CodeHash>,
    members: Vec<Vec<InstanceId>>,
    /// The admission bound counts live classes, so collection frees room.
    live_classes: usize,
    slots: Vec<Option<ClassId>>,
    live_instances: usize,
}

/// What [`Tables::attach`] does with its instance id.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Attach {
    /// An ingest: the id must be the next instance id.
    New,
    /// An update: the id must be live, and leaves its class for the target.
    Move,
}

impl Tables {
    /// Empty tables with room for a snapshot's slot counts; a count that
    /// cannot be allocated is refused instead of aborting.
    pub(crate) fn with_capacity(classes: usize, instances: usize) -> Result<Self, Refused> {
        let mut t = Tables::default();
        let reserved = t.reps.try_reserve_exact(classes);
        let reserved = reserved
            .and_then(|()| t.hashes.try_reserve_exact(classes))
            .and_then(|()| t.members.try_reserve_exact(classes))
            .and_then(|()| t.slots.try_reserve_exact(instances));
        let refused = |e| Refused(format!("slot counts {classes} and {instances}: {e}"));
        reserved.map(|()| t).map_err(refused)
    }

    /// The class of a live instance; `None` for an unknown or removed id.
    pub(crate) fn class_of(&self, id: InstanceId) -> Option<ClassId> {
        *self.slots.get(id)?
    }

    pub(crate) fn live_instances(&self) -> usize {
        self.live_instances
    }

    pub(crate) fn live_classes(&self) -> usize {
        self.live_classes
    }

    /// The id the next opened class takes, which is also the slot count.
    pub(crate) fn next_class(&self) -> ClassId {
        self.reps.len()
    }

    /// The id the next ingest takes, which is also the slot count.
    pub(crate) fn next_instance(&self) -> InstanceId {
        self.slots.len()
    }

    /// The representative of a live class.
    pub(crate) fn representative(&self, class: ClassId) -> Option<&Arc<TopologicalInvariant>> {
        self.reps.get(class)?.as_ref()
    }

    /// The members of a live class, sorted by instance id.
    pub(crate) fn members(&self, class: ClassId) -> Option<&[InstanceId]> {
        self.representative(class).map(|_| &self.members[class][..])
    }

    /// Every live class as `(class, hash, representative)`, in id order.
    pub(crate) fn live_class_entries(
        &self,
    ) -> impl Iterator<Item = (ClassId, CodeHash, &Arc<TopologicalInvariant>)> {
        let reps = self.reps.iter().enumerate();
        reps.filter_map(|(class, rep)| Some((class, self.hashes[class], rep.as_ref()?)))
    }

    /// Every live instance as `(id, class)`, in id order.
    pub(crate) fn live_instance_entries(&self) -> impl Iterator<Item = (InstanceId, ClassId)> + '_ {
        self.slots.iter().enumerate().filter_map(|(id, slot)| Some((id, (*slot)?)))
    }

    /// Finds the live class an invariant belongs to, if any: hash
    /// nomination plus cached-code confirmation. Counts refuted nominations
    /// into `collisions`.
    pub(crate) fn locate(
        &self,
        hash: CodeHash,
        invariant: &TopologicalInvariant,
        collisions: &AtomicU64,
    ) -> Option<ClassId> {
        for &candidate in self.by_hash.get(&hash)? {
            let Some(rep) = self.reps[candidate].as_ref() else { continue };
            if rep.is_isomorphic_to(invariant) {
                return Some(candidate);
            }
            collisions.fetch_add(1, Ordering::Relaxed);
        }
        None
    }

    /// Opens class `class` with its representative. Only the next class id
    /// may be opened, so a class is never re-created or reused.
    pub(crate) fn open_class(
        &mut self,
        class: ClassId,
        hash: CodeHash,
        rep: Arc<TopologicalInvariant>,
    ) -> Result<(), Refused> {
        let next = self.next_class();
        if class != next {
            return Err(Refused(format!("opens class {class}, but the next class id is {next}")));
        }
        self.reps.push(Some(rep));
        self.hashes.push(hash);
        self.members.push(Vec::new());
        self.by_hash.entry(hash).or_default().push(class);
        self.live_classes += 1;
        Ok(())
    }

    /// Puts instance `id` into live class `class`, keeping its member list
    /// sorted. [`Attach::New`] takes the next instance id; [`Attach::Move`]
    /// takes a live id and detaches it from its current class first (a move
    /// to the current class is a no-op). Returns the class the move
    /// collected, if any.
    pub(crate) fn attach(
        &mut self,
        how: Attach,
        id: InstanceId,
        class: ClassId,
    ) -> Result<Option<ClassId>, Refused> {
        if self.representative(class).is_none() {
            return Err(Refused(format!("instance {id} joins dead or unknown class {class}")));
        }
        let next = self.next_instance();
        let collected = match (how, self.class_of(id)) {
            (Attach::New, _) if id == next => {
                self.slots.push(None);
                None
            }
            (Attach::New, _) => {
                return Err(Refused(format!("ingests id {id}, not next id {next}")))
            }
            (Attach::Move, None) => return Err(Refused(format!("moves dead instance {id}"))),
            (Attach::Move, Some(current)) if current == class => return Ok(None),
            (Attach::Move, Some(_)) => match self.detach(id) {
                Some((old, true)) => Some(old),
                _ => None,
            },
        };
        self.slots[id] = Some(class);
        self.live_instances += 1;
        let members = &mut self.members[class];
        members.insert(members.partition_point(|&m| m < id), id);
        Ok(collected)
    }

    /// Tombstones a live instance and collects its class if it emptied: the
    /// representative is dropped, the content address unregistered and the
    /// slot keeps its index. Returns the instance's class and whether it was
    /// collected, or `None` for an unknown or removed id.
    pub(crate) fn detach(&mut self, id: InstanceId) -> Option<(ClassId, bool)> {
        let class = self.slots.get_mut(id)?.take()?;
        self.live_instances -= 1;
        let members = &mut self.members[class];
        if let Ok(pos) = members.binary_search(&id) {
            members.remove(pos);
        }
        if !members.is_empty() {
            return Some((class, false));
        }
        self.reps[class] = None;
        let hash = self.hashes[class];
        if let Some(candidates) = self.by_hash.get_mut(&hash) {
            candidates.retain(|&c| c != class);
            if candidates.is_empty() {
                self.by_hash.remove(&hash);
            }
        }
        self.live_classes -= 1;
        Some((class, true))
    }

    /// Pads the tables with dead slots up to `classes` class slots and
    /// `instances` instance slots, for a decoder that reads ids in
    /// ascending order. Refuses to shrink, so no id is read twice.
    pub(crate) fn pad(&mut self, classes: ClassId, instances: InstanceId) -> Result<(), Refused> {
        if classes < self.next_class() || instances < self.next_instance() {
            return Err(Refused(format!("slot {classes}/{instances} repeats an earlier id")));
        }
        self.reps.resize(classes, None);
        self.hashes.resize(classes, CodeHash::from_u64(0));
        self.members.resize_with(classes, Vec::new);
        self.slots.resize(instances, None);
        Ok(())
    }

    /// Refuses a live class without members: no operation leaves one, and
    /// it could never be collected.
    pub(crate) fn check_classes_inhabited(&self) -> Result<(), Refused> {
        match self.live_class_entries().find(|&(class, ..)| self.members[class].is_empty()) {
            Some((class, ..)) => Err(Refused(format!("live class {class} has no members"))),
            None => Ok(()),
        }
    }
}

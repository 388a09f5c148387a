//! Incremental maintenance of `top(I)` under region edits.
//!
//! [`MaintainedInvariant`] owns a spatial instance and keeps its
//! [`TopologicalInvariant`] (with its canonical code already computed) up to
//! date across [`insert_region`](MaintainedInvariant::insert_region) /
//! [`remove_region`](MaintainedInvariant::remove_region) edits.
//!
//! By Theorem 2.1 `top(I)` depends only on the instance, so the maintainer is
//! a cache of [`crate::top`] results keyed by the instance state:
//!
//! 1. **Region interning.** Each region's content is interned to a small
//!    integer key, so an instance state is the vector of its per-region keys.
//!    An edit interns only the edited region.
//! 2. **State memo.** Each state's invariant is built by [`crate::top`] and
//!    its `code_hash` is read once, so the canonical form is cached on the
//!    invariant before anyone asks. A revisited state (an undo, a re-insert,
//!    an edit that writes back the current region) is served from the cache
//!    as the same `Arc`, with no construction and no canonicalisation. There
//!    is no other construction path: a state the cache has not seen costs
//!    one cold `top`.
//! 3. **Bounded memory.** Past a fixed cap of cached states, the states
//!    untouched longest are dropped (down to half the cap, so eviction is
//!    amortised), and with them every region key no surviving state refers
//!    to.
//!
//! Correctness is pinned by `tests/incremental_equivalence.rs`: after every
//! edit of randomised sequences the maintained state is bit-identical (cell
//! counts, canonical code, `CodeHash`, store answers) to a cold rebuild, and
//! at small scales to the frozen `naive-reference` oracle.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use topo_spatial::{Region, RegionId, Schema, SpatialInstance};

use crate::invariant::TopologicalInvariant;

/// Cache-effectiveness counters of a [`MaintainedInvariant`] — the test and
/// bench observables behind the incremental claim. A "group" is one whole
/// instance state; the names stay because perfbench reads them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintainStats {
    /// Region edits applied (each insert or remove counts once).
    pub edits: u64,
    /// Instance states built with [`crate::top`] because the state cache had
    /// not seen them.
    pub group_builds: u64,
    /// Instance states served from the state cache.
    pub group_reuses: u64,
    /// Always 0: there is no per-pair cache. Kept for perfbench.
    pub pair_computes: u64,
    /// Always 0, for the same reason as [`pair_computes`](Self::pair_computes).
    pub pair_reuses: u64,
}

/// Most instance states the cache holds before it evicts.
const STATE_CACHE_CAP: usize = 4096;

/// Region content interning: equal regions get equal keys.
#[derive(Default)]
struct RegionKeys {
    ids: HashMap<Region, u32>,
    /// The key the next never-seen content receives.
    next: u32,
}

impl RegionKeys {
    fn intern(&mut self, region: &Region) -> u32 {
        if let Some(&key) = self.ids.get(region) {
            return key;
        }
        let key = self.next;
        self.next = key.checked_add(1).expect("fewer than 2^32 distinct regions per maintainer");
        self.ids.insert(region.clone(), key);
        key
    }
}

/// A spatial instance maintained under region edits, with its invariant
/// served from a cache of per-state [`crate::top`] results (see the
/// [module docs](self)).
pub struct MaintainedInvariant {
    instance: SpatialInstance,
    region_keys: RegionKeys,
    /// The current state: the key of each region, in schema order.
    state: Vec<u32>,
    /// State cache: per-region keys → invariant, stamped with the edit
    /// counter at its last use.
    states: HashMap<Vec<u32>, (u64, Arc<TopologicalInvariant>)>,
    invariant: Arc<TopologicalInvariant>,
    stats: MaintainStats,
}

impl MaintainedInvariant {
    /// An empty maintained instance over a schema.
    pub fn new(schema: Schema) -> Self {
        Self::from_instance(&SpatialInstance::new(schema))
    }

    /// Adopts an existing instance (counts as zero edits; the initial build
    /// populates the cache).
    pub fn from_instance(instance: &SpatialInstance) -> Self {
        let mut region_keys = RegionKeys::default();
        let state: Vec<u32> =
            instance.iter().map(|(_, region)| region_keys.intern(region)).collect();
        let invariant = build(instance);
        let states = HashMap::from([(state.clone(), (0, invariant.clone()))]);
        MaintainedInvariant {
            instance: instance.clone(),
            region_keys,
            state,
            states,
            invariant,
            stats: MaintainStats::default(),
        }
    }

    /// The schema the instance is maintained over.
    pub fn schema(&self) -> &Schema {
        self.instance.schema()
    }

    /// The current region assigned to `id`.
    pub fn region(&self, id: RegionId) -> &Region {
        self.instance.region(id)
    }

    /// A snapshot of the current instance (for differential testing against
    /// a cold rebuild).
    pub fn instance(&self) -> SpatialInstance {
        self.instance.clone()
    }

    /// The maintained invariant. Its canonical form is already computed, so
    /// `canonical_code` / `code_hash` are cache hits.
    pub fn invariant(&self) -> &Arc<TopologicalInvariant> {
        &self.invariant
    }

    /// Cache-effectiveness counters since construction.
    pub fn stats(&self) -> MaintainStats {
        self.stats
    }

    /// Inserts (or replaces) the region assigned to `id` and repairs the
    /// invariant.
    ///
    /// # Panics
    /// Panics if `id` is not a region of the schema.
    pub fn insert_region(&mut self, id: RegionId, region: Region) {
        assert!(id < self.schema().len(), "region id {id} outside schema");
        self.state[id] = self.region_keys.intern(&region);
        self.instance.set_region(id, region);
        self.stats.edits += 1;
        self.refresh();
    }

    /// Removes the region assigned to `id` (leaves it empty) and repairs the
    /// invariant.
    ///
    /// # Panics
    /// Panics if `id` is not a region of the schema.
    pub fn remove_region(&mut self, id: RegionId) {
        self.insert_region(id, Region::new());
    }

    /// Serves the current state's invariant from the state cache, building
    /// it with `top` on a miss.
    fn refresh(&mut self) {
        let stamp = self.stats.edits;
        if let Some((used, invariant)) = self.states.get_mut(&self.state) {
            *used = stamp;
            self.stats.group_reuses += 1;
            self.invariant = invariant.clone();
            return;
        }
        self.invariant = build(&self.instance);
        self.stats.group_builds += 1;
        self.states.insert(self.state.clone(), (stamp, self.invariant.clone()));
        self.evict(stamp);
    }

    /// Bounds the state cache: when it overflows its cap, the states
    /// untouched longest are dropped (down to half the cap), and with them
    /// every region key that no surviving state refers to. The current state
    /// carries the newest stamp, so it always survives.
    fn evict(&mut self, stamp: u64) {
        if self.states.len() <= STATE_CACHE_CAP {
            return;
        }
        let mut stamps: Vec<u64> = self.states.values().map(|(used, _)| *used).collect();
        stamps.sort_unstable();
        let cutoff = stamps[stamps.len() - STATE_CACHE_CAP / 2].min(stamp);
        self.states.retain(|_, (used, _)| *used >= cutoff);
        let live: HashSet<u32> = self.states.keys().flatten().copied().collect();
        self.region_keys.ids.retain(|_, key| live.contains(key));
    }
}

/// Builds one instance state with the cold pipeline and computes its
/// canonical code, so readers of the shared invariant never pay for it.
fn build(instance: &SpatialInstance) -> Arc<TopologicalInvariant> {
    let invariant = crate::top(instance);
    invariant.code_hash();
    Arc::new(invariant)
}

#[cfg(test)]
mod tests {
    use super::*;
    use topo_geometry::Point;

    fn check(maintained: &MaintainedInvariant) {
        let cold = crate::top(&maintained.instance());
        let inv = maintained.invariant();
        assert_eq!(inv.vertex_count(), cold.vertex_count());
        assert_eq!(inv.edge_count(), cold.edge_count());
        assert_eq!(inv.face_count(), cold.face_count());
        assert_eq!(inv.canonical_code(), cold.canonical_code());
        assert_eq!(inv.code_hash(), cold.code_hash());
    }

    fn schema(names: &[&str]) -> Schema {
        let mut schema = Schema::new();
        for name in names {
            schema.add(*name);
        }
        schema
    }

    #[test]
    fn empty_instance_matches_cold_build() {
        let maintained = MaintainedInvariant::new(schema(&["a", "b"]));
        check(&maintained);
    }

    #[test]
    fn edit_sequence_matches_cold_build() {
        let mut m = MaintainedInvariant::new(schema(&["a", "b", "c"]));
        // A lone rectangle.
        m.insert_region(0, Region::rectangle(0, 0, 10, 10));
        check(&m);
        // Overlapping rectangle: creates intersections.
        m.insert_region(1, Region::rectangle(5, 5, 15, 15));
        check(&m);
        // A far-away region with a polyline and a point.
        let mut r = Region::rectangle(100, 100, 120, 120);
        r.add_polyline(vec![Point::from_ints(90, 90), Point::from_ints(130, 130)]);
        r.add_point(Point::from_ints(110, 110));
        m.insert_region(2, r);
        check(&m);
        // Remove the middle region.
        m.remove_region(1);
        check(&m);
        // Re-insert it: state-cache hit.
        let before = m.stats();
        m.insert_region(1, Region::rectangle(5, 5, 15, 15));
        check(&m);
        assert!(m.stats().group_reuses > before.group_reuses);
        m.remove_region(0);
        check(&m);
        m.remove_region(2);
        check(&m);
        m.remove_region(1);
        check(&m);
        assert_eq!(m.invariant().cell_count(), 1);
    }

    #[test]
    fn nested_rings_group_together() {
        // A courtyard: the outer ring contains a distant inner ring whose own
        // bbox it strictly contains.
        let mut m = MaintainedInvariant::new(schema(&["outer", "inner"]));
        m.insert_region(0, Region::rectangle(0, 0, 100, 100));
        m.insert_region(1, Region::rectangle(40, 40, 60, 60));
        check(&m);
        // One skeleton component tree with the inner ring nested in the outer.
        assert_eq!(m.invariant().face_count(), 3);
    }

    #[test]
    fn revisited_states_share_the_cached_invariant() {
        let mut m = MaintainedInvariant::new(schema(&["a", "b"]));
        m.insert_region(0, Region::rectangle(0, 0, 10, 10));
        let first = m.invariant().clone();
        m.insert_region(1, Region::rectangle(5, 5, 15, 15));

        // Back to the one-rectangle state: the same Arc, one reuse, no build.
        let before = m.stats();
        m.remove_region(1);
        assert!(Arc::ptr_eq(m.invariant(), &first));
        assert_eq!(m.stats().group_builds, before.group_builds);
        assert_eq!(m.stats().group_reuses, before.group_reuses + 1);

        // Writing back the current region is a revisit too.
        let before = m.stats();
        m.insert_region(0, Region::rectangle(0, 0, 10, 10));
        assert!(Arc::ptr_eq(m.invariant(), &first));
        assert_eq!(m.stats().group_builds, before.group_builds);
        assert_eq!(m.stats().group_reuses, before.group_reuses + 1);
        check(&m);
    }

    #[test]
    fn interning_table_stays_bounded_under_fresh_geometry() {
        // Every edit inserts never-seen geometry, so every edit mints a region
        // key and a state; past the state cache's cap, the keys of evicted
        // states must go with them. Region 1 never changes, so every cached
        // state but the empty one shares its key.
        let mut m = MaintainedInvariant::new(schema(&["a", "b"]));
        m.insert_region(1, Region::rectangle(-10, -10, -5, -5));
        for i in 0..STATE_CACHE_CAP as i64 + 100 {
            m.insert_region(0, Region::rectangle(i, 0, i + 1, 1));
            assert!(m.states.len() <= STATE_CACHE_CAP, "edit {i}: {} states", m.states.len());
            assert!(
                m.region_keys.ids.len() <= m.states.len() + 1,
                "edit {i}: {} region keys for {} cached states",
                m.region_keys.ids.len(),
                m.states.len()
            );
        }
        assert!(m.states.len() < STATE_CACHE_CAP, "the cache was never trimmed");
        check(&m);
    }
}

//! Incremental maintenance of `top(I)` under region edits.
//!
//! [`MaintainedInvariant`] owns a spatial instance's regions and keeps its
//! [`TopologicalInvariant`] (and cached canonical form) up to date across
//! [`insert_region`](MaintainedInvariant::insert_region) /
//! [`remove_region`](MaintainedInvariant::remove_region) edits without
//! rebuilding the world. The repair discipline:
//!
//! 1. **Feature interning.** The instance's primitive features (one polygon
//!    ring, polyline or isolated point each) are interned by content —
//!    `(region, kind, points)` — to small integer keys, each stored with its
//!    bounding box, so a group's feature multiset is a sorted key list. Keys
//!    that no cached group and no current feature refers to are dropped
//!    whenever the group cache is trimmed.
//! 2. **Hull-disjoint grouping.** The features are partitioned into groups by
//!    closing feature-bounding-box overlap under union: the fixpoint
//!    guarantees distinct groups have disjoint closed hulls. Disjoint hulls
//!    mean no cross-group segment intersections, and — because every bounded
//!    face and every region's 2-D part lies inside its group's hull — no
//!    cross-group nesting or parity effects either: the full invariant is the
//!    disjoint union of the group invariants glued into one exterior face.
//!    (Mere feature-bbox overlap is *not* enough: a courtyard ring nests a
//!    distant-looking feature whose own box it contains, which is exactly what
//!    the union fixpoint catches.)
//! 3. **Group-level memoisation.** Each group's invariant is built by the
//!    cold pipeline — [`crate::top`] over the group's sub-instance — and
//!    cached, with its per-orientation canonical subtree forms, by the group's
//!    feature multiset. An edit dirties only the groups whose feature set
//!    changed; every untouched group is reused wholesale — including its
//!    memoised canonical tokens, so the `OnceLock`-cached codes of untouched
//!    components effectively survive the edit and the colour-refinement start
//!    filter reruns only inside dirty groups. How segments are split into an
//!    arrangement is decided in `topo-arrangement` alone.
//! 4. **Merge, don't recanonicalise.** The maintained invariant is assembled
//!    by concatenating the groups' [`InvariantParts`] (one shared exterior
//!    face) and the canonical form by merging the groups' subtree forms
//!    (component codes are intrinsic — see `canonical::refine_colours` — so
//!    the sorted join over all groups equals the cold sweep's top-level
//!    join). The merged form is primed into the invariant's cache, so
//!    `canonical_code` / `code_hash` never run a global sweep.
//!
//! Correctness is pinned by `tests/incremental_equivalence.rs`: after every
//! edit of randomised sequences the maintained state is bit-identical (cell
//! counts, canonical code, `CodeHash`, store answers) to a cold rebuild, and
//! at small scales to the frozen `naive-reference` oracle.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use topo_geometry::{BBox, Point};
use topo_spatial::{Region, RegionId, Schema, SpatialInstance};

use crate::canonical::{self, CanonicalForm, CellRef, SubtreeForm};
use crate::complex::RegionSet;
use crate::invariant::{CellKind, TopologicalInvariant};
use crate::InvariantParts;

/// Cache-effectiveness counters of a [`MaintainedInvariant`] — the test and
/// bench observables behind the incremental claim.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintainStats {
    /// Region edits applied (each insert or remove counts once).
    pub edits: u64,
    /// Group invariants rebuilt because their feature multiset was new.
    pub group_builds: u64,
    /// Group invariants served from the group cache.
    pub group_reuses: u64,
    /// Always 0: dirty groups are built by [`crate::top`], which keeps no
    /// per-pair cache. Kept so existing readers of the counter still build.
    pub pair_computes: u64,
    /// Always 0, for the same reason as [`pair_computes`](Self::pair_computes).
    pub pair_reuses: u64,
}

/// Feature kinds, in the order [`SpatialInstance::to_arrangement_input`]
/// emits them within one region.
const KIND_RING: u8 = 0;
const KIND_POLYLINE: u8 = 1;
const KIND_POINT: u8 = 2;

/// One primitive feature of the current instance.
struct Feature {
    /// Interned content key.
    key: u32,
    region: RegionId,
    kind: u8,
    /// Index within the region's rings / polylines / points list.
    index: usize,
    bbox: BBox,
}

/// A cached group: its invariant plus the per-orientation top-level subtree
/// forms of its canonical sweep.
struct GroupState {
    invariant: TopologicalInvariant,
    /// `[counterclockwise, clockwise]` subtree forms, group-local cell ids.
    forms: [Vec<SubtreeForm>; 2],
}

/// Interning key of one feature's content: `(region, kind, points)`.
type ContentId = (RegionId, u8, Vec<Point>);

const GROUP_CACHE_CAP: usize = 4096;

/// A spatial instance maintained under region edits, with its invariant and
/// canonical form repaired incrementally (see the [module docs](self)).
pub struct MaintainedInvariant {
    schema: Schema,
    regions: Vec<Region>,
    /// Feature content interning: `(region, kind, points) → (key, bbox)`.
    key_ids: HashMap<ContentId, (u32, BBox)>,
    /// The key the next never-seen content receives.
    next_key: u32,
    /// Group cache: sorted feature-key multiset → built group state, stamped
    /// with the edit counter at its last use.
    groups: HashMap<Vec<u32>, (u64, Arc<GroupState>)>,
    invariant: Arc<TopologicalInvariant>,
    stats: MaintainStats,
}

impl MaintainedInvariant {
    /// An empty maintained instance over a schema.
    pub fn new(schema: Schema) -> Self {
        let regions = vec![Region::new(); schema.len()];
        let mut maintained = MaintainedInvariant {
            schema,
            regions,
            key_ids: HashMap::new(),
            next_key: 0,
            groups: HashMap::new(),
            // Placeholder; `rebuild` installs the real (empty) invariant.
            invariant: Arc::new(crate::top(&SpatialInstance::new(Schema::new()))),
            stats: MaintainStats::default(),
        };
        maintained.rebuild();
        maintained.stats = MaintainStats::default();
        maintained
    }

    /// Adopts an existing instance (counts as zero edits; the initial build
    /// populates the caches).
    pub fn from_instance(instance: &SpatialInstance) -> Self {
        let mut maintained = Self::new(instance.schema().clone());
        for (id, region) in instance.iter() {
            maintained.regions[id] = region.clone();
        }
        maintained.rebuild();
        maintained.stats = MaintainStats::default();
        maintained
    }

    /// The schema the instance is maintained over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The current region assigned to `id`.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id]
    }

    /// A snapshot of the current instance (for differential testing against
    /// a cold rebuild).
    pub fn instance(&self) -> SpatialInstance {
        let mut instance = SpatialInstance::new(self.schema.clone());
        for (id, region) in self.regions.iter().enumerate() {
            instance.set_region(id, region.clone());
        }
        instance
    }

    /// The maintained invariant. Its canonical form cache is primed, so
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
        assert!(id < self.schema.len(), "region id {id} outside schema");
        self.regions[id] = region;
        self.stats.edits += 1;
        self.rebuild();
    }

    /// Removes the region assigned to `id` (leaves it empty) and repairs the
    /// invariant.
    ///
    /// # Panics
    /// Panics if `id` is not a region of the schema.
    pub fn remove_region(&mut self, id: RegionId) {
        assert!(id < self.schema.len(), "region id {id} outside schema");
        self.regions[id] = Region::new();
        self.stats.edits += 1;
        self.rebuild();
    }

    // ----- repair pipeline ---------------------------------------------------

    /// Re-derives the invariant from the current regions through the group
    /// cache.
    fn rebuild(&mut self) {
        let features = self.collect_features();
        let grouping = group_by_hull(&features);
        let stamp = self.stats.edits;

        let mut states: Vec<Arc<GroupState>> = Vec::with_capacity(grouping.len());
        for members in &grouping {
            let mut key: Vec<u32> = members.iter().map(|&f| features[f].key).collect();
            key.sort_unstable();
            if let Some((used, state)) = self.groups.get_mut(&key) {
                *used = stamp;
                self.stats.group_reuses += 1;
                states.push(state.clone());
                continue;
            }
            let state = Arc::new(self.build_group(&features, members));
            self.stats.group_builds += 1;
            self.groups.insert(key, (stamp, state.clone()));
            states.push(state);
        }

        self.invariant = Arc::new(merge_groups(&self.schema, &states));
        self.evict(&features, stamp);
    }

    /// Collects the current features in the order
    /// [`SpatialInstance::to_arrangement_input`] walks them (region
    /// ascending; rings, then polylines, then points), interning content.
    fn collect_features(&mut self) -> Vec<Feature> {
        let mut features = Vec::new();
        for region in 0..self.regions.len() {
            for index in 0..self.regions[region].rings.len() {
                let points = self.regions[region].rings[index].clone();
                features.push(self.intern(region, KIND_RING, index, points));
            }
            for index in 0..self.regions[region].polylines.len() {
                let points = self.regions[region].polylines[index].clone();
                features.push(self.intern(region, KIND_POLYLINE, index, points));
            }
            for index in 0..self.regions[region].points.len() {
                let points = vec![self.regions[region].points[index]];
                features.push(self.intern(region, KIND_POINT, index, points));
            }
        }
        features
    }

    /// The feature at `index` of `region`'s `kind` list, with its content
    /// interned (never-seen content gets the next key and its bbox).
    fn intern(&mut self, region: RegionId, kind: u8, index: usize, points: Vec<Point>) -> Feature {
        let next_key = &mut self.next_key;
        let (key, bbox) =
            *self.key_ids.entry((region, kind, points)).or_insert_with_key(|content| {
                let key = *next_key;
                *next_key = key
                    .checked_add(1)
                    .expect("fewer than 2^32 distinct feature contents per maintainer");
                (key, BBox::from_points(&content.2))
            });
        Feature { key, region, kind, index, bbox }
    }

    /// Builds one dirty group with the cold pipeline: `top` over the group's
    /// sub-instance, then the per-orientation canonical sweep.
    fn build_group(&self, features: &[Feature], members: &[usize]) -> GroupState {
        // The group instance over the full schema (region ids and RegionSet
        // widths line up with the whole instance's).
        let mut instance = SpatialInstance::new(self.schema.clone());
        for &f in members {
            let Feature { region, kind, index, .. } = features[f];
            let source = &self.regions[region];
            let target = instance.region_mut(region);
            match kind {
                KIND_RING => target.rings.push(source.rings[index].clone()),
                KIND_POLYLINE => target.polylines.push(source.polylines[index].clone()),
                _ => target.points.push(source.points[index]),
            }
        }
        let invariant = crate::top(&instance);
        let forms = canonical::oriented_top_forms(&invariant);
        GroupState { invariant, forms }
    }

    /// Bounds the group cache: when it overflows its cap, the groups untouched
    /// longest are dropped (down to half the cap, so eviction is amortised),
    /// and with them every interned key that neither a surviving group nor a
    /// current feature refers to.
    fn evict(&mut self, features: &[Feature], stamp: u64) {
        if self.groups.len() <= GROUP_CACHE_CAP {
            return;
        }
        let mut stamps: Vec<u64> = self.groups.values().map(|(used, _)| *used).collect();
        stamps.sort_unstable();
        let cutoff = stamps[stamps.len() - GROUP_CACHE_CAP / 2].min(stamp);
        self.groups.retain(|_, (used, _)| *used >= cutoff);
        let live: HashSet<u32> =
            self.groups.keys().flatten().chain(features.iter().map(|f| &f.key)).copied().collect();
        self.key_ids.retain(|_, (key, _)| live.contains(key));
    }
}

/// Partitions features into groups whose closed hulls (union bounding boxes)
/// are pairwise disjoint: starts from singletons and merges any two groups
/// whose hulls touch, to fixpoint. Each group's member list stays in feature
/// order (ascending indices).
fn group_by_hull(features: &[Feature]) -> Vec<Vec<usize>> {
    let mut groups: Vec<(BBox, Vec<usize>)> =
        features.iter().enumerate().map(|(i, f)| (f.bbox, vec![i])).collect();
    loop {
        let mut out: Vec<(BBox, Vec<usize>)> = Vec::with_capacity(groups.len());
        let mut merged_any = false;
        'next: for (bbox, members) in groups {
            for (obox, omembers) in out.iter_mut() {
                if obox.intersects(&bbox) {
                    *obox = obox.union(&bbox);
                    omembers.extend(members);
                    merged_any = true;
                    continue 'next;
                }
            }
            out.push((bbox, members));
        }
        groups = out;
        if !merged_any {
            break;
        }
    }
    let mut result: Vec<Vec<usize>> = groups
        .into_iter()
        .map(|(_, mut members)| {
            members.sort_unstable();
            members
        })
        .collect();
    // Deterministic group order: by smallest member feature.
    result.sort_unstable_by_key(|members| members[0]);
    result
}

/// Assembles the whole-instance invariant from hull-disjoint group states:
/// concatenates the parts (one shared exterior face, placed last) and merges
/// the canonical subtree forms, priming the result's canonical cache.
fn merge_groups(schema: &Schema, groups: &[Arc<GroupState>]) -> TopologicalInvariant {
    let total_faces: usize = groups.iter().map(|g| g.invariant.face_count() - 1).sum();
    let exterior = total_faces;

    let mut parts = InvariantParts {
        schema: schema.clone(),
        vertex_slots: Vec::new(),
        vertex_sectors: Vec::new(),
        vertex_isolated_face: Vec::new(),
        vertex_regions: Vec::new(),
        vertex_boundary: Vec::new(),
        edge_ends: Vec::new(),
        edge_sides: Vec::new(),
        edge_regions: Vec::new(),
        edge_boundary: Vec::new(),
        face_regions: Vec::new(),
        exterior_face: exterior,
    };
    let mut ccw: Vec<SubtreeForm> = Vec::new();
    let mut cw: Vec<SubtreeForm> = Vec::new();

    for group in groups {
        let g = group.invariant.parts_ref();
        let voff = parts.vertex_slots.len();
        let eoff = parts.edge_ends.len();
        let foff = parts.face_regions.len();
        // Face map: skip the group's exterior (merged into the shared one),
        // keep every other face in order.
        let mut face_map: Vec<usize> = Vec::with_capacity(g.face_regions.len());
        let mut next_face = foff;
        for f in 0..g.face_regions.len() {
            if f == g.exterior_face {
                face_map.push(exterior);
            } else {
                face_map.push(next_face);
                next_face += 1;
            }
        }

        for slots in g.vertex_slots {
            parts.vertex_slots.push(slots.iter().map(|&(e, end)| (e + eoff, end)).collect());
        }
        for sectors in g.vertex_sectors {
            parts.vertex_sectors.push(sectors.iter().map(|&f| face_map[f]).collect());
        }
        for isolated in g.vertex_isolated_face {
            parts.vertex_isolated_face.push(isolated.map(|f| face_map[f]));
        }
        parts.vertex_regions.extend(g.vertex_regions.iter().cloned());
        parts.vertex_boundary.extend(g.vertex_boundary.iter().cloned());
        for ends in g.edge_ends {
            parts.edge_ends.push(ends.map(|(a, b)| (a + voff, b + voff)));
        }
        for &(l, r) in g.edge_sides {
            parts.edge_sides.push((face_map[l], face_map[r]));
        }
        parts.edge_regions.extend(g.edge_regions.iter().cloned());
        parts.edge_boundary.extend(g.edge_boundary.iter().cloned());
        for (f, regions) in g.face_regions.iter().enumerate() {
            if f != g.exterior_face {
                debug_assert_eq!(face_map[f], parts.face_regions.len());
                parts.face_regions.push(regions.clone());
            }
        }

        let remap = |form: &SubtreeForm| -> SubtreeForm {
            let order: Vec<CellRef> = form
                .order
                .iter()
                .map(|&(kind, id)| match kind {
                    CellKind::Vertex => (kind, id + voff),
                    CellKind::Edge => (kind, id + eoff),
                    CellKind::Face => (kind, face_map[id]),
                })
                .collect();
            SubtreeForm { tokens: form.tokens.clone(), order }
        };
        ccw.extend(group.forms[0].iter().map(remap));
        cw.extend(group.forms[1].iter().map(remap));
    }
    // The shared exterior face, last, contained in no region (every group's
    // own exterior classified to the same empty set).
    parts.face_regions.push(RegionSet::new(schema.len()));

    let schema_names: Vec<String> = schema.iter().map(|(_, name)| name.to_string()).collect();
    let form: CanonicalForm = canonical::merge_top_forms(schema_names, exterior, ccw, cw);
    let invariant = TopologicalInvariant::from_parts(parts)
        .expect("merged hull-disjoint group parts are structurally valid");
    invariant.prime_canonical(form);
    invariant
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
        // Disjoint rectangle: its own group.
        m.insert_region(0, Region::rectangle(0, 0, 10, 10));
        check(&m);
        // Overlapping rectangle: merges groups, creates intersections.
        m.insert_region(1, Region::rectangle(5, 5, 15, 15));
        check(&m);
        // A far-away region with a polyline and a point.
        let mut r = Region::rectangle(100, 100, 120, 120);
        r.add_polyline(vec![Point::from_ints(90, 90), Point::from_ints(130, 130)]);
        r.add_point(Point::from_ints(110, 110));
        m.insert_region(2, r);
        check(&m);
        // Remove the middle region: group split.
        m.remove_region(1);
        check(&m);
        // Re-insert it: group-cache hit.
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
        // A courtyard: outer ring contains a distant inner ring whose own
        // bbox it strictly contains — the hull fixpoint must group them.
        let mut m = MaintainedInvariant::new(schema(&["outer", "inner"]));
        m.insert_region(0, Region::rectangle(0, 0, 100, 100));
        m.insert_region(1, Region::rectangle(40, 40, 60, 60));
        check(&m);
        // One skeleton component tree with the inner ring nested in the outer.
        assert_eq!(m.invariant().face_count(), 3);
    }

    #[test]
    fn interning_table_stays_bounded_under_fresh_geometry() {
        // Every edit inserts never-seen geometry, so every edit mints a key
        // and a group; past the group cache's cap, keys of evicted groups
        // must go with them.
        let mut m = MaintainedInvariant::new(schema(&["a", "b"]));
        m.insert_region(1, Region::rectangle(-10, -10, -5, -5));
        for i in 0..GROUP_CACHE_CAP as i64 + 100 {
            m.insert_region(0, Region::rectangle(i, 0, i + 1, 1));
            let cached: usize = m.groups.keys().map(Vec::len).sum();
            assert!(
                m.key_ids.len() <= m.collect_features().len() + cached,
                "edit {i}: {} interned keys, {cached} in cached groups",
                m.key_ids.len()
            );
        }
        assert!(m.groups.len() <= GROUP_CACHE_CAP);
        check(&m);
    }
}

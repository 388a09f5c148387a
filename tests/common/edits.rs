//! Reusable proptest strategies for **region edit sequences** — the random
//! inputs of the incremental-maintenance differential harness
//! (`tests/incremental_equivalence.rs`). They live next to the template
//! strategies of `tests/properties.rs` / `tests/canonical_equivalence.rs`
//! and follow the same lattice discipline: coordinates on a coarse grid so
//! overlaps, shared boundaries and nesting all occur with real probability.
//!
//! Geometry is grouped into up to three *islands* (clusters 3 000 apart):
//! edits that add or drop a multi-island region, or a deliberately wide
//! *bridge* rectangle spanning two islands, split and merge components,
//! not just redraw one.

use proptest::prelude::*;
use topo_core::{Region, SpatialInstance};
use topo_geometry::Point;

/// Number of regions in the edit-sequence schema (named A, B, C).
pub const EDIT_REGIONS: usize = 3;

/// One step of an edit sequence: replace a region's geometry wholesale or
/// clear it. Removing an already-empty region and re-inserting identical
/// geometry are both legal (and deliberately generated) steps.
#[derive(Clone, Debug)]
pub enum Edit {
    Insert(usize, Region),
    Remove(usize),
}

impl Edit {
    /// The region id this edit touches.
    pub fn region(&self) -> usize {
        match self {
            Edit::Insert(id, _) => *id,
            Edit::Remove(id) => *id,
        }
    }

    /// Applies the edit to a plain region vector — the cold-rebuild mirror
    /// of the maintained state.
    pub fn apply_to(&self, regions: &mut [Region]) {
        match self {
            Edit::Insert(id, region) => regions[*id] = region.clone(),
            Edit::Remove(id) => regions[*id] = Region::new(),
        }
    }
}

/// The empty starting state every edit sequence begins from.
pub fn empty_edit_regions() -> Vec<Region> {
    vec![Region::new(); EDIT_REGIONS]
}

/// Assembles a `SpatialInstance` over the fixed A/B/C schema from the
/// mirror vector.
pub fn edit_instance(regions: &[Region]) -> SpatialInstance {
    SpatialInstance::from_regions([
        ("A", regions[0].clone()),
        ("B", regions[1].clone()),
        ("C", regions[2].clone()),
    ])
}

/// Horizontal island pitch: far enough that closed bounding boxes of
/// different islands can never touch, so islands share no component.
const ISLAND_PITCH: i64 = 3_000;

/// Strategy: one region made of 1–3 lattice rectangles (each on one of
/// three islands, or a wide *bridge* spanning islands 0–1), an optional
/// polyline and up to two isolated points. Per-component offsets keep same-
/// region boundaries from being collinear-coincident, as in the template
/// strategies.
pub fn edit_region() -> impl Strategy<Value = Region> {
    let rect = (0i64..5, 0i64..5, 1i64..4, 1i64..4, 0usize..4).prop_map(|(x, y, w, h, island)| {
        if island == 3 {
            // A bridge: spans islands 0 and 1, merging their components.
            (x * 100, y * 100, ISLAND_PITCH + x * 100 + w * 70, y * 100 + h * 70)
        } else {
            let dx = island as i64 * ISLAND_PITCH;
            (dx + x * 100, y * 100, dx + x * 100 + w * 70, y * 100 + h * 70)
        }
    });
    let rects = proptest::collection::vec(rect, 1..4);
    let polyline = (0i64..5, 0i64..5, 0usize..3, 0u8..2);
    let points = proptest::collection::vec((0i64..40, 0i64..40, 0usize..3), 0..3);
    (rects, polyline, points).prop_map(|(rects, polyline, points)| {
        let mut region = Region::new();
        for (i, (x0, y0, x1, y1)) in rects.into_iter().enumerate() {
            let (dx, dy) = (7 * i as i64, 11 * i as i64);
            region.add_ring(vec![
                Point::from_ints(x0 + dx, y0 + dy),
                Point::from_ints(x1 + dx, y0 + dy),
                Point::from_ints(x1 + dx, y1 + dy),
                Point::from_ints(x0 + dx, y1 + dy),
            ]);
        }
        let (px, py, island, keep) = polyline;
        if keep == 1 {
            let dx = island as i64 * ISLAND_PITCH;
            region.add_polyline(vec![
                Point::from_ints(dx + px * 100 - 30, py * 100),
                Point::from_ints(dx + px * 100 + 90, py * 100 + 50),
                Point::from_ints(dx + px * 100 + 90, py * 100 - 60),
            ]);
        }
        for (x, y, island) in points {
            let dx = island as i64 * ISLAND_PITCH;
            region.add_point(Point::from_ints(dx + x * 17 + 3, y * 13 + 1));
        }
        region
    })
}

/// Strategy: one edit — a removal with probability 1/5, otherwise a fresh
/// insert of random geometry, on a random region of the fixed schema.
pub fn edit() -> impl Strategy<Value = Edit> {
    (0usize..EDIT_REGIONS, 0u8..5, edit_region()).prop_map(|(id, op, region)| {
        if op == 0 {
            Edit::Remove(id)
        } else {
            Edit::Insert(id, region)
        }
    })
}

/// Strategy: a whole edit sequence of `min..max` steps.
pub fn edit_sequence(min: usize, max: usize) -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec(edit(), min..max)
}

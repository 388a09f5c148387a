//! Flat CSR uniform lattice over `f64` bounding boxes.
//!
//! The shared pruning substrate behind [`crate::SegmentGrid`] and the
//! arrangement's cycle-nesting index: boxes are registered in every cell of a
//! uniform lattice they overlap, stored in CSR (compressed-sparse-row) form —
//! one offsets array plus one entries array — so construction performs a
//! fixed number of vector allocations and queries touch contiguous slices.
//! The lattice is conservative by construction (a box is found from any cell
//! it overlaps) and purely approximate: callers always re-check candidates
//! with exact predicates.

/// An axis-aligned box in `f64`, as `(min_x, min_y, max_x, max_y)`.
pub type F64Box = (f64, f64, f64, f64);

/// A uniform cell lattice over a fixed set of boxes, in CSR form.
pub struct BoxLattice {
    cell_size: f64,
    min_x: f64,
    min_y: f64,
    nx: i64,
    ny: i64,
    /// CSR offsets: boxes of cell `c` are
    /// `entries[cell_start[c] .. cell_start[c + 1]]`.
    cell_start: Vec<u32>,
    entries: Vec<u32>,
    /// Ids of non-empty cells, so iteration skips the empty bulk of sparse
    /// lattices.
    occupied: Vec<u32>,
}

impl BoxLattice {
    /// Builds a lattice over `boxes`, sizing cells near the average box
    /// extent, clamped to at most `max_side` cells per side *and* to a total
    /// cell count of `max(4096, 4 × boxes.len())` — so pathological inputs
    /// (a handful of tiny boxes spread very far apart) cannot force a huge
    /// allocation or scan.
    pub fn build(boxes: &[F64Box], max_side: i64) -> Self {
        let mut min_x = f64::INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        let mut total_extent = 0.0f64;
        for &(x0, y0, x1, y1) in boxes {
            min_x = min_x.min(x0);
            min_y = min_y.min(y0);
            max_x = max_x.max(x1);
            max_y = max_y.max(y1);
            total_extent += (x1 - x0).max(y1 - y0);
        }
        if boxes.is_empty() {
            return BoxLattice {
                cell_size: 1.0,
                min_x: 0.0,
                min_y: 0.0,
                nx: 1,
                ny: 1,
                cell_start: vec![0, 0],
                entries: Vec::new(),
                occupied: Vec::new(),
            };
        }
        let avg_extent = (total_extent / boxes.len() as f64).max(1e-9);
        let span = (max_x - min_x).max(max_y - min_y).max(1e-9);
        // Cells roughly the size of an average box, clamped per side...
        let mut cell_size = avg_extent.max(span / max_side as f64);
        // ...and re-clamped so the *total* cell count stays linear in the
        // number of boxes.
        let max_cells = (4 * boxes.len()).max(4096) as f64;
        let sides = |cell: f64| {
            let nx = ((max_x - min_x) / cell).floor() as i64 + 1;
            let ny = ((max_y - min_y) / cell).floor() as i64 + 1;
            (nx.max(1), ny.max(1))
        };
        let (mut nx, mut ny) = sides(cell_size);
        if (nx * ny) as f64 > max_cells {
            cell_size *= ((nx * ny) as f64 / max_cells).sqrt();
            (nx, ny) = sides(cell_size);
        }
        let mut lattice = BoxLattice {
            cell_size,
            min_x,
            min_y,
            nx,
            ny,
            cell_start: vec![0u32; (nx * ny) as usize + 1],
            entries: Vec::new(),
            occupied: Vec::new(),
        };
        // Two-pass CSR fill: count each box's cell span, prefix-sum the
        // counts into offsets, then place the entries. No per-cell vectors.
        for b in boxes {
            let (cx0, cy0, cx1, cy1) = lattice.cell_range(*b);
            for cy in cy0..=cy1 {
                for cx in cx0..=cx1 {
                    let c = (cy * nx + cx) as usize;
                    if lattice.cell_start[c + 1] == 0 {
                        lattice.occupied.push(c as u32);
                    }
                    lattice.cell_start[c + 1] += 1;
                }
            }
        }
        for i in 1..lattice.cell_start.len() {
            lattice.cell_start[i] += lattice.cell_start[i - 1];
        }
        lattice.entries = vec![0u32; *lattice.cell_start.last().unwrap() as usize];
        // `cursor[c]` walks from the start of cell `c`'s slice to its end.
        let mut cursor: Vec<u32> = lattice.cell_start[..lattice.cell_start.len() - 1].to_vec();
        for (i, b) in boxes.iter().enumerate() {
            let (cx0, cy0, cx1, cy1) = lattice.cell_range(*b);
            for cy in cy0..=cy1 {
                for cx in cx0..=cx1 {
                    let c = (cy * nx + cx) as usize;
                    lattice.entries[cursor[c] as usize] = i as u32;
                    cursor[c] += 1;
                }
            }
        }
        lattice.occupied.sort_unstable();
        lattice
    }

    /// True iff no box was registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cell-index range covered by a box, clamped to the lattice bounds so
    /// queries far outside the data never walk an unbounded range.
    fn cell_range(&self, (x0, y0, x1, y1): F64Box) -> (i64, i64, i64, i64) {
        let cx = |v: f64| cell_index((v - self.min_x) / self.cell_size, self.nx);
        let cy = |v: f64| cell_index((v - self.min_y) / self.cell_size, self.ny);
        (cx(x0), cy(y0), cx(x1), cy(y1))
    }

    fn bucket(&self, cell: usize) -> &[u32] {
        &self.entries[self.cell_start[cell] as usize..self.cell_start[cell + 1] as usize]
    }

    /// The lowest cell `(cx, cy)` a box covers: the bottom-left corner of
    /// its clamped cell range.
    pub fn low_cell(&self, b: F64Box) -> (i64, i64) {
        let (cx, cy, _, _) = self.cell_range(b);
        (cx, cy)
    }

    /// The non-empty cells in ascending id order, each as its coordinates
    /// `(cx, cy)` and its bucket: the indices of the boxes registered there,
    /// ascending.
    pub fn occupied_cells(&self) -> impl Iterator<Item = ((i64, i64), &[u32])> + '_ {
        self.occupied.iter().map(|&c| {
            let c = i64::from(c);
            ((c % self.nx, c / self.nx), self.bucket(c as usize))
        })
    }

    /// Calls `f` for every box index registered in a cell overlapping
    /// `query` (indices may repeat across cells).
    pub fn for_each_in_range(&self, query: F64Box, mut f: impl FnMut(u32)) {
        if self.is_empty() {
            return;
        }
        let (cx0, cy0, cx1, cy1) = self.cell_range(query);
        for cy in cy0..=cy1 {
            for cx in cx0..=cx1 {
                for &i in self.bucket((cy * self.nx + cx) as usize) {
                    f(i);
                }
            }
        }
    }

    /// The bucket of the cell containing `(x, y)` (clamped to the lattice,
    /// so out-of-range points land on the nearest border cell — conservative
    /// for boxes registered up to the border).
    pub fn point_bucket(&self, x: f64, y: f64) -> &[u32] {
        if self.is_empty() {
            return &[];
        }
        let (cx, cy, _, _) = self.cell_range((x, y, x, y));
        self.bucket((cy * self.nx + cx) as usize)
    }
}

/// The cell index of a lattice coordinate `t`, clamped to `0..n`.
///
/// A truncating cast replaces `f64::floor` (a libm call on baseline x86-64)
/// with the same result after the clamp: the two differ only on negative
/// non-integers, which both clamp to 0, and the saturating cast maps NaN to
/// 0 and ±∞ to the `i64` limits either way.
fn cell_index(t: f64, n: i64) -> i64 {
    (t as i64).clamp(0, n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_index_matches_the_floor_formula() {
        let two53 = 9_007_199_254_740_992.0f64;
        let probes = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            -1.0,
            -1.5,
            3.999_999,
            4.0,
            1e300,
            -1e300,
            two53 - 1.0,
            two53 + 2.0,
            -two53 - 2.0,
            i64::MAX as f64,
            i64::MIN as f64,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
        ];
        for n in [1, 7, 2048] {
            for t in probes {
                assert_eq!(cell_index(t, n), (t.floor() as i64).clamp(0, n - 1), "{t} in {n}");
            }
        }
    }

    fn unit_box(x: f64, y: f64) -> F64Box {
        (x, y, x + 1.0, y + 1.0)
    }

    #[test]
    fn empty_lattice() {
        let lattice = BoxLattice::build(&[], 64);
        assert!(lattice.is_empty());
        assert_eq!(lattice.occupied_cells().count(), 0);
        assert!(lattice.point_bucket(3.0, 4.0).is_empty());
    }

    #[test]
    fn range_queries_find_all_overlapping_boxes() {
        let boxes: Vec<F64Box> = (0..10)
            .flat_map(|i| (0..10).map(move |j| unit_box(i as f64 * 5.0, j as f64 * 5.0)))
            .collect();
        let lattice = BoxLattice::build(&boxes, 64);
        let query = (4.5, 4.5, 10.5, 10.5);
        let mut found = Vec::new();
        lattice.for_each_in_range(query, |i| found.push(i as usize));
        found.sort_unstable();
        found.dedup();
        for (i, b) in boxes.iter().enumerate() {
            let overlaps = b.0 <= query.2 && query.0 <= b.2 && b.1 <= query.3 && query.1 <= b.3;
            if overlaps {
                assert!(found.contains(&i), "missed box {i}");
            }
        }
    }

    #[test]
    fn sparse_far_apart_boxes_stay_small() {
        // Two tiny boxes a billion units apart: the total-cell clamp must
        // keep the lattice allocation linear, and occupied iteration must
        // only visit two buckets.
        let boxes = vec![unit_box(0.0, 0.0), unit_box(1e9, 1e9)];
        let lattice = BoxLattice::build(&boxes, 2048);
        assert!(
            lattice.cell_start.len() <= 4097,
            "lattice not clamped: {}",
            lattice.cell_start.len()
        );
        assert_eq!(lattice.occupied_cells().count(), 2);
        assert_eq!(lattice.point_bucket(0.5, 0.5), &[0]);
        assert_eq!(lattice.point_bucket(1e9 + 0.5, 1e9 + 0.5), &[1]);
    }

    #[test]
    fn occupied_cell_coordinates_round_trip_through_low_cell() {
        let boxes: Vec<F64Box> = (0..12)
            .map(|i| {
                let (x, y) = ((i * 7 % 11) as f64 * 3.0, (i * 5 % 13) as f64 * 2.0);
                (x, y, x + (i % 4) as f64 * 4.0 + 0.5, y + (i % 3) as f64 * 5.0 + 0.5)
            })
            .collect();
        let lattice = BoxLattice::build(&boxes, 64);
        let cells: Vec<((i64, i64), &[u32])> = lattice.occupied_cells().collect();
        assert!(cells.len() > 1);
        for &((cx, cy), bucket) in &cells {
            assert!(!bucket.is_empty());
            assert!(bucket.windows(2).all(|w| w[0] < w[1]), "bucket not ascending");
            // The centre of the cell maps back to the same coordinates.
            let x = lattice.min_x + (cx as f64 + 0.5) * lattice.cell_size;
            let y = lattice.min_y + (cy as f64 + 0.5) * lattice.cell_size;
            assert_eq!(lattice.low_cell((x, y, x, y)), (cx, cy));
        }
        // Every box is registered in its own lowest cell.
        for (i, b) in boxes.iter().enumerate() {
            let low = lattice.low_cell(*b);
            let (_, bucket) = cells.iter().find(|(c, _)| *c == low).expect("low cell occupied");
            assert!(bucket.contains(&(i as u32)), "box {i} missing from its low cell");
        }
    }

    #[test]
    fn point_bucket_clamps_out_of_range_probes() {
        let boxes = vec![unit_box(0.0, 0.0)];
        let lattice = BoxLattice::build(&boxes, 64);
        // Far outside: clamped to the border cell, which holds the box.
        assert_eq!(lattice.point_bucket(1e12, -1e12), &[0]);
    }
}

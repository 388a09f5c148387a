//! Input-endpoint ids: the distinct endpoints of an arrangement input,
//! interned once per build.
//!
//! Every id-based step of the builder reads this index: the segment grid
//! skips pairs that share an id, duplicate segments (the same two ids) merge
//! before any geometry runs, and phase 2 maps split points to vertices
//! through it, hashing only true crossing points.
//!
//! Interning sorts; it never hashes coordinates. Endpoints whose coordinates
//! are both `i64` integers (nearly all cartographic input) sort on packed
//! `(x, y)` keys, and the rest (dyadic and other fractions) sort in `Point`
//! order. The two classes never hold equal points, so each is searched on
//! its own and ids of the second class follow those of the first.

use crate::ArrangementInput;
use topo_geometry::Point;

/// The packed `(x, y)` key of a point whose coordinates are both `i64`
/// integers: each coordinate biased to unsigned, `x` in the high half, so
/// key order is `Point` order.
fn int_key(p: &Point) -> Option<u128> {
    let x = i64::try_from(p.x.as_integer()?).ok()?;
    let y = i64::try_from(p.y.as_integer()?).ok()?;
    let bias = |v: i64| u128::from((v as u64) ^ (1 << 63));
    Some((bias(x) << 64) | bias(y))
}

/// The distinct input endpoints, each segment's endpoint ids and each
/// segment's representative among its exact duplicates.
pub(crate) struct Endpoints {
    /// Packed keys of the distinct integer endpoints, ascending; id =
    /// position.
    ints: Vec<u128>,
    /// Distinct other endpoints, ascending; id = `ints.len()` + position.
    others: Vec<Point>,
    /// `ends[i]`: the ids of `input.segments[i]`'s endpoints `[a, b]`.
    pub(crate) ends: Vec<[u32; 2]>,
    /// `rep[i]`: the first segment with the same two endpoint ids as
    /// segment `i`, in either order (`i` itself when there is none).
    pub(crate) rep: Vec<usize>,
    /// CSR offsets into `incident`, one range per endpoint id.
    start: Vec<u32>,
    /// Endpoint slots grouped by endpoint id ([`Endpoints::incident`]).
    incident: Vec<u32>,
}

impl Endpoints {
    pub(crate) fn new(input: &ArrangementInput) -> Self {
        let segments = &input.segments;
        let n = segments.len();
        // One slot per endpoint: `2i` is segment i's `a`, `2i + 1` its `b`.
        // A chain (ring or polyline) starts each segment where the previous
        // one ends; such an `a` takes the previous `b`'s id, unsorted.
        let chained = |i: usize| i > 0 && segments[i].0.a == segments[i - 1].0.b;
        let mut ints: Vec<(u128, u32)> = Vec::with_capacity(2 * n);
        let mut others: Vec<(Point, u32)> = Vec::new();
        for (i, (s, _)) in segments.iter().enumerate() {
            for (k, p) in [s.a, s.b].into_iter().enumerate() {
                if k == 0 && chained(i) {
                    continue;
                }
                let slot = (2 * i + k) as u32;
                match int_key(&p) {
                    Some(key) => ints.push((key, slot)),
                    None => others.push((p, slot)),
                }
            }
        }
        ints.sort_unstable_by_key(|&(key, _)| key);
        others.sort_unstable_by_key(|&(p, _)| p);
        let mut ends = vec![[0u32; 2]; n];
        let mut distinct_ints = Vec::new();
        for (k, &(key, slot)) in ints.iter().enumerate() {
            if k == 0 || ints[k - 1].0 != key {
                distinct_ints.push(key);
            }
            ends[slot as usize / 2][slot as usize % 2] = (distinct_ints.len() - 1) as u32;
        }
        let mut distinct_others = Vec::new();
        for (k, &(p, slot)) in others.iter().enumerate() {
            if k == 0 || others[k - 1].0 != p {
                distinct_others.push(p);
            }
            let id = (distinct_ints.len() + distinct_others.len() - 1) as u32;
            ends[slot as usize / 2][slot as usize % 2] = id;
        }
        for i in 1..n {
            if chained(i) {
                ends[i][0] = ends[i - 1][1];
            }
        }
        // Slots incident to each endpoint id, in CSR form: a counting sort,
        // so each endpoint's slots come out in segment order.
        let mut start = vec![0u32; distinct_ints.len() + distinct_others.len() + 1];
        for &[a, b] in &ends {
            start[a as usize + 1] += 1;
            start[b as usize + 1] += 1;
        }
        for id in 1..start.len() {
            start[id] += start[id - 1];
        }
        let mut cursor = start.clone();
        let mut incident = vec![0u32; 2 * n];
        for (slot, &id) in ends.iter().flatten().enumerate() {
            incident[cursor[id as usize] as usize] = slot as u32;
            cursor[id as usize] += 1;
        }
        let mut index = Endpoints {
            ints: distinct_ints,
            others: distinct_others,
            ends,
            rep: (0..n).collect(),
            start,
            incident,
        };
        // Duplicates: the first earlier segment with the same two ids, found
        // among the segments at the segment's lower-degree endpoint.
        for i in 0..n {
            let [a, b] = index.ends[i];
            let (at, other) =
                if index.incident(a).len() <= index.incident(b).len() { (a, b) } else { (b, a) };
            let earlier = index
                .incident(at)
                .iter()
                .map(|&slot| slot as usize)
                .take_while(|&slot| slot / 2 < i)
                .find(|&slot| index.ends[slot / 2][1 - slot % 2] == other);
            if let Some(slot) = earlier {
                index.rep[i] = slot / 2;
            }
        }
        index
    }

    /// The slots `2i + side` (`side` 0 for `a`, 1 for `b`) of the input
    /// segments ending at endpoint `id`, ascending.
    pub(crate) fn incident(&self, id: u32) -> &[u32] {
        &self.incident[self.start[id as usize] as usize..self.start[id as usize + 1] as usize]
    }

    /// Number of distinct endpoints (ids run `0..len()`).
    pub(crate) fn len(&self) -> usize {
        self.ints.len() + self.others.len()
    }

    /// The id of `p` when it is an input endpoint.
    pub(crate) fn id_of(&self, p: &Point) -> Option<u32> {
        let k = match int_key(p) {
            Some(key) => self.ints.binary_search(&key).ok()?,
            None => self.ints.len() + self.others.binary_search(p).ok()?,
        };
        Some(k as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topo_geometry::{Rational, Segment};

    #[test]
    fn ids_are_equal_exactly_for_equal_points() {
        let half = |x: i128, y: i128| Point::new(Rational::new(x, 2), Rational::new(y, 2));
        let big = Point::new(Rational::from_int(1) + Rational::from_int(i64::MAX), Rational::ONE);
        let pts = [
            Point::from_ints(0, 0),
            half(1, 3),
            Point::from_ints(-4, 2),
            big,
            half(2, 4),
            Point::from_ints(i64::MIN, 3),
            Point::from_ints(i64::MAX, -1),
        ];
        let mut input = ArrangementInput::new();
        for (i, &a) in pts.iter().enumerate() {
            for &b in &pts[i + 1..] {
                input.add_segment(Segment::new(a, b), 0);
                input.add_segment(Segment::new(b, a), 1);
            }
        }
        let index = Endpoints::new(&input);
        // `half(2, 4)` is the integer point (1, 2); `big` is an integer
        // beyond `i64`, interned with the fractions.
        assert_eq!(index.len(), pts.len());
        for (i, (s, _)) in input.segments.iter().enumerate() {
            let [a, b] = index.ends[i];
            assert_eq!(index.id_of(&s.a), Some(a));
            assert_eq!(index.id_of(&s.b), Some(b));
            for (j, (t, _)) in input.segments.iter().enumerate() {
                let [c, d] = index.ends[j];
                assert_eq!(s.a == t.a, a == c);
                assert_eq!(s.b == t.b, b == d);
                assert_eq!(s.a == t.b, a == d);
                let same = s.canonical() == t.canonical();
                assert_eq!(index.rep[i] == index.rep[j], same, "{i} {j}");
            }
            let first = input.segments.iter().position(|(t, _)| t.canonical() == s.canonical());
            assert_eq!(Some(index.rep[i]), first);
        }
        for id in 0..index.len() as u32 {
            let slots: Vec<u32> = (0..2 * input.segments.len() as u32)
                .filter(|&slot| index.ends[slot as usize / 2][slot as usize % 2] == id)
                .collect();
            assert_eq!(index.incident(id), &slots[..]);
        }
        assert_eq!(index.id_of(&Point::from_ints(9, 9)), None);
        assert_eq!(index.id_of(&half(1, 1)), None);
    }
}

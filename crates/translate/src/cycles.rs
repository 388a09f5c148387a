//! The Section 4 machinery for single-region schemas: coloured cycles,
//! r-types, and the (finite-universe) translation into `FO_inv`.
//!
//! For a schema with a single region name, \[KPV97\] shows that topological
//! elementary equivalence of instances is characterised by the *cone type*:
//! the multiset of vertices together with the cyclic list of the edges and
//! faces around them, each labelled by whether it belongs to the region. The
//! paper reads those cyclic lists directly off the invariant (`cycles(I)`,
//! Lemma 4.5), compares them with Ehrenfeucht–Fraïssé games on coloured
//! cyclic words (Lemma 4.6), extends the comparison to multisets of cycles
//! (`≈r`, Lemma 4.7), and obtains an effective — but hyperexponential —
//! translation of `FO_top(R,<)` sentences into `FO_inv` (Theorem 4.9).
//!
//! This module implements those objects. The full Lemma 4.8 enumeration of
//! dot-depth-`r` languages is replaced by a *finite-universe* variant: the
//! translation is computed relative to a caller-supplied family of candidate
//! instances whose cycles realise the types of interest; its cost already
//! grows explosively with `r` (see DESIGN.md for the substitution note).

use topo_invariant::{ConeItem, TopologicalInvariant};
use topo_relational::{fo_equivalent, Structure};
use topo_spatial::{DirectEvaluator, PointFormula, RegionId, SpatialInstance};

/// The colour of one node of a coloured cycle: what kind of cell it is and
/// whether it belongs to the region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CycleColor {
    /// True for a face node, false for an edge node.
    pub is_face: bool,
    /// True when the cell belongs to the region.
    pub in_region: bool,
}

/// A coloured cycle: the cyclic sequence of colours of the cells around one
/// vertex, read counterclockwise.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ColoredCycle {
    /// The colours, in counterclockwise order.
    pub colors: Vec<CycleColor>,
}

impl ColoredCycle {
    /// Length of the cycle.
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// True iff the cycle is empty.
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }

    /// The cycle read in the opposite (clockwise) orientation.
    pub fn reversed(&self) -> ColoredCycle {
        let mut colors = self.colors.clone();
        colors.reverse();
        ColoredCycle { colors }
    }

    /// Encodes the cycle as a relational structure: one element per position,
    /// unary colour predicates, and the cyclic successor relation. EF games on
    /// these structures decide the r-type equivalence used by Lemmas 4.6–4.8.
    pub fn to_structure(&self) -> Structure {
        let n = self.colors.len();
        let mut s = Structure::new(n);
        s.add_relation("FaceNode", 1);
        s.add_relation("InRegion", 1);
        s.add_relation("Next", 2);
        for (i, color) in self.colors.iter().enumerate() {
            if color.is_face {
                s.insert("FaceNode", &[i as u32]);
            }
            if color.in_region {
                s.insert("InRegion", &[i as u32]);
            }
            if n > 1 {
                s.insert("Next", &[i as u32, ((i + 1) % n) as u32]);
            }
        }
        s
    }
}

/// Reads `cycles(I)` off an invariant: one coloured cycle per vertex, for the
/// given region (Lemma 4.5 — the construction is first-order over the
/// invariant; here it is executed directly).
pub fn cycles_of(invariant: &TopologicalInvariant, region: RegionId) -> Vec<ColoredCycle> {
    (0..invariant.vertex_count())
        .map(|v| {
            let colors = invariant
                .cone(v)
                .into_iter()
                .map(|item| match item {
                    ConeItem::Edge(e) => CycleColor {
                        is_face: false,
                        in_region: invariant.edge_regions(e).contains(region),
                    },
                    ConeItem::Face(f) => CycleColor {
                        is_face: true,
                        in_region: invariant.face_regions(f).contains(region),
                    },
                })
                .collect();
            ColoredCycle { colors }
        })
        .collect()
}

/// FO_r equivalence of two coloured cycles, orientation taken into account by
/// comparing against both readings of the second cycle (an orientation swap
/// is a homeomorphism of the plane, so a reflected cycle is equivalent).
pub fn cycles_equivalent(a: &ColoredCycle, b: &ColoredCycle, r: usize) -> bool {
    let sa = a.to_structure();
    fo_equivalent(&sa, &b.to_structure(), r) || fo_equivalent(&sa, &b.reversed().to_structure(), r)
}

/// The `≈r` relation of Lemma 4.7 on two invariants of a single-region
/// schema: for each (r+2)-type of coloured cycles, both invariants contain
/// the same number of cycles of that type, or both contain more than `2^r`.
pub fn equivalent_lemma_4_7(
    a: &TopologicalInvariant,
    b: &TopologicalInvariant,
    region: RegionId,
    r: usize,
) -> bool {
    let cycles_a = cycles_of(a, region);
    let cycles_b = cycles_of(b, region);
    let game_rounds = r + 2;
    let threshold = 1usize << r;
    // Group all cycles (from both sides) into type classes.
    let mut representatives: Vec<ColoredCycle> = Vec::new();
    let mut counts: Vec<(usize, usize)> = Vec::new();
    for (side, cycles) in [(0usize, &cycles_a), (1usize, &cycles_b)] {
        for cycle in cycles {
            let class =
                representatives.iter().position(|rep| cycles_equivalent(rep, cycle, game_rounds));
            match class {
                Some(i) => {
                    if side == 0 {
                        counts[i].0 += 1;
                    } else {
                        counts[i].1 += 1;
                    }
                }
                None => {
                    representatives.push(cycle.clone());
                    counts.push(if side == 0 { (1, 0) } else { (0, 1) });
                }
            }
        }
    }
    counts.iter().all(|&(ca, cb)| ca == cb || (ca > threshold && cb > threshold))
}

/// The finite-universe variant of the Theorem 4.9 translator for single-region
/// schemas.
///
/// The translator is built from a family of *candidate instances* whose cone
/// structures realise the (r+2)-types of interest. Translating a sentence
/// `φ` amounts to evaluating `φ` on every candidate (Lemma 4.8's step (ii))
/// and remembering the cycle-type summaries of the satisfying ones; the
/// translated query then accepts an invariant iff its own summary is
/// `≈r`-equivalent to one of the remembered summaries (the disjunction `(*)`
/// in the paper). The work grows with the number of candidates and with
/// `2^r`, reproducing the blow-up in `r` that makes the FO target expensive
/// compared to the fixpoint target (Remark (ii) after Theorem 4.9).
pub struct SingleRegionTranslator {
    /// The quantifier-depth parameter `r`.
    pub r: usize,
    region: RegionId,
    candidates: Vec<(SpatialInstance, TopologicalInvariant)>,
}

impl SingleRegionTranslator {
    /// Builds a translator from candidate instances over a single-region
    /// schema.
    pub fn new(r: usize, region: RegionId, candidates: Vec<SpatialInstance>) -> Self {
        let candidates = candidates
            .into_iter()
            .map(|instance| {
                let invariant = topo_invariant::top(&instance);
                (instance, invariant)
            })
            .collect();
        SingleRegionTranslator { r, region, candidates }
    }

    /// Number of candidate instances.
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// Translates a topological sentence of quantifier depth at most `r` into
    /// an invariant-side classifier. Returns the classifier together with the
    /// number of `≈r` classes it had to examine (the measured translation
    /// cost).
    pub fn translate(&self, formula: &PointFormula) -> (TranslatedFoQuery, usize) {
        assert!(formula.is_sentence(), "only sentences can be translated");
        let mut accepted: Vec<TopologicalInvariant> = Vec::new();
        let mut examined = 0usize;
        for (instance, invariant) in &self.candidates {
            examined += 1;
            // Skip candidates equivalent to an already accepted one.
            if accepted
                .iter()
                .any(|prev| equivalent_lemma_4_7(prev, invariant, self.region, self.r))
            {
                continue;
            }
            if DirectEvaluator::new(instance).evaluate(formula) {
                accepted.push(invariant.clone());
            }
        }
        (TranslatedFoQuery { r: self.r, region: self.region, accepted }, examined)
    }
}

/// The result of translating a single-region topological sentence into an
/// invariant-side first-order classifier (the sentence `(*)` of Section 4):
/// a disjunction over the accepted `≈r` classes.
pub struct TranslatedFoQuery {
    /// The quantifier-depth parameter.
    pub r: usize,
    region: RegionId,
    accepted: Vec<TopologicalInvariant>,
}

impl TranslatedFoQuery {
    /// Number of accepted equivalence classes (the size of the disjunction).
    pub fn class_count(&self) -> usize {
        self.accepted.len()
    }

    /// Evaluates the translated query on an invariant.
    pub fn evaluate(&self, invariant: &TopologicalInvariant) -> bool {
        self.accepted
            .iter()
            .any(|accepted| equivalent_lemma_4_7(accepted, invariant, self.region, self.r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topo_invariant::top;
    use topo_spatial::{Region, Schema};

    fn single(region: Region) -> SpatialInstance {
        let mut instance = SpatialInstance::new(Schema::from_names(["P"]));
        instance.set_region(0, region);
        instance
    }

    fn cross_instance() -> SpatialInstance {
        // Two crossing polylines: a degree-4 cone.
        let mut r = Region::polyline(vec![
            topo_geometry::Point::from_ints(0, 0),
            topo_geometry::Point::from_ints(10, 10),
        ]);
        r.add_polyline(vec![
            topo_geometry::Point::from_ints(0, 10),
            topo_geometry::Point::from_ints(10, 0),
        ]);
        single(r)
    }

    #[test]
    fn cycles_read_off_the_invariant() {
        let invariant = top(&cross_instance());
        let cycles = cycles_of(&invariant, 0);
        // Five vertices: the crossing (degree 4) and four tips (degree 1).
        assert_eq!(cycles.len(), 5);
        let longest = cycles.iter().map(|c| c.len()).max().unwrap();
        assert_eq!(longest, 8); // 4 edges + 4 face sectors around the crossing
        for cycle in &cycles {
            // Colours alternate edge/face around every vertex.
            for (i, color) in cycle.colors.iter().enumerate() {
                assert_eq!(color.is_face, i % 2 == 1);
            }
        }
    }

    #[test]
    fn cycle_equivalence_respects_length_and_colors() {
        let a = ColoredCycle {
            colors: vec![
                CycleColor { is_face: false, in_region: true },
                CycleColor { is_face: true, in_region: false },
            ],
        };
        let b = a.clone();
        assert!(cycles_equivalent(&a, &b, 2));
        let c = ColoredCycle {
            colors: vec![
                CycleColor { is_face: false, in_region: true },
                CycleColor { is_face: true, in_region: true },
            ],
        };
        assert!(!cycles_equivalent(&a, &c, 2));
    }

    #[test]
    fn lemma_4_7_distinguishes_different_cone_counts() {
        // One crossing vs a single straight polyline: different cone multisets.
        let a = top(&cross_instance());
        let b = top(&single(Region::polyline(vec![
            topo_geometry::Point::from_ints(0, 0),
            topo_geometry::Point::from_ints(10, 0),
        ])));
        assert!(!equivalent_lemma_4_7(&a, &b, 0, 1));
        // An instance is always equivalent to itself.
        assert!(equivalent_lemma_4_7(&a, &a, 0, 2));
        // A translated (homeomorphic) copy is equivalent.
        let shifted = topo_spatial::transform::AffineMap::translation(500, 500)
            .apply_instance(&cross_instance());
        assert!(equivalent_lemma_4_7(&a, &top(&shifted), 0, 2));
    }

    #[test]
    fn single_region_translation_roundtrip() {
        // Sentence: "region P is nonempty" (depth 1).
        let nonempty =
            PointFormula::Exists(0, Box::new(PointFormula::InRegion { region: 0, var: 0 }));
        let candidates = vec![
            cross_instance(),
            single(Region::polyline(vec![
                topo_geometry::Point::from_ints(0, 0),
                topo_geometry::Point::from_ints(10, 0),
            ])),
        ];
        let translator = SingleRegionTranslator::new(1, 0, candidates);
        let (query, examined) = translator.translate(&nonempty);
        assert_eq!(examined, 2);
        assert!(query.class_count() >= 1);
        // The translated classifier accepts the invariants of instances that
        // satisfy the sentence.
        assert!(query.evaluate(&top(&cross_instance())));
    }
}

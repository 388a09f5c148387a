//! Effective translations into invariant-side queries (Theorems 3.4, 4.1, 4.2).

use topo_invariant::invert::InvertError;
use topo_invariant::TopologicalInvariant;
use topo_relational::Structure;
use topo_spatial::{DirectEvaluator, PointFormula, RealFormula};

/// Builds a copy of the invariant's relational form on an auxiliary *ordered*
/// domain: the export of [`TopologicalInvariant::to_structure`] augmented with
/// the numeric scaffolding (`Succ`, `NumLess`, …) and a total order `CellOrder`
/// on the cells. This is the object the fixpoint+counting query of
/// Theorem 3.4 constructs; once it exists, any PTIME query can be evaluated
/// on it by an order-aware fixpoint program (Immerman–Vardi).
///
/// The cell order used here is the deterministic export order, which is
/// enough for query evaluation; [`canonical_ordered_copy`] instead uses the
/// canonical order of Theorem 3.4 (invariant under isomorphism), the object
/// the logical-definability argument needs.
///
/// ```
/// use topo_spatial::{Region, SpatialInstance};
/// use topo_translate::ordered_copy;
///
/// // A single rectangle: a 3-cell invariant (boundary curve, inside, outside).
/// let instance =
///     SpatialInstance::from_regions([("P", Region::rectangle(0, 0, 100, 100))]);
/// let invariant = topo_invariant::top(&instance);
/// assert_eq!(invariant.cell_count(), 3);
/// let ordered = ordered_copy(&invariant);
/// // The copy carries the numeric scaffolding and a strict total order on
/// // the 3 cells: 3 ordered pairs.
/// assert!(ordered.relation("Succ").is_some());
/// assert_eq!(ordered.relation("CellOrder").unwrap().len(), 3);
/// ```
pub fn ordered_copy(invariant: &TopologicalInvariant) -> Structure {
    // Export order: the cell elements in ascending domain order.
    let elements: Vec<u32> = (2..(invariant.cell_count() as u32 + 2)).collect();
    with_cell_order(invariant, &elements)
}

/// An ordered copy whose `CellOrder` is the *canonical* cell order realising
/// the invariant's canonical code ([`TopologicalInvariant::canonical_cell_order`],
/// cached on the invariant). Unlike [`ordered_copy`], this order is invariant
/// under isomorphism: isomorphic invariants yield isomorphic canonical ordered
/// copies, which is exactly the order Theorem 3.4's fixpoint+counting query
/// defines before handing the structure to an order-aware program
/// (Immerman–Vardi).
///
/// ```
/// use topo_spatial::{Region, SpatialInstance};
/// use topo_translate::canonical_ordered_copy;
///
/// // The same topology drawn at two different places.
/// let a = topo_invariant::top(&SpatialInstance::from_regions([
///     ("P", Region::rectangle(0, 0, 100, 100)),
/// ]));
/// let b = topo_invariant::top(&SpatialInstance::from_regions([
///     ("P", Region::rectangle(500, 500, 900, 700)),
/// ]));
/// assert!(a.is_isomorphic_to(&b));
/// // The canonical order is isomorphism-invariant, so the ordered copies
/// // are isomorphic structures.
/// assert!(topo_relational::isomorphic(
///     &canonical_ordered_copy(&a),
///     &canonical_ordered_copy(&b),
/// ));
/// ```
pub fn canonical_ordered_copy(invariant: &TopologicalInvariant) -> Structure {
    let elements: Vec<u32> = invariant
        .canonical_cell_order()
        .iter()
        .map(|&(kind, id)| invariant.cell_element(kind, id))
        .collect();
    with_cell_order(invariant, &elements)
}

/// The shared scaffold of the ordered copies: the relational export plus the
/// numeric relations plus `CellOrder` as the strict total order listing the
/// given domain elements first to last.
fn with_cell_order(invariant: &TopologicalInvariant, elements: &[u32]) -> Structure {
    let mut structure = invariant.to_structure();
    structure.add_numeric_relations();
    structure.add_relation("CellOrder", 2);
    for (i, &a) in elements.iter().enumerate() {
        for &b in &elements[i + 1..] {
            structure.insert("CellOrder", &[a, b]);
        }
    }
    structure
}

/// A topological spatial query translated to run against the invariant
/// (Theorem 4.1 / 4.2).
///
/// The paper's translation produces a fixpoint+counting sentence that (a)
/// rebuilds an ordered copy of the invariant, (b) simulates the PTIME Turing
/// machine that inverts the invariant into a linear instance `J` (Theorem
/// 2.2) and evaluates the original sentence on `J`. This type executes that
/// very computation natively: `evaluate` inverts the invariant and runs the
/// sentence with the direct evaluator. The translation itself
/// ([`TranslatedQuery::new`]) is linear time in the size of the formula, as
/// Theorem 4.1(2) states.
#[derive(Clone, Debug)]
pub struct TranslatedQuery {
    formula: PointFormula,
    real_form: RealFormula,
}

impl TranslatedQuery {
    /// Translates a topological `FO(P, <x, <y)` sentence. The input is assumed
    /// to be topological (the paper makes the same assumption; topologicality
    /// of `FO(R,<)` sentences is undecidable).
    ///
    /// ```
    /// use topo_spatial::{PointFormula, Region, SpatialInstance};
    /// use topo_translate::TranslatedQuery;
    ///
    /// // ∀p (p ∈ lake → p ∈ park): the containment sentence.
    /// let sentence = PointFormula::Forall(
    ///     0,
    ///     Box::new(
    ///         PointFormula::InRegion { region: 1, var: 0 }
    ///             .implies(PointFormula::InRegion { region: 0, var: 0 }),
    ///     ),
    /// );
    /// let query = TranslatedQuery::new(sentence);
    ///
    /// let instance = SpatialInstance::from_regions([
    ///     ("park", Region::rectangle(0, 0, 100, 100)),
    ///     ("lake", Region::rectangle(30, 30, 70, 70)),
    /// ]);
    /// let invariant = topo_invariant::top(&instance);
    /// // φ(I) = inv(φ)(top(I)) — Theorem 4.1(1).
    /// assert_eq!(
    ///     query.evaluate_on_instance(&instance),
    ///     query.evaluate(&invariant).unwrap(),
    /// );
    /// ```
    ///
    /// # Panics
    /// Panics if the formula is not a sentence.
    pub fn new(formula: PointFormula) -> Self {
        assert!(formula.is_sentence(), "only sentences can be translated");
        let real_form = formula.to_real();
        TranslatedQuery { formula, real_form }
    }

    /// The `FO(R, <)` form of the translated sentence.
    pub fn real_formula(&self) -> &RealFormula {
        &self.real_form
    }

    /// The point-language form of the translated sentence.
    pub fn point_formula(&self) -> &PointFormula {
        &self.formula
    }

    /// Size of the translated query; linear in the input size (Theorem
    /// 4.1(2)).
    pub fn size(&self) -> usize {
        self.formula.size()
    }

    /// Evaluates the translated query against a topological invariant: invert
    /// to a linear instance (Theorem 2.2) and evaluate the sentence on it.
    /// Because the sentence is topological and the rebuilt instance is
    /// topologically equivalent to the original, the answer equals the answer
    /// on the original spatial database.
    pub fn evaluate(&self, invariant: &TopologicalInvariant) -> Result<bool, InvertError> {
        let instance = topo_invariant::invert(invariant)?;
        Ok(DirectEvaluator::new(&instance).evaluate(&self.formula))
    }

    /// Evaluates the query directly on a spatial instance (the left-hand side
    /// of Theorem 4.1(1): `φ(I)`).
    pub fn evaluate_on_instance(&self, instance: &topo_spatial::SpatialInstance) -> bool {
        DirectEvaluator::new(instance).evaluate(&self.formula)
    }
}

/// Counts cells of each kind in an ordered copy — a tiny order-invariant
/// sanity query used by tests.
///
/// ```
/// use topo_spatial::{Region, SpatialInstance};
///
/// let invariant = topo_invariant::top(&SpatialInstance::from_regions([
///     ("P", Region::rectangle(0, 0, 100, 100)),
/// ]));
/// let ordered = topo_translate::ordered_copy(&invariant);
/// // (vertices, edges, faces): the rectangle reduces to one closed curve
/// // between two faces, and the census agrees with the invariant itself.
/// assert_eq!(topo_translate::cell_census(&ordered), (0, 1, 2));
/// assert_eq!(
///     topo_translate::cell_census(&ordered),
///     topo_translate::invariant_census(&invariant),
/// );
/// ```
pub fn cell_census(structure: &Structure) -> (usize, usize, usize) {
    let count = |name: &str| structure.relation(name).map(|r| r.len()).unwrap_or(0);
    (count("Vertex"), count("Edge"), count("Face"))
}

/// Convenience: the kinds and counts of an invariant, for comparison with
/// [`cell_census`].
pub fn invariant_census(invariant: &TopologicalInvariant) -> (usize, usize, usize) {
    (invariant.vertex_count(), invariant.edge_count(), invariant.face_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use topo_invariant::top;
    use topo_spatial::{Region, SpatialInstance};

    fn nested_instance() -> SpatialInstance {
        SpatialInstance::from_regions([
            ("P", Region::rectangle(0, 0, 100, 100)),
            ("Q", Region::rectangle(20, 20, 80, 80)),
        ])
    }

    fn containment_sentence() -> PointFormula {
        PointFormula::Forall(
            0,
            Box::new(
                PointFormula::InRegion { region: 1, var: 0 }
                    .implies(PointFormula::InRegion { region: 0, var: 0 }),
            ),
        )
    }

    #[test]
    fn ordered_copy_has_order_and_census() {
        let invariant = top(&nested_instance());
        let structure = ordered_copy(&invariant);
        assert!(structure.relation("CellOrder").is_some());
        assert!(structure.relation("Succ").is_some());
        assert_eq!(cell_census(&structure), invariant_census(&invariant));
        // The order is total on the cell part of the domain.
        let cells = structure.domain_size() - 2;
        assert_eq!(structure.relation("CellOrder").unwrap().len(), cells * (cells - 1) / 2);
    }

    #[test]
    fn canonical_ordered_copies_of_isomorphic_invariants_are_isomorphic() {
        // Isomorphic invariants from different geometry: the canonical cell
        // order is isomorphism-invariant, so the canonical ordered copies are
        // isomorphic structures — the deterministic export order need not be.
        let a = top(&nested_instance());
        let b = top(&SpatialInstance::from_regions([
            ("P", Region::rectangle(500, -300, 900, 100)),
            ("Q", Region::rectangle(600, -200, 800, 0)),
        ]));
        assert!(a.is_isomorphic_to(&b));
        let (ca, cb) = (canonical_ordered_copy(&a), canonical_ordered_copy(&b));
        assert_eq!(cell_census(&ca), cell_census(&cb));
        // The canonical order is total on the cell part of the domain.
        let cells = ca.domain_size() - 2;
        assert_eq!(ca.relation("CellOrder").unwrap().len(), cells * (cells - 1) / 2);
        assert!(topo_relational::isomorphic(&ca, &cb));
    }

    #[test]
    fn translated_query_agrees_with_direct_evaluation() {
        let instance = nested_instance();
        let invariant = top(&instance);
        let query = TranslatedQuery::new(containment_sentence());
        // φ(I) = inv(φ)(top(I)) — Theorem 4.1(1).
        assert_eq!(query.evaluate_on_instance(&instance), query.evaluate(&invariant).unwrap());
        assert!(query.evaluate(&invariant).unwrap());

        // A false sentence stays false through the translation.
        let reversed = TranslatedQuery::new(PointFormula::Forall(
            0,
            Box::new(
                PointFormula::InRegion { region: 0, var: 0 }
                    .implies(PointFormula::InRegion { region: 1, var: 0 }),
            ),
        ));
        assert!(!reversed.evaluate(&invariant).unwrap());
    }

    #[test]
    fn translation_is_linear_in_formula_size() {
        let base = containment_sentence();
        let query = TranslatedQuery::new(base.clone());
        assert_eq!(query.size(), base.size());
        assert_eq!(query.real_formula().quantifier_depth(), 2 * base.quantifier_depth());
    }
}

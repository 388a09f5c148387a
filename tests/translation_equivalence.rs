//! Theorem 4.1 end to end: for topological sentences, evaluation on the
//! spatial instance equals evaluation of the translated query on the
//! invariant; plus the Lemma 3.1 ordering machinery of Theorem 3.2.

use topo_core::invariant::CellKind;
use topo_core::PointFormula;
use topo_translate::{all_invariant_orderings, orderings_agree, TranslatedQuery};

fn in_region(region: usize, var: u32) -> PointFormula {
    PointFormula::InRegion { region, var }
}

/// ∃p1 … ∃pk: region 0 holds all of them and they are pairwise x-ordered.
fn nested_exists(depth: u32) -> PointFormula {
    let mut conjuncts: Vec<PointFormula> = (0..depth).map(|v| in_region(0, v)).collect();
    conjuncts.extend((1..depth).map(|v| PointFormula::LessX(v - 1, v)));
    (0..depth).rev().fold(PointFormula::And(conjuncts), |f, v| PointFormula::Exists(v, Box::new(f)))
}

fn sentences() -> Vec<PointFormula> {
    let mut sentences = vec![
        // Some lake exists.
        PointFormula::Exists(0, Box::new(in_region(0, 0))),
        // Every island point is a lake point (false: islands are holes).
        PointFormula::Forall(0, Box::new(in_region(1, 0).implies(in_region(0, 0)))),
        // Some river point is also a lake point.
        PointFormula::Exists(
            0,
            Box::new(PointFormula::And(vec![in_region(0, 0), in_region(2, 0)])),
        ),
        // There are two distinct estuary points.
        PointFormula::Exists(
            0,
            Box::new(PointFormula::Exists(
                1,
                Box::new(PointFormula::And(vec![
                    in_region(3, 0),
                    in_region(3, 1),
                    PointFormula::Not(Box::new(PointFormula::Eq(0, 1))),
                ])),
            )),
        ),
    ];
    sentences.extend((1..=4).map(nested_exists));
    sentences
}

#[test]
fn translated_queries_agree_with_direct_evaluation() {
    let instance = topo_datagen::sequoia_hydro(topo_datagen::Scale::tiny(), 13);
    let invariant = topo_core::top(&instance);
    for sentence in sentences() {
        let translated = TranslatedQuery::new(sentence);
        let on_instance = translated.evaluate_on_instance(&instance);
        let on_invariant = translated.evaluate(&invariant).expect("hydro is invertible");
        assert_eq!(on_instance, on_invariant, "Theorem 4.1 equality failed");
    }
}

#[test]
fn translation_size_is_linear() {
    for sentence in sentences() {
        let size = sentence.size();
        let translated = TranslatedQuery::new(sentence);
        assert_eq!(translated.size(), size);
    }
}

/// Theorems 4.1/4.2: the translation is linear in the sentence, and the
/// nested-exists sentences hold on nested rings.
#[test]
fn nested_exists_translate_linearly_and_hold_on_nested_rings() {
    let invariant = topo_core::top(&topo_datagen::nested_rings(3, 1));
    for depth in 1..=4 {
        let translated = TranslatedQuery::new(nested_exists(depth));
        assert_eq!(translated.size(), 3 * depth as usize);
        assert!(translated.evaluate(&invariant).unwrap(), "depth {depth}");
    }
}

#[test]
fn lemma_3_1_orderings_are_total_and_consistent() {
    let instance = topo_datagen::figure1();
    let invariant = topo_core::top(&instance);
    let orderings = all_invariant_orderings(&invariant, 512);
    assert_eq!(orderings.len(), 4, "the figure-1 invariant has four parameter choices");
    for ordering in &orderings {
        assert_eq!(ordering.order.len(), invariant.cell_count());
    }
    // Any order-invariant Boolean query agrees across orderings; here: "the
    // number of cells in region 0 exceeds the number in region 1".
    let (agree, _) = orderings_agree(&invariant, 128, |ordering| {
        let count = |region: usize| {
            ordering
                .order
                .iter()
                .filter(|&&(kind, id)| invariant.cell_in_region(kind, id, region))
                .count()
        };
        count(0) > count(1)
    });
    assert!(agree);
    // The number of edges in region 0, counted along each ordering.
    let edges = orderings_agree(&invariant, 512, |ordering| {
        let in_region_0 = |&&(kind, id): &&(CellKind, usize)| {
            kind == CellKind::Edge && invariant.cell_in_region(kind, id, 0)
        };
        ordering.order.iter().filter(in_region_0).count()
    });
    assert_eq!(edges, (true, Some(6)));
}

#[test]
fn ordered_copy_preserves_cell_census() {
    let instance = topo_datagen::nested_rings(3, 2);
    let invariant = topo_core::top(&instance);
    let structure = topo_translate::ordered_copy(&invariant);
    assert_eq!(
        topo_translate::translate::cell_census(&structure),
        (invariant.vertex_count(), invariant.edge_count(), invariant.face_count())
    );
}

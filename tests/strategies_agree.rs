//! The paper's central promise, checked end to end: every topological query
//! of the library gives the same answer whether evaluated directly on the
//! spatial data, on the invariant, through a Datalog program on the exported
//! structure, or on the rebuilt (inverted) instance.

use topo_core::{Semantics, TopologicalQuery};

fn query_suite(regions: usize) -> Vec<TopologicalQuery> {
    let mut queries = Vec::new();
    for a in 0..regions.min(3) {
        queries.push(TopologicalQuery::IsConnected(a));
        queries.push(TopologicalQuery::ComponentCountEven(a));
        queries.push(TopologicalQuery::HasHole(a));
        for b in 0..regions.min(3) {
            if a != b {
                queries.push(TopologicalQuery::Intersects(a, b));
                queries.push(TopologicalQuery::Contains(a, b));
                queries.push(TopologicalQuery::BoundaryOnlyIntersection(a, b));
                queries.push(TopologicalQuery::InteriorsOverlap(a, b));
            }
        }
    }
    queries
}

#[test]
fn all_strategies_agree_on_hydro() {
    for instance in [
        topo_datagen::sequoia_hydro(topo_datagen::Scale::tiny(), 5),
        topo_datagen::sequoia_hydro(topo_datagen::Scale { grid: 6 }, 11),
    ] {
        let invariant = topo_core::top(&instance);
        let structure = topo_core::program_structure(&invariant);
        let rebuilt = topo_core::invert(&invariant).expect("hydro is invertible");
        for query in query_suite(instance.schema().len()) {
            let direct = topo_core::evaluate_direct(&query, &instance);
            let on_invariant = topo_core::evaluate_on_invariant(&query, &invariant);
            assert_eq!(direct, on_invariant, "direct vs invariant on {query:?}");
            if let Some(program) = topo_core::datalog_program(&query, instance.schema()) {
                let out = program.run(&structure, Semantics::Stratified, usize::MAX).unwrap();
                let answer = out.relation(&program.output).map(|r| !r.is_empty()).unwrap_or(false);
                assert_eq!(direct, answer, "datalog vs direct on {query:?}");
                let goal_answer = program.run_goal_boolean(&structure, Semantics::Stratified);
                assert_eq!(direct, goal_answer, "goal-directed datalog vs direct on {query:?}");
            }
            let on_rebuilt = topo_core::evaluate_direct(&query, &rebuilt);
            assert_eq!(direct, on_rebuilt, "rebuilt vs direct on {query:?}");
        }
    }
}

#[test]
fn all_strategies_agree_on_figure1() {
    let instance = topo_datagen::figure1();
    let invariant = topo_core::top(&instance);
    for query in query_suite(instance.schema().len()) {
        assert_eq!(
            topo_core::evaluate_direct(&query, &instance),
            topo_core::evaluate_on_invariant(&query, &invariant),
            "disagreement on {query:?}"
        );
    }
}

#[test]
fn invariant_queries_are_homeomorphism_invariant() {
    let instance = topo_datagen::figure1();
    let invariant = topo_core::top(&instance);
    let reflected =
        topo_core::spatial::transform::AffineMap::reflection_x().apply_instance(&instance);
    let reflected_invariant = topo_core::top(&reflected);
    for query in query_suite(instance.schema().len()) {
        assert_eq!(
            topo_core::evaluate_on_invariant(&query, &invariant),
            topo_core::evaluate_on_invariant(&query, &reflected_invariant),
            "query {query:?} is not topological?"
        );
    }
}

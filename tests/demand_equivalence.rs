//! The goal-directed path (`Program::run_goal`, i.e. the magic-set rewrite
//! feeding the unchanged semi-naive engine) must be bit-for-bit equivalent to
//! bottom-up evaluation plus a goal lookup — on every query-library program
//! over seeded workloads, on bound goals where the rewrite genuinely prunes,
//! and on random template programs under all three semantics. Whenever the
//! rewrite declines (`FallbackReason`), `run_goal` routes through plain
//! `run`, so the property must hold whether the rewrite engages or not —
//! the rewrite is allowed to bail, never to be silently wrong.
//!
//! The frozen naive oracle is the third comparand throughout: the bottom-up
//! answers are cross-checked against `datalog::naive`, and where the rewrite
//! engages, the *rewritten* program is handed to the oracle too, so the
//! rewrite's correctness is established independently of the semi-naive
//! engine it normally runs on.

use proptest::prelude::*;
use topo_core::relational::datalog::magic::{goal_answers, rewrite};
use topo_core::relational::datalog::naive;
use topo_core::relational::{Goal, Literal, Program, Rule, Semantics, Structure, Term};
use topo_core::{
    datalog_program, program_structure, quadratic_connectivity_program, top, TopologicalQuery,
};
use topo_datagen::{figure1, ign_city, nested_rings, scattered_islands, sequoia_hydro, Scale};

fn v(i: u32) -> Term {
    Term::Var(i)
}

fn pos(relation: &str, terms: Vec<Term>) -> Literal {
    Literal::Pos { relation: relation.to_string(), terms }
}

fn neg(relation: &str, terms: Vec<Term>) -> Literal {
    Literal::Neg { relation: relation.to_string(), terms }
}

/// Bottom-up `run` followed by the goal lookup — the reference the
/// goal-directed path must reproduce exactly.
fn goal_via_run(
    program: &Program,
    goal: &Goal,
    input: &Structure,
    mode: Semantics,
    max_steps: usize,
) -> Option<Vec<Vec<u32>>> {
    program.run(input, mode, max_steps).map(|out| goal_answers(&out, &goal.relation, goal))
}

/// The frozen naive oracle followed by the same goal lookup.
fn goal_via_naive(
    program: &Program,
    goal: &Goal,
    input: &Structure,
    mode: Semantics,
    max_steps: usize,
) -> Option<Vec<Vec<u32>>> {
    naive::run(program, input, mode, max_steps).map(|out| goal_answers(&out, &goal.relation, goal))
}

/// Asserts the three paths agree: bottom-up + lookup, `run_goal`, and the
/// naive oracle + lookup.
fn assert_goal_paths_agree(
    program: &Program,
    goal: &Goal,
    input: &Structure,
    modes: &[Semantics],
    max_steps: usize,
    label: &str,
) {
    for &mode in modes {
        let bottom_up = goal_via_run(program, goal, input, mode, max_steps);
        let goal_directed = program.run_goal(goal, input, mode, max_steps);
        assert_eq!(
            bottom_up, goal_directed,
            "run_goal diverged from run + lookup on {label} under {mode:?}"
        );
        let oracle = goal_via_naive(program, goal, input, mode, max_steps);
        assert_eq!(
            bottom_up, oracle,
            "naive oracle diverged from run + lookup on {label} under {mode:?}"
        );
    }
}

fn seeded_instances() -> Vec<(&'static str, topo_core::SpatialInstance)> {
    vec![
        ("figure1", figure1()),
        ("nested_rings", nested_rings(3, 2)),
        ("islands", scattered_islands(4)),
        ("hydro_small", sequoia_hydro(Scale { grid: 2 }, 5)),
        ("city_small", ign_city(Scale { grid: 2 }, 7)),
        (
            "three_rects",
            topo_core::SpatialInstance::from_regions([
                ("P", topo_core::Region::rectangle(0, 0, 100, 100)),
                ("Q", topo_core::Region::rectangle(20, 20, 80, 80)),
                ("R", topo_core::Region::rectangle(100, 0, 200, 100)),
            ]),
        ),
    ]
}

#[test]
fn query_library_run_goal_matches_bottom_up_on_seeded_workloads() {
    let queries = [
        TopologicalQuery::Intersects(0, 1),
        TopologicalQuery::Disjoint(0, 1),
        TopologicalQuery::Contains(0, 1),
        TopologicalQuery::IsConnected(0),
        TopologicalQuery::HasHole(0),
    ];
    for (name, instance) in &seeded_instances() {
        let invariant = top(instance);
        let structure = program_structure(&invariant);
        for query in &queries {
            if matches!(
                query,
                TopologicalQuery::Intersects(_, b)
                    | TopologicalQuery::Disjoint(_, b)
                    | TopologicalQuery::Contains(_, b)
                    if *b >= instance.schema().len()
            ) {
                continue;
            }
            let Some(program) = datalog_program(query, instance.schema()) else {
                continue;
            };
            let goal = program.goal_atom();
            // Every library program must actually take the rewritten path —
            // a library-wide silent fallback would make the goal-directed
            // route a fiction.
            assert!(
                rewrite(&program, &goal, Semantics::Stratified).is_ok(),
                "library program for {query:?} unexpectedly falls back"
            );
            assert_goal_paths_agree(
                &program,
                &goal,
                &structure,
                &[Semantics::Stratified],
                usize::MAX,
                &format!("{query:?} on {name}"),
            );
        }
    }
}

#[test]
fn bound_goals_on_quadratic_reach_agree() {
    // The quadratic program's all-pairs Reach queried with a bound source is
    // where demand pruning is asymptotic; the answers must still match the
    // full bottom-up derivation exactly.
    for (name, instance) in &seeded_instances() {
        let invariant = top(instance);
        let structure = program_structure(&invariant);
        let program = quadratic_connectivity_program(instance.schema(), 0);
        let full = program
            .run(&structure, Semantics::Stratified, usize::MAX)
            .expect("quadratic program converges");
        let all = goal_answers(&full, "Reach", &Goal::all_free("Reach", 2));
        let mut seeds: Vec<u32> = all.iter().map(|t| t[0]).collect();
        seeds.sort_unstable();
        seeds.dedup();
        for &seed in seeds.iter().take(3) {
            let goals = [
                Goal::new("Reach", vec![Term::Const(seed), v(0)]),
                Goal::new("Reach", vec![v(0), Term::Const(seed)]),
                Goal::new("Reach", vec![Term::Const(seed), Term::Const(seed)]),
            ];
            for goal in &goals {
                assert!(
                    rewrite(&program, goal, Semantics::Stratified).is_ok(),
                    "bound Reach goal unexpectedly falls back on {name}"
                );
                assert_goal_paths_agree(
                    &program,
                    goal,
                    &structure,
                    &[Semantics::Stratified],
                    usize::MAX,
                    &format!("Reach goal {goal:?} on {name}"),
                );
            }
        }
        // The diagonal goal (repeated variable) exercises the lookup's
        // consistency filtering on top of a free-free rewrite.
        assert_goal_paths_agree(
            &program,
            &Goal::new("Reach", vec![v(0), v(0)]),
            &structure,
            &[Semantics::Stratified],
            usize::MAX,
            &format!("diagonal Reach goal on {name}"),
        );
    }
}

#[test]
fn out_of_domain_goal_constants_fall_back() {
    // A goal constant outside the input domain cannot be seeded as a magic
    // fact (Structure::insert would panic); run_goal must fall back and
    // return the (empty) bottom-up answer instead.
    let instance = figure1();
    let invariant = top(&instance);
    let structure = program_structure(&invariant);
    let program = quadratic_connectivity_program(instance.schema(), 0);
    let huge = structure.domain_size() as u32 + 10;
    let goal = Goal::new("Reach", vec![Term::Const(huge), v(0)]);
    let answers = program
        .run_goal(&goal, &structure, Semantics::Stratified, usize::MAX)
        .expect("fallback converges");
    assert!(answers.is_empty(), "out-of-domain source cannot reach anything");
    assert_eq!(
        Some(answers),
        goal_via_run(&program, &goal, &structure, Semantics::Stratified, usize::MAX)
    );
}

/// Template-assembled random rule — the same safe templates as
/// `datalog_equivalence.rs`, so the proptests here explore the same program
/// space through the goal-directed lens.
fn template_rule(idx: usize, c: u32, n: u32) -> Rule {
    let k = Term::Const(c % n);
    match idx {
        0 => Rule::new("D1", vec![v(0), v(1)], vec![pos("B1", vec![v(0), v(1)])]),
        1 => Rule::new(
            "D1",
            vec![v(0), v(2)],
            vec![pos("D1", vec![v(0), v(1)]), pos("B1", vec![v(1), v(2)])],
        ),
        2 => Rule::new(
            "D1",
            vec![v(0), v(2)],
            vec![pos("D1", vec![v(0), v(1)]), pos("D1", vec![v(1), v(2)])],
        ),
        3 => Rule::new("D1", vec![v(1), v(0)], vec![pos("B1", vec![v(0), v(1)])]),
        4 => Rule::new("D0", vec![v(0)], vec![pos("B1", vec![v(0), v(1)])]),
        5 => Rule::new("D0", vec![v(1)], vec![pos("D1", vec![v(0), v(1)]), pos("B0", vec![v(0)])]),
        6 => {
            Rule::new("D0", vec![v(1)], vec![pos("D1", vec![v(0), v(1)]), Literal::Neq(v(0), v(1))])
        }
        7 => Rule::new("D0", vec![v(0)], vec![pos("B0", vec![v(0)]), neg("D1", vec![v(0), v(0)])]),
        8 => Rule::new("D0", vec![v(0)], vec![pos("B0", vec![v(0)]), neg("B1", vec![v(0), k])]),
        9 => Rule::new("D1", vec![v(0), k], vec![pos("D1", vec![v(0), v(1)])]),
        10 => Rule::new(
            "Out",
            vec![v(0)],
            vec![
                pos("B0", vec![v(0)]),
                Literal::Count {
                    relation: "D1".into(),
                    terms: vec![v(0), v(1)],
                    counted: vec![1],
                    result: v(2),
                },
                pos("Even", vec![v(2)]),
            ],
        ),
        11 => Rule::new(
            "Out",
            vec![v(0)],
            vec![
                pos("D0", vec![v(0)]),
                Literal::Count {
                    relation: "B1".into(),
                    terms: vec![v(1), v(0)],
                    counted: vec![1],
                    result: Term::Const(c % 3),
                },
            ],
        ),
        12 => Rule::new(
            "Out",
            vec![v(0)],
            vec![pos("D0", vec![v(0)]), pos("D1", vec![v(0), v(1)]), neg("D0", vec![v(1)])],
        ),
        _ => Rule::new("Out", vec![v(0)], vec![pos("D0", vec![v(0)]), Literal::Eq(v(0), k)]),
    }
}

/// Negation / counting through recursion: unstratifiable, so the stratified
/// rewrite must statically reject (or the inflationary gate must fall back),
/// never produce wrong answers.
fn unstratifiable_template_rule(idx: usize, c: u32, n: u32) -> Rule {
    let k = Term::Const(c % n);
    match idx {
        0 => Rule::new(
            "D0",
            vec![v(1)],
            vec![pos("D0", vec![v(0)]), pos("B1", vec![v(0), v(1)]), neg("D0", vec![v(1)])],
        ),
        1 => Rule::new(
            "D1",
            vec![v(0), v(1)],
            vec![
                pos("D1", vec![v(0), v(1)]),
                Literal::Count {
                    relation: "D1".into(),
                    terms: vec![v(0), v(2)],
                    counted: vec![2],
                    result: v(3),
                },
                pos("NumLess", vec![v(3), k]),
            ],
        ),
        2 => Rule::new(
            "D1",
            vec![v(1), v(2)],
            vec![
                pos("D1", vec![v(0), v(1)]),
                pos("B1", vec![v(1), v(2)]),
                Literal::Count {
                    relation: "D0".into(),
                    terms: vec![v(3)],
                    counted: vec![3],
                    result: v(4),
                },
                pos("Even", vec![v(4)]),
            ],
        ),
        _ => Rule::new("D0", vec![k], vec![pos("B0", vec![k])]),
    }
}

/// Random goals over the template programs' relations: bound, free, repeated
/// and constant positions over `Out`/`D0`/`D1`.
fn template_goal(idx: usize, c: u32, n: u32) -> Goal {
    let k = Term::Const(c % n);
    match idx {
        0 => Goal::new("Out", vec![v(0)]),
        1 => Goal::new("Out", vec![k]),
        2 => Goal::new("D1", vec![k, v(0)]),
        3 => Goal::new("D1", vec![v(0), k]),
        4 => Goal::new("D1", vec![v(0), v(1)]),
        5 => Goal::new("D1", vec![v(0), v(0)]),
        6 => Goal::new("D0", vec![k]),
        _ => Goal::new("D0", vec![v(0)]),
    }
}

/// A random input structure with binary `B1`, unary `B0`, and the numeric
/// scaffolding counting programs need.
fn random_structure() -> impl Strategy<Value = Structure> {
    let edges = proptest::collection::vec((0u32..16, 0u32..16), 0..14);
    let marks = proptest::collection::vec(0u32..16, 0..6);
    (4usize..8, edges, marks).prop_map(|(n, edges, marks)| {
        let mut s = Structure::new(n);
        s.add_numeric_relations();
        s.add_relation("B0", 1);
        s.add_relation("B1", 2);
        for (a, b) in edges {
            s.insert("B1", &[a % n as u32, b % n as u32]);
        }
        for m in marks {
            s.insert("B0", &[m % n as u32]);
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random stratifiable programs with random goals: `run_goal` must equal
    /// bottom-up + lookup under every semantics, and wherever the rewrite
    /// engages, the rewritten program must preserve the answers under the
    /// frozen naive oracle too.
    #[test]
    fn random_stratifiable_goals_agree(
        input in random_structure(),
        picks in proptest::collection::vec((0usize..14, 0u32..8), 1..7),
        goal_pick in (0usize..8, 0u32..8),
    ) {
        let n = input.domain_size() as u32;
        let mut program = Program::new("Out");
        for (idx, c) in picks {
            program.rules.push(template_rule(idx, c, n));
        }
        let goal = template_goal(goal_pick.0, goal_pick.1, n);
        // Terminating semantics get an unbounded step budget (the rewritten
        // program may need a different number of rounds than the original);
        // partial fixpoint keeps a finite budget and always takes the
        // fallback, so the budget semantics stay aligned.
        for (mode, max_steps) in [
            (Semantics::Inflationary, usize::MAX),
            (Semantics::Stratified, usize::MAX),
            (Semantics::Partial, 40),
        ] {
            let bottom_up = goal_via_run(&program, &goal, &input, mode, max_steps);
            let goal_directed = program.run_goal(&goal, &input, mode, max_steps);
            prop_assert_eq!(
                &bottom_up, &goal_directed,
                "run_goal diverged under {:?} on {:?} with goal {:?}", mode, program, goal
            );
            if let Ok(magic) = rewrite(&program, &goal, mode) {
                let oracle = naive::run(&magic.program, &input, mode, max_steps)
                    .map(|out| goal_answers(&out, &magic.goal_relation, &goal));
                prop_assert_eq!(
                    &bottom_up, &oracle,
                    "rewritten program diverged from the oracle under {:?} on {:?} with goal {:?}",
                    mode, program, goal
                );
            }
        }
    }

    /// Random programs with negation and counting through recursion: the
    /// rewrite must statically reject into the fallback or preserve answers —
    /// under no circumstances may `run_goal` differ from bottom-up + lookup.
    #[test]
    fn random_unstratifiable_goals_agree(
        input in random_structure(),
        seeds in proptest::collection::vec((0usize..14, 0u32..8), 1..5),
        recursive in proptest::collection::vec((0usize..4, 0u32..8), 1..4),
        goal_pick in (0usize..8, 0u32..8),
    ) {
        let n = input.domain_size() as u32;
        let mut program = Program::new("Out");
        for (idx, c) in seeds {
            program.rules.push(template_rule(idx, c, n));
        }
        for (idx, c) in recursive {
            program.rules.push(unstratifiable_template_rule(idx, c, n));
        }
        let goal = template_goal(goal_pick.0, goal_pick.1, n);
        // Stratified is exercised only when the program happens to be
        // stratifiable (plain `run` panics otherwise, and `run_goal`'s
        // fallback must reproduce exactly that, which the gate test below
        // covers separately).
        let mut modes = vec![(Semantics::Inflationary, usize::MAX), (Semantics::Partial, 40)];
        if program.is_stratifiable() {
            modes.push((Semantics::Stratified, usize::MAX));
        }
        for (mode, max_steps) in modes {
            let bottom_up = goal_via_run(&program, &goal, &input, mode, max_steps);
            let goal_directed = program.run_goal(&goal, &input, mode, max_steps);
            prop_assert_eq!(
                &bottom_up, &goal_directed,
                "run_goal diverged under {:?} on {:?} with goal {:?}", mode, program, goal
            );
            if let Ok(magic) = rewrite(&program, &goal, mode) {
                let oracle = naive::run(&magic.program, &input, mode, max_steps)
                    .map(|out| goal_answers(&out, &magic.goal_relation, &goal));
                prop_assert_eq!(
                    &bottom_up, &oracle,
                    "rewritten program diverged from the oracle under {:?} on {:?} with goal {:?}",
                    mode, program, goal
                );
            }
        }
    }
}

//! Inflationary Datalog with negation — the *fixpoint* queries — plus the
//! counting extension (*fixpoint+counting*) and the partial-fixpoint mode
//! (the *while* queries).
//!
//! The paper's Section 3 results are about these three languages evaluated on
//! topological invariants:
//!
//! * fixpoint ≙ inflationary Datalog¬ ≙ FO+IFP (Theorem 3.2),
//! * fixpoint+counting, obtained by adding counting over an auxiliary numeric
//!   domain (Theorem 3.4) — here a [`Literal::Count`] literal counting the
//!   matches of an atom, combined with the numeric relations installed by
//!   [`Structure::add_numeric_relations`],
//! * while ≙ partial fixpoint (Corollaries 3.3 and 3.5), obtained by
//!   recomputing the derived relations from scratch at every step instead of
//!   accumulating them.
//!
//! Rules must be *range-restricted*: every variable of the head, of a
//! negative literal, of a comparison, or of a count result must be bound by
//! an earlier positive literal in the body.
//!
//! # Evaluation
//!
//! All three modes share one round semantics: every rule fires
//! simultaneously against the frozen pre-round state, and the derived head
//! tuples are either accumulated (inflationary, stratified) or become the
//! next state outright (partial fixpoint). The engine behind [`Program::run`]
//! is *delta-driven* (semi-naive): after the first round, a rule with `k`
//! positive literals over relations being derived evaluates as `k` variants,
//! each binding one such literal to the facts new since the previous round,
//! the earlier ones to the state before those facts and the later ones to
//! the full pre-round state — so a round's cost scales with what changed,
//! not with the accumulated state. Joins run over per-relation hash indexes
//! keyed by each literal's bound positions and extended incrementally from
//! the deltas. Negative and counting literals always read the full frozen
//! pre-round state, which keeps all three semantics bit-for-bit identical to
//! the naive engine (frozen as `datalog::naive` behind the `naive-reference`
//! feature, and proven equivalent by `tests/datalog_equivalence.rs`). The
//! delta rewrite and its interaction with negation and counting are
//! documented in DESIGN.md, section "Datalog engine".
//!
//! # Example
//!
//! Transitive closure of a two-edge path, with a negated "is a source"
//! check — a two-rule fixpoint program:
//!
//! ```
//! use topo_relational::{Literal, Program, Rule, Semantics, Structure, Term};
//!
//! let mut graph = Structure::new(3);
//! graph.insert("E", &[0, 1]);
//! graph.insert("E", &[1, 2]);
//!
//! let v = Term::Var;
//! let program = Program::new("T")
//!     .rule(Rule::new(
//!         "T",
//!         vec![v(0), v(1)],
//!         vec![Literal::Pos { relation: "E".into(), terms: vec![v(0), v(1)] }],
//!     ))
//!     .rule(Rule::new(
//!         "T",
//!         vec![v(0), v(2)],
//!         vec![
//!             Literal::Pos { relation: "T".into(), terms: vec![v(0), v(1)] },
//!             Literal::Pos { relation: "E".into(), terms: vec![v(1), v(2)] },
//!         ],
//!     ));
//!
//! let result = program.run(&graph, Semantics::Inflationary, usize::MAX).unwrap();
//! assert!(result.contains("T", &[0, 2])); // reachable in two steps
//! assert_eq!(result.relation("T").unwrap().len(), 3);
//! ```

use crate::fo::Term;
use crate::structure::Structure;
use std::collections::{HashMap, HashSet};

mod eval;
pub mod magic;
#[cfg(feature = "naive-reference")]
pub mod naive;

pub use magic::Goal;

/// A body literal of a Datalog rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Literal {
    /// A positive atom `R(t̄)`; binds its variables.
    Pos {
        /// Relation name (base or derived).
        relation: String,
        /// Argument terms.
        terms: Vec<Term>,
    },
    /// A negative atom `¬R(t̄)`; all variables must already be bound.
    Neg {
        /// Relation name (base or derived).
        relation: String,
        /// Argument terms.
        terms: Vec<Term>,
    },
    /// Equality `t1 = t2`; all variables must already be bound.
    Eq(Term, Term),
    /// Disequality `t1 ≠ t2`; all variables must already be bound.
    Neq(Term, Term),
    /// Counting literal `#{ x̄ : R(t̄) } = result`.
    ///
    /// `counted` lists the variables of `t̄` that are counted over; every
    /// other variable of `t̄` must already be bound. If `result` is a bound
    /// term the literal is a test; if it is an unbound variable it is bound to
    /// the count (as a numeric domain element).
    Count {
        /// Relation whose matching tuples are counted.
        relation: String,
        /// Argument terms of the counted atom.
        terms: Vec<Term>,
        /// The counted (existential) variables.
        counted: Vec<u32>,
        /// The term receiving or tested against the count.
        result: Term,
    },
}

/// A Datalog rule `head(t̄) ← body`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    /// Head relation name.
    pub head_relation: String,
    /// Head argument terms.
    pub head_terms: Vec<Term>,
    /// Body literals, evaluated left to right.
    pub body: Vec<Literal>,
}

impl Rule {
    /// Convenience constructor.
    pub fn new(head_relation: &str, head_terms: Vec<Term>, body: Vec<Literal>) -> Self {
        Rule { head_relation: head_relation.to_string(), head_terms, body }
    }
}

/// Evaluation mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Semantics {
    /// Inflationary fixpoint: all rules fire simultaneously against the
    /// current state and derived facts accumulate (the *fixpoint* queries;
    /// with counting literals, *fixpoint+counting*).
    Inflationary,
    /// Stratified semantics: rules are partitioned into strata so that a
    /// relation is never negated (or counted) before its stratum is complete,
    /// and each stratum runs inflationarily to its fixpoint. Every stratified
    /// program is expressible in inflationary fixpoint logic, so this mode is
    /// a convenience for writing the invariant-side query library, not an
    /// extension of expressive power.
    Stratified,
    /// Partial fixpoint: derived relations are recomputed from scratch each
    /// step (the *while* queries). May fail to converge.
    Partial,
}

/// A Datalog program with a designated Boolean output relation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    /// The rules.
    pub rules: Vec<Rule>,
    /// Name of the output relation; the Boolean answer is "is it non-empty
    /// after evaluation".
    pub output: String,
    /// Optional goal annotation: the atom the program exists to answer,
    /// made explicit so goal-directed evaluation ([`Program::run_goal`])
    /// knows which bindings to demand instead of relying on the
    /// "output relation non-empty" convention. `None` means the whole
    /// output relation is the goal ([`Program::goal_atom`]).
    pub goal: Option<Goal>,
}

impl Program {
    /// Creates an empty program with the given output relation.
    pub fn new(output: &str) -> Self {
        Program { rules: Vec::new(), output: output.to_string(), goal: None }
    }

    /// Annotates the program with its goal atom (builder style).
    pub fn with_goal(mut self, goal: Goal) -> Self {
        self.goal = Some(goal);
        self
    }

    /// Adds a rule (builder style).
    pub fn rule(mut self, rule: Rule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True iff the program has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Names of the derived (intensional) relations (borrowed from the rules;
    /// no per-call cloning of the head names).
    pub fn derived_relations(&self) -> HashSet<&str> {
        self.rules.iter().map(|r| r.head_relation.as_str()).collect()
    }

    /// Runs the program on `input` and returns the resulting structure
    /// (input relations plus derived relations). Returns `None` only in
    /// partial-fixpoint mode when no fixpoint is reached within `max_steps`.
    ///
    /// ```
    /// use topo_relational::{Literal, Program, Rule, Semantics, Structure, Term};
    ///
    /// let mut s = Structure::new(2);
    /// s.insert("Node", &[0]);
    /// s.insert("Node", &[1]);
    /// s.insert("E", &[0, 1]);
    /// // Sink(x) ← Node(x), ¬HasOut(x);  HasOut(x) ← E(x, y).
    /// let v = Term::Var;
    /// let program = Program::new("Sink")
    ///     .rule(Rule::new(
    ///         "HasOut",
    ///         vec![v(0)],
    ///         vec![Literal::Pos { relation: "E".into(), terms: vec![v(0), v(1)] }],
    ///     ))
    ///     .rule(Rule::new(
    ///         "Sink",
    ///         vec![v(0)],
    ///         vec![
    ///             Literal::Pos { relation: "Node".into(), terms: vec![v(0)] },
    ///             Literal::Neg { relation: "HasOut".into(), terms: vec![v(0)] },
    ///         ],
    ///     ));
    /// // Stratified semantics completes HasOut before negating it.
    /// let result = program.run(&s, Semantics::Stratified, usize::MAX).unwrap();
    /// assert_eq!(result.relation("Sink").unwrap().sorted_tuples(), vec![vec![1]]);
    /// ```
    pub fn run(
        &self,
        input: &Structure,
        semantics: Semantics,
        max_steps: usize,
    ) -> Option<Structure> {
        let derived = self.derived_relations();
        // The base state: input relations with the derived relations emptied.
        // Built once; partial-fixpoint rounds restart from a clone of it
        // instead of re-deriving it from `input` every round.
        let mut base = input.clone();
        for &name in &derived {
            base.remove_relation(name);
            if let Some(arity) = self.head_arity(name) {
                base.add_relation(name, arity);
            }
        }
        match semantics {
            Semantics::Inflationary => {
                let mut engine = eval::Engine::new(self, &base);
                engine.run_rules(&self.rules.iter().collect::<Vec<_>>());
                Some(engine.into_structure(base))
            }
            Semantics::Stratified => {
                let mut engine = eval::Engine::new(self, &base);
                for stratum in self.stratify() {
                    engine.run_rules(&stratum);
                }
                Some(engine.into_structure(base))
            }
            Semantics::Partial => {
                let mut seen: HashSet<String> = HashSet::new();
                let mut state = base.clone();
                for _ in 0..max_steps {
                    let mut next = base.clone();
                    {
                        let mut engine = eval::Engine::new(self, &state);
                        for rule in &self.rules {
                            for tuple in engine.rule_heads(rule) {
                                next.insert(&rule.head_relation, &tuple);
                            }
                        }
                    }
                    if next == state {
                        return Some(next);
                    }
                    if !seen.insert(next.fingerprint()) {
                        // The iteration entered a cycle that is not a fixpoint.
                        return None;
                    }
                    state = next;
                }
                None
            }
        }
    }

    /// The goal atom this program answers: the explicit [`Program::goal`]
    /// annotation if present, otherwise the fully free atom over the output
    /// relation (every output tuple is an answer).
    pub fn goal_atom(&self) -> Goal {
        self.goal.clone().unwrap_or_else(|| {
            Goal::all_free(&self.output, self.head_arity(&self.output).unwrap_or(0))
        })
    }

    /// Goal-directed evaluation: answers `goal` on `input`, deriving only
    /// demanded facts where possible. Attempts the magic-set rewrite
    /// ([`magic::rewrite`]) and runs the rewritten program through the same
    /// semi-naive engine as [`Program::run`]; whenever the rewrite refuses
    /// (partial semantics, non-monotone inflationary use, unstratifiable
    /// rewrite, unsafe rules, …) it evaluates bottom-up instead. Either way
    /// the result is the sorted goal-matching tuples of the goal relation —
    /// bit-for-bit what [`Program::run`] plus a goal lookup returns
    /// (`tests/demand_equivalence.rs`). `None` only in partial-fixpoint mode
    /// when no fixpoint is reached within `max_steps`.
    ///
    /// ```
    /// use topo_relational::{Goal, Literal, Program, Rule, Semantics, Structure, Term};
    ///
    /// let mut graph = Structure::new(4);
    /// for (a, b) in [(0, 1), (1, 2), (2, 3)] {
    ///     graph.insert("E", &[a, b]);
    /// }
    /// let v = Term::Var;
    /// let program = Program::new("T")
    ///     .rule(Rule::new(
    ///         "T",
    ///         vec![v(0), v(1)],
    ///         vec![Literal::Pos { relation: "E".into(), terms: vec![v(0), v(1)] }],
    ///     ))
    ///     .rule(Rule::new(
    ///         "T",
    ///         vec![v(0), v(2)],
    ///         vec![
    ///             Literal::Pos { relation: "T".into(), terms: vec![v(0), v(1)] },
    ///             Literal::Pos { relation: "E".into(), terms: vec![v(1), v(2)] },
    ///         ],
    ///     ));
    /// // What does 2 reach? Only the demanded slice of T is derived.
    /// let goal = Goal::new("T", vec![Term::Const(2), v(0)]);
    /// let answers = program.run_goal(&goal, &graph, Semantics::Inflationary, usize::MAX);
    /// assert_eq!(answers.unwrap(), vec![vec![2, 3]]);
    /// ```
    pub fn run_goal(
        &self,
        goal: &Goal,
        input: &Structure,
        semantics: Semantics,
        max_steps: usize,
    ) -> Option<Vec<Vec<u32>>> {
        let rewritten = if goal
            .terms
            .iter()
            .any(|t| matches!(t, Term::Const(c) if *c as usize >= input.domain_size()))
        {
            // A magic seed outside the domain cannot be inserted; bottom-up
            // evaluation simply finds no matching tuple.
            Err(magic::FallbackReason::GoalOutOfDomain)
        } else {
            magic::rewrite(self, goal, semantics)
        };
        match rewritten {
            Ok(m) => m
                .program
                .run(input, semantics, max_steps)
                .map(|result| magic::goal_answers(&result, &m.goal_relation, goal)),
            Err(_) => self
                .run(input, semantics, max_steps)
                .map(|result| magic::goal_answers(&result, &goal.relation, goal)),
        }
    }

    /// Goal-directed Boolean evaluation: does [`Program::goal_atom`] have an
    /// answer on `input`? A diverging partial fixpoint counts as `false`,
    /// matching the "output non-empty" convention of [`Program::eval_boolean`].
    pub fn run_goal_boolean(&self, input: &Structure, semantics: Semantics) -> bool {
        self.run_goal(&self.goal_atom(), input, semantics, usize::MAX)
            .map(|answers| !answers.is_empty())
            .unwrap_or(false)
    }

    /// Runs the program with inflationary semantics and reports whether the
    /// output relation is non-empty.
    pub fn eval_boolean(&self, input: &Structure) -> bool {
        let result = self
            .run(input, Semantics::Inflationary, usize::MAX)
            .expect("inflationary evaluation always terminates");
        result.relation(&self.output).map(|r| !r.is_empty()).unwrap_or(false)
    }

    /// Runs the program with stratified semantics and reports whether the
    /// output relation is non-empty.
    pub fn eval_boolean_stratified(&self, input: &Structure) -> bool {
        let result = self
            .run(input, Semantics::Stratified, usize::MAX)
            .expect("stratified evaluation always terminates");
        result.relation(&self.output).map(|r| !r.is_empty()).unwrap_or(false)
    }

    /// Partitions the rules into strata: a rule goes into the first stratum in
    /// which every relation it negates or counts is already fully defined
    /// (i.e. no later stratum has a rule with that head).
    ///
    /// Shared by the delta-driven engine and the frozen `datalog::naive` oracle:
    /// stratification decides *which* rules run against *what*, not how a
    /// round is evaluated.
    ///
    /// # Panics
    /// Panics if the program has negation (or counting) through recursion,
    /// i.e. cannot be stratified.
    fn stratify(&self) -> Vec<Vec<&Rule>> {
        match self.try_stratify() {
            Ok(strata) => strata,
            Err(relation) => {
                panic!("program is not stratifiable (negation through recursion on {relation})")
            }
        }
    }

    /// Can the program be stratified? The non-panicking face of
    /// stratification; the magic-set rewrite uses it to decide statically
    /// whether stratified goal-directed evaluation is sound or must fall
    /// back to the bottom-up path.
    pub fn is_stratifiable(&self) -> bool {
        self.try_stratify().is_ok()
    }

    /// Stratification as a `Result`: the strata, or the head relation on
    /// which negation (or counting) through recursion was detected.
    fn try_stratify(&self) -> Result<Vec<Vec<&Rule>>, String> {
        let derived = self.derived_relations();
        // Stratum number per derived relation, computed by iterating the
        // standard constraints to a fixpoint (keys borrowed from the rules).
        let mut stratum: HashMap<&str, usize> =
            derived.iter().map(|&name| (name, 0usize)).collect();
        let max_stratum = derived.len() + 1;
        loop {
            let mut changed = false;
            for rule in &self.rules {
                let head_level = stratum[rule.head_relation.as_str()];
                let mut required = head_level;
                for literal in &rule.body {
                    match literal {
                        Literal::Pos { relation, .. } => {
                            if let Some(&level) = stratum.get(relation.as_str()) {
                                required = required.max(level);
                            }
                        }
                        Literal::Neg { relation, .. } | Literal::Count { relation, .. } => {
                            if let Some(&level) = stratum.get(relation.as_str()) {
                                required = required.max(level + 1);
                            }
                        }
                        Literal::Eq(..) | Literal::Neq(..) => {}
                    }
                }
                if required > head_level {
                    if required >= max_stratum {
                        return Err(rule.head_relation.clone());
                    }
                    stratum.insert(rule.head_relation.as_str(), required);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let levels = stratum.values().copied().max().unwrap_or(0);
        let mut out: Vec<Vec<&Rule>> = vec![Vec::new(); levels + 1];
        for rule in &self.rules {
            out[stratum[rule.head_relation.as_str()]].push(rule);
        }
        Ok(out)
    }

    fn head_arity(&self, name: &str) -> Option<usize> {
        self.rules.iter().find(|r| r.head_relation == name).map(|r| r.head_terms.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Term {
        Term::Var(i)
    }

    /// A directed path 0 -> 1 -> 2 -> 3 plus an isolated element 4.
    fn path() -> Structure {
        let mut s = Structure::new(5);
        for i in 0..3u32 {
            s.insert("E", &[i, i + 1]);
        }
        s
    }

    fn transitive_closure() -> Program {
        Program::new("T")
            .rule(Rule::new(
                "T",
                vec![v(0), v(1)],
                vec![Literal::Pos { relation: "E".into(), terms: vec![v(0), v(1)] }],
            ))
            .rule(Rule::new(
                "T",
                vec![v(0), v(2)],
                vec![
                    Literal::Pos { relation: "T".into(), terms: vec![v(0), v(1)] },
                    Literal::Pos { relation: "E".into(), terms: vec![v(1), v(2)] },
                ],
            ))
    }

    #[test]
    fn transitive_closure_inflationary() {
        let result =
            transitive_closure().run(&path(), Semantics::Inflationary, usize::MAX).unwrap();
        let t = result.relation("T").unwrap();
        assert_eq!(t.len(), 6);
        assert!(t.contains(&[0, 3]));
        assert!(!t.contains(&[3, 0]));
    }

    #[test]
    fn boolean_output() {
        // Is there a path from 0 to 3?
        let program = transitive_closure().rule(Rule::new(
            "Answer",
            vec![],
            vec![Literal::Pos {
                relation: "T".into(),
                terms: vec![Term::Const(0), Term::Const(3)],
            }],
        ));
        let program = Program { output: "Answer".into(), ..program };
        assert!(program.eval_boolean(&path()));

        let mut broken = path();
        broken.remove_relation("E");
        broken.insert("E", &[0, 1]);
        assert!(!program.eval_boolean(&broken));
    }

    #[test]
    fn negation_and_comparisons() {
        // Sink(x) <- Node(x), not HasOut(x);  HasOut(x) <- E(x, y).
        let mut s = path();
        for i in 0..5u32 {
            s.insert("Node", &[i]);
        }
        let program = Program::new("Sink")
            .rule(Rule::new(
                "HasOut",
                vec![v(0)],
                vec![Literal::Pos { relation: "E".into(), terms: vec![v(0), v(1)] }],
            ))
            .rule(Rule::new(
                "Sink",
                vec![v(0)],
                vec![
                    Literal::Pos { relation: "Node".into(), terms: vec![v(0)] },
                    Literal::Neg { relation: "HasOut".into(), terms: vec![v(0)] },
                ],
            ));
        // Stratified semantics computes HasOut completely before negating it.
        let result = program.run(&s, Semantics::Stratified, usize::MAX).unwrap();
        let sinks = result.relation("Sink").unwrap().sorted_tuples();
        assert_eq!(sinks, vec![vec![3], vec![4]]);
        // Simultaneous inflationary firing instead sees the (still empty)
        // HasOut in the first round and keeps everything it derived.
        let result = program.run(&s, Semantics::Inflationary, usize::MAX).unwrap();
        assert_eq!(result.relation("Sink").unwrap().len(), 5);
    }

    #[test]
    fn stratification_orders_negation_correctly() {
        // Unreachable(x) <- Node(x), not Reach(x); Reach via recursion from 0.
        let mut s = path();
        for i in 0..5u32 {
            s.insert("Node", &[i]);
        }
        let program = Program::new("Unreachable")
            .rule(Rule::new(
                "Reach",
                vec![Term::Const(0)],
                vec![Literal::Pos { relation: "Node".into(), terms: vec![Term::Const(0)] }],
            ))
            .rule(Rule::new(
                "Reach",
                vec![v(1)],
                vec![
                    Literal::Pos { relation: "Reach".into(), terms: vec![v(0)] },
                    Literal::Pos { relation: "E".into(), terms: vec![v(0), v(1)] },
                ],
            ))
            .rule(Rule::new(
                "Unreachable",
                vec![v(0)],
                vec![
                    Literal::Pos { relation: "Node".into(), terms: vec![v(0)] },
                    Literal::Neg { relation: "Reach".into(), terms: vec![v(0)] },
                ],
            ));
        let result = program.run(&s, Semantics::Stratified, usize::MAX).unwrap();
        assert_eq!(result.relation("Unreachable").unwrap().sorted_tuples(), vec![vec![4]]);
        assert!(program.eval_boolean_stratified(&s));
    }

    #[test]
    #[should_panic]
    fn unstratifiable_program_panics() {
        let mut s = Structure::new(2);
        s.insert("Node", &[0]);
        let program = Program::new("P")
            .rule(Rule::new(
                "P",
                vec![v(0)],
                vec![
                    Literal::Pos { relation: "Node".into(), terms: vec![v(0)] },
                    Literal::Neg { relation: "Q".into(), terms: vec![v(0)] },
                ],
            ))
            .rule(Rule::new(
                "Q",
                vec![v(0)],
                vec![
                    Literal::Pos { relation: "Node".into(), terms: vec![v(0)] },
                    Literal::Neg { relation: "P".into(), terms: vec![v(0)] },
                ],
            ));
        let _ = program.run(&s, Semantics::Stratified, usize::MAX);
    }

    #[test]
    fn counting_parity() {
        // Is the number of elements of U even? (The classical query fixpoint
        // alone cannot express.)
        let mut s = Structure::new(6);
        s.add_numeric_relations();
        for i in [1u32, 3, 4, 5] {
            s.insert("U", &[i]);
        }
        let program = Program::new("Answer").rule(Rule::new(
            "Answer",
            vec![],
            vec![
                Literal::Count {
                    relation: "U".into(),
                    terms: vec![v(0)],
                    counted: vec![0],
                    result: v(1),
                },
                Literal::Pos { relation: "Even".into(), terms: vec![v(1)] },
            ],
        ));
        assert!(program.eval_boolean(&s));
        s.insert("U", &[0]);
        assert!(!program.eval_boolean(&s));
    }

    #[test]
    fn count_with_bound_result() {
        let mut s = Structure::new(4);
        s.add_numeric_relations();
        s.insert("E", &[0, 1]);
        s.insert("E", &[0, 2]);
        s.insert("E", &[1, 2]);
        // OutDeg2(x) <- #{y : E(x,y)} = 2.
        let program = Program::new("OutDeg2").rule(Rule::new(
            "OutDeg2",
            vec![v(0)],
            vec![
                Literal::Pos { relation: "E".into(), terms: vec![v(0), v(2)] },
                Literal::Count {
                    relation: "E".into(),
                    terms: vec![v(0), v(1)],
                    counted: vec![1],
                    result: Term::Const(2),
                },
            ],
        ));
        let result = program.run(&s, Semantics::Inflationary, usize::MAX).unwrap();
        assert_eq!(result.relation("OutDeg2").unwrap().sorted_tuples(), vec![vec![0]]);
    }

    #[test]
    fn count_over_derived_relation_reevaluates() {
        // Deg(x, n) <- Node(x), #{y : T(x, y)} = n with T growing by
        // recursion: a counting literal over a relation being derived is not
        // delta-rewritable, so this exercises the full-re-evaluation fallback.
        // Inflationary semantics accumulates one Deg fact per intermediate
        // count, which pins the exact per-round states.
        let mut s = Structure::new(5);
        for i in 0..3u32 {
            s.insert("E", &[i, i + 1]);
        }
        for i in 0..4u32 {
            s.insert("Node", &[i]);
        }
        let program = Program::new("Deg")
            .rule(Rule::new(
                "T",
                vec![v(0), v(1)],
                vec![Literal::Pos { relation: "E".into(), terms: vec![v(0), v(1)] }],
            ))
            .rule(Rule::new(
                "T",
                vec![v(0), v(2)],
                vec![
                    Literal::Pos { relation: "T".into(), terms: vec![v(0), v(1)] },
                    Literal::Pos { relation: "E".into(), terms: vec![v(1), v(2)] },
                ],
            ))
            .rule(Rule::new(
                "Deg",
                vec![v(0), v(1)],
                vec![
                    Literal::Pos { relation: "Node".into(), terms: vec![v(0)] },
                    Literal::Count {
                        relation: "T".into(),
                        terms: vec![v(0), v(2)],
                        counted: vec![2],
                        result: v(1),
                    },
                ],
            ));
        let result = program.run(&s, Semantics::Inflationary, usize::MAX).unwrap();
        let deg = result.relation("Deg").unwrap();
        // Node 0 reaches 1, then 2, then 3: counts 0 (round 0), 1, 2, 3 all
        // get recorded as the fixpoint inflates.
        for n in 0..=3u32 {
            assert!(deg.contains(&[0, n]), "missing Deg(0, {n})");
        }
        assert!(deg.contains(&[3, 0]));
        assert!(!deg.contains(&[3, 1]));
    }

    #[test]
    fn repeated_variables_and_constants_in_atoms() {
        // Loop(x) <- E(x, x); Hub(x) <- E(x, 2), E(2, x): repeated variables
        // within an atom and constant key positions must survive the
        // compiled join-key split.
        let mut s = Structure::new(4);
        s.insert("E", &[0, 0]);
        s.insert("E", &[0, 2]);
        s.insert("E", &[2, 0]);
        s.insert("E", &[1, 2]);
        let program = Program::new("Loop")
            .rule(Rule::new(
                "Loop",
                vec![v(0)],
                vec![Literal::Pos { relation: "E".into(), terms: vec![v(0), v(0)] }],
            ))
            .rule(Rule::new(
                "Hub",
                vec![v(0)],
                vec![
                    Literal::Pos { relation: "E".into(), terms: vec![v(0), Term::Const(2)] },
                    Literal::Pos { relation: "E".into(), terms: vec![Term::Const(2), v(0)] },
                ],
            ));
        let result = program.run(&s, Semantics::Inflationary, usize::MAX).unwrap();
        assert_eq!(result.relation("Loop").unwrap().sorted_tuples(), vec![vec![0]]);
        assert_eq!(result.relation("Hub").unwrap().sorted_tuples(), vec![vec![0]]);
    }

    #[test]
    fn partial_fixpoint_reaches_stable_state() {
        // Partial fixpoint of the transitive-closure rules also converges
        // (each step recomputes a larger relation until stable).
        let result = transitive_closure().run(&path(), Semantics::Partial, 100).unwrap();
        assert_eq!(result.relation("T").unwrap().len(), 6);
    }

    #[test]
    fn partial_fixpoint_detects_divergence() {
        // Flip(x) <- Node(x), not Flip(x): oscillates, never converges.
        let mut s = Structure::new(2);
        s.insert("Node", &[0]);
        let program = Program::new("Flip").rule(Rule::new(
            "Flip",
            vec![v(0)],
            vec![
                Literal::Pos { relation: "Node".into(), terms: vec![v(0)] },
                Literal::Neg { relation: "Flip".into(), terms: vec![v(0)] },
            ],
        ));
        assert!(program.run(&s, Semantics::Partial, 50).is_none());
        // The inflationary semantics of the same rules converges.
        assert!(program.run(&s, Semantics::Inflationary, usize::MAX).is_some());
    }

    #[test]
    #[should_panic]
    fn unsafe_rule_panics() {
        let program = Program::new("Bad").rule(Rule::new(
            "Bad",
            vec![v(7)],
            vec![Literal::Pos { relation: "E".into(), terms: vec![v(0), v(1)] }],
        ));
        let _ = program.eval_boolean(&path());
    }
}

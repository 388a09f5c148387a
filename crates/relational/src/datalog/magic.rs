//! Magic-set rewriting: goal-directed evaluation on top of the semi-naive
//! engine.
//!
//! Bottom-up evaluation derives *every* fact of every derived relation; a
//! goal atom such as `Reach(17, y)` only needs the facts reachable from the
//! binding `17`. The classical cure is the magic-set transformation: adorn
//! each derived relation with a bound/free pattern per argument position,
//! thread the bindings through rule bodies left to right (sideways
//! information passing), and guard every adorned rule with a *magic*
//! predicate holding exactly the bindings that are actually demanded. The
//! rewritten program is ordinary Datalog, so the existing delta-driven
//! engine runs it unchanged — the rewrite buys demand-driven behaviour
//! without a second evaluator.
//!
//! # Scope and fallback
//!
//! The rewrite is *exact* on the fragment it accepts and refuses everything
//! else up front ([`rewrite`] returns a [`FallbackReason`]); the caller
//! ([`Program::run_goal`]) then answers the goal through the untouched
//! bottom-up path, so a fallback can reorder nothing and break nothing:
//!
//! * **Partial fixpoint** re-computes derived relations from scratch every
//!   round; restricting derivations changes the per-round states and hence
//!   possibly the fixpoint, so partial semantics always falls back.
//! * **Inflationary** programs are rewritten only when every negative and
//!   counting literal reads a *base* relation. Such programs are monotone in
//!   the derived relations, their inflationary fixpoint is the least
//!   fixpoint, and the standard magic correctness theorem applies. A
//!   negation or count over a derived relation makes intermediate states
//!   observable and falls back.
//! * **Stratified** programs are rewritten when the original stratifies
//!   (otherwise evaluation must keep panicking exactly like [`Program::run`])
//!   *and* the rewritten program stratifies too. Negated and counted derived
//!   relations are *not* adorned: restricting them by demand would read a
//!   partial complement, and routing demand through negation is what makes
//!   naive magic rewrites unstratifiable. Instead their original rules (and
//!   transitively everything those depend on) ride along verbatim, so a
//!   stratum boundary below the adorned rules computes exactly the bottom-up
//!   value before it is read negatively or counted. Demand pruning applies
//!   to the positive part reachable from the goal — which is where bound
//!   arguments restrict anything in the first place.
//! * Rules that are not statically range-restricted fall back, so the
//!   engine's deferred unsafe-rule panics fire (or stay latent) exactly as
//!   they would bottom-up. Goal constants outside the input domain, arity
//!   mismatches between a goal and its relation, and relation names that
//!   collide with the rewrite's `@` mangling all fall back the same way.
//!
//! `tests/demand_equivalence.rs` proves `run_goal` bit-for-bit equal to
//! `run` + goal lookup on the query library and on random template programs
//! (including programs built to be rejected into the fallback); DESIGN.md,
//! "Demand-driven evaluation" documents the transformation.

use super::{Literal, Program, Rule, Semantics};
use crate::fo::Term;
use crate::structure::Structure;
use std::collections::{HashMap, HashSet, VecDeque};

/// A goal atom: the tuple pattern the caller wants answered. `Const`
/// positions are bound (the rewrite seeds demand with them), `Var` positions
/// are free; a repeated variable additionally constrains matching tuples to
/// be equal at those positions (enforced by [`Goal::matches`], not by the
/// rewrite, which conservatively treats repeated variables as free).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Goal {
    /// Relation the goal asks about.
    pub relation: String,
    /// One term per argument position.
    pub terms: Vec<Term>,
}

impl Goal {
    /// A goal over `relation` with the given terms.
    pub fn new(relation: &str, terms: Vec<Term>) -> Self {
        Goal { relation: relation.to_string(), terms }
    }

    /// The Boolean goal `relation()` — the shape of every query-library
    /// program's `Answer` atom.
    pub fn nullary(relation: &str) -> Self {
        Goal::new(relation, Vec::new())
    }

    /// The fully free goal `relation(x0, …, xk-1)`: every tuple is an answer.
    pub fn all_free(relation: &str, arity: usize) -> Self {
        Goal::new(relation, (0..arity as u32).map(Term::Var).collect())
    }

    /// Does `tuple` match the goal pattern? Checks length, constant
    /// positions, and repeated-variable consistency.
    pub fn matches(&self, tuple: &[u32]) -> bool {
        if tuple.len() != self.terms.len() {
            return false;
        }
        let mut binding: HashMap<u32, u32> = HashMap::new();
        for (term, &value) in self.terms.iter().zip(tuple) {
            match term {
                Term::Const(c) => {
                    if *c != value {
                        return false;
                    }
                }
                Term::Var(v) => {
                    if *binding.entry(*v).or_insert(value) != value {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Why [`rewrite`] refused a (program, goal, semantics) triple. Every
/// variant routes [`Program::run_goal`] through the bottom-up path, so a
/// fallback is a performance statement, never a correctness one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallbackReason {
    /// Partial-fixpoint semantics observes intermediate states; restricting
    /// derivations would change them.
    PartialSemantics,
    /// Inflationary program with a negation or count over a derived
    /// relation: not monotone, intermediate states are observable.
    NonMonotoneInflationary,
    /// The original program does not stratify; the fallback reproduces the
    /// engine's stratification panic verbatim.
    UnstratifiableInput,
    /// The rewritten program does not stratify, so the classical soundness
    /// condition for magic sets with stratified negation fails.
    UnstratifiableRewrite,
    /// Some rule is not statically range-restricted; the engine's deferred
    /// unsafe-rule behaviour must be preserved exactly.
    UnsafeRule,
    /// A relation name contains `@`, which the rewrite reserves for its
    /// adorned / magic name mangling.
    NameClash,
    /// A derived relation has rules with different head arities (bottom-up
    /// evaluation panics on insertion; the fallback reproduces that).
    InconsistentArity,
    /// The goal's arity differs from its relation's head arity.
    GoalArityMismatch,
    /// The goal relation is not derived by the program; there is nothing to
    /// restrict.
    EdbGoal,
    /// A goal constant lies outside the input domain; the magic seed could
    /// not even be inserted.
    GoalOutOfDomain,
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            FallbackReason::PartialSemantics => "partial-fixpoint semantics",
            FallbackReason::NonMonotoneInflationary => {
                "inflationary negation/count over a derived relation"
            }
            FallbackReason::UnstratifiableInput => "original program is not stratifiable",
            FallbackReason::UnstratifiableRewrite => "rewritten program is not stratifiable",
            FallbackReason::UnsafeRule => "rule is not statically range-restricted",
            FallbackReason::NameClash => "relation name contains the reserved '@'",
            FallbackReason::InconsistentArity => "derived relation with inconsistent head arities",
            FallbackReason::GoalArityMismatch => "goal arity differs from the relation's",
            FallbackReason::EdbGoal => "goal relation is not derived by the program",
            FallbackReason::GoalOutOfDomain => "goal constant outside the input domain",
        };
        f.write_str(msg)
    }
}

/// The result of a successful magic-set rewrite: the transformed program
/// (its `output` is the adorned goal relation) plus the adorned relation
/// name to read answers from.
#[derive(Clone, Debug)]
pub struct MagicProgram {
    /// The rewritten program; run it with the same semantics the rewrite was
    /// asked about.
    pub program: Program,
    /// Adorned copy of the goal relation holding exactly the demanded facts.
    pub goal_relation: String,
}

/// The tuples of `relation` in `result` that match `goal`, sorted. A missing
/// relation yields no answers (the bottom-up engine only interns relations
/// the program references).
pub fn goal_answers(result: &Structure, relation: &str, goal: &Goal) -> Vec<Vec<u32>> {
    match result.relation(relation) {
        Some(rel) => rel.sorted_tuples().into_iter().filter(|t| goal.matches(t)).collect(),
        None => Vec::new(),
    }
}

/// An adornment: one bound/free flag per argument position.
type Adornment = Vec<bool>;

fn adornment_suffix(ad: &Adornment) -> String {
    ad.iter().map(|&b| if b { 'b' } else { 'f' }).collect()
}

/// `R` adorned with `ad` becomes `R@bf…`; its magic predicate is `m@R@bf…`
/// (arity = number of bound positions). Original names are checked to be
/// `@`-free, so the mangled names cannot collide with anything.
fn adorned_name(relation: &str, ad: &Adornment) -> String {
    format!("{relation}@{}", adornment_suffix(ad))
}

fn magic_name(relation: &str, ad: &Adornment) -> String {
    format!("m@{relation}@{}", adornment_suffix(ad))
}

fn term_vars(terms: &[Term]) -> impl Iterator<Item = u32> + '_ {
    terms.iter().filter_map(|t| match t {
        Term::Var(v) => Some(*v),
        Term::Const(_) => None,
    })
}

/// The adornment of an atom given the variables bound so far: constants and
/// already-bound variables are bound positions.
fn adorn(terms: &[Term], bound: &HashSet<u32>) -> Adornment {
    terms
        .iter()
        .map(|t| match t {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains(v),
        })
        .collect()
}

fn bound_terms(terms: &[Term], ad: &Adornment) -> Vec<Term> {
    terms.iter().zip(ad).filter(|(_, &b)| b).map(|(t, _)| *t).collect()
}

/// Mirrors the engine's range-restriction rules statically: positive atoms
/// bind their variables; negative literals, comparisons and the non-counted
/// variables of a counting atom must already be bound; counted variables
/// must occur in the counted atom; a count result binds if free; counted
/// variables do not stay bound past their literal; every head variable must
/// be bound by the body. A rule the engine might reject at runtime is never
/// rewritten — the fallback preserves the deferred panic behaviour exactly.
fn rule_statically_safe(rule: &Rule) -> bool {
    let mut bound: HashSet<u32> = HashSet::new();
    for literal in &rule.body {
        match literal {
            Literal::Pos { terms, .. } => bound.extend(term_vars(terms)),
            Literal::Neg { terms, .. } => {
                if term_vars(terms).any(|v| !bound.contains(&v)) {
                    return false;
                }
            }
            Literal::Eq(a, b) | Literal::Neq(a, b) => {
                for t in [a, b] {
                    if let Term::Var(v) = t {
                        if !bound.contains(v) {
                            return false;
                        }
                    }
                }
            }
            Literal::Count { terms, counted, result, .. } => {
                let atom_vars: HashSet<u32> = term_vars(terms).collect();
                if counted.iter().any(|c| !atom_vars.contains(c)) {
                    return false;
                }
                if atom_vars.iter().any(|v| !counted.contains(v) && !bound.contains(v)) {
                    return false;
                }
                if let Term::Var(v) = result {
                    bound.insert(*v);
                }
            }
        }
    }
    term_vars(&rule.head_terms).all(|v| bound.contains(&v))
}

/// Every relation name the program mentions (heads and body atoms).
fn mentioned_relations(program: &Program) -> HashSet<&str> {
    let mut out: HashSet<&str> = HashSet::new();
    for rule in &program.rules {
        out.insert(rule.head_relation.as_str());
        for literal in &rule.body {
            match literal {
                Literal::Pos { relation, .. }
                | Literal::Neg { relation, .. }
                | Literal::Count { relation, .. } => {
                    out.insert(relation.as_str());
                }
                Literal::Eq(..) | Literal::Neq(..) => {}
            }
        }
    }
    out
}

/// Computes the magic-set rewrite of `program` for `goal` under `semantics`,
/// or the [`FallbackReason`] routing the caller to bottom-up evaluation.
/// The rewritten program derives, for every demanded (relation, adornment)
/// pair, an adorned copy guarded by a magic predicate; running it under the
/// same semantics and reading [`MagicProgram::goal_relation`] yields exactly
/// the goal-matching tuples the original program derives into the goal
/// relation.
pub fn rewrite(
    program: &Program,
    goal: &Goal,
    semantics: Semantics,
) -> Result<MagicProgram, FallbackReason> {
    if semantics == Semantics::Partial {
        return Err(FallbackReason::PartialSemantics);
    }
    let derived = program.derived_relations();
    if !derived.contains(goal.relation.as_str()) {
        return Err(FallbackReason::EdbGoal);
    }
    if mentioned_relations(program).iter().any(|name| name.contains('@')) {
        return Err(FallbackReason::NameClash);
    }
    // One arity per derived relation, or bottom-up insertion panics and the
    // fallback must reproduce that.
    let mut arity: HashMap<&str, usize> = HashMap::new();
    for rule in &program.rules {
        let entry = arity.entry(rule.head_relation.as_str()).or_insert(rule.head_terms.len());
        if *entry != rule.head_terms.len() {
            return Err(FallbackReason::InconsistentArity);
        }
    }
    if arity[goal.relation.as_str()] != goal.terms.len() {
        return Err(FallbackReason::GoalArityMismatch);
    }
    if !program.rules.iter().all(rule_statically_safe) {
        return Err(FallbackReason::UnsafeRule);
    }
    match semantics {
        Semantics::Inflationary => {
            let non_monotone = program.rules.iter().flat_map(|r| &r.body).any(|l| match l {
                Literal::Neg { relation, .. } | Literal::Count { relation, .. } => {
                    derived.contains(relation.as_str())
                }
                _ => false,
            });
            if non_monotone {
                return Err(FallbackReason::NonMonotoneInflationary);
            }
        }
        Semantics::Stratified => {
            if !program.is_stratifiable() {
                return Err(FallbackReason::UnstratifiableInput);
            }
        }
        Semantics::Partial => unreachable!("rejected above"),
    }

    // Demand-driven adornment pass: start from the goal's adornment and
    // thread bindings through each rule body left to right, emitting one
    // magic (demand) rule per derived body atom and enqueueing its
    // adornment.
    let goal_ad = adorn(&goal.terms, &HashSet::new());
    let goal_relation = adorned_name(&goal.relation, &goal_ad);
    let mut rules: Vec<Rule> = Vec::new();
    // The seed: the goal's own bindings are demanded unconditionally. An
    // empty body derives in round 0; with no bound positions this is a
    // nullary magic fact.
    rules.push(Rule::new(
        &magic_name(&goal.relation, &goal_ad),
        bound_terms(&goal.terms, &goal_ad),
        Vec::new(),
    ));
    let mut queue: VecDeque<(String, Adornment)> = VecDeque::new();
    let mut seen: HashSet<(String, Adornment)> = HashSet::new();
    // Derived relations read under negation or counting: carried over with
    // their original rules instead of adorned copies.
    let mut full_queue: VecDeque<String> = VecDeque::new();
    let mut full_seen: HashSet<String> = HashSet::new();
    queue.push_back((goal.relation.clone(), goal_ad));
    seen.insert(queue[0].clone());
    while let Some((relation, ad)) = queue.pop_front() {
        let magic = magic_name(&relation, &ad);
        let adorned = adorned_name(&relation, &ad);
        for rule in program.rules.iter().filter(|r| r.head_relation == relation) {
            // Head variables at bound positions arrive through the magic
            // guard; body bindings accumulate left to right from there.
            let guard_terms = bound_terms(&rule.head_terms, &ad);
            let mut bound: HashSet<u32> = term_vars(&guard_terms).collect();
            let mut body: Vec<Literal> =
                vec![Literal::Pos { relation: magic.clone(), terms: guard_terms }];
            let mut demand = |rel: &str, terms: &[Term], bound: &HashSet<u32>, body: &[Literal]| {
                let ad2 = adorn(terms, bound);
                rules.push(Rule::new(
                    &magic_name(rel, &ad2),
                    bound_terms(terms, &ad2),
                    body.to_vec(),
                ));
                let key = (rel.to_string(), ad2.clone());
                if seen.insert(key.clone()) {
                    queue.push_back(key);
                }
                adorned_name(rel, &ad2)
            };
            for literal in &rule.body {
                match literal {
                    Literal::Pos { relation: rel, terms } => {
                        if derived.contains(rel.as_str()) {
                            let name = demand(rel, terms, &bound, &body);
                            body.push(Literal::Pos { relation: name, terms: terms.clone() });
                        } else {
                            body.push(literal.clone());
                        }
                        bound.extend(term_vars(terms));
                    }
                    Literal::Neg { relation: rel, .. } => {
                        // A negated derived relation keeps its original
                        // (unrestricted) definition: restricting it by
                        // demand would test against a partial complement,
                        // and magic rules threading demand *through* a
                        // negation are the classical source of
                        // unstratifiable rewrites.
                        if derived.contains(rel.as_str()) && full_seen.insert(rel.clone()) {
                            full_queue.push_back(rel.clone());
                        }
                        body.push(literal.clone());
                    }
                    Literal::Eq(..) | Literal::Neq(..) => body.push(literal.clone()),
                    Literal::Count { relation: rel, result, .. } => {
                        // Counted derived relations likewise stay original:
                        // a count over a demand-restricted copy would
                        // undercount.
                        if derived.contains(rel.as_str()) && full_seen.insert(rel.clone()) {
                            full_queue.push_back(rel.clone());
                        }
                        body.push(literal.clone());
                        if let Term::Var(v) = result {
                            bound.insert(*v);
                        }
                    }
                }
            }
            rules.push(Rule {
                head_relation: adorned.clone(),
                head_terms: rule.head_terms.clone(),
                body,
            });
        }
    }

    // Pull in the full bottom-up definitions of every negated / counted
    // derived relation, transitively: these rules are copied verbatim, so
    // that cluster computes round for round what the original program
    // computes, and the stratifiability check below places it under the
    // adorned rules that read it. (Only reachable under stratified
    // semantics — the inflationary gate already rejected derived negation
    // and counting.)
    while let Some(relation) = full_queue.pop_front() {
        for rule in program.rules.iter().filter(|r| r.head_relation == relation) {
            for literal in &rule.body {
                if let Literal::Pos { relation: rel, .. }
                | Literal::Neg { relation: rel, .. }
                | Literal::Count { relation: rel, .. } = literal
                {
                    if derived.contains(rel.as_str()) && full_seen.insert(rel.clone()) {
                        full_queue.push_back(rel.clone());
                    }
                }
            }
            rules.push(rule.clone());
        }
    }

    let rewritten = Program { rules, output: goal_relation.clone(), goal: None };
    if semantics == Semantics::Stratified && !rewritten.is_stratifiable() {
        return Err(FallbackReason::UnstratifiableRewrite);
    }
    Ok(MagicProgram { program: rewritten, goal_relation })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Term {
        Term::Var(i)
    }

    fn pos(relation: &str, terms: Vec<Term>) -> Literal {
        Literal::Pos { relation: relation.to_string(), terms }
    }

    /// Transitive closure over `E`.
    fn tc() -> Program {
        Program::new("T")
            .rule(Rule::new("T", vec![v(0), v(1)], vec![pos("E", vec![v(0), v(1)])]))
            .rule(Rule::new(
                "T",
                vec![v(0), v(2)],
                vec![pos("T", vec![v(0), v(1)]), pos("E", vec![v(1), v(2)])],
            ))
    }

    fn long_path(n: u32) -> Structure {
        let mut s = Structure::new(n as usize);
        for i in 0..n - 1 {
            s.insert("E", &[i, i + 1]);
        }
        s
    }

    #[test]
    fn goal_matching() {
        let g = Goal::new("R", vec![Term::Const(3), v(0), v(0)]);
        assert!(g.matches(&[3, 5, 5]));
        assert!(!g.matches(&[2, 5, 5]));
        assert!(!g.matches(&[3, 5, 6]));
        assert!(!g.matches(&[3, 5]));
    }

    #[test]
    fn bound_goal_restricts_derivation() {
        // Reachability from one source on a long path: the rewritten program
        // derives O(n) adorned facts where bottom-up T holds O(n²).
        let input = long_path(64);
        let goal = Goal::new("T", vec![Term::Const(0), v(0)]);
        let magic = rewrite(&tc(), &goal, Semantics::Inflationary).expect("rewrite accepted");
        let result = magic.program.run(&input, Semantics::Inflationary, usize::MAX).unwrap();
        let answers = goal_answers(&result, &magic.goal_relation, &goal);
        assert_eq!(answers.len(), 63);
        // Demand never leaves source 0, so the adorned copy stays linear.
        let adorned = result.relation(&magic.goal_relation).unwrap().len();
        assert_eq!(adorned, 63);
        let full = tc().run(&input, Semantics::Inflationary, usize::MAX).unwrap();
        assert_eq!(full.relation("T").unwrap().len(), 63 * 64 / 2);
        assert_eq!(goal_answers(&full, "T", &goal), answers);
    }

    #[test]
    fn fallback_reasons() {
        let goal = Goal::all_free("T", 2);
        assert!(matches!(
            rewrite(&tc(), &goal, Semantics::Partial),
            Err(FallbackReason::PartialSemantics)
        ));
        assert!(matches!(
            rewrite(&tc(), &Goal::nullary("E"), Semantics::Stratified),
            Err(FallbackReason::EdbGoal)
        ));
        assert!(matches!(
            rewrite(&tc(), &Goal::nullary("T"), Semantics::Stratified),
            Err(FallbackReason::GoalArityMismatch)
        ));
        let unsafe_rule = Program::new("B").rule(Rule::new("B", vec![v(7)], vec![]));
        assert!(matches!(
            rewrite(&unsafe_rule, &Goal::all_free("B", 1), Semantics::Stratified),
            Err(FallbackReason::UnsafeRule)
        ));
        let non_monotone = tc().rule(Rule::new(
            "Iso",
            vec![v(0)],
            vec![
                pos("E", vec![v(0), v(1)]),
                Literal::Neg { relation: "T".into(), terms: vec![v(0), v(1)] },
            ],
        ));
        assert!(matches!(
            rewrite(&non_monotone, &Goal::all_free("Iso", 1), Semantics::Inflationary),
            Err(FallbackReason::NonMonotoneInflationary)
        ));
        // The same program stratifies, so the stratified rewrite accepts it.
        assert!(rewrite(&non_monotone, &Goal::all_free("Iso", 1), Semantics::Stratified).is_ok());
    }

    #[test]
    fn stratified_negation_through_demand() {
        // Unreachable(x) ← Node(x), ¬T(0, x): the negated derived relation
        // rides along with its full bottom-up definition and the rewrite
        // stays stratified.
        let mut input = long_path(6);
        for i in 0..6u32 {
            input.insert("Node", &[i]);
        }
        input.insert("E", &[4, 2]); // extra edge; 5 stays reachable via path
        let program = tc().rule(Rule::new(
            "Unreachable",
            vec![v(0)],
            vec![
                pos("Node", vec![v(0)]),
                Literal::Neg { relation: "T".into(), terms: vec![Term::Const(0), v(0)] },
            ],
        ));
        let goal = Goal::all_free("Unreachable", 1);
        let magic = rewrite(&program, &goal, Semantics::Stratified).expect("rewrite accepted");
        let result = magic.program.run(&input, Semantics::Stratified, usize::MAX).unwrap();
        let bottom_up = program.run(&input, Semantics::Stratified, usize::MAX).unwrap();
        assert_eq!(
            goal_answers(&result, &magic.goal_relation, &goal),
            goal_answers(&bottom_up, "Unreachable", &goal),
        );
        assert_eq!(goal_answers(&result, &magic.goal_relation, &goal), vec![vec![0]]);
    }
}

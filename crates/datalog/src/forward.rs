//! Bottom-up (forward-chaining) evaluation.
//!
//! [`forward_closure`] runs **semi-naive** evaluation of a compiled
//! [`Program`]: round 0 pivots every rule on the seed, and a later round
//! pivots only the multi-atom rules on the triples the round before
//! derived (the *delta*). The one-atom rules, closed under composition,
//! are applied to every product as it is emitted, and each transitive
//! rule is evaluated by an operator that closes its property in the
//! round that meets the edges (see [`program`](crate::program)). Every
//! engine path — these rounds, an INSERT's delta closure and the parallel
//! frozen rounds — runs the same program, a rule by its compiled join
//! plans ([`apply_rule_delta`]). [`naive_closure`] re-derives everything
//! every round from the uncomposed rules with a join of its own, and
//! exists purely as the oracle the program is checked against.
//!
//! The delta-aware entry point [`forward_closure_delta`] is what the
//! parallel reasoner's rounds use: a worker whose store is already closed
//! receives a batch of foreign triples, inserts them, and only needs to
//! propagate consequences of that batch. Every consequence lands in the
//! store's hash overlay, so over a store whose bulk is frozen
//! ([`TripleStore::adopt`]) a delta costs O(delta + consequences) however
//! large the base is.

use crate::ast::{Bindings, Rule};
use crate::plan::Step;
use crate::program::{Program, Round};
use owlpar_rdf::{NodeId, Triple, TripleSource, TripleStore};

/// Compute the closure of `store` under `program`. Returns the number of
/// derived (new) triples. Semi-naive: cost proportional to work actually
/// producing new facts.
pub fn forward_closure(store: &mut TripleStore, program: &Program) -> usize {
    let seed: Vec<Triple> = store.iter().collect();
    run_rounds(store, program, seed, true).len()
}

/// `store` is assumed closed under `program` except that the triples in
/// `delta` were just inserted. Derives all consequences, inserts them, and
/// returns them (cascades included).
///
/// Precondition: every triple of `delta` is already present in `store`.
pub fn forward_closure_delta(
    store: &mut TripleStore,
    program: &Program,
    delta: Vec<Triple>,
) -> Vec<Triple> {
    debug_assert!(delta.iter().all(|t| store.contains(t)));
    run_rounds(store, program, delta, false)
}

/// Naive evaluation: every round applies every rule to the whole store.
/// Produces the same closure as [`forward_closure`], but shares none of
/// its join: no plan, no exact-match reliance — a binding frame of
/// options, the next atom chosen per match, every position of every
/// match unified. That independence is what makes it the oracle the
/// compiled plans are tested against; no engine path calls it.
pub fn naive_closure(store: &mut TripleStore, rules: &[Rule]) -> usize {
    let mut derived_total = 0;
    loop {
        let mut new: Vec<Triple> = Vec::new();
        for rule in rules {
            let mut bindings = rule.empty_bindings();
            let mut remaining: Vec<usize> = (0..rule.body.len()).collect();
            join_remaining(&*store, rule, &mut remaining, &mut bindings, &mut |t| {
                new.push(t)
            });
        }
        let mut added = 0;
        for t in new {
            if store.insert(t) {
                added += 1;
            }
        }
        if added == 0 {
            return derived_total;
        }
        derived_total += added;
    }
}

/// The rounds from `seed`; `whole` when the seed is all of `store`.
fn run_rounds(
    store: &mut TripleStore,
    program: &Program,
    seed: Vec<Triple>,
    whole: bool,
) -> Vec<Triple> {
    let mut all_derived: Vec<Triple> = Vec::new();
    let mut delta_store: TripleStore = seed.into_iter().collect();
    // What each operator emitted the round before.
    let mut closed: Vec<Vec<Triple>> = vec![Vec::new(); program.operators()];
    let mut round = Round::Seed { whole };
    while !delta_store.is_empty() {
        let mut candidates: Vec<Triple> = Vec::new();
        program.pivot(&*store, &delta_store, round, &mut candidates);
        for (op, prev) in closed.iter_mut().enumerate() {
            *prev =
                program.close_transitive(op, &*store, &delta_store, round, prev, &mut candidates);
        }
        // Most candidates of a multi-atom rule are duplicates; deduping
        // here saves a 4-index hash probe per duplicate.
        candidates.sort_unstable();
        candidates.dedup();
        let mut next_delta = TripleStore::new();
        for t in candidates {
            if store.insert(t) {
                next_delta.insert(t);
                all_derived.push(t);
            }
        }
        delta_store = next_delta;
        round = Round::Delta;
    }
    all_derived
}

/// Fire `rule` requiring at least one body atom to match inside `delta`;
/// the remaining atoms are joined against the full `store`. Candidate head
/// instantiations are handed to `emit` (duplicates possible; the caller
/// dedupes).
///
/// Runs the first `pivots` of the rule's compiled join plans, plan `i`
/// matching body atom `i` inside `delta`: all of them
/// (`rule.body.len()`) in semi-naive evaluation. A `delta` that is the
/// whole of `store` needs only the first: every instantiation has all
/// its body atoms there, so `1` finds each once, where every atom as
/// pivot would find it once per atom. One dense frame of node ids serves
/// the whole call; a match writes only the variables its atom binds and
/// checks only a variable repeated inside that atom — the positions its
/// lookup fixed are exact ([`TripleSource`]). A one-atom rule skips the
/// frame: it is its pivot's block of rows projected into its head.
///
/// Generic over the store representation so the same join runs against a
/// two-layer [`TripleStore`] or a frozen base (the parallel engine shares
/// it across threads), and over the sink so that engine can drop a
/// duplicate head before it is ever stored.
pub(crate) fn apply_rule_delta<S, D>(
    store: &S,
    delta: &D,
    rule: &Rule,
    pivots: usize,
    emit: &mut impl FnMut(Triple),
) where
    S: TripleSource + ?Sized,
    D: TripleSource + ?Sized,
{
    let plans = rule.plans();
    let mut frame = plans.frame();
    for plan in plans.pivots().iter().take(pivots) {
        let Some((pivot, rest)) = plan.split_first() else {
            continue;
        };
        let pat = pivot.pattern(&frame);
        match plans.row_head() {
            Some(head) => delta.for_each_match(pat, |t| {
                if pivot.repeats(&t) {
                    emit(head.project(&t));
                }
            }),
            None => delta.for_each_match(pat, |t| {
                if pivot.bind(&t, &mut frame) {
                    join_plan(store, rest, &mut frame, &mut |frame| emit(plans.head(frame)));
                }
            }),
        }
    }
}

/// Match `steps` in order against `store`, each under the frame the
/// earlier ones filled, and call `done` with every complete frame.
fn join_plan<S>(store: &S, steps: &[Step], frame: &mut [NodeId], done: &mut impl FnMut(&[NodeId]))
where
    S: TripleSource + ?Sized,
{
    let Some((step, rest)) = steps.split_first() else {
        done(frame);
        return;
    };
    store.for_each_match(step.pattern(frame), |t| {
        if step.bind(&t, frame) {
            join_plan(store, rest, frame, done);
        }
    });
}

/// The oracle's join: recursively join the remaining body atoms against
/// `store`, most-bound atom first (greedy index selection), emitting
/// head instantiations.
///
/// Backtracking is push/pop on the shared `remaining` buffer and
/// bind/undo on the shared `bindings` frame: the chosen atom is
/// swap-removed before recursing and pushed back after, and each match
/// clears exactly the variables it bound — so no per-match allocation
/// happens anywhere on the join spine.
fn join_remaining<S>(
    store: &S,
    rule: &Rule,
    remaining: &mut Vec<usize>,
    bindings: &mut Bindings,
    emit: &mut impl FnMut(Triple),
) where
    S: TripleSource + ?Sized,
{
    if remaining.is_empty() {
        if let Some(t) = rule.head.instantiate(bindings) {
            emit(t);
        }
        return;
    }
    // Pick the atom with the most bound positions under current bindings:
    // the store lookup for it is cheapest.
    let Some((slot, _)) = remaining
        .iter()
        .enumerate()
        .max_by_key(|(_, &i)| rule.body[i].to_pattern(bindings).bound_count())
    else {
        return;
    };
    let atom_idx = remaining.swap_remove(slot);
    let atom = &rule.body[atom_idx];
    let pat = atom.to_pattern(bindings);
    store.for_each_match(pat, |t| {
        if let Some(undo) = atom.match_triple_in_place(&t, bindings) {
            join_remaining(store, rule, remaining, bindings, emit);
            undo.undo(bindings);
        }
    });
    remaining.push(atom_idx); // restore for the caller's other branches
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::ast::build::*;
    use crate::ast::Rule;
    use owlpar_rdf::NodeId;

    const P: u32 = 100; // transitive predicate
    const Q: u32 = 101;
    const TYPE: u32 = 102;
    const STUDENT: u32 = 103;
    const PERSON: u32 = 104;

    fn nid(i: u32) -> NodeId {
        NodeId(i)
    }

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(nid(s), nid(p), nid(o))
    }

    fn trans_rule(p: u32) -> Rule {
        Rule::new(
            "trans",
            atom(v(0), c(nid(p)), v(2)),
            vec![atom(v(0), c(nid(p)), v(1)), atom(v(1), c(nid(p)), v(2))],
        )
        .unwrap()
    }

    fn subclass_rule() -> Rule {
        Rule::new(
            "sc",
            atom(v(0), c(nid(TYPE)), c(nid(PERSON))),
            vec![atom(v(0), c(nid(TYPE)), c(nid(STUDENT)))],
        )
        .unwrap()
    }

    #[test]
    fn transitive_chain_closure() {
        // 0 -P-> 1 -P-> 2 -P-> 3  yields 3 derived triples
        let mut s: TripleStore = [t(0, P, 1), t(1, P, 2), t(2, P, 3)].into_iter().collect();
        let n = forward_closure(&mut s, &Program::compile(&[trans_rule(P)]));
        assert_eq!(n, 3);
        assert!(s.contains(&t(0, P, 2)));
        assert!(s.contains(&t(0, P, 3)));
        assert!(s.contains(&t(1, P, 3)));
    }

    /// A delta over a store whose bulk is frozen derives what it derives
    /// over a pure hash store, into the overlay alone.
    #[test]
    fn delta_closure_over_a_frozen_base_matches_the_hash_store() {
        let rules = [trans_rule(P), subclass_rule()];
        let mut closed: TripleStore = (0..30).map(|i| t(i, P, i + 1)).collect();
        closed.insert(t(3, TYPE, STUDENT));
        forward_closure(&mut closed, &Program::compile(&rules));

        let fresh = vec![t(31, P, 32), t(40, P, 0), t(9, TYPE, STUDENT)];
        let mut want = closed.clone();
        want.extend(fresh.iter().copied());
        let mut want_derived = forward_closure_delta(&mut want, &Program::compile(&rules), fresh.clone());

        let mut layered = closed.clone();
        layered.compact();
        let base = std::sync::Arc::clone(layered.base());
        layered.extend(fresh.iter().copied());
        let mut derived = forward_closure_delta(&mut layered, &Program::compile(&rules), fresh);
        want_derived.sort_unstable();
        derived.sort_unstable();
        assert_eq!(derived, want_derived);
        assert!(
            std::sync::Arc::ptr_eq(layered.base(), &base),
            "the base is untouched"
        );
        assert!(
            layered.overlay().all(|t| !base.contains(&t)),
            "overlay stays disjoint"
        );
        assert_eq!(layered.overlay_len(), 3 + derived.len());
        assert_eq!(layered.iter_sorted(), want.iter_sorted());
    }

    #[test]
    fn transitive_cycle_terminates() {
        let mut s: TripleStore = [t(0, P, 1), t(1, P, 2), t(2, P, 0)].into_iter().collect();
        forward_closure(&mut s, &Program::compile(&[trans_rule(P)]));
        // complete digraph on {0,1,2} including self loops
        assert_eq!(s.len(), 9);
    }

    #[test]
    fn single_atom_rule_fires() {
        let mut s: TripleStore = [t(7, TYPE, STUDENT)].into_iter().collect();
        let n = forward_closure(&mut s, &Program::compile(&[subclass_rule()]));
        assert_eq!(n, 1);
        assert!(s.contains(&t(7, TYPE, PERSON)));
    }

    #[test]
    fn cascading_rules_interact() {
        // q(x,y) -> p(x,y); p transitive
        let promote = Rule::new(
            "promote",
            atom(v(0), c(nid(P)), v(1)),
            vec![atom(v(0), c(nid(Q)), v(1))],
        )
        .unwrap();
        let mut s: TripleStore = [t(0, Q, 1), t(1, P, 2)].into_iter().collect();
        let n = forward_closure(&mut s, &Program::compile(&[promote, trans_rule(P)]));
        // derive p(0,1), then p(0,2)
        assert_eq!(n, 2);
        assert!(s.contains(&t(0, P, 2)));
    }

    #[test]
    fn closure_is_idempotent() {
        let mut s: TripleStore = [t(0, P, 1), t(1, P, 2)].into_iter().collect();
        let rules = [trans_rule(P)];
        let first = forward_closure(&mut s, &Program::compile(&rules));
        assert_eq!(first, 1);
        let second = forward_closure(&mut s, &Program::compile(&rules));
        assert_eq!(second, 0);
    }

    #[test]
    fn naive_matches_semi_naive() {
        let base = [t(0, P, 1), t(1, P, 2), t(2, P, 3), t(3, P, 4), t(9, TYPE, STUDENT)];
        let rules = [trans_rule(P), subclass_rule()];

        let mut a: TripleStore = base.into_iter().collect();
        forward_closure(&mut a, &Program::compile(&rules));
        let mut b: TripleStore = base.into_iter().collect();
        naive_closure(&mut b, &rules);

        assert_eq!(a.iter_sorted(), b.iter_sorted());
    }

    #[test]
    fn delta_closure_propagates_cascades() {
        let rules = [trans_rule(P)];
        let mut s: TripleStore = [t(0, P, 1), t(1, P, 2)].into_iter().collect();
        forward_closure(&mut s, &Program::compile(&rules));
        assert_eq!(s.len(), 3);

        // Now a foreign triple arrives linking 2 -> 3.
        let new = t(2, P, 3);
        s.insert(new);
        let derived = forward_closure_delta(&mut s, &Program::compile(&rules), vec![new]);
        let mut derived_sorted = derived.clone();
        derived_sorted.sort_unstable();
        assert_eq!(derived_sorted, vec![t(0, P, 3), t(1, P, 3)]);
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn delta_closure_noop_for_known_consequences() {
        let rules = [trans_rule(P)];
        let mut s: TripleStore = [t(0, P, 1), t(1, P, 2)].into_iter().collect();
        forward_closure(&mut s, &Program::compile(&rules));
        // Re-adding an existing triple as delta derives nothing new.
        let derived = forward_closure_delta(&mut s, &Program::compile(&rules), vec![t(0, P, 1)]);
        assert!(derived.is_empty());
    }

    #[test]
    fn three_atom_body_joins() {
        // r: p(x,y) q(y,z) p(z,w) -> q(x,w)  — exercises recursive join with 3 atoms
        let r = Rule::new(
            "three",
            atom(v(0), c(nid(Q)), v(3)),
            vec![
                atom(v(0), c(nid(P)), v(1)),
                atom(v(1), c(nid(Q)), v(2)),
                atom(v(2), c(nid(P)), v(3)),
            ],
        )
        .unwrap();
        let mut s: TripleStore = [t(0, P, 1), t(1, Q, 2), t(2, P, 3)].into_iter().collect();
        let n = forward_closure(&mut s, &Program::compile(&[r]));
        assert_eq!(n, 1);
        assert!(s.contains(&t(0, Q, 3)));
    }

    #[test]
    fn same_variable_twice_in_atom() {
        // reflexive detector: p(x,x) -> type(x, STUDENT)
        let r = Rule::new(
            "refl",
            atom(v(0), c(nid(TYPE)), c(nid(STUDENT))),
            vec![atom(v(0), c(nid(P)), v(0))],
        )
        .unwrap();
        let mut s: TripleStore = [t(1, P, 1), t(2, P, 3)].into_iter().collect();
        let n = forward_closure(&mut s, &Program::compile(&[r]));
        assert_eq!(n, 1);
        assert!(s.contains(&t(1, TYPE, STUDENT)));
        assert!(!s.contains(&t(2, TYPE, STUDENT)));
    }

    #[test]
    fn variable_predicate_rules() {
        // "every predicate used between typed things is symmetric"-style
        // rule with a variable in predicate position:
        // (?a ?p ?b) -> (?b ?p ?a) restricted by nothing (pure symmetry)
        let r = Rule::new(
            "sym_all",
            atom(v(2), v(1), v(0)),
            vec![atom(v(0), v(1), v(2))],
        )
        .unwrap();
        let mut s: TripleStore = [t(0, P, 1), t(5, Q, 6)].into_iter().collect();
        let n = forward_closure(&mut s, &Program::compile(&[r]));
        assert_eq!(n, 2);
        assert!(s.contains(&t(1, P, 0)));
        assert!(s.contains(&t(6, Q, 5)));
    }

    #[test]
    fn empty_store_closure_is_empty() {
        let mut s = TripleStore::new();
        assert_eq!(forward_closure(&mut s, &Program::compile(&[trans_rule(P)])), 0);
    }

    #[test]
    fn no_rules_closure_is_identity() {
        let mut s: TripleStore = [t(0, P, 1)].into_iter().collect();
        assert_eq!(forward_closure(&mut s, &Program::compile(&[])), 0);
        assert_eq!(s.len(), 1);
    }
}

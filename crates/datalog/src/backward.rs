//! Top-down (backward-chaining) evaluation with tabling — the Jena
//! hybrid-engine emulation.
//!
//! Jena materializes an OWL KB by issuing, for every resource, the query
//! *"all triples with this resource as subject"* against its SLD-resolution
//! LP engine (with tabling). The cost of this strategy is polynomial in the
//! number of resources — the very property the paper leans on to explain
//! its super-linear speedups (§VI-A). [`BackwardEngine::materialize`]
//! reproduces that strategy faithfully:
//!
//! * one goal `(r ?p ?o)` per resource,
//! * SLD resolution over the rule set with memoization (tabling) of
//!   intermediate goals and cycle cut-offs,
//! * repeated sweeps until a sweep derives nothing new (the sweep loop
//!   restores completeness that per-query tabling scopes give up).
//!
//! The [`TableScope`] knob (per-query / per-sweep / none) is the tabling
//! ablation axis.

use crate::ast::{Atom, Bindings, Rule, TermPat};
use owlpar_rdf::fx::{FxHashMap, FxHashSet};
use owlpar_rdf::{NodeId, Triple, TriplePattern, TripleStore};

/// How long tabled answers survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TableScope {
    /// Table cleared before every top-level query (Jena-like; the most
    /// expensive, most "worst-case polynomial" behaviour).
    #[default]
    PerQuery,
    /// Table cleared once per materialization sweep.
    PerSweep,
    /// No memoization at all; only cycle cut-offs. Exponential in the
    /// worst case — ablation use only.
    None,
}

/// Counters exposed for benchmarks and the performance model (Fig. 4).
#[derive(Debug, Default, Clone, Copy)]
pub struct BackwardStats {
    /// Top-level queries issued.
    pub queries: usize,
    /// Goals answered from the table.
    pub table_hits: usize,
    /// Goals expanded through rules.
    pub expansions: usize,
    /// Materialization sweeps performed.
    pub sweeps: usize,
}

/// A tabled SLD evaluator over a fixed rule set.
pub struct BackwardEngine<'r> {
    rules: &'r [Rule],
    scope: TableScope,
    table: FxHashMap<TriplePattern, Vec<Triple>>,
    in_progress: FxHashSet<TriplePattern>,
    last_inserted: Vec<Triple>,
    /// Evaluation counters (reset by [`BackwardEngine::reset_stats`]).
    pub stats: BackwardStats,
}

impl<'r> BackwardEngine<'r> {
    /// Create an engine over `rules` with the given tabling scope.
    pub fn new(rules: &'r [Rule], scope: TableScope) -> Self {
        BackwardEngine {
            rules,
            scope,
            table: FxHashMap::default(),
            in_progress: FxHashSet::default(),
            last_inserted: Vec::new(),
            stats: BackwardStats::default(),
        }
    }

    /// Zero the counters.
    pub fn reset_stats(&mut self) {
        self.stats = BackwardStats::default();
    }

    /// Answer a single goal against `store`. Answers include derived
    /// triples reachable under the engine's tabling scope; on a
    /// materialized store this is exactly the set of matching triples.
    pub fn query(&mut self, store: &TripleStore, pattern: TriplePattern) -> Vec<Triple> {
        if self.scope == TableScope::PerQuery {
            self.table.clear();
        }
        self.in_progress.clear();
        self.stats.queries += 1;
        self.solve(store, pattern)
    }

    /// Materialize `store`: per-resource queries, sweeping until fixpoint.
    /// Returns the number of derived triples.
    pub fn materialize(&mut self, store: &mut TripleStore) -> usize {
        let mut total = 0;
        loop {
            self.stats.sweeps += 1;
            self.table.clear();
            let subjects = self.query_subjects(store);
            let added = self.sweep(store, &subjects, false);
            total += added;
            if added == 0 {
                return total;
            }
        }
    }

    /// Jena-faithful materialization: for every resource the engine
    /// "creates kn triples, where each triple has the given resource as
    /// subject and each of the n triples as the object. It then tries to
    /// prove that the KB entails such a triple" (§VI-A). We enumerate the
    /// distinct (predicate, object) pairs of the KB as candidate goals for
    /// every resource and prove each ground goal — a Θ(resources ×
    /// triples) sweep — and additionally issue the open per-resource query
    /// so the closure stays exact. This is the cost profile behind the
    /// paper's worst-case-polynomial scaling and its super-linear
    /// partitioned speedups.
    pub fn materialize_jena(&mut self, store: &mut TripleStore) -> usize {
        let mut total = 0;
        loop {
            self.stats.sweeps += 1;
            self.table.clear();
            let subjects = self.query_subjects(store);
            let added = self.sweep(store, &subjects, true);
            total += added;
            if added == 0 {
                return total;
            }
        }
    }

    /// Incremental re-materialization after `delta` was inserted into an
    /// otherwise-closed `store`.
    ///
    /// **Requires every rule to be single-join** (the caller checks): a
    /// new derivation must consume at least one delta atom, so its head
    /// subject is a node of the delta or of a triple incident to the
    /// delta. Only that affected neighbourhood is re-queried, sweeping as
    /// the affected region grows. Returns the newly derived triples.
    pub fn materialize_delta(&mut self, store: &mut TripleStore, delta: &[Triple]) -> Vec<Triple> {
        let mut all_new: Vec<Triple> = Vec::new();
        let mut frontier: Vec<Triple> = delta.to_vec();
        loop {
            self.stats.sweeps += 1;
            self.table.clear();
            let affected = self.affected_resources(store, &frontier);
            let before = store.len();
            let added = self.sweep(store, &affected, false);
            if added == 0 {
                return all_new;
            }
            // the sweep inserted `added` triples; recover them for the
            // next frontier (sweep() records them via last_inserted)
            let _ = before;
            frontier = std::mem::take(&mut self.last_inserted);
            all_new.extend(frontier.iter().copied());
        }
    }

    /// [`BackwardEngine::materialize_delta`] with the Jena candidate-
    /// enumeration cost profile.
    pub fn materialize_delta_jena(
        &mut self,
        store: &mut TripleStore,
        delta: &[Triple],
    ) -> Vec<Triple> {
        let mut all_new: Vec<Triple> = Vec::new();
        let mut frontier: Vec<Triple> = delta.to_vec();
        loop {
            self.stats.sweeps += 1;
            self.table.clear();
            let affected = self.affected_resources(store, &frontier);
            let added = self.sweep(store, &affected, true);
            if added == 0 {
                return all_new;
            }
            frontier = std::mem::take(&mut self.last_inserted);
            all_new.extend(frontier.iter().copied());
        }
    }

    /// One materialization sweep over `resources`. Inserts what it
    /// derives, records the insertions in `self.last_inserted`, and
    /// returns their count. `jena` enables the candidate-enumeration cost
    /// model.
    fn sweep(&mut self, store: &mut TripleStore, resources: &[NodeId], jena: bool) -> usize {
        let mut collected: Vec<Triple> = Vec::new();
        // Distinct (predicate, object) pairs — "the n triples as object".
        let po_pairs: Vec<(NodeId, NodeId)> = if jena {
            let mut pairs: Vec<(NodeId, NodeId)> =
                store.iter().map(|t| (t.p, t.o)).collect();
            pairs.sort_unstable();
            pairs.dedup();
            pairs
        } else {
            Vec::new()
        };
        for &r in resources {
            if jena {
                // prove every candidate (r, p, o); tabling is scoped to
                // this resource's query exactly like a Jena goal table
                if self.scope == TableScope::PerQuery {
                    self.table.clear();
                }
                self.in_progress.clear();
                for &(p, o) in &po_pairs {
                    let ground = TriplePattern::new(Some(r), Some(p), Some(o));
                    let t = Triple::new(r, p, o);
                    if store.contains(&t) {
                        continue;
                    }
                    self.stats.queries += 1;
                    if !self.solve(store, ground).is_empty() {
                        collected.push(t);
                    }
                }
            }
            let pat = TriplePattern::new(Some(r), None, None);
            for t in self.query(store, pat) {
                if !store.contains(&t) {
                    collected.push(t);
                }
            }
        }
        self.last_inserted.clear();
        for t in collected {
            if store.insert(t) {
                self.last_inserted.push(t);
            }
        }
        self.last_inserted.len()
    }

    /// Resources whose per-subject query could yield something new after
    /// `frontier` was inserted: every node of a frontier triple plus every
    /// node sharing a triple with such a node (single-join reach), plus
    /// the constant head subjects.
    fn affected_resources(&self, store: &TripleStore, frontier: &[Triple]) -> Vec<NodeId> {
        let mut delta_nodes: FxHashSet<NodeId> = FxHashSet::default();
        for t in frontier {
            delta_nodes.insert(t.s);
            delta_nodes.insert(t.o);
            delta_nodes.insert(t.p); // predicates can be resources too
        }
        let mut affected = delta_nodes.clone();
        for &n in &delta_nodes {
            store.for_each_match(TriplePattern::new(Some(n), None, None), |t| {
                affected.insert(t.o);
            });
            store.for_each_match(TriplePattern::new(None, None, Some(n)), |t| {
                affected.insert(t.s);
            });
        }
        for r in self.rules {
            if let TermPat::Const(c) = r.head.s {
                affected.insert(c);
            }
        }
        let mut v: Vec<NodeId> = affected.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// The set of resources to issue per-resource queries for: every graph
    /// node, every predicate, and every constant subject of a rule head
    /// (sorted for determinism).
    fn query_subjects(&self, store: &TripleStore) -> Vec<NodeId> {
        let mut set = store.nodes();
        set.extend(store.predicates());
        for r in self.rules {
            if let TermPat::Const(c) = r.head.s {
                set.insert(c);
            }
        }
        let mut v: Vec<NodeId> = set.into_iter().collect();
        v.sort_unstable();
        v
    }

    fn solve(&mut self, store: &TripleStore, pat: TriplePattern) -> Vec<Triple> {
        if self.scope != TableScope::None {
            if let Some(ans) = self.table.get(&pat) {
                self.stats.table_hits += 1;
                return ans.clone();
            }
        }
        if !self.in_progress.insert(pat) {
            // Cycle: fall back to the facts currently in the store. The
            // sweep loop makes up for the lost derivations.
            return store.matches(pat);
        }
        self.stats.expansions += 1;

        let mut answers: FxHashSet<Triple> = store.matches(pat).into_iter().collect();
        loop {
            let before = answers.len();
            for ri in 0..self.rules.len() {
                let rule = &self.rules[ri];
                let mut bindings = rule.empty_bindings();
                if !bind_head(&rule.head, pat, &mut bindings) {
                    continue;
                }
                let mut derived: Vec<Triple> = Vec::new();
                self.solve_body(store, ri, 0, bindings, &mut derived);
                for t in derived {
                    if pat.matches(&t) {
                        answers.insert(t);
                    }
                }
            }
            if answers.len() == before {
                break;
            }
        }

        self.in_progress.remove(&pat);
        let mut out: Vec<Triple> = answers.into_iter().collect();
        out.sort_unstable();
        if self.scope != TableScope::None {
            self.table.insert(pat, out.clone());
        }
        out
    }

    fn solve_body(
        &mut self,
        store: &TripleStore,
        rule_idx: usize,
        atom_idx: usize,
        bindings: Bindings,
        out: &mut Vec<Triple>,
    ) {
        let rule = &self.rules[rule_idx];
        if atom_idx == rule.body.len() {
            if let Some(t) = rule.head.instantiate(&bindings) {
                out.push(t);
            }
            return;
        }
        let atom = rule.body[atom_idx];
        let subpat = atom.to_pattern(&bindings);
        let sub_answers = self.solve(store, subpat);
        for t in sub_answers {
            if let Some(b) = atom.match_triple(&t, &bindings) {
                self.solve_body(store, rule_idx, atom_idx + 1, b, out);
            }
        }
    }
}

/// Bind head variables from the goal pattern's constants. Returns `false`
/// if a head constant conflicts with the goal or the same variable would
/// need two different values.
fn bind_head(head: &Atom, pat: TriplePattern, bindings: &mut Bindings) -> bool {
    let pairs = [(head.s, pat.s), (head.p, pat.p), (head.o, pat.o)];
    for (hp, gp) in pairs {
        let Some(goal_const) = gp else { continue };
        match hp {
            TermPat::Const(c) => {
                if c != goal_const {
                    return false;
                }
            }
            TermPat::Var(v) => match bindings[v as usize] {
                None => bindings[v as usize] = Some(goal_const),
                Some(existing) => {
                    if existing != goal_const {
                        return false;
                    }
                }
            },
        }
    }
    true
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::ast::build::*;
    use crate::forward::forward_closure;

    const P: u32 = 100;
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

    fn assert_same_closure(base: &[Triple], rules: &[Rule], scope: TableScope) {
        let mut fwd: TripleStore = base.iter().copied().collect();
        forward_closure(&mut fwd, rules);

        let mut bwd: TripleStore = base.iter().copied().collect();
        let mut eng = BackwardEngine::new(rules, scope);
        eng.materialize(&mut bwd);

        assert_eq!(fwd.iter_sorted(), bwd.iter_sorted(), "scope {scope:?}");
    }

    #[test]
    fn query_answers_ground_goal() {
        let store: TripleStore = [t(0, P, 1)].into_iter().collect();
        let rules = [trans_rule(P)];
        let mut eng = BackwardEngine::new(&rules, TableScope::PerQuery);
        let pat = TriplePattern::new(Some(nid(0)), Some(nid(P)), Some(nid(1)));
        assert_eq!(eng.query(&store, pat), vec![t(0, P, 1)]);
    }

    #[test]
    fn query_derives_transitive_hop() {
        let store: TripleStore = [t(0, P, 1), t(1, P, 2)].into_iter().collect();
        let rules = [trans_rule(P)];
        let mut eng = BackwardEngine::new(&rules, TableScope::PerQuery);
        let ans = eng.query(&store, TriplePattern::new(Some(nid(0)), None, None));
        assert!(ans.contains(&t(0, P, 1)));
        assert!(ans.contains(&t(0, P, 2)));
    }

    #[test]
    fn materialize_matches_forward_on_chain() {
        let base = [t(0, P, 1), t(1, P, 2), t(2, P, 3), t(3, P, 4)];
        for scope in [TableScope::PerQuery, TableScope::PerSweep, TableScope::None] {
            assert_same_closure(&base, &[trans_rule(P)], scope);
        }
    }

    #[test]
    fn materialize_matches_forward_on_cycle() {
        let base = [t(0, P, 1), t(1, P, 2), t(2, P, 0)];
        for scope in [TableScope::PerQuery, TableScope::PerSweep, TableScope::None] {
            assert_same_closure(&base, &[trans_rule(P)], scope);
        }
    }

    #[test]
    fn materialize_matches_forward_multi_rule() {
        // promote q into p, p transitive, plus a typing rule
        let promote = Rule::new(
            "promote",
            atom(v(0), c(nid(P)), v(1)),
            vec![atom(v(0), c(nid(Q)), v(1))],
        )
        .unwrap();
        let base = [t(0, Q, 1), t(1, P, 2), t(2, P, 3), t(5, TYPE, STUDENT)];
        let rules = [promote, trans_rule(P), subclass_rule()];
        for scope in [TableScope::PerQuery, TableScope::PerSweep] {
            assert_same_closure(&base, &rules, scope);
        }
    }

    #[test]
    fn materialize_handles_variable_predicates() {
        // full symmetry rule with variable predicate
        let sym = Rule::new(
            "sym_all",
            atom(v(2), v(1), v(0)),
            vec![atom(v(0), v(1), v(2))],
        )
        .unwrap();
        let base = [t(0, P, 1), t(2, Q, 3)];
        assert_same_closure(&base, &[sym], TableScope::PerQuery);
    }

    #[test]
    fn materialize_is_idempotent() {
        let rules = [trans_rule(P)];
        let mut s: TripleStore = [t(0, P, 1), t(1, P, 2)].into_iter().collect();
        let mut eng = BackwardEngine::new(&rules, TableScope::PerQuery);
        let first = eng.materialize(&mut s);
        assert_eq!(first, 1);
        let second = eng.materialize(&mut s);
        assert_eq!(second, 0);
    }

    #[test]
    fn stats_accumulate() {
        let rules = [trans_rule(P)];
        let mut s: TripleStore = [t(0, P, 1), t(1, P, 2)].into_iter().collect();
        let mut eng = BackwardEngine::new(&rules, TableScope::PerQuery);
        eng.materialize(&mut s);
        assert!(eng.stats.queries > 0);
        assert!(eng.stats.expansions > 0);
        assert!(eng.stats.sweeps >= 2); // final sweep derives nothing
        eng.reset_stats();
        assert_eq!(eng.stats.queries, 0);
    }

    #[test]
    fn per_sweep_tabling_hits_table() {
        let rules = [trans_rule(P)];
        let mut s: TripleStore = [t(0, P, 1), t(1, P, 2), t(2, P, 3)].into_iter().collect();
        let mut eng = BackwardEngine::new(&rules, TableScope::PerSweep);
        eng.materialize(&mut s);
        assert!(eng.stats.table_hits > 0);
    }

    #[test]
    fn constant_head_subject_rule() {
        // (x type STUDENT) -> (STUDENT type CLASS-ish marker) — head subject
        // constant never appears in the data beforehand.
        const MARKER: u32 = 999;
        let r = Rule::new(
            "marker",
            atom(c(nid(STUDENT)), c(nid(TYPE)), c(nid(MARKER))),
            vec![atom(v(0), c(nid(TYPE)), c(nid(STUDENT)))],
        )
        .unwrap();
        let base = [t(1, TYPE, STUDENT)];
        assert_same_closure(&base, &[r], TableScope::PerQuery);
    }

    #[test]
    fn jena_mode_matches_forward_closure() {
        let cases: Vec<Vec<Triple>> = vec![
            vec![t(0, P, 1), t(1, P, 2), t(2, P, 3)],
            vec![t(0, P, 1), t(1, P, 2), t(2, P, 0)], // cycle
            vec![t(5, TYPE, STUDENT), t(0, P, 1)],
        ];
        for base in cases {
            let rules = [trans_rule(P), subclass_rule()];
            let mut fwd: TripleStore = base.iter().copied().collect();
            forward_closure(&mut fwd, &rules);
            let mut jena: TripleStore = base.iter().copied().collect();
            let mut eng = BackwardEngine::new(&rules, TableScope::PerQuery);
            eng.materialize_jena(&mut jena);
            assert_eq!(fwd.iter_sorted(), jena.iter_sorted());
        }
    }

    #[test]
    fn jena_mode_issues_many_more_queries() {
        let base = [t(0, P, 1), t(1, P, 2), t(2, P, 3), t(3, P, 4)];
        let rules = [trans_rule(P)];
        let mut a: TripleStore = base.into_iter().collect();
        let mut plain = BackwardEngine::new(&rules, TableScope::PerQuery);
        plain.materialize(&mut a);
        let mut b: TripleStore = base.into_iter().collect();
        let mut jena = BackwardEngine::new(&rules, TableScope::PerQuery);
        jena.materialize_jena(&mut b);
        assert_eq!(a.iter_sorted(), b.iter_sorted());
        assert!(
            jena.stats.queries > plain.stats.queries * 3,
            "jena {} vs plain {}",
            jena.stats.queries,
            plain.stats.queries
        );
    }

    fn assert_delta_matches_scratch(base: &[Triple], delta: &[Triple], rules: &[Rule]) {
        // oracle: close everything from scratch
        let mut scratch: TripleStore = base.iter().chain(delta).copied().collect();
        BackwardEngine::new(rules, TableScope::PerQuery).materialize(&mut scratch);

        // system: close base, then add delta incrementally
        let mut inc: TripleStore = base.iter().copied().collect();
        let mut eng = BackwardEngine::new(rules, TableScope::PerQuery);
        eng.materialize(&mut inc);
        let mut fresh = Vec::new();
        for &d in delta {
            if inc.insert(d) {
                fresh.push(d);
            }
        }
        let derived = eng.materialize_delta(&mut inc, &fresh);
        assert_eq!(scratch.iter_sorted(), inc.iter_sorted());
        // and the returned list is exactly the difference beyond delta
        for d in derived {
            assert!(inc.contains(&d));
        }
    }

    #[test]
    fn delta_extends_transitive_chain_forward() {
        // base closed chain 0→1→2; delta adds 2→3
        assert_delta_matches_scratch(
            &[t(0, P, 1), t(1, P, 2)],
            &[t(2, P, 3)],
            &[trans_rule(P)],
        );
    }

    #[test]
    fn delta_extends_transitive_chain_backward() {
        // the in-neighbor case: base has z→a; delta adds a→b; derivation
        // (z,P,b) has subject z which is NOT a node of the delta
        assert_delta_matches_scratch(
            &[t(9, P, 10)],
            &[t(10, P, 11)],
            &[trans_rule(P)],
        );
    }

    #[test]
    fn delta_joins_two_closed_chains() {
        // two closed chains bridged by the delta: cascades both ways
        assert_delta_matches_scratch(
            &[t(0, P, 1), t(1, P, 2), t(10, P, 11), t(11, P, 12)],
            &[t(2, P, 10)],
            &[trans_rule(P)],
        );
    }

    #[test]
    fn delta_with_symmetric_rule() {
        let sym = Rule::new(
            "sym",
            atom(v(1), c(nid(P)), v(0)),
            vec![atom(v(0), c(nid(P)), v(1))],
        )
        .unwrap();
        assert_delta_matches_scratch(&[t(0, P, 1)], &[t(2, P, 3)], &[sym]);
    }

    #[test]
    fn delta_with_multiple_interacting_rules() {
        let promote = Rule::new(
            "promote",
            atom(v(0), c(nid(P)), v(1)),
            vec![atom(v(0), c(nid(Q)), v(1))],
        )
        .unwrap();
        assert_delta_matches_scratch(
            &[t(0, P, 1), t(1, P, 2)],
            &[t(2, Q, 3)], // becomes p(2,3), then cascades transitively
            &[promote, trans_rule(P)],
        );
    }

    #[test]
    fn delta_noop_when_consequences_known() {
        let rules = [trans_rule(P)];
        let mut s: TripleStore = [t(0, P, 1), t(1, P, 2)].into_iter().collect();
        let mut eng = BackwardEngine::new(&rules, TableScope::PerQuery);
        eng.materialize(&mut s);
        let derived = eng.materialize_delta(&mut s, &[t(0, P, 1)]);
        assert!(derived.is_empty());
    }

    #[test]
    fn delta_jena_matches_delta_plain() {
        let base = [t(0, P, 1), t(1, P, 2)];
        let delta = [t(2, P, 3)];
        let rules = [trans_rule(P)];

        let run = |jena: bool| -> Vec<Triple> {
            let mut s: TripleStore = base.iter().copied().collect();
            let mut eng = BackwardEngine::new(&rules, TableScope::PerQuery);
            eng.materialize(&mut s);
            for &d in &delta {
                s.insert(d);
            }
            if jena {
                eng.materialize_delta_jena(&mut s, &delta);
            } else {
                eng.materialize_delta(&mut s, &delta);
            }
            s.iter_sorted()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn empty_store_materializes_to_empty() {
        let rules = [trans_rule(P)];
        let mut s = TripleStore::new();
        let mut eng = BackwardEngine::new(&rules, TableScope::PerQuery);
        assert_eq!(eng.materialize(&mut s), 0);
        assert!(s.is_empty());
    }
}

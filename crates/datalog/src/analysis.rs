//! Static rule analysis.
//!
//! Two analyses from the paper:
//!
//! 1. **Single-join classification** (§II): a rule is *single-join* when
//!    its body has at most two atoms and, if two, the atoms share at least
//!    one variable. The paper's data-partitioning correctness argument
//!    rests on every OWL-Horst rule (bar one) being single-join: if both
//!    endpoints of every triple mentioning a resource live on that
//!    resource's owner, every possible join is locally evaluable.
//! 2. **Rule-dependency graph** (Algorithm 2): vertex per rule, edge
//!    `r1 → r2` when the head of `r1` may unify with a body atom of `r2`
//!    (a triple produced by `r1` can trigger `r2`). Optionally weighted by
//!    an estimate of how many triples `r1` will produce, taken from the
//!    dataset's predicate histogram.
//!
//! The routing question each partitioning asks of every triple — *where
//! must it be?* — is answered once for the whole rule-base: for data
//! partitioning by [`JoinMask`], the positions each predicate's triples
//! are joined on; for rule partitioning by [`ConsumerIndex`], the
//! partitions whose rule bodies can match it.

use crate::ast::{Atom, Rule, TermPat};
use owlpar_rdf::fx::FxHashMap;
use owlpar_rdf::NodeId;

/// Join-structure classification of a rule body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinClass {
    /// No body atoms at all. [`Rule::new`] rejects this, but `Rule`'s
    /// fields are public, so a hand-built rule can still carry an empty
    /// body; classify it explicitly instead of lumping it with multi-joins.
    EmptyBody,
    /// One body atom — no join at all.
    SingleAtom,
    /// Exactly two body atoms sharing at least one variable.
    SingleJoin {
        /// The shared (join) variables.
        join_vars: Vec<u16>,
    },
    /// Two atoms sharing no variable (a cross product).
    CrossProduct,
    /// Three or more body atoms.
    MultiJoin,
}

/// Classify a rule's body join structure.
pub fn classify(rule: &Rule) -> JoinClass {
    match rule.body.len() {
        0 => JoinClass::EmptyBody,
        1 => JoinClass::SingleAtom,
        2 => {
            let a = rule.body[0].variables();
            let b = rule.body[1].variables();
            let join_vars: Vec<u16> = a.into_iter().filter(|v| b.contains(v)).collect();
            if join_vars.is_empty() {
                JoinClass::CrossProduct
            } else {
                JoinClass::SingleJoin { join_vars }
            }
        }
        _ => JoinClass::MultiJoin,
    }
}

/// `true` iff the rule is evaluable under the paper's data-partitioning
/// scheme without communication beyond the ownership protocol (single atom
/// or single join; an empty body joins nothing and is trivially local).
pub fn is_single_join(rule: &Rule) -> bool {
    matches!(
        classify(rule),
        JoinClass::EmptyBody | JoinClass::SingleAtom | JoinClass::SingleJoin { .. }
    )
}

/// Which endpoint positions of a triple some rule joins on: a set over
/// {subject, object}. The predicate position is never an endpoint — see
/// [`JoinMask::unowned_joins`] for a join that lands there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JoinPositions(u8);

impl JoinPositions {
    /// No position joins.
    pub const NONE: JoinPositions = JoinPositions(0);
    /// The subject joins.
    pub const SUBJECT: JoinPositions = JoinPositions(1);
    /// The object joins.
    pub const OBJECT: JoinPositions = JoinPositions(2);
    /// Both endpoints join.
    pub const BOTH: JoinPositions = JoinPositions(3);

    /// Does the subject join?
    pub fn subject(self) -> bool {
        self.0 & 1 != 0
    }

    /// Does the object join?
    pub fn object(self) -> bool {
        self.0 & 2 != 0
    }

    /// Is any position joined?
    pub fn any(self) -> bool {
        self.0 != 0
    }

    /// Both sets together.
    pub fn union(self, other: JoinPositions) -> JoinPositions {
        JoinPositions(self.0 | other.0)
    }
}

/// The rule-base compiled into its join positions, per predicate: the
/// positions of a triple that some body of two or more atoms binds to a
/// variable another atom of the same body also uses. A triple must reach
/// the owner of a value at a join position for every join it can take
/// part in to be evaluable there; at any other position the value never
/// meets a second triple, so where the triple sits does not matter.
///
/// A body atom with a variable predicate could match any triple, so its
/// join positions are marked for every predicate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JoinMask {
    by_predicate: FxHashMap<NodeId, JoinPositions>,
    every: JoinPositions,
}

impl JoinMask {
    /// Compile `rules` into their join positions.
    pub fn of(rules: &[Rule]) -> JoinMask {
        let mut mask = JoinMask::default();
        for rule in rules.iter().filter(|r| r.body.len() >= 2) {
            for (i, atom) in rule.body.iter().enumerate() {
                let shared = |tp: TermPat| {
                    tp.as_var()
                        .is_some_and(|v| used_elsewhere(&rule.body, i, v))
                };
                let mut here = JoinPositions::NONE;
                if shared(atom.s) {
                    here = here.union(JoinPositions::SUBJECT);
                }
                if shared(atom.o) {
                    here = here.union(JoinPositions::OBJECT);
                }
                match atom.p {
                    TermPat::Const(p) => {
                        let slot = mask.by_predicate.entry(p).or_default();
                        *slot = slot.union(here);
                    }
                    TermPat::Var(_) => mask.every = mask.every.union(here),
                }
            }
        }
        mask
    }

    /// Every endpoint of every predicate joins: the paper's Algorithm 1,
    /// which replicates a triple on the owners of both endpoints whatever
    /// the rule-base.
    pub fn all() -> JoinMask {
        JoinMask {
            by_predicate: FxHashMap::default(),
            every: JoinPositions::BOTH,
        }
    }

    /// The join positions of a triple with predicate `p`.
    pub fn positions(&self, p: NodeId) -> JoinPositions {
        self.by_predicate
            .get(&p)
            .copied()
            .unwrap_or_default()
            .union(self.every)
    }

    /// The join positions of whatever triple an atom's predicate pattern
    /// can produce: a variable predicate may be any predicate.
    pub fn positions_of(&self, p: TermPat) -> JoinPositions {
        match p {
            TermPat::Const(p) => self.positions(p),
            TermPat::Var(_) => self
                .by_predicate
                .values()
                .fold(self.every, |acc, &m| acc.union(m)),
        }
    }

    /// Joins this mask cannot route: `(rule index, variable)` for every
    /// join variable of a two-or-more-atom body that some atom holds at a
    /// position no resource owner stands behind — the predicate position,
    /// or the object of an atom whose predicate is the constant
    /// `rdf_type` (a class, which data partitioning never owns). Both
    /// triples of such a join are placed and routed without regard to
    /// that value, so nothing brings them together.
    pub fn unowned_joins(rules: &[Rule], rdf_type: Option<NodeId>) -> Vec<(usize, u16)> {
        let mut out = Vec::new();
        for (r, rule) in rules.iter().enumerate() {
            if rule.body.len() < 2 {
                continue;
            }
            let mut vars: Vec<u16> = Vec::new();
            for (i, atom) in rule.body.iter().enumerate() {
                let is_type = matches!((atom.p, rdf_type), (TermPat::Const(p), Some(t)) if p == t);
                let unowned = [Some(atom.p), is_type.then_some(atom.o)];
                for v in unowned.into_iter().flatten().filter_map(|tp| tp.as_var()) {
                    if used_elsewhere(&rule.body, i, v) && !vars.contains(&v) {
                        vars.push(v);
                    }
                }
            }
            vars.sort_unstable();
            out.extend(vars.into_iter().map(|v| (r, v)));
        }
        out
    }
}

/// The body atoms of a partitioned rule-base, indexed by what they can
/// match: the answer to rule partitioning's routing question, "which
/// partitions hold a rule this can trigger?" (Algorithm 3 matches a new
/// triple "with all the rules of other partitions"), compiled once.
///
/// [`ConsumerIndex::consumers`] names every partition holding a body
/// atom that [`Atom::may_unify`]s with the atom asked. Asked with a
/// derived triple as a ground atom ([`Atom::ground`]), that is the
/// paper's per-triple test; asked with a rule's head, it is the
/// partitions of the rule's dependency-graph successors.
///
/// Body atoms are bucketed by constant predicate and object, so an
/// `rdf:type` triple meets only the atoms of its own class and the
/// class-generic ones; atoms with a variable predicate are kept aside
/// and tested one by one, as [`JoinMask`] keeps them in `every`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConsumerIndex {
    k: usize,
    assignment: Vec<u32>,
    /// The constant-predicate body atoms, per `(predicate, object)`.
    by_predicate: FxHashMap<(NodeId, Option<NodeId>), Bucket>,
    /// The variable-predicate body atoms, with their partition.
    any_predicate: Vec<(Atom, u32)>,
}

/// `(subject, partition)` of the body atoms in one bucket of a
/// [`ConsumerIndex`]; `None` stands for a variable, as in its keys.
type Bucket = Vec<(Option<NodeId>, u32)>;

impl ConsumerIndex {
    /// Index the body atoms of `rules` under `assignment` (partition id
    /// per rule index) for `k` partitions.
    pub fn of(rules: &[Rule], assignment: &[u32], k: usize) -> ConsumerIndex {
        let mut index = ConsumerIndex {
            k,
            assignment: assignment.to_vec(),
            ..ConsumerIndex::default()
        };
        for (rule, &part) in rules.iter().zip(assignment) {
            for atom in &rule.body {
                match atom.p {
                    TermPat::Const(p) => index
                        .by_predicate
                        .entry((p, atom.o.as_const()))
                        .or_default()
                        .push((atom.s.as_const(), part)),
                    TermPat::Var(_) => index.any_predicate.push((*atom, part)),
                }
            }
        }
        for bucket in index.by_predicate.values_mut() {
            bucket.sort_unstable();
            bucket.dedup();
        }
        index
    }

    /// Number of partitions.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Partition id per rule index.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Every partition holding a body atom that may unify with `atom`,
    /// ascending and without repeats, into `out` (cleared first).
    pub fn consumers(&self, atom: &Atom, out: &mut Vec<u32>) {
        out.clear();
        let mut take = |bucket: &Bucket| {
            let fitting = bucket.iter().filter(|&&(s, _)| fits(atom.s, s));
            out.extend(fitting.map(|&(_, part)| part));
        };
        match (atom.p, atom.o) {
            // A constant object meets two buckets: its own and the open one.
            (TermPat::Const(p), TermPat::Const(o)) => {
                for key in [(p, None), (p, Some(o))] {
                    if let Some(bucket) = self.by_predicate.get(&key) {
                        take(bucket);
                    }
                }
            }
            _ => {
                for (&(p, o), bucket) in &self.by_predicate {
                    if fits(atom.p, Some(p)) && fits(atom.o, o) {
                        take(bucket);
                    }
                }
            }
        }
        let open = self.any_predicate.iter().filter(|(a, _)| a.may_unify(atom));
        out.extend(open.map(|&(_, part)| part));
        out.sort_unstable();
        out.dedup();
    }
}

/// Can pattern `tp` stand where a body atom holds `held` (`None`: a
/// variable)? Only two different constants cannot.
fn fits(tp: TermPat, held: Option<NodeId>) -> bool {
    match (tp, held) {
        (TermPat::Const(a), Some(b)) => a == b,
        _ => true,
    }
}

/// Does a body atom other than `body[i]` use variable `v`?
fn used_elsewhere(body: &[Atom], i: usize, v: u16) -> bool {
    body.iter()
        .enumerate()
        .any(|(j, other)| j != i && other.variables().contains(&v))
}

/// A rule-dependency graph: adjacency `edges[i]` lists `(j, weight)` for
/// every rule `j` whose body may consume what rule `i` produces.
#[derive(Debug, Clone)]
pub struct RuleDependencyGraph {
    /// Number of rules (vertices).
    pub n: usize,
    /// Outgoing edges per rule, `(target, weight)`.
    pub edges: Vec<Vec<(usize, u64)>>,
}

impl RuleDependencyGraph {
    /// Total number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Symmetrize into an undirected weighted edge list, merging weights of
    /// antiparallel edges — the input the graph partitioner expects.
    pub fn undirected_edges(&self) -> Vec<(usize, usize, u64)> {
        let mut acc: FxHashMap<(usize, usize), u64> = FxHashMap::default();
        for (i, outs) in self.edges.iter().enumerate() {
            for &(j, w) in outs {
                if i == j {
                    continue; // self-loop: no partitioning pressure
                }
                let key = (i.min(j), i.max(j));
                *acc.entry(key).or_default() += w;
            }
        }
        let mut v: Vec<(usize, usize, u64)> =
            acc.into_iter().map(|((a, b), w)| (a, b, w)).collect();
        v.sort_unstable();
        v
    }
}

/// Build the unweighted dependency graph (all weights 1).
pub fn dependency_graph(rules: &[Rule]) -> RuleDependencyGraph {
    weighted_dependency_graph(rules, &FxHashMap::default(), 1)
}

/// Build the dependency graph weighting each edge `r1 → r2` by the
/// estimated number of triples `r1` produces: the dataset count of the
/// head predicate when it is a constant with a known histogram entry,
/// `default_weight` otherwise (paper §III-B: "a priori knowledge about the
/// distribution of different predicates ... can be used to weigh the
/// edges").
pub fn weighted_dependency_graph(
    rules: &[Rule],
    predicate_counts: &FxHashMap<NodeId, usize>,
    default_weight: u64,
) -> RuleDependencyGraph {
    let mut edges = vec![Vec::new(); rules.len()];
    for (i, producer) in rules.iter().enumerate() {
        let weight = match producer.head.p {
            TermPat::Const(p) => predicate_counts
                .get(&p)
                .map(|&c| (c as u64).max(1))
                .unwrap_or(default_weight),
            TermPat::Var(_) => default_weight,
        };
        for (j, consumer) in rules.iter().enumerate() {
            if consumer
                .body
                .iter()
                .any(|atom| producer.head.may_unify(atom))
            {
                edges[i].push((j, weight));
            }
        }
    }
    RuleDependencyGraph {
        n: rules.len(),
        edges,
    }
}

/// Strongly-connected-component condensation order of the dependency
/// graph (Tarjan). Rules inside one SCC are mutually recursive; the
/// returned vector maps each rule to its component id, components numbered
/// in reverse topological order. Useful for scheduling and diagnostics.
pub fn sccs(graph: &RuleDependencyGraph) -> Vec<usize> {
    struct Tarjan<'g> {
        g: &'g RuleDependencyGraph,
        index: Vec<Option<usize>>,
        low: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next_index: usize,
        comp: Vec<usize>,
        next_comp: usize,
    }
    impl Tarjan<'_> {
        fn visit(&mut self, v: usize) {
            self.index[v] = Some(self.next_index);
            self.low[v] = self.next_index;
            self.next_index += 1;
            self.stack.push(v);
            self.on_stack[v] = true;
            for &(w, _) in &self.g.edges[v] {
                match self.index[w] {
                    None => {
                        self.visit(w);
                        self.low[v] = self.low[v].min(self.low[w]);
                    }
                    Some(iw) if self.on_stack[w] => {
                        self.low[v] = self.low[v].min(iw);
                    }
                    Some(_) => {}
                }
            }
            if Some(self.low[v]) == self.index[v] {
                while let Some(w) = self.stack.pop() {
                    self.on_stack[w] = false;
                    self.comp[w] = self.next_comp;
                    if w == v {
                        break;
                    }
                }
                self.next_comp += 1;
            }
        }
    }
    let n = graph.n;
    let mut t = Tarjan {
        g: graph,
        index: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next_index: 0,
        comp: vec![0; n],
        next_comp: 0,
    };
    for v in 0..n {
        if t.index[v].is_none() {
            t.visit(v);
        }
    }
    t.comp
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::ast::build::*;

    fn nid(i: u32) -> NodeId {
        NodeId(i)
    }

    const P: u32 = 1;
    const Q: u32 = 2;
    const R: u32 = 3;

    fn trans(p: u32) -> Rule {
        Rule::new(
            format!("trans{p}"),
            atom(v(0), c(nid(p)), v(2)),
            vec![atom(v(0), c(nid(p)), v(1)), atom(v(1), c(nid(p)), v(2))],
        )
        .unwrap()
    }

    fn promote(from: u32, to: u32) -> Rule {
        Rule::new(
            format!("promote{from}_{to}"),
            atom(v(0), c(nid(to)), v(1)),
            vec![atom(v(0), c(nid(from)), v(1))],
        )
        .unwrap()
    }

    #[test]
    fn classify_single_atom() {
        assert_eq!(classify(&promote(P, Q)), JoinClass::SingleAtom);
        assert!(is_single_join(&promote(P, Q)));
    }

    #[test]
    fn classify_single_join_finds_join_var() {
        let r = trans(P);
        match classify(&r) {
            JoinClass::SingleJoin { join_vars } => assert_eq!(join_vars, vec![1]),
            other => panic!("expected SingleJoin, got {other:?}"),
        }
        assert!(is_single_join(&r));
    }

    #[test]
    fn classify_cross_product() {
        let r = Rule::new(
            "cross",
            atom(v(0), c(nid(P)), v(1)),
            vec![atom(v(0), c(nid(P)), v(1)), atom(v(2), c(nid(Q)), v(3))],
        )
        .unwrap();
        assert_eq!(classify(&r), JoinClass::CrossProduct);
        assert!(!is_single_join(&r));
    }

    #[test]
    fn classify_multi_join() {
        let r = Rule::new(
            "multi",
            atom(v(0), c(nid(P)), v(2)),
            vec![
                atom(v(0), c(nid(P)), v(1)),
                atom(v(1), c(nid(P)), v(2)),
                atom(v(2), c(nid(Q)), v(0)),
            ],
        )
        .unwrap();
        assert_eq!(classify(&r), JoinClass::MultiJoin);
        assert!(!is_single_join(&r));
    }

    #[test]
    fn join_mask_marks_only_positions_a_body_joins_on() {
        // trans(P) joins P's object to P's subject; promote(P, Q) joins
        // nothing, so Q (only ever a head and a single-atom body) and R
        // (never mentioned) join nowhere.
        let mask = JoinMask::of(&[trans(P), promote(P, Q)]);
        assert_eq!(mask.positions(nid(P)), JoinPositions::BOTH);
        assert_eq!(mask.positions(nid(Q)), JoinPositions::NONE);
        assert_eq!(mask.positions(nid(R)), JoinPositions::NONE);
        assert_eq!(mask.positions_of(v(0)), JoinPositions::BOTH);
        // a subject-only join: (?x P ?y) (?x Q ?z) -> (?y R ?z)
        let fun = Rule::new(
            "fun",
            atom(v(1), c(nid(R)), v(2)),
            vec![atom(v(0), c(nid(P)), v(1)), atom(v(0), c(nid(Q)), v(2))],
        )
        .unwrap();
        let mask = JoinMask::of(&[fun]);
        assert_eq!(mask.positions(nid(P)), JoinPositions::SUBJECT);
        assert_eq!(mask.positions(nid(Q)), JoinPositions::SUBJECT);
        assert!(!mask.positions(nid(R)).any());
    }

    #[test]
    fn join_mask_variable_predicate_body_marks_every_predicate() {
        // (?x sameAs ?y) (?x ?p ?z) -> (?y ?p ?z): the second atom joins
        // its subject, whatever its predicate is.
        const SAME: u32 = 9;
        let subst = Rule::new(
            "same_subject",
            atom(v(1), v(2), v(3)),
            vec![atom(v(0), c(nid(SAME)), v(1)), atom(v(0), v(2), v(3))],
        )
        .unwrap();
        let mask = JoinMask::of(&[subst, promote(P, Q)]);
        for p in [P, Q, R, 1234] {
            assert!(mask.positions(nid(p)).subject(), "predicate {p}");
        }
        assert!(!mask.positions(nid(R)).object());
        assert_eq!(mask.positions(nid(SAME)), JoinPositions::SUBJECT);
    }

    #[test]
    fn join_mask_variable_at_both_ends_of_one_atom_marks_both() {
        // (?x P ?x) (?x Q ?y) -> (?x R ?y)
        let r = Rule::new(
            "loop",
            atom(v(0), c(nid(R)), v(1)),
            vec![atom(v(0), c(nid(P)), v(0)), atom(v(0), c(nid(Q)), v(1))],
        )
        .unwrap();
        let mask = JoinMask::of(&[r]);
        assert_eq!(mask.positions(nid(P)), JoinPositions::BOTH);
        assert_eq!(mask.positions(nid(Q)), JoinPositions::SUBJECT);
    }

    #[test]
    fn join_mask_all_marks_everything() {
        let mask = JoinMask::all();
        assert_eq!(mask.positions(nid(P)), JoinPositions::BOTH);
        assert_eq!(mask.positions_of(c(nid(R))), JoinPositions::BOTH);
        assert_eq!(JoinMask::of(&[]).positions(nid(P)), JoinPositions::NONE);
    }

    #[test]
    fn unowned_joins_are_class_objects_and_predicates() {
        const TYPE: u32 = 7;
        // (?x type ?c) (?y type ?c) -> (?x P ?y): joins on the class
        let same_class = Rule::new(
            "same_class",
            atom(v(0), c(nid(P)), v(1)),
            vec![
                atom(v(0), c(nid(TYPE)), v(2)),
                atom(v(1), c(nid(TYPE)), v(2)),
            ],
        )
        .unwrap();
        // (?p Q ?q) (?x ?p ?y) -> (?x ?q ?y): joins on a predicate
        let promote_all = Rule::new(
            "promote_all",
            atom(v(2), v(1), v(3)),
            vec![atom(v(0), c(nid(Q)), v(1)), atom(v(2), v(0), v(3))],
        )
        .unwrap();
        // (?x type ?c) (?x P ?y): joins on the subject only — owned
        let typed = Rule::new(
            "typed",
            atom(v(2), c(nid(R)), v(1)),
            vec![atom(v(0), c(nid(TYPE)), v(1)), atom(v(0), c(nid(P)), v(2))],
        )
        .unwrap();
        let rules = [same_class, trans(P), promote_all, typed];
        assert_eq!(
            JoinMask::unowned_joins(&rules, Some(nid(TYPE))),
            vec![(0, 2), (2, 0)]
        );
        // without knowing rdf:type only the predicate join is visible
        assert_eq!(JoinMask::unowned_joins(&rules, None), vec![(2, 0)]);
    }

    #[test]
    fn dependency_edges_follow_head_to_body() {
        // promote P→Q feeds trans(Q); trans(Q) feeds itself.
        let rules = [promote(P, Q), trans(Q)];
        let g = dependency_graph(&rules);
        assert!(g.edges[0].iter().any(|&(j, _)| j == 1), "promote -> trans");
        assert!(g.edges[1].iter().any(|&(j, _)| j == 1), "trans self-loop");
        assert!(
            !g.edges[1].iter().any(|&(j, _)| j == 0),
            "trans does not feed promote"
        );
    }

    #[test]
    fn no_edge_between_unrelated_predicates() {
        let rules = [promote(P, Q), promote(R, P)];
        let g = dependency_graph(&rules);
        // promote(R,P) produces P-triples consumed by promote(P,Q): edge 1->0
        assert!(g.edges[1].iter().any(|&(j, _)| j == 0));
        // promote(P,Q) produces Q-triples; nothing consumes Q
        assert!(g.edges[0].is_empty());
    }

    #[test]
    fn weighted_edges_use_predicate_histogram() {
        let rules = [promote(P, Q), trans(Q)];
        let mut hist: FxHashMap<NodeId, usize> = FxHashMap::default();
        hist.insert(nid(Q), 500);
        let g = weighted_dependency_graph(&rules, &hist, 1);
        let w = g.edges[0].iter().find(|&&(j, _)| j == 1).unwrap().1;
        assert_eq!(w, 500);
    }

    #[test]
    fn undirected_edges_merge_and_drop_self_loops() {
        let rules = [trans(P), promote(P, P)];
        // trans(P) -> trans(P) self loop dropped; trans(P) <-> promote(P,P)
        let g = dependency_graph(&rules);
        let und = g.undirected_edges();
        assert!(und.iter().all(|&(a, b, _)| a != b));
        assert!(und.iter().any(|&(a, b, _)| (a, b) == (0, 1)));
    }

    mod random_rules {
        use super::*;
        use crate::ast::Atom;
        use owlpar_rdf::Triple;
        use proptest::prelude::*;

        fn term_strategy() -> impl Strategy<Value = TermPat> {
            prop_oneof![
                (0u16..4).prop_map(TermPat::Var),
                (1u32..6).prop_map(|i| TermPat::Const(NodeId(i))),
            ]
        }

        fn atom_strategy() -> impl Strategy<Value = Atom> {
            (term_strategy(), term_strategy(), term_strategy())
                .prop_map(|(s, p, o)| Atom::new(s, p, o))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn classify_agrees_with_is_single_join(
                head in atom_strategy(),
                body in prop::collection::vec(atom_strategy(), 0..5),
            ) {
                // Hand-built on purpose: random rules need not be dense
                // or range-restricted, and classify must not care.
                let r = Rule::unchecked("rand", head, body, 4);
                let class = classify(&r);
                prop_assert_eq!(
                    is_single_join(&r),
                    matches!(
                        class,
                        JoinClass::EmptyBody
                            | JoinClass::SingleAtom
                            | JoinClass::SingleJoin { .. }
                    )
                );
                match r.body.len() {
                    0 => prop_assert_eq!(class, JoinClass::EmptyBody),
                    1 => prop_assert_eq!(class, JoinClass::SingleAtom),
                    2 => {
                        let a = r.body[0].variables();
                        let b = r.body[1].variables();
                        let shares = a.iter().any(|v| b.contains(v));
                        prop_assert_eq!(
                            shares,
                            matches!(class, JoinClass::SingleJoin { .. })
                        );
                        prop_assert_eq!(
                            !shares,
                            matches!(class, JoinClass::CrossProduct)
                        );
                    }
                    _ => prop_assert_eq!(class, JoinClass::MultiJoin),
                }
            }
        }

        /// The `rdf:type` of the consumer-index cases: besides the generic
        /// atoms over predicate 5, rules hold its class atoms (10–12).
        const TYPE: u32 = 5;

        fn body_atom_strategy() -> impl Strategy<Value = Atom> {
            let class_atom = (term_strategy(), 10u32..13).prop_map(|(s, o)| {
                Atom::new(s, TermPat::Const(NodeId(TYPE)), TermPat::Const(NodeId(o)))
            });
            prop_oneof![atom_strategy(), class_atom]
        }

        /// The per-triple scan the index replaces: every partition with a
        /// rule whose body has an atom whose constants agree with `t`
        /// position by position.
        fn scan(rules: &[Rule], assignment: &[u32], k: u32, t: &Triple) -> Vec<u32> {
            let could_match = |atom: &Atom| {
                atom.positions()
                    .into_iter()
                    .zip(t.as_array())
                    .all(|(pat, val)| pat.as_const().is_none_or(|c| c == val))
            };
            let holds = |p: u32, r: &Rule, a: u32| a == p && r.body.iter().any(could_match);
            (0..k)
                .filter(|&p| rules.iter().zip(assignment).any(|(r, &a)| holds(p, r, a)))
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn consumer_index_is_the_body_scan_and_the_dependency_graph(
                rules in prop::collection::vec(
                    (body_atom_strategy(), prop::collection::vec(body_atom_strategy(), 1..4)),
                    0..8,
                ),
                raw in prop::collection::vec(0u32..1000, 8..9),
                k in 1u32..6,
                triples in prop::collection::vec((1u32..13, 1u32..7, 1u32..13), 32..33),
            ) {
                let rules: Vec<Rule> = rules
                    .into_iter()
                    .map(|(head, body)| Rule::unchecked("rand", head, body, 4))
                    .collect();
                let assignment: Vec<u32> =
                    raw.iter().take(rules.len()).map(|&a| a % k).collect();
                let index = ConsumerIndex::of(&rules, &assignment, k as usize);
                prop_assert_eq!(index.k(), k as usize);
                prop_assert_eq!(index.assignment(), &assignment[..]);
                let mut got = Vec::new();
                for (s, p, o) in triples {
                    let t = Triple::new(NodeId(s), NodeId(p), NodeId(o));
                    index.consumers(&Atom::ground(&t), &mut got);
                    prop_assert_eq!(&got, &scan(&rules, &assignment, k, &t));
                }
                let dep = dependency_graph(&rules);
                for (i, rule) in rules.iter().enumerate() {
                    let mut want: Vec<u32> =
                        dep.edges[i].iter().map(|&(j, _)| assignment[j]).collect();
                    want.sort_unstable();
                    want.dedup();
                    index.consumers(&rule.head, &mut got);
                    prop_assert_eq!(&got, &want);
                }
            }
        }
    }

    #[test]
    fn sccs_group_mutually_recursive_rules() {
        // p -> q and q -> p are mutually recursive; r -> r alone.
        let rules = [promote(P, Q), promote(Q, P), trans(R)];
        let g = dependency_graph(&rules);
        let comp = sccs(&g);
        assert_eq!(comp[0], comp[1], "mutual recursion in one SCC");
        assert_ne!(comp[0], comp[2]);
    }

    #[test]
    fn classify_empty_body() {
        // Rule::new rejects empty bodies, but Rule::unchecked does not.
        let r = Rule::unchecked("fact", atom(c(nid(P)), c(nid(Q)), c(nid(R))), vec![], 0);
        assert_eq!(classify(&r), JoinClass::EmptyBody);
        assert!(is_single_join(&r), "an empty body joins nothing");
    }

    #[test]
    fn classify_head_only_variables() {
        // A head variable with no body occurrence (not range-restricted;
        // again only constructible by hand). Classification looks at the
        // body alone, so this is still a single atom.
        let r = Rule::unchecked(
            "unrestricted",
            atom(v(0), c(nid(P)), v(1)),
            vec![atom(v(0), c(nid(P)), v(0))],
            2,
        );
        assert_eq!(classify(&r), JoinClass::SingleAtom);
        assert!(is_single_join(&r));
    }

    #[test]
    fn self_dependent_rule_has_self_loop() {
        // trans(P)'s head (?0 P ?2) unifies with both of its own body
        // atoms: the dependency graph must carry the self-loop, and the
        // rule must be its own (singleton) SCC.
        let rules = [trans(P)];
        let g = dependency_graph(&rules);
        assert!(g.edges[0].iter().any(|&(j, _)| j == 0), "self-loop");
        let comp = sccs(&g);
        assert_eq!(comp, vec![0]);
    }

    #[test]
    fn two_atom_duplicate_body_is_single_join() {
        // Both body atoms identical: every variable is shared.
        let r = Rule::new(
            "dup",
            atom(v(0), c(nid(P)), v(1)),
            vec![atom(v(0), c(nid(P)), v(1)), atom(v(0), c(nid(P)), v(1))],
        )
        .unwrap();
        match classify(&r) {
            JoinClass::SingleJoin { join_vars } => assert_eq!(join_vars, vec![0, 1]),
            other => panic!("expected SingleJoin, got {other:?}"),
        }
    }

    #[test]
    fn variable_predicate_heads_conservatively_connect() {
        let sym = Rule::new(
            "sym_all",
            atom(v(2), v(1), v(0)),
            vec![atom(v(0), v(1), v(2))],
        )
        .unwrap();
        let rules = [sym, trans(P)];
        let g = dependency_graph(&rules);
        // a variable-predicate head may unify with anything
        assert!(g.edges[0].iter().any(|&(j, _)| j == 1));
    }
}

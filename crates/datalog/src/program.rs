//! The evaluation program: a rule-base compiled once into what the
//! forward engines' rounds run.
//!
//! Semi-naive rounds re-derive what chains of one-atom rules and
//! transitive rules leave behind: an inverse pair bounces a round's new
//! triples back and forth, a symmetric rule echoes them, and a transitive
//! rule joins a path once per split point over log-length rounds. A
//! [`Program`] removes both causes before any round runs.
//!
//! * **R1, the one-atom rules closed under composition.** Whenever the
//!   head of one one-atom rule unifies with the body of another, the
//!   composed one-atom rule is added, variables numbered canonically,
//!   identities and duplicates dropped, to a fixpoint. The fixpoint is
//!   finite: each rule maps one pattern over the rule constants to
//!   another. Every one-atom consequence of a triple is then one step
//!   away.
//! * **The multi-atom rules**, evaluated by their join plans.
//! * **An operator per transitive rule** `(?x p ?y), (?y p ?z) -> (?x p
//!   ?z)`, recognised by its shape ([`Transitive`]). It emits exactly
//!   what the rule's fixpoint adds to the view's `p` edges, each pair
//!   once, in the round that meets the edges.
//!
//! **Rounds.** Round 0 pivots every rule of the program on the seed (the
//! whole base, an INSERT batch or a worker's delivery) and runs every
//! operator on the seed's edges. A later round pivots only the multi-atom
//! rules and runs the operators on the round's delta. Every product of a
//! multi-atom rule or an operator passes through R1 as it is emitted
//! ([`Program::emit`]), after its sink has checked that it is new.
//!
//! *Why one-atom rules never pivot after round 0.* A triple `t` made by a
//! one-atom rule from `s` has `R1(t) ⊆ R1(s)`, because R1 is closed under
//! composition, and `R1(s)` was emitted in the same round as `t`: either
//! `s` was in the seed, which R1 pivoted on, or `s` was a product, which
//! went through R1. So the view is closed under R1 after every round, and
//! a later round's one-atom pivots could only re-derive it.
//!
//! The rules as given stay the rule-base: lint, the join mask, placement,
//! routing and the wire read them. The program is an evaluation artifact
//! of the two forward engines only; [`naive_closure`] keeps joining the
//! uncomposed rules, as the independent oracle.
//!
//! [`naive_closure`]: crate::forward::naive_closure

// On the parallel closure's read path: never panic (as `parallel`).
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::ast::{Atom, Rule, TermPat};
use crate::forward::apply_rule_delta;
use crate::plan::{RowHead, Step};
use owlpar_rdf::fx::{FxHashMap, FxHashSet};
use owlpar_rdf::{NodeId, Triple, TriplePattern, TripleSource};

/// Where a round's products go.
pub(crate) trait Sink {
    /// Take `t`, a product of the program rule at index `rule` (`None`
    /// for an operator). `false` when `t` is known to be in the view or
    /// already taken this round: its R1 images are then known too.
    fn offer(&mut self, rule: Option<usize>, t: Triple) -> bool;
}

impl Sink for Vec<Triple> {
    fn offer(&mut self, _: Option<usize>, t: Triple) -> bool {
        self.push(t);
        true
    }
}

/// Which rules a round pivots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Round {
    /// Round 0: every rule, on the seed. `whole`: the seed is the whole
    /// view, so every instantiation has all its body atoms there and a
    /// rule pivots on its first atom only.
    Seed {
        /// The seed is the whole view.
        whole: bool,
    },
    /// A later round: the multi-atom rules and the operators, on the
    /// round's delta.
    Delta,
}

/// An R1 rule as emission dispatch applies it to one product.
#[derive(Debug, Clone, Copy)]
struct OneAtom {
    pat: TriplePattern,
    step: Step,
    head: RowHead,
}

impl OneAtom {
    /// `rule`'s one pivot and head projection; `None` unless it is a
    /// one-atom rule that fires.
    fn of(rule: &Rule) -> Option<Self> {
        let plans = rule.plans();
        let step = *plans.pivots().first()?.first()?;
        Some(OneAtom {
            pat: step.pattern(&[]),
            step,
            head: plans.row_head()?,
        })
    }
}

/// A rule-base compiled for the forward engines. See the module docs.
#[derive(Debug, Clone)]
pub struct Program {
    /// R1, then the multi-atom rules the operators do not replace.
    rules: Vec<Rule>,
    /// `one_atom[i]` applies `rules[i]`; one entry per R1 rule.
    one_atom: Vec<OneAtom>,
    transitive: Vec<Transitive>,
    /// For each multi-atom rule, then each operator: the R1 rules whose
    /// body may match what it derives — its products' images, found
    /// without a lookup.
    images: Vec<Vec<usize>>,
}

impl Program {
    /// Compile `rules` (see the module docs). Rules that never fire — a
    /// head variable the body does not bind — are left out.
    pub fn compile(rules: &[Rule]) -> Self {
        let fires = |r: &&Rule| !r.plans().pivots().is_empty();
        let one: Vec<&Rule> = rules
            .iter()
            .filter(fires)
            .filter(|r| r.body.len() == 1)
            .collect();
        let mut all = compose(&one);
        let symmetric: FxHashSet<NodeId> = all.iter().filter_map(symmetric_predicate).collect();
        let one_atom: Vec<OneAtom> = all.iter().filter_map(OneAtom::of).collect();
        let mut transitive: Vec<Transitive> = Vec::new();
        for rule in rules.iter().filter(fires).filter(|r| r.body.len() > 1) {
            match transitive_predicate(rule) {
                Some(p) if transitive.iter().any(|t| t.p == p) => {}
                Some(p) => transitive.push(Transitive {
                    p,
                    symmetric: symmetric.contains(&p),
                }),
                None => all.push(rule.clone()),
            }
        }
        let r1 = &all[..one_atom.len()];
        let images_of = |head: &Atom| -> Vec<usize> {
            (0..r1.len())
                .filter(|&i| r1[i].body[0].may_unify(head))
                .collect()
        };
        let edge = |p: NodeId| Atom::new(TermPat::Var(0), TermPat::Const(p), TermPat::Var(1));
        let images = all[one_atom.len()..]
            .iter()
            .map(|rule| images_of(&rule.head))
            .chain(transitive.iter().map(|t| images_of(&edge(t.p))))
            .collect();
        Program {
            rules: all,
            one_atom,
            transitive,
            images,
        }
    }

    /// R1: the one-atom rules closed under composition.
    pub fn one_atom(&self) -> &[Rule] {
        &self.rules[..self.one_atom.len()]
    }

    /// Every rule a round may pivot: R1, then the multi-atom rules. A
    /// [`Sink`]'s rule indices point here.
    pub(crate) fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// How many operators a round runs.
    pub(crate) fn operators(&self) -> usize {
        self.transitive.len()
    }

    /// Pivot the rules `round` pivots on `delta`, joined against `view`,
    /// into `sink`: R1 in round 0 only, the multi-atom rules always, their
    /// products through R1.
    pub(crate) fn pivot<S, D>(&self, view: &S, delta: &D, round: Round, sink: &mut impl Sink)
    where
        S: TripleSource + ?Sized,
        D: TripleSource + ?Sized,
    {
        let (first, whole) = match round {
            Round::Seed { whole } => (0, whole),
            Round::Delta => (self.one_atom.len(), false),
        };
        for (i, rule) in self.rules.iter().enumerate().skip(first) {
            let pivots = if whole { 1 } else { rule.body.len() };
            if i < self.one_atom.len() {
                apply_rule_delta(view, delta, rule, pivots, &mut |t| {
                    sink.offer(Some(i), t);
                });
            } else {
                apply_rule_delta(view, delta, rule, pivots, &mut |t| self.emit(sink, i, t));
            }
        }
    }

    /// Run operator `op` on `delta`'s edges over `view` into `sink`, its
    /// products through R1, and return them, sorted. `prev` is what the
    /// operator returned the round before, which is closed already.
    pub(crate) fn close_transitive<S, D>(
        &self,
        op: usize,
        view: &S,
        delta: &D,
        round: Round,
        prev: &[Triple],
        sink: &mut impl Sink,
    ) -> Vec<Triple>
    where
        S: TripleSource + ?Sized,
        D: TripleSource + ?Sized,
    {
        let Some(transitive) = self.transitive.get(op) else {
            return Vec::new();
        };
        // A whole-store seed is the view: its edges are all the view has.
        let view = match round {
            Round::Seed { whole: true } => None,
            Round::Seed { whole: false } | Round::Delta => Some(view),
        };
        let closed = transitive.close(view, delta, prev);
        for &t in &closed {
            self.emit(sink, self.rules.len() + op, t);
        }
        closed
    }

    /// Offer `t`, a product of program rule `from` (operator `from -
    /// rules.len()` past them), and if the sink takes it, its R1 images.
    /// R1 is closed under composition, so they need no further pass.
    fn emit(&self, sink: &mut impl Sink, from: usize, t: Triple) {
        let rule = (from < self.rules.len()).then_some(from);
        if !sink.offer(rule, t) {
            return;
        }
        for &i in &self.images[from - self.one_atom.len()] {
            let one = &self.one_atom[i];
            if one.pat.matches(&t) && one.step.repeats(&t) {
                sink.offer(Some(i), one.head.project(&t));
            }
        }
    }
}

/// R1: `one` closed under composition, canonically numbered, without
/// identities or duplicates. Semi-naive: rule `k` is composed, both
/// ways, with every rule up to itself when its turn comes, so every pair
/// meets once; candidates come from an index on body and head
/// predicates.
fn compose(one: &[&Rule]) -> Vec<Rule> {
    let mut r1 = Composer::default();
    for rule in one {
        r1.add(rule.name.clone(), rule.body[0], rule.head);
    }
    let mut k = 0;
    while k < r1.rules.len() {
        let (body, head) = (r1.rules[k].body[0], r1.rules[k].head);
        let mut found = Vec::new();
        for j in r1.by_body.candidates(head.p, k) {
            let next = &r1.rules[j];
            if let Some(rule) = chain((body, head), (next.body[0], next.head)) {
                found.push((format!("{} ; {}", r1.rules[k].name, next.name), rule));
            }
        }
        for j in r1.by_head.candidates(body.p, k) {
            let prev = &r1.rules[j];
            if let Some(rule) = chain((prev.body[0], prev.head), (body, head)) {
                found.push((format!("{} ; {}", prev.name, r1.rules[k].name), rule));
            }
        }
        for (name, (body, head)) in found {
            r1.add(name, body, head);
        }
        k += 1;
    }
    r1.rules
}

/// The R1 fixpoint under construction.
#[derive(Default)]
struct Composer {
    rules: Vec<Rule>,
    known: FxHashSet<(Atom, Atom)>,
    by_body: PredicateIndex,
    by_head: PredicateIndex,
}

impl Composer {
    /// Add `body -> head` unless, numbered canonically, it is an identity
    /// or already known.
    fn add(&mut self, name: String, body: Atom, head: Atom) {
        let (body, head) = canonical(body, head);
        if body == head || !self.known.insert((body, head)) {
            return;
        }
        let Ok(rule) = Rule::new(name, head, vec![body]) else {
            return;
        };
        if OneAtom::of(&rule).is_none() {
            return;
        }
        self.by_body.add(body.p, self.rules.len());
        self.by_head.add(head.p, self.rules.len());
        self.rules.push(rule);
    }
}

/// Rule indices by a predicate position: constant or variable.
#[derive(Default)]
struct PredicateIndex {
    by_const: FxHashMap<NodeId, Vec<usize>>,
    by_var: Vec<usize>,
    len: usize,
}

impl PredicateIndex {
    fn add(&mut self, p: TermPat, rule: usize) {
        match p {
            TermPat::Const(p) => self.by_const.entry(p).or_default().push(rule),
            TermPat::Var(_) => self.by_var.push(rule),
        }
        self.len = rule + 1;
    }

    /// The rules up to `max` whose indexed position may unify with `p`.
    fn candidates(&self, p: TermPat, max: usize) -> Vec<usize> {
        match p {
            TermPat::Const(p) => {
                let consts = self.by_const.get(&p).map_or(&[][..], Vec::as_slice);
                consts
                    .iter()
                    .chain(&self.by_var)
                    .copied()
                    .filter(|&j| j <= max)
                    .collect()
            }
            TermPat::Var(_) => (0..self.len.min(max + 1)).collect(),
        }
    }
}

/// Variables of the second rule of a [`chain`] are shifted past the
/// first's: a canonical one-atom rule numbers at most three.
const SHIFT: u16 = 4;

/// A substitution over the variables of two chained one-atom rules.
#[derive(Default)]
struct Subst([Option<TermPat>; 2 * SHIFT as usize]);

impl Subst {
    fn resolve(&self, mut tp: TermPat) -> TermPat {
        while let TermPat::Var(v) = tp {
            match self.0.get(v as usize).copied().flatten() {
                Some(next) => tp = next,
                None => break,
            }
        }
        tp
    }

    fn unify(&mut self, a: TermPat, b: TermPat) -> bool {
        match (self.resolve(a), self.resolve(b)) {
            (a, b) if a == b => true,
            (TermPat::Var(v), other) | (other, TermPat::Var(v)) => {
                self.0[v as usize] = Some(other);
                true
            }
            (TermPat::Const(_), TermPat::Const(_)) => false,
        }
    }

    fn apply(&self, a: Atom) -> Atom {
        Atom::new(self.resolve(a.s), self.resolve(a.p), self.resolve(a.o))
    }
}

/// `second` applied to what `first` derives, as one rule: `first`'s
/// body under the most general unifier of `first`'s head and `second`'s
/// body, to `second`'s head under it. `None` when they do not unify.
/// Both rules are canonical.
fn chain(first: (Atom, Atom), second: (Atom, Atom)) -> Option<(Atom, Atom)> {
    let shift = |tp: TermPat| match tp {
        TermPat::Var(v) => TermPat::Var(v + SHIFT),
        tp => tp,
    };
    let shifted = |a: Atom| Atom::new(shift(a.s), shift(a.p), shift(a.o));
    let (body2, head2) = (shifted(second.0), shifted(second.1));
    let mut subst = Subst::default();
    first
        .1
        .positions()
        .into_iter()
        .zip(body2.positions())
        .all(|(a, b)| subst.unify(a, b))
        .then(|| (subst.apply(first.0), subst.apply(head2)))
}

/// `body -> head` with its variables renumbered by first occurrence,
/// body before head.
fn canonical(body: Atom, head: Atom) -> (Atom, Atom) {
    let mut order: Vec<u16> = Vec::with_capacity(3);
    for tp in body.positions().into_iter().chain(head.positions()) {
        if let TermPat::Var(v) = tp {
            if !order.contains(&v) {
                order.push(v);
            }
        }
    }
    let renumber = |tp: TermPat| match tp {
        TermPat::Var(v) => TermPat::Var(order.iter().position(|&w| w == v).unwrap_or(0) as u16),
        tp => tp,
    };
    let atom = |a: Atom| Atom::new(renumber(a.s), renumber(a.p), renumber(a.o));
    (atom(body), atom(head))
}

/// `p` if `rule` is `(?x p ?y), (?y p ?z) -> (?x p ?z)` (body atoms in
/// either order), with `p` a constant and `?x`, `?y`, `?z` distinct.
fn transitive_predicate(rule: &Rule) -> Option<NodeId> {
    let [a, b] = rule.body.as_slice() else {
        return None;
    };
    let (TermPat::Var(x), TermPat::Const(p), TermPat::Var(z)) =
        (rule.head.s, rule.head.p, rule.head.o)
    else {
        return None;
    };
    let link = |first: &Atom, second: &Atom| {
        matches!(
            (first.s, first.p, first.o, second.s, second.p, second.o),
            (TermPat::Var(s), TermPat::Const(p1), TermPat::Var(y), TermPat::Var(y2), TermPat::Const(p2), TermPat::Var(o))
                if s == x && o == z && y == y2 && p1 == p && p2 == p && x != y && y != z && x != z
        )
    };
    (link(a, b) || link(b, a)).then_some(p)
}

/// `p` if `rule` is `(?x p ?y) -> (?y p ?x)` with `p` a constant.
fn symmetric_predicate(rule: &Rule) -> Option<NodeId> {
    let body = rule.body.first()?;
    match (
        body.s,
        body.p,
        body.o,
        rule.head.s,
        rule.head.p,
        rule.head.o,
    ) {
        (
            TermPat::Var(x),
            TermPat::Const(p),
            TermPat::Var(y),
            TermPat::Var(y2),
            TermPat::Const(p2),
            TermPat::Var(x2),
        ) if x != y && x == x2 && y == y2 && p == p2 => Some(p),
        _ => None,
    }
}

/// The operator for the transitive rule over `p`, and whether R1 makes
/// `p` symmetric too.
///
/// It runs on the round's new `p` edges `N` (those of the delta, less
/// what it emitted itself the round before) and emits
/// `closure(view_p) − view_p`, sorted, each pair once. Invariant: the
/// view's other `p` edges, `K`, are closed: in round 0 of a whole-store
/// closure `K` is empty; over a base closed but for the seed it is the
/// base's; and each round's operator closes the view it met, so
/// `K ∪ N` one round becomes a closed `K` the next. Only a path through
/// an `N` edge can then be new — one that avoids `N` has a shortcut in
/// `K` — and a search needs to read the view's row of a node only where
/// it entered over an `N` edge: a node entered over a `K` edge has its
/// `K` neighbours in its predecessor's row already, and follows only its
/// `N` edges. Where `K` is empty, the search reads no view at all.
///
/// * Symmetric: the components (over undirected edges) that touch `N`;
///   each component `C` emits `C × C − view_p`, self-pairs included,
///   because the two rules derive them.
/// * Otherwise: every ancestor `a` of an `N` edge's source emits
///   `descendants(a) − view_p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Transitive {
    p: NodeId,
    symmetric: bool,
}

impl Transitive {
    /// `view` is `None` when its `p` edges are the delta's: `K` is empty.
    fn close<S, D>(&self, view: Option<&S>, delta: &D, prev: &[Triple]) -> Vec<Triple>
    where
        S: TripleSource + ?Sized,
        D: TripleSource + ?Sized,
    {
        let mut new: Vec<(NodeId, NodeId)> = Vec::new();
        delta.for_each_match(TriplePattern::new(None, Some(self.p), None), |t| {
            new.push((t.s, t.o))
        });
        new.sort_unstable();
        new.dedup();
        let mut old = prev.iter().map(|t| (t.s, t.o)).peekable();
        new.retain(|e| {
            while old.next_if(|o| o < e).is_some() {}
            old.next_if_eq(e).is_none()
        });
        if new.is_empty() {
            return Vec::new();
        }
        let edges = NewEdges::new(new);
        let mut search = Search {
            view,
            p: self.p,
            edges: &edges,
            entered: FxHashMap::default(),
            stack: Vec::new(),
        };
        let mut out = Vec::new();
        if self.symmetric {
            search.cliques(&mut out);
        } else {
            search.paths(&mut out);
        }
        out.sort_unstable();
        out
    }
}

/// Which way a [`Search`] follows `p` edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Way {
    Forward,
    Back,
    Both,
}

/// One operator call's searches over the view's `p` edges, with the
/// buffers they reuse.
struct Search<'a, S: ?Sized> {
    /// `None`: the view's `p` edges are `edges`.
    view: Option<&'a S>,
    p: NodeId,
    edges: &'a NewEdges,
    /// Every node entered so far, and whether over a new edge.
    entered: FxHashMap<NodeId, bool>,
    stack: Vec<(NodeId, bool)>,
}

impl<S: TripleSource + ?Sized> Search<'_, S> {
    /// The view's `p` row of `x`: its successors, or its predecessors
    /// when `back`.
    fn row(
        view: Option<&S>,
        p: NodeId,
        edges: &NewEdges,
        x: NodeId,
        back: bool,
        mut f: impl FnMut(NodeId),
    ) {
        match (view, back) {
            (Some(view), true) => {
                view.for_each_match(TriplePattern::new(None, Some(p), Some(x)), |t| f(t.s))
            }
            (Some(view), false) => {
                view.for_each_match(TriplePattern::new(Some(x), Some(p), None), |t| f(t.o))
            }
            (None, true) => edges.sources(x).for_each(f),
            (None, false) => edges.targets(x).for_each(f),
        }
    }

    /// Enter every node reachable `way` from `starts` (each tagged: over a
    /// new edge) that is not entered yet, by the search [`Transitive`]
    /// sets out; `first` sees each node the first time it is entered.
    fn run(
        &mut self,
        starts: impl IntoIterator<Item = (NodeId, bool)>,
        way: Way,
        mut first: impl FnMut(NodeId),
    ) {
        let Search {
            view,
            p,
            edges,
            entered,
            stack,
        } = self;
        stack.extend(starts);
        // With no view to read, every edge is new.
        let is_new = |s: NodeId, o: NodeId| view.is_none() || edges.has(s, o);
        while let Some((x, over_new)) = stack.pop() {
            match entered.insert(x, over_new) {
                None => first(x),
                Some(true) => {
                    entered.insert(x, true);
                    continue;
                }
                Some(false) if !over_new => continue,
                Some(false) => {}
            }
            if over_new {
                if way != Way::Back {
                    Self::row(*view, *p, edges, x, false, |y| {
                        stack.push((y, is_new(x, y)))
                    });
                }
                if way != Way::Forward {
                    Self::row(*view, *p, edges, x, true, |w| stack.push((w, is_new(w, x))));
                }
            } else {
                if way != Way::Back {
                    stack.extend(edges.targets(x).map(|y| (y, true)));
                }
                if way != Way::Forward {
                    stack.extend(edges.sources(x).map(|w| (w, true)));
                }
            }
        }
    }

    /// Every ancestor `a` of a new edge's source emits `descendants(a) −
    /// view_p`: every new pair starts at one.
    fn paths(&mut self, out: &mut Vec<Triple>) {
        let edges = self.edges;
        self.run(edges.out.iter().map(|&(s, _)| (s, true)), Way::Back, |_| {});
        let ancestors: Vec<NodeId> = self.entered.keys().copied().collect();
        let mut known: Vec<NodeId> = Vec::new();
        for a in ancestors {
            known.clear();
            Self::row(self.view, self.p, edges, a, false, |y| known.push(y));
            self.entered.clear();
            self.run(
                known.iter().map(|&y| (y, edges.has(a, y))),
                Way::Forward,
                |_| {},
            );
            known.sort_unstable();
            out.extend(
                self.entered
                    .keys()
                    .filter(|d| known.binary_search(d).is_err())
                    .map(|&d| Triple::new(a, self.p, d)),
            );
        }
    }

    /// Each component that touches a new edge emits `C × C − view_p`.
    fn cliques(&mut self, out: &mut Vec<Triple>) {
        let edges = self.edges;
        let mut members: Vec<NodeId> = Vec::new();
        let mut known: Vec<NodeId> = Vec::new();
        for &(s, o) in &edges.out {
            for start in [s, o] {
                if self.entered.contains_key(&start) {
                    continue;
                }
                members.clear();
                self.run([(start, true)], Way::Both, |x| members.push(x));
                members.sort_unstable();
                for &u in &members {
                    known.clear();
                    Self::row(self.view, self.p, edges, u, false, |c| known.push(c));
                    known.sort_unstable();
                    let mut known = known.iter().peekable();
                    for &c in &members {
                        while known.next_if(|&&k| k < c).is_some() {}
                        if known.next_if(|&&k| k == c).is_none() {
                            out.push(Triple::new(u, self.p, c));
                        }
                    }
                }
            }
        }
    }
}

/// A round's new edges of one predicate, by source and by target.
struct NewEdges {
    /// `(s, o)`, sorted.
    out: Vec<(NodeId, NodeId)>,
    /// `(o, s)`, sorted.
    inn: Vec<(NodeId, NodeId)>,
}

impl NewEdges {
    fn new(out: Vec<(NodeId, NodeId)>) -> Self {
        let mut inn: Vec<(NodeId, NodeId)> = out.iter().map(|&(s, o)| (o, s)).collect();
        inn.sort_unstable();
        NewEdges { out, inn }
    }

    fn has(&self, s: NodeId, o: NodeId) -> bool {
        self.out.binary_search(&(s, o)).is_ok()
    }

    fn row(list: &[(NodeId, NodeId)], x: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let from = list.partition_point(|&(k, _)| k < x);
        list[from..]
            .iter()
            .take_while(move |&&(k, _)| k == x)
            .map(|&(_, y)| y)
    }

    fn targets(&self, x: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        Self::row(&self.out, x)
    }

    fn sources(&self, x: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        Self::row(&self.inn, x)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::ast::build::*;

    const P: u32 = 100;
    const Q: u32 = 101;
    const TYPE: u32 = 102;

    fn nid(i: u32) -> NodeId {
        NodeId(i)
    }

    fn one(name: &str, body: Atom, head: Atom) -> Rule {
        Rule::new(name, head, vec![body]).unwrap()
    }

    fn inverse(p: u32, q: u32) -> Rule {
        one(
            "inv",
            atom(v(0), c(nid(p)), v(1)),
            atom(v(1), c(nid(q)), v(0)),
        )
    }

    fn subclass(sub: u32, sup: u32) -> Rule {
        one(
            "sc",
            atom(v(0), c(nid(TYPE)), c(nid(sub))),
            atom(v(0), c(nid(TYPE)), c(nid(sup))),
        )
    }

    fn forms(program: &Program) -> Vec<(Atom, Atom)> {
        let mut forms: Vec<(Atom, Atom)> = program
            .one_atom()
            .iter()
            .map(|r| (r.body[0], r.head))
            .collect();
        forms.sort_by_key(|f| format!("{f:?}"));
        forms
    }

    #[test]
    fn an_inverse_pair_composes_to_nothing_new() {
        // p⁻ = q and q⁻ = p: their composition is the identity, dropped.
        let program = Program::compile(&[inverse(P, Q), inverse(Q, P)]);
        assert_eq!(program.one_atom().len(), 2);
        assert_eq!(program.operators(), 0);
    }

    #[test]
    fn a_subclass_chain_closes_to_every_ancestor() {
        // 1 ⊑ 2 ⊑ 3 ⊑ 4: six rules, one per ancestor of each class.
        let program = Program::compile(&[subclass(1, 2), subclass(2, 3), subclass(3, 4)]);
        assert_eq!(program.one_atom().len(), 6);
        assert!(forms(&program).contains(&(
            atom(v(0), c(nid(TYPE)), c(nid(1))),
            atom(v(0), c(nid(TYPE)), c(nid(4)))
        )));
    }

    #[test]
    fn a_constant_in_a_later_body_specialises_the_composition() {
        // (?x p ?y) -> (?x type ?y), then (?x type 7) -> (?x q 8):
        // composed, (?x p 7) -> (?x q 8).
        let program = Program::compile(&[
            one(
                "a",
                atom(v(0), c(nid(P)), v(1)),
                atom(v(0), c(nid(TYPE)), v(1)),
            ),
            one(
                "b",
                atom(v(0), c(nid(TYPE)), c(nid(7))),
                atom(v(0), c(nid(Q)), c(nid(8))),
            ),
        ]);
        assert!(forms(&program).contains(&(
            atom(v(0), c(nid(P)), c(nid(7))),
            atom(v(0), c(nid(Q)), c(nid(8)))
        )));
        assert_eq!(program.one_atom().len(), 3);
    }

    #[test]
    fn composition_reaches_its_fixpoint_on_a_cycle() {
        // p → q, q → r reversed, r → p: a cycle through a swap.
        let rules = [
            one(
                "pq",
                atom(v(0), c(nid(P)), v(1)),
                atom(v(0), c(nid(Q)), v(1)),
            ),
            inverse(Q, 103),
            one(
                "rp",
                atom(v(0), c(nid(103)), v(1)),
                atom(v(0), c(nid(P)), v(1)),
            ),
        ];
        let program = Program::compile(&rules);
        let forms = forms(&program);
        // Each of p, q, r to each of them, either way round, bar the
        // three identities: 3 × 6 − 3, nothing twice.
        assert_eq!(forms.len(), 15, "{forms:?}");
        let sym: FxHashSet<NodeId> = program
            .one_atom()
            .iter()
            .filter_map(symmetric_predicate)
            .collect();
        assert_eq!(sym, [nid(P), nid(Q), nid(103)].into_iter().collect());
    }

    #[test]
    fn transitive_rules_are_recognised_by_shape() {
        let trans =
            |a: Atom, b: Atom| Rule::new("t", atom(v(0), c(nid(P)), v(2)), vec![a, b]).unwrap();
        let (xy, yz) = (atom(v(0), c(nid(P)), v(1)), atom(v(1), c(nid(P)), v(2)));
        assert_eq!(transitive_predicate(&trans(xy, yz)), Some(nid(P)));
        assert_eq!(transitive_predicate(&trans(yz, xy)), Some(nid(P)));
        let other = atom(v(1), c(nid(Q)), v(2));
        assert_eq!(transitive_predicate(&trans(xy, other)), None);
        let sym = one(
            "s",
            atom(v(0), c(nid(P)), v(1)),
            atom(v(1), c(nid(P)), v(0)),
        );
        let program = Program::compile(&[trans(xy, yz), sym]);
        assert_eq!(
            program.transitive,
            vec![Transitive {
                p: nid(P),
                symmetric: true
            }]
        );
        assert_eq!(program.rules().len(), 1, "the join is gone");
    }
}

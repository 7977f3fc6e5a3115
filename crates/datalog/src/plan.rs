//! Join plans: a rule compiled once into the order its body atoms are
//! matched and what each position of each atom does.
//!
//! Which variables an atom finds bound depends only on the atoms matched
//! before it, so once the pivot — the atom matched inside a round's
//! delta — is chosen, the whole join order is fixed: most bound positions
//! first, the choice a greedy planner would make per match. [`Rule::new`]
//! compiles one plan per pivot, and the evaluator
//! ([`apply_rule_delta`](crate::forward::apply_rule_delta)) only reads
//! them: it never chooses an atom, keeps one dense frame of node ids for
//! the whole call, and never re-checks a position its lookup pattern
//! fixed, because every [`TripleSource`](owlpar_rdf::TripleSource) yields
//! exact matches. A one-atom rule needs no frame at all: it is one block
//! of index rows projected into its head ([`RowHead`]).
//!
//! [`Rule::new`]: crate::ast::Rule::new

// On the parallel closure's read path: never panic (as `parallel`).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use crate::ast::{Atom, TermPat};
use owlpar_rdf::{NodeId, Triple, TriplePattern};

/// What one position of a planned atom does with a matched triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// A rule constant: fixed by the lookup pattern.
    Const(NodeId),
    /// A variable an earlier atom bound: fixed by the lookup pattern,
    /// read from the frame.
    Bound(u16),
    /// A variable first met here: the match writes it into the frame.
    Bind(u16),
    /// A variable met earlier in this same atom, at the given position:
    /// the match must repeat that position's value.
    Same(u8),
}

/// One body atom as its plan matches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Step([Slot; 3]);

impl Step {
    /// Plan `atom` given which variables are `bound` already, and mark
    /// its own variables bound.
    fn compile(atom: &Atom, bound: &mut [bool]) -> Self {
        let terms = atom.positions();
        let slot = |i: usize| match terms[i] {
            TermPat::Const(c) => Slot::Const(c),
            TermPat::Var(v) if bound[v as usize] => Slot::Bound(v),
            TermPat::Var(v) => match terms[..i].iter().position(|&t| t == terms[i]) {
                Some(first) => Slot::Same(first as u8),
                None => Slot::Bind(v),
            },
        };
        let step = Step([slot(0), slot(1), slot(2)]);
        for v in atom.variables() {
            bound[v as usize] = true;
        }
        step
    }

    /// The index lookup for this atom under `frame`: constants and
    /// earlier-bound variables fixed, the rest wildcards.
    #[inline]
    pub(crate) fn pattern(&self, frame: &[NodeId]) -> TriplePattern {
        let fixed = |slot: Slot| match slot {
            Slot::Const(c) => Some(c),
            Slot::Bound(v) => Some(frame[v as usize]),
            Slot::Bind(_) | Slot::Same(_) => None,
        };
        TriplePattern::new(fixed(self.0[0]), fixed(self.0[1]), fixed(self.0[2]))
    }

    /// Take `t`, an exact match of [`Step::pattern`], into `frame`:
    /// write the variables bound here, and check the repeated ones.
    /// `false` when a repeated variable disagrees with itself.
    #[inline]
    pub(crate) fn bind(&self, t: &Triple, frame: &mut [NodeId]) -> bool {
        let vals = t.as_array();
        for (slot, val) in self.0.into_iter().zip(vals) {
            match slot {
                Slot::Bind(v) => frame[v as usize] = val,
                Slot::Same(first) if vals[first as usize] != val => return false,
                Slot::Const(_) | Slot::Bound(_) | Slot::Same(_) => {}
            }
        }
        true
    }

    /// Does `t`, an exact match of [`Step::pattern`], repeat the value of
    /// each variable repeated inside this atom? What [`Step::bind`]
    /// checks, without writing a frame.
    #[inline]
    pub(crate) fn repeats(&self, t: &Triple) -> bool {
        let vals = t.as_array();
        self.0.into_iter().zip(vals).all(|(slot, val)| match slot {
            Slot::Same(first) => vals[first as usize] == val,
            Slot::Const(_) | Slot::Bound(_) | Slot::Bind(_) => true,
        })
    }

    /// How many positions the lookup fixes when `bound` variables are.
    fn bound_count(atom: &Atom, bound: &[bool]) -> usize {
        atom.positions()
            .into_iter()
            .filter(|tp| tp.as_var().is_none_or(|v| bound[v as usize]))
            .count()
    }
}

/// Where a head position of a one-atom rule takes its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pick {
    /// A rule constant.
    Const(NodeId),
    /// The matched row's value at this position.
    At(u8),
}

/// A one-atom rule's head read straight off its pivot's rows: no frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowHead([Pick; 3]);

impl RowHead {
    /// `head` over the rows of `atom`, which binds every head variable.
    fn of(head: &Atom, atom: &Atom) -> Self {
        let terms = atom.positions();
        let pick = |tp: TermPat| match tp {
            TermPat::Const(c) => Pick::Const(c),
            TermPat::Var(_) => Pick::At(terms.iter().position(|&t| t == tp).unwrap_or(0) as u8),
        };
        RowHead([pick(head.s), pick(head.p), pick(head.o)])
    }

    /// The head `t` instantiates.
    #[inline]
    pub(crate) fn project(&self, t: &Triple) -> Triple {
        let vals = t.as_array();
        let value = |pick: Pick| match pick {
            Pick::Const(c) => c,
            Pick::At(at) => vals[at as usize],
        };
        Triple::new(value(self.0[0]), value(self.0[1]), value(self.0[2]))
    }
}

/// A rule compiled for evaluation: for each body atom as pivot, the
/// steps that match the pivot and then the other atoms, and the head as
/// a projection of the frame they fill — or, for a one-atom rule, of
/// the matched row itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct JoinPlans {
    /// Frame slots: one past the largest variable index.
    frame: usize,
    head: Atom,
    /// `pivots[i]` matches body atom `i` first.
    pivots: Vec<Vec<Step>>,
    /// A one-atom rule's head as a projection of its pivot's rows.
    row_head: Option<RowHead>,
}

impl JoinPlans {
    /// Plan every pivot of the rule `body -> head`. A rule whose head has
    /// a variable no body atom binds (only a hand-built rule can) gets no
    /// plans: it never fires, as an unbound head never instantiated.
    pub(crate) fn compile(head: &Atom, body: &[Atom]) -> Self {
        let frame = body
            .iter()
            .chain(std::iter::once(head))
            .flat_map(Atom::variables)
            .max()
            .map_or(0, |v| v as usize + 1);
        let body_vars: Vec<u16> = body.iter().flat_map(Atom::variables).collect();
        let pivots = if head.variables().iter().all(|v| body_vars.contains(v)) {
            (0..body.len())
                .map(|pivot| Self::order(body, pivot, frame))
                .collect()
        } else {
            Vec::new()
        };
        let row_head = match body {
            [atom] if !pivots.is_empty() => Some(RowHead::of(head, atom)),
            _ => None,
        };
        JoinPlans {
            frame,
            head: *head,
            pivots,
            row_head,
        }
    }

    /// The steps of the plan pivoting on `body[pivot]`: the remaining
    /// atoms most bound first, ties to the later one in the order a
    /// swap-removing greedy join leaves them.
    fn order(body: &[Atom], pivot: usize, frame: usize) -> Vec<Step> {
        let mut bound = vec![false; frame];
        let mut steps = vec![Step::compile(&body[pivot], &mut bound)];
        let mut remaining: Vec<usize> = (0..body.len()).filter(|&i| i != pivot).collect();
        while let Some((slot, _)) = remaining
            .iter()
            .enumerate()
            .max_by_key(|&(_, &i)| Step::bound_count(&body[i], &bound))
        {
            let next = remaining.swap_remove(slot);
            steps.push(Step::compile(&body[next], &mut bound));
        }
        steps
    }

    /// A frame for one evaluation; its slots are written before read.
    pub(crate) fn frame(&self) -> Vec<NodeId> {
        vec![NodeId(0); self.frame]
    }

    /// The plans, pivot `i` at index `i`; empty for a rule that never
    /// fires.
    pub(crate) fn pivots(&self) -> &[Vec<Step>] {
        &self.pivots
    }

    /// A one-atom rule's head as a projection of its pivot's rows.
    pub(crate) fn row_head(&self) -> Option<RowHead> {
        self.row_head
    }

    /// The head instantiated from a frame every step of a plan filled.
    #[inline]
    pub(crate) fn head(&self, frame: &[NodeId]) -> Triple {
        let value = |tp: TermPat| match tp {
            TermPat::Const(c) => c,
            TermPat::Var(v) => frame[v as usize],
        };
        Triple::new(value(self.head.s), value(self.head.p), value(self.head.o))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::ast::build::*;

    fn nid(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn a_repeated_variable_is_checked_not_bound_twice() {
        let plans = JoinPlans::compile(
            &atom(v(0), c(nid(9)), c(nid(8))),
            &[atom(v(0), c(nid(5)), v(0))],
        );
        let step = plans.pivots()[0][0];
        assert_eq!(
            step,
            Step([Slot::Bind(0), Slot::Const(nid(5)), Slot::Same(0)])
        );
        let (same, differ) = (
            Triple::new(nid(1), nid(5), nid(1)),
            Triple::new(nid(1), nid(5), nid(2)),
        );
        let mut frame = plans.frame();
        assert!(step.bind(&same, &mut frame));
        assert_eq!(plans.head(&frame), Triple::new(nid(1), nid(9), nid(8)));
        assert!(!step.bind(&differ, &mut frame));
        // A one-atom rule reads its head off the row, frame-free.
        assert!(step.repeats(&same) && !step.repeats(&differ));
        let row_head = plans.row_head().unwrap();
        assert_eq!(row_head.project(&same), Triple::new(nid(1), nid(9), nid(8)));
    }

    #[test]
    fn later_atoms_read_what_earlier_ones_bound_most_bound_first() {
        // (?0 p ?1) (?2 q ?3) (?1 p ?2) -> (?0 p ?3): pivoting on the
        // first atom, the third shares ?1 and goes next, then the second.
        let (p, q) = (c(nid(5)), c(nid(6)));
        let body = [
            atom(v(0), p, v(1)),
            atom(v(2), q, v(3)),
            atom(v(1), p, v(2)),
        ];
        let plans = JoinPlans::compile(&atom(v(0), p, v(3)), &body);
        let steps = &plans.pivots()[0];
        assert_eq!(
            steps[1],
            Step([Slot::Bound(1), Slot::Const(nid(5)), Slot::Bind(2)])
        );
        assert_eq!(
            steps[2],
            Step([Slot::Bound(2), Slot::Const(nid(6)), Slot::Bind(3)])
        );
        let mut frame = plans.frame();
        frame[1] = nid(7);
        assert_eq!(
            steps[1].pattern(&frame),
            TriplePattern::new(Some(nid(7)), Some(nid(5)), None)
        );
        assert_eq!(plans.pivots().len(), 3);
        assert!(plans.row_head().is_none());
    }

    #[test]
    fn an_unbound_head_variable_never_fires() {
        let plans =
            JoinPlans::compile(&atom(v(0), c(nid(5)), v(1)), &[atom(v(0), c(nid(5)), v(0))]);
        assert!(plans.pivots().is_empty());
        assert!(
            JoinPlans::compile(&atom(c(nid(1)), c(nid(2)), c(nid(3))), &[])
                .pivots()
                .is_empty()
        );
    }
}

//! Rule abstract syntax: term patterns, atoms and rules.
//!
//! Rules are normalized so that their variables are numbered densely from
//! zero; a rule's `var_count` then sizes the binding frame used during
//! evaluation (a plain `Vec<Option<NodeId>>`, no hashing on the hot path).

use owlpar_rdf::{NodeId, Triple, TriplePattern};

/// A position in an atom: either a variable (dense index within the rule)
/// or a constant node id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermPat {
    /// Variable with rule-local index.
    Var(u16),
    /// Dictionary-encoded constant.
    Const(NodeId),
}

impl TermPat {
    /// The variable index, if this is a variable.
    pub fn as_var(&self) -> Option<u16> {
        match self {
            TermPat::Var(v) => Some(*v),
            TermPat::Const(_) => None,
        }
    }

    /// The constant id, if this is a constant.
    pub fn as_const(&self) -> Option<NodeId> {
        match self {
            TermPat::Const(c) => Some(*c),
            TermPat::Var(_) => None,
        }
    }
}

/// A triple atom `(s p o)` over [`TermPat`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Subject pattern.
    pub s: TermPat,
    /// Predicate pattern.
    pub p: TermPat,
    /// Object pattern.
    pub o: TermPat,
}

/// Variable bindings for one rule instantiation, indexed by variable id.
pub type Bindings = Vec<Option<NodeId>>;

/// Undo record for [`Atom::match_triple_in_place`]: the (at most three)
/// variable indices that call newly bound, to be cleared when the caller
/// backtracks past the match.
#[derive(Debug, Default, Clone, Copy)]
pub struct MatchUndo {
    vars: [u16; 3],
    len: u8,
}

impl MatchUndo {
    fn push(&mut self, var: u16) {
        self.vars[self.len as usize] = var;
        self.len += 1;
    }

    /// Clear the bindings this match introduced.
    pub fn undo(&self, bindings: &mut Bindings) {
        for &v in &self.vars[..self.len as usize] {
            bindings[v as usize] = None;
        }
    }
}

impl Atom {
    /// Construct an atom.
    pub fn new(s: TermPat, p: TermPat, o: TermPat) -> Self {
        Atom { s, p, o }
    }

    /// The atom's positions as an array.
    pub fn positions(&self) -> [TermPat; 3] {
        [self.s, self.p, self.o]
    }

    /// All distinct variable indices in this atom.
    pub fn variables(&self) -> Vec<u16> {
        let mut vs: Vec<u16> = self.positions().iter().filter_map(TermPat::as_var).collect();
        vs.sort_unstable();
        vs.dedup();
        vs
    }

    /// Turn this atom into a store pattern under `bindings`: bound vars and
    /// constants become concrete, unbound vars become wildcards.
    pub fn to_pattern(&self, bindings: &Bindings) -> TriplePattern {
        let resolve = |tp: TermPat| match tp {
            TermPat::Const(c) => Some(c),
            TermPat::Var(v) => bindings[v as usize],
        };
        TriplePattern::new(resolve(self.s), resolve(self.p), resolve(self.o))
    }

    /// Try to extend `bindings` so that this atom matches triple `t`.
    /// Returns `false` (leaving bindings possibly partially updated — use
    /// [`Atom::match_triple`] for the checked variant) on conflict.
    fn unify_into(&self, t: &Triple, bindings: &mut Bindings) -> bool {
        for (pat, val) in self.positions().into_iter().zip(t.as_array()) {
            match pat {
                TermPat::Const(c) => {
                    if c != val {
                        return false;
                    }
                }
                TermPat::Var(v) => match bindings[v as usize] {
                    None => bindings[v as usize] = Some(val),
                    Some(existing) => {
                        if existing != val {
                            return false;
                        }
                    }
                },
            }
        }
        true
    }

    /// Extend a copy of `bindings` to match triple `t`; `None` on conflict.
    pub fn match_triple(&self, t: &Triple, bindings: &Bindings) -> Option<Bindings> {
        let mut b = bindings.clone();
        if self.unify_into(t, &mut b) {
            Some(b)
        } else {
            None
        }
    }

    /// Allocation-free variant of [`Atom::match_triple`]: extend
    /// `bindings` in place. On success returns the undo record for the
    /// variables this call newly bound; on conflict rolls back its own
    /// partial bindings and returns `None`. Either way `bindings` is
    /// consistent when this returns.
    pub fn match_triple_in_place(&self, t: &Triple, bindings: &mut Bindings) -> Option<MatchUndo> {
        let mut undo = MatchUndo::default();
        for (pat, val) in self.positions().into_iter().zip(t.as_array()) {
            match pat {
                TermPat::Const(c) => {
                    if c != val {
                        undo.undo(bindings);
                        return None;
                    }
                }
                TermPat::Var(v) => match bindings[v as usize] {
                    None => {
                        bindings[v as usize] = Some(val);
                        undo.push(v);
                    }
                    Some(existing) => {
                        if existing != val {
                            undo.undo(bindings);
                            return None;
                        }
                    }
                },
            }
        }
        Some(undo)
    }

    /// Instantiate this atom into a ground triple; `None` if any variable
    /// is unbound.
    pub fn instantiate(&self, bindings: &Bindings) -> Option<Triple> {
        let resolve = |tp: TermPat| match tp {
            TermPat::Const(c) => Some(c),
            TermPat::Var(v) => bindings[v as usize],
        };
        Some(Triple::new(
            resolve(self.s)?,
            resolve(self.p)?,
            resolve(self.o)?,
        ))
    }

    /// Can this atom possibly match triple `t` ignoring variable
    /// consistency (i.e. constants agree positionally)? Used by the rule
    /// partitioner's triple-routing test.
    pub fn could_match(&self, t: &Triple) -> bool {
        self.positions()
            .into_iter()
            .zip(t.as_array())
            .all(|(pat, val)| match pat {
                TermPat::Const(c) => c == val,
                TermPat::Var(_) => true,
            })
    }

    /// Do two atoms potentially unify (var matches anything, constants must
    /// be equal)? Conservative test used to build the rule-dependency graph.
    pub fn may_unify(&self, other: &Atom) -> bool {
        self.positions()
            .into_iter()
            .zip(other.positions())
            .all(|(a, b)| match (a, b) {
                (TermPat::Const(x), TermPat::Const(y)) => x == y,
                _ => true,
            })
    }
}

/// A datalog rule: one head atom, conjunctive body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Rule label for diagnostics and reporting.
    pub name: String,
    /// The single head atom (derived triple template).
    pub head: Atom,
    /// Conjunctive body (sub-goals).
    pub body: Vec<Atom>,
    /// Number of distinct variables (they are densely numbered `0..var_count`).
    pub var_count: u16,
}

impl Rule {
    /// Build a rule, computing `var_count` and validating:
    /// * the body is non-empty,
    /// * variable indices are dense,
    /// * the rule is range-restricted (every head variable occurs in the body).
    pub fn new(name: impl Into<String>, head: Atom, body: Vec<Atom>) -> Result<Self, String> {
        let name = name.into();
        if body.is_empty() {
            return Err(format!("rule {name}: empty body not supported"));
        }
        let mut seen: Vec<u16> = body
            .iter()
            .chain(std::iter::once(&head))
            .flat_map(|a| a.variables())
            .collect();
        seen.sort_unstable();
        seen.dedup();
        for (i, v) in seen.iter().enumerate() {
            if *v as usize != i {
                return Err(format!("rule {name}: variable indices not dense"));
            }
        }
        let var_count = seen.len() as u16;
        let body_vars: Vec<u16> = {
            let mut vs: Vec<u16> = body.iter().flat_map(|a| a.variables()).collect();
            vs.sort_unstable();
            vs.dedup();
            vs
        };
        for v in head.variables() {
            if !body_vars.contains(&v) {
                return Err(format!(
                    "rule {name}: head variable ?{v} not bound in body (not range-restricted)"
                ));
            }
        }
        Ok(Rule {
            name,
            head,
            body,
            var_count,
        })
    }

    /// A fresh all-unbound binding frame for this rule.
    pub fn empty_bindings(&self) -> Bindings {
        vec![None; self.var_count as usize]
    }
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn pat(tp: TermPat) -> String {
            match tp {
                TermPat::Var(v) => format!("?v{v}"),
                TermPat::Const(c) => format!("{c}"),
            }
        }
        write!(f, "[{}: ", self.name)?;
        for a in &self.body {
            write!(f, "({} {} {}) ", pat(a.s), pat(a.p), pat(a.o))?;
        }
        write!(
            f,
            "-> ({} {} {})]",
            pat(self.head.s),
            pat(self.head.p),
            pat(self.head.o)
        )
    }
}

/// Shorthand constructors used heavily in tests and the OWL rule templates.
pub mod build {
    use super::*;

    /// Variable pattern.
    pub fn v(i: u16) -> TermPat {
        TermPat::Var(i)
    }

    /// Constant pattern.
    pub fn c(id: NodeId) -> TermPat {
        TermPat::Const(id)
    }

    /// Atom from three patterns.
    pub fn atom(s: TermPat, p: TermPat, o: TermPat) -> Atom {
        Atom::new(s, p, o)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::build::*;
    use super::*;

    fn nid(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn rule_construction_counts_vars() {
        let r = Rule::new(
            "t",
            atom(v(0), c(nid(9)), v(2)),
            vec![atom(v(0), c(nid(9)), v(1)), atom(v(1), c(nid(9)), v(2))],
        )
        .unwrap();
        assert_eq!(r.var_count, 3);
        assert_eq!(r.empty_bindings(), vec![None, None, None]);
    }

    #[test]
    fn rejects_empty_body() {
        assert!(Rule::new("e", atom(v(0), v(0), v(0)), vec![]).is_err());
    }

    #[test]
    fn rejects_non_dense_vars() {
        let r = Rule::new(
            "nd",
            atom(v(0), c(nid(1)), v(5)),
            vec![atom(v(0), c(nid(1)), v(5))],
        );
        assert!(r.is_err());
    }

    #[test]
    fn rejects_unbound_head_var() {
        let r = Rule::new(
            "ur",
            atom(v(0), c(nid(1)), v(1)),
            vec![atom(v(0), c(nid(1)), v(0))],
        );
        assert!(r.unwrap_err().contains("range-restricted"));
    }

    #[test]
    fn match_triple_binds_and_checks_consistency() {
        let a = atom(v(0), c(nid(5)), v(0)); // reflexive pattern
        let b0 = vec![None];
        assert!(a
            .match_triple(&Triple::new(nid(1), nid(5), nid(1)), &b0)
            .is_some());
        assert!(a
            .match_triple(&Triple::new(nid(1), nid(5), nid(2)), &b0)
            .is_none());
        assert!(a
            .match_triple(&Triple::new(nid(1), nid(6), nid(1)), &b0)
            .is_none());
    }

    #[test]
    fn match_respects_existing_bindings() {
        let a = atom(v(0), c(nid(5)), v(1));
        let b = vec![Some(nid(7)), None];
        assert!(a
            .match_triple(&Triple::new(nid(7), nid(5), nid(8)), &b)
            .is_some());
        assert!(a
            .match_triple(&Triple::new(nid(9), nid(5), nid(8)), &b)
            .is_none());
    }

    #[test]
    fn instantiate_requires_full_bindings() {
        let a = atom(v(0), c(nid(5)), v(1));
        assert_eq!(a.instantiate(&vec![Some(nid(1)), None]), None);
        assert_eq!(
            a.instantiate(&vec![Some(nid(1)), Some(nid(2))]),
            Some(Triple::new(nid(1), nid(5), nid(2)))
        );
    }

    #[test]
    fn to_pattern_mixes_bound_and_wild() {
        let a = atom(v(0), c(nid(5)), v(1));
        let p = a.to_pattern(&vec![Some(nid(3)), None]);
        assert_eq!(p.s, Some(nid(3)));
        assert_eq!(p.p, Some(nid(5)));
        assert_eq!(p.o, None);
    }

    #[test]
    fn could_match_ignores_var_consistency() {
        let a = atom(v(0), c(nid(5)), v(0));
        // var consistency (s == o) is NOT checked by could_match
        assert!(a.could_match(&Triple::new(nid(1), nid(5), nid(2))));
        assert!(!a.could_match(&Triple::new(nid(1), nid(6), nid(2))));
    }

    #[test]
    fn may_unify_is_conservative() {
        let a = atom(v(0), c(nid(5)), v(1));
        let b = atom(c(nid(9)), c(nid(5)), v(0));
        let c_ = atom(c(nid(9)), c(nid(6)), v(0));
        assert!(a.may_unify(&b));
        assert!(!a.may_unify(&c_));
    }

    #[test]
    fn display_renders_rule() {
        let r = Rule::new(
            "trans",
            atom(v(0), c(nid(9)), v(2)),
            vec![atom(v(0), c(nid(9)), v(1)), atom(v(1), c(nid(9)), v(2))],
        )
        .unwrap();
        let s = r.to_string();
        assert!(s.contains("trans"));
        assert!(s.contains("->"));
    }
}

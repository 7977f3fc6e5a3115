//! BGP execution: index-driven nested-loop joins with greedy
//! most-bound-first ordering, the next pattern chosen per binding under
//! a frame of optional values. The datalog engine orders its joins by
//! the same rule but once, when a rule is built (its compiled join
//! plans); a query is joined once, so it plans as it goes.

use crate::ast::{Query, QueryForm};
use owlpar_datalog::ast::Bindings;
use owlpar_rdf::fx::FxHashSet;
use owlpar_rdf::{NodeId, TripleSource};

/// One result row: the values of the projected variables, in projection
/// order.
pub type Row = Vec<NodeId>;

/// Evaluate a SELECT query; ASK queries yield zero or one empty row
/// (prefer [`ask`]). Generic over [`TripleSource`] so queries run
/// identically against a mutable `TripleStore`, a frozen store, or the
/// serving layer's base+delta overlay snapshots.
pub fn execute<S: TripleSource + ?Sized>(store: &S, q: &Query) -> Vec<Row> {
    let projected = q.projected();
    let mut rows: Vec<Row> = Vec::new();
    let mut seen: FxHashSet<Row> = FxHashSet::default();
    let mut remaining: Vec<usize> = (0..q.patterns.len()).collect();
    let bindings: Bindings = vec![None; q.var_names.len()];
    let early_exit = q.form == QueryForm::Ask;
    join(
        store,
        q,
        &mut remaining,
        bindings,
        &projected,
        &mut rows,
        &mut seen,
        early_exit,
    );
    rows
}

/// Evaluate an ASK query (or "does this SELECT have any solution").
pub fn ask<S: TripleSource + ?Sized>(store: &S, q: &Query) -> bool {
    let mut probe = q.clone();
    probe.form = QueryForm::Ask;
    probe.limit = Some(1);
    !execute(store, &probe).is_empty()
}

#[allow(clippy::too_many_arguments)]
fn join<S: TripleSource + ?Sized>(
    store: &S,
    q: &Query,
    remaining: &mut Vec<usize>,
    bindings: Bindings,
    projected: &[u16],
    rows: &mut Vec<Row>,
    seen: &mut FxHashSet<Row>,
    early_exit: bool,
) -> bool {
    if let Some(limit) = q.limit {
        if rows.len() >= limit {
            return true; // saturated
        }
    }
    if remaining.is_empty() {
        // The parser rejects projections of variables that appear in no
        // pattern, so every projected slot is bound once all patterns
        // matched; an unbound slot would mean a parser bug — emit nothing.
        let Some(row) = projected
            .iter()
            .map(|&i| bindings[i as usize])
            .collect::<Option<Row>>()
        else {
            return false;
        };
        if !q.distinct || seen.insert(row.clone()) {
            rows.push(row);
        }
        return early_exit || q.limit.is_some_and(|l| rows.len() >= l);
    }
    // cheapest next pattern: most bound positions under current bindings
    // (`remaining` is non-empty here, so the max always exists).
    let Some((slot, _)) = remaining
        .iter()
        .enumerate()
        .max_by_key(|(_, &i)| q.patterns[i].to_pattern(&bindings).bound_count())
    else {
        return false;
    };
    let atom_idx = remaining.swap_remove(slot);
    let atom = q.patterns[atom_idx];
    let pat = atom.to_pattern(&bindings);
    let mut done = false;
    let mut matches = Vec::new();
    store.for_each_match(pat, |t| matches.push(t));
    for t in matches {
        if done {
            break;
        }
        if let Some(b) = atom.match_triple(&t, &bindings) {
            done = join(store, q, remaining, b, projected, rows, seen, early_exit);
        }
    }
    remaining.push(atom_idx);
    done
}

/// Decode a result row into display strings via the dictionary.
pub fn render_row(dict: &owlpar_rdf::Dictionary, row: &Row) -> Vec<String> {
    row.iter()
        .map(|&id| {
            dict.term(id)
                .map(|t| t.to_string())
                .unwrap_or_else(|| format!("{id}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::parser::parse_query;
    use owlpar_rdf::{Graph, Term};

    fn campus() -> Graph {
        let mut g = Graph::new();
        let tr = [
            ("alice", "type", "Student"),
            ("bob", "type", "Student"),
            ("carol", "type", "Professor"),
            ("alice", "takes", "cs101"),
            ("alice", "takes", "cs102"),
            ("bob", "takes", "cs101"),
            ("carol", "teaches", "cs101"),
            ("carol", "teaches", "cs102"),
        ];
        for (s, p, o) in tr {
            g.insert_iris(
                format!("http://x/{s}"),
                format!("http://x/{p}"),
                format!("http://x/{o}"),
            );
        }
        g
    }

    fn run(g: &mut Graph, src: &str) -> Vec<Vec<String>> {
        let q = parse_query(src, &mut g.dict).unwrap();
        let mut rows: Vec<Vec<String>> = execute(&g.store, &q)
            .iter()
            .map(|r| render_row(&g.dict, r))
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn single_pattern_select() {
        let mut g = campus();
        let rows = run(
            &mut g,
            "SELECT ?s WHERE { ?s <http://x/type> <http://x/Student> }",
        );
        assert_eq!(rows, vec![vec!["<http://x/alice>"], vec!["<http://x/bob>"]]);
    }

    #[test]
    fn two_pattern_join() {
        let mut g = campus();
        // students in a course carol teaches
        let rows = run(
            &mut g,
            "SELECT DISTINCT ?s WHERE { \
                ?s <http://x/takes> ?c . \
                <http://x/carol> <http://x/teaches> ?c . }",
        );
        assert_eq!(rows, vec![vec!["<http://x/alice>"], vec!["<http://x/bob>"]]);
    }

    #[test]
    fn three_way_join_projects_in_order() {
        let mut g = campus();
        let rows = run(
            &mut g,
            "SELECT ?c ?s WHERE { \
                ?s <http://x/type> <http://x/Student> . \
                ?s <http://x/takes> ?c . \
                ?t <http://x/teaches> ?c . }",
        );
        assert_eq!(rows.len(), 3); // (cs101,alice),(cs101,bob),(cs102,alice)
        assert!(rows.iter().all(|r| r[0].contains("cs")));
    }

    #[test]
    fn distinct_dedupes() {
        let mut g = campus();
        let with = run(&mut g, "SELECT DISTINCT ?c WHERE { ?s <http://x/takes> ?c }");
        let without = run(&mut g, "SELECT ?c WHERE { ?s <http://x/takes> ?c }");
        assert_eq!(with.len(), 2);
        assert_eq!(without.len(), 3);
    }

    #[test]
    fn limit_caps_rows() {
        let mut g = campus();
        let rows = run(&mut g, "SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 3");
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn ask_true_and_false() {
        let mut g = campus();
        let yes = parse_query(
            "ASK { <http://x/alice> <http://x/takes> <http://x/cs101> }",
            &mut g.dict,
        )
        .unwrap();
        assert!(ask(&g.store, &yes));
        let no = parse_query(
            "ASK { <http://x/bob> <http://x/teaches> ?c }",
            &mut g.dict,
        )
        .unwrap();
        assert!(!ask(&g.store, &no));
    }

    #[test]
    fn unbound_query_on_empty_store() {
        let mut g = Graph::new();
        let q = parse_query("SELECT ?s WHERE { ?s ?p ?o }", &mut g.dict).unwrap();
        assert!(execute(&g.store, &q).is_empty());
    }

    #[test]
    fn shared_variable_within_pattern() {
        let mut g = campus();
        g.insert_iris("http://x/n", "http://x/loop", "http://x/n");
        let rows = run(&mut g, "SELECT ?n WHERE { ?n <http://x/loop> ?n }");
        assert_eq!(rows, vec![vec!["<http://x/n>"]]);
    }

    #[test]
    fn literal_constants_match() {
        let mut g = campus();
        g.insert_terms(
            Term::iri("http://x/alice"),
            Term::iri("http://x/name"),
            Term::literal("Alice"),
        );
        let rows = run(&mut g, "SELECT ?s WHERE { ?s <http://x/name> \"Alice\" }");
        assert_eq!(rows, vec![vec!["<http://x/alice>"]]);
    }

    #[test]
    fn unbound_predicate_pattern() {
        let mut g = campus();
        let rows = run(
            &mut g,
            "SELECT ?p WHERE { <http://x/alice> ?p <http://x/cs101> }",
        );
        assert_eq!(rows, vec![vec!["<http://x/takes>"]]);
    }

    #[test]
    fn predicate_variable_joined_across_patterns() {
        let mut g = campus();
        // same predicate relating two subjects to the same object
        let rows = run(
            &mut g,
            "SELECT DISTINCT ?p WHERE { \
               <http://x/alice> ?p ?c . \
               <http://x/bob> ?p ?c . }",
        );
        assert_eq!(
            rows,
            vec![vec!["<http://x/takes>"], vec!["<http://x/type>"]]
        );
    }

    #[test]
    fn frozen_parse_executes_like_mutable_parse() {
        let mut g = campus();
        let src = "SELECT ?s WHERE { ?s <http://x/type> <http://x/Student> }";
        let q_mut = parse_query(src, &mut g.dict).unwrap();
        let q_frozen = crate::parser::parse_query_frozen(src, &g.dict).unwrap();
        assert_eq!(execute(&g.store, &q_mut), execute(&g.store, &q_frozen));
    }

    #[test]
    fn frozen_query_with_unknown_constant_matches_nothing() {
        let g = campus();
        let before = g.dict.len();
        let q = crate::parser::parse_query_frozen(
            "SELECT ?s WHERE { ?s <http://x/type> <http://x/Dean> }",
            &g.dict,
        )
        .unwrap();
        assert!(execute(&g.store, &q).is_empty());
        assert_eq!(g.dict.len(), before);
    }

    #[test]
    fn cross_product_patterns_allowed() {
        let mut g = campus();
        let rows = run(
            &mut g,
            "SELECT ?a ?b WHERE { \
               ?a <http://x/type> <http://x/Professor> . \
               ?b <http://x/type> <http://x/Student> . }",
        );
        assert_eq!(rows.len(), 2); // carol × {alice, bob}
    }
}

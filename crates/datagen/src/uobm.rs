//! A UOBM-style generator: LUBM plus dense cross-university social links.
//!
//! UOBM ("Unified Ontology Benchmark") was designed to fix LUBM's
//! unrealistically clean per-university clustering: its individuals are
//! socially linked *across* universities. That is exactly the property the
//! paper leans on to explain UOBM's sub-linear speedups — high edge-cut,
//! high input replication, more duplicated work. We reproduce it by
//! sprinkling symmetric `isFriendOf` and transitive+symmetric
//! `hasSameHomeTownWith` edges between random people of different
//! universities.

use crate::lubm::{lubm_instances, LubmConfig};
use crate::ontology::{univ, univ_bench_tbox, uobm_extension_tbox};
use crate::Builder;
use owlpar_rdf::{Graph, NodeId, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct UobmConfig {
    /// The LUBM core universe.
    pub lubm: LubmConfig,
    /// Cross-university friendship edges per person (≥ this, Poisson-ish).
    pub friends_per_person: f64,
    /// Fraction of people that share a home town with someone at another
    /// university (feeds the transitive `hasSameHomeTownWith` rule).
    pub hometown_fraction: f64,
}

impl Default for UobmConfig {
    fn default() -> Self {
        UobmConfig {
            lubm: LubmConfig::default(),
            friends_per_person: 2.0,
            hometown_fraction: 0.1,
        }
    }
}

impl UobmConfig {
    /// UOBM-N at full scale.
    pub fn paper(universities: usize) -> Self {
        UobmConfig {
            lubm: LubmConfig::paper(universities),
            ..Self::default()
        }
    }

    /// Test-size universe.
    pub fn mini(universities: usize) -> Self {
        UobmConfig {
            lubm: LubmConfig::mini(universities),
            ..Self::default()
        }
    }
}

/// Generate a UOBM-like dataset.
pub fn generate_uobm(cfg: &UobmConfig) -> Graph {
    let mut g = Graph::new();
    univ_bench_tbox(&mut g);
    uobm_extension_tbox(&mut g);
    let mut b = Builder::new(g);
    lubm_instances(&mut b, &cfg.lubm);
    social_links(&mut b, cfg);
    b.finish()
}

/// Add the cross-university `isFriendOf` / `hasSameHomeTownWith` edges
/// between the people generated so far.
fn social_links(b: &mut Builder, cfg: &UobmConfig) {
    let mut rng = StdRng::seed_from_u64(cfg.lubm.seed ^ 0x0b_0b);

    // Collect people grouped by university (from the IRI authority), class
    // by class and within a class in creation order — the pinned text
    // depends on it. That is the order `matches(?, rdf:type, C)` returned
    // when people were read back from a store they had been inserted
    // into one by one; the POS row of a compacted store (subjects
    // ascending) agrees with it only because ids follow creation.
    let person_classes = ["UndergraduateStudent", "GraduateStudent", "FullProfessor",
        "AssociateProfessor", "AssistantProfessor", "Lecturer"];
    let mut people: Vec<(usize, NodeId)> = Vec::new();
    for cls in person_classes {
        let Some(cid) = b.g.dict.id(&Term::iri(univ(cls))) else { continue };
        for t in b.triples.iter().filter(|t| t.p == b.rdf_type && t.o == cid) {
            let iri = b.g.term(t.s).and_then(Term::as_iri);
            people.push((iri.map_or(0, university_of), t.s));
        }
    }
    if people.len() < 2 {
        return;
    }

    let is_friend = b.g.intern_iri(univ("isFriendOf"));
    let hometown = b.g.intern_iri(univ("hasSameHomeTownWith"));

    // friendships: mostly cross-university
    let n_friend_edges = (people.len() as f64 * cfg.friends_per_person) as usize;
    for _ in 0..n_friend_edges {
        let (ua, a) = people[rng.gen_range(0..people.len())];
        // try to find a partner at another university
        let mut partner = people[rng.gen_range(0..people.len())];
        for _ in 0..4 {
            if partner.0 != ua {
                break;
            }
            partner = people[rng.gen_range(0..people.len())];
        }
        if a != partner.1 {
            b.add(a, is_friend, partner.1);
        }
    }

    // home towns: small cross-university cliques via a shared chain
    let n_hometown = (people.len() as f64 * cfg.hometown_fraction) as usize;
    let mut prev: Option<NodeId> = None;
    for i in 0..n_hometown {
        let (_, p) = people[rng.gen_range(0..people.len())];
        if let Some(q) = prev {
            if p != q {
                b.add(q, hometown, p);
            }
        }
        // start a new chain every few people so cliques stay bounded
        prev = if i % 6 == 5 { None } else { Some(p) };
    }
}

/// Parse the university index out of an entity IRI
/// (`http://www.univ{u}.edu/...`); 0 if the shape is unexpected.
fn university_of(iri: &str) -> usize {
    iri.strip_prefix("http://www.univ")
        .and_then(|rest| rest.split('.').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use owlpar_rdf::TriplePattern;

    #[test]
    fn university_of_parses() {
        assert_eq!(university_of("http://www.univ3.edu/dept1/x"), 3);
        assert_eq!(university_of("http://www.univ12.edu/university"), 12);
        assert_eq!(university_of("http://other.org/x"), 0);
    }

    #[test]
    fn uobm_is_superset_shape_of_lubm() {
        let lubm = crate::generate_lubm(&LubmConfig::mini(2));
        let uobm = generate_uobm(&UobmConfig::mini(2));
        assert!(uobm.len() > lubm.len(), "{} vs {}", uobm.len(), lubm.len());
    }

    #[test]
    fn has_cross_university_friendships() {
        let g = generate_uobm(&UobmConfig::mini(2));
        let f = g.dict.id(&Term::iri(univ("isFriendOf"))).unwrap();
        let friends = g.matches(TriplePattern::new(None, Some(f), None));
        assert!(!friends.is_empty());
        let cross = friends
            .iter()
            .filter(|t| {
                let ua = g.term(t.s).and_then(|x| x.as_iri().map(university_of));
                let ub = g.term(t.o).and_then(|x| x.as_iri().map(university_of));
                ua != ub
            })
            .count();
        assert!(
            cross * 2 > friends.len(),
            "friendships should be mostly cross-university: {cross}/{}",
            friends.len()
        );
    }

    #[test]
    fn deterministic() {
        let a = generate_uobm(&UobmConfig::mini(2));
        let b = generate_uobm(&UobmConfig::mini(2));
        assert_eq!(a.term_fingerprint(), b.term_fingerprint());
    }

    #[test]
    fn hometown_chains_exist() {
        let g = generate_uobm(&UobmConfig::mini(2));
        let h = g.dict.id(&Term::iri(univ("hasSameHomeTownWith"))).unwrap();
        assert!(!g.matches(TriplePattern::new(None, Some(h), None)).is_empty());
    }
}

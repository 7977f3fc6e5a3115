//! The LUBM (Lehigh University Benchmark) data generator.
//!
//! Reimplements the UBA generator's structure: per university a set of
//! departments; per department full/associate/assistant professors,
//! lecturers, under/graduate students, courses and publications, wired up
//! with the univ-bench properties. Counts follow the UBA ranges scaled by
//! [`LubmConfig::scale`] so test- and laptop-sized universes keep the same
//! shape. `LUBM-N` = `LubmConfig::paper(N)`.
//!
//! Entity IRIs put the university in the authority
//! (`http://www.univ{u}.edu/dept{d}/...`), which is both what the real
//! generator does and what the domain-specific partitioner keys on.

use crate::ontology::{univ, univ_bench_tbox};
use crate::Builder;
use owlpar_rdf::{Graph, NodeId, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct LubmConfig {
    /// Number of universities (the N in LUBM-N).
    pub universities: usize,
    /// RNG seed; same seed ⇒ identical dataset.
    pub seed: u64,
    /// Multiplier on all per-department entity counts (1.0 = UBA-like).
    pub scale: f64,
}

impl Default for LubmConfig {
    fn default() -> Self {
        LubmConfig {
            universities: 1,
            seed: 42,
            scale: 1.0,
        }
    }
}

impl LubmConfig {
    /// Full-size LUBM-N (≈100k triples per university).
    pub fn paper(universities: usize) -> Self {
        LubmConfig {
            universities,
            ..Self::default()
        }
    }

    /// A reduced universe (~1/20 of a full university) for unit tests and
    /// laptop-scale experiment defaults.
    pub fn mini(universities: usize) -> Self {
        LubmConfig {
            universities,
            scale: 0.05,
            ..Self::default()
        }
    }
}

struct Gen<'a> {
    b: &'a mut Builder,
    rng: StdRng,
    props: Props,
    classes: Classes,
}

struct Props {
    sub_org: NodeId,
    works_for: NodeId,
    head_of: NodeId,
    member_of: NodeId,
    teacher_of: NodeId,
    takes_course: NodeId,
    advisor: NodeId,
    pub_author: NodeId,
    ug_degree: NodeId,
    ms_degree: NodeId,
    phd_degree: NodeId,
    email: NodeId,
    name: NodeId,
}

struct Classes {
    university: NodeId,
    department: NodeId,
    research_group: NodeId,
    full_professor: NodeId,
    associate_professor: NodeId,
    assistant_professor: NodeId,
    lecturer: NodeId,
    course: NodeId,
    graduate_course: NodeId,
    undergraduate_student: NodeId,
    graduate_student: NodeId,
    publication: NodeId,
}

impl<'a> Gen<'a> {
    fn new(b: &'a mut Builder, seed: u64) -> Self {
        let g = &mut b.g;
        let props = Props {
            sub_org: g.intern_iri(univ("subOrganizationOf")),
            works_for: g.intern_iri(univ("worksFor")),
            head_of: g.intern_iri(univ("headOf")),
            member_of: g.intern_iri(univ("memberOf")),
            teacher_of: g.intern_iri(univ("teacherOf")),
            takes_course: g.intern_iri(univ("takesCourse")),
            advisor: g.intern_iri(univ("advisor")),
            pub_author: g.intern_iri(univ("publicationAuthor")),
            ug_degree: g.intern_iri(univ("undergraduateDegreeFrom")),
            ms_degree: g.intern_iri(univ("mastersDegreeFrom")),
            phd_degree: g.intern_iri(univ("doctoralDegreeFrom")),
            email: g.intern_iri(univ("emailAddress")),
            name: g.intern_iri(univ("name")),
        };
        // The TBox declared every class, so these take no new ids.
        let classes = Classes {
            university: g.intern_iri(univ("University")),
            department: g.intern_iri(univ("Department")),
            research_group: g.intern_iri(univ("ResearchGroup")),
            full_professor: g.intern_iri(univ("FullProfessor")),
            associate_professor: g.intern_iri(univ("AssociateProfessor")),
            assistant_professor: g.intern_iri(univ("AssistantProfessor")),
            lecturer: g.intern_iri(univ("Lecturer")),
            course: g.intern_iri(univ("Course")),
            graduate_course: g.intern_iri(univ("GraduateCourse")),
            undergraduate_student: g.intern_iri(univ("UndergraduateStudent")),
            graduate_student: g.intern_iri(univ("GraduateStudent")),
            publication: g.intern_iri(univ("Publication")),
        };
        Gen {
            b,
            rng: StdRng::seed_from_u64(seed),
            props,
            classes,
        }
    }

    fn range(&mut self, lo: usize, hi: usize, scale: f64) -> usize {
        let n = self.rng.gen_range(lo..=hi);
        ((n as f64 * scale).round() as usize).max(1)
    }
}

/// University IRI for index `u`.
pub fn university_iri(u: usize) -> String {
    format!("http://www.univ{u}.edu/university")
}

/// Department IRI prefix for `(u, d)`.
pub fn department_iri(u: usize, d: usize) -> String {
    format!("http://www.univ{u}.edu/dept{d}")
}

/// Generate a LUBM dataset (schema + instance triples) into a fresh graph.
pub fn generate_lubm(cfg: &LubmConfig) -> Graph {
    let mut g = Graph::new();
    univ_bench_tbox(&mut g);
    let mut b = Builder::new(g);
    lubm_instances(&mut b, cfg);
    b.finish()
}

/// Generate LUBM instance data into a graph under generation (which holds
/// the TBox). Shared by the UOBM generator.
pub(crate) fn lubm_instances(b: &mut Builder, cfg: &LubmConfig) {
    let mut gen = Gen::new(b, cfg.seed);
    let s = cfg.scale;

    // Universities exist up front so degreeFrom can point anywhere.
    let universities: Vec<NodeId> = (0..cfg.universities)
        .map(|u| {
            gen.b.typed(
                format_args!("{}", university_iri(u)),
                gen.classes.university,
            )
        })
        .collect();

    for u in 0..cfg.universities {
        let n_dept = gen.range(15, 25, s);
        for d in 0..n_dept {
            generate_department(&mut gen, &universities, u, d, s);
        }
    }
}

fn generate_department(gen: &mut Gen<'_>, universities: &[NodeId], u: usize, d: usize, s: f64) {
    let base = department_iri(u, d);
    let dept = gen.b.typed(format_args!("{base}"), gen.classes.department);
    gen.b.add(dept, gen.props.sub_org, universities[u]);

    // research groups: dept -> group chains extend the subOrganizationOf
    // transitive workload
    let n_groups = gen.range(10, 20, s);
    for i in 0..n_groups {
        let grp = gen
            .b
            .typed(format_args!("{base}/group{i}"), gen.classes.research_group);
        gen.b.add(grp, gen.props.sub_org, dept);
    }

    let n_full = gen.range(7, 10, s);
    let n_assoc = gen.range(10, 14, s);
    let n_assist = gen.range(8, 11, s);
    let n_lect = gen.range(5, 7, s);

    let ranks = [
        (gen.classes.full_professor, "fullprof", n_full),
        (gen.classes.associate_professor, "assocprof", n_assoc),
        (gen.classes.assistant_professor, "assistprof", n_assist),
        (gen.classes.lecturer, "lecturer", n_lect),
    ];
    let mut faculty: Vec<NodeId> = Vec::new();
    for (class, tag, count) in ranks {
        for i in 0..count {
            let f = gen.b.typed(format_args!("{base}/{tag}{i}"), class);
            gen.b.add(f, gen.props.works_for, dept);
            // a degree from a random university (cross-university edge)
            let from = universities[gen.rng.gen_range(0..universities.len().max(1))];
            gen.b.add(f, gen.props.phd_degree, from);
            let email = gen
                .b
                .g
                .intern(Term::literal(format!("{tag}{i}@univ{u}.edu")));
            gen.b.add(f, gen.props.email, email);
            faculty.push(f);
        }
    }

    // the chair heads the department (headOf ⊑ worksFor ⊑ memberOf)
    gen.b.add(faculty[0], gen.props.head_of, dept);

    // courses: each faculty teaches 1-2, plus graduate courses
    let mut courses = Vec::new();
    for (i, &f) in faculty.iter().enumerate() {
        let n_c = gen.rng.gen_range(1..=2);
        for c in 0..n_c {
            let class = if gen.rng.gen_bool(0.3) {
                gen.classes.graduate_course
            } else {
                gen.classes.course
            };
            let crs = gen.b.typed(format_args!("{base}/course{i}_{c}"), class);
            gen.b.add(f, gen.props.teacher_of, crs);
            courses.push(crs);
        }
    }

    // students
    let n_ugrad = gen.range(80, 120, s);
    let n_grad = gen.range(25, 40, s);
    let mut grads = Vec::with_capacity(n_grad);
    for i in 0..n_ugrad {
        let st = gen.b.typed(
            format_args!("{base}/ugstudent{i}"),
            gen.classes.undergraduate_student,
        );
        gen.b.add(st, gen.props.member_of, dept);
        for _ in 0..gen.rng.gen_range(2..=4) {
            let crs = courses[gen.rng.gen_range(0..courses.len())];
            gen.b.add(st, gen.props.takes_course, crs);
        }
        if gen.rng.gen_bool(0.2) {
            let adv = faculty[gen.rng.gen_range(0..faculty.len())];
            gen.b.add(st, gen.props.advisor, adv);
        }
    }
    for i in 0..n_grad {
        let st = gen.b.typed(
            format_args!("{base}/gstudent{i}"),
            gen.classes.graduate_student,
        );
        gen.b.add(st, gen.props.member_of, dept);
        for _ in 0..gen.rng.gen_range(1..=3) {
            let crs = courses[gen.rng.gen_range(0..courses.len())];
            gen.b.add(st, gen.props.takes_course, crs);
        }
        let adv = faculty[gen.rng.gen_range(0..faculty.len())];
        gen.b.add(st, gen.props.advisor, adv);
        // undergraduate degree from a random (usually other) university
        let from = universities[gen.rng.gen_range(0..universities.len())];
        gen.b.add(st, gen.props.ug_degree, from);
        if gen.rng.gen_bool(0.25) {
            let from = universities[gen.rng.gen_range(0..universities.len())];
            gen.b.add(st, gen.props.ms_degree, from);
        }
        grads.push(st);
    }

    // publications: authored by faculty and grad students
    for (i, &f) in faculty.iter().enumerate() {
        let n_pub = gen.range(5, 15, s.max(0.2));
        for p in 0..n_pub {
            let pb = gen
                .b
                .typed(format_args!("{base}/pub{i}_{p}"), gen.classes.publication);
            gen.b.add(pb, gen.props.pub_author, f);
            if !grads.is_empty() && gen.rng.gen_bool(0.5) {
                let co = grads[gen.rng.gen_range(0..grads.len())];
                gen.b.add(pb, gen.props.pub_author, co);
            }
        }
    }

    // a name literal per department keeps literals in the node mix
    let name = gen
        .b
        .g
        .intern(Term::literal(format!("Department {d} of University {u}")));
    gen.b.add(dept, gen.props.name, name);
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use owlpar_rdf::vocab::RDF_TYPE;
    use owlpar_rdf::TriplePattern;

    fn mini() -> Graph {
        generate_lubm(&LubmConfig::mini(2))
    }

    #[test]
    fn deterministic_for_seed() {
        let a = generate_lubm(&LubmConfig::mini(1));
        let b = generate_lubm(&LubmConfig::mini(1));
        assert_eq!(a.len(), b.len());
        assert_eq!(a.term_fingerprint(), b.term_fingerprint());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_lubm(&LubmConfig::mini(1));
        let b = generate_lubm(&LubmConfig {
            seed: 7,
            ..LubmConfig::mini(1)
        });
        assert_ne!(a.term_fingerprint(), b.term_fingerprint());
    }

    #[test]
    fn scale_controls_size() {
        let small = generate_lubm(&LubmConfig::mini(1));
        let big = generate_lubm(&LubmConfig {
            scale: 0.15,
            ..LubmConfig::mini(1)
        });
        assert!(big.len() > small.len() * 2, "{} vs {}", big.len(), small.len());
    }

    #[test]
    fn more_universities_more_triples() {
        let one = generate_lubm(&LubmConfig::mini(1));
        let three = generate_lubm(&LubmConfig::mini(3));
        assert!(three.len() > one.len() * 2);
    }

    #[test]
    fn contains_expected_structure() {
        let g = mini();
        let type_id = g.dict.id(&Term::iri(RDF_TYPE)).unwrap();
        let dept_class = g.dict.id(&Term::iri(univ("Department"))).unwrap();
        let depts = g.matches(TriplePattern::new(None, Some(type_id), Some(dept_class)));
        assert!(!depts.is_empty());

        let sub_org = g.dict.id(&Term::iri(univ("subOrganizationOf"))).unwrap();
        let sub_orgs = g.matches(TriplePattern::new(None, Some(sub_org), None));
        // every dept + research group has a subOrganizationOf link
        assert!(sub_orgs.len() > depts.len());
    }

    #[test]
    fn universities_in_iri_authority() {
        let g = mini();
        let u0 = g.dict.id(&Term::iri(university_iri(0))).unwrap();
        assert_eq!(
            g.term(u0).unwrap().namespace(),
            Some("http://www.univ0.edu/")
        );
    }

    #[test]
    fn every_grad_student_has_advisor_and_degree() {
        let g = mini();
        let type_id = g.dict.id(&Term::iri(RDF_TYPE)).unwrap();
        let grad = g.dict.id(&Term::iri(univ("GraduateStudent"))).unwrap();
        let advisor = g.dict.id(&Term::iri(univ("advisor"))).unwrap();
        let ug = g.dict.id(&Term::iri(univ("undergraduateDegreeFrom"))).unwrap();
        for t in g.matches(TriplePattern::new(None, Some(type_id), Some(grad))) {
            assert!(
                !g.matches(TriplePattern::new(Some(t.s), Some(advisor), None)).is_empty(),
                "grad student without advisor"
            );
            assert!(
                !g.matches(TriplePattern::new(Some(t.s), Some(ug), None)).is_empty(),
                "grad student without undergraduate degree"
            );
        }
    }
}

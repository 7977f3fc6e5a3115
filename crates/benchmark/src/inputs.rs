//! Seeded inputs: knowledge bases as N-Triples text, the query mix and the
//! INSERT batches. The program under test only ever sees what this module
//! generates; `--seed` reaches nothing else.

use crate::spans::Spans;
use crate::Res;
use owlpar_datagen::ontology::univ;
use owlpar_datagen::{generate_lubm, generate_uobm, LubmConfig, UobmConfig};
use owlpar_rdf::vocab::RDF_TYPE;
use owlpar_rdf::{write_ntriples, Graph, Term, TriplePattern};

/// SplitMix64: the harness's own request-stream generator, so the stream
/// does not change when the workspace's `rand` (a stub offline) does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KbKind {
    Lubm,
    Uobm,
}

/// Which KB a workload loads. The generator's size varies by ±16 %/√N with
/// the seed (departments per university are drawn from 15..=25), which
/// would swamp every bound, so the generated text is cut to exactly
/// `triples` lines: `universities` is chosen so that nearly every seed
/// generates at least that many.
#[derive(Debug, Clone, Copy)]
pub struct KbSpec {
    pub kind: KbKind,
    pub universities: usize,
    pub scale: f64,
    pub triples: usize,
}

pub struct GeneratedKb {
    /// The N-Triples document handed to `parse_ntriples`.
    pub nt: String,
    /// Lines in `nt`.
    pub triples: usize,
    /// Triples the generator produced before the cut.
    pub generated: usize,
    /// Seconds inside the generator call alone.
    pub generate_s: f64,
}

/// Generate the KB for `seed` and serialize it. `write_ntriples` orders by
/// subject id, i.e. by creation order (schema, universities, then one
/// department after another), so the cut drops the tail departments. A
/// seed whose universe comes out smaller than the cut gets one more
/// university until it does not.
pub fn generate_kb(spec: &KbSpec, seed: u64, spans: &mut Spans) -> GeneratedKb {
    let mut universities = spec.universities;
    let (graph, generate_s) = loop {
        let lubm = LubmConfig {
            universities,
            seed,
            scale: spec.scale,
        };
        let (graph, secs) = spans.time("datagen.generate", || match spec.kind {
            KbKind::Lubm => generate_lubm(&lubm),
            KbKind::Uobm => generate_uobm(&UobmConfig {
                lubm,
                ..UobmConfig::default()
            }),
        });
        if graph.len() >= spec.triples {
            break (graph, secs);
        }
        universities += 1;
    };
    let (nt, _) = spans.time("harness.write_ntriples", || {
        let mut nt = write_ntriples(&graph);
        let cut = nt
            .match_indices('\n')
            .nth(spec.triples - 1)
            .map_or(nt.len(), |(i, _)| i + 1);
        nt.truncate(cut);
        nt
    });
    GeneratedKb {
        nt,
        triples: spec.triples,
        generated: graph.len(),
        generate_s,
    }
}

/// The entities requests may name, read back from the loaded base graph
/// (sorted, so the request stream depends on the seed and the KB only).
pub struct Catalog {
    pub universities: Vec<String>,
    pub departments: Vec<String>,
    pub professors: Vec<String>,
    pub courses: Vec<String>,
}

impl Catalog {
    pub fn of(graph: &Graph) -> Res<Self> {
        let instances = |classes: &[&str]| -> Vec<String> {
            let Some(ty) = graph.dict.id(&Term::iri(RDF_TYPE)) else {
                return Vec::new();
            };
            let mut out = Vec::new();
            for class in classes {
                let Some(c) = graph.dict.id(&Term::iri(univ(class))) else {
                    continue;
                };
                for t in graph.matches(TriplePattern::new(None, Some(ty), Some(c))) {
                    if let Some(iri) = graph.term(t.s).and_then(Term::as_iri) {
                        out.push(iri.to_string());
                    }
                }
            }
            out.sort_unstable();
            out.dedup();
            out
        };
        let cat = Catalog {
            universities: instances(&["University"]),
            departments: instances(&["Department"]),
            professors: instances(&["FullProfessor", "AssociateProfessor", "AssistantProfessor"]),
            courses: instances(&["Course", "GraduateCourse"]),
        };
        if cat.universities.is_empty()
            || cat.departments.is_empty()
            || cat.professors.is_empty()
            || cat.courses.is_empty()
        {
            return Err("loaded KB has no university, department, professor or course".into());
        }
        Ok(cat)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    /// LUBM Q1/Q3/Q4/Q5/Q7-style star around one bound entity.
    Lookup,
    /// Inferred class membership, `LIMIT 100`.
    Scan,
    /// LUBM Q2/Q9-style triangle inside one university.
    Join,
}

pub const QUERY_CLASSES: [QueryClass; 3] = [QueryClass::Lookup, QueryClass::Scan, QueryClass::Join];

impl QueryClass {
    pub fn name(self) -> &'static str {
        match self {
            QueryClass::Lookup => "lookup",
            QueryClass::Scan => "scan",
            QueryClass::Join => "join",
        }
    }
}

const PREFIX: &str = "PREFIX ub: <http://swat.lehigh.edu/onto/univ-bench.owl#>\n";
const SCAN_CLASSES: [&str; 6] = [
    "Student",
    "Person",
    "Faculty",
    "Employee",
    "Organization",
    "Professor",
];

/// One query of the given class with seeded constants.
pub fn query(class: QueryClass, cat: &Catalog, rng: &mut Rng) -> String {
    let body = match class {
        QueryClass::Lookup => {
            let dept = rng.pick(&cat.departments);
            let prof = rng.pick(&cat.professors);
            let course = rng.pick(&cat.courses);
            match rng.below(5) {
                0 => format!(
                    "SELECT ?x WHERE {{ ?x a ub:GraduateStudent . \
                     ?x ub:takesCourse <{course}> . }} LIMIT 40"
                ),
                1 => format!(
                    "SELECT ?x WHERE {{ ?x a ub:Publication . \
                     ?x ub:publicationAuthor <{prof}> . }} LIMIT 40"
                ),
                2 => format!(
                    "SELECT DISTINCT ?x ?email WHERE {{ ?x a ub:Professor . \
                     ?x ub:worksFor <{dept}> . ?x ub:emailAddress ?email . }} LIMIT 40"
                ),
                3 => format!(
                    "SELECT DISTINCT ?x WHERE {{ ?x a ub:Person . \
                     ?x ub:memberOf <{dept}> . }} LIMIT 40"
                ),
                _ => format!(
                    "SELECT DISTINCT ?x ?y WHERE {{ ?x ub:takesCourse ?y . \
                     <{prof}> ub:teacherOf ?y . }} LIMIT 40"
                ),
            }
        }
        QueryClass::Scan => {
            let class = rng.pick(&SCAN_CLASSES);
            format!("SELECT ?x WHERE {{ ?x a ub:{class} . }} LIMIT 100")
        }
        QueryClass::Join => {
            let u = rng.pick(&cat.universities);
            if rng.below(2) == 0 {
                format!(
                    "SELECT ?x ?y WHERE {{ ?x a ub:GraduateStudent . ?x ub:memberOf ?y . \
                     ?y ub:subOrganizationOf <{u}> . ?x ub:undergraduateDegreeFrom <{u}> . }} \
                     LIMIT 40"
                )
            } else {
                format!(
                    "SELECT DISTINCT ?x ?y ?z WHERE {{ ?d ub:subOrganizationOf <{u}> . \
                     ?y ub:worksFor ?d . ?y ub:teacherOf ?z . ?x ub:advisor ?y . \
                     ?x ub:takesCourse ?z . }} LIMIT 40"
                )
            }
        }
    };
    format!("{PREFIX}{body}")
}

/// The read mix: 70 % lookup, 20 % scan, 10 % join. The 70 % class keeps
/// the overall median inside one latency mode.
pub fn mixed_class(rng: &mut Rng) -> QueryClass {
    match rng.below(10) {
        0..=6 => QueryClass::Lookup,
        7 | 8 => QueryClass::Scan,
        _ => QueryClass::Join,
    }
}

/// INSERT batch `n` of stream `tag`: one new graduate student with three
/// publications (21 instance triples, never schema) attached to an
/// existing department, advisor and courses.
pub fn insert_batch(tag: &str, n: usize, cat: &Catalog, rng: &mut Rng) -> String {
    const UB: &str = "http://swat.lehigh.edu/onto/univ-bench.owl#";
    let dept = rng.pick(&cat.departments);
    let prof = rng.pick(&cat.professors);
    let univ = rng.pick(&cat.universities);
    let st = format!("{dept}/{tag}/gstudent{n}");
    let mut nt = String::with_capacity(2600);
    let mut iri = |s: &str, p: &str, o: &String| {
        nt.push_str(&format!("<{s}> <{p}> <{o}> .\n"));
    };
    iri(&st, RDF_TYPE, &format!("{UB}GraduateStudent"));
    iri(&st, &format!("{UB}memberOf"), dept);
    iri(&st, &format!("{UB}advisor"), prof);
    iri(&st, &format!("{UB}undergraduateDegreeFrom"), univ);
    for _ in 0..3 {
        iri(&st, &format!("{UB}takesCourse"), rng.pick(&cat.courses));
    }
    for j in 0..3 {
        let pb = format!("{dept}/{tag}/pub{n}_{j}");
        iri(&pb, RDF_TYPE, &format!("{UB}Publication"));
        iri(&pb, &format!("{UB}publicationAuthor"), &st);
        iri(&pb, &format!("{UB}publicationAuthor"), prof);
    }
    for (s, p, text) in [
        (
            st.clone(),
            "emailAddress",
            format!("{tag}{n}@bench.example"),
        ),
        (st.clone(), "name", format!("Benchmark student {tag} {n}")),
        (
            format!("{dept}/{tag}/pub{n}_0"),
            "name",
            format!("Publication {n}.0"),
        ),
        (
            format!("{dept}/{tag}/pub{n}_1"),
            "name",
            format!("Publication {n}.1"),
        ),
        (
            format!("{dept}/{tag}/pub{n}_2"),
            "name",
            format!("Publication {n}.2"),
        ),
    ] {
        nt.push_str(&format!("<{s}> <{UB}{p}> \"{text}\" .\n"));
    }
    nt
}

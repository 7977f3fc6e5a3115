//! An MDC-like synthetic oilfield dataset.
//!
//! The paper's MDC dataset (Chevron, via the CiSoft smart-oilfield
//! project) is proprietary; per the reproduction rules we substitute a
//! synthetic equivalent preserving the two properties the paper relies
//! on: (1) entities cluster per oil *field* the way LUBM entities cluster
//! per university — so graph partitioning finds clean cuts and speedups
//! are super-linear — and (2) a deep transitive `partOf` containment
//! hierarchy (sensor → equipment → well → field) exercises the
//! transitive-closure rules much harder than LUBM does.

use crate::ontology::{mdc, mdc_tbox};
use crate::Builder;
use owlpar_rdf::{Graph, NodeId, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct MdcConfig {
    /// Number of oil fields (the clustering unit).
    pub fields: usize,
    /// Wells per field.
    pub wells_per_field: usize,
    /// Equipment chain length under each well (the transitive depth).
    pub equipment_chain: usize,
    /// Sensors per equipment item.
    pub sensors_per_equipment: usize,
    /// Measurements per sensor.
    pub measurements_per_sensor: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MdcConfig {
    fn default() -> Self {
        MdcConfig {
            fields: 4,
            wells_per_field: 12,
            equipment_chain: 6,
            sensors_per_equipment: 2,
            measurements_per_sensor: 3,
            seed: 42,
        }
    }
}

impl MdcConfig {
    /// A small universe for unit tests.
    pub fn mini() -> Self {
        MdcConfig {
            fields: 2,
            wells_per_field: 3,
            equipment_chain: 3,
            sensors_per_equipment: 1,
            measurements_per_sensor: 1,
            ..Self::default()
        }
    }

    /// A paper-scale universe (hundreds of thousands of triples).
    pub fn paper() -> Self {
        MdcConfig {
            fields: 8,
            wells_per_field: 40,
            equipment_chain: 8,
            sensors_per_equipment: 3,
            measurements_per_sensor: 5,
            ..Self::default()
        }
    }
}

/// Generate the MDC-like dataset.
pub fn generate_mdc(cfg: &MdcConfig) -> Graph {
    let mut g = Graph::new();
    mdc_tbox(&mut g);
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut b = Builder::new(g);
    let part_of = b.g.intern_iri(mdc("partOf"));
    let feeds = b.g.intern_iri(mdc("feeds"));
    let monitors = b.g.intern_iri(mdc("monitors"));
    let measurement_of = b.g.intern_iri(mdc("measurementOf"));
    let value = b.g.intern_iri(mdc("hasValue"));
    // The TBox declared every class, so these take no new ids.
    let [field_c, well_c, pump, valve, pressure, temperature, measurement] = [
        "Field",
        "Well",
        "Pump",
        "Valve",
        "PressureSensor",
        "TemperatureSensor",
        "Measurement",
    ]
    .map(|class| b.g.intern_iri(mdc(class)));

    for f in 0..cfg.fields {
        let base = format!("http://www.field{f}.mdc.org");
        let field = b.typed(format_args!("{base}/field"), field_c);
        let mut prev_well: Option<NodeId> = None;
        for w in 0..cfg.wells_per_field {
            let well = b.typed(format_args!("{base}/well{w}"), well_c);
            b.add(well, part_of, field);
            // pipeline topology: wells feed their neighbor (symmetric via
            // feeds ⊑ connectedTo + connectedTo symmetric)
            if let Some(pw) = prev_well {
                b.add(pw, feeds, well);
            }
            prev_well = Some(well);

            // equipment chain: eq0 partOf well, eq1 partOf eq0, ...
            let mut parent = well;
            for e in 0..cfg.equipment_chain {
                let class = if e % 2 == 0 { pump } else { valve };
                let eq = b.typed(format_args!("{base}/well{w}/eq{e}"), class);
                b.add(eq, part_of, parent);
                parent = eq;

                for s in 0..cfg.sensors_per_equipment {
                    let sclass = if rng.gen_bool(0.5) {
                        pressure
                    } else {
                        temperature
                    };
                    let sensor = b.typed(format_args!("{base}/well{w}/eq{e}/sensor{s}"), sclass);
                    b.add(sensor, part_of, eq);
                    b.add(sensor, monitors, eq);
                    for m in 0..cfg.measurements_per_sensor {
                        let meas = b.typed(
                            format_args!("{base}/well{w}/eq{e}/sensor{s}/m{m}"),
                            measurement,
                        );
                        b.add(meas, measurement_of, sensor);
                        let v =
                            b.g.intern(Term::literal(format!("{:.2}", rng.gen_range(0.0..1000.0))));
                        b.add(meas, value, v);
                    }
                }
            }
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use owlpar_rdf::TriplePattern;

    #[test]
    fn deterministic() {
        let a = generate_mdc(&MdcConfig::mini());
        let b = generate_mdc(&MdcConfig::mini());
        assert_eq!(a.term_fingerprint(), b.term_fingerprint());
    }

    #[test]
    fn contains_deep_part_of_chains() {
        let cfg = MdcConfig::mini();
        let g = generate_mdc(&cfg);
        let part_of = g.dict.id(&Term::iri(mdc("partOf"))).unwrap();
        let chains = g.matches(TriplePattern::new(None, Some(part_of), None));
        // wells + equipment + sensors all partOf something
        let expected = cfg.fields
            * cfg.wells_per_field
            * (1 + cfg.equipment_chain * (1 + cfg.sensors_per_equipment));
        assert_eq!(chains.len(), expected);
    }

    #[test]
    fn fields_are_iri_clusters() {
        let g = generate_mdc(&MdcConfig::mini());
        let field0 = g.dict.id(&Term::iri("http://www.field0.mdc.org/field"));
        assert!(field0.is_some());
    }

    #[test]
    fn config_scales_size() {
        let small = generate_mdc(&MdcConfig::mini());
        let big = generate_mdc(&MdcConfig::default());
        assert!(big.len() > small.len() * 4);
    }

    #[test]
    fn wells_form_feed_chains() {
        let g = generate_mdc(&MdcConfig::mini());
        let feeds = g.dict.id(&Term::iri(mdc("feeds"))).unwrap();
        let cfg = MdcConfig::mini();
        let n = g.matches(TriplePattern::new(None, Some(feeds), None)).len();
        assert_eq!(n, cfg.fields * (cfg.wells_per_field - 1));
    }
}

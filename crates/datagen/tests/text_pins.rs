//! The benchmark's inputs, pinned: the N-Triples text of each generator at
//! three configurations, as a 64-bit FNV-1a hash, with the triple and term
//! counts beside it. `owlbench` builds every KB as `generate_* ->
//! write_ntriples -> cut -> parse_ntriples`, so a generator that interns
//! in a different order, loses a triple or renames an entity changes
//! every workload's input; a change meant to leave the inputs alone must
//! reproduce these values bit for bit.
//!
//! Recorded from the tree that still built generator graphs through
//! `Graph::insert` (the hash overlay), before the bulk path replaced it.

// Tests assert on infallible setup; unwrap/expect failures are test failures.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use owlpar_datagen::{
    generate_lubm, generate_mdc, generate_uobm, LubmConfig, MdcConfig, UobmConfig,
};
use owlpar_rdf::{write_ntriples, Graph};

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(text hash, text bytes, graph.len(), dict.len(), term_fingerprint())`
/// — the last one because every owlbench oracle compares closures by it.
type Pin = (u64, usize, usize, usize, u64);

fn pin(g: &Graph) -> Pin {
    let text = write_ntriples(g);
    (
        fnv(&text),
        text.len(),
        g.len(),
        g.dict.len(),
        g.term_fingerprint(),
    )
}

fn lubm(universities: usize, seed: u64, scale: f64) -> LubmConfig {
    LubmConfig {
        universities,
        seed,
        scale,
    }
}

#[test]
#[rustfmt::skip]
fn lubm_text_is_pinned() {
    // the tiny preset of every owlbench workload, one full-size
    // university, and a multi-university universe
    let cases: [(LubmConfig, Pin); 3] = [
        (lubm(1, 42, 0.1), (0x2e48_18d7_2378_083a, 41_698, 293, 118, 0xad00_5a81_7882_8285)),
        (lubm(1, 42, 1.0), (0x29b6_70ae_7910_c734, 6_546_877, 46_018, 14_647, 0x1222_d99e_4202_08df)),
        (lubm(3, 9, 0.2), (0xd245_7c6b_43df_8ccc, 405_382, 2_907, 841, 0xc161_4bdd_2444_3bb3)),
    ];
    for (cfg, want) in cases {
        assert_eq!(pin(&generate_lubm(&cfg)), want, "{cfg:?}");
    }
}

#[test]
#[rustfmt::skip]
fn uobm_text_is_pinned() {
    // UOBM reads `matches(?, rdf:type, C)` back to pick the people it
    // links, so its text also pins the order that read returns.
    let uobm = |lubm| UobmConfig { lubm, ..UobmConfig::default() };
    let dense = UobmConfig { lubm: lubm(3, 42, 0.05), friends_per_person: 3.5, hometown_fraction: 0.4 };
    let cases: [(UobmConfig, Pin); 3] = [
        (uobm(lubm(1, 42, 0.1)), (0xf157_8b33_97d1_7186, 50_767, 358, 121, 0x61ee_29bf_7e92_6fdf)),
        (uobm(lubm(2, 7, 0.3)), (0x47aa_6801_b480_9d66, 683_226, 4_896, 1_121, 0x11dc_fe4a_fa31_627b)),
        (dense, (0x6744_a5a2_9cd2_5aa0, 62_819, 445, 147, 0x482d_dd41_1216_bd9c)),
    ];
    for (cfg, want) in cases {
        assert_eq!(pin(&generate_uobm(&cfg)), want, "{cfg:?}");
    }
}

#[test]
#[rustfmt::skip]
fn mdc_text_is_pinned() {
    let cases: [(MdcConfig, Pin); 3] = [
        (MdcConfig::mini(), (0xb4cd_583b_4b8f_9d66, 24_797, 186, 106, 0x3022_042d_3fe4_2cb2)),
        (MdcConfig::default(), (0xcc88_718b_32ce_f7b8, 1_031_481, 7_656, 4_382, 0x852e_6eb6_2456_71c1)),
        (MdcConfig { fields: 3, seed: 7, ..MdcConfig::paper() }, (0xdcde_d606_b800_185e, 7_353_364, 54_144, 31_822, 0x343f_a672_4dbd_bf35)),
    ];
    for (cfg, want) in cases {
        assert_eq!(pin(&generate_mdc(&cfg)), want, "{cfg:?}");
    }
}

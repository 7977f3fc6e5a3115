//! The `owlpar-serve` command line refuses what its usage line does not
//! name.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::process::Command;

/// A misspelled flag, or `--k` with no value, is refused with exit 1 and
/// an error naming the flag, before the KB is read or a port is bound.
#[test]
fn cli_refuses_unknown_and_valueless_flags() {
    for (args, why) in [
        (
            &["run", "kb.nt", "--k", "2", "--stratgy", "rule"][..],
            "unknown flag --stratgy",
        ),
        (&["run", "kb.nt", "--k"][..], "--k needs a value"),
        (
            &["ping", "127.0.0.1:1", "--verbose"][..],
            "unknown flag --verbose",
        ),
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_owlpar-serve"))
            .args(args)
            .output()
            .expect("owlpar-serve runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(why), "{args:?}: {stderr}");
    }
}

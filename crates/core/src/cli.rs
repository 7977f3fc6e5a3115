//! Argument checking shared by the command-line tools (`owlpar`,
//! `owlpar-cluster`, `owlpar-serve`): each subcommand names the flags its
//! usage line takes, and anything else is refused instead of ignored.

/// Check a subcommand's arguments against its usage line and return its
/// positional arguments, in order. A `valued` flag takes the argument
/// after it as its value; a `switch` takes none. An unknown `--flag`, or
/// a valued flag with no value after it, is an error that names the flag.
pub fn positionals<'a>(
    args: &'a [String],
    valued: &[&str],
    switches: &[&str],
) -> Result<Vec<&'a str>, String> {
    let mut out = Vec::new();
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        if valued.contains(&arg) {
            if it.next().is_none_or(|v| v.starts_with("--")) {
                return Err(format!("{arg} needs a value"));
            }
        } else if arg.starts_with("--") {
            if !switches.contains(&arg) {
                return Err(format!("unknown flag {arg}"));
            }
        } else {
            out.push(arg);
        }
    }
    Ok(out)
}

/// The value after the first `name` in `args`, if any.
pub fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_are_checked_and_positionals_kept_in_order() {
        let ok = args(&["in.nt", "--k", "2", "--json", "out.nt"]);
        assert_eq!(
            positionals(&ok, &["--k"], &["--json"]).unwrap(),
            ["in.nt", "out.nt"]
        );
        assert_eq!(flag_value(&ok, "--k").as_deref(), Some("2"));
        for (bad, why) in [
            (
                &["in.nt", "--stratgy", "rule"][..],
                "unknown flag --stratgy",
            ),
            (&["in.nt", "--k"], "--k needs a value"),
            (&["in.nt", "--k", "--json"], "--k needs a value"),
            (&["--json=1"], "unknown flag --json=1"),
        ] {
            assert_eq!(
                positionals(&args(bad), &["--k"], &["--json"]).unwrap_err(),
                why
            );
        }
    }
}

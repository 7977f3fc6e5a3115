//! N-Triples parsing and serialization.
//!
//! The paper's implementation exchanged partitions over a shared
//! filesystem; our file-based communication backend serializes triples as
//! N-Triples, so the parser/writer pair here is a load-bearing substrate,
//! not a convenience. The subset implemented covers IRIs, blank nodes,
//! plain/lang-tagged/typed literals and the standard string escapes.

use crate::dictionary::Dictionary;
use crate::graph::Graph;
use crate::term::Term;
use crate::triple::Triple;
use std::fmt::Write as _;

/// Parse error with 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NtError {
    /// Line the error occurred on (1-based).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for NtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "N-Triples parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for NtError {}

fn err(line: usize, message: impl Into<String>) -> NtError {
    NtError {
        line,
        message: message.into(),
    }
}

/// Parse an N-Triples document into (and interning against) `graph`.
/// Returns the number of distinct triples that were new to the graph.
///
/// The document is a bulk load: its triples are sorted, deduplicated and
/// folded into the store's base in one merge
/// ([`TripleStore::merge_run`](crate::TripleStore::merge_run)), never
/// hashed one by one. A syntax error keeps the lines before it, as a
/// line-by-line load would.
pub fn parse_ntriples(input: &str, graph: &mut Graph) -> Result<usize, NtError> {
    let mut parsed: Vec<Triple> = Vec::new();
    let outcome = parse_lines(input, &mut graph.dict, &mut parsed);
    parsed.sort_unstable();
    parsed.dedup();
    let added = graph.store.merge_run(&parsed);
    outcome.map(|()| added)
}

fn parse_lines(input: &str, dict: &mut Dictionary, out: &mut Vec<Triple>) -> Result<(), NtError> {
    for (idx, raw) in input.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut cur = Cursor {
            bytes: line.as_bytes(),
            pos: 0,
            line: lineno,
        };
        let s = cur.parse_term()?;
        cur.skip_ws();
        let p = cur.parse_term()?;
        cur.skip_ws();
        let o = cur.parse_term()?;
        cur.skip_ws();
        if !cur.eat(b'.') {
            return Err(err(lineno, "expected terminating '.'"));
        }
        cur.skip_ws();
        if !cur.at_end() {
            return Err(err(lineno, "trailing content after '.'"));
        }
        if p.is_literal() || p.is_blank() {
            return Err(err(lineno, "predicate must be an IRI"));
        }
        if s.is_literal() {
            return Err(err(lineno, "subject must not be a literal"));
        }
        out.push(Triple::new(dict.intern(s), dict.intern(p), dict.intern(o)));
    }
    Ok(())
}

/// Serialize a graph as N-Triples, sorted for determinism.
pub fn write_ntriples(graph: &Graph) -> String {
    let mut out = String::new();
    for t in graph.store.iter_sorted() {
        let (s, p, o) = graph.decode(t);
        write_term(&mut out, &s);
        out.push(' ');
        write_term(&mut out, &p);
        out.push(' ');
        write_term(&mut out, &o);
        out.push_str(" .\n");
    }
    out
}

fn write_term(out: &mut String, t: &Term) {
    match t {
        Term::Iri(iri) => {
            let _ = write!(out, "<{iri}>");
        }
        Term::Blank(l) => {
            let _ = write!(out, "_:{l}");
        }
        Term::Literal {
            lexical,
            lang,
            datatype,
        } => {
            out.push('"');
            for c in lexical.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c => out.push(c),
                }
            }
            out.push('"');
            if let Some(lang) = lang {
                let _ = write!(out, "@{lang}");
            } else if let Some(dt) = datatype {
                let _ = write!(out, "^^<{dt}>");
            }
        }
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.pos += 1;
        }
    }

    fn parse_term(&mut self) -> Result<Term, NtError> {
        match self.peek() {
            Some(b'<') => self.parse_iri(),
            Some(b'_') => self.parse_blank(),
            Some(b'"') => self.parse_literal(),
            Some(c) => Err(err(self.line, format!("unexpected character '{}'", c as char))),
            None => Err(err(self.line, "unexpected end of line")),
        }
    }

    fn parse_iri(&mut self) -> Result<Term, NtError> {
        let opened = self.eat(b'<');
        debug_assert!(opened, "parse_iri called off a '<'");
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == b'>' {
                let iri = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| err(self.line, "invalid UTF-8 in IRI"))?;
                self.pos += 1;
                if iri.is_empty() {
                    return Err(err(self.line, "empty IRI"));
                }
                return Ok(Term::iri(iri));
            }
            self.pos += 1;
        }
        Err(err(self.line, "unterminated IRI"))
    }

    fn parse_blank(&mut self) -> Result<Term, NtError> {
        let opened = self.eat(b'_');
        debug_assert!(opened, "parse_blank called off a '_'");
        if !self.eat(b':') {
            return Err(err(self.line, "blank node must start with '_:'"));
        }
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        // A trailing '.' belongs to the statement terminator, not the label.
        let mut end = self.pos;
        while end > start && self.bytes[end - 1] == b'.' {
            end -= 1;
        }
        self.pos = end;
        if end == start {
            return Err(err(self.line, "empty blank node label"));
        }
        let label = std::str::from_utf8(&self.bytes[start..end])
            .map_err(|_| err(self.line, "invalid UTF-8 in blank node label"))?;
        Ok(Term::blank(label))
    }

    fn parse_literal(&mut self) -> Result<Term, NtError> {
        let opened = self.eat(b'"');
        debug_assert!(opened, "parse_literal called off a '\"'");
        let mut lex = String::new();
        loop {
            match self.peek() {
                None => return Err(err(self.line, "unterminated literal")),
                Some(b'"') => {
                    self.pos += 1;
                    break;
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => lex.push('"'),
                        Some(b'\\') => lex.push('\\'),
                        Some(b'n') => lex.push('\n'),
                        Some(b'r') => lex.push('\r'),
                        Some(b't') => lex.push('\t'),
                        Some(b'u') | Some(b'U') => {
                            let long = self.peek() == Some(b'U');
                            self.pos += 1;
                            let n = if long { 8 } else { 4 };
                            if self.pos + n > self.bytes.len() {
                                return Err(err(self.line, "truncated \\u escape"));
                            }
                            let hex =
                                std::str::from_utf8(&self.bytes[self.pos..self.pos + n])
                                    .map_err(|_| err(self.line, "bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| err(self.line, "bad hex in \\u escape"))?;
                            let c = char::from_u32(cp)
                                .ok_or_else(|| err(self.line, "invalid code point"))?;
                            lex.push(c);
                            self.pos += n - 1; // the final +1 happens below
                        }
                        _ => return Err(err(self.line, "unknown escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // copy one UTF-8 scalar
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| err(self.line, "invalid UTF-8 in literal"))?;
                    let c = rest
                        .chars()
                        .next()
                        .ok_or_else(|| err(self.line, "truncated literal"))?;
                    lex.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
        // language tag or datatype?
        if self.eat(b'@') {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c.is_ascii_alphanumeric() || c == b'-' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            if self.pos == start {
                return Err(err(self.line, "empty language tag"));
            }
            let lang = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| err(self.line, "invalid UTF-8 in language tag"))?;
            return Ok(Term::lang_literal(lex, lang));
        }
        if self.peek() == Some(b'^') {
            self.pos += 1;
            if !self.eat(b'^') {
                return Err(err(self.line, "expected '^^' before datatype"));
            }
            let dt = self.parse_iri()?;
            let Term::Iri(dt) = dt else { unreachable!() };
            return Ok(Term::Literal {
                lexical: lex.into(),
                lang: None,
                datatype: Some(dt),
            });
        }
        Ok(Term::literal(lex))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;

    fn roundtrip(src: &str) -> String {
        let mut g = Graph::new();
        parse_ntriples(src, &mut g).unwrap();
        write_ntriples(&g)
    }

    #[test]
    fn parses_simple_triple() {
        let mut g = Graph::new();
        let n = parse_ntriples("<http://x/a> <http://x/p> <http://x/b> .\n", &mut g).unwrap();
        assert_eq!(n, 1);
        assert!(g.contains_terms(
            &Term::iri("http://x/a"),
            &Term::iri("http://x/p"),
            &Term::iri("http://x/b")
        ));
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let src = "# a comment\n\n<http://x/a> <http://x/p> <http://x/b> .\n   \n";
        let mut g = Graph::new();
        assert_eq!(parse_ntriples(src, &mut g).unwrap(), 1);
    }

    #[test]
    fn parses_literals_with_escapes() {
        let src = r#"<http://x/a> <http://x/p> "line1\nline2 \"quoted\" \\ tab\t" ."#;
        let mut g = Graph::new();
        parse_ntriples(src, &mut g).unwrap();
        let t = g.store.iter().next().unwrap();
        let (_, _, o) = g.decode(t);
        assert_eq!(o.as_literal(), Some("line1\nline2 \"quoted\" \\ tab\t"));
    }

    #[test]
    fn parses_lang_and_typed_literals() {
        let src = concat!(
            "<http://x/a> <http://x/p> \"hello\"@en .\n",
            "<http://x/a> <http://x/q> \"3\"^^<http://www.w3.org/2001/XMLSchema#int> .\n"
        );
        let mut g = Graph::new();
        assert_eq!(parse_ntriples(src, &mut g).unwrap(), 2);
        assert!(g.contains_terms(
            &Term::iri("http://x/a"),
            &Term::iri("http://x/p"),
            &Term::lang_literal("hello", "en")
        ));
        assert!(g.contains_terms(
            &Term::iri("http://x/a"),
            &Term::iri("http://x/q"),
            &Term::typed_literal("3", "http://www.w3.org/2001/XMLSchema#int")
        ));
    }

    #[test]
    fn parses_unicode_escapes() {
        let src = r#"<http://x/a> <http://x/p> "snowman ☃ and \U0001F600" ."#;
        let mut g = Graph::new();
        parse_ntriples(src, &mut g).unwrap();
        let t = g.store.iter().next().unwrap();
        let (_, _, o) = g.decode(t);
        assert_eq!(o.as_literal(), Some("snowman ☃ and 😀"));
    }

    #[test]
    fn parses_blank_nodes() {
        let src = "_:b0 <http://x/p> _:b1 .";
        let mut g = Graph::new();
        parse_ntriples(src, &mut g).unwrap();
        assert!(g.contains_terms(
            &Term::blank("b0"),
            &Term::iri("http://x/p"),
            &Term::blank("b1")
        ));
    }

    #[test]
    fn blank_node_object_without_space_before_dot() {
        let src = "_:b0 <http://x/p> _:b1.";
        let mut g = Graph::new();
        parse_ntriples(src, &mut g).unwrap();
        assert!(g.contains_terms(
            &Term::blank("b0"),
            &Term::iri("http://x/p"),
            &Term::blank("b1")
        ));
    }

    #[test]
    fn rejects_malformed_lines() {
        let cases = [
            ("<http://x/a> <http://x/p> <http://x/b>", "missing dot"),
            ("<http://x/a> <http://x/p> .", "missing object"),
            ("<http://x/a> \"lit\" <http://x/b> .", "literal predicate"),
            ("\"lit\" <http://x/p> <http://x/b> .", "literal subject"),
            ("<http://x/a> <http://x/p> <http://x/b> . extra", "trailing"),
            ("<unterminated <http://x/p> <http://x/b> .", "unterminated iri is eaten"),
        ];
        for (src, why) in cases {
            let mut g = Graph::new();
            assert!(parse_ntriples(src, &mut g).is_err(), "{why}: {src}");
        }
    }

    #[test]
    fn error_reports_line_number() {
        let src = "<http://x/a> <http://x/p> <http://x/b> .\nbogus line\n";
        let mut g = Graph::new();
        let e = parse_ntriples(src, &mut g).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn write_then_parse_is_identity() {
        let src = concat!(
            "<http://x/a> <http://x/p> <http://x/b> .\n",
            "<http://x/a> <http://x/p> \"esc\\\"aped\\n\" .\n",
            "_:b0 <http://x/p> \"v\"@en-GB .\n",
        );
        let first = roundtrip(src);
        let second = roundtrip(&first);
        assert_eq!(first, second);
        // and parsing the output yields the same triple count
        let mut g = Graph::new();
        assert_eq!(parse_ntriples(&first, &mut g).unwrap(), 3);
    }

    #[test]
    fn duplicate_lines_counted_once() {
        let src = "<http://x/a> <http://x/p> <http://x/b> .\n<http://x/a> <http://x/p> <http://x/b> .\n";
        let mut g = Graph::new();
        assert_eq!(parse_ntriples(src, &mut g).unwrap(), 1);
        assert_eq!(g.len(), 1);
    }
}

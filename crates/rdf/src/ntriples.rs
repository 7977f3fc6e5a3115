//! N-Triples parsing and serialization.
//!
//! The paper's implementation exchanged partitions over a shared
//! filesystem; our file-based communication backend serializes triples as
//! N-Triples, so the parser/writer pair here is a load-bearing substrate,
//! not a convenience. The subset implemented covers IRIs, blank nodes,
//! plain/lang-tagged/typed literals and the standard string escapes.
//!
//! Loading is split in two. *Tokenising* — finding the three terms of
//! each line, undoing escapes, hashing — needs nothing but the text, so
//! it runs on scoped threads over line-aligned chunks and yields terms
//! that still borrow from the input ([`TermRef`]). *Interning* assigns
//! ids, so the calling thread does it alone, chunk after chunk in
//! document order: ids follow first appearance, the error (if any) is the
//! first one in the document, and nothing after it is interned — exactly
//! what a line-by-line parser would do, because as far as the dictionary
//! can tell that is what ran. A term the dictionary already holds is
//! looked up by its borrowed text and never built.

use crate::graph::Graph;
use crate::term::{Term, TermRef};
use crate::triple::Triple;
use std::borrow::Cow;
use std::sync::mpsc;

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

/// Text per tokenising chunk: small enough that the tokens in flight stay
/// a few MB per tokeniser, large enough that handing one over is noise.
const CHUNK_BYTES: usize = 1 << 18;

/// Below this much text a document is one chunk, tokenised on the calling
/// thread: spawning costs more than the scan it would share (and a served
/// INSERT batch, a few KB, must never start a thread).
const PARALLEL_PARSE_FLOOR: usize = 2 * CHUNK_BYTES;

/// Chunks that may be tokenised ahead of the interner, shared out among
/// the tokenisers: what bounds the tokens in flight whatever the core
/// count. Interning is the serial half (about half a tokeniser's time per
/// chunk), so tokenisers beyond the second mostly wait on a full queue.
/// On two cores — the only box this was measured on — the interner
/// competes with the tokenisers for a core and falls behind in bursts;
/// with 8 chunks of slack each, neither side waited for the other.
const RUN_AHEAD: usize = 16;

/// Parse an N-Triples document into (and interning against) `graph`.
/// Returns the number of distinct triples that were new to the graph.
///
/// The document is a bulk load: its triples are folded into the store's
/// base in one merge
/// ([`TripleStore::merge_run`](crate::TripleStore::merge_run)), never
/// hashed one by one. A syntax error keeps the lines before it, as a
/// line-by-line load would.
pub fn parse_ntriples(input: &str, graph: &mut Graph) -> Result<usize, NtError> {
    if input.len() < PARALLEL_PARSE_FLOOR {
        return load(input, graph, input.len(), 1);
    }
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    load(input, graph, CHUNK_BYTES, threads)
}

/// [`parse_ntriples`] over chunks of about `chunk_bytes`, tokenised on
/// `threads` helper threads — or on the calling thread, by the same code,
/// when that is 1 or there is a single chunk.
fn load(
    input: &str,
    graph: &mut Graph,
    chunk_bytes: usize,
    threads: usize,
) -> Result<usize, NtError> {
    let chunks = line_aligned_chunks(input, chunk_bytes);
    let mut triples: Vec<Triple> = Vec::new();
    let mut lines = 0;
    // The interning half: called once per chunk, in document order.
    let dict = &mut graph.dict;
    let mut intern = |tokens: Tokens<'_>| {
        triples.extend(tokens.statements.iter().map(|[s, p, o]| {
            let [s, p, o] = [s, p, o].map(|(hash, term)| dict.intern_hashed(*hash, term));
            Triple::new(s, p, o)
        }));
        lines += tokens.lines;
        match tokens.error {
            None => Ok(()),
            Some(message) => Err(NtError {
                line: lines,
                message,
            }),
        }
    };
    let helpers = threads.min(chunks.len());
    let outcome = if helpers < 2 {
        chunks.iter().try_for_each(|chunk| intern(tokenise(chunk)))
    } else {
        std::thread::scope(|scope| {
            // Helper `h` takes chunks h, h + helpers, …; the caller takes
            // them back in document order. A helper stops at the first
            // send nobody wants: the caller left on a syntax error.
            let chunks = &chunks;
            let depth = (RUN_AHEAD / helpers).max(1);
            let tokenised: Vec<mpsc::Receiver<Tokens<'_>>> = (0..helpers)
                .map(|h| {
                    let (tx, rx) = mpsc::sync_channel(depth);
                    scope.spawn(move || {
                        for chunk in chunks.iter().skip(h).step_by(helpers) {
                            if tx.send(tokenise(chunk)).is_err() {
                                break;
                            }
                        }
                    });
                    rx
                })
                .collect();
            for i in 0..chunks.len() {
                // A helper hangs up early only by panicking; the scope
                // re-raises that on the way out.
                let Ok(tokens) = tokenised[i % helpers].recv() else {
                    break;
                };
                intern(tokens)?;
            }
            Ok(())
        })
    };
    let added = graph.store.merge_run(&triples);
    outcome.map(|()| added)
}

/// Cut `input` into consecutive pieces of at least `chunk_bytes` (the
/// last one excepted), each ending after a `\n`: every line lies in
/// exactly one piece.
fn line_aligned_chunks(input: &str, chunk_bytes: usize) -> Vec<&str> {
    let mut chunks = Vec::new();
    let mut rest = input;
    while !rest.is_empty() {
        // '\n' is one byte, never inside a multi-byte scalar
        let from = chunk_bytes.saturating_sub(1).min(rest.len());
        let cut = rest.as_bytes()[from..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |i| from + i + 1);
        let (chunk, tail) = rest.split_at(cut);
        chunks.push(chunk);
        rest = tail;
    }
    chunks
}

/// A term as the tokeniser leaves it: borrowed from the input, with the
/// hash the dictionary will file it under.
type Token<'a> = (u64, TermRef<'a>);

/// One chunk, tokenised.
struct Tokens<'a> {
    /// The statements before the chunk's first syntax error, in order.
    statements: Vec<[Token<'a>; 3]>,
    /// Lines the chunk spans — up to and including the offending one if
    /// there is an error.
    lines: usize,
    /// What was wrong with line `lines`.
    error: Option<String>,
}

fn tokenise(chunk: &str) -> Tokens<'_> {
    let mut out = Tokens {
        statements: Vec::new(),
        lines: 0,
        error: None,
    };
    let mut subject = None;
    for raw in chunk.lines() {
        out.lines += 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match statement(line, &mut subject) {
            Ok(tokens) => out.statements.push(tokens),
            Err(message) => {
                out.error = Some(message);
                break;
            }
        }
    }
    out
}

/// Write a graph as N-Triples, sorted for determinism.
pub fn write_ntriples(graph: &Graph) -> String {
    /// Triples written before the rest of the output is reserved: enough
    /// that a schema's few long lines at the front do not set the rate.
    const SAMPLE: usize = 4096;
    let triples = graph.store.iter_sorted();
    let mut out = String::new();
    for (i, &t) in triples.iter().enumerate() {
        if i == SAMPLE {
            // an eighth over the sampled rate: falling just short would
            // double the buffer for the last lines
            let per_triple = out.len() / SAMPLE;
            out.reserve((per_triple + per_triple / 8) * (triples.len() - SAMPLE));
        }
        let (s, p, o) = graph.decode_ref(t);
        write_term(&mut out, s);
        out.push(' ');
        write_term(&mut out, p);
        out.push(' ');
        write_term(&mut out, o);
        out.push_str(" .\n");
    }
    out
}

fn write_term(out: &mut String, t: &Term) {
    match t {
        Term::Iri(iri) => {
            out.push('<');
            out.push_str(iri);
            out.push('>');
        }
        Term::Blank(l) => {
            out.push_str("_:");
            out.push_str(l);
        }
        Term::Literal {
            lexical,
            lang,
            datatype,
        } => {
            out.push('"');
            let mut rest: &str = lexical;
            while let Some(i) = rest.find(['"', '\\', '\n', '\r', '\t']) {
                out.push_str(&rest[..i]);
                out.push_str(match rest.as_bytes()[i] {
                    b'"' => "\\\"",
                    b'\\' => "\\\\",
                    b'\n' => "\\n",
                    b'\r' => "\\r",
                    _ => "\\t",
                });
                rest = &rest[i + 1..];
            }
            out.push_str(rest);
            out.push('"');
            if let Some(lang) = lang {
                out.push('@');
                out.push_str(lang);
            } else if let Some(dt) = datatype {
                out.push_str("^^<");
                out.push_str(dt);
                out.push('>');
            }
        }
    }
}

/// The three terms of one non-empty, non-comment line. `subject` is the
/// last IRI subject as written (`<…>` included) and as tokenised: sorted
/// or generated text names a subject on several lines running, and a line
/// that starts with the same bytes skips its scan and its hash.
fn statement<'a>(
    line: &'a str,
    subject: &mut Option<(&'a str, Token<'a>)>,
) -> Result<[Token<'a>; 3], String> {
    let hashed = |term: TermRef<'a>| (term.dict_hash(), term);
    let mut cur = Cursor { line, pos: 0 };
    let s = match subject {
        Some((written, token)) if line.starts_with(*written) => {
            cur.pos = written.len();
            token.clone()
        }
        _ => {
            let s = hashed(cur.parse_term()?);
            // only `<…>` closes itself: `_:b1` also starts `_:b10`
            *subject = matches!(s.1, TermRef::Iri(_)).then(|| (&line[..cur.pos], s.clone()));
            s
        }
    };
    cur.skip_ws();
    let p = hashed(cur.parse_term()?);
    cur.skip_ws();
    let o = hashed(cur.parse_term()?);
    cur.skip_ws();
    if !cur.eat(b'.') {
        return Err("expected terminating '.'".into());
    }
    cur.skip_ws();
    if cur.pos < line.len() {
        return Err("trailing content after '.'".into());
    }
    if !matches!(p.1, TermRef::Iri(_)) {
        return Err("predicate must be an IRI".into());
    }
    if matches!(s.1, TermRef::Literal { .. }) {
        return Err("subject must not be a literal".into());
    }
    Ok([s, p, o])
}

/// Bytes that end the scan of an IRI: its closing `>` and everything the
/// N-Triples grammar forbids inside `<…>` — controls, space, `<`, `"`,
/// `{`, `}`, `|`, `^` and `` ` ``.
const IRI_STOP: [bool; 256] = {
    let mut stop = [false; 256];
    let mut b = 0;
    while b <= 0x20 {
        stop[b] = true;
        b += 1;
    }
    let listed = b"<>\"{}|^`";
    let mut i = 0;
    while i < listed.len() {
        stop[listed[i] as usize] = true;
        i += 1;
    }
    stop
};

/// A byte position in one line. Every delimiter is ASCII, so the slices
/// cut at them are whole UTF-8.
struct Cursor<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.pos).copied()
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

    /// Advance while `keep` holds; the text passed over.
    fn take_while(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let rest = &self.line.as_bytes()[self.pos..];
        let len = rest.iter().position(|&b| !keep(b)).unwrap_or(rest.len());
        let start = self.pos;
        self.pos += len;
        &self.line[start..self.pos]
    }

    fn parse_term(&mut self) -> Result<TermRef<'a>, String> {
        match self.peek() {
            Some(b'<') => self.parse_iri().map(TermRef::Iri),
            Some(b'_') => self.parse_blank(),
            Some(b'"') => self.parse_literal(),
            // the whole scalar, not its first byte
            Some(_) => Err(format!(
                "unexpected character '{}'",
                self.line[self.pos..].chars().next().unwrap_or_default()
            )),
            None => Err("unexpected end of line".into()),
        }
    }

    /// The text between `<` and `>`.
    fn parse_iri(&mut self) -> Result<&'a str, String> {
        let opened = self.eat(b'<');
        debug_assert!(opened, "parse_iri called off a '<'");
        let iri = self.take_while(|b| !IRI_STOP[b as usize]);
        match self.peek() {
            Some(b'>') if iri.is_empty() => Err("empty IRI".into()),
            Some(b'>') => {
                self.pos += 1;
                Ok(iri)
            }
            Some(b) => Err(format!(
                "character {:?} at column {} is not allowed in an IRI",
                b as char,
                self.pos + 1
            )),
            None => Err("unterminated IRI".into()),
        }
    }

    fn parse_blank(&mut self) -> Result<TermRef<'a>, String> {
        let opened = self.eat(b'_');
        debug_assert!(opened, "parse_blank called off a '_'");
        if !self.eat(b':') {
            return Err("blank node must start with '_:'".into());
        }
        let label =
            self.take_while(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.'));
        // A trailing '.' belongs to the statement terminator, not the label.
        let trimmed = label.trim_end_matches('.');
        self.pos -= label.len() - trimmed.len();
        if trimmed.is_empty() {
            return Err("empty blank node label".into());
        }
        Ok(TermRef::Blank(trimmed))
    }

    fn parse_literal(&mut self) -> Result<TermRef<'a>, String> {
        let opened = self.eat(b'"');
        debug_assert!(opened, "parse_literal called off a '\"'");
        let plain = self.take_while(|b| b != b'"' && b != b'\\');
        let lexical = if self.eat(b'"') {
            Cow::Borrowed(plain)
        } else {
            Cow::Owned(self.unescape_rest(plain)?)
        };
        let (mut lang, mut datatype) = (None, None);
        if self.eat(b'@') {
            let tag = self.take_while(|c| c.is_ascii_alphanumeric() || c == b'-');
            if tag.is_empty() {
                return Err("empty language tag".into());
            }
            lang = Some(tag);
        } else if self.eat(b'^') {
            if !self.eat(b'^') || self.peek() != Some(b'<') {
                return Err("expected '^^<' before datatype".into());
            }
            datatype = Some(self.parse_iri()?);
        }
        Ok(TermRef::Literal {
            lexical,
            lang,
            datatype,
        })
    }

    /// The rest of a literal's lexical form from its first escape on,
    /// appended to the `plain` text before it; consumes the closing quote.
    fn unescape_rest(&mut self, plain: &str) -> Result<String, String> {
        let mut lex = String::from(plain);
        loop {
            match self.peek() {
                None => return Err("unterminated literal".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(lex);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek();
                    self.pos += 1;
                    lex.push(match escape {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.code_point(4)?,
                        Some(b'U') => self.code_point(8)?,
                        _ => return Err("unknown escape sequence".into()),
                    });
                }
                Some(_) => lex.push_str(self.take_while(|b| b != b'"' && b != b'\\')),
            }
        }
    }

    /// The scalar named by the next `digits` hex digits.
    fn code_point(&mut self, digits: usize) -> Result<char, String> {
        let hex = self
            .line
            .get(self.pos..self.pos + digits)
            .ok_or("truncated \\u escape")?;
        self.pos += digits;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad hex in \\u escape")?;
        char::from_u32(cp).ok_or_else(|| "invalid code point".into())
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

    #[test]
    fn iris_reject_what_the_grammar_forbids_at_the_offending_byte() {
        // column of the first byte that may not stand inside `<…>`
        let cases = [
            ("<unterminated <http://x/p> <http://x/b> .", ' ', 14),
            ("<http://x/a b> <http://x/p> <http://x/b> .", ' ', 12),
            ("<http://x/a> <http://x/p<> <http://x/b> .", '<', 25),
            ("<http://x/a> <http://x/p> <http://x/{b}> .", '{', 37),
            ("<http://x/a> <http://x/p> <http://x/b\u{7}> .", '\u{7}', 38),
            (
                "<http://x/a> <http://x/p> \"1\"^^<http://x/d\"t> .",
                '"',
                43,
            ),
        ];
        for (src, byte, column) in cases {
            let doc = format!("<http://x/s> <http://x/p> <http://x/o> .\n{src}\n");
            let mut g = Graph::new();
            let e = parse_ntriples(&doc, &mut g).unwrap_err();
            assert_eq!(e.line, 2, "{src}");
            assert_eq!(
                e.message,
                format!("character {byte:?} at column {column} is not allowed in an IRI"),
                "{src}"
            );
            assert_eq!((g.len(), g.dict.len()), (1, 3), "{src}: line 1 only");
        }
        for (src, message) in [
            (
                "<http://x/a> <http://x/p> <http://x/b .",
                "character ' ' at column 38 is not allowed in an IRI",
            ),
            ("<http://x/a> <http://x/p> <http://x/b", "unterminated IRI"),
            ("<http://x/a> <> <http://x/b> .", "empty IRI"),
        ] {
            let e = parse_ntriples(src, &mut Graph::new()).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (1, message), "{src}");
        }
        // what the grammar allows still loads: multi-byte text, '\\' and '%'
        let mut g = Graph::new();
        parse_ntriples(
            "<http://x/caf\u{e9}%20\\u00e9#\u{2603}> <http://x/p> <urn:x:y> .",
            &mut g,
        )
        .unwrap();
        assert!(g
            .dict
            .id(&Term::iri("http://x/caf\u{e9}%20\\u00e9#\u{2603}"))
            .is_some());
    }

    #[test]
    fn chunked_loader_reports_the_global_line_and_keeps_earlier_chunks() {
        let good = |i: usize| format!("<http://x/s{i}> <http://x/p> \"v{i}\" .\n");
        let mut doc: String = (0..40).map(good).collect();
        doc.push_str("# a comment line counts\n\n");
        doc.push_str("<http://x/s40> <http://x/p> <http://x/never-closed .\n"); // line 43
        doc.extend((41..60).map(good));
        doc.push_str("also bad\n");
        for (chunk_bytes, threads) in [(doc.len(), 1), (1, 1), (1, 3), (200, 2), (doc.len() / 3, 4)]
        {
            let mut g = Graph::new();
            let e = load(&doc, &mut g, chunk_bytes, threads).unwrap_err();
            assert_eq!(e.line, 43, "chunks of {chunk_bytes} on {threads}");
            assert_eq!(g.len(), 40);
            // s0..s39, p, v0..v39: nothing of line 43 or after it
            assert_eq!(g.dict.len(), 81);
            assert_eq!(g.dict.id(&Term::iri("http://x/s40")), None);
            assert_eq!(g.store.overlay().count(), 0);
        }
    }

    #[test]
    fn chunks_are_line_aligned_and_cover_the_input() {
        let doc = "a\nbb\r\n\nccc\nlast";
        for chunk_bytes in 0..doc.len() + 2 {
            let chunks = line_aligned_chunks(doc, chunk_bytes);
            assert_eq!(chunks.concat(), doc);
            let (last, full) = chunks.split_last().unwrap();
            assert!(full
                .iter()
                .all(|c| c.ends_with('\n') && c.len() >= chunk_bytes));
            assert!(!last.is_empty());
            let lines: Vec<&str> = chunks.iter().flat_map(|c| c.lines()).collect();
            assert_eq!(lines, doc.lines().collect::<Vec<_>>());
        }
        assert_eq!(line_aligned_chunks(doc, 1).len(), 5, "one line per chunk");
        assert!(line_aligned_chunks("", 8).is_empty());
    }

    // --- chunked loader ≡ a line-by-line reference -----------------------
    //
    // The reference is not a second parser: documents are rendered from a
    // model (terms, then how each is written), so what a line-by-line
    // load must produce — ids in order of first appearance, the distinct
    // triples, the count of new ones, the first malformed line and the
    // prefix kept before it — is computed from the model alone.

    /// The pools are small so that terms and whole lines repeat.
    fn model_term(kind: u32, n: u32) -> Term {
        const LEXICALS: [&str; 8] = [
            "plain",
            "",
            "say \"hi\"",
            "back\\slash",
            "line\nfeed\rreturn\ttab",
            "caf\u{e9} \u{2603}",
            "\u{1F600} astral",
            "ends with backslash\\",
        ];
        let lexical = LEXICALS[n as usize % 8];
        match kind % 7 {
            // some are prefixes of others, as written too
            0 | 1 => Term::iri(format!(
                "http://ex.org/r{}",
                ["0", "1", "10", "1/x", "2", "20"][n as usize % 6]
            )),
            2 => Term::iri(format!("http://ex.org/\u{e9}t\u{e9}/{}#\u{2603}", n % 3)),
            3 => Term::blank(["b1", "b1.x", "b-2_", "B10"][n as usize % 4]),
            4 => Term::literal(lexical),
            5 => Term::lang_literal(lexical, ["en", "en-GB"][n as usize % 2]),
            _ => Term::typed_literal(lexical, format!("http://ex.org/dt{}", n % 2)),
        }
    }

    /// Write a term the way `style` says: each character of a lexical form
    /// that has an escape may or may not use it, and any character may be
    /// written as `\\u` / `\\U`.
    fn render_term(t: &Term, style: u32, out: &mut String) {
        let Term::Literal {
            lexical,
            lang,
            datatype,
        } = t
        else {
            return write_term(out, t);
        };
        out.push('"');
        for (i, c) in lexical.chars().enumerate() {
            let mode = (style >> (2 * (i % 12))) & 3;
            match (c, mode) {
                ('"', _) => out.push_str("\\\""),
                ('\\', _) => out.push_str("\\\\"),
                ('\n', _) => out.push_str("\\n"),
                ('\r', _) => out.push_str("\\r"),
                ('\t', 0) => out.push_str("\\t"),
                (c, 1) if (c as u32) < 0x1_0000 => out.push_str(&format!("\\u{:04X}", c as u32)),
                (c, 2) => out.push_str(&format!("\\U{:08x}", c as u32)),
                (c, _) => out.push(c),
            }
        }
        out.push('"');
        if let Some(lang) = lang {
            out.push_str(&format!("@{lang}"));
        } else if let Some(dt) = datatype {
            out.push_str(&format!("^^<{dt}>"));
        }
    }

    const MALFORMED: [&str; 7] = [
        "bogus",
        "<http://ex.org/r0> <http://ex.org/r1> .",
        "<http://ex.org/r0> <http://ex.org/r1> <http://ex.org/never-closed .",
        "<http://ex.org/r0> <http://ex.org/r 1> <http://ex.org/r2> .",
        "<http://ex.org/r0> <http://ex.org/r1> \"unterminated .",
        "<http://ex.org/r0> <http://ex.org/r1> \"bad escape \\x\" .",
        "_:b1 _:b1 _:b1 .",
    ];

    /// One line of a document: `Some((s, p, o))` for a statement.
    type ModelLine = (Option<[Term; 3]>, String);

    fn render_line(kind: u32, a: u32, b: u32) -> ModelLine {
        match kind % 10 {
            0 => (None, String::new()),
            1 => (None, "  \t ".into()),
            2 => (None, format!("# comment {a} <not> \"parsed\"")),
            _ => {
                // subjects are IRIs or blank nodes, predicates IRIs
                let s = model_term(a % 4, a >> 3);
                let p = model_term(0, (a >> 8) % 3);
                let o = model_term(b, b >> 3);
                let gap = |bits: u32| ["", " ", "\t", "  \t"][bits as usize % 4];
                let mut text = String::from(gap(a >> 12));
                render_term(&s, b >> 6, &mut text);
                text.push_str(gap(1 + (a >> 14) % 3));
                render_term(&p, 0, &mut text);
                text.push_str(gap(1 + (a >> 16) % 3));
                render_term(&o, b >> 6, &mut text);
                // `_:b1.` — a blank node may touch the terminator
                text.push_str(gap(a >> 18));
                text.push('.');
                text.push_str(gap(a >> 20));
                (Some([s, p, o]), text)
            }
        }
    }

    /// What loading `lines` (cut at the first `None`-less malformed entry,
    /// given by `bad`) into a graph holding `dict` and `store` must leave.
    struct Expected {
        dict: Vec<Term>,
        store: std::collections::BTreeSet<Triple>,
        outcome: Result<usize, usize>,
    }

    fn expected(
        mut dict: Vec<Term>,
        mut store: std::collections::BTreeSet<Triple>,
        lines: &[ModelLine],
        bad: Option<usize>,
    ) -> Expected {
        let before = store.len();
        for (terms, _) in &lines[..bad.unwrap_or(lines.len())] {
            let Some(terms) = terms else { continue };
            let ids = terms.clone().map(|t| {
                let at = dict.iter().position(|d| *d == t).unwrap_or_else(|| {
                    dict.push(t);
                    dict.len() - 1
                });
                NodeId(at as u32)
            });
            store.insert(Triple::new(ids[0], ids[1], ids[2]));
        }
        let outcome = match bad {
            Some(at) => Err(at + 1),
            None => Ok(store.len() - before),
        };
        Expected {
            dict,
            store,
            outcome,
        }
    }

    use crate::dictionary::NodeId;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn chunked_loader_matches_the_line_by_line_reference(
            picks in prop::collection::vec((0u32..10, 0u32..1 << 24, 0u32..1 << 30), 0..36),
            // a malformed line spliced in at this position, if in range
            bad in (0usize..72, 0usize..MALFORMED.len()),
            crlf in 0u32..3,
            final_newline in 0u32..2,
            // the graph loaded into: terms and triples it already holds
            held in prop::collection::vec((0u32..7, 0u32..64), 0..10),
        ) {
            let mut lines: Vec<ModelLine> =
                picks.iter().map(|&(k, a, b)| render_line(k, a, b)).collect();
            let bad = (bad.0 <= lines.len()).then(|| {
                lines.insert(bad.0, (None, MALFORMED[bad.1].to_string()));
                bad.0
            });
            let mut doc = String::new();
            for (i, (_, text)) in lines.iter().enumerate() {
                doc.push_str(text);
                if i + 1 < lines.len() || final_newline == 1 {
                    doc.push_str(if crlf == 0 || (crlf == 1 && i % 2 == 0) { "\r\n" } else { "\n" });
                }
            }

            // An empty graph, and one that is half compacted: some of what
            // it holds in the base, the rest in the overlay, and terms of
            // the document among its dictionary's.
            let mut populated = Graph::new();
            for (i, &(kind, n)) in held.iter().enumerate() {
                let s = populated.intern(model_term(kind % 4, n));
                let p = populated.intern(model_term(0, n >> 2));
                let o = populated.intern(model_term(kind, n >> 1));
                populated.insert(s, p, o);
                if i == held.len() / 2 {
                    populated.store.compact();
                }
            }
            for start in [Graph::new(), populated] {
                let want = expected(
                    start.dict.iter().map(|(_, t)| t.clone()).collect(),
                    start.store.iter().collect(),
                    &lines,
                    bad,
                );
                // one chunk; every line its own chunk; 2, 3 and 4 chunks —
                // on the calling thread and on up to four helpers
                let configs = [(doc.len(), 1), (1, 1), (1, 2), (1, 3), (1, 4)]
                    .into_iter()
                    .chain((2..=4).map(|k| (doc.len() / k + 1, k)));
                for (chunk_bytes, threads) in configs {
                    let mut g = start.clone();
                    let got = load(&doc, &mut g, chunk_bytes, threads).map_err(|e| e.line);
                    let label = format!("chunks of {chunk_bytes} on {threads}: {doc:?}");
                    prop_assert_eq!(got, want.outcome, "{}", label);
                    let dict: Vec<Term> = g.dict.iter().map(|(_, t)| t.clone()).collect();
                    prop_assert_eq!(&dict, &want.dict, "{}", label);
                    for (i, t) in want.dict.iter().enumerate() {
                        prop_assert_eq!(g.dict.id(t), Some(NodeId(i as u32)), "{}", label);
                    }
                    let store: Vec<Triple> = want.store.iter().copied().collect();
                    prop_assert_eq!(g.store.iter_sorted(), store, "{}", label);
                }
            }
        }
    }
}

//! RDF terms: IRIs, blank nodes and literals.
//!
//! Terms are only materialized at the edges of the system (parsing,
//! serialization, data generation, reporting). The reasoning core works on
//! dictionary-encoded [`crate::NodeId`]s.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// An RDF term in the positions subject/predicate/object.
///
/// Strings are held behind `Arc<str>` so that cloning a term (which happens
/// when a term is both stored in the dictionary and handed back to callers)
/// never copies the text.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI reference, stored without the enclosing `<` `>`.
    Iri(Arc<str>),
    /// A blank node label, stored without the leading `_:`.
    Blank(Arc<str>),
    /// A literal with optional language tag or datatype IRI.
    Literal {
        /// The lexical form (unescaped).
        lexical: Arc<str>,
        /// Language tag (mutually exclusive with `datatype` per RDF 1.0).
        lang: Option<Arc<str>>,
        /// Datatype IRI, if any.
        datatype: Option<Arc<str>>,
    },
}

/// A term whose text is borrowed: what the loader sees in its input, or a
/// view of a [`Term`]. The [`Dictionary`](crate::Dictionary) is looked up
/// by this type, so a term it already holds is never built a second
/// time. Only a literal that had escapes to undo owns its lexical form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum TermRef<'a> {
    /// An IRI reference, without the enclosing `<` `>`.
    Iri(&'a str),
    /// A blank node label, without the leading `_:`.
    Blank(&'a str),
    /// A literal with optional language tag or datatype IRI.
    Literal {
        /// The lexical form (unescaped).
        lexical: Cow<'a, str>,
        /// Language tag.
        lang: Option<&'a str>,
        /// Datatype IRI, if any.
        datatype: Option<&'a str>,
    },
}

impl TermRef<'_> {
    /// The owned term: one allocation per string.
    pub(crate) fn to_term(&self) -> Term {
        match self {
            TermRef::Iri(s) => Term::Iri(Arc::from(*s)),
            TermRef::Blank(l) => Term::Blank(Arc::from(*l)),
            TermRef::Literal {
                lexical,
                lang,
                datatype,
            } => Term::Literal {
                lexical: Arc::from(&**lexical),
                lang: lang.map(Arc::from),
                datatype: datatype.map(Arc::from),
            },
        }
    }

    /// The hash the dictionary files this term under. A function of the
    /// term's kind and text alone, so a loader thread can compute it
    /// without the dictionary.
    pub(crate) fn dict_hash(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = crate::fx::FxHasher::default();
        match self {
            TermRef::Iri(s) => {
                h.write(s.as_bytes());
                h.write_u8(0);
            }
            TermRef::Blank(l) => {
                h.write(l.as_bytes());
                h.write_u8(1);
            }
            TermRef::Literal {
                lexical,
                lang,
                datatype,
            } => {
                h.write(lexical.as_bytes());
                h.write_u8(2);
                if let Some(lang) = lang {
                    h.write(lang.as_bytes());
                    h.write_u8(3);
                }
                if let Some(dt) = datatype {
                    h.write(dt.as_bytes());
                    h.write_u8(4);
                }
            }
        }
        h.finish()
    }
}

impl PartialEq<Term> for TermRef<'_> {
    fn eq(&self, other: &Term) -> bool {
        *self == other.as_ref()
    }
}

impl Term {
    /// This term's text, borrowed.
    pub(crate) fn as_ref(&self) -> TermRef<'_> {
        match self {
            Term::Iri(s) => TermRef::Iri(s),
            Term::Blank(l) => TermRef::Blank(l),
            Term::Literal {
                lexical,
                lang,
                datatype,
            } => TermRef::Literal {
                lexical: Cow::Borrowed(lexical),
                lang: lang.as_deref(),
                datatype: datatype.as_deref(),
            },
        }
    }

    /// Build an IRI term.
    pub fn iri(s: impl AsRef<str>) -> Self {
        Term::Iri(Arc::from(s.as_ref()))
    }

    /// Build a blank-node term from its label (no `_:` prefix).
    pub fn blank(label: impl AsRef<str>) -> Self {
        Term::Blank(Arc::from(label.as_ref()))
    }

    /// Build a plain literal (no language, no datatype).
    pub fn literal(lexical: impl AsRef<str>) -> Self {
        Term::Literal {
            lexical: Arc::from(lexical.as_ref()),
            lang: None,
            datatype: None,
        }
    }

    /// Build a language-tagged literal.
    pub fn lang_literal(lexical: impl AsRef<str>, lang: impl AsRef<str>) -> Self {
        Term::Literal {
            lexical: Arc::from(lexical.as_ref()),
            lang: Some(Arc::from(lang.as_ref())),
            datatype: None,
        }
    }

    /// Build a typed literal.
    pub fn typed_literal(lexical: impl AsRef<str>, datatype: impl AsRef<str>) -> Self {
        Term::Literal {
            lexical: Arc::from(lexical.as_ref()),
            lang: None,
            datatype: Some(Arc::from(datatype.as_ref())),
        }
    }

    /// `true` iff this term is an IRI.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// `true` iff this term is a blank node.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::Blank(_))
    }

    /// `true` iff this term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal { .. })
    }

    /// The IRI text if this term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(s) => Some(s),
            _ => None,
        }
    }

    /// The lexical form if this term is a literal.
    pub fn as_literal(&self) -> Option<&str> {
        match self {
            Term::Literal { lexical, .. } => Some(lexical),
            _ => None,
        }
    }

    /// Namespace prefix of an IRI: everything up to and including the last
    /// `#` or `/`. Used by the domain-specific partitioner.
    pub fn namespace(&self) -> Option<&str> {
        let iri = self.as_iri()?;
        let cut = iri.rfind(['#', '/'])? + 1;
        Some(&iri[..cut])
    }

    /// Local name of an IRI: everything after the last `#` or `/`.
    pub fn local_name(&self) -> Option<&str> {
        let iri = self.as_iri()?;
        match iri.rfind(['#', '/']) {
            Some(cut) => Some(&iri[cut + 1..]),
            None => Some(iri),
        }
    }
}

impl fmt::Display for Term {
    /// N-Triples-compatible rendering (escaping handled by the writer).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(s) => write!(f, "<{s}>"),
            Term::Blank(l) => write!(f, "_:{l}"),
            Term::Literal {
                lexical,
                lang,
                datatype,
            } => {
                write!(f, "\"{lexical}\"")?;
                if let Some(lang) = lang {
                    write!(f, "@{lang}")?;
                } else if let Some(dt) = datatype {
                    write!(f, "^^<{dt}>")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_predicates() {
        assert!(Term::iri("http://x/a").is_iri());
        assert!(Term::blank("b0").is_blank());
        assert!(Term::literal("hi").is_literal());
        assert!(!Term::literal("hi").is_iri());
        assert_eq!(Term::iri("http://x/a").as_iri(), Some("http://x/a"));
        assert_eq!(Term::literal("hi").as_literal(), Some("hi"));
        assert_eq!(Term::iri("http://x/a").as_literal(), None);
    }

    #[test]
    fn namespace_splits_on_hash_and_slash() {
        assert_eq!(
            Term::iri("http://ex.org/ont#Student").namespace(),
            Some("http://ex.org/ont#")
        );
        assert_eq!(
            Term::iri("http://ex.org/data/alice").namespace(),
            Some("http://ex.org/data/")
        );
        assert_eq!(Term::literal("x").namespace(), None);
        assert_eq!(Term::iri("urn:uuid").namespace(), None);
    }

    #[test]
    fn local_name_extraction() {
        assert_eq!(
            Term::iri("http://ex.org/ont#Student").local_name(),
            Some("Student")
        );
        assert_eq!(Term::iri("nocolon").local_name(), Some("nocolon"));
    }

    #[test]
    fn display_renders_ntriples_shapes() {
        assert_eq!(Term::iri("http://x/a").to_string(), "<http://x/a>");
        assert_eq!(Term::blank("b7").to_string(), "_:b7");
        assert_eq!(Term::literal("hi").to_string(), "\"hi\"");
        assert_eq!(Term::lang_literal("hi", "en").to_string(), "\"hi\"@en");
        assert_eq!(
            Term::typed_literal("3", "http://www.w3.org/2001/XMLSchema#int").to_string(),
            "\"3\"^^<http://www.w3.org/2001/XMLSchema#int>"
        );
    }

    #[test]
    fn literals_with_different_tags_are_distinct() {
        assert_ne!(Term::literal("a"), Term::lang_literal("a", "en"));
        assert_ne!(
            Term::literal("a"),
            Term::typed_literal("a", "http://x/dt")
        );
        assert_ne!(
            Term::lang_literal("a", "en"),
            Term::lang_literal("a", "fr")
        );
    }

    #[test]
    fn ordering_is_total_and_stable() {
        let mut v = vec![
            Term::literal("z"),
            Term::iri("http://a"),
            Term::blank("b"),
        ];
        v.sort();
        let w = v.clone();
        v.sort();
        assert_eq!(v, w);
    }
}

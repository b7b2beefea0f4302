//! Forcepoint-ThreatSeeker-style site categorisation.
//!
//! The paper labels set primaries, associated sites and Tranco comparison
//! sites with categories from the Forcepoint ThreatSeeker database (Figures
//! 8 and 9, and the construction of survey groups 3 and 4). That database is
//! a commercial, online service; this crate substitutes a deterministic
//! content classifier with the same interface: give it a domain and its
//! front-page HTML, get back a [`SiteCategory`].
//!
//! Two classification paths are provided:
//!
//! * [`KeywordClassifier`] — inspects the page's visible text, title and CSS
//!   for category-specific vocabulary (the synthetic templates embed the
//!   same vocabulary, so accuracy is high but intentionally not perfect:
//!   pages with little text fall back to [`SiteCategory::Unknown`], like the
//!   real database's "unknown" rows in Figures 8 and 9). Production
//!   classification is a single zero-copy streaming pass over the page:
//!   text words go through the compiled [`KeywordAutomaton`], and class
//!   names come from `rws_html`'s byte-level `class` scan
//!   (`RawAttrs::class_names`). The seed implementation (three
//!   tokenizations + a per-keyword haystack rescan) survives as
//!   `classify_naive`, the property-tested oracle;
//! * [`CategoryDatabase`] — a lookup service pre-populated from classifier
//!   output (or corpus ground truth), modelling how the paper's scripts
//!   query ThreatSeeker once and cache the answers. Corpus-wide builds fan
//!   one pool task per site over an `EngineContext`
//!   ([`CategoryDatabase::classify_corpus_on`]) with deterministic insert
//!   order.
//!
//! # Where classification time goes
//!
//! The automaton is not the whole cost of a classification, and before
//! the `class` scan it was not even the largest part. Sequential
//! `classify` over the 1,686 pages of a paper-scale corpus (4.4 MB of
//! HTML; median of 41 interleaved rounds on a 2-vCPU VM) splits as:
//!
//! | step | with `get` + `split_whitespace` | with the `class` scan |
//! |---|---|---|
//! | tokenize | ~19% | ~25% |
//! | `class` get and split | ~37% | ~21% |
//! | class sort and dedup | ~13% | ~16% |
//! | automaton feed | ~31% | ~39% |
//!
//! The byte-level scan made the whole pass ~1.3× faster; the shares in
//! the right column are of that smaller total. Profile before optimising
//! the next step: the automaton is now the largest, but tokenizing and
//! the class set together still outweigh it.

pub mod automaton;
pub mod database;
pub mod keyword;

pub use automaton::KeywordAutomaton;
pub use database::CategoryDatabase;
pub use keyword::KeywordClassifier;
pub use rws_corpus::SiteCategory;

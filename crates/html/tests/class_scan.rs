//! Property tests for the byte-level attribute scan behind
//! `RawAttrs::get` and `RawAttrs::class_names`.
//!
//! The scan must agree with the char-based `AttrIter` (`RawAttrs::iter`)
//! and with the owned tokenizer's attribute map on any attribute text:
//! upper-case and duplicate names, bare attributes, spaced `=`, every
//! quoting style, unterminated quotes, stray `=`, the ASCII control
//! whitespace 0x0B/0x0C/`\r`, and the Unicode spaces U+0085, U+00A0 and
//! U+3000 inside and outside quoted values.
//!
//! Run with `cargo test --release -p rws-html --test class_scan`.

use proptest::prelude::*;
use rws_html::tokenizer::{tokenize, RawAttrs, StreamToken, Token, Tokens};

/// The pieces attribute text is assembled from. Random sequences of them
/// produce well-formed attributes as well as every malformed shape the
/// scan has to survive.
const FRAGMENTS: &[&str] = &[
    // Names.
    "class",
    "CLASS",
    "cLaSs",
    "id",
    "data-x",
    "hidden",
    "classy",
    "xclass",
    "cl\u{e9}ss",
    // Whitespace, ASCII and Unicode.
    " ",
    "  ",
    "\t",
    "\n",
    "\r",
    "\u{0b}",
    "\u{0c}",
    "\u{85}",
    "\u{a0}",
    "\u{3000}",
    // `=` on its own and with spacing.
    "=",
    " = ",
    "= ",
    // Values.
    "\"nav main\"",
    "\"a\u{0b}b\u{0c}c\rd\"",
    "\"n\u{a0}m \u{3000}k\"",
    "\"x\u{85}y\"",
    // Names longer than a word, so the split runs its eight-byte steps.
    "\"alpha-beta-gamma\rdelta-epsilon\u{0b}zeta-eta-theta\u{0c}iota\"",
    "\"first-long-class-name\tsecond-long-class-name\nthird\"",
    "\"long-class-name-one\u{a0}long-class-name-two\"",
    "\"\"",
    "'single quoted'",
    "'p\u{3000}q'",
    "bare-value",
    "v\u{a0}w",
    "\"unterminated double",
    "'unterminated single",
    // Ready-made attributes.
    " class=\"lead tail\"",
    " class = \"x\"",
    " CLASS='Up per'",
    " class=unquoted",
    " class",
    " class=\"\u{a0}nbsp-led\u{a0}\"",
];

/// Attribute text: a leading space (so the text starts after the tag
/// name) and up to a dozen random fragments.
fn attr_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..FRAGMENTS.len(), 0..12).prop_map(|picks| {
        let mut text = String::from(" ");
        for k in picks {
            text.push_str(FRAGMENTS[k]);
        }
        text
    })
}

/// The streamed attributes of `<p{text}>`, the tag the checks run on.
fn stream_attrs(html: &str) -> RawAttrs<'_> {
    match Tokens::new(html).next() {
        Some(StreamToken::Open { attributes, .. }) => attributes,
        other => panic!("expected an open tag for {html:?}, got {other:?}"),
    }
}

/// The reference lookup: the last `iter()` pair whose name matches.
fn iter_last(attrs: &RawAttrs<'_>, name: &str) -> Option<String> {
    attrs
        .iter()
        .filter(|(n, _)| n == name)
        .last()
        .map(|(_, v)| v.into_owned())
}

/// Every check of the scan on one attribute text.
fn check(text: &str) {
    let html = format!("<p{text}>");
    let attrs = stream_attrs(&html);
    for name in ["class", "id", "data-x", "hidden", "classy", "CLASS", ""] {
        assert_eq!(
            attrs.get(name).map(|v| v.into_owned()),
            iter_last(&attrs, name),
            "get({name:?}) on {text:?}"
        );
    }
    let expected: Vec<String> = attrs
        .get("class")
        .map(|v| v.split_whitespace().map(str::to_string).collect())
        .unwrap_or_default();
    let names: Vec<&str> = attrs.class_names().collect();
    assert_eq!(names, expected, "class_names() on {text:?}");
    // The owned tokenizer builds its attribute map independently.
    let owned: Vec<String> = match tokenize(&html).first() {
        Some(Token::Open { attributes, .. }) => attributes
            .get("class")
            .map(|v| v.split_whitespace().map(str::to_string).collect())
            .unwrap_or_default(),
        other => panic!("expected an open tag for {html:?}, got {other:?}"),
    };
    assert_eq!(names, owned, "class_names() vs owned tokenizer on {text:?}");
}

proptest! {
    /// `get` equals the last match of `iter()`, and `class_names` equals
    /// `get("class")` split by `split_whitespace`, on generated text.
    #[test]
    fn scan_equals_attr_iter(text in attr_text()) {
        check(&text);
    }

    /// The same on longer runs, where duplicates and stray `=` pile up.
    #[test]
    fn scan_equals_attr_iter_long(parts in proptest::collection::vec(attr_text(), 1..6)) {
        check(&parts.concat());
    }
}

#[test]
fn handcrafted_attribute_texts() {
    for text in [
        "",
        " ",
        " class",
        " CLASS=\"Big Small\"",
        " class=\"a\" class='b c'",
        " class=\"a\" CLASS",
        " class = \"x\"",
        " class =\ty",
        " class='single'",
        " class=unquoted other",
        " class=\"unterminated",
        " class='unterminated",
        " = class=\"after stray\"",
        " == class=z",
        " class=\"v\u{0b}t\u{0c}f\rr\"",
        " class=\"a\u{85}b\"",
        " class=\"a\u{a0}b\"",
        " class=\"a\u{3000}b c\"",
        " class=\"alpha-beta-gamma\rdelta-epsilon\u{0b}zeta-eta-theta\u{0c}iota\"",
        " class=\"long-class-name-one long-class-name-two\u{3000}three\"",
        " class=\"x y\"\u{a0}id=1",
        " \u{3000}class=\"x\"",
        " id=\u{85}class=\"x\"",
        " class=a\u{a0}b",
        " = \u{e9}",
        " =\u{a0}class=q",
        " data-x=1 class=\"k\" data-x=2",
    ] {
        check(text);
    }
}

#[test]
fn scan_answers_match_the_documented_rules() {
    let html = "<p CLASS=\"first\" id=x Class='last  one' hidden>";
    let attrs = stream_attrs(html);
    assert_eq!(attrs.get("class").unwrap(), "last  one");
    assert_eq!(attrs.get("hidden").unwrap(), "");
    assert_eq!(attrs.get("CLASS"), None);
    assert_eq!(attrs.class_names().collect::<Vec<_>>(), ["last", "one"]);
    let html = "<p class>";
    assert_eq!(stream_attrs(html).get("class").unwrap(), "");
    assert_eq!(stream_attrs(html).class_names().count(), 0);
    // U+00A0 inside the value splits it, as `split_whitespace` does.
    let html = "<p class=\"a\u{a0}b c\">";
    assert_eq!(
        stream_attrs(html).class_names().collect::<Vec<_>>(),
        ["a", "b", "c"]
    );
}

//! A forgiving HTML tokenizer.
//!
//! Real-world HTML — which is what the paper's similarity analysis runs on —
//! is rarely well-formed, so this tokenizer never fails: it scans the input
//! once and produces a stream of [`Token`]s, skipping comments, doctypes and
//! the contents of `<script>`/`<style>` elements (their text would otherwise
//! pollute the text extraction), and tolerating unquoted or missing
//! attribute values.
//!
//! The streaming [`Tokens`] leaves attributes unparsed ([`RawAttrs`]).
//! Reading `class`, which Figure 4 and the classifier do for every tag, is
//! a byte-level scan ([`RawAttrs::get`], [`RawAttrs::class_names`]) that
//! falls back to the char-based [`AttrIter`] and `split_whitespace` where a
//! non-ASCII byte could be a Unicode space; see [`RawAttrs`].

use rws_stats::swar::{
    find_byte, find_space_or_non_ascii, has_ascii_uppercase, is_collapsed_ascii, scan_text_run,
};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// A single HTML token.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Token {
    /// An opening (or self-closing) tag with its attributes.
    Open {
        /// Lower-cased tag name.
        name: String,
        /// Attribute map (names lower-cased; value empty for bare attributes).
        attributes: BTreeMap<String, String>,
        /// True for `<br/>`-style self-closing syntax or void elements.
        self_closing: bool,
    },
    /// A closing tag.
    Close {
        /// Lower-cased tag name.
        name: String,
    },
    /// A run of text between tags (entity references left as-is).
    Text(String),
}

/// HTML void elements, which never have closing tags.
const VOID_ELEMENTS: &[&str] = &[
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "param", "source",
    "track", "wbr",
];

/// Elements whose raw text content is skipped entirely.
const RAW_TEXT_ELEMENTS: &[&str] = &["script", "style"];

/// Tokenize an HTML document.
pub fn tokenize(html: &str) -> Vec<Token> {
    let bytes = html.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let len = bytes.len();

    while i < len {
        if bytes[i] == b'<' {
            // Comment?
            if html[i..].starts_with("<!--") {
                match html[i + 4..].find("-->") {
                    Some(end) => {
                        i = i + 4 + end + 3;
                    }
                    None => break,
                }
                continue;
            }
            // Doctype or other declaration?
            if html[i..].starts_with("<!") || html[i..].starts_with("<?") {
                match html[i..].find('>') {
                    Some(end) => {
                        i += end + 1;
                    }
                    None => break,
                }
                continue;
            }
            // Find the end of the tag.
            let Some(rel_end) = html[i..].find('>') else {
                // Unterminated tag: treat the rest as text.
                push_text(&mut tokens, &html[i..]);
                break;
            };
            let tag_body = &html[i + 1..i + rel_end];
            i += rel_end + 1;
            if tag_body.is_empty() {
                continue;
            }
            if let Some(name) = tag_body.strip_prefix('/') {
                let name = name.trim().to_ascii_lowercase();
                if !name.is_empty() {
                    tokens.push(Token::Close { name });
                }
                continue;
            }
            let (name, attributes, explicit_self_close) = parse_tag_body(tag_body);
            if name.is_empty() {
                continue;
            }
            let self_closing = explicit_self_close || VOID_ELEMENTS.contains(&name.as_str());
            let is_raw_text = RAW_TEXT_ELEMENTS.contains(&name.as_str());
            tokens.push(Token::Open {
                name: name.clone(),
                attributes,
                self_closing,
            });
            // Skip the raw content of <script>/<style> up to the matching
            // closing tag.
            if is_raw_text && !self_closing {
                let close_marker = format!("</{name}");
                if let Some(rel) = html[i..].to_ascii_lowercase().find(&close_marker) {
                    i += rel;
                    if let Some(end) = html[i..].find('>') {
                        tokens.push(Token::Close { name });
                        i += end + 1;
                    }
                } else {
                    // Unterminated raw-text element: consume to the end.
                    break;
                }
            }
        } else {
            let next_tag = html[i..].find('<').map(|o| i + o).unwrap_or(len);
            push_text(&mut tokens, &html[i..next_tag]);
            i = next_tag;
        }
    }
    tokens
}

fn push_text(tokens: &mut Vec<Token>, raw: &str) {
    let collapsed = raw.split_whitespace().collect::<Vec<_>>().join(" ");
    if !collapsed.is_empty() {
        tokens.push(Token::Text(collapsed));
    }
}

/// Parse the inside of a tag: name, attributes, self-closing marker.
fn parse_tag_body(body: &str) -> (String, BTreeMap<String, String>, bool) {
    let body = body.trim();
    let (body, self_closing) = match body.strip_suffix('/') {
        Some(rest) => (rest.trim(), true),
        None => (body, false),
    };
    // Tag name: up to the first whitespace.
    let mut name_end = body.len();
    for (idx, c) in body.char_indices() {
        if c.is_whitespace() {
            name_end = idx;
            break;
        }
    }
    let name = body[..name_end].to_ascii_lowercase();
    let mut attributes = BTreeMap::new();
    let attr_str = &body[name_end..];
    let mut rest = attr_str.trim_start();
    while !rest.is_empty() {
        // Attribute name.
        let name_len = rest
            .find(|c: char| c == '=' || c.is_whitespace())
            .unwrap_or(rest.len());
        let attr_name = rest[..name_len].trim().to_ascii_lowercase();
        rest = rest[name_len..].trim_start();
        if attr_name.is_empty() {
            // Defensive: skip a stray character to guarantee progress.
            rest = &rest[first_char_len(rest)..];
            continue;
        }
        if let Some(after_eq) = rest.strip_prefix('=') {
            let after_eq = after_eq.trim_start();
            let (value, remainder) = if let Some(q) = after_eq.strip_prefix('"') {
                match q.find('"') {
                    Some(end) => (q[..end].to_string(), &q[end + 1..]),
                    None => (q.to_string(), ""),
                }
            } else if let Some(q) = after_eq.strip_prefix('\'') {
                match q.find('\'') {
                    Some(end) => (q[..end].to_string(), &q[end + 1..]),
                    None => (q.to_string(), ""),
                }
            } else {
                let end = after_eq.find(char::is_whitespace).unwrap_or(after_eq.len());
                (after_eq[..end].to_string(), &after_eq[end..])
            };
            attributes.insert(attr_name, value);
            rest = remainder.trim_start();
        } else {
            // Bare attribute (e.g. `disabled`).
            attributes.insert(attr_name, String::new());
        }
    }
    (name, attributes, self_closing)
}

/// A borrowed HTML token, produced by the zero-copy streaming tokenizer
/// [`Tokens`].
///
/// Where [`Token`] owns its strings, every string here is a [`Cow`]
/// borrowing straight from the input document; the owned variant is only
/// taken for the rare fix-ups the tokenizer performs (lower-casing a tag
/// written in upper case, collapsing a whitespace run inside text).
/// Attributes are not parsed at all until asked for: [`RawAttrs`] keeps the
/// raw slice of the tag body and parses it lazily, so a consumer that only
/// reads tag names and text never touches attribute syntax.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamToken<'a> {
    /// An opening (or self-closing) tag.
    Open {
        /// Lower-cased tag name (borrowed when already lower-case).
        name: Cow<'a, str>,
        /// The unparsed attribute portion of the tag body.
        attributes: RawAttrs<'a>,
        /// True for `<br/>`-style self-closing syntax or void elements.
        self_closing: bool,
    },
    /// A closing tag.
    Close {
        /// Lower-cased tag name.
        name: Cow<'a, str>,
    },
    /// A run of text between tags, whitespace-collapsed (borrowed when the
    /// source was already collapsed).
    Text(Cow<'a, str>),
}

impl StreamToken<'_> {
    /// Convert to the owned [`Token`] representation. The result is exactly
    /// what [`tokenize`] produces for the same input position — the
    /// equivalence the property tests assert.
    pub fn to_token(&self) -> Token {
        match self {
            StreamToken::Open {
                name,
                attributes,
                self_closing,
            } => Token::Open {
                name: name.clone().into_owned(),
                attributes: attributes
                    .iter()
                    .map(|(n, v)| (n.into_owned(), v.into_owned()))
                    .collect(),
                self_closing: *self_closing,
            },
            StreamToken::Close { name } => Token::Close {
                name: name.clone().into_owned(),
            },
            StreamToken::Text(text) => Token::Text(text.clone().into_owned()),
        }
    }
}

/// The unparsed attribute section of an open tag, between the tag name and
/// the closing `>`. Attribute syntax is only scanned when [`get`](Self::get),
/// [`class_names`](Self::class_names) or [`iter`](Self::iter) is called, and
/// all three borrow from the document (names are lower-cased through a
/// [`Cow`] when needed).
///
/// # The `class` scan
///
/// Every consumer of the `class` attribute (Figure 4's style profiles,
/// the keyword classifier, [`class_set`](crate::extract::class_set)) goes
/// through [`get`](Self::get) and [`class_names`](Self::class_names), and
/// both walk the attribute bytes directly. Names end at `=` or at one of
/// the six ASCII bytes `char::is_whitespace` accepts (0x09–0x0D and 0x20),
/// quoted values end at the closing quote found with the word-at-a-time
/// [`find_byte`], names compare ASCII-case-insensitively, the last
/// duplicate wins and a bare attribute yields `""`. `class_names` then
/// splits the value on the same six bytes, eight at a time.
///
/// U+0085, U+00A0, U+3000 and the other Unicode spaces are whitespace to
/// the owned tokenizer too, so a non-ASCII byte where whitespace decides
/// anything sends the lookup back to the char-based [`AttrIter`]: one
/// outside a quoted value makes `get` re-run as the last match of
/// [`iter`](Self::iter), and one inside the `class` value makes
/// `class_names` finish with `split_whitespace`. Inside quoted values
/// such bytes are plain data, since only the closing quote ends one.
/// [`iter`](Self::iter) always takes the char-based walk and is the
/// reference the property tests compare the scan against.
///
/// Equality compares the raw underlying slice, not the parsed attribute
/// map; two differently-written tags with the same attributes compare
/// unequal here but equal after [`StreamToken::to_token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RawAttrs<'a> {
    raw: &'a str,
}

impl<'a> RawAttrs<'a> {
    /// The value of an attribute, if present. Duplicate attribute names
    /// resolve to the last occurrence, matching the owned tokenizer's map
    /// insertion order. Bare attributes (`disabled`) yield an empty value.
    pub fn get(&self, name: &str) -> Option<Cow<'a, str>> {
        scan_attr(self.raw, name.as_bytes())
            .unwrap_or_else(|| self.last_value_of_iter(name))
            .map(Cow::Borrowed)
    }

    /// The whitespace-separated names in the `class` attribute, in order
    /// and with duplicates kept: `get("class")` split by
    /// `split_whitespace`, without building either.
    ///
    /// ```
    /// use rws_html::tokenizer::{StreamToken, Tokens};
    ///
    /// let Some(StreamToken::Open { attributes, .. }) =
    ///     Tokens::new("<p CLASS='a  b' class=\"nav\tmain\">").next()
    /// else {
    ///     unreachable!()
    /// };
    /// assert_eq!(attributes.class_names().collect::<Vec<_>>(), ["nav", "main"]);
    /// ```
    pub fn class_names(&self) -> ClassNames<'a> {
        ClassNames(match scan_attr(self.raw, b"class") {
            Some(value) => ClassSplit::Bytes(value.unwrap_or("")),
            None => ClassSplit::Unicode(
                self.last_value_of_iter("class")
                    .unwrap_or("")
                    .split_whitespace(),
            ),
        })
    }

    /// Iterate `(name, value)` pairs in document order. Names are
    /// lower-cased; values keep their case.
    pub fn iter(&self) -> AttrIter<'a> {
        AttrIter {
            rest: self.raw.trim_start(),
        }
    }

    /// True when the tag carried no attribute text at all.
    pub fn is_empty(&self) -> bool {
        self.raw.trim_start().is_empty()
    }

    /// The non-ASCII fallback: the value of the last [`AttrIter`] pair
    /// whose lower-cased name is `name`.
    fn last_value_of_iter(&self, name: &str) -> Option<&'a str> {
        let mut found = None;
        let mut attrs = self.iter();
        while let Some((attr_name, value)) = attrs.next_raw() {
            if lower_eq(attr_name.as_bytes(), name.as_bytes()) {
                found = Some(value);
            }
        }
        found
    }
}

/// [`ATTR_BYTE`] class of the six ASCII bytes `char::is_whitespace`
/// accepts (0x09–0x0d and 0x20).
const SPACE: u8 = 1;
/// [`ATTR_BYTE`] class of `=`.
const EQUALS: u8 = 2;
/// [`ATTR_BYTE`] class of every byte from 0x80 up: part of a multi-byte
/// char, which may be a Unicode space.
const NON_ASCII: u8 = 4;

/// What each byte means to the attribute scan, so every step of its walk
/// is one table load: 0 for bytes that continue a name or a value.
static ATTR_BYTE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = match b {
            0x09..=0x0d | 0x20 => SPACE,
            0x3d => EQUALS,
            0x80..=0xff => NON_ASCII,
            _ => 0,
        };
        b += 1;
    }
    table
};

/// Index of the first byte at or after `i` that is not ASCII whitespace.
#[inline(always)]
fn skip_space(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && ATTR_BYTE[b[i] as usize] == SPACE {
        i += 1;
    }
    i
}

/// True when `attr`, ASCII-lower-cased, equals `want` — the comparison the
/// owned tokenizer's map makes after lower-casing every attribute name.
#[inline(always)]
fn lower_eq(attr: &[u8], want: &[u8]) -> bool {
    attr.len() == want.len()
        && attr
            .iter()
            .zip(want)
            .all(|(&a, &w)| a.to_ascii_lowercase() == w)
}

/// The byte walk behind [`RawAttrs::get`]: the grammar of [`AttrIter`], one
/// table lookup per byte, keeping only the last value of `want`. Quoted
/// values are skipped with the word-at-a-time [`find_byte`]; their bytes
/// never decide where anything ends, so they may hold any UTF-8.
///
/// Everywhere else a byte from 0x80 up could be part of a Unicode space,
/// which [`AttrIter`]'s `char::is_whitespace` would honour: the walk
/// returns `None` when it meets one, and the caller falls back to
/// [`AttrIter`]. A walk that returns `Some` met only ASCII outside quoted
/// values, where the two grammars agree byte for byte.
fn scan_attr<'a>(raw: &'a str, want: &[u8]) -> Option<Option<&'a str>> {
    let b = raw.as_bytes();
    let len = b.len();
    let mut found = None;
    let mut i = skip_space(b, 0);
    while i < len {
        // A name ends at whitespace, `=` or a non-ASCII byte.
        let start = i;
        while i < len && ATTR_BYTE[b[i] as usize] == 0 {
            i += 1;
        }
        let name_end = i;
        i = skip_space(b, i);
        if name_end == start {
            // A non-ASCII byte outside a quoted value always ends up here:
            // it ends a name or an unquoted value, and the round after
            // starts at it with an empty name. It may be a Unicode space.
            if i < len && b[i] >= 0x80 {
                return None;
            }
            // A stray `=` (or, right after one, any char): skip one char.
            i = (i + 1).min(len);
            continue;
        }
        let hit = lower_eq(&b[start..name_end], want);
        if i < len && b[i] == b'=' {
            i = skip_space(b, i + 1);
            let (value, end) = match b.get(i) {
                Some(&quote) if quote == b'"' || quote == b'\'' => {
                    match find_byte(&b[i + 1..], quote) {
                        Some(close) => (&raw[i + 1..i + 1 + close], i + 1 + close + 1),
                        None => (&raw[i + 1..], len),
                    }
                }
                _ => {
                    let mut end = i;
                    while end < len && ATTR_BYTE[b[end] as usize] & (SPACE | NON_ASCII) == 0 {
                        end += 1;
                    }
                    (&raw[i..end], end)
                }
            };
            if hit {
                found = Some(value);
            }
            i = skip_space(b, end);
        } else if hit {
            found = Some("");
        }
    }
    Some(found)
}

/// Iterator over the names in a `class` attribute; see
/// [`RawAttrs::class_names`].
#[derive(Debug, Clone)]
pub struct ClassNames<'a>(ClassSplit<'a>);

#[derive(Debug, Clone)]
enum ClassSplit<'a> {
    /// The rest of the value, split on the six ASCII whitespace bytes
    /// until a non-ASCII byte turns up.
    Bytes(&'a str),
    /// The rest of the value, split on Unicode whitespace.
    Unicode(std::str::SplitWhitespace<'a>),
}

impl<'a> Iterator for ClassNames<'a> {
    type Item = &'a str;

    #[inline]
    fn next(&mut self) -> Option<&'a str> {
        let rest = match &mut self.0 {
            ClassSplit::Bytes(rest) => rest,
            ClassSplit::Unicode(split) => return split.next(),
        };
        let b = rest.as_bytes();
        let start = skip_space(b, 0);
        if start == b.len() {
            *rest = "";
            return None;
        }
        let end = match find_space_or_non_ascii(&b[start..]) {
            None => b.len(),
            Some(off) if b[start + off] < 0x80 => start + off,
            Some(_) => {
                // Every name so far ended at ASCII whitespace, which is
                // also a `split_whitespace` boundary: splitting the rest
                // by chars continues the same sequence.
                let mut split = rest[start..].split_whitespace();
                let name = split.next();
                self.0 = ClassSplit::Unicode(split);
                return name;
            }
        };
        let name = &rest[start..end];
        *rest = &rest[end..];
        Some(name)
    }
}

/// Iterator over a tag's attributes; see [`RawAttrs::iter`].
#[derive(Debug, Clone)]
pub struct AttrIter<'a> {
    rest: &'a str,
}

impl<'a> AttrIter<'a> {
    /// The next `(name, value)` pair with the name as written. Mirrors the
    /// attribute loop of `parse_tag_body` exactly, borrowing instead of
    /// allocating.
    fn next_raw(&mut self) -> Option<(&'a str, &'a str)> {
        loop {
            if self.rest.is_empty() {
                return None;
            }
            let name_len = self
                .rest
                .find(|c: char| c == '=' || c.is_whitespace())
                .unwrap_or(self.rest.len());
            let attr_name = self.rest[..name_len].trim();
            self.rest = self.rest[name_len..].trim_start();
            if attr_name.is_empty() {
                // Defensive: skip a stray character to guarantee progress.
                self.rest = &self.rest[first_char_len(self.rest)..];
                continue;
            }
            if let Some(after_eq) = self.rest.strip_prefix('=') {
                let after_eq = after_eq.trim_start();
                let (value, remainder) = if let Some(q) = after_eq.strip_prefix('"') {
                    match q.find('"') {
                        Some(end) => (&q[..end], &q[end + 1..]),
                        None => (q, ""),
                    }
                } else if let Some(q) = after_eq.strip_prefix('\'') {
                    match q.find('\'') {
                        Some(end) => (&q[..end], &q[end + 1..]),
                        None => (q, ""),
                    }
                } else {
                    let end = after_eq.find(char::is_whitespace).unwrap_or(after_eq.len());
                    (&after_eq[..end], &after_eq[end..])
                };
                self.rest = remainder.trim_start();
                return Some((attr_name, value));
            }
            return Some((attr_name, ""));
        }
    }
}

impl<'a> Iterator for AttrIter<'a> {
    type Item = (Cow<'a, str>, Cow<'a, str>);

    fn next(&mut self) -> Option<Self::Item> {
        self.next_raw()
            .map(|(name, value)| (lowercase_cow(name), Cow::Borrowed(value)))
    }
}

/// Byte length of the first char of `s` (0 when empty): the stray-character
/// skip of the attribute loops, which must not split a multi-byte char.
#[inline]
fn first_char_len(s: &str) -> usize {
    s.chars().next().map_or(0, char::len_utf8)
}

/// Void-element membership for the streaming tokenizer's hot path: a
/// literal `matches!` lowers to a length switch with one comparison per
/// arm, where the seed's `VOID_ELEMENTS.contains` walks all fourteen
/// entries for every non-void tag (the overwhelmingly common case).
#[inline]
fn is_void_element(name: &str) -> bool {
    matches!(
        name,
        "area"
            | "base"
            | "br"
            | "col"
            | "embed"
            | "hr"
            | "img"
            | "input"
            | "link"
            | "meta"
            | "param"
            | "source"
            | "track"
            | "wbr"
    )
}

/// Lower-case a string, borrowing when it is already lower-case (the common
/// case for real-world tag and attribute names). The uppercase probe runs
/// eight bytes per step.
fn lowercase_cow(s: &str) -> Cow<'_, str> {
    if has_ascii_uppercase(s.as_bytes()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// The frozen per-byte uppercase probe, kept for [`TokensFind`].
fn lowercase_cow_scalar(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// Collapse whitespace in a text run, borrowing when the trimmed slice is
/// already collapsed (single spaces only). Returns `None` for
/// whitespace-only runs, which produce no token. A word-at-a-time probe
/// admits clean ASCII runs to the borrowed path without a per-char loop;
/// everything else (non-ASCII, messy whitespace) takes the exact scalar
/// check.
fn collapse_text(raw: &str) -> Option<Cow<'_, str>> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    if is_collapsed_ascii(trimmed.as_bytes()) {
        return Some(Cow::Borrowed(trimmed));
    }
    Some(collapse_trimmed_scalar(trimmed))
}

/// The frozen per-char collapse, kept for [`TokensFind`].
fn collapse_text_scalar(raw: &str) -> Option<Cow<'_, str>> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    Some(collapse_trimmed_scalar(trimmed))
}

/// Exact per-char whitespace collapse over an already-trimmed, non-empty
/// run; borrows when the run is already collapsed.
fn collapse_trimmed_scalar(trimmed: &str) -> Cow<'_, str> {
    let mut prev_space = false;
    for c in trimmed.chars() {
        if c == ' ' {
            if prev_space {
                return Cow::Owned(trimmed.split_whitespace().collect::<Vec<_>>().join(" "));
            }
            prev_space = true;
        } else if c.is_whitespace() {
            return Cow::Owned(trimmed.split_whitespace().collect::<Vec<_>>().join(" "));
        } else {
            prev_space = false;
        }
    }
    Cow::Borrowed(trimmed)
}

/// Find the first case-insensitive `</name` in `haystack`, without building
/// a lower-cased copy of the remainder (the owned tokenizer's approach).
/// Candidate `<` positions come from the word-at-a-time scanner; the name
/// comparison only runs at those.
fn find_close_marker(haystack: &str, name: &str) -> Option<usize> {
    let hb = haystack.as_bytes();
    let nb = name.as_bytes();
    let total = nb.len() + 2;
    if hb.len() < total {
        return None;
    }
    let limit = hb.len() - total + 1;
    let mut j = 0;
    while let Some(off) = find_byte(&hb[j..limit], b'<') {
        let p = j + off;
        if hb[p + 1] == b'/' && hb[p + 2..p + 2 + nb.len()].eq_ignore_ascii_case(nb) {
            return Some(p);
        }
        j = p + 1;
    }
    None
}

/// The frozen per-position close-marker scan, kept for [`TokensFind`].
fn find_close_marker_scalar(haystack: &str, name: &str) -> Option<usize> {
    let hb = haystack.as_bytes();
    let nb = name.as_bytes();
    let total = nb.len() + 2;
    if hb.len() < total {
        return None;
    }
    (0..=hb.len() - total).find(|&p| {
        hb[p] == b'<' && hb[p + 1] == b'/' && hb[p + 2..p + 2 + nb.len()].eq_ignore_ascii_case(nb)
    })
}

/// End of a comment opened at `open` (the index of its `<`): the index just
/// past the first `-->` at or after `open + 4`, scanning for `>` a word at
/// a time and checking the two preceding bytes, which is equivalent to a
/// substring search for `-->` (the first `>` preceded by `--` is the `>` of
/// the first `-->` occurrence).
fn find_comment_end(bytes: &[u8], open: usize) -> Option<usize> {
    let mut j = open + 6;
    while j < bytes.len() {
        let p = j + find_byte(&bytes[j..], b'>')?;
        if bytes[p - 1] == b'-' && bytes[p - 2] == b'-' {
            return Some(p + 1);
        }
        j = p + 1;
    }
    None
}

/// `str::trim` with the char-iterator machinery skipped for the all-ASCII
/// common case: trim ASCII whitespace bytewise, then defer to the exact
/// Unicode trim only when an edge still holds a non-ASCII byte or a
/// vertical tab (0x0b — the one ASCII character `char::is_whitespace`
/// covers that `u8::is_ascii_whitespace` does not).
#[inline]
fn trim_fast(s: &str) -> &str {
    let t = s.trim_ascii();
    let b = t.as_bytes();
    match (b.first(), b.last()) {
        (Some(&f), Some(&l)) if f >= 0x80 || l >= 0x80 || f == 0x0b || l == 0x0b => t.trim(),
        _ => t,
    }
}

/// Split an already-trimmed tag body into its lower-cased name and the
/// attribute remainder, tracking case in the same walk that finds the name
/// end (one pass instead of a name-end scan plus a separate uppercase probe).
/// Defers to the exact char walk when a non-ASCII byte appears before the
/// name ends (Unicode whitespace such as U+00A0 must still terminate the
/// name, matching the owned oracle's `char::is_whitespace`).
#[inline]
fn split_tag_name(body: &str) -> (Cow<'_, str>, &str) {
    let b = body.as_bytes();
    let mut upper = false;
    let mut k = 0;
    while k < b.len() {
        let c = b[k];
        if c >= 0x80 {
            let end = body[k..]
                .char_indices()
                .find(|(_, ch)| ch.is_whitespace())
                .map_or(body.len(), |(off, _)| k + off);
            return (lowercase_cow(&body[..end]), &body[end..]);
        }
        if c == b' ' || (0x09..=0x0d).contains(&c) {
            break;
        }
        upper |= c.is_ascii_uppercase();
        k += 1;
    }
    let name = &body[..k];
    let name = if upper {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    };
    (name, &body[k..])
}

/// The zero-copy streaming tokenizer: an iterator over [`StreamToken`]s
/// borrowing from the input document.
///
/// Token-for-token equivalent to [`tokenize`] (the owned implementation is
/// retained as the oracle the property tests compare against), but performs
/// no allocation for well-formed lower-case HTML: tag names, attribute
/// values and already-collapsed text are handed out as borrowed slices, and
/// attributes are not even parsed until a consumer asks for one.
///
/// ```
/// use rws_html::tokenizer::{StreamToken, Tokens};
///
/// let mut names = Vec::new();
/// for token in Tokens::new("<div class=\"nav\"><p>hi</p></div>") {
///     if let StreamToken::Open { name, .. } = token {
///         names.push(name.into_owned());
///     }
/// }
/// assert_eq!(names, ["div", "p"]);
/// ```
#[derive(Debug, Clone)]
pub struct Tokens<'a> {
    html: &'a str,
    i: usize,
    /// A `Close` token queued behind the `Open` of a raw-text element whose
    /// skipped contents ended with a matching close tag.
    pending_close: Option<Cow<'a, str>>,
}

impl<'a> Tokens<'a> {
    /// Start streaming tokens from a document.
    pub fn new(html: &'a str) -> Tokens<'a> {
        Tokens {
            html,
            i: 0,
            pending_close: None,
        }
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = StreamToken<'a>;

    fn next(&mut self) -> Option<StreamToken<'a>> {
        if let Some(name) = self.pending_close.take() {
            return Some(StreamToken::Close { name });
        }
        let html = self.html;
        let bytes = html.as_bytes();
        let len = bytes.len();
        while self.i < len {
            let i = self.i;
            if bytes[i] == b'<' {
                // One peek at the byte after `<` dispatches comments,
                // declarations and processing instructions, instead of
                // re-slicing the remainder through a `starts_with` chain.
                match bytes.get(i + 1) {
                    Some(b'!') if bytes[i + 2..].starts_with(b"--") => {
                        // Comment: skip to just past the first `-->`.
                        self.i = find_comment_end(bytes, i).unwrap_or(len);
                        continue;
                    }
                    Some(b'!') | Some(b'?') => {
                        // Doctype or other declaration.
                        match find_byte(&bytes[i + 2..], b'>') {
                            Some(end) => self.i = i + 2 + end + 1,
                            None => self.i = len,
                        }
                        continue;
                    }
                    _ => {}
                }
                // Find the end of the tag.
                let Some(rel_end) = find_byte(&bytes[i + 1..], b'>') else {
                    // Unterminated tag: treat the rest as text.
                    self.i = len;
                    return collapse_text(&html[i..]).map(StreamToken::Text);
                };
                let tag_body = &html[i + 1..i + 1 + rel_end];
                self.i = i + 1 + rel_end + 1;
                if tag_body.is_empty() {
                    continue;
                }
                if let Some(name) = tag_body.strip_prefix('/') {
                    let name = trim_fast(name);
                    if name.is_empty() {
                        continue;
                    }
                    return Some(StreamToken::Close {
                        name: lowercase_cow(name),
                    });
                }
                let body = trim_fast(tag_body);
                let (body, explicit_self_close) = match body.strip_suffix('/') {
                    Some(rest) => (trim_fast(rest), true),
                    None => (body, false),
                };
                let (name, raw) = split_tag_name(body);
                if name.is_empty() {
                    continue;
                }
                let attributes = RawAttrs { raw };
                let self_closing = explicit_self_close || is_void_element(name.as_ref());
                let is_raw_text = matches!(name.as_ref(), "script" | "style");
                // Skip the raw content of <script>/<style> up to the
                // matching closing tag, queueing the Close token.
                if is_raw_text && !self_closing {
                    match find_close_marker(&html[self.i..], name.as_ref()) {
                        Some(rel) => {
                            self.i += rel;
                            if let Some(end) = find_byte(&bytes[self.i..], b'>') {
                                self.pending_close = Some(name.clone());
                                self.i += end + 1;
                            }
                        }
                        // Unterminated raw-text element: consume to the end.
                        None => self.i = len,
                    }
                }
                return Some(StreamToken::Open {
                    name,
                    attributes,
                    self_closing,
                });
            }
            // One fused pass over the text run: the position of the next
            // `<` and the already-collapsed verdict come out of the same
            // word loop, instead of a find followed by a re-scan probe.
            let (off, clean) = scan_text_run(&bytes[i..]);
            let next_tag = i + off;
            self.i = next_tag;
            let trimmed = trim_fast(&html[i..next_tag]);
            if !trimmed.is_empty() {
                let text = if clean {
                    Cow::Borrowed(trimmed)
                } else {
                    collapse_trimmed_scalar(trimmed)
                };
                return Some(StreamToken::Text(text));
            }
        }
        None
    }
}

/// The PR-5 `str::find`-based streaming tokenizer, frozen as the baseline
/// the `tokenizer_swar` bench kernel is measured against (and a third
/// differential oracle for the property tests). Token-for-token equivalent
/// to [`Tokens`] and [`tokenize`]; do not optimise this type.
#[derive(Debug, Clone)]
pub struct TokensFind<'a> {
    html: &'a str,
    i: usize,
    pending_close: Option<Cow<'a, str>>,
}

impl<'a> TokensFind<'a> {
    /// Start streaming tokens from a document.
    pub fn new(html: &'a str) -> TokensFind<'a> {
        TokensFind {
            html,
            i: 0,
            pending_close: None,
        }
    }
}

impl<'a> Iterator for TokensFind<'a> {
    type Item = StreamToken<'a>;

    fn next(&mut self) -> Option<StreamToken<'a>> {
        if let Some(name) = self.pending_close.take() {
            return Some(StreamToken::Close { name });
        }
        let html = self.html;
        let bytes = html.as_bytes();
        let len = bytes.len();
        while self.i < len {
            let i = self.i;
            if bytes[i] == b'<' {
                // Comment?
                if html[i..].starts_with("<!--") {
                    match html[i + 4..].find("-->") {
                        Some(end) => self.i = i + 4 + end + 3,
                        None => self.i = len,
                    }
                    continue;
                }
                // Doctype or other declaration?
                if html[i..].starts_with("<!") || html[i..].starts_with("<?") {
                    match html[i..].find('>') {
                        Some(end) => self.i = i + end + 1,
                        None => self.i = len,
                    }
                    continue;
                }
                // Find the end of the tag.
                let Some(rel_end) = html[i..].find('>') else {
                    // Unterminated tag: treat the rest as text.
                    self.i = len;
                    return collapse_text_scalar(&html[i..]).map(StreamToken::Text);
                };
                let tag_body = &html[i + 1..i + rel_end];
                self.i = i + rel_end + 1;
                if tag_body.is_empty() {
                    continue;
                }
                if let Some(name) = tag_body.strip_prefix('/') {
                    let name = name.trim();
                    if name.is_empty() {
                        continue;
                    }
                    return Some(StreamToken::Close {
                        name: lowercase_cow_scalar(name),
                    });
                }
                let body = tag_body.trim();
                let (body, explicit_self_close) = match body.strip_suffix('/') {
                    Some(rest) => (rest.trim(), true),
                    None => (body, false),
                };
                let mut name_end = body.len();
                for (idx, c) in body.char_indices() {
                    if c.is_whitespace() {
                        name_end = idx;
                        break;
                    }
                }
                if name_end == 0 {
                    continue;
                }
                let name = lowercase_cow_scalar(&body[..name_end]);
                let attributes = RawAttrs {
                    raw: &body[name_end..],
                };
                let self_closing = explicit_self_close || VOID_ELEMENTS.contains(&name.as_ref());
                let is_raw_text = RAW_TEXT_ELEMENTS.contains(&name.as_ref());
                // Skip the raw content of <script>/<style> up to the
                // matching closing tag, queueing the Close token.
                if is_raw_text && !self_closing {
                    match find_close_marker_scalar(&html[self.i..], name.as_ref()) {
                        Some(rel) => {
                            self.i += rel;
                            if let Some(end) = html[self.i..].find('>') {
                                self.pending_close = Some(name.clone());
                                self.i += end + 1;
                            }
                        }
                        // Unterminated raw-text element: consume to the end.
                        None => self.i = len,
                    }
                }
                return Some(StreamToken::Open {
                    name,
                    attributes,
                    self_closing,
                });
            }
            let next_tag = html[i..].find('<').map(|o| i + o).unwrap_or(len);
            self.i = next_tag;
            if let Some(text) = collapse_text_scalar(&html[i..next_tag]) {
                return Some(StreamToken::Text(text));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(tokens: &[Token]) -> Vec<&str> {
        tokens
            .iter()
            .filter_map(|t| match t {
                Token::Open { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn tokenizes_simple_document() {
        let tokens = tokenize("<html><body><p>Hello</p></body></html>");
        assert_eq!(open(&tokens), vec!["html", "body", "p"]);
        assert!(tokens.contains(&Token::Text("Hello".into())));
        assert!(tokens.contains(&Token::Close { name: "p".into() }));
    }

    #[test]
    fn parses_attributes_quoted_and_unquoted() {
        let tokens = tokenize(r#"<div class="nav main" id=content data-x='1' hidden>x</div>"#);
        match &tokens[0] {
            Token::Open {
                name, attributes, ..
            } => {
                assert_eq!(name, "div");
                assert_eq!(attributes.get("class").unwrap(), "nav main");
                assert_eq!(attributes.get("id").unwrap(), "content");
                assert_eq!(attributes.get("data-x").unwrap(), "1");
                assert_eq!(attributes.get("hidden").unwrap(), "");
            }
            other => panic!("expected open tag, got {other:?}"),
        }
    }

    #[test]
    fn tag_names_and_attribute_names_lowercased() {
        let tokens = tokenize(r#"<DIV CLASS="Big">x</DIV>"#);
        match &tokens[0] {
            Token::Open {
                name, attributes, ..
            } => {
                assert_eq!(name, "div");
                // Attribute values keep their case.
                assert_eq!(attributes.get("class").unwrap(), "Big");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(tokens.contains(&Token::Close { name: "div".into() }));
    }

    #[test]
    fn void_and_self_closing_elements() {
        let tokens = tokenize(r#"<img src="x.png"><br/><link rel="stylesheet">"#);
        let flags: Vec<bool> = tokens
            .iter()
            .filter_map(|t| match t {
                Token::Open { self_closing, .. } => Some(*self_closing),
                _ => None,
            })
            .collect();
        assert_eq!(flags, vec![true, true, true]);
    }

    #[test]
    fn comments_and_doctype_skipped() {
        let tokens = tokenize("<!DOCTYPE html><!-- a <b> comment --><p>text</p>");
        assert_eq!(open(&tokens), vec!["p"]);
    }

    #[test]
    fn script_and_style_contents_skipped() {
        let html = r#"<script>var x = "<p>not a tag</p>";</script><style>.a{color:red}</style><p>real</p>"#;
        let tokens = tokenize(html);
        assert_eq!(open(&tokens), vec!["script", "style", "p"]);
        // The script body must not appear as text.
        assert!(!tokens
            .iter()
            .any(|t| matches!(t, Token::Text(s) if s.contains("not a tag"))));
        assert!(tokens.contains(&Token::Text("real".into())));
    }

    #[test]
    fn whitespace_collapsed_in_text() {
        let tokens = tokenize("<p>  hello \n\t world  </p>");
        assert!(tokens.contains(&Token::Text("hello world".into())));
    }

    #[test]
    fn malformed_html_does_not_panic() {
        for html in [
            "<div><p>unclosed",
            "text only",
            "<<>>",
            "<div class=>broken</div>",
            "<",
            "<!-- unterminated comment",
            "<script>never closed",
            "",
            // A stray `=` then a multi-byte char: the skip must not split it.
            "<a = \u{e9}>x</a>",
        ] {
            let _ = tokenize(html);
            for token in Tokens::new(html) {
                let _ = token.to_token();
            }
        }
    }

    #[test]
    fn empty_input_produces_no_tokens() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \n  ").is_empty());
    }

    /// The streaming tokenizer must agree with the owned oracle token for
    /// token, including on the malformed inputs the oracle tolerates.
    #[test]
    fn streaming_matches_owned_oracle() {
        for html in [
            "<html><body><p>Hello</p></body></html>",
            r#"<div class="nav main" id=content data-x='1' hidden>x</div>"#,
            r#"<DIV CLASS="Big">x</DIV>"#,
            r#"<img src="x.png"><br/><link rel="stylesheet">"#,
            "<!DOCTYPE html><!-- a <b> comment --><p>text</p>",
            r#"<script>var x = "<p>not a tag</p>";</script><style>.a{color:red}</style><p>real</p>"#,
            "<p>  hello \n\t world  </p>",
            "<div><p>unclosed",
            "text only",
            "<<>>",
            "<div class=>broken</div>",
            "<",
            "<!-- unterminated comment",
            "<script>never closed",
            "<script>x</script",
            "<SCRIPT>shout</SCRIPT>done",
            "< /div>",
            "<div a=1 a=2>dup</div>",
            "",
            "<!-->",
            "<!--->",
            "<!---->",
            "<!--a--b-->tail",
            "<!>after",
            "<?xml version='1.0'?><p>pi</p>",
            "<!doctype html>",
            "<div\u{00a0}x=1>nbsp name end</div>",
            "<p>a > b</p>",
            "<p>already collapsed run stays borrowed</p>",
            "<p>tab\tand\u{00a0}nbsp   runs</p>",
            "<a = \u{e9}>stray then multi-byte</a>",
            "<a =\u{3000}class=x>stray then ideographic space</a>",
        ] {
            let owned = tokenize(html);
            let streamed: Vec<Token> = Tokens::new(html).map(|t| t.to_token()).collect();
            assert_eq!(streamed, owned, "SWAR stream divergence on {html:?}");
            let baseline: Vec<Token> = TokensFind::new(html).map(|t| t.to_token()).collect();
            assert_eq!(baseline, owned, "find baseline divergence on {html:?}");
        }
    }

    /// Well-formed lower-case HTML streams entirely as borrowed slices.
    #[test]
    fn streaming_borrows_when_possible() {
        let html = r#"<div class="nav">plain text</div>"#;
        for token in Tokens::new(html) {
            match token {
                StreamToken::Open {
                    name, attributes, ..
                } => {
                    assert!(matches!(name, Cow::Borrowed(_)));
                    let class = attributes.get("class").unwrap();
                    assert!(matches!(class, Cow::Borrowed(_)));
                }
                StreamToken::Close { name } => assert!(matches!(name, Cow::Borrowed(_))),
                StreamToken::Text(text) => assert!(matches!(text, Cow::Borrowed(_))),
            }
        }
    }

    /// Lazily-parsed attributes answer lookups like the owned map: names
    /// lower-cased, values as written, duplicates resolved to the last.
    #[test]
    fn raw_attrs_lookup_semantics() {
        let html = r#"<div CLASS="Big" data-x=1 data-x=2 hidden>x</div>"#;
        let Some(StreamToken::Open { attributes, .. }) = Tokens::new(html).next() else {
            panic!("expected an open tag");
        };
        assert_eq!(attributes.get("class").unwrap(), "Big");
        assert_eq!(attributes.get("data-x").unwrap(), "2");
        assert_eq!(attributes.get("hidden").unwrap(), "");
        assert_eq!(attributes.get("missing"), None);
        assert!(!attributes.is_empty());
        assert_eq!(attributes.iter().count(), 4);
    }
}

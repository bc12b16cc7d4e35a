//! Property tests for the hand-rolled JSON codec under the result store,
//! the fabric wire and every read-side CLI phase: whatever tree the
//! writer can emit reparses to itself byte for byte, and every other
//! legal spelling of the same tree — whitespace between tokens, `\/`,
//! `\b`, `\f`, `\uXXXX` and surrogate pairs — decodes to the same value.
//!
//! Trees are built from a *choice tape* (`Vec<u64>`): the proptest shim
//! has no recursive strategies, but it shrinks vectors by shedding length
//! and bisecting elements toward zero, and an exhausted or zero tape
//! entry decodes to the simplest choice, so a failing tree minimises.

use proptest::prelude::*;
use valley_sim::json::{parse, Json};

/// Reads choices off a tape; past the end every choice is 0.
struct Tape<'a> {
    choices: &'a [u64],
    at: usize,
}

impl Tape<'_> {
    fn next(&mut self) -> u64 {
        let c = self.choices.get(self.at).copied().unwrap_or(0);
        self.at += 1;
        c
    }
}

/// Characters the string paths must carry: every short escape, other
/// control characters, the quote and both slashes, DEL, and the first and
/// last scalar of each UTF-8 length and on both sides of the surrogate gap.
const CHARS: [char; 24] = [
    'a',
    'Z',
    '0',
    ' ',
    '"',
    '\\',
    '/',
    '\u{8}',
    '\u{c}',
    '\n',
    '\r',
    '\t',
    '\u{0}',
    '\u{1f}',
    '\u{7f}',
    '\u{80}',
    'é',
    '\u{7ff}',
    '\u{800}',
    '€',
    '\u{d7ff}',
    '\u{e000}',
    '😀',
    '\u{10ffff}',
];

fn string(t: &mut Tape<'_>) -> String {
    (0..t.next() % 6)
        .map(|_| CHARS[(t.next() % 24) as usize])
        .collect()
}

fn tree(t: &mut Tape<'_>, depth: usize) -> Json {
    // Half of all choices nest until depth 6, so a tape is mostly spent
    // on structure; the tape running out (zeros: `null`) ends the tree.
    let kinds = if depth < 6 { 10 } else { 5 };
    match t.next() % kinds {
        0 => Json::Null,
        1 => Json::Bool(t.next() % 2 == 1),
        2 => Json::UInt(match t.next() % 4 {
            0 => 0,
            1 => u64::MAX,
            2 => (1 << 53) + 1,
            _ => t.next(),
        }),
        3 => {
            let x = f64::from_bits(t.next());
            Json::Num(if x.is_finite() { x } else { -0.5 })
        }
        4 => Json::Str(string(t)),
        5 | 6 => Json::Arr((0..t.next() % 6).map(|_| tree(t, depth + 1)).collect()),
        _ => Json::Obj(
            (0..t.next() % 6)
                .map(|_| (string(t), tree(t, depth + 1)))
                .collect(),
        ),
    }
}

/// A document that spends the whole tape: an array of trees.
fn document(choices: &[u64]) -> Json {
    let mut t = Tape { choices, at: 0 };
    let mut items = Vec::new();
    while t.at < choices.len() {
        items.push(tree(&mut t, 1));
    }
    Json::Arr(items)
}

/// Zero to two whitespace characters.
fn ws(t: &mut Tape<'_>, out: &mut String) {
    for _ in 0..t.next() % 3 {
        out.push([' ', '\t', '\n', '\r'][(t.next() % 4) as usize]);
    }
}

/// Spells a string with an escape style chosen per character: as the
/// writer would, as a short escape where JSON has one, or as `\uXXXX`
/// (a surrogate pair above the BMP), in either hex case.
fn spell_string(s: &str, t: &mut Tape<'_>, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '/' => Some("\\/"),
            '\u{8}' => Some("\\b"),
            '\u{c}' => Some("\\f"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            _ => None,
        };
        let must_escape = c == '"' || c == '\\' || (c as u32) < 0x20;
        match (t.next() % 3, short) {
            (0, _) if !must_escape => out.push(c),
            (0 | 1, Some(esc)) => out.push_str(esc),
            (style, _) => {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    if style == 2 {
                        out.push_str(&format!("\\u{unit:04X}"));
                    } else {
                        out.push_str(&format!("\\u{unit:04x}"));
                    }
                }
            }
        }
    }
    out.push('"');
}

/// Spells `v` with whitespace wherever JSON allows it and strings as
/// [`spell_string`] chooses; scalars are the writer's.
fn spell(v: &Json, t: &mut Tape<'_>, out: &mut String) {
    ws(t, out);
    match v {
        Json::Str(s) => spell_string(s, t, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                spell(item, t, out);
            }
            ws(t, out);
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(t, out);
                spell_string(k, t, out);
                ws(t, out);
                out.push(':');
                spell(item, t, out);
            }
            ws(t, out);
            out.push('}');
        }
        scalar => scalar.write(out),
    }
    ws(t, out);
}

proptest! {
    /// `parse(write(v)) == v` and `write(parse(s)) == s` for canonical
    /// `s` (the store's shard lines and the wire's frames are canonical).
    #[test]
    fn canonical_text_round_trips(choices in collection::vec(any::<u64>(), 0..160)) {
        let v = document(&choices);
        let s = v.to_json_string();
        let back = parse(&s);
        prop_assert_eq!(back.as_ref(), Ok(&v), "canonical text {s:?}");
        prop_assert_eq!(back.unwrap().to_json_string(), s);
    }

    /// Any legal spelling of a tree decodes to that tree.
    #[test]
    fn every_spelling_decodes_to_the_same_tree(
        choices in collection::vec(any::<u64>(), 0..160),
        style in collection::vec(any::<u64>(), 0..400),
    ) {
        let v = document(&choices);
        let mut text = String::new();
        spell(&v, &mut Tape { choices: &style, at: 0 }, &mut text);
        prop_assert_eq!(parse(&text), Ok(v), "spelling {text:?}");
    }
}

/// The tape reaches what the properties claim to cover: without this a
/// change to `tree` could quietly stop generating, say, surrogate pairs.
#[test]
fn the_generators_cover_the_vocabulary() {
    let mut rng = TestRng::from_name("coverage");
    let (mut canonical, mut spelled) = (String::new(), String::new());
    for _ in 0..400 {
        let choices: Vec<u64> = (0..160).map(|_| rng.next_u64()).collect();
        let v = document(&choices);
        v.write(&mut canonical);
        spell(
            &v,
            &mut Tape {
                choices: &choices,
                at: 0,
            },
            &mut spelled,
        );
    }
    for needle in [
        "18446744073709551615",
        "😀",
        "é",
        "\\u0000",
        "\\n",
        "{",
        "[",
        "e-",
    ] {
        assert!(
            canonical.contains(needle),
            "canonical text lacks {needle:?}"
        );
    }
    for needle in [
        "\\/",
        "\\b",
        "\\f",
        "\\ud83d\\ude00",
        "\\uD83D\\uDE00",
        "\\u00e9",
        " :",
        "\n]",
    ] {
        assert!(spelled.contains(needle), "spelled text lacks {needle:?}");
    }
}

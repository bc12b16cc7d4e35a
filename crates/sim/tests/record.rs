//! The record layer on toy shapes: what the declared table generates
//! (wire order, `None` omitted, the version member, loud decode errors)
//! and what its fingerprint sees.

use valley_sim::json::{self, Json};
use valley_sim::record::{description, fingerprint, Codec, Record};
use valley_sim::{record, tagged};

/// A toy shape per property the fingerprint must see. `Base` is the
/// reference; each sibling differs from it in exactly one way.
mod toy {
    #[derive(Debug, PartialEq)]
    pub struct Inner {
        pub n: u64,
    }
    #[derive(Debug, PartialEq)]
    pub struct InnerWider {
        pub n: u64,
        pub m: u64,
    }
    macro_rules! outer {
        ($name:ident, $inner:ident) => {
            #[derive(Debug, PartialEq)]
            pub struct $name {
                pub a: u64,
                pub b: f64,
                pub inner: $inner,
                pub note: Option<String>,
                pub debug: Vec<u32>,
            }
        };
    }
    outer!(Base, Inner);
    outer!(Renamed, Inner);
    outer!(Reordered, Inner);
    outer!(Nested, InnerWider);
    #[derive(Debug, PartialEq)]
    pub struct Rekinded {
        pub a: u64,
        pub b: u64,
        pub inner: Inner,
        pub note: Option<String>,
        pub debug: Vec<u32>,
    }
    #[derive(Debug, PartialEq)]
    pub struct Versioned {
        pub n: u64,
    }
    #[derive(Debug, PartialEq)]
    pub struct Holder {
        pub held: Versioned,
    }
    #[derive(Debug, PartialEq)]
    pub enum Shape {
        Dot {},
        Line { len: u64, inner: Inner },
    }
}
use toy::*;

record!(Inner { n: u64 = "n" });
record!(InnerWider {
    n: u64 = "n",
    m: u64 = "m"
});
record!(Base { a: u64 = "a", b: f64 = "b", inner: Inner = "inner", note: Option<String> = "note", debug: Vec<u32> = "debug" });
record!(Renamed { a: u64 = "a", b: f64 = "bee", inner: Inner = "inner", note: Option<String> = "note", debug: Vec<u32> = "debug" });
record!(Reordered { b: f64 = "b", a: u64 = "a", inner: Inner = "inner", note: Option<String> = "note", debug: Vec<u32> = "debug" });
record!(Rekinded { a: u64 = "a", b: u64 = "b", inner: Inner = "inner", note: Option<String> = "note", debug: Vec<u32> = "debug" });
record!(Nested { a: u64 = "a", b: f64 = "b", inner: InnerWider = "inner", note: Option<String> = "note", debug: Vec<u32> = "debug" });
record!(Versioned, version "v" = 7u32 { n: u64 = "n" });
record!(Holder {
    held: Versioned = "held"
});
tagged!(Shape, tag "t" {
    "dot" => Dot {},
    "line" => Line { len: u64 = "len", inner: Inner = "inner" },
});

fn base() -> Base {
    Base {
        a: u64::MAX,
        b: 0.5,
        inner: Inner { n: 1 },
        note: None,
        debug: vec![1, 2],
    }
}

/// What a description says apart from the shape's own name.
fn body<R: Record>() -> String {
    description::<R>().replacen(R::NAME, "", 1)
}

#[test]
fn fingerprint_sees_key_order_kind_and_nested_shape() {
    assert_eq!(
        description::<Base>(),
        "Base{a:u64,b:f64,inner:Inner{n:u64,},note:opt<String>,debug:vec<u32>,}"
    );
    let base = fingerprint(&body::<Base>());
    // The last three are what a scan for string literals in the
    // encoder's source could not see.
    for (what, other) in [
        ("renamed key", body::<Renamed>()),
        ("reordered members", body::<Reordered>()),
        ("changed kind", body::<Rekinded>()),
        ("changed nested shape", body::<Nested>()),
    ] {
        assert_ne!(fingerprint(&other), base, "{what}: {other}");
    }
    assert_eq!(fingerprint(&body::<Base>()), base, "and it is stable");
}

#[test]
fn a_versioned_shape_is_named_not_spelled_out_where_it_nests() {
    assert_eq!(description::<Versioned>(), "Versioned{#v,n:u64,}");
    assert_eq!(description::<Holder>(), "Holder{held:Versioned,}");
}

#[test]
fn records_write_wire_order_and_omit_none() {
    let mut b = base();
    assert_eq!(
        b.encode().to_json_string(),
        r#"{"a":18446744073709551615,"b":0.5,"inner":{"n":1},"debug":[1,2]}"#
    );
    b.note = Some("hi".into());
    assert_eq!(
        b.encode().to_json_string(),
        r#"{"a":18446744073709551615,"b":0.5,"inner":{"n":1},"note":"hi","debug":[1,2]}"#
    );
    assert_eq!(Base::decode(&b.encode()), Ok(b));
    assert_eq!(Base::KEYS, ["a", "b", "inner", "note", "debug"]);
}

#[test]
fn decode_errors_name_owner_key_and_cause() {
    let err = |text: &str| Base::decode(&json::parse(text).unwrap()).unwrap_err();
    assert_eq!(err(r#"{"b":1}"#), "Base is missing field 'a'");
    assert_eq!(
        err(r#"{"a":1.5}"#),
        "Base field 'a': expected an unsigned integer"
    );
    assert_eq!(
        err(r#"{"a":1,"b":2,"inner":{}}"#),
        "Base field 'inner': Inner is missing field 'n'"
    );
    assert_eq!(
        err(r#"{"a":1,"b":2,"inner":{"n":1},"note":3,"debug":[]}"#),
        "Base field 'note': expected a string"
    );
    assert_eq!(
        err(r#"{"a":1,"b":2,"inner":{"n":1},"debug":[4294967296]}"#),
        "Base field 'debug': expected an unsigned 32-bit integer"
    );
    assert_eq!(
        <[u64; 2]>::decode(&Json::Arr(vec![Json::UInt(1)])).unwrap_err(),
        "expected 2 items, found 1"
    );
}

#[test]
fn version_member_is_written_first_and_checked() {
    let v = Versioned { n: 4 };
    assert_eq!(v.encode().to_json_string(), r#"{"v":7,"n":4}"#);
    assert_eq!(Versioned::decode(&v.encode()), Ok(v));
    let old = json::parse(r#"{"v":6,"n":4}"#).unwrap();
    let err = Versioned::decode(&old).unwrap_err();
    assert!(
        err.starts_with("Versioned schema version 6 is not the supported 7"),
        "{err}"
    );
}

#[test]
fn tagged_enums_round_trip_by_tag() {
    assert_eq!(Shape::TAGS, ["dot", "line"]);
    let line = Shape::Line {
        len: 9,
        inner: Inner { n: 2 },
    };
    assert_eq!(
        line.encode().to_json_string(),
        r#"{"t":"line","len":9,"inner":{"n":2}}"#
    );
    assert_eq!(Shape::decode(&line.encode()), Ok(line));
    assert_eq!(Shape::Dot {}.encode().to_json_string(), r#"{"t":"dot"}"#);
    assert_eq!(Shape::decode(&Shape::Dot {}.encode()), Ok(Shape::Dot {}));
    let err = |text: &str| Shape::decode(&json::parse(text).unwrap()).unwrap_err();
    assert_eq!(err(r#"{"t":"arc"}"#), "unknown Shape tag 'arc'");
    assert_eq!(err(r#"{"len":1}"#), "Shape has no 't' tag");
    assert_eq!(err(r#"{"t":"line"}"#), "line is missing field 'len'");
    let mut kind = String::new();
    <Shape as Codec>::kind(&mut kind);
    assert_eq!(kind, "Shape{#t,dot{},line{len:u64,inner:Inner{n:u64,},},}");
}

//! Declared record shapes: one field table per shape.
//!
//! Everything that leaves a process as [`Json`] — a `SimReport`, a store
//! line, a fabric message — is declared once, as `field: Type = "key"`
//! lines in wire order ([`record!`](crate::record!) for structs,
//! [`tagged!`](crate::tagged!) for tagged enums). The declaration
//! generates the writer, the parser and the description that
//! [`fingerprint`] hashes, so the three cannot drift apart and "add a
//! field" is one line plus a version bump.
//!
//! [`Codec`] is the value ↔ [`Json`] mapping of the leaf kinds and of
//! declared records; [`Field`] adds what only an object member can do
//! (`Option<T>` is omitted when `None`).

use crate::json::Json;
use valley_cache::CacheStats;
use valley_core::hash::fnv1a;
use valley_core::SchemeKind;
use valley_dram::DramStats;

/// Object members in wire order.
pub type Members = Vec<(String, Json)>;

/// A value with one [`Json`] spelling.
pub trait Codec: Sized {
    /// Appends this type's kind to a shape description (see
    /// [`Record::describe`]).
    fn kind(out: &mut String);
    /// The value as [`Json`].
    fn encode(&self) -> Json;
    /// The inverse of [`encode`](Codec::encode); the error says what was
    /// expected when `v` has another type or holds an unknown name.
    fn decode(v: &Json) -> Result<Self, String>;
}

/// A member of a declared object: any [`Codec`], or an `Option` of one,
/// which is left out of the object when `None`.
pub trait Field: Sized {
    /// Appends this member's kind to a shape description.
    fn kind(out: &mut String);
    /// Appends the member under `key`.
    fn put(&self, key: &str, out: &mut Members);
    /// Reads the member `key` of `obj`. A missing or mistyped member is
    /// an error naming `owner` (the shape) and the key.
    fn take(obj: &Json, key: &str, owner: &str) -> Result<Self, String>;
}

impl<T: Codec> Field for T {
    fn kind(out: &mut String) {
        T::kind(out);
    }

    fn put(&self, key: &str, out: &mut Members) {
        out.push((key.to_string(), self.encode()));
    }

    fn take(obj: &Json, key: &str, owner: &str) -> Result<Self, String> {
        match <Option<T> as Field>::take(obj, key, owner)? {
            Some(value) => Ok(value),
            None => Err(format!("{owner} is missing field '{key}'")),
        }
    }
}

impl<T: Codec> Field for Option<T> {
    fn kind(out: &mut String) {
        out.push_str("opt<");
        T::kind(out);
        out.push('>');
    }

    fn put(&self, key: &str, out: &mut Members) {
        if let Some(value) = self {
            value.put(key, out);
        }
    }

    fn take(obj: &Json, key: &str, owner: &str) -> Result<Self, String> {
        obj.get(key)
            .map(|v| T::decode(v).map_err(|e| format!("{owner} field '{key}': {e}")))
            .transpose()
    }
}

/// A struct declared with [`record!`](crate::record!).
pub trait Record: Codec {
    /// The shape's name in errors and descriptions.
    const NAME: &'static str;
    /// Every member key, in wire order.
    const KEYS: &'static [&'static str];
    /// Appends the members in wire order.
    fn put_fields(&self, out: &mut Members);
    /// Reads the declared members of `obj`, ignoring any others; a
    /// declared version other than the supported one fails first.
    fn from_obj(obj: &Json) -> Result<Self, String>;
    /// Appends the canonical description of the table: keys, kinds and
    /// order, with nested shapes spelled out — except a nested shape
    /// that carries its own version, which is named only (its version
    /// gates it, and it has a fingerprint of its own).
    fn describe(out: &mut String);
}

/// The description of `R`'s table (see [`Record::describe`]).
pub fn description<R: Record>() -> String {
    let mut out = String::new();
    R::describe(&mut out);
    out
}

/// The 64-bit fingerprint of a shape description. It moves when a key
/// is renamed, two members swap places, a member changes kind or a
/// nested shape changes.
pub fn fingerprint(description: &str) -> u64 {
    fnv1a(description.as_bytes())
}

/// Fails, naming both versions, unless member `key` of `obj` is the
/// `supported` one: data written under another schema is never misparsed.
pub fn check_version(owner: &str, obj: &Json, key: &str, supported: u32) -> Result<(), String> {
    let found = <u64 as Field>::take(obj, key, owner)?;
    if found == u64::from(supported) {
        Ok(())
    } else {
        Err(format!(
            "{owner} schema version {found} is not the supported {supported}; \
             re-run the sweep to regenerate stored results"
        ))
    }
}

/// A leaf kind: the [`Json`] variant it is written as and the getter
/// that reads it back, both through the lossless std conversions (so a
/// `u32` travels as a `u64` and is range-checked on the way in).
macro_rules! leaf {
    ($ty:ty, $variant:ident, $getter:ident, $expected:literal) => {
        impl Codec for $ty {
            fn kind(out: &mut String) {
                out.push_str(stringify!($ty));
            }

            fn encode(&self) -> Json {
                let wide = self.clone().try_into();
                Json::$variant(wide.expect("no leaf kind is wider than its Json variant"))
            }

            fn decode(v: &Json) -> Result<Self, String> {
                let found = v.$getter().and_then(|x| x.try_into().ok());
                found.ok_or_else(|| concat!("expected ", $expected).to_string())
            }
        }
    };
}
leaf!(u64, UInt, as_u64, "an unsigned integer");
leaf!(u32, UInt, as_u64, "an unsigned 32-bit integer");
leaf!(usize, UInt, as_u64, "an unsigned integer that fits a usize");
leaf!(f64, Num, as_f64, "a number");
leaf!(bool, Bool, as_bool, "a boolean");
leaf!(String, Str, as_str, "a string");

impl<T: Codec> Codec for Vec<T> {
    fn kind(out: &mut String) {
        out.push_str("vec<");
        T::kind(out);
        out.push('>');
    }

    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(T::encode).collect())
    }

    fn decode(v: &Json) -> Result<Self, String> {
        v.as_arr()
            .ok_or("expected an array")?
            .iter()
            .map(T::decode)
            .collect()
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn kind(out: &mut String) {
        out.push('[');
        T::kind(out);
        out.push_str(&format!(";{N}]"));
    }

    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(T::encode).collect())
    }

    fn decode(v: &Json) -> Result<Self, String> {
        let items = Vec::<T>::decode(v)?;
        let found = items.len();
        items
            .try_into()
            .map_err(|_| format!("expected {N} items, found {found}"))
    }
}

/// Declares an enum that travels as one of its stable names:
/// `name_coded!(Type, to_name, from_name)`, with `value.to_name()` the
/// name and `from_name(&str) -> Option<Type>` its inverse.
#[macro_export]
macro_rules! name_coded {
    ($ty:ty, $name:ident, $parse:path) => {
        impl $crate::record::Codec for $ty {
            fn kind(out: &mut String) {
                out.push_str(stringify!($ty));
            }

            fn encode(&self) -> $crate::json::Json {
                $crate::json::Json::Str(self.$name().into())
            }

            fn decode(v: &$crate::json::Json) -> Result<Self, String> {
                let name = v.as_str().ok_or("expected a name")?;
                $parse(name).ok_or_else(|| format!("unknown {} '{name}'", stringify!($ty)))
            }
        }
    };
}

name_coded!(SchemeKind, label, SchemeKind::parse);

/// Declares a struct's record shape: `field: Type = "key"` lines in wire
/// order, optionally behind a constant version member. Implements
/// [`Record`] and [`Codec`].
///
/// ```
/// use valley_sim::record::{Codec, Record};
///
/// #[derive(Debug, PartialEq)]
/// struct Point {
///     x: u64,
///     label: Option<String>,
/// }
/// valley_sim::record!(Point { x: u64 = "x", label: Option<String> = "label" });
///
/// let p = Point { x: 3, label: None };
/// assert_eq!(p.encode().to_json_string(), r#"{"x":3}"#);
/// assert_eq!(Point::decode(&p.encode()), Ok(p));
/// assert_eq!(Point::KEYS, ["x", "label"]);
/// ```
#[macro_export]
macro_rules! record {
    (
        $name:ident $(, version $vkey:literal = $version:tt)? {
            $($field:ident : $ty:ty = $key:literal),* $(,)?
        }
    ) => {
        impl $crate::record::Record for $name {
            const NAME: &'static str = stringify!($name);
            const KEYS: &'static [&'static str] = &[$($vkey,)? $($key,)*];

            fn put_fields(&self, out: &mut $crate::record::Members) {
                $($crate::record::Field::put(&$version, $vkey, out);)?
                $($crate::record::Field::put(&self.$field, $key, out);)*
            }

            fn from_obj(obj: &$crate::json::Json) -> Result<Self, String> {
                $($crate::record::check_version(Self::NAME, obj, $vkey, $version)?;)?
                Ok($name {
                    $($field: $crate::record::Field::take(obj, $key, Self::NAME)?,)*
                })
            }

            fn describe(out: &mut String) {
                out.push_str(concat!(stringify!($name), "{"));
                $(out.push_str(concat!("#", $vkey, ","));)?
                $(
                    out.push_str(concat!($key, ":"));
                    <$ty as $crate::record::Field>::kind(out);
                    out.push(',');
                )*
                out.push('}');
            }
        }

        impl $crate::record::Codec for $name {
            fn kind(out: &mut String) {
                let versioned = false $(|| !$vkey.is_empty())?;
                if versioned {
                    out.push_str(stringify!($name));
                } else {
                    <Self as $crate::record::Record>::describe(out);
                }
            }

            fn encode(&self) -> $crate::json::Json {
                let keys = <Self as $crate::record::Record>::KEYS.len();
                let mut out = $crate::record::Members::with_capacity(keys);
                $crate::record::Record::put_fields(self, &mut out);
                $crate::json::Json::Obj(out)
            }

            fn decode(v: &$crate::json::Json) -> Result<Self, String> {
                <Self as $crate::record::Record>::from_obj(v)
            }
        }
    };
}

/// Declares a tagged enum's wire shape as a tag → variant → fields
/// table: every variant is an object whose first member, under the tag
/// key, is the variant's tag, followed by its fields as in
/// [`record!`](crate::record!). Implements [`Codec`] and a `TAGS`
/// constant listing every tag in declaration order.
#[macro_export]
macro_rules! tagged {
    (
        $name:ident, tag $tkey:literal {
            $($tag:literal => $variant:ident {
                $($field:ident : $ty:ty = $key:literal),* $(,)?
            }),* $(,)?
        }
    ) => {
        impl $name {
            /// Every variant's tag, in declaration order.
            pub const TAGS: &'static [&'static str] = &[$($tag),*];
        }

        impl $crate::record::Codec for $name {
            fn kind(out: &mut String) {
                out.push_str(concat!(stringify!($name), "{#", $tkey, ","));
                $(
                    out.push_str(concat!($tag, "{"));
                    $(
                        out.push_str(concat!($key, ":"));
                        <$ty as $crate::record::Field>::kind(out);
                        out.push(',');
                    )*
                    out.push_str("},");
                )*
                out.push('}');
            }

            fn encode(&self) -> $crate::json::Json {
                let mut out = $crate::record::Members::new();
                match self {
                    $($name::$variant { $($field),* } => {
                        out.push(($tkey.to_string(), $crate::json::Json::Str($tag.to_string())));
                        $($crate::record::Field::put($field, $key, &mut out);)*
                    })*
                }
                $crate::json::Json::Obj(out)
            }

            fn decode(v: &$crate::json::Json) -> Result<Self, String> {
                let tag = v.get($tkey).and_then($crate::json::Json::as_str);
                match tag.ok_or(concat!(stringify!($name), " has no '", $tkey, "' tag"))? {
                    $($tag => Ok($name::$variant {
                        $($field: $crate::record::Field::take(v, $key, $tag)?,)*
                    }),)*
                    other => Err(format!(
                        "unknown {} tag '{other}'",
                        stringify!($name)
                    )),
                }
            }
        }
    };
}

record!(CacheStats {
    hits: u64 = "hits",
    misses: u64 = "misses",
    evictions: u64 = "evictions",
});

record!(DramStats {
    activates: u64 = "activates",
    reads: u64 = "reads",
    writes: u64 = "writes",
    row_hits: u64 = "row_hits",
    row_empties: u64 = "row_empties",
    row_conflicts: u64 = "row_conflicts",
});

//! The declarative codec between typed records and the [`Json`] tree.
//!
//! [`ToJson`] and [`FromJson`] cover the leaves (integers, strings,
//! booleans, floats, addresses, words, PE ids) and the containers
//! (`Vec`, `Option` as `null`, fixed arrays, pairs). A record states its
//! fields once, in [`json_record!`](crate::json_record), which derives
//! both directions from that one list; [`json_enum!`](crate::json_enum)
//! does the same for enums stored as kind-tagged objects
//! (`{"kind": "read", ...}`).
//!
//! Decoding reports the first failure as a [`DecodeError`] naming its
//! field path, e.g. `queues[1].pending[0].addr: not an integer`. The
//! path is assembled while the error propagates, so a successful decode
//! builds no error text at all.

use crate::json::Json;
use decache_mem::{Addr, PeId, Word};
use std::borrow::Cow;
use std::fmt;

/// Encodes a value as a [`Json`] tree.
pub trait ToJson {
    /// The value's JSON form.
    fn to_json(&self) -> Json;
}

/// Decodes a value from a [`Json`] tree.
pub trait FromJson: Sized {
    /// Decodes `value`. `absent` says whether fields a record marks
    /// `or_zero` may be missing.
    ///
    /// # Errors
    ///
    /// Returns the first missing, mistyped or out-of-range field.
    fn from_json(value: &Json, absent: Absent) -> Result<Self, DecodeError>;
}

/// What a decode makes of a missing field marked `or_zero`. Every
/// other field is always required.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Absent {
    /// Missing is an error: checkpoints, whose every field is required.
    Required,
    /// Missing reads as zero: metrics snapshots, whose schema 1 was
    /// first written before those counters existed.
    Zero,
}

/// One step of a field path.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Step {
    Key(&'static str),
    Index(usize),
}

/// A decode failure and the field path it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Innermost step first: each enclosing decoder appends its own.
    path: Vec<Step>,
    message: Cow<'static, str>,
}

impl DecodeError {
    /// A failure of the value being decoded itself.
    pub fn new(message: impl Into<Cow<'static, str>>) -> Self {
        DecodeError {
            path: Vec::new(),
            message: message.into(),
        }
    }

    /// The same failure, seen from the object holding it under `key`.
    #[must_use]
    pub fn at(mut self, key: &'static str) -> Self {
        self.path.push(Step::Key(key));
        self
    }

    /// The same failure, seen from the array holding it at `index`.
    #[must_use]
    pub fn index(mut self, index: usize) -> Self {
        self.path.push(Step::Index(index));
        self
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.path.iter().rev().enumerate() {
            match step {
                Step::Key(key) if i == 0 => f.write_str(key)?,
                Step::Key(key) => write!(f, ".{key}")?,
                Step::Index(index) => write!(f, "[{index}]")?,
            }
        }
        if !self.path.is_empty() {
            f.write_str(": ")?;
        }
        f.write_str(&self.message)
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for String {
    fn from(e: DecodeError) -> String {
        e.to_string()
    }
}

/// The members of an object.
///
/// # Errors
///
/// Fails if `value` is not an object.
pub fn object(value: &Json) -> Result<&[(String, Json)], DecodeError> {
    match value {
        Json::Object(fields) => Ok(fields),
        _ => Err(DecodeError::new("not an object")),
    }
}

fn array(value: &Json) -> Result<&[Json], DecodeError> {
    value
        .as_array()
        .ok_or_else(|| DecodeError::new("not an array"))
}

fn lookup<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn missing(key: &'static str) -> DecodeError {
    DecodeError::new("missing").at(key)
}

/// Decodes the required member `key` with `decode`.
#[doc(hidden)]
pub fn decode_with<'a, T>(
    obj: &'a [(String, Json)],
    key: &'static str,
    decode: impl FnOnce(&'a Json) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    let value = lookup(obj, key).ok_or_else(|| missing(key))?;
    decode(value).map_err(|e| e.at(key))
}

/// Decodes the required member `key`.
#[doc(hidden)]
pub fn decode_field<T: FromJson>(
    obj: &[(String, Json)],
    key: &'static str,
    absent: Absent,
) -> Result<T, DecodeError> {
    decode_with(obj, key, |v| T::from_json(v, absent))
}

/// Decodes the member `key`, reading zero when it is missing under
/// [`Absent::Zero`].
#[doc(hidden)]
pub fn decode_or_zero<T: FromJson + Default>(
    obj: &[(String, Json)],
    key: &'static str,
    absent: Absent,
) -> Result<T, DecodeError> {
    match lookup(obj, key) {
        Some(value) => T::from_json(value, absent).map_err(|e| e.at(key)),
        None if absent == Absent::Zero => Ok(T::default()),
        None => Err(missing(key)),
    }
}

/// Decodes the member `key` when present; a missing one is `None`.
#[doc(hidden)]
pub fn decode_if_some<T: FromJson>(
    obj: &[(String, Json)],
    key: &'static str,
    absent: Absent,
) -> Result<Option<T>, DecodeError> {
    lookup(obj, key)
        .map(|value| T::from_json(value, absent).map_err(|e| e.at(key)))
        .transpose()
}

/// The tag of a kind-tagged object.
#[doc(hidden)]
pub fn decode_kind(obj: &[(String, Json)]) -> Result<&str, DecodeError> {
    decode_with(obj, "kind", |v| {
        v.as_str().ok_or_else(|| DecodeError::new("not a string"))
    })
}

/// The error for a kind tag no variant carries.
#[doc(hidden)]
pub fn unknown_kind(kind: &str) -> DecodeError {
    DecodeError::new(format!("unknown kind '{kind}'")).at("kind")
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::U64(*self)
    }
}

impl FromJson for u64 {
    fn from_json(value: &Json, _: Absent) -> Result<Self, DecodeError> {
        value
            .as_u64()
            .ok_or_else(|| DecodeError::new("not an integer"))
    }
}

impl ToJson for u32 {
    fn to_json(&self) -> Json {
        Json::U64(u64::from(*self))
    }
}

impl FromJson for u32 {
    fn from_json(value: &Json, absent: Absent) -> Result<Self, DecodeError> {
        let raw = u64::from_json(value, absent)?;
        u32::try_from(raw).map_err(|_| DecodeError::new(format!("{raw} overflows a u32")))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Json, _: Absent) -> Result<Self, DecodeError> {
        match value {
            Json::Bool(b) => Ok(*b),
            _ => Err(DecodeError::new("not a boolean")),
        }
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &Json, _: Absent) -> Result<Self, DecodeError> {
        value
            .as_f64()
            .ok_or_else(|| DecodeError::new("not a number"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(value: &Json, _: Absent) -> Result<Self, DecodeError> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| DecodeError::new("not a string"))
    }
}

impl ToJson for Addr {
    fn to_json(&self) -> Json {
        Json::U64(self.index())
    }
}

impl FromJson for Addr {
    fn from_json(value: &Json, absent: Absent) -> Result<Self, DecodeError> {
        u64::from_json(value, absent).map(Addr::new)
    }
}

impl ToJson for Word {
    fn to_json(&self) -> Json {
        Json::U64(self.value())
    }
}

impl FromJson for Word {
    fn from_json(value: &Json, absent: Absent) -> Result<Self, DecodeError> {
        u64::from_json(value, absent).map(Word::new)
    }
}

impl ToJson for PeId {
    fn to_json(&self) -> Json {
        Json::U64(self.index() as u64)
    }
}

impl FromJson for PeId {
    fn from_json(value: &Json, absent: Absent) -> Result<Self, DecodeError> {
        let raw = u64::from_json(value, absent)?;
        u16::try_from(raw)
            .map(PeId::new)
            .map_err(|_| DecodeError::new(format!("{raw} overflows a PE id")))
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json, absent: Absent) -> Result<Self, DecodeError> {
        let items = array(value)?;
        let mut out = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            out.push(T::from_json(item, absent).map_err(|e| e.index(i))?);
        }
        Ok(out)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json, absent: Absent) -> Result<Self, DecodeError> {
        match value {
            Json::Null => Ok(None),
            _ => T::from_json(value, absent).map(Some),
        }
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + Default + Copy, const N: usize> FromJson for [T; N] {
    fn from_json(value: &Json, absent: Absent) -> Result<Self, DecodeError> {
        let items = array(value)?;
        if items.len() != N {
            return Err(DecodeError::new(format!(
                "has {} elements, expected {N}",
                items.len()
            )));
        }
        let mut out = [T::default(); N];
        for (i, (slot, item)) in out.iter_mut().zip(items).enumerate() {
            *slot = T::from_json(item, absent).map_err(|e| e.index(i))?;
        }
        Ok(out)
    }
}

/// A pair is a two-element array.
impl<T: ToJson, U: ToJson> ToJson for (T, U) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<T: FromJson, U: FromJson> FromJson for (T, U) {
    fn from_json(value: &Json, absent: Absent) -> Result<Self, DecodeError> {
        match array(value)? {
            [a, b] => Ok((
                T::from_json(a, absent).map_err(|e| e.index(0))?,
                U::from_json(b, absent).map_err(|e| e.index(1))?,
            )),
            items => Err(DecodeError::new(format!(
                "has {} elements, expected 2",
                items.len()
            ))),
        }
    }
}

/// Encodes `(a, b)` pairs as two-member objects under `keys`, for a
/// `with` entry (a bare pair is a two-element array).
pub fn pairs_to_json<A: ToJson, B: ToJson>(pairs: &[(A, B)], keys: [&str; 2]) -> Json {
    Json::Array(
        pairs
            .iter()
            .map(|(a, b)| Json::object(vec![(keys[0], a.to_json()), (keys[1], b.to_json())]))
            .collect(),
    )
}

/// Decodes the pairs [`pairs_to_json`] encodes.
///
/// # Errors
///
/// Fails on the first element that is not an object holding both keys
/// with values of the right types.
pub fn pairs_from_json<A: FromJson, B: FromJson>(
    value: &Json,
    keys: [&'static str; 2],
) -> Result<Vec<(A, B)>, DecodeError> {
    let items = array(value)?;
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let pair = object(item).and_then(|obj| {
            Ok((
                decode_field(obj, keys[0], Absent::Required)?,
                decode_field(obj, keys[1], Absent::Required)?,
            ))
        });
        out.push(pair.map_err(|e| e.index(i))?);
    }
    Ok(out)
}

/// Implements [`ToJson`] and [`FromJson`] for a struct from one list of
/// its fields, each stored under its own name in an object, in list
/// order.
///
/// An entry is a field name, optionally followed by one attribute:
///
/// - `field as "key"` stores the field under another key;
/// - `field: or_zero` lets a decode under [`Absent::Zero`] read a
///   missing member as zero;
/// - `field: if_some` leaves a `None` out of the object, and reads a
///   missing member as `None`;
/// - `field: with(encode, decode)` stores the field through a
///   hand-written leaf: `encode(&value) -> Json` and
///   `decode(&Json) -> Result<value, DecodeError>`.
///
/// A `const "key": with(encode, check)` entry stores a member with no
/// field behind it: `encode() -> Json` writes it and
/// `check(&Json) -> Result<(), DecodeError>` validates it.
///
/// # Examples
///
/// ```
/// use decache_telemetry::{json_record, Absent, FromJson, Json, ToJson};
///
/// #[derive(Debug, PartialEq)]
/// struct Point {
///     x: u64,
///     y: u64,
///     label: Option<String>,
/// }
/// json_record!(Point { x, y: or_zero, label: if_some });
///
/// let p = Point { x: 1, y: 2, label: None };
/// assert_eq!(p.to_json().to_string(), r#"{"x":1,"y":2}"#);
/// let legacy = Json::parse(r#"{"x":1}"#).unwrap();
/// let back = Point::from_json(&legacy, Absent::Zero).unwrap();
/// assert_eq!(back, Point { x: 1, y: 0, label: None });
/// let err = Point::from_json(&legacy, Absent::Required).unwrap_err();
/// assert_eq!(err.to_string(), "y: missing");
/// ```
#[macro_export]
macro_rules! json_record {
    ($ty:ty { $($body:tt)* }) => {
        $crate::json_record!(@munch [$ty] [] [] $($body)*);
    };

    // Normalize each entry to `[mode field, key, ...]`, collecting the
    // struct's fields on the side.
    (@munch [$ty:ty] [$($e:tt)*] [$($f:ident)*] $(,)?) => {
        $crate::json_record!(@impl [$ty] [$($e)*] [$($f)*]);
    };
    (@munch [$ty:ty] [$($e:tt)*] [$($f:ident)*]
        const $key:literal: with($enc:expr, $dec:expr) $(, $($rest:tt)*)?) => {
        $crate::json_record!(@munch [$ty] [$($e)* [konst $key, $enc, $dec]] [$($f)*]
            $($($rest)*)?);
    };
    (@munch [$ty:ty] [$($e:tt)*] [$($f:ident)*]
        $name:ident as $key:literal $(, $($rest:tt)*)?) => {
        $crate::json_record!(@munch [$ty] [$($e)* [plain $name, $key]] [$($f)* $name]
            $($($rest)*)?);
    };
    (@munch [$ty:ty] [$($e:tt)*] [$($f:ident)*]
        $name:ident: or_zero $(, $($rest:tt)*)?) => {
        $crate::json_record!(@munch [$ty] [$($e)* [or_zero $name, stringify!($name)]]
            [$($f)* $name] $($($rest)*)?);
    };
    (@munch [$ty:ty] [$($e:tt)*] [$($f:ident)*]
        $name:ident: if_some $(, $($rest:tt)*)?) => {
        $crate::json_record!(@munch [$ty] [$($e)* [if_some $name, stringify!($name)]]
            [$($f)* $name] $($($rest)*)?);
    };
    (@munch [$ty:ty] [$($e:tt)*] [$($f:ident)*]
        $name:ident: with($enc:expr, $dec:expr) $(, $($rest:tt)*)?) => {
        $crate::json_record!(@munch [$ty]
            [$($e)* [with $name, stringify!($name), $enc, $dec]] [$($f)* $name]
            $($($rest)*)?);
    };
    (@munch [$ty:ty] [$($e:tt)*] [$($f:ident)*] $name:ident $(, $($rest:tt)*)?) => {
        $crate::json_record!(@munch [$ty] [$($e)* [plain $name, stringify!($name)]]
            [$($f)* $name] $($($rest)*)?);
    };

    (@impl [$ty:ty] [$($e:tt)*] [$($f:ident)*]) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                let mut fields =
                    ::std::vec::Vec::with_capacity(<[()]>::len(&[$($crate::json_record!(@unit $e)),*]));
                $($crate::json_record!(@enc self fields $e);)*
                $crate::Json::Object(fields)
            }
        }
        impl $crate::FromJson for $ty {
            // A record of `with` and `const` entries only never reads it.
            #[allow(unused_variables)]
            fn from_json(
                value: &$crate::Json,
                absent: $crate::Absent,
            ) -> ::std::result::Result<Self, $crate::DecodeError> {
                let obj = $crate::codec::object(value)?;
                $($crate::json_record!(@dec obj absent $e);)*
                ::std::result::Result::Ok(Self { $($f),* })
            }
        }
    };
    (@unit $e:tt) => { () };

    (@enc $this:ident $out:ident [konst $key:expr, $enc:expr, $dec:expr]) => {
        $out.push((::std::string::String::from($key), ($enc)()));
    };
    (@enc $this:ident $out:ident [if_some $name:ident, $key:expr]) => {
        if let ::std::option::Option::Some(v) = &$this.$name {
            $out.push((::std::string::String::from($key), $crate::ToJson::to_json(v)));
        }
    };
    (@enc $this:ident $out:ident [with $name:ident, $key:expr, $enc:expr, $dec:expr]) => {
        $out.push((::std::string::String::from($key), ($enc)(&$this.$name)));
    };
    (@enc $this:ident $out:ident [$mode:ident $name:ident, $key:expr]) => {
        $out.push((
            ::std::string::String::from($key),
            $crate::ToJson::to_json(&$this.$name),
        ));
    };

    (@dec $obj:ident $absent:ident [konst $key:expr, $enc:expr, $dec:expr]) => {
        $crate::codec::decode_with($obj, $key, $dec)?;
    };
    (@dec $obj:ident $absent:ident [plain $name:ident, $key:expr]) => {
        let $name = $crate::codec::decode_field($obj, $key, $absent)?;
    };
    (@dec $obj:ident $absent:ident [or_zero $name:ident, $key:expr]) => {
        let $name = $crate::codec::decode_or_zero($obj, $key, $absent)?;
    };
    (@dec $obj:ident $absent:ident [if_some $name:ident, $key:expr]) => {
        let $name = $crate::codec::decode_if_some($obj, $key, $absent)?;
    };
    (@dec $obj:ident $absent:ident [with $name:ident, $key:expr, $enc:expr, $dec:expr]) => {
        let $name = $crate::codec::decode_with($obj, $key, $dec)?;
    };
}

/// Implements [`ToJson`] and [`FromJson`] for an enum stored as a
/// kind-tagged object: `"tag" => Variant` for a unit variant,
/// `"tag" => Variant(key)` for a one-field tuple variant (its field is
/// stored under `key`), and `"tag" => Variant { a, b as "key" }` for a
/// struct variant (fields as in [`json_record!`](crate::json_record)'s
/// plain and renamed entries).
///
/// # Examples
///
/// ```
/// use decache_telemetry::{json_enum, Absent, FromJson, Json, ToJson};
///
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Dot,
///     Circle(u64),
///     Rect { w: u64, h: u64 },
/// }
/// json_enum!(Shape {
///     "dot" => Dot,
///     "circle" => Circle(radius),
///     "rect" => Rect { w, h as "height" },
/// });
///
/// let rect = Shape::Rect { w: 2, h: 3 };
/// let json = rect.to_json();
/// assert_eq!(json.to_string(), r#"{"kind":"rect","w":2,"height":3}"#);
/// assert_eq!(Shape::from_json(&json, Absent::Required).unwrap(), rect);
/// let bad = Json::parse(r#"{"kind":"circle","radius":"x"}"#).unwrap();
/// let err = Shape::from_json(&bad, Absent::Required).unwrap_err();
/// assert_eq!(err.to_string(), "radius: not an integer");
/// ```
#[macro_export]
macro_rules! json_enum {
    ($ty:ty {
        $($tag:literal => $variant:ident
            $(($inner:ident))?
            $({ $($name:ident $(as $key:literal)?),* $(,)? })?),* $(,)?
    }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                match self {
                    $(Self::$variant $(($inner))? $({ $($name),* })? => $crate::Json::Object(vec![
                        (
                            ::std::string::String::from("kind"),
                            $crate::Json::Str(::std::string::String::from($tag)),
                        ),
                        $((
                            ::std::string::String::from(stringify!($inner)),
                            $crate::ToJson::to_json($inner),
                        ),)?
                        $($((
                            ::std::string::String::from($crate::json_enum!(@key $name $(as $key)?)),
                            $crate::ToJson::to_json($name),
                        ),)*)?
                    ]),)*
                }
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(
                value: &$crate::Json,
                absent: $crate::Absent,
            ) -> ::std::result::Result<Self, $crate::DecodeError> {
                let obj = $crate::codec::object(value)?;
                match $crate::codec::decode_kind(obj)? {
                    $($tag => {
                        $(let $inner = $crate::codec::decode_field(obj, stringify!($inner), absent)?;)?
                        $($(let $name = $crate::codec::decode_field(
                            obj,
                            $crate::json_enum!(@key $name $(as $key)?),
                            absent,
                        )?;)*)?
                        ::std::result::Result::Ok(Self::$variant $(($inner))? $({ $($name),* })?)
                    })*
                    other => ::std::result::Result::Err($crate::codec::unknown_kind(other)),
                }
            }
        }
    };
    (@key $name:ident) => { stringify!($name) };
    (@key $name:ident as $key:literal) => { $key };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode<T: FromJson>(text: &str) -> Result<T, String> {
        T::from_json(&Json::parse(text).unwrap(), Absent::Required).map_err(|e| e.to_string())
    }

    #[test]
    fn leaves_round_trip() {
        assert_eq!(decode::<u64>("7"), Ok(7));
        assert_eq!(
            decode::<u32>("4294967296"),
            Err("4294967296 overflows a u32".into())
        );
        assert_eq!(decode::<PeId>("65535"), Ok(PeId::new(65535)));
        assert_eq!(
            decode::<PeId>("65536"),
            Err("65536 overflows a PE id".into())
        );
        assert_eq!(decode::<f64>("1"), Ok(1.0));
        assert_eq!(decode::<bool>("1"), Err("not a boolean".into()));
        assert_eq!(decode::<Option<u64>>("null"), Ok(None));
        assert_eq!(decode::<(u64, u64)>("[1,2]"), Ok((1, 2)));
        assert_eq!(Some(Word::new(3)).to_json().to_string(), "3");
        assert_eq!((Addr::new(4), true).to_json().to_string(), "[4,true]");
    }

    #[test]
    fn container_errors_name_the_index() {
        assert_eq!(
            decode::<Vec<[u64; 2]>>("[[1,2],[3]]"),
            Err("[1]: has 1 elements, expected 2".into())
        );
        assert_eq!(
            decode::<Vec<(u64, u64)>>("[[1,2],[3,\"x\"]]"),
            Err("[1][1]: not an integer".into())
        );
    }

    #[derive(Debug, Clone, PartialEq, Default)]
    struct Inner {
        addr: Addr,
        count: u64,
    }
    json_record!(Inner {
        addr,
        count: or_zero
    });

    #[derive(Debug, Clone, PartialEq)]
    struct Outer {
        queues: Vec<Vec<Inner>>,
        pe: PeId,
    }
    json_record!(Outer {
        const "version": with(|| Json::U64(1), |_: &Json| Ok(())),
        queues,
        pe as "initiator",
    });

    #[test]
    fn records_round_trip_and_errors_name_the_path() {
        let outer = Outer {
            queues: vec![vec![Inner::default()], vec![Inner::default(); 2]],
            pe: PeId::new(3),
        };
        let text = outer.to_json().to_string();
        assert_eq!(
            text,
            r#"{"version":1,"queues":[[{"addr":0,"count":0}],[{"addr":0,"count":0},{"addr":0,"count":0}]],"initiator":3}"#
        );
        assert_eq!(decode::<Outer>(&text), Ok(outer));
        let bad = text.replacen(
            r#"{"addr":0,"count":0}]]"#,
            r#"{"addr":"x","count":0}]]"#,
            1,
        );
        assert_eq!(
            decode::<Outer>(&bad),
            Err("queues[1][1].addr: not an integer".into())
        );
        let legacy = text.replace(r#","count":0"#, "");
        assert_eq!(
            decode::<Outer>(&legacy),
            Err("queues[0][0].count: missing".into())
        );
        let back = Outer::from_json(&Json::parse(&legacy).unwrap(), Absent::Zero);
        assert_eq!(back.map(|o| o.queues.len()), Ok(2));
        assert_eq!(decode::<Outer>("[]"), Err("not an object".into()));
        assert_eq!(decode::<Outer>("{}"), Err("version: missing".into()));
    }
}

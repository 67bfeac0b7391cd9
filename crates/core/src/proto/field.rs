//! Field layouts and the table macros that compose them.
//!
//! [`Field`] says how one type is written, read back (with its
//! decode-time validation) and sized; it is implemented once per type.
//! [`wire_enum!`] and [`wire_struct!`] turn a declaration that lists
//! each variant's tag and typed fields into the type itself plus its
//! `Field` impl, so a message's layout is spelled in exactly one place.

use crate::model::{Hlc, LocationDescriptor, ObjectId, RangeQuery, RegInfo, Sighting};
use hiloc_geo::{Point, Rect, Region};
use hiloc_net::wire;
use hiloc_net::{CorrId, Endpoint, ServerId};

/// Maximum number of items accepted per list.
const MAX_ITEMS: u32 = 1_000_000;

/// One type's wire layout.
pub(crate) trait Field: Sized {
    /// The encoded size when every value has the same one; a list of
    /// such values sizes itself in O(1).
    const SIZE: Option<usize> = None;

    /// Appends the encoding to `buf`.
    fn put(&self, buf: &mut Vec<u8>);

    /// Decodes one value, advancing `buf` past it. `None` on truncated,
    /// malformed or semantically invalid input.
    fn get(buf: &mut &[u8]) -> Option<Self>;

    /// The exact number of bytes [`Field::put`] appends.
    fn len(&self) -> usize;
}

/// `a + b` when both sizes are fixed.
pub(crate) const fn fixed_sum(a: Option<usize>, b: Option<usize>) -> Option<usize> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a + b),
        _ => None,
    }
}

/// Decode-time check of an accuracy: finite and non-negative.
pub(crate) fn accuracy(v: &f64) -> bool {
    *v >= 0.0 && v.is_finite()
}

/// Decode-time check of a range query's `reqOverlap`: in (0, 1].
fn overlap(v: &f64) -> bool {
    *v > 0.0 && *v <= 1.0
}

/// `Field` for fixed-size types from a put/get pair.
macro_rules! fixed_field {
    ($($ty:ty = $size:expr; |$b:ident, $v:ident| $put:expr; |$g:ident| $get:expr;)*) => {$(
        impl Field for $ty {
            const SIZE: Option<usize> = Some($size);
            fn put(&self, $b: &mut Vec<u8>) {
                let $v = self;
                $put
            }
            fn get($g: &mut &[u8]) -> Option<Self> {
                $get
            }
            fn len(&self) -> usize {
                $size
            }
        }
    )*};
}

fixed_field! {
    f64 = 8; |b, v| wire::put_f64(b, *v); |b| wire::get_f64(b);
    u64 = 8; |b, v| wire::put_u64(b, *v); |b| wire::get_u64(b);
    u32 = 4; |b, v| wire::put_u32(b, *v); |b| wire::get_u32(b);
    bool = 1; |b, v| wire::put_bool(b, *v); |b| wire::get_bool(b);
    ObjectId = 8; |b, v| wire::put_u64(b, v.0); |b| wire::get_u64(b).map(ObjectId);
    ServerId = 4; |b, v| wire::put_u32(b, v.0); |b| wire::get_u32(b).map(ServerId);
    CorrId = 8; |b, v| wire::put_u64(b, v.0); |b| wire::get_u64(b).map(CorrId);
    Hlc = 8; |b, v| wire::put_u64(b, v.0); |b| wire::get_u64(b).map(Hlc);
    Endpoint = wire::ENDPOINT_LEN; |b, v| wire::put_endpoint(b, *v); |b| wire::get_endpoint(b);
    Point = 16; |b, v| wire::put_point(b, *v); |b| wire::get_point(b);
    Rect = 32; |b, v| wire::put_rect(b, v); |b| wire::get_rect(b);
}

impl Field for Region {
    fn put(&self, buf: &mut Vec<u8>) {
        wire::put_region(buf, self);
    }
    fn get(buf: &mut &[u8]) -> Option<Self> {
        wire::get_region(buf)
    }
    fn len(&self) -> usize {
        wire::region_encoded_len(self)
    }
}

/// Tag byte 0 for `None`, 1 followed by the value for `Some`.
impl<T: Field> Field for Option<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            None => wire::put_u8(buf, 0),
            Some(v) => {
                wire::put_u8(buf, 1);
                v.put(buf);
            }
        }
    }
    fn get(buf: &mut &[u8]) -> Option<Self> {
        match wire::get_u8(buf)? {
            0 => Some(None),
            1 => Some(Some(T::get(buf)?)),
            _ => None,
        }
    }
    fn len(&self) -> usize {
        1 + self.as_ref().map_or(0, Field::len)
    }
}

/// A `u32` count, at most [`MAX_ITEMS`], followed by the items.
impl<T: Field> Field for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        wire::put_vec(buf, self, |b, v| v.put(b));
    }
    fn get(buf: &mut &[u8]) -> Option<Self> {
        wire::get_vec(buf, MAX_ITEMS, T::get)
    }
    // lint:hot_path
    fn len(&self) -> usize {
        4 + match T::SIZE {
            Some(n) => n * self.as_slice().len(),
            None => self.iter().map(Field::len).sum::<usize>(),
        }
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    const SIZE: Option<usize> = fixed_sum(A::SIZE, B::SIZE);
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
    }
    fn get(buf: &mut &[u8]) -> Option<Self> {
        Some((A::get(buf)?, B::get(buf)?))
    }
    fn len(&self) -> usize {
        Field::len(&self.0) + Field::len(&self.1)
    }
}

/// The registration bounds are checked as a whole ([`RegInfo::is_valid`]).
impl Field for RegInfo {
    const SIZE: Option<usize> = Some(wire::ENDPOINT_LEN + 3 * 8);
    fn put(&self, buf: &mut Vec<u8>) {
        self.registrant.put(buf);
        self.des_acc_m.put(buf);
        self.min_acc_m.put(buf);
        self.max_speed_mps.put(buf);
    }
    fn get(buf: &mut &[u8]) -> Option<Self> {
        let reg = RegInfo {
            registrant: Field::get(buf)?,
            des_acc_m: Field::get(buf)?,
            min_acc_m: Field::get(buf)?,
            max_speed_mps: Field::get(buf)?,
        };
        reg.is_valid().then_some(reg)
    }
    fn len(&self) -> usize {
        wire::ENDPOINT_LEN + 3 * 8
    }
}

/// Declares a struct whose wire layout is its fields in order (or, in
/// the `impl` form, only gives an existing struct that layout). A field
/// may name a check, `field: Type where check`, that decode applies to
/// the decoded value.
macro_rules! wire_struct {
    (impl $name:ident { $($f:ident: $ty:ty $(where $check:path)?),* $(,)? }) => {
        impl $crate::proto::Field for $name {
            const SIZE: Option<usize> = {
                let size = Some(0);
                $(let size = $crate::proto::fixed_sum(size, <$ty as $crate::proto::Field>::SIZE);)*
                size
            };
            fn put(&self, buf: &mut Vec<u8>) {
                $($crate::proto::Field::put(&self.$f, buf);)*
            }
            fn get(buf: &mut &[u8]) -> Option<Self> {
                $(
                    let $f = <$ty as $crate::proto::Field>::get(buf)?;
                    $(if !$check(&$f) {
                        return None;
                    })?
                )*
                Some($name { $($f),* })
            }
            fn len(&self) -> usize {
                0 $(+ $crate::proto::Field::len(&self.$f))*
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $f:ident: $ty:ty $(where $check:path)?),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $f: $ty,)*
        }
        $crate::proto::wire_struct!(impl $name { $($f: $ty $(where $check)?),* });
    };
}

/// Declares an enum whose wire layout is a tag byte followed by the
/// variant's fields in order. Each variant reads `Name = tag { fields }`,
/// or `Name = tag, "label" { fields }` when every variant carries a
/// label: then the enum also gets `label()` and, in tests, the
/// `VARIANTS` list of `(tag, label)` pairs.
macro_rules! wire_enum {
    (@labels $name:ident $($v:ident = $tag:literal, $label:literal;)*) => {
        impl $name {
            /// A short static label for tracing (message kind).
            pub fn label(&self) -> &'static str {
                match self {
                    $($name::$v { .. } => $label,)*
                }
            }

            /// Every variant's `(tag, label)`, in declaration order.
            #[cfg(test)]
            const VARIANTS: &'static [(u8, &'static str)] = &[$(($tag, $label)),*];
        }
    };
    (@labels $name:ident $($v:ident = $tag:literal;)*) => {};
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $v:ident = $tag:literal $(, $label:literal)? {
                    $($(#[$fmeta:meta])* $f:ident: $ty:ty $(where $check:path)?),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $v {
                    $($(#[$fmeta])* $f: $ty,)*
                },
            )*
        }

        impl $crate::proto::Field for $name {
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $($name::$v { $($f),* } => {
                        ::hiloc_net::wire::put_u8(buf, $tag);
                        $($crate::proto::Field::put($f, buf);)*
                    })*
                }
            }
            fn get(buf: &mut &[u8]) -> Option<Self> {
                Some(match ::hiloc_net::wire::get_u8(buf)? {
                    $($tag => {
                        $(
                            let $f = <$ty as $crate::proto::Field>::get(buf)?;
                            $(if !$check(&$f) {
                                return None;
                            })?
                        )*
                        $name::$v { $($f),* }
                    })*
                    _ => return None,
                })
            }
            // lint:hot_path
            fn len(&self) -> usize {
                1 + match self {
                    $($name::$v { $($f),* } => 0 $(+ $crate::proto::Field::len($f))*,)*
                }
            }
        }

        $crate::proto::wire_enum!(@labels $name $($v = $tag $(, $label)?;)*);
    };
}

pub(crate) use {wire_enum, wire_struct};

wire_struct! {
    impl Sighting { oid: ObjectId, time_us: u64, pos: Point, acc_sens_m: f64 where accuracy }
}
wire_struct! {
    impl LocationDescriptor { pos: Point, acc_m: f64 where accuracy }
}
wire_struct! {
    impl RangeQuery { area: Region, req_acc_m: f64 where accuracy, req_overlap: f64 where overlap }
}

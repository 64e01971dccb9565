//! One field list per wire record.
//!
//! A record — a struct whose wire form is an object of its fields, each
//! under its own name — is described once, by the list of its fields
//! that [`wire!`](crate::wire!) turns into a [`Wire`] impl. The writer
//! pushes the fields in list order and the reader seeks them in the same
//! order, so the two cannot disagree on a key, and the key hash
//! ([`Job::key`](crate::Job::key)) runs the same writer as the wire.
//!
//! What is not a plain record implements [`Wire`] by hand: the leaves
//! below, and beside their types the tagged enum `KStep`, the
//! kind-tagged `DesignPoint` and the `Breakdown`, whose keys are the
//! stall components' labels.

use std::sync::Arc;

use hfs_mem::Protocol;

use crate::json::{DecodeError, Sink, Source};

/// Longest kernel or region name a spec may carry; the repository's own
/// are at most 16 bytes.
pub const MAX_NAME_BYTES: usize = 128;

/// A value with one wire form, written to any [`Sink`] and read from any
/// [`Source`].
pub trait Wire: Sized {
    /// Pushes the value into `s`.
    fn write<S: Sink>(&self, s: &mut S);

    /// Pulls a value out of `s`.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on malformed text or a value of another shape.
    fn read<'a, S: Source<'a>>(s: &mut S) -> Result<Self, DecodeError>;
}

/// The value under `key` in the object `s` is reading; `absent` stands
/// in for a key older documents lack, and `None` makes the key required.
/// A value refused names its field.
///
/// # Errors
///
/// A missing required key, or the value's own [`Wire::read`] error.
pub fn field<'a, T: Wire, S: Source<'a>>(
    s: &mut S,
    o: &mut S::Obj,
    key: &str,
    absent: Option<T>,
) -> Result<T, DecodeError> {
    if !s.seek(o, key)? {
        return absent.ok_or_else(|| DecodeError::Shape(format!("missing field `{key}`")));
    }
    T::read(s).map_err(|e| match e {
        DecodeError::Shape(m) => DecodeError::Shape(format!("field `{key}`: {m}")),
        syntax => syntax,
    })
}

impl Wire for u64 {
    fn write<S: Sink>(&self, s: &mut S) {
        s.u64(*self);
    }

    fn read<'a, S: Source<'a>>(s: &mut S) -> Result<u64, DecodeError> {
        s.u64()
    }
}

/// The narrower unsigned integers travel as `u64`s; one that does not
/// fit is refused.
macro_rules! narrow_uint {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn write<S: Sink>(&self, s: &mut S) {
                s.u64(u64::from(*self));
            }

            fn read<'a, S: Source<'a>>(s: &mut S) -> Result<$t, DecodeError> {
                let v = s.u64()?;
                <$t>::try_from(v).map_err(|_| DecodeError::Shape(format!("{v} is out of range")))
            }
        }
    )*};
}

narrow_uint!(u8, u16, u32);

impl Wire for bool {
    fn write<S: Sink>(&self, s: &mut S) {
        s.bool(*self);
    }

    fn read<'a, S: Source<'a>>(s: &mut S) -> Result<bool, DecodeError> {
        s.bool()
    }
}

impl Wire for String {
    fn write<S: Sink>(&self, s: &mut S) {
        s.str(self);
    }

    fn read<'a, S: Source<'a>>(s: &mut S) -> Result<String, DecodeError> {
        Ok(s.str()?.into_owned())
    }
}

/// A kernel or region name, owned by the job that carries it. Names
/// arrive from the wire, so one longer than [`MAX_NAME_BYTES`] is
/// refused.
impl Wire for Arc<str> {
    fn write<S: Sink>(&self, s: &mut S) {
        s.str(self);
    }

    fn read<'a, S: Source<'a>>(s: &mut S) -> Result<Arc<str>, DecodeError> {
        let name = s.str()?;
        if name.len() > MAX_NAME_BYTES {
            return Err(DecodeError::Shape(format!(
                "a {}-byte name (at most {MAX_NAME_BYTES})",
                name.len()
            )));
        }
        Ok(name.into())
    }
}

/// An array, one item after another.
impl<T: Wire> Wire for Vec<T> {
    fn write<S: Sink>(&self, s: &mut S) {
        s.begin_arr();
        for item in self {
            item.write(s);
        }
        s.end_arr();
    }

    fn read<'a, S: Source<'a>>(s: &mut S) -> Result<Vec<T>, DecodeError> {
        s.items(T::read)
    }
}

/// A coherence protocol by its label.
impl Wire for Protocol {
    fn write<S: Sink>(&self, s: &mut S) {
        s.str(self.label());
    }

    fn read<'a, S: Source<'a>>(s: &mut S) -> Result<Protocol, DecodeError> {
        let label = s.str()?;
        Protocol::parse(&label)
            .ok_or_else(|| DecodeError::Shape(format!("unknown protocol `{label}`")))
    }
}

/// Derives records' wire forms from their field lists.
///
/// `wire! { Type { a, b, c = default } … }` implements [`Wire`] for each
/// `Type` as an object of its fields, each under its own name, written
/// and read in list order; `= default` is what a document without that
/// key reads as. `wire! { fields Type { … } }` writes the same fields
/// into an object the caller has open, as the inherent
/// `write_fields`/`read_fields` of a type of the calling crate.
#[macro_export]
macro_rules! wire {
    (fields $ty:ident { $($list:tt)* }) => {
        impl $ty {
            /// Pushes the fields into the object `s` has open.
            pub fn write_fields<S: $crate::Sink>(&self, s: &mut S) {
                $crate::wire!(@write self, s, $($list)*);
            }

            /// Pulls the fields out of the object `s` is reading.
            ///
            /// # Errors
            ///
            /// A missing field, or a value of another shape.
            pub fn read_fields<'a, S: $crate::Source<'a>>(
                s: &mut S,
                o: &mut S::Obj,
            ) -> Result<$ty, $crate::DecodeError> {
                Ok($crate::wire!(@read s, o, $ty, $($list)*))
            }
        }
    };
    ($($ty:ident { $($list:tt)* })*) => {$(
        impl $crate::wire::Wire for $ty {
            fn write<S: $crate::Sink>(&self, s: &mut S) {
                s.begin_obj();
                $crate::wire!(@write self, s, $($list)*);
                s.end_obj();
            }

            fn read<'a, S: $crate::Source<'a>>(s: &mut S) -> Result<$ty, $crate::DecodeError> {
                s.obj(|s, o| Ok($crate::wire!(@read s, o, $ty, $($list)*)))
            }
        }
    )*};
    (@write $this:ident, $s:ident, $($field:ident $(= $absent:expr)?),* $(,)?) => {
        $(
            $s.key(stringify!($field));
            $crate::wire::Wire::write(&$this.$field, $s);
        )*
    };
    (@read $s:ident, $o:ident, $ty:ident, $($field:ident $(= $absent:expr)?),* $(,)?) => {
        $ty {
            $($field: $crate::wire::field($s, $o, stringify!($field), $crate::wire!(@or $($absent)?))?,)*
        }
    };
    (@or) => { None };
    (@or $absent:expr) => { Some($absent) };
}

#[cfg(test)]
mod tests {
    use hfs_mem::{CacheGeometry, MemConfig};

    use super::*;
    use crate::json::{from_text, to_text};

    fn refusal<T: Wire + std::fmt::Debug>(text: &str) -> String {
        match from_text(text, T::read) {
            Err(DecodeError::Shape(m)) => m,
            other => panic!("{text} was not refused for its shape: {other:?}"),
        }
    }

    #[test]
    fn a_refused_value_names_its_path() {
        assert_eq!(
            refusal::<CacheGeometry>(r#"{"bytes":1,"ways":4294967296,"line_bytes":64}"#),
            "field `ways`: 4294967296 is out of range"
        );
        let mem = to_text(false, |s| MemConfig::itanium2_cmp().write(s));
        let without_ways = mem.replacen(r#""ways":"#, r#""way":"#, 1);
        assert_eq!(
            refusal::<MemConfig>(&without_ways),
            "field `l1d`: missing field `ways`"
        );
    }
}

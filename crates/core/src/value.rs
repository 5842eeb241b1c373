//! Scalar values held by scalar model objects.

use std::fmt;

/// The value of a scalar model object.
///
/// The paper's framework "currently supports scalar model objects of types
/// integer, real, and string" (§2.1); this enum carries any of the three.
///
/// `Eq`/`Hash` use the IEEE-754 bit pattern for reals, so histories and
/// message deduplication behave deterministically (`NaN == NaN` here,
/// deliberately).
#[derive(Debug, Clone)]
pub enum ScalarValue {
    /// A 64-bit integer.
    Int(i64),
    /// A 64-bit IEEE-754 real.
    Real(f64),
    /// A UTF-8 string.
    Str(String),
}

impl ScalarValue {
    /// The integer value, if this is an [`ScalarValue::Int`].
    pub(crate) fn as_int(&self) -> Option<i64> {
        match self {
            ScalarValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The real value, if this is a [`ScalarValue::Real`].
    pub(crate) fn as_real(&self) -> Option<f64> {
        match self {
            ScalarValue::Real(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a [`ScalarValue::Str`].
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            ScalarValue::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Short name of the contained type, for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ScalarValue::Int(_) => "int",
            ScalarValue::Real(_) => "real",
            ScalarValue::Str(_) => "string",
        }
    }
}

impl PartialEq for ScalarValue {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ScalarValue::Int(a), ScalarValue::Int(b)) => a == b,
            (ScalarValue::Real(a), ScalarValue::Real(b)) => a.to_bits() == b.to_bits(),
            (ScalarValue::Str(a), ScalarValue::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for ScalarValue {}

impl std::hash::Hash for ScalarValue {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            ScalarValue::Int(v) => {
                0u8.hash(state);
                v.hash(state);
            }
            ScalarValue::Real(v) => {
                1u8.hash(state);
                v.to_bits().hash(state);
            }
            ScalarValue::Str(v) => {
                2u8.hash(state);
                v.hash(state);
            }
        }
    }
}

impl fmt::Display for ScalarValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarValue::Int(v) => write!(f, "{v}"),
            ScalarValue::Real(v) => write!(f, "{v}"),
            ScalarValue::Str(v) => write!(f, "{v:?}"),
        }
    }
}

impl From<i64> for ScalarValue {
    fn from(v: i64) -> Self {
        ScalarValue::Int(v)
    }
}

impl From<f64> for ScalarValue {
    fn from(v: f64) -> Self {
        ScalarValue::Real(v)
    }
}

impl From<&str> for ScalarValue {
    fn from(v: &str) -> Self {
        ScalarValue::Str(v.to_owned())
    }
}

impl From<String> for ScalarValue {
    fn from(v: String) -> Self {
        ScalarValue::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(ScalarValue::Int(4).as_int(), Some(4));
        assert_eq!(ScalarValue::Int(4).as_real(), None);
        assert_eq!(ScalarValue::Real(2.5).as_real(), Some(2.5));
        assert_eq!(ScalarValue::from("hi").as_str(), Some("hi"));
    }

    #[test]
    fn real_equality_is_bitwise() {
        assert_eq!(ScalarValue::Real(f64::NAN), ScalarValue::Real(f64::NAN));
        assert_ne!(ScalarValue::Real(0.0), ScalarValue::Real(-0.0));
        assert_eq!(ScalarValue::Real(1.5), ScalarValue::Real(1.5));
    }

    #[test]
    fn cross_kind_values_differ() {
        assert_ne!(ScalarValue::Int(1), ScalarValue::Real(1.0));
        assert_ne!(ScalarValue::from("1"), ScalarValue::Int(1));
    }

    #[test]
    fn display_forms() {
        assert_eq!(ScalarValue::Int(-3).to_string(), "-3");
        assert_eq!(ScalarValue::from("a b").to_string(), "\"a b\"");
    }

    #[test]
    fn from_impls() {
        assert_eq!(ScalarValue::from(7i64).kind_name(), "int");
        assert_eq!(ScalarValue::from(7.0f64).kind_name(), "real");
        assert_eq!(ScalarValue::from(String::from("x")).kind_name(), "string");
    }
}

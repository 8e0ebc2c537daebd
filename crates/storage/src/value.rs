//! Typed scalar values and their data types.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The data types supported by the storage engine.
///
/// `Date` is stored as days since 1970-01-01, which is enough for TPC-D style
/// date arithmetic and range predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int,
    Float,
    Str,
    Date,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "INT"),
            DataType::Float => write!(f, "FLOAT"),
            DataType::Str => write!(f, "VARCHAR"),
            DataType::Date => write!(f, "DATE"),
        }
    }
}

impl DataType {
    /// Approximate width in bytes of one value of this type; used by the
    /// statistics-creation cost model (cost of scanning a column is
    /// proportional to `rows * width`).
    pub fn byte_width(self) -> usize {
        match self {
            DataType::Int => 8,
            DataType::Float => 8,
            DataType::Str => 16,
            DataType::Date => 4,
        }
    }
}

/// A scalar value. `Null` compares less than every non-null value so that
/// sorting and histogram construction have a total order.
///
/// A string is a shared, immutable cell: cloning a `Value::Str` — which is
/// what reading a stored cell into a result row does — bumps a reference
/// count and copies no bytes, and an UPDATE replaces the column's `Arc`, so
/// a value a client still holds never changes under a later write.
/// `Arc<str>` hashes, compares and orders as `str`.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    /// Days since the Unix epoch.
    Date(i32),
}

impl Value {
    /// The data type of this value, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// [`ValueRef::numeric_key`] of this value.
    #[inline]
    pub fn numeric_key(&self) -> f64 {
        self.as_ref().numeric_key()
    }

    /// [`ValueRef::sql_cmp`] of the two values.
    #[inline]
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        self.as_ref().sql_cmp(&other.as_ref())
    }

    /// [`ValueRef::total_cmp`] of the two values.
    #[inline]
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        self.as_ref().total_cmp(&other.as_ref())
    }

    /// Borrowed view of this value.
    #[inline]
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Str(s) => ValueRef::Str(s),
            Value::Date(d) => ValueRef::Date(*d),
        }
    }
}

impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state)
    }
}

/// A borrowed view of a stored scalar: the columnar executor's currency.
///
/// `ValueRef` lets hot loops compare, hash, and fingerprint column entries
/// without materializing a [`Value`] — which for `Str` columns means no
/// per-row reference-count traffic. The order, the hash and the histogram
/// key of a value are defined here, once; [`Value`] answers each through
/// [`Value::as_ref`], so a fingerprint computed from refs is the one computed
/// from owned values.
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    Null,
    Int(i64),
    Float(f64),
    Str(&'a str),
    /// Days since the Unix epoch.
    Date(i32),
}

impl<'a> ValueRef<'a> {
    pub fn is_null(&self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// Materialize an owned [`Value`] (copies the string payload into a new
    /// cell; [`crate::ColumnData::get`] shares the stored one instead).
    pub fn to_value(&self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(i) => Value::Int(*i),
            ValueRef::Float(f) => Value::Float(*f),
            ValueRef::Str(s) => Value::Str(Arc::from(*s)),
            ValueRef::Date(d) => Value::Date(*d),
        }
    }

    /// Numeric view of the value used for histogram bucket boundaries.
    /// A string maps to its first eight bytes as a big-endian integer, which
    /// preserves lexicographic order over those bytes — the usual trick for
    /// string histograms.
    #[inline]
    pub fn numeric_key(&self) -> f64 {
        match self {
            ValueRef::Null => f64::NEG_INFINITY,
            ValueRef::Int(i) => *i as f64,
            ValueRef::Float(f) => *f,
            ValueRef::Date(d) => *d as f64,
            ValueRef::Str(s) => {
                let mut key: u64 = 0;
                for (i, b) in s.bytes().take(8).enumerate() {
                    key |= (b as u64) << (56 - 8 * i);
                }
                key as f64
            }
        }
    }

    /// Total order used for sorting; `Null` sorts first.
    #[inline]
    pub fn total_cmp(&self, other: &ValueRef<'_>) -> Ordering {
        use ValueRef::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Date(a), Date(b)) => a.cmp(b),
            (Int(a), Date(b)) => a.cmp(&(*b as i64)),
            (Date(a), Int(b)) => (*a as i64).cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            // Cross-type comparisons between incompatible types fall back to
            // the numeric key so the order is still total.
            (a, b) => a.numeric_key().total_cmp(&b.numeric_key()),
        }
    }

    /// The order of two values under SQL comparison semantics: `None`
    /// when either side is NULL (`Null` compared with anything is false).
    pub fn sql_cmp(&self, other: &ValueRef<'_>) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other))
    }
}

impl PartialEq for ValueRef<'_> {
    /// `total_cmp(other) == Equal`. Same-typed integers and strings, which is
    /// what join and group keys are, are compared here so that a caller's
    /// loop inlines them; the full order is a call.
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ValueRef::Int(a), ValueRef::Int(b)) => a == b,
            (ValueRef::Str(a), ValueRef::Str(b)) => a == b,
            _ => self.total_cmp(other) == Ordering::Equal,
        }
    }
}

// A type tag, then the canonical payload bits.
impl Hash for ValueRef<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            ValueRef::Null => 0u8.hash(state),
            ValueRef::Int(i) => {
                1u8.hash(state);
                i.hash(state);
            }
            ValueRef::Float(f) => {
                // By bit pattern, and under a tag of its own: `Int(2)` and
                // `Float(2.0)` do not collide silently, as join keys are
                // always same-typed in our plans.
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            ValueRef::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            ValueRef::Date(d) => {
                4u8.hash(state);
                d.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Date(d) => write!(f, "DATE {d}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}

// 24 bytes with the `String` payload too: a fat `Arc<str>` pointer plus the
// tag. Result rows are `Vec<Value>`, so a wider cell is a slower projection.
const _: () = assert!(std::mem::size_of::<Value>() == 24);

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_sorts_first() {
        let mut vals = [Value::Int(3), Value::Null, Value::Int(-1)];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int(-1));
    }

    #[test]
    fn sql_cmp_with_null_is_none() {
        assert!(Value::Null.sql_cmp(&Value::Int(1)).is_none());
        assert!(Value::Int(1).sql_cmp(&Value::Null).is_none());
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(2)), Some(Ordering::Less));
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Date(10).total_cmp(&Value::Int(9)), Ordering::Greater);
    }

    #[test]
    fn string_numeric_key_preserves_prefix_order() {
        let a = Value::Str("apple".into());
        let b = Value::Str("banana".into());
        assert!(a.numeric_key() < b.numeric_key());
    }

    #[test]
    fn equal_values_hash_equal() {
        let a = Value::Str("x".into());
        let b = Value::Str("x".into());
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    fn hash_of_ref(v: &ValueRef<'_>) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// Values of every type, NULL included. Integers, dates and floats share
    /// a small range so that cross-type pairs tie; strings are short over two
    /// letters, or those behind one of two eight-byte prefixes, so that pairs
    /// agree in their first eight bytes, differ inside them, or are equal.
    fn any_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            (-4i64..4).prop_map(Value::Int),
            Just(Value::Int(i64::MAX)),
            (-4i32..4).prop_map(Value::Date),
            (-8i64..8).prop_map(|h| Value::Float(h as f64 / 2.0)),
            Just(Value::Float(-0.0)),
            Just(Value::Float(f64::NAN)),
            Just(Value::Float(f64::NEG_INFINITY)),
            "[ab]{0,3}".prop_map(Value::from),
            ("[ab]{0,2}", any::<bool>()).prop_map(|(tail, p)| {
                Value::from(format!("{}{tail}", if p { "Supplier" } else { "Supplies" }))
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The order, the hash and the histogram key of a `Value` are its
        /// `ValueRef`'s.
        #[test]
        fn value_answers_as_its_ref_does(a in any_value(), b in any_value()) {
            let (ra, rb) = (a.as_ref(), b.as_ref());
            prop_assert_eq!(a.total_cmp(&b), ra.total_cmp(&rb));
            prop_assert_eq!(a.sql_cmp(&b), ra.sql_cmp(&rb));
            prop_assert_eq!(a == b, ra == rb);
            prop_assert_eq!(ra == rb, ra.total_cmp(&rb) == Ordering::Equal);
            prop_assert_eq!(a.numeric_key().to_bits(), ra.numeric_key().to_bits());
            prop_assert_eq!(hash_of(&a), hash_of_ref(&ra));
            prop_assert_eq!(ra.to_value().total_cmp(&a), Ordering::Equal);
            // What the delegation has to preserve about the order itself.
            prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
            prop_assert_eq!(a.sql_cmp(&b).is_none(), a.is_null() || b.is_null());
            if a == b && a.data_type() == b.data_type() {
                prop_assert_eq!(hash_of(&a), hash_of(&b));
            }
            if let (Value::Str(x), Value::Str(y)) = (&a, &b) {
                // The key orders strings as their first eight bytes do, as
                // far as an `f64` holds them: six bytes exactly, the last
                // two rounded, never out of order.
                let head = |s: &str, n: usize| s.as_bytes()[..s.len().min(n)].to_vec();
                let by_key = a.numeric_key().total_cmp(&b.numeric_key());
                if head(x, 6) != head(y, 6) {
                    prop_assert_eq!(by_key, head(x, 6).cmp(&head(y, 6)));
                } else {
                    prop_assert!(by_key == Ordering::Equal || by_key == head(x, 8).cmp(&head(y, 8)));
                }
                if x.len() >= 8 && head(x, 8) == head(y, 8) {
                    prop_assert_eq!(by_key, Ordering::Equal);
                }
            }
        }
    }

    #[test]
    fn display_quotes_strings() {
        assert_eq!(Value::Str("o'brien".into()).to_string(), "'o''brien'");
        assert_eq!(Value::Int(7).to_string(), "7");
    }

    #[test]
    fn byte_widths() {
        assert_eq!(DataType::Int.byte_width(), 8);
        assert_eq!(DataType::Date.byte_width(), 4);
    }
}

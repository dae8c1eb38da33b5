//! The JSON-like document model.

use std::collections::BTreeMap;
use std::fmt;

/// A dynamically typed document value.
///
/// Documents stored in a database collection are `Value::Map`s; nested
/// values are addressed with dotted paths (`"config.cpu.count"`).
///
/// ```
/// use simart_codec::Value;
///
/// let doc = Value::map([
///     ("name", Value::from("blackscholes")),
///     ("cores", Value::from(8i64)),
///     ("config", Value::map([("mem", Value::from("DDR3_1600_8x8"))])),
/// ]);
/// assert_eq!(doc.at("config.mem").and_then(Value::as_str), Some("DDR3_1600_8x8"));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// Absence of a value.
    #[default]
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed 64-bit integer.
    Int(i64),
    /// IEEE-754 double.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Ordered list.
    Array(Vec<Value>),
    /// String-keyed map with deterministic (sorted) iteration order.
    Map(BTreeMap<String, Value>),
}

impl Value {
    /// Builds a map value from `(key, value)` pairs.
    pub fn map<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Map(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array value.
    pub fn array(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Array(items.into_iter().collect())
    }

    /// Navigates a dotted path (`"a.b.c"`) through nested maps.
    /// Returns `None` when any segment is missing or a non-map is
    /// traversed. An empty path returns `self`.
    pub fn at(&self, path: &str) -> Option<&Value> {
        if path.is_empty() {
            return Some(self);
        }
        let mut current = self;
        for segment in path.split('.') {
            match current {
                Value::Map(map) => current = map.get(segment)?,
                Value::Array(items) => current = items.get(segment.parse::<usize>().ok()?)?,
                _ => return None,
            }
        }
        Some(current)
    }

    /// Sets a dotted path, creating intermediate maps as needed.
    ///
    /// Returns `false` (leaving the value unchanged beyond any maps
    /// created along the way) when a non-map intermediate blocks the path.
    pub fn set_at(&mut self, path: &str, value: Value) -> bool {
        let (parents, leaf) = match path.rsplit_once('.') {
            Some((parents, leaf)) => (Some(parents), leaf),
            None => (None, path),
        };
        let mut current = self;
        for segment in parents.into_iter().flat_map(|p| p.split('.')) {
            let Value::Map(map) = current else {
                return false;
            };
            current = map
                .entry(segment.to_owned())
                .or_insert_with(|| Value::Map(BTreeMap::new()));
        }
        let Value::Map(map) = current else {
            return false;
        };
        map.insert(leaf.to_owned(), value);
        true
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, when this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// A numeric view: integers widen to `f64`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The boolean payload, when this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, when this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The map payload, when this is a map.
    pub fn as_map(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Map(map) => Some(map),
            _ => None,
        }
    }

    /// Whether this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Total ordering used by query comparison operators.
    ///
    /// Values of different types order by type rank (null < bool < number
    /// < string < array < map); numbers compare numerically across
    /// Int/Float. NaN floats order above all other numbers.
    pub fn compare(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
                Value::Array(_) => 4,
                Value::Map(_) => 5,
            }
        }
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) if rank(a) == 2 && rank(b) == 2 => {
                let fa = a.as_float().expect("rank 2 is numeric");
                let fb = b.as_float().expect("rank 2 is numeric");
                fa.partial_cmp(&fb)
                    .unwrap_or_else(|| match (fa.is_nan(), fb.is_nan()) {
                        (true, false) => Ordering::Greater,
                        (false, true) => Ordering::Less,
                        _ => Ordering::Equal,
                    })
            }
            (Value::Array(a), Value::Array(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let ord = x.compare(y);
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                a.len().cmp(&b.len())
            }
            (Value::Map(a), Value::Map(b)) => {
                let mut ai = a.iter();
                let mut bi = b.iter();
                loop {
                    match (ai.next(), bi.next()) {
                        (None, None) => return Ordering::Equal,
                        (None, Some(_)) => return Ordering::Less,
                        (Some(_), None) => return Ordering::Greater,
                        (Some((ka, va)), Some((kb, vb))) => {
                            let ord = ka.cmp(kb).then_with(|| va.compare(vb));
                            if ord != Ordering::Equal {
                                return ord;
                            }
                        }
                    }
                }
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::Int(v as i64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Int(v as i64)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

impl FromIterator<(String, Value)> for Value {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Value {
        Value::Map(iter.into_iter().collect())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::json::to_json(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_navigation_handles_maps_and_arrays() {
        let doc = Value::map([(
            "a",
            Value::map([("b", Value::array([Value::from(10i64), Value::from(20i64)]))]),
        )]);
        assert_eq!(doc.at("a.b.1").and_then(Value::as_int), Some(20));
        assert_eq!(doc.at("a.b.2"), None);
        assert_eq!(doc.at("a.x"), None);
        assert_eq!(doc.at(""), Some(&doc));
    }

    #[test]
    fn set_at_creates_intermediate_maps() {
        let mut doc = Value::map([("x", Value::from(1i64))] as [(&str, Value); 1]);
        assert!(doc.set_at("a.b.c", Value::from("deep")));
        assert_eq!(doc.at("a.b.c").and_then(Value::as_str), Some("deep"));
        // A scalar blocks further descent.
        assert!(!doc.set_at("x.y", Value::Null));
    }

    #[test]
    fn numeric_comparison_crosses_int_float() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::from(1i64).compare(&Value::from(1.0)), Equal);
        assert_eq!(Value::from(1i64).compare(&Value::from(1.5)), Less);
        assert_eq!(Value::from(2.5).compare(&Value::from(2i64)), Greater);
    }

    #[test]
    fn type_rank_ordering_is_total() {
        use std::cmp::Ordering::Less;
        let ladder = [
            Value::Null,
            Value::from(false),
            Value::from(0i64),
            Value::from("a"),
            Value::array([]),
            Value::map([] as [(&str, Value); 0]),
        ];
        for pair in ladder.windows(2) {
            assert_eq!(pair[0].compare(&pair[1]), Less);
        }
    }

    #[test]
    fn array_and_map_compare_lexicographically() {
        use std::cmp::Ordering::*;
        let a = Value::array([Value::from(1i64), Value::from(2i64)]);
        let b = Value::array([Value::from(1i64), Value::from(3i64)]);
        let c = Value::array([Value::from(1i64)]);
        assert_eq!(a.compare(&b), Less);
        assert_eq!(c.compare(&a), Less);
        assert_eq!(a.compare(&a), Equal);

        let m1 = Value::map([("a", Value::from(1i64))]);
        let m2 = Value::map([("a", Value::from(2i64))]);
        assert_eq!(m1.compare(&m2), Less);
    }

    #[test]
    fn from_conversions() {
        assert_eq!(Value::from(3u32), Value::Int(3));
        assert_eq!(
            Value::from(vec![1i64, 2]),
            Value::array([Value::Int(1), Value::Int(2)])
        );
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some("x")), Value::from("x"));
    }
}

//! The query engine: composable document filters.

use crate::Value;

/// Sort direction for query results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortOrder {
    /// Smallest value first.
    #[default]
    Ascending,
    /// Largest value first.
    Descending,
}

/// A composable predicate over documents.
///
/// Paths are dotted field paths evaluated with [`Value::at`]. A missing
/// path behaves like `Value::Null` for equality and fails ordered
/// comparisons, matching typical document-store semantics.
///
/// ```
/// use simart_db::{Filter, Value};
///
/// let doc = Value::map([
///     ("status", Value::from("success")),
///     ("ticks", Value::from(500i64)),
/// ]);
/// let filter = Filter::eq("status", "success").and(Filter::gt("ticks", 100i64));
/// assert!(filter.matches(&doc));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Matches every document.
    All,
    /// Field equals value (missing field equals `Null`).
    Eq(String, Value),
    /// Field is strictly greater than value (field must exist).
    Gt(String, Value),
    /// Field is greater than or equal to value (field must exist).
    Gte(String, Value),
    /// String field contains the given substring.
    Contains(String, String),
    /// Array field contains an element equal to the value.
    ElemMatch(String, Value),
    /// Both sub-filters match.
    And(Box<Filter>, Box<Filter>),
}

impl Filter {
    /// Equality filter.
    pub fn eq(path: impl Into<String>, value: impl Into<Value>) -> Filter {
        Filter::Eq(path.into(), value.into())
    }

    /// Greater-than filter.
    pub fn gt(path: impl Into<String>, value: impl Into<Value>) -> Filter {
        Filter::Gt(path.into(), value.into())
    }

    /// Greater-or-equal filter.
    pub fn gte(path: impl Into<String>, value: impl Into<Value>) -> Filter {
        Filter::Gte(path.into(), value.into())
    }

    /// Substring filter over string fields.
    pub fn contains(path: impl Into<String>, needle: impl Into<String>) -> Filter {
        Filter::Contains(path.into(), needle.into())
    }

    /// Array-membership filter.
    pub fn elem_match(path: impl Into<String>, value: impl Into<Value>) -> Filter {
        Filter::ElemMatch(path.into(), value.into())
    }

    /// Conjunction with another filter.
    pub fn and(self, other: Filter) -> Filter {
        Filter::And(Box::new(self), Box::new(other))
    }

    /// The query planner: decomposes this filter into index-answerable
    /// probes, best-first (`_id` lookups, then equality, membership,
    /// and finally ranges). The caller executes the first probe an
    /// index can serve and re-applies the *full* filter to the
    /// candidates, so probes only ever need to over-approximate —
    /// residual conjuncts simply contribute no probes. Range conjuncts
    /// on one path are merged to their tightest lower bound. Probes
    /// against `Null` are never emitted (a missing field equals `Null`,
    /// and indexes are sparse).
    pub(crate) fn probes(&self) -> Vec<Probe<'_>> {
        let mut out = Vec::new();
        self.collect_probes(&mut out);
        // Merge every range conjunct on the same path into one probe.
        let mut merged: Vec<Probe<'_>> = Vec::new();
        for probe in out {
            if let Probe::Range { path, lower } = &probe {
                if let Some(Probe::Range { lower: mlower, .. }) = merged
                    .iter_mut()
                    .find(|p| matches!(p, Probe::Range { path: mpath, .. } if mpath == path))
                {
                    *mlower = tighter_lower(*mlower, *lower);
                    continue;
                }
            }
            merged.push(probe);
        }
        merged.sort_by_key(Probe::priority);
        merged
    }

    fn collect_probes<'a>(&'a self, out: &mut Vec<Probe<'a>>) {
        match self {
            Filter::Eq(path, value) if path == "_id" => {
                // A string matches exactly that id; any other value can
                // never equal a (string) `_id`, so the candidate set is
                // exactly empty — which is still a valid probe.
                out.push(Probe::Ids(match value {
                    Value::Str(id) => vec![id.as_str()],
                    _ => Vec::new(),
                }));
            }
            Filter::Eq(path, value) if !value.is_null() => out.push(Probe::Eq { path, value }),
            Filter::ElemMatch(path, value) if !value.is_null() => {
                out.push(Probe::Elem { path, value });
            }
            Filter::Gt(path, value) => out.push(Probe::Range {
                path,
                lower: (value, false),
            }),
            Filter::Gte(path, value) => out.push(Probe::Range {
                path,
                lower: (value, true),
            }),
            Filter::And(a, b) => {
                a.collect_probes(out);
                b.collect_probes(out);
            }
            _ => {}
        }
    }

    /// Evaluates the filter against a document.
    pub fn matches(&self, doc: &Value) -> bool {
        use std::cmp::Ordering;
        let field = |path: &str| doc.at(path);
        let cmp = |path: &str, value: &Value| field(path).map(|f| f.compare(value));
        match self {
            Filter::All => true,
            Filter::Eq(path, value) => field(path).unwrap_or(&Value::Null) == value,
            Filter::Gt(path, value) => cmp(path, value) == Some(Ordering::Greater),
            Filter::Gte(path, value) => {
                matches!(cmp(path, value), Some(Ordering::Greater | Ordering::Equal))
            }
            Filter::Contains(path, needle) => field(path)
                .and_then(Value::as_str)
                .map(|s| s.contains(needle.as_str()))
                .unwrap_or(false),
            Filter::ElemMatch(path, value) => field(path)
                .and_then(Value::as_array)
                .map(|items| items.contains(value))
                .unwrap_or(false),
            Filter::And(a, b) => a.matches(doc) && b.matches(doc),
        }
    }
}

/// One index-answerable constraint extracted by [`Filter::probes`].
/// Borrowed from the filter; a bound is `(value, inclusive)`.
#[derive(Debug)]
pub(crate) enum Probe<'a> {
    /// Direct primary-key candidates (needs no declared index).
    Ids(Vec<&'a str>),
    /// Equality on a non-null value.
    Eq {
        /// Constrained field path.
        path: &'a str,
        /// The value the field must equal.
        value: &'a Value,
    },
    /// Array membership of a non-null element.
    Elem {
        /// Constrained field path.
        path: &'a str,
        /// The element the array must contain.
        value: &'a Value,
    },
    /// An ordered range, bounded below.
    Range {
        /// Constrained field path.
        path: &'a str,
        /// The lower bound.
        lower: (&'a Value, bool),
    },
}

impl Probe<'_> {
    /// Selectivity rank; the planner tries lower ranks first.
    fn priority(&self) -> u8 {
        match self {
            Probe::Ids(_) => 0,
            Probe::Eq { .. } => 1,
            Probe::Elem { .. } => 2,
            Probe::Range { .. } => 3,
        }
    }
}

/// Keeps the tighter of two lower bounds: the larger value. On
/// compare-equal values the exclusive bound wins (the conjunction of
/// both constraints is the exclusive one).
fn tighter_lower<'a>(a: (&'a Value, bool), b: (&'a Value, bool)) -> (&'a Value, bool) {
    use std::cmp::Ordering;
    match a.0.compare(b.0) {
        Ordering::Equal => (a.0, a.1 && b.1),
        Ordering::Greater => a,
        Ordering::Less => b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Value {
        Value::map([
            ("name", Value::from("blackscholes")),
            ("cores", Value::from(8i64)),
            (
                "tags",
                Value::array([Value::from("parsec"), Value::from("fp")]),
            ),
            ("meta", Value::map([("os", Value::from("ubuntu-20.04"))])),
        ])
    }

    #[test]
    fn equality_and_missing_fields() {
        assert!(Filter::eq("name", "blackscholes").matches(&doc()));
        assert!(!Filter::eq("name", "ferret").matches(&doc()));
        // Missing field behaves as Null for equality.
        assert!(Filter::eq("nonexistent", Value::Null).matches(&doc()));
    }

    #[test]
    fn ordered_comparisons() {
        assert!(Filter::gt("cores", 4i64).matches(&doc()));
        assert!(!Filter::gt("cores", 8i64).matches(&doc()));
        assert!(Filter::gte("cores", 8i64).matches(&doc()));
        // Ordered comparison on a missing field never matches.
        assert!(!Filter::gt("ghost", 0i64).matches(&doc()));
        // Int field vs float bound compares numerically.
        assert!(Filter::gt("cores", 7.5).matches(&doc()));
    }

    #[test]
    fn string_array_and_nested_operators() {
        assert!(Filter::contains("meta.os", "20.04").matches(&doc()));
        assert!(!Filter::contains("meta.os", "18.04").matches(&doc()));
        assert!(Filter::elem_match("tags", "parsec").matches(&doc()));
        assert!(!Filter::elem_match("tags", "gpu").matches(&doc()));
    }

    #[test]
    fn boolean_composition() {
        let f = Filter::eq("name", "blackscholes").and(Filter::gt("cores", 2i64));
        assert!(f.matches(&doc()));
        assert!(!f.and(Filter::eq("name", "ferret")).matches(&doc()));
        assert!(Filter::All.matches(&doc()));
    }
}

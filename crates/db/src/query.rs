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
    /// Field differs from value.
    Ne(String, Value),
    /// Field is strictly greater than value (field must exist).
    Gt(String, Value),
    /// Field is greater than or equal to value (field must exist).
    Gte(String, Value),
    /// Field is strictly less than value (field must exist).
    Lt(String, Value),
    /// Field is less than or equal to value (field must exist).
    Lte(String, Value),
    /// String field contains the given substring.
    Contains(String, String),
    /// Field exists (is present, even if `Null`).
    Exists(String),
    /// Array field contains an element equal to the value.
    ElemMatch(String, Value),
    /// Field value is one of the listed values.
    In(String, Vec<Value>),
    /// Both sub-filters match.
    And(Box<Filter>, Box<Filter>),
    /// Either sub-filter matches.
    Or(Box<Filter>, Box<Filter>),
    /// Sub-filter does not match.
    Not(Box<Filter>),
}

impl Filter {
    /// Equality filter.
    pub fn eq(path: impl Into<String>, value: impl Into<Value>) -> Filter {
        Filter::Eq(path.into(), value.into())
    }

    /// Inequality filter.
    pub fn ne(path: impl Into<String>, value: impl Into<Value>) -> Filter {
        Filter::Ne(path.into(), value.into())
    }

    /// Greater-than filter.
    pub fn gt(path: impl Into<String>, value: impl Into<Value>) -> Filter {
        Filter::Gt(path.into(), value.into())
    }

    /// Greater-or-equal filter.
    pub fn gte(path: impl Into<String>, value: impl Into<Value>) -> Filter {
        Filter::Gte(path.into(), value.into())
    }

    /// Less-than filter.
    pub fn lt(path: impl Into<String>, value: impl Into<Value>) -> Filter {
        Filter::Lt(path.into(), value.into())
    }

    /// Less-or-equal filter.
    pub fn lte(path: impl Into<String>, value: impl Into<Value>) -> Filter {
        Filter::Lte(path.into(), value.into())
    }

    /// Substring filter over string fields.
    pub fn contains(path: impl Into<String>, needle: impl Into<String>) -> Filter {
        Filter::Contains(path.into(), needle.into())
    }

    /// Presence filter.
    pub fn exists(path: impl Into<String>) -> Filter {
        Filter::Exists(path.into())
    }

    /// Array-membership filter.
    pub fn elem_match(path: impl Into<String>, value: impl Into<Value>) -> Filter {
        Filter::ElemMatch(path.into(), value.into())
    }

    /// Set-membership filter.
    pub fn any_of(
        path: impl Into<String>,
        values: impl IntoIterator<Item = impl Into<Value>>,
    ) -> Filter {
        Filter::In(path.into(), values.into_iter().map(Into::into).collect())
    }

    /// Conjunction with another filter.
    pub fn and(self, other: Filter) -> Filter {
        Filter::And(Box::new(self), Box::new(other))
    }

    /// Disjunction with another filter.
    pub fn or(self, other: Filter) -> Filter {
        Filter::Or(Box::new(self), Box::new(other))
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Filter {
        Filter::Not(Box::new(self))
    }

    /// The query planner: decomposes this filter into index-answerable
    /// probes, best-first (`_id` lookups, then equality, membership,
    /// and finally ranges). The caller executes the first probe an
    /// index can serve and re-applies the *full* filter to the
    /// candidates, so probes only ever need to over-approximate —
    /// `Or`/`Not` subtrees and residual conjuncts simply contribute no
    /// probes. Range conjuncts on one path are merged to their tightest
    /// bounds. Probes against `Null` are never emitted (a missing field
    /// equals `Null`, and indexes are sparse).
    pub(crate) fn probes(&self) -> Vec<Probe<'_>> {
        let mut out = Vec::new();
        self.collect_probes(&mut out);
        // Merge every range conjunct on the same path into one probe.
        let mut merged: Vec<Probe<'_>> = Vec::new();
        for probe in out {
            if let Probe::Range { path, lower, upper } = &probe {
                if let Some(Probe::Range {
                    lower: mlower,
                    upper: mupper,
                    ..
                }) = merged
                    .iter_mut()
                    .find(|p| matches!(p, Probe::Range { path: mpath, .. } if mpath == path))
                {
                    *mlower = tighter_bound(*mlower, *lower, true);
                    *mupper = tighter_bound(*mupper, *upper, false);
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
            Filter::In(path, values) if path == "_id" => {
                // Non-string members can never match an `_id`.
                out.push(Probe::Ids(
                    values.iter().filter_map(Value::as_str).collect(),
                ));
            }
            Filter::In(path, values) if !values.iter().any(Value::is_null) => {
                out.push(Probe::In { path, values });
            }
            Filter::Gt(path, value) => out.push(Probe::Range {
                path,
                lower: Some((value, false)),
                upper: None,
            }),
            Filter::Gte(path, value) => out.push(Probe::Range {
                path,
                lower: Some((value, true)),
                upper: None,
            }),
            Filter::Lt(path, value) => out.push(Probe::Range {
                path,
                lower: None,
                upper: Some((value, false)),
            }),
            Filter::Lte(path, value) => out.push(Probe::Range {
                path,
                lower: None,
                upper: Some((value, true)),
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
            Filter::Ne(path, value) => field(path).unwrap_or(&Value::Null) != value,
            Filter::Gt(path, value) => cmp(path, value) == Some(Ordering::Greater),
            Filter::Gte(path, value) => {
                matches!(cmp(path, value), Some(Ordering::Greater | Ordering::Equal))
            }
            Filter::Lt(path, value) => cmp(path, value) == Some(Ordering::Less),
            Filter::Lte(path, value) => {
                matches!(cmp(path, value), Some(Ordering::Less | Ordering::Equal))
            }
            Filter::Contains(path, needle) => field(path)
                .and_then(Value::as_str)
                .map(|s| s.contains(needle.as_str()))
                .unwrap_or(false),
            Filter::Exists(path) => field(path).is_some(),
            Filter::ElemMatch(path, value) => field(path)
                .and_then(Value::as_array)
                .map(|items| items.contains(value))
                .unwrap_or(false),
            Filter::In(path, values) => {
                let actual = field(path).unwrap_or(&Value::Null);
                values.contains(actual)
            }
            Filter::And(a, b) => a.matches(doc) && b.matches(doc),
            Filter::Or(a, b) => a.matches(doc) || b.matches(doc),
            Filter::Not(inner) => !inner.matches(doc),
        }
    }
}

/// One index-answerable constraint extracted by [`Filter::probes`].
/// Borrowed from the filter; bounds are `(value, inclusive)`.
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
    /// Membership in a null-free value list.
    In {
        /// Constrained field path.
        path: &'a str,
        /// The allowed values.
        values: &'a [Value],
    },
    /// An ordered range with optional bounds.
    Range {
        /// Constrained field path.
        path: &'a str,
        /// Lower bound, if any.
        lower: Option<(&'a Value, bool)>,
        /// Upper bound, if any.
        upper: Option<(&'a Value, bool)>,
    },
}

impl Probe<'_> {
    /// Selectivity rank; the planner tries lower ranks first.
    fn priority(&self) -> u8 {
        match self {
            Probe::Ids(_) => 0,
            Probe::Eq { .. } => 1,
            Probe::Elem { .. } => 2,
            Probe::In { .. } => 3,
            Probe::Range { .. } => 4,
        }
    }
}

/// Keeps the tighter of two optional range bounds. For a lower bound
/// the larger value is tighter; for an upper bound the smaller. On
/// compare-equal values the exclusive bound wins (the conjunction of
/// both constraints is the exclusive one).
fn tighter_bound<'a>(
    a: Option<(&'a Value, bool)>,
    b: Option<(&'a Value, bool)>,
    lower: bool,
) -> Option<(&'a Value, bool)> {
    use std::cmp::Ordering;
    match (a, b) {
        (None, other) | (other, None) => other,
        (Some((va, ia)), Some((vb, ib))) => {
            let keep_a = match va.compare(vb) {
                Ordering::Equal => return Some((va, ia && ib)),
                Ordering::Greater => lower,
                Ordering::Less => !lower,
            };
            Some(if keep_a { (va, ia) } else { (vb, ib) })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Value {
        Value::map([
            ("name", Value::from("blackscholes")),
            ("cores", Value::from(8i64)),
            ("time", Value::from(1.25)),
            (
                "tags",
                Value::array([Value::from("parsec"), Value::from("fp")]),
            ),
            ("meta", Value::map([("os", Value::from("ubuntu-20.04"))])),
            ("missing_is_null", Value::Null),
        ])
    }

    #[test]
    fn equality_and_missing_fields() {
        assert!(Filter::eq("name", "blackscholes").matches(&doc()));
        assert!(!Filter::eq("name", "ferret").matches(&doc()));
        // Missing field behaves as Null for equality.
        assert!(Filter::eq("nonexistent", Value::Null).matches(&doc()));
        assert!(Filter::ne("nonexistent", 3i64).matches(&doc()));
    }

    #[test]
    fn ordered_comparisons() {
        assert!(Filter::gt("cores", 4i64).matches(&doc()));
        assert!(!Filter::gt("cores", 8i64).matches(&doc()));
        assert!(Filter::gte("cores", 8i64).matches(&doc()));
        assert!(Filter::lt("time", 2.0).matches(&doc()));
        assert!(Filter::lte("time", 1.25).matches(&doc()));
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
        assert!(Filter::exists("missing_is_null").matches(&doc()));
        assert!(!Filter::exists("really_missing").matches(&doc()));
        assert!(Filter::any_of("cores", [1i64, 2, 8]).matches(&doc()));
        assert!(!Filter::any_of("cores", [1i64, 2, 4]).matches(&doc()));
    }

    #[test]
    fn boolean_composition() {
        let f = Filter::eq("name", "blackscholes")
            .and(Filter::gt("cores", 2i64))
            .or(Filter::eq("name", "ferret"));
        assert!(f.matches(&doc()));
        assert!(Filter::eq("name", "x").not().matches(&doc()));
        assert!(Filter::All.matches(&doc()));
        assert!(!Filter::All.not().matches(&doc()));
    }
}

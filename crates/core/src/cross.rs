//! Cross-product parameter sweeps — the heart of the paper's Figure 5
//! launch script (`for each combination P in [cpus, benchmarks, ...]`).
//!
//! A [`CrossProduct`] names each axis and enumerates every combination
//! in a deterministic order, so experiment code can map combinations
//! directly onto run parameters.

use std::collections::BTreeMap;

/// A named multi-axis parameter sweep.
///
/// ```
/// use simart::cross::CrossProduct;
///
/// let sweep = CrossProduct::new()
///     .axis("cpu", ["kvm", "timing"])
///     .axis("cores", ["1", "2", "8"]);
/// assert_eq!(sweep.len(), 6);
/// let first = sweep.iter().next().unwrap();
/// assert_eq!(first.get("cpu"), Some("kvm"));
/// assert_eq!(first.get("cores"), Some("1"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CrossProduct {
    axes: Vec<(String, Vec<String>)>,
}

/// One combination of the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Combination {
    values: BTreeMap<String, String>,
    ordered: Vec<(String, String)>,
}

impl Combination {
    /// The value of one axis.
    pub fn get(&self, axis: &str) -> Option<&str> {
        self.values.get(axis).map(String::as_str)
    }

    /// The combination's values in axis-declaration order — ready to
    /// pass as run parameters.
    pub fn params(&self) -> Vec<String> {
        self.ordered.iter().map(|(_, v)| v.clone()).collect()
    }

    /// A compact `axis=value` label for reports.
    pub fn label(&self) -> String {
        self.ordered
            .iter()
            .map(|(axis, value)| format!("{axis}={value}"))
            .collect::<Vec<_>>()
            .join(",")
    }
}

impl CrossProduct {
    /// Creates an empty sweep (one empty combination).
    pub fn new() -> CrossProduct {
        CrossProduct::default()
    }

    /// Adds an axis with its values. Declaration order fixes the
    /// enumeration order (last axis varies fastest) and the order of
    /// [`Combination::params`].
    ///
    /// # Panics
    ///
    /// Panics on an empty value list or a duplicate axis name — both
    /// silently produce nonsense sweeps otherwise.
    pub fn axis(
        mut self,
        name: impl Into<String>,
        values: impl IntoIterator<Item = impl Into<String>>,
    ) -> CrossProduct {
        let name = name.into();
        assert!(
            !self.axes.iter().any(|(existing, _)| *existing == name),
            "duplicate axis `{name}`"
        );
        let values: Vec<String> = values.into_iter().map(Into::into).collect();
        assert!(!values.is_empty(), "axis `{name}` has no values");
        self.axes.push((name, values));
        self
    }

    /// Number of combinations.
    pub fn len(&self) -> usize {
        self.axes.iter().map(|(_, values)| values.len()).product()
    }

    /// Whether the sweep has no axes (a single empty combination).
    pub fn is_empty(&self) -> bool {
        self.axes.is_empty()
    }

    /// Enumerates every combination.
    pub fn iter(&self) -> impl Iterator<Item = Combination> + '_ {
        let total = self.len();
        (0..total).map(move |mut index| {
            let mut ordered = Vec::with_capacity(self.axes.len());
            // Last axis varies fastest: compute mixed-radix digits.
            let mut stride = total;
            for (name, values) in &self.axes {
                stride /= values.len();
                let digit = index / stride;
                index %= stride;
                ordered.push((name.clone(), values[digit].clone()));
            }
            let values = ordered.iter().cloned().collect();
            Combination { values, ordered }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerates_the_full_product_in_order() {
        let sweep = CrossProduct::new()
            .axis("a", ["x", "y"])
            .axis("b", ["1", "2", "3"]);
        let combos: Vec<Vec<String>> = sweep.iter().map(|c| c.params()).collect();
        assert_eq!(combos.len(), 6);
        assert_eq!(combos[0], vec!["x", "1"]);
        assert_eq!(combos[1], vec!["x", "2"]);
        assert_eq!(combos[3], vec!["y", "1"]);
        assert_eq!(combos[5], vec!["y", "3"]);
    }

    #[test]
    fn figure8_sized_sweep() {
        let sweep = CrossProduct::new()
            .axis("kernel", ["4.4", "4.9", "4.14", "4.19", "5.4"])
            .axis("cpu", ["kvm", "atomic", "timing", "o3"])
            .axis("mem", ["classic", "mi", "mesi"])
            .axis("cores", ["1", "2", "4", "8"])
            .axis("boot", ["kernel", "systemd"]);
        assert_eq!(sweep.len(), 480, "the paper's full matrix");
        let labels: std::collections::HashSet<String> = sweep.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 480, "all combinations distinct");
    }

    #[test]
    fn empty_sweep_is_one_empty_combination() {
        let sweep = CrossProduct::new();
        assert_eq!(sweep.len(), 1);
        let combos: Vec<Combination> = sweep.iter().collect();
        assert_eq!(combos.len(), 1);
        assert!(combos[0].params().is_empty());
    }

    #[test]
    fn lookup_by_axis_name() {
        let sweep = CrossProduct::new().axis("os", ["18.04", "20.04"]);
        let combo = sweep.iter().nth(1).unwrap();
        assert_eq!(combo.get("os"), Some("20.04"));
        assert_eq!(combo.get("ghost"), None);
        assert_eq!(combo.label(), "os=20.04");
    }

    #[test]
    #[should_panic(expected = "duplicate axis")]
    fn duplicate_axes_panic() {
        let _ = CrossProduct::new().axis("a", ["x"]).axis("a", ["y"]);
    }

    #[test]
    #[should_panic(expected = "no values")]
    fn empty_axis_panics() {
        let _ = CrossProduct::new().axis("a", Vec::<String>::new());
    }
}

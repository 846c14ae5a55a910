//! The node-value abstraction and the paper's `compare` function.

/// Values carried by tree nodes.
///
/// Section 3.2 of the paper assumes a `compare` function that "takes two nodes
/// as arguments and returns a number in the range `[0, 2]`": `0` means the
/// values are identical, values `< 1` mean an *update* is cheaper than a
/// *delete + insert* pair, and values `> 1` mean the opposite. Matching
/// Criterion 1 (Section 5.1) only lets leaves match when
/// `compare(v(x), v(y)) <= f` for a parameter `f ∈ [0, 1]`.
///
/// The paper's label-value model has "defaults for the label and value of a
/// node that does not specify them explicitly"; [`NodeValue::null`] is that
/// default (interior nodes typically carry it).
///
/// `Hash` is required so subtree fingerprints (the identical-subtree pruning
/// accelerator) can digest values; hashing must agree with `PartialEq`.
///
/// A matcher that compares one value against many (FastMatch's per-label
/// chains) calls [`NodeValue::prepare`] once per value and
/// [`NodeValue::compare_prepared`] per pair, so per-value work — e.g.
/// tokenizing a sentence — is not repeated for every pair.
pub trait NodeValue: Clone + PartialEq + std::hash::Hash + std::fmt::Debug {
    /// The form [`NodeValue::compare_prepared`] reads: `&'a Self` when
    /// comparing needs no per-value setup.
    type Prepared<'a>
    where
        Self: 'a;

    /// The default ("null") value carried by nodes that do not specify one.
    fn null() -> Self;

    /// Whether this value is the null value.
    fn is_null(&self) -> bool {
        *self == Self::null()
    }

    /// The per-value half of `compare`, done once per value.
    fn prepare(&self) -> Self::Prepared<'_>;

    /// Distance between two prepared values in `[0, 2]`; `0.0` iff the
    /// values should be considered identical for matching purposes.
    ///
    /// Implementations must be symmetric and return `0.0` when the values
    /// are equal.
    fn compare_prepared(a: &Self::Prepared<'_>, b: &Self::Prepared<'_>) -> f64;

    /// Distance between two values in `[0, 2]`: `compare_prepared` of the
    /// prepared pair.
    fn compare(&self, other: &Self) -> f64 {
        Self::compare_prepared(&self.prepare(), &other.prepare())
    }
}

/// `String` values compare by exact equality: distance `0` when equal,
/// distance `2` otherwise (maximally different, so an unequal pair is never
/// cheaper to update than to delete + insert).
///
/// Domain-specific similarity — e.g. the word-LCS sentence comparison of the
/// paper's *LaDiff* system (Section 7) — lives in `hierdiff-doc`, which wraps
/// text in its own value type.
impl NodeValue for String {
    type Prepared<'a> = &'a Self;

    fn null() -> Self {
        String::new()
    }

    fn prepare(&self) -> &Self {
        self
    }

    fn compare_prepared(a: &&Self, b: &&Self) -> f64 {
        if a == b {
            0.0
        } else {
            2.0
        }
    }
}

/// Unit values for purely structural trees (every node null-valued).
impl NodeValue for () {
    type Prepared<'a> = &'a Self;

    fn null() -> Self {}

    fn prepare(&self) -> &Self {
        self
    }

    fn compare_prepared(_a: &&Self, _b: &&Self) -> f64 {
        0.0
    }
}

/// Integer values (useful for tests and synthetic workloads): distance `0`
/// when equal, `2` otherwise.
impl NodeValue for u64 {
    type Prepared<'a> = &'a Self;

    fn null() -> Self {
        0
    }

    fn prepare(&self) -> &Self {
        self
    }

    fn compare_prepared(a: &&Self, b: &&Self) -> f64 {
        if a == b {
            0.0
        } else {
            2.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_compare_is_exact() {
        let a = "hello".to_string();
        let b = "hello".to_string();
        let c = "world".to_string();
        assert_eq!(a.compare(&b), 0.0);
        assert_eq!(a.compare(&c), 2.0);
        assert_eq!(c.compare(&a), 2.0);
    }

    #[test]
    fn string_null_is_empty() {
        assert_eq!(String::null(), "");
        assert!(String::null().is_null());
        assert!(!"x".to_string().is_null());
    }

    #[test]
    fn unit_values_always_equal() {
        assert_eq!(().compare(&()), 0.0);
        assert!(().is_null());
    }

    #[test]
    fn u64_compare() {
        assert_eq!(3u64.compare(&3), 0.0);
        assert_eq!(3u64.compare(&4), 2.0);
        assert!(0u64.is_null());
        assert!(!7u64.is_null());
    }
}

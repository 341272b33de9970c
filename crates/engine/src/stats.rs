//! Ordered name → value statistics tables for run reports.
//!
//! Components keep their counters in plain fields and build a [`Stats`]
//! table when a report is asked for, so nothing here sits on a hot path: the
//! table is one ordered map from name to value.

use std::collections::{btree_map, BTreeMap};
use std::fmt;

/// An ordered table of named statistics.
///
/// Components record counters here at the end of a run; the figure harnesses
/// and `RunReport`s print or post-process them. Keys are dotted paths such as
/// `"l2.bank0.misses"` so related counters sort together.
///
/// # Examples
///
/// ```
/// use ccsvm_engine::Stats;
/// let mut s = Stats::new();
/// s.add("dram.reads", 3.0);
/// s.add("dram.reads", 2.0);
/// assert_eq!(s.get("dram.reads"), 5.0);
/// assert_eq!(s.get("dram.writes"), 0.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Stats {
    values: BTreeMap<String, f64>,
}

impl Stats {
    /// Creates an empty table.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Sets `key` to `value`, replacing any previous value.
    pub fn set(&mut self, key: impl Into<String>, value: f64) {
        self.values.insert(key.into(), value);
    }

    /// Adds `value` to `key` (missing keys start at zero). Allocates only
    /// when inserting a new key.
    pub fn add(&mut self, key: impl Into<String> + AsRef<str>, value: f64) {
        if let Some(v) = self.values.get_mut(key.as_ref()) {
            *v += value;
        } else {
            self.values.insert(key.into(), value);
        }
    }

    /// The value for `key`, or `0.0` if absent.
    pub fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }

    /// Whether `key` has been recorded.
    pub fn contains(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    /// Merges every entry of `other` into `self` with a `prefix.` prepended,
    /// adding to any existing values.
    pub fn merge_prefixed(&mut self, prefix: &str, other: &Stats) {
        for (k, v) in other {
            self.add(format!("{prefix}.{k}"), v);
        }
    }

    /// Sum of all values whose key starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> f64 {
        self.iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Iterates entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.into_iter()
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

ccsvm_snap::codec!(struct Stats { values });

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self.values.keys().map(String::len).max().unwrap_or(0);
        for (k, v) in self {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                writeln!(f, "{k:width$}  {}", v as i64)?;
            } else {
                writeln!(f, "{k:width$}  {v:.4}")?;
            }
        }
        Ok(())
    }
}

type Entry<'a> = (&'a String, &'a f64);

impl<'a> IntoIterator for &'a Stats {
    type Item = (&'a str, f64);
    type IntoIter = std::iter::Map<btree_map::Iter<'a, String, f64>, fn(Entry<'a>) -> Self::Item>;
    fn into_iter(self) -> Self::IntoIter {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_add() {
        let mut s = Stats::new();
        assert!(s.is_empty());
        s.set("a", 1.0);
        s.add("a", 2.0);
        s.add("b", 4.0);
        assert_eq!(s.get("a"), 3.0);
        assert_eq!(s.get("b"), 4.0);
        assert_eq!(s.get("missing"), 0.0);
        assert!(s.contains("a"));
        assert!(!s.contains("missing"));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn merge_prefixed_accumulates() {
        let mut inner = Stats::new();
        inner.set("hits", 10.0);
        inner.set("misses", 2.0);
        let mut outer = Stats::new();
        outer.merge_prefixed("l1.0", &inner);
        outer.merge_prefixed("l1.0", &inner);
        assert_eq!(outer.get("l1.0.hits"), 20.0);
        assert_eq!(outer.get("l1.0.misses"), 4.0);
    }

    #[test]
    fn sum_prefix_sums_matching_keys() {
        let mut s = Stats::new();
        s.set("dram.reads", 5.0);
        s.set("dram.writes", 7.0);
        s.set("noc.flits", 100.0);
        assert_eq!(s.sum_prefix("dram."), 12.0);
        assert_eq!(s.sum_prefix("nope"), 0.0);
    }

    #[test]
    fn display_is_sorted_and_nonempty() {
        let mut s = Stats::new();
        s.set("b", 2.5);
        s.set("a", 1.0);
        let text = s.to_string();
        let a = text.find("a ").unwrap();
        let b = text.find("b ").unwrap();
        assert!(a < b);
        assert!(text.contains("2.5000"));
        assert!(text.contains('1'));
    }

    #[test]
    fn iter_matches_contents() {
        let mut s = Stats::new();
        s.set("x", 1.0);
        s.set("y", 2.0);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![("x", 1.0), ("y", 2.0)]);
        let v2: Vec<_> = (&s).into_iter().collect();
        assert_eq!(v, v2);
    }

    #[test]
    fn snapshot_round_trips_by_name() {
        use ccsvm_snap::{Codec, SnapReader, SnapWriter};
        let mut s = Stats::new();
        s.add("test.snap.z", 6.0);
        s.set("test.snap.a", 2.5);
        let mut w = SnapWriter::new();
        s.put(&mut w);
        let bytes = w.into_vec();
        let restored: Stats = Codec::get(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(restored, s);
    }
}

//! Inverted class index: exact candidate generation without scanning.
//!
//! Every prefiltered search takes its candidates from here: the index
//! produces the candidate set directly from the query's classes — the
//! textbook inverted-file layout of iconic indexing systems. It is
//! exact (no hash collisions) at the cost of a postings map that must
//! be maintained on every edit.

use crate::database::RecordId;
use be2d_geometry::ObjectClass;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Postings map from object class to the records containing it.
///
/// # Example
///
/// ```
/// use be2d_db::{ClassIndex, RecordId};
/// use be2d_geometry::ObjectClass;
///
/// let mut index = ClassIndex::new();
/// index.insert_record(RecordId(0), [ObjectClass::new("A"), ObjectClass::new("B")]);
/// index.insert_record(RecordId(1), [ObjectClass::new("B")]);
/// let b = [ObjectClass::new("B")];
/// assert_eq!(index.candidates_all(&b), vec![RecordId(0), RecordId(1)]);
/// let ab = [ObjectClass::new("A"), ObjectClass::new("B")];
/// assert_eq!(index.candidates_all(&ab), vec![RecordId(0)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassIndex {
    postings: BTreeMap<ObjectClass, BTreeSet<RecordId>>,
}

impl ClassIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new() -> Self {
        ClassIndex::default()
    }

    /// Registers a record under every class it contains.
    pub fn insert_record<I: IntoIterator<Item = ObjectClass>>(&mut self, id: RecordId, classes: I) {
        for class in classes {
            self.postings.entry(class).or_default().insert(id);
        }
    }

    /// Removes a record from every posting list.
    pub fn remove_record(&mut self, id: RecordId) {
        self.postings.retain(|_, ids| {
            ids.remove(&id);
            !ids.is_empty()
        });
    }

    /// Adds one class occurrence for an existing record (object insert).
    pub fn add_class(&mut self, id: RecordId, class: ObjectClass) {
        self.postings.entry(class).or_default().insert(id);
    }

    /// Drops a record from one class's posting list (object removal) —
    /// call only when the record no longer holds *any* object of the
    /// class.
    pub fn remove_class(&mut self, id: RecordId, class: &ObjectClass) {
        if let Some(ids) = self.postings.get_mut(class) {
            ids.remove(&id);
            if ids.is_empty() {
                self.postings.remove(class);
            }
        }
    }

    /// Records containing at least one of the given classes, in id order.
    ///
    /// An empty query matches nothing (use a scan for class-free
    /// queries).
    #[must_use]
    pub fn candidates_any(&self, classes: &[ObjectClass]) -> Vec<RecordId> {
        let mut out = BTreeSet::new();
        for class in classes {
            if let Some(ids) = self.postings.get(class) {
                out.extend(ids.iter().copied());
            }
        }
        out.into_iter().collect()
    }

    /// Records containing *all* of the given classes, in id order.
    ///
    /// Intersects posting lists smallest-first. An empty query matches
    /// nothing.
    #[must_use]
    pub fn candidates_all(&self, classes: &[ObjectClass]) -> Vec<RecordId> {
        if classes.is_empty() {
            return Vec::new();
        }
        let mut lists: Vec<&BTreeSet<RecordId>> = Vec::with_capacity(classes.len());
        for class in classes {
            match self.postings.get(class) {
                Some(ids) => lists.push(ids),
                None => return Vec::new(),
            }
        }
        lists.sort_by_key(|l| l.len());
        let (first, rest) = lists.split_first().expect("non-empty");
        first
            .iter()
            .copied()
            .filter(|id| rest.iter().all(|l| l.contains(id)))
            .collect()
    }

    /// Number of distinct indexed classes.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.postings.len()
    }

    /// The distinct indexed classes, in order — lets aggregators (e.g.
    /// the sharded [`ReplicatedImageDatabase`](crate::ReplicatedImageDatabase))
    /// union class sets across indexes.
    pub fn classes(&self) -> impl Iterator<Item = &ObjectClass> {
        self.postings.keys()
    }

    /// Posting-list length for one class (0 when absent).
    #[must_use]
    pub fn postings_len(&self, class: &ObjectClass) -> usize {
        self.postings.get(class).map_or(0, BTreeSet::len)
    }

    /// Whether `id` appears in `class`'s posting list — the exact
    /// per-record membership probe the planner's dense-scan candidate
    /// strategy filters with.
    #[must_use]
    pub fn contains(&self, class: &ObjectClass, id: RecordId) -> bool {
        self.postings
            .get(class)
            .is_some_and(|ids| ids.contains(&id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(n: &str) -> ObjectClass {
        ObjectClass::new(n)
    }

    fn sample() -> ClassIndex {
        let mut idx = ClassIndex::new();
        idx.insert_record(RecordId(0), [class("A"), class("B")]);
        idx.insert_record(RecordId(1), [class("B"), class("C")]);
        idx.insert_record(RecordId(2), [class("C")]);
        idx
    }

    #[test]
    fn any_and_all_candidates() {
        let idx = sample();
        assert_eq!(
            idx.candidates_any(&[class("B")]),
            vec![RecordId(0), RecordId(1)]
        );
        assert_eq!(
            idx.candidates_any(&[class("A"), class("C")]),
            vec![RecordId(0), RecordId(1), RecordId(2)]
        );
        assert_eq!(
            idx.candidates_all(&[class("B"), class("C")]),
            vec![RecordId(1)]
        );
        assert_eq!(idx.candidates_all(&[class("A"), class("C")]), vec![]);
        assert!(idx.candidates_any(&[class("Z")]).is_empty());
        assert!(idx.candidates_all(&[class("Z")]).is_empty());
        assert!(idx.candidates_any(&[]).is_empty());
        assert!(idx.candidates_all(&[]).is_empty());
    }

    #[test]
    fn remove_record_cleans_postings() {
        let mut idx = sample();
        idx.remove_record(RecordId(1));
        assert_eq!(idx.candidates_any(&[class("B")]), vec![RecordId(0)]);
        assert_eq!(idx.candidates_any(&[class("C")]), vec![RecordId(2)]);
        idx.remove_record(RecordId(2));
        assert_eq!(idx.class_count(), 2, "empty posting lists dropped");
    }

    #[test]
    fn class_level_edits() {
        let mut idx = sample();
        idx.add_class(RecordId(2), class("A"));
        assert_eq!(
            idx.candidates_all(&[class("A"), class("C")]),
            vec![RecordId(2)]
        );
        idx.remove_class(RecordId(2), &class("A"));
        assert!(idx.candidates_all(&[class("A"), class("C")]).is_empty());
        // removing a class the record never had is a no-op
        idx.remove_class(RecordId(2), &class("Zed"));
        assert_eq!(idx.postings_len(&class("C")), 2);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut idx = ClassIndex::new();
        idx.insert_record(RecordId(0), [class("A"), class("A")]);
        idx.add_class(RecordId(0), class("A"));
        assert_eq!(idx.postings_len(&class("A")), 1);
    }

    #[test]
    fn serde_roundtrip() {
        let idx = sample();
        let json = serde_json::to_string(&idx).unwrap();
        let back: ClassIndex = serde_json::from_str(&json).unwrap();
        assert_eq!(idx, back);
    }
}

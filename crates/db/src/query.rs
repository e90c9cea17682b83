//! Query options and search results.

use be2d_core::{Similarity, SimilarityConfig};
use be2d_geometry::Transform;
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::database::RecordId;

/// Candidate prefiltering policy applied before scoring, answered
/// exactly by the inverted [`ClassIndex`](crate::ClassIndex).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PrefilterMode {
    /// Score every record.
    None,
    /// Keep records that share at least one class with the query.
    /// Default: a record sharing no class can only score via free-space
    /// dummies, which is never a useful hit.
    #[default]
    AnyClass,
    /// Keep records whose class set covers the whole query class set —
    /// for "find images containing all of these icons" queries.
    AllClasses,
}

impl fmt::Display for PrefilterMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefilterMode::None => f.write_str("none"),
            PrefilterMode::AnyClass => f.write_str("any-class"),
            PrefilterMode::AllClasses => f.write_str("all-classes"),
        }
    }
}

/// How one database *executes* its candidate generation — decided by
/// the database itself from its posting sizes (see
/// [`CandidatePlan`](crate::CandidatePlan)). Every strategy
/// produces the **same candidate set** for the same [`PrefilterMode`]
/// (that is what keeps rankings bit-identical); they differ only in
/// how the set is walked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum CandidateStrategy {
    /// Materialise candidate ids from the inverted-index posting lists
    /// (union or intersection), then fetch each record — sub-linear when
    /// the query classes are selective. Default, and what a search off
    /// the index path reports.
    #[default]
    IndexWalk,
    /// Iterate every record in id order and keep the ones whose exact
    /// posting membership passes the prefilter — cheaper than building
    /// a near-corpus-sized id union when the postings cover most of the
    /// shard. Same exact candidate set as [`IndexWalk`](Self::IndexWalk).
    DenseScan,
}

impl CandidateStrategy {
    /// Stable lower-case label (`"index-walk"` / `"dense-scan"`), used
    /// by traces and the server DTOs.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CandidateStrategy::IndexWalk => "index-walk",
            CandidateStrategy::DenseScan => "dense-scan",
        }
    }
}

impl fmt::Display for CandidateStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The field-less value of the retired two-stage request in
/// [`QueryOptions`]. It carries nothing, and the engine ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TwoStage {}

/// Parameters of one similarity search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryOptions {
    /// Keep at most this many results (`None` = all).
    pub top_k: Option<usize>,
    /// Drop results scoring below this floor.
    pub min_score: f64,
    /// Transforms to try for each record; the best-scoring one wins. Use
    /// [`Transform::ALL`] (or [`Transform::PAPER_SET`]) for
    /// rotation/reflection-invariant retrieval (§4).
    pub transforms: Vec<Transform>,
    /// Similarity evaluation configuration.
    pub config: SimilarityConfig,
    /// Candidate prefiltering policy.
    pub prefilter: PrefilterMode,
    /// Accepted and ignored: each search decides for itself whether to
    /// rank candidates by an admissible score bound (see
    /// [`ImageDatabase::search_bounded`](crate::ImageDatabase::search_bounded)),
    /// and results are bit-identical either way. Kept so that callers
    /// built against the old two-stage switch still compile.
    pub two_stage: Option<TwoStage>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            top_k: Some(10),
            min_score: 0.0,
            transforms: vec![Transform::Identity],
            config: SimilarityConfig::default(),
            prefilter: PrefilterMode::default(),
            two_stage: None,
        }
    }
}

impl QueryOptions {
    /// Preset for rotation/reflection-invariant retrieval over the
    /// paper's transform set.
    #[must_use]
    pub fn transform_invariant() -> Self {
        QueryOptions {
            transforms: Transform::PAPER_SET.to_vec(),
            ..QueryOptions::default()
        }
    }

    /// Returns a copy with a different `top_k`.
    #[must_use]
    pub fn with_top_k(mut self, k: Option<usize>) -> Self {
        self.top_k = k;
        self
    }

    /// Equal to [`QueryOptions::default`]: how many threads score the
    /// candidates is the database's own choice (see
    /// [`ImageDatabase::search`](crate::ImageDatabase::search)). Kept
    /// only because the standalone benchmark harness calls it.
    #[must_use]
    pub fn serving() -> Self {
        QueryOptions::default()
    }
}

/// One ranked search result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchHit {
    /// Stable record id.
    pub id: RecordId,
    /// The record's user-assigned name.
    pub name: String,
    /// Combined similarity score in `[0, 1]`.
    pub score: f64,
    /// The query transform that achieved the score.
    pub transform: Transform,
    /// Full per-axis evaluation breakdown.
    pub similarity: Similarity,
}

impl fmt::Display for SearchHit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}): {:.4} via {}",
            self.name, self.id, self.score, self.transform
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let o = QueryOptions::default();
        assert_eq!(o.top_k, Some(10));
        assert_eq!(o.transforms, vec![Transform::Identity]);
        assert_eq!(o.prefilter, PrefilterMode::AnyClass);
        assert_eq!(QueryOptions::serving(), o);
    }

    #[test]
    fn transform_invariant_preset() {
        let o = QueryOptions::transform_invariant();
        assert_eq!(o.transforms.len(), 6);
        assert!(o.transforms.contains(&Transform::Rotate180));
    }

    #[test]
    fn with_top_k() {
        let o = QueryOptions::default().with_top_k(None);
        assert_eq!(o.top_k, None);
    }

    #[test]
    fn prefilter_display() {
        assert_eq!(PrefilterMode::None.to_string(), "none");
        assert_eq!(PrefilterMode::AnyClass.to_string(), "any-class");
        assert_eq!(PrefilterMode::AllClasses.to_string(), "all-classes");
    }
}

//! Query options and search results.

use be2d_core::{Similarity, SimilarityConfig};
use be2d_geometry::Transform;
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::database::RecordId;

/// Candidate prefiltering policy applied before scoring (see
/// [`ClassSignature`](crate::ClassSignature)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PrefilterMode {
    /// Score every record.
    None,
    /// Keep records that (may) share at least one class with the query.
    /// Default: a record sharing no class can only score via free-space
    /// dummies, which is never a useful hit.
    #[default]
    AnyClass,
    /// Keep records whose class set (likely) covers the whole query class
    /// set — for "find images containing all of these icons" queries.
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

/// How the candidate set for a search is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum CandidateSource {
    /// Scan all records, applying the [`PrefilterMode`] via the per-record
    /// 64-bit class signature (O(records) with a tiny constant). Default.
    #[default]
    Scan,
    /// Generate candidates from the inverted
    /// [`ClassIndex`](crate::ClassIndex) posting lists — exact and
    /// sub-linear when the query classes are selective. Falls back to a
    /// full scan for class-free queries.
    ClassIndex,
}

impl fmt::Display for CandidateSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CandidateSource::Scan => f.write_str("scan"),
            CandidateSource::ClassIndex => f.write_str("class-index"),
        }
    }
}

/// How one database *executes* its candidate generation — decided by
/// the database itself from its posting sizes (see
/// [`CandidatePlan`](crate::CandidatePlan)). Every strategy
/// produces the **same candidate set** for the same
/// [`CandidateSource`]/[`PrefilterMode`] pair (that is what keeps
/// rankings bit-identical); they differ only in how the set is walked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum CandidateStrategy {
    /// Materialise candidate ids from the inverted-index posting lists
    /// (union or intersection), then fetch each record — sub-linear when
    /// the query classes are selective. Default, and the only strategy
    /// the scan-based [`CandidateSource::Scan`] path can report.
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

/// Whether candidate scoring runs on multiple threads.
///
/// The scan chunks the candidate set across scoped threads (see
/// [`ImageDatabase::search`](crate::ImageDatabase::search)). Spawning
/// threads is only worth it when there is enough scoring work to
/// amortise it, so the recommended production setting is [`Auto`]:
/// serial for small candidate sets, threaded beyond
/// [`AUTO_THRESHOLD`](Parallelism::AUTO_THRESHOLD) candidates.
///
/// [`Auto`]: Parallelism::Auto
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Parallelism {
    /// Single-threaded scoring. Default.
    #[default]
    Off,
    /// Multi-threaded scoring whenever the candidate set is non-trivial
    /// (at least [`MIN_CANDIDATES`](Parallelism::MIN_CANDIDATES)).
    On,
    /// Multi-threaded scoring only when the candidate set reaches
    /// [`AUTO_THRESHOLD`](Parallelism::AUTO_THRESHOLD) — the sweet spot
    /// for servers that see both tiny and huge candidate sets.
    Auto,
}

impl Parallelism {
    /// Below this many candidates the scan never goes multi-threaded:
    /// thread spawning would dominate the scoring work.
    pub const MIN_CANDIDATES: usize = 32;

    /// The candidate count at which [`Auto`](Parallelism::Auto) switches
    /// to the multi-threaded scan.
    pub const AUTO_THRESHOLD: usize = 192;

    /// Decides whether a scan over `candidates` records should use the
    /// multi-threaded path.
    #[must_use]
    pub fn enabled_for(self, candidates: usize) -> bool {
        match self {
            Parallelism::Off => false,
            Parallelism::On => candidates >= Parallelism::MIN_CANDIDATES,
            Parallelism::Auto => candidates >= Parallelism::AUTO_THRESHOLD,
        }
    }
}

impl From<bool> for Parallelism {
    fn from(on: bool) -> Self {
        if on {
            Parallelism::On
        } else {
            Parallelism::Off
        }
    }
}

impl fmt::Display for Parallelism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Parallelism::Off => f.write_str("off"),
            Parallelism::On => f.write_str("on"),
            Parallelism::Auto => f.write_str("auto"),
        }
    }
}

/// Configuration of two-stage retrieval: rank candidates by an
/// admissible score bound ([`QuerySketch`](crate::QuerySketch)), run
/// exact §3 scoring in `frontier`-sized batches from the best bound
/// down, and stop once the k-th exact score strictly dominates every
/// remaining bound.
///
/// Because the bound is admissible, the results — ids, scores,
/// tie-breaks — are bit-identical to the exhaustive scan; only the
/// number of exact scoring calls changes. See
/// [`QueryOptions::two_stage`] for a worked example and
/// `docs/ARCHITECTURE.md` for where the stage sits in the query
/// lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TwoStage {
    /// Candidates exactly scored per batch. Smaller frontiers
    /// terminate earlier but synchronise more often; zero is treated
    /// as one.
    pub frontier: usize,
}

impl TwoStage {
    /// Default frontier batch size: large enough to amortise a batch's
    /// bookkeeping, small enough that selective queries stop after one
    /// or two batches.
    pub const DEFAULT_FRONTIER: usize = 64;
}

impl Default for TwoStage {
    fn default() -> Self {
        TwoStage {
            frontier: TwoStage::DEFAULT_FRONTIER,
        }
    }
}

impl fmt::Display for TwoStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frontier={}", self.frontier)
    }
}

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
    /// How candidates are produced (signature scan vs inverted index).
    pub candidates: CandidateSource,
    /// Scan record chunks on multiple threads (see [`Parallelism`]).
    pub parallel: Parallelism,
    /// Two-stage retrieval: rank candidates by an admissible score
    /// bound and exact-score only a frontier (`None` = score every
    /// candidate). Results are bit-identical either way.
    ///
    /// # Example
    ///
    /// ```
    /// use be2d_db::{ImageDatabase, QueryOptions};
    /// use be2d_geometry::SceneBuilder;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut db = ImageDatabase::new();
    /// for i in 0..50i64 {
    ///     let scene = SceneBuilder::new(100, 100)
    ///         .object("A", (i % 7, i % 7 + 20, 0, 30))
    ///         .object("B", (40, 90, i % 11 + 5, i % 11 + 40))
    ///         .build()?;
    ///     db.insert_scene(&format!("img{i}"), &scene)?;
    /// }
    /// let query = SceneBuilder::new(100, 100)
    ///     .object("A", (3, 23, 0, 30))
    ///     .object("B", (40, 90, 10, 45))
    ///     .build()?;
    /// let exhaustive = db.search_scene(&query, &QueryOptions::default());
    /// let two_stage = db.search_scene(&query, &QueryOptions::default().with_two_stage(16));
    /// // The admissible bound makes the rankings bit-identical:
    /// assert_eq!(exhaustive.len(), two_stage.len());
    /// for (a, b) in exhaustive.iter().zip(&two_stage) {
    ///     assert_eq!(a.id, b.id);
    ///     assert_eq!(a.score.to_bits(), b.score.to_bits());
    /// }
    /// # Ok(())
    /// # }
    /// ```
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
            candidates: CandidateSource::default(),
            parallel: Parallelism::Off,
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

    /// Preset for online serving: candidates from the inverted class
    /// index and [`Parallelism::Auto`] scoring, so small queries stay
    /// cheap while large candidate sets use every core.
    #[must_use]
    pub fn serving() -> Self {
        QueryOptions {
            candidates: CandidateSource::ClassIndex,
            parallel: Parallelism::Auto,
            ..QueryOptions::default()
        }
    }

    /// Returns a copy with two-stage retrieval enabled at the given
    /// frontier batch size (see [`TwoStage`]; zero is treated as one).
    #[must_use]
    pub fn with_two_stage(mut self, frontier: usize) -> Self {
        self.two_stage = Some(TwoStage { frontier });
        self
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
        assert_eq!(o.parallel, Parallelism::Off);
    }

    #[test]
    fn serving_preset() {
        let o = QueryOptions::serving();
        assert_eq!(o.candidates, CandidateSource::ClassIndex);
        assert_eq!(o.parallel, Parallelism::Auto);
        assert_eq!(o.top_k, Some(10), "rest stays at the defaults");
    }

    #[test]
    fn parallelism_policy() {
        assert!(!Parallelism::Off.enabled_for(usize::MAX));
        assert!(!Parallelism::On.enabled_for(Parallelism::MIN_CANDIDATES - 1));
        assert!(Parallelism::On.enabled_for(Parallelism::MIN_CANDIDATES));
        assert!(!Parallelism::Auto.enabled_for(Parallelism::AUTO_THRESHOLD - 1));
        assert!(Parallelism::Auto.enabled_for(Parallelism::AUTO_THRESHOLD));
        assert_eq!(Parallelism::from(true), Parallelism::On);
        assert_eq!(Parallelism::from(false), Parallelism::Off);
        assert_eq!(Parallelism::Auto.to_string(), "auto");
        assert_eq!(Parallelism::default(), Parallelism::Off);
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
        assert_eq!(CandidateSource::Scan.to_string(), "scan");
        assert_eq!(CandidateSource::ClassIndex.to_string(), "class-index");
        assert_eq!(CandidateSource::default(), CandidateSource::Scan);
    }
}

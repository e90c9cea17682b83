//! The image database proper.

use crate::scatter::fan_out;
use crate::{
    CandidateStrategy, ClassIndex, DbError, PrefilterMode, QueryOptions, QuerySketch, ScoreSketch,
    SearchHit,
};
use be2d_core::{
    transformed, BeString2D, Boundary, ExactScorer, ScoreScratch, Similarity, SymbolicImage, LANES,
};
use be2d_geometry::{ObjectClass, Rect, Scene, Transform};
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Stable identifier of a record in one database.
///
/// Ids are assigned by insertion order and never reused after removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct RecordId(pub usize);

impl RecordId {
    /// The raw index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rec{}", self.0)
    }
}

/// One stored image: its symbolic picture plus retrieval metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageRecord {
    /// Stable id.
    pub id: RecordId,
    /// User-assigned name.
    pub name: String,
    /// The coordinate-annotated 2D BE-string (§3.2 stored form).
    pub symbolic: SymbolicImage,
    /// Score-bound sketch for bounded retrieval. Derived from
    /// `symbolic` and refreshed by every §3.2 edit.
    pub sketch: ScoreSketch,
}

impl ImageRecord {
    /// Recomputes the score-bound sketch from the symbolic picture and
    /// returns the picture's distinct classes.
    fn refresh_derived(&mut self) -> Vec<ObjectClass> {
        // Every object has one begin event per axis, so the x-axis
        // begins name each class present.
        let mut classes: Vec<ObjectClass> = self
            .symbolic
            .x()
            .events()
            .iter()
            .filter(|e| e.boundary == Boundary::Begin)
            .map(|e| e.class.clone())
            .collect();
        classes.sort_unstable();
        classes.dedup();
        self.sketch = ScoreSketch::of(&self.symbolic.to_be_string_2d());
        classes
    }
}

// Hand-written serde: the sketch field is *optional* on restore, so
// snapshots written before it existed (manifest v1–v4, plain JSON
// saves) still load — an absent, stale-versioned, or malformed sketch
// is recomputed from the symbolic picture, which is always correct
// because the sketch is derived data. A `signature` field, written by
// saves before candidates became exact, is ignored.
impl Serialize for ImageRecord {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("id".to_owned(), self.id.to_value()),
            ("name".to_owned(), self.name.to_value()),
            ("symbolic".to_owned(), self.symbolic.to_value()),
            ("sketch".to_owned(), self.sketch.to_value()),
        ])
    }
}

impl Deserialize for ImageRecord {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let Value::Map(entries) = v else {
            return Err(serde::Error::expected("ImageRecord", "map"));
        };
        let symbolic =
            SymbolicImage::from_value(serde::get_field(entries, "ImageRecord", "symbolic")?)?;
        let sketch = entries
            .iter()
            .find(|(k, _)| k == "sketch")
            .and_then(|(_, v)| ScoreSketch::from_value(v).ok())
            .unwrap_or_else(|| ScoreSketch::of(&symbolic.to_be_string_2d()));
        Ok(ImageRecord {
            id: RecordId::from_value(serde::get_field(entries, "ImageRecord", "id")?)?,
            name: String::from_value(serde::get_field(entries, "ImageRecord", "name")?)?,
            symbolic,
            sketch,
        })
    }
}

/// Scoring-effort accounting of one search, for metrics and traces:
/// how many candidates survived the prefilter, how many were exactly
/// scored, and how many a bounded search pruned by bound. Every
/// candidate is either scored or pruned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Candidates surviving the prefilter (stage-1 input).
    pub candidates: usize,
    /// Candidates exactly scored (stage-2 survivors).
    pub scored: usize,
    /// Candidates skipped because their admissible bound proved they
    /// cannot enter the result (always 0 when
    /// [`search_bounded`](ImageDatabase::search_bounded) scores
    /// directly).
    pub bound_pruned: usize,
    /// How the database produced its candidates.
    pub plan: CandidatePlan,
}

/// How one search produces its candidate set, decided by the database
/// from the query's classes, the [`PrefilterMode`] and its own
/// [`ClassIndex`] postings. The plan never changes *which* records are
/// candidates, only how they are found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CandidatePlan {
    /// Whether the inverted index produces the candidates: a search
    /// with a prefilter and a query that has classes. Otherwise every
    /// record is a candidate.
    pub index_path: bool,
    /// Upper bound on the candidate count: the smallest query-class
    /// posting under [`PrefilterMode::AllClasses`], the posting sum
    /// capped at the record count under [`PrefilterMode::AnyClass`],
    /// and the record count off the index path.
    pub estimate: usize,
    /// How the index path walks its candidates:
    /// [`CandidateStrategy::DenseScan`] when the estimate covers at
    /// least half of the records.
    pub strategy: CandidateStrategy,
}

impl CandidatePlan {
    /// Whether the candidate set is provably empty: an index-path plan
    /// whose postings hold no record.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.index_path && self.estimate == 0
    }
}

/// A monotone score floor shared across shards during one scatter.
///
/// Every shard that has gathered `top_k` retained hits publishes its
/// k-th exact score; since the *global* k-th score is at least the
/// maximum published value, any shard may stop scoring once every
/// remaining candidate's bound falls strictly below the shared floor —
/// the skipped candidates are provably outside the merged top-k.
///
/// Scores are non-negative, so their `f64` bit patterns order
/// monotonically and a relaxed `fetch_max` suffices (no lock on the
/// search path).
#[derive(Debug, Default)]
pub struct ScoreThreshold(AtomicU64);

impl ScoreThreshold {
    /// A fresh threshold admitting everything.
    #[must_use]
    pub fn new() -> Self {
        ScoreThreshold(AtomicU64::new(0.0f64.to_bits()))
    }

    /// Raises the floor to `score` if it is higher. Non-finite or
    /// negative scores are ignored (they never witness a top-k).
    pub fn raise(&self, score: f64) {
        if score > 0.0 && score.is_finite() {
            self.0.fetch_max(score.to_bits(), Ordering::Relaxed);
        }
    }

    /// The current floor.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// An in-memory image database of 2D BE-strings.
///
/// See the crate docs for an end-to-end example. All query entry points
/// are `&self` — scans never mutate — so a database wrapped in your
/// favourite shared-state primitive serves concurrent readers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ImageDatabase {
    /// Slot `i` holds record `i`. Ids are never reused, so a removed
    /// record leaves its slot dead for good; boxing keeps a dead slot
    /// one pointer wide instead of a whole inline record.
    records: Vec<Option<Box<ImageRecord>>>,
    index: ClassIndex,
}

impl ImageDatabase {
    /// Creates an empty database.
    #[must_use]
    pub fn new() -> Self {
        ImageDatabase::default()
    }

    /// Number of live records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.iter().filter(|r| r.is_some()).count()
    }

    /// Whether the database holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct object classes currently indexed.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.index.class_count()
    }

    /// Read access to the inverted class index (e.g. to union class
    /// sets across shards).
    #[must_use]
    pub fn class_index(&self) -> &ClassIndex {
        &self.index
    }

    /// Total number of objects across all live records.
    #[must_use]
    pub fn object_count(&self) -> usize {
        self.iter().map(|r| r.symbolic.object_count()).sum()
    }

    /// Indexes a scene: converts it with Algorithm 1 and stores the
    /// annotated string pair.
    ///
    /// # Errors
    ///
    /// Currently infallible for validated scenes; the `Result` reserves
    /// room for storage backends with real failure modes.
    pub fn insert_scene(&mut self, name: &str, scene: &Scene) -> Result<RecordId, DbError> {
        self.insert_symbolic(name, SymbolicImage::from_scene(scene))
    }

    /// Stores an already-converted symbolic picture.
    ///
    /// # Errors
    ///
    /// Currently infallible; see [`insert_scene`](Self::insert_scene).
    pub fn insert_symbolic(
        &mut self,
        name: &str,
        symbolic: SymbolicImage,
    ) -> Result<RecordId, DbError> {
        let id = RecordId(self.records.len());
        self.insert_symbolic_with_id(id, name, symbolic)?;
        Ok(id)
    }

    /// Stores a symbolic picture under a caller-chosen id, growing the
    /// record table with dead slots as needed.
    ///
    /// This is the primitive the sharded
    /// [`ReplicatedImageDatabase`](crate::ReplicatedImageDatabase) builds
    /// on: shards receive globally-assigned ids out of order, and restore
    /// re-routing replays records at their original slots. Plain callers
    /// should prefer [`insert_symbolic`](Self::insert_symbolic).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Persist`] when the slot already holds a live
    /// record (ids are never reused).
    pub fn insert_symbolic_with_id(
        &mut self,
        id: RecordId,
        name: &str,
        symbolic: SymbolicImage,
    ) -> Result<(), DbError> {
        if self.records.get(id.index()).is_some_and(Option::is_some) {
            return Err(DbError::Persist {
                reason: format!("record id {} is already occupied", id.index()),
            });
        }
        if self.records.len() <= id.index() {
            self.records.resize_with(id.index() + 1, || None);
        }
        let mut record = ImageRecord {
            id,
            name: name.to_owned(),
            symbolic,
            sketch: ScoreSketch::default(),
        };
        let classes = record.refresh_derived();
        self.index.insert_record(id, classes);
        self.records[id.index()] = Some(Box::new(record));
        Ok(())
    }

    /// The id the next plain [`insert_symbolic`](Self::insert_symbolic)
    /// would assign (= one past the highest slot ever used). Exposed so
    /// external id allocators (sharding, restore) can stay aligned with
    /// the never-reuse-ids guarantee.
    #[must_use]
    pub fn next_id(&self) -> usize {
        self.records.len()
    }

    /// Removes a record, returning it.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownRecord`] for dead or out-of-range ids.
    pub fn remove(&mut self, id: RecordId) -> Result<ImageRecord, DbError> {
        let record = self
            .records
            .get_mut(id.index())
            .and_then(Option::take)
            .ok_or(DbError::UnknownRecord { id: id.index() })?;
        self.index.remove_record(id);
        Ok(*record)
    }

    /// Looks up a record.
    #[must_use]
    pub fn get(&self, id: RecordId) -> Option<&ImageRecord> {
        self.records.get(id.index()).and_then(Option::as_deref)
    }

    /// Iterates live records in id order.
    pub fn iter(&self) -> impl Iterator<Item = &ImageRecord> {
        self.records.iter().filter_map(Option::as_deref)
    }

    /// Adds one object to a stored image **incrementally** (§3.2): binary
    /// search finds the boundary positions, no reconversion happens.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownRecord`] for dead ids or a BE-string
    /// error when the MBR does not fit the image frame.
    pub fn add_object(
        &mut self,
        id: RecordId,
        class: &ObjectClass,
        mbr: Rect,
    ) -> Result<(), DbError> {
        let record = self
            .records
            .get_mut(id.index())
            .and_then(Option::as_deref_mut)
            .ok_or(DbError::UnknownRecord { id: id.index() })?;
        record.symbolic.add_object(class, mbr)?;
        record.refresh_derived();
        self.index.add_class(id, class.clone());
        Ok(())
    }

    /// Drops one object from a stored image incrementally (§3.2).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownRecord`] for dead ids or
    /// [`BeStringError::ObjectNotFound`](be2d_core::BeStringError) when
    /// the object is absent.
    pub fn remove_object(
        &mut self,
        id: RecordId,
        class: &ObjectClass,
        mbr: Rect,
    ) -> Result<(), DbError> {
        let record = self
            .records
            .get_mut(id.index())
            .and_then(Option::as_deref_mut)
            .ok_or(DbError::UnknownRecord { id: id.index() })?;
        record.symbolic.remove_object(class, mbr)?;
        let classes = record.refresh_derived();
        // drop the posting only when the last object of the class went
        if !classes.contains(class) {
            self.index.remove_class(id, class);
        }
        Ok(())
    }

    /// Searches with a query scene (converted on the fly).
    #[must_use]
    pub fn search_scene(&self, query: &Scene, options: &QueryOptions) -> Vec<SearchHit> {
        self.search(&be2d_core::convert_scene(query), options)
    }

    /// Searches with textual BE-strings (the `Display` rendering, e.g.
    /// `"E A_b E A_e E"`), for ad-hoc queries from a console or config.
    ///
    /// # Errors
    ///
    /// Returns a [`BeStringError`](be2d_core::BeStringError) when either
    /// string fails to parse or the axes disagree on their object sets.
    pub fn search_text(
        &self,
        u: &str,
        v: &str,
        options: &QueryOptions,
    ) -> Result<Vec<SearchHit>, DbError> {
        let query = BeString2D::parse(u, v).map_err(DbError::from)?;
        Ok(self.search(&query, options))
    }

    /// Searches with a prepared 2D BE-string query.
    ///
    /// Every candidate surviving the prefilter is scored with the
    /// modified-LCS similarity for each transform in
    /// `options.transforms`; results are ranked by score (ties broken by
    /// id for determinism), floored at `min_score` and truncated to
    /// `top_k`. A batch of at least 192 candidates is scored in chunks
    /// on helper threads, one per core; the hits are identical either
    /// way.
    #[must_use]
    pub fn search(&self, query: &BeString2D, options: &QueryOptions) -> Vec<SearchHit> {
        self.search_bounded(query, options, None).0
    }

    /// [`search`](Self::search) plus its [`SearchStats`], with an
    /// optional cross-shard [`ScoreThreshold`].
    ///
    /// With a threshold the search is **bounded**: candidates are
    /// ranked by an admissible score bound
    /// ([`QuerySketch`](crate::QuerySketch)), exactly scored in batches
    /// of 64 from the best bound down, and the scan stops once every
    /// remaining bound falls strictly below the local k-th exact score
    /// or the shared floor. The threshold lets a scatter-gather caller
    /// propagate the best k-th exact score seen by *any* shard into
    /// every other shard's early-exit check; skipped candidates are
    /// provably below the global k-th score. Passing `None` scores
    /// every candidate directly. The results are bit-identical either
    /// way:
    ///
    /// ```
    /// use be2d_db::{ImageDatabase, QueryOptions, ScoreThreshold};
    /// use be2d_geometry::SceneBuilder;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut db = ImageDatabase::new();
    /// for i in 0..200i64 {
    ///     let scene = SceneBuilder::new(100, 100)
    ///         .object("A", (i % 7, i % 7 + 20, 0, 30))
    ///         .object("B", (40, 90, i % 11 + 5, i % 11 + 40))
    ///         .build()?;
    ///     db.insert_scene(&format!("img{i}"), &scene)?;
    /// }
    /// let query = be2d_core::convert_scene(
    ///     &SceneBuilder::new(100, 100)
    ///         .object("A", (3, 23, 0, 30))
    ///         .object("B", (40, 90, 10, 45))
    ///         .build()?,
    /// );
    /// let options = QueryOptions::default();
    /// let (direct, _) = db.search_bounded(&query, &options, None);
    /// let (bounded, stats) = db.search_bounded(&query, &options, Some(&ScoreThreshold::new()));
    /// assert_eq!(stats.candidates, stats.scored + stats.bound_pruned);
    /// assert_eq!(direct.len(), bounded.len());
    /// for (a, b) in direct.iter().zip(&bounded) {
    ///     assert_eq!(a.id, b.id);
    ///     assert_eq!(a.score.to_bits(), b.score.to_bits());
    /// }
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// The database plans its own candidate generation from its class
    /// index ([`CandidatePlan`], reported in [`SearchStats::plan`]): a
    /// provably empty candidate set returns at once, and dense postings
    /// are walked by [`CandidateStrategy::DenseScan`]. The plan never
    /// changes which records are candidates, so hits are identical
    /// whatever it decides.
    #[must_use]
    pub fn search_bounded(
        &self,
        query: &BeString2D,
        options: &QueryOptions,
        threshold: Option<&ScoreThreshold>,
    ) -> (Vec<SearchHit>, SearchStats) {
        let query_classes: Vec<ObjectClass> = query.class_counts().into_keys().collect();
        let plan = self.candidate_plan(&query_classes, options);
        self.search_with_plan(query, &query_classes, options, threshold, plan)
    }

    /// [`search_bounded`](Self::search_bounded) under a given plan.
    fn search_with_plan<'db>(
        &'db self,
        query: &BeString2D,
        query_classes: &[ObjectClass],
        options: &QueryOptions,
        threshold: Option<&ScoreThreshold>,
        plan: CandidatePlan,
    ) -> (Vec<SearchHit>, SearchStats) {
        let mut stats = SearchStats {
            plan,
            ..SearchStats::default()
        };
        if plan.is_empty() {
            return (Vec::new(), stats);
        }
        let transforms: &[Transform] = if options.transforms.is_empty() {
            &[Transform::Identity]
        } else {
            &options.transforms
        };
        let candidates = self.candidates(query_classes, options, plan);
        stats.candidates = candidates.len();

        // The query and its transformed variants are encoded once; each
        // worker scores its candidates through its own scratch, LANES
        // at a time, without materialising their strings.
        let scorer = ExactScorer::new(query, transforms, &options.config);
        let score_part = |part: &[&'db ImageRecord], scratch: &mut ScoreScratch| {
            let mut scored = Vec::with_capacity(part.len());
            scorer.score_images(part.iter().map(|r| &r.symbolic), scratch, &mut scored);
            part.iter()
                .zip(scored)
                .map(|(&record, (transform, similarity))| Scored {
                    record,
                    transform,
                    similarity,
                })
                .collect::<Vec<_>>()
        };

        // Exact scoring of one batch (the whole candidate set IS the
        // batch in the direct path). A large batch is split into at most
        // one chunk per core, each a whole number of LANES groups.
        let mut scratch = ScoreScratch::default();
        let mut score_batch = |batch: &[&'db ImageRecord]| -> Vec<Scored<'db>> {
            if batch.len() >= SPLIT_MIN_CANDIDATES {
                let threads = std::thread::available_parallelism()
                    .map_or(1, |n| n.get())
                    .min(16);
                let chunk = batch.len().div_ceil(threads).next_multiple_of(LANES);
                fan_out(batch.chunks(chunk), |part| {
                    score_part(part, &mut ScoreScratch::default())
                })
                .into_iter()
                .flatten()
                .collect()
            } else {
                score_part(batch, &mut scratch)
            }
        };

        let mut scored: Vec<Scored<'db>> = match threshold {
            Some(threshold) => {
                let variants: Vec<BeString2D> =
                    transforms.iter().map(|&t| transformed(query, t)).collect();
                let qsketch = QuerySketch::of_variants(&variants);
                bounded_scan(
                    &qsketch,
                    candidates,
                    options,
                    threshold,
                    &mut score_batch,
                    &mut stats,
                )
            }
            None => {
                stats.scored = candidates.len();
                score_batch(&candidates)
            }
        };

        scored.retain(|s| s.similarity.score >= options.min_score);
        scored.sort_by(|a, b| {
            b.similarity
                .score
                .total_cmp(&a.similarity.score)
                .then_with(|| a.record.id.cmp(&b.record.id))
        });
        if let Some(k) = options.top_k {
            scored.truncate(k);
        }
        let hits = scored
            .into_iter()
            .map(|s| SearchHit {
                id: s.record.id,
                name: s.record.name.clone(),
                score: s.similarity.score,
                transform: s.transform,
                similarity: s.similarity,
            })
            .collect();
        (hits, stats)
    }

    /// How a search for `query_classes` under `options` produces its
    /// candidates here: the one place the inverted-index path, the
    /// posting-size estimate, and the walk are decided.
    pub(crate) fn candidate_plan(
        &self,
        query_classes: &[ObjectClass],
        options: &QueryOptions,
    ) -> CandidatePlan {
        // The inverted index produces the candidate set directly; with
        // no prefilter or no query class every record is a candidate.
        let index_path = options.prefilter != PrefilterMode::None && !query_classes.is_empty();
        let len = self.len();
        let postings = query_classes.iter().map(|c| self.index.postings_len(c));
        let estimate = match (index_path, options.prefilter) {
            // Intersection size is at most the smallest posting.
            (true, PrefilterMode::AllClasses) => postings.min().unwrap_or(0),
            // Union size is at most the posting sum (and the database).
            (true, _) => postings.sum::<usize>().min(len),
            (false, _) => len,
        };
        // Postings covering most of the database make the posting
        // walk's near-corpus-sized id union slower than one dense pass
        // with exact membership probes.
        let strategy = if index_path && len > 0 && estimate.saturating_mul(2) >= len {
            CandidateStrategy::DenseScan
        } else {
            CandidateStrategy::IndexWalk
        };
        CandidatePlan {
            index_path,
            estimate,
            strategy,
        }
    }

    /// The records `plan` admits as candidates, in id order.
    fn candidates(
        &self,
        query_classes: &[ObjectClass],
        options: &QueryOptions,
        plan: CandidatePlan,
    ) -> Vec<&ImageRecord> {
        if !plan.index_path {
            return self.iter().collect();
        }
        let all = options.prefilter == PrefilterMode::AllClasses;
        match plan.strategy {
            CandidateStrategy::IndexWalk => {
                let ids = if all {
                    self.index.candidates_all(query_classes)
                } else {
                    self.index.candidates_any(query_classes)
                };
                ids.into_iter().filter_map(|id| self.get(id)).collect()
            }
            // Exact posting membership per record: the same set the
            // posting walk materialises, without building the
            // near-corpus-sized id union first.
            CandidateStrategy::DenseScan => self
                .iter()
                .filter(|r| {
                    let mut member = query_classes.iter().map(|c| self.index.contains(c, r.id));
                    if all {
                        member.all(|m| m)
                    } else {
                        member.any(|m| m)
                    }
                })
                .collect(),
        }
    }

    /// Serialises the database to JSON.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Persist`] when serde fails.
    pub fn to_json(&self) -> Result<String, DbError> {
        serde_json::to_string(self).map_err(|e| DbError::Persist {
            reason: e.to_string(),
        })
    }

    /// Restores a database from [`to_json`](Self::to_json) output.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Persist`] when the JSON is malformed.
    pub fn from_json(json: &str) -> Result<Self, DbError> {
        serde_json::from_str(json).map_err(|e| DbError::Persist {
            reason: e.to_string(),
        })
    }

    /// Saves the database to a file, **crash-safely**: the JSON is
    /// written to a temporary file in the target directory and then
    /// `rename`d into place, so a reader (or a crash mid-write) can
    /// never observe a truncated snapshot — it sees either the previous
    /// complete file or the new one.
    ///
    /// # Errors
    ///
    /// Propagates serialisation and I/O errors; rejects paths without a
    /// file name. On error the temporary file is removed and any
    /// previous snapshot at `path` is left untouched.
    pub fn save(&self, path: &Path) -> Result<(), DbError> {
        write_atomic(path, &self.to_json()?)
    }

    /// Loads a database from a file written by [`save`](Self::save).
    ///
    /// # Errors
    ///
    /// Propagates I/O and deserialisation errors.
    pub fn load(path: &Path) -> Result<Self, DbError> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }
}

/// Candidates exactly scored per batch of a bounded search: large
/// enough to amortise a batch's bookkeeping, small enough that
/// selective queries stop after one or two batches.
const FRONTIER: usize = 64;

/// A scoring batch of at least this many candidates is split across
/// threads; below it, thread spawns would dominate the scoring work.
/// [`FRONTIER`] batches stay below it, so a bounded scan scores serially.
const SPLIT_MIN_CANDIDATES: usize = 192;

/// Bound ranking + frontier loop of a bounded search.
///
/// Candidates are ranked by their admissible score bound (descending,
/// ids ascending for determinism) and exactly scored in
/// [`FRONTIER`]-sized batches. Before each batch the loop checks whether
/// the next (= highest remaining) bound falls **strictly** below
/// either the local k-th retained exact score or the shared
/// cross-shard floor; strict comparison is what preserves the
/// bit-identical id tie-break — a candidate whose bound *equals* the
/// k-th score could still tie it exactly and win on the smaller id.
fn bounded_scan<'db>(
    qsketch: &QuerySketch,
    candidates: Vec<&'db ImageRecord>,
    options: &QueryOptions,
    threshold: &ScoreThreshold,
    score_batch: &mut dyn FnMut(&[&'db ImageRecord]) -> Vec<Scored<'db>>,
    stats: &mut SearchStats,
) -> Vec<Scored<'db>> {
    // Stage 1: bound every candidate; drop the ones that provably
    // cannot reach the score floor (strict: a bound equal to the floor
    // may still be attained exactly).
    let mut ranked: Vec<(f64, &ImageRecord)> = candidates
        .into_iter()
        .filter_map(|record| {
            let bound = qsketch.bound(&record.sketch, &options.config);
            if bound.admits(options.min_score) {
                Some((bound.value(), record))
            } else {
                stats.bound_pruned += 1;
                None
            }
        })
        .collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.id.cmp(&b.1.id)));

    if options.top_k == Some(0) {
        // Nothing can be returned; skip all exact scoring.
        stats.bound_pruned += ranked.len();
        return Vec::new();
    }

    // The k best retained exact scores so far, as a min-heap (peek =
    // current k-th score).
    let mut kth_heap: std::collections::BinaryHeap<std::cmp::Reverse<OrderedScore>> =
        std::collections::BinaryHeap::new();
    let mut hits = Vec::new();
    let mut at = 0;
    while at < ranked.len() {
        let next_bound = ranked[at].0;
        let local_stop = options.top_k.is_some_and(|k| {
            kth_heap.len() == k
                && kth_heap
                    .peek()
                    .is_some_and(|std::cmp::Reverse(kth)| kth.0 > next_bound)
        });
        let shared_stop = threshold.get() > next_bound;
        if local_stop || shared_stop {
            stats.bound_pruned += ranked.len() - at;
            break;
        }
        let end = (at + FRONTIER).min(ranked.len());
        let batch: Vec<&ImageRecord> = ranked[at..end].iter().map(|&(_, r)| r).collect();
        let batch_hits = score_batch(&batch);
        stats.scored += batch_hits.len();
        if let Some(k) = options.top_k {
            for hit in &batch_hits {
                let score = hit.similarity.score;
                if score >= options.min_score {
                    kth_heap.push(std::cmp::Reverse(OrderedScore(score)));
                    if kth_heap.len() > k {
                        kth_heap.pop();
                    }
                }
            }
            // Publish the local k-th score: it witnesses k retained
            // hits at or above it, globally valid as a floor.
            if let (Some(std::cmp::Reverse(kth)), true) = (kth_heap.peek(), kth_heap.len() == k) {
                threshold.raise(kth.0);
            }
        }
        hits.extend(batch_hits);
        at = end;
    }
    hits
}

/// One exactly scored candidate. Ranking keeps these until the top-k
/// is known, so only the returned hits copy a record's name.
struct Scored<'db> {
    record: &'db ImageRecord,
    transform: Transform,
    similarity: Similarity,
}

/// `f64` score with total order, for the bounded scan's k-th-score heap.
/// Scores are never NaN (they are ratios of non-negative integers).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedScore(f64);

impl Eq for OrderedScore {}

impl PartialOrd for OrderedScore {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedScore {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Writes `json` to `path` **crash-safely**: temp file in the target
/// directory, `sync_all`, then `rename` into place. Shared by
/// [`ImageDatabase::save`] and the sharded snapshot writer.
pub(crate) fn write_atomic(path: &Path, json: &str) -> Result<(), DbError> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);

    let file_name = path
        .file_name()
        .ok_or_else(|| DbError::Persist {
            reason: format!("save path {} has no file name", path.display()),
        })?
        .to_string_lossy();
    // Unique per process+call, so concurrent saves to the same
    // target never clobber each other's temp file.
    let tmp_name = format!(
        ".{file_name}.tmp.{}.{}",
        std::process::id(),
        SAVE_SEQ.fetch_add(1, Ordering::Relaxed)
    );
    let tmp = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir.join(tmp_name),
        _ => std::path::PathBuf::from(tmp_name),
    };
    let write_synced = || -> std::io::Result<()> {
        use std::io::Write;
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(json.as_bytes())?;
        // The data blocks must be durable *before* the rename's
        // metadata, or a power loss could publish a truncated file
        // under the final name.
        file.sync_all()
    };
    write_synced()
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            DbError::from(e)
        })
}

impl ImageDatabase {
    /// Evaluates the similarity between a query and one specific record.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::UnknownRecord`] for dead ids.
    pub fn similarity_to(
        &self,
        query: &BeString2D,
        id: RecordId,
        options: &QueryOptions,
    ) -> Result<Similarity, DbError> {
        let record = self
            .get(id)
            .ok_or(DbError::UnknownRecord { id: id.index() })?;
        let mut scored = Vec::with_capacity(1);
        ExactScorer::new(query, &[Transform::Identity], &options.config).score_images(
            [&record.symbolic],
            &mut ScoreScratch::default(),
            &mut scored,
        );
        Ok(scored[0].1)
    }
}

#[cfg(test)]
#[allow(clippy::type_complexity)] // terse MBR tuples keep test fixtures readable
mod tests {
    use super::*;
    use be2d_geometry::SceneBuilder;

    fn scene(objs: &[(&str, (i64, i64, i64, i64))]) -> Scene {
        let mut b = SceneBuilder::new(100, 100);
        for (n, m) in objs {
            b = b.object(n, *m);
        }
        b.build().unwrap()
    }

    fn sample_db() -> (ImageDatabase, RecordId, RecordId, RecordId) {
        let mut db = ImageDatabase::new();
        let a = db
            .insert_scene(
                "ab",
                &scene(&[("A", (10, 30, 10, 30)), ("B", (50, 80, 50, 80))]),
            )
            .unwrap();
        let b = db
            .insert_scene(
                "ba",
                &scene(&[("B", (10, 30, 10, 30)), ("A", (50, 80, 50, 80))]),
            )
            .unwrap();
        let c = db
            .insert_scene("z", &scene(&[("Z", (20, 60, 20, 60))]))
            .unwrap();
        (db, a, b, c)
    }

    #[test]
    fn insert_get_remove() {
        let (mut db, a, _, _) = sample_db();
        assert_eq!(db.len(), 3);
        assert_eq!(db.get(a).unwrap().name, "ab");
        let removed = db.remove(a).unwrap();
        assert_eq!(removed.name, "ab");
        assert_eq!(db.len(), 2);
        assert!(db.get(a).is_none());
        assert!(db.remove(a).is_err(), "double remove");
        assert!(db.remove(RecordId(99)).is_err());
        // ids are not reused
        let d = db
            .insert_scene("d", &scene(&[("A", (0, 5, 0, 5))]))
            .unwrap();
        assert_eq!(d, RecordId(3));
    }

    #[test]
    fn exact_search_ranks_identical_first() {
        let (db, a, _, _) = sample_db();
        let hits = db.search_scene(
            &scene(&[("A", (10, 30, 10, 30)), ("B", (50, 80, 50, 80))]),
            &QueryOptions::default(),
        );
        assert_eq!(hits[0].id, a);
        assert!((hits[0].score - 1.0).abs() < 1e-12);
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn prefilter_excludes_unrelated_classes() {
        let (db, _, _, c) = sample_db();
        let query = scene(&[("A", (10, 30, 10, 30))]);
        let none = db.search_scene(
            &query,
            &QueryOptions {
                prefilter: PrefilterMode::None,
                top_k: None,
                ..Default::default()
            },
        );
        let any = db.search_scene(
            &query,
            &QueryOptions {
                prefilter: PrefilterMode::AnyClass,
                top_k: None,
                ..Default::default()
            },
        );
        assert_eq!(none.len(), 3);
        assert_eq!(any.len(), 2, "record z shares no class");
        assert!(!any.iter().any(|h| h.id == c));
    }

    #[test]
    fn all_classes_prefilter() {
        let (db, a, b, _) = sample_db();
        let query = scene(&[("A", (0, 9, 0, 9)), ("B", (10, 19, 10, 19))]);
        let hits = db.search_scene(
            &query,
            &QueryOptions {
                prefilter: PrefilterMode::AllClasses,
                top_k: None,
                ..Default::default()
            },
        );
        let ids: Vec<_> = hits.iter().map(|h| h.id).collect();
        assert!(ids.contains(&a) && ids.contains(&b));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn min_score_and_top_k() {
        let (db, _, _, _) = sample_db();
        let query = scene(&[("A", (10, 30, 10, 30)), ("B", (50, 80, 50, 80))]);
        let opts = QueryOptions {
            min_score: 0.99,
            prefilter: PrefilterMode::None,
            ..Default::default()
        };
        assert_eq!(db.search_scene(&query, &opts).len(), 1);
        let opts = QueryOptions {
            top_k: Some(2),
            prefilter: PrefilterMode::None,
            ..Default::default()
        };
        assert_eq!(db.search_scene(&query, &opts).len(), 2);
    }

    #[test]
    fn transform_invariant_search_finds_rotated_image() {
        let mut db = ImageDatabase::new();
        let base = scene(&[("A", (10, 40, 20, 60)), ("B", (50, 90, 40, 95))]);
        let rotated = base.transformed(Transform::Rotate90);
        let id = db.insert_scene("rotated", &rotated).unwrap();

        // plain search scores below 1; invariant search hits exactly
        let plain = db.search_scene(&base, &QueryOptions::default());
        assert!(plain[0].score < 1.0);
        let inv = db.search_scene(&base, &QueryOptions::transform_invariant());
        assert_eq!(inv[0].id, id);
        assert!((inv[0].score - 1.0).abs() < 1e-12);
        assert_eq!(inv[0].transform, Transform::Rotate90);
    }

    #[test]
    fn incremental_add_remove_object_matches_reindexing() {
        let (mut db, a, _, _) = sample_db();
        let extra = Rect::new(0, 9, 0, 9).unwrap();
        db.add_object(a, &ObjectClass::new("X"), extra).unwrap();

        let mut fresh = ImageDatabase::new();
        let fresh_id = fresh
            .insert_scene(
                "ab",
                &scene(&[
                    ("A", (10, 30, 10, 30)),
                    ("B", (50, 80, 50, 80)),
                    ("X", (0, 9, 0, 9)),
                ]),
            )
            .unwrap();
        assert_eq!(
            db.get(a).unwrap().symbolic.to_be_string_2d(),
            fresh.get(fresh_id).unwrap().symbolic.to_be_string_2d()
        );

        db.remove_object(a, &ObjectClass::new("X"), extra).unwrap();
        assert_eq!(db.get(a).unwrap().symbolic.object_count(), 2);
        assert!(db.remove_object(a, &ObjectClass::new("X"), extra).is_err());
        assert!(db
            .add_object(RecordId(99), &ObjectClass::new("X"), extra)
            .is_err());
    }

    #[test]
    fn index_and_sketch_track_edits() {
        let (mut db, a, _, _) = sample_db();
        let q = scene(&[("X", (0, 9, 0, 9))]);
        let before = db.search_scene(&q, &QueryOptions::default());
        assert!(before.iter().all(|h| h.id != a), "A record lacks class X");
        db.add_object(a, &ObjectClass::new("X"), Rect::new(0, 9, 0, 9).unwrap())
            .unwrap();
        let after = db.search_scene(&q, &QueryOptions::default());
        assert!(after.iter().any(|h| h.id == a));
        // The score sketch tracks §3.2 edits in lock-step: after every
        // add/remove it must equal a fresh sketch of the live BE-string.
        let record = db.get(a).unwrap();
        assert_eq!(
            record.sketch,
            ScoreSketch::of(&record.symbolic.to_be_string_2d()),
            "sketch stale after add_object"
        );
        db.remove_object(a, &ObjectClass::new("X"), Rect::new(0, 9, 0, 9).unwrap())
            .unwrap();
        let record = db.get(a).unwrap();
        assert_eq!(
            record.sketch,
            ScoreSketch::of(&record.symbolic.to_be_string_2d()),
            "sketch stale after remove_object"
        );
    }

    #[test]
    fn split_scan_matches_per_record_similarity() {
        // Past SPLIT_MIN_CANDIDATES with the no-prefilter scan, so the
        // batch is scored in chunks on helper threads.
        let mut db = ImageDatabase::new();
        for i in 0..(SPLIT_MIN_CANDIDATES as i64 + 11) {
            let s = scene(&[
                ("A", (i % 11, i % 11 + 15, 0, 25)),
                ("B", (40, 80, i % 17 + 5, i % 17 + 40)),
            ]);
            db.insert_scene(&format!("img{i}"), &s).unwrap();
        }
        let query =
            be2d_core::convert_scene(&scene(&[("A", (5, 20, 0, 25)), ("B", (40, 80, 10, 45))]));
        let options = QueryOptions {
            prefilter: PrefilterMode::None,
            top_k: None,
            ..Default::default()
        };
        let (hits, stats) = db.search_bounded(&query, &options, None);
        assert!(stats.candidates >= SPLIT_MIN_CANDIDATES);
        let mut want: Vec<(RecordId, f64)> = db
            .iter()
            .map(|r| {
                (
                    r.id,
                    db.similarity_to(&query, r.id, &options).unwrap().score,
                )
            })
            .collect();
        want.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        assert_eq!(hits.len(), want.len());
        for (hit, (id, score)) in hits.iter().zip(&want) {
            assert_eq!(hit.id, *id);
            assert_eq!(hit.score.to_bits(), score.to_bits());
        }
    }

    /// Both walks of the index path produce the same candidates and the
    /// same hits, whichever one the plan would pick: sparse and dense
    /// postings, any- and all-class prefilters, and an absent class
    /// whose hash collides with a present one in 64 bits (so a walk
    /// that filtered by a class hash would admit false candidates).
    #[test]
    fn index_walk_and_dense_scan_agree() {
        let bit = |name: &str| crate::signature::fnv1a(name.bytes()) % 64;
        let colliding = (0..10_000)
            .map(|n| format!("Z{n}"))
            .find(|name| bit(name) == bit("H"))
            .expect("some name shares H's hash bit");

        let mut db = ImageDatabase::new();
        for i in 0..40i64 {
            let mut objs = vec![
                ("H", (0, 10 + i % 7, 0, 10)),
                (["X", "Y"][(i % 2) as usize], (30, 60, 30, 60 + i % 5)),
            ];
            if i % 8 == 0 {
                objs.push(("R", (70, 80 + i % 3, 70, 80)));
            }
            db.insert_scene(&format!("img{i}"), &scene(&objs)).unwrap();
        }

        let queries = [
            scene(&[("R", (70, 81, 70, 80))]),
            scene(&[("H", (0, 12, 0, 10))]),
            scene(&[("R", (70, 81, 70, 80)), ("X", (30, 60, 30, 62))]),
            scene(&[
                ("H", (0, 12, 0, 10)),
                (colliding.as_str(), (40, 50, 40, 50)),
            ]),
            scene(&[(colliding.as_str(), (40, 50, 40, 50))]),
        ];
        let mut picked = Vec::new();
        for (qi, query) in queries.iter().enumerate() {
            let query = be2d_core::convert_scene(query);
            let classes: Vec<ObjectClass> = query.class_counts().into_keys().collect();
            for prefilter in [PrefilterMode::AnyClass, PrefilterMode::AllClasses] {
                let options = QueryOptions {
                    prefilter,
                    top_k: None,
                    ..Default::default()
                };
                let plan = db.candidate_plan(&classes, &options);
                assert!(plan.index_path, "q{qi} {prefilter}");
                picked.push((plan.strategy, plan.is_empty()));
                let walk = |strategy| {
                    let forced = CandidatePlan { strategy, ..plan };
                    let ids: Vec<RecordId> = db
                        .candidates(&classes, &options, forced)
                        .iter()
                        .map(|r| r.id)
                        .collect();
                    let (hits, _) = db.search_with_plan(&query, &classes, &options, None, forced);
                    (ids, hits)
                };
                let (walk_ids, walk_hits) = walk(CandidateStrategy::IndexWalk);
                let (dense_ids, dense_hits) = walk(CandidateStrategy::DenseScan);
                assert_eq!(walk_ids, dense_ids, "q{qi} {prefilter} candidates");
                let (hits, stats) = db.search_bounded(&query, &options, None);
                assert_eq!(stats.plan, plan);
                for other in [&walk_hits, &dense_hits] {
                    assert_eq!(other.len(), hits.len(), "q{qi} {prefilter} hits");
                    for (a, b) in hits.iter().zip(other) {
                        assert_eq!(a.id, b.id, "q{qi} {prefilter}");
                        assert_eq!(a.score.to_bits(), b.score.to_bits(), "q{qi} {prefilter}");
                    }
                }
            }
        }
        // The battery reaches every plan: sparse walk, dense scan, empty.
        assert!(picked.contains(&(CandidateStrategy::IndexWalk, false)));
        assert!(picked.contains(&(CandidateStrategy::DenseScan, false)));
        assert!(picked.iter().any(|&(_, empty)| empty));
    }

    #[test]
    fn class_free_query_admits_every_record() {
        let (db, _, _, _) = sample_db();
        let empty = Scene::new(10, 10).unwrap();
        let hits = db.search_scene(
            &empty,
            &QueryOptions {
                top_k: None,
                min_score: -1.0,
                ..Default::default()
            },
        );
        assert_eq!(hits.len(), 3, "class-free query matches all records");
    }

    #[test]
    fn index_reflects_object_removal() {
        let mut db = ImageDatabase::new();
        let id = db
            .insert_scene(
                "two-of-a",
                &scene(&[("A", (0, 5, 0, 5)), ("A", (10, 15, 10, 15))]),
            )
            .unwrap();
        let q = scene(&[("A", (0, 5, 0, 5))]);
        let opts = QueryOptions::default();
        db.remove_object(id, &ObjectClass::new("A"), Rect::new(0, 5, 0, 5).unwrap())
            .unwrap();
        assert_eq!(db.search_scene(&q, &opts).len(), 1, "one A remains indexed");
        db.remove_object(
            id,
            &ObjectClass::new("A"),
            Rect::new(10, 15, 10, 15).unwrap(),
        )
        .unwrap();
        assert!(
            db.search_scene(&q, &opts).is_empty(),
            "last A drops the posting"
        );
    }

    #[test]
    fn persistence_roundtrip() {
        let (db, _, _, _) = sample_db();
        let json = db.to_json().unwrap();
        let back = ImageDatabase::from_json(&json).unwrap();
        assert_eq!(db, back);
        assert!(ImageDatabase::from_json("{not json").is_err());
    }

    #[test]
    fn save_load_file() {
        let (db, _, _, _) = sample_db();
        let path = std::env::temp_dir().join("be2d_db_test.json");
        db.save(&path).unwrap();
        let back = ImageDatabase::load(&path).unwrap();
        assert_eq!(db, back);
        std::fs::remove_file(&path).ok();
        assert!(ImageDatabase::load(Path::new("/nonexistent/x.json")).is_err());
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("be2d_atomic_save_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.json");

        // Overwriting an existing snapshot goes through rename, and no
        // temp droppings survive a successful save.
        let (db, a, _, _) = sample_db();
        db.save(&path).unwrap();
        let mut edited = db.clone();
        edited.remove(a).unwrap();
        edited.save(&path).unwrap();
        assert_eq!(ImageDatabase::load(&path).unwrap(), edited);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n != "db.json")
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );

        // A failing save (missing directory) reports the error and the
        // old snapshot is untouched.
        assert!(db.save(&dir.join("missing").join("db.json")).is_err());
        assert!(db.save(Path::new("/")).is_err(), "path without file name");
        // A rename-stage failure (target name taken by a directory)
        // must clean its temp file up too.
        let blocked = dir.join("blocked");
        std::fs::create_dir_all(&blocked).unwrap();
        assert!(db.save(&blocked).is_err());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n != "db.json" && n != "blocked")
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        assert_eq!(ImageDatabase::load(&path).unwrap(), edited);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn similarity_to_specific_record() {
        let (db, a, _, _) = sample_db();
        let q = be2d_core::convert_scene(&scene(&[("A", (10, 30, 10, 30))]));
        let sim = db.similarity_to(&q, a, &QueryOptions::default()).unwrap();
        assert!(sim.score > 0.0 && sim.score < 1.0);
        assert!(db
            .similarity_to(&q, RecordId(99), &QueryOptions::default())
            .is_err());
    }

    #[test]
    fn search_text_parses_and_matches() {
        let (db, a, _, _) = sample_db();
        // the exact strings of record "ab"
        let target = db.get(a).unwrap().symbolic.to_be_string_2d();
        let hits = db
            .search_text(
                &target.x().to_string(),
                &target.y().to_string(),
                &QueryOptions::default(),
            )
            .unwrap();
        assert_eq!(hits[0].id, a);
        assert!((hits[0].score - 1.0).abs() < 1e-12);
        assert!(db
            .search_text("not a string", "E", &QueryOptions::default())
            .is_err());
        assert!(
            db.search_text("A_b E A_e", "B_b E B_e", &QueryOptions::default())
                .is_err(),
            "mismatched axes rejected"
        );
    }

    #[test]
    fn empty_database_search() {
        let db = ImageDatabase::new();
        assert!(db.is_empty());
        let hits = db.search_scene(&scene(&[("A", (0, 5, 0, 5))]), &QueryOptions::default());
        assert!(hits.is_empty());
    }
}

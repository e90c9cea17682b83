//! Admissible score bounds: cheap math before the expensive LCS.
//!
//! [`ScoreSketch`] / [`QuerySketch`] / [`ScoreBound`] are the quantised
//! per-image spatial sketch behind bounded retrieval
//! ([`ImageDatabase::search_bounded`](crate::ImageDatabase::search_bounded)):
//! a saturating per-bucket histogram of `(class, boundary)` symbols
//! plus a coarse relation-pair summary (quantised first/last position
//! intervals per bucket), per axis. From a query sketch and a stored
//! sketch the database computes an **admissible upper bound** on the
//! §3/§4 similarity score in O(buckets²), without touching the O(mn)
//! LCS. (Candidate prefiltering is exact and lives in the inverted
//! [`ClassIndex`](crate::ClassIndex).)
//!
//! # The admissibility contract
//!
//! For every query `Q`, stored image `D`, and
//! [`SimilarityConfig`](be2d_core::SimilarityConfig):
//!
//! ```text
//! QuerySketch::of(Q).bound(&ScoreSketch::of(D), cfg)  >=  similarity_with(Q, D, cfg).score
//! ```
//!
//! The bound is built from quantities that can only over-count what any
//! common subsequence of the two BE-strings may contain:
//!
//! * per bucket `b`, an LCS holds at most `min(count_Q(b), count_D(b))`
//!   boundary symbols of `b` (bucketing merges colliding classes, and
//!   `Σ min ≤ min(Σ, Σ)` keeps the merge admissible; saturated stored
//!   counts are treated as unbounded);
//! * if *all* bucket-`i` symbols precede *all* bucket-`j` symbols in
//!   `Q` but follow them in `D`, no common subsequence contains symbols
//!   of both buckets — a greedy vertex-disjoint matching of such
//!   conflicting pairs subtracts `min(overlap_i, overlap_j)` per
//!   matched pair (per-pair subtraction without the matching would
//!   over-subtract and break admissibility);
//! * the modified LCS of Algorithm 2 never holds two adjacent dummies,
//!   so its dummy count is at most `boundary_matches + 1` (and at most
//!   `min(dummies_Q, dummies_D)`, since a dummy only matches a dummy).
//!
//! The resulting per-axis length bounds feed the exact normalisation
//! formulas (the stored sketch carries the *exact* per-axis boundary
//! and dummy totals, so denominators are exact), and every
//! normalisation/axis-combine option is monotone in the LCS length —
//! so the score bound is admissible for every configuration, in `f64`
//! arithmetic (same divisors, monotone rounding). The bounded search
//! relies on exactly this contract to stay bit-identical to direct
//! scoring; the full pipeline is documented in
//! `docs/ARCHITECTURE.md` (query lifecycle → stage-1 bound ranking).

use be2d_core::{BeString, BeString2D, SimilarityConfig};
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// FNV-1a over a byte stream: deterministic across runs/platforms.
pub(crate) fn fnv1a<I: IntoIterator<Item = u8>>(bytes: I) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Buckets per axis in a [`ScoreSketch`] histogram. Distinct
/// `(class, boundary)` symbols hashing to the same bucket merge their
/// counts and position intervals, which loosens but never invalidates
/// the bound.
pub const SKETCH_BUCKETS: usize = 32;

/// Quantisation levels for the per-bucket position intervals.
const POS_QUANTA: u64 = 64;

/// Version marker stored with every serialised sketch. Records restored
/// from snapshots written before this sketch (or by a build with a
/// different sketch layout) recompute it from the symbolic picture.
pub(crate) const SKETCH_VERSION: i128 = 1;

/// One axis of a [`ScoreSketch`]: a saturating bucket histogram of the
/// boundary symbols with quantised first/last position intervals, plus
/// the exact boundary and dummy totals.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct AxisSketch {
    /// Boundary symbols per bucket, saturating at `u16::MAX` (a
    /// saturated count means "at least this many" and is treated as
    /// unbounded by the overlap math).
    counts: [u16; SKETCH_BUCKETS],
    /// Quantised (floor) position of the bucket's first symbol.
    first: [u8; SKETCH_BUCKETS],
    /// Quantised (ceil) position of the bucket's last symbol.
    last: [u8; SKETCH_BUCKETS],
    /// Exact boundary-symbol count of the axis string.
    boundaries: u32,
    /// Exact dummy count of the axis string.
    dummies: u32,
}

/// Quantises position `pos` of a length-`len` string into
/// `0..POS_QUANTA`, rounding down. Monotone in `pos`.
fn quant_floor(pos: usize, len: usize) -> u8 {
    if len <= 1 {
        return 0;
    }
    (pos as u64 * (POS_QUANTA - 1) / (len as u64 - 1)) as u8
}

/// Same quantisation rounding up, so `[first, last]` stored intervals
/// always contain the true positions.
fn quant_ceil(pos: usize, len: usize) -> u8 {
    if len <= 1 {
        return 0;
    }
    ((pos as u64 * (POS_QUANTA - 1)).div_ceil(len as u64 - 1)) as u8
}

impl AxisSketch {
    fn of(axis: &BeString) -> AxisSketch {
        let mut s = AxisSketch {
            counts: [0; SKETCH_BUCKETS],
            first: [0; SKETCH_BUCKETS],
            last: [0; SKETCH_BUCKETS],
            boundaries: 0,
            dummies: 0,
        };
        let len = axis.len();
        for (pos, sym) in axis.symbols().iter().enumerate() {
            let (Some(class), Some(boundary)) = (sym.class(), sym.boundary()) else {
                s.dummies += 1;
                continue;
            };
            s.boundaries += 1;
            let b = (fnv1a(class.name().bytes().chain([boundary as u8 + 1]))
                % SKETCH_BUCKETS as u64) as usize;
            let lo = quant_floor(pos, len);
            let hi = quant_ceil(pos, len);
            if s.counts[b] == 0 {
                s.first[b] = lo;
                s.last[b] = hi;
            } else {
                s.first[b] = s.first[b].min(lo);
                s.last[b] = s.last[b].max(hi);
            }
            s.counts[b] = s.counts[b].saturating_add(1);
        }
        s
    }

    /// Total symbol count of the axis string.
    fn total(&self) -> u64 {
        u64::from(self.boundaries) + u64::from(self.dummies)
    }
}

/// Upper bounds on the modified-LCS length of two axis strings, from
/// their sketches alone: `(full, boundary_only)` under the two counting
/// rules of [`SimilarityConfig::count_dummies`].
fn lcs_upper_bounds(q: &AxisSketch, t: &AxisSketch) -> (u64, u64) {
    // Exact totals cap everything: a common subsequence never exceeds
    // either string's boundary count.
    let cap = u64::from(q.boundaries.min(t.boundaries));
    let mut ov = [0u64; SKETCH_BUCKETS];
    for (b, slot) in ov.iter_mut().enumerate() {
        if q.counts[b] == 0 || t.counts[b] == 0 {
            continue;
        }
        // Saturated counts mean "at least 65535": fall back to the
        // other side (or the exact cap) so the bound stays admissible.
        let m = match (q.counts[b], t.counts[b]) {
            (u16::MAX, u16::MAX) => cap,
            (u16::MAX, c) | (c, u16::MAX) => u64::from(c),
            (a, b) => u64::from(a.min(b)),
        };
        *slot = m.min(cap);
    }
    let mut sum: u64 = ov.iter().sum();
    // Relation-pair tightening: if every bucket-i symbol precedes every
    // bucket-j symbol in the query but follows them in the target (or
    // vice versa), no common subsequence holds symbols of both buckets,
    // so the pair contributes at most max(ov_i, ov_j). Subtracting the
    // min over a vertex-disjoint matching keeps the sum admissible.
    let mut used = [false; SKETCH_BUCKETS];
    for i in 0..SKETCH_BUCKETS {
        if used[i] || ov[i] == 0 {
            continue;
        }
        for j in (i + 1)..SKETCH_BUCKETS {
            if used[j] || ov[j] == 0 {
                continue;
            }
            let q_ij = q.last[i] < q.first[j];
            let q_ji = q.last[j] < q.first[i];
            let t_ij = t.last[i] < t.first[j];
            let t_ji = t.last[j] < t.first[i];
            if (q_ij && t_ji) || (q_ji && t_ij) {
                used[i] = true;
                used[j] = true;
                sum -= ov[i].min(ov[j]);
                break;
            }
        }
    }
    let boundary_ub = sum.min(cap);
    // A dummy only matches a dummy, and Algorithm 2 never keeps two
    // adjacent dummies, so the LCS holds at most boundary_ub + 1 of
    // them.
    let dummy_ub = u64::from(q.dummies.min(t.dummies)).min(boundary_ub + 1);
    let full_ub = (boundary_ub + dummy_ub).min(q.total()).min(t.total());
    (full_ub, boundary_ub)
}

/// `a / b` with the same `0 / 0 = 1` convention the exact scorer uses.
#[allow(clippy::cast_precision_loss)] // lengths are far below 2^52
fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        if a == 0 {
            1.0
        } else {
            0.0
        }
    } else {
        a as f64 / b as f64
    }
}

/// Admissible upper bound on one axis score. Mirrors
/// `AxisSimilarity::evaluate` exactly, with the LCS length replaced by
/// its upper bound — same divisors, so `f64` rounding stays monotone.
#[allow(clippy::cast_precision_loss)]
fn axis_bound(q: &AxisSketch, t: &AxisSketch, cfg: &SimilarityConfig) -> f64 {
    use be2d_core::Normalization;
    let (full_ub, boundary_ub) = lcs_upper_bounds(q, t);
    let (lub, qlen, tlen) = if cfg.count_dummies {
        (full_ub, q.total(), t.total())
    } else {
        (
            boundary_ub,
            u64::from(q.boundaries),
            u64::from(t.boundaries),
        )
    };
    match cfg.normalization {
        Normalization::QueryCoverage => ratio(lub, qlen),
        Normalization::TargetCoverage => ratio(lub, tlen),
        Normalization::Dice => {
            if qlen + tlen == 0 {
                1.0
            } else {
                2.0 * lub as f64 / (qlen + tlen) as f64
            }
        }
    }
}

/// The quantised per-image spatial sketch stored with every record:
/// one axis sketch (bucketed symbol histogram + coarse position
/// intervals) per axis.
///
/// A sketch is derived data — recomputable from the symbolic picture at
/// any time — and is kept in sync by every §3.2 edit. Snapshots persist
/// it with a version marker; restoring a snapshot written before the
/// sketch existed (or with a different layout) silently recomputes it.
///
/// # Example
///
/// ```
/// use be2d_core::{convert_scene, similarity_with, SimilarityConfig};
/// use be2d_db::{QuerySketch, ScoreSketch};
/// use be2d_geometry::SceneBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let stored = convert_scene(
///     &SceneBuilder::new(100, 100)
///         .object("A", (10, 40, 10, 40))
///         .object("B", (50, 90, 50, 90))
///         .build()?,
/// );
/// let query = convert_scene(
///     &SceneBuilder::new(100, 100).object("A", (20, 50, 20, 50)).build()?,
/// );
/// let cfg = SimilarityConfig::default();
/// let bound = QuerySketch::of(&query).bound(&ScoreSketch::of(&stored), &cfg);
/// let exact = similarity_with(&query, &stored, &cfg).score;
/// assert!(bound.value() >= exact, "the bound is admissible");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct ScoreSketch {
    x: AxisSketch,
    y: AxisSketch,
}

impl ScoreSketch {
    /// Builds the sketch of a 2D BE-string.
    #[must_use]
    pub fn of(image: &BeString2D) -> ScoreSketch {
        ScoreSketch {
            x: AxisSketch::of(image.x()),
            y: AxisSketch::of(image.y()),
        }
    }
}

/// The query-side half of the bound: one [`ScoreSketch`] per query
/// transform, built once per search.
///
/// [`bound`](Self::bound) returns the maximum per-transform bound,
/// matching the best-transform-wins exact score.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySketch {
    variants: Vec<ScoreSketch>,
}

impl QuerySketch {
    /// Builds the sketch of a single (identity-transform) query.
    #[must_use]
    pub fn of(query: &BeString2D) -> QuerySketch {
        QuerySketch {
            variants: vec![ScoreSketch::of(query)],
        }
    }

    /// Builds the sketches of all transformed query variants. Falls
    /// back to an empty variant set bounding every score by 1.0 when
    /// the iterator is empty (searches always have at least one
    /// variant).
    pub fn of_variants<'a, I: IntoIterator<Item = &'a BeString2D>>(variants: I) -> QuerySketch {
        QuerySketch {
            variants: variants.into_iter().map(ScoreSketch::of).collect(),
        }
    }

    /// Admissible upper bound on the best-transform §3 similarity score
    /// between this query and an image with the given stored sketch.
    #[must_use]
    pub fn bound(&self, target: &ScoreSketch, cfg: &SimilarityConfig) -> ScoreBound {
        use be2d_core::AxisCombine;
        let mut best: f64 = if self.variants.is_empty() { 1.0 } else { 0.0 };
        for q in &self.variants {
            let bx = axis_bound(&q.x, &target.x, cfg);
            let by = axis_bound(&q.y, &target.y, cfg);
            let b = match cfg.axis_combine {
                AxisCombine::Mean => (bx + by) / 2.0,
                AxisCombine::Product => bx * by,
                AxisCombine::Min => bx.min(by),
            };
            best = best.max(b);
        }
        ScoreBound(best)
    }
}

/// An admissible upper bound on a similarity score: for the query and
/// stored image it was computed from, the exact
/// [`similarity_with`](be2d_core::similarity_with) score under the same
/// [`SimilarityConfig`](be2d_core::SimilarityConfig) never exceeds
/// [`value()`](Self::value).
///
/// A bounded search sorts candidates by this bound and stops scoring
/// once the k-th exact score strictly dominates every remaining bound —
/// admissibility is what makes that early exit lossless.
///
/// # Example
///
/// ```
/// use be2d_core::{convert_scene, similarity, SimilarityConfig};
/// use be2d_db::{QuerySketch, ScoreSketch};
/// use be2d_geometry::SceneBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let scene = SceneBuilder::new(50, 50).object("A", (5, 20, 5, 20)).build()?;
/// let image = convert_scene(&scene);
/// let bound = QuerySketch::of(&image)
///     .bound(&ScoreSketch::of(&image), &SimilarityConfig::default());
/// // A self-match scores 1.0, so its admissible bound is exactly 1.0.
/// assert!(bound.admits(1.0));
/// assert!(bound.value() <= 1.0);
/// assert_eq!(similarity(&image, &image).score, 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct ScoreBound(f64);

impl ScoreBound {
    /// The bound as a plain score in `[0, 1]`.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Whether a candidate with this bound could still reach `floor` —
    /// `false` means the exact score is provably below `floor` and the
    /// candidate can be skipped without scoring.
    #[must_use]
    pub fn admits(self, floor: f64) -> bool {
        self.0 >= floor
    }
}

impl fmt::Display for ScoreBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<= {:.4}", self.0)
    }
}

// Hand-written serde: the sketch is persisted inside every record with
// a version marker, and arrays/versioning sit outside the derive shim's
// vocabulary. `ImageRecord`'s deserializer treats *any* sketch parse
// failure as "stale format, recompute from the symbolic picture".
impl Serialize for AxisSketch {
    fn to_value(&self) -> Value {
        let ints = |it: &mut dyn Iterator<Item = i128>| Value::Seq(it.map(Value::Int).collect());
        Value::Map(vec![
            (
                "counts".to_owned(),
                ints(&mut self.counts.iter().map(|&c| i128::from(c))),
            ),
            (
                "first".to_owned(),
                ints(&mut self.first.iter().map(|&c| i128::from(c))),
            ),
            (
                "last".to_owned(),
                ints(&mut self.last.iter().map(|&c| i128::from(c))),
            ),
            ("boundaries".to_owned(), self.boundaries.to_value()),
            ("dummies".to_owned(), self.dummies.to_value()),
        ])
    }
}

impl Deserialize for AxisSketch {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let Value::Map(entries) = v else {
            return Err(serde::Error::expected("AxisSketch", "map"));
        };
        fn ints<T, const N: usize>(v: &Value, field: &str) -> Result<[T; N], serde::Error>
        where
            T: TryFrom<i128> + Copy + Default,
        {
            let Value::Seq(items) = v else {
                return Err(serde::Error::expected("AxisSketch", "sequence"));
            };
            if items.len() != N {
                return Err(serde::Error::custom(format!(
                    "AxisSketch.{field}: expected {N} entries, got {}",
                    items.len()
                )));
            }
            let mut out = [T::default(); N];
            for (slot, item) in out.iter_mut().zip(items) {
                let Value::Int(i) = item else {
                    return Err(serde::Error::expected("AxisSketch", "integer"));
                };
                *slot = T::try_from(*i)
                    .map_err(|_| serde::Error::custom("AxisSketch: count out of range"))?;
            }
            Ok(out)
        }
        Ok(AxisSketch {
            counts: ints(serde::get_field(entries, "AxisSketch", "counts")?, "counts")?,
            first: ints(serde::get_field(entries, "AxisSketch", "first")?, "first")?,
            last: ints(serde::get_field(entries, "AxisSketch", "last")?, "last")?,
            boundaries: u32::from_value(serde::get_field(entries, "AxisSketch", "boundaries")?)?,
            dummies: u32::from_value(serde::get_field(entries, "AxisSketch", "dummies")?)?,
        })
    }
}

impl Serialize for ScoreSketch {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("v".to_owned(), Value::Int(SKETCH_VERSION)),
            ("x".to_owned(), self.x.to_value()),
            ("y".to_owned(), self.y.to_value()),
        ])
    }
}

impl Deserialize for ScoreSketch {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let Value::Map(entries) = v else {
            return Err(serde::Error::expected("ScoreSketch", "map"));
        };
        match serde::get_field(entries, "ScoreSketch", "v")? {
            Value::Int(i) if *i == SKETCH_VERSION => {}
            other => {
                return Err(serde::Error::custom(format!(
                    "ScoreSketch: unsupported version {other:?}"
                )))
            }
        }
        Ok(ScoreSketch {
            x: AxisSketch::from_value(serde::get_field(entries, "ScoreSketch", "x")?)?,
            y: AxisSketch::from_value(serde::get_field(entries, "ScoreSketch", "y")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use be2d_core::{convert_scene, similarity_with, transformed, AxisCombine, Normalization};
    use be2d_geometry::{Scene, SceneBuilder, Transform};

    fn all_configs() -> Vec<SimilarityConfig> {
        let mut out = Vec::new();
        for normalization in [
            Normalization::QueryCoverage,
            Normalization::TargetCoverage,
            Normalization::Dice,
        ] {
            for axis_combine in [AxisCombine::Mean, AxisCombine::Product, AxisCombine::Min] {
                for count_dummies in [false, true] {
                    out.push(SimilarityConfig {
                        normalization,
                        axis_combine,
                        count_dummies,
                    });
                }
            }
        }
        out
    }

    /// Deterministic pseudo-random scene built from a seed.
    fn pseudo_scene(seed: u64, objects: usize) -> Scene {
        let mut b = SceneBuilder::new(200, 200);
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let classes = ["A", "B", "C", "tree", "car", "E9"];
        for _ in 0..objects {
            let c = classes[(next() % classes.len() as u64) as usize];
            let x0 = (next() % 150) as i64;
            let y0 = (next() % 150) as i64;
            let w = (next() % 40) as i64 + 2;
            let h = (next() % 40) as i64 + 2;
            b = b.object(c, (x0, x0 + w, y0, y0 + h));
        }
        b.build().unwrap()
    }

    #[test]
    fn bound_is_admissible_for_every_config_and_transform() {
        let cfgs = all_configs();
        for qi in 0..8u64 {
            let query = convert_scene(&pseudo_scene(qi + 1, (qi % 5) as usize + 1));
            let variants: Vec<BeString2D> = Transform::ALL
                .iter()
                .map(|&t| transformed(&query, t))
                .collect();
            let qsketch = QuerySketch::of_variants(variants.iter());
            for ti in 0..8u64 {
                let target = convert_scene(&pseudo_scene(ti + 100, (ti % 6) as usize));
                let tsketch = ScoreSketch::of(&target);
                for cfg in &cfgs {
                    let exact = variants
                        .iter()
                        .map(|q| similarity_with(q, &target, cfg).score)
                        .fold(0.0f64, f64::max);
                    let bound = qsketch.bound(&tsketch, cfg).value();
                    assert!(
                        bound >= exact,
                        "inadmissible bound {bound} < {exact} (q={qi} t={ti} cfg={cfg:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn self_match_bound_is_tight_at_one() {
        let image = convert_scene(&pseudo_scene(7, 4));
        let sketch = ScoreSketch::of(&image);
        for cfg in all_configs() {
            let bound = QuerySketch::of(&image).bound(&sketch, &cfg);
            assert!(bound.admits(1.0), "self-match must stay reachable");
            assert!(bound.value() <= 1.0 + 1e-12, "scores live in [0, 1]");
        }
    }

    #[test]
    fn disjoint_relation_order_tightens_bound() {
        // A strictly left of B in one image, strictly right in the
        // other: same class multiset, conflicting relation pair. The
        // relation-pair summary must price the conflict in.
        let ab = convert_scene(
            &SceneBuilder::new(100, 100)
                .object("A", (5, 20, 40, 60))
                .object("B", (60, 90, 40, 60))
                .build()
                .unwrap(),
        );
        let ba = convert_scene(
            &SceneBuilder::new(100, 100)
                .object("B", (5, 20, 40, 60))
                .object("A", (60, 90, 40, 60))
                .build()
                .unwrap(),
        );
        let cfg = SimilarityConfig {
            count_dummies: false,
            ..SimilarityConfig::default()
        };
        let same = QuerySketch::of(&ab)
            .bound(&ScoreSketch::of(&ab), &cfg)
            .value();
        let flipped = QuerySketch::of(&ab)
            .bound(&ScoreSketch::of(&ba), &cfg)
            .value();
        assert!(
            flipped < same,
            "conflicting pair must lower the bound ({flipped} !< {same})"
        );
        let exact = similarity_with(&ab, &ba, &cfg).score;
        assert!(flipped >= exact);
    }

    #[test]
    fn empty_image_sketch() {
        let empty = convert_scene(&Scene::new(10, 10).unwrap());
        let sketch = ScoreSketch::of(&empty);
        for cfg in all_configs() {
            let bound = QuerySketch::of(&empty).bound(&sketch, &cfg).value();
            let exact = similarity_with(&empty, &empty, &cfg).score;
            assert!(bound >= exact, "{cfg:?}: {bound} < {exact}");
            assert!((bound - 1.0).abs() < 1e-12, "empty matches empty exactly");
        }
        // empty query vs non-empty image, both directions
        let img = convert_scene(&pseudo_scene(3, 3));
        for cfg in all_configs() {
            let b1 = QuerySketch::of(&empty)
                .bound(&ScoreSketch::of(&img), &cfg)
                .value();
            let e1 = similarity_with(&empty, &img, &cfg).score;
            assert!(b1 >= e1, "{cfg:?}");
            let b2 = QuerySketch::of(&img).bound(&sketch, &cfg).value();
            let e2 = similarity_with(&img, &empty, &cfg).score;
            assert!(b2 >= e2, "{cfg:?}");
        }
    }

    #[test]
    fn many_classes_saturate_buckets_not_correctness() {
        // 80 distinct classes — more than SKETCH_BUCKETS — every
        // bucket collides somewhere.
        let mut b = SceneBuilder::new(2000, 2000);
        for i in 0..80i64 {
            let x = (i % 40) * 45;
            let y = (i / 40) * 600;
            b = b.object(&format!("c{i}"), (x, x + 40, y, y + 500));
        }
        let crowded = convert_scene(&b.build().unwrap());
        let sparse = convert_scene(&pseudo_scene(11, 3));
        for cfg in all_configs() {
            for (q, t) in [
                (&crowded, &sparse),
                (&sparse, &crowded),
                (&crowded, &crowded),
            ] {
                let bound = QuerySketch::of(q).bound(&ScoreSketch::of(t), &cfg).value();
                let exact = similarity_with(q, t, &cfg).score;
                assert!(bound >= exact, "{cfg:?}: {bound} < {exact}");
            }
        }
    }

    #[test]
    fn sketch_serde_roundtrip_and_versioning() {
        let sketch = ScoreSketch::of(&convert_scene(&pseudo_scene(5, 4)));
        let v = sketch.to_value();
        let back = ScoreSketch::from_value(&v).unwrap();
        assert_eq!(sketch, back);
        // a version bump must be rejected (the record recomputes)
        let Value::Map(mut entries) = v else {
            panic!("sketch serialises to a map")
        };
        entries[0].1 = Value::Int(SKETCH_VERSION + 1);
        assert!(ScoreSketch::from_value(&Value::Map(entries)).is_err());
        assert!(ScoreSketch::from_value(&Value::Null).is_err());
    }

    #[test]
    fn score_bound_display() {
        let image = convert_scene(&pseudo_scene(2, 2));
        let b =
            QuerySketch::of(&image).bound(&ScoreSketch::of(&image), &SimilarityConfig::default());
        assert!(b.to_string().starts_with("<= "));
    }
}

//! The §4 similarity evaluation process built on the modified LCS.
//!
//! The paper deliberately scores *graded* similarity: "not only those
//! images which all of the icons and their spatial relationships fully
//! accord with the query image can be sifted out, but also those images
//! which partial of icons and/or spatial relationships are similar". The
//! LCS length is the raw measure; this module normalises it into a
//! `[0, 1]` score per axis and combines the axes.
//!
//! The paper leaves the final scalar open ("evaluate this LCS string with
//! respect to 2D BE-strings of query image and database image"), so the
//! normalisation and combination are configurable via
//! [`SimilarityConfig`]; the default (Dice over all symbols, mean of axes)
//! is symmetric and rewards both precision and recall of spatial
//! relationships. The ablation bench `exp_ablation` compares the options.

use crate::lcs::{boundary_lengths, lane_lengths, ClassCodes, KernelScratch, LaneAxis, LANES};
use crate::{transformed, BeString2D, SymbolicImage};
use be2d_geometry::Transform;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How a raw per-axis LCS length is normalised into `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Normalization {
    /// `L / |Q|`: how much of the *query* is covered — recall-like, the
    /// natural choice when the query is a partial sketch of the target.
    QueryCoverage,
    /// `L / |D|`: how much of the *database image* is covered —
    /// precision-like, penalises large cluttered images.
    TargetCoverage,
    /// `2L / (|Q| + |D|)`: the Dice coefficient, symmetric. Default.
    #[default]
    Dice,
}

impl fmt::Display for Normalization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Normalization::QueryCoverage => "query-coverage",
            Normalization::TargetCoverage => "target-coverage",
            Normalization::Dice => "dice",
        };
        f.write_str(name)
    }
}

/// How the two axis scores combine into one image score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum AxisCombine {
    /// Arithmetic mean of the x and y scores. Default.
    #[default]
    Mean,
    /// Product of the axis scores — stricter, both axes must agree.
    Product,
    /// Minimum of the axis scores — the weakest-axis bound.
    Min,
}

impl fmt::Display for AxisCombine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AxisCombine::Mean => "mean",
            AxisCombine::Product => "product",
            AxisCombine::Min => "min",
        };
        f.write_str(name)
    }
}

/// Configuration of the similarity evaluation process.
///
/// # Example
///
/// ```
/// use be2d_core::{SimilarityConfig, Normalization, AxisCombine};
///
/// let strict = SimilarityConfig {
///     normalization: Normalization::QueryCoverage,
///     axis_combine: AxisCombine::Product,
///     count_dummies: false,
/// };
/// assert_ne!(strict, SimilarityConfig::default());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SimilarityConfig {
    /// Length normalisation per axis.
    pub normalization: Normalization,
    /// Combination of the two axis scores.
    pub axis_combine: AxisCombine,
    /// Whether dummy objects count towards lengths (`true`, the paper's
    /// storage-unit view) or only boundary symbols do (`false`,
    /// "objects-and-relations only").
    pub count_dummies: bool,
}

impl Default for SimilarityConfig {
    fn default() -> Self {
        SimilarityConfig {
            normalization: Normalization::default(),
            axis_combine: AxisCombine::default(),
            count_dummies: true,
        }
    }
}

/// Per-axis outcome of the similarity evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AxisSimilarity {
    /// Raw LCS length under the configured counting rule.
    pub lcs_len: usize,
    /// Query string length under the configured counting rule.
    pub query_len: usize,
    /// Database string length under the configured counting rule.
    pub target_len: usize,
    /// Normalised score in `[0, 1]`.
    pub score: f64,
}

impl AxisSimilarity {
    /// Normalises one axis's counts under `cfg` — the only place the
    /// per-axis score expression lives.
    fn from_counts(
        lcs_len: usize,
        query_len: usize,
        target_len: usize,
        cfg: &SimilarityConfig,
    ) -> AxisSimilarity {
        let score = match cfg.normalization {
            Normalization::QueryCoverage => ratio(lcs_len, query_len),
            Normalization::TargetCoverage => ratio(lcs_len, target_len),
            Normalization::Dice => {
                if query_len + target_len == 0 {
                    1.0
                } else {
                    2.0 * lcs_len as f64 / (query_len + target_len) as f64
                }
            }
        };
        AxisSimilarity {
            lcs_len,
            query_len,
            target_len,
            score,
        }
    }
}

/// `a / b` with the convention `0 / 0 = 1` (two empty images are
/// identical) and `x / 0 = 0` otherwise.
fn ratio(a: usize, b: usize) -> f64 {
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

/// Full outcome of evaluating a query against one database image.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Similarity {
    /// X-axis evaluation.
    pub x: AxisSimilarity,
    /// Y-axis evaluation.
    pub y: AxisSimilarity,
    /// Combined score in `[0, 1]`.
    pub score: f64,
}

/// Evaluates the similarity of two 2D BE-strings with the default
/// configuration.
///
/// # Example
///
/// ```
/// use be2d_core::{convert_scene, similarity};
/// use be2d_geometry::SceneBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let full = convert_scene(
///     &SceneBuilder::new(100, 100)
///         .object("A", (10, 40, 10, 40))
///         .object("B", (50, 90, 50, 90))
///         .build()?,
/// );
/// let partial = convert_scene(
///     &SceneBuilder::new(100, 100).object("A", (10, 40, 10, 40)).build()?,
/// );
/// let sim = similarity(&partial, &full);
/// assert!(sim.score > 0.4 && sim.score < 1.0);
/// assert_eq!(similarity(&full, &full).score, 1.0);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn similarity(query: &BeString2D, target: &BeString2D) -> Similarity {
    similarity_with(query, target, &SimilarityConfig::default())
}

impl Similarity {
    /// Combines the two axis evaluations under `cfg`.
    fn combine(x: AxisSimilarity, y: AxisSimilarity, cfg: &SimilarityConfig) -> Similarity {
        let score = match cfg.axis_combine {
            AxisCombine::Mean => (x.score + y.score) / 2.0,
            AxisCombine::Product => x.score * y.score,
            AxisCombine::Min => x.score.min(y.score),
        };
        Similarity { x, y, score }
    }
}

/// Evaluates the similarity of two 2D BE-strings under an explicit
/// configuration.
#[must_use]
pub fn similarity_with(
    query: &BeString2D,
    target: &BeString2D,
    cfg: &SimilarityConfig,
) -> Similarity {
    ExactScorer::new(query, &[Transform::Identity], cfg)
        .score_one(target)
        .1
}

/// Evaluates a query against a target under every transform in
/// `transforms`, returning the best-scoring transform and its similarity.
///
/// This is the paper's §4 rotation/reflection retrieval: "our approaches
/// only need to reverse the string then apply the similarity retrieval and
/// evaluation" — each candidate transform is a string reversal/axis swap
/// (see [`transformed`](crate::transform::transformed)), not a geometric
/// recomputation. When several transforms tie for the best score, the
/// last of them in `transforms` wins (the [`Iterator::max_by`] rule).
///
/// Returns `None` when `transforms` is empty.
#[must_use]
pub fn best_transform_similarity(
    query: &BeString2D,
    target: &BeString2D,
    transforms: &[Transform],
    cfg: &SimilarityConfig,
) -> Option<(Transform, Similarity)> {
    (!transforms.is_empty()).then(|| ExactScorer::new(query, transforms, cfg).score_one(target))
}

/// One query transform, integer-coded.
#[derive(Debug, Clone)]
struct CodedVariant {
    transform: Transform,
    x: Vec<u32>,
    y: Vec<u32>,
    /// Boundary symbol counts of `x` and `y`.
    x_boundaries: usize,
    y_boundaries: usize,
}

/// The exact §4 scorer: one query, prepared once, scored against many
/// targets.
///
/// Construction numbers the query's classes and encodes every
/// transformed query variant as integer codes (see the
/// [`LcsTable`](crate::LcsTable) module docs). Scoring then encodes each
/// target straight into a [`ScoreScratch`] — a stored
/// [`SymbolicImage`] from its boundary events, without materialising
/// its strings — and runs the modified LCS on [`LANES`] targets per
/// pass. Every result is bit-identical to
/// [`best_transform_similarity`] on the materialised strings, which is
/// itself a one-target use of this scorer.
///
/// # Example
///
/// ```
/// use be2d_core::{best_transform_similarity, convert_scene, ExactScorer, ScoreScratch,
///     SimilarityConfig, SymbolicImage};
/// use be2d_geometry::{SceneBuilder, Transform};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let scene = SceneBuilder::new(100, 100)
///     .object("A", (10, 40, 20, 60))
///     .object("B", (50, 90, 40, 95))
///     .build()?;
/// let stored = SymbolicImage::from_scene(&scene);
/// let query = convert_scene(&scene.transformed(Transform::Rotate90));
/// let cfg = SimilarityConfig::default();
///
/// let scorer = ExactScorer::new(&query, &Transform::ALL, &cfg);
/// let mut scratch = ScoreScratch::default();
/// let mut out = Vec::new();
/// scorer.score_images([&stored, &stored], &mut scratch, &mut out);
/// assert_eq!(out.len(), 2);
/// assert_eq!(out[0].1.score, 1.0);
/// let reference =
///     best_transform_similarity(&query, &stored.to_be_string_2d(), &Transform::ALL, &cfg);
/// assert_eq!(Some(out[0]), reference);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ExactScorer {
    codes: ClassCodes,
    variants: Vec<CodedVariant>,
    cfg: SimilarityConfig,
}

/// Reusable per-worker buffers of an [`ExactScorer`]: one lane group's
/// transposed target codes and the kernels' rows and tables. Keep one
/// per thread and pass it to every call; once grown to the largest
/// target it makes scoring allocation-free.
#[derive(Debug, Clone, Default)]
pub struct ScoreScratch {
    x: LaneAxis,
    y: LaneAxis,
    kernel: KernelScratch,
}

/// A target the scorer can encode into one lane of a group.
trait LaneTarget {
    fn encode(&self, codes: &ClassCodes, lane: usize, x: &mut LaneAxis, y: &mut LaneAxis);
}

impl LaneTarget for SymbolicImage {
    fn encode(&self, codes: &ClassCodes, lane: usize, x: &mut LaneAxis, y: &mut LaneAxis) {
        codes.encode_events(self.x(), |c| x.push(lane, c));
        codes.encode_events(self.y(), |c| y.push(lane, c));
    }
}

impl LaneTarget for BeString2D {
    fn encode(&self, codes: &ClassCodes, lane: usize, x: &mut LaneAxis, y: &mut LaneAxis) {
        for symbol in self.x() {
            x.push(lane, codes.symbol_code(symbol));
        }
        for symbol in self.y() {
            y.push(lane, codes.symbol_code(symbol));
        }
    }
}

impl ExactScorer {
    /// Prepares `query` for scoring under each of `transforms` (the
    /// identity alone when `transforms` is empty).
    #[must_use]
    pub fn new(
        query: &BeString2D,
        transforms: &[Transform],
        cfg: &SimilarityConfig,
    ) -> ExactScorer {
        let codes = ClassCodes::of(query.x().iter().chain(query.y()));
        let transforms = if transforms.is_empty() {
            &[Transform::Identity][..]
        } else {
            transforms
        };
        let variants = transforms
            .iter()
            .map(|&transform| {
                let variant = transformed(query, transform);
                let (mut x, mut y) = (Vec::new(), Vec::new());
                codes.encode(variant.x(), &mut x);
                codes.encode(variant.y(), &mut y);
                CodedVariant {
                    transform,
                    x_boundaries: variant.x().boundary_count(),
                    y_boundaries: variant.y().boundary_count(),
                    x,
                    y,
                }
            })
            .collect();
        ExactScorer {
            codes,
            variants,
            cfg: *cfg,
        }
    }

    /// Scores stored images, appending one `(best transform, similarity)`
    /// per target to `out`, in order.
    pub fn score_images<'a>(
        &self,
        targets: impl IntoIterator<Item = &'a SymbolicImage>,
        scratch: &mut ScoreScratch,
        out: &mut Vec<(Transform, Similarity)>,
    ) {
        self.score_all(targets, scratch, out);
    }

    /// Scores materialised 2D BE-strings, appending one
    /// `(best transform, similarity)` per target to `out`, in order.
    pub fn score_strings<'a>(
        &self,
        targets: impl IntoIterator<Item = &'a BeString2D>,
        scratch: &mut ScoreScratch,
        out: &mut Vec<(Transform, Similarity)>,
    ) {
        self.score_all(targets, scratch, out);
    }

    fn score_one(&self, target: &BeString2D) -> (Transform, Similarity) {
        let mut out = Vec::with_capacity(1);
        self.score_strings([target], &mut ScoreScratch::default(), &mut out);
        out[0]
    }

    fn score_all<'a, T: LaneTarget + 'a>(
        &self,
        targets: impl IntoIterator<Item = &'a T>,
        scratch: &mut ScoreScratch,
        out: &mut Vec<(Transform, Similarity)>,
    ) {
        let mut targets = targets.into_iter();
        loop {
            scratch.x.clear();
            scratch.y.clear();
            let mut lanes = 0;
            for target in targets.by_ref().take(LANES) {
                target.encode(&self.codes, lanes, &mut scratch.x, &mut scratch.y);
                lanes += 1;
            }
            if lanes == 0 {
                return;
            }
            self.score_group(lanes, scratch, out);
        }
    }

    /// Scores the `lanes` targets encoded in `scratch` under every
    /// variant, keeping per target the last best-scoring transform.
    fn score_group(
        &self,
        lanes: usize,
        scratch: &mut ScoreScratch,
        out: &mut Vec<(Transform, Similarity)>,
    ) {
        let first = out.len();
        let cfg = &self.cfg;
        let ScoreScratch { x, y, kernel } = scratch;
        for (v, variant) in self.variants.iter().enumerate() {
            let (x_lcs, y_lcs, x_query, y_query, x_target, y_target) = if cfg.count_dummies {
                (
                    lane_lengths(&variant.x, x, kernel),
                    lane_lengths(&variant.y, y, kernel),
                    variant.x.len(),
                    variant.y.len(),
                    &x.len,
                    &y.len,
                )
            } else {
                (
                    boundary_lengths(&variant.x, x, lanes, kernel),
                    boundary_lengths(&variant.y, y, lanes, kernel),
                    variant.x_boundaries,
                    variant.y_boundaries,
                    &x.boundaries,
                    &y.boundaries,
                )
            };
            for lane in 0..lanes {
                let similarity = Similarity::combine(
                    AxisSimilarity::from_counts(x_lcs[lane], x_query, x_target[lane], cfg),
                    AxisSimilarity::from_counts(y_lcs[lane], y_query, y_target[lane], cfg),
                    cfg,
                );
                let scored = (variant.transform, similarity);
                if v == 0 {
                    out.push(scored);
                } else if similarity
                    .score
                    .total_cmp(&out[first + lane].1.score)
                    .is_ge()
                {
                    // `Iterator::max_by` semantics: the last maximum wins.
                    out[first + lane] = scored;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert_scene;
    use be2d_geometry::SceneBuilder;

    // Disjoint on x, overlapping on y: the two axis strings have different
    // order structure, so the scene is symbolically asymmetric under every
    // non-identity D4 element and transform tests have a unique best match.
    fn scene_ab() -> BeString2D {
        convert_scene(
            &SceneBuilder::new(100, 100)
                .object("A", (10, 40, 20, 60))
                .object("B", (50, 90, 40, 95))
                .build()
                .unwrap(),
        )
    }

    fn scene_a() -> BeString2D {
        convert_scene(
            &SceneBuilder::new(100, 100)
                .object("A", (10, 40, 20, 60))
                .build()
                .unwrap(),
        )
    }

    fn scene_ba() -> BeString2D {
        // same objects, swapped positions
        convert_scene(
            &SceneBuilder::new(100, 100)
                .object("B", (10, 40, 20, 60))
                .object("A", (50, 90, 40, 95))
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn self_similarity_is_one_under_all_configs() {
        let s = scene_ab();
        for normalization in [
            Normalization::QueryCoverage,
            Normalization::TargetCoverage,
            Normalization::Dice,
        ] {
            for axis_combine in [AxisCombine::Mean, AxisCombine::Product, AxisCombine::Min] {
                for count_dummies in [true, false] {
                    let cfg = SimilarityConfig {
                        normalization,
                        axis_combine,
                        count_dummies,
                    };
                    let sim = similarity_with(&s, &s, &cfg);
                    assert!(
                        (sim.score - 1.0).abs() < 1e-12,
                        "self-similarity {cfg:?} = {}",
                        sim.score
                    );
                }
            }
        }
    }

    #[test]
    fn scores_are_in_unit_interval() {
        let pairs = [
            (scene_a(), scene_ab()),
            (scene_ab(), scene_a()),
            (scene_ab(), scene_ba()),
        ];
        for (q, d) in pairs {
            let sim = similarity(&q, &d);
            assert!((0.0..=1.0).contains(&sim.score));
            assert!((0.0..=1.0).contains(&sim.x.score));
            assert!((0.0..=1.0).contains(&sim.y.score));
        }
    }

    #[test]
    fn partial_query_coverage_is_full_under_query_normalisation() {
        // the single-object query embeds fully in the two-object image
        let cfg = SimilarityConfig {
            normalization: Normalization::QueryCoverage,
            ..SimilarityConfig::default()
        };
        let sim = similarity_with(&scene_a(), &scene_ab(), &cfg);
        assert!(
            (sim.score - 1.0).abs() < 1e-12,
            "query fully covered: {}",
            sim.score
        );
    }

    #[test]
    fn dice_penalises_partial_matches_from_both_sides() {
        let sim_q = similarity(&scene_a(), &scene_ab());
        let sim_d = similarity(&scene_ab(), &scene_a());
        assert!(sim_q.score < 1.0);
        // Dice is symmetric
        assert!((sim_q.score - sim_d.score).abs() < 1e-12);
    }

    #[test]
    fn swapped_objects_score_below_exact_and_above_disjoint() {
        let exact = similarity(&scene_ab(), &scene_ab()).score;
        let swapped = similarity(&scene_ab(), &scene_ba()).score;
        let disjoint = similarity(
            &scene_ab(),
            &convert_scene(
                &SceneBuilder::new(100, 100)
                    .object("Z", (0, 9, 0, 9))
                    .build()
                    .unwrap(),
            ),
        )
        .score;
        assert!(swapped < exact);
        assert!(disjoint < swapped);
    }

    #[test]
    fn boundary_only_counting_changes_lengths() {
        let cfg = SimilarityConfig {
            count_dummies: false,
            ..SimilarityConfig::default()
        };
        let sim = similarity_with(&scene_ab(), &scene_ab(), &cfg);
        assert_eq!(sim.x.query_len, 4, "2 objects = 4 boundary symbols");
        assert!((sim.score - 1.0).abs() < 1e-12);
    }

    #[test]
    fn axis_combiners_order_correctly() {
        // product ≤ min ≤ mean for scores in [0,1]
        let (q, d) = (scene_ab(), scene_ba());
        let score = |combine| {
            similarity_with(
                &q,
                &d,
                &SimilarityConfig {
                    axis_combine: combine,
                    ..SimilarityConfig::default()
                },
            )
            .score
        };
        let (mean, product, min) = (
            score(AxisCombine::Mean),
            score(AxisCombine::Product),
            score(AxisCombine::Min),
        );
        assert!(product <= min + 1e-12);
        assert!(min <= mean + 1e-12);
    }

    #[test]
    fn empty_vs_empty_is_identical() {
        let e = convert_scene(&be2d_geometry::Scene::new(10, 10).unwrap());
        let sim = similarity(&e, &e);
        assert!((sim.score - 1.0).abs() < 1e-12);
        let cfg = SimilarityConfig {
            count_dummies: false,
            ..SimilarityConfig::default()
        };
        let sim = similarity_with(&e, &e, &cfg);
        assert!((sim.score - 1.0).abs() < 1e-12, "0/0 convention");
    }

    #[test]
    fn empty_vs_nonempty_boundary_only_is_zero() {
        let e = convert_scene(&be2d_geometry::Scene::new(10, 10).unwrap());
        let cfg = SimilarityConfig {
            normalization: Normalization::TargetCoverage,
            count_dummies: false,
            ..SimilarityConfig::default()
        };
        let sim = similarity_with(&e, &scene_a(), &cfg);
        assert_eq!(sim.score, 0.0);
    }

    #[test]
    fn best_transform_finds_planted_rotation() {
        use crate::transform::transformed;
        let original = scene_ab();
        let rotated = transformed(&original, Transform::Rotate90);
        // Querying with the original against the rotated copy: the best
        // transform should be Rotate90 with a perfect score.
        let (t, sim) = best_transform_similarity(
            &original,
            &rotated,
            &Transform::ALL,
            &SimilarityConfig::default(),
        )
        .unwrap();
        assert!((sim.score - 1.0).abs() < 1e-12);
        assert_eq!(t, Transform::Rotate90);
        assert!(
            best_transform_similarity(&original, &rotated, &[], &SimilarityConfig::default())
                .is_none()
        );
    }

    #[test]
    fn display_of_config_enums() {
        assert_eq!(Normalization::Dice.to_string(), "dice");
        assert_eq!(AxisCombine::Product.to_string(), "product");
    }
}

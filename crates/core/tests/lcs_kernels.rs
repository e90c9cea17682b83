//! Bit-identity of the integer-coded LCS kernels against a paper-literal
//! oracle.
//!
//! The oracle below is Algorithm 2 exactly as printed — a full signed
//! table filled by comparing [`BeSymbol`]s — plus Algorithm 3's literal
//! recursion and the §4 normalisation written out longhand. Both
//! production kernels must agree with it:
//!
//! * the scalar full-table fill behind [`LcsTable`]: every signed cell,
//!   `length` and `boundary_length`;
//! * the lane kernel behind [`ExactScorer`]: lengths, boundary lengths,
//!   and the whole best-transform [`Similarity`], bit for bit, for target
//!   groups of any size (partial groups, several groups, unequal lengths
//!   within a group, empty axes `E`, classes absent from the query).

use be2d_core::{
    convert_scene, transformed, AxisCombine, BeString, BeString2D, BeSymbol, ExactScorer, LcsTable,
    Normalization, ScoreScratch, Similarity, SimilarityConfig, SymbolicImage, LANES,
};
use be2d_geometry::{ObjectClass, Rect, Scene, Transform};
use proptest::prelude::*;

/// Query scenes draw from the first four classes, targets from all six,
/// so targets regularly hold classes the query lacks.
const CLASS_NAMES: [&str; 6] = ["A", "B", "C", "D", "F", "G"];

fn arb_scene(max_objects: usize, classes: usize) -> impl Strategy<Value = Scene> {
    (8i64..64, 8i64..64).prop_flat_map(move |(w, h)| {
        prop::collection::vec((0..w, 0..h, 1..=w, 1..=h, 0..classes), 0..max_objects).prop_map(
            move |objs| {
                let mut scene = Scene::new(w, h).expect("positive frame");
                for (xb, yb, xw, yw, class) in objs {
                    let rect = Rect::new(xb, (xb + xw).min(w), yb, (yb + yw).min(h));
                    if let Ok(rect) = rect {
                        scene
                            .add(ObjectClass::new(CLASS_NAMES[class]), rect)
                            .expect("rect generated in-frame");
                    }
                }
                scene
            },
        )
    })
}

/// Algorithm 2 as printed: the signed `(m+1) × (n+1)` table over symbols.
fn oracle_table(q: &BeString, d: &BeString) -> Vec<Vec<i32>> {
    let (q, d) = (q.symbols(), d.symbols());
    let mut w = vec![vec![0i32; d.len() + 1]; q.len() + 1];
    for i in 1..=q.len() {
        let qi = &q[i - 1];
        for j in 1..=d.len() {
            let up = w[i - 1][j];
            let left = w[i][j - 1];
            let mut cell = if up.abs() >= left.abs() { up } else { left };
            let diag = w[i - 1][j - 1];
            if qi == &d[j - 1] && (!qi.is_dummy() || diag >= 0) {
                let candidate = diag.abs() + 1;
                if candidate > cell.abs() {
                    cell = if qi.is_dummy() { -candidate } else { candidate };
                }
            }
            w[i][j] = cell;
        }
    }
    w
}

/// Algorithm 3's literal recursion over the oracle table.
fn oracle_lcs(w: &[Vec<i32>], q: &[BeSymbol], i: usize, j: usize, out: &mut Vec<BeSymbol>) {
    if i == 0 || j == 0 {
        return;
    }
    if w[i][j].abs() == w[i - 1][j].abs() {
        oracle_lcs(w, q, i - 1, j, out);
    } else if w[i][j].abs() == w[i][j - 1].abs() {
        oracle_lcs(w, q, i, j - 1, out);
    } else {
        oracle_lcs(w, q, i - 1, j - 1, out);
        out.push(q[i - 1].clone());
    }
}

/// `(length, boundary_length)` of one axis pair, by the oracle.
fn oracle_lengths(q: &BeString, d: &BeString) -> (usize, usize) {
    let w = oracle_table(q, d);
    let mut lcs = Vec::new();
    oracle_lcs(&w, q.symbols(), q.len(), d.len(), &mut lcs);
    let length = w[q.len()][d.len()].unsigned_abs() as usize;
    (length, lcs.iter().filter(|s| s.is_boundary()).count())
}

/// The §4 evaluation written out longhand on oracle lengths.
fn oracle_similarity(q: &BeString2D, d: &BeString2D, cfg: &SimilarityConfig) -> Similarity {
    let axis = |q: &BeString, d: &BeString| {
        let (length, boundary) = oracle_lengths(q, d);
        let (lcs_len, query_len, target_len) = if cfg.count_dummies {
            (length, q.len(), d.len())
        } else {
            (boundary, q.boundary_count(), d.boundary_count())
        };
        let ratio = |a: usize, b: usize| match (a, b) {
            (0, 0) => 1.0,
            (_, 0) => 0.0,
            _ => a as f64 / b as f64,
        };
        let score = match cfg.normalization {
            Normalization::QueryCoverage => ratio(lcs_len, query_len),
            Normalization::TargetCoverage => ratio(lcs_len, target_len),
            Normalization::Dice if query_len + target_len == 0 => 1.0,
            Normalization::Dice => 2.0 * lcs_len as f64 / (query_len + target_len) as f64,
        };
        be2d_core::AxisSimilarity {
            lcs_len,
            query_len,
            target_len,
            score,
        }
    };
    let (x, y) = (axis(q.x(), d.x()), axis(q.y(), d.y()));
    let score = match cfg.axis_combine {
        AxisCombine::Mean => (x.score + y.score) / 2.0,
        AxisCombine::Product => x.score * y.score,
        AxisCombine::Min => x.score.min(y.score),
    };
    Similarity { x, y, score }
}

/// Best transform by `Iterator::max_by` (the last maximum wins).
fn oracle_best(
    q: &BeString2D,
    d: &BeString2D,
    transforms: &[Transform],
    cfg: &SimilarityConfig,
) -> (Transform, Similarity) {
    transforms
        .iter()
        .map(|&t| (t, oracle_similarity(&transformed(q, t), d, cfg)))
        .max_by(|a, b| a.1.score.total_cmp(&b.1.score))
        .expect("at least one transform")
}

fn configs() -> Vec<SimilarityConfig> {
    let mut out = Vec::new();
    for normalization in [
        Normalization::QueryCoverage,
        Normalization::TargetCoverage,
        Normalization::Dice,
    ] {
        for axis_combine in [AxisCombine::Mean, AxisCombine::Product, AxisCombine::Min] {
            for count_dummies in [true, false] {
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

fn assert_bits(got: &(Transform, Similarity), want: &(Transform, Similarity)) {
    assert_eq!(got.0, want.0, "transform");
    assert_eq!(got.1.score.to_bits(), want.1.score.to_bits(), "score bits");
    assert_eq!(got.1.x.score.to_bits(), want.1.x.score.to_bits(), "x bits");
    assert_eq!(got.1.y.score.to_bits(), want.1.y.score.to_bits(), "y bits");
    assert_eq!(got.1, want.1, "whole similarity");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The scalar fill behind `LcsTable::build` reproduces every signed
    /// cell of the oracle, its length and its boundary length.
    #[test]
    fn scalar_kernel_matches_oracle(q in arb_scene(7, 4), d in arb_scene(9, 6)) {
        let (q, d) = (convert_scene(&q), convert_scene(&d));
        for (qa, da) in [(q.x(), d.x()), (q.y(), d.y()), (q.x(), q.x()), (d.y(), q.y())] {
            let table = LcsTable::build(qa, da);
            let oracle = oracle_table(qa, da);
            prop_assert_eq!(table.rows(), oracle.len());
            prop_assert_eq!(table.cols(), oracle[0].len());
            for (i, row) in oracle.iter().enumerate() {
                for (j, &cell) in row.iter().enumerate() {
                    prop_assert_eq!(table.cell(i, j), cell, "cell ({}, {})", i, j);
                }
            }
            let (length, boundary) = oracle_lengths(qa, da);
            prop_assert_eq!(table.length(), length);
            prop_assert_eq!(table.boundary_length(), boundary);
        }
    }

    /// The lane kernel, through `ExactScorer`, matches the oracle bit for
    /// bit for 1..=3 lane groups of targets with unequal lengths, on
    /// stored images and on materialised strings alike.
    #[test]
    fn lane_kernel_matches_oracle(
        q in arb_scene(7, 4),
        targets in prop::collection::vec(arb_scene(9, 6), 1..3 * LANES + 1),
        pick in any::<u64>(),
    ) {
        let query = convert_scene(&q);
        let images: Vec<SymbolicImage> = targets.iter().map(SymbolicImage::from_scene).collect();
        let strings: Vec<BeString2D> = images.iter().map(SymbolicImage::to_be_string_2d).collect();
        let configs = configs();
        let cfg = configs[(pick % configs.len() as u64) as usize];
        let transforms: &[Transform] = if pick.is_multiple_of(3) {
            &Transform::ALL
        } else {
            &[Transform::Identity]
        };
        let scorer = ExactScorer::new(&query, transforms, &cfg);
        let mut scratch = ScoreScratch::default();
        let (mut from_images, mut from_strings) = (Vec::new(), Vec::new());
        scorer.score_images(&images, &mut scratch, &mut from_images);
        scorer.score_strings(&strings, &mut scratch, &mut from_strings);
        prop_assert_eq!(from_images.len(), targets.len());
        prop_assert_eq!(from_strings.len(), targets.len());
        for (k, target) in strings.iter().enumerate() {
            let want = oracle_best(&query, target, transforms, &cfg);
            assert_bits(&from_images[k], &want);
            assert_bits(&from_strings[k], &want);
        }
    }
}

/// Every configuration and every D4 transform, on hand-picked targets
/// covering the edge cases: an empty image (`E` axes), a target made
/// only of classes the query lacks, and a partial final group.
#[test]
fn edge_case_targets_match_oracle_under_every_config() {
    type Objects<'a> = &'a [(&'a str, (i64, i64, i64, i64))];
    let scene = |objs: Objects| {
        let mut s = Scene::new(100, 100).expect("frame");
        for (class, (xb, xe, yb, ye)) in objs {
            s.add(
                ObjectClass::new(class),
                Rect::new(*xb, *xe, *yb, *ye).expect("rect"),
            )
            .expect("in frame");
        }
        s
    };
    let query = convert_scene(&scene(&[
        ("A", (10, 40, 20, 60)),
        ("B", (50, 90, 40, 95)),
        ("A", (0, 100, 0, 30)),
    ]));
    let targets: Vec<SymbolicImage> = [
        scene(&[]),
        scene(&[("G", (0, 100, 0, 100)), ("F", (10, 20, 10, 20))]),
        scene(&[("A", (10, 40, 20, 60)), ("B", (50, 90, 40, 95))]),
        scene(&[("B", (10, 40, 20, 60)), ("A", (50, 90, 40, 95))]),
        scene(&[
            ("A", (0, 100, 0, 30)),
            ("B", (50, 90, 40, 95)),
            ("A", (10, 40, 20, 60)),
            ("G", (5, 6, 5, 6)),
        ]),
    ]
    .iter()
    .map(SymbolicImage::from_scene)
    .cycle()
    .take(LANES + 3)
    .collect();
    let strings: Vec<BeString2D> = targets.iter().map(SymbolicImage::to_be_string_2d).collect();
    assert_eq!(
        strings[0].x().to_string(),
        "E",
        "the empty image has E axes"
    );
    for cfg in configs() {
        for transforms in [&Transform::ALL[..], &[Transform::Identity][..], &[][..]] {
            let scorer = ExactScorer::new(&query, transforms, &cfg);
            let mut out = Vec::new();
            scorer.score_images(&targets, &mut ScoreScratch::default(), &mut out);
            let effective = if transforms.is_empty() {
                &[Transform::Identity][..]
            } else {
                transforms
            };
            for (got, target) in out.iter().zip(&strings) {
                assert_bits(got, &oracle_best(&query, target, effective, &cfg));
            }
        }
    }
}

/// A symmetric query ties under several transforms; the scorer must keep
/// the last of the tied transforms, as `Iterator::max_by` does.
#[test]
fn transform_ties_keep_the_last_maximum() {
    let mut s = Scene::new(100, 100).expect("frame");
    s.add(
        ObjectClass::new("A"),
        Rect::new(10, 90, 10, 90).expect("rect"),
    )
    .expect("in frame");
    let query = convert_scene(&s);
    let target = SymbolicImage::from_scene(&s);
    let mut out = Vec::new();
    ExactScorer::new(&query, &Transform::ALL, &SimilarityConfig::default()).score_images(
        [&target],
        &mut ScoreScratch::default(),
        &mut out,
    );
    assert_eq!(out[0].1.score, 1.0);
    assert_eq!(out[0].0, *Transform::ALL.last().expect("D4"));
}

//! # be2d-core — the 2D BE-string spatial relation model
//!
//! A faithful, from-scratch reproduction of the system proposed in
//! *"Image Indexing and Similarity Retrieval Based on A New Spatial
//! Relation Model"* (Ying-Hong Wang, 2001):
//!
//! * the **2D BE-string** representation (§3): an icon object is
//!   represented by its MBR begin/end boundary symbols; *dummy objects*
//!   `E` (ε) — not spatial operators — encode whether adjacent boundary
//!   projections are distinct ([`BeString`], [`BeString2D`],
//!   [`BeSymbol`]);
//! * **Algorithm 1** `Convert_2D_Be_String` (§3.2): O(n log n) conversion
//!   of an image's object/MBR list into the string pair
//!   ([`convert_scene`], [`SymbolicImage`]);
//! * incremental **maintenance** (§3.2): binary-search insertion and
//!   sequential-search deletion of objects on the coordinate-annotated
//!   string ([`AnnotatedBeString`]);
//! * **Algorithms 2 & 3**, the **modified LCS** (§4): O(mn) signed-table
//!   longest-common-subsequence that never picks two consecutive dummies,
//!   plus path reconstruction without a direction matrix ([`LcsTable`],
//!   [`be_lcs_length`]), run on integer codes, [`LANES`] targets per
//!   pass, by the [`ExactScorer`];
//! * the **similarity evaluation process** (§4): graded `[0, 1]` scores
//!   supporting partial object/relation matches ([`similarity`],
//!   [`SimilarityConfig`]);
//! * **rotation/reflection retrieval by string reversal** (§4):
//!   [`transformed`] applies any D4 symmetry to a BE-string in O(m).
//!
//! # Quickstart
//!
//! ```
//! use be2d_core::{convert_scene, similarity};
//! use be2d_geometry::SceneBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The worked example of the paper's Figure 1.
//! let scene = SceneBuilder::new(100, 100)
//!     .object("A", (10, 50, 25, 85))
//!     .object("B", (30, 90, 5, 45))
//!     .object("C", (50, 70, 45, 65))
//!     .build()?;
//! let s = convert_scene(&scene);
//! assert_eq!(s.x().to_string(), "E A_b E B_b E A_e C_b E C_e E B_e E");
//!
//! // A partial query (only A and B) still scores high.
//! let query = convert_scene(
//!     &SceneBuilder::new(100, 100)
//!         .object("A", (10, 50, 25, 85))
//!         .object("B", (30, 90, 5, 45))
//!         .build()?,
//! );
//! let sim = similarity(&query, &s);
//! assert!(sim.score > 0.7);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod annotated;
mod bestring;
mod convert;
mod error;
mod lcs;
mod matrix;
mod similarity;
mod symbol;
/// Rotation/reflection retrieval by string reversal (§4).
pub mod transform;

pub use annotated::{AnnotatedBeString, BoundaryEvent, SymbolicImage};
pub use bestring::{BeString, BeString2D};
pub use convert::{convert_scene, convert_scene_x, convert_scene_y};
pub use error::BeStringError;
pub use lcs::{be_lcs_length, exact_constrained_lcs_length, LcsTable, LANES};
pub use matrix::{similarity_matrix, threshold_clusters};
pub use similarity::{
    best_transform_similarity, similarity, similarity_with, AxisCombine, AxisSimilarity,
    ExactScorer, Normalization, ScoreScratch, Similarity, SimilarityConfig,
};
pub use symbol::{BeSymbol, Boundary};
pub use transform::transformed;

//! # be2d — image indexing and similarity retrieval with 2D BE-strings
//!
//! A comprehensive Rust reproduction of *"Image Indexing and Similarity
//! Retrieval Based on A New Spatial Relation Model"* (Ying-Hong Wang,
//! 2001). This facade crate re-exports the whole workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`geometry`] | MBRs, scenes, Allen relations, the D4 transform group |
//! | [`core`] | the 2D BE-string model, Algorithm 1 conversion, modified LCS (Algorithms 2–3), similarity evaluation, string-reversal transforms, §3.2 maintenance |
//! | [`strings2d`] | the 2-D string family baselines (Chang 2-D string, 2D G-/C-/B-strings, type-0/1/2 maximum-clique similarity) |
//! | [`imaging`] | synthetic raster rendering + connected-component MBR extraction |
//! | [`workload`] | seeded corpora, query derivation with ground truth, retrieval metrics |
//! | [`db`] | the image database: indexing, incremental edits, ranked transform-invariant search, persistence |
//! | [`metrics`] | dependency-free observability primitives: counters, gauges, histograms, Prometheus exposition |
//! | [`server`] | the HTTP/1.1 retrieval service and its load generator |
//!
//! The most common entry points are re-exported at the crate root.
//!
//! # Example
//!
//! ```
//! use be2d::{convert_scene, similarity, SceneBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scene = SceneBuilder::new(100, 100)
//!     .object("A", (10, 50, 25, 85))
//!     .object("B", (30, 90, 5, 45))
//!     .object("C", (50, 70, 45, 65))
//!     .build()?;
//! let s = convert_scene(&scene);
//! assert_eq!(s.x().to_string(), "E A_b E B_b E A_e C_b E C_e E B_e E");
//! assert!((similarity(&s, &s).score - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use be2d_core as core;
pub use be2d_db as db;
pub use be2d_geometry as geometry;
pub use be2d_imaging as imaging;
pub use be2d_metrics as metrics;
pub use be2d_server as server;
pub use be2d_strings2d as strings2d;
pub use be2d_workload as workload;

pub use be2d_core::{
    be_lcs_length, best_transform_similarity, convert_scene, exact_constrained_lcs_length,
    similarity, similarity_matrix, similarity_with, threshold_clusters, transformed, BeString,
    BeString2D, BeSymbol, LcsTable, Similarity, SimilarityConfig, SymbolicImage,
};
pub use be2d_db::{
    ImageDatabase, QueryOptions, ReplicatedImageDatabase, Resharder, SearchHit, TwoStage,
};
pub use be2d_geometry::{ObjectClass, Rect, Scene, SceneBuilder, Transform};

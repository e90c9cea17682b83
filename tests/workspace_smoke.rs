//! Workspace smoke test: executes the `examples/quickstart.rs` flow as
//! an integration test and touches every facade re-export, so a
//! manifest, feature, or re-export regression fails `cargo test` loudly
//! instead of only breaking `cargo build --examples`.

use be2d::{convert_scene, similarity, ImageDatabase, QueryOptions, SceneBuilder, Transform};

/// The `server` facade module is wired: config resolves, the serving
/// preset exists, and the request-mix sampler parses.
#[test]
fn server_facade_re_exports() {
    let config = be2d::server::ServerConfig::default();
    assert!(config.effective_threads() >= 2);
    assert_eq!(
        be2d::db::QueryOptions::serving(),
        be2d::db::QueryOptions::default()
    );
    let mix: be2d::workload::RequestMix = "insert=1,search=4".parse().expect("mix parses");
    assert_eq!(mix.total_weight(), 5);
}

/// The paper's Figure 1 scene: A overlaps B, C touches both.
fn figure1() -> be2d::geometry::Scene {
    SceneBuilder::new(100, 100)
        .object("A", (10, 50, 25, 85))
        .object("B", (30, 90, 5, 45))
        .object("C", (50, 70, 45, 65))
        .build()
        .expect("valid scene")
}

#[test]
fn quickstart_flow_end_to_end() {
    // Algorithm 1 conversion, exactly as printed in the example.
    let fig = figure1();
    let s = convert_scene(&fig);
    assert_eq!(s.x().to_string(), "E A_b E B_b E A_e C_b E C_e E B_e E");

    // Index three images, as the example does.
    let mut db = ImageDatabase::new();
    db.insert_scene("figure1", &fig).expect("insert");
    db.insert_scene(
        "variant",
        &SceneBuilder::new(100, 100)
            .object("A", (10, 50, 25, 85))
            .object("B", (30, 90, 5, 45))
            .build()
            .expect("valid scene"),
    )
    .expect("insert");
    db.insert_scene(
        "unrelated",
        &SceneBuilder::new(100, 100)
            .object("Z", (10, 90, 10, 90))
            .build()
            .expect("valid scene"),
    )
    .expect("insert");

    // Exact query ranks the source first with score 1.
    let hits = db.search_scene(&fig, &QueryOptions::default());
    assert_eq!(hits[0].name, "figure1");
    assert!((hits[0].score - 1.0).abs() < 1e-12);

    // Partial query (A and C only) still retrieves both A-bearing images.
    let partial = SceneBuilder::new(100, 100)
        .object("A", (10, 50, 25, 85))
        .object("C", (50, 70, 45, 65))
        .build()
        .expect("valid scene");
    let hits = db.search_scene(&partial, &QueryOptions::default());
    assert!(hits.len() >= 2, "partial query should match ≥ 2 images");

    // Rotated query via §4 string reversal: the inverse transform wins.
    let rotated = fig.transformed(Transform::Rotate90);
    let hits = db.search_scene(&rotated, &QueryOptions::transform_invariant());
    assert_eq!(hits[0].name, "figure1");
    assert_eq!(hits[0].transform, Transform::Rotate270);

    // Direct similarity evaluation, as the example prints.
    let sim = similarity(&convert_scene(&partial), &s);
    assert!(sim.score > 0.0 && sim.score < 1.0);
    assert!(sim.x.lcs_len > 0 && sim.y.lcs_len > 0);
}

#[test]
fn facade_reexports_are_wired() {
    // Root-level re-exports used throughout the examples.
    let fig = figure1();
    let s: be2d::BeString2D = convert_scene(&fig);
    let _: be2d::Similarity = be2d::similarity(&s, &s);
    let _: be2d::SimilarityConfig = be2d::SimilarityConfig::default();
    let table: be2d::LcsTable = be2d::LcsTable::build(s.x(), s.x());
    assert_eq!(table.length(), be2d::be_lcs_length(s.x(), s.x()));

    // One symbol from each module namespace, proving the module
    // re-exports resolve and the crates are actually linked.
    let rect = be2d::geometry::Rect::new(0, 2, 0, 2).expect("rect");
    assert_eq!(rect.width(), 2);
    let img = be2d::core::SymbolicImage::from_scene(&fig);
    assert_eq!(img.to_be_string_2d(), s);
    let g = be2d::strings2d::GString::from_scene(&fig);
    assert!(g.segment_count() >= fig.len());
    let mut palette = be2d::imaging::ClassPalette::new();
    let raster = be2d::imaging::render_scene(&fig, &mut palette, be2d::imaging::Shape::Rectangle);
    let recognised = be2d::imaging::extract_scene(&raster, &palette, 1).expect("extract");
    assert_eq!(convert_scene(&recognised), s);
    let scene = be2d::workload::scene_from_seed(&be2d::workload::SceneConfig::default(), 1);
    assert_eq!(scene.len(), 8);
    let shared = be2d::db::ReplicatedImageDatabase::with_topology(2, 1);
    shared.insert_scene("one", &fig).expect("insert");
    assert_eq!(shared.len(), 1);
    let replicated = be2d::ReplicatedImageDatabase::with_topology(2, 2);
    replicated.insert_scene("one", &fig).expect("insert");
    replicated.fail_replica(0, 1).expect("spare copy");
    replicated.rebuild_replica(0, 1).expect("rebuild");
    assert_eq!(replicated.len(), 1);
    be2d::Resharder::new(&replicated)
        .run(3)
        .expect("online reshard");
    assert_eq!(replicated.shard_count(), 3);
    assert_eq!(replicated.len(), 1);

    // Persistence across the facade: a JSON round-trip preserves search.
    let mut db = ImageDatabase::new();
    db.insert_scene("figure1", &fig).expect("insert");
    let json = db.to_json().expect("serialise");
    let restored = ImageDatabase::from_json(&json).expect("deserialise");
    let hits = restored.search_scene(&fig, &QueryOptions::default());
    assert_eq!(hits[0].name, "figure1");
}

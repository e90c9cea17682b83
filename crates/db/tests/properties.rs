//! Stateful property tests of the image database: random operation
//! sequences must keep every access path consistent.

use be2d_core::SymbolicImage;
use be2d_db::{ImageDatabase, PrefilterMode, QueryOptions, RecordId};
use be2d_geometry::{ObjectClass, Rect, Scene};
use proptest::prelude::*;

const CLASS_NAMES: [&str; 5] = ["A", "B", "C", "D", "F"];
const FRAME: i64 = 64;

/// One step of the stateful test.
#[derive(Debug, Clone)]
enum Op {
    InsertImage {
        objects: Vec<(usize, i64, i64, i64, i64)>,
    },
    RemoveImage {
        slot: usize,
    },
    AddObject {
        slot: usize,
        class: usize,
        rect: (i64, i64, i64, i64),
    },
    RemoveObject {
        slot: usize,
    },
}

fn arb_rect_tuple() -> impl Strategy<Value = (i64, i64, i64, i64)> {
    (0..FRAME - 1, 0..FRAME - 1).prop_flat_map(|(xb, yb)| {
        (1..=FRAME - xb, 1..=FRAME - yb).prop_map(move |(w, h)| (xb, xb + w, yb, yb + h))
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop::collection::vec(
            (0..CLASS_NAMES.len(), arb_rect_tuple()).prop_map(|(c, (a, b, d, e))| (c, a, b, d, e)),
            0..5
        )
        .prop_map(|objects| Op::InsertImage { objects }),
        (0usize..24).prop_map(|slot| Op::RemoveImage { slot }),
        (0usize..24, 0..CLASS_NAMES.len(), arb_rect_tuple())
            .prop_map(|(slot, class, rect)| Op::AddObject { slot, class, rect }),
        (0usize..24).prop_map(|slot| Op::RemoveObject { slot }),
    ]
}

/// A shadow model: the set of live (RecordId, Scene) pairs maintained by
/// plain re-computation.
#[derive(Default)]
struct Model {
    live: Vec<(RecordId, Scene)>,
}

impl Model {
    fn scene_of(&mut self, slot: usize) -> Option<&mut (RecordId, Scene)> {
        if self.live.is_empty() {
            None
        } else {
            let i = slot % self.live.len();
            self.live.get_mut(i)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any operation sequence: every live record's symbolic picture
    /// equals the batch conversion of its shadow scene, dead records stay
    /// dead, and the scan/index search paths agree.
    #[test]
    fn database_stays_consistent(ops in prop::collection::vec(arb_op(), 1..24)) {
        let mut db = ImageDatabase::new();
        let mut model = Model::default();
        let mut removed: Vec<RecordId> = Vec::new();

        for op in ops {
            match op {
                Op::InsertImage { objects } => {
                    let mut scene = Scene::new(FRAME, FRAME).expect("frame");
                    for (c, xb, xe, yb, ye) in objects {
                        scene
                            .add(
                                ObjectClass::new(CLASS_NAMES[c]),
                                Rect::new(xb, xe, yb, ye).expect("rect"),
                            )
                            .expect("fits");
                    }
                    let id = db.insert_scene("img", &scene).expect("insert");
                    model.live.push((id, scene));
                }
                Op::RemoveImage { slot } => {
                    if let Some(&(id, _)) = model.scene_of(slot).map(|p| &*p) {
                        db.remove(id).expect("live record removable");
                        model.live.retain(|(i, _)| *i != id);
                        removed.push(id);
                    }
                }
                Op::AddObject { slot, class, rect } => {
                    if let Some((id, scene)) = model.scene_of(slot) {
                        let class = ObjectClass::new(CLASS_NAMES[class]);
                        let rect = Rect::new(rect.0, rect.1, rect.2, rect.3).expect("rect");
                        db.add_object(*id, &class, rect).expect("add");
                        scene.add(class, rect).expect("fits");
                    }
                }
                Op::RemoveObject { slot } => {
                    if let Some((id, scene)) = model.scene_of(slot) {
                        if !scene.is_empty() {
                            let target = scene.objects()[0].clone();
                            db.remove_object(*id, target.class(), target.mbr())
                                .expect("object present");
                            scene.remove(be2d_geometry::ObjectId(0)).expect("present");
                        }
                    }
                }
            }

            // invariant: every live record equals its shadow conversion
            for (id, scene) in &model.live {
                let record = db.get(*id).expect("live record");
                prop_assert_eq!(&record.symbolic, &SymbolicImage::from_scene(scene));
            }
            // invariant: removed ids stay dead
            for id in &removed {
                prop_assert!(db.get(*id).is_none());
            }
            prop_assert_eq!(db.len(), model.live.len());
        }

        // final: the index's candidates are exact for a class query —
        // a prefiltered search is the unfiltered ranking restricted to
        // the records holding every (any) query class
        let query = {
            let mut s = Scene::new(FRAME, FRAME).expect("frame");
            s.add(ObjectClass::new("A"), Rect::new(0, 10, 0, 10).expect("rect"))
                .expect("fits");
            s.add(ObjectClass::new("C"), Rect::new(20, 30, 0, 10).expect("rect"))
                .expect("fits");
            s
        };
        let search = |prefilter| {
            db.search_scene(
                &query,
                &QueryOptions {
                    prefilter,
                    top_k: None,
                    ..QueryOptions::default()
                },
            )
        };
        let unfiltered = search(PrefilterMode::None);
        prop_assert_eq!(unfiltered.len(), db.len());
        for (prefilter, all) in [
            (PrefilterMode::AnyClass, false),
            (PrefilterMode::AllClasses, true),
        ] {
            let expect: Vec<_> = unfiltered
                .iter()
                .filter(|h| {
                    let record = db.get(h.id).expect("live hit");
                    let classes = record.symbolic.to_be_string_2d().class_counts();
                    let mut member = ["A", "C"]
                        .iter()
                        .map(|c| classes.contains_key(&ObjectClass::new(c)));
                    if all {
                        member.all(|m| m)
                    } else {
                        member.any(|m| m)
                    }
                })
                .collect();
            let got = search(prefilter);
            prop_assert_eq!(got.len(), expect.len());
            for (a, b) in got.iter().zip(expect) {
                prop_assert_eq!(a.id, b.id);
                prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }

        // final: persistence roundtrip preserves everything
        let json = db.to_json().expect("serialise");
        let back = ImageDatabase::from_json(&json).expect("deserialise");
        prop_assert_eq!(db, back);
    }
}

//! Seeded inputs: the prefill corpus, the query set, and one
//! deterministic operation stream per client.
//!
//! The same seed gives the same corpus, queries and per-client op
//! sequences. Ids come back from the system under test, so a client
//! only ever removes or edits images it inserted itself or was handed
//! from the prefill — no two clients touch the same image.

use crate::spec::Spec;
use be2d_geometry::{Rect, Scene};
use be2d_server::loadgen::scene_to_json;
use be2d_workload::{derive_queries, generate_scene, Corpus, CorpusConfig, QueryKind, SceneConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Queries derived per kind (DropObjects and Jitter); the stream uses
/// half of the DropObjects ones.
const QUERIES_PER_KIND: usize = 128;

/// Class of the small object that §3.2 edits add and remove. It is not
/// in the corpus alphabet (`C0`..`C5`).
const EDIT_CLASS: &str = "PB";

pub struct Inputs {
    pub corpus: Corpus,
    pub queries: Vec<Scene>,
    /// `POST /v1/search` bodies, parallel to `queries`.
    pub search_bodies: Vec<String>,
    /// `POST /v1/images` bodies, parallel to the corpus.
    pub prefill_bodies: Vec<String>,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let corpus = Corpus::generate(
            &CorpusConfig {
                images: spec.prefill,
                scene: SceneConfig::default(),
            },
            seed,
        );
        let kinds = [
            QueryKind::DropObjects { keep: 4 },
            QueryKind::Jitter { max_delta: 8 },
        ];
        let derived = derive_queries(&corpus, &kinds, QUERIES_PER_KIND, seed ^ 0x9e37);
        // One DropObjects query to two Jitter ones, interleaved so that
        // any prefix of the stream (a short phase) carries the same mix.
        // A DropObjects query has half the objects and costs about half
        // as much to score: in equal shares the latency median would sit
        // on the edge between the two kinds and flip from run to run.
        let (drop, jitter) = derived.split_at(QUERIES_PER_KIND);
        let queries: Vec<Scene> = drop
            .iter()
            .zip(jitter.chunks(2))
            .flat_map(|(a, b)| std::iter::once(a).chain(b))
            .map(|q| q.scene.clone())
            .collect();
        let options = if spec.two_stage {
            r#"{"top_k":10,"two_stage":true}"#
        } else {
            r#"{"top_k":10}"#
        };
        let search_bodies = queries
            .iter()
            .map(|q| format!(r#"{{"scene":{},"options":{options}}}"#, scene_to_json(q)))
            .collect();
        let prefill_bodies = corpus
            .iter()
            .map(|(id, scene)| insert_body(&image_name(id.index()), scene))
            .collect();
        Inputs {
            corpus,
            queries,
            search_bodies,
            prefill_bodies,
        }
    }
}

pub fn image_name(i: usize) -> String {
    format!("img-{i}")
}

fn insert_body(name: &str, scene: &Scene) -> String {
    format!(r#"{{"name":"{name}","scene":{}}}"#, scene_to_json(scene))
}

fn edit_body(mbr: Rect) -> String {
    format!(
        r#"{{"class":"{EDIT_CLASS}","mbr":[{},{},{},{}]}}"#,
        mbr.x_begin(),
        mbr.x_end(),
        mbr.y_begin(),
        mbr.y_end()
    )
}

#[derive(Debug, Clone)]
pub enum Op {
    Search(usize),
    Insert { name: String, scene: Scene },
    Remove(u64),
    AddObject(u64, Rect),
    RemoveObject(u64, Rect),
}

impl Op {
    pub fn is_search(&self) -> bool {
        matches!(self, Op::Search(_))
    }

    /// The `/v1` request this op is sent as: method, path, body.
    pub fn request(&self, inputs: &Inputs) -> (&'static str, String, String) {
        match self {
            Op::Search(q) => (
                "POST",
                "/v1/search".into(),
                inputs.search_bodies[*q].clone(),
            ),
            Op::Insert { name, scene } => ("POST", "/v1/images".into(), insert_body(name, scene)),
            Op::Remove(id) => ("DELETE", format!("/v1/images/{id}"), String::new()),
            Op::AddObject(id, mbr) => ("POST", format!("/v1/images/{id}/objects"), edit_body(*mbr)),
            Op::RemoveObject(id, mbr) => (
                "DELETE",
                format!("/v1/images/{id}/objects"),
                edit_body(*mbr),
            ),
        }
    }
}

/// One client's op stream.
pub struct OpGen {
    rng: StdRng,
    client: usize,
    search_share: f64,
    queries: usize,
    next_query: usize,
    /// Live images this client may remove or edit, oldest first.
    owned: VecDeque<u64>,
    /// Objects this client added and may remove again, oldest first.
    edits: VecDeque<(u64, Rect)>,
    inserted: usize,
    pub acked_inserts: u64,
    pub acked_removes: u64,
}

impl OpGen {
    /// Client `client` of `clients`: owns every prefill image whose
    /// corpus index is congruent to it.
    pub fn new(
        spec: &Spec,
        seed: u64,
        client: usize,
        clients: usize,
        prefill_ids: &[u64],
        queries: usize,
    ) -> OpGen {
        let owned = prefill_ids
            .iter()
            .enumerate()
            .filter(|(i, _)| i % clients == client)
            .map(|(_, &id)| id)
            .collect();
        OpGen {
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x100_0000_01b3) ^ (client as u64 + 1)),
            client,
            search_share: spec.search_share,
            queries,
            next_query: client,
            owned,
            edits: VecDeque::new(),
            inserted: 0,
            acked_inserts: 0,
            acked_removes: 0,
        }
    }

    /// Starts the search sequence `offset` queries further on.
    pub fn starting_at_query(mut self, offset: usize) -> OpGen {
        self.next_query += offset;
        self
    }

    pub fn next(&mut self) -> Op {
        let roll = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        if roll < self.search_share {
            let q = self.next_query % self.queries;
            self.next_query += 1;
            return Op::Search(q);
        }
        // Writes: inserts balance removes so the corpus stays near its
        // prefill size; the rest are §3.2 object edits.
        let write = (roll - self.search_share) / (1.0 - self.search_share);
        if write < 0.4 || self.owned.is_empty() {
            return self.insert();
        }
        if write < 0.8 {
            let id = self.owned.pop_front().expect("checked non-empty");
            self.edits.retain(|&(image, _)| image != id);
            return Op::Remove(id);
        }
        if write < 0.9 || self.edits.is_empty() {
            let id = self.owned[self.rng.random_range(0..self.owned.len())];
            let x = self.rng.random_range(0i64..=250);
            let y = self.rng.random_range(0i64..=250);
            let mbr = Rect::new(x, x + 3, y, y + 3).expect("non-empty rect");
            return Op::AddObject(id, mbr);
        }
        let (id, mbr) = self.edits.pop_front().expect("checked non-empty");
        Op::RemoveObject(id, mbr)
    }

    fn insert(&mut self) -> Op {
        self.inserted += 1;
        Op::Insert {
            name: format!("w{}-{}", self.client, self.inserted),
            scene: generate_scene(&SceneConfig::default(), &mut self.rng),
        }
    }

    /// Feeds an op's outcome back: acknowledged inserts become owned,
    /// acknowledged object adds become removable.
    pub fn complete(&mut self, op: Op, ok: bool, new_id: Option<u64>) {
        if !ok {
            return;
        }
        match op {
            Op::Insert { .. } => {
                self.acked_inserts += 1;
                if let Some(id) = new_id {
                    self.owned.push_back(id);
                }
            }
            Op::Remove(_) => self.acked_removes += 1,
            Op::AddObject(id, mbr) if self.owned.contains(&id) => self.edits.push_back((id, mbr)),
            _ => {}
        }
    }
}

//! Answer checks against an in-process reference.

use crate::stream::{image_name, Inputs};
use be2d_core::{convert_scene, SymbolicImage};
use be2d_db::{ImageDatabase, QueryOptions, RecordId};
use be2d_server::api::SearchRequest;
use be2d_server::client::Client;
use serde::{Deserialize, Value};
use std::net::SocketAddr;
use std::time::Duration;

/// Searches sampled for the answer check per run, spread over the
/// query set.
pub const SAMPLED_QUERIES: usize = 32;

/// The options the server resolves for a search body: its own request
/// parser over its own defaults.
fn options_of(body: &str) -> QueryOptions {
    let value: Value = serde_json::from_str(body).expect("benchmark search bodies are JSON");
    SearchRequest::from_value(&value, &QueryOptions::serving())
        .expect("benchmark search bodies are valid")
        .options
}

/// A single `ImageDatabase` holding the prefill under the ids the
/// server assigned.
pub fn reference(inputs: &Inputs, ids: &[u64]) -> ImageDatabase {
    let mut db = ImageDatabase::new();
    for ((i, scene), &id) in inputs.corpus.iter().zip(ids) {
        let id = RecordId(usize::try_from(id).expect("ids fit usize"));
        db.insert_symbolic_with_id(id, &image_name(i.index()), SymbolicImage::from_scene(scene))
            .expect("server ids are unique");
    }
    db
}

/// Sends the `sampled` searches and compares every hit's id and score
/// bits with the reference. Returns (attempted, mismatched).
pub fn check_searches(
    addr: SocketAddr,
    inputs: &Inputs,
    reference: &ImageDatabase,
    sampled: &[usize],
) -> (u64, u64) {
    let mut client = Client::new(addr, Duration::from_secs(30));
    let mut failed = 0;
    for &q in sampled {
        let body = &inputs.search_bodies[q];
        let expected: Vec<(u64, u64)> = reference
            .search(&convert_scene(&inputs.queries[q]), &options_of(body))
            .iter()
            .map(|h| (h.id.index() as u64, h.score.to_bits()))
            .collect();
        let got = client
            .request("POST", "/v1/search", body)
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| hits_of(&r.body));
        if got.as_ref() != Some(&expected) {
            eprintln!("answer mismatch on query {q}: expected {expected:?}, got {got:?}");
            failed += 1;
        }
    }
    (sampled.len() as u64, failed)
}

/// The value under `key` in a JSON object.
pub fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value
        .as_map()?
        .iter()
        .find_map(|(k, v)| (k == key).then_some(v))
}

fn parse(body: &[u8]) -> Option<Value> {
    serde_json::from_str(std::str::from_utf8(body).ok()?).ok()
}

/// `(id, score bits)` of every hit in a search response.
fn hits_of(body: &[u8]) -> Option<Vec<(u64, u64)>> {
    field(&parse(body)?, "hits")?
        .as_seq()?
        .iter()
        .map(|hit| {
            let id = u64::from_value(field(hit, "id")?).ok()?;
            let score = f64::from_value(field(hit, "score")?).ok()?;
            Some((id, score.to_bits()))
        })
        .collect()
}

/// The `"id"` of an insert response body.
pub fn inserted_id(body: &[u8]) -> Option<u64> {
    u64::from_value(field(&parse(body)?, "id")?).ok()
}

/// The `"records"` count of `GET /v1/stats`.
pub fn records_of(stats_body: &[u8]) -> Option<u64> {
    u64::from_value(field(&parse(stats_body)?, "records")?).ok()
}

/// `"threads"` from the `service` section of `GET /v1/stats`.
pub fn threads_of(stats_body: &[u8]) -> Option<u64> {
    u64::from_value(field(field(&parse(stats_body)?, "service")?, "threads")?).ok()
}

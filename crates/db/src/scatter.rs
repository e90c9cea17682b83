//! Scatter-gather primitives of the sharded search: the per-shard scan
//! dispatch and the top-k heap merge.
//!
//! Scores depend only on the record and the query — never on
//! co-resident records — and the merge preserves the global tie-break
//! (score desc, id asc), so a scatter-gather ranking is **bit-identical**
//! to a single [`ImageDatabase`](crate::ImageDatabase) holding the same records (see
//! `crates/db/tests/sharded.rs`).

use crate::SearchHit;

// ---------------------------------------------------------------------------
// Top-k heap merge
// ---------------------------------------------------------------------------

/// One head-of-list entry in the merge heap; ordered like the global
/// ranking (higher score wins, ties to the smaller id).
struct Head {
    hit: SearchHit,
    list: usize,
}

impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Head {}
impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Head {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: greatest = best (score desc, id asc).
        self.hit
            .score
            .total_cmp(&other.hit.score)
            .then_with(|| other.hit.id.cmp(&self.hit.id))
    }
}

/// K-way merges per-shard ranked lists (each already sorted by score
/// desc, id asc) into one global ranking, stopping after `top_k` hits.
pub(crate) fn merge_top_k(lists: Vec<Vec<SearchHit>>, top_k: Option<usize>) -> Vec<SearchHit> {
    use std::collections::BinaryHeap;

    let cap = top_k.unwrap_or(usize::MAX);
    let mut cursors: Vec<std::vec::IntoIter<SearchHit>> =
        lists.into_iter().map(Vec::into_iter).collect();
    let mut heap: BinaryHeap<Head> = BinaryHeap::with_capacity(cursors.len());
    for (list, cursor) in cursors.iter_mut().enumerate() {
        if let Some(hit) = cursor.next() {
            heap.push(Head { hit, list });
        }
    }
    let mut out = Vec::new();
    while out.len() < cap {
        let Some(Head { hit, list }) = heap.pop() else {
            break;
        };
        out.push(hit);
        if let Some(next) = cursors[list].next() {
            heap.push(Head { hit: next, list });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Scatter dispatch
// ---------------------------------------------------------------------------

/// Runs one scan per listed shard and collects the per-shard results,
/// in `shards` order. Scatter threads only pay off when there is real
/// scoring work to split: with at most one shard to scan, on a
/// single-core host, or below `SCATTER_MIN_RECORDS` total records (the
/// caller passes a cheap upper bound), per-query thread spawns would
/// dominate the microsecond-scale scans, so the shards are scanned
/// sequentially on the calling thread instead (results are identical
/// either way).
pub(crate) fn scatter_scan_list<T, F>(shards: &[usize], approx_records: usize, scan: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Copy + Send + Sync,
{
    const SCATTER_MIN_RECORDS: usize = 64;
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    if shards.len() <= 1 || cores == 1 || approx_records < SCATTER_MIN_RECORDS {
        shards.iter().map(|&shard| scan(shard)).collect()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .map(|&shard| scope.spawn(move || scan(shard)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard search panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecordId;
    use be2d_geometry::SceneBuilder;

    #[test]
    fn merge_top_k_orders_and_truncates() {
        let scene = SceneBuilder::new(100, 100)
            .object("A", (0, 10, 10, 20))
            .object("B", (50, 90, 50, 90))
            .build()
            .unwrap();
        let q = be2d_core::convert_scene(&scene);
        let sim = be2d_core::similarity(&q, &q);
        let hit = move |id: usize, score: f64| SearchHit {
            id: RecordId(id),
            name: format!("r{id}"),
            score,
            transform: be2d_geometry::Transform::Identity,
            similarity: be2d_core::Similarity { score, ..sim },
        };
        let lists = vec![
            vec![hit(0, 0.9), hit(2, 0.5)],
            vec![hit(3, 0.9), hit(1, 0.7)],
            vec![],
        ];
        let merged = merge_top_k(lists.clone(), None);
        let ids: Vec<usize> = merged.iter().map(|h| h.id.index()).collect();
        // 0.9 tie broken by id asc, then 0.7, then 0.5
        assert_eq!(ids, vec![0, 3, 1, 2]);
        let top2 = merge_top_k(lists, Some(2));
        assert_eq!(top2.len(), 2);
        assert_eq!(top2[1].id, RecordId(3));
    }
}

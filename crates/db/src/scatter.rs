//! Scatter-gather primitives of the search path: the scoped fan-out that
//! runs shard scans and scoring chunks in parallel, and the top-k heap
//! merge.
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
// Scoped fan-out
// ---------------------------------------------------------------------------

/// Runs `run` on every part and returns the results in part order. The
/// calling thread runs the first part itself and each other part gets
/// one scoped thread: `n` parts cost `n - 1` spawns, and no thread idles
/// in `join` while the others compete for its core. Whether a job is
/// worth splitting, and into how many parts, is the caller's decision.
pub(crate) fn fan_out<P, T>(
    parts: impl IntoIterator<Item = P>,
    run: impl Fn(P) -> T + Sync,
) -> Vec<T>
where
    P: Send,
    T: Send,
{
    let mut parts = parts.into_iter();
    let Some(head) = parts.next() else {
        return Vec::new();
    };
    let run = &run;
    std::thread::scope(|scope| {
        let helpers: Vec<_> = parts.map(|part| scope.spawn(move || run(part))).collect();
        let mut out = Vec::with_capacity(helpers.len() + 1);
        out.push(run(head));
        out.extend(
            helpers
                .into_iter()
                .map(|helper| helper.join().expect("fan-out part panicked")),
        );
        out
    })
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

    #[test]
    fn fan_out_keeps_part_order() {
        assert_eq!(fan_out(0..5, |i| i * 10), vec![0, 10, 20, 30, 40]);
        assert!(fan_out(std::iter::empty::<usize>(), |i| i).is_empty());
    }
}

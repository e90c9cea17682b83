//! Routing-epoch arithmetic shared by online resharding and snapshot
//! restore.
//!
//! A record with global id `g` lives in shard `g % N` at local slot
//! `g / N`. Changing N online means that, mid-migration, *two* layouts
//! coexist; a [`RoutingEpoch`] says which layout owns each id:
//!
//! * **Steady** (`old_n == new_n`): one layout, the boundary is unused.
//! * **Growth** (`new_n > old_n`): records migrate in **ascending** id
//!   order; ids `< boundary` are already in the new layout, ids
//!   `>= boundary` still in the old one.
//! * **Shrink** (`new_n < old_n`): records migrate in **descending** id
//!   order; ids `>= boundary` are in the new layout, ids `< boundary`
//!   still in the old one.
//!
//! The sweep directions are not a stylistic choice — they are what keeps
//! one shard's local slots unambiguous. In shard `s`, slot `l` means
//! global id `l·new_n + s` under the new layout and `l·old_n + s` under
//! the old one. For growth, a slot's new-layout id is always ≥ its
//! old-layout id, so "new ids below the boundary, old ids at or above
//! it" can never both claim one slot — and migrating ascending means a
//! record's destination slot was always vacated (by a smaller id)
//! before it arrives. Shrink mirrors the argument with the inequalities
//! flipped, which is why it must sweep descending. The same reasoning
//! shows local-slot order maps monotonically to global-id order within
//! every shard, so per-shard ranked lists stay sorted by `(score desc,
//! id asc)` mid-migration and the scatter-gather top-k merge remains
//! bit-identical to an unsharded ranking.
//!
//! Snapshot manifests persist the epoch, so a snapshot taken
//! mid-migration restores exactly (see `reroute_shards` in
//! `snapshot.rs`).

/// Which of two `id % n` layouts owns each global id (see the module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RoutingEpoch {
    /// The layout records start in.
    pub(crate) old_n: usize,
    /// The layout records migrate to (`== old_n` when steady).
    pub(crate) new_n: usize,
    /// The migration watermark; meaning depends on the sweep direction.
    pub(crate) boundary: usize,
}

impl RoutingEpoch {
    /// The steady epoch of an `n`-shard database.
    pub(crate) fn steady(n: usize) -> RoutingEpoch {
        RoutingEpoch {
            old_n: n,
            new_n: n,
            boundary: 0,
        }
    }

    /// Whether exactly one layout is live.
    pub(crate) fn is_steady(&self) -> bool {
        self.old_n == self.new_n
    }

    /// Physical shards both layouts need simultaneously.
    pub(crate) fn phys(&self) -> usize {
        self.old_n.max(self.new_n)
    }

    /// Whether `id` has already been migrated to the new layout.
    pub(crate) fn in_new_region(&self, id: usize) -> bool {
        if self.new_n >= self.old_n {
            id < self.boundary
        } else {
            id >= self.boundary
        }
    }

    /// The shard count of the layout owning `id`.
    pub(crate) fn layout_of(&self, id: usize) -> usize {
        if self.is_steady() || self.in_new_region(id) {
            self.new_n
        } else {
            self.old_n
        }
    }

    /// Global id → (owning shard, local slot).
    pub(crate) fn route(&self, id: usize) -> (usize, usize) {
        let n = self.layout_of(id);
        (id % n, id / n)
    }

    /// The global id of the record at `(shard, local)`, or `None` when
    /// no layout can own that slot under this epoch (possible only for
    /// corrupt snapshot manifests — a live database's occupied slots
    /// always resolve, see the module docs).
    pub(crate) fn global_of(&self, shard: usize, local: usize) -> Option<usize> {
        if self.is_steady() {
            return (shard < self.new_n).then(|| local * self.new_n + shard);
        }
        if shard < self.new_n {
            let id = local * self.new_n + shard;
            if self.in_new_region(id) {
                return Some(id);
            }
        }
        if shard < self.old_n {
            let id = local * self.old_n + shard;
            if !self.in_new_region(id) {
                return Some(id);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epochs() -> Vec<RoutingEpoch> {
        let mut out = vec![RoutingEpoch::steady(1), RoutingEpoch::steady(4)];
        for (old_n, new_n) in [(2, 4), (4, 2), (4, 3), (3, 4), (1, 8), (8, 1), (4, 8)] {
            for boundary in [0usize, 1, 5, 17, 64, 1000] {
                out.push(RoutingEpoch {
                    old_n,
                    new_n,
                    boundary,
                });
            }
        }
        out
    }

    #[test]
    fn route_is_injective_and_inverts() {
        for epoch in epochs() {
            let mut seen = std::collections::HashMap::new();
            for id in 0..2000usize {
                let (shard, local) = epoch.route(id);
                assert!(shard < epoch.phys(), "{epoch:?} id {id}");
                if let Some(previous) = seen.insert((shard, local), id) {
                    panic!("{epoch:?}: ids {previous} and {id} share slot ({shard},{local})");
                }
                assert_eq!(
                    epoch.global_of(shard, local),
                    Some(id),
                    "{epoch:?} id {id} does not invert"
                );
            }
        }
    }

    #[test]
    fn local_order_maps_to_global_order_per_shard() {
        // The merge-correctness invariant: within one shard, ascending
        // local slots mean ascending global ids, mid-migration included.
        for epoch in epochs() {
            for shard in 0..epoch.phys() {
                let globals: Vec<usize> = (0..500)
                    .filter_map(|local| epoch.global_of(shard, local))
                    .collect();
                assert!(
                    globals.windows(2).all(|w| w[0] < w[1]),
                    "{epoch:?} shard {shard}: {globals:?}"
                );
            }
        }
    }

    #[test]
    fn steady_epoch_routes_classically() {
        let epoch = RoutingEpoch::steady(4);
        assert!(epoch.is_steady());
        assert_eq!(epoch.route(9), (1, 2));
        assert_eq!(epoch.global_of(1, 2), Some(9));
        assert_eq!(epoch.global_of(4, 0), None, "shard out of range");
        assert_eq!(epoch.layout_of(123), 4);
    }

    #[test]
    fn growth_and_shrink_regions() {
        let grow = RoutingEpoch {
            old_n: 2,
            new_n: 4,
            boundary: 10,
        };
        assert!(grow.in_new_region(9));
        assert!(!grow.in_new_region(10));
        assert_eq!(grow.layout_of(9), 4);
        assert_eq!(grow.layout_of(10), 2);
        assert_eq!(grow.phys(), 4);

        let shrink = RoutingEpoch {
            old_n: 4,
            new_n: 3,
            boundary: 10,
        };
        assert!(!shrink.in_new_region(9));
        assert!(shrink.in_new_region(10));
        assert_eq!(shrink.layout_of(9), 4);
        assert_eq!(shrink.layout_of(10), 3);
        assert_eq!(shrink.phys(), 4);
    }
}

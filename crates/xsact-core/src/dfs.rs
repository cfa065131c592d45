//! Differentiation Feature Sets as *prefix vectors*.
//!
//! Desideratum 2 (validity) requires that feature types of one entity enter
//! a DFS in significance order, so a valid DFS is fully described by how
//! many of each entity's top-ranked types it takes — a vector of per-entity
//! prefix lengths. This representation makes validity *structural*: every
//! representable DFS is valid by construction, and the algorithms only have
//! to respect the size bound.
//!
//! [`DfsSet`] additionally maintains one **selection bitmask** per result —
//! a `⌈m/64⌉`-word bitset over the instance's type universe, updated
//! incrementally on every [`grow`](DfsSet::grow) / [`shrink`](DfsSet::shrink)
//! / [`replace`](DfsSet::replace) — which is what the word-parallel DoD
//! kernels in [`crate::dod`] AND against the differentiability rows. The
//! prefix vectors stay the public representation; the masks are a derived,
//! internally-consistent acceleration structure.

use crate::bits;
use crate::model::{EntityIdx, Instance, TypeId};

/// A valid DFS of one result: `prefix[e]` of entity `e`'s ranked types are
/// selected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfs {
    prefix: Vec<usize>,
}

impl Dfs {
    /// The empty DFS over `entity_count` entities.
    pub fn empty(entity_count: usize) -> Self {
        Dfs { prefix: vec![0; entity_count] }
    }

    /// Builds a DFS from explicit prefix lengths, clamping each to the
    /// number of types the result actually has for that entity: one entry
    /// per entity of the instance, a missing entry 0, an extra one ignored.
    pub fn from_prefixes(inst: &Instance, result: usize, prefixes: &[usize]) -> Self {
        let prefix = (0..inst.entities.len())
            .map(|e| prefixes.get(e).map_or(0, |&p| p.min(inst.ranked(result, e).len())))
            .collect();
        Dfs { prefix }
    }

    /// Prefix length of entity `e`.
    pub fn prefix(&self, e: EntityIdx) -> usize {
        self.prefix[e]
    }

    /// All prefix lengths.
    pub fn prefixes(&self) -> &[usize] {
        &self.prefix
    }

    /// Number of selected features (= selected types: a DFS holds one
    /// feature per type, the type's dominant value).
    pub fn size(&self) -> usize {
        self.prefix.iter().sum()
    }

    /// Whether the DFS respects a size bound `L`.
    pub fn within(&self, bound: usize) -> bool {
        self.size() <= bound
    }

    /// Grows entity `e`'s prefix by one. Returns `false` (and changes
    /// nothing) when the result has no further type for that entity.
    pub fn grow(&mut self, inst: &Instance, result: usize, e: EntityIdx) -> bool {
        if self.prefix[e] < inst.ranked(result, e).len() {
            self.prefix[e] += 1;
            true
        } else {
            false
        }
    }

    /// Shrinks entity `e`'s prefix by one. Returns `false` when already 0.
    pub fn shrink(&mut self, e: EntityIdx) -> bool {
        if self.prefix[e] > 0 {
            self.prefix[e] -= 1;
            true
        } else {
            false
        }
    }

    /// The type that `grow` on `e` would add, if any.
    pub fn next_type(&self, inst: &Instance, result: usize, e: EntityIdx) -> Option<TypeId> {
        inst.ranked(result, e).get(self.prefix[e]).copied()
    }

    /// The type that `shrink` on `e` would remove, if any.
    pub fn last_type(&self, inst: &Instance, result: usize, e: EntityIdx) -> Option<TypeId> {
        if self.prefix[e] == 0 {
            None
        } else {
            Some(inst.ranked(result, e)[self.prefix[e] - 1])
        }
    }

    /// Whether a type is selected.
    pub fn contains(&self, inst: &Instance, result: usize, t: TypeId) -> bool {
        match inst.rank_of(result, t) {
            Some((e, pos)) => pos < self.prefix[e],
            None => false,
        }
    }

    /// The selected types, grouped by entity, each group in significance
    /// order.
    pub fn selected_types(&self, inst: &Instance, result: usize) -> Vec<TypeId> {
        let mut out = Vec::with_capacity(self.size());
        for (e, &len) in self.prefix.iter().enumerate() {
            out.extend_from_slice(&inst.ranked(result, e)[..len]);
        }
        out
    }

    /// Calls `f` for every selected type, grouped by entity in significance
    /// order — the allocation-free form of
    /// [`selected_types`](Self::selected_types).
    pub fn for_each_selected(&self, inst: &Instance, result: usize, mut f: impl FnMut(TypeId)) {
        for (e, &len) in self.prefix.iter().enumerate() {
            for &t in &inst.ranked(result, e)[..len] {
                f(t);
            }
        }
    }

    /// A boolean membership mask over the instance's type universe. The
    /// scalar reference form — the hot paths use the word-packed masks
    /// maintained by [`DfsSet`] instead.
    pub fn selection_mask(&self, inst: &Instance, result: usize) -> Vec<bool> {
        let mut mask = vec![false; inst.type_count()];
        for t in self.selected_types(inst, result) {
            mask[t] = true;
        }
        mask
    }

    /// Validity invariant check, used by tests and debug assertions: every
    /// prefix length is within the result's ranked list.
    pub fn is_consistent(&self, inst: &Instance, result: usize) -> bool {
        self.prefix.len() == inst.entities.len()
            && self.prefix.iter().enumerate().all(|(e, &p)| p <= inst.ranked(result, e).len())
    }
}

/// The DFSs of all results under comparison, one per result, plus the
/// per-result selection bitmasks the DoD kernels consume.
///
/// All mutation goes through [`grow`](Self::grow), [`shrink`](Self::shrink)
/// and [`replace`](Self::replace) so the masks can never drift from the
/// prefix vectors; equality and the public representation remain defined by
/// the prefix vectors alone.
#[derive(Debug, Clone)]
pub struct DfsSet {
    dfss: Vec<Dfs>,
    /// Flat `n × words` selection bitmask arena; row `i` has bit `t` set
    /// iff `dfss[i]` selects type `t`.
    masks: Vec<u64>,
    /// Words per mask row (= `inst.words_per_row()` at construction).
    words: usize,
}

impl PartialEq for DfsSet {
    fn eq(&self, other: &Self) -> bool {
        // Masks are derived state: over the same instance, equal prefix
        // vectors imply equal masks.
        self.dfss == other.dfss
    }
}

impl Eq for DfsSet {}

impl DfsSet {
    /// One empty DFS per result.
    pub fn empty(inst: &Instance) -> Self {
        let words = inst.words_per_row();
        DfsSet {
            dfss: vec![Dfs::empty(inst.entities.len()); inst.result_count()],
            masks: vec![0; inst.result_count() * words],
            words,
        }
    }

    /// Wraps pre-built DFSs.
    ///
    /// # Panics
    /// Panics if the number of DFSs differs from the instance's result
    /// count (checked by callers that build per-result).
    pub fn from_dfss(inst: &Instance, dfss: Vec<Dfs>) -> Self {
        assert_eq!(dfss.len(), inst.result_count());
        let words = inst.words_per_row();
        let mut set = DfsSet { dfss, masks: vec![0; inst.result_count() * words], words };
        for i in 0..set.dfss.len() {
            set.rebuild_mask(inst, i);
        }
        set
    }

    /// The DFS of result `i`.
    pub fn dfs(&self, i: usize) -> &Dfs {
        &self.dfss[i]
    }

    /// The selection bitmask of result `i` as a word slice — bit `t` set
    /// iff the DFS selects type `t`.
    pub fn mask(&self, i: usize) -> &[u64] {
        &self.masks[i * self.words..][..self.words]
    }

    /// Grows entity `e`'s prefix of result `i` by one, keeping the mask in
    /// sync. Returns `false` (and changes nothing) when the result has no
    /// further type for that entity.
    pub fn grow(&mut self, inst: &Instance, i: usize, e: EntityIdx) -> bool {
        let Some(t) = self.dfss[i].next_type(inst, i, e) else {
            return false;
        };
        let grown = self.dfss[i].grow(inst, i, e);
        debug_assert!(grown);
        bits::set_bit(&mut self.masks[i * self.words..][..self.words], t);
        true
    }

    /// Shrinks entity `e`'s prefix of result `i` by one, keeping the mask
    /// in sync. Returns `false` when already 0.
    pub fn shrink(&mut self, inst: &Instance, i: usize, e: EntityIdx) -> bool {
        let Some(t) = self.dfss[i].last_type(inst, i, e) else {
            return false;
        };
        let shrunk = self.dfss[i].shrink(e);
        debug_assert!(shrunk);
        bits::clear_bit(&mut self.masks[i * self.words..][..self.words], t);
        true
    }

    /// Replaces the DFS of result `i`, rebuilding its mask row.
    pub fn replace(&mut self, inst: &Instance, i: usize, dfs: Dfs) {
        self.dfss[i] = dfs;
        self.rebuild_mask(inst, i);
    }

    fn rebuild_mask(&mut self, inst: &Instance, i: usize) {
        let row = &mut self.masks[i * self.words..][..self.words];
        row.fill(0);
        self.dfss[i].for_each_selected(inst, i, |t| bits::set_bit(row, t));
    }

    /// Number of DFSs (= results).
    pub fn len(&self) -> usize {
        self.dfss.len()
    }

    /// Whether the set is empty (never true for a built instance).
    pub fn is_empty(&self) -> bool {
        self.dfss.is_empty()
    }

    /// Iterates the DFSs in result order.
    pub fn iter(&self) -> impl Iterator<Item = &Dfs> {
        self.dfss.iter()
    }

    /// All DFSs satisfy the size bound and validity, and (as part of the
    /// same debug-time contract) every mask row agrees with its prefix
    /// vector.
    pub fn all_valid(&self, inst: &Instance) -> bool {
        self.dfss
            .iter()
            .enumerate()
            .all(|(i, d)| d.is_consistent(inst, i) && d.within(inst.config.size_bound))
            && self.masks_consistent(inst)
    }

    /// Whether every incremental mask row equals the mask rebuilt from its
    /// prefix vector — the invariant the annealing debug assertions pin.
    pub fn masks_consistent(&self, inst: &Instance) -> bool {
        (0..self.dfss.len()).all(|i| {
            let mut fresh = vec![0u64; self.words];
            self.dfss[i].for_each_selected(inst, i, |t| bits::set_bit(&mut fresh, t));
            fresh == self.mask(i)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DfsConfig;
    use xsact_entity::{FeatureType, ResultFeatures};

    fn ty(e: &str, a: &str) -> FeatureType {
        FeatureType::new(e, a)
    }

    fn inst() -> Instance {
        let a = ResultFeatures::from_raw(
            "A",
            [("p".to_string(), 1), ("r".to_string(), 10)],
            [
                (ty("p", "name"), "A".to_string(), 1),
                (ty("r", "x"), "yes".to_string(), 9),
                (ty("r", "y"), "yes".to_string(), 5),
                (ty("r", "z"), "yes".to_string(), 2),
            ],
        );
        let b = ResultFeatures::from_raw(
            "B",
            [("p".to_string(), 1), ("r".to_string(), 10)],
            [
                (ty("p", "name"), "B".to_string(), 1),
                (ty("r", "x"), "yes".to_string(), 3),
                (ty("r", "w"), "yes".to_string(), 7),
            ],
        );
        Instance::build(&[a, b], DfsConfig { size_bound: 3, threshold_pct: 10.0 })
    }

    #[test]
    fn empty_dfs() {
        let inst = inst();
        let d = Dfs::empty(inst.entities.len());
        assert_eq!(d.size(), 0);
        assert!(d.within(0));
        assert!(d.selected_types(&inst, 0).is_empty());
        assert!(d.is_consistent(&inst, 0));
    }

    #[test]
    fn grow_and_shrink_respect_bounds() {
        let inst = inst();
        let p = inst.entities.iter().position(|e| e == "p").unwrap();
        let r = inst.entities.iter().position(|e| e == "r").unwrap();
        let mut d = Dfs::empty(inst.entities.len());
        assert!(d.grow(&inst, 0, p));
        assert!(!d.grow(&inst, 0, p)); // result 0 has one `p` type
        assert!(d.grow(&inst, 0, r));
        assert!(d.grow(&inst, 0, r));
        assert!(d.grow(&inst, 0, r));
        assert!(!d.grow(&inst, 0, r)); // exhausted the 3 `r` types
        assert_eq!(d.size(), 4);
        assert!(d.shrink(r));
        assert_eq!(d.size(), 3);
        let mut empty = Dfs::empty(inst.entities.len());
        assert!(!empty.shrink(r));
    }

    #[test]
    fn selected_types_are_prefixes_in_significance_order() {
        let inst = inst();
        let r = inst.entities.iter().position(|e| e == "r").unwrap();
        let mut d = Dfs::empty(inst.entities.len());
        d.grow(&inst, 0, r);
        d.grow(&inst, 0, r);
        let selected = d.selected_types(&inst, 0);
        let attrs: Vec<&str> = selected.iter().map(|&t| inst.types[t].attribute.as_str()).collect();
        // x (9) then y (5) — never z before y.
        assert_eq!(attrs, ["x", "y"]);
        // The callback form visits the same types in the same order.
        let mut visited = Vec::new();
        d.for_each_selected(&inst, 0, |t| visited.push(t));
        assert_eq!(visited, selected);
    }

    #[test]
    fn contains_matches_mask() {
        let inst = inst();
        let r = inst.entities.iter().position(|e| e == "r").unwrap();
        let mut d = Dfs::empty(inst.entities.len());
        d.grow(&inst, 0, r);
        let mask = d.selection_mask(&inst, 0);
        for (t, &selected) in mask.iter().enumerate() {
            assert_eq!(selected, d.contains(&inst, 0, t));
        }
    }

    #[test]
    fn next_and_last_type() {
        let inst = inst();
        let r = inst.entities.iter().position(|e| e == "r").unwrap();
        let mut d = Dfs::empty(inst.entities.len());
        let first = d.next_type(&inst, 0, r).unwrap();
        assert_eq!(inst.types[first].attribute, "x");
        assert_eq!(d.last_type(&inst, 0, r), None);
        d.grow(&inst, 0, r);
        assert_eq!(d.last_type(&inst, 0, r), Some(first));
        let second = d.next_type(&inst, 0, r).unwrap();
        assert_eq!(inst.types[second].attribute, "y");
    }

    #[test]
    fn from_prefixes_clamps() {
        let inst = inst();
        let d = Dfs::from_prefixes(&inst, 1, &[10, 10]);
        // Result 1 has 1 `p` type and 2 `r` types.
        assert_eq!(d.size(), 3);
        assert!(d.is_consistent(&inst, 1));
    }

    #[test]
    fn from_prefixes_takes_one_entry_per_entity() {
        let inst = inst();
        for prefixes in [&[1][..], &[1, 2, 7, 9]] {
            let dfss: Vec<Dfs> =
                (0..inst.result_count()).map(|i| Dfs::from_prefixes(&inst, i, prefixes)).collect();
            assert_eq!(dfss[0].prefixes().len(), inst.entities.len(), "{prefixes:?}");
            let set = DfsSet::from_dfss(&inst, dfss);
            assert!(set.all_valid(&inst), "{prefixes:?}");
            let mut single = set.clone();
            crate::single_swap::single_swap_from(&inst, &mut single);
            assert!(crate::single_swap::is_single_swap_optimal(&inst, &single), "{prefixes:?}");
            let mut multi = set.clone();
            crate::multi_swap::multi_swap_from(&inst, &mut multi);
            assert!(crate::multi_swap::is_multi_swap_optimal(&inst, &multi), "{prefixes:?}");
            let config =
                crate::annealing::AnnealingConfig { iterations: 200, ..Default::default() };
            let (annealed, dod) = crate::annealing::anneal_from(&inst, set, &config);
            assert!(annealed.all_valid(&inst), "{prefixes:?}");
            assert_eq!(dod, crate::dod::dod_total(&inst, &annealed), "{prefixes:?}");
        }
    }

    #[test]
    fn dfs_set_validity() {
        let inst = inst();
        let mut set = DfsSet::empty(&inst);
        assert!(set.all_valid(&inst));
        let r = inst.entities.iter().position(|e| e == "r").unwrap();
        set.grow(&inst, 0, r);
        set.grow(&inst, 0, r);
        set.grow(&inst, 0, r);
        assert!(set.all_valid(&inst)); // size 3 == bound
        let p = inst.entities.iter().position(|e| e == "p").unwrap();
        set.grow(&inst, 0, p);
        assert!(!set.all_valid(&inst)); // size 4 > bound 3
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
    }

    #[test]
    fn set_mutations_keep_masks_in_sync() {
        let inst = inst();
        let p = inst.entities.iter().position(|e| e == "p").unwrap();
        let r = inst.entities.iter().position(|e| e == "r").unwrap();
        let mut set = DfsSet::empty(&inst);
        assert!(set.mask(0).iter().all(|&w| w == 0));

        assert!(set.grow(&inst, 0, r));
        assert!(set.grow(&inst, 0, p));
        assert!(set.masks_consistent(&inst));
        // The packed mask mirrors the scalar reference mask bit for bit.
        let scalar = set.dfs(0).selection_mask(&inst, 0);
        for (t, &sel) in scalar.iter().enumerate() {
            assert_eq!(crate::bits::test_bit(set.mask(0), t), sel, "type {t}");
        }

        assert!(set.shrink(&inst, 0, r));
        assert!(set.masks_consistent(&inst));
        assert!(!set.shrink(&inst, 0, r), "r prefix already empty");
        assert!(!set.grow(&inst, 0, p), "p exhausted");
        assert!(set.masks_consistent(&inst));

        set.replace(&inst, 0, Dfs::from_prefixes(&inst, 0, &[1, 3]));
        assert!(set.masks_consistent(&inst));
        assert_eq!(xsact_kernel::and2_count(set.mask(0), set.mask(0)), set.dfs(0).size() as u32);

        // Result 1's mask never moved.
        assert!(set.mask(1).iter().all(|&w| w == 0));
    }

    #[test]
    fn equality_ignores_derived_masks() {
        let inst = inst();
        let a = DfsSet::from_dfss(
            &inst,
            vec![Dfs::from_prefixes(&inst, 0, &[1, 2]), Dfs::empty(inst.entities.len())],
        );
        let mut b = DfsSet::empty(&inst);
        let p = inst.entities.iter().position(|e| e == "p").unwrap();
        let r = inst.entities.iter().position(|e| e == "r").unwrap();
        b.grow(&inst, 0, p);
        b.grow(&inst, 0, r);
        b.grow(&inst, 0, r);
        // Same prefix vectors reached by different routes: equal sets and
        // equal masks.
        assert_eq!(a, b);
        assert_eq!(a.mask(0), b.mask(0));
    }

    #[test]
    fn missing_type_not_contained() {
        let inst = inst();
        // Type `w` exists only in result 1.
        let w = inst.types.iter().position(|t| t.attribute == "w").unwrap();
        let d = Dfs::from_prefixes(&inst, 0, &[1, 3]);
        assert!(!d.contains(&inst, 0, w));
    }
}

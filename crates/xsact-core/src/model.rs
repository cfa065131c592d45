//! The comparison instance: an interned, preprocessed view of the results
//! being compared.
//!
//! [`Instance::build`] takes the per-result feature statistics produced by
//! `xsact-entity` and computes everything the DFS algorithms need:
//!
//! * an interned universe of feature types and entities,
//! * per result and entity, the types in **significance order** (Desideratum
//!   2: a valid DFS takes a prefix of this ranking),
//! * the **differentiability matrix**: for every pair of results and every
//!   shared feature type, whether the occurrence ratios differ by more than
//!   the threshold `x%` of the smaller one (paper §2) — stored as one flat
//!   `u64` bit arena with `⌈m/64⌉` words per `(i, j)` row, so the DoD
//!   kernels in [`crate::dod`] are AND + popcount loops,
//! * per result and type, the *potential* (how many other results are
//!   differentiable on the type), counted as the matrix is filled since it
//!   never depends on what the DFSs select,
//! * per result and type, the display cell for the comparison table.
//!
//! # How it is built
//!
//! The features arrive **prepared** (`xsact_entity::features`): every stat
//! carries a content hash of its type, its single-value numeric parse and
//! its values in `(hash, string)` order, so a build derives nothing from a
//! string that depends on one result alone.
//!
//! 1. *Types.* One open-addressing probe per stat on the prepared hash
//!    finds the distinct types; the `m` survivors are sorted by
//!    `(entity, attribute)` once, and the entities are read off that sorted
//!    run. A hash only routes the probe — a slot matches when the type
//!    **strings** are equal — so the interned universe is the one a
//!    string-keyed set would produce, whatever the hash function.
//! 2. *Cells.* One flat type-major `m × n` array of fixed-size cells holds,
//!    per (type, result), what the matrix fill compares (numeric value,
//!    value fingerprint, ratios, a slice of one shared value arena that
//!    carries each value's ratio) and what the table shows; a result's
//!    ranked lists are runs of one flat array. Labels and dominant values
//!    are copied into one text arena — the instance borrows nothing, and
//!    allocates per array, not per result or per stat.
//! 3. *Matrix.* The `O(n² · m)` fill walks one contiguous column of cells
//!    per type and compares every pair of results that have the type; each
//!    differentiable pair sets its two bits and counts towards both
//!    potentials there, so no second pass sums the matrix. Single-valued
//!    stats — nearly all of them — are decided from the cells alone: both
//!    numeric → magnitude test; value hashes differ → two one-sided values;
//!    hashes equal → confirm on the strings, compare the ratios.
//!    Multi-valued stats compare **fingerprints** first: a cell's
//!    fingerprint is a function of its ordered value hashes (of one value,
//!    that value's hash), so unequal fingerprints prove unequal value sets,
//!    i.e. a value on one side only — which differentiates whenever every
//!    ratio of both cells is positive (and the threshold finite). Equal
//!    fingerprints prove nothing (hashes collide), so those pairs, and any
//!    pair with a zero ratio, merge-walk their prepared value lists and the
//!    strings decide. Like the type probe's hash, a fingerprint only routes:
//!    the matrix is the same whatever the hash function.
//!
//! The feature statistics are only read, through [`Borrow`]: a slice of
//! owned [`ResultFeatures`] and a slice of the `Arc`s a feature cache hands
//! out build the same instance through the same code — features extracted
//! from *different documents* included, which is why the routing key is a
//! content hash and not a per-document id. On the way out an instance is
//! shared by pointer: a [`crate::ComparisonOutcome`] holds an
//! `Arc<Instance>`, so any number of runs over one result set point at one
//! type table, one set of cells and one bit matrix.

use crate::bits;
use std::borrow::Borrow;
use std::cmp::Ordering;
use xsact_entity::{FeatureType, ResultFeatures, Stat};

/// Index of a feature type in [`Instance::types`].
pub type TypeId = usize;
/// Index of an entity in [`Instance::entities`].
pub type EntityIdx = usize;

/// Tunables of DFS construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DfsConfig {
    /// Maximum number of features per DFS — the paper's `L` (Desideratum 1).
    pub size_bound: usize,
    /// Differentiability threshold `x` in percent (paper: "empirically set
    /// to 10% in our system").
    pub threshold_pct: f64,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig { size_bound: 10, threshold_pct: 10.0 }
    }
}

/// The table cell of one feature type within one result, as
/// [`Instance::cell`] hands it out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellStat<'a> {
    /// The dominant value of the type in this result.
    pub value: &'a str,
    /// Occurrence ratio of the dominant value (`count / entity_instances`).
    pub ratio: f64,
    /// Occurrence count of the dominant value.
    pub count: u32,
    /// Number of instances of the owning entity in this result.
    pub instances: u32,
    /// Significance ratio of the whole type (`occurrences /
    /// entity_instances`) — what snippet generation ranks by.
    pub sig_ratio: f64,
}

/// A run of the instance's text arena.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// Appends `s` to `text` and returns where it went.
    fn push(text: &mut String, s: &str) -> Span {
        let start = u32::try_from(text.len()).expect("text arena below 4 GiB");
        text.push_str(s);
        Span { start, len: s.len() as u32 }
    }

    fn bytes(self, text: &str) -> &[u8] {
        &text.as_bytes()[self.start as usize..][..self.len as usize]
    }

    fn of(self, text: &str) -> &str {
        &text[self.start as usize..][..self.len as usize]
    }
}

/// One (type, result) slot of the flat `m × n` cell array: what the matrix
/// fill compares and what the table shows, in one fixed-size record so the
/// results of one type are one contiguous column.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// Number of distinct values of the stat; 0 marks a type the result
    /// lacks.
    value_count: u32,
    /// The stat's fingerprint: a function of its prepared value hashes in
    /// order — for one value, that value's content hash.
    hash: u32,
    /// The single finite numeric value; NaN when there is none (a numeric
    /// parse is finite only, so NaN is free to mean "not a number").
    numeric: f64,
    /// Instance count of the owning entity.
    instances: u32,
    /// Occurrence count of the dominant value.
    count: u32,
    /// `count / instances`.
    ratio: f64,
    /// `occurrences / instances`.
    sig_ratio: f64,
    /// The dominant value, in the text arena.
    value: Span,
    /// Where the stat's `value_count` values start in the value arena.
    values_start: u32,
    /// Position of the type in its entity's ranked list for this result.
    rank: u32,
    /// Whether every value's ratio is positive (a value of count 0, or an
    /// entity without instances, has ratio 0).
    positive: bool,
}

impl Default for Cell {
    fn default() -> Self {
        Cell {
            value_count: 0,
            hash: 0,
            numeric: f64::NAN,
            instances: 0,
            count: 0,
            ratio: 0.0,
            sig_ratio: 0.0,
            value: Span::default(),
            values_start: 0,
            rank: 0,
            positive: false,
        }
    }
}

/// One value of one stat in the build's shared value arena; a stat's values
/// are adjacent and ascend by `(hash, value)`.
struct ValueRef<'a> {
    hash: u32,
    /// `count / instances`, computed once here so no comparison divides.
    ratio: f64,
    value: &'a str,
}

/// `count / instances`, 0 for an entity without instances.
#[inline]
fn per_instance(count: u32, instances: u32) -> f64 {
    if instances == 0 {
        0.0
    } else {
        f64::from(count) / f64::from(instances)
    }
}

impl Cell {
    /// The cell of a stat (rank still unset): its dominant value goes to
    /// `text`, its values to `arena`.
    fn of<'a>(stat: Stat<'a>, text: &mut String, arena: &mut Vec<ValueRef<'a>>) -> Cell {
        let instances = stat.entity_instances();
        let (dominant, count) = stat.dominant();
        let values_start = arena.len();
        arena.extend(stat.hashed_values().map(|(hash, value, count)| ValueRef {
            hash,
            ratio: per_instance(count, instances),
            value,
        }));
        let stat_values = &arena[values_start..];
        let hash = stat_values[1..].iter().fold(stat_values[0].hash, |fingerprint, v| {
            (fingerprint.rotate_left(5) ^ v.hash).wrapping_mul(0x9e37_79b9)
        });
        Cell {
            value_count: stat_values.len() as u32,
            hash,
            numeric: stat.numeric().unwrap_or(f64::NAN),
            instances,
            count,
            ratio: per_instance(count, instances),
            sig_ratio: per_instance(stat.occurrences(), instances),
            value: Span::push(text, dominant),
            values_start: values_start as u32,
            rank: 0,
            positive: stat_values.iter().all(|v| v.ratio > 0.0),
        }
    }

    fn values<'v, 'a>(&self, arena: &'v [ValueRef<'a>]) -> &'v [ValueRef<'a>] {
        &arena[self.values_start as usize..][..self.value_count as usize]
    }
}

/// The distinct feature types of a build, found by open addressing on the
/// prepared type hash.
struct TypeInterner<'a> {
    /// Index into `found` plus one; 0 is an empty slot. At least twice as
    /// many slots as stats, so a probe always ends.
    slots: Vec<u32>,
    /// The distinct `(entity, attribute)` types in first-seen order, with
    /// their hashes.
    found: Vec<(u64, (&'a str, &'a str))>,
}

impl<'a> TypeInterner<'a> {
    fn for_stats(stats: usize) -> Self {
        TypeInterner { slots: vec![0; (2 * stats).next_power_of_two().max(2)], found: Vec::new() }
    }

    /// The first-seen index of `ty`. The hash picks where to look; only
    /// string equality makes a match.
    fn intern(&mut self, hash: u64, ty: (&'a str, &'a str)) -> u32 {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                self.found.push((hash, ty));
                self.slots[at] = self.found.len() as u32;
                return self.found.len() as u32 - 1;
            }
            let (seen_hash, seen) = self.found[slot as usize - 1];
            if seen_hash == hash && seen == ty {
                return slot - 1;
            }
            at = (at + 1) & mask;
        }
    }
}

/// A fully preprocessed comparison instance over `n` results.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The interned feature types, sorted by (entity, attribute).
    pub types: Vec<FeatureType>,
    /// The interned entity paths, sorted.
    pub entities: Vec<String>,
    /// Entity of each type.
    pub entity_of: Vec<EntityIdx>,
    /// Configuration used to build the instance.
    pub config: DfsConfig,
    /// Result labels, then every cell's dominant value.
    text: String,
    /// Per result, its label in `text`.
    labels: Vec<Span>,
    /// Flat type-major `m × n`: the cell of type `t` and result `i` is
    /// `cells[t*n + i]`.
    cells: Vec<Cell>,
    /// Every result's types, grouped by entity, each group in significance
    /// order; result `i`'s entity `e` is the run
    /// `ranked_off[i*(E+1) + e] .. ranked_off[i*(E+1) + e + 1]`.
    ranked: Vec<TypeId>,
    /// Flat `n × (E + 1)` run boundaries into `ranked`.
    ranked_off: Vec<u32>,
    /// Words per bitset row (`⌈type_count/64⌉`).
    words: usize,
    /// The differentiability matrix as a flat bit arena: row `(i, j)` is
    /// `diff[(i*n + j)*words ..][..words]`, bit `t` set iff results `i` and
    /// `j` are differentiable in type `t`. Symmetric; `false` whenever
    /// either result lacks `t`.
    diff: Vec<u64>,
    /// Per result and type, the *potential*: how many other results are
    /// differentiable from it on the type. Flat `n × m`; independent of any
    /// DFS selection, so computed once here.
    pot: Vec<u32>,
}

impl Instance {
    /// Preprocesses a set of results for comparison.
    ///
    /// The results are only read: a slice of owned [`ResultFeatures`] and a
    /// slice of `Arc<ResultFeatures>` handed out by a feature cache build
    /// the same instance, and neither is retained.
    ///
    /// # Panics
    /// Panics if `results` is empty — there is nothing to compare.
    pub fn build<R: Borrow<ResultFeatures>>(results: &[R], config: DfsConfig) -> Self {
        assert!(!results.is_empty(), "cannot compare zero results");
        let n = results.len();
        let stat_count: usize = results.iter().map(|rf| rf.borrow().type_count()).sum();

        // Distinct types, one probe per stat; `stat_types[k]` is the k-th
        // stat's type — in first-seen numbering until the types are sorted.
        let mut interner = TypeInterner::for_stats(stat_count);
        let mut stat_types: Vec<u32> = Vec::with_capacity(stat_count);
        for rf in results.iter().map(Borrow::borrow) {
            stat_types.extend(
                rf.stats().map(|s| interner.intern(s.ty_hash(), (s.entity(), s.attribute()))),
            );
        }

        // Sorted by (entity, attribute): the position is the `TypeId`, and
        // the entities are the distinct heads of that one sorted run.
        let mut sorted: Vec<((&str, &str), usize)> =
            interner.found.iter().enumerate().map(|(seen, &(_, ty))| (ty, seen)).collect();
        sorted.sort_unstable();
        let m = sorted.len();
        let mut type_of: Vec<u32> = vec![0; m];
        let mut types: Vec<FeatureType> = Vec::with_capacity(m);
        let mut entities: Vec<String> = Vec::new();
        let mut entity_of: Vec<EntityIdx> = Vec::with_capacity(m);
        for (t, &((entity, attribute), seen)) in sorted.iter().enumerate() {
            type_of[seen] = t as u32;
            if entities.last().map(String::as_str) != Some(entity) {
                entities.push(entity.to_owned());
            }
            entity_of.push(entities.len() - 1);
            types.push(FeatureType::new(entity, attribute));
        }
        for ty in &mut stat_types {
            *ty = type_of[*ty as usize];
        }

        // Run boundaries of the ranked lists: count each result's stats per
        // entity, then accumulate over the whole array.
        let stride = entities.len() + 1;
        let mut ranked_off = vec![0u32; n * stride];
        let mut types_of_stats = stat_types.iter().map(|&t| t as TypeId);
        for (i, rf) in results.iter().enumerate() {
            for t in types_of_stats.by_ref().take(rf.borrow().type_count()) {
                ranked_off[i * stride + entity_of[t] + 1] += 1;
            }
        }
        // (A result's first slot counted nothing: it starts where the
        // previous result ends.)
        let mut end = 0;
        for off in &mut ranked_off {
            end += *off;
            *off = end;
        }

        // Cells and ranked lists. `rf.stats()` is in significance order per
        // entity, so filling each entity's run front to back ranks it.
        let label_bytes: usize = results.iter().map(|rf| rf.borrow().label().len()).sum();
        let mut text = String::with_capacity(label_bytes + 12 * stat_count);
        let mut labels: Vec<Span> = Vec::with_capacity(n);
        let mut cells = vec![Cell::default(); n * m];
        let mut ranked: Vec<TypeId> = vec![0; stat_count];
        let value_count =
            results.iter().flat_map(|rf| rf.borrow().stats()).map(|s| s.values().len());
        let mut arena: Vec<ValueRef<'_>> = Vec::with_capacity(value_count.sum());
        let mut next: Vec<u32> = Vec::with_capacity(stride);
        let mut types_of_stats = stat_types.iter().map(|&t| t as TypeId);
        for (i, rf) in results.iter().map(Borrow::borrow).enumerate() {
            labels.push(Span::push(&mut text, rf.label()));
            let runs = &ranked_off[i * stride..][..stride];
            next.clear();
            next.extend_from_slice(runs);
            for (stat, t) in rf.stats().zip(types_of_stats.by_ref()) {
                let e = entity_of[t];
                let mut cell = Cell::of(stat, &mut text, &mut arena);
                cell.rank = next[e] - runs[e];
                ranked[next[e] as usize] = t;
                next[e] += 1;
                debug_assert_eq!(cells[t * n + i].value_count, 0, "a result lists a type once");
                cells[t * n + i] = cell;
            }
        }

        // Differentiability matrix and potentials: per type, one contiguous
        // column of cells; a differentiable pair sets both of its bits and
        // counts once towards each side's potential.
        let words = bits::words_for(m);
        let mut diff = vec![0u64; n * n * words];
        let mut pot = vec![0u32; n * m];
        let share = config.threshold_pct / 100.0;
        for (t, column) in cells.chunks_exact(n).enumerate() {
            for (i, a) in column.iter().enumerate().filter(|(_, a)| a.value_count != 0) {
                for (j, b) in column.iter().enumerate().skip(i + 1) {
                    if b.value_count != 0 && cells_differ(a, b, &text, &arena, share) {
                        bits::set_bit(&mut diff[(i * n + j) * words..][..words], t);
                        bits::set_bit(&mut diff[(j * n + i) * words..][..words], t);
                        pot[i * m + t] += 1;
                        pot[j * m + t] += 1;
                    }
                }
            }
        }

        Instance {
            types,
            entities,
            entity_of,
            config,
            text,
            labels,
            cells,
            ranked,
            ranked_off,
            words,
            diff,
            pot,
        }
    }

    /// Number of results.
    pub fn result_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of interned feature types.
    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// The result labels, in column order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.labels.iter().map(|label| label.of(&self.text))
    }

    /// Result `i`'s feature types of entity `e`, in significance order.
    pub fn ranked(&self, i: usize, e: EntityIdx) -> &[TypeId] {
        let runs = &self.ranked_off[i * (self.entities.len() + 1)..];
        &self.ranked[runs[e] as usize..runs[e + 1] as usize]
    }

    /// Result `i`'s ranked lists, one per entity in [`Instance::entities`]
    /// order.
    pub fn ranked_lists(&self, i: usize) -> impl Iterator<Item = &[TypeId]> {
        (0..self.entities.len()).map(move |e| self.ranked(i, e))
    }

    /// Total number of feature types result `i` has (the paper's `m`).
    pub fn type_count_of(&self, i: usize) -> usize {
        let runs = &self.ranked_off[i * (self.entities.len() + 1)..];
        (runs[self.entities.len()] - runs[0]) as usize
    }

    /// The display cell of type `t` in result `i`; `None` when the result
    /// lacks the type.
    pub fn cell(&self, i: usize, t: TypeId) -> Option<CellStat<'_>> {
        let cell = &self.cells[t * self.labels.len() + i];
        (cell.value_count != 0).then(|| CellStat {
            value: cell.value.of(&self.text),
            ratio: cell.ratio,
            count: cell.count,
            instances: cell.instances,
            sig_ratio: cell.sig_ratio,
        })
    }

    /// Significance ratio of type `t` in result `i` (`occurrences /
    /// entity_instances`, the `sig_ratio` of its [`cell`](Self::cell)) —
    /// what the greedy constructions rank candidates by, read without
    /// assembling the cell. 0 when the result lacks the type.
    pub fn sig_ratio(&self, i: usize, t: TypeId) -> f64 {
        self.cells[t * self.labels.len() + i].sig_ratio
    }

    /// The `(entity, rank)` position of type `t` within result `i`; `None`
    /// when the result lacks the type.
    pub fn rank_of(&self, i: usize, t: TypeId) -> Option<(EntityIdx, usize)> {
        let cell = &self.cells[t * self.labels.len() + i];
        (cell.value_count != 0).then(|| (self.entity_of[t], cell.rank as usize))
    }

    /// Words per bitset row over the type universe (`⌈m/64⌉`) — the row
    /// width of [`Instance::diff_row`] and of `DfsSet` selection masks.
    pub fn words_per_row(&self) -> usize {
        self.words
    }

    /// The differentiability row of result pair `(i, j)` as a word slice —
    /// bit `t` set iff the pair is differentiable in type `t`.
    pub fn diff_row(&self, i: usize, j: usize) -> &[u64] {
        &self.diff[(i * self.labels.len() + j) * self.words..][..self.words]
    }

    /// Result `i`'s differentiability rows against every result in order,
    /// read off one contiguous run of the matrix: the `j`-th is
    /// [`diff_row`](Self::diff_row)`(i, j)` and the `i`-th is all zeroes.
    /// The matrix is symmetric, so this is also every result's row against
    /// `i`. An instance without types has no bits and yields no rows.
    pub(crate) fn diff_rows(&self, i: usize) -> std::slice::ChunksExact<'_, u64> {
        let run = self.labels.len() * self.words;
        self.diff[i * run..][..run].chunks_exact(self.words.max(1))
    }

    /// The precomputed potentials of result `i`, one per type: how many
    /// other results are differentiable from `i` on the type, whatever
    /// their DFSs currently select.
    ///
    /// Potentials are the tie-breaker of both local-search algorithms: a move
    /// that leaves the DoD unchanged but selects a type other results *could*
    /// match is preferred, which lets two DFSs converge on a shared
    /// differentiable type neither had selected yet (pure DoD deltas are 0 on
    /// both sides of such a type, so a DoD-only search could never pick it up).
    pub fn potentials(&self, i: usize) -> &[u32] {
        &self.pot[i * self.types.len()..][..self.types.len()]
    }

    /// Heap bytes of the differentiability bit matrix (`n² · ⌈m/64⌉` words)
    /// — reported by the bench sweeps to make the memory win visible.
    pub fn bitmatrix_bytes(&self) -> usize {
        self.diff.len() * std::mem::size_of::<u64>()
    }
}

/// The paper's differentiability test between two stats of the same feature
/// type: is there a feature (type + value) whose occurrence ratios differ by
/// more than `x%` of the smaller one?
///
/// A value present on one side and absent on the other always differentiates
/// (the minimum ratio is 0, so any positive gap exceeds the threshold).
///
/// **Numeric rule**: when both results carry a single **finite** numeric
/// value for the type (ratings, prices, years), the *values themselves* are
/// compared with the same `x%`-of-the-smaller test instead of the
/// exact-value histograms. This matches the paper's worked example: the
/// snippets of Figure 1 share `Product:Rating` with values 4.2 and 4.1, yet
/// their DoD is 2 — only `Product:Name` and `Pro:Compact` count — so a 2.4%
/// rating gap must *not* differentiate under the 10% threshold. Text that
/// merely parses as a float — `Nan`, `inf`, `1e400` — is not a magnitude and
/// stays categorical.
fn cells_differ(a: &Cell, b: &Cell, text: &str, arena: &[ValueRef<'_>], share: f64) -> bool {
    let (na, nb) = (a.numeric, b.numeric);
    if !na.is_nan() && !nb.is_nan() {
        return (na - nb).abs() > share * na.abs().min(nb.abs());
    }
    if a.value_count == 1 && b.value_count == 1 {
        // One value each: the same one (hash, then bytes), or two
        // one-sided ones.
        return if a.hash == b.hash && a.value.bytes(text) == b.value.bytes(text) {
            ratios_differ(a.ratio, b.ratio, share)
        } else {
            ratios_differ(a.ratio, 0.0, share) || ratios_differ(0.0, b.ratio, share)
        };
    }
    // Unequal fingerprints: the value sets differ, so some value is on one
    // side only, and a positive ratio against 0 exceeds any finite
    // threshold's share of 0.
    if a.hash != b.hash && a.positive && b.positive && share.is_finite() {
        return true;
    }
    values_differ(a.values(arena), b.values(arena), share)
}

/// Merge-walks two value lists, both ascending by `(hash, value)`: every
/// value of the union is tested once.
#[inline(never)]
fn values_differ(va: &[ValueRef<'_>], vb: &[ValueRef<'_>], share: f64) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < va.len() || j < vb.len() {
        let side = match (va.get(i), vb.get(j)) {
            (Some(x), Some(y)) => x.hash.cmp(&y.hash).then_with(|| x.value.cmp(y.value)),
            (Some(_), None) => Ordering::Less,
            (None, _) => Ordering::Greater,
        };
        let (mut pa, mut pb) = (0.0, 0.0);
        if side != Ordering::Greater {
            pa = va[i].ratio;
            i += 1;
        }
        if side != Ordering::Less {
            pb = vb[j].ratio;
            j += 1;
        }
        if ratios_differ(pa, pb, share) {
            return true;
        }
    }
    false
}

/// Threshold comparison of two occurrence ratios; `share` is the threshold
/// as a fraction (`x / 100`).
fn ratios_differ(pa: f64, pb: f64, share: f64) -> bool {
    (pa - pb).abs() > share * pa.min(pb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsact_entity::ResultFeatures;

    /// Whether results `i` and `j` are differentiable in type `t`
    /// (`false` if either lacks the type — absence means *unknown*, the
    /// paper's NULL-value analogy).
    fn differentiable(inst: &Instance, i: usize, j: usize, t: TypeId) -> bool {
        bits::test_bit(inst.diff_row(i, j), t)
    }

    fn ty(e: &str, a: &str) -> FeatureType {
        FeatureType::new(e, a)
    }

    fn gps1() -> ResultFeatures {
        ResultFeatures::from_raw(
            "GPS 1",
            [("product".to_string(), 1), ("review".to_string(), 11)],
            [
                (ty("product", "name"), "TomTom Go 630".to_string(), 1),
                (ty("review", "pros:easy_to_read"), "yes".to_string(), 10),
                (ty("review", "pros:compact"), "yes".to_string(), 8),
                (ty("review", "best_use:auto"), "yes".to_string(), 6),
                (ty("review", "pros:large_screen"), "yes".to_string(), 1),
            ],
        )
    }

    fn gps3() -> ResultFeatures {
        ResultFeatures::from_raw(
            "GPS 3",
            [("product".to_string(), 1), ("review".to_string(), 68)],
            [
                (ty("product", "name"), "TomTom Go 730".to_string(), 1),
                (ty("review", "pros:satellites"), "yes".to_string(), 44),
                (ty("review", "pros:easy_to_setup"), "yes".to_string(), 40),
                (ty("review", "pros:compact"), "yes".to_string(), 38),
                (ty("review", "pros:large_screen"), "yes".to_string(), 4),
            ],
        )
    }

    fn instance() -> Instance {
        Instance::build(&[gps1(), gps3()], DfsConfig::default())
    }

    #[test]
    fn a_cell_is_one_cache_line() {
        // The matrix fill reads one column of these per type.
        assert_eq!(std::mem::size_of::<Cell>(), 64);
    }

    #[test]
    fn interning_covers_union_of_types() {
        let inst = instance();
        assert_eq!(inst.result_count(), 2);
        assert_eq!(inst.entities, ["product", "review"]);
        // name + 6 distinct review types.
        assert_eq!(inst.type_count(), 7);
        // Types grouped by entity because of (entity, attribute) sort.
        for w in inst.entity_of.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn ranked_lists_follow_significance() {
        let inst = instance();
        let review = inst.entities.iter().position(|e| e == "review").unwrap();
        let ranked = inst.ranked(0, review);
        let attrs: Vec<&str> = ranked.iter().map(|&t| inst.types[t].attribute.as_str()).collect();
        assert_eq!(
            attrs,
            ["pros:easy_to_read", "pros:compact", "best_use:auto", "pros:large_screen"]
        );
    }

    #[test]
    fn rank_of_inverts_ranked() {
        let inst = instance();
        for i in 0..inst.result_count() {
            for (e, list) in inst.ranked_lists(i).enumerate() {
                for (pos, &t) in list.iter().enumerate() {
                    assert_eq!(inst.rank_of(i, t), Some((e, pos)));
                }
            }
        }
    }

    #[test]
    fn type_count_of_a_result_counts_its_ranked_types() {
        let inst = instance();
        for i in 0..inst.result_count() {
            let present = (0..inst.type_count()).filter(|&t| inst.cell(i, t).is_some()).count();
            assert_eq!(inst.type_count_of(i), present);
            assert_eq!(inst.type_count_of(i), inst.ranked_lists(i).map(<[_]>::len).sum::<usize>());
        }
        assert_eq!(inst.type_count_of(0), 5);
        assert_eq!(inst.type_count_of(1), 5);
    }

    #[test]
    fn cells_hold_dominant_value_and_ratio() {
        let inst = instance();
        let compact = inst.types.iter().position(|t| t.attribute == "pros:compact").unwrap();
        let cell = inst.cell(0, compact).unwrap();
        assert_eq!(cell.value, "yes");
        assert_eq!(cell.count, 8);
        assert_eq!(cell.instances, 11);
        assert!((cell.ratio - 8.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn differentiability_shared_types() {
        let inst = instance();
        let t = |attr: &str| inst.types.iter().position(|x| x.attribute == attr).unwrap();
        // name: different values → differentiable.
        assert!(differentiable(&inst, 0, 1, t("name")));
        // compact: 8/11 = 72.7% vs 38/68 = 55.9%; gap 16.8% > 10% of 55.9%.
        assert!(differentiable(&inst, 0, 1, t("pros:compact")));
        // easy_to_read missing in GPS 3 → NOT differentiable (unknown).
        assert!(!differentiable(&inst, 0, 1, t("pros:easy_to_read")));
        assert!(!differentiable(&inst, 0, 1, t("pros:satellites")));
        // large_screen: 1/11 = 9.1% vs 4/68 = 5.9%; gap 3.2% > 10% of 5.9%
        // (0.59%) → differentiable.
        assert!(differentiable(&inst, 0, 1, t("pros:large_screen")));
        // Symmetry.
        for t in 0..inst.type_count() {
            assert_eq!(differentiable(&inst, 0, 1, t), differentiable(&inst, 1, 0, t));
        }
    }

    #[test]
    fn diff_rows_expose_the_bit_view() {
        let inst = instance();
        assert_eq!(inst.words_per_row(), 1);
        assert_eq!(inst.bitmatrix_bytes(), 2 * 2 * 8);
        // The self row is all zeroes (never filled).
        assert!(inst.diff_row(0, 0).iter().all(|&w| w == 0));
    }

    #[test]
    fn potentials_are_column_sums_of_the_matrix() {
        let inst = Instance::build(&[gps1(), gps3(), gps1()], DfsConfig::default());
        let n = inst.result_count();
        for i in 0..n {
            for (t, &p) in inst.potentials(i).iter().enumerate() {
                let expected =
                    (0..n).filter(|&j| j != i && differentiable(&inst, i, j, t)).count() as u32;
                assert_eq!(p, expected, "result {i} type {t}");
            }
        }
    }

    #[test]
    fn threshold_suppresses_small_gaps() {
        let a = ResultFeatures::from_raw(
            "a",
            [("e".to_string(), 100)],
            [(ty("e", "x"), "yes".to_string(), 50)],
        );
        let b = ResultFeatures::from_raw(
            "b",
            [("e".to_string(), 100)],
            [(ty("e", "x"), "yes".to_string(), 52)],
        );
        // 50% vs 52%: gap 2% < 10% of 50% → not differentiable at x = 10.
        let inst = Instance::build(
            &[a.clone(), b.clone()],
            DfsConfig { size_bound: 5, threshold_pct: 10.0 },
        );
        assert!(!differentiable(&inst, 0, 1, 0));
        // At x = 1 the same gap differentiates.
        let inst = Instance::build(&[a, b], DfsConfig { size_bound: 5, threshold_pct: 1.0 });
        assert!(differentiable(&inst, 0, 1, 0));
    }

    #[test]
    fn numeric_values_compared_by_magnitude() {
        let mk = |label: &str, rating: &str| {
            ResultFeatures::from_raw(
                label,
                [("p".to_string(), 1)],
                [(ty("p", "rating"), rating.to_string(), 1)],
            )
        };
        // 4.2 vs 4.1: 2.4% gap < 10% of 4.1 → NOT differentiable (the paper's
        // Figure 1 snippets).
        let inst = Instance::build(&[mk("a", "4.2"), mk("b", "4.1")], DfsConfig::default());
        assert!(!differentiable(&inst, 0, 1, 0));
        // 4.2 vs 2.0: 110% gap → differentiable.
        let inst = Instance::build(&[mk("a", "4.2"), mk("b", "2.0")], DfsConfig::default());
        assert!(differentiable(&inst, 0, 1, 0));
        // Numeric vs non-numeric falls back to the categorical rule.
        let inst = Instance::build(&[mk("a", "4.2"), mk("b", "n/a")], DfsConfig::default());
        assert!(differentiable(&inst, 0, 1, 0));
        // Equal numbers never differentiate.
        let inst = Instance::build(&[mk("a", "4.2"), mk("b", "4.2")], DfsConfig::default());
        assert!(!differentiable(&inst, 0, 1, 0));
    }

    #[test]
    fn text_that_parses_as_a_non_finite_float_is_categorical() {
        // `str::parse::<f64>` accepts `nan`, `inf`, `infinity` (any case,
        // signed) and turns overflowing literals into infinities. None of
        // them is a magnitude: under the numeric rule `NaN > x` is false
        // and `inf − inf` is NaN, so two *different* values would come out
        // not differentiable.
        let mk = |label: &str, title: &str| {
            ResultFeatures::from_raw(
                label,
                [("m".to_string(), 1)],
                [(ty("m", "title"), title.to_string(), 1)],
            )
        };
        let differ = |a: &str, b: &str| {
            let inst = Instance::build(&[mk("a", a), mk("b", b)], DfsConfig::default());
            assert_eq!(differentiable(&inst, 0, 1, 0), differentiable(&inst, 1, 0, 0));
            differentiable(&inst, 0, 1, 0)
        };
        assert!(differ("Nan", "1984"));
        assert!(differ("Infinity", "inf"));
        assert!(differ("1e400", "1e500"));
        assert!(differ("-inf", "7"));
        assert!(differ("NaN", "nan"));
        // The same text on both sides is the same value, number or not.
        assert!(!differ("inf", "inf"));
        assert!(!differ("Nan", "Nan"));
        // Finite numbers still compare by magnitude.
        assert!(!differ("4.2", "4.1"));
        assert!(!differ("1e3", "1000"));
        assert!(differ("1e300", "1e-300"));
    }

    #[test]
    fn value_present_vs_absent_differentiates() {
        let a = ResultFeatures::from_raw(
            "a",
            [("e".to_string(), 10)],
            [(ty("e", "x"), "yes".to_string(), 5)],
        );
        let b = ResultFeatures::from_raw(
            "b",
            [("e".to_string(), 10)],
            [(ty("e", "x"), "no".to_string(), 5)],
        );
        let inst = Instance::build(&[a, b], DfsConfig::default());
        assert!(differentiable(&inst, 0, 1, 0));
    }

    #[test]
    fn merge_walk_matches_union_semantics_on_histograms() {
        // Multi-valued types: the merge-walk must test every value of the
        // union exactly once, including values present on only one side.
        let a = ResultFeatures::from_raw(
            "a",
            [("e".to_string(), 10)],
            [
                (ty("e", "x"), "red".to_string(), 4),
                (ty("e", "x"), "green".to_string(), 4),
                (ty("e", "x"), "blue".to_string(), 2),
            ],
        );
        let b = ResultFeatures::from_raw(
            "b",
            [("e".to_string(), 10)],
            [
                (ty("e", "x"), "red".to_string(), 4),
                (ty("e", "x"), "green".to_string(), 4),
                (ty("e", "x"), "violet".to_string(), 2),
            ],
        );
        // Identical on red/green; blue vs violet are one-sided → differ.
        let inst = Instance::build(&[a.clone(), b], DfsConfig::default());
        assert!(differentiable(&inst, 0, 1, 0));
        // Against itself the union collapses and nothing differs.
        let inst = Instance::build(&[a.clone(), a], DfsConfig::default());
        assert!(!differentiable(&inst, 0, 1, 0));
    }

    #[test]
    fn identical_results_never_differentiate() {
        let inst = Instance::build(&[gps1(), gps1()], DfsConfig::default());
        for t in 0..inst.type_count() {
            assert!(!differentiable(&inst, 0, 1, t));
        }
    }

    #[test]
    fn ratios_differ_edge_cases() {
        assert!(!ratios_differ(0.5, 0.5, 0.1));
        assert!(ratios_differ(0.5, 0.0, 0.1));
        assert!(ratios_differ(0.0, 0.001, 0.1));
        assert!(!ratios_differ(0.0, 0.0, 0.1));
        // Exactly at the threshold: NOT differentiable (strict inequality).
        // 0.75 − 0.5 = 0.25 = 50% of 0.5; all values exact in binary.
        assert!(!ratios_differ(0.75, 0.5, 0.5));
        assert!(ratios_differ(0.765625, 0.5, 0.5));
    }

    #[test]
    #[should_panic(expected = "cannot compare zero results")]
    fn empty_input_panics() {
        Instance::build(&[] as &[ResultFeatures], DfsConfig::default());
    }

    #[test]
    fn single_result_instance_is_fine() {
        let inst = Instance::build(&[gps1()], DfsConfig::default());
        assert_eq!(inst.result_count(), 1);
        assert_eq!(inst.type_count(), 5);
    }
}

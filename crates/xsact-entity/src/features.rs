//! The feature extractor: result subtree → aggregated feature statistics.
//!
//! A **feature** is a triplet `(entity, attribute, value)` — e.g.
//! `(review, pros:compact, yes)` — and a **feature type** is the
//! `(entity, attribute)` pair (paper §2). Inside a result subtree the
//! *entity instances* are the result root plus every descendant classified
//! [`NodeClass::Entity`]; an instance owns the leaf values and XML
//! attributes reachable from it without crossing into a nested instance
//! (those belong to the nested entity).
//!
//! [`extract_features`] finds all of that in **one walk** over
//! `doc.descendants(root)`:
//!
//! 1. every value-carrying node reports one occurrence under the fixed-size
//!    key `(owner PathId, leaf PathId, Option<attribute Sym>)` — the owner
//!    being its nearest ancestor-or-self instance, found by climbing
//!    `parent` — with the value **borrowed** from the document (copied only
//!    when whitespace normalisation has to rewrite it);
//! 2. the flat occurrence list is sorted and run-length grouped into one
//!    [`FeatureStat`] per key and one [`ValueCount`] per distinct value;
//! 3. the string-typed [`FeatureType`] of a key is rendered once, from the
//!    summary's interned path strings: the attribute path *is* the leaf's
//!    tag path below its owner.
//!
//! No map is keyed by a path, no path is built per node, and `Sym` /
//! `PathId` never leave this module: `xsact-core` sees strings only.
//!
//! The per-type statistics — e.g. *"pros:compact seen in 8 of 11 reviews
//! (73%)"* — drive both the validity ranking (Desideratum 2) and the
//! differentiability test (Desideratum 3) in `xsact-core`.
//!
//! # The prepared form
//!
//! A comparison reads the same few facts of every stat on every build: is
//! this the type I saw in another result, is its one value a number, which
//! of its values does the other side share. All three depend on the stat
//! alone, so every [`ResultFeatures`] carries them from its one constructor
//! on (what a feature cache holds is already prepared): per stat a 64-bit
//! **content hash** of its [`FeatureType`] and the single-value numeric
//! parse, per value a content hash, with each stat's values listed in
//! `(hash, string)` order — two exactly sized vectors per result, none per
//! stat. [`ResultFeatures::prepared`] hands them out next to the stats.
//!
//! Content hashes, not `Sym` / `PathId`, because one comparison may read
//! features extracted from *different documents* (the corpus engine does),
//! whose interned ids mean nothing to each other. A hash only ever
//! **routes**: whoever finds two equal hashes confirms the match on the
//! strings, so no output byte depends on the hash function — pinned by
//! building the same instances with a constant and a 3-bit hash
//! (`tests/properties.rs`). The prepared form is a pure function of the
//! public fields and takes no part in equality.

use crate::classify::{NodeClass, PathId, StructureSummary};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use xsact_xml::{Document, NodeId, Sym};

/// A feature type: the `(entity, attribute)` pair identifying one row of a
/// comparison table.
///
/// * `entity` is the entity's full tag path (`shop/product/reviews/review`),
///   which makes types comparable across results of the same dataset;
/// * `attribute` is the tag path from the entity instance down to the leaf,
///   joined with `:` (`pros:compact`), with XML attributes written as
///   `tag@name`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FeatureType {
    /// Tag path of the owning entity, from the document root.
    pub entity: String,
    /// Attribute path within the entity.
    pub attribute: String,
}

impl FeatureType {
    /// Convenience constructor.
    pub fn new(entity: impl Into<String>, attribute: impl Into<String>) -> Self {
        FeatureType { entity: entity.into(), attribute: attribute.into() }
    }
}

/// One observed value of a feature type with its occurrence count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueCount {
    /// The (whitespace-normalised) text value.
    pub value: String,
    /// How many times it occurred across the entity's instances.
    pub count: u32,
}

/// Aggregated statistics of one feature type within one result.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureStat {
    /// The feature type.
    pub ty: FeatureType,
    /// Observed values, sorted by descending count then value.
    pub values: Vec<ValueCount>,
    /// Total occurrences (sum of the value counts).
    pub occurrences: u32,
    /// Number of instances of `ty.entity` in this result.
    pub entity_instances: u32,
}

impl FeatureStat {
    /// Occurrence ratio of the whole type: `occurrences / entity_instances`.
    ///
    /// The paper's "Pro:Compact occurs 8/11 = 73%". Can exceed 1.0 for
    /// multi-valued types (several occurrences per instance).
    pub fn ratio(&self) -> f64 {
        if self.entity_instances == 0 {
            0.0
        } else {
            f64::from(self.occurrences) / f64::from(self.entity_instances)
        }
    }

    /// The most frequent value (ties broken towards the lexicographically
    /// smaller value). A stat always holds at least one value.
    pub fn dominant(&self) -> &ValueCount {
        &self.values[0]
    }

    /// A Figure 1-style statistics line: `pros:compact: yes: 8`.
    fn stat_line(&self) -> String {
        let top = self.dominant();
        format!("{}: {}: {}", self.ty.attribute, top.value, top.count)
    }

    /// The comparison-ready form of a stat on its own, computed here and
    /// now — what [`ResultFeatures::prepared`] reads from storage.
    pub fn prepared(&self) -> PreparedStat<'_> {
        let mut order = Vec::with_capacity(self.values.len());
        let facts = prepare_stat(self, content_hash, &mut order);
        PreparedStat { stat: self, facts, order: Cow::Owned(order) }
    }
}

/// What a comparison asks of a stat before it looks at any string.
#[derive(Debug, Clone, Copy)]
struct StatFacts {
    ty_hash: u64,
    numeric: Option<f64>,
}

/// One value of a stat in the prepared order: its content hash and its
/// position in [`FeatureStat::values`].
#[derive(Debug, Clone, Copy)]
struct ValueSlot {
    hash: u32,
    index: u32,
}

/// A stat next to its prepared form (see the module docs).
#[derive(Debug, Clone)]
pub struct PreparedStat<'a> {
    /// The stat itself.
    pub stat: &'a FeatureStat,
    facts: StatFacts,
    order: Cow<'a, [ValueSlot]>,
}

impl<'a> PreparedStat<'a> {
    /// Content hash of the stat's feature type: equal types hash equally,
    /// equal hashes must be confirmed on the strings.
    pub fn ty_hash(&self) -> u64 {
        self.facts.ty_hash
    }

    /// The stat's value as a number, when it has exactly one value and that
    /// value parses as a **finite** `f64` — the precondition of the numeric
    /// differentiability rule. `nan`, `inf` and overflowing literals such as
    /// `1e400` are text.
    pub fn numeric(&self) -> Option<f64> {
        self.facts.numeric
    }

    /// The stat's values with their content hashes, ascending by
    /// `(hash, value)` — two stats of one type walk their shared values in
    /// step.
    pub fn values(&self) -> impl Iterator<Item = (u32, &'a ValueCount)> + '_ {
        let stat = self.stat;
        self.order.iter().map(move |slot| (slot.hash, &stat.values[slot.index as usize]))
    }
}

/// The content hash behind the prepared form: a multiply-rotate over
/// eight-byte words, folded so the low bits (a table index, a `u32` value
/// hash) depend on every input byte. Not keyed — it only routes lookups
/// whose every match is confirmed on the strings.
fn content_hash(text: &str) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let mut words = text.as_bytes().chunks_exact(8);
    let mut h = text.len() as u64;
    for word in &mut words {
        h = mix(h, u64::from_le_bytes(word.try_into().expect("eight bytes")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = mix(h, u64::from_le_bytes(tail));
    h ^ (h >> 32)
}

/// Prepares one stat: appends its value slots, sorted by `(hash, value)`,
/// to `order` and returns the rest.
fn prepare_stat(
    stat: &FeatureStat,
    hash: fn(&str) -> u64,
    order: &mut Vec<ValueSlot>,
) -> StatFacts {
    let start = order.len();
    order.extend(
        stat.values
            .iter()
            .enumerate()
            .map(|(index, vc)| ValueSlot { hash: hash(&vc.value) as u32, index: index as u32 }),
    );
    let value_of = |slot: &ValueSlot| stat.values[slot.index as usize].value.as_str();
    order[start..]
        .sort_unstable_by(|a, b| a.hash.cmp(&b.hash).then_with(|| value_of(a).cmp(value_of(b))));
    let numeric = match stat.values.as_slice() {
        [only] => only.value.trim().parse::<f64>().ok().filter(|v| v.is_finite()),
        _ => None,
    };
    let ty_hash = hash(&stat.ty.entity).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(32)
        ^ hash(&stat.ty.attribute);
    StatFacts { ty_hash, numeric }
}

/// All feature statistics of one search result.
///
/// The public fields are for reading: the prepared form (module docs) is
/// computed from them once, by the constructors, and a value whose `stats`
/// were edited afterwards no longer matches it.
#[derive(Debug, Clone, Default)]
pub struct ResultFeatures {
    /// Human-readable label of the result (e.g. the product name).
    pub label: String,
    /// Stats per feature type, sorted by entity path, then by descending
    /// occurrence count, then attribute name — i.e. each entity's types are
    /// already in *significance order* (Desideratum 2).
    pub stats: Vec<FeatureStat>,
    /// Instances per entity path.
    entity_instances: HashMap<String, u32>,
    /// Prepared form, one entry per stat.
    facts: Vec<StatFacts>,
    /// Prepared form, one entry per value: the stats' slots back to back,
    /// in `stats` order.
    order: Vec<ValueSlot>,
}

/// Equality is that of the public content; the prepared form follows from
/// it.
impl PartialEq for ResultFeatures {
    fn eq(&self, other: &Self) -> bool {
        self.label == other.label
            && self.stats == other.stats
            && self.entity_instances == other.entity_instances
    }
}

impl ResultFeatures {
    /// The one constructor: takes the finished public content and prepares
    /// it for comparison, in two exactly sized vectors.
    fn assemble(
        label: String,
        stats: Vec<FeatureStat>,
        entity_instances: HashMap<String, u32>,
        hash: fn(&str) -> u64,
    ) -> Self {
        let mut order = Vec::with_capacity(stats.iter().map(|stat| stat.values.len()).sum());
        let mut facts = Vec::with_capacity(stats.len());
        facts.extend(stats.iter().map(|stat| prepare_stat(stat, hash, &mut order)));
        ResultFeatures { label, stats, entity_instances, facts, order }
    }

    /// Builds a `ResultFeatures` directly from `(type, value, count)`
    /// triplets plus entity instance counts. Used by tests, fixtures and
    /// workload generators that bypass XML extraction.
    pub fn from_raw(
        label: impl Into<String>,
        entity_instances: impl IntoIterator<Item = (String, u32)>,
        triplets: impl IntoIterator<Item = (FeatureType, String, u32)>,
    ) -> Self {
        Self::from_raw_hashed(label, entity_instances, triplets, content_hash)
    }

    /// [`from_raw`](Self::from_raw) with the content hash of the prepared
    /// form swapped out — the seam through which tests show that hashes
    /// only route (a constant hash must build the same instances).
    #[doc(hidden)]
    pub fn from_raw_hashed(
        label: impl Into<String>,
        entity_instances: impl IntoIterator<Item = (String, u32)>,
        triplets: impl IntoIterator<Item = (FeatureType, String, u32)>,
        hash: fn(&str) -> u64,
    ) -> Self {
        let entity_instances: HashMap<String, u32> = entity_instances.into_iter().collect();
        let mut agg: HashMap<FeatureType, HashMap<String, u32>> = HashMap::new();
        for (ty, value, count) in triplets {
            *agg.entry(ty).or_default().entry(value).or_insert(0) += count;
        }
        let stats = finalize(agg, &entity_instances);
        Self::assemble(label.into(), stats, entity_instances, hash)
    }

    /// The stats, in order, each next to its prepared form.
    ///
    /// # Panics
    /// Panics if `stats` was resized after construction.
    pub fn prepared(&self) -> impl Iterator<Item = PreparedStat<'_>> {
        assert_eq!(self.facts.len(), self.stats.len(), "stats edited after construction");
        let mut start = 0;
        self.stats.iter().zip(&self.facts).map(move |(stat, &facts)| {
            let order = &self.order[start..start + stat.values.len()];
            start += stat.values.len();
            PreparedStat { stat, facts, order: Cow::Borrowed(order) }
        })
    }

    /// Number of instances of an entity path in this result.
    pub fn instances_of(&self, entity: &str) -> u32 {
        self.entity_instances.get(entity).copied().unwrap_or(0)
    }

    /// Looks up the stat of a feature type.
    pub fn get(&self, ty: &FeatureType) -> Option<&FeatureStat> {
        self.stats.iter().find(|s| &s.ty == ty)
    }

    /// Total number of feature types in the result (the paper's `m`).
    pub fn type_count(&self) -> usize {
        self.stats.len()
    }

    /// Groups the stats by entity, preserving significance order within each
    /// entity. Entities appear in lexicographic path order.
    fn by_entity(&self) -> Vec<(&str, Vec<&FeatureStat>)> {
        let mut out: Vec<(&str, Vec<&FeatureStat>)> = Vec::new();
        for stat in &self.stats {
            match out.last_mut() {
                Some((entity, group)) if *entity == stat.ty.entity => group.push(stat),
                _ => out.push((stat.ty.entity.as_str(), vec![stat])),
            }
        }
        out
    }

    /// The Figure 1-style statistics panel: `# of <entity>: <n>` lines plus
    /// the top-`k` feature lines per entity.
    pub fn stat_panel(&self, top_k: usize) -> Vec<String> {
        let mut lines = Vec::new();
        for (entity, stats) in self.by_entity() {
            let short = crate::label::entity_short_name(entity);
            lines.push(format!("# of {short}s: {}", self.instances_of(entity)));
            for stat in stats.iter().take(top_k) {
                lines.push(stat.stat_line());
            }
        }
        lines
    }
}

/// One value seen during the walk, keyed by fixed-size interned ids: the
/// path of the instance that owns it, the path of the element that carries
/// it and — for an XML attribute — the attribute's name. The attribute path
/// of the feature type is the part of `leaf`'s tag path below `owner`, so
/// no per-node path is ever built. The value is borrowed from the document
/// unless whitespace normalisation had to rewrite it.
struct Occurrence<'a> {
    owner: PathId,
    leaf: PathId,
    attr: Option<Sym>,
    value: Cow<'a, str>,
}

impl Occurrence<'_> {
    fn key(&self) -> (PathId, PathId, Option<Sym>) {
        (self.owner, self.leaf, self.attr)
    }
}

/// Extracts the aggregated features of the result subtree rooted at `root`.
///
/// `summary` must have been inferred from the same document so entity
/// classification is consistent across all results.
///
/// One walk over the subtree collects every value as an occurrence keyed by
/// interned ids ([`PathId`]s + an optional attribute [`Sym`]); sorting that
/// flat list and grouping equal runs yields the per-type value histograms.
/// The string-typed [`FeatureType`]s that `xsact-core` consumes are
/// rendered **once per distinct feature type** from the summary's path
/// strings, never per node or per comparison. Every vector of the returned
/// value is exactly sized, so callers can cache it as it is.
pub fn extract_features(
    doc: &Document,
    summary: &StructureSummary,
    root: NodeId,
    label: impl Into<String>,
) -> ResultFeatures {
    let mut instances: Vec<PathId> = Vec::new();
    let mut occurrences: Vec<Occurrence<'_>> = Vec::new();
    for node in doc.descendants(root) {
        // The result root is an instance regardless of its class — it is
        // the object being compared.
        let is_instance = node == root
            || (doc.is_element(node) && summary.class_of(doc, node) == NodeClass::Entity);
        if is_instance {
            instances.extend(instance_path(doc, summary, node));
        }
        // An instance's own text is not one of its features; the text of a
        // leaf below it is. Text runs have no features of their own.
        let valued = !is_instance && doc.is_leaf_element(node);
        if !valued && doc.attr_count(node) == 0 {
            continue;
        }
        let owner = if is_instance { node } else { owning_instance(doc, summary, root, node) };
        let (Some(owner), Some(leaf)) = (summary.path_id_of(owner), summary.path_id_of(node))
        else {
            continue;
        };
        for (name, value) in doc.attrs_syms(node) {
            let value = Cow::Borrowed(value);
            occurrences.push(Occurrence { owner, leaf, attr: Some(name), value });
        }
        if valued {
            let value = leaf_value(doc, node);
            if !value.is_empty() {
                occurrences.push(Occurrence { owner, leaf, attr: None, value });
            }
        }
    }

    instances.sort_unstable();
    let instance_counts: Vec<(PathId, u32)> =
        instances.chunk_by(|a, b| a == b).map(|run| (run[0], run.len() as u32)).collect();
    let mut entity_instances: HashMap<String, u32> = HashMap::with_capacity(instance_counts.len());
    for &(path, n) in &instance_counts {
        *entity_instances.entry(summary.path_display(path).to_owned()).or_insert(0) += n;
    }

    occurrences.sort_unstable_by(|a, b| {
        a.key().cmp(&b.key()).then_with(|| a.value.as_ref().cmp(b.value.as_ref()))
    });
    let same_type = |a: &Occurrence<'_>, b: &Occurrence<'_>| a.key() == b.key();
    let same_value = |a: &Occurrence<'_>, b: &Occurrence<'_>| a.value == b.value;
    let mut stats: Vec<FeatureStat> = Vec::with_capacity(occurrences.chunk_by(same_type).count());
    for group in occurrences.chunk_by(same_type) {
        let (owner, leaf, attr) = group[0].key();
        let mut values: Vec<ValueCount> = Vec::with_capacity(group.chunk_by(same_value).count());
        values.extend(group.chunk_by(same_value).map(|run| ValueCount {
            value: run[0].value.as_ref().to_owned(),
            count: run.len() as u32,
        }));
        values.sort_by(value_order);
        stats.push(FeatureStat {
            ty: render_type(doc, summary, owner, leaf, attr),
            values,
            occurrences: group.len() as u32,
            entity_instances: instance_counts
                .iter()
                .find(|&&(path, _)| path == owner)
                .map_or(0, |&(_, n)| n),
        });
    }
    stats.sort_by(significance_order);

    // Distinct ids render to one string only when a name holds a join
    // character (`:` is legal in an XML name, so `<a:b>` and `<a><b>` meet
    // in `a:b`). Then, and only then, the strings decide — as in `from_raw`.
    if entity_instances.len() < instance_counts.len() || has_duplicate_types(&stats) {
        let triplets = stats.into_iter().flat_map(|stat| {
            let FeatureStat { ty, values, .. } = stat;
            values.into_iter().map(move |vc| (ty.clone(), vc.value, vc.count))
        });
        return ResultFeatures::from_raw(label, entity_instances, triplets);
    }
    ResultFeatures::assemble(label.into(), stats, entity_instances, content_hash)
}

/// The interned path of an instance node: its own path for elements, the
/// nearest ancestor element's path for text runs. `None` only for handles
/// outside the summarised document.
fn instance_path(doc: &Document, summary: &StructureSummary, node: NodeId) -> Option<PathId> {
    let mut cur = Some(node);
    while let Some(n) = cur {
        if let Some(pid) = summary.path_id_of(n) {
            return Some(pid);
        }
        cur = doc.parent(n);
    }
    None
}

/// The instance that owns the features of `node`, a non-instance node below
/// `root`: its nearest ancestor that is the result root or an entity.
/// Climbing `parent` needs no traversal state.
fn owning_instance(
    doc: &Document,
    summary: &StructureSummary,
    root: NodeId,
    node: NodeId,
) -> NodeId {
    let mut cur = node;
    while let Some(parent) = doc.parent(cur) {
        cur = parent;
        if cur == root || summary.class_of(doc, cur) == NodeClass::Entity {
            break;
        }
    }
    cur
}

/// The whitespace-normalised text of a leaf element (`" 4.2\n "` equals
/// `"4.2"`), borrowed when its one text run is already in that form.
fn leaf_value(doc: &Document, leaf: NodeId) -> Cow<'_, str> {
    let runs = || doc.children(leaf).filter_map(|run| doc.text(run));
    let mut first_two = runs();
    if let (Some(text), None) = (first_two.next(), first_two.next()) {
        if is_normalized(text) {
            return Cow::Borrowed(text);
        }
    }
    let mut out = String::new();
    for word in runs().flat_map(str::split_whitespace) {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(word);
    }
    Cow::Owned(out)
}

/// Whether collapsing whitespace runs to one space and trimming would leave
/// `text` as it is.
fn is_normalized(text: &str) -> bool {
    let mut after_space = true;
    for c in text.chars() {
        if c.is_whitespace() && (c != ' ' || after_space) {
            return false;
        }
        after_space = c == ' ';
    }
    !after_space || text.is_empty()
}

/// Renders the string-typed boundary form of one aggregation key: the
/// owner's path, and the leaf's path below it joined with `:` (plus
/// `@name` for an XML attribute; `@name` alone on the instance itself).
fn render_type(
    doc: &Document,
    summary: &StructureSummary,
    owner: PathId,
    leaf: PathId,
    attr: Option<Sym>,
) -> FeatureType {
    let entity = summary.path_display(owner);
    let below = &summary.path_display(leaf)[entity.len()..];
    let below = below.strip_prefix('/').unwrap_or(below);
    let name = attr.map(|name| doc.interner().resolve(name));
    let mut attribute = String::with_capacity(below.len() + name.map_or(0, |n| 1 + n.len()));
    attribute.extend(below.chars().map(|c| if c == '/' { ':' } else { c }));
    if let Some(name) = name {
        attribute.push('@');
        attribute.push_str(name);
    }
    FeatureType { entity: entity.to_owned(), attribute }
}

fn has_duplicate_types(stats: &[FeatureStat]) -> bool {
    let mut types: Vec<&FeatureType> = stats.iter().map(|stat| &stat.ty).collect();
    types.sort_unstable();
    types.windows(2).any(|pair| pair[0] == pair[1])
}

/// Descending count, then value — a stat's first value is its dominant one.
fn value_order(a: &ValueCount, b: &ValueCount) -> Ordering {
    b.count.cmp(&a.count).then_with(|| a.value.cmp(&b.value))
}

/// Entity path ascending; within an entity occurrences descending, then
/// attribute — the significance order required by Desideratum 2.
fn significance_order(a: &FeatureStat, b: &FeatureStat) -> Ordering {
    a.ty.entity
        .cmp(&b.ty.entity)
        .then_with(|| b.occurrences.cmp(&a.occurrences))
        .then_with(|| a.ty.attribute.cmp(&b.ty.attribute))
}

fn finalize(
    agg: HashMap<FeatureType, HashMap<String, u32>>,
    entity_instances: &HashMap<String, u32>,
) -> Vec<FeatureStat> {
    let mut stats: Vec<FeatureStat> = agg
        .into_iter()
        .map(|(ty, values)| {
            let mut values: Vec<ValueCount> =
                values.into_iter().map(|(value, count)| ValueCount { value, count }).collect();
            values.sort_by(value_order);
            let occurrences = values.iter().map(|v| v.count).sum();
            let entity_instances = entity_instances.get(&ty.entity).copied().unwrap_or(0);
            FeatureStat { ty, values, occurrences, entity_instances }
        })
        .collect();
    stats.sort_by(significance_order);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsact_xml::parse_document;

    /// Two products shaped like the paper's Figure 1 (scaled down).
    fn doc() -> Document {
        parse_document(
            "<shop>\
               <product>\
                 <name>TomTom Go 630</name>\
                 <rating>4.2</rating>\
                 <reviews>\
                   <review><pros><compact>yes</compact><easy_to_read>yes</easy_to_read></pros>\
                      <uses><best_use><auto>yes</auto></best_use></uses></review>\
                   <review><pros><compact>yes</compact><easy_to_read>yes</easy_to_read></pros></review>\
                   <review><pros><easy_to_read>yes</easy_to_read></pros></review>\
                 </reviews>\
               </product>\
               <product>\
                 <name>TomTom Go 730</name>\
                 <rating>4.1</rating>\
                 <reviews>\
                   <review><pros><compact>yes</compact></pros></review>\
                   <review><pros><satellites>yes</satellites></pros></review>\
                 </reviews>\
               </product>\
             </shop>",
        )
        .unwrap()
    }

    fn first_product(doc: &Document) -> NodeId {
        doc.child_by_tag(doc.root(), "product").unwrap()
    }

    fn extract(d: &Document, root: NodeId) -> ResultFeatures {
        let summary = StructureSummary::infer(d);
        extract_features(d, &summary, root, "r")
    }

    const REVIEW: &str = "shop/product/reviews/review";
    const PRODUCT: &str = "shop/product";

    #[test]
    fn entity_instances_counted() {
        let d = doc();
        let rf = extract(&d, first_product(&d));
        assert_eq!(rf.instances_of(PRODUCT), 1);
        assert_eq!(rf.instances_of(REVIEW), 3);
        assert_eq!(rf.instances_of("never"), 0);
    }

    #[test]
    fn product_attributes_extracted() {
        let d = doc();
        let rf = extract(&d, first_product(&d));
        let name = rf.get(&FeatureType::new(PRODUCT, "name")).unwrap();
        assert_eq!(name.dominant().value, "TomTom Go 630");
        assert_eq!(name.occurrences, 1);
        assert_eq!(name.entity_instances, 1);
        assert!((name.ratio() - 1.0).abs() < 1e-12);
        let rating = rf.get(&FeatureType::new(PRODUCT, "rating")).unwrap();
        assert_eq!(rating.dominant().value, "4.2");
    }

    #[test]
    fn review_features_aggregate_over_instances() {
        let d = doc();
        let rf = extract(&d, first_product(&d));
        let compact = rf.get(&FeatureType::new(REVIEW, "pros:compact")).unwrap();
        assert_eq!(compact.occurrences, 2);
        assert_eq!(compact.entity_instances, 3);
        assert!((compact.ratio() - 2.0 / 3.0).abs() < 1e-12);
        let easy = rf.get(&FeatureType::new(REVIEW, "pros:easy_to_read")).unwrap();
        assert_eq!(easy.occurrences, 3);
        let auto = rf.get(&FeatureType::new(REVIEW, "uses:best_use:auto")).unwrap();
        assert_eq!(auto.occurrences, 1);
    }

    #[test]
    fn nested_entities_do_not_leak_into_parent() {
        let d = doc();
        let rf = extract(&d, first_product(&d));
        // The product entity must not own review-level leaves.
        assert!(rf
            .stats
            .iter()
            .filter(|s| s.ty.entity == PRODUCT)
            .all(|s| !s.ty.attribute.contains("compact")));
    }

    #[test]
    fn significance_order_within_entity() {
        let d = doc();
        let rf = extract(&d, first_product(&d));
        let review_stats: Vec<&FeatureStat> =
            rf.stats.iter().filter(|s| s.ty.entity == REVIEW).collect();
        // easy_to_read (3) before compact (2) before auto (1).
        let attrs: Vec<&str> = review_stats.iter().map(|s| s.ty.attribute.as_str()).collect();
        assert_eq!(attrs, ["pros:easy_to_read", "pros:compact", "uses:best_use:auto"]);
        let counts: Vec<u32> = review_stats.iter().map(|s| s.occurrences).collect();
        assert_eq!(counts, [3, 2, 1]);
    }

    #[test]
    fn by_entity_groups_contiguously() {
        let d = doc();
        let rf = extract(&d, first_product(&d));
        let groups = rf.by_entity();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, PRODUCT);
        assert_eq!(groups[1].0, REVIEW);
    }

    #[test]
    fn multi_valued_types_keep_histogram() {
        let d = parse_document(
            "<movies><movie><title>Alpha</title>\
             <keyword>war</keyword><keyword>war</keyword><keyword>epic</keyword></movie>\
             <movie><title>Beta</title></movie></movies>",
        )
        .unwrap();
        let summary = StructureSummary::infer(&d);
        let movie = d.child_by_tag(d.root(), "movie").unwrap();
        let rf = extract_features(&d, &summary, movie, "m");
        let kw = rf.get(&FeatureType::new("movies/movie", "keyword")).unwrap();
        assert_eq!(kw.occurrences, 3);
        assert_eq!(kw.values.len(), 2);
        assert_eq!(kw.dominant(), &ValueCount { value: "war".into(), count: 2 });
        assert!(kw.ratio() > 1.0);
    }

    #[test]
    fn xml_attributes_become_features() {
        let d = parse_document(
            r#"<shop><product sku="A1"><name>X</name></product><product sku="B2"><name>Y</name></product></shop>"#,
        )
        .unwrap();
        let summary = StructureSummary::infer(&d);
        let p = d.child_by_tag(d.root(), "product").unwrap();
        let rf = extract_features(&d, &summary, p, "p");
        let sku = rf.get(&FeatureType::new("shop/product", "@sku")).unwrap();
        assert_eq!(sku.dominant().value, "A1");
    }

    #[test]
    fn whitespace_in_values_normalised() {
        let d = parse_document(
            "<r><item><name>  Tom   Tom\n 630 </name></item><item><name>b</name></item></r>",
        )
        .unwrap();
        let summary = StructureSummary::infer(&d);
        let item = d.child_by_tag(d.root(), "item").unwrap();
        let rf = extract_features(&d, &summary, item, "i");
        let name = rf.get(&FeatureType::new("r/item", "name")).unwrap();
        assert_eq!(name.dominant().value, "Tom Tom 630");
    }

    #[test]
    fn clean_values_are_taken_as_they_are_and_padded_ones_rewritten() {
        for clean in ["", "4.2", "Tom Tom 630", "caf\u{e9} \u{2603}"] {
            assert!(is_normalized(clean), "{clean:?}");
        }
        for padded in [" 4.2", "4.2 ", "a  b", "a\tb", "a\nb", " ", "a\u{a0}b"] {
            assert!(!is_normalized(padded), "{padded:?}");
        }
        // Several text runs under one leaf join like words of one run.
        let mut d = Document::new("r");
        for runs in [&["Tom", " Tom\n630 "][..], &["b"]] {
            let item = d.add_element(d.root(), "item");
            let name = d.add_element(item, "name");
            for run in runs {
                d.add_text(name, *run);
            }
        }
        let summary = StructureSummary::infer(&d);
        let rf = extract_features(&d, &summary, d.children(d.root()).next().unwrap(), "i");
        assert_eq!(rf.stats[0].dominant().value, "Tom Tom 630");
    }

    #[test]
    fn extracted_vectors_are_exactly_sized() {
        // The workbench caches the extractor's output as it is; slack in
        // hundreds of cached `values` vectors is resident memory.
        let d = doc();
        let summary = StructureSummary::infer(&d);
        for root in d.all_nodes() {
            let rf = extract_features(&d, &summary, root, "r");
            assert_eq!(rf.stats.capacity(), rf.stats.len());
            // The prepared form is cached with it: two vectors, no slack.
            assert_eq!((rf.facts.capacity(), rf.facts.len()), (rf.stats.len(), rf.stats.len()));
            let values: usize = rf.stats.iter().map(|stat| stat.values.len()).sum();
            assert_eq!((rf.order.capacity(), rf.order.len()), (values, values));
            for stat in &rf.stats {
                assert_eq!(stat.values.capacity(), stat.values.len(), "{:?}", stat.ty);
                for vc in &stat.values {
                    assert_eq!(vc.value.capacity(), vc.value.len(), "{:?}", stat.ty);
                }
            }
        }
    }

    #[test]
    fn prepared_form_is_a_function_of_the_stat() {
        let rf = ResultFeatures::from_raw(
            "raw",
            [("e".to_string(), 4)],
            [
                (FeatureType::new("e", "colour"), "red".to_string(), 2),
                (FeatureType::new("e", "colour"), "green".to_string(), 2),
                (FeatureType::new("e", "colour"), "blue".to_string(), 1),
                (FeatureType::new("e", "rating"), " 4.2 ".to_string(), 1),
                (FeatureType::new("e", "title"), "Nan".to_string(), 1),
                (FeatureType::new("e", "budget"), "1e400".to_string(), 1),
                (FeatureType::new("f", "colour"), "red".to_string(), 1),
            ],
        );
        assert_eq!(rf.prepared().count(), rf.stats.len());
        for (stored, stat) in rf.prepared().zip(&rf.stats) {
            // What is stored is what the stat alone yields…
            let fresh = stat.prepared();
            assert!(std::ptr::eq(stored.stat, stat));
            assert_eq!(stored.ty_hash(), fresh.ty_hash(), "{:?}", stat.ty);
            assert_eq!(stored.numeric(), fresh.numeric(), "{:?}", stat.ty);
            let values: Vec<(u32, &ValueCount)> = stored.values().collect();
            assert_eq!(values, fresh.values().collect::<Vec<_>>(), "{:?}", stat.ty);
            // …every value once, ascending by (hash, string), each under
            // the hash of its own string.
            assert_eq!(values.len(), stat.values.len());
            assert!(values.windows(2).all(|w| (w[0].0, &w[0].1.value) < (w[1].0, &w[1].1.value)));
            assert!(values.iter().all(|(hash, vc)| *hash == content_hash(&vc.value) as u32));
        }
        let numeric = |attr: &str| {
            rf.prepared().find(|p| p.stat.ty == FeatureType::new("e", attr)).unwrap().numeric()
        };
        assert_eq!(numeric("rating"), Some(4.2));
        assert_eq!(numeric("colour"), None, "several values are never one number");
        assert_eq!(numeric("title"), None, "NaN is not a magnitude");
        assert_eq!(numeric("budget"), None, "an overflowing literal is not a magnitude");
        // Equal types hash equally wherever they occur; the entity counts.
        let hash_of = |entity: &str| {
            rf.prepared()
                .find(|p| p.stat.ty == FeatureType::new(entity, "colour"))
                .unwrap()
                .ty_hash()
        };
        assert_eq!(
            hash_of("e"),
            FeatureStat::prepared(rf.get(&FeatureType::new("e", "colour")).unwrap()).ty_hash()
        );
        assert_ne!(hash_of("e"), hash_of("f"));
    }

    #[test]
    fn equality_and_clones_ignore_how_the_prepared_form_was_hashed() {
        let raw = || {
            [
                (FeatureType::new("e", "a"), "yes".to_string(), 7),
                (FeatureType::new("e", "a"), "no".to_string(), 2),
                (FeatureType::new("e", "b"), "x".to_string(), 5),
            ]
        };
        let real = ResultFeatures::from_raw("raw", [("e".to_string(), 10)], raw());
        let flat = ResultFeatures::from_raw_hashed("raw", [("e".to_string(), 10)], raw(), |_| 0);
        assert_eq!(real, flat);
        assert!(flat.prepared().all(|p| p.ty_hash() == 0 && p.values().all(|(hash, _)| hash == 0)));
        // With one hash for everything the strings alone order the values.
        let a = flat.prepared().next().unwrap();
        assert_eq!(a.values().map(|(_, vc)| vc.value.as_str()).collect::<Vec<_>>(), ["no", "yes"]);
        let copy = flat.clone();
        assert_eq!((copy.facts.capacity(), copy.order.capacity()), (2, 3));
    }

    #[test]
    fn stat_panel_matches_figure1_shape() {
        let d = doc();
        let rf = extract(&d, first_product(&d));
        let panel = rf.stat_panel(2);
        assert!(panel.iter().any(|l| l == "# of reviews: 3"));
        assert!(panel.iter().any(|l| l == "pros:easy_to_read: yes: 3"));
        assert!(panel.iter().any(|l| l == "# of products: 1"));
    }

    #[test]
    fn from_raw_builds_equivalent_stats() {
        let rf = ResultFeatures::from_raw(
            "raw",
            [("e".to_string(), 10)],
            [
                (FeatureType::new("e", "a"), "yes".to_string(), 7),
                (FeatureType::new("e", "a"), "no".to_string(), 2),
                (FeatureType::new("e", "b"), "x".to_string(), 5),
            ],
        );
        assert_eq!(rf.type_count(), 2);
        let a = rf.get(&FeatureType::new("e", "a")).unwrap();
        assert_eq!(a.occurrences, 9);
        assert_eq!(a.dominant().value, "yes");
        assert_eq!(a.entity_instances, 10);
        // Significance order: a (9) before b (5).
        assert_eq!(rf.stats[0].ty.attribute, "a");
    }

    #[test]
    fn text_node_root_is_degenerate_but_defined() {
        // The seed API tolerated a text-node result root (it has no
        // features of its own); the interned path must fall back to the
        // parent element instead of panicking.
        let d = parse_document("<r><item><name>A</name></item><item><name>B</name></item></r>")
            .unwrap();
        let summary = StructureSummary::infer(&d);
        let name = d.child_by_tag(d.child_by_tag(d.root(), "item").unwrap(), "name").unwrap();
        let text = d.children(name).next().unwrap();
        let rf = extract_features(&d, &summary, text, "t");
        assert_eq!(rf.type_count(), 0);
        // The instance is counted under the nearest element's path.
        assert_eq!(rf.instances_of("r/item/name"), 1);
    }

    #[test]
    fn empty_result_has_no_stats() {
        let d = parse_document("<r><item/><item/></r>").unwrap();
        let summary = StructureSummary::infer(&d);
        let item = d.child_by_tag(d.root(), "item").unwrap();
        let rf = extract_features(&d, &summary, item, "i");
        assert_eq!(rf.type_count(), 0);
        assert_eq!(rf.by_entity().len(), 0);
        // The instance itself is still counted.
        assert_eq!(rf.instances_of("r/item"), 1);
    }
}

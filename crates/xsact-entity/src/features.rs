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
//!    key `(owner PathId, leaf PathId, Option<attribute Sym>)`. Ids are
//!    preorder, so the owner — the nearest ancestor-or-self instance — is
//!    the innermost instance the walk has entered and not yet left (left
//!    once the walk reaches its `subtree_end`): the walk keeps that stack
//!    instead of climbing `parent`. The value is **borrowed** from the
//!    document, or written once into a scratch buffer when whitespace
//!    normalisation has to rewrite it;
//! 2. the flat occurrence list is sorted and run-length grouped into one
//!    stat per key and one value per distinct value;
//! 3. the strings of a key are rendered once, from the summary's interned
//!    path strings: the attribute path *is* the leaf's tag path below its
//!    owner.
//!
//! No map is keyed by a path, no path is built per node, and `Sym` /
//! `PathId` never leave this module: `xsact-core` sees strings only.
//!
//! The per-type statistics — e.g. *"pros:compact seen in 8 of 11 reviews
//! (73%)"* — drive both the validity ranking (Desideratum 2) and the
//! differentiability test (Desideratum 3) in `xsact-core`.
//!
//! # Layout
//!
//! A [`ResultFeatures`] is one text arena and four flat arrays of
//! fixed-size records. The arena holds the label, each distinct entity path
//! once, each attribute path and each value; a stat is a record of spans,
//! a run of the value records and its counts; the entities are a sorted
//! array of `(path, instances)`. Extraction counts what it is about to
//! write before it writes it, so it allocates the same few blocks whatever
//! the result holds — two scratch lists, a rewrite buffer only when a value
//! needs one, and the result's five arrays — and a clone copies five
//! blocks. Nothing is public: the fields are read through [`Stat`], a
//! borrowed view, so a result cannot be edited after it is built and what
//! is derived from its content cannot go stale.
//!
//! # Prepared for comparison
//!
//! A comparison reads the same few facts of every stat on every build: is
//! this the type I saw in another result, is its one value a number, which
//! of its values does the other side share. All three depend on the stat
//! alone, so they are computed by the constructors and stored with it
//! (what a feature cache holds is already prepared): per stat a 64-bit
//! **content hash** of its type and the single-value numeric parse, per
//! value a content hash, and each stat's values also listed in
//! `(hash, string)` order ([`Stat::hashed_values`]).
//!
//! Content hashes, not `Sym` / `PathId`, because one comparison may read
//! features extracted from *different documents* (the corpus engine does),
//! whose interned ids mean nothing to each other. A hash only ever
//! **routes**: whoever finds two equal hashes confirms the match on the
//! strings, so no output byte depends on the hash function — pinned by
//! building the same instances with a constant and a 3-bit hash
//! (`tests/properties.rs`). The hashes take no part in equality, and
//! neither does where in the arena a string went.

use crate::classify::{NodeClass, StructureSummary};
use std::fmt;
use xsact_xml::{Document, NodeId, PathId, Sym};

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

/// A run of a result's text arena.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// The bytes `start..end` of an arena.
    fn between(start: usize, end: usize) -> Span {
        let narrow = |n: usize| u32::try_from(n).expect("a result's text stays below 4 GiB");
        Span { start: narrow(start), len: narrow(end - start) }
    }

    /// Appends `s` to `text` and returns where it went.
    fn push(text: &mut String, s: &str) -> Span {
        let start = text.len();
        text.push_str(s);
        Span::between(start, text.len())
    }

    fn of(self, text: &str) -> &str {
        &text[self.start as usize..][..self.len as usize]
    }
}

/// One stat of a result: its strings, its run of values, its counts and
/// what a comparison asks of it before it looks at a string.
#[derive(Debug, Clone, Copy)]
struct StatRec {
    entity: Span,
    attribute: Span,
    /// The stat's values are `values[first..][..count]`.
    first: u32,
    count: u32,
    occurrences: u32,
    entity_instances: u32,
    ty_hash: u64,
    /// The single finite numeric value; NaN when there is none (a numeric
    /// parse is finite only, so NaN is free to mean "not a number").
    numeric: f64,
}

/// One value of one stat: its text, how often it occurred, its content
/// hash.
#[derive(Debug, Clone, Copy)]
struct ValueRec {
    text: Span,
    count: u32,
    hash: u32,
}

/// All feature statistics of one search result.
///
/// Built by [`extract_features`] or [`from_raw`](Self::from_raw) and read
/// through [`label`](Self::label), [`stats`](Self::stats) and the lookups;
/// the storage is the module's (see the module docs).
#[derive(Clone, Default)]
pub struct ResultFeatures {
    /// The label, then each distinct entity path, each attribute path and
    /// each value.
    text: String,
    label: Span,
    /// Sorted by entity path, then by descending occurrence count, then
    /// attribute name — i.e. each entity's types are already in
    /// *significance order* (Desideratum 2).
    stats: Vec<StatRec>,
    /// Each stat's values as one run, sorted by descending count then
    /// value.
    values: Vec<ValueRec>,
    /// Parallel to `values`: a stat's run of it lists the positions of the
    /// stat's values in `(hash, value)` order.
    order: Vec<u32>,
    /// Instances per entity path, sorted by path.
    entities: Vec<(Span, u32)>,
}

/// Aggregated statistics of one feature type within one result: a borrowed
/// view of a [`ResultFeatures`].
#[derive(Clone, Copy)]
pub struct Stat<'a> {
    rf: &'a ResultFeatures,
    rec: &'a StatRec,
}

impl<'a> Stat<'a> {
    fn text(self, span: Span) -> &'a str {
        span.of(&self.rf.text)
    }

    fn run(self) -> std::ops::Range<usize> {
        let first = self.rec.first as usize;
        first..first + self.rec.count as usize
    }

    /// Tag path of the owning entity, from the document root.
    pub fn entity(self) -> &'a str {
        self.text(self.rec.entity)
    }

    /// Attribute path within the entity.
    pub fn attribute(self) -> &'a str {
        self.text(self.rec.attribute)
    }

    /// The observed values with their occurrence counts, sorted by
    /// descending count then value. A stat always holds at least one.
    pub fn values(self) -> impl ExactSizeIterator<Item = (&'a str, u32)> + 'a {
        self.rf.values[self.run()].iter().map(move |v| (self.text(v.text), v.count))
    }

    /// The most frequent value and its count (ties broken towards the
    /// lexicographically smaller value).
    pub fn dominant(self) -> (&'a str, u32) {
        let top = &self.rf.values[self.rec.first as usize];
        (self.text(top.text), top.count)
    }

    /// Total occurrences (sum of the value counts).
    pub fn occurrences(self) -> u32 {
        self.rec.occurrences
    }

    /// Number of instances of the stat's entity in this result.
    pub fn entity_instances(self) -> u32 {
        self.rec.entity_instances
    }

    /// Content hash of the stat's feature type: equal types hash equally,
    /// equal hashes must be confirmed on the strings.
    pub fn ty_hash(self) -> u64 {
        self.rec.ty_hash
    }

    /// The stat's value as a number, when it has exactly one value and that
    /// value parses as a **finite** `f64` — the precondition of the numeric
    /// differentiability rule. `nan`, `inf` and overflowing literals such as
    /// `1e400` are text.
    pub fn numeric(self) -> Option<f64> {
        Some(self.rec.numeric).filter(|v| !v.is_nan())
    }

    /// `(hash, value, count)` of each value, ascending by `(hash, value)` —
    /// two stats of one type walk their shared values in step.
    pub fn hashed_values(self) -> impl ExactSizeIterator<Item = (u32, &'a str, u32)> + 'a {
        self.rf.order[self.run()].iter().map(move |&k| {
            let v = &self.rf.values[k as usize];
            (v.hash, self.text(v.text), v.count)
        })
    }

    /// A Figure 1-style statistics line: `pros:compact: yes: 8`.
    fn stat_line(self) -> String {
        let (value, count) = self.dominant();
        format!("{}: {value}: {count}", self.attribute())
    }
}

/// Equality of content: the strings and counts, not where they are stored
/// nor how they were hashed.
impl PartialEq for Stat<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.entity() == other.entity()
            && self.attribute() == other.attribute()
            && self.occurrences() == other.occurrences()
            && self.entity_instances() == other.entity_instances()
            && self.values().eq(other.values())
    }
}

impl fmt::Debug for Stat<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stat")
            .field("entity", &self.entity())
            .field("attribute", &self.attribute())
            .field("values", &self.values().collect::<Vec<_>>())
            .field("occurrences", &self.occurrences())
            .field("entity_instances", &self.entity_instances())
            .finish()
    }
}

/// Equality of content, read through the views.
impl PartialEq for ResultFeatures {
    fn eq(&self, other: &Self) -> bool {
        self.label() == other.label()
            && self.stats().eq(other.stats())
            && self.entity_counts().eq(other.entity_counts())
    }
}

impl fmt::Debug for ResultFeatures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultFeatures")
            .field("label", &self.label())
            .field("stats", &self.stats().collect::<Vec<_>>())
            .field("entities", &self.entity_counts().collect::<Vec<_>>())
            .finish()
    }
}

/// The content hash of the prepared facts: a multiply-rotate over
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

/// What [`ResultFeatures::from_raw`] reads: a value of a type and how often
/// it occurred.
type Triplet = (FeatureType, String, u32);

impl ResultFeatures {
    /// Builds a `ResultFeatures` directly from `(type, value, count)`
    /// triplets plus entity instance counts. Used by tests, fixtures and
    /// workload generators that bypass XML extraction.
    ///
    /// The input reads like a map: the counts of a repeated `(type, value)`
    /// add up, a later count of an entity replaces an earlier one, and an
    /// entity no count is given for has no instances.
    pub fn from_raw(
        label: impl Into<String>,
        entity_instances: impl IntoIterator<Item = (String, u32)>,
        triplets: impl IntoIterator<Item = (FeatureType, String, u32)>,
    ) -> Self {
        Self::from_raw_hashed(label, entity_instances, triplets, content_hash)
    }

    /// [`from_raw`](Self::from_raw) with the content hash of the prepared
    /// facts swapped out — the seam through which tests show that hashes
    /// only route (a constant hash must build the same instances).
    #[doc(hidden)]
    pub fn from_raw_hashed(
        label: impl Into<String>,
        entity_instances: impl IntoIterator<Item = (String, u32)>,
        triplets: impl IntoIterator<Item = (FeatureType, String, u32)>,
        hash: fn(&str) -> u64,
    ) -> Self {
        let label = label.into();
        let given: Vec<(String, u32)> = entity_instances.into_iter().collect();
        let mut triplets: Vec<Triplet> = triplets.into_iter().collect();
        triplets.sort_unstable_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));

        // Latest count first, then a zero for every entity only a triplet
        // names; a stable sort and keeping the first of each name leaves
        // one entry per entity.
        let mut entities: Vec<(&str, u32)> =
            given.iter().rev().map(|(e, n)| (e.as_str(), *n)).collect();
        entities.extend(triplets.iter().map(|(ty, _, _)| (ty.entity.as_str(), 0)));
        entities.sort_by(|a, b| a.0.cmp(b.0));
        entities.dedup_by(|later, kept| later.0 == kept.0);

        let same_type = |a: &Triplet, b: &Triplet| a.0 == b.0;
        let same_value = |a: &Triplet, b: &Triplet| a.1 == b.1;
        let (mut stats, mut values) = (0, 0);
        let mut text = label.len() + entities.iter().map(|(e, _)| e.len()).sum::<usize>();
        for group in triplets.chunk_by(same_type) {
            stats += 1;
            text += group[0].0.attribute.len();
            for run in group.chunk_by(same_value) {
                values += 1;
                text += run[0].1.len();
            }
        }

        let mut b = Builder::new(&label, text, entities.len(), stats, values, hash);
        for &(entity, n) in &entities {
            b.push_entity(entity, n);
        }
        for group in triplets.chunk_by(same_type) {
            let ty = &group[0].0;
            let attribute = Span::push(&mut b.text, &ty.attribute);
            let histogram = group
                .chunk_by(same_value)
                .map(|run| (run[0].1.as_str(), run.iter().map(|t| t.2).sum::<u32>()));
            b.push_stat(&ty.entity, attribute, histogram);
        }
        let (features, distinct) = b.finish();
        debug_assert!(distinct, "from_raw merges by string");
        features
    }

    /// Human-readable label of the result (e.g. the product name).
    pub fn label(&self) -> &str {
        self.label.of(&self.text)
    }

    /// The stats, one per feature type, sorted by entity path, then by
    /// descending occurrence count, then attribute name — each entity's
    /// types in *significance order* (Desideratum 2).
    pub fn stats(&self) -> impl ExactSizeIterator<Item = Stat<'_>> + '_ {
        self.stats.iter().map(move |rec| Stat { rf: self, rec })
    }

    /// Looks up the stat of a feature type.
    pub fn get(&self, ty: &FeatureType) -> Option<Stat<'_>> {
        self.stats().find(|s| s.entity() == ty.entity && s.attribute() == ty.attribute)
    }

    /// Total number of feature types in the result (the paper's `m`).
    pub fn type_count(&self) -> usize {
        self.stats.len()
    }

    /// The Figure 1-style statistics panel: `# of <entity>: <n>` lines plus
    /// the top-`k` feature lines per entity. Entities appear in
    /// lexicographic path order.
    pub fn stat_panel(&self, top_k: usize) -> Vec<String> {
        let mut lines = Vec::new();
        let entity = |rec: &StatRec| rec.entity.of(&self.text);
        for run in self.stats.chunk_by(|a, b| entity(a) == entity(b)) {
            let short = crate::label::entity_short_name(entity(&run[0]));
            lines.push(format!("# of {short}s: {}", run[0].entity_instances));
            lines.extend(run.iter().take(top_k).map(|rec| Stat { rf: self, rec }.stat_line()));
        }
        lines
    }

    /// Each entity path with its instance count, in path order.
    fn entity_counts(&self) -> impl Iterator<Item = (&str, u32)> + '_ {
        self.entities.iter().map(|&(path, n)| (path.of(&self.text), n))
    }

    /// The features keyed by their strings alone, as
    /// [`from_raw`](Self::from_raw) builds them: entity paths and types that
    /// render alike become one, their instance counts added and their
    /// value histograms merged.
    fn merge_alike(&self) -> ResultFeatures {
        let mut instances: Vec<(String, u32)> = Vec::new();
        for (path, n) in self.entity_counts() {
            match instances.last_mut() {
                Some((last, total)) if last == path => *total += n,
                _ => instances.push((path.to_owned(), n)),
            }
        }
        let triplets = self.stats().flat_map(|stat| {
            let ty = FeatureType::new(stat.entity(), stat.attribute());
            stat.values().map(move |(value, count)| (ty.clone(), value.to_owned(), count))
        });
        ResultFeatures::from_raw(self.label(), instances, triplets)
    }
}

/// A [`ResultFeatures`] while it is written. Every array is sized by the
/// caller before the first write, so none grows.
struct Builder {
    text: String,
    label: Span,
    stats: Vec<StatRec>,
    values: Vec<ValueRec>,
    order: Vec<u32>,
    entities: Vec<(Span, u32)>,
    hash: fn(&str) -> u64,
}

impl Builder {
    /// `text` bytes in all, the label's first.
    fn new(
        label: &str,
        text: usize,
        entities: usize,
        stats: usize,
        values: usize,
        hash: fn(&str) -> u64,
    ) -> Builder {
        let mut text = String::with_capacity(text);
        let label = Span::push(&mut text, label);
        Builder {
            text,
            label,
            stats: Vec::with_capacity(stats),
            values: Vec::with_capacity(values),
            order: Vec::with_capacity(values),
            entities: Vec::with_capacity(entities),
            hash,
        }
    }

    /// Appends an entity path. They arrive in path order, so where the
    /// paths lie in the text is their order.
    fn push_entity(&mut self, path: &str, instances: u32) {
        debug_assert!(self.entities.last().is_none_or(|last| last.0.of(&self.text) <= path));
        let path = Span::push(&mut self.text, path);
        self.entities.push((path, instances));
    }

    /// Appends a stat of `entity`, a pushed entity path, whose attribute
    /// path is already written: its distinct values and their counts, in any
    /// order, are written and put in order, and the stat's facts prepared.
    fn push_stat<'v>(
        &mut self,
        entity: &str,
        attribute: Span,
        histogram: impl Iterator<Item = (&'v str, u32)>,
    ) {
        let at = self.entities.partition_point(|(path, _)| path.of(&self.text) < entity);
        let (path, entity_instances) = self.entities[at];
        debug_assert_eq!(path.of(&self.text), entity, "the entity was pushed");
        let first = self.values.len();
        let mut occurrences = 0;
        for (value, count) in histogram {
            occurrences += count;
            let hash = (self.hash)(value) as u32;
            self.values.push(ValueRec { text: Span::push(&mut self.text, value), count, hash });
        }
        let text = self.text.as_bytes();
        let bytes = |span: Span| &text[span.start as usize..][..span.len as usize];
        let run = &mut self.values[first..];
        // Descending count, then value — a stat's first value is its
        // dominant one.
        run.sort_unstable_by(|a, b| {
            b.count.cmp(&a.count).then_with(|| bytes(a.text).cmp(bytes(b.text)))
        });
        let numeric = match run {
            [only] => only.text.of(&self.text).trim().parse::<f64>().ok().filter(|v| v.is_finite()),
            _ => None,
        };
        let values = &self.values;
        self.order.extend(first as u32..values.len() as u32);
        self.order[first..].sort_unstable_by(|&a, &b| {
            let (a, b) = (&values[a as usize], &values[b as usize]);
            a.hash.cmp(&b.hash).then_with(|| bytes(a.text).cmp(bytes(b.text)))
        });
        let ty_hash = (self.hash)(entity).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(32)
            ^ (self.hash)(attribute.of(&self.text));
        self.stats.push(StatRec {
            entity: path,
            attribute,
            first: first as u32,
            count: (values.len() - first) as u32,
            occurrences,
            entity_instances,
            ty_hash,
            numeric: numeric.unwrap_or(f64::NAN),
        });
    }

    /// Puts the stats in order. Also says whether every entity path and
    /// every type is a string of its own.
    fn finish(mut self) -> (ResultFeatures, bool) {
        debug_assert_eq!(self.text.len(), self.text.capacity(), "the text was sized exactly");
        let text = self.text.as_bytes();
        let bytes = |span: Span| &text[span.start as usize..][..span.len as usize];
        let mut distinct = self.entities.windows(2).all(|w| bytes(w[0].0) != bytes(w[1].0));
        // Equal types hash alike, so only a tie of hashes compares strings.
        // (While the entity paths are distinct, one path is one span.)
        let ty = |s: &StatRec| (s.ty_hash, s.entity.start, bytes(s.attribute));
        self.stats.sort_unstable_by(|a, b| ty(a).cmp(&ty(b)));
        distinct &= self.stats.windows(2).all(|w| ty(&w[0]) != ty(&w[1]));
        // Entity path ascending — the entities were pushed in path order, so
        // where a path starts in the text orders it —, within an entity
        // occurrences descending, then attribute: the significance order of
        // Desideratum 2.
        self.stats.sort_unstable_by(|a, b| {
            a.entity
                .start
                .cmp(&b.entity.start)
                .then_with(|| b.occurrences.cmp(&a.occurrences))
                .then_with(|| bytes(a.attribute).cmp(bytes(b.attribute)))
        });
        let Builder { text, label, stats, values, order, entities, .. } = self;
        (ResultFeatures { text, label, stats, values, order, entities }, distinct)
    }
}

/// The value of an occurrence.
#[derive(Clone, Copy)]
enum Value<'a> {
    /// Borrowed from the document as it is.
    Doc(&'a str),
    /// The text runs of this leaf element, whitespace-normalised — written
    /// out once the walk is over, into a buffer sized for all of them.
    Leaf(NodeId),
    /// Written out: a run of that buffer.
    Rewritten(Span),
}

/// One value seen during the walk, keyed by fixed-size interned ids: the
/// path of the instance that owns it, the path of the element that carries
/// it and — for an XML attribute — the attribute's name. The attribute path
/// of the feature type is the part of `leaf`'s tag path below `owner`, so
/// no per-node path is ever built.
struct Occurrence<'a> {
    owner: PathId,
    leaf: PathId,
    attr: Option<Sym>,
    value: Value<'a>,
}

impl<'a> Occurrence<'a> {
    fn key(&self) -> (PathId, PathId, Option<Sym>) {
        (self.owner, self.leaf, self.attr)
    }

    /// The value as text, a rewritten one read from `rewritten`.
    fn value<'s>(&self, rewritten: &'s str) -> &'s str
    where
        'a: 's,
    {
        match self.value {
            Value::Doc(text) => text,
            Value::Rewritten(span) => span.of(rewritten),
            Value::Leaf(_) => unreachable!("every leaf value is written out after the walk"),
        }
    }
}

/// An instance the walk has entered: its path, where its subtree ends, and
/// the instance it lies in — so the instances entered and not yet left are
/// a stack threaded through the list of all of them.
struct Entered {
    path: Option<PathId>,
    end: u32,
    outer: usize,
}

/// Extracts the aggregated features of the result subtree rooted at `root`.
///
/// `summary` must have been inferred from the same document so entity
/// classification is consistent across all results.
///
/// One walk over the subtree collects every value as an occurrence keyed by
/// interned ids ([`PathId`]s + an optional attribute [`Sym`]); sorting that
/// flat list and grouping equal runs yields the per-type value histograms.
/// The strings that `xsact-core` consumes are rendered **once per distinct
/// feature type** from the summary's path strings, never per node or per
/// comparison. Every array of the returned value is exactly sized, so
/// callers can cache it as it is.
pub fn extract_features(
    doc: &Document,
    summary: &StructureSummary,
    root: NodeId,
    label: impl AsRef<str>,
) -> ResultFeatures {
    // Every instance and every valued leaf is a node of the subtree, every
    // other value one of its attributes.
    let nodes = doc.subtree_end(root) as usize - root.index();
    let mut instances: Vec<Entered> = Vec::with_capacity(nodes);
    let mut occurrences: Vec<Occurrence<'_>> =
        Vec::with_capacity(nodes + doc.subtree_attr_count(root));
    let mut innermost = 0;
    for node in doc.descendants(root) {
        let id = node.index() as u32;
        if node != root {
            // Leave the instances `node` lies after; the root is never left.
            while instances[innermost].end <= id {
                innermost = instances[innermost].outer;
            }
        }
        // The result root is an instance regardless of its class — it is
        // the object being compared.
        let is_instance = node == root
            || (doc.is_element(node) && summary.class_of(doc, node) == NodeClass::Entity);
        if is_instance {
            let path = instance_path(doc, node);
            instances.push(Entered { path, end: doc.subtree_end(node), outer: innermost });
            innermost = instances.len() - 1;
        }
        // An instance's own text is not one of its features; the text of a
        // leaf below it is. Text runs have no features of their own.
        let valued = !is_instance && doc.is_leaf_element(node);
        if !valued && doc.attr_count(node) == 0 {
            continue;
        }
        let (Some(owner), Some(leaf)) = (instances[innermost].path, doc.path_id(node)) else {
            continue;
        };
        for (name, value) in doc.attrs_syms(node) {
            occurrences.push(Occurrence {
                owner,
                leaf,
                attr: Some(name),
                value: Value::Doc(value),
            });
        }
        if let Some(value) = valued.then(|| leaf_value(doc, node)).flatten() {
            occurrences.push(Occurrence { owner, leaf, attr: None, value });
        }
    }

    // The values normalisation rewrites, into one buffer: a rewrite only
    // ever drops bytes, so the leaves' text runs bound it.
    let bound = occurrences
        .iter()
        .filter_map(|o| if let Value::Leaf(leaf) = o.value { Some(leaf) } else { None })
        .flat_map(|leaf| runs(doc, leaf).map(str::len))
        .sum();
    let mut rewritten = String::with_capacity(bound);
    for occurrence in &mut occurrences {
        if let Value::Leaf(leaf) = occurrence.value {
            let start = rewritten.len();
            push_normalized(&mut rewritten, runs(doc, leaf));
            occurrence.value = Value::Rewritten(Span::between(start, rewritten.len()));
        }
    }
    let rewritten = rewritten.as_str();

    // Entities in path order, one run per path.
    let display = |path: Option<PathId>| path.map_or("", |path| summary.path_display(path));
    instances
        .sort_unstable_by(|a, b| display(a.path).cmp(display(b.path)).then(a.path.cmp(&b.path)));
    let entity_runs = || {
        instances
            .chunk_by(|a, b| a.path == b.path)
            .filter_map(|run| Some((run[0].path?, run.len() as u32)))
    };
    occurrences.sort_unstable_by(|a, b| {
        a.key().cmp(&b.key()).then_with(|| a.value(rewritten).cmp(b.value(rewritten)))
    });
    let same_type = |a: &Occurrence<'_>, b: &Occurrence<'_>| a.key() == b.key();
    let same_value =
        |a: &Occurrence<'_>, b: &Occurrence<'_>| a.value(rewritten) == b.value(rewritten);

    // Count what is about to be written, then write it.
    let label = label.as_ref();
    let mut text = label.len();
    let mut entities = 0;
    for (path, _) in entity_runs() {
        entities += 1;
        text += summary.path_display(path).len();
    }
    let (mut stats, mut values) = (0, 0);
    for group in occurrences.chunk_by(same_type) {
        let (below, name) = attribute_parts(doc, summary, group[0].key());
        stats += 1;
        text += below.len() + name.map_or(0, |name| 1 + name.len());
        for run in group.chunk_by(same_value) {
            values += 1;
            text += run[0].value(rewritten).len();
        }
    }

    let mut b = Builder::new(label, text, entities, stats, values, content_hash);
    for (path, n) in entity_runs() {
        b.push_entity(summary.path_display(path), n);
    }
    for group in occurrences.chunk_by(same_type) {
        let key = group[0].key();
        let (below, name) = attribute_parts(doc, summary, key);
        let attribute = push_attribute(&mut b.text, below, name);
        let histogram =
            group.chunk_by(same_value).map(|run| (run[0].value(rewritten), run.len() as u32));
        b.push_stat(summary.path_display(key.0), attribute, histogram);
    }

    // Distinct ids render to one string only when a name holds a join
    // character (`:` is legal in an XML name, so `<a:b>` and `<a><b>` meet
    // in `a:b`). Then, and only then, the strings decide — as in `from_raw`.
    match b.finish() {
        (features, true) => features,
        (features, false) => features.merge_alike(),
    }
}

/// The interned path of an instance node: its own path for elements, its
/// parent element's path for text runs (a text run's parent is an element).
fn instance_path(doc: &Document, node: NodeId) -> Option<PathId> {
    doc.path_id(node).or_else(|| doc.path_id(doc.parent(node)?))
}

/// The text runs directly below a leaf element.
fn runs(doc: &Document, leaf: NodeId) -> impl Iterator<Item = &str> {
    doc.children(leaf).filter_map(|run| doc.text(run))
}

/// The whitespace-normalised value of a leaf element (`" 4.2\n "` equals
/// `"4.2"`): borrowed when its one text run is already in that form, to be
/// rewritten otherwise, `None` when it is empty.
fn leaf_value(doc: &Document, leaf: NodeId) -> Option<Value<'_>> {
    let mut first_two = runs(doc, leaf);
    if let (Some(text), None) = (first_two.next(), first_two.next()) {
        if is_normalized(text) {
            return (!text.is_empty()).then_some(Value::Doc(text));
        }
    }
    runs(doc, leaf).any(|run| !run.trim().is_empty()).then_some(Value::Leaf(leaf))
}

/// Appends the words of `runs` to `out`, one space between two.
fn push_normalized<'a>(out: &mut String, runs: impl Iterator<Item = &'a str>) {
    let start = out.len();
    for word in runs.flat_map(str::split_whitespace) {
        if out.len() > start {
            out.push(' ');
        }
        out.push_str(word);
    }
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

/// The attribute path of one aggregation key in parts: the leaf's tag path
/// below its owner's, `/`-joined, and the XML attribute's name.
fn attribute_parts<'s>(
    doc: &'s Document,
    summary: &'s StructureSummary,
    (owner, leaf, attr): (PathId, PathId, Option<Sym>),
) -> (&'s str, Option<&'s str>) {
    let below = &summary.path_display(leaf)[summary.path_display(owner).len()..];
    (below.strip_prefix('/').unwrap_or(below), attr.map(|name| doc.interner().resolve(name)))
}

/// Writes an attribute path from its parts: the steps joined with `:`,
/// plus `@name` for an XML attribute (`@name` alone on the instance
/// itself).
fn push_attribute(text: &mut String, below: &str, name: Option<&str>) -> Span {
    let start = text.len();
    for (k, step) in below.split('/').enumerate() {
        if k > 0 {
            text.push(':');
        }
        text.push_str(step);
    }
    if let Some(name) = name {
        text.push('@');
        text.push_str(name);
    }
    Span::between(start, text.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsact_xml::parse_document;

    /// Number of instances of an entity path in `rf`, 0 for a path it
    /// does not hold.
    fn instances_of(rf: &ResultFeatures, entity: &str) -> u32 {
        rf.entity_counts().find(|&(path, _)| path == entity).map_or(0, |(_, n)| n)
    }

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
        assert_eq!(instances_of(&rf, PRODUCT), 1);
        assert_eq!(instances_of(&rf, REVIEW), 3);
        assert_eq!(instances_of(&rf, "never"), 0);
    }

    #[test]
    fn product_attributes_extracted() {
        let d = doc();
        let rf = extract(&d, first_product(&d));
        let name = rf.get(&FeatureType::new(PRODUCT, "name")).unwrap();
        assert_eq!(name.dominant().0, "TomTom Go 630");
        assert_eq!(name.occurrences(), 1);
        assert_eq!(name.entity_instances(), 1);
        let rating = rf.get(&FeatureType::new(PRODUCT, "rating")).unwrap();
        assert_eq!(rating.dominant().0, "4.2");
    }

    #[test]
    fn review_features_aggregate_over_instances() {
        let d = doc();
        let rf = extract(&d, first_product(&d));
        let compact = rf.get(&FeatureType::new(REVIEW, "pros:compact")).unwrap();
        assert_eq!(compact.occurrences(), 2);
        assert_eq!(compact.entity_instances(), 3);
        let easy = rf.get(&FeatureType::new(REVIEW, "pros:easy_to_read")).unwrap();
        assert_eq!(easy.occurrences(), 3);
        let auto = rf.get(&FeatureType::new(REVIEW, "uses:best_use:auto")).unwrap();
        assert_eq!(auto.occurrences(), 1);
    }

    #[test]
    fn nested_entities_do_not_leak_into_parent() {
        let d = doc();
        let rf = extract(&d, first_product(&d));
        // The product entity must not own review-level leaves.
        assert!(rf
            .stats()
            .filter(|s| s.entity() == PRODUCT)
            .all(|s| !s.attribute().contains("compact")));
    }

    #[test]
    fn significance_order_within_entity() {
        let d = doc();
        let rf = extract(&d, first_product(&d));
        let review_stats: Vec<Stat<'_>> = rf.stats().filter(|s| s.entity() == REVIEW).collect();
        // easy_to_read (3) before compact (2) before auto (1).
        let attrs: Vec<&str> = review_stats.iter().map(|s| s.attribute()).collect();
        assert_eq!(attrs, ["pros:easy_to_read", "pros:compact", "uses:best_use:auto"]);
        let counts: Vec<u32> = review_stats.iter().map(|s| s.occurrences()).collect();
        assert_eq!(counts, [3, 2, 1]);
    }

    #[test]
    fn stats_group_by_entity_contiguously() {
        let d = doc();
        let rf = extract(&d, first_product(&d));
        let mut entities: Vec<&str> = rf.stats().map(Stat::entity).collect();
        entities.dedup();
        assert_eq!(entities, [PRODUCT, REVIEW]);
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
        assert_eq!(kw.occurrences(), 3);
        assert_eq!(kw.values().collect::<Vec<_>>(), [("war", 2), ("epic", 1)]);
        assert_eq!(kw.dominant(), ("war", 2));
        assert!(kw.occurrences() > kw.entity_instances(), "several keywords per movie");
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
        assert_eq!(sku.dominant().0, "A1");
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
        assert_eq!(name.dominant().0, "Tom Tom 630");
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
        assert_eq!(rf.stats().next().unwrap().dominant().0, "Tom Tom 630");
    }

    #[test]
    fn extracted_arrays_are_exactly_sized() {
        // The workbench caches the extractor's output as it is; slack in
        // hundreds of cached results is resident memory.
        let mut d = doc();
        let padded = d.add_element(d.root(), "note");
        d.add_text(padded, "  two\n words ");
        let summary = StructureSummary::infer(&d);
        for root in d.all_nodes() {
            let rf = extract_features(&d, &summary, root, "r");
            assert_eq!(rf.text.capacity(), rf.text.len());
            assert_eq!(rf.stats.capacity(), rf.stats.len());
            assert_eq!(rf.entities.capacity(), rf.entities.len());
            let values: usize = rf.stats().map(|stat| stat.values().len()).sum();
            assert_eq!((rf.values.capacity(), rf.values.len()), (values, values));
            assert_eq!((rf.order.capacity(), rf.order.len()), (values, values));
        }
    }

    #[test]
    fn the_prepared_facts_are_a_function_of_the_content() {
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
        for stat in rf.stats() {
            // Every value once, ascending by (hash, string), each under the
            // hash of its own string, with its own count…
            let hashed: Vec<(u32, &str, u32)> = stat.hashed_values().collect();
            let mut expected: Vec<(u32, &str, u32)> = stat
                .values()
                .map(|(value, count)| (content_hash(value) as u32, value, count))
                .collect();
            expected.sort_unstable();
            assert_eq!(hashed, expected, "{stat:?}");
            // …and the type's hash is that of its two strings.
            let ty_hash =
                content_hash(stat.entity()).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(32)
                    ^ content_hash(stat.attribute());
            assert_eq!(stat.ty_hash(), ty_hash, "{stat:?}");
        }
        let numeric = |attr: &str| rf.get(&FeatureType::new("e", attr)).unwrap().numeric();
        assert_eq!(numeric("rating"), Some(4.2));
        assert_eq!(numeric("colour"), None, "several values are never one number");
        assert_eq!(numeric("title"), None, "NaN is not a magnitude");
        assert_eq!(numeric("budget"), None, "an overflowing literal is not a magnitude");
        // Equal types hash equally wherever they occur; the entity counts.
        let hash_of = |entity: &str| rf.get(&FeatureType::new(entity, "colour")).unwrap().ty_hash();
        let alone = ResultFeatures::from_raw(
            "other",
            [],
            [(FeatureType::new("e", "colour"), "grey".to_string(), 9)],
        );
        assert_eq!(hash_of("e"), alone.stats().next().unwrap().ty_hash());
        assert_ne!(hash_of("e"), hash_of("f"));
    }

    #[test]
    fn equality_and_clones_ignore_how_the_facts_were_hashed() {
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
        assert!(flat.stats().all(|s| s.ty_hash() == 0 && s.hashed_values().all(|v| v.0 == 0)));
        // With one hash for everything the strings alone order the values.
        let a = flat.stats().next().unwrap();
        assert_eq!(a.hashed_values().map(|v| v.1).collect::<Vec<_>>(), ["no", "yes"]);
        let copy = flat.clone();
        assert_eq!(copy, flat);
        assert_eq!(
            (copy.stats.capacity(), copy.values.capacity(), copy.order.capacity()),
            (2, 3, 3)
        );
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
        assert_eq!(a.occurrences(), 9);
        assert_eq!(a.dominant().0, "yes");
        assert_eq!(a.entity_instances(), 10);
        // Significance order: a (9) before b (5).
        assert_eq!(rf.stats().next().unwrap().attribute(), "a");
    }

    #[test]
    fn from_raw_reads_its_input_like_a_map() {
        let rf = ResultFeatures::from_raw(
            "raw",
            [("e".to_string(), 3), ("e".to_string(), 5)],
            [
                (FeatureType::new("e", "a"), "yes".to_string(), 1),
                (FeatureType::new("e", "a"), "yes".to_string(), 2),
                (FeatureType::new("f", "a"), "no".to_string(), 1),
            ],
        );
        // Repeated values add up; the later count of an entity wins; an
        // entity only a triplet names has no instances.
        let a = rf.get(&FeatureType::new("e", "a")).unwrap();
        assert_eq!((a.values().collect::<Vec<_>>(), a.entity_instances()), (vec![("yes", 3)], 5));
        assert_eq!((instances_of(&rf, "e"), instances_of(&rf, "f")), (5, 0));
        assert_eq!(rf.get(&FeatureType::new("f", "a")).unwrap().entity_instances(), 0);
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
        assert_eq!(instances_of(&rf, "r/item/name"), 1);
    }

    #[test]
    fn empty_result_has_no_stats() {
        let d = parse_document("<r><item/><item/></r>").unwrap();
        let summary = StructureSummary::infer(&d);
        let item = d.child_by_tag(d.root(), "item").unwrap();
        let rf = extract_features(&d, &summary, item, "i");
        assert_eq!(rf.type_count(), 0);
        assert_eq!(rf.stats().len(), 0);
        assert!(rf.stat_panel(3).is_empty());
        // The instance itself is still counted.
        assert_eq!(instances_of(&rf, "r/item"), 1);
    }
}

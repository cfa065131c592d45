//! The one selection behind both query builders.
//!
//! [`QueryPipeline`](crate::QueryPipeline) and
//! [`CorpusQuery`](crate::CorpusQuery) differ only in where their result
//! lists come from — their [`Source`]: SLCA over one document, or the
//! sharded fan-out and merge. Everything after that is [`Selection`]:
//!
//! * **The rule.** Explicit 1-based positions index the full list and take
//!   precedence over the bound `k`; otherwise the first `k` enter (all
//!   without a bound). A comparison fails in one order: `InvalidConfig` (a
//!   bad DFS parameter, or a bound of 0), `NoResults`, `InvalidSelection`,
//!   `NotEnoughResults`.
//! * **Three memos**, so the chained terminals (`results` → `selection` →
//!   `features` → `compare`) never repeat a search or a build: the full
//!   list; the bounded top-k, for which a ranking source scores only `k`
//!   results unless the full list is already there and its head serves
//!   (the ranking order is total, so both are the same bytes — pinned by
//!   `tests/properties.rs` and `tests/corpus.rs`); and the comparison
//!   instance, built once from the cached features and shared by pointer
//!   with every outcome, so several algorithms pay preprocessing once.
//! * **Resets** happen only in the setters, each resetting exactly the
//!   memos its value feeds. Tracing resets nothing.

use crate::error::{XsactError, XsactResult};
use crate::workbench::validate_config;
use std::cell::OnceCell;
use std::fmt::Debug;
use std::sync::Arc;
use xsact_core::{Algorithm, Comparison, ComparisonOutcome, DfsConfig, Instance};
use xsact_entity::ResultFeatures;
use xsact_index::Query;
use xsact_obs::TraceSink;

/// Where a builder's result lists come from.
pub(crate) trait Source {
    type Hit;
    type List: AsRef<[Self::Hit]> + Clone + Debug;

    /// Whether the full list is the ranking, so its head is the top-k.
    fn ranks(&self) -> bool {
        true
    }

    fn full(&self, query: &Query) -> Self::List {
        self.top(query, usize::MAX)
    }

    /// The best `k` of the ranking, from the streaming executor.
    fn top(&self, query: &Query, k: usize) -> Self::List;

    /// The features of `hit` as its workbench's cache holds them; `label`
    /// is scratch space for a label the hit does not carry itself.
    fn features(&self, hit: &Self::Hit, label: &mut String) -> Arc<ResultFeatures>;
}

/// A parsed query, which of its results are compared and how; see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct Selection<S: Source> {
    source: S,
    query: Query,
    take: Option<usize>,
    select: Vec<usize>,
    config: DfsConfig,
    full: OnceCell<S::List>,
    top: OnceCell<S::List>,
    instance: OnceCell<Arc<Instance>>,
}

impl<S: Source> Selection<S> {
    /// Parses `text`, recording the `parse` span into `trace`. Fails with
    /// [`XsactError::EmptyQuery`] when no indexable term is left.
    pub(crate) fn parse(source: S, text: &str, trace: Option<&TraceSink>) -> XsactResult<Self> {
        let span = trace.map(|sink| sink.span("parse"));
        let query = Query::parse(text);
        if let Some(mut span) = span {
            span.note("terms", query.terms().len() as u64);
            span.finish();
        }
        if query.is_empty() {
            return Err(XsactError::EmptyQuery);
        }
        Ok(Selection {
            source,
            query,
            take: None,
            select: Vec::new(),
            config: DfsConfig::default(),
            full: OnceCell::new(),
            top: OnceCell::new(),
            instance: OnceCell::new(),
        })
    }

    pub(crate) fn source(&self) -> &S {
        &self.source
    }

    pub(crate) fn query(&self) -> &Query {
        &self.query
    }

    pub(crate) fn take(&self) -> Option<usize> {
        self.take
    }

    /// The source, to change what it returns: every memo goes.
    pub(crate) fn source_mut(&mut self) -> &mut S {
        self.full.take();
        self.top.take();
        self.instance.take();
        &mut self.source
    }

    pub(crate) fn set_take(&mut self, take: usize) {
        self.take = Some(take);
        self.top.take();
        self.instance.take();
    }

    pub(crate) fn set_select(&mut self, positions: Vec<usize>) {
        self.select = positions;
        self.instance.take();
    }

    /// The DFS parameters, to change them: the instance goes.
    pub(crate) fn config_mut(&mut self) -> &mut DfsConfig {
        self.instance.take();
        &mut self.config
    }

    pub(crate) fn full(&self) -> &S::List {
        self.full.get_or_init(|| self.source.full(&self.query))
    }

    /// The best `take` of the ranking: the head of the full list when that
    /// is the ranking and is there or wanted whole, the bounded memo else.
    pub(crate) fn top(&self) -> &[S::Hit] {
        if self.source.ranks() && (self.take.is_none() || self.full.get().is_some()) {
            return head(self.full().as_ref(), self.take);
        }
        let k = self.take.unwrap_or(usize::MAX);
        self.top.get_or_init(|| self.source.top(&self.query, k)).as_ref()
    }

    /// `f` of every selected hit, in selection order, lent from the memos.
    pub(crate) fn map_selected<T>(&self, mut f: impl FnMut(&S::Hit) -> T) -> XsactResult<Vec<T>> {
        if self.select.is_empty() {
            let hits = if self.source.ranks() {
                self.top()
            } else {
                head(self.full().as_ref(), self.take)
            };
            return Ok(hits.iter().map(f).collect());
        }
        let full = self.full().as_ref();
        // Every position is checked before `f` sees any hit.
        if let Some(&index) = self.select.iter().find(|&&i| i == 0 || i > full.len()) {
            return Err(XsactError::InvalidSelection { index, available: full.len() });
        }
        Ok(self.select.iter().map(|&i| f(&full[i - 1])).collect())
    }

    /// [`map_selected`](Self::map_selected) as the comparison terminals
    /// take it: never empty, and failing in the module docs' order.
    fn compared<T>(&self, f: impl FnMut(&S::Hit) -> T) -> XsactResult<Vec<T>> {
        if self.select.is_empty() && self.take == Some(0) {
            return Err(XsactError::InvalidConfig(
                "take(0) / top(0) selects no results; a comparison needs at least two".into(),
            ));
        }
        match self.map_selected(f) {
            Ok(mapped) if !mapped.is_empty() => Ok(mapped),
            Err(e @ XsactError::InvalidSelection { available: 1.., .. }) => Err(e),
            // Nothing selected, or positions into an empty list.
            _ => Err(XsactError::NoResults { query: self.query.to_string() }),
        }
    }

    pub(crate) fn features(&self) -> XsactResult<Vec<ResultFeatures>> {
        let mut label = String::new();
        self.compared(|hit| ResultFeatures::clone(&self.source.features(hit, &mut label)))
    }

    pub(crate) fn instance(&self) -> XsactResult<&Arc<Instance>> {
        if let Some(instance) = self.instance.get() {
            return Ok(instance);
        }
        validate_config(&self.config)?;
        let mut label = String::new();
        let features = self.compared(|hit| self.source.features(hit, &mut label))?;
        if features.len() < 2 {
            let found = features.len();
            return Err(XsactError::NotEnoughResults { query: self.query.to_string(), found });
        }
        Ok(self.instance.get_or_init(|| Arc::new(Instance::build(&features, self.config))))
    }

    /// Runs `algorithm` on the memoised instance; an exhaustive run over its
    /// limit is the typed [`XsactError::ExhaustiveLimitExceeded`].
    pub(crate) fn compare(&self, algorithm: Algorithm) -> XsactResult<ComparisonOutcome> {
        let instance = self.instance()?;
        match algorithm {
            Algorithm::Exhaustive { limit } => Comparison::run_exhaustive_on(instance, limit)
                .ok_or(XsactError::ExhaustiveLimitExceeded { limit }),
            _ => Ok(Comparison::run_on(instance, algorithm)),
        }
    }
}

/// The first `take` entries of `list` (all of them without a bound).
fn head<H>(list: &[H], take: Option<usize>) -> &[H] {
    &list[..take.map_or(list.len(), |k| k.min(list.len()))]
}

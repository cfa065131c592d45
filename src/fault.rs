//! Deterministic fault injection for the serving runtime.
//!
//! A resilient server earns that adjective only if its recovery paths are
//! exercised as routinely as its happy path. This module provides the
//! lever: a [`FaultPlan`] arms **named injection sites** that production
//! code consults at the few places failures are possible, and the chaos
//! suite (`tests/chaos.rs`) drives those sites against a fault-free
//! oracle. The plan is fully deterministic — a site fires on an exact
//! hit count, never on a clock or an RNG draw — so an injected failure
//! reproduces byte-for-byte across runs and machines.
//!
//! ## Sites
//!
//! | site               | scope        | value            | effect at the call site        |
//! |--------------------|--------------|------------------|--------------------------------|
//! | `shard_panic`      | shard index  | —                | worker panics mid-execute      |
//! | `slow_execute`     | shard index  | sleep millis     | worker stalls before executing |
//! | `drop_connection`  | —            | —                | TCP connection closed mid-talk |
//!
//! These are the only sites: [`FaultPlan::parse`] refuses any other name,
//! so a misspelt site is an error rather than a plan that never fires.
//! The *call sites* live where the behaviour belongs (a served miss's
//! shard job, the connection loop); this module only decides *whether* a
//! given hit fires.
//!
//! ## Spec grammar
//!
//! A plan is a comma-separated list of entries, each
//! `site[:scope]@nth[x<value>]`:
//!
//! ```text
//! shard_panic@2               any scope; fires on the 2nd hit overall
//! shard_panic:1@3             scope 1 only; fires on its 3rd hit
//! slow_execute@1x250          1st hit sleeps 250 ms (default 50)
//! shard_panic:1@3,slow_execute:0@1   two entries
//! ```
//!
//! Each entry fires **exactly once** (its nth matching hit); hit counters
//! are atomic, so concurrent shards race *to* the trigger but exactly one
//! hit wins it. The `XSACT_FAULTS` environment variable carries the same
//! grammar for binaries ([`FaultPlan::from_env`]); the CLI reads it once
//! at startup, never per request.
//!
//! ## Disarmed cost
//!
//! A disarmed plan is `None` behind the newtype: every [`should_fire`]
//! call reduces to one branch on a null pointer — no atomics, no string
//! compares, no environment reads. The serve smoke script greps for that
//! early-return pattern so a refactor cannot quietly put work on the
//! disarmed hot path.
//!
//! [`should_fire`]: FaultPlan::should_fire

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default sleep for `slow_execute` when the entry carries no `x<value>`.
const DEFAULT_SLOW_MS: u64 = 50;

/// The sites the serving runtime consults; see the module docs.
const SITES: [&str; 3] = ["shard_panic", "slow_execute", "drop_connection"];

/// One armed entry: a site name, an optional scope filter, the 1-based
/// hit at which it fires, and a site-specific value.
#[derive(Debug)]
struct Site {
    name: String,
    /// `None` matches any scope (the hit counter is then global).
    scope: Option<usize>,
    /// Fires when the matching-hit counter reaches exactly this value.
    nth: u64,
    /// Site-specific payload (sleep millis for `slow_execute`).
    value: u64,
    hits: AtomicU64,
}

/// A set of armed injection sites; see the module docs. `Clone` is an
/// `Arc` bump, so the shard closure and the connection threads all consult
/// the *same* hit counters.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan(Option<Arc<[Site]>>);

impl FaultPlan {
    /// The plan that never fires — the production default. Checking it
    /// costs one branch.
    pub(crate) const fn disarmed() -> FaultPlan {
        FaultPlan(None)
    }

    /// Parses the spec grammar (see the module docs). An empty or
    /// whitespace-only spec is the disarmed plan; an entry naming a site
    /// outside the site table is an error.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut sites = Vec::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (head, nth_val) = entry
                .split_once('@')
                .ok_or_else(|| format!("fault entry {entry:?} is missing '@nth'"))?;
            let (name, scope) = match head.split_once(':') {
                Some((name, scope)) => {
                    let scope =
                        scope.parse().map_err(|_| format!("bad scope in fault entry {entry:?}"))?;
                    (name, Some(scope))
                }
                None => (head, None),
            };
            if name.is_empty() {
                return Err(format!("fault entry {entry:?} has an empty site name"));
            }
            if !SITES.contains(&name) {
                return Err(format!(
                    "fault entry {entry:?} names an unknown site (known: {})",
                    SITES.join(", ")
                ));
            }
            let (nth, value) = match nth_val.split_once('x') {
                Some((nth, value)) => (
                    nth.parse().map_err(|_| format!("bad hit count in fault entry {entry:?}"))?,
                    value.parse().map_err(|_| format!("bad value in fault entry {entry:?}"))?,
                ),
                None => (
                    nth_val
                        .parse()
                        .map_err(|_| format!("bad hit count in fault entry {entry:?}"))?,
                    default_value(name),
                ),
            };
            if nth == 0 {
                return Err(format!("fault entry {entry:?}: hits are 1-based"));
            }
            sites.push(Site { name: name.to_owned(), scope, nth, value, hits: AtomicU64::new(0) });
        }
        if sites.is_empty() {
            return Ok(FaultPlan::disarmed());
        }
        Ok(FaultPlan(Some(sites.into())))
    }

    /// Reads and parses the `XSACT_FAULTS` environment variable (unset or
    /// empty = disarmed). Call once at startup — never on a request path.
    pub fn from_env() -> Result<FaultPlan, String> {
        match std::env::var("XSACT_FAULTS") {
            Ok(spec) => FaultPlan::parse(&spec),
            Err(_) => Ok(FaultPlan::disarmed()),
        }
    }

    /// Whether any site is armed.
    pub fn is_armed(&self) -> bool {
        self.0.is_some()
    }

    /// Registers one hit of `site` under `scope` and reports whether an
    /// armed entry fires on it (returning the entry's value, e.g. the
    /// sleep millis of `slow_execute`). Disarmed plans return `None`
    /// after a single branch — this is the whole hot-path cost.
    #[inline]
    pub(crate) fn should_fire(&self, site: &str, scope: usize) -> Option<u64> {
        let sites = self.0.as_ref()?; // disarmed: one branch, nothing else
        fire(sites, site, scope)
    }
}

fn fire(sites: &[Site], site: &str, scope: usize) -> Option<u64> {
    for entry in sites {
        if entry.name != site || entry.scope.is_some_and(|s| s != scope) {
            continue;
        }
        let hit = entry.hits.fetch_add(1, Ordering::Relaxed) + 1;
        if hit == entry.nth {
            return Some(entry.value);
        }
    }
    None
}

fn default_value(site: &str) -> u64 {
    match site {
        "slow_execute" => DEFAULT_SLOW_MS,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_never_fires() {
        let plan = FaultPlan::disarmed();
        assert!(!plan.is_armed());
        for _ in 0..100 {
            assert_eq!(plan.should_fire("shard_panic", 0), None);
        }
        let empty = FaultPlan::parse("  ").unwrap();
        assert!(!empty.is_armed());
    }

    #[test]
    fn fires_exactly_once_on_the_nth_hit() {
        let plan = FaultPlan::parse("shard_panic@3").unwrap();
        assert!(plan.is_armed());
        assert_eq!(plan.should_fire("shard_panic", 0), None);
        assert_eq!(plan.should_fire("shard_panic", 1), None);
        assert_eq!(plan.should_fire("shard_panic", 2), Some(0), "3rd hit fires");
        assert_eq!(plan.should_fire("shard_panic", 0), None, "each entry fires once");
    }

    #[test]
    fn scoped_entries_count_only_their_scope() {
        let plan = FaultPlan::parse("shard_panic:1@2").unwrap();
        // Scope 0 hits never advance the counter.
        for _ in 0..5 {
            assert_eq!(plan.should_fire("shard_panic", 0), None);
        }
        assert_eq!(plan.should_fire("shard_panic", 1), None);
        assert_eq!(plan.should_fire("shard_panic", 1), Some(0), "scope 1's 2nd hit");
    }

    #[test]
    fn values_and_defaults() {
        let plan = FaultPlan::parse("slow_execute@1x250").unwrap();
        assert_eq!(plan.should_fire("slow_execute", 0), Some(250));
        let plan = FaultPlan::parse("slow_execute@1").unwrap();
        assert_eq!(plan.should_fire("slow_execute", 7), Some(DEFAULT_SLOW_MS));
    }

    #[test]
    fn multiple_entries() {
        let plan = FaultPlan::parse("shard_panic:1@1, drop_connection@2").unwrap();
        assert_eq!(plan.should_fire("drop_connection", 0), None);
        assert_eq!(plan.should_fire("shard_panic", 1), Some(0));
        assert_eq!(plan.should_fire("drop_connection", 0), Some(0));
        assert_eq!(plan.should_fire("no_such_site", 0), None);
    }

    #[test]
    fn clones_share_hit_counters() {
        let plan = FaultPlan::parse("shard_panic@2").unwrap();
        let clone = plan.clone();
        assert_eq!(clone.should_fire("shard_panic", 0), None);
        assert_eq!(plan.should_fire("shard_panic", 0), Some(0), "2nd hit seen across clones");
    }

    #[test]
    fn concurrent_hits_fire_exactly_once() {
        let plan = FaultPlan::parse("shard_panic@50").unwrap();
        let fired = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        if plan.should_fire("shard_panic", 0).is_some() {
                            fired.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(fired.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn malformed_specs_are_described() {
        for (spec, needle) in [
            ("shard_panic", "missing '@nth'"),
            ("shard_panic@zero", "bad hit count"),
            ("shard_panic@0", "1-based"),
            ("shard_panic:x@1", "bad scope"),
            (":1@1", "empty site name"),
            ("slow_execute@1xfast", "bad value"),
            ("shard_pnaic@1", "unknown site (known: shard_panic, slow_execute, drop_connection)"),
            ("seed=42", "missing '@nth'"),
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.contains(needle), "{spec:?} → {err:?}");
        }
    }
}

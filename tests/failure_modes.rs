//! Failure-injection and edge-case tests: malformed inputs, degenerate
//! configurations, and boundary conditions across the stack.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use xsact::prelude::*;
use xsact::serve::{serve_tcp, END_MARKER};
use xsact_core::{compare, Algorithm, DfsConfig, ExhaustiveLimitExceeded, Instance};
use xsact_entity::{FeatureType, ResultFeatures};
use xsact_xml::XmlError;

// ------------------------------------------------------------ malformed XML

#[test]
fn malformed_xml_reports_structured_errors() {
    type Check = fn(&XmlError) -> bool;
    let cases: Vec<(&str, Check)> = vec![
        ("<a><b></a>", |e| matches!(e, XmlError::MismatchedTag { .. })),
        ("<a>", |e| matches!(e, XmlError::UnclosedElements { .. })),
        ("</a>", |e| matches!(e, XmlError::UnmatchedClose { .. })),
        ("<a/><b/>", |e| matches!(e, XmlError::MultipleRoots { .. })),
        ("", |e| matches!(e, XmlError::EmptyDocument)),
        ("<a>&broken;</a>", |e| matches!(e, XmlError::BadEntity { .. })),
        ("<a x=1/>", |e| matches!(e, XmlError::UnexpectedChar { .. })),
        ("<a x=\"1\" x=\"2\"/>", |e| matches!(e, XmlError::DuplicateAttribute { .. })),
    ];
    for (input, check) in cases {
        let err = parse_document(input).expect_err(input);
        assert!(check(&err), "{input} gave unexpected error {err}");
        // Every error renders a human-readable message.
        assert!(!err.to_string().is_empty());
    }
}

#[test]
fn engine_on_trivial_documents() {
    // A document that is only a root element.
    let engine = SearchEngine::build(parse_document("<empty/>").unwrap());
    assert!(engine.search(&Query::parse("anything")).is_empty());
    // Query matching the root only.
    let results = engine.search(&Query::parse("empty"));
    assert_eq!(results.len(), 1);
    let rf = engine.extract_features(&results[0]);
    assert_eq!(rf.type_count(), 0);
}

#[test]
fn zero_postings_term_surfaces_no_results_under_slca() {
    // Satellite: the planner short-circuits a query containing a term with
    // zero postings before any SLCA work; the facade still reports the
    // typed NoResults, and the executor counters prove nothing ran.
    let wb = figure1_like_workbench();
    let err = wb.query("tomtom zeppelin").unwrap().features().unwrap_err();
    assert!(matches!(err, XsactError::NoResults { .. }), "{err}");
    assert_eq!(wb.executor_stats(), ExecutorStats::default(), "short-circuit must cost nothing");
}

#[test]
fn a_query_of_200_distinct_terms_is_an_answer() {
    // No layer caps the number of terms: every one below occurs in both
    // products, so the query matches two results and no short circuit
    // hides the executor. The pipeline, the corpus and the server agree.
    let terms: Vec<String> = (0..200).map(|i| format!("t{i}")).collect();
    let text = terms.join(" ");
    let xml = format!(
        "<shop><product><name>{text}</name></product><product><name>{text}</name></product></shop>"
    );
    let wb = Workbench::from_xml(&xml).unwrap();
    assert_eq!(wb.query(&text).unwrap().ranking().hits.len(), 2);

    let mut corpus = Corpus::new();
    corpus.add_xml("shop", &xml).unwrap();
    let corpus = Arc::new(corpus);
    let ranking = corpus.query(&text).unwrap().ranking().clone();
    let scored = |hits: &[CorpusHit]| -> Vec<_> {
        hits.iter().map(|hit| (hit.result.clone(), hit.score.clone())).collect()
    };
    let of_wb = wb.query(&text).unwrap().ranked(true).ranking().hits.clone();
    assert_eq!(scored(&of_wb), scored(&ranking.hits));

    let server = CorpusServer::start(Arc::clone(&corpus), ServeConfig::default());
    let mut session = server.session();
    let answer = session.query(&text).unwrap();
    assert_eq!(answer.ranking.render(session.top()), ranking.render(session.top()));
    server.shutdown();
    server.join();
}

fn figure1_like_workbench() -> Workbench {
    Workbench::from_xml(
        "<shop><product><name>TomTom Go</name><kind>GPS</kind></product>\
         <product><name>Garmin</name><kind>GPS</kind></product></shop>",
    )
    .expect("well-formed fixture")
}

// ------------------------------------------------------- degenerate configs

/// The instance over raw features at bound `L` and the default threshold.
fn instance(results: &[ResultFeatures], size_bound: usize) -> Arc<Instance> {
    Arc::new(Instance::build(results, DfsConfig { size_bound, ..DfsConfig::default() }))
}

fn one_result() -> Vec<ResultFeatures> {
    vec![ResultFeatures::from_raw(
        "only",
        [("e".to_string(), 4)],
        [(FeatureType::new("e", "x"), "yes".to_string(), 3)],
    )]
}

#[test]
fn single_result_comparison_is_degenerate_but_sound() {
    let inst = instance(&one_result(), 3);
    for algo in Algorithm::ALL {
        let outcome = compare(&inst, algo).unwrap();
        assert_eq!(outcome.dod(), 0, "{}", algo.name());
        // The table still renders the result's own features.
        if algo != Algorithm::Snippet {
            assert!(outcome.table().contains("only"));
        }
    }
}

#[test]
fn zero_size_bound_yields_empty_dfss() {
    let a = ResultFeatures::from_raw(
        "a",
        [("e".to_string(), 5)],
        [(FeatureType::new("e", "x"), "yes".to_string(), 4)],
    );
    let b = ResultFeatures::from_raw(
        "b",
        [("e".to_string(), 5)],
        [(FeatureType::new("e", "x"), "yes".to_string(), 1)],
    );
    let inst = instance(&[a, b], 0);
    for algo in Algorithm::ALL {
        let outcome = compare(&inst, algo).unwrap();
        assert_eq!(outcome.dod(), 0);
        for i in 0..2 {
            assert_eq!(outcome.dfs_size(i), 0);
        }
    }
}

/// The layer function above tolerates `L = 0`; the facade does not: a
/// bound that admits only empty DFSs, and a `take(0)` that selects
/// nothing, are configuration mistakes, not comparisons that
/// "succeed" with DoD 0 or queries that "matched no results".
#[test]
fn zero_caps_are_invalid_config_through_facade_and_corpus() {
    let invalid = |err: XsactError, needle: &str| {
        assert!(matches!(err, XsactError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains(needle), "{err}");
    };
    let wb = figure1_like_workbench();
    for algo in Algorithm::ALL.into_iter().chain([Algorithm::Exhaustive { limit: 1_000 }]) {
        let err = wb.query("gps").unwrap().size_bound(0).compare(algo).unwrap_err();
        invalid(err, "size bound");
    }
    invalid(wb.query("gps").unwrap().size_bound(0).instance().unwrap_err(), "size bound");
    // The query matches two products; saying it matched nothing is false.
    assert_eq!(wb.query("gps").unwrap().ranking().hits.len(), 2);
    for ranked in [false, true] {
        let zero = wb.query("gps").unwrap().ranked(ranked).take(0);
        invalid(zero.features().unwrap_err(), "take(0)");
        invalid(zero.compare(Algorithm::MultiSwap).unwrap_err(), "take(0)");
        assert!(zero.selection().unwrap().is_empty(), "selecting nothing is not itself an error");
    }
    // An explicit selection takes precedence over `take`, as documented.
    let outcome = wb.query("gps").unwrap().take(0).select([1, 2]).compare(Algorithm::MultiSwap);
    assert_eq!(outcome.unwrap().labels().len(), 2);
    // A bound of 1 is the smallest valid one.
    assert!(wb.query("gps").unwrap().size_bound(1).compare(Algorithm::MultiSwap).is_ok());

    let corpus = Corpus::synthetic_movies(2, 24, 11);
    let query = corpus.query("drama").unwrap();
    invalid(query.clone().size_bound(0).compare(Algorithm::MultiSwap).unwrap_err(), "size bound");
    invalid(
        query.clone().threshold(f64::NAN).compare(Algorithm::Snippet).unwrap_err(),
        "threshold",
    );
    // A corpus query is the same builder, and follows the same rule.
    invalid(query.clone().take(0).compare(Algorithm::MultiSwap).unwrap_err(), "take(0)");
    assert!(query.size_bound(1).compare(Algorithm::MultiSwap).is_ok());
    // Facade, corpus and CLI share the one check.
    let zero = DfsConfig { size_bound: 0, ..DfsConfig::default() };
    invalid(xsact::validate_config(&zero).unwrap_err(), "size bound");
    assert!(xsact::validate_config(&DfsConfig::default()).is_ok());
}

#[test]
fn results_with_disjoint_types_cannot_differentiate() {
    let a = ResultFeatures::from_raw(
        "a",
        [("e".to_string(), 5)],
        [(FeatureType::new("e", "only_in_a"), "yes".to_string(), 4)],
    );
    let b = ResultFeatures::from_raw(
        "b",
        [("e".to_string(), 5)],
        [(FeatureType::new("e", "only_in_b"), "yes".to_string(), 4)],
    );
    let inst = instance(&[a, b], 5);
    for algo in Algorithm::ALL {
        let outcome = compare(&inst, algo).unwrap();
        // Absence is unknown (the paper's NULL analogy): DoD must be 0.
        assert_eq!(outcome.dod(), 0, "{}", algo.name());
    }
}

#[test]
fn results_with_no_features_at_all() {
    let empty = |label: &str| {
        ResultFeatures::from_raw(
            label,
            [("e".to_string(), 1)],
            Vec::<(FeatureType, String, u32)>::new(),
        )
    };
    let outcome = compare(&instance(&[empty("a"), empty("b")], 5), Algorithm::MultiSwap).unwrap();
    assert_eq!(outcome.dod(), 0);
    assert_eq!(outcome.dfs_size(0), 0);
}

#[test]
fn identical_results_have_zero_dod_under_every_algorithm() {
    let mk = || {
        ResultFeatures::from_raw(
            "same",
            [("e".to_string(), 10)],
            [
                (FeatureType::new("e", "x"), "yes".to_string(), 7),
                (FeatureType::new("e", "y"), "no".to_string(), 3),
            ],
        )
    };
    let inst = instance(&[mk(), mk(), mk()], 4);
    for algo in Algorithm::ALL {
        let outcome = compare(&inst, algo).unwrap();
        assert_eq!(outcome.dod(), 0, "{}", algo.name());
    }
}

/// The exhaustive oracle enumerates at most `limit` DFS combinations: at
/// exactly the instance's count it answers with the optimum, and one fewer
/// is the typed error, not a panic.
#[test]
fn the_exhaustive_limit_admits_exactly_the_combination_count() {
    let mk = |label: &str, x: u32, y: u32, z: u32| {
        ResultFeatures::from_raw(
            label,
            [("e".to_string(), 10), ("f".to_string(), 10)],
            [
                (FeatureType::new("e", "x"), "yes".to_string(), x),
                (FeatureType::new("e", "y"), "yes".to_string(), y),
                (FeatureType::new("f", "z"), "yes".to_string(), z),
            ],
        )
    };
    // At L = 2 a DFS is a prefix pair `(a ≤ 2 of e, b ≤ 1 of f, a + b ≤ 2)`:
    // five per result, 25 combinations.
    let inst = instance(&[mk("a", 9, 8, 7), mk("b", 1, 8, 2)], 2);
    let opt = compare(&inst, Algorithm::Exhaustive { limit: 25 }).unwrap();
    assert_eq!(opt.dod(), 1);
    for algo in Algorithm::ALL {
        assert!(compare(&inst, algo).unwrap().dod() <= opt.dod(), "{}", algo.name());
    }
    let err = compare(&inst, Algorithm::Exhaustive { limit: 24 }).unwrap_err();
    assert_eq!(err, ExhaustiveLimitExceeded { limit: 24 });
    let err = XsactError::from(err);
    assert!(matches!(err, XsactError::ExhaustiveLimitExceeded { limit: 24 }), "{err}");
}

#[test]
fn huge_size_bound_is_clamped_to_available_types() {
    let a = ResultFeatures::from_raw(
        "a",
        [("e".to_string(), 5)],
        [(FeatureType::new("e", "x"), "yes".to_string(), 4)],
    );
    let b = ResultFeatures::from_raw(
        "b",
        [("e".to_string(), 5)],
        [(FeatureType::new("e", "x"), "yes".to_string(), 1)],
    );
    let outcome = compare(&instance(&[a, b], 1_000_000), Algorithm::MultiSwap).unwrap();
    assert_eq!(outcome.dfs_size(0), 1);
    assert_eq!(outcome.dod(), 1);
}

#[test]
fn extreme_thresholds() {
    let a = ResultFeatures::from_raw(
        "a",
        [("e".to_string(), 10)],
        [(FeatureType::new("e", "x"), "yes".to_string(), 9)],
    );
    let b = ResultFeatures::from_raw(
        "b",
        [("e".to_string(), 10)],
        [(FeatureType::new("e", "x"), "yes".to_string(), 5)],
    );
    // x = 0: any gap differentiates.
    let at = |threshold_pct: f64| {
        let inst = Instance::build(&[&a, &b], DfsConfig { size_bound: 2, threshold_pct });
        compare(&Arc::new(inst), Algorithm::MultiSwap).unwrap()
    };
    let loose = at(0.0);
    assert_eq!(loose.dod(), 1);
    // x = 10_000: a 90% vs 50% gap (0.4) needs to exceed 100 × 0.5 → never.
    let strict = at(10_000.0);
    assert_eq!(strict.dod(), 0);
}

#[test]
fn instance_with_zero_entity_instances_is_safe() {
    // An entity path claimed with 0 instances: ratios are defined as 0.
    let a = ResultFeatures::from_raw(
        "a",
        [("e".to_string(), 0)],
        [(FeatureType::new("e", "x"), "yes".to_string(), 2)],
    );
    let b = ResultFeatures::from_raw(
        "b",
        [("e".to_string(), 10)],
        [(FeatureType::new("e", "x"), "yes".to_string(), 2)],
    );
    let inst = Instance::build(&[a, b], DfsConfig::default());
    // Ratio 0 vs 0.2 → differentiable; must not panic or divide by zero.
    assert!(inst.differentiable(0, 1, 0));
}

// ------------------------------------------------- serving failure modes

fn serve_corpus() -> Arc<Corpus> {
    Arc::new(Corpus::synthetic_movies(4, 24, 11).with_shards(2))
}

/// One line-protocol exchange: send a request, read up to the terminator.
fn tcp_exchange(
    writer: &mut TcpStream,
    responses: &mut impl Iterator<Item = std::io::Result<String>>,
    request: &str,
) -> Vec<String> {
    writer.write_all(format!("{request}\n").as_bytes()).expect("request sent");
    let mut lines = Vec::new();
    loop {
        match responses.next() {
            Some(Ok(line)) if line == END_MARKER => return lines,
            Some(Ok(line)) => lines.push(line),
            other => panic!("connection ended mid-response: {other:?}"),
        }
    }
}

/// Satellite: the serving runtime's two new failure modes are *typed* —
/// [`XsactError::Overloaded`] and [`XsactError::BudgetExceeded`] carry
/// their numbers through the facade, not stringly-typed panics.
#[test]
fn overload_and_budget_are_typed_through_the_facade() {
    // A zero-capacity queue is deterministically overloaded.
    let overloaded = CorpusServer::start(
        serve_corpus(),
        ServeConfig { queue_capacity: 0, ..ServeConfig::default() },
    );
    match overloaded.session().query("drama").unwrap_err() {
        XsactError::Overloaded { depth, capacity } => {
            assert_eq!(capacity, 0);
            assert_eq!(depth, 0);
        }
        other => panic!("expected Overloaded, got {other}"),
    }

    // Budget 1 admits exactly one matching query per session.
    let budgeted = CorpusServer::start(
        serve_corpus(),
        ServeConfig { budget: Some(1), ..ServeConfig::default() },
    );
    let mut session = budgeted.session();
    session.query("drama").expect("first query fits the budget");
    match session.query("drama").unwrap_err() {
        XsactError::BudgetExceeded { spent, budget } => {
            assert_eq!(budget, 1);
            assert!(spent >= 1, "spend reflects postings actually scanned");
        }
        other => panic!("expected BudgetExceeded, got {other}"),
    }
    // Both errors render actionable messages.
    let msg = XsactError::Overloaded { depth: 3, capacity: 3 }.to_string();
    assert!(msg.contains("overloaded") && msg.contains('3'), "{msg}");
    let msg = XsactError::BudgetExceeded { spent: 9, budget: 4 }.to_string();
    assert!(msg.contains("budget") && msg.contains('9'), "{msg}");
}

/// Satellite, other half: the same two failure modes surface over the TCP
/// line protocol as stable `ERR <CODE>` lines a scripted client can match.
#[test]
fn overload_and_budget_surface_through_the_line_protocol() {
    // Overload: zero-capacity queue behind a real socket.
    let server = CorpusServer::start(
        serve_corpus(),
        ServeConfig { queue_capacity: 0, ..ServeConfig::default() },
    );
    let handle = serve_tcp(server, "127.0.0.1:0").expect("binds");
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut responses = BufReader::new(stream).lines();
    let resp = tcp_exchange(&mut writer, &mut responses, "QUERY drama");
    assert!(resp[0].starts_with("ERR OVERLOADED "), "{resp:?}");
    let stats = tcp_exchange(&mut writer, &mut responses, "STATS");
    assert!(stats.iter().any(|l| l == "rejected_overload 1"), "{stats:?}");
    tcp_exchange(&mut writer, &mut responses, "SHUTDOWN");
    handle.wait();

    // Budget: one query succeeds, the next on the same connection is
    // rejected with the budget code (sessions are per connection).
    let server = CorpusServer::start(
        serve_corpus(),
        ServeConfig { budget: Some(1), ..ServeConfig::default() },
    );
    let handle = serve_tcp(server, "127.0.0.1:0").expect("binds");
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut responses = BufReader::new(stream).lines();
    let first = tcp_exchange(&mut writer, &mut responses, "QUERY drama");
    assert!(first[0].starts_with("OK "), "{first:?}");
    let second = tcp_exchange(&mut writer, &mut responses, "QUERY drama");
    assert!(second[0].starts_with("ERR BUDGET_EXCEEDED "), "{second:?}");
    let stats = tcp_exchange(&mut writer, &mut responses, "STATS");
    assert!(stats.iter().any(|l| l == "rejected_budget 1"), "{stats:?}");
    tcp_exchange(&mut writer, &mut responses, "SHUTDOWN");
    let snapshot = handle.wait();
    assert_eq!(snapshot.queries_served, 1);
    assert_eq!(snapshot.rejected_budget, 1);
}

/// Satellite: the robustness PR's two new failure modes are typed through
/// the facade — [`XsactError::DeadlineExceeded`] and
/// [`XsactError::ShardFailed`] carry their context and never poison the
/// server. (Their stable wire codes are pinned through the line protocol
/// by `deadline_and_shard_failure_surface_through_the_line_protocol`.)
#[test]
fn deadline_and_shard_failure_are_typed_through_the_facade() {
    use std::time::Duration;
    use xsact::serve::FaultPlan;

    // A zero deadline deterministically expires every query at dispatch.
    let expired = CorpusServer::start(
        serve_corpus(),
        ServeConfig { deadline: Some(Duration::ZERO), ..ServeConfig::default() },
    );
    match expired.session().query("drama").unwrap_err() {
        e @ XsactError::DeadlineExceeded { deadline_ms: 0, .. } => {
            assert!(e.to_string().contains("deadline exceeded"), "{e}");
        }
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
    assert_eq!(expired.stats().rejected_deadline, 1);

    // An armed shard_panic fails exactly one batch, typed, and the
    // respawned worker serves the retry.
    let faulty = CorpusServer::start(
        serve_corpus(),
        ServeConfig {
            faults: FaultPlan::parse("shard_panic@1").unwrap(),
            ..ServeConfig::default()
        },
    );
    let mut session = faulty.session();
    match session.query("drama").unwrap_err() {
        e @ XsactError::ShardFailed { .. } => {
            assert!(e.to_string().contains("retry"), "{e}");
        }
        other => panic!("expected ShardFailed, got {other}"),
    }
    session.query("drama").expect("the respawned worker serves the retry");
    let stats = faulty.stats();
    assert_eq!((stats.shard_failed, stats.shard_restarts), (1, 1));
}

/// A fault spec naming a site the runtime never consults (a typo, or a
/// site that no longer exists) is refused with the known sites named,
/// never armed as a plan that silently does nothing. `xsact serve` maps
/// the refusal to `InvalidConfig` and exits non-zero.
#[test]
fn unknown_fault_sites_are_refused() {
    use xsact::serve::FaultPlan;
    for spec in ["shard_pnaic@1", "cache_poison@1", "io_error_on_save@1"] {
        let err = FaultPlan::parse(spec).map_err(XsactError::InvalidConfig).unwrap_err();
        assert!(matches!(err, XsactError::InvalidConfig(_)), "{spec}: {err}");
        let message = err.to_string();
        assert!(message.contains("unknown site"), "{spec}: {message}");
        assert!(
            message.contains("shard_panic, slow_execute, drop_connection"),
            "{spec}: {message}"
        );
    }
}

/// Satellite, other half: the same failure modes surface over the TCP
/// line protocol as stable `ERR <CODE>` lines, and the connection (and
/// server) stay usable afterwards.
#[test]
fn deadline_and_shard_failure_surface_through_the_line_protocol() {
    use std::time::Duration;
    use xsact::serve::FaultPlan;

    // Deadline: zero budget behind a real socket.
    let server = CorpusServer::start(
        serve_corpus(),
        ServeConfig { deadline: Some(Duration::ZERO), ..ServeConfig::default() },
    );
    let handle = serve_tcp(server, "127.0.0.1:0").expect("binds");
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut responses = BufReader::new(stream).lines();
    let resp = tcp_exchange(&mut writer, &mut responses, "QUERY drama");
    assert!(resp[0].starts_with("ERR DEADLINE_EXCEEDED "), "{resp:?}");
    let stats = tcp_exchange(&mut writer, &mut responses, "STATS");
    assert!(stats.iter().any(|l| l == "rejected_deadline 1"), "{stats:?}");
    tcp_exchange(&mut writer, &mut responses, "SHUTDOWN");
    handle.wait();

    // Shard failure: the panicked batch is an ERR line, the next query on
    // the same connection succeeds, and the counters say what happened.
    let server = CorpusServer::start(
        serve_corpus(),
        ServeConfig {
            faults: FaultPlan::parse("shard_panic@1").unwrap(),
            ..ServeConfig::default()
        },
    );
    let handle = serve_tcp(server, "127.0.0.1:0").expect("binds");
    let stream = TcpStream::connect(handle.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut responses = BufReader::new(stream).lines();
    let failed = tcp_exchange(&mut writer, &mut responses, "QUERY drama");
    assert!(failed[0].starts_with("ERR SHARD_FAILED "), "{failed:?}");
    let recovered = tcp_exchange(&mut writer, &mut responses, "QUERY drama");
    assert!(recovered[0].starts_with("OK "), "{recovered:?}");
    let metrics = tcp_exchange(&mut writer, &mut responses, "METRICS");
    assert!(metrics.iter().any(|l| l == "xsact_shard_restarts 1"), "{metrics:?}");
    tcp_exchange(&mut writer, &mut responses, "SHUTDOWN");
    let snapshot = handle.wait();
    assert_eq!(snapshot.shard_failed, 1);
    assert_eq!(snapshot.shard_restarts, 1);
    assert_eq!(snapshot.queries_served, 1);
}

#[test]
fn unicode_content_flows_through_the_pipeline() {
    let xml = "<shop><product><name>Caf\u{e9} Nav \u{2603} GPS</name>\
               <reviews><review><pros><compact>\u{ff59}\u{ff45}\u{ff53}</compact></pros></review></reviews></product>\
               <product><name>Plain GPS</name>\
               <reviews><review><pros><compact>yes</compact></pros></review></reviews></product></shop>";
    let engine = SearchEngine::build(parse_document(xml).unwrap());
    let results = engine.search(&Query::parse("caf\u{e9} gps"));
    assert_eq!(results.len(), 1);
    let rf = engine.extract_features(&results[0]);
    assert!(rf.label().contains("Caf\u{e9}"));
}

//! Cross-engine edge-case tests: plan shapes and inputs the TPC-H queries do
//! not exercise. Every configuration of Table III must agree with the
//! Volcano reference on all of them — empty inputs, zero limits, duplicate
//! elimination, computed projections, and aggregates over filtered-out data.

use legobase::engine::expr::{AggKind, Expr};
use legobase::engine::plan::{AggSpec, JoinKind, Plan, QueryPlan, SortOrder};
use legobase::engine::Settings;
use legobase::storage::Value;
use legobase::{Config, LegoBase};
use std::sync::OnceLock;

fn system() -> &'static LegoBase {
    static SYSTEM: OnceLock<LegoBase> = OnceLock::new();
    SYSTEM.get_or_init(|| LegoBase::generate(0.005))
}

/// Runs a plan under every configuration and checks agreement with DBX.
fn check_all(name: &str, plan: Plan) {
    let q = QueryPlan::new(name, plan);
    let sys = system();
    let reference = sys.run_plan(&q, &Config::Dbx.settings()).result;
    for cfg in Config::ALL {
        if cfg == Config::Dbx {
            continue;
        }
        let got = sys.run_plan(&q, &cfg.settings()).result;
        assert!(
            got.approx_eq(&reference, 1e-6),
            "{name}: {cfg:?} disagrees with DBX: {:?}",
            got.diff(&reference, 1e-6)
        );
    }
}

/// A predicate no region row satisfies (r_regionkey is 0..5).
fn impossible() -> Expr {
    Expr::lt(Expr::col(0), Expr::lit(0i64))
}

#[test]
fn limit_zero_returns_nothing() {
    check_all("limit0", Plan::Limit { input: Box::new(Plan::scan("region")), n: 0 });
}

#[test]
fn limit_beyond_input_is_identity() {
    check_all("limit_large", Plan::Limit { input: Box::new(Plan::scan("region")), n: 1_000_000 });
}

#[test]
fn distinct_collapses_duplicates() {
    // nation.n_regionkey has 5 distinct values over 25 rows.
    check_all(
        "distinct_regionkeys",
        Plan::Distinct {
            input: Box::new(Plan::Project {
                input: Box::new(Plan::scan("nation")),
                exprs: vec![(Expr::col(2), "n_regionkey".into())],
            }),
        },
    );
}

#[test]
fn project_computed_expressions() {
    check_all(
        "computed_projection",
        Plan::Project {
            input: Box::new(Plan::scan("nation")),
            exprs: vec![
                (Expr::col(0), "key".into()),
                (Expr::add(Expr::mul(Expr::col(0), Expr::lit(3i64)), Expr::col(2)), "mix".into()),
                (
                    Expr::case(
                        Expr::lt(Expr::col(2), Expr::lit(2i64)),
                        Expr::lit(1i64),
                        Expr::lit(0i64),
                    ),
                    "flag".into(),
                ),
            ],
        },
    );
}

#[test]
fn select_nothing_then_global_aggregate() {
    // SQL: a global aggregate over an empty input still returns one row
    // (COUNT = 0, SUM/AVG/MIN/MAX = NULL).
    check_all(
        "empty_global_agg",
        Plan::Agg {
            input: Box::new(Plan::Select {
                input: Box::new(Plan::scan("region")),
                predicate: impossible(),
            }),
            group_by: vec![],
            aggs: vec![
                AggSpec::new(AggKind::Count, Expr::lit(1i64), "n"),
                AggSpec::new(AggKind::Sum, Expr::col(0), "s"),
                AggSpec::new(AggKind::Min, Expr::col(0), "lo"),
                AggSpec::new(AggKind::Max, Expr::col(0), "hi"),
            ],
        },
    );
}

#[test]
fn select_nothing_then_grouped_aggregate() {
    // A grouped aggregate over an empty input returns zero rows.
    check_all(
        "empty_grouped_agg",
        Plan::Agg {
            input: Box::new(Plan::Select {
                input: Box::new(Plan::scan("nation")),
                predicate: impossible(),
            }),
            group_by: vec![2],
            aggs: vec![AggSpec::new(AggKind::Count, Expr::lit(1i64), "n")],
        },
    );
}

#[test]
fn join_against_empty_side() {
    for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::Semi, JoinKind::Anti] {
        check_all(
            &format!("empty_build_{kind:?}"),
            Plan::Agg {
                input: Box::new(Plan::HashJoin {
                    left: Box::new(Plan::Select {
                        input: Box::new(Plan::scan("nation")),
                        predicate: impossible(),
                    }),
                    right: Box::new(Plan::scan("customer")),
                    left_keys: vec![0],
                    right_keys: vec![3],
                    kind,
                    residual: None,
                }),
                group_by: vec![],
                aggs: vec![AggSpec::new(AggKind::Count, Expr::lit(1i64), "n")],
            },
        );
    }
}

#[test]
fn sort_limit_composition() {
    // Top-3 nations by key, descending — exercises Sort+Limit interplay.
    check_all(
        "top3",
        Plan::Limit {
            input: Box::new(Plan::Sort {
                input: Box::new(Plan::scan("nation")),
                keys: vec![(0, SortOrder::Desc)],
            }),
            n: 3,
        },
    );
}

#[test]
fn self_join_on_region() {
    // nation ⋈ nation on regionkey: checks key packing over a small
    // duplicate-heavy domain (25×25/5 = 125 pairs).
    check_all(
        "self_join",
        Plan::Agg {
            input: Box::new(Plan::HashJoin {
                left: Box::new(Plan::scan("nation")),
                right: Box::new(Plan::scan("nation")),
                left_keys: vec![2],
                right_keys: vec![2],
                kind: JoinKind::Inner,
                residual: None,
            }),
            group_by: vec![],
            aggs: vec![AggSpec::new(AggKind::Count, Expr::lit(1i64), "n")],
        },
    );
}

#[test]
fn multi_stage_query_with_view() {
    // A Q15-style staged query: materialize per-nation customer counts, then
    // join the stage back against nation. Exercises `#stage` buffer scans
    // through every engine (the one plan shape TPC-H queries use that the
    // random generator does not).
    let stage = Plan::Agg {
        input: Box::new(Plan::scan("customer")),
        group_by: vec![3], // c_nationkey
        aggs: vec![AggSpec::new(AggKind::Count, Expr::lit(1i64), "n_customers")],
    };
    let root = Plan::Sort {
        input: Box::new(Plan::HashJoin {
            left: Box::new(Plan::scan("#counts")),
            right: Box::new(Plan::scan("nation")),
            left_keys: vec![0],
            right_keys: vec![0],
            kind: JoinKind::Inner,
            residual: None,
        }),
        keys: vec![(0, SortOrder::Asc)],
    };
    let q = QueryPlan::new("staged", root).with_stage("counts", stage);
    let sys = system();
    let reference = sys.run_plan(&q, &Config::Dbx.settings()).result;
    for cfg in Config::ALL {
        if cfg == Config::Dbx {
            continue;
        }
        let got = sys.run_plan(&q, &cfg.settings()).result;
        assert!(
            got.approx_eq(&reference, 1e-6),
            "staged: {cfg:?} disagrees with DBX: {:?}",
            got.diff(&reference, 1e-6)
        );
    }
}

#[test]
fn distinct_on_empty_input() {
    check_all(
        "distinct_empty",
        Plan::Distinct {
            input: Box::new(Plan::Select {
                input: Box::new(Plan::scan("region")),
                predicate: impossible(),
            }),
        },
    );
}

/// Runs SQL text under every configuration serially and under Opt/C at
/// degree 4; every run must return exactly the Dbx rows.
fn check_sql_exact(sql: &str) -> Vec<Vec<Value>> {
    let sys = system();
    let run = |settings: &Settings| sys.run_sql_with_settings(sql, settings).expect(sql).result;
    let reference = run(&Config::Dbx.settings());
    let parallel = Config::OptC.settings().with_parallelism(4);
    for settings in Config::ALL.iter().map(|c| c.settings()).chain([parallel]) {
        let got = run(&settings);
        assert_eq!(got.rows(), reference.rows(), "{sql}\nunder {settings:?}");
    }
    reference.rows().to_vec()
}

/// `(l_linenumber / 2) * 2` summed with integer semantics, from the
/// per-linenumber row counts (no division involved).
fn expected_even_linenumber_sum(group_filter: &str) -> i64 {
    let sys = system();
    let sql = format!(
        "SELECT l_linenumber, count(*) AS n FROM lineitem {group_filter} GROUP BY l_linenumber"
    );
    let counts = sys.run_sql(&sql, Config::Dbx).expect("count query").result;
    counts.rows().iter().map(|r| r[0].as_int() / 2 * 2 * r[1].as_int()).sum()
}

#[test]
fn integer_division_truncates_in_every_engine() {
    // Int/Int division truncates; an f64 quotient would sum every
    // linenumber unchanged.
    let rows = check_sql_exact("SELECT sum(l_linenumber / 2 * 2) AS s FROM lineitem");
    assert_eq!(rows, vec![vec![Value::Int(expected_even_linenumber_sum(""))]]);
}

#[test]
fn integer_division_by_zero_is_null_in_every_engine() {
    // Every quotient is NULL, so SUM sees no input at all: NULL, not a
    // panic and not the sum of ±inf/NaN casts.
    let rows = check_sql_exact(
        "SELECT sum(l_orderkey / (l_linenumber - l_linenumber)) AS s FROM lineitem",
    );
    assert_eq!(rows, vec![vec![Value::Null]]);
}

#[test]
fn grouped_integer_arithmetic_agrees_across_engines() {
    let rows = check_sql_exact(
        "SELECT l_returnflag, sum(l_linenumber / 2 * 2) AS s, \
         count(l_orderkey / (l_linenumber - l_linenumber)) AS nq, count(*) AS n \
         FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag",
    );
    assert!(!rows.is_empty());
    for row in &rows {
        let flag = row[0].as_str();
        let want = expected_even_linenumber_sum(&format!("WHERE l_returnflag = '{flag}'"));
        assert_eq!(row[1], Value::Int(want), "sum for flag {flag}");
        // COUNT(expr) skips the NULL quotients.
        assert_eq!(row[2], Value::Int(0), "count for flag {flag}");
        assert!(row[3].as_int() > 0);
    }
}

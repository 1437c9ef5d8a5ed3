//! Domain-truth assertions per TPC-H query: beyond cross-engine agreement,
//! each query's result must satisfy invariants that follow from the data
//! generator's guarantees and the query's semantics. These catch classes of
//! bugs that engine-vs-engine comparison cannot (e.g. all engines sharing a
//! mistranslated plan).

use legobase::storage::Value;
use legobase::{Config, LegoBase};
use std::sync::OnceLock;

fn system() -> &'static LegoBase {
    static SYSTEM: OnceLock<LegoBase> = OnceLock::new();
    SYSTEM.get_or_init(|| LegoBase::generate(0.01))
}

fn run(n: usize) -> legobase::ResultTable {
    system().run(n, Config::OptC).result
}

#[test]
fn q1_groups_and_monotone_sums() {
    let r = run(1);
    // returnflag ∈ {A,N,R} × linestatus ∈ {F,O}, and (N,F)/(A,O)/(R,O) are
    // impossible by the generator's CURRENTDATE rules except (N,O)+(N,F):
    // receipt ≤ horizon ⇒ flag ∈ {A,R}; ship > horizon ⇒ status O.
    assert!(r.len() <= 6 && r.len() >= 3, "Q1 groups: {}", r.len());
    for row in r.rows() {
        let qty = row[2].as_float();
        let base = row[3].as_float();
        let disc = row[4].as_float();
        let charge = row[5].as_float();
        let count = row[9].as_int();
        assert!(qty > 0.0 && count > 0);
        // sum_disc_price ≤ sum_base_price ≤ sum_charge upper bound ordering.
        assert!(disc <= base * 1.0001, "discounted ≤ base");
        assert!(charge >= disc, "charge includes tax ≥ discounted");
        // avg_qty = sum_qty / count.
        let avg_qty = row[6].as_float();
        assert!((avg_qty - qty / count as f64).abs() < 1e-6);
    }
}

#[test]
fn q3_topk_is_sorted_and_unique_orders() {
    let r = run(3);
    assert!(r.len() <= 10);
    let mut seen = std::collections::HashSet::new();
    let mut prev = f64::INFINITY;
    for row in r.rows() {
        assert!(seen.insert(row[0].as_int()), "duplicate orderkey");
        let rev = row[1].as_float();
        assert!(rev <= prev + 1e-9, "revenue not descending");
        prev = rev;
    }
}

#[test]
fn q4_priorities_are_the_official_five() {
    let r = run(4);
    assert!(r.len() <= 5);
    for row in r.rows() {
        let p = row[0].as_str();
        assert!(
            ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"].contains(&p),
            "unexpected priority {p}"
        );
        assert!(row[1].as_int() > 0);
    }
    // Output is sorted by priority.
    let names: Vec<&str> = r.rows().iter().map(|r| r[0].as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted);
}

#[test]
fn q5_nations_belong_to_asia() {
    let r = run(5);
    let asia = ["INDIA", "INDONESIA", "JAPAN", "CHINA", "VIETNAM"];
    for row in r.rows() {
        assert!(asia.contains(&row[0].as_str()), "{} is not Asian", row[0]);
        assert!(row[1].as_float() > 0.0);
    }
}

#[test]
fn q6_matches_manual_computation() {
    // Recompute Q6 directly over the raw data.
    let data = &system().data;
    let li = data.table("lineitem");
    let (sd, d, q, ep) = (
        li.by_name("l_shipdate").as_date(),
        li.by_name("l_discount").as_f64(),
        li.by_name("l_quantity").as_f64(),
        li.by_name("l_extendedprice").as_f64(),
    );
    let lo = legobase::storage::Date::from_ymd(1994, 1, 1).0;
    let hi = legobase::storage::Date::from_ymd(1995, 1, 1).0;
    let mut expected = 0.0;
    for r in 0..li.len {
        let (ship, disc) = (sd[r], d[r]);
        if ship >= lo && ship < hi && (0.05..=0.07).contains(&disc) && q[r] < 24.0 {
            expected += ep[r] * disc;
        }
    }
    let r = run(6);
    assert_eq!(r.len(), 1);
    let got = r.rows()[0][0].as_float();
    assert!((got - expected).abs() <= 1e-6 * expected.abs().max(1.0), "{got} vs {expected}");
}

#[test]
fn q7_nation_pairs_and_years() {
    let r = run(7);
    for row in r.rows() {
        let (a, b) = (row[0].as_str(), row[1].as_str());
        assert!(
            (a == "FRANCE" && b == "GERMANY") || (a == "GERMANY" && b == "FRANCE"),
            "unexpected pair {a}/{b}"
        );
        let year = row[2].as_int();
        assert!((1995..=1996).contains(&year), "year {year} outside range");
    }
}

#[test]
fn q8_market_share_is_a_fraction() {
    for row in run(8).rows() {
        let share = row[1].as_float();
        assert!((0.0..=1.0).contains(&share), "market share {share} outside [0,1]");
        assert!((1995..=1996).contains(&row[0].as_int()));
    }
}

#[test]
fn q10_topk_customers_revenue_descending() {
    let r = run(10);
    assert!(r.len() <= 20);
    let mut prev = f64::INFINITY;
    for row in r.rows() {
        let rev = row[7].as_float();
        assert!(rev <= prev + 1e-9);
        prev = rev;
    }
}

#[test]
fn q11_values_exceed_global_threshold() {
    let r = run(11);
    // Recompute the German stock total to validate the HAVING threshold.
    let data = &system().data;
    let nation = data.table("nation");
    let at = nation.column(1).as_str().iter().position(|n| n == "GERMANY");
    let germany = nation.column(0).as_i64()[at.expect("GERMANY exists")];
    let supplier = data.table("supplier");
    let (s_key, s_nation) = (supplier.column(0).as_i64(), supplier.column(3).as_i64());
    let german_suppliers: std::collections::HashSet<i64> =
        (0..supplier.len).filter(|&r| s_nation[r] == germany).map(|r| s_key[r]).collect();
    let ps = data.table("partsupp");
    let (supp, avail, cost) = (ps.column(1).as_i64(), ps.column(2).as_i64(), ps.column(3).as_f64());
    let mut total = 0.0;
    for r in 0..ps.len {
        if german_suppliers.contains(&supp[r]) {
            total += cost[r] * avail[r] as f64;
        }
    }
    let threshold = total * 0.0001;
    let mut prev = f64::INFINITY;
    for row in r.rows() {
        let value = row[1].as_float();
        assert!(value > threshold * 0.999, "{value} below threshold {threshold}");
        assert!(value <= prev + 1e-9, "not sorted descending");
        prev = value;
    }
}

#[test]
fn q12_line_counts_partition_the_join() {
    let r = run(12);
    assert!(r.len() <= 2, "only MAIL and SHIP qualify");
    for row in r.rows() {
        assert!(["MAIL", "SHIP"].contains(&row[0].as_str()));
        assert!(row[1].as_int() >= 0 && row[2].as_int() >= 0);
        assert!(row[1].as_int() + row[2].as_int() > 0);
    }
}

#[test]
fn q13_distribution_covers_all_customers() {
    let r = run(13);
    // Σ custdist = number of customers (every customer lands in exactly one
    // c_count bucket thanks to the left outer join).
    let total: i64 = r.rows().iter().map(|row| row[1].as_int()).sum();
    assert_eq!(total, system().data.table("customer").len as i64);
    // A zero-orders bucket must exist (custkey % 3 == 0 never orders).
    assert!(r.rows().iter().any(|row| row[0].as_int() == 0));
}

#[test]
fn q14_promo_revenue_is_a_percentage() {
    let r = run(14);
    assert_eq!(r.len(), 1);
    let pct = r.rows()[0][0].as_float();
    assert!((0.0..=100.0).contains(&pct), "promo percentage {pct}");
}

#[test]
fn q15_winner_has_the_max_revenue() {
    let r = run(15);
    assert!(!r.is_empty(), "someone must win");
    let winner_rev = r.rows()[0][4].as_float();
    for row in r.rows() {
        assert!((row[4].as_float() - winner_rev).abs() < 1e-9, "ties must share the max");
    }
}

#[test]
fn q16_sizes_come_from_the_in_list() {
    let allowed = [49i64, 14, 23, 45, 19, 3, 36, 9];
    for row in run(16).rows() {
        assert!(allowed.contains(&row[2].as_int()));
        assert_ne!(row[0].as_str(), "Brand#45");
        assert!(!row[1].as_str().starts_with("MEDIUM POLISHED"));
        assert!(row[3].as_int() >= 1);
    }
}

#[test]
fn q21_output_sorted_and_saudi_only() {
    let r = run(21);
    assert!(r.len() <= 100);
    let mut prev = i64::MAX;
    for row in r.rows() {
        assert!(row[0].as_str().starts_with("Supplier#"));
        let n = row[1].as_int();
        assert!(n <= prev, "numwait not descending");
        prev = n;
    }
}

#[test]
fn q22_country_codes_from_the_list() {
    let allowed = ["13", "31", "23", "29", "30", "18", "17"];
    for row in run(22).rows() {
        assert!(allowed.contains(&row[0].as_str()), "code {}", row[0]);
        assert!(row[1].as_int() > 0);
        // Positive balances only (filtered above the average, which is > 0).
        assert!(row[2].as_float() > 0.0);
    }
}

#[test]
fn q18_only_large_orders() {
    // Every reported order's lineitem quantity sum must exceed 300.
    for row in run(18).rows() {
        assert!(row[5].as_float() > 300.0, "sum_qty {} ≤ 300", row[5]);
    }
}

#[test]
fn q20_q2_outputs_well_formed() {
    for row in run(20).rows() {
        assert!(row[0].as_str().starts_with("Supplier#"));
    }
    let q2 = run(2);
    assert!(q2.len() <= 100);
    for row in q2.rows() {
        assert!(matches!(row[3], Value::Int(_)));
    }
}

#[test]
fn q9_and_q17_shapes() {
    for row in run(9).rows() {
        let year = row[1].as_int();
        assert!((1992..=1998).contains(&year));
    }
    let q17 = run(17);
    assert_eq!(q17.len(), 1); // global aggregate (possibly NULL at this SF)
}

#[test]
fn q19_revenue_nonnegative() {
    let r = run(19);
    assert_eq!(r.len(), 1);
    if let Value::Float(rev) = r.rows()[0][0] {
        assert!(rev >= 0.0);
    }
}

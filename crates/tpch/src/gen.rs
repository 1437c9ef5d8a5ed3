//! The deterministic `dbgen` substitute.

use crate::schema::catalog;
use crate::text;
use legobase_storage::{
    Catalog, Column, ColumnTable, Date, PackedInts, RowTable, TableStatistics, Tuple, Value,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// `dbgen`'s CURRENTDATE constant (Clause 4.2.2.12), used for return flags
/// and line statuses.
pub fn current_date() -> Date {
    Date::from_ymd(1995, 6, 17)
}

/// First and last order dates (orders stop 151 days before the data horizon
/// so every lineitem date fits inside 1992-01-01 … 1998-12-31).
pub fn order_date_range() -> (Date, Date) {
    (Date::from_ymd(1992, 1, 1), Date::from_ymd(1998, 12, 31).add_days(-151))
}

/// Generator configuration.
#[derive(Clone, Copy, Debug)]
pub struct TpchGenerator {
    /// TPC-H scale factor. SF 1 ≈ 6 M lineitems; tests use 0.002–0.01,
    /// benchmarks 0.05–0.2.
    pub scale_factor: f64,
    /// RNG seed (same seed ⇒ identical database).
    pub seed: u64,
}

impl Default for TpchGenerator {
    fn default() -> Self {
        TpchGenerator { scale_factor: 0.01, seed: 0x5EED_1E60 }
    }
}

/// The generated database: catalog plus one column table per relation.
///
/// The columns are the one stored form of base data: full-width plain
/// `I64`/`F64`/`Date`/`Str`/`Bool` vectors behind `Arc`, which every
/// specialized load shares instead of copying.
pub struct TpchData {
    /// Schema catalog for the generated tables.
    pub catalog: Catalog,
    /// Scale factor the data was generated at.
    pub scale_factor: f64,
    tables: HashMap<String, ColumnTable>,
    /// Archive-mapped packed payloads per `(table, column)` (PR 10): when a
    /// v3 archive is loaded through `mmap`, its bit-packed Int/Date columns
    /// are carried here as zero-copy [`PackedInts`] borrowing the page
    /// cache, and the specialized loader substitutes them instead of
    /// re-packing the same values. Empty for generated databases and
    /// read-decoded archives.
    mapped: HashMap<(String, usize), Arc<PackedInts>>,
}

impl TpchData {
    /// Generates the full database at the given scale factor with the default
    /// seed.
    pub fn generate(scale_factor: f64) -> TpchData {
        TpchGenerator { scale_factor, ..Default::default() }.generate()
    }

    /// Reassembles a database from its parts (the archive reader's
    /// constructor).
    pub(crate) fn from_parts(
        catalog: Catalog,
        scale_factor: f64,
        tables: HashMap<String, ColumnTable>,
        mapped: HashMap<(String, usize), Arc<PackedInts>>,
    ) -> TpchData {
        TpchData { catalog, scale_factor, tables, mapped }
    }

    /// The archive-mapped packed payload for `(table, column)`, when this
    /// database was loaded zero-copy from a v3 archive.
    pub fn mapped_packed(&self, table: &str, column: usize) -> Option<&Arc<PackedInts>> {
        self.mapped.get(&(table.to_string(), column))
    }

    /// Total bytes served from the mapped archive (page-cache borrowed, not
    /// resident copies). Zero unless loaded via `mmap`.
    pub fn mapped_bytes(&self) -> usize {
        self.mapped.values().map(|p| p.mapped_bytes()).sum()
    }

    /// A generated relation by name (panics if absent).
    pub fn table(&self, name: &str) -> &ColumnTable {
        self.tables.get(name).unwrap_or_else(|| panic!("unknown table `{name}`"))
    }

    /// All generated relations.
    pub fn tables(&self) -> impl Iterator<Item = (&str, &ColumnTable)> {
        self.tables.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Approximate footprint of the data in the row layout, in bytes (the
    /// "input data size" baseline of Fig. 20): one tuple header per row, one
    /// `Value` slot per cell, plus the string bytes — what
    /// [`RowTable::approx_bytes`] reports for the same rows, computed from
    /// the columns without building them.
    pub fn approx_bytes(&self) -> usize {
        let row = std::mem::size_of::<Tuple>();
        let cell = std::mem::size_of::<Value>();
        let table_bytes = |t: &ColumnTable| {
            let strings: usize = t
                .columns
                .iter()
                .map(|c| match c {
                    Column::Str(v) => v.iter().map(String::len).sum(),
                    _ => 0,
                })
                .sum();
            t.len * (row + t.columns.len() * cell) + strings
        };
        self.tables.values().map(table_bytes).sum()
    }
}

/// Spec formula for `P_RETAILPRICE` (also reused for `L_EXTENDEDPRICE`).
fn retail_price(partkey: i64) -> f64 {
    (90000 + (partkey / 10) % 20001 + 100 * (partkey % 1000)) as f64 / 100.0
}

/// The sparse order-key sequence: 8 keys in every 32-key window.
fn order_key(i: usize) -> i64 {
    ((i / 8) * 32 + i % 8) as i64 + 1
}

impl TpchGenerator {
    fn counts(&self) -> (usize, usize, usize, usize) {
        // A non-finite or negative scale factor casts to 0 rows; the floors
        // keep every relation non-empty so the spec formulas (which divide
        // by supplier/part counts) stay well-defined. The row generators
        // below additionally guard the zero-count case so they stay total
        // even if called directly with degenerate sizes.
        let sf = self.scale_factor;
        let supplier = ((10_000.0 * sf) as usize).max(10);
        let part = ((200_000.0 * sf) as usize).max(200);
        let customer = ((150_000.0 * sf) as usize).max(150);
        let orders = ((1_500_000.0 * sf) as usize).max(1_500);
        (supplier, part, customer, orders)
    }

    fn rng(&self, stream: u64) -> SmallRng {
        SmallRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(stream))
    }

    /// Runs the generator, attaching optimizer statistics — collected in one
    /// pass per relation — to the catalog (`Catalog::stats`). Each relation
    /// is generated as rows, converted to columns once, and its rows dropped.
    pub fn generate(&self) -> TpchData {
        let mut cat = catalog();
        let (n_supp, n_part, n_cust, n_orders) = self.counts();
        let mut tables = HashMap::new();
        let mut store = |cat: &mut Catalog, name: &str, rows: RowTable| {
            cat.set_stats(name, TableStatistics::collect(&rows));
            tables.insert(name.to_string(), ColumnTable::from_rows(&rows));
        };
        let region = self.gen_region(&cat);
        store(&mut cat, "region", region);
        let nation = self.gen_nation(&cat);
        store(&mut cat, "nation", nation);
        let supplier = self.gen_supplier(&cat, n_supp);
        store(&mut cat, "supplier", supplier);
        let customer = self.gen_customer(&cat, n_cust);
        store(&mut cat, "customer", customer);
        let part = self.gen_part(&cat, n_part);
        store(&mut cat, "part", part);
        let partsupp = self.gen_partsupp(&cat, n_part, n_supp);
        store(&mut cat, "partsupp", partsupp);
        let (orders, lineitem) = self.gen_orders_lineitem(&cat, n_orders, n_cust, n_part, n_supp);
        store(&mut cat, "orders", orders);
        store(&mut cat, "lineitem", lineitem);
        TpchData { catalog: cat, scale_factor: self.scale_factor, tables, mapped: HashMap::new() }
    }

    fn gen_region(&self, cat: &Catalog) -> RowTable {
        let mut rng = self.rng(1);
        let mut t = RowTable::with_capacity(cat.table("region").schema.clone(), 5);
        for (k, name) in text::REGIONS.iter().enumerate() {
            t.push(vec![
                Value::Int(k as i64),
                Value::from(*name),
                Value::from(text::comment(&mut rng, 3, 8, 0.0)),
            ]);
        }
        t
    }

    fn gen_nation(&self, cat: &Catalog) -> RowTable {
        let mut rng = self.rng(2);
        let mut t = RowTable::with_capacity(cat.table("nation").schema.clone(), 25);
        for (k, (name, region)) in text::NATIONS.iter().enumerate() {
            t.push(vec![
                Value::Int(k as i64),
                Value::from(*name),
                Value::Int(*region),
                Value::from(text::comment(&mut rng, 3, 8, 0.0)),
            ]);
        }
        t
    }

    fn gen_supplier(&self, cat: &Catalog, n: usize) -> RowTable {
        let mut rng = self.rng(3);
        let mut t = RowTable::with_capacity(cat.table("supplier").schema.clone(), n);
        for i in 1..=n as i64 {
            let nation = rng.gen_range(0..25i64);
            t.push(vec![
                Value::Int(i),
                Value::from(format!("Supplier#{i:09}")),
                Value::from(text::comment(&mut rng, 2, 4, 0.0)),
                Value::Int(nation),
                Value::from(text::phone(&mut rng, nation)),
                Value::Float((rng.gen_range(-99999..=999999) as f64) / 100.0),
                // ~0.5% of suppliers have complaint comments (Q16).
                Value::from(text::supplier_comment(&mut rng, 0.005)),
            ]);
        }
        t
    }

    fn gen_customer(&self, cat: &Catalog, n: usize) -> RowTable {
        let mut rng = self.rng(4);
        let mut t = RowTable::with_capacity(cat.table("customer").schema.clone(), n);
        for i in 1..=n as i64 {
            let nation = rng.gen_range(0..25i64);
            t.push(vec![
                Value::Int(i),
                Value::from(format!("Customer#{i:09}")),
                Value::from(text::comment(&mut rng, 2, 4, 0.0)),
                Value::Int(nation),
                Value::from(text::phone(&mut rng, nation)),
                Value::Float((rng.gen_range(-99999..=999999) as f64) / 100.0),
                Value::from(text::SEGMENTS[rng.gen_range(0..5usize)]),
                Value::from(text::comment(&mut rng, 6, 12, 0.0)),
            ]);
        }
        t
    }

    fn gen_part(&self, cat: &Catalog, n: usize) -> RowTable {
        let mut rng = self.rng(5);
        let mut t = RowTable::with_capacity(cat.table("part").schema.clone(), n);
        for i in 1..=n as i64 {
            let mfgr = rng.gen_range(1..=5);
            let brand = mfgr * 10 + rng.gen_range(1..=5);
            t.push(vec![
                Value::Int(i),
                Value::from(text::part_name(&mut rng)),
                Value::from(format!("Manufacturer#{mfgr}")),
                Value::from(format!("Brand#{brand}")),
                Value::from(text::part_type(&mut rng)),
                Value::Int(rng.gen_range(1..=50)),
                Value::from(text::container(&mut rng)),
                Value::Float(retail_price(i)),
                Value::from(text::comment(&mut rng, 2, 5, 0.0)),
            ]);
        }
        t
    }

    fn gen_partsupp(&self, cat: &Catalog, n_part: usize, n_supp: usize) -> RowTable {
        let mut rng = self.rng(6);
        let mut t = RowTable::with_capacity(cat.table("partsupp").schema.clone(), n_part * 4);
        if n_part == 0 || n_supp == 0 {
            // No parts or no suppliers ⇒ no part-supplier pairs (and the
            // spec's suppkey formula below would divide by zero).
            return t;
        }
        let s = n_supp as i64;
        for pk in 1..=n_part as i64 {
            for j in 0..4i64 {
                // Spec formula: guarantees distinct (partkey, suppkey) pairs.
                let suppkey = (pk + j * (s / 4 + (pk - 1) / s)) % s + 1;
                t.push(vec![
                    Value::Int(pk),
                    Value::Int(suppkey),
                    Value::Int(rng.gen_range(1..=9999)),
                    Value::Float((rng.gen_range(100..=100_000) as f64) / 100.0),
                    Value::from(text::comment(&mut rng, 4, 10, 0.0)),
                ]);
            }
        }
        t
    }

    fn gen_orders_lineitem(
        &self,
        cat: &Catalog,
        n_orders: usize,
        n_cust: usize,
        n_part: usize,
        n_supp: usize,
    ) -> (RowTable, RowTable) {
        let mut rng = self.rng(7);
        let mut orders = RowTable::with_capacity(cat.table("orders").schema.clone(), n_orders);
        let mut lineitem =
            RowTable::with_capacity(cat.table("lineitem").schema.clone(), n_orders * 4);
        let (start, end) = order_date_range();
        let horizon = current_date();
        let n_clerks = ((n_orders / 1_000).max(10)) as i64;

        if n_cust == 0 || n_part == 0 || n_supp == 0 {
            // Orders reference customers, lineitems reference parts and
            // suppliers; with any of those relations empty there is nothing
            // referential-integrity-preserving to generate. Without this
            // guard the custkey draw below panics on an empty `1..=0` range
            // (the "empty table at SF ≈ 0" failure mode).
            return (orders, lineitem);
        }
        for i in 0..n_orders {
            let okey = order_key(i);
            // Only two thirds of customers have orders (custkey % 3 != 0).
            let custkey = loop {
                let c = rng.gen_range(1..=n_cust as i64);
                if c % 3 != 0 {
                    break c;
                }
            };
            let odate = start.add_days(rng.gen_range(0..=(end.0 - start.0)));
            let nlines = rng.gen_range(1..=7usize);
            let mut total = 0.0f64;
            let mut n_open = 0usize;
            for line in 1..=nlines as i64 {
                let partkey = rng.gen_range(1..=n_part as i64);
                let suppkey = rng.gen_range(1..=n_supp as i64);
                let quantity = rng.gen_range(1..=50i64) as f64;
                let extended = quantity * retail_price(partkey);
                let discount = rng.gen_range(0..=10) as f64 / 100.0;
                let tax = rng.gen_range(0..=8) as f64 / 100.0;
                let shipdate = odate.add_days(rng.gen_range(1..=121));
                let commitdate = odate.add_days(rng.gen_range(30..=90));
                let receiptdate = shipdate.add_days(rng.gen_range(1..=30));
                let returnflag = if receiptdate <= horizon {
                    if rng.gen_bool(0.5) {
                        "R"
                    } else {
                        "A"
                    }
                } else {
                    "N"
                };
                let linestatus = if shipdate > horizon { "O" } else { "F" };
                if linestatus == "O" {
                    n_open += 1;
                }
                total += extended * (1.0 + tax) * (1.0 - discount);
                lineitem.push(vec![
                    Value::Int(okey),
                    Value::Int(partkey),
                    Value::Int(suppkey),
                    Value::Int(line),
                    Value::Float(quantity),
                    Value::Float(extended),
                    Value::Float(discount),
                    Value::Float(tax),
                    Value::from(returnflag),
                    Value::from(linestatus),
                    Value::Date(shipdate),
                    Value::Date(commitdate),
                    Value::Date(receiptdate),
                    Value::from(text::INSTRUCTIONS[rng.gen_range(0..4usize)]),
                    Value::from(text::SHIP_MODES[rng.gen_range(0..7usize)]),
                    Value::from(text::comment(&mut rng, 3, 7, 0.0)),
                ]);
            }
            let status = if n_open == nlines {
                "O"
            } else if n_open == 0 {
                "F"
            } else {
                "P"
            };
            orders.push(vec![
                Value::Int(okey),
                Value::Int(custkey),
                Value::from(status),
                Value::Float(total),
                Value::Date(odate),
                Value::from(text::ORDER_PRIORITIES[rng.gen_range(0..5usize)]),
                Value::from(format!("Clerk#{:09}", rng.gen_range(1..=n_clerks))),
                Value::Int(0),
                // ~2% of order comments carry the Q13 pattern.
                Value::from(text::comment(&mut rng, 6, 14, 0.02)),
            ]);
        }
        (orders, lineitem)
    }
}

/// True when two base tables hold the same values bit for bit (floats
/// compared by `to_bits`, so `-0.0` and NaN payloads count).
#[cfg(test)]
pub(crate) fn bit_identical(a: &ColumnTable, b: &ColumnTable) -> bool {
    a.schema == b.schema
        && a.len == b.len
        && a.columns.iter().zip(&b.columns).all(|pair| match pair {
            (Column::I64(x), Column::I64(y)) => x == y,
            (Column::F64(x), Column::F64(y)) => {
                x.iter().map(|f| f.to_bits()).eq(y.iter().map(|f| f.to_bits()))
            }
            (Column::Date(x), Column::Date(y)) => x == y,
            (Column::Str(x), Column::Str(y)) => x == y,
            (Column::Bool(x), Column::Bool(y)) => x == y,
            _ => false,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small() -> TpchData {
        TpchData::generate(0.002)
    }

    #[test]
    fn row_counts_scale() {
        let d = small();
        assert_eq!(d.table("region").len, 5);
        assert_eq!(d.table("nation").len, 25);
        assert_eq!(d.table("supplier").len, 20);
        assert_eq!(d.table("customer").len, 300);
        assert_eq!(d.table("part").len, 400);
        assert_eq!(d.table("partsupp").len, 1600);
        assert_eq!(d.table("orders").len, 3000);
        let lpo = d.table("lineitem").len as f64 / d.table("orders").len as f64;
        assert!((3.0..5.0).contains(&lpo), "≈4 lineitems per order, got {lpo}");
    }

    #[test]
    fn deterministic() {
        let a = TpchGenerator { scale_factor: 0.002, seed: 7 }.generate();
        let b = TpchGenerator { scale_factor: 0.002, seed: 7 }.generate();
        assert!(bit_identical(a.table("lineitem"), b.table("lineitem")));
        let c = TpchGenerator { scale_factor: 0.002, seed: 8 }.generate();
        assert!(!bit_identical(a.table("lineitem"), c.table("lineitem")));
    }

    /// Every base column is full-width and plain: no dictionaries, no
    /// packing, nothing removed.
    #[test]
    fn base_columns_are_plain_and_full_width() {
        let d = small();
        for (name, t) in d.tables() {
            assert_eq!(t.columns.len(), t.schema.len(), "{name}");
            for (c, col) in t.columns.iter().enumerate() {
                let plain = matches!(
                    col,
                    Column::I64(_)
                        | Column::F64(_)
                        | Column::Date(_)
                        | Column::Str(_)
                        | Column::Bool(_)
                );
                assert!(plain, "{name} column {c} is {}", col.kind_name());
                assert_eq!(col.len(), t.len, "{name} column {c}");
            }
        }
    }

    #[test]
    fn referential_integrity() {
        let d = small();
        for (name, fk_checks) in [
            ("lineitem", vec![("l_orderkey", "orders", "o_orderkey")]),
            ("orders", vec![("o_custkey", "customer", "c_custkey")]),
            (
                "partsupp",
                vec![("ps_partkey", "part", "p_partkey"), ("ps_suppkey", "supplier", "s_suppkey")],
            ),
            ("nation", vec![("n_regionkey", "region", "r_regionkey")]),
        ] {
            let t = d.table(name);
            for (col, ref_table, ref_col) in fk_checks {
                let keys: HashSet<i64> =
                    d.table(ref_table).by_name(ref_col).as_i64().iter().copied().collect();
                for &k in t.by_name(col).as_i64() {
                    assert!(keys.contains(&k), "{name}.{col} dangling key {k}");
                }
            }
        }
    }

    #[test]
    fn order_keys_sparse_and_unique() {
        let d = small();
        let keys = d.table("orders").column(0).as_i64();
        let distinct: HashSet<i64> = keys.iter().copied().collect();
        assert_eq!(distinct.len(), keys.len());
        // Sparse: the max key is about 4x the row count. Guard the empty
        // case explicitly so a row-count regression fails with a diagnosis
        // instead of a bare `max().unwrap()` panic.
        let Some(&max) = keys.iter().max() else {
            panic!("orders generated empty at SF 0.002");
        };
        assert!(max > 3 * keys.len() as i64, "orderkeys should be sparse");
    }

    /// SF ≈ 0 regression: degenerate scale factors (zero, negative, NaN —
    /// all of which cast to 0 proportional rows) must still produce a valid,
    /// non-panicking database at the documented floor sizes.
    #[test]
    fn sf_zero_generates_floor_sizes_without_panicking() {
        for sf in [0.0, -1.0, f64::NAN] {
            let d = TpchData::generate(sf);
            assert_eq!(d.table("supplier").len, 10, "sf {sf}");
            assert_eq!(d.table("part").len, 200, "sf {sf}");
            assert_eq!(d.table("customer").len, 150, "sf {sf}");
            assert_eq!(d.table("orders").len, 1_500, "sf {sf}");
            assert!(d.table("lineitem").len > 0, "sf {sf}");
            assert!(d.approx_bytes() > 0);
        }
    }

    /// The row generators themselves must be total on zero counts: empty
    /// referenced relations yield empty referencing relations instead of a
    /// panic (`gen_range(1..=0)`) or a division by zero in the spec
    /// formulas.
    #[test]
    fn zero_counts_yield_empty_tables() {
        let g = TpchGenerator { scale_factor: 0.0, seed: 7 };
        let cat = catalog();
        assert_eq!(g.gen_partsupp(&cat, 0, 10).len(), 0);
        assert_eq!(g.gen_partsupp(&cat, 10, 0).len(), 0);
        let (orders, lineitem) = g.gen_orders_lineitem(&cat, 100, 0, 10, 10);
        assert_eq!((orders.len(), lineitem.len()), (0, 0));
        let (orders, lineitem) = g.gen_orders_lineitem(&cat, 100, 10, 0, 10);
        assert_eq!((orders.len(), lineitem.len()), (0, 0));
        let (orders, lineitem) = g.gen_orders_lineitem(&cat, 100, 10, 10, 0);
        assert_eq!((orders.len(), lineitem.len()), (0, 0));
        // Zero orders with everything else present is simply empty output.
        let (orders, lineitem) = g.gen_orders_lineitem(&cat, 0, 10, 10, 10);
        assert_eq!((orders.len(), lineitem.len()), (0, 0));
        assert_eq!(g.gen_supplier(&cat, 0).len(), 0);
        assert_eq!(g.gen_customer(&cat, 0).len(), 0);
        assert_eq!(g.gen_part(&cat, 0).len(), 0);
    }

    #[test]
    fn composite_lineitem_pk_unique() {
        let d = small();
        let t = d.table("lineitem");
        let mut seen = HashSet::new();
        for (&okey, &line) in t.column(0).as_i64().iter().zip(t.column(3).as_i64()) {
            assert!(seen.insert((okey, line)));
        }
    }

    #[test]
    fn date_invariants() {
        let d = small();
        let t = d.table("lineitem");
        let (lo, _) = order_date_range();
        let hi = Date::from_ymd(1998, 12, 31);
        let (s, c, r) = (
            t.by_name("l_shipdate").as_date(),
            t.by_name("l_commitdate").as_date(),
            t.by_name("l_receiptdate").as_date(),
        );
        for i in 0..t.len {
            let (ship, commit, receipt) = (Date(s[i]), Date(c[i]), Date(r[i]));
            assert!(ship >= lo && receipt <= hi, "dates within horizon");
            assert!(receipt > ship, "receipt after ship");
            assert!(commit >= lo && commit <= hi);
        }
    }

    #[test]
    fn flags_follow_current_date() {
        let d = small();
        let t = d.table("lineitem");
        let horizon = current_date();
        let (rf, ls, sd, rd) = (
            t.by_name("l_returnflag").as_str(),
            t.by_name("l_linestatus").as_str(),
            t.by_name("l_shipdate").as_date(),
            t.by_name("l_receiptdate").as_date(),
        );
        for i in 0..t.len {
            if Date(rd[i]) <= horizon {
                assert_ne!(rf[i], "N");
            } else {
                assert_eq!(rf[i], "N");
            }
            assert_eq!(ls[i] == "O", Date(sd[i]) > horizon);
        }
    }

    #[test]
    fn workload_patterns_present() {
        // Q13/Q16/Q14 patterns must occur at small scale already.
        let d = small();
        assert!(d.table("orders").by_name("o_comment").as_str().iter().any(|c| {
            c.split(' ')
                .position(|w| w == "special")
                .is_some_and(|i| c.split(' ').skip(i + 1).any(|w| w == "requests"))
        }));
        assert!(d.table("part").by_name("p_type").as_str().iter().any(|t| t.starts_with("PROMO")));
        assert!(d
            .table("customer")
            .by_name("c_mktsegment")
            .as_str()
            .iter()
            .any(|s| s == "BUILDING"));
    }
}

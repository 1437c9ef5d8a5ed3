#![warn(missing_docs)]
//! # LegoBase-rs
//!
//! A Rust reproduction of *“Building Efficient Query Engines in a High-Level
//! Language”* (Shaikhha, Klonatos, Koch — VLDB 2014): an in-memory analytical
//! query engine whose optimizations are expressed as transformation passes of
//! an optimizing compiler (SC), evaluated on the TPC-H workload.
//!
//! ```no_run
//! use legobase::{Config, LegoBase};
//!
//! // Generate TPC-H data (dbgen substitute) and run Q6 under two
//! // configurations of Table III.
//! let system = LegoBase::generate(0.01);
//! let baseline = system.run(6, Config::Dbx);
//! let optimized = system.run(6, Config::OptC);
//! assert!(optimized.result.approx_eq(&baseline.result, 1e-6));
//! println!("{}", optimized.result.display(10));
//! println!("generated C:\n{}", optimized.compilation.c_source);
//! ```
//!
//! The facade wires the five layers in paper order — [`queries`] builds the
//! physical plan (§2.1), [`sc`] compiles it into a
//! [`Specialization`] report plus C source (§2.2–2.3), [`engine`] loads and
//! executes with exactly the structures the report selected (§3), [`storage`]
//! implements those structures, [`tpch`] generates the workload (§4) — and
//! enforces the compiler-decides/executor-obeys discipline for the
//! morsel-driven parallelism extension (degree and join/sort clearances;
//! DESIGN.md §3).
//!
//! See `DESIGN.md` for the system inventory, the substitutions made for
//! artifacts that are not reproducible in this environment, and the §4
//! life-of-a-query walkthrough; `EXPERIMENTS.md` holds the
//! paper-vs-measured record.

pub mod client;
mod request;
pub mod server;
mod service;
pub mod wire;

pub use legobase_engine as engine;
pub use legobase_queries as queries;
pub use legobase_sc as sc;
pub use legobase_sql as sql;
pub use legobase_storage as storage;
pub use legobase_tpch as tpch;
pub use request::{QueryError, QueryKind, QueryRequest, QueryResponse, RunDetail};
pub use service::{QueryService, ServeOptions, ServeOutcome, ServiceError, ServiceStats, Session};

pub use legobase_engine::{Config, OptReport, ResultTable, Settings, Specialization};
pub use legobase_sc::CompileResult;
pub use legobase_tpch::TpchData;

use legobase_engine::settings::EngineKind;
use legobase_engine::{GenericDb, QueryPlan, SpecializedDb};
use std::time::Duration;

/// The outcome of compiling, loading, and executing one query.
pub struct RunOutcome {
    /// The query result.
    pub result: ResultTable,
    /// SC pipeline output: specialization report, IR trace, generated C.
    pub compilation: CompileResult,
    /// Wall-clock duration of data loading (including partitioning,
    /// dictionaries, and indexing — Fig. 21).
    pub load_time: Duration,
    /// Approximate memory held by the loaded database (Fig. 20).
    pub memory_bytes: usize,
    /// Wall-clock duration of query execution.
    pub exec_time: Duration,
    /// The cost-based optimizer's decision record, with
    /// [`OptReport::actual_rows`] filled from the executed result — present
    /// only on the SQL path with [`Settings::optimize`] enabled (hand-built
    /// plans run unrewritten; they are the optimizer's oracle).
    pub opt: Option<OptReport>,
}

/// The outcome of explaining a SQL query without executing it.
pub struct SqlExplanation {
    /// The plan that would execute (optimized when the settings say so).
    pub plan: QueryPlan,
    /// That plan rendered back to dialect SQL via
    /// [`legobase_sql::plan_to_sql`].
    pub sql: String,
    /// The optimizer's decision record (naive vs chosen join order,
    /// estimated cardinalities); `None` when the optimizer is disabled.
    pub report: Option<OptReport>,
}

/// The LegoBase system façade: data plus the compile→load→execute path.
pub struct LegoBase {
    /// The generated TPC-H database.
    pub data: TpchData,
}

impl LegoBase {
    /// Generates a TPC-H database at the given scale factor.
    pub fn generate(scale_factor: f64) -> LegoBase {
        LegoBase { data: TpchData::generate(scale_factor) }
    }

    /// Wraps pre-generated TPC-H data.
    pub fn from_data(data: TpchData) -> LegoBase {
        LegoBase { data }
    }

    /// Loads a database from a persistent column archive (`tpch archive`
    /// writes one; CI caches it between runs so the perf baseline never
    /// pays for regeneration). The reader verifies magic, version, and
    /// per-column checksums before any payload is trusted.
    ///
    /// Each column payload decodes straight into the plain base column that
    /// every later load shares. The archive is `mmap`ed read-only: its
    /// bit-packed columns also borrow their words zero-copy from the page
    /// cache, and the encoded-column loader adopts them instead of
    /// re-encoding — bit-identical results. Only the current format version
    /// loads; older files are a typed `BadVersion` error. A mapping failure
    /// falls back to the plain read+decode path; set `LEGOBASE_MMAP=0` to
    /// force that path everywhere (CI runs the equivalence suites once this
    /// way).
    ///
    /// ```no_run
    /// use legobase::{Config, LegoBase};
    /// let system = LegoBase::from_archive("tpch-sf0.1.lbca").expect("valid archive");
    /// let service = system.serve();
    /// ```
    pub fn from_archive(
        path: impl AsRef<std::path::Path>,
    ) -> Result<LegoBase, tpch::archive::ArchiveError> {
        let mmap_off = std::env::var("LEGOBASE_MMAP")
            .map(|v| matches!(v.as_str(), "0" | "false" | "off"))
            .unwrap_or(false);
        let data = if mmap_off {
            tpch::archive::read(path.as_ref())?
        } else {
            tpch::archive::read_mapped(path.as_ref())?
        };
        Ok(LegoBase { data })
    }

    /// Writes this database to a persistent column archive
    /// ([`LegoBase::from_archive`] loads it back losslessly).
    pub fn write_archive(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), tpch::archive::ArchiveError> {
        tpch::archive::write(&self.data, path.as_ref())
    }

    /// Builds the physical plan of TPC-H query `n` (1–22).
    pub fn plan(&self, n: usize) -> QueryPlan {
        legobase_queries::query(&self.data.catalog, n)
    }

    /// Compiles, loads, and executes TPC-H query `n` under a named
    /// configuration of Table III.
    pub fn run(&self, n: usize, config: Config) -> RunOutcome {
        self.run_plan(&self.plan(n), &config.settings())
    }

    /// Parses a SQL query against this database's catalog and runs it under
    /// a named configuration — the text frontend of the system: the SQL
    /// crate lowers the text into the same [`QueryPlan`] algebra the
    /// hand-built workload uses, so every engine configuration (and every
    /// morsel-parallelism degree) executes it unchanged.
    ///
    /// Malformed input is reported as a spanned [`legobase_sql::SqlError`]
    /// (render it against the query text for a caret diagnostic); this path
    /// never panics on user text.
    ///
    /// ```no_run
    /// use legobase::{Config, LegoBase};
    /// let system = LegoBase::generate(0.01);
    /// let out = system
    ///     .run_sql(
    ///         "SELECT l_returnflag, count(*) AS n FROM lineitem \
    ///          GROUP BY l_returnflag ORDER BY l_returnflag",
    ///         Config::OptC,
    ///     )
    ///     .expect("valid SQL");
    /// println!("{}", out.result.display(10));
    /// ```
    pub fn run_sql(&self, sql: &str, config: Config) -> Result<RunOutcome, legobase_sql::SqlError> {
        self.run_sql_with_settings(sql, &config.settings())
    }

    /// [`LegoBase::run_sql`] with explicit settings. When
    /// [`Settings::optimize`] is on (the default; `LEGOBASE_OPTIMIZE=0`
    /// overrides), the naive lowered plan goes through the cost-based
    /// optimizer first and the outcome carries the [`OptReport`] with
    /// actual row counts filled in.
    ///
    /// Legacy surface: this is a thin wrapper over [`LegoBase::query`] with
    /// `QueryRequest::sql(sql).with_settings(*settings)` — new code should
    /// build a [`QueryRequest`], which adds explain, budgets, and deadlines
    /// on the same path.
    pub fn run_sql_with_settings(
        &self,
        sql: &str,
        settings: &Settings,
    ) -> Result<RunOutcome, legobase_sql::SqlError> {
        self.query(&QueryRequest::sql(sql).with_settings(*settings))
            .map(QueryResponse::into_run_outcome)
            .map_err(|e| match e {
                QueryError::Sql(e) => e,
                // This wrapper sets no budget and no deadline, so no other
                // decline can occur on the single-shot path.
                other => unreachable!("unexpected single-shot error: {other}"),
            })
    }

    /// Parses and optimizes a SQL query, returning — without executing —
    /// the plan that [`LegoBase::run_sql`] would run, its rendering back to
    /// dialect SQL, and the optimizer's [`OptReport`]. The `EXPLAIN` of the
    /// system (`figures -- explain <query>` prints it).
    ///
    /// Legacy surface: this is a thin wrapper over [`LegoBase::query`] with
    /// `QueryRequest::sql(sql).with_config(config).with_explain(true)`.
    pub fn explain_sql(
        &self,
        sql: &str,
        config: Config,
    ) -> Result<SqlExplanation, legobase_sql::SqlError> {
        let resp = self
            .query(&QueryRequest::sql(sql).with_config(config).with_explain(true))
            .map_err(|e| match e {
                QueryError::Sql(e) => e,
                other => unreachable!("unexpected explain error: {other}"),
            })?;
        Ok(SqlExplanation {
            plan: resp.plan.expect("explain responses carry the plan"),
            sql: resp.explanation.expect("explain responses carry the rendering"),
            report: resp.opt,
        })
    }

    /// Same as [`LegoBase::run`] with explicit settings (ablations).
    pub fn run_with_settings(&self, n: usize, settings: &Settings) -> RunOutcome {
        self.run_plan(&self.plan(n), settings)
    }

    /// The full paper pipeline for an arbitrary plan: SC compilation derives
    /// the specialization, the loader builds the physical database, the
    /// matching executor runs the query.
    ///
    /// The morsel-driven parallelism degree follows the same
    /// compiler-decides/executor-obeys discipline as every other
    /// specialization: `settings.parallelism` is the *request* (overridable
    /// with the `LEGOBASE_PARALLELISM` environment variable, which is how CI
    /// runs the whole suite parallel-enabled), the `Parallelize` transformer
    /// records the per-query decision in the specialization report, and the
    /// specialized executor runs with the recorded degree.
    ///
    /// Legacy surface: this is a thin wrapper over [`LegoBase::query`] with
    /// `QueryRequest::plan(query.clone()).with_settings(*settings)`. Unlike
    /// the unified path it returns the bare [`RunOutcome`] and lets engine
    /// panics propagate — the behavior the oracle suites pin.
    pub fn run_plan(&self, query: &QueryPlan, settings: &Settings) -> RunOutcome {
        self.query(&QueryRequest::plan(query.clone()).with_settings(*settings))
            .unwrap_or_else(|e| {
                // Plan requests parse nothing and this wrapper sets no
                // budget and no deadline — no decline can occur.
                unreachable!("unexpected plan-run error: {e}")
            })
            .into_run_outcome()
    }

    /// The execution heart of [`LegoBase::query`]: compile, load, execute.
    fn execute_plan(&self, query: &QueryPlan, settings: &Settings) -> RunOutcome {
        let settings = &requested_settings(settings);
        let compilation = legobase_sc::compile(query, &self.data.catalog, settings);
        let settings = &decided_settings(settings, &compilation.spec);
        let (result, load_time, memory_bytes, exec_time) = match settings.engine {
            EngineKind::Volcano => {
                let db = GenericDb::load(&self.data, &compilation.spec, settings);
                let t0 = std::time::Instant::now();
                let r = legobase_engine::volcano::execute(query, &db);
                (r, db.report.duration, db.report.approx_bytes, t0.elapsed())
            }
            EngineKind::Push => {
                let db = GenericDb::load(&self.data, &compilation.spec, settings);
                let t0 = std::time::Instant::now();
                let r = legobase_engine::push::execute(query, &db, settings);
                (r, db.report.duration, db.report.approx_bytes, t0.elapsed())
            }
            EngineKind::Specialized => {
                let db = SpecializedDb::load(&self.data, &compilation.spec, settings);
                let t0 = std::time::Instant::now();
                let r = legobase_engine::specialized::execute(query, &db, settings);
                (r, db.report.duration, db.report.approx_bytes, t0.elapsed())
            }
        };
        RunOutcome { result, compilation, load_time, memory_bytes, exec_time, opt: None }
    }

    /// Loads the database for a configuration once (for benchmarks that
    /// execute repeatedly against the same load).
    pub fn load(&self, query: &QueryPlan, settings: &Settings) -> LoadedQuery {
        let settings = &requested_settings(settings);
        let compilation = legobase_sc::compile(query, &self.data.catalog, settings);
        let settings = &decided_settings(settings, &compilation.spec);
        let db = match settings.engine {
            EngineKind::Volcano | EngineKind::Push => {
                Db::Generic(GenericDb::load(&self.data, &compilation.spec, settings))
            }
            EngineKind::Specialized => {
                Db::Specialized(SpecializedDb::load(&self.data, &compilation.spec, settings))
            }
        };
        LoadedQuery { query: query.clone(), settings: *settings, compilation, db }
    }
}

/// Applies the environment overrides to the requested settings:
/// `LEGOBASE_PARALLELISM` (CI uses it to run the entire suite with the
/// parallel paths on) and `LEGOBASE_OPTIMIZE` (`0`/`false` turns the
/// cost-based SQL optimizer off — CI's naive-plan equivalence leg). The
/// parallelism override only replaces the *default* serial request —
/// settings that explicitly ask for a degree > 1 (ablations, the
/// thread-scaling figure) keep their request.
pub(crate) fn requested_settings(settings: &Settings) -> Settings {
    let mut s = *settings;
    if s.parallelism == 1 {
        if let Some(n) =
            std::env::var("LEGOBASE_PARALLELISM").ok().and_then(|v| v.parse::<usize>().ok())
        {
            if n >= 1 {
                s.parallelism = n;
            }
        }
    }
    // Like the parallelism override, this only moves settings in one
    // direction: an off-value forces the optimizer off (CI's naive-plan
    // leg); anything else — including an empty variable — leaves the
    // request untouched, so an explicit `optimize: false` ablation is
    // never silently re-enabled.
    if let Ok(v) = std::env::var("LEGOBASE_OPTIMIZE") {
        if matches!(v.trim(), "0" | "false" | "off") {
            s.optimize = false;
        }
    }
    // Same one-way discipline for encoded columns: `LEGOBASE_ENCODING=0` is
    // CI's plain-columns leg; anything else leaves the request alone.
    if let Ok(v) = std::env::var("LEGOBASE_ENCODING") {
        if matches!(v.trim(), "0" | "false" | "off") {
            s.encoding = false;
        }
    }
    // And for the adaptive-estimation loop: `LEGOBASE_FEEDBACK=0` is the
    // ablation leg proving feedback never changes results, only estimates.
    if let Ok(v) = std::env::var("LEGOBASE_FEEDBACK") {
        if matches!(v.trim(), "0" | "false" | "off") {
            s.feedback = false;
        }
    }
    s
}

/// Replaces the requested parallelism with the decisions the SC pipeline
/// recorded for this query — the executor obeys the compiler: the degree,
/// and whether this query's join and sort operators were cleared for the
/// morsel-parallel paths (`Parallelize` counts the cleared operators in the
/// specialization report; zero cleared means the serial code path). The
/// [`Settings::optimize`] knob passes through unchanged: by this point the
/// logical optimizer has already run (or been skipped) on the plan itself,
/// so there is no per-query decision left to record.
fn decided_settings(settings: &Settings, spec: &Specialization) -> Settings {
    let mut s = *settings;
    s.parallelism = spec.parallelism.max(1);
    s.parallel_joins = spec.parallel_joins > 0;
    s.parallel_sorts = spec.parallel_sorts > 0;
    // Encoding follows the same rule: the flag survives only when the
    // `Encode` transformer actually cleared columns for this query.
    s.encoding = s.encoding && !spec.encoded_columns.is_empty();
    s
}

enum Db {
    Generic(GenericDb),
    Specialized(SpecializedDb),
}

/// A query compiled and loaded, ready for repeated execution.
pub struct LoadedQuery {
    /// The compiled plan.
    pub query: QueryPlan,
    /// The configuration it was compiled under.
    pub settings: Settings,
    /// SC pipeline output.
    pub compilation: CompileResult,
    db: Db,
}

impl LoadedQuery {
    /// Executes the loaded query once.
    pub fn execute(&self) -> ResultTable {
        match (&self.db, self.settings.engine) {
            (Db::Generic(db), EngineKind::Volcano) => {
                legobase_engine::volcano::execute(&self.query, db)
            }
            (Db::Generic(db), _) => legobase_engine::push::execute(&self.query, db, &self.settings),
            (Db::Specialized(db), _) => {
                legobase_engine::specialized::execute(&self.query, db, &self.settings)
            }
        }
    }

    /// Load timing and memory accounting for this configuration.
    pub fn load_report(&self) -> legobase_engine::db::LoadReport {
        match &self.db {
            Db::Generic(db) => db.report,
            Db::Specialized(db) => db.report,
        }
    }

    /// Current resident heap footprint of the loaded database, recounted
    /// now rather than the load-time snapshot in
    /// [`LoadedQuery::load_report`]; the memory figure samples it after a
    /// warm-up execution.
    pub fn memory_bytes(&self) -> usize {
        match &self.db {
            Db::Generic(db) => db.approx_bytes(),
            Db::Specialized(db) => db.approx_bytes(),
        }
    }
}

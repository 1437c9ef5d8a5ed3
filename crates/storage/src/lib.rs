#![warn(missing_docs)]
//! Storage substrate for the LegoBase-rs query engine.
//!
//! This crate provides every data-structure the paper's generated code relies
//! on, each one corresponding to a specific LegoBase optimization:
//!
//! * [`value`] / [`schema`] / [`row`] — the generic, high-level representation
//!   used by the unoptimized engines (tuples of boxed [`value::Value`]s).
//! * [`column`](mod@column) — the columnar layout produced by the `ColumnStore`
//!   transformer (Section 3.3 of the paper).
//! * [`dict`] — string dictionaries (normal, ordered, word-tokenizing;
//!   Section 3.4, Table II).
//! * [`partition`] — primary-key 1D arrays and foreign-key 2D partitions
//!   (Section 3.2.1, Fig. 10), plus the fixed radix partitioning
//!   ([`partition::join_partition`]) of the morsel-parallel hash-join
//!   build.
//! * [`dateindex`] — automatically inferred year indices on date attributes
//!   (Section 3.2.3, Fig. 12).
//! * [`specialized`] — hash maps lowered to native arrays with intrusive
//!   chaining (Section 3.2.2, Fig. 11), single-value stores and dense
//!   direct-array aggregation stores (data-structure-initialization hoisting,
//!   Section 3.5.2).
//! * [`pool`] — hoisted memory pools (Section 3.5.1).
//! * [`morsel`] — contiguous row-range morsels over the `Arc`-backed columns,
//!   the unit of intra-query parallelism in the specialized engine, and the
//!   deterministic k-way merge ([`morsel::merge_sorted_runs`]) behind the
//!   morsel-parallel sort (no paper counterpart — the paper's generated C
//!   is single-threaded; DESIGN.md §3 specifies the determinism contract).
//! * [`packed`] — frame-of-reference bit-packed integer storage behind the
//!   encoded column variants (PR 7): kernels scan packed words and
//!   dictionary codes without decompressing, and batch-unpack whole morsels
//!   word-at-a-time when they need decoded values (PR 10).
//! * [`mapped`] — a dependency-free read-only `mmap` wrapper so LBCA v3
//!   archives serve packed payloads zero-copy from the page cache (PR 10).
//! * [`metrics`] — portable proxy counters standing in for the paper's CPU
//!   performance counters (Fig. 18).
//! * [`stats`] — the optimizer statistics collected when the data is
//!   generated and persisted with it.

pub mod column;
pub mod date;
pub mod dateindex;
pub mod dict;
pub mod mapped;
pub mod metrics;
pub mod morsel;
pub mod packed;
pub mod partition;
pub mod pool;
pub mod row;
pub mod schema;
pub mod specialized;
pub mod stats;
pub mod value;

pub use column::{CodeReader, Column, ColumnError, ColumnTable, DateReader, I64Reader};
pub use date::Date;
pub use dict::{DictKind, StringDictionary};
pub use mapped::Mapping;
pub use packed::{PackedCursor, PackedInts};
pub use row::RowTable;
pub use schema::{Catalog, Field, ForeignKey, Schema, TableMeta, Type};
pub use stats::{ColumnStats, DistinctSketch, Histogram, TableStatistics};
pub use value::{Tuple, Value};

//! Typed execution kernels: the Rust rendering of the paper's generated C.
//!
//! The specialized executor works on [`Chunk`]s — columnar intermediates that
//! share base-table columns by reference. Expressions are compiled *against
//! the actual physical representation of their input* (plain strings vs.
//! dictionary codes, dates as raw day counts, …): this is where the string
//! dictionary lowering of Table II and the type-specialized comparisons of
//! the generated code happen. Each kernel captures the exact vectors it
//! reads, so per-row evaluation is an indexed load plus a primitive op —
//! no `Value` boxing, no enum dispatch on types.

use crate::expr::{ArithOp, CmpOp, Expr};
use crate::interp;
use legobase_storage::{Column, PackedInts, Schema, Type, Value};
use std::sync::Arc;

/// A columnar intermediate result.
///
/// `sel` maps logical row positions to physical indices in the columns
/// (`None` = identity). `base` records the base table this chunk is a
/// selection of, if any — partitioned joins and date indices only apply to
/// base-table accesses.
#[derive(Clone)]
pub struct Chunk {
    /// Output schema of the operator that produced this chunk.
    pub schema: Schema,
    /// One column per schema field.
    pub cols: Vec<Column>,
    /// Validity masks parallel to `cols`; `None` = no NULLs in that column.
    pub nulls: Vec<Option<Arc<Vec<bool>>>>,
    /// Optional selection vector (surviving physical row ids).
    pub sel: Option<Arc<Vec<u32>>>,
    /// Physical row count of the columns.
    pub total: usize,
    /// Name of the base table these columns belong to, when the chunk is a
    /// (possibly filtered) base-table scan.
    pub base: Option<String>,
}

impl Chunk {
    /// Logical row count.
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.total,
        }
    }

    /// True when no rows survive.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Physical index of logical row `i`.
    #[inline(always)]
    pub fn phys(&self, i: usize) -> usize {
        match &self.sel {
            Some(s) => s[i] as usize,
            None => i,
        }
    }

    /// Iterates physical indices in logical order.
    pub fn physical_rows(&self) -> Box<dyn Iterator<Item = usize> + '_> {
        match &self.sel {
            Some(s) => Box::new(s.iter().map(|&r| r as usize)),
            None => Box::new(0..self.total),
        }
    }

    /// Reads one cell (by *physical* row) back into the generic form.
    pub fn value_at(&self, col: usize, phys: usize) -> Value {
        if let Some(mask) = &self.nulls[col] {
            if mask[phys] {
                return Value::Null;
            }
        }
        self.cols[col].value_at(phys)
    }

    /// Materializes logical row `i` as a generic tuple (interpreted mode and
    /// result extraction).
    pub fn row_values(&self, i: usize) -> Vec<Value> {
        let p = self.phys(i);
        (0..self.cols.len())
            .map(|c| {
                if matches!(self.cols[c], Column::Absent) {
                    Value::Null
                } else {
                    self.value_at(c, p)
                }
            })
            .collect()
    }
}

/// Kernels over physical row indices.
///
/// Kernels are `Send + Sync`: they capture only `Arc`-shared column vectors
/// and plain expression data, so morsel-driven worker threads can each
/// compile (or receive) kernels and evaluate them concurrently over disjoint
/// row ranges.
pub type BoolK = Box<dyn Fn(usize) -> bool + Send + Sync>;
/// A compiled row → `f64` kernel.
pub type F64K = Box<dyn Fn(usize) -> f64 + Send + Sync>;
/// A compiled row → `i64` (key code) kernel.
pub type I64K = Box<dyn Fn(usize) -> i64 + Send + Sync>;
/// A compiled row → [`Value`] kernel (generic fallback).
pub type ValK = Box<dyn Fn(usize) -> Value + Send + Sync>;
/// A compiled `(left_phys, right_phys) → bool` join-residual kernel. Like
/// the row kernels it captures only `Arc`-shared columns, so morsel-parallel
/// probe workers evaluate one shared residual concurrently.
pub type PairK = Box<dyn Fn(usize, usize) -> bool + Send + Sync>;

/// Compiles a predicate against a chunk's physical representation.
pub fn compile_bool(e: &Expr, chunk: &Chunk) -> BoolK {
    match e {
        Expr::Lit(Value::Bool(b)) => {
            let b = *b;
            Box::new(move |_| b)
        }
        Expr::And(a, b) => {
            let (fa, fb) = (compile_bool(a, chunk), compile_bool(b, chunk));
            Box::new(move |r| fa(r) && fb(r))
        }
        Expr::Or(a, b) => {
            let (fa, fb) = (compile_bool(a, chunk), compile_bool(b, chunk));
            Box::new(move |r| fa(r) || fb(r))
        }
        Expr::Not(a) => {
            let fa = compile_bool(a, chunk);
            Box::new(move |r| !fa(r))
        }
        Expr::Cmp(op, a, b) => compile_cmp(*op, a, b, chunk),
        Expr::StartsWith(a, p) => compile_str_pred(a, chunk, p.clone(), StrOp::StartsWith),
        Expr::EndsWith(a, p) => compile_str_pred(a, chunk, p.clone(), StrOp::EndsWith),
        Expr::Contains(a, p) => compile_str_pred(a, chunk, p.clone(), StrOp::Contains),
        Expr::ContainsWordSeq(a, w1, w2) => compile_word_seq(a, chunk, w1.clone(), w2.clone()),
        Expr::InList(a, vals) => compile_in_list(a, vals, chunk),
        Expr::IsNull(a) => match a.as_ref() {
            Expr::Col(i) => match chunk.nulls[*i].clone() {
                Some(mask) => Box::new(move |r| mask[r]),
                None => Box::new(|_| false),
            },
            _ => {
                let f = compile_value(a, chunk);
                Box::new(move |r| f(r).is_null())
            }
        },
        _ => {
            let f = compile_value(e, chunk);
            Box::new(move |r| f(r).as_bool())
        }
    }
}

/// A unified numeric kernel: integers, floats, and dates all lower to `f64`
/// comparisons/arithmetic without loss for TPC-H's value ranges (|v| < 2^53).
fn numeric(e: &Expr, chunk: &Chunk) -> Option<F64K> {
    match e {
        Expr::Col(i) => {
            if chunk.nulls[*i].is_some() {
                return None; // nullable columns take the generic path
            }
            // Packed columns on a per-row path unpack on access (one
            // shift/mask): heavy decoded consumers stay plain and the hot
            // filters and aggregates run block paths, so this only covers
            // residual cases (e.g. a projection over a selection vector).
            match &chunk.cols[*i] {
                Column::F64(v) => {
                    let v = Arc::clone(v);
                    Some(Box::new(move |r| v[r]))
                }
                Column::Dict(..) | Column::DictPacked(..) => None,
                col => code_map(col, |v| v as f64),
            }
        }
        Expr::Lit(Value::Int(v)) => {
            let v = *v as f64;
            Some(Box::new(move |_| v))
        }
        Expr::Lit(Value::Float(v)) => {
            let v = *v;
            Some(Box::new(move |_| v))
        }
        Expr::Lit(Value::Date(d)) => {
            let v = d.0 as f64;
            Some(Box::new(move |_| v))
        }
        Expr::Arith(op, a, b) => {
            // Int ∘ Int stays integral (`7 / 2` is 3, not 3.5), as in `interp`.
            if e.ty(&chunk.schema) == Type::Int {
                let k = int_numeric(e, chunk)?;
                return Some(Box::new(move |r| k(r) as f64));
            }
            let (fa, fb) = (numeric(a, chunk)?, numeric(b, chunk)?);
            Some(match op {
                ArithOp::Add => Box::new(move |r| fa(r) + fb(r)),
                ArithOp::Sub => Box::new(move |r| fa(r) - fb(r)),
                ArithOp::Mul => Box::new(move |r| fa(r) * fb(r)),
                ArithOp::Div => Box::new(move |r| fa(r) / fb(r)),
            })
        }
        Expr::Year(a) => {
            let fa = date_kernel(a, chunk)?;
            Some(Box::new(move |r| legobase_storage::Date(fa(r)).year() as f64))
        }
        Expr::Case(c, t, f) => {
            let fc = compile_bool(c, chunk);
            let (ft, ff) = (numeric(t, chunk)?, numeric(f, chunk)?);
            Some(Box::new(move |r| if fc(r) { ft(r) } else { ff(r) }))
        }
        _ => None,
    }
}

/// An Int-typed expression as an exact `i64` kernel. Arithmetic wraps, like
/// [`interp::eval`]; integer division declines (a zero divisor yields NULL,
/// which only the generic path can express).
fn int_numeric(e: &Expr, chunk: &Chunk) -> Option<I64K> {
    match e {
        Expr::Col(i) if chunk.nulls[*i].is_none() => code_map(&chunk.cols[*i], |v| v),
        Expr::Lit(Value::Int(v)) => {
            let v = *v;
            Some(Box::new(move |_| v))
        }
        Expr::Arith(op, a, b) => {
            let f = int_op(*op)?;
            let (fa, fb) = (int_numeric(a, chunk)?, int_numeric(b, chunk)?);
            Some(Box::new(move |r| f(fa(r), fb(r))))
        }
        _ => {
            let f = numeric(e, chunk)?;
            Some(Box::new(move |r| f(r) as i64))
        }
    }
}

/// The wrapping `i64` operator of an integer `Arith` node; `None` for
/// division, whose zero divisor makes the result NULL.
fn int_op(op: ArithOp) -> Option<fn(i64, i64) -> i64> {
    match op {
        ArithOp::Add => Some(i64::wrapping_add),
        ArithOp::Sub => Some(i64::wrapping_sub),
        ArithOp::Mul => Some(i64::wrapping_mul),
        ArithOp::Div => None,
    }
}

/// True when `e` can evaluate to NULL over this chunk: it reads a column
/// with a validity mask, or divides integers (a zero divisor yields NULL).
pub(crate) fn may_be_null(e: &Expr, chunk: &Chunk) -> bool {
    let mut maybe = false;
    e.visit(&mut |n| {
        maybe |= match n {
            Expr::Col(c) => chunk.nulls[*c].is_some(),
            Expr::Arith(ArithOp::Div, ..) => n.ty(&chunk.schema) == Type::Int,
            _ => false,
        }
    });
    maybe
}

fn date_kernel(e: &Expr, chunk: &Chunk) -> Option<Box<dyn Fn(usize) -> i32 + Send + Sync>> {
    match e {
        Expr::Col(i) => match &chunk.cols[*i] {
            col @ (Column::Date(_) | Column::DatePacked(_)) => code_map(col, |v| v as i32),
            _ => None,
        },
        Expr::Lit(Value::Date(d)) => {
            let v = d.0;
            Some(Box::new(move |_| v))
        }
        _ => None,
    }
}

fn compile_cmp(op: CmpOp, a: &Expr, b: &Expr, chunk: &Chunk) -> BoolK {
    // Packed column vs. literal: pre-encode the literal once and compare raw
    // offsets — the scan never leaves the packed domain (PR 7's
    // scan-without-decompress contract).
    if let Some(k) = packed_cmp(op, a, b, chunk) {
        return k;
    }
    if let Some(k) = packed_cmp(op.flip(), b, a, chunk) {
        return k;
    }
    // Numeric fast path (ints, floats, dates).
    if let (Some(fa), Some(fb)) = (numeric(a, chunk), numeric(b, chunk)) {
        return match op {
            CmpOp::Eq => Box::new(move |r| fa(r) == fb(r)),
            CmpOp::Ne => Box::new(move |r| fa(r) != fb(r)),
            CmpOp::Lt => Box::new(move |r| fa(r) < fb(r)),
            CmpOp::Le => Box::new(move |r| fa(r) <= fb(r)),
            CmpOp::Gt => Box::new(move |r| fa(r) > fb(r)),
            CmpOp::Ge => Box::new(move |r| fa(r) >= fb(r)),
        };
    }
    // String column vs. literal.
    if let (Expr::Col(i), Expr::Lit(Value::Str(s))) = (a, b) {
        let s = s.clone();
        match &chunk.cols[*i] {
            col @ (Column::Dict(_, dict) | Column::DictPacked(_, dict)) => {
                // Table II: equality becomes an integer comparison.
                if matches!(op, CmpOp::Eq | CmpOp::Ne) {
                    let eq = op == CmpOp::Eq;
                    return match dict.code(&s) {
                        Some(t) => code_pred(col, move |c| (c == t as i64) == eq),
                        None => Box::new(move |_| !eq),
                    };
                }
                // Ordering against a literal: one flag per distinct value,
                // then a single indexed load per tuple.
                let flags = dict.matching_flags(|v| str_cmp(op, v, &s));
                return code_pred(col, move |c| flags[c as usize]);
            }
            Column::Str(v) => {
                let v = Arc::clone(v);
                return Box::new(move |r| str_cmp(op, &v[r], &s));
            }
            _ => {}
        }
    }
    // Generic fallback (string-string column comparisons etc.).
    let fa = compile_value(a, chunk);
    let fb = compile_value(b, chunk);
    Box::new(move |r| {
        let (va, vb) = (fa(r), fb(r));
        if va.is_null() || vb.is_null() {
            return false;
        }
        let ord = va.cmp(&vb);
        match op {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    })
}

/// Compiles `col op lit` over a packed column without decompressing: the
/// literal is encoded into the column's frame of reference once, and the
/// per-row test compares raw `width`-bit offsets (unsigned comparison is
/// order-preserving because both sides are offsets from the same base).
/// Literals outside the encodable domain clamp to a constant predicate.
fn packed_cmp(op: CmpOp, a: &Expr, b: &Expr, chunk: &Chunk) -> Option<BoolK> {
    let Expr::Col(i) = a else { return None };
    if chunk.nulls[*i].is_some() {
        return None;
    }
    let lit = match b {
        Expr::Lit(Value::Int(v)) => *v,
        Expr::Lit(Value::Date(d)) => d.0 as i64,
        _ => return None,
    };
    let p = match &chunk.cols[*i] {
        Column::I64Packed(p) | Column::DatePacked(p) => Arc::clone(p),
        _ => return None,
    };
    Some(packed_lit_kernel(op, p, lit))
}

fn packed_lit_kernel(op: CmpOp, p: Arc<PackedInts>, lit: i64) -> BoolK {
    match p.encode(lit) {
        Some(raw) => match op {
            CmpOp::Eq => Box::new(move |r| p.get_raw(r) == raw),
            CmpOp::Ne => Box::new(move |r| p.get_raw(r) != raw),
            CmpOp::Lt => Box::new(move |r| p.get_raw(r) < raw),
            CmpOp::Le => Box::new(move |r| p.get_raw(r) <= raw),
            CmpOp::Gt => Box::new(move |r| p.get_raw(r) > raw),
            CmpOp::Ge => Box::new(move |r| p.get_raw(r) >= raw),
        },
        None => {
            // Every stored value is on one side of the literal.
            let all_below_lit = lit > p.max();
            let result = match op {
                CmpOp::Eq => false,
                CmpOp::Ne => true,
                CmpOp::Lt | CmpOp::Le => all_below_lit,
                CmpOp::Gt | CmpOp::Ge => !all_below_lit,
            };
            Box::new(move |_| result)
        }
    }
}

fn str_cmp(op: CmpOp, a: &str, b: &str) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

enum StrOp {
    StartsWith,
    EndsWith,
    Contains,
}

impl StrOp {
    fn test(&self, s: &str, p: &str) -> bool {
        match self {
            StrOp::StartsWith => s.starts_with(p),
            StrOp::EndsWith => s.ends_with(p),
            StrOp::Contains => s.contains(p),
        }
    }
}

fn compile_str_pred(a: &Expr, chunk: &Chunk, pattern: String, op: StrOp) -> BoolK {
    if let Expr::Col(i) = a {
        match &chunk.cols[*i] {
            col @ (Column::Dict(_, dict) | Column::DictPacked(_, dict)) => {
                // Ordered dictionaries answer startsWith with a code range
                // (Table II); everything else via per-distinct-value flags.
                if matches!(op, StrOp::StartsWith)
                    && dict.kind() == legobase_storage::DictKind::Ordered
                {
                    return match dict.prefix_range(&pattern) {
                        Some((lo, hi)) => code_pred(col, move |c| c >= lo as i64 && c <= hi as i64),
                        None => Box::new(|_| false),
                    };
                }
                let flags = dict.matching_flags(|v| op.test(v, &pattern));
                return code_pred(col, move |c| flags[c as usize]);
            }
            Column::Str(v) => {
                let v = Arc::clone(v);
                return Box::new(move |r| op.test(&v[r], &pattern));
            }
            _ => {}
        }
    }
    let f = compile_value(a, chunk);
    Box::new(move |r| {
        let v = f(r);
        !v.is_null() && op.test(v.as_str(), &pattern)
    })
}

fn compile_word_seq(a: &Expr, chunk: &Chunk, w1: String, w2: String) -> BoolK {
    if let Expr::Col(i) = a {
        match &chunk.cols[*i] {
            col @ (Column::Dict(_, dict) | Column::DictPacked(_, dict)) => {
                // Word-token dictionaries scan integer token lists
                // (Section 3.4); other kinds fall back to per-distinct flags.
                if dict.kind() == legobase_storage::DictKind::WordToken {
                    let (c1, c2) = (dict.word_code(&w1), dict.word_code(&w2));
                    return match (c1, c2) {
                        (Some(c1), Some(c2)) => {
                            let dict = Arc::clone(dict);
                            code_pred(col, move |c| dict.contains_word_seq(c as u32, c1, c2))
                        }
                        _ => Box::new(|_| false),
                    };
                }
                let flags = dict.matching_flags(|v| interp::word_seq(v, &w1, &w2));
                return code_pred(col, move |c| flags[c as usize]);
            }
            Column::Str(v) => {
                let v = Arc::clone(v);
                return Box::new(move |r| interp::word_seq(&v[r], &w1, &w2));
            }
            _ => {}
        }
    }
    let f = compile_value(a, chunk);
    Box::new(move |r| {
        let v = f(r);
        !v.is_null() && interp::word_seq(v.as_str(), &w1, &w2)
    })
}

fn compile_in_list(a: &Expr, vals: &[Value], chunk: &Chunk) -> BoolK {
    if let Expr::Col(i) = a {
        match &chunk.cols[*i] {
            col @ (Column::Dict(_, dict) | Column::DictPacked(_, dict)) => {
                let mut flags = vec![false; dict.len()];
                for v in vals {
                    if let Value::Str(s) = v {
                        if let Some(c) = dict.code(s) {
                            flags[c as usize] = true;
                        }
                    }
                }
                return code_pred(col, move |c| flags[c as usize]);
            }
            Column::Str(v) => {
                let v = Arc::clone(v);
                let set: Vec<String> = vals
                    .iter()
                    .filter_map(|x| match x {
                        Value::Str(s) => Some(s.clone()),
                        _ => None,
                    })
                    .collect();
                return Box::new(move |r| set.iter().any(|s| *s == v[r]));
            }
            col @ (Column::I64(_) | Column::I64Packed(_)) => {
                let set: Vec<i64> = vals
                    .iter()
                    .filter_map(|x| match x {
                        Value::Int(n) => Some(*n),
                        _ => None,
                    })
                    .collect();
                return code_pred(col, move |v| set.contains(&v));
            }
            _ => {}
        }
    }
    let f = compile_value(a, chunk);
    let vals = vals.to_vec();
    Box::new(move |r| {
        let v = f(r);
        !v.is_null() && vals.contains(&v)
    })
}

/// Compiles a numeric expression to an `f64` kernel (aggregation inputs).
pub fn compile_f64(e: &Expr, chunk: &Chunk) -> F64K {
    if let Some(k) = numeric(e, chunk) {
        return k;
    }
    let f = compile_value(e, chunk);
    Box::new(move |r| f(r).as_float())
}

/// Compiles a groupable column to an `i64` code kernel: integers verbatim,
/// dates as day counts, dictionary strings as codes, booleans as 0/1.
/// Returns `None` for plain strings and nullable columns (the caller falls
/// back to generic keys).
pub fn code_kernel(col: usize, chunk: &Chunk) -> Option<I64K> {
    if chunk.nulls[col].is_some() {
        return None;
    }
    code_map(&chunk.cols[col], |v| v)
}

/// A per-row kernel `f(code)` over an integer-valued column (see
/// [`CodeCol`]), monomorphized per physical layout so the row loop pays one
/// load (or one packed extract) and `f` — no per-row layout dispatch.
fn code_map<T: 'static>(
    col: &Column,
    f: impl Fn(i64) -> T + Send + Sync + 'static,
) -> Option<Box<dyn Fn(usize) -> T + Send + Sync>> {
    Some(match CodeCol::of(col)? {
        CodeCol::I64(v) => Box::new(move |r| f(v[r])),
        CodeCol::Date(v) => Box::new(move |r| f(v[r] as i64)),
        CodeCol::Codes(v) => Box::new(move |r| f(v[r] as i64)),
        CodeCol::Bool(v) => Box::new(move |r| f(v[r] as i64)),
        CodeCol::Packed(p) => Box::new(move |r| f(p.get(r))),
    })
}

/// [`code_map`] over a column known to hold codes (a dictionary or integer
/// column), as a predicate.
fn code_pred(col: &Column, f: impl Fn(i64) -> bool + Send + Sync + 'static) -> BoolK {
    code_map(col, f).expect("dictionary and integer columns carry codes")
}

/// The [`CodeCol`] reader of a non-nullable groupable column.
pub(crate) fn code_col(col: usize, chunk: &Chunk) -> Option<CodeCol> {
    if chunk.nulls[col].is_some() {
        return None;
    }
    CodeCol::of(&chunk.cols[col])
}

/// An integer-valued column read as `i64` codes: integers verbatim, dates as
/// day counts, dictionary strings as codes, booleans as 0/1. Packed columns
/// read the unpacked values/codes, identical to the plain layout's, so
/// grouped results stay bit-identical across encodings. The one reader
/// behind join key codes, group-key packing and the block evaluator's
/// integer gathers.
#[derive(Clone)]
pub(crate) enum CodeCol {
    /// Plain integers.
    I64(Arc<Vec<i64>>),
    /// Plain day counts.
    Date(Arc<Vec<i32>>),
    /// Plain dictionary codes.
    Codes(Arc<Vec<u32>>),
    /// Plain booleans.
    Bool(Arc<Vec<bool>>),
    /// Packed integers, day counts or codes.
    Packed(Arc<PackedInts>),
}

impl CodeCol {
    /// The reader of `col`, or `None` for floats, plain strings and absent
    /// columns.
    pub(crate) fn of(col: &Column) -> Option<CodeCol> {
        Some(match col {
            Column::I64(v) => CodeCol::I64(Arc::clone(v)),
            Column::Date(v) => CodeCol::Date(Arc::clone(v)),
            Column::Dict(codes, _) => CodeCol::Codes(Arc::clone(codes)),
            Column::Bool(v) => CodeCol::Bool(Arc::clone(v)),
            Column::I64Packed(p) | Column::DatePacked(p) | Column::DictPacked(p, _) => {
                CodeCol::Packed(Arc::clone(p))
            }
            Column::F64(_) | Column::Str(_) | Column::Absent => return None,
        })
    }

    /// Reads the codes of one block into `out` (`out.len() == rows.len()`):
    /// contiguous packed ranges batch-unpack, everything else is one tight
    /// typed loop per block.
    pub(crate) fn read(&self, rows: Rows, out: &mut [i64]) {
        macro_rules! read {
            ($v:expr, $conv:expr) => {
                match rows {
                    Rows::Range { start, n } => {
                        for (o, &x) in out.iter_mut().zip(&$v[start..start + n]) {
                            *o = $conv(x);
                        }
                    }
                    Rows::Sel(sel) => {
                        for (o, &r) in out.iter_mut().zip(sel) {
                            *o = $conv($v[r as usize]);
                        }
                    }
                }
            };
        }
        match self {
            CodeCol::I64(v) => read!(v, |x: i64| x),
            CodeCol::Date(v) => read!(v, |x: i32| x as i64),
            CodeCol::Codes(v) => read!(v, |x: u32| x as i64),
            CodeCol::Bool(v) => read!(v, |x: bool| x as i64),
            CodeCol::Packed(p) => match rows {
                Rows::Range { start, .. } => p.unpack_range(start, out),
                Rows::Sel(sel) => {
                    for (o, &r) in out.iter_mut().zip(sel) {
                        *o = p.get(r as usize);
                    }
                }
            },
        }
    }
}

/// Generic value kernel: the universal fallback.
pub fn compile_value(e: &Expr, chunk: &Chunk) -> ValK {
    // Column and literal leaves read storage directly; everything composite
    // is interpreted over a gathered mini-tuple.
    match e {
        Expr::Col(i) => {
            let col = chunk.cols[*i].clone();
            let mask = chunk.nulls[*i].clone();
            Box::new(move |r| {
                if let Some(m) = &mask {
                    if m[r] {
                        return Value::Null;
                    }
                }
                col.value_at(r)
            })
        }
        Expr::Lit(v) => {
            let v = v.clone();
            Box::new(move |_| v.clone())
        }
        _ => {
            let mut cols = Vec::new();
            e.collect_cols(&mut cols);
            let leaves: Vec<(usize, ValK)> =
                cols.iter().map(|&c| (c, compile_value(&Expr::Col(c), chunk))).collect();
            let arity = chunk.cols.len();
            let e = e.clone();
            Box::new(move |r| {
                let mut row = vec![Value::Null; arity];
                for (c, k) in &leaves {
                    row[*c] = k(r);
                }
                interp::eval(&e, &row)
            })
        }
    }
}

// ---- fused unpack-filter (PR 10) ----

/// Per-worker reusable scratch for the fused unpack-filter path: the block
/// program's operand buffers plus the survivor mask. Buffers grow to the
/// morsel size once and are reused for every subsequent morsel, so the hot
/// filter loop performs no allocations after warm-up.
pub struct UnpackScratch {
    eval: BlockScratch,
    mask: Vec<bool>,
}

/// A per-distinct-code test for a dictionary predicate evaluated over
/// batch-unpacked codes.
enum CodeTest {
    /// Equality against one resolved dictionary code.
    Eq { code: i64, eq: bool },
    /// Truth table indexed by code (ordering, membership).
    Flags(Vec<bool>),
}

/// One conjunct of a fused filter.
enum Conjunct {
    /// Integer comparison of two `i64`-lane block-program outputs, evaluated
    /// block-at-a-time over the morsel.
    Block { op: CmpOp, a: usize, b: usize },
    /// Dictionary predicate over a packed code column the block program
    /// batch-unpacks.
    Code { codes: usize, test: CodeTest },
    /// Anything else runs as the ordinary per-row kernel.
    Row(BoolK),
}

/// A filter compiled for fused morsel-at-a-time evaluation (PR 10): its
/// integer operands form one block program — packed predicate columns
/// batch-unpack into per-worker scratch and compare there, so hot pipelines
/// never materialize a decoded column. Selects exactly the rows the per-row
/// path selects.
pub struct BlockPred {
    prog: BlockProg,
    conjuncts: Vec<Conjunct>,
}

impl BlockPred {
    /// Fresh scratch for this predicate (one per worker in the
    /// morsel-parallel path).
    pub fn scratch(&self) -> UnpackScratch {
        UnpackScratch { eval: BlockScratch::default(), mask: Vec::new() }
    }

    /// Evaluates physical rows `[start, start + n)` and appends the
    /// survivors to `out` in row order.
    pub fn eval(&self, scratch: &mut UnpackScratch, start: usize, n: usize, out: &mut Vec<u32>) {
        // Gather or batch-decode every operand for this morsel, once each.
        self.prog.eval(Rows::Range { start, n }, &mut scratch.eval);
        let UnpackScratch { eval, mask } = scratch;
        mask.clear();
        mask.resize(n, true);
        for c in &self.conjuncts {
            match c {
                Conjunct::Block { op, a, b } => {
                    // Tight branch-free comparison loop over the decoded
                    // morsel: no per-row closure dispatch, autovectorizable.
                    let (a, b) = (self.prog.opnd_i(*a, &eval.i), self.prog.opnd_i(*b, &eval.i));
                    match op {
                        CmpOp::Eq => zip_with(mask, a, b, |m, x, y| *m &= x == y),
                        CmpOp::Ne => zip_with(mask, a, b, |m, x, y| *m &= x != y),
                        CmpOp::Lt => zip_with(mask, a, b, |m, x, y| *m &= x < y),
                        CmpOp::Le => zip_with(mask, a, b, |m, x, y| *m &= x <= y),
                        CmpOp::Gt => zip_with(mask, a, b, |m, x, y| *m &= x > y),
                        CmpOp::Ge => zip_with(mask, a, b, |m, x, y| *m &= x >= y),
                    }
                }
                Conjunct::Code { codes, test } => {
                    let buf = eval.i64s(*codes);
                    match test {
                        CodeTest::Eq { code, eq } => {
                            for (m, &c) in mask.iter_mut().zip(buf) {
                                *m &= (c == *code) == *eq;
                            }
                        }
                        CodeTest::Flags(flags) => {
                            for (m, &c) in mask.iter_mut().zip(buf) {
                                *m &= flags[c as usize];
                            }
                        }
                    }
                }
                Conjunct::Row(k) => {
                    for (i, m) in mask.iter_mut().enumerate() {
                        if *m {
                            *m = k(start + i);
                        }
                    }
                }
            }
        }
        for (i, keep) in mask.iter().enumerate() {
            legobase_storage::metrics::branch_eval();
            if *keep {
                out.push((start + i) as u32);
            }
        }
    }
}

fn flatten_and<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    if let Expr::And(a, b) = e {
        flatten_and(a, out);
        flatten_and(b, out);
    } else {
        out.push(e);
    }
}

/// Tries to compile one conjunct as a dictionary-code test over packed codes
/// (`Conjunct::Code`), mirroring the per-row dictionary kernels exactly:
/// equality pre-resolves the target code, ordering and membership pre-resolve
/// a per-distinct truth table. Returns `None` for every shape the per-row
/// path should keep (plain columns, unresolvable literals, non-string
/// comparisons).
fn code_conjunct(leaf: &Expr, chunk: &Chunk, prog: &mut BlockProg) -> Option<Conjunct> {
    let (i, test) = match leaf {
        Expr::Cmp(op, a, b) => {
            let (op, i, s) = match (a.as_ref(), b.as_ref()) {
                (Expr::Col(i), Expr::Lit(Value::Str(s))) => (*op, *i, s),
                (Expr::Lit(Value::Str(s)), Expr::Col(i)) => (op.flip(), *i, s),
                _ => return None,
            };
            let Column::DictPacked(_, dict) = &chunk.cols[i] else { return None };
            let test = if matches!(op, CmpOp::Eq | CmpOp::Ne) {
                // An unresolvable literal makes the conjunct constant; the
                // per-row path handles that without a scratch buffer.
                let code = dict.code(s)? as i64;
                CodeTest::Eq { code, eq: op == CmpOp::Eq }
            } else {
                let s = s.clone();
                CodeTest::Flags(dict.matching_flags(|v| str_cmp(op, v, &s)))
            };
            (i, test)
        }
        Expr::InList(a, vals) => {
            let Expr::Col(i) = a.as_ref() else { return None };
            let Column::DictPacked(_, dict) = &chunk.cols[*i] else { return None };
            let mut flags = vec![false; dict.len()];
            for v in vals {
                if let Value::Str(s) = v {
                    if let Some(c) = dict.code(s) {
                        flags[c as usize] = true;
                    }
                }
            }
            (*i, CodeTest::Flags(flags))
        }
        _ => return None,
    };
    if chunk.nulls[i].is_some() {
        return None;
    }
    Some(Conjunct::Code { codes: prog.codes(i, chunk)?, test })
}

/// Compiles a predicate for fused morsel-at-a-time evaluation. Returns
/// `None` unless at least one operand batch-unpacks a packed column — when
/// nothing unpacks, the ordinary per-row path is equal or better and stays
/// in charge. Per-morsel batch unpacking beats both the per-row
/// word-compare and per-row flag lookups, so every packed operand the block
/// path understands — integer and date comparisons, dictionary equality,
/// ordering, and membership — joins the block program.
pub fn compile_block_pred(e: &Expr, chunk: &Chunk) -> Option<BlockPred> {
    let mut leaves = Vec::new();
    flatten_and(e, &mut leaves);
    let mut prog = BlockProg::default();
    let mut conjuncts = Vec::new();
    for leaf in leaves {
        if let Some(c) = code_conjunct(leaf, chunk, &mut prog) {
            conjuncts.push(c);
            continue;
        }
        let mark = prog.nodes.len();
        let block = match leaf {
            Expr::Cmp(op, a, b) => match (prog.int_operand(a, chunk), prog.int_operand(b, chunk)) {
                (Some(a), Some(b)) => Some(Conjunct::Block { op: *op, a, b }),
                _ => None,
            },
            _ => None,
        };
        conjuncts.push(block.unwrap_or_else(|| {
            prog.rollback(mark); // drop a half-compiled pair
            Conjunct::Row(compile_bool(leaf, chunk))
        }));
    }
    let unpacks = prog.nodes.iter().any(|n| matches!(n, Node::Int(CodeCol::Packed(_))));
    unpacks.then_some(BlockPred { prog, conjuncts })
}

// ---- block-at-a-time aggregation inputs ----

/// Rows per block of the aggregation fold: every per-node scratch buffer of
/// a block stays cache-resident, and per-node dispatch amortizes over 1024
/// rows.
pub(crate) const BLOCK_ROWS: usize = 1024;

/// The physical row ids of one block of logical rows.
#[derive(Clone, Copy)]
pub(crate) enum Rows<'a> {
    /// `n` consecutive physical rows from `start` (no selection vector).
    Range {
        /// First physical row.
        start: usize,
        /// Row count.
        n: usize,
    },
    /// Selected physical rows, in logical order.
    Sel(&'a [u32]),
}

impl Rows<'_> {
    /// Rows in the block.
    pub(crate) fn len(&self) -> usize {
        match self {
            Rows::Range { n, .. } => *n,
            Rows::Sel(s) => s.len(),
        }
    }

    /// Physical row id of the block's `i`-th row.
    #[inline(always)]
    pub(crate) fn phys(&self, i: usize) -> usize {
        match self {
            Rows::Range { start, .. } => start + i,
            Rows::Sel(s) => s[i] as usize,
        }
    }
}

impl Chunk {
    /// The block of logical rows `start..start + n`.
    pub(crate) fn rows(&self, start: usize, n: usize) -> Rows<'_> {
        match &self.sel {
            Some(s) => Rows::Sel(&s[start..start + n]),
            None => Rows::Range { start, n },
        }
    }
}

/// One node of a [`BlockProg`], evaluated once per block into its own
/// scratch buffer. Every node lives in one lane: `f64` or `i64`.
enum Node {
    /// Float column gather.
    F64(Arc<Vec<f64>>),
    /// Integer-valued column gather (`i64` lane).
    Int(CodeCol),
    /// Float literal (a scalar operand of arithmetic).
    ConstF(f64),
    /// Integer or date literal (a scalar operand of arithmetic).
    ConstI(i64),
    /// `i64 → f64` widening of an integer node (SQL numeric promotion).
    ToF(usize),
    /// Float arithmetic over two `f64`-lane nodes.
    ArithF(ArithOp, usize, usize),
    /// Wrapping integer arithmetic over two `i64`-lane nodes (never `/`).
    ArithI(ArithOp, usize, usize),
}

/// The structural identity of a [`Node`]: equal keys are one node, so a
/// column gathers once per block and a repeated subexpression evaluates once.
#[derive(PartialEq)]
enum NodeKey {
    Col(usize),
    ConstF(u64),
    ConstI(i64),
    ToF(usize),
    Arith(ArithOp, usize, usize),
}

/// A typed block evaluator for aggregate inputs and fused-filter operands:
/// every expression compiles into one shared DAG of column gathers, literals
/// and arithmetic, evaluated node by node over a block of ≤ [`BLOCK_ROWS`]
/// rows into reused scratch. Each output equals the per-row kernel of
/// [`compile_f64`] on every row, bit for bit: the same IEEE operations on
/// the same operands.
#[derive(Default)]
pub(crate) struct BlockProg {
    nodes: Vec<Node>,
    keys: Vec<NodeKey>,
}

/// Per-worker scratch of a [`BlockProg`]: one buffer per node, grown once and
/// reused for every block.
#[derive(Default)]
pub(crate) struct BlockScratch {
    f: Vec<Vec<f64>>,
    i: Vec<Vec<i64>>,
}

impl BlockScratch {
    /// The last evaluated block of an `f64`-lane output.
    pub(crate) fn f64s(&self, id: usize) -> &[f64] {
        &self.f[id]
    }

    /// The last evaluated block of an `i64`-lane output.
    pub(crate) fn i64s(&self, id: usize) -> &[i64] {
        &self.i[id]
    }
}

/// An arithmetic operand: a node's block buffer, or a literal scalar.
#[derive(Clone, Copy)]
enum Opnd<'a, T> {
    Vec(&'a [T]),
    Scalar(T),
}

/// One typed loop over a block (autovectorizable): `f(out[i], a[i], b[i])`
/// with literal operands as scalars.
#[inline(always)]
fn zip_with<T: Copy, O>(out: &mut [O], a: Opnd<T>, b: Opnd<T>, f: impl Fn(&mut O, T, T)) {
    match (a, b) {
        (Opnd::Vec(x), Opnd::Vec(y)) => {
            for ((o, &x), &y) in out.iter_mut().zip(x).zip(y) {
                f(o, x, y);
            }
        }
        (Opnd::Vec(x), Opnd::Scalar(y)) => {
            for (o, &x) in out.iter_mut().zip(x) {
                f(o, x, y);
            }
        }
        (Opnd::Scalar(x), Opnd::Vec(y)) => {
            for (o, &y) in out.iter_mut().zip(y) {
                f(o, x, y);
            }
        }
        (Opnd::Scalar(x), Opnd::Scalar(y)) => {
            for o in out.iter_mut() {
                f(o, x, y);
            }
        }
    }
}

fn arith_f(op: ArithOp, out: &mut [f64], a: Opnd<f64>, b: Opnd<f64>) {
    match op {
        ArithOp::Add => zip_with(out, a, b, |o, x, y| *o = x + y),
        ArithOp::Sub => zip_with(out, a, b, |o, x, y| *o = x - y),
        ArithOp::Mul => zip_with(out, a, b, |o, x, y| *o = x * y),
        ArithOp::Div => zip_with(out, a, b, |o, x, y| *o = x / y),
    }
}

fn arith_i(op: ArithOp, out: &mut [i64], a: Opnd<i64>, b: Opnd<i64>) {
    match op {
        ArithOp::Add => zip_with(out, a, b, |o, x, y| *o = x.wrapping_add(y)),
        ArithOp::Sub => zip_with(out, a, b, |o, x, y| *o = x.wrapping_sub(y)),
        ArithOp::Mul => zip_with(out, a, b, |o, x, y| *o = x.wrapping_mul(y)),
        ArithOp::Div => unreachable!("integer division never block-compiles"),
    }
}

impl BlockProg {
    /// True when the program has nothing to evaluate.
    pub(crate) fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Compiles `e` as an output in the `i64` lane (`int`) or the `f64` lane
    /// and returns its node id for [`BlockScratch::f64s`]/[`BlockScratch::i64s`].
    /// Returns `None`, leaving the program unchanged, when `e` is not
    /// block-evaluable: nullable or string columns, integer division, any
    /// node other than a column, literal or arithmetic — or a constant, since
    /// literals stay scalar operands and never fill a buffer.
    pub(crate) fn output(&mut self, e: &Expr, chunk: &Chunk, int: bool) -> Option<usize> {
        let mark = self.nodes.len();
        let id = self
            .node(e, chunk)
            .and_then(|id| if int { self.is_int(id).then_some(id) } else { Some(self.widen(id)) })
            .filter(|&id| !matches!(self.nodes[id], Node::ConstF(_) | Node::ConstI(_)));
        if id.is_none() {
            self.rollback(mark);
        }
        id
    }

    /// Compiles `e` as an `i64`-lane comparison operand, literals included;
    /// on `None` the caller rolls back.
    fn int_operand(&mut self, e: &Expr, chunk: &Chunk) -> Option<usize> {
        self.node(e, chunk).filter(|&id| self.is_int(id))
    }

    /// An `f64`-lane operand: a literal's scalar, else the node's buffer.
    fn opnd_f<'s>(&self, id: usize, bufs: &'s [Vec<f64>]) -> Opnd<'s, f64> {
        match self.nodes[id] {
            Node::ConstF(v) => Opnd::Scalar(v),
            _ => Opnd::Vec(&bufs[id]),
        }
    }

    /// An `i64`-lane operand: a literal's scalar, else the node's buffer.
    fn opnd_i<'s>(&self, id: usize, bufs: &'s [Vec<i64>]) -> Opnd<'s, i64> {
        match self.nodes[id] {
            Node::ConstI(v) => Opnd::Scalar(v),
            _ => Opnd::Vec(&bufs[id]),
        }
    }

    /// Compiles the codes of integer-valued column `c` — dictionary codes
    /// included — as an `i64`-lane output.
    fn codes(&mut self, c: usize, chunk: &Chunk) -> Option<usize> {
        let col = code_col(c, chunk)?;
        Some(self.intern(NodeKey::Col(c), Node::Int(col)))
    }

    /// Drops every node compiled since `mark` (nothing earlier refers to
    /// them).
    fn rollback(&mut self, mark: usize) {
        self.nodes.truncate(mark);
        self.keys.truncate(mark);
    }

    fn is_int(&self, id: usize) -> bool {
        matches!(self.nodes[id], Node::Int(_) | Node::ConstI(_) | Node::ArithI(..))
    }

    fn intern(&mut self, key: NodeKey, node: Node) -> usize {
        if let Some(id) = self.keys.iter().position(|k| *k == key) {
            return id;
        }
        self.keys.push(key);
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Widens an `i64`-lane node to `f64` (literals fold at compile time).
    fn widen(&mut self, id: usize) -> usize {
        match self.nodes[id] {
            Node::ConstI(v) => {
                self.intern(NodeKey::ConstF((v as f64).to_bits()), Node::ConstF(v as f64))
            }
            _ if self.is_int(id) => self.intern(NodeKey::ToF(id), Node::ToF(id)),
            _ => id,
        }
    }

    fn node(&mut self, e: &Expr, chunk: &Chunk) -> Option<usize> {
        let (key, node) = match e {
            Expr::Col(c) => {
                if chunk.nulls[*c].is_some() {
                    return None;
                }
                let node = match &chunk.cols[*c] {
                    Column::F64(v) => Node::F64(Arc::clone(v)),
                    Column::Dict(..) | Column::DictPacked(..) => return None,
                    col => Node::Int(CodeCol::of(col)?),
                };
                (NodeKey::Col(*c), node)
            }
            Expr::Lit(Value::Int(v)) => (NodeKey::ConstI(*v), Node::ConstI(*v)),
            Expr::Lit(Value::Date(d)) => (NodeKey::ConstI(d.0 as i64), Node::ConstI(d.0 as i64)),
            Expr::Lit(Value::Float(v)) => (NodeKey::ConstF(v.to_bits()), Node::ConstF(*v)),
            Expr::Arith(op, a, b) => {
                let (a, b) = (self.node(a, chunk)?, self.node(b, chunk)?);
                if e.ty(&chunk.schema) == Type::Int {
                    if *op == ArithOp::Div || !self.is_int(a) || !self.is_int(b) {
                        return None;
                    }
                    if let (Node::ConstI(x), Node::ConstI(y)) = (&self.nodes[a], &self.nodes[b]) {
                        let mut v = [0i64];
                        arith_i(*op, &mut v, Opnd::Scalar(*x), Opnd::Scalar(*y));
                        return Some(self.intern(NodeKey::ConstI(v[0]), Node::ConstI(v[0])));
                    }
                    (NodeKey::Arith(*op, a, b), Node::ArithI(*op, a, b))
                } else {
                    let (a, b) = (self.widen(a), self.widen(b));
                    if let (Node::ConstF(x), Node::ConstF(y)) = (&self.nodes[a], &self.nodes[b]) {
                        let mut v = [0f64];
                        arith_f(*op, &mut v, Opnd::Scalar(*x), Opnd::Scalar(*y));
                        return Some(
                            self.intern(NodeKey::ConstF(v[0].to_bits()), Node::ConstF(v[0])),
                        );
                    }
                    (NodeKey::Arith(*op, a, b), Node::ArithF(*op, a, b))
                }
            }
            _ => return None,
        };
        Some(self.intern(key, node))
    }

    /// Evaluates every node over one block, in node order (operands always
    /// precede their users).
    pub(crate) fn eval(&self, rows: Rows, s: &mut BlockScratch) {
        let n = rows.len();
        s.f.resize_with(self.nodes.len(), Vec::new);
        s.i.resize_with(self.nodes.len(), Vec::new);
        for (id, node) in self.nodes.iter().enumerate() {
            let (f_done, f_rest) = s.f.split_at_mut(id);
            let (i_done, i_rest) = s.i.split_at_mut(id);
            let (fo, io) = (&mut f_rest[0], &mut i_rest[0]);
            match node {
                Node::F64(v) => {
                    fo.clear();
                    match rows {
                        Rows::Range { start, n } => fo.extend_from_slice(&v[start..start + n]),
                        Rows::Sel(sel) => fo.extend(sel.iter().map(|&r| v[r as usize])),
                    }
                }
                Node::Int(c) => {
                    io.resize(n, 0);
                    c.read(rows, io);
                }
                // Literals are scalar operands; they never fill a buffer.
                Node::ConstF(_) | Node::ConstI(_) => {}
                Node::ToF(a) => {
                    fo.clear();
                    fo.extend(i_done[*a].iter().map(|&x| x as f64));
                }
                Node::ArithF(op, a, b) => {
                    fo.resize(n, 0.0);
                    arith_f(*op, fo, self.opnd_f(*a, f_done), self.opnd_f(*b, f_done));
                }
                Node::ArithI(op, a, b) => {
                    io.resize(n, 0);
                    arith_i(*op, io, self.opnd_i(*a, i_done), self.opnd_i(*b, i_done));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legobase_storage::column::{ColumnSpec, ColumnTable};
    use legobase_storage::{Date, DictKind, RowTable, Type};

    fn chunk(dict: Option<DictKind>) -> Chunk {
        let schema = Schema::of(&[
            ("k", Type::Int),
            ("p", Type::Float),
            ("mode", Type::Str),
            ("d", Type::Date),
        ]);
        let mut rt = RowTable::new(schema.clone());
        let modes = ["MAIL", "SHIP", "AIR", "REG AIR"];
        for i in 0..8i64 {
            rt.push(vec![
                Value::Int(i),
                Value::Float(i as f64 / 2.0),
                Value::from(modes[i as usize % 4]),
                Value::Date(Date::from_ymd(1993 + (i % 3) as i32, 1, 1)),
            ]);
        }
        let spec =
            ColumnSpec { dictionaries: dict.map(|k| vec![(2, k)]).unwrap_or_default(), used: None };
        let ct = ColumnTable::from_rows(&rt).project(&spec);
        Chunk {
            schema,
            nulls: vec![None; ct.columns.len()],
            cols: ct.columns,
            sel: None,
            total: ct.len,
            base: None,
        }
    }

    /// Re-encodes every encodable column in place (packed ints/dates/codes).
    fn encode_chunk(mut ch: Chunk) -> Chunk {
        let stats = legobase_storage::ColumnStats::new(0, None, None);
        for c in ch.cols.iter_mut() {
            if let Some(enc) = c.encode(&stats) {
                *c = enc;
            }
        }
        ch
    }

    /// Kernels must agree with the interpreter on every row, with and
    /// without dictionary encoding.
    #[test]
    fn kernels_agree_with_interpreter() {
        let exprs = vec![
            Expr::and(
                Expr::ge(Expr::col(0), Expr::lit(2i64)),
                Expr::lt(Expr::col(1), Expr::lit(3.0)),
            ),
            Expr::eq(Expr::col(2), Expr::lit("SHIP")),
            Expr::ne(Expr::col(2), Expr::lit("MAIL")),
            Expr::eq(Expr::col(2), Expr::lit("NOPE")),
            Expr::starts_with(Expr::col(2), "REG"),
            Expr::ends_with(Expr::col(2), "AIR"),
            Expr::contains(Expr::col(2), "HI"),
            Expr::in_list(Expr::col(2), vec!["AIR".into(), "SHIP".into()]),
            Expr::in_list(Expr::col(0), vec![Value::Int(1), Value::Int(5)]),
            Expr::lt(Expr::col(3), Expr::lit(Date::from_ymd(1994, 6, 1))),
            Expr::ge(Expr::col(2), Expr::lit("MAIL")),
            Expr::word_seq(Expr::col(2), "REG", "AIR"),
            Expr::or(
                Expr::not(Expr::eq(Expr::col(2), Expr::lit("AIR"))),
                Expr::eq(Expr::col(0), Expr::lit(2i64)),
            ),
        ];
        for dict in
            [None, Some(DictKind::Normal), Some(DictKind::Ordered), Some(DictKind::WordToken)]
        {
            for encoded in [false, true] {
                let ch = if encoded { encode_chunk(chunk(dict)) } else { chunk(dict) };
                for e in &exprs {
                    let k = compile_bool(e, &ch);
                    for r in 0..ch.total {
                        let row = ch.row_values(r);
                        assert_eq!(
                            k(r),
                            interp::eval_pred(e, &row),
                            "expr {e} row {r} dict {dict:?} encoded {encoded}"
                        );
                    }
                }
            }
        }
    }

    /// The packed fast path must clamp out-of-domain literals per operator
    /// and agree with plain evaluation inside the domain, including when the
    /// literal sits on the left.
    #[test]
    fn packed_comparisons_match_plain() {
        let plain = chunk(None);
        let packed = encode_chunk(chunk(None));
        assert!(matches!(packed.cols[0], Column::I64Packed(_)));
        assert!(matches!(packed.cols[3], Column::DatePacked(_)));
        let mut exprs = Vec::new();
        // Column values are 0..8; -3 and 99 are outside the packed domain.
        for lit in [-3i64, 0, 4, 7, 99] {
            for (a, b) in [
                (Expr::col(0), Expr::lit(lit)),
                (Expr::lit(lit), Expr::col(0)), // literal on the left
            ] {
                for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                    exprs.push(Expr::Cmp(op, Box::new(a.clone()), Box::new(b.clone())));
                }
            }
        }
        exprs.push(Expr::lt(Expr::col(3), Expr::lit(Date::from_ymd(1994, 6, 1))));
        exprs.push(Expr::ge(Expr::col(3), Expr::lit(Date::from_ymd(1800, 1, 1))));
        for e in &exprs {
            let (kp, ke) = (compile_bool(e, &plain), compile_bool(e, &packed));
            for r in 0..plain.total {
                assert_eq!(kp(r), ke(r), "expr {e} row {r}");
            }
        }
    }

    #[test]
    fn numeric_kernels() {
        let ch = chunk(None);
        let e = Expr::mul(Expr::col(1), Expr::sub(Expr::lit(1.0), Expr::col(1)));
        let k = compile_f64(&e, &ch);
        for r in 0..ch.total {
            let x = r as f64 / 2.0;
            assert!((k(r) - x * (1.0 - x)).abs() < 1e-12);
        }
        let y = compile_f64(&Expr::year(Expr::col(3)), &ch);
        assert_eq!(y(0), 1993.0);
        assert_eq!(y(1), 1994.0);
        let c = compile_f64(
            &Expr::case(Expr::lt(Expr::col(0), Expr::lit(4i64)), Expr::lit(1.0), Expr::lit(0.0)),
            &ch,
        );
        assert_eq!(c(0), 1.0);
        assert_eq!(c(7), 0.0);
    }

    #[test]
    fn code_kernels_cover_groupable_kinds() {
        let ch = chunk(Some(DictKind::Normal));
        assert_eq!(code_kernel(0, &ch).unwrap()(3), 3);
        let dk = code_kernel(2, &ch).unwrap();
        assert_eq!(dk(0), 0); // first distinct value gets code 0
        assert_eq!(dk(4), 0); // same mode repeats
        assert!(code_kernel(2, &chunk(None)).is_none()); // plain strings
        assert!(code_kernel(3, &ch).is_some()); // dates

        // Packed layouts produce the same key codes as plain ones.
        let enc = encode_chunk(chunk(Some(DictKind::Normal)));
        for col in [0usize, 2, 3] {
            let (kp, ke) = (code_kernel(col, &ch).unwrap(), code_kernel(col, &enc).unwrap());
            for r in 0..ch.total {
                assert_eq!(kp(r), ke(r), "col {col} row {r}");
            }
        }
    }

    /// The fused block path must select exactly the rows the per-row path
    /// selects, at every morsel split, and must decline when nothing fuses.
    #[test]
    fn block_pred_matches_per_row_path() {
        let ch = encode_chunk(chunk(Some(DictKind::Normal)));
        assert!(matches!(ch.cols[0], Column::I64Packed(_)));
        // Each predicate contains at least one packed operand the block path
        // understands (comparing ints to day counts is semantically
        // meaningless but exercises the block loop) plus assorted row
        // conjuncts.
        let exprs = vec![
            Expr::lt(Expr::col(0), Expr::col(3)),
            Expr::and(
                Expr::ge(Expr::col(0), Expr::lit(1i64)), // packed lit: fuses too
                Expr::lt(Expr::col(0), Expr::col(3)),
            ),
            Expr::and(
                Expr::lt(Expr::col(0), Expr::col(3)),
                Expr::eq(Expr::col(2), Expr::lit("SHIP")), // dict eq: Code conjunct
            ),
            Expr::and(
                Expr::lt(Expr::col(1), Expr::lit(2.5)), // float: row conjunct
                Expr::gt(Expr::col(3), Expr::col(0)),
            ),
            // Dict membership and ordering compile as Code conjuncts.
            Expr::in_list(Expr::col(2), vec![Value::from("SHIP"), Value::from("MAIL")]),
            Expr::and(
                Expr::ge(Expr::col(2), Expr::lit("MAIL")),
                Expr::gt(Expr::col(0), Expr::lit(0i64)),
            ),
        ];
        for e in &exprs {
            let Some(bp) = compile_block_pred(e, &ch) else {
                panic!("expr {e} should fuse");
            };
            let per_row = compile_bool(e, &ch);
            let expect: Vec<u32> =
                (0..ch.total).filter(|&r| per_row(r)).map(|r| r as u32).collect();
            // Every split of the rows into "morsels" yields the same sel.
            for step in [1usize, 3, ch.total] {
                let mut scratch = bp.scratch();
                let mut got = Vec::new();
                let mut start = 0;
                while start < ch.total {
                    let n = step.min(ch.total - start);
                    bp.eval(&mut scratch, start, n, &mut got);
                    start += n;
                }
                assert_eq!(got, expect, "expr {e} step {step}");
            }
        }
        // A plain (unencoded) chunk has nothing to batch-unpack, so the
        // block compiler declines and the per-row path stays in charge.
        let plain = chunk(None);
        for e in &exprs {
            assert!(compile_block_pred(e, &plain).is_none(), "expr {e} on plain chunk");
        }
        // An unresolvable dictionary literal makes the conjunct constant;
        // alone it unpacks nothing, so the block compiler declines.
        let unresolvable = Expr::eq(Expr::col(2), Expr::lit("NO-SUCH-MODE"));
        assert!(compile_block_pred(&unresolvable, &ch).is_none());
    }

    #[test]
    fn null_masks_respected() {
        let mut ch = chunk(None);
        let mask = vec![false, true, false, true, false, true, false, true];
        ch.nulls[0] = Some(Arc::new(mask));
        let is_null = compile_bool(&Expr::is_null(Expr::col(0)), &ch);
        assert!(!is_null(0) && is_null(1));
        // Comparison with a NULL operand is false.
        let cmp = compile_bool(&Expr::eq(Expr::col(0), Expr::lit(1i64)), &ch);
        assert!(!cmp(1) && !cmp(0));
        let v = compile_value(&Expr::col(0), &ch);
        assert!(v(1).is_null());
        assert_eq!(v(2), Value::Int(2));
    }

    #[test]
    fn selection_mapping() {
        let mut ch = chunk(None);
        ch.sel = Some(Arc::new(vec![6, 2, 4]));
        assert_eq!(ch.len(), 3);
        assert_eq!(ch.phys(1), 2);
        assert_eq!(ch.row_values(0)[0], Value::Int(6));
        let phys: Vec<usize> = ch.physical_rows().collect();
        assert_eq!(phys, vec![6, 2, 4]);
    }
}

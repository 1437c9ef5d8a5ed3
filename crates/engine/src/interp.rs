//! Tree-walking expression interpretation over generic tuples.
//!
//! This is the "no compilation" evaluation mode: every operator application
//! dispatches on the expression node *and* on the runtime type of its
//! operands, exactly the indirection a classical interpreted engine (the DBX
//! baseline) and the JVM-hosted `*Scala` configurations pay per tuple.
//!
//! NULL handling follows the simplified semantics the TPC-H workload needs:
//! any comparison or arithmetic with a NULL operand yields `false`/NULL, and
//! `IS NULL` observes it. NULLs arise from left-outer joins, empty
//! aggregates, and integer division by zero.
//!
//! Integer arithmetic is SQL's, in every engine: `Int ∘ Int` evaluates in
//! `i64` (wrapping on overflow), `/` truncates toward zero, and a zero
//! divisor (or `i64::MIN / -1`) yields NULL rather than a panic or an `f64`
//! quotient. Any float operand promotes the operation to `f64`. The compiled
//! kernels (`crate::kernel`) and the closure compiler (`crate::closure`)
//! implement exactly [`arith`].

use crate::expr::{ArithOp, CmpOp, Expr};
use legobase_storage::Value;
use std::cmp::Ordering;

/// Evaluates `expr` against a tuple.
pub fn eval(expr: &Expr, row: &[Value]) -> Value {
    match expr {
        Expr::Col(i) => row[*i].clone(),
        Expr::Lit(v) => v.clone(),
        Expr::Cmp(op, a, b) => {
            let (va, vb) = (eval(a, row), eval(b, row));
            if va.is_null() || vb.is_null() {
                return Value::Bool(false);
            }
            let ord = va.cmp(&vb);
            Value::Bool(match op {
                CmpOp::Eq => ord == Ordering::Equal,
                CmpOp::Ne => ord != Ordering::Equal,
                CmpOp::Lt => ord == Ordering::Less,
                CmpOp::Le => ord != Ordering::Greater,
                CmpOp::Gt => ord == Ordering::Greater,
                CmpOp::Ge => ord != Ordering::Less,
            })
        }
        Expr::Arith(op, a, b) => arith(*op, &eval(a, row), &eval(b, row)),
        Expr::And(a, b) => Value::Bool(eval(a, row).as_bool() && eval(b, row).as_bool()),
        Expr::Or(a, b) => Value::Bool(eval(a, row).as_bool() || eval(b, row).as_bool()),
        Expr::Not(a) => Value::Bool(!eval(a, row).as_bool()),
        Expr::StartsWith(a, p) => str_pred(eval(a, row), |s| s.starts_with(p.as_str())),
        Expr::EndsWith(a, p) => str_pred(eval(a, row), |s| s.ends_with(p.as_str())),
        Expr::Contains(a, p) => str_pred(eval(a, row), |s| s.contains(p.as_str())),
        Expr::ContainsWordSeq(a, w1, w2) => str_pred(eval(a, row), |s| word_seq(s, w1, w2)),
        Expr::Substr(a, start, len) => {
            let v = eval(a, row);
            if v.is_null() {
                return Value::Null;
            }
            let s = v.as_str();
            let from = (start - 1).min(s.len());
            let to = (from + len).min(s.len());
            Value::Str(s[from..to].to_string())
        }
        Expr::InList(a, vals) => {
            let v = eval(a, row);
            if v.is_null() {
                return Value::Bool(false);
            }
            Value::Bool(vals.contains(&v))
        }
        Expr::Case(c, t, e) => {
            if eval(c, row).as_bool() {
                eval(t, row)
            } else {
                eval(e, row)
            }
        }
        Expr::IsNull(a) => Value::Bool(eval(a, row).is_null()),
        Expr::Year(a) => {
            let v = eval(a, row);
            if v.is_null() {
                return Value::Null;
            }
            Value::Int(v.as_date().year() as i64)
        }
    }
}

/// Applies an arithmetic operator: NULL in, NULL out; `Int ∘ Int` stays
/// integral (wrapping, division truncating toward zero, a zero divisor giving
/// NULL); any float operand promotes both sides to `f64`.
pub fn arith(op: ArithOp, va: &Value, vb: &Value) -> Value {
    if va.is_null() || vb.is_null() {
        return Value::Null;
    }
    match (va, vb) {
        (Value::Int(x), Value::Int(y)) => match op {
            ArithOp::Add => Value::Int(x.wrapping_add(*y)),
            ArithOp::Sub => Value::Int(x.wrapping_sub(*y)),
            ArithOp::Mul => Value::Int(x.wrapping_mul(*y)),
            ArithOp::Div => x.checked_div(*y).map_or(Value::Null, Value::Int),
        },
        _ => {
            let (x, y) = (va.as_float(), vb.as_float());
            Value::Float(match op {
                ArithOp::Add => x + y,
                ArithOp::Sub => x - y,
                ArithOp::Mul => x * y,
                ArithOp::Div => x / y,
            })
        }
    }
}

/// Word-sequence match: `w1` occurs and `w2` occurs after it (whole words).
pub fn word_seq(s: &str, w1: &str, w2: &str) -> bool {
    let mut words = s.split(|c: char| !c.is_alphanumeric()).filter(|w| !w.is_empty());
    for w in words.by_ref() {
        if w == w1 {
            break;
        }
    }
    words.any(|w| w == w2)
}

fn str_pred(v: Value, f: impl Fn(&str) -> bool) -> Value {
    if v.is_null() {
        Value::Bool(false)
    } else {
        Value::Bool(f(v.as_str()))
    }
}

/// Convenience: evaluates a predicate expression to a boolean.
#[inline]
pub fn eval_pred(expr: &Expr, row: &[Value]) -> bool {
    eval(expr, row).as_bool()
}

#[cfg(test)]
mod tests {
    use super::*;
    use legobase_storage::Date;

    fn row() -> Vec<Value> {
        vec![
            Value::Int(10),
            Value::Float(2.5),
            Value::Str("PROMO BRUSHED TIN".into()),
            Value::Date(Date::from_ymd(1995, 3, 15)),
            Value::Null,
        ]
    }

    #[test]
    fn comparisons_and_arithmetic() {
        let r = row();
        assert!(eval_pred(&Expr::lt(Expr::col(0), Expr::lit(11i64)), &r));
        assert!(eval_pred(&Expr::ge(Expr::col(1), Expr::lit(2.5)), &r));
        // int/float promotion
        assert_eq!(eval(&Expr::mul(Expr::col(0), Expr::col(1)), &r), Value::Float(25.0));
        assert_eq!(eval(&Expr::add(Expr::col(0), Expr::lit(5i64)), &r), Value::Int(15));
        assert_eq!(eval(&Expr::div(Expr::lit(7i64), Expr::lit(2i64)), &r), Value::Int(3));
        assert_eq!(eval(&Expr::div(Expr::lit(-7i64), Expr::lit(2i64)), &r), Value::Int(-3));
        // Integer division by zero is NULL, not a panic.
        assert_eq!(eval(&Expr::div(Expr::col(0), Expr::lit(0i64)), &r), Value::Null);
        assert_eq!(eval(&Expr::div(Expr::lit(i64::MIN), Expr::lit(-1i64)), &r), Value::Null);
        assert_eq!(
            eval(&Expr::div(Expr::col(1), Expr::lit(0i64)), &r),
            Value::Float(f64::INFINITY)
        );
    }

    #[test]
    fn string_operations() {
        let r = row();
        assert!(eval_pred(&Expr::starts_with(Expr::col(2), "PROMO"), &r));
        assert!(eval_pred(&Expr::ends_with(Expr::col(2), "TIN"), &r));
        assert!(eval_pred(&Expr::contains(Expr::col(2), "BRUSHED"), &r));
        assert!(!eval_pred(&Expr::contains(Expr::col(2), "POLISHED"), &r));
        assert_eq!(eval(&Expr::substr(Expr::col(2), 1, 5), &r), Value::from("PROMO"));
        assert_eq!(eval(&Expr::substr(Expr::col(2), 7, 100), &r), Value::from("BRUSHED TIN"));
        assert!(eval_pred(&Expr::word_seq(Expr::col(2), "PROMO", "TIN"), &r));
        assert!(!eval_pred(&Expr::word_seq(Expr::col(2), "TIN", "PROMO"), &r));
    }

    #[test]
    fn null_semantics() {
        let r = row();
        assert!(!eval_pred(&Expr::eq(Expr::col(4), Expr::col(4)), &r));
        assert!(eval_pred(&Expr::is_null(Expr::col(4)), &r));
        assert!(!eval_pred(&Expr::is_null(Expr::col(0)), &r));
        assert_eq!(eval(&Expr::add(Expr::col(4), Expr::lit(1i64)), &r), Value::Null);
    }

    #[test]
    fn case_in_year() {
        let r = row();
        let c =
            Expr::case(Expr::eq(Expr::col(0), Expr::lit(10i64)), Expr::lit(1i64), Expr::lit(0i64));
        assert_eq!(eval(&c, &r), Value::Int(1));
        assert_eq!(eval(&Expr::year(Expr::col(3)), &r), Value::Int(1995));
        assert!(eval_pred(
            &Expr::in_list(Expr::col(2), vec!["X".into(), "PROMO BRUSHED TIN".into()]),
            &r
        ));
    }

    #[test]
    fn word_seq_boundaries() {
        assert!(word_seq("a special b requests c", "special", "requests"));
        assert!(!word_seq("specialx requests", "special", "requests"));
        assert!(!word_seq("requests special", "special", "requests"));
        assert!(!word_seq("", "special", "requests"));
    }
}

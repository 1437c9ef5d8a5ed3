//! Expressions compiled to nested Rust closures.
//!
//! This is the engine-level analog of operator inlining in query compilers:
//! the expression tree is walked **once** at compile time and turned into a
//! closure graph, so per-tuple evaluation no longer dispatches on expression
//! node kinds (it still dispatches on runtime value types — removing that too
//! is what the specialized executor in [`crate::specialized`] does).

use crate::expr::{CmpOp, Expr};
use crate::interp::word_seq;
use legobase_storage::Value;
use std::cmp::Ordering;

/// A compiled scalar expression.
pub type Compiled = Box<dyn Fn(&[Value]) -> Value>;

/// A compiled predicate.
pub type CompiledPred = Box<dyn Fn(&[Value]) -> bool>;

/// Compiles an expression to a closure with the same semantics as
/// [`crate::interp::eval`].
pub fn compile(expr: &Expr) -> Compiled {
    match expr {
        Expr::Col(i) => {
            let i = *i;
            Box::new(move |row| row[i].clone())
        }
        Expr::Lit(v) => {
            let v = v.clone();
            Box::new(move |_| v.clone())
        }
        Expr::Cmp(op, a, b) => {
            let (fa, fb) = (compile(a), compile(b));
            let op = *op;
            Box::new(move |row| {
                let (va, vb) = (fa(row), fb(row));
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
            })
        }
        Expr::Arith(op, a, b) => {
            let (fa, fb) = (compile(a), compile(b));
            let op = *op;
            Box::new(move |row| crate::interp::arith(op, &fa(row), &fb(row)))
        }
        Expr::And(a, b) => {
            let (fa, fb) = (compile_pred(a), compile_pred(b));
            Box::new(move |row| Value::Bool(fa(row) && fb(row)))
        }
        Expr::Or(a, b) => {
            let (fa, fb) = (compile_pred(a), compile_pred(b));
            Box::new(move |row| Value::Bool(fa(row) || fb(row)))
        }
        Expr::Not(a) => {
            let fa = compile_pred(a);
            Box::new(move |row| Value::Bool(!fa(row)))
        }
        Expr::StartsWith(a, p) => str_pred(a, p.clone(), |s, p| s.starts_with(p)),
        Expr::EndsWith(a, p) => str_pred(a, p.clone(), |s, p| s.ends_with(p)),
        Expr::Contains(a, p) => str_pred(a, p.clone(), |s, p| s.contains(p)),
        Expr::ContainsWordSeq(a, w1, w2) => {
            let fa = compile(a);
            let (w1, w2) = (w1.clone(), w2.clone());
            Box::new(move |row| {
                let v = fa(row);
                Value::Bool(!v.is_null() && word_seq(v.as_str(), &w1, &w2))
            })
        }
        Expr::Substr(a, start, len) => {
            let fa = compile(a);
            let (start, len) = (*start, *len);
            Box::new(move |row| {
                let v = fa(row);
                if v.is_null() {
                    return Value::Null;
                }
                let s = v.as_str();
                let from = (start - 1).min(s.len());
                let to = (from + len).min(s.len());
                Value::Str(s[from..to].to_string())
            })
        }
        Expr::InList(a, vals) => {
            let fa = compile(a);
            let vals = vals.clone();
            Box::new(move |row| {
                let v = fa(row);
                Value::Bool(!v.is_null() && vals.contains(&v))
            })
        }
        Expr::Case(c, t, e) => {
            let (fc, ft, fe) = (compile_pred(c), compile(t), compile(e));
            Box::new(move |row| if fc(row) { ft(row) } else { fe(row) })
        }
        Expr::IsNull(a) => {
            let fa = compile(a);
            Box::new(move |row| Value::Bool(fa(row).is_null()))
        }
        Expr::Year(a) => {
            let fa = compile(a);
            Box::new(move |row| {
                let v = fa(row);
                if v.is_null() {
                    Value::Null
                } else {
                    Value::Int(v.as_date().year() as i64)
                }
            })
        }
    }
}

/// Compiles a predicate expression directly to a boolean closure.
pub fn compile_pred(expr: &Expr) -> CompiledPred {
    let f = compile(expr);
    Box::new(move |row| f(row).as_bool())
}

fn str_pred(a: &Expr, pattern: String, test: impl Fn(&str, &str) -> bool + 'static) -> Compiled {
    let fa = compile(a);
    Box::new(move |row| {
        let v = fa(row);
        Value::Bool(!v.is_null() && test(v.as_str(), &pattern))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::eval;
    use legobase_storage::Date;

    /// The closure compiler must agree with the interpreter on every
    /// expression form.
    #[test]
    fn agrees_with_interpreter() {
        let row = vec![
            Value::Int(7),
            Value::Float(0.5),
            Value::Str("special pending requests".into()),
            Value::Date(Date::from_ymd(1994, 2, 3)),
            Value::Null,
        ];
        let exprs = vec![
            Expr::add(Expr::col(0), Expr::lit(3i64)),
            Expr::mul(Expr::col(1), Expr::sub(Expr::lit(1.0), Expr::col(1))),
            Expr::and(
                Expr::le(Expr::col(0), Expr::lit(7i64)),
                Expr::ne(Expr::col(2), Expr::lit("x")),
            ),
            Expr::or(Expr::lit(false), Expr::gt(Expr::col(1), Expr::lit(0.4))),
            Expr::not(Expr::lit(false)),
            Expr::starts_with(Expr::col(2), "spec"),
            Expr::ends_with(Expr::col(2), "requests"),
            Expr::contains(Expr::col(2), "pending"),
            Expr::word_seq(Expr::col(2), "special", "requests"),
            Expr::substr(Expr::col(2), 9, 7),
            Expr::in_list(Expr::col(0), vec![Value::Int(5), Value::Int(7)]),
            Expr::case(Expr::lt(Expr::col(0), Expr::lit(10i64)), Expr::lit(1i64), Expr::lit(0i64)),
            Expr::is_null(Expr::col(4)),
            Expr::is_null(Expr::col(0)),
            Expr::year(Expr::col(3)),
            Expr::eq(Expr::col(4), Expr::lit(1i64)),
            Expr::add(Expr::col(4), Expr::col(0)),
        ];
        for e in exprs {
            let compiled = compile(&e);
            assert_eq!(compiled(&row), eval(&e, &row), "mismatch for {e}");
        }
    }
}

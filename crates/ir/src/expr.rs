//! Side-effect-free expressions over per-thread locals.
//!
//! Expressions deliberately cannot read shared memory: a shared read must be
//! an explicit `Load` operation so that the runtime can treat it as a
//! (potentially) visible operation and the race detector can observe it.

use crate::program::LocalId;
use std::fmt;

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical negation: non-zero becomes 0, zero becomes 1.
    Not,
}

/// Binary operators. Comparison and logical operators produce 0 or 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Wrapping division; division by zero yields 0 (documented total semantics).
    Div,
    /// Remainder; remainder by zero yields 0.
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// Logical and over truthiness (non-zero = true).
    And,
    /// Logical or over truthiness.
    Or,
    Min,
    Max,
}

/// An expression tree evaluated against a thread's local slots.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Integer constant.
    Const(i64),
    /// Value of a local slot.
    Local(LocalId),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Evaluate the expression against the given local slots.
    ///
    /// Reading a local slot that does not exist yields 0; arithmetic wraps.
    /// These total semantics keep the interpreter free of error paths for
    /// what are always programmer mistakes in benchmark construction (they are
    /// caught by `Program::validate` instead).
    pub fn eval(&self, locals: &[i64]) -> i64 {
        match self {
            Expr::Const(v) => *v,
            Expr::Local(l) => locals.get(l.index()).copied().unwrap_or(0),
            Expr::Unary(op, e) => {
                let v = e.eval(locals);
                match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::Not => i64::from(v == 0),
                }
            }
            Expr::Binary(op, a, b) => {
                let x = a.eval(locals);
                let y = b.eval(locals);
                match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div => {
                        if y == 0 {
                            0
                        } else {
                            x.wrapping_div(y)
                        }
                    }
                    BinOp::Rem => {
                        if y == 0 {
                            0
                        } else {
                            x.wrapping_rem(y)
                        }
                    }
                    BinOp::Eq => i64::from(x == y),
                    BinOp::Ne => i64::from(x != y),
                    BinOp::Lt => i64::from(x < y),
                    BinOp::Le => i64::from(x <= y),
                    BinOp::Gt => i64::from(x > y),
                    BinOp::Ge => i64::from(x >= y),
                    BinOp::And => i64::from(x != 0 && y != 0),
                    BinOp::Or => i64::from(x != 0 || y != 0),
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                }
            }
        }
    }

    /// True when evaluation of the expression never reads any local slot.
    pub fn is_constant(&self) -> bool {
        match self {
            Expr::Const(_) => true,
            Expr::Local(_) => false,
            Expr::Unary(_, e) => e.is_constant(),
            Expr::Binary(_, a, b) => a.is_constant() && b.is_constant(),
        }
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Self {
        Expr::Const(v)
    }
}

impl From<i32> for Expr {
    fn from(v: i32) -> Self {
        Expr::Const(v as i64)
    }
}

impl From<u32> for Expr {
    fn from(v: u32) -> Self {
        Expr::Const(v as i64)
    }
}

impl From<usize> for Expr {
    fn from(v: usize) -> Self {
        Expr::Const(v as i64)
    }
}

impl From<bool> for Expr {
    fn from(v: bool) -> Self {
        Expr::Const(i64::from(v))
    }
}

impl From<LocalId> for Expr {
    fn from(l: LocalId) -> Self {
        Expr::Local(l)
    }
}

impl From<&Expr> for Expr {
    fn from(e: &Expr) -> Self {
        e.clone()
    }
}

fn bin(op: BinOp, a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
    Expr::Binary(op, Box::new(a.into()), Box::new(b.into()))
}

/// `a + b`
pub fn add(a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
    bin(BinOp::Add, a, b)
}
/// `a - b`
pub fn sub(a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
    bin(BinOp::Sub, a, b)
}
/// `a * b`
pub fn mul(a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
    bin(BinOp::Mul, a, b)
}
/// `a / b` (0 when `b == 0`)
pub fn div(a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
    bin(BinOp::Div, a, b)
}
/// `a % b` (0 when `b == 0`)
pub fn rem(a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
    bin(BinOp::Rem, a, b)
}
/// `a == b` as 0/1
pub fn eq(a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
    bin(BinOp::Eq, a, b)
}
/// `a != b` as 0/1
pub fn ne(a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
    bin(BinOp::Ne, a, b)
}
/// `a < b` as 0/1
pub fn lt(a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
    bin(BinOp::Lt, a, b)
}
/// `a <= b` as 0/1
pub fn le(a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
    bin(BinOp::Le, a, b)
}
/// `a > b` as 0/1
pub fn gt(a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
    bin(BinOp::Gt, a, b)
}
/// `a >= b` as 0/1
pub fn ge(a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
    bin(BinOp::Ge, a, b)
}
/// logical `a && b` as 0/1
pub fn and(a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
    bin(BinOp::And, a, b)
}
/// logical `a || b` as 0/1
pub fn or(a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
    bin(BinOp::Or, a, b)
}
/// `min(a, b)`
pub fn min(a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
    bin(BinOp::Min, a, b)
}
/// `max(a, b)`
pub fn max(a: impl Into<Expr>, b: impl Into<Expr>) -> Expr {
    bin(BinOp::Max, a, b)
}
/// `-a`
pub fn neg(a: impl Into<Expr>) -> Expr {
    Expr::Unary(UnOp::Neg, Box::new(a.into()))
}
/// logical `!a` as 0/1
pub fn not(a: impl Into<Expr>) -> Expr {
    Expr::Unary(UnOp::Not, Box::new(a.into()))
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Local(l) => write!(f, "{l}"),
            Expr::Unary(UnOp::Neg, e) => write!(f, "(-{e})"),
            Expr::Unary(UnOp::Not, e) => write!(f, "(!{e})"),
            Expr::Binary(op, a, b) => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Rem => "%",
                    BinOp::Eq => "==",
                    BinOp::Ne => "!=",
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    BinOp::Ge => ">=",
                    BinOp::And => "&&",
                    BinOp::Or => "||",
                    BinOp::Min => "`min`",
                    BinOp::Max => "`max`",
                };
                write!(f, "({a} {sym} {b})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LocalId {
        LocalId(i)
    }

    #[test]
    fn arithmetic_and_comparison() {
        let locals = [7, 3];
        assert_eq!(add(l(0), l(1)).eval(&locals), 10);
        assert_eq!(sub(l(0), l(1)).eval(&locals), 4);
        assert_eq!(mul(l(0), 2).eval(&locals), 14);
        assert_eq!(div(l(0), l(1)).eval(&locals), 2);
        assert_eq!(rem(l(0), l(1)).eval(&locals), 1);
        assert_eq!(eq(l(0), 7).eval(&locals), 1);
        assert_eq!(ne(l(0), 7).eval(&locals), 0);
        assert_eq!(lt(l(1), l(0)).eval(&locals), 1);
        assert_eq!(le(3, l(1)).eval(&locals), 1);
        assert_eq!(gt(l(1), l(0)).eval(&locals), 0);
        assert_eq!(ge(l(0), 8).eval(&locals), 0);
        assert_eq!(min(l(0), l(1)).eval(&locals), 3);
        assert_eq!(max(l(0), l(1)).eval(&locals), 7);
    }

    #[test]
    fn division_by_zero_is_total() {
        assert_eq!(div(5, 0).eval(&[]), 0);
        assert_eq!(rem(5, 0).eval(&[]), 0);
    }

    #[test]
    fn logic_is_truthiness_based() {
        assert_eq!(and(2, 3).eval(&[]), 1);
        assert_eq!(and(2, 0).eval(&[]), 0);
        assert_eq!(or(0, 0).eval(&[]), 0);
        assert_eq!(or(0, -1).eval(&[]), 1);
        assert_eq!(not(0).eval(&[]), 1);
        assert_eq!(not(5).eval(&[]), 0);
        assert_eq!(neg(5).eval(&[]), -5);
    }

    #[test]
    fn missing_local_reads_zero() {
        assert_eq!(Expr::Local(l(9)).eval(&[1, 2]), 0);
    }

    #[test]
    fn wrapping_arithmetic_does_not_panic() {
        assert_eq!(add(i64::MAX, 1).eval(&[]), i64::MIN);
        assert_eq!(neg(i64::MIN).eval(&[]), i64::MIN);
        assert_eq!(div(i64::MIN, -1).eval(&[]), i64::MIN);
    }

    #[test]
    fn constantness() {
        assert!(add(1, 2).is_constant());
        assert!(!add(1, l(0)).is_constant());
        assert!(not(0).is_constant());
    }

    #[test]
    fn display_round_trips_symbols() {
        let e = and(eq(l(0), 1), lt(l(1), 4));
        assert_eq!(e.to_string(), "((l0 == 1) && (l1 < 4))");
    }
}

//! Abstract syntax tree of restriction expressions.

use std::fmt;

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Python 3 true division (`/`), always producing a float.
    Div,
    /// Floor division (`//`).
    FloorDiv,
    /// Python modulo (`%`), sign follows the divisor.
    Mod,
    /// Exponentiation (`**`), right-associative.
    Pow,
    /// Short-circuit logical and.
    And,
    /// Short-circuit logical or.
    Or,
}

/// Comparison operators usable in (possibly chained) comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Named variable, resolved against parameter names at compile time.
    Var(String),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Chained comparison `a < b <= c`, Python-style (each link must hold).
    Compare(Box<Expr>, Vec<(CmpOp, Expr)>),
    /// Builtin call: `min`, `max` (n-ary) or `abs` (unary).
    Call(Builtin, Vec<Expr>),
}

/// Builtin functions available in restriction expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// n-ary minimum.
    Min,
    /// n-ary maximum.
    Max,
    /// absolute value.
    Abs,
}

impl Expr {
    fn precedence(&self) -> u8 {
        match self {
            Expr::Binary(BinOp::Or, ..) => 1,
            Expr::Binary(BinOp::And, ..) => 2,
            Expr::Unary(UnOp::Not, _) => 3,
            Expr::Compare(..) => 4,
            Expr::Binary(BinOp::Add | BinOp::Sub, ..) => 5,
            Expr::Binary(BinOp::Mul | BinOp::Div | BinOp::FloorDiv | BinOp::Mod, ..) => 6,
            Expr::Unary(UnOp::Neg, _) => 7,
            Expr::Binary(BinOp::Pow, ..) => 8,
            _ => 9,
        }
    }

    fn fmt_child(
        &self,
        child: &Expr,
        f: &mut fmt::Formatter<'_>,
        parens_if_le: bool,
    ) -> fmt::Result {
        let need = if parens_if_le {
            child.precedence() <= self.precedence()
        } else {
            child.precedence() < self.precedence()
        };
        if need {
            write!(f, "({child})")
        } else {
            write!(f, "{child}")
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::FloorDiv => "//",
            BinOp::Mod => "%",
            BinOp::Pow => "**",
            BinOp::And => "and",
            BinOp::Or => "or",
        };
        f.write_str(s)
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Int(v) => write!(f, "{v}"),
            Expr::Float(v) => {
                if v.fract() == 0.0 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Expr::Var(name) => f.write_str(name),
            Expr::Unary(UnOp::Neg, e) => {
                f.write_str("-")?;
                self.fmt_child(e, f, false)
            }
            Expr::Unary(UnOp::Not, e) => {
                f.write_str("not ")?;
                self.fmt_child(e, f, false)
            }
            Expr::Binary(op, a, b) => {
                // Pow is right-associative; everything else left-associative.
                let (lhs_strict, rhs_strict) = match op {
                    BinOp::Pow => (true, false),
                    _ => (false, true),
                };
                self.fmt_child(a, f, lhs_strict)?;
                write!(f, " {op} ")?;
                self.fmt_child(b, f, rhs_strict)
            }
            Expr::Compare(first, rest) => {
                self.fmt_child(first, f, false)?;
                for (op, e) in rest {
                    write!(f, " {op} ")?;
                    self.fmt_child(e, f, false)?;
                }
                Ok(())
            }
            Expr::Call(b, args) => {
                let name = match b {
                    Builtin::Min => "min",
                    Builtin::Max => "max",
                    Builtin::Abs => "abs",
                };
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
        }
    }
}

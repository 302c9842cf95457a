//! The MiniGo abstract syntax tree.
//!
//! Every expression, statement, and block carries a unique id assigned by the
//! parser. Later passes (resolver, type checker, escape analysis) attach
//! information to those ids in side tables rather than mutating the tree, so
//! the AST stays a plain value type. The only pass that rewrites the AST is
//! GoFree's instrumentation, which inserts [`StmtKind::Free`] statements.

use std::fmt;

use crate::idmap::Id;
use crate::span::Span;
use crate::types::Type;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// The id as a plain index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", stringify!($name), self.0)
            }
        }

        impl Id for $name {
            fn index(self) -> usize {
                self.0 as usize
            }

            fn from_index(i: usize) -> Self {
                $name(i as u32)
            }
        }
    };
}

id_type!(
    /// Identifies an expression node.
    ExprId
);
id_type!(
    /// Identifies a statement node.
    StmtId
);
id_type!(
    /// Identifies a block (brace pair).
    BlockId
);
id_type!(
    /// Identifies a function declaration.
    FuncId
);
id_type!(
    /// Identifies a resolved variable (parameter, named result, or local).
    VarId
);

/// A complete MiniGo source file: struct types plus functions.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Struct type declarations, in source order.
    pub structs: Vec<StructDef>,
    /// Function declarations, in source order.
    pub funcs: Vec<Func>,
    /// Total number of expression ids allocated by the parser.
    pub expr_count: u32,
    /// Total number of statement ids allocated by the parser.
    pub stmt_count: u32,
    /// Total number of block ids allocated by the parser.
    pub block_count: u32,
}

impl Program {
    /// Looks up a function by name.
    pub fn func(&self, name: &str) -> Option<&Func> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Looks up a struct definition by name.
    pub fn struct_def(&self, name: &str) -> Option<&StructDef> {
        self.structs.iter().find(|s| s.name == name)
    }
}

/// A `type Name struct { ... }` declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDef {
    /// The struct's type name.
    pub name: String,
    /// Field names and types, in declaration order.
    pub fields: Vec<(String, Type)>,
    /// Source location of the declaration.
    pub span: Span,
}

impl StructDef {
    /// Index of the field called `name`, if present.
    pub fn field_index(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|(f, _)| f == name)
    }
}

/// A function declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Func {
    /// The function's id.
    pub id: FuncId,
    /// The function's name.
    pub name: String,
    /// Formal parameters.
    pub params: Vec<Param>,
    /// Result declarations. Unnamed results have empty names.
    pub results: Vec<Param>,
    /// The function body.
    pub body: Block,
    /// Source location of the declaration header.
    pub span: Span,
}

/// A parameter or named result.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Name; empty for unnamed results.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Source location.
    pub span: Span,
}

/// A brace-delimited statement list.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The block's id; used by lifetime analysis for scope identity.
    pub id: BlockId,
    /// The statements in order.
    pub stmts: Vec<Stmt>,
    /// Source location of the braces.
    pub span: Span,
}

/// A statement with its id and location.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// The statement's id.
    pub id: StmtId,
    /// The statement's kind and payload.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `var a, b T = e1, e2` — explicit declaration. `init` may be empty
    /// (zero values), a matching list, or a single multi-value call.
    VarDecl {
        /// Declared names.
        names: Vec<String>,
        /// The declared type.
        ty: Type,
        /// Initializer expressions.
        init: Vec<Expr>,
    },
    /// `a, b := e1, e2` — short declaration with inferred types.
    ShortDecl {
        /// Declared names.
        names: Vec<String>,
        /// Initializer expressions (non-empty).
        init: Vec<Expr>,
    },
    /// `lhs = rhs`, `lhs op= rhs`, or a parallel assignment.
    Assign {
        /// Assignment targets (identifiers, derefs, fields, indexes).
        lhs: Vec<Expr>,
        /// Compound operator, e.g. `+` for `+=`. `None` for plain `=`.
        op: Option<BinOp>,
        /// Right-hand sides: matching list or a single multi-value call.
        rhs: Vec<Expr>,
    },
    /// `if cond { .. } else ..`.
    If {
        /// Condition.
        cond: Expr,
        /// Then-branch.
        then: Block,
        /// Optional else-branch: either a block statement or another `if`.
        els: Option<Box<Stmt>>,
    },
    /// `for init; cond; post { .. }` — any of the three parts may be absent.
    For {
        /// Loop initializer.
        init: Option<Box<Stmt>>,
        /// Loop condition; `None` means an infinite loop.
        cond: Option<Expr>,
        /// Post statement executed after each iteration.
        post: Option<Box<Stmt>>,
        /// Loop body.
        body: Block,
    },
    /// `return e1, e2, ...`.
    Return {
        /// Returned expressions; may be empty when all results are named.
        exprs: Vec<Expr>,
    },
    /// An expression evaluated for effect (a call).
    Expr {
        /// The expression.
        expr: Expr,
    },
    /// A nested block used purely for scoping.
    BlockStmt {
        /// The block.
        block: Block,
    },
    /// `defer f(args)` — run the call at function exit.
    Defer {
        /// The deferred call expression.
        call: Expr,
    },
    /// `switch expr { case e1, e2: ... default: ... }` — no fallthrough,
    /// like Go's default behaviour.
    Switch {
        /// The scrutinee.
        subject: Expr,
        /// The cases, in source order.
        cases: Vec<SwitchCase>,
        /// The default body, if present.
        default: Option<Block>,
    },
    /// `break` out of the innermost loop.
    Break,
    /// `continue` the innermost loop.
    Continue,
    /// A `tcfree(x)` statement. Inserted by GoFree instrumentation (§4.5 of
    /// the paper); also parseable directly for runtime tests.
    Free {
        /// The variable whose referent should be explicitly deallocated.
        target: Expr,
        /// Which `tcfree` family member to call.
        kind: FreeKind,
    },
}

/// One `case` arm of a [`StmtKind::Switch`].
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchCase {
    /// The values compared against the subject (any matches).
    pub values: Vec<Expr>,
    /// The arm's body.
    pub body: Block,
}

/// Which member of the `tcfree` family a [`StmtKind::Free`] statement calls
/// (table 4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FreeKind {
    /// `TcfreeSlice` — unwrap a slice's underlying array.
    Slice,
    /// `TcfreeMap` — unwrap a map's underlying buckets.
    Map,
    /// `Tcfree` — a raw pointer's referent.
    Pointer,
}

impl fmt::Display for FreeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FreeKind::Slice => write!(f, "TcfreeSlice"),
            FreeKind::Map => write!(f, "TcfreeMap"),
            FreeKind::Pointer => write!(f, "Tcfree"),
        }
    }
}

/// An expression with its id and location.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression's id.
    pub id: ExprId,
    /// The expression's kind and payload.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Boolean literal.
    BoolLit(bool),
    /// String literal.
    StrLit(String),
    /// The nil literal (pointers, slices, maps).
    Nil,
    /// A variable reference.
    Ident(String),
    /// A unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand.
        operand: Box<Expr>,
    },
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Field selection `base.name`. If `base` is a pointer it is implicitly
    /// dereferenced, as in Go.
    Field {
        /// The struct (or pointer-to-struct) operand.
        base: Box<Expr>,
        /// Field name.
        name: String,
    },
    /// Indexing `base[index]` into a slice or map.
    Index {
        /// The slice or map operand.
        base: Box<Expr>,
        /// The index or key.
        index: Box<Expr>,
    },
    /// Reslicing `base[lo:hi]`; either bound may be absent. The result
    /// shares the base's backing array, as in Go.
    SliceExpr {
        /// The slice operand.
        base: Box<Expr>,
        /// Lower bound (defaults to 0).
        lo: Option<Box<Expr>>,
        /// Upper bound (defaults to `len(base)`).
        hi: Option<Box<Expr>>,
    },
    /// A direct call `f(args)` to a named function.
    Call {
        /// Callee name.
        callee: String,
        /// Actual arguments.
        args: Vec<Expr>,
    },
    /// A builtin operation.
    Builtin {
        /// Which builtin.
        kind: Builtin,
        /// Type arguments, e.g. the `[]int` in `make([]int, n)`.
        ty_args: Vec<Type>,
        /// Value arguments.
        args: Vec<Expr>,
    },
    /// A positional struct literal `Name{e1, e2}`.
    StructLit {
        /// The struct type's name.
        name: String,
        /// Field values in declaration order; must cover all fields.
        fields: Vec<Expr>,
    },
}

/// Builtin functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `make([]T, len[, cap])` or `make(map[K]V)`.
    Make,
    /// `new(T)` — pointer to a zeroed T.
    New,
    /// `append(s, v)` — returns the extended slice.
    Append,
    /// `len(x)` for slices, maps, strings.
    Len,
    /// `cap(s)` for slices.
    Cap,
    /// `delete(m, k)` — removes a key from a map.
    Delete,
    /// `panic(v)` — begin unwinding.
    Panic,
    /// `print(args...)` — append to the run's output buffer.
    Print,
    /// `itoa(n)` — integer to string (stand-in for strconv).
    Itoa,
}

impl Builtin {
    /// The builtin for the identifier `name`, if any.
    pub fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "make" => Builtin::Make,
            "new" => Builtin::New,
            "append" => Builtin::Append,
            "len" => Builtin::Len,
            "cap" => Builtin::Cap,
            "delete" => Builtin::Delete,
            "panic" => Builtin::Panic,
            "print" => Builtin::Print,
            "itoa" => Builtin::Itoa,
            _ => return None,
        })
    }

    /// The builtin's source-level name.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Make => "make",
            Builtin::New => "new",
            Builtin::Append => "append",
            Builtin::Len => "len",
            Builtin::Cap => "cap",
            Builtin::Delete => "delete",
            Builtin::Panic => "panic",
            Builtin::Print => "print",
            Builtin::Itoa => "itoa",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-x`.
    Neg,
    /// Logical not `!x`.
    Not,
    /// Address-of `&x`.
    Addr,
    /// Dereference `*p`.
    Deref,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+` (ints and strings).
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/`.
    Div,
    /// `%`.
    Rem,
    /// `==`.
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `&&` (short-circuit).
    And,
    /// `||` (short-circuit).
    Or,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
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
        };
        write!(f, "{s}")
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
            UnOp::Addr => "&",
            UnOp::Deref => "*",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_round_trips_names() {
        for b in [
            Builtin::Make,
            Builtin::New,
            Builtin::Append,
            Builtin::Len,
            Builtin::Cap,
            Builtin::Delete,
            Builtin::Panic,
            Builtin::Print,
            Builtin::Itoa,
        ] {
            assert_eq!(Builtin::from_name(b.name()), Some(b));
        }
        assert_eq!(Builtin::from_name("frob"), None);
    }

    #[test]
    fn ids_order_and_display() {
        assert!(ExprId(1) < ExprId(2));
        assert_eq!(ExprId(3).to_string(), "ExprId3");
        assert_eq!(BlockId(0).index(), 0);
    }

    #[test]
    fn free_kind_displays_runtime_names() {
        assert_eq!(FreeKind::Slice.to_string(), "TcfreeSlice");
        assert_eq!(FreeKind::Map.to_string(), "TcfreeMap");
        assert_eq!(FreeKind::Pointer.to_string(), "Tcfree");
    }
}

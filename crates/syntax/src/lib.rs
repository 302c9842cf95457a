//! # minigo-syntax
//!
//! The front end of the MiniGo language used by the GoFree reproduction:
//! a Go subset with functions (multiple return values), structs, pointers,
//! slices, maps, `defer`, and a `tcfree` statement that the GoFree
//! instrumentation pass inserts.
//!
//! The pipeline is:
//!
//! ```
//! use minigo_syntax::{parse, resolve, typecheck};
//!
//! # fn main() -> Result<(), minigo_syntax::Diagnostic> {
//! let src = "func add(a int, b int) int { return a + b }\n";
//! let program = parse(src)?;
//! let resolution = resolve(&program)?;
//! let types = typecheck(&program, &resolution)?;
//! assert!(types.var(resolution.params_of(program.funcs[0].id)[0]).is_some());
//! # Ok(())
//! # }
//! ```
//!
//! Every expression, statement, and block carries a stable id; the resolver
//! and type checker return side tables keyed by those ids ([`IdMap`]s),
//! which the escape analysis in `minigo-escape` consumes.

#![warn(missing_docs)]

pub mod ast;
pub mod diag;
pub mod fxhash;
pub mod idmap;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod resolver;
pub mod span;
pub mod token;
pub mod typecheck;
pub mod types;
pub mod visit;

pub use ast::{
    BinOp, Block, BlockId, Builtin, Expr, ExprId, ExprKind, FreeKind, Func, FuncId, Param, Program,
    Stmt, StmtId, StmtKind, StructDef, SwitchCase, UnOp, VarId,
};
pub use diag::{Diagnostic, Result};
pub use idmap::{Id, IdMap};
pub use lexer::lex;
pub use parser::{parse, parse_expr};
pub use printer::print_program;
pub use resolver::{resolve, Resolution, VarInfo, VarKind};
pub use span::Span;
pub use typecheck::{typecheck, TypeInfo};
pub use types::Type;

/// Parses, resolves, and type-checks `src` in one step.
///
/// # Errors
///
/// Returns the first diagnostic from any stage.
pub fn frontend(src: &str) -> Result<(Program, Resolution, TypeInfo)> {
    let program = parse(src)?;
    let resolution = resolve(&program)?;
    let types = typecheck(&program, &resolution)?;
    Ok((program, resolution, types))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontend_accepts_fig1_program() {
        // The paper's fig. 1 example, adapted to MiniGo syntax.
        let src = r#"
type Big struct {
    fat []int
    p *int
}

func fig1(c int, d int) *int {
    s := make([]int, 10)
    bigObj := Big{s, &c}
    pc := &c
    pd := &d
    ppd := &pd
    *ppd = pc
    pd2 := *ppd
    return pd2
}
"#;
        let (program, resolution, types) = frontend(src).expect("fig1 must compile");
        let f = program.func("fig1").expect("fig1 exists");
        assert_eq!(f.params.len(), 2);
        let params = resolution.params_of(f.id);
        assert_eq!(types.var(params[0]), Some(&Type::Int));
    }

    #[test]
    fn frontend_accepts_fig3_program() {
        let src = r#"
func analyses(n int) {
    s1 := make([]int, 335)
    s1[0] = 1
    for i := 1; i < n; i += 1 {
        s2 := make([]int, i)
        s2[0] = i
    }
}
"#;
        assert!(frontend(src).is_ok());
    }

    #[test]
    fn frontend_accepts_fig7_program() {
        let src = r#"
func partialNew(ps *[]int) (r0 []int, r1 []int) {
    pps := &ps
    *pps = ps
    made := make([]int, 3)
    return made, **pps
}

func caller() {
    s := make([]int, 3)
    fresh, old := partialNew(&s)
    fresh[0] = old[0]
}
"#;
        assert!(frontend(src).is_ok());
    }

    #[test]
    fn frontend_reports_errors_with_spans() {
        let err = frontend("func f() { undefined() }\n").unwrap_err();
        assert!(err.message().contains("undefined"));
        assert!(!err.span().is_empty());
    }
}

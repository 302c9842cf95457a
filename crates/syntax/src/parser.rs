//! Recursive-descent parser for MiniGo.
//!
//! The grammar is a Go subset: struct type declarations and functions with
//! multiple (optionally named) return values; statements `var`, `:=`,
//! assignment (including parallel and compound), `if`/`else`, three-clause
//! `for`, `return`, `defer`, `break`/`continue`, nested blocks, and
//! `tcfree(x)`; expressions with Go operator precedence, `&`/`*` pointers,
//! slice/map indexing, field selection, struct literals, and the builtins
//! `make`, `new`, `append`, `len`, `cap`, `delete`, `panic`, `print`, `itoa`.

use crate::ast::*;
use crate::diag::{Diagnostic, Result};
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Token, TokenKind};
use crate::types::Type;

/// Parses a complete MiniGo program.
///
/// # Errors
///
/// Returns the first lexical or syntactic [`Diagnostic`] encountered.
pub fn parse(src: &str) -> Result<Program> {
    let tokens = lex(src)?;
    Parser::new(tokens).program()
}

/// Parses a single expression (used by tests and the REPL-style examples).
///
/// # Errors
///
/// Returns a [`Diagnostic`] if `src` is not exactly one expression.
pub fn parse_expr(src: &str) -> Result<Expr> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let e = p.expr()?;
    p.eat_semis();
    p.expect(&TokenKind::Eof)?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    next_expr: u32,
    next_stmt: u32,
    next_block: u32,
    /// When true, an identifier followed by `{` is *not* a struct literal
    /// (inside `if`/`for` headers, as in Go).
    no_struct_lit: bool,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            next_expr: 0,
            next_stmt: 0,
            next_block: 0,
            no_struct_lit: false,
        }
    }

    // ---- token helpers ----

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, off: usize) -> &TokenKind {
        let idx = (self.pos + off).min(self.tokens.len() - 1);
        &self.tokens[idx].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        kind
    }

    fn at(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Span> {
        if self.at(kind) {
            let sp = self.span();
            self.bump();
            Ok(sp)
        } else {
            Err(Diagnostic::new(
                format!(
                    "expected {}, found {}",
                    kind.describe(),
                    self.peek().describe()
                ),
                self.span(),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span)> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                let sp = self.span();
                self.bump();
                Ok((name, sp))
            }
            other => Err(Diagnostic::new(
                format!("expected identifier, found {}", other.describe()),
                self.span(),
            )),
        }
    }

    fn eat_semis(&mut self) {
        while self.eat(&TokenKind::Semi) {}
    }

    // ---- id allocation ----

    fn expr_id(&mut self) -> ExprId {
        let id = ExprId(self.next_expr);
        self.next_expr += 1;
        id
    }

    fn stmt_id(&mut self) -> StmtId {
        let id = StmtId(self.next_stmt);
        self.next_stmt += 1;
        id
    }

    fn block_id(&mut self) -> BlockId {
        let id = BlockId(self.next_block);
        self.next_block += 1;
        id
    }

    fn mk_expr(&mut self, kind: ExprKind, span: Span) -> Expr {
        Expr {
            id: self.expr_id(),
            kind,
            span,
        }
    }

    fn mk_stmt(&mut self, kind: StmtKind, span: Span) -> Stmt {
        Stmt {
            id: self.stmt_id(),
            kind,
            span,
        }
    }

    // ---- declarations ----

    fn program(mut self) -> Result<Program> {
        let mut structs = Vec::new();
        let mut funcs = Vec::new();
        self.eat_semis();
        while !self.at(&TokenKind::Eof) {
            match self.peek() {
                TokenKind::Type => structs.push(self.struct_def()?),
                TokenKind::Func => {
                    let id = FuncId(funcs.len() as u32);
                    funcs.push(self.func(id)?);
                }
                other => {
                    return Err(Diagnostic::new(
                        format!("expected `func` or `type`, found {}", other.describe()),
                        self.span(),
                    ));
                }
            }
            self.eat_semis();
        }
        Ok(Program {
            structs,
            funcs,
            expr_count: self.next_expr,
            stmt_count: self.next_stmt,
            block_count: self.next_block,
        })
    }

    fn struct_def(&mut self) -> Result<StructDef> {
        let start = self.expect(&TokenKind::Type)?;
        let (name, _) = self.expect_ident()?;
        self.expect(&TokenKind::Struct)?;
        self.expect(&TokenKind::LBrace)?;
        self.eat_semis();
        let mut fields = Vec::new();
        while !self.at(&TokenKind::RBrace) {
            let (fname, _) = self.expect_ident()?;
            let fty = self.ty()?;
            fields.push((fname, fty));
            self.eat_semis();
        }
        let end = self.expect(&TokenKind::RBrace)?;
        Ok(StructDef {
            name,
            fields,
            span: start.merge(end),
        })
    }

    fn func(&mut self, id: FuncId) -> Result<Func> {
        let start = self.expect(&TokenKind::Func)?;
        let (name, _) = self.expect_ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        while !self.at(&TokenKind::RParen) {
            let (pname, psp) = self.expect_ident()?;
            let pty = self.ty()?;
            params.push(Param {
                name: pname,
                ty: pty,
                span: psp,
            });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen)?;
        let results = self.results()?;
        let body = self.block()?;
        let span = start.merge(body.span);
        Ok(Func {
            id,
            name,
            params,
            results,
            body,
            span,
        })
    }

    fn results(&mut self) -> Result<Vec<Param>> {
        if self.at(&TokenKind::LBrace) {
            return Ok(Vec::new());
        }
        if self.eat(&TokenKind::LParen) {
            let mut out = Vec::new();
            while !self.at(&TokenKind::RParen) {
                // Named result if we see `ident <type-start>`; otherwise a
                // bare type (which may itself start with an identifier).
                let named = matches!(self.peek(), TokenKind::Ident(_))
                    && matches!(
                        self.peek_at(1),
                        TokenKind::Ident(_)
                            | TokenKind::Star
                            | TokenKind::LBracket
                            | TokenKind::Map
                    );
                let (name, span) = if named {
                    let (n, s) = self.expect_ident()?;
                    (n, s)
                } else {
                    (String::new(), self.span())
                };
                let ty = self.ty()?;
                out.push(Param { name, ty, span });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
            Ok(out)
        } else {
            let span = self.span();
            let ty = self.ty()?;
            Ok(vec![Param {
                name: String::new(),
                ty,
                span,
            }])
        }
    }

    // ---- types ----

    fn ty(&mut self) -> Result<Type> {
        match self.peek().clone() {
            TokenKind::Star => {
                self.bump();
                Ok(Type::ptr(self.ty()?))
            }
            TokenKind::LBracket => {
                self.bump();
                self.expect(&TokenKind::RBracket)?;
                Ok(Type::slice(self.ty()?))
            }
            TokenKind::Map => {
                self.bump();
                self.expect(&TokenKind::LBracket)?;
                let key = self.ty()?;
                self.expect(&TokenKind::RBracket)?;
                let value = self.ty()?;
                Ok(Type::map(key, value))
            }
            TokenKind::Ident(name) => {
                self.bump();
                Ok(match name.as_str() {
                    "int" => Type::Int,
                    "bool" => Type::Bool,
                    "string" => Type::Str,
                    _ => Type::Named(name),
                })
            }
            other => Err(Diagnostic::new(
                format!("expected type, found {}", other.describe()),
                self.span(),
            )),
        }
    }

    // ---- statements ----

    fn block(&mut self) -> Result<Block> {
        let id = self.block_id();
        let start = self.expect(&TokenKind::LBrace)?;
        self.eat_semis();
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
            stmts.push(self.stmt()?);
            self.eat_semis();
        }
        let end = self.expect(&TokenKind::RBrace)?;
        Ok(Block {
            id,
            stmts,
            span: start.merge(end),
        })
    }

    fn stmt(&mut self) -> Result<Stmt> {
        match self.peek().clone() {
            TokenKind::Var => self.var_decl(),
            TokenKind::If => self.if_stmt(),
            TokenKind::For => self.for_stmt(),
            TokenKind::Switch => self.switch_stmt(),
            TokenKind::Return => self.return_stmt(),
            TokenKind::Defer => self.defer_stmt(),
            TokenKind::Break => {
                let sp = self.span();
                self.bump();
                Ok(self.mk_stmt(StmtKind::Break, sp))
            }
            TokenKind::Continue => {
                let sp = self.span();
                self.bump();
                Ok(self.mk_stmt(StmtKind::Continue, sp))
            }
            TokenKind::LBrace => {
                let block = self.block()?;
                let sp = block.span;
                Ok(self.mk_stmt(StmtKind::BlockStmt { block }, sp))
            }
            TokenKind::Ident(name) if name == "tcfree" && self.peek_at(1) == &TokenKind::LParen => {
                let start = self.span();
                self.bump(); // tcfree
                self.bump(); // (
                let target = self.expr()?;
                let end = self.expect(&TokenKind::RParen)?;
                Ok(self.mk_stmt(
                    StmtKind::Free {
                        target,
                        kind: FreeKind::Pointer,
                    },
                    start.merge(end),
                ))
            }
            _ => self.simple_stmt(),
        }
    }

    /// A "simple statement": short declaration, assignment, compound
    /// assignment, or expression statement. Used directly in statement
    /// position and in `if`/`for` headers.
    fn simple_stmt(&mut self) -> Result<Stmt> {
        let start = self.span();
        let first = self.expr()?;
        let mut lhs = vec![first];
        while self.eat(&TokenKind::Comma) {
            lhs.push(self.expr()?);
        }
        let compound = match self.peek() {
            TokenKind::PlusAssign => Some(BinOp::Add),
            TokenKind::MinusAssign => Some(BinOp::Sub),
            TokenKind::StarAssign => Some(BinOp::Mul),
            TokenKind::SlashAssign => Some(BinOp::Div),
            _ => None,
        };
        if let Some(op) = compound {
            self.bump();
            let rhs = self.expr()?;
            let span = start.merge(rhs.span);
            if lhs.len() != 1 {
                return Err(Diagnostic::new(
                    "compound assignment takes exactly one target",
                    span,
                ));
            }
            return Ok(self.mk_stmt(
                StmtKind::Assign {
                    lhs,
                    op: Some(op),
                    rhs: vec![rhs],
                },
                span,
            ));
        }
        if self.eat(&TokenKind::Define) {
            let names = lhs
                .iter()
                .map(|e| match &e.kind {
                    ExprKind::Ident(name) => Ok(name.clone()),
                    _ => Err(Diagnostic::new(
                        "left side of `:=` must be identifiers",
                        e.span,
                    )),
                })
                .collect::<Result<Vec<_>>>()?;
            let init = self.expr_list()?;
            let span = start.merge(self.prev_span());
            return Ok(self.mk_stmt(StmtKind::ShortDecl { names, init }, span));
        }
        if self.eat(&TokenKind::Assign) {
            let rhs = self.expr_list()?;
            let span = start.merge(self.prev_span());
            return Ok(self.mk_stmt(StmtKind::Assign { lhs, op: None, rhs }, span));
        }
        if lhs.len() != 1 {
            return Err(Diagnostic::new(
                "expression list is not a statement",
                start.merge(self.prev_span()),
            ));
        }
        let expr = lhs.pop().expect("len checked");
        let span = expr.span;
        Ok(self.mk_stmt(StmtKind::Expr { expr }, span))
    }

    fn expr_list(&mut self) -> Result<Vec<Expr>> {
        let mut out = vec![self.expr()?];
        while self.eat(&TokenKind::Comma) {
            out.push(self.expr()?);
        }
        Ok(out)
    }

    fn var_decl(&mut self) -> Result<Stmt> {
        let start = self.expect(&TokenKind::Var)?;
        let mut names = Vec::new();
        loop {
            let (name, _) = self.expect_ident()?;
            names.push(name);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let ty = self.ty()?;
        let init = if self.eat(&TokenKind::Assign) {
            self.expr_list()?
        } else {
            Vec::new()
        };
        let span = start.merge(self.prev_span());
        Ok(self.mk_stmt(StmtKind::VarDecl { names, ty, init }, span))
    }

    fn if_stmt(&mut self) -> Result<Stmt> {
        let start = self.expect(&TokenKind::If)?;
        let cond = self.header_expr()?;
        let then = self.block()?;
        let els = if self.eat(&TokenKind::Else) {
            if self.at(&TokenKind::If) {
                Some(Box::new(self.if_stmt()?))
            } else {
                let block = self.block()?;
                let sp = block.span;
                Some(Box::new(self.mk_stmt(StmtKind::BlockStmt { block }, sp)))
            }
        } else {
            None
        };
        let span = start.merge(self.prev_span());
        Ok(self.mk_stmt(StmtKind::If { cond, then, els }, span))
    }

    fn for_stmt(&mut self) -> Result<Stmt> {
        let start = self.expect(&TokenKind::For)?;
        // `for { .. }`
        if self.at(&TokenKind::LBrace) {
            let body = self.block()?;
            let span = start.merge(body.span);
            return Ok(self.mk_stmt(
                StmtKind::For {
                    init: None,
                    cond: None,
                    post: None,
                    body,
                },
                span,
            ));
        }
        let saved = self.no_struct_lit;
        self.no_struct_lit = true;
        // Either `for cond { .. }` or `for init; cond; post { .. }`.
        let first = if self.at(&TokenKind::Semi) {
            None
        } else {
            Some(self.simple_stmt()?)
        };
        let (init, cond, post) = if self.eat(&TokenKind::Semi) {
            let cond = if self.at(&TokenKind::Semi) {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect(&TokenKind::Semi)?;
            let post = if self.at(&TokenKind::LBrace) {
                None
            } else {
                Some(Box::new(self.simple_stmt()?))
            };
            (first.map(Box::new), cond, post)
        } else {
            // Single-condition form: `first` must be an expression statement.
            match first {
                Some(Stmt {
                    kind: StmtKind::Expr { expr },
                    ..
                }) => (None, Some(expr), None),
                _ => {
                    self.no_struct_lit = saved;
                    return Err(Diagnostic::new(
                        "for-loop condition must be an expression",
                        self.span(),
                    ));
                }
            }
        };
        self.no_struct_lit = saved;
        let body = self.block()?;
        let span = start.merge(body.span);
        Ok(self.mk_stmt(
            StmtKind::For {
                init,
                cond,
                post,
                body,
            },
            span,
        ))
    }

    fn switch_stmt(&mut self) -> Result<Stmt> {
        let start = self.expect(&TokenKind::Switch)?;
        let subject = self.header_expr()?;
        self.expect(&TokenKind::LBrace)?;
        self.eat_semis();
        let mut cases = Vec::new();
        let mut default = None;
        while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
            if self.eat(&TokenKind::Case) {
                let values = self.expr_list()?;
                self.expect(&TokenKind::Colon)?;
                let body = self.case_body()?;
                cases.push(SwitchCase { values, body });
            } else if self.eat(&TokenKind::Default) {
                self.expect(&TokenKind::Colon)?;
                if default.is_some() {
                    return Err(Diagnostic::new("duplicate default case", self.prev_span()));
                }
                default = Some(self.case_body()?);
            } else {
                return Err(Diagnostic::new(
                    format!(
                        "expected `case` or `default`, found {}",
                        self.peek().describe()
                    ),
                    self.span(),
                ));
            }
            self.eat_semis();
        }
        let end = self.expect(&TokenKind::RBrace)?;
        Ok(self.mk_stmt(
            StmtKind::Switch {
                subject,
                cases,
                default,
            },
            start.merge(end),
        ))
    }

    /// The statements of a `case` arm: everything until the next `case`,
    /// `default`, or the closing brace. Synthesizes a block (each arm is
    /// its own scope, as in Go).
    fn case_body(&mut self) -> Result<Block> {
        let id = self.block_id();
        let start = self.span();
        self.eat_semis();
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::Case)
            && !self.at(&TokenKind::Default)
            && !self.at(&TokenKind::RBrace)
            && !self.at(&TokenKind::Eof)
        {
            stmts.push(self.stmt()?);
            self.eat_semis();
        }
        Ok(Block {
            id,
            stmts,
            span: start.merge(self.prev_span()),
        })
    }

    fn return_stmt(&mut self) -> Result<Stmt> {
        let start = self.expect(&TokenKind::Return)?;
        let exprs =
            if self.at(&TokenKind::Semi) || self.at(&TokenKind::RBrace) || self.at(&TokenKind::Eof)
            {
                Vec::new()
            } else {
                self.expr_list()?
            };
        let span = start.merge(self.prev_span());
        Ok(self.mk_stmt(StmtKind::Return { exprs }, span))
    }

    fn defer_stmt(&mut self) -> Result<Stmt> {
        let start = self.expect(&TokenKind::Defer)?;
        let call = self.expr()?;
        match call.kind {
            ExprKind::Call { .. } | ExprKind::Builtin { .. } => {}
            _ => {
                return Err(Diagnostic::new(
                    "defer requires a call expression",
                    call.span,
                ));
            }
        }
        let span = start.merge(call.span);
        Ok(self.mk_stmt(StmtKind::Defer { call }, span))
    }

    /// Parses an `if`/`for` header expression where `{` must not begin a
    /// struct literal.
    fn header_expr(&mut self) -> Result<Expr> {
        let saved = self.no_struct_lit;
        self.no_struct_lit = true;
        let out = self.expr();
        self.no_struct_lit = saved;
        out
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<Expr> {
        self.binary_expr(0)
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let (op, prec) = match self.peek() {
                TokenKind::OrOr => (BinOp::Or, 1),
                TokenKind::AndAnd => (BinOp::And, 2),
                TokenKind::Eq => (BinOp::Eq, 3),
                TokenKind::Ne => (BinOp::Ne, 3),
                TokenKind::Lt => (BinOp::Lt, 3),
                TokenKind::Le => (BinOp::Le, 3),
                TokenKind::Gt => (BinOp::Gt, 3),
                TokenKind::Ge => (BinOp::Ge, 3),
                TokenKind::Plus => (BinOp::Add, 4),
                TokenKind::Minus => (BinOp::Sub, 4),
                TokenKind::Star => (BinOp::Mul, 5),
                TokenKind::Slash => (BinOp::Div, 5),
                TokenKind::Percent => (BinOp::Rem, 5),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
            let span = lhs.span.merge(rhs.span);
            lhs = self.mk_expr(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        let op = match self.peek() {
            TokenKind::Minus => Some(UnOp::Neg),
            TokenKind::Not => Some(UnOp::Not),
            TokenKind::Amp => Some(UnOp::Addr),
            TokenKind::Star => Some(UnOp::Deref),
            _ => None,
        };
        if let Some(op) = op {
            let start = self.span();
            self.bump();
            let operand = self.unary_expr()?;
            let span = start.merge(operand.span);
            return Ok(self.mk_expr(
                ExprKind::Unary {
                    op,
                    operand: Box::new(operand),
                },
                span,
            ));
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr> {
        let mut e = self.primary_expr()?;
        loop {
            match self.peek() {
                TokenKind::Dot => {
                    self.bump();
                    let (name, nsp) = self.expect_ident()?;
                    let span = e.span.merge(nsp);
                    e = self.mk_expr(
                        ExprKind::Field {
                            base: Box::new(e),
                            name,
                        },
                        span,
                    );
                }
                TokenKind::LBracket => {
                    self.bump();
                    // Index/slice bounds allow struct literals even in
                    // headers.
                    let saved = self.no_struct_lit;
                    self.no_struct_lit = false;
                    let lo = if self.at(&TokenKind::Colon) {
                        None
                    } else {
                        Some(self.expr()?)
                    };
                    if self.eat(&TokenKind::Colon) {
                        // Reslice: base[lo:hi].
                        let hi = if self.at(&TokenKind::RBracket) {
                            None
                        } else {
                            Some(Box::new(self.expr()?))
                        };
                        self.no_struct_lit = saved;
                        let end = self.expect(&TokenKind::RBracket)?;
                        let span = e.span.merge(end);
                        e = self.mk_expr(
                            ExprKind::SliceExpr {
                                base: Box::new(e),
                                lo: lo.map(Box::new),
                                hi,
                            },
                            span,
                        );
                    } else {
                        self.no_struct_lit = saved;
                        let index = lo.ok_or_else(|| {
                            Diagnostic::new("missing index expression", self.span())
                        })?;
                        let end = self.expect(&TokenKind::RBracket)?;
                        let span = e.span.merge(end);
                        e = self.mk_expr(
                            ExprKind::Index {
                                base: Box::new(e),
                                index: Box::new(index),
                            },
                            span,
                        );
                    }
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<Expr> {
        let start = self.span();
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(self.mk_expr(ExprKind::IntLit(v), start))
            }
            TokenKind::True => {
                self.bump();
                Ok(self.mk_expr(ExprKind::BoolLit(true), start))
            }
            TokenKind::False => {
                self.bump();
                Ok(self.mk_expr(ExprKind::BoolLit(false), start))
            }
            TokenKind::Nil => {
                self.bump();
                Ok(self.mk_expr(ExprKind::Nil, start))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(self.mk_expr(ExprKind::StrLit(s), start))
            }
            TokenKind::LParen => {
                self.bump();
                let saved = self.no_struct_lit;
                self.no_struct_lit = false;
                let e = self.expr()?;
                self.no_struct_lit = saved;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.at(&TokenKind::LParen) {
                    return self.call_or_builtin(name, start);
                }
                if self.at(&TokenKind::LBrace) && !self.no_struct_lit {
                    return self.struct_lit(name, start);
                }
                Ok(self.mk_expr(ExprKind::Ident(name), start))
            }
            other => Err(Diagnostic::new(
                format!("expected expression, found {}", other.describe()),
                start,
            )),
        }
    }

    fn struct_lit(&mut self, name: String, start: Span) -> Result<Expr> {
        self.expect(&TokenKind::LBrace)?;
        self.eat_semis();
        let mut fields = Vec::new();
        while !self.at(&TokenKind::RBrace) {
            fields.push(self.expr()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
            self.eat_semis();
        }
        self.eat_semis();
        let end = self.expect(&TokenKind::RBrace)?;
        Ok(self.mk_expr(ExprKind::StructLit { name, fields }, start.merge(end)))
    }

    fn call_or_builtin(&mut self, name: String, start: Span) -> Result<Expr> {
        self.expect(&TokenKind::LParen)?;
        let saved = self.no_struct_lit;
        self.no_struct_lit = false;
        let result = self.call_args(&name, start);
        self.no_struct_lit = saved;
        result
    }

    fn call_args(&mut self, name: &str, start: Span) -> Result<Expr> {
        if let Some(builtin) = Builtin::from_name(name) {
            let mut ty_args = Vec::new();
            if matches!(builtin, Builtin::Make | Builtin::New) {
                ty_args.push(self.ty()?);
                if matches!(builtin, Builtin::Make) && !self.at(&TokenKind::RParen) {
                    self.expect(&TokenKind::Comma)?;
                }
            }
            let mut args = Vec::new();
            while !self.at(&TokenKind::RParen) {
                args.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            let end = self.expect(&TokenKind::RParen)?;
            return Ok(self.mk_expr(
                ExprKind::Builtin {
                    kind: builtin,
                    ty_args,
                    args,
                },
                start.merge(end),
            ));
        }
        let mut args = Vec::new();
        while !self.at(&TokenKind::RParen) {
            args.push(self.expr()?);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let end = self.expect(&TokenKind::RParen)?;
        Ok(self.mk_expr(
            ExprKind::Call {
                callee: name.to_string(),
                args,
            },
            start.merge(end),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Program {
        match parse(src) {
            Ok(p) => p,
            Err(e) => panic!("parse failed: {}\nsource:\n{src}", e.render(src)),
        }
    }

    #[test]
    fn parses_empty_function() {
        let p = parse_ok("func main() {}\n");
        assert_eq!(p.funcs.len(), 1);
        assert_eq!(p.funcs[0].name, "main");
        assert!(p.funcs[0].body.stmts.is_empty());
    }

    #[test]
    fn parses_params_and_results() {
        let p = parse_ok("func f(a int, b []int) (r0 []int, r1 int) { return b, a }\n");
        let f = &p.funcs[0];
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[1].ty, Type::slice(Type::Int));
        assert_eq!(f.results.len(), 2);
        assert_eq!(f.results[0].name, "r0");
        assert_eq!(f.results[0].ty, Type::slice(Type::Int));
    }

    #[test]
    fn parses_unnamed_results() {
        let p = parse_ok("func f() (int, string) { return 1, \"x\" }\n");
        let f = &p.funcs[0];
        assert_eq!(f.results.len(), 2);
        assert_eq!(f.results[0].name, "");
        assert_eq!(f.results[1].ty, Type::Str);
    }

    #[test]
    fn parses_single_result_without_parens() {
        let p = parse_ok("func f() int { return 3 }\n");
        assert_eq!(p.funcs[0].results.len(), 1);
        assert_eq!(p.funcs[0].results[0].ty, Type::Int);
    }

    #[test]
    fn parses_struct_declarations() {
        let p = parse_ok("type Big struct { fat [] int\n p *int }\nfunc main() {}\n");
        let s = &p.structs[0];
        assert_eq!(s.name, "Big");
        assert_eq!(s.fields[0].1, Type::slice(Type::Int));
        assert_eq!(s.fields[1].1, Type::ptr(Type::Int));
        assert_eq!(s.field_index("p"), Some(1));
        assert_eq!(s.field_index("q"), None);
    }

    #[test]
    fn parses_short_decl_and_assign() {
        let p = parse_ok("func f() { x := 1\n x = x + 2\n x += 3 }\n");
        let b = &p.funcs[0].body;
        assert!(matches!(b.stmts[0].kind, StmtKind::ShortDecl { .. }));
        assert!(matches!(b.stmts[1].kind, StmtKind::Assign { op: None, .. }));
        assert!(matches!(
            b.stmts[2].kind,
            StmtKind::Assign {
                op: Some(BinOp::Add),
                ..
            }
        ));
    }

    #[test]
    fn parses_parallel_assignment() {
        let p = parse_ok("func f() { x, y := 1, 2\n x, y = y, x }\n");
        match &p.funcs[0].body.stmts[1].kind {
            StmtKind::Assign { lhs, rhs, .. } => {
                assert_eq!(lhs.len(), 2);
                assert_eq!(rhs.len(), 2);
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn parses_multi_value_call_destructuring() {
        let p = parse_ok("func g() (int, int) { return 1, 2 }\nfunc f() { a, b := g()\n a = b }\n");
        match &p.funcs[1].body.stmts[0].kind {
            StmtKind::ShortDecl { names, init } => {
                assert_eq!(names, &vec!["a".to_string(), "b".to_string()]);
                assert_eq!(init.len(), 1);
            }
            other => panic!("expected short decl, got {other:?}"),
        }
    }

    #[test]
    fn parses_if_else_chain() {
        let p = parse_ok("func f(x int) int { if x > 1 { return 1 } else if x > 0 { return 2 } else { return 3 } }\n");
        match &p.funcs[0].body.stmts[0].kind {
            StmtKind::If { els: Some(els), .. } => {
                assert!(matches!(els.kind, StmtKind::If { .. }));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn parses_three_clause_for() {
        let p = parse_ok("func f(n int) { for i := 0; i < n; i += 1 { } }\n");
        match &p.funcs[0].body.stmts[0].kind {
            StmtKind::For {
                init: Some(_),
                cond: Some(_),
                post: Some(_),
                ..
            } => {}
            other => panic!("expected full for, got {other:?}"),
        }
    }

    #[test]
    fn parses_cond_only_and_infinite_for() {
        let p = parse_ok("func f(n int) { for n > 0 { n -= 1 }\n for { break } }\n");
        match &p.funcs[0].body.stmts[0].kind {
            StmtKind::For {
                init: None,
                cond: Some(_),
                post: None,
                ..
            } => {}
            other => panic!("expected cond-only for, got {other:?}"),
        }
        match &p.funcs[0].body.stmts[1].kind {
            StmtKind::For {
                cond: None, body, ..
            } => assert!(matches!(body.stmts[0].kind, StmtKind::Break)),
            other => panic!("expected infinite for, got {other:?}"),
        }
    }

    #[test]
    fn parses_make_and_builtins() {
        let p = parse_ok(
            "func f(n int) { s := make([]int, n, n*2)\n m := make(map[string]int)\n s = append(s, 1)\n delete(m, \"k\")\n print(len(s), cap(s)) }\n",
        );
        let stmts = &p.funcs[0].body.stmts;
        match &stmts[0].kind {
            StmtKind::ShortDecl { init, .. } => match &init[0].kind {
                ExprKind::Builtin {
                    kind,
                    ty_args,
                    args,
                } => {
                    assert_eq!(*kind, Builtin::Make);
                    assert_eq!(ty_args[0], Type::slice(Type::Int));
                    assert_eq!(args.len(), 2);
                }
                other => panic!("expected make, got {other:?}"),
            },
            other => panic!("expected decl, got {other:?}"),
        }
        match &stmts[1].kind {
            StmtKind::ShortDecl { init, .. } => match &init[0].kind {
                ExprKind::Builtin {
                    kind,
                    ty_args,
                    args,
                } => {
                    assert_eq!(*kind, Builtin::Make);
                    assert_eq!(ty_args[0], Type::map(Type::Str, Type::Int));
                    assert!(args.is_empty());
                }
                other => panic!("expected make(map), got {other:?}"),
            },
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn parses_pointer_expressions() {
        let p = parse_ok("func f() { x := 1\n p := &x\n y := *p\n *p = y }\n");
        let stmts = &p.funcs[0].body.stmts;
        match &stmts[1].kind {
            StmtKind::ShortDecl { init, .. } => {
                assert!(matches!(
                    init[0].kind,
                    ExprKind::Unary { op: UnOp::Addr, .. }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
        match &stmts[3].kind {
            StmtKind::Assign { lhs, .. } => {
                assert!(matches!(
                    lhs[0].kind,
                    ExprKind::Unary {
                        op: UnOp::Deref,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deref_binds_tighter_than_multiply() {
        let e = parse_expr("*p * *q").unwrap();
        match e.kind {
            ExprKind::Binary {
                op: BinOp::Mul,
                lhs,
                rhs,
            } => {
                assert!(matches!(
                    lhs.kind,
                    ExprKind::Unary {
                        op: UnOp::Deref,
                        ..
                    }
                ));
                assert!(matches!(
                    rhs.kind,
                    ExprKind::Unary {
                        op: UnOp::Deref,
                        ..
                    }
                ));
            }
            other => panic!("expected multiply, got {other:?}"),
        }
    }

    #[test]
    fn precedence_or_lower_than_and() {
        let e = parse_expr("a || b && c").unwrap();
        assert!(matches!(e.kind, ExprKind::Binary { op: BinOp::Or, .. }));
    }

    #[test]
    fn arithmetic_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e.kind {
            ExprKind::Binary {
                op: BinOp::Add,
                rhs,
                ..
            } => assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. })),
            other => panic!("expected add at top, got {other:?}"),
        }
    }

    #[test]
    fn parses_struct_literal_and_field_access() {
        let p = parse_ok(
            "type P struct { x int\n y int }\nfunc f() int { p := P{1, 2}\n return p.x + p.y }\n",
        );
        match &p.funcs[0].body.stmts[0].kind {
            StmtKind::ShortDecl { init, .. } => {
                assert!(matches!(init[0].kind, ExprKind::StructLit { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn struct_literal_not_parsed_in_if_header() {
        // `if x { }` must treat `{` as the block, not a literal.
        let p = parse_ok("func f(x bool) { if x { return } }\n");
        assert!(matches!(p.funcs[0].body.stmts[0].kind, StmtKind::If { .. }));
    }

    #[test]
    fn struct_literal_allowed_inside_header_parens() {
        let p = parse_ok(
            "type P struct { x int }\nfunc g(p P) bool { return true }\nfunc f() { if g(P{1}) { return } }\n",
        );
        assert!(matches!(p.funcs[1].body.stmts[0].kind, StmtKind::If { .. }));
    }

    #[test]
    fn parses_defer_and_panic() {
        let p = parse_ok("func f() { defer print(1)\n panic(\"boom\") }\n");
        let stmts = &p.funcs[0].body.stmts;
        assert!(matches!(stmts[0].kind, StmtKind::Defer { .. }));
        match &stmts[1].kind {
            StmtKind::Expr { expr } => assert!(matches!(
                expr.kind,
                ExprKind::Builtin {
                    kind: Builtin::Panic,
                    ..
                }
            )),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_defer_of_non_call() {
        assert!(parse("func f() { defer 1 }\n").is_err());
    }

    #[test]
    fn parses_tcfree_statement() {
        let p = parse_ok("func f() { s := make([]int, 3)\n tcfree(s) }\n");
        assert!(matches!(
            p.funcs[0].body.stmts[1].kind,
            StmtKind::Free { .. }
        ));
    }

    #[test]
    fn parses_nested_blocks() {
        let p = parse_ok("func f() { { x := 1\n x = x } }\n");
        assert!(matches!(
            p.funcs[0].body.stmts[0].kind,
            StmtKind::BlockStmt { .. }
        ));
    }

    #[test]
    fn parses_index_chains() {
        let e = parse_expr("m[\"k\"][0]").unwrap();
        assert!(matches!(e.kind, ExprKind::Index { .. }));
    }

    #[test]
    fn parses_field_through_pointer() {
        let e = parse_expr("p.next.value").unwrap();
        match e.kind {
            ExprKind::Field { base, name } => {
                assert_eq!(name, "value");
                assert!(matches!(base.kind, ExprKind::Field { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_top_level() {
        assert!(parse("x := 1\n").is_err());
    }

    #[test]
    fn rejects_define_of_non_ident() {
        assert!(parse("func f(s []int) { s[0] := 1 }\n").is_err());
    }

    #[test]
    fn expr_ids_are_unique() {
        let p = parse_ok("func f(n int) int { return n + n * n }\n");
        let mut ids = Vec::new();
        fn walk(e: &Expr, ids: &mut Vec<ExprId>) {
            ids.push(e.id);
            match &e.kind {
                ExprKind::Binary { lhs, rhs, .. } => {
                    walk(lhs, ids);
                    walk(rhs, ids);
                }
                ExprKind::Unary { operand, .. } => walk(operand, ids),
                _ => {}
            }
        }
        if let StmtKind::Return { exprs } = &p.funcs[0].body.stmts[0].kind {
            for e in exprs {
                walk(e, &mut ids);
            }
        }
        let unique: crate::fxhash::FxHashSet<_> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len());
        assert!(p.expr_count as usize >= ids.len());
    }

    #[test]
    fn var_decl_with_and_without_init() {
        let p = parse_ok(
            "func f() { var x int\n var y int = 3\n var a, b int = 1, 2\n x = y + a + b }\n",
        );
        match &p.funcs[0].body.stmts[2].kind {
            StmtKind::VarDecl { names, init, .. } => {
                assert_eq!(names.len(), 2);
                assert_eq!(init.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

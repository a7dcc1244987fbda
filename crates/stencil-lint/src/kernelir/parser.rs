//! Recursive-descent parser lowering emitted CUDA/OpenCL into the
//! kernel AST.
//!
//! The grammar is the closed C dialect the two emitters produce —
//! nothing more. Anything outside it is a [`ParseError`], which the
//! verifier surfaces as `LNT-K006`: an unparseable kernel is an
//! unverified kernel. `#define`s are expanded at token level before
//! parsing, so a tampered `#define R 3` changes the AST exactly the way
//! it would change the compiled kernel.
//!
//! After parsing, one resolution pass binds every name of the body to
//! its storage and lays the shared arrays out (see `ast::Program`), so the
//! interpreter never looks a name up while a thread runs.

use super::ast::{
    AssignOp, Base, BinOp, Builtin, Expr, ImplausibleShared, Kernel, LValue, Mem, Name, Program,
    PtrBase, RExpr, RLValue, RStep, RStmt, Region, SharedDecl, Slot, Step, Stmt, Sym, SymTab,
    MAX_ARRAY_EXTENT,
};
use super::interp::{int_bin, PARAMS};
use super::lexer::{expand_macros, lex, Pos, TokKind, Token, MAX_EXPANDED_TOKENS};
use std::fmt;

/// Parse failure: position plus a human-readable reason.
#[derive(Clone, Debug)]
pub struct ParseError {
    /// Where parsing stopped.
    pub pos: Pos,
    /// What was expected / found.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.pos, self.msg)
    }
}

const END_POS: Pos = Pos {
    line: u32::MAX,
    col: 1,
};

struct Parser {
    toks: Vec<Token>,
    i: usize,
    syms: SymTab,
    shared: Vec<SharedDecl>,
    local_arrays: Vec<(Sym, Vec<i64>)>,
}

type PResult<T> = Result<T, ParseError>;

fn is_type_name(s: &str) -> bool {
    matches!(
        s,
        "int" | "float" | "double" | "size_t" | "float2" | "float4" | "double2" | "double4"
    )
}

fn vec_lanes(ty: &str) -> Option<u8> {
    match ty {
        "float4" | "double4" => Some(4),
        "float2" | "double2" => Some(2),
        _ => None,
    }
}

impl Parser {
    fn pos(&self) -> Pos {
        self.toks.get(self.i).map(|t| t.pos).unwrap_or(END_POS)
    }

    fn peek(&self) -> Option<&TokKind> {
        self.toks.get(self.i).map(|t| &t.kind)
    }

    fn peek_at(&self, off: usize) -> Option<&TokKind> {
        self.toks.get(self.i + off).map(|t| &t.kind)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.toks.get(self.i).cloned();
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            pos: self.pos(),
            msg: msg.into(),
        })
    }

    fn is_p(&self, p: &str) -> bool {
        matches!(self.peek(), Some(TokKind::P(q)) if *q == p)
    }

    fn is_p_at(&self, off: usize, p: &str) -> bool {
        matches!(self.peek_at(off), Some(TokKind::P(q)) if *q == p)
    }

    fn ident_at(&self, off: usize) -> Option<&str> {
        match self.peek_at(off) {
            Some(TokKind::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn expect_p(&mut self, p: &str) -> PResult<Pos> {
        if self.is_p(p) {
            Ok(self.bump().unwrap().pos)
        } else {
            self.err(format!("expected `{p}`, found {:?}", self.peek()))
        }
    }

    fn expect_ident(&mut self) -> PResult<(String, Pos)> {
        match self.peek() {
            Some(TokKind::Ident(_)) => {
                let t = self.bump().unwrap();
                match t.kind {
                    TokKind::Ident(s) => Ok((s, t.pos)),
                    _ => unreachable!(),
                }
            }
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    fn eat_ident(&mut self, name: &str) -> bool {
        if self.ident_at(0) == Some(name) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn base_for(&mut self, name: &str) -> Base {
        match name {
            "in" => Base::GlobalIn,
            "out" => Base::GlobalOut,
            "c_coeff" | "coeff" => Base::Coeff,
            _ => Base::Named(self.syms.intern(name)),
        }
    }

    // ---- expressions -------------------------------------------------

    fn parse_expr(&mut self) -> PResult<Expr> {
        self.parse_land()
    }

    fn parse_land(&mut self) -> PResult<Expr> {
        let mut lhs = self.parse_bitand()?;
        while self.is_p("&&") {
            self.bump();
            let rhs = self.parse_bitand()?;
            lhs = Expr::Bin(BinOp::LAnd, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_bitand(&mut self) -> PResult<Expr> {
        let mut lhs = self.parse_cmp()?;
        while self.is_p("&") {
            self.bump();
            let rhs = self.parse_cmp()?;
            lhs = Expr::Bin(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> PResult<Expr> {
        let lhs = self.parse_add()?;
        let op = match self.peek() {
            Some(TokKind::P("<")) => BinOp::Lt,
            Some(TokKind::P("<=")) => BinOp::Le,
            Some(TokKind::P(">")) => BinOp::Gt,
            Some(TokKind::P(">=")) => BinOp::Ge,
            Some(TokKind::P("==")) => BinOp::Eq,
            Some(TokKind::P("!=")) => BinOp::Ne,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.parse_add()?;
        Ok(Expr::Bin(op, Box::new(lhs), Box::new(rhs)))
    }

    fn parse_add(&mut self) -> PResult<Expr> {
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Some(TokKind::P("+")) => BinOp::Add,
                Some(TokKind::P("-")) => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_mul()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> PResult<Expr> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(TokKind::P("*")) => BinOp::Mul,
                Some(TokKind::P("/")) => BinOp::Div,
                Some(TokKind::P("%")) => BinOp::Rem,
                _ => break,
            };
            self.bump();
            let rhs = self.parse_unary()?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> PResult<Expr> {
        if self.is_p("-") {
            self.bump();
            let e = self.parse_unary()?;
            return Ok(Expr::Neg(Box::new(e)));
        }
        if self.is_p("*") && self.ident_at(1) == Some("reinterpret_cast") {
            return self.parse_vec_load();
        }
        // A cast is `(` type `)` — exactly three tokens of lookahead.
        if self.is_p("(") {
            if let Some(ty) = self.ident_at(1) {
                if self.is_p_at(2, ")") && (is_type_name(ty) || ty == "void") {
                    let cast_int = matches!(ty, "int" | "size_t");
                    let cast_data = matches!(ty, "float" | "double");
                    if cast_int || cast_data {
                        self.bump();
                        self.bump();
                        self.bump();
                        let e = self.parse_unary()?;
                        return Ok(if cast_int {
                            Expr::CastInt(Box::new(e))
                        } else {
                            Expr::CastData(Box::new(e))
                        });
                    }
                }
            }
        }
        self.parse_atom()
    }

    /// `*reinterpret_cast<const float4*>(&in[expr])`
    fn parse_vec_load(&mut self) -> PResult<Expr> {
        let pos = self.pos();
        self.expect_p("*")?;
        let (_, _) = self.expect_ident()?; // reinterpret_cast
        self.expect_p("<")?;
        let mut lanes = None;
        while !self.is_p(">") {
            if let Some(TokKind::Ident(ty)) = self.peek() {
                if let Some(l) = vec_lanes(ty) {
                    lanes = Some(l);
                }
            }
            if self.bump().is_none() {
                return self.err("unterminated reinterpret_cast<…>");
            }
        }
        self.expect_p(">")?;
        let lanes = match lanes {
            Some(l) => l,
            None => return self.err("reinterpret_cast target is not a known vector type"),
        };
        self.expect_p("(")?;
        self.expect_p("&")?;
        if !self.eat_ident("in") {
            return self.err("vector loads must target the `in` buffer");
        }
        self.expect_p("[")?;
        let index = self.parse_expr()?;
        self.expect_p("]")?;
        self.expect_p(")")?;
        Ok(Expr::VecLoad {
            index: Box::new(index),
            lanes,
            pos,
        })
    }

    fn parse_atom(&mut self) -> PResult<Expr> {
        match self.peek() {
            Some(TokKind::Num(_)) => {
                let t = self.bump().unwrap();
                match t.kind {
                    TokKind::Num(n) => Ok(Expr::Num(n)),
                    _ => unreachable!(),
                }
            }
            Some(TokKind::P("(")) => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect_p(")")?;
                Ok(e)
            }
            Some(TokKind::Ident(_)) => {
                let (name, pos) = self.expect_ident()?;
                // Builtins.
                match name.as_str() {
                    "threadIdx" | "blockIdx" => {
                        self.expect_p(".")?;
                        let (axis, _) = self.expect_ident()?;
                        let b = match (name.as_str(), axis.as_str()) {
                            ("threadIdx", "x") => Builtin::Tx,
                            ("threadIdx", "y") => Builtin::Ty,
                            ("blockIdx", "x") => Builtin::Bx,
                            ("blockIdx", "y") => Builtin::By,
                            _ => return self.err(format!("unsupported builtin {name}.{axis}")),
                        };
                        return Ok(Expr::Builtin(b));
                    }
                    "get_local_id" | "get_group_id" => {
                        self.expect_p("(")?;
                        let dim = match self.bump().map(|t| t.kind) {
                            Some(TokKind::Num(n)) => n,
                            _ => return self.err("expected dimension literal"),
                        };
                        self.expect_p(")")?;
                        let b = match (name.as_str(), dim) {
                            ("get_local_id", 0) => Builtin::Tx,
                            ("get_local_id", 1) => Builtin::Ty,
                            ("get_group_id", 0) => Builtin::Bx,
                            ("get_group_id", 1) => Builtin::By,
                            _ => return self.err(format!("unsupported builtin {name}({dim})")),
                        };
                        return Ok(Expr::Builtin(b));
                    }
                    _ => {}
                }
                if self.is_p("[") {
                    let base = self.base_for(&name);
                    let mut indices = Vec::new();
                    while self.is_p("[") {
                        self.bump();
                        indices.push(self.parse_expr()?);
                        self.expect_p("]")?;
                    }
                    return Ok(Expr::Index { base, indices, pos });
                }
                if self.is_p(".") {
                    self.bump();
                    let (lane, _) = self.expect_ident()?;
                    let lane = match lane.as_str() {
                        "x" => 0,
                        "y" => 1,
                        "z" => 2,
                        "w" => 3,
                        _ => return self.err(format!("unsupported lane .{lane}")),
                    };
                    let var = self.syms.intern(&name);
                    return Ok(Expr::Lane { var, lane });
                }
                let sym = self.syms.intern(&name);
                Ok(Expr::Var(sym))
            }
            other => self.err(format!("expected expression, found {other:?}")),
        }
    }

    fn parse_const_expr(&mut self) -> PResult<i64> {
        let pos = self.pos();
        let e = self.parse_expr()?;
        match const_eval(&e) {
            Some(v) => Ok(v),
            None => Err(ParseError {
                pos,
                msg: "expected a compile-time constant expression".into(),
            }),
        }
    }

    // ---- statements --------------------------------------------------

    fn parse_block(&mut self) -> PResult<Vec<Stmt>> {
        self.expect_p("{")?;
        let mut body = Vec::new();
        while !self.is_p("}") {
            if self.peek().is_none() {
                return self.err("unexpected end of kernel inside a block");
            }
            if let Some(s) = self.parse_stmt()? {
                body.push(s);
            }
        }
        self.expect_p("}")?;
        Ok(body)
    }

    /// Parse one statement. Returns `None` for declarations that are
    /// recorded out-of-band (shared-memory arrays).
    fn parse_stmt(&mut self) -> PResult<Option<Stmt>> {
        // Barriers.
        if self.ident_at(0) == Some("__syncthreads") {
            let pos = self.pos();
            self.bump();
            self.expect_p("(")?;
            self.expect_p(")")?;
            self.expect_p(";")?;
            return Ok(Some(Stmt::Barrier { pos }));
        }
        if self.ident_at(0) == Some("barrier") && self.is_p_at(1, "(") {
            let pos = self.pos();
            self.bump();
            self.expect_p("(")?;
            let (_fence, _) = self.expect_ident()?;
            self.expect_p(")")?;
            self.expect_p(";")?;
            return Ok(Some(Stmt::Barrier { pos }));
        }
        // `(void)x;`
        if self.is_p("(") && self.ident_at(1) == Some("void") && self.is_p_at(2, ")") {
            self.bump();
            self.bump();
            self.bump();
            let _ = self.parse_expr()?;
            self.expect_p(";")?;
            return Ok(Some(Stmt::Nop));
        }
        if self.ident_at(0) == Some("if") {
            self.bump();
            self.expect_p("(")?;
            let cond = self.parse_expr()?;
            self.expect_p(")")?;
            let body = self.parse_block()?;
            return Ok(Some(Stmt::If { cond, body }));
        }
        if self.ident_at(0) == Some("for") {
            return self.parse_for().map(Some);
        }
        // Shared-memory declarations are recorded on the kernel, not in
        // the statement list (they exist once per block, not per thread).
        if self.ident_at(0) == Some("__shared__") || self.ident_at(0) == Some("__local") {
            self.bump();
            let (_ty, _) = self.expect_ident()?;
            let (name, pos) = self.expect_ident()?;
            let name = self.syms.intern(&name);
            let mut dims = Vec::new();
            while self.is_p("[") {
                self.bump();
                dims.push(self.parse_const_expr()?);
                self.expect_p("]")?;
            }
            self.expect_p(";")?;
            self.shared.push(SharedDecl { name, dims, pos });
            return Ok(None);
        }
        // Declarations: `[const] type …`.
        {
            let mut off = 0;
            if self.ident_at(0) == Some("const") {
                off = 1;
            }
            if let Some(ty) = self.ident_at(off) {
                if is_type_name(ty) {
                    return self.parse_decl(off).map(Some);
                }
            }
        }
        // Assignment.
        let stmt = self.parse_assign()?;
        Ok(Some(stmt))
    }

    fn parse_for(&mut self) -> PResult<Stmt> {
        self.bump(); // for
        self.expect_p("(")?;
        if !self.eat_ident("int") {
            return self.err("loop variables must be `int`");
        }
        let (var, _) = self.expect_ident()?;
        let var = self.syms.intern(&var);
        self.expect_p("=")?;
        let init = self.parse_expr()?;
        self.expect_p(";")?;
        let cond = self.parse_expr()?;
        self.expect_p(";")?;
        let step = if self.is_p("++") {
            self.bump();
            let _ = self.expect_ident()?;
            Step::Inc
        } else if self.is_p("--") {
            self.bump();
            let _ = self.expect_ident()?;
            Step::Dec
        } else {
            let (sv, _) = self.expect_ident()?;
            let sv = self.syms.intern(&sv);
            if self.is_p("++") {
                self.bump();
                Step::Inc
            } else if self.is_p("--") {
                self.bump();
                Step::Dec
            } else {
                if sv != var {
                    return self.err("loop step must update the loop variable");
                }
                self.expect_p("+=")?;
                Step::AddAssign(self.parse_expr()?)
            }
        };
        self.expect_p(")")?;
        let body = self.parse_block()?;
        Ok(Stmt::For {
            var,
            init,
            cond,
            step,
            body,
        })
    }

    /// Declarations starting at a type name (`off` skips a leading
    /// `const`): scalars, per-thread arrays, `T* p = &arr[..][..];`
    /// pointers and the `T (*alias)[W] = pair[sel];` view.
    fn parse_decl(&mut self, off: usize) -> PResult<Stmt> {
        for _ in 0..off {
            self.bump();
        }
        let (_ty, _) = self.expect_ident()?;
        // `T (*alias)[W] = pair[sel];`
        if self.is_p("(") && self.is_p_at(1, "*") {
            self.bump();
            self.bump();
            let (name, pos) = self.expect_ident()?;
            let name = self.syms.intern(&name);
            self.expect_p(")")?;
            self.expect_p("[")?;
            let row_len = self.parse_const_expr()?;
            self.expect_p("]")?;
            self.expect_p("=")?;
            let (base, _) = self.expect_ident()?;
            let base = self.syms.intern(&base);
            self.expect_p("[")?;
            let index = self.parse_expr()?;
            self.expect_p("]")?;
            self.expect_p(";")?;
            return Ok(Stmt::DeclAlias {
                name,
                base,
                index,
                row_len,
                pos,
            });
        }
        // `T* p = &arr[a][b];`
        if self.is_p("*") {
            self.bump();
            let (name, pos) = self.expect_ident()?;
            let name = self.syms.intern(&name);
            self.expect_p("=")?;
            self.expect_p("&")?;
            let (base, _) = self.expect_ident()?;
            let base = self.syms.intern(&base);
            let mut indices = Vec::new();
            while self.is_p("[") {
                self.bump();
                indices.push(self.parse_expr()?);
                self.expect_p("]")?;
            }
            self.expect_p(";")?;
            return Ok(Stmt::DeclPtr {
                name,
                base,
                indices,
                pos,
            });
        }
        let (name, _) = self.expect_ident()?;
        let name = self.syms.intern(&name);
        if self.is_p("[") {
            let mut dims = Vec::new();
            while self.is_p("[") {
                self.bump();
                dims.push(self.parse_const_expr()?);
                self.expect_p("]")?;
            }
            self.expect_p(";")?;
            self.local_arrays.push((name, dims.clone()));
            return Ok(Stmt::DeclArray { name, dims });
        }
        self.expect_p("=")?;
        let init = self.parse_expr()?;
        self.expect_p(";")?;
        Ok(Stmt::DeclScalar { name, init })
    }

    fn parse_assign(&mut self) -> PResult<Stmt> {
        let pos = self.pos();
        let (name, _) = self.expect_ident()?;
        let lhs = if self.is_p("[") {
            let base = self.base_for(&name);
            let mut indices = Vec::new();
            while self.is_p("[") {
                self.bump();
                indices.push(self.parse_expr()?);
                self.expect_p("]")?;
            }
            LValue::Index { base, indices }
        } else {
            LValue::Var(self.syms.intern(&name))
        };
        let op = if self.is_p("=") {
            self.bump();
            AssignOp::Set
        } else if self.is_p("+=") {
            self.bump();
            AssignOp::Add
        } else {
            return self.err("expected `=` or `+=`");
        };
        let rhs = self.parse_expr()?;
        self.expect_p(";")?;
        Ok(Stmt::Assign { lhs, op, rhs, pos })
    }
}

/// Evaluate a constant integer expression (array dims after macro
/// expansion). `None` if the expression mentions a variable, divides
/// by zero or overflows `i64`.
pub fn const_eval(e: &Expr) -> Option<i64> {
    match e {
        Expr::Num(n) => Some(*n),
        Expr::Neg(x) => const_eval(x)?.checked_neg(),
        Expr::CastInt(x) => const_eval(x),
        Expr::Bin(op, a, b) => {
            let a = const_eval(a)?;
            let b = const_eval(b)?;
            match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                BinOp::Div => a.checked_div(b),
                BinOp::Rem => a.checked_rem(b),
                BinOp::And => Some(a & b),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Parse a generated kernel (either backend) into a [`Kernel`].
///
/// Steps: lex, expand `#define`s at token level, pick up the file-scope
/// `__constant__` coefficient declaration (CUDA), locate the kernel
/// function, parse its body.
pub fn parse_kernel(source: &str) -> Result<Kernel, ParseError> {
    let lexed = lex(source).map_err(|e| ParseError {
        pos: e.pos,
        msg: format!("lex error: unrecognised character {:?}", e.ch),
    })?;
    let toks = expand_macros(&lexed.tokens, &lexed.defines);
    if toks.len() >= MAX_EXPANDED_TOKENS {
        return Err(ParseError {
            pos: END_POS,
            msg: format!("#define expansion exceeds {MAX_EXPANDED_TOKENS} tokens"),
        });
    }

    let mut p = Parser {
        toks,
        i: 0,
        syms: SymTab::default(),
        shared: Vec::new(),
        local_arrays: Vec::new(),
    };

    // File scope: collect `__constant__ T c_coeff[N];`, then find
    // `void <name> (`.
    let mut coeff_len = None;
    let mut name = None;
    while p.peek().is_some() {
        if p.ident_at(0) == Some("__constant__") {
            p.bump();
            let (_ty, _) = p.expect_ident()?;
            let (_nm, _) = p.expect_ident()?;
            p.expect_p("[")?;
            coeff_len = Some(p.parse_const_expr()?);
            p.expect_p("]")?;
            p.expect_p(";")?;
            continue;
        }
        if p.ident_at(0) == Some("void") && p.ident_at(1).is_some() && p.is_p_at(2, "(") {
            p.bump();
            let (nm, _) = p.expect_ident()?;
            name = Some(nm);
            break;
        }
        p.bump();
    }
    let name = match name {
        Some(n) => n,
        None => {
            return Err(ParseError {
                pos: END_POS,
                msg: "no kernel function found".into(),
            })
        }
    };

    // Skip the parameter list (types and qualifiers are fixed by the
    // emitters; buffer/scalar names are resolved by `base_for`).
    p.expect_p("(")?;
    let mut depth = 1usize;
    while depth > 0 {
        match p.bump().map(|t| t.kind) {
            Some(TokKind::P("(")) => depth += 1,
            Some(TokKind::P(")")) => depth -= 1,
            Some(_) => {}
            None => {
                return Err(ParseError {
                    pos: END_POS,
                    msg: "unterminated parameter list".into(),
                })
            }
        }
    }

    let body = p.parse_block()?;
    if p.peek().is_some() {
        // Trailing tokens after the kernel body would mean a second
        // function — outside the verified subset.
        return p.err("unexpected tokens after kernel body");
    }
    let program = resolve(&p.syms, &body, &p.shared, &p.local_arrays);
    Ok(Kernel {
        syms: p.syms,
        name,
        shared: p.shared,
        coeff_len,
        body,
        local_arrays: p.local_arrays,
        program,
    })
}

/// Bind every name of `body` to its storage.
///
/// Scalars, loop variables, pointers and views are lexically scoped:
/// each declaration gets a fresh frame slot, visible from the next
/// statement to the end of its block (a `for` variable for the loop's
/// condition, step and body), and the innermost declaration wins. That
/// is exactly what a per-thread scope stack would see at run time,
/// because every block is entered and left in program order. An indexed
/// name that is not a scope value stays a runtime choice between the
/// thread's local array of that name — visible from its declaration to
/// the end of the thread, even after its block ends — and the shared
/// region of that name.
fn resolve(
    syms: &SymTab,
    body: &[Stmt],
    shared: &[SharedDecl],
    local_arrays: &[(Sym, Vec<i64>)],
) -> Program {
    let mut locals: Vec<Sym> = Vec::new();
    for (name, _) in local_arrays {
        if !locals.contains(name) {
            locals.push(*name);
        }
    }
    let mut r = Resolver {
        scopes: vec![Vec::new()],
        slot_names: Vec::new(),
        locals,
        shared,
    };
    let params = PARAMS.map(|p| syms.lookup(p).map(|s| r.declare(s)));
    let body = r.stmts(body);
    Program {
        body,
        slot_names: r.slot_names.into(),
        params,
        locals: r.locals.len(),
        shared: layout_shared(syms, shared),
    }
}

/// Lay the shared arrays out back to back in one flat address space (an
/// empty array still takes one address), refusing a declaration whose
/// extent overflows or pushes the space past [`MAX_ARRAY_EXTENT`].
fn layout_shared(
    syms: &SymTab,
    shared: &[SharedDecl],
) -> Result<(Box<[Region]>, i64), ImplausibleShared> {
    let mut regions = Vec::with_capacity(shared.len());
    let mut base = 0i64;
    for d in shared {
        let extent = d.dims.iter().try_fold(1i64, |a, &x| a.checked_mul(x));
        let end = extent.and_then(|e| base.checked_add(e.max(1)));
        match end {
            Some(end) if end <= MAX_ARRAY_EXTENT => {
                regions.push(Region {
                    base,
                    dims: d.dims.clone().into(),
                });
                base = end;
            }
            _ => {
                let name = syms.name(d.name);
                let detail = match extent {
                    None => format!(
                        "shared array `{name}` has implausible extent: the product of its dims {:?} overflows",
                        d.dims
                    ),
                    Some(e) => format!(
                        "shared array `{name}` has implausible extent {e}: the shared arrays would span more than {MAX_ARRAY_EXTENT} elements"
                    ),
                };
                return Err(ImplausibleShared { pos: d.pos, detail });
            }
        }
    }
    Ok((regions.into(), base))
}

struct Resolver<'k> {
    /// Lexical scopes, innermost last; later entries shadow earlier ones.
    scopes: Vec<Vec<(Sym, Slot)>>,
    /// The name declared into each slot so far.
    slot_names: Vec<Sym>,
    /// Local-array names; the index is the local-array id.
    locals: Vec<Sym>,
    shared: &'k [SharedDecl],
}

impl Resolver<'_> {
    fn declare(&mut self, s: Sym) -> Slot {
        let slot = self.slot_names.len() as Slot;
        self.slot_names.push(s);
        self.scopes.last_mut().expect("a scope").push((s, slot));
        slot
    }

    fn lookup(&self, s: Sym) -> Option<Slot> {
        self.scopes
            .iter()
            .rev()
            .flat_map(|sc| sc.iter().rev())
            .find(|(n, _)| *n == s)
            .map(|&(_, slot)| slot)
    }

    fn name(&self, s: Sym) -> Name {
        self.lookup(s).map_or(Name::Unbound(s), Name::Slot)
    }

    fn local(&self, s: Sym) -> Option<u32> {
        self.locals.iter().position(|&n| n == s).map(|i| i as u32)
    }

    /// The region of `s`: its last shared declaration.
    fn region(&self, s: Sym) -> Option<u32> {
        self.shared
            .iter()
            .rposition(|d| d.name == s)
            .map(|i| i as u32)
    }

    fn mem(&self, base: Base) -> Mem {
        match base {
            Base::GlobalIn => Mem::GlobalIn,
            Base::GlobalOut => Mem::GlobalOut,
            Base::Coeff => Mem::Coeff,
            Base::Named(sym) => match self.lookup(sym) {
                Some(slot) => Mem::Scoped(slot),
                None => Mem::Array {
                    sym,
                    local: self.local(sym),
                    region: self.region(sym),
                },
            },
        }
    }

    fn expr(&self, e: &Expr) -> RExpr {
        let bx = |x: &Expr| Box::new(self.expr(x));
        match e {
            Expr::Num(n) => RExpr::Num(*n),
            Expr::Var(s) => RExpr::Var(self.name(*s)),
            Expr::Builtin(b) => RExpr::Builtin(*b),
            // Integer constants (expanded `#define`s) fold here, once,
            // exactly as the interpreter would compute them; a division
            // by zero is left to fail when it executes.
            Expr::Bin(op, a, b) => match (self.expr(a), self.expr(b)) {
                (RExpr::Num(x), RExpr::Num(y)) if int_bin(*op, x, y).is_some() => {
                    RExpr::Num(int_bin(*op, x, y).unwrap_or_default())
                }
                (a, b) => RExpr::Bin(*op, Box::new(a), Box::new(b)),
            },
            Expr::Neg(x) => match self.expr(x) {
                RExpr::Num(n) => RExpr::Num(n.wrapping_neg()),
                x => RExpr::Neg(Box::new(x)),
            },
            Expr::Index { base, indices, pos } => RExpr::Index {
                mem: self.mem(*base),
                indices: self.exprs(indices),
                pos: *pos,
            },
            Expr::VecLoad { index, lanes, pos } => RExpr::VecLoad {
                index: bx(index),
                lanes: *lanes,
                pos: *pos,
            },
            Expr::Lane { var, lane } => RExpr::Lane {
                var: self.name(*var),
                lane: *lane,
            },
            Expr::CastInt(x) => match self.expr(x) {
                RExpr::Num(n) => RExpr::Num(n),
                x => RExpr::CastInt(Box::new(x)),
            },
            Expr::CastData(x) => RExpr::CastData(bx(x)),
        }
    }

    fn exprs(&self, es: &[Expr]) -> Box<[RExpr]> {
        es.iter().map(|e| self.expr(e)).collect()
    }

    fn stmts(&mut self, body: &[Stmt]) -> Box<[RStmt]> {
        body.iter().map(|s| self.stmt(s)).collect()
    }

    fn block(&mut self, body: &[Stmt]) -> Box<[RStmt]> {
        self.scopes.push(Vec::new());
        let body = self.stmts(body);
        self.scopes.pop();
        body
    }

    fn stmt(&mut self, s: &Stmt) -> RStmt {
        match s {
            Stmt::DeclScalar { name, init } => {
                let init = self.expr(init);
                RStmt::DeclScalar {
                    slot: self.declare(*name),
                    init,
                }
            }
            Stmt::DeclArray { name, dims } => RStmt::DeclArray {
                local: self.local(*name).expect("every local array is collected"),
                name: *name,
                dims: dims.clone().into(),
                extent: dims.iter().try_fold(1i64, |a, &x| a.checked_mul(x)),
            },
            Stmt::DeclPtr {
                name,
                base,
                indices,
                pos,
            } => {
                let indices = self.exprs(indices);
                let base = match (self.lookup(*base), self.region(*base)) {
                    (Some(slot), _) => PtrBase::Scoped(slot),
                    (None, Some(region)) => PtrBase::Region { region, sym: *base },
                    (None, None) => PtrBase::Unbound(*base),
                };
                RStmt::DeclPtr {
                    slot: self.declare(*name),
                    base,
                    indices,
                    pos: *pos,
                }
            }
            Stmt::DeclAlias {
                name,
                base,
                index,
                row_len,
                pos,
            } => {
                let index = self.expr(index);
                RStmt::DeclAlias {
                    slot: self.declare(*name),
                    base: *base,
                    region: self.region(*base),
                    index,
                    row_len: *row_len,
                    pos: *pos,
                }
            }
            Stmt::Assign { lhs, op, rhs, pos } => RStmt::Assign {
                lhs: match lhs {
                    LValue::Var(s) => RLValue::Var(self.name(*s)),
                    LValue::Index { base, indices } => RLValue::Index {
                        mem: self.mem(*base),
                        indices: self.exprs(indices),
                    },
                },
                op: *op,
                rhs: self.expr(rhs),
                pos: *pos,
            },
            Stmt::If { cond, body } => RStmt::If {
                cond: self.expr(cond),
                body: self.block(body),
            },
            Stmt::For {
                var,
                init,
                cond,
                step,
                body,
            } => {
                let init = self.expr(init);
                self.scopes.push(Vec::new());
                let slot = self.declare(*var);
                let cond = self.expr(cond);
                let step = match step {
                    Step::Inc => RStep::Inc,
                    Step::Dec => RStep::Dec,
                    Step::AddAssign(e) => RStep::AddAssign(self.expr(e)),
                };
                let body = self.block(body);
                self.scopes.pop();
                RStmt::For {
                    slot,
                    init,
                    cond,
                    step,
                    body,
                }
            }
            Stmt::Barrier { pos } => RStmt::Barrier { pos: *pos },
            Stmt::Nop => RStmt::Nop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = "\
#define TX 8
#define TY 2
#define R 2
#define WX TX
extern \"C\" __global__ void k(const float* __restrict__ in, float* __restrict__ out, int lx, int ly, int lz, int stride, int pstride) {
    __shared__ float tile[TY + 2 * R][WX + 2 * R];
    const int tx = threadIdx.x;
    const int ty = threadIdx.y;
    float pipe[1][1][2 * R + 1];
    for (int d = 0; d <= 2 * R; ++d) {
        pipe[0][0][d] = in[(size_t)d * pstride + (size_t)ty * stride + tx];
    }
    __syncthreads();
    if (tx < WX) {
        out[(size_t)ty * stride + tx] = pipe[0][0][R];
    }
}
";

    #[test]
    fn parses_a_tiny_kernel() {
        let k = parse_kernel(TINY).expect("parse");
        assert_eq!(k.name, "k");
        assert_eq!(k.shared.len(), 1);
        assert_eq!(k.shared[0].dims, vec![6, 12]);
        assert_eq!(k.local_arrays.len(), 1);
        assert_eq!(k.local_arrays[0].1, vec![1, 1, 5]);
        // tx, ty decls + pipe decl + for + barrier + if
        assert_eq!(k.body.len(), 6);
        assert!(matches!(k.body[4], Stmt::Barrier { .. }));
    }

    #[test]
    fn overflowing_constant_dims_are_a_parse_error() {
        for dims in [
            "99999999999999999999 * 4",
            "(-9223372036854775807 - 1) / -1",
            "(-9223372036854775807 - 1) % -1",
            "-(-9223372036854775807 - 1)",
            "9223372036854775807 + 1",
        ] {
            let src = TINY.replace("TY + 2 * R", dims);
            let err = parse_kernel(&src).expect_err(dims);
            assert!(
                err.msg.contains("constant expression"),
                "{dims}: {}",
                err.msg
            );
        }
    }

    #[test]
    fn macro_expansion_feeds_dims() {
        let src = "#define W 7\nvoid k() { __shared__ float t[W]; }";
        let k = parse_kernel(src).expect("parse");
        assert_eq!(k.shared[0].dims, vec![7]);
    }

    #[test]
    fn opencl_builtins_parse() {
        let src = "\
__kernel void k(__global const float* restrict in, __global float* restrict out) {
    const int tx = (int)get_local_id(0);
    const int x0 = (int)get_group_id(0) * 8;
    out[x0 + tx] = in[x0 + tx];
    barrier(CLK_LOCAL_MEM_FENCE);
}
";
        let k = parse_kernel(src).expect("parse");
        assert_eq!(k.name, "k");
        assert!(matches!(k.body[2], Stmt::Assign { .. }));
        assert!(matches!(k.body[3], Stmt::Barrier { .. }));
    }

    #[test]
    fn vector_load_and_lanes_parse() {
        let src = "\
void k(const float* in) {
    __shared__ float tile[4][4];
    const float4 v = *reinterpret_cast<const float4*>(&in[0]);
    float* dst = &tile[0][0];
    dst[0] = v.x;
    dst[3] = v.w;
}
";
        let k = parse_kernel(src).expect("parse");
        match &k.body[0] {
            Stmt::DeclScalar { init, .. } => {
                assert!(matches!(init, Expr::VecLoad { lanes: 4, .. }));
            }
            other => panic!("expected vector decl, got {other:?}"),
        }
        assert!(matches!(k.body[1], Stmt::DeclPtr { .. }));
    }

    #[test]
    fn alias_decl_parses() {
        let src = "\
void k() {
    __shared__ float tile_pair[2][4][8];
    const int z = 3;
    float (*tile)[8] = tile_pair[(z - 2) & 1];
    tile[0][0] = (float)0;
}
";
        let k = parse_kernel(src).expect("parse");
        match &k.body[1] {
            Stmt::DeclAlias { row_len, .. } => assert_eq!(*row_len, 8),
            other => panic!("expected alias decl, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_syntax_is_an_error() {
        // A ternary is outside the verified subset.
        let src = "void k() { const int a = 1 ? 2 : 3; }";
        assert!(parse_kernel(src).is_err());
    }
}

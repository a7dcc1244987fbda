//! The typed kernel AST the parser lowers generated source into.
//!
//! The subset is exactly what the two emitters produce: integer-affine
//! index expressions over thread/block builtins, fixed-shape local and
//! shared arrays, counted `for` loops, guarded `if`s, barriers, vector
//! loads with explicit lane stores, and the double-buffer tile alias.
//! Identifiers are interned ([`Sym`]).
//!
//! Below the AST sits the *resolved program* the interpreter runs: the
//! same statement tree with every name already bound to its storage —
//! a frame slot, a local-array id, a shared region or a global buffer
//! (see `Program`). The parser builds it once per kernel, so a thread
//! never looks a name up while it runs.

use super::lexer::Pos;
use std::collections::HashMap;

/// Interned identifier.
pub type Sym = u32;

/// Interning table mapping identifier text to [`Sym`]s.
#[derive(Clone, Debug, Default)]
pub struct SymTab {
    names: Vec<String>,
    map: HashMap<String, Sym>,
}

impl SymTab {
    /// Intern `name`, returning its stable symbol.
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(&s) = self.map.get(name) {
            return s;
        }
        let s = self.names.len() as Sym;
        self.names.push(name.to_string());
        self.map.insert(name.to_string(), s);
        s
    }

    /// The text of a symbol.
    pub fn name(&self, s: Sym) -> &str {
        &self.names[s as usize]
    }

    /// Look an existing name up without interning.
    pub fn lookup(&self, name: &str) -> Option<Sym> {
        self.map.get(name).copied()
    }
}

/// Thread/block builtins the emitted kernels read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Builtin {
    /// `threadIdx.x` / `get_local_id(0)`.
    Tx,
    /// `threadIdx.y` / `get_local_id(1)`.
    Ty,
    /// `blockIdx.x` / `get_group_id(0)`.
    Bx,
    /// `blockIdx.y` / `get_group_id(1)`.
    By,
}

/// Binary operators of the verified subset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (C truncating division)
    Div,
    /// `%`
    Rem,
    /// `&`
    And,
    /// `&&`
    LAnd,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

/// What an indexed base name refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Base {
    /// The streamed input buffer `in`.
    GlobalIn,
    /// The output buffer `out`.
    GlobalOut,
    /// The coefficient array (`c_coeff` / `coeff`).
    Coeff,
    /// A named local/shared array, pointer, or alias, bound to its
    /// storage by name resolution after parsing.
    Named(Sym),
}

/// Expressions.
#[derive(Clone, Debug)]
pub enum Expr {
    /// Integer literal.
    Num(i64),
    /// Scalar variable read.
    Var(Sym),
    /// Thread/block builtin.
    Builtin(Builtin),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary negation.
    Neg(Box<Expr>),
    /// Indexed read `base[i0][i1]…`.
    Index {
        /// What the base name resolves to.
        base: Base,
        /// One expression per subscript.
        indices: Vec<Expr>,
        /// Source position of the base identifier (the load site id).
        pos: Pos,
    },
    /// `*reinterpret_cast<const vecT*>(&in[idx])`.
    VecLoad {
        /// The address expression (element index into `in`).
        index: Box<Expr>,
        /// 4 for `float4`, 2 for `double2`.
        lanes: u8,
        /// Site id.
        pos: Pos,
    },
    /// Lane read `v.x` … `v.w` of a vector value.
    Lane {
        /// The vector variable.
        var: Sym,
        /// Lane number 0..3.
        lane: u8,
    },
    /// Integer cast (`(int)`, `(size_t)`) — value-transparent.
    CastInt(Box<Expr>),
    /// Data cast (`(float)0`, `(double)0`) — produces a data value.
    CastData(Box<Expr>),
}

/// Assignment targets.
#[derive(Clone, Debug)]
pub enum LValue {
    /// Scalar variable.
    Var(Sym),
    /// Indexed store `base[i0][i1]… = …`.
    Index {
        /// Base resolution.
        base: Base,
        /// Subscripts.
        indices: Vec<Expr>,
    },
}

/// `=` or `+=`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AssignOp {
    /// Plain store.
    Set,
    /// Read-modify-write add.
    Add,
}

/// The step clause of a counted loop.
#[derive(Clone, Debug)]
pub enum Step {
    /// `++i`
    Inc,
    /// `--i`
    Dec,
    /// `i += expr`
    AddAssign(Expr),
}

/// Statements.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// `const int x = e;` / `float acc = e;` — scoped scalar.
    DeclScalar {
        /// Variable name.
        name: Sym,
        /// Initialiser.
        init: Expr,
    },
    /// `float pipe[RY][RX][2*R+1];` — per-thread array, constant dims.
    DeclArray {
        /// Array name.
        name: Sym,
        /// Evaluated dimensions.
        dims: Vec<i64>,
    },
    /// `float* dst = &tile[a][b];` — pointer into a shared array.
    DeclPtr {
        /// Pointer name.
        name: Sym,
        /// Underlying array.
        base: Sym,
        /// Subscripts of the element whose address is taken.
        indices: Vec<Expr>,
        /// Source position.
        pos: Pos,
    },
    /// `float (*tile)[SMEM_W] = tile_pair[e];` — row-view alias into a
    /// buffered pair; the alias behaves as a 2-D array.
    DeclAlias {
        /// Alias name (`tile`).
        name: Sym,
        /// The pair array (`tile_pair`).
        base: Sym,
        /// Buffer-selection expression.
        index: Expr,
        /// Row length of the aliased view (evaluated `SMEM_W`).
        row_len: i64,
        /// Source position.
        pos: Pos,
    },
    /// Assignment.
    Assign {
        /// Target.
        lhs: LValue,
        /// `=` or `+=`.
        op: AssignOp,
        /// Value.
        rhs: Expr,
        /// Source position (the store site id).
        pos: Pos,
    },
    /// `if (cond) { … }`.
    If {
        /// Guard (integer expression).
        cond: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `for (int v = init; cond; step) { … }`.
    For {
        /// Loop variable.
        var: Sym,
        /// Initial value.
        init: Expr,
        /// Continuation guard.
        cond: Expr,
        /// Step clause.
        step: Step,
        /// Body.
        body: Vec<Stmt>,
    },
    /// `__syncthreads();` / `barrier(CLK_LOCAL_MEM_FENCE);`.
    Barrier {
        /// Site id.
        pos: Pos,
    },
    /// `(void)x;` and friends — evaluated for effect, value dropped.
    Nop,
}

/// A shared-memory array declaration (`__shared__` / `__local`).
#[derive(Clone, Debug)]
pub struct SharedDecl {
    /// Array name.
    pub name: Sym,
    /// Evaluated dimensions.
    pub dims: Vec<i64>,
    /// Source position.
    pub pos: Pos,
}

/// The parsed kernel.
#[derive(Clone, Debug)]
pub struct Kernel {
    /// Interning table (diagnostics map symbols back to text).
    pub syms: SymTab,
    /// The `__global__`/`__kernel` function's name.
    pub name: String,
    /// Shared-memory arrays declared in the function.
    pub shared: Vec<SharedDecl>,
    /// Declared extent of the coefficient array (`c_coeff[R+1]`),
    /// when a file-scope `__constant__` declaration exists.
    pub coeff_len: Option<i64>,
    /// Function body.
    pub body: Vec<Stmt>,
    /// Per-thread local array declarations, collected for shape checks
    /// (name → dims), in declaration order.
    pub local_arrays: Vec<(Sym, Vec<i64>)>,
    /// `body` with every name resolved — what the interpreter runs.
    pub(crate) program: Program,
}

// ---- the resolved program -------------------------------------------

/// Largest extent, in elements, of one per-thread local array and of a
/// block's whole shared address space. Larger declarations are reported
/// as implausible (`LNT-K006`) instead of being allocated.
pub(crate) const MAX_ARRAY_EXTENT: i64 = 1 << 20;

/// A frame slot: where one declared scalar, loop variable, pointer or
/// view lives while a thread runs.
pub(crate) type Slot = u32;

/// A scalar name after resolution.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Name {
    /// Bound to the innermost declaration in scope.
    Slot(Slot),
    /// Bound to nothing; raises `unknown variable` when executed.
    Unbound(Sym),
}

/// An indexed base after resolution.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Mem {
    /// The streamed input buffer `in`.
    GlobalIn,
    /// The output buffer `out`.
    GlobalOut,
    /// The coefficient array.
    Coeff,
    /// A pointer or view in scope (any other value fails to index).
    Scoped(Slot),
    /// No scope value of this name: the thread's local array when one
    /// has been declared so far (local arrays outlive their block),
    /// else the shared region, else `unknown array`.
    Array {
        /// The name, for messages.
        sym: Sym,
        /// Local-array id, when the kernel declares one of this name.
        local: Option<u32>,
        /// Shared region, when the kernel declares one of this name.
        region: Option<u32>,
    },
}

/// The base of `T* p = &base[…];` after resolution.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PtrBase {
    /// A view in scope (any other value is an error).
    Scoped(Slot),
    /// A shared region.
    Region {
        /// Region index.
        region: u32,
        /// Its name, for messages.
        sym: Sym,
    },
    /// Neither; raises `unknown shared array` when executed.
    Unbound(Sym),
}

/// A resolved expression; mirrors [`Expr`].
#[derive(Clone, Debug)]
pub(crate) enum RExpr {
    Num(i64),
    Var(Name),
    Builtin(Builtin),
    Bin(BinOp, Box<RExpr>, Box<RExpr>),
    Neg(Box<RExpr>),
    Index {
        mem: Mem,
        indices: Box<[RExpr]>,
        pos: Pos,
    },
    VecLoad {
        index: Box<RExpr>,
        lanes: u8,
        pos: Pos,
    },
    Lane {
        var: Name,
        lane: u8,
    },
    CastInt(Box<RExpr>),
    CastData(Box<RExpr>),
}

/// A resolved assignment target; mirrors [`LValue`].
#[derive(Clone, Debug)]
pub(crate) enum RLValue {
    Var(Name),
    Index { mem: Mem, indices: Box<[RExpr]> },
}

/// A resolved loop step; mirrors [`Step`].
#[derive(Clone, Debug)]
pub(crate) enum RStep {
    Inc,
    Dec,
    AddAssign(RExpr),
}

/// A resolved statement; mirrors [`Stmt`].
#[derive(Clone, Debug)]
pub(crate) enum RStmt {
    DeclScalar {
        slot: Slot,
        init: RExpr,
    },
    DeclArray {
        /// Local-array id of the name.
        local: u32,
        name: Sym,
        dims: Box<[i64]>,
        /// Product of `dims`; `None` when it overflows `i64`.
        extent: Option<i64>,
    },
    DeclPtr {
        slot: Slot,
        base: PtrBase,
        indices: Box<[RExpr]>,
        pos: Pos,
    },
    DeclAlias {
        slot: Slot,
        /// The pair array's name, for messages.
        base: Sym,
        /// The pair array's region, when it is one.
        region: Option<u32>,
        index: RExpr,
        row_len: i64,
        pos: Pos,
    },
    Assign {
        lhs: RLValue,
        op: AssignOp,
        rhs: RExpr,
        pos: Pos,
    },
    If {
        cond: RExpr,
        body: Box<[RStmt]>,
    },
    For {
        slot: Slot,
        init: RExpr,
        cond: RExpr,
        step: RStep,
        body: Box<[RStmt]>,
    },
    Barrier {
        pos: Pos,
    },
    Nop,
}

/// One shared array laid out in the block's flat shared address space.
#[derive(Clone, Debug)]
pub(crate) struct Region {
    /// First flat address.
    pub base: i64,
    /// Declared dimensions.
    pub dims: Box<[i64]>,
}

/// A shared declaration whose extent cannot be laid out.
#[derive(Clone, Debug)]
pub(crate) struct ImplausibleShared {
    /// Position of the offending declaration.
    pub pos: Pos,
    /// What is wrong with it.
    pub detail: String,
}

/// A kernel body with every name bound to its storage, plus the flat
/// layout of the storage itself.
#[derive(Clone, Debug)]
pub(crate) struct Program {
    /// The resolved statements.
    pub body: Box<[RStmt]>,
    /// The name declared into each frame slot, for messages.
    pub slot_names: Box<[Sym]>,
    /// Slots of the scalar kernel arguments (`interp::PARAMS`), when
    /// the kernel names them.
    pub params: [Option<Slot>; 5],
    /// Distinct local-array names.
    pub locals: usize,
    /// Shared regions in declaration order, and the size of the flat
    /// shared address space they span — or the declaration that makes
    /// the layout implausible.
    pub shared: Result<(Box<[Region]>, i64), ImplausibleShared>,
}

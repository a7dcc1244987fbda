//! Concrete per-thread evaluator for the kernel's resolved program.
//!
//! Every thread of one block is executed to completion, in thread-id
//! order, against a concrete launch geometry. Index values are plain
//! `i64`; data values are 64-bit *provenance hashes* — a global load
//! yields `hash(GLOBAL, addr)`, arithmetic folds operand hashes, a
//! shared read yields a phase-tagged hash. Provenance is what lets the
//! race check tell a benign re-stage of the same global cell (equal
//! hashes) from a genuine conflict (different hashes).
//!
//! Running threads sequentially is sound for the emitted kernels
//! because shared-memory *writes* never depend on shared-memory
//! *reads*: staged values come straight from global loads (directly or
//! through the per-thread pipeline), so thread order cannot change any
//! address or any written provenance. The verifier's race check (K004)
//! is exactly the condition under which this independence holds.
//!
//! The evaluator runs the `Program` the parser resolved, so no name
//! is looked up while a thread runs, and its state is flat: a thread's
//! scalars, pointers and views sit in a frame of slots, all its local
//! arrays in one `Vec<u64>`, and subscripts are evaluated into a
//! fixed-size buffer. The block's shared memory is one dense array of
//! race cells per barrier phase over the laid-out shared address space.
//! Names are formatted only when a violation or an error is recorded.

use super::ast::{
    AssignOp, BinOp, Builtin, Kernel, Mem, Name, Program, PtrBase, RExpr, RLValue, RStep, RStmt,
    Region, Sym, SymTab, MAX_ARRAY_EXTENT,
};
use super::lexer::Pos;
use std::collections::{BTreeMap, BTreeSet};

/// Concrete launch geometry and buffer shape for one verification run.
#[derive(Clone, Copy, Debug)]
pub struct LaunchEnv {
    /// Threads per block `(TX, TY)`.
    pub block: (i64, i64),
    /// Blocks per grid `(gx, gy)`.
    pub grid: (i64, i64),
    /// Logical x extent (`lx` kernel argument).
    pub nx: i64,
    /// Logical y extent (`ly`).
    pub ny: i64,
    /// Logical z extent / plane count (`lz`).
    pub nz: i64,
    /// Padded x pitch in elements (`stride`).
    pub stride: i64,
    /// Plane pitch in elements (`pstride`, normally `stride * ny`).
    pub pstride: i64,
    /// Coefficient-array extent when the kernel does not declare one
    /// itself (OpenCL passes `coeff` as a parameter).
    pub coeff_len: i64,
    /// Per-thread statement budget — bounds runaway mutants.
    pub step_budget: u64,
}

/// One global-memory access (element addresses).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GlobalAccess {
    /// Source site of the access.
    pub pos: Pos,
    /// First element address.
    pub addr: i64,
    /// Consecutive elements touched (vector width; 1 for scalar).
    pub len: u8,
}

/// What went wrong, mapped to an `LNT-K…` code by the verifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ViolationKind {
    /// Shared-memory access out of bounds (K001).
    SharedOob,
    /// Per-thread or constant array access out of bounds (K001).
    LocalOob,
    /// Global access outside the buffer, or a misaligned vector
    /// access (K002).
    GlobalOob,
    /// Threads of the block executed different barrier sequences
    /// (K003).
    BarrierDivergence,
    /// Conflicting same-phase shared-memory accesses (K004).
    SharedRace,
    /// The program could not be evaluated — a construct outside the
    /// verified subset was reached dynamically, or a declared extent is
    /// implausible (K006).
    Eval,
    /// Per-thread statement budget exhausted (K006).
    Budget,
}

/// A recorded violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Category.
    pub kind: ViolationKind,
    /// Source site.
    pub pos: Pos,
    /// Human-readable specifics.
    pub detail: String,
}

/// Everything observed while executing one block.
#[derive(Clone, Debug, Default)]
pub struct BlockEvents {
    /// Global loads from `in`, all threads, program order per thread.
    pub loads: Vec<GlobalAccess>,
    /// Global stores to `out`.
    pub stores: Vec<GlobalAccess>,
    /// Violations, deduplicated by (kind, site), capped.
    pub violations: Vec<Violation>,
    /// Barrier sites executed by thread 0, in order.
    pub barrier_trace: Vec<Pos>,
}

const MAX_VIOLATIONS: usize = 256;

const TAG_GLOBAL: u64 = 1;
const TAG_COEFF: u64 = 2;
const TAG_CONST: u64 = 3;
const TAG_OP: u64 = 4;
const TAG_SHARED: u64 = 5;
const TAG_INT: u64 = 6;
const TAG_UNINIT: u64 = 7;
const TAG_NEG: u64 = 8;

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_add(0x632B_E593_86D1_931F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix3(a: u64, b: u64, c: u64) -> u64 {
    mix(mix(a, b), c)
}

/// Runtime values.
#[derive(Clone, Copy, Debug)]
enum Val {
    Int(i64),
    Data(u64),
    Vec([u64; 4], u8),
    /// Pointer into shared memory: flat address plus the elements left
    /// in the row it was formed in (lane stores must not cross rows).
    Ptr {
        addr: i64,
        row_rem: i64,
    },
    /// 2-D view into a buffered pair (`tile_pair[sel]`): flat base,
    /// extent of one buffer, declared row length.
    View {
        base: i64,
        extent: i64,
        row_len: i64,
    },
}

/// A declared local array: its cells in the thread's local store and
/// its declared dims.
#[derive(Clone, Copy)]
struct LocalArr<'p> {
    off: usize,
    len: usize,
    /// Cells reserved at `off`; a redeclaration that fits reuses them.
    cap: usize,
    dims: &'p [i64],
}

/// No thread: the cell has not been written (or read) in its phase.
const NO_THREAD: u32 = u32::MAX;

/// Race bookkeeping of one shared cell in one barrier phase.
#[derive(Clone, Copy)]
struct Cell {
    /// Provenance of the last write.
    prov: u64,
    /// Thread of the last write.
    writer: u32,
    /// First thread to read the cell.
    reader: u32,
}

impl Cell {
    const EMPTY: Cell = Cell {
        prov: 0,
        writer: NO_THREAD,
        reader: NO_THREAD,
    };
}

/// Cells of dense phase blocks kept at most — the bound on one declared
/// array, so no declaration can make the store grow without limit.
const MAX_DENSE_CELLS: usize = MAX_ARRAY_EXTENT as usize;
/// `SharedCells::blocks` entry of a phase not touched yet.
const UNTOUCHED: u32 = u32::MAX;
/// `SharedCells::blocks` entry of a phase kept in the sparse map.
const SPARSE: u32 = u32::MAX - 1;

/// The block's shared-memory race cells, per barrier phase.
struct SharedCells {
    /// Size of the laid-out shared address space.
    extent: usize,
    /// Per phase, its block of `extent` cells in `dense`.
    blocks: Vec<u32>,
    dense: Vec<Cell>,
    /// Cells no dense block holds: addresses outside the laid-out space
    /// (formed by broken pointers or views) and phases past the dense
    /// budget (runaway barrier loops).
    sparse: BTreeMap<(u32, i64), Cell>,
}

impl SharedCells {
    fn cell(&mut self, phase: u32, addr: i64) -> &mut Cell {
        if addr >= 0 && (addr as usize) < self.extent {
            let p = phase as usize;
            if p >= self.blocks.len() {
                self.blocks.resize(p + 1, UNTOUCHED);
            }
            if self.blocks[p] == UNTOUCHED {
                let used = self.dense.len();
                self.blocks[p] = if used + self.extent <= MAX_DENSE_CELLS {
                    self.dense.resize(used + self.extent, Cell::EMPTY);
                    (used / self.extent) as u32
                } else {
                    SPARSE
                };
            }
            let block = self.blocks[p];
            if block != SPARSE {
                return &mut self.dense[block as usize * self.extent + addr as usize];
            }
        }
        self.sparse.entry((phase, addr)).or_insert(Cell::EMPTY)
    }
}

/// Why a thread stopped early.
enum ExecError {
    /// The program could not be evaluated (K006 `Eval`).
    Eval(String),
    /// The per-thread step budget ran out (K006 `Budget`).
    Budget(&'static str),
}

fn ee(msg: impl Into<String>) -> ExecError {
    ExecError::Eval(msg.into())
}

type EResult<T> = Result<T, ExecError>;

/// Subscripts evaluated into a fixed-size buffer; a list longer than
/// the buffer (never emitted) spills to the heap.
struct Subs {
    inline: [i64; 4],
    len: usize,
    spill: Vec<i64>,
}

impl Subs {
    fn new() -> Self {
        Subs {
            inline: [0; 4],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn push(&mut self, v: i64) {
        let n = self.inline.len();
        if self.len < n {
            self.inline[self.len] = v;
        } else {
            if self.len == n {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(v);
        }
        self.len += 1;
    }

    fn as_slice(&self) -> &[i64] {
        if self.len <= self.inline.len() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

/// One thread's state, reused from thread to thread.
struct Thread<'p> {
    id: u32,
    /// Scalars, loop variables, pointers and views, by slot.
    frame: Vec<Val>,
    /// Local arrays by id, once declared. They stay visible to the end
    /// of the thread, whichever block declared them.
    locals: Vec<Option<LocalArr<'p>>>,
    /// The cells of every local array.
    store: Vec<u64>,
    phase: u32,
    trace: Vec<Pos>,
    steps: u64,
    cur_pos: Pos,
}

impl Thread<'_> {
    fn reset(&mut self, id: u32) {
        self.id = id;
        self.frame.fill(Val::Int(0));
        self.locals.fill(None);
        self.store.clear();
        self.phase = 0;
        self.trace.clear();
        self.steps = 0;
        self.cur_pos = Pos { line: 1, col: 1 };
    }
}

struct Interp<'p> {
    p: &'p Program,
    syms: &'p SymTab,
    regions: &'p [Region],
    env: LaunchEnv,
    bx: i64,
    by: i64,
    shared: SharedCells,
    ev: BlockEvents,
    seen: BTreeSet<(ViolationKind, Pos)>,
    buf_len: i64,
    coeff_len: i64,
}

impl<'p> Interp<'p> {
    fn violate(&mut self, kind: ViolationKind, pos: Pos, detail: impl FnOnce() -> String) {
        if self.ev.violations.len() >= MAX_VIOLATIONS {
            return;
        }
        if self.seen.insert((kind, pos)) {
            self.ev.violations.push(Violation {
                kind,
                pos,
                detail: detail(),
            });
        }
    }

    fn clamp(v: i64, hi: i64) -> i64 {
        v.clamp(0, hi.max(1) - 1)
    }

    fn slot_name(&self, slot: u32) -> &'p str {
        self.syms.name(self.p.slot_names[slot as usize])
    }

    /// Per-dimension bounds check; returns the clamped flat offset.
    fn checked_flat(
        &mut self,
        kind: ViolationKind,
        sym: Sym,
        idx: &[i64],
        dims: &[i64],
        pos: Pos,
    ) -> i64 {
        let syms = self.syms;
        let mut flat = 0i64;
        if idx.len() != dims.len() {
            self.violate(kind, pos, || {
                format!(
                    "{}: {} subscripts for {} dims",
                    syms.name(sym),
                    idx.len(),
                    dims.len()
                )
            });
        }
        for (d, &dim) in dims.iter().enumerate() {
            let i = idx.get(d).copied().unwrap_or(0);
            if i < 0 || i >= dim {
                self.violate(kind, pos, || {
                    format!(
                        "{}[…]: index {i} outside [0, {dim}) in dim {d}",
                        syms.name(sym)
                    )
                });
            }
            flat = flat.wrapping_mul(dim).wrapping_add(Self::clamp(i, dim));
        }
        flat
    }

    /// The store index of `a[idx…]`, with bounds checks.
    fn local_cell(&mut self, a: LocalArr<'p>, sym: Sym, idx: &[i64], pos: Pos) -> usize {
        let flat = self.checked_flat(ViolationKind::LocalOob, sym, idx, a.dims, pos);
        // Only dims of mixed sign can carry the clamped offset outside.
        a.off + flat.clamp(0, a.len as i64 - 1) as usize
    }

    /// The flat shared address of `region[idx…]`, with bounds checks.
    fn region_addr(&mut self, region: u32, sym: Sym, idx: &[i64], pos: Pos) -> i64 {
        let r = &self.regions[region as usize];
        let flat = self.checked_flat(ViolationKind::SharedOob, sym, idx, &r.dims, pos);
        r.base.wrapping_add(flat)
    }

    fn shared_read(&mut self, t: &Thread, addr: i64, pos: Pos) -> u64 {
        let cell = self.shared.cell(t.phase, addr);
        let writer = cell.writer;
        if cell.reader == NO_THREAD {
            cell.reader = t.id;
        }
        if writer != NO_THREAD && writer != t.id {
            let id = t.id;
            self.violate(ViolationKind::SharedRace, pos, || {
                format!("thread {id} reads a cell thread {writer} writes in the same barrier phase")
            });
        }
        mix3(TAG_SHARED, addr as u64, t.phase as u64)
    }

    fn shared_write(&mut self, t: &Thread, addr: i64, prov: u64, pos: Pos) {
        let cell = self.shared.cell(t.phase, addr);
        let id = t.id;
        // A read-write conflict outranks a write-write one.
        let mut race = None;
        if cell.writer != NO_THREAD && cell.prov != prov {
            race = Some((cell.writer, false));
        }
        if cell.reader != NO_THREAD && cell.reader != id {
            race = Some((cell.reader, true));
        }
        cell.prov = prov;
        cell.writer = id;
        if let Some((other, reads)) = race {
            self.violate(ViolationKind::SharedRace, pos, || {
                if reads {
                    format!(
                        "thread {id} writes a cell thread {other} reads in the same barrier phase"
                    )
                } else {
                    format!(
                        "threads {other} and {id} write different values to one cell in one barrier phase"
                    )
                }
            });
        }
    }

    fn global_load(&mut self, addr: i64, len: u8, pos: Pos) -> u64 {
        let buf_len = self.buf_len;
        if addr < 0 || addr.checked_add(len as i64).is_none_or(|end| end > buf_len) {
            self.violate(ViolationKind::GlobalOob, pos, || {
                format!("load of {len} element(s) at {addr} outside buffer of {buf_len} elements")
            });
            return mix(TAG_GLOBAL, u64::MAX);
        }
        self.ev.loads.push(GlobalAccess { pos, addr, len });
        mix(TAG_GLOBAL, addr as u64)
    }

    fn global_store(&mut self, addr: i64, pos: Pos) {
        let buf_len = self.buf_len;
        if addr < 0 || addr >= buf_len {
            self.violate(ViolationKind::GlobalOob, pos, || {
                format!("store at {addr} outside buffer of {buf_len} elements")
            });
            return;
        }
        self.ev.stores.push(GlobalAccess { pos, addr, len: 1 });
    }

    fn coeff_read(&mut self, idx: i64, pos: Pos) -> u64 {
        let coeff_len = self.coeff_len;
        if idx < 0 || idx >= coeff_len {
            self.violate(ViolationKind::LocalOob, pos, || {
                format!("coeff[{idx}] outside [0, {coeff_len})")
            });
        }
        mix(TAG_COEFF, Self::clamp(idx, coeff_len) as u64)
    }

    // ---- expression evaluation --------------------------------------

    fn lookup(t: &Thread, n: Name) -> Option<Val> {
        match n {
            Name::Slot(slot) => Some(t.frame[slot as usize]),
            Name::Unbound(_) => None,
        }
    }

    fn name_of(&self, n: Name) -> &'p str {
        match n {
            Name::Slot(slot) => self.slot_name(slot),
            Name::Unbound(sym) => self.syms.name(sym),
        }
    }

    fn to_int(&self, v: Val) -> EResult<i64> {
        match v {
            Val::Int(n) => Ok(n),
            other => Err(ee(format!("expected an integer value, found {other:?}"))),
        }
    }

    fn to_data(&self, v: Val) -> EResult<u64> {
        match v {
            Val::Data(d) => Ok(d),
            Val::Int(n) => Ok(mix(TAG_INT, n as u64)),
            other => Err(ee(format!("expected a data value, found {other:?}"))),
        }
    }

    fn subscripts(&mut self, t: &mut Thread<'p>, indices: &'p [RExpr]) -> EResult<Subs> {
        let mut subs = Subs::new();
        for ix in indices {
            let v = self.eval(t, ix)?;
            subs.push(self.to_int(v)?);
        }
        Ok(subs)
    }

    /// Evaluate `e`. Literals and bound variables — most operands — are
    /// read in place; every other node is one call.
    #[inline(always)]
    fn eval(&mut self, t: &mut Thread<'p>, e: &'p RExpr) -> EResult<Val> {
        match e {
            RExpr::Num(n) => Ok(Val::Int(*n)),
            RExpr::Var(Name::Slot(slot)) => Ok(t.frame[*slot as usize]),
            _ => self.eval_node(t, e),
        }
    }

    fn eval_node(&mut self, t: &mut Thread<'p>, e: &'p RExpr) -> EResult<Val> {
        match e {
            RExpr::Num(n) => Ok(Val::Int(*n)),
            RExpr::Builtin(b) => Ok(Val::Int(match b {
                Builtin::Tx => t.id as i64 % self.env.block.0,
                Builtin::Ty => t.id as i64 / self.env.block.0,
                Builtin::Bx => self.bx,
                Builtin::By => self.by,
            })),
            RExpr::Var(n) => Self::lookup(t, *n)
                .ok_or_else(|| ee(format!("unknown variable `{}`", self.name_of(*n)))),
            RExpr::Neg(x) => match self.eval(t, x)? {
                Val::Int(n) => Ok(Val::Int(n.wrapping_neg())),
                Val::Data(d) => Ok(Val::Data(mix(TAG_NEG, d))),
                other => Err(ee(format!("cannot negate {other:?}"))),
            },
            RExpr::CastInt(x) => {
                let v = self.eval(t, x)?;
                let n = self.to_int(v)?;
                Ok(Val::Int(n))
            }
            RExpr::CastData(x) => {
                let v = self.eval(t, x)?;
                match v {
                    Val::Data(d) => Ok(Val::Data(d)),
                    Val::Int(n) => Ok(Val::Data(mix(TAG_CONST, n as u64))),
                    other => Err(ee(format!("cannot cast {other:?} to data"))),
                }
            }
            RExpr::Lane { var, lane } => match Self::lookup(t, *var) {
                Some(Val::Vec(lanes, n)) => {
                    if *lane < n {
                        Ok(Val::Data(lanes[*lane as usize]))
                    } else {
                        Err(ee(format!("lane {lane} of a {n}-lane vector")))
                    }
                }
                _ => Err(ee(format!(
                    "`.{lane}` on non-vector `{}`",
                    self.name_of(*var)
                ))),
            },
            RExpr::VecLoad { index, lanes, pos } => {
                let v = self.eval(t, index)?;
                let addr = self.to_int(v)?;
                let lanes = *lanes;
                if addr % (lanes as i64) != 0 {
                    self.violate(ViolationKind::GlobalOob, *pos, || {
                        format!("{lanes}-wide vector load at misaligned address {addr}")
                    });
                }
                let base = self.global_load(addr, lanes, *pos);
                let mut ls = [0u64; 4];
                for (i, l) in ls.iter_mut().enumerate().take(lanes as usize) {
                    *l = if i == 0 {
                        base
                    } else {
                        mix(TAG_GLOBAL, addr.wrapping_add(i as i64) as u64)
                    };
                }
                Ok(Val::Vec(ls, lanes))
            }
            RExpr::Bin(op, a, b) => {
                let va = self.eval(t, a)?;
                let vb = self.eval(t, b)?;
                self.eval_bin(*op, va, vb)
            }
            RExpr::Index { mem, indices, pos } => {
                t.cur_pos = *pos;
                let subs = self.subscripts(t, indices)?;
                self.read_index(t, *mem, subs.as_slice(), *pos)
            }
        }
    }

    fn eval_bin(&mut self, op: BinOp, a: Val, b: Val) -> EResult<Val> {
        if let (Val::Int(x), Val::Int(y)) = (a, b) {
            return match int_bin(op, x, y) {
                Some(r) => Ok(Val::Int(r)),
                None if op == BinOp::Div => Err(ee("integer division by zero")),
                None => Err(ee("integer remainder by zero")),
            };
        }
        // Data arithmetic folds provenance; comparisons and logic on
        // data values are outside the subset (they would make control
        // flow data-dependent).
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                let x = self.to_data(a)?;
                let y = self.to_data(b)?;
                Ok(Val::Data(mix3(TAG_OP, mix(op_code(op), x), y)))
            }
            _ => Err(ee("comparison or logic on data values")),
        }
    }

    fn read_index(&mut self, t: &mut Thread<'p>, mem: Mem, idx: &[i64], pos: Pos) -> EResult<Val> {
        match mem {
            Mem::GlobalIn => {
                if idx.len() != 1 {
                    return Err(ee("`in` takes exactly one subscript"));
                }
                Ok(Val::Data(self.global_load(idx[0], 1, pos)))
            }
            Mem::GlobalOut => Err(ee("reads from `out` are outside the subset")),
            Mem::Coeff => {
                if idx.len() != 1 {
                    return Err(ee("coefficient array takes one subscript"));
                }
                Ok(Val::Data(self.coeff_read(idx[0], pos)))
            }
            Mem::Scoped(slot) => {
                let addr = self.ptr_addr(slot, t.frame[slot as usize], idx, pos)?;
                Ok(Val::Data(self.shared_read(t, addr, pos)))
            }
            Mem::Array { sym, local, region } => {
                if let Some(a) = local.and_then(|l| t.locals[l as usize]) {
                    let cell = self.local_cell(a, sym, idx, pos);
                    return Ok(Val::Data(t.store[cell]));
                }
                if let Some(region) = region {
                    let addr = self.region_addr(region, sym, idx, pos);
                    return Ok(Val::Data(self.shared_read(t, addr, pos)));
                }
                Err(ee(format!("unknown array `{}`", self.syms.name(sym))))
            }
        }
    }

    /// Resolve an index through the `Ptr`/`View` in `slot` to a flat
    /// shared address, with bounds checks.
    fn ptr_addr(&mut self, slot: u32, v: Val, idx: &[i64], pos: Pos) -> EResult<i64> {
        let name = self.slot_name(slot);
        match v {
            Val::Ptr { addr, row_rem } => {
                if idx.len() != 1 {
                    return Err(ee(format!("pointer `{name}` takes one subscript")));
                }
                let k = idx[0];
                if k < 0 || k >= row_rem {
                    self.violate(ViolationKind::SharedOob, pos, || {
                        format!("{name}[{k}]: lane store crosses a shared-memory row ({row_rem} elements remain)")
                    });
                }
                Ok(addr.wrapping_add(Self::clamp(k, row_rem)))
            }
            Val::View {
                base,
                extent,
                row_len,
            } => {
                if idx.len() != 2 {
                    return Err(ee(format!("view `{name}` takes two subscripts")));
                }
                let (i0, i1) = (idx[0], idx[1]);
                if i1 < 0 || i1 >= row_len {
                    self.violate(ViolationKind::SharedOob, pos, || {
                        format!("{name}[…][{i1}]: column outside [0, {row_len})")
                    });
                }
                let flat = i0
                    .wrapping_mul(row_len)
                    .wrapping_add(Self::clamp(i1, row_len));
                if flat < 0 || flat >= extent {
                    self.violate(ViolationKind::SharedOob, pos, || {
                        format!(
                            "{name}[{i0}][{i1}]: outside the selected buffer of {extent} elements"
                        )
                    });
                }
                Ok(base.wrapping_add(Self::clamp(flat, extent)))
            }
            other => Err(ee(format!("`{name}` ({other:?}) is not indexable"))),
        }
    }

    // ---- statements --------------------------------------------------

    fn exec_stmts(&mut self, t: &mut Thread<'p>, body: &'p [RStmt]) -> EResult<()> {
        for s in body {
            self.exec_stmt(t, s)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, t: &mut Thread<'p>, s: &'p RStmt) -> EResult<()> {
        t.steps += 1;
        if t.steps > self.env.step_budget {
            return Err(ExecError::Budget("per-thread statement budget exhausted"));
        }
        match s {
            RStmt::Nop => Ok(()),
            RStmt::Barrier { pos } => {
                t.phase += 1;
                t.trace.push(*pos);
                Ok(())
            }
            RStmt::DeclScalar { slot, init } => {
                t.frame[*slot as usize] = self.eval(t, init)?;
                Ok(())
            }
            RStmt::DeclArray {
                local,
                name,
                dims,
                extent,
            } => {
                let len = match *extent {
                    Some(e) if e > 0 && e <= MAX_ARRAY_EXTENT => e as usize,
                    Some(e) => {
                        return Err(ee(format!(
                            "local array `{}` has implausible extent {e}",
                            self.syms.name(*name)
                        )))
                    }
                    None => {
                        return Err(ee(format!(
                            "local array `{}` has implausible extent: the product of its dims {dims:?} overflows",
                            self.syms.name(*name)
                        )))
                    }
                };
                let (off, cap) = match t.locals[*local as usize] {
                    Some(a) if a.cap >= len => (a.off, a.cap),
                    _ => {
                        let off = t.store.len();
                        t.store.resize(off + len, 0);
                        (off, len)
                    }
                };
                for (i, c) in t.store[off..off + len].iter_mut().enumerate() {
                    *c = mix3(TAG_UNINIT, *name as u64, i as u64);
                }
                t.locals[*local as usize] = Some(LocalArr {
                    off,
                    len,
                    cap,
                    dims,
                });
                Ok(())
            }
            RStmt::DeclPtr {
                slot,
                base,
                indices,
                pos,
            } => {
                t.cur_pos = *pos;
                let subs = self.subscripts(t, indices)?;
                let idx = subs.as_slice();
                let v = match *base {
                    PtrBase::Scoped(view) => match t.frame[view as usize] {
                        Val::View {
                            base: vb,
                            extent,
                            row_len,
                        } => {
                            if idx.len() != 2 {
                                return Err(ee("pointer into a view takes two subscripts"));
                            }
                            let (i0, i1) = (idx[0], idx[1]);
                            let flat = i0.wrapping_mul(row_len).wrapping_add(i1);
                            if flat < 0 || flat >= extent || i1 < 0 || i1 >= row_len {
                                let name = self.slot_name(view);
                                self.violate(ViolationKind::SharedOob, *pos, || {
                                    format!("&{name}[{i0}][{i1}] outside the selected buffer")
                                });
                            }
                            Val::Ptr {
                                addr: vb.wrapping_add(Self::clamp(flat, extent)),
                                row_rem: (row_len - Self::clamp(i1, row_len)).max(1),
                            }
                        }
                        other => {
                            return Err(ee(format!("cannot take a row pointer into {other:?}")))
                        }
                    },
                    PtrBase::Region { region, sym } => {
                        let addr = self.region_addr(region, sym, idx, *pos);
                        let dims = &self.regions[region as usize].dims;
                        let last_dim = *dims.last().unwrap_or(&1);
                        let last_idx = Self::clamp(idx.last().copied().unwrap_or(0), last_dim);
                        Val::Ptr {
                            addr,
                            row_rem: (last_dim - last_idx).max(1),
                        }
                    }
                    PtrBase::Unbound(sym) => {
                        return Err(ee(format!(
                            "`&{}[…]`: unknown shared array",
                            self.syms.name(sym)
                        )))
                    }
                };
                t.frame[*slot as usize] = v;
                Ok(())
            }
            RStmt::DeclAlias {
                slot,
                base,
                region,
                index,
                row_len,
                pos,
            } => {
                t.cur_pos = *pos;
                let Some(region) = region else {
                    return Err(ee(format!(
                        "alias base `{}` is not a shared array",
                        self.syms.name(*base)
                    )));
                };
                let r = &self.regions[*region as usize];
                let (rb, rd) = (r.base, &r.dims);
                if rd.len() != 3 {
                    return Err(ee("alias base must be a [bufs][rows][cols] array"));
                }
                let v = self.eval(t, index)?;
                let sel = self.to_int(v)?;
                let bufs = rd[0];
                if sel < 0 || sel >= bufs {
                    self.violate(ViolationKind::SharedOob, *pos, || {
                        format!("buffer selector {sel} outside [0, {bufs})")
                    });
                }
                let per_buf = rd[1].wrapping_mul(rd[2]);
                t.frame[*slot as usize] = Val::View {
                    base: rb.wrapping_add(Self::clamp(sel, bufs).wrapping_mul(per_buf)),
                    extent: per_buf,
                    row_len: *row_len,
                };
                Ok(())
            }
            RStmt::If { cond, body } => {
                let v = self.eval(t, cond)?;
                if self.to_int(v)? != 0 {
                    self.exec_stmts(t, body)?;
                }
                Ok(())
            }
            RStmt::For {
                slot,
                init,
                cond,
                step,
                body,
            } => {
                t.frame[*slot as usize] = self.eval(t, init)?;
                self.run_loop(t, *slot as usize, cond, step, body)
            }
            RStmt::Assign { lhs, op, rhs, pos } => {
                t.cur_pos = *pos;
                let rv = self.eval(t, rhs)?;
                self.assign(t, lhs, *op, rv, *pos)
            }
        }
    }

    fn run_loop(
        &mut self,
        t: &mut Thread<'p>,
        slot: usize,
        cond: &'p RExpr,
        step: &'p RStep,
        body: &'p [RStmt],
    ) -> EResult<()> {
        loop {
            t.steps += 1;
            if t.steps > self.env.step_budget {
                return Err(ExecError::Budget(
                    "per-thread statement budget exhausted in a loop",
                ));
            }
            let c = self.eval(t, cond)?;
            if self.to_int(c)? == 0 {
                return Ok(());
            }
            self.exec_stmts(t, body)?;
            let cur = match t.frame[slot] {
                Val::Int(n) => n,
                _ => return Err(ee("loop variable lost its integer value")),
            };
            let next = match step {
                RStep::Inc => cur.wrapping_add(1),
                RStep::Dec => cur.wrapping_sub(1),
                RStep::AddAssign(e) => {
                    let v = self.eval(t, e)?;
                    cur.wrapping_add(self.to_int(v)?)
                }
            };
            t.frame[slot] = Val::Int(next);
        }
    }

    fn assign(
        &mut self,
        t: &mut Thread<'p>,
        lhs: &'p RLValue,
        op: AssignOp,
        rv: Val,
        pos: Pos,
    ) -> EResult<()> {
        match lhs {
            RLValue::Var(n) => {
                let new = match op {
                    AssignOp::Set => rv,
                    AssignOp::Add => {
                        let old = Self::lookup(t, *n).ok_or_else(|| {
                            ee(format!("unknown variable `{}`", self.name_of(*n)))
                        })?;
                        match (old, rv) {
                            (Val::Int(a), Val::Int(b)) => Val::Int(a.wrapping_add(b)),
                            (a, b) => {
                                let x = self.to_data(a)?;
                                let y = self.to_data(b)?;
                                Val::Data(mix3(TAG_OP, mix(op_code(BinOp::Add), x), y))
                            }
                        }
                    }
                };
                match n {
                    Name::Slot(slot) => {
                        t.frame[*slot as usize] = new;
                        Ok(())
                    }
                    Name::Unbound(sym) => Err(ee(format!(
                        "assignment to undeclared `{}`",
                        self.syms.name(*sym)
                    ))),
                }
            }
            RLValue::Index { mem, indices } => {
                let subs = self.subscripts(t, indices)?;
                let idx = subs.as_slice();
                if op != AssignOp::Set {
                    // `+=` is admitted only on per-thread local arrays
                    // (the register-pipeline update in the in-plane
                    // kernels): the desugared read-modify-write needs
                    // no race bookkeeping there. Shared and global
                    // memory stay outside the subset.
                    if let Mem::Array {
                        sym,
                        local: Some(l),
                        ..
                    } = *mem
                    {
                        if let Some(a) = t.locals[l as usize] {
                            let cell = self.local_cell(a, sym, idx, pos);
                            let old = t.store[cell];
                            let add = self.to_data(rv)?;
                            t.store[cell] = mix3(TAG_OP, mix(op_code(BinOp::Add), old), add);
                            return Ok(());
                        }
                    }
                    return Err(ee("compound assignment to memory is outside the subset"));
                }
                match *mem {
                    Mem::GlobalIn => Err(ee("stores to `in` are outside the subset")),
                    Mem::Coeff => Err(ee("stores to the coefficient array are outside the subset")),
                    Mem::GlobalOut => {
                        if idx.len() != 1 {
                            return Err(ee("`out` takes exactly one subscript"));
                        }
                        let _ = self.to_data(rv)?;
                        self.global_store(idx[0], pos);
                        Ok(())
                    }
                    Mem::Scoped(slot) => {
                        let prov = self.to_data(rv)?;
                        let addr = self.ptr_addr(slot, t.frame[slot as usize], idx, pos)?;
                        self.shared_write(t, addr, prov, pos);
                        Ok(())
                    }
                    Mem::Array { sym, local, region } => {
                        let prov = self.to_data(rv)?;
                        if let Some(a) = local.and_then(|l| t.locals[l as usize]) {
                            let cell = self.local_cell(a, sym, idx, pos);
                            t.store[cell] = prov;
                            return Ok(());
                        }
                        if let Some(region) = region {
                            let addr = self.region_addr(region, sym, idx, pos);
                            self.shared_write(t, addr, prov, pos);
                            return Ok(());
                        }
                        Err(ee(format!("unknown array `{}`", self.syms.name(sym))))
                    }
                }
            }
        }
    }
}

/// Integer arithmetic of the subset: wrapping, C-truncating, comparisons
/// and logic as 0/1. `None` for a division or remainder by zero.
pub(super) fn int_bin(op: BinOp, x: i64, y: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div | BinOp::Rem if y == 0 => return None,
        BinOp::Div => x.wrapping_div(y),
        BinOp::Rem => x.wrapping_rem(y),
        BinOp::And => x & y,
        BinOp::LAnd => ((x != 0) && (y != 0)) as i64,
        BinOp::Lt => (x < y) as i64,
        BinOp::Le => (x <= y) as i64,
        BinOp::Gt => (x > y) as i64,
        BinOp::Ge => (x >= y) as i64,
        BinOp::Eq => (x == y) as i64,
        BinOp::Ne => (x != y) as i64,
    })
}

fn op_code(op: BinOp) -> u64 {
    match op {
        BinOp::Add => 11,
        BinOp::Sub => 12,
        BinOp::Mul => 13,
        BinOp::Div => 14,
        _ => 15,
    }
}

/// The scalar kernel arguments threads read by name: `Program::params`
/// holds their slots in this order, and [`run_block`] binds them to the
/// launch's `nx`, `ny`, `nz`, `stride` and `pstride`.
pub(super) const PARAMS: [&str; 5] = ["lx", "ly", "lz", "stride", "pstride"];

/// Execute every thread of block `(bx, by)` and collect its events.
///
/// A kernel whose shared declarations cannot be laid out (an extent
/// that overflows or exceeds the bound) runs no thread: the block
/// reports one [`ViolationKind::Eval`] at the offending declaration.
pub fn run_block(kernel: &Kernel, env: &LaunchEnv, bx: i64, by: i64) -> BlockEvents {
    let p = &kernel.program;
    let (regions, extent) = match &p.shared {
        Ok((regions, extent)) => (&regions[..], *extent),
        Err(bad) => {
            return BlockEvents {
                violations: vec![Violation {
                    kind: ViolationKind::Eval,
                    pos: bad.pos,
                    detail: bad.detail.clone(),
                }],
                ..BlockEvents::default()
            }
        }
    };
    let mut it = Interp {
        p,
        syms: &kernel.syms,
        regions,
        env: *env,
        bx,
        by,
        shared: SharedCells {
            extent: extent as usize,
            blocks: Vec::new(),
            dense: Vec::new(),
            sparse: BTreeMap::new(),
        },
        ev: BlockEvents::default(),
        seen: BTreeSet::new(),
        buf_len: env.pstride.saturating_mul(env.nz),
        coeff_len: kernel.coeff_len.unwrap_or(env.coeff_len),
    };

    let params = [env.nx, env.ny, env.nz, env.stride, env.pstride];

    let nthreads = (env.block.0.saturating_mul(env.block.1)).max(0) as u32;
    let mut t = Thread {
        id: 0,
        frame: vec![Val::Int(0); p.slot_names.len()],
        locals: vec![None; p.locals],
        store: Vec::new(),
        phase: 0,
        trace: Vec::new(),
        steps: 0,
        cur_pos: Pos { line: 1, col: 1 },
    };
    let mut diverged = false;
    for id in 0..nthreads {
        t.reset(id);
        for (slot, v) in p.params.iter().zip(params) {
            if let Some(slot) = slot {
                t.frame[*slot as usize] = Val::Int(v);
            }
        }
        if let Err(e) = it.exec_stmts(&mut t, &p.body) {
            let (kind, msg) = match &e {
                ExecError::Eval(msg) => (ViolationKind::Eval, msg.as_str()),
                ExecError::Budget(msg) => (ViolationKind::Budget, *msg),
            };
            it.violate(kind, t.cur_pos, || format!("thread {id}: {msg}"));
        }
        // Thread 0's barrier sequence is the canonical one.
        if id == 0 {
            it.ev.barrier_trace = t.trace.clone();
            continue;
        }
        let canon = &it.ev.barrier_trace;
        if !diverged && *canon != t.trace {
            diverged = true;
            let pos = canon
                .iter()
                .zip(&t.trace)
                .find(|(a, b)| a != b)
                .map(|(a, _)| *a)
                .or_else(|| canon.get(t.trace.len()).copied())
                .or_else(|| t.trace.get(canon.len()).copied())
                .unwrap_or(Pos { line: 1, col: 1 });
            let (executed, canonical) = (t.trace.len(), canon.len());
            it.violate(ViolationKind::BarrierDivergence, pos, || {
                format!(
                    "thread {id} executed {executed} barrier(s), thread 0 executed {canonical}; first differing site marked"
                )
            });
        }
    }
    it.ev
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernelir::parser::parse_kernel;

    fn env2() -> LaunchEnv {
        LaunchEnv {
            block: (2, 1),
            grid: (1, 1),
            nx: 2,
            ny: 1,
            nz: 1,
            stride: 2,
            pstride: 2,
            coeff_len: 1,
            step_budget: 10_000,
        }
    }

    fn run(src: &str, env: &LaunchEnv) -> BlockEvents {
        let k = parse_kernel(src).expect("parse");
        run_block(&k, env, 0, 0)
    }

    #[test]
    fn clean_staged_copy() {
        let ev = run(
            "void k(const float* in, float* out) {\n\
             __shared__ float s[2];\n\
             const int tx = threadIdx.x;\n\
             s[tx] = in[tx];\n\
             __syncthreads();\n\
             out[tx] = s[tx];\n\
             }",
            &env2(),
        );
        assert!(ev.violations.is_empty(), "{:?}", ev.violations);
        assert_eq!(ev.loads.len(), 2);
        assert_eq!(ev.stores.len(), 2);
        assert_eq!(ev.barrier_trace.len(), 1);
    }

    #[test]
    fn missing_barrier_is_a_race() {
        let ev = run(
            "void k(const float* in, float* out) {\n\
             __shared__ float s[2];\n\
             const int tx = threadIdx.x;\n\
             s[tx] = in[tx];\n\
             out[tx] = s[1 - tx];\n\
             }",
            &env2(),
        );
        assert!(ev
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::SharedRace));
    }

    #[test]
    fn shared_oob_is_flagged() {
        let ev = run(
            "void k(const float* in, float* out) {\n\
             __shared__ float s[2];\n\
             const int tx = threadIdx.x;\n\
             s[tx + 2] = in[tx];\n\
             }",
            &env2(),
        );
        assert!(ev
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::SharedOob));
    }

    #[test]
    fn global_oob_is_flagged() {
        let ev = run(
            "void k(const float* in, float* out) {\n\
             const int tx = threadIdx.x;\n\
             out[tx + 100] = in[tx];\n\
             }",
            &env2(),
        );
        assert!(ev
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::GlobalOob));
    }

    #[test]
    fn divergent_barrier_is_flagged() {
        let ev = run(
            "void k(const float* in, float* out) {\n\
             const int tx = threadIdx.x;\n\
             if (tx < 1) {\n\
             __syncthreads();\n\
             }\n\
             out[tx] = in[tx];\n\
             }",
            &env2(),
        );
        assert!(ev
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::BarrierDivergence));
    }

    #[test]
    fn overflowing_integer_arithmetic_wraps_instead_of_panicking() {
        // i64::MIN / -1 and i64::MIN % -1 overflow; so does -i64::MIN.
        // They wrap like + - *: the quotient stays i64::MIN, whose
        // negation indexes far outside the buffer.
        let ev = run(
            "void k(const float* in, float* out) {\n\
             const int q = (-9223372036854775807 - 1) / -1;\n\
             const int m = (-9223372036854775807 - 1) % -1;\n\
             const int n = -q;\n\
             out[m] = in[n];\n\
             }",
            &env2(),
        );
        assert!(
            ev.violations
                .iter()
                .any(|v| v.kind == ViolationKind::GlobalOob),
            "{:?}",
            ev.violations
        );
    }

    #[test]
    fn runaway_loop_hits_the_budget() {
        let ev = run(
            "void k(const float* in, float* out) {\n\
             for (int i = 0; i >= 0; i += 0) {\n\
             out[0] = in[0];\n\
             }\n\
             }",
            &env2(),
        );
        assert!(ev
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::Budget));
    }

    #[test]
    fn an_unknown_variable_named_budget_is_an_eval_error() {
        let ev = run(
            "void k(const float* in, float* out) {\n\
             out[0] = budget;\n\
             }",
            &env2(),
        );
        let kinds: Vec<ViolationKind> = ev.violations.iter().map(|v| v.kind).collect();
        assert!(kinds.contains(&ViolationKind::Eval), "{:?}", ev.violations);
        assert!(
            !kinds.contains(&ViolationKind::Budget),
            "{:?}",
            ev.violations
        );
    }

    #[test]
    fn misaligned_vector_load_is_flagged() {
        let src = "void k(const float* in, float* out) {\n\
             __shared__ float s[8];\n\
             const float4 v = *reinterpret_cast<const float4*>(&in[1]);\n\
             float* dst = &s[0];\n\
             dst[0] = v.x;\n\
             dst[1] = v.y;\n\
             dst[2] = v.z;\n\
             dst[3] = v.w;\n\
             }";
        let mut env = env2();
        env.block = (1, 1);
        env.nx = 8;
        env.stride = 8;
        env.pstride = 8;
        let ev = run(src, &env);
        assert!(ev
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::GlobalOob));
    }

    #[test]
    fn same_value_restage_is_benign() {
        // Both threads stage in[0] into s[0]: equal provenance, no race.
        let ev = run(
            "void k(const float* in, float* out) {\n\
             __shared__ float s[2];\n\
             const int tx = threadIdx.x;\n\
             s[0] = in[0];\n\
             __syncthreads();\n\
             out[tx] = s[0];\n\
             }",
            &env2(),
        );
        assert!(ev.violations.is_empty(), "{:?}", ev.violations);
    }

    #[test]
    fn double_write_with_different_value_races() {
        // One thread writes two different loads to the same cell.
        let mut env = env2();
        env.block = (1, 1);
        let ev = run(
            "void k(const float* in, float* out) {\n\
             __shared__ float s[2];\n\
             s[0] = in[0];\n\
             s[0] = in[1];\n\
             }",
            &env,
        );
        assert!(ev
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::SharedRace));
    }

    /// The single K006 a block reports for `decls`, which name an
    /// implausible extent.
    fn implausible(decls: &str) -> Violation {
        let src = format!("void k(const float* in, float* out) {{\n{decls}\nout[0] = in[0];\n}}");
        let ev = run(&src, &env2());
        assert_eq!(ev.violations.len(), 1, "{:?}", ev.violations);
        let v = ev.violations[0].clone();
        assert_eq!(v.kind, ViolationKind::Eval);
        assert!(v.detail.contains("implausible extent"), "{}", v.detail);
        v
    }

    #[test]
    fn local_extent_overflowing_i64_is_an_eval_violation() {
        let v = implausible("float a[4294967296][4294967296];");
        assert!(
            v.detail.starts_with("thread 0: local array `a`"),
            "{}",
            v.detail
        );
    }

    #[test]
    fn shared_extent_overflowing_i64_is_an_eval_violation() {
        let v = implausible("__shared__ float a[4294967296][4294967296];");
        assert!(v.detail.contains("overflows"), "{}", v.detail);
        assert_eq!(v.pos.line, 2);
    }

    #[test]
    fn shared_space_overflowing_i64_is_an_eval_violation() {
        let v = implausible(
            "__shared__ float a[3037000499][3037000499];\n__shared__ float b[3037000499][3037000499];",
        );
        assert!(v.detail.starts_with("shared array `a`"), "{}", v.detail);
    }

    #[test]
    fn shared_space_is_bounded_like_a_local_array() {
        // Two arrays fill the bound exactly; a third element passes it.
        let ok = run(
            "void k(const float* in, float* out) {\n\
             __shared__ float a[1024][512];\n\
             __shared__ float b[1024][512];\n\
             b[1023][511] = in[0];\n\
             }",
            &env2(),
        );
        assert!(ok.violations.is_empty(), "{:?}", ok.violations);
        let v = implausible(
            "__shared__ float a[1024][512];\n__shared__ float b[1024][512];\n__shared__ float c[1];",
        );
        assert!(v.detail.starts_with("shared array `c`"), "{}", v.detail);
    }

    #[test]
    fn a_local_array_outlives_its_block() {
        // Local arrays are scope-less: declared inside the `if`, `p` is
        // still the array after the block ends, and it shadows the
        // shared array of the same name.
        let ev = run(
            "void k(const float* in, float* out) {\n\
             __shared__ float p[2];\n\
             const int tx = threadIdx.x;\n\
             if (tx < 2) {\n\
             float p[1];\n\
             }\n\
             p[0] = in[tx];\n\
             out[tx] = p[0];\n\
             }",
            &env2(),
        );
        // Through the shared array, the two threads would race on p[0].
        assert!(ev.violations.is_empty(), "{:?}", ev.violations);
    }

    #[test]
    fn a_scope_value_shadows_arrays_of_the_same_name() {
        let ev = run(
            "void k(const float* in, float* out) {\n\
             __shared__ float s[4];\n\
             const int tx = threadIdx.x;\n\
             float* s = &s[2];\n\
             s[tx] = in[tx];\n\
             }",
            &env2(),
        );
        assert!(ev.violations.is_empty(), "{:?}", ev.violations);
    }
}
